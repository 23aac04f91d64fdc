"""Command-line entry point: run rate experiments, dump seeded sample paths.

Config files are flat ``key = value`` text (see README for the schema and a
committed example). Reports are written as report.json plus report.csv with
round-trip float formatting, and manifest.json; existing files are never
overwritten without --force, and an output name held by a directory or other
non-file is refused even with it. JSON is strict: a NaN or infinity is never
written. Exit codes: 0 success, 2 configuration problems (the message names
the key), 3 runtime failures (a failed sample, a dead worker process, a
non-finite value in a report, an output that cannot be written).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .diffusion import SMOOTH
from .errors import ConfigError, TcsdeError
from .experiment import (
    SCHEME_COMPARE,
    ExperimentConfig,
    blame_sample,
    run_experiment,
    sample_paths,
)
from .timechange import write_solution_csv

# bound only for perfbench/tracing.py, which installs its wrappers by
# patching these names in this module
from .baseline import em_simulate  # noqa: F401
from .brownian import generate_path  # noqa: F401
from .timechange import build_time_change  # noqa: F401

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

#: {option: config key} for the options that override a config key; an
#: option the subcommand does not take reads as not given
OVERRIDES = {"seed": "master_seed", "samples": "samples", "resolutions": "resolutions"}


def parse_config_file(path: str | Path) -> dict:
    """Parse flat ``key = value`` lines into strings; '#' starts a comment."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        # utf-8-sig drops the byte-order mark some editors write first
        text = path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    mapping: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"{path}:{lineno}: empty key or value")
        if key in mapping:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        mapping[key] = value
    return mapping


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    mapping = parse_config_file(args.config)
    for option, key in OVERRIDES.items():
        if vars(args).get(option) is not None:
            mapping[key] = vars(args)[option]
    return ExperimentConfig.from_mapping(mapping)


def _prepare_outputs(out_dir: str, names: list[str], force: bool) -> Path:
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out: cannot create output directory {out}: {exc}") from exc
    for name in names:
        path = out / name
        if path.exists() and not path.is_file():
            raise ConfigError(f"output {path} exists and is not a regular file")
        if path.exists() and not force:
            raise ConfigError(f"output file {path} already exists; pass --force to overwrite")
    return out


@contextmanager
def _output(path: Path):
    """path opened for writing; an OSError is a runtime error naming it."""
    try:
        with path.open("w", newline="") as fh:
            yield fh
    except OSError as exc:
        raise TcsdeError(f"cannot write {path}: {exc}") from exc


def _write_json(path: Path, payload: dict) -> None:
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise TcsdeError(f"{path}: refusing to write a non-finite value ({exc})") from exc
    with _output(path) as fh:
        fh.write(text + "\n")


def _write_manifest(out: Path, args: argparse.Namespace, config: ExperimentConfig) -> None:
    manifest = {
        "config_path": str(Path(args.config).resolve()),
        "output_dir": str(out.resolve()),
        "overrides": {option: vars(args).get(option) for option in OVERRIDES},
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "tool_version": f"tcsde {__version__}",
        # numpy's SIMD targets can change the bits of its vector math
        "numpy": {
            "version": np.__version__,
            "simd": np.show_config(mode="dicts")["SIMD Extensions"],
        },
        "effective_config": config.to_mapping(),
    }
    _write_json(out / "manifest.json", manifest)


def _print_report(report: dict, coeff) -> None:
    orders = report["theoretical_orders"]
    overlay = orders["smooth"] if coeff.smoothness == SMOOTH else orders["holder"]
    print(
        f"[{report['scheme']}] fitted order {report['fitted_order']:.4f} "
        f"(stderr {report['fit_stderr']:.4f}); guaranteed overlay order {overlay:.4f}"
    )
    for row in report["per_resolution"]:
        print(f"  n={row['n']:>6d}  mean_error={row['mean_error']:.6e}  "
              f"stderr={row['stderr']:.2e}")


def cmd_run(args: argparse.Namespace) -> int:
    if args.jobs < 0:
        raise ConfigError(f"--jobs: must be >= 0 (0 means all cores), got {args.jobs}")
    config = _load_config(args)
    coeff = config.validate_for_run()
    out = _prepare_outputs(
        args.out, ["report.json", "report.csv", "manifest.json"], args.force
    )
    report = run_experiment(config, jobs=args.jobs or os.cpu_count() or 1)
    _write_json(out / "report.json", report)
    compare = config.scheme == SCHEME_COMPARE
    reports = list(report.values()) if compare else [report]
    # report.csv holds each report's per_resolution table; only a comparison
    # keeps the scheme column
    rows = [["scheme", "n", "mean_error", "stderr"]] + [
        [rep["scheme"], row["n"], repr(row["mean_error"]), repr(row["stderr"])]
        for rep in reports
        for row in rep["per_resolution"]
    ]
    _write_csv(out / "report.csv", rows if compare else [row[1:] for row in rows])
    for rep in reports:
        _print_report(rep, coeff)
    _write_manifest(out, args, config)
    return EXIT_OK


def _write_csv(path: Path, rows) -> None:
    with _output(path) as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def cmd_dump_path(args: argparse.Namespace) -> int:
    config = _load_config(args)
    n = args.n
    if n != config.ref_resolution and n not in config.resolutions:
        raise ConfigError(
            f"--n: {n} is neither in the configured ladder {list(config.resolutions)} "
            f"nor the reference resolution {config.ref_resolution}"
        )
    if not 0 <= args.sample < config.samples:
        raise ConfigError(
            f"--sample: {args.sample} outside the configured range [0, {config.samples})"
        )
    coeff = config.build_coefficient()
    name = f"path-{args.sample}-{n}.csv"
    out = _prepare_outputs(args.out, [name], args.force)
    sample = blame_sample(args.sample, sample_paths, config, coeff, args.sample)[n]
    with _output(out / name) as fh:
        write_solution_csv(sample, fh)
    print(f"wrote {out / name}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tcsde",
        description="Time-change discretization of driftless scalar SDEs: "
        "strong-rate experiments and path dumps.",
    )
    parser.add_argument("--version", action="version", version=f"tcsde {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # the options both subcommands take
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("config", help="path to a flat key = value config file")
    shared.add_argument("--seed", type=int, default=None, help="override master_seed")
    shared.add_argument("--samples", type=int, default=None, help="override sample count")
    shared.add_argument("--out", default=".", help="output directory (default: .)")
    shared.add_argument("--force", action="store_true", help="overwrite existing outputs")

    run = sub.add_parser(
        "run", parents=[shared], help="run a rate experiment from a config file"
    )
    run.add_argument(
        "--resolutions", default=None, help="override the ladder, comma-separated"
    )
    run.add_argument(
        "--jobs", type=int, default=0, help="worker processes (default: all cores)"
    )
    run.set_defaults(func=cmd_run)

    dump = sub.add_parser(
        "dump-path", parents=[shared], help="dump one seeded sample path as CSV"
    )
    dump.add_argument("--sample", type=int, required=True, help="sample index")
    dump.add_argument("--n", type=int, required=True, help="resolution (ladder or ref)")
    dump.set_defaults(func=cmd_dump_path)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TcsdeError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
