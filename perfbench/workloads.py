"""The workloads, each chosen to load one layer of the time-change pipeline.

Every config is generated here from the benchmark seed, so the benchmark
does not change when the committed example configs do. A timed run repeats
a fixed unit of work, a *rep*: one `tcsde run` of the workload's config on
master seed ``rep_seed(s, r)``. The same seed therefore always gives the
same inputs, and every rep can be checked against its own pinned digest.

  smooth-rate       smooth-sin rate experiment (ladder 2^4..2^10, ref 2^14),
                    time-change scheme, jobs 1. The exact sup takes ~90% of
                    sample time and the driver draws ~3x the knots the clock
                    uses: the paper's headline experiment.
  time-smooth-rate  the same ladder with sigma = 2 + sin(x + t), jobs 1. The
                    numpy lane integrates this clock in the interpreted loop,
                    so the clock layer carries ~40% of sample time.
  holder-em         holder-root beta 0.6 (ladder 2^4..2^9, ref 2^13), scheme
                    euler-maruyama, jobs $(nproc). EM dominates and samples
                    are short, so pool overhead shows; the only workload
                    through the process pool, and one that never builds a
                    clock.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

SMOOTH_LADDER = "16, 32, 64, 128, 256, 512, 1024"
HOLDER_LADDER = "16, 32, 64, 128, 256, 512"

CONFIG_TEMPLATE = """\
coefficient    = {coefficient}
params         = {params}
T              = 1.0
x0             = 0.0
resolutions    = {resolutions}
ref_resolution = {ref}
p              = 2
samples        = {samples}
master_seed    = {master_seed}
scheme         = {scheme}
"""


@dataclass(frozen=True)
class Workload:
    name: str
    coefficient: str
    params: str
    resolutions: str
    ref: int
    scheme: str
    samples: int  # samples per rep
    parallel: bool = False  # run at --jobs nproc instead of --jobs 1

    def config_text(self, master_seed: int) -> str:
        return CONFIG_TEMPLATE.format(
            coefficient=self.coefficient,
            params=self.params,
            resolutions=self.resolutions,
            ref=self.ref,
            samples=self.samples,
            master_seed=master_seed,
            scheme=self.scheme,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("smooth-rate", "smooth-sin", "2.0, 1.0", SMOOTH_LADDER, 16384,
                 "time-change", 8),
        Workload("time-smooth-rate", "time-smooth", "2.0, 1.0", SMOOTH_LADDER, 16384,
                 "time-change", 6),
        Workload("holder-em", "holder-root", "1.0, 1.0, 0.6, 0.0", HOLDER_LADDER, 8192,
                 "euler-maruyama", 96, parallel=True),
    )
}


def rep_seed(seed: int, rep: int) -> int:
    """Master seed of rep `rep` under benchmark seed `seed`."""
    return (1000 * seed + rep) % 2**63


def jobs(workload: Workload) -> int:
    return (os.cpu_count() or 1) if workload.parallel else 1


class RepFailed(Exception):
    """A rep whose program call failed or whose output is wrong."""


def run_rep(workload: Workload, master_seed: int, out: Path, n_jobs: int) -> None:
    """`tcsde run` of one rep into `out` with `n_jobs` workers; raises RepFailed."""
    from tcsde.cli import main

    out.mkdir(parents=True, exist_ok=True)
    cfg = out / "bench.cfg"
    cfg.write_text(workload.config_text(master_seed))
    argv = ["run", str(cfg), "--out", str(out), "--force", "--jobs", str(n_jobs)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if code != 0:
        raise RepFailed(f"tcsde run exited {code}")


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def _check_finite(node, where: str) -> None:
    if isinstance(node, dict):
        for key, value in node.items():
            _check_finite(value, f"{where}.{key}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            _check_finite(value, f"{where}[{i}]")
    elif isinstance(node, float) and not math.isfinite(node):
        raise RepFailed(f"non-finite value at {where}")


def check_rep(out: Path) -> str:
    """Validate a rep's report.json; returns its sha256. Raises RepFailed."""
    path = out / "report.json"
    if not path.is_file():
        raise RepFailed("missing report.json")
    data = path.read_bytes()
    try:
        report = json.loads(data, parse_constant=_reject_constant)
    except ValueError as exc:
        raise RepFailed(f"report.json: {exc}") from exc
    _check_finite(report, "report")
    rows = report["per_resolution"]
    if not rows or any(r["mean_error"] <= 0 for r in rows):
        raise RepFailed("report.json: missing or non-positive mean errors")
    excess = report["diagnostics"].get("inverse_clock_bound_max_excess")
    if excess is not None and excess > 1e-10:
        raise RepFailed(f"report.json: inverse-clock bound exceeded by {excess}")
    return hashlib.sha256(data).hexdigest()
