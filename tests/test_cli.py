import csv
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tcsde import cli
from tcsde.cli import main, parse_config_file
from tcsde.errors import ConfigError
from tcsde.experiment import ExperimentConfig

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

SMALL_CONFIG = """\
# comment line
coefficient    = smooth-sin
params         = 2.0, 1.0
T              = 1.0
x0             = 0.0
resolutions    = 16, 32, 64   # trailing comment
ref_resolution = 512
p              = 2
samples        = 12
master_seed    = 20260808
scheme         = time-change
"""


def _config_text(**values):
    """SMALL_CONFIG with the given keys set to new values."""
    lines = []
    for line in SMALL_CONFIG.splitlines():
        key = line.split("=")[0].strip()
        lines.append(f"{key} = {values[key]}" if key in values else line)
    return "\n".join(lines) + "\n"


def _run_and_dump(cfg, out, n=16):
    """argv of `run` and of `dump-path` on one config file."""
    return [
        ["run", str(cfg), "--out", str(out), "--jobs", "1"],
        ["dump-path", str(cfg), "--sample", "0", "--n", str(n), "--out", str(out)],
    ]


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(SMALL_CONFIG)
    return path


class TestConfigParsing:
    def test_parse_and_build(self, config_file):
        mapping = parse_config_file(config_file)
        cfg = ExperimentConfig.from_mapping(mapping)
        assert cfg.resolutions == (16, 32, 64)
        assert cfg.sde_horizon == 1.0
        assert cfg.samples == 12

    def test_missing_file(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.cfg")]) == 2

    def test_malformed_line(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("coefficient smooth-sin\n")
        assert main(["run", str(bad)]) == 2

    def test_duplicate_key(self, tmp_path):
        bad = tmp_path / "dup.cfg"
        bad.write_text("T = 1\nT = 2\n")
        assert main(["run", str(bad)]) == 2

    def test_non_utf8_file_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "latin1.cfg"
        bad.write_bytes(SMALL_CONFIG.replace("comment line", "caf\xe9").encode("latin-1"))
        assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(bad) in err

    def test_byte_order_mark_is_accepted(self, tmp_path):
        committed = CONFIGS / "smooth-sin-rate.cfg"
        bom = tmp_path / "bom.cfg"
        bom.write_bytes(b"\xef\xbb\xbf" + committed.read_bytes())
        assert parse_config_file(bom) == parse_config_file(committed)


class TestCmdRun:
    def test_happy_path(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", str(config_file), "--out", str(out), "--jobs", "1"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert "fitted_order" in report
        assert report["scheme"] == "time-change"
        assert [row["n"] for row in report["per_resolution"]] == [16, 32, 64]
        assert (out / "report.csv").read_text().splitlines()[0] == "n,mean_error,stderr"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["effective_config"]["samples"] == 12
        assert "fitted order" in capsys.readouterr().out

    def test_config_echo_reparses_equal(self, config_file, tmp_path):
        out = tmp_path / "out"
        assert main(["run", str(config_file), "--out", str(out), "--jobs", "1"]) == 0
        report = json.loads((out / "report.json").read_text())
        echoed = ExperimentConfig.from_mapping(report["metadata"]["config"])
        assert echoed == ExperimentConfig.from_mapping(parse_config_file(config_file))

    def test_refuses_overwrite_without_force(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", str(config_file), "--out", str(out), "--jobs", "1"]) == 0
        assert main(["run", str(config_file), "--out", str(out), "--jobs", "1"]) == 2
        assert "--force" in capsys.readouterr().err
        code = main(["run", str(config_file), "--out", str(out), "--jobs", "1", "--force"])
        assert code == 0

    def test_refuses_to_overwrite_a_lone_manifest(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "manifest.json").write_text("{}\n")
        assert main(["run", str(config_file), "--out", str(out), "--jobs", "1"]) == 2
        assert "manifest.json" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]
        assert (out / "manifest.json").read_text() == "{}\n"

    def test_non_finite_report_exits_3_and_writes_nothing(
        self, config_file, tmp_path, capsys, monkeypatch
    ):
        nan_report = {"fitted_order": float("nan")}
        monkeypatch.setattr(cli, "run_experiment", lambda config, jobs: nan_report)
        out = tmp_path / "out"
        assert main(["run", str(config_file), "--out", str(out), "--jobs", "1"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("runtime error: ") and "report.json" in err
        assert list(out.iterdir()) == []

    def test_bad_resolution_cites_field(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(SMALL_CONFIG.replace("16, 32, 64   # trailing comment", "48"))
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "resolutions" in capsys.readouterr().err

    def test_non_finite_values_are_config_errors(self, tmp_path, capsys):
        for old, new, field in [
            ("T              = 1.0", "T = nan", "T"),
            ("T              = 1.0", "T = inf", "T"),
            ("p              = 2", "p = nan", "p"),
            ("p              = 2", "p = inf", "p"),
            ("params         = 2.0, 1.0", "params = 2.0, nan", "params"),
            ("master_seed    = 20260808", f"master_seed = {2**64}", "master_seed"),
            ("samples        = 12", "samples = 1.5", "samples"),
            ("master_seed    = 20260808", "master_seed = abc", "master_seed"),
            ("resolutions    = 16, 32, 64", "resolutions = 4, x", "resolutions"),
            ("ref_resolution = 512", "ref_resolution = 1e3", "ref_resolution"),
        ]:
            cfg = tmp_path / "bad.cfg"
            cfg.write_text(SMALL_CONFIG.replace(old, new))
            assert main(["run", str(cfg), "--out", str(tmp_path / "o"), "--jobs", "1"]) == 2
            assert f"config error: {field}: " in capsys.readouterr().err

    def test_unknown_coefficient_lists_corpus(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(SMALL_CONFIG.replace("smooth-sin", "does-not-exist"))
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "coefficient" in err
        assert "holder-root" in err and "constant" in err

    def test_manifest_records_invocation(self, config_file, tmp_path):
        out = tmp_path / "out"
        assert main(["run", str(config_file), "--out", str(out), "--jobs", "1",
                     "--seed", "5"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["overrides"]["seed"] == 5
        assert manifest["tool_version"].startswith("tcsde ")
        assert "timestamp" in manifest
        assert manifest["config_path"].endswith("exp.cfg")
        assert manifest["numpy"]["version"] == np.__version__
        assert "baseline" in manifest["numpy"]["simd"]
        # the timestamp lives only here: report.json must stay byte-stable
        report = json.loads((out / "report.json").read_text())
        assert "timestamp" not in json.dumps(report)

    def test_seed_and_samples_overrides(self, config_file, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["run", str(config_file), "--out", str(out), "--jobs", "1",
             "--seed", "7", "--samples", "6"]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["metadata"]["config"]["master_seed"] == 7
        assert report["metadata"]["config"]["samples"] == 6

    def test_resolutions_override(self, config_file, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["run", str(config_file), "--out", str(out), "--jobs", "1",
             "--resolutions", "32,64"]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert [r["n"] for r in report["per_resolution"]] == [32, 64]

    def test_empty_resolutions_override_is_config_error(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["run", str(config_file), "--out", str(out), "--jobs", "1", "--resolutions", ""]
        assert main(argv) == 2
        assert "config error: resolutions: malformed value ''" in capsys.readouterr().err

    def test_negative_jobs_is_config_error(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", str(config_file), "--out", str(out), "--jobs", "-3"]) == 2
        assert "config error: --jobs: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "values,field",
        [
            ({"samples": "1"}, "samples"),
            ({"ref_resolution": "128"}, "ref_resolution"),
            ({"coefficient": "holder-root", "params": "1.0, 1.0, 0.3, 0.0",
              "scheme": "euler-maruyama"}, "scheme"),
        ],
    )
    def test_refused_run_makes_no_output_directory(self, tmp_path, capsys, values, field):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(_config_text(**values))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out), "--jobs", "1"]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {field}: ")
        assert not out.exists()

    def test_out_naming_a_file_is_config_error(self, config_file, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("not a directory\n")
        assert main(["run", str(config_file), "--out", str(out), "--jobs", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --out: ") and str(out) in err
        assert out.read_text() == "not a directory\n"

    def test_compare_scheme_writes_paired_report(self, tmp_path):
        cfg = tmp_path / "cmp.cfg"
        cfg.write_text(
            SMALL_CONFIG.replace("smooth-sin", "holder-root")
            .replace("params         = 2.0, 1.0", "params = 1.0, 1.0, 0.6, 0.0")
            .replace("scheme         = time-change", "scheme = compare")
        )
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out), "--jobs", "1"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert set(report) == {"time_change", "euler_maruyama"}
        csv_text = (out / "report.csv").read_text()
        assert csv_text.splitlines()[0] == "scheme,n,mean_error,stderr"

    @pytest.mark.parametrize("scheme", ["time-change", "compare"])
    def test_csv_rows_are_the_json_values(self, tmp_path, scheme):
        # each field is the repr of the report.json value; a comparison's
        # rows lead with the scheme, time-change first
        cfg = tmp_path / "c.cfg"
        cfg.write_text(_config_text(coefficient="holder-root", params="1.0, 1.0, 0.6, 0.0",
                                    scheme=scheme))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out), "--jobs", "1"]) == 0
        report = json.loads((out / "report.json").read_text())
        with (out / "report.csv").open(newline="") as fh:
            header, *rows = list(csv.reader(fh))
        if scheme == "compare":
            assert header == ["scheme", "n", "mean_error", "stderr"]
            reports = [report["time_change"], report["euler_maruyama"]]
            assert [row.pop(0) for row in rows] == ["time-change"] * 3 + ["euler-maruyama"] * 3
        else:
            assert header == ["n", "mean_error", "stderr"]
            reports = [report]
        want = [[repr(r[key]) for key in ("n", "mean_error", "stderr")]
                for rep in reports for r in rep["per_resolution"]]
        assert rows == want


class TestCmdDumpPath:
    def test_constant_sigma_grid_times(self, tmp_path):
        # sigma = 2, n = 4: the clock runs at rate 1/4, so the dumped
        # breakpoints are exactly k/16 up to T = 1
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            SMALL_CONFIG.replace("smooth-sin", "constant")
            .replace("params         = 2.0, 1.0", "params = 2.0")
            .replace("16, 32, 64   # trailing comment", "4, 16, 32, 64")
        )
        out = tmp_path / "out"
        code = main(
            ["dump-path", str(cfg), "--sample", "0", "--n", "4", "--out", str(out)]
        )
        assert code == 0
        lines = (out / "path-0-4.csv").read_text().strip().splitlines()
        assert lines[0] == "t,x_hat"
        ts = np.array([float(line.split(",")[0]) for line in lines[1:]])
        np.testing.assert_array_equal(ts, np.arange(17) / 16.0)

    def test_byte_identical_reruns(self, config_file, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            code = main(
                ["dump-path", str(config_file), "--sample", "2", "--n", "32",
                 "--out", str(out)]
            )
            assert code == 0
        assert (out_a / "path-2-32.csv").read_bytes() == (out_b / "path-2-32.csv").read_bytes()

    def test_dump_matches_experiment_coupling(self, config_file, tmp_path):
        # the dumped coarse path is built on the subsample of the same seeded
        # fine driver the experiment uses
        out = tmp_path / "out"
        main(["dump-path", str(config_file), "--sample", "1", "--n", "16", "--out", str(out)])
        lines = (out / "path-1-16.csv").read_text().strip().splitlines()[1:]

        from tcsde.brownian import generate_path
        from tcsde.diffusion import builtin_coefficient
        from tcsde.timechange import SamplePath, build_time_change, required_horizon

        coeff = builtin_coefficient("smooth-sin", [2.0, 1.0])
        fine = generate_path(512, required_horizon(coeff, 1.0, 16), 0.0, 20260808, 1)
        coarse = fine.subsample(32)
        sp = SamplePath(
            driver=coarse,
            time_change=build_time_change(coarse, coeff, 1.0),
            sde_horizon=1.0,
        )
        pts = sp.breakpoints()
        assert len(lines) == len(pts)
        for line, t, v in zip(lines, pts, sp.evaluate_many(pts)):
            st, sv = line.split(",")
            assert float(st) == t
            assert float(sv) == v

    def test_sample_out_of_range(self, config_file, tmp_path, capsys):
        out = tmp_path / "o"
        for sample in ("12", "-1"):
            code = main(
                ["dump-path", str(config_file), "--sample", sample, "--n", "16",
                 "--out", str(out)]
            )
            assert code == 2
            assert capsys.readouterr().err.startswith(
                f"config error: --sample: {sample} outside the configured range [0, 12)"
            )
            assert not out.exists()

    def test_n_not_in_ladder(self, config_file, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(
            ["dump-path", str(config_file), "--sample", "0", "--n", "24", "--out", str(out)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --n: 24 ") and "ladder" in err
        assert not out.exists()

    def test_ref_resolution_allowed(self, config_file, tmp_path):
        code = main(
            ["dump-path", str(config_file), "--sample", "0", "--n", "512",
             "--out", str(tmp_path / "o")]
        )
        assert code == 0

    def test_em_scheme_dump(self, config_file, tmp_path):
        cfg = tmp_path / "em.cfg"
        cfg.write_text(SMALL_CONFIG.replace("time-change", "euler-maruyama"))
        out = tmp_path / "out"
        code = main(["dump-path", str(cfg), "--sample", "0", "--n", "16", "--out", str(out)])
        assert code == 0
        lines = (out / "path-0-16.csv").read_text().strip().splitlines()
        assert lines[0] == "t,x_hat"
        assert len(lines) == 18  # 16 steps + initial knot + header


class TestSubnormalRampUnderEm:
    """A step-mollified ramp of subnormal width under Euler-Maruyama: (x - lo)
    / d overflows at almost every step, and the ramp clips it to 1. Neither
    command may warn; pytest turns a warning into an error."""

    @pytest.fixture
    def argvs(self, tmp_path):
        cfg = tmp_path / "ramp.cfg"
        cfg.write_text(_config_text(coefficient="step-mollified", params="1, 2, 0, 5e-324",
                                    scheme="euler-maruyama"))
        return _run_and_dump(cfg, tmp_path / "out")

    def test_run(self, argvs, tmp_path, capsys):
        assert main(argvs[0]) == 0
        assert capsys.readouterr().err == ""
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert all(0 < row["mean_error"] < 1 for row in report["per_resolution"])

    def test_dump_path(self, argvs, tmp_path, capsys):
        assert main(argvs[1]) == 0
        assert capsys.readouterr().err == ""
        lines = (tmp_path / "out" / "path-0-16.csv").read_text().strip().splitlines()
        assert len(lines) == 18  # 16 steps + initial knot + header


class TestCommittedConfigs:
    def test_examples_parse(self):
        for name in ("smooth-sin-rate.cfg", "holder-root-compare.cfg"):
            cfg = ExperimentConfig.from_mapping(parse_config_file(CONFIGS / name))
            cfg.validate_for_run()


class TestRuntimeErrors:
    def test_contract_breach_exits_3(self, tmp_path, monkeypatch, capsys):
        import tcsde.experiment as exp
        from tcsde.errors import ContractViolationError

        def boom(config, coeff, sample_index):
            raise ContractViolationError("synthetic breach")

        monkeypatch.setattr(exp, "_tc_sample", boom)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(SMALL_CONFIG)
        code = main(["run", str(cfg), "--out", str(tmp_path / "o"), "--jobs", "1"])
        assert code == 3
        assert "sample 0" in capsys.readouterr().err

    def test_level_with_every_error_zero_exits_3(self, tmp_path, capsys):
        # at x0 = 2^53 (ulp 2) the rounding of x0 swallows every EM increment
        # of these two samples from n = 128 on, so their errors there are 0
        cfg = tmp_path / "c.cfg"
        cfg.write_text(_config_text(
            coefficient="holder-root", params="1, 1, 0.6, 0", scheme="euler-maruyama",
            x0=str(2**53), resolutions="16, 32, 64, 128, 256, 512", ref_resolution="8192",
            samples="2", master_seed="3",
        ))
        out = tmp_path / "o"
        assert main(["run", str(cfg), "--out", str(out), "--jobs", "1"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("runtime error: at n=128 every sample's error is exactly 0")
        assert not (out / "report.json").exists()

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="pool workers see the patched sampler only under the fork start method",
    )
    def test_dead_worker_exits_3(self, tmp_path, monkeypatch, capsys):
        import tcsde.experiment as exp

        monkeypatch.setattr(exp, "_tc_sample", lambda *args: os._exit(1))
        cfg = tmp_path / "c.cfg"
        cfg.write_text(SMALL_CONFIG)
        code = main(["run", str(cfg), "--out", str(tmp_path / "o"), "--jobs", "2"])
        assert code == 3
        assert "runtime error: a worker process died" in capsys.readouterr().err


class TestRefusedBeforeAnySample:
    """Configs the float64 clock or numpy's indexing cannot carry are config
    errors naming their field, in both commands, before any driver is drawn."""

    @pytest.fixture(autouse=True)
    def _no_driver(self, monkeypatch):
        import tcsde.experiment as exp

        def refuse(*args, **kwargs):
            raise AssertionError("a driver was drawn")

        monkeypatch.setattr(exp, "generate_path", refuse)

    @pytest.mark.parametrize(
        "coefficient,params", [("constant", "1e200"), ("constant", "1e-200"),
                               ("smooth-sin", "1e308, 9e307")],
    )
    def test_bounds_float64_cannot_square(self, tmp_path, capsys, coefficient, params):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(_config_text(coefficient=coefficient, params=params))
        for argv in _run_and_dump(cfg, tmp_path / "o"):
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("config error: coefficient: ") and "C2^2" in err

    @pytest.mark.parametrize("scheme", ["time-change", "euler-maruyama", "compare"])
    def test_driver_numpy_cannot_index(self, tmp_path, capsys, scheme):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(_config_text(T="1e300", resolutions="4, 8", ref_resolution="32",
                                    scheme=scheme))
        for argv in _run_and_dump(cfg, tmp_path / "o", n=8):
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("config error: T: ") and "ref_resolution 32" in err

    def test_limit_is_numpy_indexing(self, tmp_path, monkeypatch):
        # smooth-sin (2, 1) draws 1.1 * 9 * T + 2 / 4 Brownian time at
        # ref_resolution 32: half the intp limit passes, twice it does not;
        # memory is taken as unbounded, so only the index limit is seen
        import tcsde.experiment as exp

        monkeypatch.setattr(exp, "_physical_memory", lambda: float("inf"))
        cfg = tmp_path / "c.cfg"
        cfg.write_text(_config_text(resolutions="4, 8", ref_resolution="32"))
        mapping = parse_config_file(cfg)
        half = np.iinfo(np.intp).max / 32 / 2 / 9.9
        ExperimentConfig.from_mapping({**mapping, "T": half}).build_coefficient()
        with pytest.raises(ConfigError, match="^T: "):
            ExperimentConfig.from_mapping({**mapping, "T": 4 * half}).build_coefficient()

    @pytest.mark.parametrize("scheme", ["time-change", "euler-maruyama", "compare"])
    def test_driver_larger_than_memory(self, tmp_path, capsys, monkeypatch, scheme):
        import tcsde.experiment as exp

        monkeypatch.setattr(exp, "_physical_memory", lambda: 2.0**30)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(_config_text(resolutions="4, 8", ref_resolution=str(2**40),
                                    scheme=scheme))
        for argv in _run_and_dump(cfg, tmp_path / "o", n=8):
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith(f"config error: ref_resolution: {2**40} needs a driver ")
            assert "more than the 1 GiB of physical memory" in err
            assert not (tmp_path / "o").exists()

    def test_limit_is_16_bytes_a_knot(self, tmp_path, monkeypatch):
        # the first driver holds ref_resolution * horizon + 1 knots
        import tcsde.experiment as exp

        cfg = tmp_path / "c.cfg"
        cfg.write_text(_config_text(resolutions="4, 8", ref_resolution="32"))
        config = ExperimentConfig.from_mapping(parse_config_file(cfg))
        coeff = config.build_coefficient()
        need = 16 * (32 * exp._driver_horizon(config, coeff, "time-change") + 1)
        monkeypatch.setattr(exp, "_physical_memory", lambda: need)
        config.build_coefficient()
        monkeypatch.setattr(exp, "_physical_memory", lambda: need - 1)
        with pytest.raises(ConfigError, match="^ref_resolution: 32 needs a driver "):
            config.build_coefficient()


class TestOutputs:
    """An output name the command cannot write is refused or reported by
    name, never a traceback."""

    @pytest.mark.parametrize("command,name", [(0, "report.json"), (1, "path-0-16.csv")],
                             ids=["run", "dump-path"])
    def test_directory_refused_even_with_force(self, config_file, tmp_path, capsys,
                                               monkeypatch, command, name):
        import tcsde.experiment as exp

        def refuse(*args):
            raise AssertionError("a run sample ran")

        monkeypatch.setattr(exp, "_run_sample", refuse)
        out = tmp_path / "o"
        (out / name).mkdir(parents=True)
        assert main(_run_and_dump(config_file, out)[command] + ["--force"]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: output {out / name} exists and is not a regular file\n"

    @pytest.mark.parametrize("command,name", [(0, "report.json"), (1, "path-0-16.csv")],
                             ids=["run", "dump-path"])
    def test_existing_output_refused_before_any_sample(self, config_file, tmp_path, capsys,
                                                       monkeypatch, command, name):
        # a sample that ran would fail (exit 3); the refusal comes first (exit 2)
        import tcsde.brownian as brownian

        def drawn(*args, **kwargs):
            raise AssertionError("a driver was drawn")

        monkeypatch.setattr(brownian, "gaussian_increments", drawn)
        out = tmp_path / "o"
        out.mkdir()
        (out / name).write_text("kept\n")
        assert main(_run_and_dump(config_file, out)[command]) == 2
        err = capsys.readouterr().err
        assert err == (f"config error: output file {out / name} already exists; "
                       "pass --force to overwrite\n")
        assert (out / name).read_text() == "kept\n"

    @pytest.mark.parametrize("command,name", [(0, "report.json"), (1, "path-0-16.csv")],
                             ids=["run", "dump-path"])
    def test_unwritable_output_is_a_runtime_error(self, config_file, tmp_path, capsys,
                                                  command, name):
        # a link into a missing directory passes the checks but cannot be opened
        out = tmp_path / "o"
        out.mkdir()
        (out / name).symlink_to(tmp_path / "missing" / name)
        assert main(_run_and_dump(config_file, out)[command]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"runtime error: cannot write {out / name}: ")


class TestSampleFailures:
    def test_failed_sample_exits_3_in_both_commands(self, config_file, tmp_path,
                                                    monkeypatch, capsys):
        import tcsde.brownian as brownian

        def out_of_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(brownian, "gaussian_increments", out_of_memory)
        for argv in _run_and_dump(config_file, tmp_path / "o"):
            assert main(argv) == 3, argv
            err = capsys.readouterr().err
            assert err == "runtime error: sample 0 failed in brownian: MemoryError\n"

    def test_dump_path_contract_breach_names_the_sample(self, config_file, tmp_path,
                                                        monkeypatch, capsys):
        import tcsde.experiment as exp
        from tcsde.errors import ContractViolationError

        def breach(*args):
            raise ContractViolationError("synthetic breach")

        monkeypatch.setattr(exp, "build_time_change", breach)
        argv = _run_and_dump(config_file, tmp_path / "o")[1]
        argv[argv.index("--sample") + 1] = "3"
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err == "runtime error: sample 3 failed in experiment: synthetic breach\n"


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats is most of the import time, and the package never needs it
    code = "import sys, tcsde, tcsde.cli; print('scipy.stats' in sys.modules)"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
