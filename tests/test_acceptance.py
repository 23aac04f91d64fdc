"""Acceptance suite: one test per criterion, each printing a PASS line.

The heavy experiments run once per session through module-scoped fixtures;
criterion 3's experiment goes through the CLI so the determinism criterion
can compare the report bytes it writes.
"""

import hashlib
import json
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import ACCEPTANCE_RESULTS
from strategies import CORPUS_PARAMS, SEED
from tcsde import _kernels
from tcsde.brownian import generate_path
from tcsde.cli import main, parse_config_file
from tcsde.diffusion import builtin_coefficient
from tcsde.experiment import (
    ExperimentConfig,
    run_experiment,
    sample_paths,
    strong_error_one_sample,
)
from tcsde.timechange import SamplePath, build_time_change, required_horizon

REPO = Path(__file__).resolve().parent.parent

#: sha256 of (report.json, report.csv) that each committed config writes; a
#: change that moves them on purpose updates them and says why
COMMITTED_DIGESTS = {
    "smooth-sin-rate.cfg": (
        "8564eac374854a4bfa734500eacff0ebb9f54feab8d1d5752d33b9a83ff25a64",
        "6df2824ad7d64f01a1980b0cbdb45c5fd8119b02e93b8efa10fd3407029b3f68",
    ),
    "holder-root-compare.cfg": (
        "aba226361c8ebd517a35bdd8940f82a16549a0d9370c9f70ecfd671badbd9bf6",
        "54606d6c18df2a8e5d00ce721375d84e2317c0e5279aa69c4a72e6170f8986f0",
    ),
}

#: sha256 of the CSV that `dump-path --sample 3 --n N` writes for each
#: committed config; the same rule as COMMITTED_DIGESTS
DUMP_PATH_DIGESTS = {
    ("smooth-sin-rate.cfg", 16):
        "6ef23a232bbe51cc2c042993bde3d0b460c9449c14de2d789538c70bbcd5943f",
    ("smooth-sin-rate.cfg", 1024):
        "ac661588991f0efc99b0c8caaed10fd6ee9d8c21e15f50ef8247b7ac764d4a29",
    ("holder-root-compare.cfg", 16):
        "5e90e2d600ca8040781d5fb4c2ecbe35f7f11ae491a0f37d2ea05337b1553fd9",
    ("holder-root-compare.cfg", 512):
        "8f232dad90a23f661867d3494f32c57a1b07b2ad90d4e3f1c72193a5c3e12e11",
}


def _digests(out: Path) -> tuple[str, str]:
    return tuple(
        hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("report.json", "report.csv")
    )


def _record(num: int, text: str) -> None:
    ACCEPTANCE_RESULTS.append(f"criterion {num}: PASS - {text}")


@pytest.fixture(scope="module")
def criterion3_runs(tmp_path_factory):
    """Criterion 3's experiment, run through the CLI with jobs 1 and jobs 8:
    its report and, per jobs, the report.json bytes and both outputs' digests."""
    cfg = REPO / "configs" / "smooth-sin-rate.cfg"
    outputs = {}
    digests = {}
    for jobs in (1, 8):
        out = tmp_path_factory.mktemp(f"crit3-jobs{jobs}")
        code = main(["run", str(cfg), "--out", str(out), "--jobs", str(jobs)])
        assert code == 0
        outputs[jobs] = (out / "report.json").read_bytes()
        digests[jobs] = _digests(out)
    report = json.loads(outputs[1])
    return report, outputs, digests


@pytest.fixture(scope="module")
def criterion4_reports():
    reports = {}
    for beta in (0.5, 0.3):
        cfg = ExperimentConfig(
            coefficient="holder-root",
            params=(1.0, 1.0, beta, 0.0),
            sde_horizon=1.0,
            x0=0.0,
            resolutions=tuple(2**k for k in range(4, 11)),
            ref_resolution=2**14,
            p=2.0,
            samples=1000,
            master_seed=SEED,
        )
        reports[beta] = run_experiment(cfg, jobs=2)
    return reports


def test_criterion_1_exact_inverse_suite():
    # 100 seeded clock constructions across the corpus: knot round-trips to
    # 1 ulp, random round-trips to 1e-12 relative, in under 10 seconds
    start = time.time()
    names = sorted(CORPUS_PARAMS)
    checked_knots = 0
    for i in range(100):
        name = names[i % len(names)]
        coeff = builtin_coefficient(name, CORPUS_PARAMS[name])
        n = (16, 64, 128)[i % 3]
        cfg = ExperimentConfig(
            coefficient=name,
            params=CORPUS_PARAMS[name],
            sde_horizon=1.0,
            x0=0.0,
            resolutions=(n,),
            ref_resolution=n,
            p=2.0,
            samples=i + 1,
            master_seed=SEED,
        )
        tc = sample_paths(cfg, coeff, i)[n].time_change

        # the inverse clock as _tc_sample reads it: the path through
        # (clock, knots_s)
        got = _kernels.pl_eval_many(tc.clock, tc.knots_s, tc.clock)
        want = np.arange(tc.knot_count) / n
        assert np.all(np.abs(got - want) <= np.spacing(np.maximum(want, np.finfo(float).tiny)))
        checked_knots += tc.knot_count

        rng = np.random.default_rng(1000 + i)
        ts = rng.uniform(0.0, float(tc.clock[-1]), 1000)
        taus = _kernels.pl_eval_many(tc.clock, tc.knots_s, ts)
        back = _kernels.pl_eval_many(tc.knots_s, tc.clock, taus)
        assert np.all(np.abs(back - ts) <= 1e-12 * np.maximum(1.0, np.abs(ts)))
    elapsed = time.time() - start
    assert elapsed < 10.0, f"exact-inverse suite took {elapsed:.1f}s"
    _record(1, f"100 samples, {checked_knots} knot round-trips, {elapsed:.1f}s")


def test_criterion_2_constant_sigma_oracle():
    # sigma = 2: the solution at every clock knot k/(4n) equals the driver
    # knot exactly, and coupled sup-errors decrease with n (median over 100
    # seeds strictly decreasing), in under 30 seconds
    start = time.time()
    coeff = builtin_coefficient("constant", [2.0])
    ladder = [4, 8, 16, 32, 64, 128, 256]
    ref = 1024

    for i in range(10):
        fine = generate_path(ref, required_horizon(coeff, 1.0, 4), 0.0, SEED, i)
        for n in ladder:
            coarse = fine.subsample(ref // n)
            sp = SamplePath(
                driver=coarse,
                time_change=build_time_change(coarse, coeff, 1.0),
                sde_horizon=1.0,
            )
            ts = np.arange(sp.time_change.knot_count) / (n * 4.0)
            ts = ts[ts <= 1.0]
            exact = _kernels.pl_eval_many(sp.t, sp.y, ts) == coarse.values[: len(ts)]
            assert np.all(exact), (i, n, np.flatnonzero(~exact))

    cfg = ExperimentConfig(
        coefficient="constant",
        params=(2.0,),
        sde_horizon=1.0,
        x0=0.0,
        resolutions=tuple(ladder),
        ref_resolution=ref,
        p=2.0,
        samples=100,
        master_seed=SEED,
    )
    errors = np.stack(
        [strong_error_one_sample(cfg, i).sup_errors for i in range(100)]
    )
    medians = np.median(errors, axis=0)
    assert np.all(np.diff(medians) < 0), medians
    elapsed = time.time() - start
    assert elapsed < 30.0, f"constant-sigma oracle took {elapsed:.1f}s"
    _record(2, f"exact knots on 10 seeds, medians decreasing over {ladder}, {elapsed:.1f}s")


def test_criterion_3_smooth_rate(criterion3_runs):
    # smooth-sin(2,1), T=1, p=2, M=1000, ladder 2^4..2^10, ref 2^14:
    # fitted order within [0.40, 0.65]
    report, _, digests = criterion3_runs
    fitted = report["fitted_order"]
    assert 0.40 <= fitted <= 0.65, fitted
    ns = [row["n"] for row in report["per_resolution"]]
    assert ns == [2**k for k in range(4, 11)]
    assert digests[1] == COMMITTED_DIGESTS["smooth-sin-rate.cfg"]
    _record(3, f"smooth-sin fitted order {fitted:.4f} in [0.40, 0.65]")


def test_criterion_4_holder_rates(criterion4_reports):
    # holder-root with beta 0.5 and 0.3 at the criterion-3 sizes: errors
    # strictly decreasing in n, fitted orders above the guaranteed floors
    floors = {0.5: 0.10, 0.3: 0.02}
    for beta, floor in floors.items():
        rep = criterion4_reports[beta]
        errs = [row["mean_error"] for row in rep["per_resolution"]]
        assert all(a > b for a, b in zip(errs, errs[1:])), (beta, errs)
        assert rep["fitted_order"] > floor, (beta, rep["fitted_order"])
    _record(
        4,
        "holder-root orders "
        + ", ".join(
            f"beta={b}: {criterion4_reports[b]['fitted_order']:.4f} > {floors[b]}"
            for b in (0.5, 0.3)
        ),
    )


def test_criterion_5_inverse_clock_bound(criterion3_runs, criterion4_reports):
    # on every sample of criteria 3 and 4 the inverse-clock discrepancy is
    # bounded by C2^2 times the clock discrepancy up to C2^2*T, within 1e-10
    report3, _, _ = criterion3_runs
    excesses = [report3["diagnostics"]["inverse_clock_bound_max_excess"]]
    excesses += [
        rep["diagnostics"]["inverse_clock_bound_max_excess"]
        for rep in criterion4_reports.values()
    ]
    assert all(e <= 1e-10 for e in excesses), excesses
    _record(5, f"zero violations; worst excess {max(excesses):.2e} <= 1e-10")


def test_criterion_6_breakpoint_sup_oracle():
    # 50 seeded samples: the breakpoint-union sup equals the sup over a
    # 1e5-point grid refined by both breakpoint sets (np.interp route),
    # and the plain uniform grid never exceeds it; under 60 seconds
    start = time.time()
    coeff = builtin_coefficient("smooth-sin", [2.0, 1.0])
    ref = 2**12
    uniform = np.linspace(0.0, 1.0, 100_001)
    worst = 0.0
    for i in range(50):
        n = (16, 32, 64)[i % 3]
        fine = generate_path(ref, required_horizon(coeff, 1.0, 16), 0.0, SEED, i)
        tc_ref = build_time_change(fine, coeff, 1.0)
        coarse = fine.subsample(ref // n)
        tc_n = build_time_change(coarse, coeff, 1.0)

        ya = coarse.values[: tc_n.knot_count]
        yb = fine.values[: tc_ref.knot_count]
        break_sup = _kernels.pl_sup_abs_diff(tc_n.clock, ya, tc_ref.clock, yb, 1.0)

        grid = np.union1d(uniform, tc_n.clock[tc_n.clock <= 1.0])
        grid = np.union1d(grid, tc_ref.clock[tc_ref.clock <= 1.0])
        dense_sup = oracles.pl_sup_on_grid(tc_n.clock, ya, tc_ref.clock, yb, grid)
        assert abs(break_sup - dense_sup) <= 1e-10, (i, break_sup, dense_sup)
        worst = max(worst, abs(break_sup - dense_sup))

        uniform_sup = oracles.pl_sup_on_grid(tc_n.clock, ya, tc_ref.clock, yb, uniform)
        assert uniform_sup <= break_sup + 1e-10
    elapsed = time.time() - start
    assert elapsed < 60.0, f"breakpoint-sup oracle took {elapsed:.1f}s"
    _record(6, f"50 samples, worst oracle gap {worst:.2e} <= 1e-10, {elapsed:.1f}s")


def test_criterion_7_determinism_across_jobs(criterion3_runs):
    # the criterion-3 experiment rerun with --jobs 1 and --jobs 8 writes
    # bit-identical report.json (and report.csv)
    _, outputs, digests = criterion3_runs
    assert outputs[1] == outputs[8]
    assert digests[1] == digests[8]
    _record(7, f"report.json identical for jobs 1 and 8 ({len(outputs[1])} bytes)")


def test_criterion_8_scheme_comparison(tmp_path):
    # holder-root beta=0.6, as configs/holder-root-compare.cfg runs it: both
    # schemes report orders; the time-change order exceeds the baseline's
    # guaranteed order beta - 1/2 = 0.1
    cfg = REPO / "configs" / "holder-root-compare.cfg"
    assert main(["run", str(cfg), "--out", str(tmp_path), "--jobs", "2"]) == 0
    assert _digests(tmp_path) == COMMITTED_DIGESTS["holder-root-compare.cfg"]
    cmp = json.loads((tmp_path / "report.json").read_text())
    tc, em = cmp["time_change"]["fitted_order"], cmp["euler_maruyama"]["fitted_order"]
    assert np.isfinite(em)
    assert tc > 0.6 - 0.5, tc
    _record(8, f"time-change order {tc:.4f} > 0.10; baseline order {em:.4f} reported")


@pytest.mark.parametrize("name, n", sorted(DUMP_PATH_DIGESTS))
def test_dump_path_bytes_match_their_pins(name, n, tmp_path):
    argv = ["dump-path", str(REPO / "configs" / name), "--sample", "3", "--n", str(n),
            "--out", str(tmp_path)]
    assert main(argv) == 0
    digest = hashlib.sha256((tmp_path / f"path-3-{n}.csv").read_bytes()).hexdigest()
    assert digest == DUMP_PATH_DIGESTS[name, n]
