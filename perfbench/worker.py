"""The measured process: set up one workload, then run timed or traced reps.

Started by run.py. It prints ``READY`` once set-up is done (import, config
parse and validation, coefficient build, one warm-up item) and, unless
``--mode setup``, then one JSON line with what it measured.

  --mode setup  stop after set-up (run.py times several fresh set-ups)
  --mode run    timed reps with only item timers installed, until --seconds
  --mode trace  untraced and traced passes over the same reps until
                --seconds, then the per-kernel table
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import stats  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import ITEM_SPAN, Tracer, layer_summary  # noqa: E402

PINS = HERE / "pins.json"

#: master seed of the warm-up item
WARMUP_SEED = 20260808

#: timed repetitions of each kernel call in the per-kernel table
KERNEL_REPEATS = 15


def lane() -> str:
    import tcsde

    return "numba" if tcsde.USING_NUMBA else "numpy"


def load_pins() -> dict:
    return json.loads(PINS.read_text()) if PINS.is_file() else {}


def setup(workload: wl.Workload, out: Path) -> dict:
    t0 = time.perf_counter()
    import tcsde  # noqa: F401
    from tcsde.cli import parse_config_file
    from tcsde.experiment import ExperimentConfig, strong_error_one_sample

    import_s = time.perf_counter() - t0
    warm = out / "warmup"
    warm.mkdir(parents=True, exist_ok=True)
    cfg = warm / "bench.cfg"
    # the warm-up item is the same for every seed, so set-up time does not
    # depend on how much work the seed's first path happens to need
    cfg.write_text(workload.config_text(WARMUP_SEED))
    config = ExperimentConfig.from_mapping(parse_config_file(cfg))
    config.validate_for_run()
    config.build_coefficient()
    strong_error_one_sample(config, 0)
    shutil.rmtree(warm)
    return {"import_s": import_s}


class RepTimer:
    """Times the items of one rep at jobs 1; with traced=True also wraps every layer.

    At jobs > 1 samples run in pool workers and are not timed.
    """

    def __init__(self, n_jobs: int, traced: bool = False):
        self.tracer = Tracer()
        self.timed = n_jobs == 1
        if traced:
            self.tracer.install()
        elif self.timed:
            self.tracer.install_items()

    def sample_ns(self) -> list[int]:
        return [s.duration_ns for s in self.tracer.spans if s.name == ITEM_SPAN]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.tracer.uninstall()


def run_one(workload, master_seed, out, timer, pins, lane_name, n_jobs) -> dict:
    """One rep: wall time, item durations, output digest and any failure."""
    rep_dir = out / f"rep-{master_seed}"
    rec = {"master_seed": master_seed, "jobs": n_jobs, "samples": workload.samples}
    t0 = time.perf_counter()
    try:
        wl.run_rep(workload, master_seed, rep_dir, n_jobs)
        rec["wall_s"] = time.perf_counter() - t0
        rec["digest"] = wl.check_rep(rep_dir)
        pinned = pins.get(lane_name, {}).get(workload.name, {}).get(str(master_seed))
        rec["pinned"] = pinned is not None
        if pinned is not None and pinned != rec["digest"]:
            raise wl.RepFailed(f"digest {rec['digest']} differs from pinned {pinned}")
    except Exception as exc:  # noqa: BLE001 - any failure fails the rep's items
        rec["error"] = f"{type(exc).__name__}: {exc}"
        rec.setdefault("wall_s", time.perf_counter() - t0)
    rec["sample_ns"] = timer.sample_ns()
    if "error" not in rec and timer.timed and len(rec["sample_ns"]) != workload.samples:
        rec["error"] = f"timed {len(rec['sample_ns'])} of {workload.samples} samples"
    shutil.rmtree(rep_dir, ignore_errors=True)
    return rec


def timed_reps(workload, seed, seconds, out) -> dict:
    pins, lane_name, n_jobs = load_pins(), lane(), wl.jobs(workload)
    reps = []
    deadline = time.perf_counter() + seconds
    while not reps or time.perf_counter() < deadline:
        master_seed = wl.rep_seed(seed, len(reps))
        with RepTimer(n_jobs) as timer:
            reps.append(run_one(workload, master_seed, out, timer, pins, lane_name, n_jobs))
    return {"reps": reps}


def traced_reps(workload, seed, seconds, out) -> dict:
    """Untraced and traced passes over the same reps.

    Traced passes run at jobs 1 so every span is in this process; at jobs > 1
    an untraced jobs-1 pass is added, so the tracing overhead compares like
    with like and the pool's efficiency has a serial busy time to divide.
    """
    pins, lane_name, n_jobs = load_pins(), lane(), wl.jobs(workload)
    plan = [("untraced", n_jobs, False)]
    if n_jobs > 1:
        plan.append(("untraced_jobs1", 1, False))
    plan.append(("traced", 1, True))
    passes = {name: [] for name, _, _ in plan}
    layers = []
    spans_out = out / "spans.jsonl"
    spans_out.unlink(missing_ok=True)
    deadline = time.perf_counter() + seconds
    rep = 0
    while rep == 0 or time.perf_counter() < deadline:
        master_seed = wl.rep_seed(seed, rep)
        for name, j, traced in plan:
            with RepTimer(j, traced) as timer:
                passes[name].append(
                    run_one(workload, master_seed, out, timer, pins, lane_name, j))
        same_rep = [p[-1] for p in passes.values()]
        if len({r.get("digest") for r in same_rep}) > 1:
            same_rep[-1].setdefault("error", "tracing or the job count changed the outputs")
        layers.append(layer_summary(timer.tracer.spans, timer.tracer.knots_used))
        timer.tracer.write(spans_out, rep=rep)
        rep += 1
    return {"passes": passes, "layers": layers, "kernels": kernel_table(seed)}


def kernel_table(seed: int) -> dict:
    """Per-call times at fixed sizes, as (q1, median, q3) in ms per metric prefix.

    The kernel inputs are those of the lane comparison in
    benchmarks/bench_lanes.py: a smooth-sin driver at n = 2^14 for the clock
    (the active lane and the interpreted loop), its clock against the n/64
    subsample's for the sup, and 2^14 EM steps. The CSV row writes that
    driver's n = 2^14 sample path as `tcsde dump-path` does.
    """
    import io

    import numpy as np

    from tcsde import _kernels
    from tcsde.brownian import generate_path
    from tcsde.diffusion import builtin_coefficient
    from tcsde.timechange import (SamplePath, build_time_change, required_horizon,
                                  write_solution_csv)

    coeff = builtin_coefficient("smooth-sin", [2.0, 1.0])
    n = 2**14
    driver = generate_path(n, required_horizon(coeff, 1.0, 16), 0.0,
                           wl.rep_seed(seed, 0), 0)
    kind_args = (coeff.kernel_kind, coeff.kernel_params, driver.values, 1.0 / n,
                 1.0, coeff.c1, coeff.c2, coeff.bound_tolerance)
    tc_ref = build_time_change(driver, coeff, 1.0)
    coarse = driver.subsample(64)
    tc_c = build_time_change(coarse, coeff, 1.0)
    sup_args = (tc_c.clock, coarse.values[: tc_c.knot_count], tc_ref.clock,
                driver.values[: tc_ref.knot_count], 1.0)
    em_args = (coeff.kernel_kind, coeff.kernel_params,
               np.diff(driver.values[: n + 1]), n, 0.0)
    path = SamplePath(driver=driver, time_change=tc_ref, sde_horizon=1.0)
    table = {
        "kernels.bench_clock": (_kernels.clock_knots_kind, kind_args),
        "kernels.bench_clock_loop": (_kernels._clock_seq, kind_args),
        "kernels.bench_sup": (_kernels.pl_sup_abs_diff, sup_args),
        "kernels.bench_em": (_kernels.em_values_kind, em_args),
        "timechange.bench_csv": (lambda: write_solution_csv(path, io.StringIO()), ()),
    }
    out = {}
    for name, (fn, args) in table.items():
        fn(*args)
        times = []
        for _ in range(KERNEL_REPEATS):
            t0 = time.perf_counter()
            fn(*args)
            times.append((time.perf_counter() - t0) * 1e3)
        out[name] = stats.quartiles(times)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    workload = wl.WORKLOADS[args.workload]
    out = Path(args.out)
    info = setup(workload, out)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0
    run = timed_reps if args.mode == "run" else traced_reps
    result = run(workload, args.seed, args.seconds, out)

    import numpy
    import scipy

    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result.update(
        info,
        lane=lane(),
        nproc=os.cpu_count(),
        jobs=wl.jobs(workload),
        python=sys.version.split()[0],
        numpy=numpy.__version__,
        scipy=scipy.__version__,
        # the measured process plus its largest pool worker
        peak_rss_mb=(self_kb + child_kb) / 1024.0,
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
