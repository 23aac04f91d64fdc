"""Benchmark the numba kernels against the pure-numpy fallback lane.

Both implementations are importable regardless of the active lane, so the
comparison runs in one process. Usage:

    python benchmarks/bench_lanes.py [--repeats 20]
"""

import argparse
import time

import numpy as np

from tcsde import _kernels
from tcsde.brownian import generate_path
from tcsde.diffusion import builtin_coefficient
from tcsde.experiment import ExperimentConfig, strong_error_one_sample
from tcsde.timechange import build_time_change, required_horizon

SEED = 20260808


def _best_of(repeats, fn, *args):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=20)
    args = parser.parse_args()
    repeats = args.repeats

    coeff = builtin_coefficient("smooth-sin", [2.0, 1.0])
    n = 2**14
    driver = generate_path(n, required_horizon(coeff, 1.0, 16), 0.0, SEED, 0)
    clock_args = (
        driver.values,
        1.0 / n,
        1.0,
        coeff.c1,
        coeff.c2,
        coeff.bound_tolerance,
    )

    tc_ref = build_time_change(driver, coeff, 1.0)
    coarse = driver.subsample(n // 64)
    tc_c = build_time_change(coarse, coeff, 1.0)
    sup_args = (
        tc_c.clock,
        coarse.values[: tc_c.knot_count],
        tc_ref.clock,
        driver.values[: tc_ref.knot_count],
        1.0,
    )

    incr = np.diff(driver.values[: n + 1])
    em_args = (coeff.kernel_kind, coeff.kernel_params, incr, float(n), 0.0)

    rows = []

    def bench(label, numba_fn, numba_args, numpy_fn, numpy_args):
        t_np = _best_of(repeats, numpy_fn, *numpy_args)
        if _kernels.HAVE_NUMBA:
            numba_fn(*numba_args)  # compile outside the timer
            t_nb = _best_of(repeats, numba_fn, *numba_args)
            rows.append((label, t_nb, t_np, t_np / t_nb))
        else:
            rows.append((label, None, t_np, None))

    kind_args = (coeff.kernel_kind, coeff.kernel_params) + clock_args

    def clock_fallback():
        saved = _kernels.USING_NUMBA
        _kernels.USING_NUMBA = False
        try:
            _kernels.clock_knots_kind(*kind_args)
        finally:
            _kernels.USING_NUMBA = saved

    bench(
        f"clock construction (n=2^14, {tc_ref.knot_count} knots)",
        _kernels._clock_seq_nb if _kernels.HAVE_NUMBA else None,
        kind_args,
        lambda: clock_fallback(),
        (),
    )
    bench(
        "clock construction, interpreted loop",
        _kernels._clock_seq_nb if _kernels.HAVE_NUMBA else None,
        kind_args,
        _kernels._clock_seq,
        kind_args,
    )
    bench(
        f"piecewise-linear sup ({tc_c.knot_count}+{tc_ref.knot_count} knots)",
        _kernels._pl_sup_merge_nb if _kernels.HAVE_NUMBA else None,
        sup_args,
        _kernels._pl_sup_numpy,
        sup_args,
    )
    bench(
        f"euler-maruyama recursion ({n} steps)",
        _kernels._em_seq_nb if _kernels.HAVE_NUMBA else None,
        em_args,
        _kernels._em_seq,
        em_args,
    )

    print(f"active lane: {'numba' if _kernels.USING_NUMBA else 'numpy'}")
    print(f"{'kernel':<55} {'numba':>10} {'numpy':>10} {'speedup':>8}")
    for label, t_nb, t_np, ratio in rows:
        nb = f"{t_nb * 1e3:8.2f}ms" if t_nb is not None else "      --"
        sp = f"{ratio:7.1f}x" if ratio is not None else "      --"
        print(f"{label:<55} {nb:>10} {t_np * 1e3:8.2f}ms {sp:>8}")

    cfg = ExperimentConfig(
        coefficient="smooth-sin",
        params=(2.0, 1.0),
        sde_horizon=1.0,
        x0=0.0,
        resolutions=tuple(2**k for k in range(4, 11)),
        ref_resolution=2**14,
        p=2.0,
        samples=8,
        master_seed=SEED,
    )
    strong_error_one_sample(cfg, 0)  # warm any JIT
    t0 = time.perf_counter()
    for i in range(8):
        strong_error_one_sample(cfg, i)
    per_sample = (time.perf_counter() - t0) / 8
    print(
        f"\nend-to-end coupled sample (ladder 2^4..2^10, ref 2^14), active lane: "
        f"{per_sample * 1e3:.1f} ms"
    )


if __name__ == "__main__":
    main()
