"""Independent reference implementations used as test oracles.

Everything here is deliberately written straight-line in plain Python (plus
np.interp, numpy's own interpolator) without reusing any library internals,
so agreement with the package is a genuine dual-route check. Three
exceptions read through the package: pl_sup_union and pl_sup_three_reads
read paths with its pl_eval_many so that they can be compared bit for bit,
check_contract samples a coefficient with its sigma_of over VECTOR_OPS, the
formula the kernels run, against the Hoelder constant the test gives it, and
the numpy-scalar loops the package replaced by loops over Python floats,
clock_seq (the clock) and em_values_seq (Euler-Maruyama), run sigma_of over
their own ops, with the builtin min and max. lying fakes a
coefficient whose bounds lie, which the package cannot build.
digests_with_avx512_on_and_off runs a script twice, to check that its output
does not depend on numpy's SIMD dispatch.
"""

import copy
import math
import os
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

from tcsde._kernels import (BOUNDS_BREACH, EXHAUSTED, OK, VECTOR_OPS, pl_eval_many,
                            sigma_of)
from tcsde.errors import ContractViolationError

#: guard against division by a vanishing clock step; impossible while the
#: bounds hold (steps are >= 1/(n*C2^2)) so hitting it means the
#: coefficient lied.
MIN_CLOCK_STEP = 1e-300


def clock_euler(driver_values, n, sigma, t_end):
    """Explicit Euler for the clock ODE; returns the knot list up to the
    first value >= t_end."""
    clock = [0.0]
    k = 0
    while clock[-1] < t_end:
        if k + 1 >= len(driver_values):
            raise AssertionError("oracle driver too short")
        s = sigma(clock[k], driver_values[k])
        clock.append(clock[k] + (1.0 / n) / (s * s))
        k += 1
    return clock


def invert_clock(clock, n, t):
    """Linear-scan inversion of the piecewise-linear clock."""
    j = 0
    while j + 1 < len(clock) and clock[j + 1] <= t:
        j += 1
    if j == len(clock) - 1:
        return j / n
    return (j + (t - clock[j]) / (clock[j + 1] - clock[j])) / n


def interp_uniform(values, n, s):
    """Linear interpolation of values at knots k/n."""
    i = int(s * n)
    while i + 1 < len(values) and (i + 1) / n <= s:
        i += 1
    while i > 0 and i / n > s:
        i -= 1
    if i == len(values) - 1:
        return values[i]
    theta = (s - i / n) / ((i + 1) / n - i / n)
    return values[i] + theta * (values[i + 1] - values[i])


def solution_value(driver_values, n, sigma, t_end, t):
    """Full rebuild of the approximate solution at one SDE time."""
    clock = clock_euler(driver_values, n, sigma, t_end)
    s = invert_clock(clock, n, t)
    return interp_uniform(driver_values, n, s)


def em_recursion(driver_values, n, sigma, t_end, x0):
    """Plain-Python Euler-Maruyama recursion."""
    steps = int(np.ceil(n * t_end - 1e-9))
    values = [x0]
    for k in range(steps):
        dw = driver_values[k + 1] - driver_values[k]
        values.append(values[k] + sigma(k / n, values[k]) * dw)
    return values


#: (sin, pow, min, max) with the builtin min and max, spelled here apart from
#: the package's SCALAR_OPS, so that the oracles do not read what they check
BUILTIN_SCALAR_OPS = (math.sin, math.pow, min, max)


def clock_seq(kind, p, driver, inv_n, t_end, lo, hi, tol):
    """The clock's Euler recursion over numpy float64 scalars, as the package
    ran it before _kernels._clock_seq moved to Python floats; its bytes are
    the reference. Returns (buffer, k, status), as clock_knots_kind does.
    Numpy scalars warn on a zero or overflowing sigma^2, so callers that
    compare such a clock run it under np.errstate."""
    sigma = sigma_of(kind, p, BUILTIN_SCALAR_OPS)
    m = driver.shape[0]
    clock = np.empty(m, dtype=np.float64)
    clock[0] = 0.0
    for k in range(m - 1):
        s = sigma(clock[k], driver[k])
        if s < lo - tol or s > hi + tol:
            return clock, k, BOUNDS_BREACH
        clock[k + 1] = clock[k] + inv_n / (s * s)
        if clock[k + 1] >= t_end:
            return clock, k + 1, OK
    return clock, m - 1, EXHAUSTED


def em_values_seq(kind, p, increments, n, x0):
    """The Euler-Maruyama loop over numpy float64 scalars, as the package ran
    it before em_values_kind moved to Python floats; its bytes are the
    reference. Numpy scalars warn on overflow, so callers that compare a
    path that overflows run it under np.errstate."""
    sigma = sigma_of(kind, p, BUILTIN_SCALAR_OPS)
    n = float(n)
    m = increments.shape[0]
    values = np.empty(m + 1, dtype=np.float64)
    values[0] = x0
    for k in range(m):
        s = sigma(k / n, values[k])
        values[k + 1] = values[k] + s * increments[k]
    return values


def pl_sup_on_grid(ta, ya, tb, yb, grid):
    """Sup of |A - B| over an explicit grid, evaluated by np.interp."""
    va = np.interp(grid, ta, ya)
    vb = np.interp(grid, tb, yb)
    return float(np.max(np.abs(va - vb)))


def pl_sup_union(ta, ya, tb, yb, t_hi):
    """Sup of |A - B| read by pl_eval_many on the sorted union of both knot
    sets up to t_hi, plus t_hi: the grid pl_sup_abs_diff once built."""
    grid = np.union1d(ta[ta <= t_hi], tb[tb <= t_hi])
    if grid.size == 0 or grid[-1] < t_hi:
        grid = np.append(grid, t_hi)
    va = pl_eval_many(ta, ya, grid)
    vb = pl_eval_many(tb, yb, grid)
    return float(np.max(np.abs(va - vb)))


def pl_sup_three_reads(ta, ya, tb, yb, t_hi):
    """Sup of |A - B| as pl_sup_abs_diff took it before it read t_hi on
    Python floats: both paths read by pl_eval_many at t_hi, each path at the
    other's knots up to t_hi, and np.max over the three maxima, so a NaN in
    any of them is the result. Unlike the merge walk, t_hi may lie past
    either path's last knot, where that path reads its last value."""
    ka = int(np.searchsorted(ta, t_hi, side="right"))
    kb = int(np.searchsorted(tb, t_hi, side="right"))
    at_hi = np.array([t_hi], dtype=np.float64)
    d_hi = np.abs(pl_eval_many(ta, ya, at_hi) - pl_eval_many(tb, yb, at_hi))[0]
    d_a = np.abs(ya[:ka] - pl_eval_many(tb, yb, ta[:ka])).max(initial=0.0)
    d_b = np.abs(yb[:kb] - pl_eval_many(ta, ya, tb[:kb])).max(initial=0.0)
    return float(np.max((d_hi, d_a, d_b)))


def pl_sup_merge(ta, ya, tb, yb, t_hi):
    """Sup of |A - B| by a merge walk over the knots of both paths in order.

    Exact over ({ta} u {tb} intersect [0, t_hi]) u {t_hi}, for piecewise-linear
    A = (ta, ya), B = (tb, yb) with ta[-1], tb[-1] >= t_hi. The walk reads
    the knots as Python floats, whose arithmetic is numpy float64's, bit for
    bit, and several times faster to index.
    """
    ta, ya, tb, yb = (np.asarray(v, dtype=np.float64).tolist() for v in (ta, ya, tb, yb))
    na = len(ta)
    nb = len(tb)
    ia = 0
    ib = 0
    pa = 0
    pb = 0
    best = 0.0
    while True:
        ca = ta[pa] if pa < na else np.inf
        cb = tb[pb] if pb < nb else np.inf
        t = ca if ca <= cb else cb
        last = t > t_hi
        if last:
            t = t_hi
        else:
            if ca == t:
                pa += 1
            if cb == t:
                pb += 1
        while ia + 1 < na and ta[ia + 1] <= t:
            ia += 1
        while ib + 1 < nb and tb[ib + 1] <= t:
            ib += 1
        if ia == na - 1:
            va = ya[na - 1]
        else:
            va = ya[ia] + (t - ta[ia]) / (ta[ia + 1] - ta[ia]) * (ya[ia + 1] - ya[ia])
        if ib == nb - 1:
            vb = yb[nb - 1]
        else:
            vb = yb[ib] + (t - tb[ib]) / (tb[ib + 1] - tb[ib]) * (yb[ib + 1] - yb[ib])
        d = abs(va - vb)
        if d > best:
            best = d
        if last:
            return best


def inverse_clock_bound_excess(paths, resolutions, t_end, c2, clock_hi):
    """Largest amount, over the ladder levels, by which the sup over [0, t_end]
    of |inverse clock - the reference's| exceeds c2^2 times the sup of
    |clock - the reference's|, both sups by the merge walk.

    paths maps each resolution, the reference's the largest, to a time-change
    path. Its inverse clock is (clock, k/n) and its clock (k/n, clock). The
    paper's bound compares the clocks on the Brownian times [0, c2^2 t_end],
    the range of an inverse clock on [0, t_end]; pass clock_hi = c2^2 t_end
    for that domain, or inf to compare them wherever both are built.
    """
    ref = paths[max(paths)]
    ref_s = np.arange(ref.t.shape[0]) / max(paths)
    excess = -np.inf
    for n in resolutions:
        path = paths[n]
        s = np.arange(path.t.shape[0]) / n
        inv_sup = pl_sup_merge(path.t, s, ref.t, ref_s, t_end)
        clk_sup = pl_sup_merge(s, path.t, ref_s, ref.t, min(s[-1], ref_s[-1], clock_hi))
        excess = max(excess, inv_sup - c2**2 * clk_sup)
    return excess


def fit_slope_polyfit(ns, errors):
    """Order regression through numpy's polyfit, as an independent route."""
    coeffs = np.polyfit(np.log(1.0 / np.asarray(ns, float)), np.log(errors), 1)
    return float(coeffs[0])


# The scalar twins of the package's vectorized path code, kept verbatim as
# references for it: TimeChangePath.value / invert and BrownianPath.interpolate.
# The package reads the inverse clock as the piecewise-linear path through the
# swapped knots (clock, k/n); clock_invert keeps the closed form per knot
# interval, with its degenerate-step guard (MIN_CLOCK_STEP).


def clock_value(self, s):
    """Clock value at Brownian time s by the same piecewise-linear rule."""
    last = self.knot_count - 1
    if not 0.0 <= s <= last / self.n:
        raise ValueError(f"Brownian time {s} outside [0, {last / self.n}]")
    k = int(s * self.n)
    while k + 1 <= last and (k + 1) / self.n <= s:
        k += 1
    while k > 0 and k / self.n > s:
        k -= 1
    if k == last:
        return float(self.clock[last])
    theta = (s - k / self.n) / ((k + 1) / self.n - k / self.n)
    return float(self.clock[k] + theta * (self.clock[k + 1] - self.clock[k]))


def clock_invert(self, t):
    """Brownian time at which the clock reaches SDE time t; exact at knots."""
    if not 0.0 <= t <= self.clock[-1]:
        raise ValueError(
            f"SDE time {t} outside the constructed clock range [0, {self.clock[-1]}]"
        )
    j = int(np.searchsorted(self.clock, t, side="right")) - 1
    if j >= self.knot_count - 1:
        return (self.knot_count - 1) / self.n
    step = self.clock[j + 1] - self.clock[j]
    if step < MIN_CLOCK_STEP:
        raise ContractViolationError(
            f"degenerate clock step {step} at knot {j}: coefficient bounds broken"
        )
    return (j + (t - self.clock[j]) / step) / self.n


def interpolate(self, t):
    """Linear interpolation between adjacent knots; exact at knots."""
    last = self.knot_count - 1
    if not 0.0 <= t <= last / self.n:
        raise ValueError(
            f"time {t} outside the stored knot range [0, {last / self.n}]"
        )
    k = int(t * self.n)
    # float floor of t*n can land one knot off; correct against the
    # actual knot times k/n so knot queries return stored values exactly
    while k + 1 <= last and (k + 1) / self.n <= t:
        k += 1
    while k > 0 and k / self.n > t:
        k -= 1
    if k == last:
        return float(self.values[last])
    t0 = k / self.n
    t1 = (k + 1) / self.n
    theta = (t - t0) / (t1 - t0)
    return float(self.values[k] + theta * (self.values[k + 1] - self.values[k]))


@dataclass(frozen=True)
class ContractReport:
    """Result of sampling-based verification of a coefficient's contract."""

    label: str
    n_samples: int
    bound_violations: int
    worst_bound_excess: float
    worst_bound_at: tuple[float, float]
    worst_holder_ratio: float
    worst_holder_at: tuple[float, float, float]
    holder_violations: int

    @property
    def ok(self) -> bool:
        return self.bound_violations == 0 and self.holder_violations == 0


def lying(coeff, **fields):
    """A copy of coeff with the given fields (bounds, say) overridden and
    nothing derived again: a coefficient that lies about itself."""
    fake = copy.copy(coeff)
    vars(fake).update(fields)
    return fake


def check_contract(
    coeff,
    holder_const: float,
    samples: int = 10_000,
    seed: int = 0,
    domain: tuple[tuple[float, float], tuple[float, float]] = ((0.0, 10.0), (-50.0, 50.0)),
) -> ContractReport:
    """Probe sigma on a quasi-random point set and report contract breaches.

    Each sample is a triple (t, x, y): both (t, x) and (t, y) are tested
    against the bounds, and the pair feeds the empirical spatial
    Hoelder ratio |sigma(t,x) - sigma(t,y)| / |x - y|^beta, tested against
    holder_const, which the caller knows from the kind's formula and params.
    Violations are reported, never raised.
    Deterministic for a given seed.
    """
    from scipy.stats import qmc

    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    (t_lo, t_hi), (x_lo, x_hi) = domain
    u = qmc.Halton(d=3, scramble=True, seed=seed).random(samples)
    t = t_lo + u[:, 0] * (t_hi - t_lo)
    x = x_lo + u[:, 1] * (x_hi - x_lo)
    y = x_lo + u[:, 2] * (x_hi - x_lo)
    sigma = sigma_of(coeff.kernel_kind, coeff.kernel_params, VECTOR_OPS)
    sx = sigma(t, x)
    sy = sigma(t, y)

    tol = coeff.bound_tolerance
    excess_x = np.maximum(coeff.c1 - sx, sx - coeff.c2)
    excess_y = np.maximum(coeff.c1 - sy, sy - coeff.c2)
    excess = np.maximum(excess_x, excess_y)
    violating = excess > tol
    i_worst = int(np.argmax(excess))
    worst_at = (
        float(t[i_worst]),
        float(x[i_worst] if excess_x[i_worst] >= excess_y[i_worst] else y[i_worst]),
    )

    gap = np.abs(x - y)
    usable = gap > 0
    ratio = np.zeros_like(gap)
    ratio[usable] = np.abs(sx[usable] - sy[usable]) / gap[usable] ** coeff.holder_beta
    j_worst = int(np.argmax(ratio))
    holder_tol = 1e-9 * max(1.0, holder_const)

    return ContractReport(
        label=coeff.label,
        n_samples=samples,
        bound_violations=int(np.count_nonzero(violating)),
        worst_bound_excess=float(max(excess[i_worst], 0.0)),
        worst_bound_at=worst_at,
        worst_holder_ratio=float(ratio[j_worst]),
        worst_holder_at=(float(t[j_worst]), float(x[j_worst]), float(y[j_worst])),
        holder_violations=int(np.count_nonzero(ratio > holder_const + holder_tol)),
    )


def digests_with_avx512_on_and_off(script, *args):
    """Run a Python script that prints a digest, in two child processes: one
    with numpy's AVX-512 dispatch on and one with it off. Returns both lines.

    On a CPU without AVX-512 both children run the same code.
    """
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    digests = []
    for disabled in (None, "X86_V4 AVX512_ICL AVX512_SPR"):
        env = dict(os.environ, PYTHONPATH=src)
        env.pop("NPY_DISABLE_CPU_FEATURES", None)
        if disabled:
            env["NPY_DISABLE_CPU_FEATURES"] = disabled
        out = subprocess.run(
            [sys.executable, "-c", script, *args], capture_output=True, text=True, env=env
        )
        assert out.returncode == 0, out.stderr
        digests.append(out.stdout.strip())
    return digests
