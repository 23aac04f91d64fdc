"""Hot numeric kernels: numba fast lane with a pure-numpy fallback.

Lane selection happens once at import time. Setting the environment variable
``TCSDE_DISABLE_NUMBA`` to anything other than ``""`` or ``"0"`` forces the
numpy lane even when numba is installed. Both lanes implement identical
arithmetic (same operation order), so results agree bit-for-bit except where
vectorized transcendentals (np.sin vs libm sin) differ in the last ulp.

Kernels:
  * clock construction: Euler steps of d(clock)/ds = 1/sigma^2(clock, driver)
    on the uniform Brownian grid, stopping at the first knot >= target time;
  * Euler-Maruyama recursion;
  * exact sup of |A - B| for two piecewise-linear paths. The difference is
    linear between consecutive knots of either path, so its sup is attained
    at a knot of A, a knot of B or the right end. The merge walk visits the
    knots of both in order; the numpy lane reads each path at the other's
    knots with the arithmetic of pl_eval_many and builds no union grid, so
    the lanes agree bit for bit.

Builtin coefficients are dispatched by a small integer kind plus a params
vector so the clock/EM loops stay inside compiled code; coefficients backed
by arbitrary Python callables take the interpreted fallback path.
"""

from __future__ import annotations

import math
import os

import numpy as np

KIND_CONSTANT = 0
KIND_SMOOTH_SIN = 1
KIND_TIME_SMOOTH = 2
KIND_HOLDER_ROOT = 3
KIND_STEP_MOLLIFIED = 4

OK = 0
EXHAUSTED = 1
BOUNDS_BREACH = 2

_INF = float("inf")


def _numba_requested() -> bool:
    return os.environ.get("TCSDE_DISABLE_NUMBA", "") in ("", "0")


try:
    if not _numba_requested():
        raise ImportError("numba disabled via TCSDE_DISABLE_NUMBA")
    from numba import njit as _njit

    HAVE_NUMBA = True
except ImportError:
    _njit = None
    HAVE_NUMBA = False

USING_NUMBA = HAVE_NUMBA


def _sigma_scalar(kind, p, t, x):
    # Shared scalar formulas; compiled by numba for the fast lane and executed
    # as-is in the fallback. Keep every operation identical between lanes.
    if kind == KIND_CONSTANT:
        return p[0]
    elif kind == KIND_SMOOTH_SIN:
        return p[0] + p[1] * math.sin(x)
    elif kind == KIND_TIME_SMOOTH:
        return p[0] + p[1] * math.sin(x + t)
    elif kind == KIND_HOLDER_ROOT:
        r = abs(x - p[3]) ** p[2]
        if r > p[1]:
            r = p[1]
        return p[0] + r
    else:
        u = (x - (p[2] - 0.5 * p[3])) / p[3]
        if u < 0.0:
            u = 0.0
        elif u > 1.0:
            u = 1.0
        return p[0] + (p[1] - p[0]) * u


def sigma_kind_vec(kind: int, p: np.ndarray, t, x: np.ndarray) -> np.ndarray:
    """Vectorized builtin-coefficient evaluation (numpy lane and checks)."""
    x = np.asarray(x, dtype=np.float64)
    if kind == KIND_CONSTANT:
        return np.full_like(x, p[0])
    if kind == KIND_SMOOTH_SIN:
        return p[0] + p[1] * np.sin(x)
    if kind == KIND_TIME_SMOOTH:
        return p[0] + p[1] * np.sin(x + np.asarray(t, dtype=np.float64))
    if kind == KIND_HOLDER_ROOT:
        return p[0] + np.minimum(np.abs(x - p[3]) ** p[2], p[1])
    if kind == KIND_STEP_MOLLIFIED:
        u = np.clip((x - (p[2] - 0.5 * p[3])) / p[3], 0.0, 1.0)
        return p[0] + (p[1] - p[0]) * u
    raise ValueError(f"unknown coefficient kind {kind}")


def _clock_seq(kind, p, driver, inv_n, t_end, lo, hi, tol):
    # Euler recursion clock[k+1] = clock[k] + inv_n / sigma(clock[k], driver[k])^2,
    # stopping at the first knot with clock >= t_end. Returns (buffer, k, status)
    # where on OK the knots 0..k are valid; on BOUNDS_BREACH k is the bad step.
    m = driver.shape[0]
    clock = np.empty(m, dtype=np.float64)
    clock[0] = 0.0
    for k in range(m - 1):
        s = _sigma_scalar(kind, p, clock[k], driver[k])
        if s < lo - tol or s > hi + tol:
            return clock, k, BOUNDS_BREACH
        clock[k + 1] = clock[k] + inv_n / (s * s)
        if clock[k + 1] >= t_end:
            return clock, k + 1, OK
    return clock, m - 1, EXHAUSTED


def _em_seq(kind, p, increments, n, x0):
    m = increments.shape[0]
    values = np.empty(m + 1, dtype=np.float64)
    values[0] = x0
    for k in range(m):
        s = _sigma_scalar(kind, p, k / n, values[k])
        values[k + 1] = values[k] + s * increments[k]
    return values


def _pl_sup_merge(ta, ya, tb, yb, t_hi):
    # Exact sup of |A(t) - B(t)| over ({ta} u {tb} intersect [0, t_hi]) u {t_hi}
    # for piecewise-linear A = (ta, ya), B = (tb, yb) with ta[-1], tb[-1] >= t_hi.
    na = ta.shape[0]
    nb = tb.shape[0]
    ia = 0
    ib = 0
    pa = 0
    pb = 0
    best = 0.0
    while True:
        ca = ta[pa] if pa < na else _INF
        cb = tb[pb] if pb < nb else _INF
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


if HAVE_NUMBA:
    _JIT = dict(cache=True, nogil=True)
    _sigma_scalar_nb = _njit(**_JIT)(_sigma_scalar)

    @_njit(**_JIT)
    def _clock_seq_nb(kind, p, driver, inv_n, t_end, lo, hi, tol):
        m = driver.shape[0]
        clock = np.empty(m, dtype=np.float64)
        clock[0] = 0.0
        for k in range(m - 1):
            s = _sigma_scalar_nb(kind, p, clock[k], driver[k])
            if s < lo - tol or s > hi + tol:
                return clock, k, BOUNDS_BREACH
            clock[k + 1] = clock[k] + inv_n / (s * s)
            if clock[k + 1] >= t_end:
                return clock, k + 1, OK
        return clock, m - 1, EXHAUSTED

    @_njit(**_JIT)
    def _em_seq_nb(kind, p, increments, n, x0):
        m = increments.shape[0]
        values = np.empty(m + 1, dtype=np.float64)
        values[0] = x0
        for k in range(m):
            s = _sigma_scalar_nb(kind, p, k / n, values[k])
            values[k + 1] = values[k] + s * increments[k]
        return values

    _pl_sup_merge_nb = _njit(**_JIT)(_pl_sup_merge)
else:
    _clock_seq_nb = None
    _em_seq_nb = None
    _pl_sup_merge_nb = None


def clock_knots_kind(kind, p, driver, inv_n, t_end, lo, hi, tol):
    """Clock recursion for a builtin coefficient; returns (buffer, k, status).

    The numpy lane vectorizes time-independent kinds through cumsum (bit
    identical to sequential accumulation) and falls back to the interpreted
    loop for the time-dependent kind.
    """
    if USING_NUMBA:
        return _clock_seq_nb(kind, p, driver, inv_n, t_end, lo, hi, tol)
    if kind == KIND_TIME_SMOOTH:
        return _clock_seq(kind, p, driver, inv_n, t_end, lo, hi, tol)
    sig = sigma_kind_vec(kind, p, 0.0, driver[:-1])
    clock = np.empty(driver.shape[0], dtype=np.float64)
    clock[0] = 0.0
    np.cumsum(inv_n / (sig * sig), out=clock[1:])
    k = int(np.searchsorted(clock, t_end, side="left"))
    if k >= clock.shape[0]:
        bad = np.flatnonzero((sig < lo - tol) | (sig > hi + tol))
        if bad.size:
            return clock, int(bad[0]), BOUNDS_BREACH
        return clock, clock.shape[0] - 1, EXHAUSTED
    used = sig[:k]
    bad = np.flatnonzero((used < lo - tol) | (used > hi + tol))
    if bad.size:
        return clock, int(bad[0]), BOUNDS_BREACH
    return clock, k, OK


def clock_knots_callable(evaluate, driver, inv_n, t_end, lo, hi, tol):
    """Clock recursion for an arbitrary scalar callable sigma(t, x)."""
    m = driver.shape[0]
    clock = np.empty(m, dtype=np.float64)
    clock[0] = 0.0
    for k in range(m - 1):
        s = evaluate(clock[k], driver[k])
        if s < lo - tol or s > hi + tol:
            return clock, k, BOUNDS_BREACH
        clock[k + 1] = clock[k] + inv_n / (s * s)
        if clock[k + 1] >= t_end:
            return clock, k + 1, OK
    return clock, m - 1, EXHAUSTED


def em_values_kind(kind, p, increments, n, x0):
    if USING_NUMBA:
        return _em_seq_nb(kind, p, increments, float(n), x0)
    return _em_seq(kind, p, increments, float(n), x0)


def em_values_callable(evaluate, increments, n, x0):
    m = increments.shape[0]
    values = np.empty(m + 1, dtype=np.float64)
    values[0] = x0
    for k in range(m):
        values[k + 1] = values[k] + evaluate(k / n, values[k]) * increments[k]
    return values


def pl_eval_many(knots_t: np.ndarray, knots_y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Vectorized piecewise-linear evaluation; exact at knots.

    Callers guarantee knots_t[0] <= t <= knots_t[-1] elementwise.
    """
    t = np.asarray(t, dtype=np.float64)
    if knots_t.shape[0] == 1:
        return np.full(t.shape, knots_y[-1], dtype=np.float64)
    j = np.searchsorted(knots_t, t, side="right") - 1
    last = j >= knots_t.shape[0] - 1
    j = np.where(last, 0, j)
    theta = (t - knots_t[j]) / (knots_t[j + 1] - knots_t[j])
    val = knots_y[j] + theta * (knots_y[j + 1] - knots_y[j])
    return np.where(last, knots_y[-1], val)


def _max_abs_diff_at(q, y, kt, ky):
    # max over i of |y[i] - P(q[i])|, P the piecewise-linear path (kt, ky),
    # for ascending q >= kt[0]; 0.0 when q is empty. Each P(q[i]) is the float
    # pl_eval_many gives: the same interval, theta and interpolation.
    m = int(np.searchsorted(q, kt[-1], side="left"))
    if m <= kt.shape[0]:
        return np.abs(y - pl_eval_many(kt, ky, q)).max(initial=0.0)
    # Many times on few knots (the reference's knots read in a ladder path):
    # place the knots among the times and spread each interval's values over
    # its times, which halves the time of m searches. Times at or past the
    # last knot read ky[-1].
    best = np.max(np.abs(y[m:] - ky[-1]), initial=0.0)
    q = q[:m]
    counts = np.diff(np.searchsorted(q, kt[1:-1], side="left"), prepend=0, append=m)
    t0 = np.repeat(kt[:-1], counts)
    y0 = np.repeat(ky[:-1], counts)
    dt = np.repeat(np.diff(kt), counts)
    dy = np.repeat(np.diff(ky), counts)
    # y0 + (q - t0) / dt * dy, in place in one buffer: a fresh temporary per
    # operation makes this route ~25% slower
    d = q - t0
    d /= dt
    d *= dy
    d += y0
    d -= y[:m]
    return np.abs(d, out=d).max(initial=best)


def _pl_sup_numpy(ta, ya, tb, yb, t_hi):
    # The difference is linear between consecutive knots of either path, so its
    # sup is attained at a knot of A, a knot of B, or t_hi. A path read at its
    # own knot is exact, so each side reads only the other path.
    ka = int(np.searchsorted(ta, t_hi, side="right"))
    kb = int(np.searchsorted(tb, t_hi, side="right"))
    at_hi = np.array([t_hi], dtype=np.float64)
    d_hi = np.abs(pl_eval_many(ta, ya, at_hi) - pl_eval_many(tb, yb, at_hi))[0]
    d_a = _max_abs_diff_at(ta[:ka], ya[:ka], tb, yb)
    d_b = _max_abs_diff_at(tb[:kb], yb[:kb], ta, ya)
    return float(np.max((d_hi, d_a, d_b)))


def pl_sup_abs_diff(ta, ya, tb, yb, t_hi) -> float:
    """Exact sup over [0, t_hi] of |A - B| for piecewise-linear A, B.

    Both paths start at the same time and have strictly increasing knots.
    """
    if USING_NUMBA:
        return float(_pl_sup_merge_nb(ta, ya, tb, yb, t_hi))
    return _pl_sup_numpy(ta, ya, tb, yb, t_hi)
