"""Hot numeric kernels, in numpy.

Every coefficient is a builtin kind: a small integer plus its params. Each
kind's formula is written once, in sigma_of; the interpreted loops run it on
Python floats and the vectorized routes on arrays, with libm's pow in both.

Kernels:
  * clock construction: Euler steps of d(clock)/ds = 1/sigma^2(clock, driver)
    on the uniform Brownian grid, stopping at the first knot >= target time.
    Every kind runs one windowed Picard sweep of cumsum passes, each resumed
    from the last exact knot, so the result is bit identical to the
    interpreted loop _clock_seq, which the tests keep as its oracle;
  * Euler-Maruyama recursion: an interpreted loop over Python floats. It
    reads the increments and the knot times k/n once as lists, so no step
    boxes a numpy scalar. Each step is the IEEE double arithmetic, with
    libm's pow, of the numpy-scalar loop it replaced, so its bytes are that
    loop's, which the tests keep as its oracle;
  * exact sup of |A - B| for two piecewise-linear paths: the difference is
    linear between the knots of both, so its sup is at a knot or the right
    end. Each path is read at the other's knots with pl_eval_many's
    arithmetic, with no union grid; a dense path's, in blocks of whole
    intervals of the coarse one, so the temporaries stay cache-sized.
"""

from __future__ import annotations

import math

import numpy as np

KIND_CONSTANT = 0
KIND_SMOOTH_SIN = 1
KIND_TIME_SMOOTH = 2
KIND_HOLDER_ROOT = 3
KIND_STEP_MOLLIFIED = 4

OK = 0
EXHAUSTED = 1
BOUNDS_BREACH = 2


def _min(u, v):
    return v if v < u else u


def _max(u, v):
    return v if v > u else u


#: (sin, pow, min, max) on Python floats and on arrays. np.float_power is
#: libm's pow, as math.pow is; numpy's vector ** is not, on every CPU. _min
#: and _max are builtin min(u, v) and max(u, v) for two arguments, the same
#: rule (the second wins only if strictly smaller or larger, so a NaN or a
#: signed zero comes back from the same position), without the builtins'
#: generic iteration on every call.
SCALAR_OPS = (math.sin, math.pow, _min, _max)
VECTOR_OPS = (np.sin, np.float_power, np.minimum, np.maximum)


def sigma_of(kind, p, ops):
    """sigma(t, x) of a builtin kind with params p, on SCALAR_OPS or VECTOR_OPS."""
    sin, pow, min, max = ops
    a = float(p[0])
    if kind == KIND_CONSTANT:
        return lambda t, x: a + 0.0 * x
    b = float(p[1])
    if kind == KIND_SMOOTH_SIN:
        return lambda t, x: a + b * sin(x)
    if kind == KIND_TIME_SMOOTH:
        return lambda t, x: a + b * sin(x + t)
    c, d = float(p[2]), float(p[3])
    if kind == KIND_HOLDER_ROOT:
        return lambda t, x: a + min(pow(abs(x - d), c), b)
    lo = c - 0.5 * d
    return lambda t, x: a + (b - a) * min(max((x - lo) / d, 0.0), 1.0)


def _clock_seq(kind, p, driver, inv_n, t_end, lo, hi, tol):
    # Euler recursion clock[k+1] = clock[k] + inv_n / sigma(clock[k], driver[k])^2,
    # stopping at the first knot with clock >= t_end. Returns (buffer, k, status)
    # where on OK the knots 0..k are valid; on BOUNDS_BREACH k is the bad step.
    sigma = sigma_of(kind, p, SCALAR_OPS)
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


#: Knots per window of the clock's Picard sweep.
CLOCK_WINDOW = 2048


def clock_knots_kind(kind, p, driver, inv_n, t_end, lo, hi, tol):
    """Clock recursion for a builtin coefficient; returns (buffer, k, status).

    The Euler clock c[k+1] = c[k] + inv_n / sigma(c[k], driver[k])^2 is the
    fixed point of c = cumsum(inv_n / sigma(c, driver)^2), swept window by
    window. A pass over a window [j, e] starts at its last exact knot j and
    accumulates from c[j] in the loop's order, so every knot up to and
    including the first one the pass changed is exact. Bounds and t_end are
    checked on that exact prefix only, and the pass restarts from it; each
    pass adds an exact knot, so the sweep ends. The result is _clock_seq's, bit
    for bit, with the same (k, status). A time-independent sigma ignores the
    clock, so its first pass over each window is already the fixed point. The
    sweep stops in the window where the clock reaches t_end.
    """
    sigma = sigma_of(kind, p, VECTOR_OPS)
    timed = kind == KIND_TIME_SMOOTH
    last = driver.shape[0] - 1
    clock = np.empty(last + 1, dtype=np.float64)
    clock[0] = 0.0
    ramp = np.arange(1.0, CLOCK_WINDOW)
    j = 0
    # sigma^2 can underflow to 0 or overflow past a breach that ends the sweep
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while j < last:
            e = min(j + CLOCK_WINDOW, last)
            # first guess: the last exact step continued in a straight line
            step = clock[j] - clock[j - 1] if j else 0.0
            clock[j + 1 : e] = clock[j] + step * ramp[: e - j - 1]
            while j < e:
                s = sigma(clock[j:e], driver[j:e])
                a = inv_n / (s * s)
                a[0] += clock[j]
                np.cumsum(a, out=a)
                q = e - j - 1
                if timed:
                    changed = a != clock[j + 1 : e + 1]
                    first = int(changed.argmax())
                    q = first if changed[first] else q
                # knots j+1 .. j+1+q are exact, and so are s[0 .. q]
                clock[j + 1 : e + 1] = a
                seen = s[: q + 1]
                bad = np.flatnonzero((seen < lo - tol) | (seen > hi + tol))
                b = int(bad[0]) if bad.size else q + 1
                # knots j+1 .. j+b follow in-bound steps. Steps are >= 0, and a
                # NaN carries to the last knot, so if it is below t_end, all are.
                if b and not a[b - 1] < t_end:
                    done = np.flatnonzero(a[:b] >= t_end)
                    if done.size:
                        return clock, j + 1 + int(done[0]), OK
                if bad.size:
                    return clock, j + b, BOUNDS_BREACH
                j += q + 1
    return clock, last, EXHAUSTED


def em_values_kind(kind, p, increments, n, x0):
    """Euler-Maruyama iterates x[k+1] = x[k] + sigma(k/n, x[k]) * increments[k].

    Python floats overflow to inf without a warning, as the vector routes do
    under np.errstate. Each k/n from numpy's division equals Python's.
    """
    sigma = sigma_of(kind, p, SCALAR_OPS)
    times = (np.arange(increments.shape[0]) / float(n)).tolist()
    x = float(x0)
    values = [x]
    append = values.append
    for t, dw in zip(times, increments.tolist()):
        x = x + sigma(t, x) * dw
        append(x)
    return np.array(values, dtype=np.float64)


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


#: Most query times per block of the sup's many-on-few route.
SUP_BLOCK = 16384


def _max_abs_diff_at(q, y, kt, ky):
    # max over i of |y[i] - P(q[i])|, P the piecewise-linear path (kt, ky),
    # for ascending q >= kt[0]; 0.0 when q is empty. Each P(q[i]) is the float
    # pl_eval_many gives: the same interval, theta and interpolation.
    m = int(np.searchsorted(q, kt[-1], side="left"))
    if m <= kt.shape[0]:
        return np.abs(y - pl_eval_many(kt, ky, q)).max(initial=0.0)
    # Many times on few knots (the reference's knots read in a ladder path):
    # place the knots among the times, which halves the time of m searches,
    # and spread each interval's values over its times in blocks of whole
    # intervals, at most SUP_BLOCK times unless one interval holds more, so the
    # temporaries stay in L2; full-length ones, freed to the OS, fault in fresh
    # pages on every call. Times at or past the last knot read ky[-1].
    best = np.max(np.abs(y[m:] - ky[-1]), initial=0.0)
    edges = np.searchsorted(q, kt, side="left")
    dt, dy = np.diff(kt), np.diff(ky)
    i = 0
    while i < kt.shape[0] - 1:
        j = max(int(np.searchsorted(edges, edges[i] + SUP_BLOCK, side="right")) - 1, i + 1)
        counts, lo, hi = np.diff(edges[i : j + 1]), edges[i], edges[j]
        # y0 + (q - t0) / dt * dy, in place in one buffer: a fresh temporary
        # per operation makes this route ~25% slower
        d = q[lo:hi] - np.repeat(kt[i:j], counts)
        d /= np.repeat(dt[i:j], counts)
        d *= np.repeat(dy[i:j], counts)
        d += np.repeat(ky[i:j], counts)
        d -= y[lo:hi]
        best = np.abs(d, out=d).max(initial=best)
        i = j
    return best


def pl_sup_abs_diff(ta, ya, tb, yb, t_hi) -> float:
    """Exact sup over [0, t_hi] of |A - B| for piecewise-linear A, B.

    Both paths start at the same time and have strictly increasing knots.
    The difference is linear between consecutive knots of either path, so its
    sup is attained at a knot of A, a knot of B, or t_hi. A path read at its
    own knot is exact, so each side reads only the other path.
    """
    ka = int(np.searchsorted(ta, t_hi, side="right"))
    kb = int(np.searchsorted(tb, t_hi, side="right"))
    at_hi = np.array([t_hi], dtype=np.float64)
    d_hi = np.abs(pl_eval_many(ta, ya, at_hi) - pl_eval_many(tb, yb, at_hi))[0]
    d_a = _max_abs_diff_at(ta[:ka], ya[:ka], tb, yb)
    d_b = _max_abs_diff_at(tb[:kb], yb[:kb], ta, ya)
    return float(np.max((d_hi, d_a, d_b)))
