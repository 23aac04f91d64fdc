"""Hot numeric kernels, in numpy.

Every coefficient is a builtin kind: a small integer plus its params. Each
kind's formula is written once, in sigma_of; the interpreted loops run it on
Python floats and the vectorized routes on arrays, with libm's pow in both.

Kernels:
  * clock construction: Euler steps of d(clock)/ds = 1/sigma^2(clock, driver)
    on the uniform Brownian grid, stopping at the first knot >= target time.
    Two routes give the same bytes. A Picard sweep runs cumsum passes over a
    window that slides with the last exact knot, resuming from it. A
    time-dependent sigma at a resolution below CLOCK_LOOP_BELOW runs the
    recursion as a loop over Python floats instead, where the sweep's
    start-up passes cost more than the loop. Both add in the order of the
    numpy-scalar loop they replaced, which the tests keep as their oracle;
  * Euler-Maruyama recursion: an interpreted loop over Python floats. It
    reads the increments, and the knot times k/n for TIME_KINDS only, once
    as lists, so no step boxes a numpy scalar. Each step is the IEEE double
    arithmetic, with libm's pow, of the numpy-scalar loop it replaced, so
    its bytes are that loop's, which the tests keep as its oracle;
  * exact sup of |A - B| for two piecewise-linear paths: the difference is
    linear between the knots of both, so its sup is at a knot or the right
    end, read on Python floats. Each path is read at the other's knots with
    pl_eval_many's arithmetic, with no union grid; a dense path's, in blocks
    of whole intervals of the coarse one, so the temporaries stay cache-sized.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

KIND_CONSTANT = 0
KIND_SMOOTH_SIN = 1
KIND_TIME_SMOOTH = 2
KIND_HOLDER_ROOT = 3
KIND_STEP_MOLLIFIED = 4
#: The kinds whose sigma reads t; every other kind's ignores it.
TIME_KINDS = frozenset({KIND_TIME_SMOOTH})

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
    # Euler recursion clock[k+1] = clock[k] + inv_n / sigma(clock[k], driver[k])^2
    # on Python floats, stopping at the first knot with clock >= t_end. Returns
    # (knots, k, status): on OK the knots 0..k; on BOUNDS_BREACH k is the bad
    # step. A zero sigma^2 is an infinite step, as numpy's division gives it.
    # The driver is read as lists of CLOCK_WINDOW knots, only as far as the
    # clock goes: a ladder driver holds more than twice the knots its clock
    # uses.
    sigma = sigma_of(kind, p, SCALAR_OPS)
    head = driver[:-1]
    xs = chain.from_iterable(
        head[j : j + CLOCK_WINDOW].tolist() for j in range(0, head.shape[0], CLOCK_WINDOW)
    )
    lo, hi = lo - tol, hi + tol
    c = 0.0
    clock = [c]
    append = clock.append
    status = EXHAUSTED
    for x in xs:
        s = sigma(c, x)
        if s < lo or s > hi:
            status = BOUNDS_BREACH
            break
        try:
            c = c + inv_n / (s * s)
        except ZeroDivisionError:
            c = c + math.inf
        append(c)
        if c >= t_end:
            status = OK
            break
    return np.array(clock, dtype=np.float64), len(clock) - 1, status


#: Knots per pass of the clock's Picard sweep, and per list the loop reads.
CLOCK_WINDOW = 4096
#: A time-dependent clock at a resolution n below this runs the loop.
CLOCK_LOOP_BELOW = 2048


def _clock_sweep(kind, p, driver, inv_n, t_end, lo, hi, tol):
    # The Picard sweep of clock_knots_kind; returns (buffer, k, status) with
    # the knots 0..k valid, as _clock_seq does.
    sigma = sigma_of(kind, p, VECTOR_OPS)
    timed = kind in TIME_KINDS
    last = driver.shape[0] - 1
    clock = np.empty(last + 1, dtype=np.float64)
    clock[0] = 0.0
    ramp = np.arange(1.0, CLOCK_WINDOW)
    # knots j+1 .. g hold the last pass's iterate, and knot j is exact
    j = g = 0
    # sigma^2 can underflow to 0 or overflow past a breach that ends the sweep
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while j < last:
            e = min(j + CLOCK_WINDOW, last)
            if g < e:
                # guess the knots past the last pass: its last step continued
                # in a straight line
                step = clock[g] - clock[g - 1] if g else 0.0
                clock[g + 1 : e] = clock[g] + step * ramp[: e - g - 1]
                g = e
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


def clock_knots_kind(kind, p, driver, inv_n, t_end, lo, hi, tol):
    """Clock recursion for a builtin coefficient; returns (buffer, k, status).

    The knots 0..k of buffer are the Euler clock
    c[k+1] = c[k] + inv_n / sigma(c[k], driver[k])^2 up to the first knot
    >= t_end (OK), the last knot of the driver (EXHAUSTED), or the first knot
    whose sigma leaves [lo - tol, hi + tol] (BOUNDS_BREACH, k that knot).
    Two routes give it, bit for bit and with the same (k, status):

      * _clock_seq, the recursion as a loop over Python floats;
      * a Picard sweep: c is the fixed point of
        c = cumsum(inv_n / sigma(c, driver)^2). Each pass covers the
        CLOCK_WINDOW knots after the last exact knot j and accumulates from
        c[j] in the loop's order, so every knot up to and including the first
        one the pass changed is exact. Bounds and t_end are checked on that
        exact prefix only. The next pass starts from it, and the window
        slides: knots the last pass reached keep its iterate as their guess,
        and the knots past it continue its last step. Each pass adds an exact
        knot, so the sweep ends, in the window where the clock reaches t_end.
        A time-independent sigma ignores the clock, so each window takes one
        pass.

    A time-dependent sigma (time-smooth) takes several passes per window:
    about 6 sigma evaluations per knot at n = 2^14, plus a start-up of
    one-knot passes that a short clock cannot amortize. So it runs the loop
    when n < CLOCK_LOOP_BELOW. On 2 vCPUs, median per clock of a
    2 + sin(x + t) clock with T = 1: n = 1024, loop 0.98-1.38 ms, sweep
    1.15-1.55 ms; n = 2048, loop 1.93-2.96 ms, sweep 1.66-2.33 ms.
    """
    if kind in TIME_KINDS and 1.0 / inv_n < CLOCK_LOOP_BELOW:
        return _clock_seq(kind, p, driver, inv_n, t_end, lo, hi, tol)
    return _clock_sweep(kind, p, driver, inv_n, t_end, lo, hi, tol)


def em_values_kind(kind, p, increments, n, x0):
    """Euler-Maruyama iterates x[k+1] = x[k] + sigma(k/n, x[k]) * increments[k].

    Python floats overflow to inf without a warning, as the vector routes do
    under np.errstate. Each k/n from numpy's division equals Python's.
    """
    sigma = sigma_of(kind, p, SCALAR_OPS)
    dws = increments.tolist()
    x = float(x0)
    values = [x]
    append = values.append
    if kind in TIME_KINDS:
        for t, dw in zip((np.arange(len(dws)) / float(n)).tolist(), dws):
            x = x + sigma(t, x) * dw
            append(x)
    else:
        for dw in dws:
            x = x + sigma(0.0, x) * dw
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


def _max_abs_diff_at(q, y, kt, ky, best):
    # max of best and every |y[i] - P(q[i])| (NaN if any is), P the
    # piecewise-linear path (kt, ky), for ascending q >= kt[0]. Each P(q[i]) is
    # the float pl_eval_many gives: the same interval, theta and interpolation.
    m = int(np.searchsorted(q, kt[-1], side="left"))
    if m <= kt.shape[0]:
        return np.abs(y - pl_eval_many(kt, ky, q)).max(initial=best)
    # Many times on few knots (the reference's knots read in a ladder path):
    # place the knots among the times, which halves the time of m searches,
    # and spread each interval's values over its times in blocks of whole
    # intervals, at most SUP_BLOCK times unless one interval holds more, so the
    # temporaries stay in L2; full-length ones, freed to the OS, fault in fresh
    # pages on every call. Times at or past the last knot read ky[-1].
    best = np.abs(y[m:] - ky[-1]).max(initial=best)
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


def _read_at(kt, ky, k, t):
    # pl_eval_many(kt, ky, [t])[0] on scalars, k the count of knots <= t
    if k >= kt.shape[0]:
        return float(ky[-1])
    (t0, t1), (y0, y1) = kt[k - 1 : k + 1].tolist(), ky[k - 1 : k + 1].tolist()
    return y0 + (t - t0) / (t1 - t0) * (y1 - y0)


def pl_sup_abs_diff(ta, ya, tb, yb, t_hi) -> float:
    """Exact sup over [0, t_hi] of |A - B| for piecewise-linear A, B.

    Both paths start at the same time and have strictly increasing knots.
    The difference is linear between consecutive knots of either path, so its
    sup is attained at a knot of A, a knot of B, or t_hi. A path read at its
    own knot is exact, so each side reads only the other path.
    """
    ka = int(np.searchsorted(ta, t_hi, side="right"))
    kb = int(np.searchsorted(tb, t_hi, side="right"))
    best = abs(_read_at(ta, ya, ka, t_hi) - _read_at(tb, yb, kb, t_hi))
    best = _max_abs_diff_at(ta[:ka], ya[:ka], tb, yb, best)
    return float(_max_abs_diff_at(tb[:kb], yb[:kb], ta, ya, best))
