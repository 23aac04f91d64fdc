"""Hot numeric kernels, in numpy.

A coefficient reaches the kernels as its kind and its params. The kind is
the text of its sigma(t, x), written in the params a, b, c, d, the time t and
the state x with sin, pow, abs, min and max; diffusion._CORPUS holds every
one. Each text is compiled once into sigma_of, which the vectorized routes
run on arrays, and into each interpreted loop's step, inlined; params are
arguments, and pow is libm's in both. reads_t tells which texts read t.

Kernels:
  * clock construction: Euler steps of d(clock)/ds = 1/sigma^2(clock, driver)
    on the uniform Brownian grid, stopping at the first knot >= target time.
    Two routes give the same bytes. A Picard sweep runs cumsum passes over a
    window that slides with the last exact knot, resuming from it. A
    time-dependent sigma at a resolution below CLOCK_LOOP_BELOW (4096, timed
    at clock_knots_kind) runs the recursion as a loop over Python floats read
    through a memoryview, as Euler-Maruyama's are, where the sweep's start-up
    passes cost more. Both add in the order of the numpy-scalar loop they
    replaced, which the tests keep as their oracle;
  * Euler-Maruyama recursion: an interpreted loop over Python floats. It
    reads the increments, and the knot times k/n only for a kind that reads
    t, through memoryviews, a Python float at a time, so no step boxes a
    numpy scalar or calls more than sin, pow and abs. Each step is the IEEE
    double arithmetic, with libm's pow, of the numpy-scalar loop it replaced,
    so its bytes are that loop's, which the tests keep as its oracle;
  * exact sup of |A - B| for two piecewise-linear paths: the difference is
    linear between the knots of both, so its sup is at a knot or the right
    end, read on Python floats. Each path is read at the other's knots with
    pl_eval_many's arithmetic, with no union grid. The pair is ordered sparser
    first: its knots are read by one pl_eval_many call, the denser path's in
    one pass that holds two arrays of its length.
"""

from __future__ import annotations

import ast
import functools
from math import inf, pow, sin

import numpy as np

OK = 0
EXHAUSTED = 1
BOUNDS_BREACH = 2


#: (sin, pow, min, max) on Python floats and on arrays. np.float_power is
#: libm's pow, as math.pow is; numpy's vector ** is not, on every CPU. min and
#: max are the builtins, which the loops inline: the second argument wins only
#: if strictly smaller or larger, which fixes which NaN or signed zero returns.
SCALAR_OPS = (sin, pow, min, max)
VECTOR_OPS = (np.sin, np.float_power, np.minimum, np.maximum)


class _Conditionals(ast.NodeTransformer):
    # Writes each min(u, v) and max(u, v) as the builtins' own conditional,
    # v if v < u else u, with u bound once by a walrus (v, a name or a
    # constant in every formula, is read twice).
    def visit_Call(self, node):
        self.generic_visit(node)
        if getattr(node.func, "id", None) not in ("min", "max"):
            return node
        u, v = node.args
        u = ast.NamedExpr(ast.Name(f"_u{id(u)}", ast.Store()), u)
        test = ast.Compare(v, [ast.Lt() if node.func.id == "min" else ast.Gt()], [u])
        return ast.IfExp(test, v, ast.Name(u.target.id, ast.Load()))


@functools.cache
def _compiled(kind, template, inline_min_max=True):
    # template's function, kind's formula in place of SIGMA (for a loop on Python
    # floats, min and max inlined), in this module's globals, which blame_sample reads
    tree = ast.parse(template.replace("SIGMA", f"({kind})"))
    tree = ast.fix_missing_locations(_Conditionals().visit(tree) if inline_min_max else tree)
    exec(compile(tree, f"<{__name__} sigma {kind}>", "exec"), globals(), namespace := {})
    return namespace["compiled"]


@functools.cache
def reads_t(kind):
    """Whether kind's sigma reads the time t; every other kind's ignores it."""
    return "t" in compile(kind, "", "eval").co_names


_SIGMA = "def compiled(sin, pow, min, max, a, b=0.0, c=0.0, d=0.0): return lambda t, x: SIGMA"


def sigma_of(kind, p, ops):
    """sigma(t, x) of kind with params p, on SCALAR_OPS or VECTOR_OPS."""
    return _compiled(kind, _SIGMA, False)(*ops, *map(float, p))


# The clock's Euler recursion t[k+1] = t[k] + inv_n / sigma(t[k], xs[k])^2, up to
# the first knot >= t_end or one whose sigma leaves [lo, hi]. A zero sigma^2
# is an infinite step, as numpy's division gives it.
_CLOCK_LOOP = """
def compiled(xs, inv_n, t_end, lo, hi, a, b=0.0, c=0.0, d=0.0):
    t = 0.0
    clock = [t]
    append = clock.append
    for x in xs:
        s = SIGMA
        if s < lo or s > hi:
            return clock, BOUNDS_BREACH
        try:
            t = t + inv_n / (s * s)
        except ZeroDivisionError:
            t = t + inf
        append(t)
        if t >= t_end:
            return clock, OK
    return clock, EXHAUSTED
"""


def _clock_seq(kind, p, driver, inv_n, t_end, lo, hi, tol):
    # _CLOCK_LOOP; returns (knots, k, status), on BOUNDS_BREACH k the bad
    # step. It reads the driver through a memoryview only as far as the
    # clock goes: a ladder driver holds over twice the knots it uses.
    loop = _compiled(kind, _CLOCK_LOOP)
    clock, status = loop(memoryview(driver[:-1]), inv_n, t_end, lo - tol, hi + tol,
                         *map(float, p))
    return np.array(clock, dtype=np.float64), len(clock) - 1, status


#: Knots per pass of the clock's Picard sweep.
CLOCK_WINDOW = 4096
#: A time-dependent clock at a resolution n below this runs the loop.
CLOCK_LOOP_BELOW = 4096


def _clock_sweep(kind, p, driver, inv_n, t_end, lo, hi, tol):
    # The Picard sweep of clock_knots_kind; returns (buffer, k, status) with
    # the knots 0..k valid, as _clock_seq does.
    sigma = sigma_of(kind, p, VECTOR_OPS)
    timed = reads_t(kind)
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
    when n < CLOCK_LOOP_BELOW. On 2 vCPUs, medians per 2 + sin(x + t) clock
    with T = 1 over 24 drivers, loop vs sweep: 0.68 vs 1.22 ms at n = 1024,
    1.38 vs 1.66 at 2048, 2.75 vs 2.63 at 4096, 5.61 vs 4.19 at 8192.
    """
    if reads_t(kind) and 1.0 / inv_n < CLOCK_LOOP_BELOW:
        return _clock_seq(kind, p, driver, inv_n, t_end, lo, hi, tol)
    return _clock_sweep(kind, p, driver, inv_n, t_end, lo, hi, tol)


_EM_LOOP = """
def compiled(dws, ts, x, a, b=0.0, c=0.0, d=0.0):
    if ts is None:
        return [x] + [x := x + SIGMA * dw for dw in dws]
    return [x] + [x := x + SIGMA * dw for t, dw in zip(ts, dws)]
"""


def em_values_kind(kind, p, increments, n, x0):
    """Euler-Maruyama iterates x[k+1] = x[k] + sigma(k/n, x[k]) * increments[k].

    Only a kind that reads t reads the k/n, and numpy's division gives
    Python's. Python floats overflow to inf without a warning, as arrays do
    under np.errstate.
    """
    dws = memoryview(increments)
    ts = memoryview(np.arange(len(dws)) / float(n)) if reads_t(kind) else None
    return np.array(_compiled(kind, _EM_LOOP)(dws, ts, float(x0), *map(float, p)), dtype=np.float64)


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


def _max_abs_diff_at(q, y, kt, ky, best):
    # max of best and every |y[i] - P(q[i])| (NaN if any is), P the
    # piecewise-linear path (kt, ky), for ascending q >= kt[0]: the denser
    # path's knots read in the sparser one. Each P(q[i]) is the float
    # pl_eval_many gives: the same interval, theta and interpolation. Knots are
    # placed among the times, which halves the time of m searches. Times at or
    # past the last knot read ky[-1].
    m = int(np.searchsorted(q, kt[-1], side="left"))
    best = np.abs(y[m:] - ky[-1]).max(initial=best)
    counts = np.diff(np.searchsorted(q[:m], kt, side="left"))
    # y0 + (q - t0) / dt * dy, in place in one buffer with one repeat at a
    # time, so at most two arrays of m floats are alive
    d = q[:m] - np.repeat(kt[:-1], counts)
    d /= np.repeat(np.diff(kt), counts)
    d *= np.repeat(np.diff(ky), counts)
    d += np.repeat(ky[:-1], counts)
    d -= y[:m]
    return np.abs(d, out=d).max(initial=best)


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
    own knot is exact, so each side reads only the other path: the sparser
    path's knots by one pl_eval_many call, the denser's in one pass.
    """
    if ta.shape[0] > tb.shape[0]:
        ta, ya, tb, yb = tb, yb, ta, ya
    ka = int(np.searchsorted(ta, t_hi, side="right"))
    kb = int(np.searchsorted(tb, t_hi, side="right"))
    best = abs(_read_at(ta, ya, ka, t_hi) - _read_at(tb, yb, kb, t_hi))
    best = np.abs(ya[:ka] - pl_eval_many(tb, yb, ta[:ka])).max(initial=best)
    return float(_max_abs_diff_at(tb[:kb], yb[:kb], ta, ya, best))
