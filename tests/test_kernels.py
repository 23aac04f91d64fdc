"""Checks of the numpy kernels against independent routes.

The sup reads each path at the other's knots; it contains no transcendentals
and must agree bit for bit with the merge-walk oracle and the union-grid
oracle (tests/oracles.py), on edge cases with the values at every scale in
SCALES, on drawn pairs and on every sup a smooth-sin or time-smooth sample
takes. Both routes of the clock, the loop on
Python floats and the sliding Picard sweep (at every window size in
WINDOWS), must agree bit for bit, and in (k, status), with the numpy-scalar
loop the package ran before (oracles.clock_seq), for every kind, on a
driver as drawn and on a strided, read-only one: at window edges, on
exhaustion and on a bounds breach anywhere in a window. The
Euler-Maruyama loop on Python floats must write the bytes of the numpy-scalar
loop it replaced (oracles.em_values_seq). A step with a kind's formula
inlined, min and max written as conditionals, must give the bits of sigma_of
over SCALAR_OPS, whose min and max are the builtins.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from strategies import CASES, INSIDE, SEED
from tcsde import _kernels
from tcsde.brownian import generate_path
from tcsde.diffusion import _CORPUS, _build_sine, builtin_coefficient
from tcsde.experiment import ExperimentConfig, run_experiment, strong_error_one_sample
from tcsde.timechange import required_horizon


def _random_pl(rng, knots, scale=1.0):
    t = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 1.0, knots))])
    y = np.cumsum(rng.normal(0.0, scale, knots + 1))
    return t, y


W = _kernels.CLOCK_WINDOW
#: knots per pass of the clock's sweep: passes of one, two and three knots,
#: short odd and even ones, and the one the package runs
WINDOWS = [1, 2, 3, 7, 64, W]
#: the routes that must give oracles.clock_seq's clock
CLOCK_ROUTES = (_kernels._clock_seq, _kernels._clock_sweep, _kernels.clock_knots_kind)


def _all_clocks(kind, p, driver, inv_n, t_end, lo, hi, tol, window=W):
    """Run the numpy-scalar oracle, the loop on Python floats, the sweep at
    `window` knots a pass and clock_knots_kind; assert the same (k, status)
    and knots, and return the oracle's."""
    args = (kind, p, driver, inv_n, t_end, lo, hi, tol)
    # numpy scalars warn where the routes must not; the routes run outside
    # errstate, so a warning from one fails the test
    with np.errstate(all="ignore"):
        buf_seq, k_seq, st_seq = oracles.clock_seq(*args)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "CLOCK_WINDOW", window)
        for route in CLOCK_ROUTES:
            buf, k, status = route(*args)
            assert (k, status) == (k_seq, st_seq), route.__name__
            np.testing.assert_array_equal(buf[: k + 1], buf_seq[: k_seq + 1],
                                          err_msg=route.__name__)
    return buf_seq, k_seq, st_seq


#: resolution of the window-edge tests: 3 windows of knots take 1.5 time units
EDGE_N = 2 * W
#: the edge tests run the sweep at both window sizes, and put t_end or a
#: breach at the edges of both
EDGE_WINDOWS = (W // 2, W)


def _smooth_driver(knots):
    # |x| <= 0.3; on 3 windows at n = EDGE_N the clock stays below 0.33, so
    # sigma = 2 + sin(x + t) stays below 2.6
    return 0.3 * np.sin(np.arange(knots) / 50.0)


class TestClockLanes:
    def test_cumsum_identical_to_interpreted_loop(self):
        # non-transcendental kind: the sweep and the loop must agree exactly
        c = builtin_coefficient("holder-root", [1.0, 1.0, 0.5, 0.0])
        driver = generate_path(32, 10.0, 0.0, SEED, 1)
        _all_clocks(c.kernel_kind, c.kernel_params, driver.values, 1.0 / 32, 1.0,
                    c.c1, c.c2, c.bound_tolerance)

    def test_cumsum_identical_to_interpreted_loop_holder_beta_06(self):
        # the sweep and the loop take |x - c|^beta from libm's pow; numpy's
        # vector ** at beta 0.6 differs from it in ~5% of elements on AVX-512
        # CPUs
        c = builtin_coefficient("holder-root", [1.0, 1.0, 0.6, 0.0])
        for sample in range(1, 6):
            driver = generate_path(1024, 10.0, 0.0, SEED, sample)
            _all_clocks(c.kernel_kind, c.kernel_params, driver.values, 1.0 / 1024, 1.0,
                        c.c1, c.c2, c.bound_tolerance)

    @pytest.mark.parametrize("n", [16, 1024, 2048, 4096, 2**14])
    @pytest.mark.parametrize("name,params", CASES)
    def test_sweep_identical_to_loop(self, name, params, n):
        # on a driver as drawn, and on the strided, read-only view of every
        # second knot of one drawn at 2n, which the loop's memoryview reads
        c = builtin_coefficient(name, params)
        horizon = required_horizon(c, 1.0, n)
        strided = generate_path(2 * n, horizon, 0.0, SEED, 2).values[::2]
        assert not (strided.flags.c_contiguous or strided.flags.writeable)
        for driver in (generate_path(n, horizon, 0.0, SEED, 2).values, strided):
            _, _, status = _all_clocks(
                c.kernel_kind, c.kernel_params, driver, 1.0 / n, 1.0,
                c.c1, c.c2, c.bound_tolerance,
            )
            assert status == _kernels.OK

    @pytest.mark.parametrize("n,route,other", [
        (2048, "_clock_seq", "_clock_sweep"),
        (4096, "_clock_sweep", "_clock_seq"),
    ])
    def test_time_dependent_route_by_resolution(self, monkeypatch, n, route, other):
        # the loop is the faster route for a time-smooth clock at n = 2048,
        # and the sweep at 4096 (clock_knots_kind's timings)
        def refuse(*args):
            raise AssertionError(f"{other} ran at n = {n}")

        monkeypatch.setattr(_kernels, other, refuse)
        c = builtin_coefficient("time-smooth", [2.0, 1.0])
        driver = generate_path(n, required_horizon(c, 1.0, n), 0.0, SEED, 2).values
        args = (c.kernel_kind, c.params, driver, 1.0 / n, 1.0, c.c1, c.c2, c.bound_tolerance)
        buf, k, status = _kernels.clock_knots_kind(*args)
        assert status == _kernels.OK
        assert buf[: k + 1].tobytes() == getattr(_kernels, route)(*args)[0][: k + 1].tobytes()

    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize("name,params", CASES)
    def test_sweep_at_every_window_size(self, name, params, window):
        # reaching t_end, exhaustion, and a breach at the largest sigma seen
        c = builtin_coefficient(name, params)
        n = 256
        driver = generate_path(n, required_horizon(c, 1.0, n), 0.0, SEED, 5).values
        args = (c.kernel_kind, c.kernel_params)
        bounds = (c.c1, c.c2, c.bound_tolerance)
        clock, k, status = _all_clocks(*args, driver, 1.0 / n, 1.0, *bounds, window=window)
        assert status == _kernels.OK
        short = driver[:k]
        assert _all_clocks(*args, short, 1.0 / n, 1.0, *bounds, window=window)[1:] == (
            k - 1, _kernels.EXHAUSTED)
        seen = _kernels.sigma_of(*args, _kernels.VECTOR_OPS)(clock[:k], driver[:k])
        lied = (c.c1, np.nextafter(seen.max(), 0.0), 0.0)
        assert _all_clocks(*args, driver, 1.0 / n, 1.0, *lied, window=window)[1:] == (
            int(seen.argmax()), _kernels.BOUNDS_BREACH)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from([16, 64, 256, 1024, 4096]),
        t_end=st.floats(1e-3, 2.0),
        horizon=st.floats(0.01, 12.0),
    )
    def test_time_smooth_sweep_property(self, seed, n, t_end, horizon):
        # the driver may run out before t_end, so EXHAUSTED is drawn too
        c = builtin_coefficient("time-smooth", [2.0, 1.0])
        driver = generate_path(n, horizon, 0.0, seed, 1)
        _all_clocks(
            c.kernel_kind, c.kernel_params, driver.values, 1.0 / n, t_end,
            c.c1, c.c2, c.bound_tolerance,
        )

    @pytest.mark.parametrize("name", ["time-smooth", "smooth-sin"])
    @pytest.mark.parametrize(
        "at", sorted({at for w in EDGE_WINDOWS for at in (w - 1, w, w + 1, 2 * w)}))
    def test_t_end_reached_at_window_edges(self, name, at):
        # t_end is the loop's clock at a knot next to the end of a window,
        # so the sweep must stop exactly there
        c = builtin_coefficient(name, [2.0, 1.0])
        args = (c.kernel_kind, c.kernel_params, _smooth_driver(3 * W), 1.0 / EDGE_N)
        bounds = (c.c1, c.c2, c.bound_tolerance)
        clock, _, _ = oracles.clock_seq(*args, np.inf, *bounds)
        for window in EDGE_WINDOWS:
            _, k, status = _all_clocks(*args, clock[at], *bounds, window=window)
            assert (k, status) == (at, _kernels.OK)

    @pytest.mark.parametrize("knots", [W - 1, W + 1, 2 * W + 1])
    def test_loop_reads_the_driver_in_chunks(self, knots):
        # where the driver ends: a driver of W - 1, W + 1 or 2W + 1 knots
        # gives the oracle's clock, whether the clock reaches t_end at its
        # last knot or the driver runs out
        c = builtin_coefficient("time-smooth", [2.0, 1.0])
        args = (c.kernel_kind, c.kernel_params, _smooth_driver(knots), 1.0 / EDGE_N)
        bounds = (c.c1, c.c2, c.bound_tolerance)
        with np.errstate(all="ignore"):
            clock, k, status = oracles.clock_seq(*args, np.inf, *bounds)
        assert (k, status) == (knots - 1, _kernels.EXHAUSTED)
        for t_end, want in [(np.inf, _kernels.EXHAUSTED), (clock[k], _kernels.OK)]:
            buf, got_k, got_status = _kernels._clock_seq(*args, t_end, *bounds)
            assert (got_k, got_status) == (k, want)
            assert buf.tobytes() == clock[: k + 1].tobytes()

    @pytest.mark.parametrize("name", ["time-smooth", "smooth-sin"])
    @pytest.mark.parametrize("windows", [1, 2])
    def test_driver_ending_at_a_window_edge(self, name, windows):
        c = builtin_coefficient(name, [2.0, 1.0])
        last = windows * W
        args = (c.kernel_kind, c.kernel_params, _smooth_driver(last + 1), 1.0 / EDGE_N)
        bounds = (c.c1, c.c2, c.bound_tolerance)
        for window in EDGE_WINDOWS:
            clock, k, status = _all_clocks(*args, np.inf, *bounds, window=window)
            assert (k, status) == (last, _kernels.EXHAUSTED)
            # the last knot reaches t_end exactly, or falls just short of it
            assert _all_clocks(*args, clock[last], *bounds, window=window)[1:] == (
                last, _kernels.OK)
            after = np.nextafter(clock[last], np.inf)
            assert _all_clocks(*args, after, *bounds, window=window)[1:] == (
                last, _kernels.EXHAUSTED)

    @pytest.mark.parametrize("name", ["time-smooth", "smooth-sin"])
    @pytest.mark.parametrize(
        "at",
        sorted({at for w in EDGE_WINDOWS for at in (0, 1000, w - 1, w, w + 1000, 2 * w - 1)}),
    )
    def test_bounds_breach_anywhere_in_a_window(self, name, at):
        # sigma reads 3.0 at knot `at` and stays below 2.6 before it; the
        # bound 2.9 is breached first there, at a window's first, middle or
        # last knot
        c = builtin_coefficient(name, [2.0, 1.0])
        timed = name == "time-smooth"
        driver = _smooth_driver(3 * W)
        args = (c.kernel_kind, c.kernel_params, driver, 1.0 / EDGE_N)
        clock, _, _ = oracles.clock_seq(*args, np.inf, c.c1, c.c2, c.bound_tolerance)
        driver[at] = np.pi / 2 - (clock[at] if timed else 0.0)
        bounds = (c.c1, 2.9, 1e-12)
        for window in EDGE_WINDOWS:
            _, k, status = _all_clocks(*args, np.inf, *bounds, window=window)
            assert (k, status) == (at, _kernels.BOUNDS_BREACH)
            # the loop tests the bound at a knot before its step; t_end at
            # that knot is reached first, t_end one knot later is not
            if at:
                assert _all_clocks(*args, clock[at], *bounds, window=window)[1:] == (
                    at, _kernels.OK)
            assert _all_clocks(*args, clock[at + 1], *bounds, window=window)[1:] == (
                at, _kernels.BOUNDS_BREACH)

    @pytest.mark.parametrize("name", ["time-smooth", "smooth-sin"])
    def test_nan_after_t_end_in_the_same_window(self, name):
        # the loop stops at t_end before it reads the NaN; a NaN sigma passes
        # the bound test and makes every later knot NaN
        c = builtin_coefficient(name, [2.0, 1.0])
        driver = _smooth_driver(W)
        args = (c.kernel_kind, c.kernel_params, driver, 1.0 / EDGE_N)
        bounds = (c.c1, c.c2, c.bound_tolerance)
        clock, _, _ = oracles.clock_seq(*args, np.inf, *bounds)
        driver[1500:] = np.nan
        assert _all_clocks(*args, clock[1000], *bounds)[1:] == (1000, _kernels.OK)
        assert _all_clocks(*args, np.inf, *bounds)[1:] == (W - 1, _kernels.EXHAUSTED)

    def test_bounds_breach_detected_same_knot(self):
        c = builtin_coefficient("constant", [2.0])
        driver = generate_path(16, 4.0, 0.0, SEED, 3)
        # lie about the bounds so the true value 2.0 breaches them
        args = (driver.values, 1.0 / 16, 1.0, 3.0, 4.0, 1e-12)
        _, k, status = _all_clocks(c.kernel_kind, c.kernel_params, *args)
        assert (k, status) == (0, _kernels.BOUNDS_BREACH)

    def test_exhaustion_status(self):
        c = builtin_coefficient("constant", [2.0])
        driver = generate_path(16, 1.0, 0.0, SEED, 4)  # clock needs 4 time units
        args = (driver.values, 1.0 / 16, 1.0, c.c1, c.c2, c.bound_tolerance)
        _, _, status = _all_clocks(c.kernel_kind, c.kernel_params, *args)
        assert status == _kernels.EXHAUSTED

    @pytest.mark.parametrize(
        "name,p,x",
        [
            ("constant", [0.0], 0.25),
            # sin(-pi/2) is -1.0 exactly, so sigma is 0.0 at knot 0
            ("time-smooth", [1.0, 1.0], -math.pi / 2),
        ],
    )
    def test_zero_sigma_is_an_infinite_step(self, name, p, x):
        # numpy's division gives inv_n / 0.0 = inf, and the clock reaches any
        # t_end there; the loop on Python floats must take that step too,
        # with no ZeroDivisionError and no warning
        driver = np.full(8, x)
        for route in CLOCK_ROUTES:
            buf, k, status = route(_CORPUS[name][0], p, driver, 1.0 / 16, 1.0, 0.0, 2.0, 0.0)
            assert (k, status) == (1, _kernels.OK), route.__name__
            assert buf[:2].tolist() == [0.0, math.inf], route.__name__


_CLOCK_DIGEST = """
import hashlib, sys
from tcsde.brownian import generate_path
from tcsde.diffusion import builtin_coefficient
from tcsde.timechange import build_time_change, required_horizon
c = builtin_coefficient(sys.argv[1], [float(v) for v in sys.argv[2:]])
for n in (1024, 2**14):
    tc = build_time_change(generate_path(n, required_horizon(c, 2.5, n), 0.0, %d, 1), c, 2.5)
    print(n, hashlib.sha256(tc.clock.tobytes()).hexdigest())
""" % SEED


@pytest.mark.parametrize(
    "name,params",
    [
        ("holder-root", ["1", "1", "0.6", "0"]),
        ("smooth-sin", ["2", "1"]),
        ("time-smooth", ["2", "1"]),
    ],
)
def test_clock_bytes_independent_of_cpu_dispatch(name, params):
    """The clock's bytes do not depend on which SIMD targets numpy dispatches to.

    A child process builds one clock at n = 1024 and one at n = 2^14 (for
    time-smooth, the loop and the sweep) with numpy's AVX-512 dispatch on,
    and another with it off. On a CPU without AVX-512 both children run the
    same code, and the test passes trivially.
    """
    digests = oracles.digests_with_avx512_on_and_off(_CLOCK_DIGEST, name, *params)
    assert digests[0] == digests[1]



def _em_both(kind, p, increments, n, x0):
    """Assert that both loops write the same bytes, and return them."""
    # numpy scalars warn where Python floats overflow silently; the new loop
    # runs outside errstate, so a warning from it fails the test
    with np.errstate(all="ignore"):
        want = oracles.em_values_seq(kind, p, increments, n, x0).tobytes()
    assert _kernels.em_values_kind(kind, p, increments, n, x0).tobytes() == want
    return want


_EM_N = [1, 3, 16, 8192]
#: the ramp whose (x - lo) / d overflows for almost every x
_SUBNORMAL_RAMP = ("step-mollified", (1.0, 2.0, 0.0, 5e-324))


@st.composite
def _em_cases(draw):
    """A corpus coefficient with params inside its domain, a level n, a step
    count (zero, one, or up to two horizons), a finite x0 and a driver seed."""
    name = draw(st.sampled_from(sorted(INSIDE)))
    params = draw(INSIDE[name])
    n = draw(st.sampled_from(_EM_N))
    steps = draw(st.one_of(st.sampled_from([0, 1, n]), st.integers(0, 2 * n)))
    x0 = draw(st.floats(allow_nan=False, allow_infinity=False))
    return name, params, n, steps, x0, draw(st.integers(0, 2**32 - 1))


class TestEmLoop:
    @pytest.mark.parametrize("n", _EM_N)
    @pytest.mark.parametrize("name,params", CASES + [_SUBNORMAL_RAMP])
    def test_same_bytes_as_numpy_scalar_loop(self, name, params, n):
        c = builtin_coefficient(name, params)
        # 3000 steps at n = 3 read knot times k/n that no power of two gives
        for steps in (0, 1, n, 3000):
            driver = generate_path(n, max(steps, 1) / n, 0.0, SEED, steps)
            increments = np.diff(driver.values[: steps + 1])
            out = _em_both(c.kernel_kind, c.kernel_params, increments, n, 0.25)
            assert len(out) == 8 * (steps + 1)

    @settings(max_examples=80, deadline=None)
    @given(case=_em_cases())
    @example(case=("constant", (2.0,), 1, 0, -0.0, 0))
    @example(case=(*_SUBNORMAL_RAMP, 16, 16, 0.0, 0))
    @example(case=(*_SUBNORMAL_RAMP, 8192, 8192, -1e-300, 1))
    @example(case=("time-smooth", (2.0, 1.0), 3, 6, 1.7976931348623157e308, 2))
    def test_same_bytes_property(self, case):
        name, params, n, steps, x0, seed = case
        try:
            c = builtin_coefficient(name, params)
        except ValueError:
            assume(False)
        increments = np.random.default_rng(seed).normal(0.0, n**-0.5, steps)
        _em_both(c.kernel_kind, c.kernel_params, increments, n, x0)


def test_a_new_kind_is_one_row(monkeypatch):
    # one _CORPUS row, and every route runs the kind: the coefficient, both
    # clock routes against the oracle, the EM loop, and a run of each scheme
    kind = "a + b * abs(sin(x + t))"
    monkeypatch.setitem(_CORPUS, "abs-sine", (kind, _build_sine))
    c = builtin_coefficient("abs-sine", [2.0, 1.0])
    assert (c.kernel_kind, c.c1, c.c2) == (kind, 1.0, 3.0) and _kernels.reads_t(kind)
    for n in (16, 2**14):
        driver = generate_path(n, required_horizon(c, 1.0, n), 0.0, SEED, 2).values
        _, _, status = _all_clocks(kind, c.params, driver, 1.0 / n, 1.0, c.c1, c.c2,
                                   c.bound_tolerance)
        assert status == _kernels.OK
        _em_both(kind, c.params, np.diff(driver), n, 0.25)
    config = ExperimentConfig(coefficient="abs-sine", params=(2.0, 1.0), sde_horizon=1.0,
                              x0=0.0, resolutions=(4, 8), ref_resolution=32, p=2.0, samples=2,
                              master_seed=SEED, scheme="compare")
    report = run_experiment(config, jobs=1)
    assert report["time_change"]["per_resolution"][0]["mean_error"] > 0
    assert report["euler_maruyama"]["per_resolution"][0]["mean_error"] > 0


def test_every_kind_that_reads_t_varies_with_t():
    # so the test below covers every kind whose sigma must ignore t
    for kind, _ in _CORPUS.values():
        if _kernels.reads_t(kind):
            sigma = _kernels.sigma_of(kind, [2.0, 1.0, 0.5, 0.0], _kernels.SCALAR_OPS)
            assert sigma(0.0, 0.0) != sigma(1.0, 0.0), kind


@settings(max_examples=60, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize(
    "name", sorted(n for n, (kind, _) in _CORPUS.items() if not _kernels.reads_t(kind))
)
def test_sigma_ignores_t_outside_time_kinds(name, data):
    # em_values_kind steps a kind that does not read t at t = 0.0, and the
    # clock takes one Picard pass a window for it, so its sigma must give the
    # bits at t = 0.0 that it gives at any t, over both ops
    kind = _CORPUS[name][0]
    params = np.array(data.draw(INSIDE[name]), dtype=np.float64)
    xs = data.draw(st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=8))
    ts = data.draw(st.lists(st.floats(0.0, 1e6), min_size=len(xs), max_size=len(xs)))
    scalar = _kernels.sigma_of(kind, params, _kernels.SCALAR_OPS)
    vector = _kernels.sigma_of(kind, params, _kernels.VECTOR_OPS)
    with np.errstate(all="ignore"):
        at_zero = vector(0.0, np.array(xs))
        at_t = vector(np.array(ts), np.array(xs))
    assert np.asarray(at_zero, dtype=np.float64).tobytes() == at_t.tobytes()
    for x, t in zip(xs, ts):
        assert np.float64(scalar(0.0, x)).tobytes() == np.float64(scalar(t, x)).tobytes()


_EDGE_FLOATS = st.one_of(
    st.floats(), st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf])
)


#: one step of a loop on Python floats, the kind's formula inlined as the
#: loops inline it
_STEP = """
def compiled(t, x, a, b=0.0, c=0.0, d=0.0):
    return SIGMA
"""


def _bits_or_error(f, *args):
    # The bits f returns, or the error it raises: math.sin refuses an
    # infinite x. Every NaN reads as one value, since an operation on two NaNs
    # returns either one: CPython's generic and specialized float operations
    # take the operands in either order.
    try:
        y = np.float64(f(*args))
    except ValueError as exc:
        return type(exc)
    return "nan" if np.isnan(y) else y.tobytes()


@settings(max_examples=100, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("name", sorted(_CORPUS))
def test_inlined_step_is_sigma_of(name, data):
    # each min and max written as its conditional gives the bits of sigma_of
    # over SCALAR_OPS at signed zeros, NaNs, infinities and subnormals, so a
    # swapped argument or comparison shows; and so does the EM loop's first
    # step, taken at t = 0
    kind = _CORPUS[name][0]
    params = [float(v) for v in data.draw(INSIDE[name])]
    t, x, dw = data.draw(_EDGE_FLOATS), data.draw(_EDGE_FLOATS), data.draw(_EDGE_FLOATS)
    sigma = _kernels.sigma_of(kind, params, _kernels.SCALAR_OPS)
    step = _kernels._compiled(kind, _STEP)
    assert _bits_or_error(step, t, x, *params) == _bits_or_error(sigma, t, x)
    em = _bits_or_error(lambda: _kernels.em_values_kind(kind, params, np.array([dw]), 1, x)[1])
    assert em == _bits_or_error(lambda: x + sigma(0.0, x) * dw)


def test_sigma_of_compiles_once_per_kind():
    # sigma_of runs for every clock and EM path: two calls with other params
    # reuse one compiled formula
    for kind, _ in _CORPUS.values():
        for ops in (_kernels.SCALAR_OPS, _kernels.VECTOR_OPS):
            one = _kernels.sigma_of(kind, [2.0, 1.0, 0.5, 0.0], ops)
            two = _kernels.sigma_of(kind, [3.0, 0.5, 0.7, 1.0], ops)
            assert one.__code__ is two.__code__


def _sups(ta, ya, tb, yb, t_hi):
    return (
        oracles.pl_sup_merge(ta, ya, tb, yb, t_hi),
        _kernels.pl_sup_abs_diff(ta, ya, tb, yb, t_hi),
        oracles.pl_sup_union(ta, ya, tb, yb, t_hi),
    )


#: scales of both paths' values: a power of two scales every rounding of the
#: sup exactly, so the sup scales with it; 3 and 7 round differently
SCALES = [1, 2, 3, 7, 16384]


def _both_ways(coarse, fine, t_hi, scale=1):
    """Assert both argument orders, values times scale, agree bit for bit
    with both oracles, and at a power-of-two scale with scale times the
    unscaled sup."""
    for ta, ya, tb, yb in (coarse + fine, fine + coarse):
        a, b, c = _sups(ta, scale * ya, tb, scale * yb, t_hi)
        assert a == b == c
        if scale & (scale - 1) == 0:
            assert b == scale * _kernels.pl_sup_abs_diff(ta, ya, tb, yb, t_hi)


_steps = st.lists(st.floats(1e-3, 1.0), max_size=30)
_values = st.floats(-1e3, 1e3)


@st.composite
def _path_pairs(draw):
    """Two paths from time 0 with strictly increasing knots, and a t_hi.

    The knot sets are independent, share a pool of times, or A's knots are
    a subset of B's (the clock-sup and Euler-Maruyama shape); either path
    may be a single knot. t_hi is drawn inside the common range, at a knot
    of either path, or at ta[-1], which may lie past B's last knot.
    """
    def knots():
        return np.cumsum([0.0] + draw(_steps))

    def some_of(t):
        keep = draw(st.lists(st.booleans(), min_size=t.size - 1, max_size=t.size - 1))
        return t[np.array([True] + keep)]

    shape = draw(st.sampled_from(["independent", "shared", "subset"]))
    if shape == "independent":
        ta, tb = knots(), knots()
    elif shape == "shared":
        pool = knots()
        ta, tb = some_of(pool), some_of(pool)
    else:
        tb = knots()
        ta = some_of(tb)
    ya = np.array(draw(st.lists(_values, min_size=ta.size, max_size=ta.size)))
    yb = np.array(draw(st.lists(_values, min_size=tb.size, max_size=tb.size)))
    end = min(ta[-1], tb[-1])
    t_hi = draw(
        st.one_of(
            st.floats(0.0, end),
            st.sampled_from(sorted(set(ta) | set(tb))).map(lambda t: min(t, end)),
            st.just(float(ta[-1])),
        )
    )
    return ta, ya, tb, yb, t_hi


# a single-knot path (a constant from time 0) and a three-knot path
_ONE = (np.array([0.0]), np.array([1.5]))
_THREE = (np.array([0.0, 1.0, 2.0]), np.array([0.0, 4.0, -1.0]))


class TestSupLanes:
    def test_merge_vs_union_bitwise_random_paths(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            ta, ya = _random_pl(rng, rng.integers(1, 40))
            tb, yb = _random_pl(rng, rng.integers(1, 40))
            t_hi = rng.uniform(0.0, min(ta[-1], tb[-1]))
            a, b, c = _sups(ta, ya, tb, yb, t_hi)
            assert a == b == c

    def test_merge_vs_union_shared_knots(self):
        # knot sets with exact overlaps exercise the duplicate-consumption path
        rng = np.random.default_rng(8)
        for _ in range(50):
            t_fine = np.arange(33) / 32
            y_fine = np.cumsum(rng.normal(0, 1, 33))
            t_coarse = t_fine[::4]
            y_coarse = y_fine[::4] + rng.normal(0, 0.1, 9)
            t_hi = rng.choice([1.0, 0.97, float(t_fine[-2])])
            a, b, c = _sups(t_coarse, y_coarse, t_fine, y_fine, t_hi)
            assert a == b == c

    def test_merge_vs_union_dense_path(self):
        # the experiment's shape: a few coarse knots against a dense path,
        # so the dense knots are read many to an interval of the coarse one.
        # The coarse knots are either a subset of the dense ones, with values
        # far enough off that the sup often sits at a shared knot, or end
        # before the dense path, so dense times at or past their end read
        # y[-1] up to t_hi.
        rng = np.random.default_rng(10)
        for i in range(200):
            t_fine, y_fine = _random_pl(rng, rng.integers(40, 200))
            if i % 2 == 0:
                keep = rng.choice(np.arange(1, t_fine.size), rng.integers(1, 8), replace=False)
                idx = np.concatenate([[0], np.sort(keep)])
                t_coarse = t_fine[idx]
                y_coarse = y_fine[idx] + rng.normal(0.0, 3.0, idx.size)
                t_hi = float(min(t_coarse[-1], t_fine[-1]))
            else:
                t_coarse, y_coarse = _random_pl(rng, rng.integers(1, 8), scale=3.0)
                t_coarse *= 0.7 * t_fine[-1] / t_coarse[-1]
                t_hi = float(t_fine[-1])
            _both_ways((t_coarse, y_coarse), (t_fine, y_fine), t_hi)

    @settings(max_examples=300, deadline=None)
    @given(_path_pairs())
    @example(_ONE + _THREE + (0.5,))
    @example(_THREE + _ONE + (0.5,))
    @example(_ONE + _THREE + (2.0,))
    @example(_THREE + _ONE + (0.0,))
    @example(_ONE + (_ONE[0], -_ONE[1]) + (0.0,))
    def test_two_sided_sup_property(self, pair):
        ta, ya, tb, yb, t_hi = pair
        a, b, c = _sups(ta, ya, tb, yb, t_hi)
        assert a == b == c
        grid = np.append(np.union1d(ta[ta <= t_hi], tb[tb <= t_hi]), t_hi)
        assert b == pytest.approx(
            oracles.pl_sup_on_grid(ta, ya, tb, yb, grid), rel=1e-12, abs=1e-9
        )

    @pytest.mark.parametrize("scale", SCALES)
    def test_interval_longer_than_block(self, scale):
        # the first coarse interval holds a block of 50 dense times, the
        # second one of 5
        rng = np.random.default_rng(12)
        t_fine = np.concatenate([np.arange(50) / 50, 1.0 + np.arange(6) / 5])
        y_fine = rng.normal(0.0, 1.0, t_fine.size)
        coarse = (np.array([0.0, 1.0, 2.0]), np.array([0.0, 3.0, -1.0]))
        for t_hi in (0.5, 1.0, 1.7, 2.0):
            _both_ways(coarse, (t_fine, y_fine), t_hi, scale)

    @pytest.mark.parametrize("scale", SCALES)
    def test_empty_intervals(self, scale):
        # coarse knots between two dense knots leave intervals that hold no
        # dense time: one alone, a run of two, and the last two
        rng = np.random.default_rng(13)
        t_fine = np.arange(41) / 40
        y_fine = np.cumsum(rng.normal(0.0, 1.0, 41))
        t_coarse = np.array([0.0, 0.001, 0.002, 0.301, 0.302, 0.303, 0.5, 0.999, 0.9995, 1.0])
        coarse = (t_coarse, rng.normal(0.0, 3.0, t_coarse.size))
        for t_hi in (0.0015, 0.3025, 0.4, 0.9997, 1.0):
            _both_ways(coarse, (t_fine, y_fine), t_hi, scale)

    @pytest.mark.parametrize("scale", SCALES)
    def test_t_hi_around_last_whole_interval(self, scale):
        # aligned grids, as a ladder path's clock against the reference's:
        # the coarse knots are every 8th dense knot and stop at 1.0, before
        # the dense path does. t_hi lies inside the last whole coarse
        # interval (between dense knots and at one), at its end, and past it
        rng = np.random.default_rng(14)
        t_fine = np.arange(81) / 64
        y_fine = np.cumsum(rng.normal(0.0, 1.0, 81))
        coarse = (t_fine[:65:8], y_fine[:65:8] + rng.normal(0.0, 0.5, 9))
        for t_hi in (0.9, 61 / 64, 0.99, 1.0, 1.1, 1.25):
            _both_ways(coarse, (t_fine, y_fine), t_hi, scale)

    def test_working_set_is_two_arrays_of_the_denser_path(self):
        # a 16-knot path against a reference of 2^18 + 1 knots: the
        # reference's knots are read in one pass with at most two arrays of
        # their length alive, 16 B a knot; reading them through pl_eval_many
        # would hold several more
        rng = np.random.default_rng(15)
        n_ref = 2**18
        t_ref = np.arange(n_ref + 1) / n_ref
        y_ref = np.cumsum(rng.normal(0.0, n_ref**-0.5, n_ref + 1))
        t_c, y_c = t_ref[:: n_ref // 16], y_ref[:: n_ref // 16] + rng.normal(0.0, 0.1, 17)
        tracemalloc.start()
        try:
            got = _kernels.pl_sup_abs_diff(t_c, y_c, t_ref, y_ref, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * t_ref.size
        assert got == oracles.pl_sup_union(t_c, y_c, t_ref, y_ref, 1.0)

    @pytest.mark.parametrize("name", ["smooth-sin", "time-smooth"])
    def test_experiment_sups_match_merge_walk(self, name, monkeypatch):
        # every sup a time-change sample takes (errors, inverse clock and
        # clock, per level) on the perfbench ladder, against the merge walk
        config = ExperimentConfig(
            coefficient=name,
            params=(2.0, 1.0),
            sde_horizon=1.0,
            x0=0.0,
            resolutions=tuple(2**k for k in range(4, 11)),
            ref_resolution=2**14,
            p=2.0,
            samples=3,
            master_seed=SEED,
        )
        sup = _kernels.pl_sup_abs_diff
        calls = []

        def recorded(*args):
            calls.append((args, sup(*args)))
            return calls[-1][1]

        monkeypatch.setattr(_kernels, "pl_sup_abs_diff", recorded)
        for i in range(config.samples):
            strong_error_one_sample(config, i)
        assert len(calls) == 3 * len(config.resolutions) * config.samples
        for args, got in calls:
            assert got == oracles.pl_sup_merge(*args)

    def test_right_end_edge_cases(self):
        # t_hi at 0 and 1 (knots of both), 0.5 (of A only), 0.75 and 1.5 (of B
        # only), 1.25 (of neither), 2 (A's last knot, past B's) and 3 (past
        # both), on four-knot and one-knot paths in both orders: the scalar
        # read of t_hi gives the bytes of pl_eval_many's read that it replaced
        a = (np.array([0.0, 0.5, 1.0, 2.0]), np.array([0.0, 1.0, -2.0, 3.0]))
        b = (np.array([0.0, 0.75, 1.0, 1.5]), np.array([0.5, -1.0, 2.5, 0.25]))
        minus = (_ONE[0], -_ONE[1])
        for pair in (a + b, b + a, a + _ONE, _ONE + b, _ONE + minus, minus + _ONE):
            for t_hi in (0.0, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 3.0):
                got = _kernels.pl_sup_abs_diff(*pair, t_hi)
                want = oracles.pl_sup_three_reads(*pair, t_hi)
                assert np.float64(got).tobytes() == np.float64(want).tobytes()
                if t_hi <= min(pair[0][-1], pair[2][-1]):
                    assert got == oracles.pl_sup_merge(*pair, t_hi)

    @pytest.mark.parametrize("scale", SCALES)
    def test_nan_anywhere_in_either_path(self, scale):
        # a NaN put in turn at every value of either path, before t_hi, at the
        # ends of the interval that holds it, and after it: the sup is NaN
        # exactly for the values up to that interval's right end, as the
        # three-read sup was, and has its bytes elsewhere. t_hi lies on a knot
        # of the dense path, between two, and at the end of both. Both paths'
        # values are scaled by scale
        rng = np.random.default_rng(16)
        t_fine, y_fine = _random_pl(rng, 40)
        coarse = (t_fine[::8], scale * (y_fine[::8] + rng.normal(0.0, 1.0, 6)))
        fine = (t_fine, scale * y_fine)
        for t_hi in (t_fine[20], (t_fine[21] + t_fine[22]) / 2, t_fine[-1]):
            for pair in (coarse + fine, fine + coarse):
                for side in (1, 3):
                    k = int(np.searchsorted(pair[side - 1], t_hi, side="right"))
                    for i in range(pair[side].size):
                        y = pair[side].copy()
                        y[i] = np.nan
                        bad = pair[:side] + (y,) + pair[side + 1 :]
                        got = _kernels.pl_sup_abs_diff(*bad, t_hi)
                        want = oracles.pl_sup_three_reads(*bad, t_hi)
                        assert math.isnan(got) == math.isnan(want) == (i <= k)
                        assert math.isnan(got) or got == want

    def test_sup_attained_at_knot(self):
        ta = np.array([0.0, 1.0])
        ya = np.array([0.0, 0.0])
        tb = np.array([0.0, 0.5, 1.0])
        yb = np.array([0.0, 2.0, 0.0])
        assert _kernels.pl_sup_abs_diff(ta, ya, tb, yb, 1.0) == 2.0
        assert _kernels.pl_sup_abs_diff(ta, ya, tb, yb, 0.25) == 1.0

    def test_identical_paths_zero(self):
        rng = np.random.default_rng(9)
        t, y = _random_pl(rng, 20)
        assert _kernels.pl_sup_abs_diff(t, y, t, y, float(t[-1])) == 0.0

    def test_endpoint_only_difference(self):
        # difference grows linearly to the right endpoint: sup is at t_hi
        ta = np.array([0.0, 2.0])
        ya = np.array([0.0, 2.0])
        tb = np.array([0.0, 2.0])
        yb = np.array([0.0, 0.0])
        assert _kernels.pl_sup_abs_diff(ta, ya, tb, yb, 1.3) == pytest.approx(1.3)


class TestPlEvalMany:
    def test_exact_at_knots(self):
        rng = np.random.default_rng(10)
        t, y = _random_pl(rng, 25)
        np.testing.assert_array_equal(_kernels.pl_eval_many(t, y, t), y)

    def test_matches_np_interp_between_knots(self):
        rng = np.random.default_rng(11)
        t, y = _random_pl(rng, 25)
        q = rng.uniform(0, t[-1], 500)
        np.testing.assert_allclose(
            _kernels.pl_eval_many(t, y, q), np.interp(q, t, y), rtol=0, atol=1e-12
        )

    def test_single_knot_path(self):
        out = _kernels.pl_eval_many(np.array([0.0]), np.array([3.0]), np.array([0.0]))
        np.testing.assert_array_equal(out, [3.0])
