"""Checks of the numpy kernels against independent routes.

The sup reads each path at the other's knots; it contains no transcendentals
and must agree bit for bit with the merge-walk oracle and the union-grid
oracle (tests/oracles.py). The vectorized clock of a time-independent sigma
(a cumsum) must agree exactly with the interpreted scalar loop.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from tcsde import _kernels
from tcsde.brownian import generate_path
from tcsde.diffusion import builtin_coefficient

SEED = 20260808

CORPUS_PARAMS = {
    "holder-root": [1.0, 1.0, 0.5, 0.0],
}


def _random_pl(rng, knots, scale=1.0):
    t = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 1.0, knots))])
    y = np.cumsum(rng.normal(0.0, scale, knots + 1))
    return t, y


class TestClockLanes:
    def test_cumsum_identical_to_interpreted_loop(self):
        # non-transcendental kind: the cumsum and the loop must agree exactly
        c = builtin_coefficient("holder-root", CORPUS_PARAMS["holder-root"])
        driver = generate_path(32, 10.0, 0.0, SEED, 1)
        args = (driver.values, 1.0 / 32, 1.0, c.c1, c.c2, c.bound_tolerance)
        buf_seq, k_seq, st_seq = _kernels._clock_seq(c.kernel_kind, c.kernel_params, *args)
        buf_vec, k_vec, st_vec = _kernels.clock_knots_kind(c.kernel_kind, c.kernel_params, *args)
        assert (k_seq, st_seq) == (k_vec, st_vec)
        np.testing.assert_array_equal(buf_seq[: k_seq + 1], buf_vec[: k_vec + 1])

    def test_bounds_breach_detected_same_knot(self):
        c = builtin_coefficient("constant", [2.0])
        driver = generate_path(16, 4.0, 0.0, SEED, 3)
        # lie about the bounds so the true value 2.0 breaches them
        args = (driver.values, 1.0 / 16, 1.0, 3.0, 4.0, 1e-12)
        buf, k, status = _kernels._clock_seq(c.kernel_kind, c.kernel_params, *args)
        assert status == _kernels.BOUNDS_BREACH and k == 0
        _, k2, status2 = _kernels.clock_knots_kind(c.kernel_kind, c.kernel_params, *args)
        assert (k2, status2) == (k, status)

    def test_exhaustion_status(self):
        c = builtin_coefficient("constant", [2.0])
        driver = generate_path(16, 1.0, 0.0, SEED, 4)  # clock needs 4 time units
        args = (driver.values, 1.0 / 16, 1.0, c.c1, c.c2, c.bound_tolerance)
        _, _, status = _kernels._clock_seq(c.kernel_kind, c.kernel_params, *args)
        assert status == _kernels.EXHAUSTED


def _sups(ta, ya, tb, yb, t_hi):
    return (
        oracles.pl_sup_merge(ta, ya, tb, yb, t_hi),
        _kernels.pl_sup_abs_diff(ta, ya, tb, yb, t_hi),
        oracles.pl_sup_union(ta, ya, tb, yb, t_hi),
    )


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
            for pair in ((t_coarse, y_coarse, t_fine, y_fine), (t_fine, y_fine, t_coarse, y_coarse)):
                a, b, c = _sups(*pair, t_hi)
                assert a == b == c

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
