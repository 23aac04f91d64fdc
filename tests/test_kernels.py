"""Cross-checks between the numba lane and the numpy fallback lane.

Both lanes are importable regardless of which one is active, so every test
runs the pair directly and asserts agreement. The sup kernels contain no
transcendentals and must agree bit for bit: the merge walk (run as plain
Python on every machine, and as numba's compiled copy where numba is
installed), the numpy lane's two-sided reading of each path at the other's
knots, and the union-grid oracle. The clock kernels may differ where numpy's
vectorized sin and libm sin round differently, hence the 1e-12 tolerances
there.
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
    "constant": [2.0],
    "smooth-sin": [2.0, 1.0],
    "time-smooth": [2.0, 1.0],
    "holder-root": [1.0, 1.0, 0.5, 0.0],
    "step-mollified": [1.0, 2.0, 0.0, 0.5],
}

needs_numba = pytest.mark.skipif(
    not _kernels.HAVE_NUMBA, reason="numba unavailable or disabled"
)


def _random_pl(rng, knots, scale=1.0):
    t = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 1.0, knots))])
    y = np.cumsum(rng.normal(0.0, scale, knots + 1))
    return t, y


class TestClockLanes:
    @needs_numba
    @pytest.mark.parametrize("name", sorted(CORPUS_PARAMS))
    def test_sequential_vs_fallback(self, name):
        c = builtin_coefficient(name, CORPUS_PARAMS[name])
        driver = generate_path(64, 12.0, 0.0, SEED, 0)
        args = (driver.values, 1.0 / 64, 1.0, c.c1, c.c2, c.bound_tolerance)
        buf_nb, k_nb, st_nb = _kernels._clock_seq_nb(c.kernel_kind, c.kernel_params, *args)
        if name == "time-smooth":
            buf_np, k_np, st_np = _kernels._clock_seq(c.kernel_kind, c.kernel_params, *args)
        else:
            saved = _kernels.USING_NUMBA
            _kernels.USING_NUMBA = False
            try:
                buf_np, k_np, st_np = _kernels.clock_knots_kind(
                    c.kernel_kind, c.kernel_params, *args
                )
            finally:
                _kernels.USING_NUMBA = saved
        assert (k_nb, st_nb) == (k_np, st_np)
        np.testing.assert_allclose(
            buf_nb[: k_nb + 1], buf_np[: k_np + 1], rtol=1e-12, atol=1e-15
        )

    def test_cumsum_identical_to_interpreted_loop(self):
        # non-transcendental kind: the two fallback routes must agree exactly
        c = builtin_coefficient("holder-root", CORPUS_PARAMS["holder-root"])
        driver = generate_path(32, 10.0, 0.0, SEED, 1)
        args = (driver.values, 1.0 / 32, 1.0, c.c1, c.c2, c.bound_tolerance)
        buf_seq, k_seq, st_seq = _kernels._clock_seq(c.kernel_kind, c.kernel_params, *args)
        saved = _kernels.USING_NUMBA
        _kernels.USING_NUMBA = False
        try:
            buf_vec, k_vec, st_vec = _kernels.clock_knots_kind(
                c.kernel_kind, c.kernel_params, *args
            )
        finally:
            _kernels.USING_NUMBA = saved
        assert (k_seq, st_seq) == (k_vec, st_vec)
        np.testing.assert_array_equal(buf_seq[: k_seq + 1], buf_vec[: k_vec + 1])

    def test_callable_route_matches_kind_route(self):
        c = builtin_coefficient("step-mollified", CORPUS_PARAMS["step-mollified"])
        driver = generate_path(32, 6.0, 0.0, SEED, 2)
        args = (driver.values, 1.0 / 32, 1.0, c.c1, c.c2, c.bound_tolerance)
        buf_a, k_a, st_a = _kernels._clock_seq(c.kernel_kind, c.kernel_params, *args)
        buf_b, k_b, st_b = _kernels.clock_knots_callable(c.evaluate, *args)
        assert (k_a, st_a) == (k_b, st_b)
        np.testing.assert_array_equal(buf_a[: k_a + 1], buf_b[: k_b + 1])

    def test_bounds_breach_detected_same_knot(self):
        c = builtin_coefficient("constant", [2.0])
        driver = generate_path(16, 4.0, 0.0, SEED, 3)
        # lie about the bounds so the true value 2.0 breaches them
        args = (driver.values, 1.0 / 16, 1.0, 3.0, 4.0, 1e-12)
        buf, k, status = _kernels._clock_seq(c.kernel_kind, c.kernel_params, *args)
        assert status == _kernels.BOUNDS_BREACH and k == 0
        saved = _kernels.USING_NUMBA
        _kernels.USING_NUMBA = False
        try:
            _, k2, status2 = _kernels.clock_knots_kind(c.kernel_kind, c.kernel_params, *args)
        finally:
            _kernels.USING_NUMBA = saved
        assert (k2, status2) == (k, status)

    def test_exhaustion_status(self):
        c = builtin_coefficient("constant", [2.0])
        driver = generate_path(16, 1.0, 0.0, SEED, 4)  # clock needs 4 time units
        args = (driver.values, 1.0 / 16, 1.0, c.c1, c.c2, c.bound_tolerance)
        _, _, status = _kernels._clock_seq(c.kernel_kind, c.kernel_params, *args)
        assert status == _kernels.EXHAUSTED


class TestEmLanes:
    @needs_numba
    @pytest.mark.parametrize("name", sorted(CORPUS_PARAMS))
    def test_sequential_vs_fallback(self, name):
        c = builtin_coefficient(name, CORPUS_PARAMS[name])
        incr = np.diff(generate_path(32, 1.0, 0.0, SEED, 5, purpose=1).values)
        a = _kernels._em_seq_nb(c.kernel_kind, c.kernel_params, incr, 32.0, 0.5)
        b = _kernels._em_seq(c.kernel_kind, c.kernel_params, incr, 32.0, 0.5)
        np.testing.assert_allclose(a, b, rtol=1e-13, atol=1e-14)


MERGE_LANES = [
    pytest.param(_kernels._pl_sup_merge, id="python"),
    pytest.param(_kernels._pl_sup_merge_nb, id="numba", marks=needs_numba),
]


def _sups(ta, ya, tb, yb, t_hi, merge=_kernels._pl_sup_merge):
    return (
        merge(ta, ya, tb, yb, t_hi),
        _kernels._pl_sup_numpy(ta, ya, tb, yb, t_hi),
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
    @pytest.mark.parametrize("merge", MERGE_LANES)
    def test_merge_vs_union_bitwise_random_paths(self, merge):
        rng = np.random.default_rng(7)
        for _ in range(100):
            ta, ya = _random_pl(rng, rng.integers(1, 40))
            tb, yb = _random_pl(rng, rng.integers(1, 40))
            t_hi = rng.uniform(0.0, min(ta[-1], tb[-1]))
            a, b, c = _sups(ta, ya, tb, yb, t_hi, merge)
            assert a == b == c

    @pytest.mark.parametrize("merge", MERGE_LANES)
    def test_merge_vs_union_shared_knots(self, merge):
        # knot sets with exact overlaps exercise the duplicate-consumption path
        rng = np.random.default_rng(8)
        for _ in range(50):
            t_fine = np.arange(33) / 32
            y_fine = np.cumsum(rng.normal(0, 1, 33))
            t_coarse = t_fine[::4]
            y_coarse = y_fine[::4] + rng.normal(0, 0.1, 9)
            t_hi = rng.choice([1.0, 0.97, float(t_fine[-2])])
            a, b, c = _sups(t_coarse, y_coarse, t_fine, y_fine, t_hi, merge)
            assert a == b == c

    @pytest.mark.parametrize("merge", MERGE_LANES)
    def test_merge_vs_union_dense_path(self, merge):
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
                a, b, c = _sups(*pair, t_hi, merge)
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
        assert _kernels._pl_sup_numpy(ta, ya, tb, yb, 1.0) == 2.0
        assert _kernels._pl_sup_numpy(ta, ya, tb, yb, 0.25) == 1.0

    def test_identical_paths_zero(self):
        rng = np.random.default_rng(9)
        t, y = _random_pl(rng, 20)
        assert _kernels._pl_sup_numpy(t, y, t, y, float(t[-1])) == 0.0

    def test_endpoint_only_difference(self):
        # difference grows linearly to the right endpoint: sup is at t_hi
        ta = np.array([0.0, 2.0])
        ya = np.array([0.0, 2.0])
        tb = np.array([0.0, 2.0])
        yb = np.array([0.0, 0.0])
        assert _kernels._pl_sup_numpy(ta, ya, tb, yb, 1.3) == pytest.approx(1.3)


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


class TestLaneFlag:
    def test_flag_reflects_environment(self):
        import os
        import subprocess
        import sys

        code = "import tcsde; print(tcsde.USING_NUMBA)"
        env = dict(os.environ, TCSDE_DISABLE_NUMBA="1")
        env["PYTHONPATH"] = "src"
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert out.stdout.strip() == "False"

    def test_lane_switch_preserves_experiment_results(self):
        # the env flag selects an implementation, never an answer: a small
        # experiment run on the numpy lane in a subprocess must match the
        # active lane's report exactly. step-mollified involves only
        # add/mul/div/clip, which round identically on both lanes
        import json
        import os
        import subprocess
        import sys

        from tcsde.experiment import ExperimentConfig, run_experiment

        cfg = ExperimentConfig(
            coefficient="step-mollified",
            params=(1.0, 2.0, 0.0, 0.5),
            sde_horizon=1.0,
            x0=0.0,
            resolutions=(16, 32),
            ref_resolution=256,
            p=2.0,
            samples=8,
            master_seed=SEED,
        )
        here = run_experiment(cfg, jobs=1).to_json_dict()
        here["diagnostics"].pop("lanes")

        code = (
            "import json\n"
            "from tcsde.experiment import ExperimentConfig, run_experiment\n"
            f"cfg = ExperimentConfig.from_mapping({cfg.to_mapping()!r})\n"
            "rep = run_experiment(cfg, jobs=1).to_json_dict()\n"
            "rep['diagnostics'].pop('lanes')\n"
            "print(json.dumps(rep, sort_keys=True))\n"
        )
        env = dict(os.environ, TCSDE_DISABLE_NUMBA="1", PYTHONPATH="src")
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout) == json.loads(json.dumps(here, sort_keys=True))
