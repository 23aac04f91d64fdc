import warnings

import numpy as np
import pytest

import oracles
from strategies import CORPUS_PARAMS, SEED
from tcsde import _kernels
from tcsde.brownian import generate_path
from tcsde.diffusion import builtin_coefficient
from tcsde.errors import ContractViolationError, PathExhaustedError
from tcsde.experiment import ExperimentConfig, sample_paths
from tcsde.timechange import SamplePath, build_time_change, required_horizon


def _coeff(name):
    return builtin_coefficient(name, CORPUS_PARAMS[name])


def _sample(name, n, sample_index, t_end=1.0, x0=0.0):
    # the experiment's sampler with a one-level ladder: a driver generated
    # directly at resolution n
    config = ExperimentConfig(
        coefficient=name,
        params=CORPUS_PARAMS[name],
        sde_horizon=t_end,
        x0=x0,
        resolutions=(n,),
        ref_resolution=n,
        p=2.0,
        samples=sample_index + 1,
        master_seed=SEED,
    )
    return sample_paths(config, _coeff(name), sample_index)[n]


def _clock_at(tc, s):
    """Clock values at Brownian times s, the vectorized twin of oracles.clock_value."""
    return _kernels.pl_eval_many(tc.knots_s, tc.clock, s)


def _invert(tc, t):
    """Brownian times at which the clock reaches SDE times t, read as the
    experiment reads the inverse clock: the path through (clock, knots_s)."""
    return _kernels.pl_eval_many(tc.clock, tc.knots_s, t)


class TestClockConstruction:
    def test_constant_sigma_knots_exact(self):
        # constant sigma=c makes the Euler recursion exact: clock[k] = k/(n c^2)
        c = _coeff("constant")
        for n in (4, 8, 32):
            driver = generate_path(n, required_horizon(c, 1.0, n), 0.0, SEED, 0)
            tc = build_time_change(driver, c, 1.0)
            expected = np.arange(tc.knot_count) / (n * 4.0)
            np.testing.assert_array_equal(tc.clock, expected)
            assert tc.knot_count - 1 == int(np.ceil(n * 4.0 * 1.0))

    def test_stops_at_first_knot_past_horizon(self):
        sp = _sample("smooth-sin", 16, 0)
        clock = sp.time_change.clock
        assert clock[-1] >= 1.0
        assert clock[-2] < 1.0

    def test_brownian_time_budget(self):
        # clock slope >= 1/C2^2, so the stop knot is within C2^2*T + 1/n
        for name in CORPUS_PARAMS:
            c = _coeff(name)
            sp = _sample(name, 16, 1)
            budget = c.c2**2 * 1.0 + 1.0 / 16 + 1e-9
            assert sp.time_change.knots_s[-1] <= budget

    def test_slopes_within_coefficient_bounds(self):
        for name in CORPUS_PARAMS:
            c = _coeff(name)
            for i in range(3):
                sp = _sample(name, 8, i)
                slopes = np.diff(sp.time_change.clock) * sp.driver.n
                assert np.all(np.diff(sp.time_change.clock) > 0)
                assert np.all(slopes >= 1.0 / c.c2**2 * (1 - 1e-12))
                assert np.all(slopes <= 1.0 / c.c1**2 * (1 + 1e-12))

    def test_clock_between_linear_envelopes(self):
        c = _coeff("smooth-sin")
        sp = _sample("smooth-sin", 64, 2)
        s = sp.time_change.knots_s
        clock = sp.time_change.clock
        assert np.all(clock >= s / c.c2**2 * (1 - 1e-12))
        assert np.all(clock <= s / c.c1**2 * (1 + 1e-12))

    def test_smooth_sin_seeded_run_strictly_increasing(self):
        sp = _sample("smooth-sin", 4, 3)
        slopes = np.diff(sp.time_change.clock) * 4
        assert np.all(slopes >= 1.0 / 9 - 1e-12)
        assert np.all(slopes <= 1.0 + 1e-12)

    def test_exhausted_driver_raises(self):
        c = _coeff("constant")
        short = generate_path(8, 0.5, 0.0, SEED, 0)
        with pytest.raises(PathExhaustedError):
            build_time_change(short, c, 1.0)  # needs ~4 units of Brownian time

    def test_lying_coefficient_raises_contract_error(self):
        # sigma = 10, outside the bounds the fake claims
        liar = oracles.lying(builtin_coefficient("constant", [10.0]), c1=1.0, c2=2.0)
        driver = generate_path(8, 10.0, 0.0, SEED, 0)
        with pytest.raises(ContractViolationError):
            build_time_change(driver, liar, 1.0)

    def test_underflowing_sigma_raises_contract_error_without_warning(self):
        # sigma = 1e-300 left of the ramp, so sigma^2 underflows to 0 there;
        # at x0 = 0 sigma is ~1, which breaches the claimed [2, 2] at knot 0
        # before any step divides by zero. No coefficient that can be built
        # has such a sigma, so the fake lies about its params too
        c = oracles.lying(
            builtin_coefficient("step-mollified", [1.0, 2.0, 0.0, 1e-9]),
            params=np.array([1e-300, 2.0, 0.0, 1e-9]),
            c1=2.0,
            c2=2.0,
        )
        driver = generate_path(64, 10.0, 0.0, SEED, 0)
        assert np.any(driver.values < -1e-9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractViolationError, match=r"\(clock knot 0\)"):
                build_time_change(driver, c, 1.0)

    def test_nonpositive_horizon_rejected(self):
        driver = generate_path(8, 1.0, 0.0, SEED, 0)
        with pytest.raises(ValueError):
            build_time_change(driver, _coeff("constant"), 0.0)


class TestInversion:
    def test_knot_roundtrip_exact(self):
        for name in ("constant", "smooth-sin", "holder-root"):
            sp = _sample(name, 16, 4)
            tc = sp.time_change
            got = _invert(tc, tc.clock)
            want = np.arange(tc.knot_count) / tc.n
            assert np.all(np.abs(got - want) <= np.spacing(np.maximum(want, 1e-300))), name

    def test_constant_sigma_inverse_linear(self):
        sp = _sample("constant", 8, 0)
        tc = sp.time_change
        ts = np.random.default_rng(1).uniform(0, 1, 50)
        assert _invert(tc, ts) == pytest.approx(4.0 * ts, rel=1e-14)

    def test_midpoint_between_knots(self):
        sp = _sample("smooth-sin", 8, 5)
        tc = sp.time_change
        mids = (tc.clock[:-1] + tc.clock[1:]) / 2
        expected = (np.arange(tc.knot_count - 1) + 0.5) / tc.n
        assert _invert(tc, mids) == pytest.approx(expected, rel=1e-13)

    def test_value_inverts_roundtrip(self):
        # clock(invert(t)) == t to 1e-12 relative, clock evaluated by the
        # same piecewise-linear rule
        for name in CORPUS_PARAMS:
            sp = _sample(name, 32, 6)
            tc = sp.time_change
            rng = np.random.default_rng(2)
            ts = rng.uniform(0, float(tc.clock[-1]), 1000)
            taus = _invert(tc, ts)
            back = _clock_at(tc, taus)
            assert np.all(np.abs(back - ts) <= 1e-12 * np.maximum(1.0, np.abs(ts))), name
            np.testing.assert_array_equal(back, [oracles.clock_value(tc, s) for s in taus])

    def test_monotone_in_queries(self):
        sp = _sample("holder-root", 32, 7)
        tc = sp.time_change
        ts = np.sort(np.random.default_rng(3).uniform(0, 1, 500))
        taus = _invert(tc, ts)
        assert np.all(np.diff(taus) > 0)

    def test_inverse_bounded_by_c2_squared_t(self):
        for name in CORPUS_PARAMS:
            c = _coeff(name)
            tc = _sample(name, 32, 8).time_change
            ts = np.linspace(0, 1, 37)
            assert np.all(_invert(tc, ts) <= c.c2**2 * ts + 1e-12), name

    def test_out_of_range_rejected(self):
        tc = _sample("constant", 8, 0).time_change
        with pytest.raises(ValueError):
            oracles.clock_invert(tc, -0.1)
        with pytest.raises(ValueError):
            oracles.clock_invert(tc, float(tc.clock[-1]) + 0.1)

    def test_inverse_matches_scalar_oracle(self):
        tc = _sample("smooth-sin", 16, 9).time_change
        ts = np.random.default_rng(4).uniform(0, float(tc.clock[-1]), 200)
        batch = _invert(tc, ts)
        scalar = np.array([oracles.clock_invert(tc, t) for t in ts])
        np.testing.assert_array_equal(batch, scalar)


class TestSolutionEvaluation:
    def test_starts_at_x0(self):
        sp = _sample("smooth-sin", 8, 0, x0=1.25)
        assert sp.evaluate_many([0.0])[0] == 1.25

    def test_constant_sigma_hits_driver_knots_exactly(self):
        # sigma=2: clock knot k sits at k/(4n), where the solution equals the
        # driver knot value with zero error
        for n in (4, 16, 64):
            sp = _sample("constant", n, 1)
            ts = np.arange(sp.time_change.knot_count) / (n * 4.0)
            ts = ts[ts <= 1.0]
            np.testing.assert_array_equal(sp.evaluate_many(ts), sp.driver.values[: len(ts)])

    def test_constant_sigma_matches_rescaled_driver_everywhere(self):
        sp = _sample("constant", 8, 2)
        pts = sp.breakpoints()
        rescaled = [oracles.interpolate(sp.driver, 4.0 * float(t)) for t in pts]
        np.testing.assert_array_equal(sp.evaluate_many(pts), rescaled)

    def test_frozen_seeded_value_against_dual_implementation(self):
        # smooth-sin(2,1), n=4, sample 3, t=0.5: value pinned by the
        # straight-line oracle in oracles.py
        coeff = _coeff("smooth-sin")
        sp = _sample("smooth-sin", 4, 3)
        lib = sp.evaluate_many([0.5])[0]
        ref = oracles.solution_value(sp.driver.values, 4, coeff.evaluate, 1.0, 0.5)
        assert abs(lib - ref) <= 1e-12
        assert lib == pytest.approx(0.3864459893187013, abs=1e-12)

    def test_oracle_agreement_across_corpus(self):
        rng = np.random.default_rng(5)
        for name in CORPUS_PARAMS:
            coeff = _coeff(name)
            sp = _sample(name, 8, 10)
            ts = rng.uniform(0, 1, 20)
            ref = [oracles.solution_value(sp.driver.values, 8, coeff.evaluate, 1.0, t) for t in ts]
            assert np.all(np.abs(sp.evaluate_many(ts) - ref) <= 1e-12), name

    def test_evaluate_many_matches_scalar(self):
        sp = _sample("holder-root", 16, 11)
        ts = np.random.default_rng(6).uniform(0, 1, 300)
        batch = sp.evaluate_many(ts)
        scalar = np.array(
            [oracles.interpolate(sp.driver, oracles.clock_invert(sp.time_change, t)) for t in ts]
        )
        np.testing.assert_allclose(batch, scalar, rtol=0, atol=1e-13)

    def test_domain_enforced(self):
        sp = _sample("constant", 8, 0)
        with pytest.raises(ValueError):
            sp.evaluate_many([-0.01])
        with pytest.raises(ValueError):
            sp.evaluate_many([1.01])

    def test_resolution_mismatch_rejected(self):
        sp = _sample("constant", 8, 0)
        other = _sample("constant", 4, 0)
        with pytest.raises(ValueError):
            SamplePath(driver=sp.driver, time_change=other.time_change, sde_horizon=1.0)


class TestBreakpoints:
    def test_constant_sigma_grid(self):
        sp = _sample("constant", 2, 0)
        pts = sp.breakpoints()
        expected = np.arange(9) / 8.0  # clock knots k/(2*4) up to T=1
        np.testing.assert_array_equal(pts, expected)

    def test_single_step_degenerate(self):
        # one clock step covers the whole horizon: breakpoints are {0, T}
        c = builtin_coefficient("constant", [1.0])
        driver = generate_path(1, 4.0, 0.0, SEED, 0)
        tc = build_time_change(driver, c, 0.75)
        sp = SamplePath(driver=driver, time_change=tc, sde_horizon=0.75)
        np.testing.assert_array_equal(sp.breakpoints(), [0.0, 0.75])

    def test_endpoints_and_sorting(self):
        sp = _sample("smooth-sin", 8, 12)
        pts = sp.breakpoints()
        assert pts[0] == 0.0
        assert pts[-1] == 1.0
        assert np.all(np.diff(pts) > 0)

    def test_affine_between_breakpoints(self):
        # midpoint of every segment equals the endpoint average
        for name in ("smooth-sin", "holder-root"):
            sp = _sample(name, 8, 13)
            pts = sp.breakpoints()
            vals = sp.evaluate_many(pts)
            mids = (pts[:-1] + pts[1:]) / 2
            mid_vals = sp.evaluate_many(mids)
            np.testing.assert_allclose(
                mid_vals, (vals[:-1] + vals[1:]) / 2, rtol=0, atol=1e-12
            )


class TestDiscreteInverseClockBound:
    def test_inverse_gap_bounded_by_clock_gap(self):
        # two resolutions on one driver: sup |inverse difference| over [0, T]
        # is at most C2^2 times sup |clock difference| up to C2^2*T
        for name in ("smooth-sin", "holder-root", "time-smooth"):
            c = _coeff(name)
            t_end = 1.0
            fine = generate_path(64, required_horizon(c, t_end, 8), 0.0, SEED, 14)
            tc_fine = build_time_change(fine, c, t_end)
            coarse = fine.subsample(8)
            tc_coarse = build_time_change(coarse, c, t_end)

            grid_t = np.union1d(
                tc_coarse.clock[tc_coarse.clock <= t_end],
                tc_fine.clock[tc_fine.clock <= t_end],
            )
            grid_t = np.append(grid_t, t_end)
            inv_gap = np.max(
                np.abs(_invert(tc_coarse, grid_t) - _invert(tc_fine, grid_t))
            )

            s_hi = min(
                tc_coarse.knots_s[-1],
                tc_fine.knots_s[-1],
                c.c2**2 * t_end,
            )
            grid_s = np.union1d(
                tc_coarse.knots_s[tc_coarse.knots_s <= s_hi],
                tc_fine.knots_s[tc_fine.knots_s <= s_hi],
            )
            grid_s = np.append(grid_s, s_hi)
            clock_gap = np.max(np.abs(_clock_at(tc_coarse, grid_s) - _clock_at(tc_fine, grid_s)))
            assert inv_gap <= c.c2**2 * clock_gap + 1e-10, name

