import io

import numpy as np
import pytest

import oracles
from strategies import SEED
from tcsde import _kernels
from tcsde.baseline import em_simulate
from tcsde.brownian import BrownianPath, generate_path
from tcsde.diffusion import builtin_coefficient
from tcsde.experiment import fit_loglog
from tcsde.timechange import write_solution_csv


def _driver(n, horizon, sample_index):
    return generate_path(n, horizon, 0.0, SEED, sample_index, purpose=1)


class TestRecursion:
    def test_constant_sigma_telescopes(self):
        # telescoping identity values[k] = x0 + c*(W_k - W_0); holds to
        # accumulated rounding error, a few ulps over the whole path
        c = builtin_coefficient("constant", [2.0])
        d = _driver(16, 1.5, 0)
        em = em_simulate(c, d, 1.0, 0.5)
        expected = 0.5 + 2.0 * (d.values[: em.knot_count] - d.values[0])
        np.testing.assert_allclose(em.y, expected, rtol=0, atol=1e-13)

    def test_single_step_hand_value(self):
        # x0=0, dW=0.1, sigma(0,0)=2: one step gives 0.2
        c = builtin_coefficient("smooth-sin", [2.0, 1.0])
        d = BrownianPath(n=1, values=np.array([0.0, 0.1]), master_seed=0, sample_index=0)
        em = em_simulate(c, d, 1.0, 0.0)
        assert em.knot_count == 2
        assert em.y[1] == pytest.approx(0.2, abs=1e-15)

    def test_initial_value_and_length(self):
        c = builtin_coefficient("smooth-sin", [2.0, 1.0])
        em = em_simulate(c, _driver(8, 1.25, 1), 1.0, 3.0)
        assert em.y[0] == 3.0
        assert em.knot_count == 9  # ceil(8 * 1) + 1

    def test_frozen_terminal_against_dual_implementation(self):
        c = builtin_coefficient("smooth-sin", [2.0, 1.0])
        d = _driver(8, 1.25, 5)
        em = em_simulate(c, d, 1.0, 0.0)
        ref = oracles.em_recursion(d.values, 8, c.evaluate, 1.0, 0.0)
        np.testing.assert_allclose(em.y, ref, rtol=0, atol=1e-12)
        assert em.y[-1] == pytest.approx(2.40782389698525, abs=1e-12)

    def test_driver_too_short(self):
        c = builtin_coefficient("constant", [2.0])
        with pytest.raises(ValueError, match="driver too short"):
            em_simulate(c, _driver(8, 0.5, 0), 1.0, 0.0)

    def test_nonpositive_horizon(self):
        c = builtin_coefficient("constant", [2.0])
        with pytest.raises(ValueError):
            em_simulate(c, _driver(8, 1.0, 0), -1.0, 0.0)


class TestContinuousComparisonPath:
    def test_interpolates_between_iterates(self):
        c = builtin_coefficient("smooth-sin", [2.0, 1.0])
        em = em_simulate(c, _driver(4, 1.25, 3), 1.0, 0.0)
        mid = _kernels.pl_eval_many(em.t, em.y, np.array([1 / 8]))[0]
        assert mid == pytest.approx((em.y[0] + em.y[1]) / 2, rel=1e-14)

    def test_breakpoints_clip_at_horizon(self):
        # the dumped rows stop at T: on the last iterate's time (T = 1), or
        # between two (T = 0.9, where the path runs on to 1)
        c = builtin_coefficient("constant", [2.0])
        for t_end in (1.0, 0.9):
            em = em_simulate(c, _driver(4, 2.0, 3), t_end, 0.0)
            buf = io.StringIO()
            write_solution_csv(em, buf)
            rows = [line.split(",") for line in buf.getvalue().splitlines()[1:]]
            pts, vals = np.array(rows, dtype=np.float64).T
            assert pts[0] == 0.0 and pts[-1] == t_end
            assert np.all(np.diff(pts) > 0)
            np.testing.assert_array_equal(vals, _kernels.pl_eval_many(em.t, em.y, pts))


class TestSelfConvergence:
    def test_coupled_errors_median_monotone(self):
        # coupled coarse-vs-fine sup-errors shrink with n: median over 200
        # seeded samples strictly decreases along the dyadic ladder
        c = builtin_coefficient("smooth-sin", [2.0, 1.0])
        ladder = [8, 16, 32, 64]
        ref = 1024
        errors = np.empty((200, len(ladder)))
        for i in range(200):
            fine = _driver(ref, 1.0, i)
            em_ref = em_simulate(c, fine, 1.0, 0.0)
            for j, n in enumerate(ladder):
                em_n = em_simulate(c, fine.subsample(ref // n), 1.0, 0.0)
                grid = np.union1d(em_n.t, em_ref.t)
                grid = grid[grid <= 1.0]
                diff = _kernels.pl_eval_many(em_n.t, em_n.y, grid) - _kernels.pl_eval_many(
                    em_ref.t, em_ref.y, grid
                )
                errors[i, j] = np.max(np.abs(diff))
        med = np.median(errors, axis=0)
        assert np.all(np.diff(med) < 0), med

    def test_empirical_rate_near_half(self):
        # classical strong order for Lipschitz coefficients; harness sanity.
        # sup-norm errors carry a sqrt(log n) factor that drags the slope at
        # very coarse n, so the ladder starts at 32
        c = builtin_coefficient("smooth-sin", [2.0, 1.0])
        ladder = [32, 64, 128, 256]
        ref = 4096
        sums = np.zeros(len(ladder))
        m = 200
        for i in range(m):
            fine = _driver(ref, 1.0, i)
            em_ref = em_simulate(c, fine, 1.0, 0.0)
            grid = em_ref.t[em_ref.t <= 1.0]
            ref_vals = _kernels.pl_eval_many(em_ref.t, em_ref.y, grid)
            for j, n in enumerate(ladder):
                em_n = em_simulate(c, fine.subsample(ref // n), 1.0, 0.0)
                diff = _kernels.pl_eval_many(em_n.t, em_n.y, grid) - ref_vals
                sums[j] += np.max(np.abs(diff)) ** 2
        rate, _ = fit_loglog(ladder, np.sqrt(sums / m))
        assert 0.4 <= rate <= 0.6, rate


class TestCsvDump:
    def test_same_shape_as_solution_dump(self):
        c = builtin_coefficient("constant", [2.0])
        em = em_simulate(c, _driver(4, 1.25, 0), 1.0, 0.0)
        buf = io.StringIO()
        write_solution_csv(em, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "t,x_hat"
        # a row for each iterate up to T, the last of them at T
        assert em.t[-1] == 1.0
        assert len(lines) == 1 + em.knot_count
