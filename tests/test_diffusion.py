from dataclasses import replace

import numpy as np
import pytest

from oracles import check_contract
from tcsde import _kernels
from tcsde.diffusion import (
    HOLDER,
    SMOOTH,
    DiffusionCoefficient,
    builtin_coefficient,
    corpus_names,
)

#: representative parameters for every corpus entry, reused across tests
CORPUS_PARAMS = {
    "constant": [2.0],
    "smooth-sin": [2.0, 1.0],
    "time-smooth": [2.0, 1.0],
    "holder-root": [1.0, 1.0, 0.5, 0.0],
    "step-mollified": [1.0, 2.0, 0.0, 0.5],
}


class TestCorpusValues:
    def test_constant_everywhere(self):
        c = builtin_coefficient("constant", [2.0])
        assert c.evaluate(0.3, -1.7) == 2.0
        assert c.evaluate(100.0, 42.0) == 2.0
        assert c.c1 == c.c2 == 2.0

    def test_smooth_sin_at_origin(self):
        c = builtin_coefficient("smooth-sin", [2.0, 1.0])
        assert c.evaluate(0.0, 0.0) == 2.0
        assert c.c1 == 1.0 and c.c2 == 3.0

    def test_holder_root_hand_value(self):
        # 1 + min(sqrt(0.25), 1) = 1.5
        c = builtin_coefficient("holder-root", [1.0, 1.0, 0.5, 0.0])
        assert c.evaluate(0.0, 0.25) == 1.5

    def test_holder_root_caps_at_b(self):
        c = builtin_coefficient("holder-root", [1.0, 0.5, 0.5, 0.0])
        assert c.evaluate(0.0, 100.0) == 1.5
        assert c.c2 == 1.5

    def test_time_smooth_depends_on_t(self):
        c = builtin_coefficient("time-smooth", [2.0, 1.0])
        assert c.evaluate(0.0, 0.0) == 2.0
        assert c.evaluate(np.pi / 2, 0.0) == pytest.approx(3.0, rel=1e-15)
        assert c.time_lipschitz == 1.0
        assert c.time_lipschitz > 0

    def test_step_mollified_levels_and_ramp(self):
        c = builtin_coefficient("step-mollified", [1.0, 2.0, 0.0, 0.5])
        assert c.evaluate(0.0, -10.0) == 1.0
        assert c.evaluate(0.0, 10.0) == 2.0
        assert c.evaluate(0.0, 0.0) == 1.5
        assert c.c1 == 1.0 and c.c2 == 2.0

    def test_declared_metadata(self):
        assert builtin_coefficient("constant", [2.0]).smoothness == SMOOTH
        assert builtin_coefficient("holder-root", [1.0, 1.0, 0.3, 0.0]).smoothness == HOLDER
        assert builtin_coefficient("holder-root", [1.0, 1.0, 0.3, 0.0]).holder_beta == 0.3
        assert builtin_coefficient("step-mollified", [1.0, 2.0, 0.0, 0.5]).smoothness == HOLDER

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(11)
        t = rng.uniform(0, 10, 200)
        x = rng.uniform(-50, 50, 200)
        # beta 0.6, with b large enough that |x|^beta is never capped: numpy's
        # vector ** differs from libm pow on AVX-512 CPUs
        cases = [*CORPUS_PARAMS.items(), ("holder-root", [1.0, 20.0, 0.6, 0.0])]
        for name, params in cases:
            c = builtin_coefficient(name, params)
            vec = _kernels.sigma_of(c.kernel_kind, c.kernel_params, _kernels.VECTOR_OPS)(t, x)
            scal = np.array([c.evaluate(ti, xi) for ti, xi in zip(t, x)])
            np.testing.assert_array_equal(vec, scal, err_msg=name)


class TestCorpusValidation:
    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown coefficient"):
            builtin_coefficient("does-not-exist", [1.0])

    def test_unknown_name_lists_corpus(self):
        with pytest.raises(ValueError, match="constant"):
            builtin_coefficient("does-not-exist", [1.0])

    @pytest.mark.parametrize(
        "name,params",
        [
            ("constant", [-1.0]),
            ("constant", [0.0]),
            ("smooth-sin", [1.0, 1.0]),  # needs a > b
            ("smooth-sin", [1.0, -0.5]),
            ("time-smooth", [0.5, 1.0]),
            ("holder-root", [0.0, 1.0, 0.5, 0.0]),
            ("holder-root", [1.0, 1.0, 1.5, 0.0]),  # beta outside (0, 1)
            ("holder-root", [1.0, 1.0, 0.0, 0.0]),
            ("step-mollified", [-1.0, 2.0, 0.0, 0.5]),
            ("step-mollified", [1.0, 2.0, 0.0, 0.0]),  # zero ramp width
        ],
    )
    def test_bad_parameters(self, name, params):
        with pytest.raises(ValueError):
            builtin_coefficient(name, params)

    def test_wrong_arity(self):
        with pytest.raises(ValueError, match="parameter"):
            builtin_coefficient("constant", [1.0, 2.0])

    def test_direct_construction_validates_bounds(self):
        with pytest.raises(ValueError):
            DiffusionCoefficient(
                kernel_kind=_kernels.KIND_CONSTANT,
                kernel_params=[1.0],
                c1=2.0,
                c2=1.0,
                holder_beta=1.0,
                time_lipschitz=0.0,
                smoothness=SMOOTH,
                label="broken",
                holder_const=0.0,
            )

    @pytest.mark.parametrize("params", [[1.0, 1.0], [1.0, 1.0, 0.6, 0.0, 0.0]])
    def test_direct_construction_validates_param_count(self, params):
        # holder-root reads a, b, beta and a centre: [1, 1] gives no beta for
        # the declared holder_beta = 0.6 to describe
        msg = rf"holder-root takes 4 parameter\(s\), got {len(params)}"
        with pytest.raises(ValueError, match=msg):
            DiffusionCoefficient(
                kernel_kind=_kernels.KIND_HOLDER_ROOT,
                kernel_params=params,
                c1=1.0,
                c2=2.0,
                holder_beta=0.6,
                time_lipschitz=0.0,
                smoothness=HOLDER,
                label="holder-root(1,1)",
                holder_const=1.0,
            )

    def test_params_are_read_only(self):
        # a write would change sigma under the declared holder_beta and bounds
        c = builtin_coefficient("holder-root", [1.0, 1.0, 0.6, 0.0])
        with pytest.raises(ValueError, match="read-only"):
            c.kernel_params[2] = 0.0

    def test_direct_construction_validates_kind(self):
        c = builtin_coefficient("constant", [2.0])
        with pytest.raises(ValueError, match="unknown coefficient kind"):
            replace(c, kernel_kind=_kernels.KIND_STEP_MOLLIFIED + 1)

    def test_compares_and_hashes_without_error(self):
        c = builtin_coefficient("smooth-sin", [2.0, 1.0])
        assert c == c and c in {c}
        assert c != builtin_coefficient("smooth-sin", [3.0, 1.0])

    def test_corpus_names_sorted(self):
        names = corpus_names()
        assert names == sorted(names)
        assert set(CORPUS_PARAMS) == set(names)


class TestCheckContract:
    def test_constant_clean(self):
        c = builtin_coefficient("constant", [2.0])
        rep = check_contract(c, samples=2000, seed=1)
        assert rep.ok
        assert rep.bound_violations == 0
        assert rep.worst_holder_ratio == 0.0

    def test_smooth_sin_range_within_bounds(self):
        c = builtin_coefficient("smooth-sin", [2.0, 1.0])
        rep = check_contract(c, samples=5000, seed=1, domain=((0, 1), (-5, 5)))
        assert rep.bound_violations == 0

    def test_broken_coefficient_reported_not_raised(self):
        # ~0 for x <= 0 and 2 beyond a 1e-9 ramp, declared as [2, 2]
        broken = replace(
            builtin_coefficient("step-mollified", [1e-300, 2.0, 0.0, 1e-9]),
            c1=2.0,
            c2=2.0,
            label="broken-at-origin",
        )
        rep = check_contract(broken, samples=2000, seed=3, domain=((0, 1), (-1, 1)))
        assert rep.bound_violations > 0
        assert rep.worst_bound_excess == pytest.approx(2.0)
        assert rep.worst_bound_at[1] <= 0.0
        assert not rep.ok

    def test_deterministic_given_seed(self):
        c = builtin_coefficient("holder-root", [1.0, 1.0, 0.5, 0.0])
        a = check_contract(c, samples=512, seed=9)
        b = check_contract(c, samples=512, seed=9)
        assert a == b

    def test_samples_validated(self):
        c = builtin_coefficient("constant", [2.0])
        with pytest.raises(ValueError):
            check_contract(c, samples=0)


class TestCorpusInvariants:
    @pytest.mark.parametrize("name", sorted(CORPUS_PARAMS))
    def test_full_corpus_clean_at_scale(self, name):
        # 1e5 quasi-random samples on [0, 10] x [-50, 50], zero violations
        c = builtin_coefficient(name, CORPUS_PARAMS[name])
        rep = check_contract(c, samples=100_000, seed=2024)
        assert rep.bound_violations == 0, rep
        assert rep.holder_violations == 0, rep

    def test_constant_bounds_tight(self):
        c = builtin_coefficient("constant", [3.5])
        assert c.c1 == c.c2 == 3.5
        rng = np.random.default_rng(0)
        for t, x in rng.uniform(-10, 10, size=(50, 2)):
            assert c.evaluate(abs(t), x) == 3.5

    def test_holder_ratio_below_declared_constant(self):
        for name in ("smooth-sin", "holder-root", "step-mollified"):
            c = builtin_coefficient(name, CORPUS_PARAMS[name])
            rep = check_contract(c, samples=50_000, seed=5)
            assert rep.worst_holder_ratio <= c.holder_const + 1e-9
