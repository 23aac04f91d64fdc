import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import check_contract, lying
from strategies import ANY, CORPUS_PARAMS, HOLDER_CONST, INSIDE
from tcsde import _kernels
from tcsde.diffusion import (
    _CORPUS,
    HOLDER,
    SMOOTH,
    DiffusionCoefficient,
    builtin_coefficient,
    corpus_names,
)


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

    def test_step_mollified_levels_and_ramp(self):
        c = builtin_coefficient("step-mollified", [1.0, 2.0, 0.0, 0.5])
        assert c.evaluate(0.0, -10.0) == 1.0
        assert c.evaluate(0.0, 10.0) == 2.0
        assert c.evaluate(0.0, 0.0) == 1.5
        assert c.c1 == 1.0 and c.c2 == 2.0

    def test_derived_metadata(self):
        assert builtin_coefficient("constant", [2.0]).smoothness == SMOOTH
        assert builtin_coefficient("holder-root", [1.0, 1.0, 0.3, 0.0]).smoothness == HOLDER
        assert builtin_coefficient("holder-root", [1.0, 1.0, 0.3, 0.0]).holder_beta == 0.3
        assert builtin_coefficient("step-mollified", [1.0, 2.0, 0.0, 0.5]).smoothness == HOLDER
        assert builtin_coefficient("step-mollified", [1.0, 2.0, 0.0, 0.5]).label == (
            "step-mollified(1,2,0,0.5)"
        )

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
            ("holder-root", [1.0, 1.0, 0.5, float("nan")]),
            ("constant", [float("inf")]),
            ("step-mollified", [1.0, 2.0, float("nan"), 0.5]),
            # bounds whose squares leave float64: C2^2 or 1/C1^2 is infinite
            ("constant", [1e200]),
            ("constant", [1e-200]),
            ("smooth-sin", [1e308, 9e307]),
            # past the ramp sigma is 1 + (1e-20 - 1), which rounds to 0
            ("step-mollified", [1.0, 1e-20, 0.0, 0.5]),
        ],
    )
    def test_bad_parameters(self, name, params):
        with pytest.raises(ValueError):
            builtin_coefficient(name, params)
        with pytest.raises(ValueError):
            DiffusionCoefficient(name, params)

    def test_wrong_arity(self):
        with pytest.raises(ValueError, match="parameter"):
            builtin_coefficient("constant", [1.0, 2.0])

    @pytest.mark.parametrize("params", [[1.0, 1.0], [1.0, 1.0, 0.6, 0.0, 0.0]])
    def test_direct_construction_validates_param_count(self, params):
        msg = rf"holder-root takes 4 parameter\(s\), got {len(params)}"
        with pytest.raises(ValueError, match=msg):
            DiffusionCoefficient("holder-root", params)

    def test_takes_only_name_and_params(self):
        c = DiffusionCoefficient("smooth-sin", [2.0, 1.0])
        assert (c.kernel_kind, c.c1, c.c2, c.holder_beta, c.smoothness, c.label) == (
            _kernels.KIND_SMOOTH_SIN, 1.0, 3.0, 1.0, SMOOTH, "smooth-sin(2,1)"
        )
        for derived in ("kernel_kind", "c1", "c2", "holder_beta", "smoothness", "label"):
            with pytest.raises(ValueError, match="init=False"):
                replace(c, **{derived: 0})
        with pytest.raises(TypeError):
            DiffusionCoefficient("constant", [2.0], c1=1.0)
        # replace builds anew from name and params, so it derives again
        assert replace(c, params=[3.0, 1.0]).c2 == 4.0
        with pytest.raises(ValueError, match="a > b > 0"):
            replace(c, params=[1.0, 3.0])

    def test_direct_construction_validates_bounds(self):
        # the bounds are derived, never given; bounds the float64 clock
        # cannot hold are refused
        with pytest.raises(ValueError, match=r"C2\^2 or 1/C1\^2 is not finite"):
            DiffusionCoefficient("constant", [1e200])

    def test_params_are_read_only(self):
        # a write would change sigma under the holder_beta and bounds derived
        # from the params
        c = builtin_coefficient("holder-root", [1.0, 1.0, 0.6, 0.0])
        with pytest.raises(ValueError, match="read-only"):
            c.kernel_params[2] = 0.0

    def test_direct_construction_validates_kind(self):
        with pytest.raises(ValueError, match="unknown coefficient"):
            DiffusionCoefficient("does-not-exist", [1.0])
        with pytest.raises(ValueError, match="unknown coefficient"):
            replace(builtin_coefficient("constant", [2.0]), name="does-not-exist")

    def test_compares_and_hashes_without_error(self):
        c = builtin_coefficient("smooth-sin", [2.0, 1.0])
        assert c == c and c in {c}
        assert c != builtin_coefficient("smooth-sin", [3.0, 1.0])

    def test_corpus_names_sorted(self):
        names = corpus_names()
        assert names == sorted(names)
        assert set(CORPUS_PARAMS) == set(names)

    def test_shared_tables_cover_the_corpus(self):
        # a kind missing here would silently skip every test that loops
        # over CORPUS_PARAMS, acceptance criterion 1 and the clock tests too
        assert sorted(CORPUS_PARAMS) == corpus_names()
        assert sorted(HOLDER_CONST) == corpus_names()


class TestCheckContract:
    def test_constant_clean(self):
        c = builtin_coefficient("constant", [2.0])
        rep = check_contract(c, 0.0, samples=2000, seed=1)
        assert rep.ok
        assert rep.bound_violations == 0
        assert rep.worst_holder_ratio == 0.0

    def test_smooth_sin_range_within_bounds(self):
        c = builtin_coefficient("smooth-sin", [2.0, 1.0])
        rep = check_contract(c, 1.0, samples=5000, seed=1, domain=((0, 1), (-5, 5)))
        assert rep.bound_violations == 0

    def test_broken_coefficient_reported_not_raised(self):
        # ~0 for x <= 0 and 2 beyond a 1e-9 ramp, claiming [2, 2]
        broken = lying(
            builtin_coefficient("step-mollified", [1e-100, 2.0, 0.0, 1e-9]),
            c1=2.0,
            c2=2.0,
            label="broken-at-origin",
        )
        rep = check_contract(broken, 2e9, samples=2000, seed=3, domain=((0, 1), (-1, 1)))
        assert rep.bound_violations > 0
        assert rep.worst_bound_excess == pytest.approx(2.0)
        assert rep.worst_bound_at[1] <= 0.0
        assert not rep.ok

    def test_deterministic_given_seed(self):
        c = builtin_coefficient("holder-root", [1.0, 1.0, 0.5, 0.0])
        a = check_contract(c, 1.0, samples=512, seed=9)
        b = check_contract(c, 1.0, samples=512, seed=9)
        assert a == b

    def test_samples_validated(self):
        c = builtin_coefficient("constant", [2.0])
        with pytest.raises(ValueError):
            check_contract(c, 0.0, samples=0)


class TestCorpusInvariants:
    @pytest.mark.parametrize("name", sorted(CORPUS_PARAMS))
    def test_full_corpus_clean_at_scale(self, name):
        # 1e5 quasi-random samples on [0, 10] x [-50, 50], zero violations
        c = builtin_coefficient(name, CORPUS_PARAMS[name])
        rep = check_contract(c, HOLDER_CONST[name], samples=100_000, seed=2024)
        assert rep.bound_violations == 0, rep
        assert rep.holder_violations == 0, rep

    def test_constant_bounds_tight(self):
        c = builtin_coefficient("constant", [3.5])
        assert c.c1 == c.c2 == 3.5
        rng = np.random.default_rng(0)
        for t, x in rng.uniform(-10, 10, size=(50, 2)):
            assert c.evaluate(abs(t), x) == 3.5

    def test_holder_ratio_below_known_constant(self):
        for name in ("smooth-sin", "holder-root", "step-mollified"):
            c = builtin_coefficient(name, CORPUS_PARAMS[name])
            rep = check_contract(c, HOLDER_CONST[name], samples=50_000, seed=5)
            assert rep.worst_holder_ratio <= HOLDER_CONST[name] + 1e-9


#: param values at and past the edges of every builder's domain: zeros of
#: both signs, subnormals, beta's ends, levels whose squares leave float64,
#: and non-finite values
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-200, 1.0, math.nextafter(1.0, 0.0),
          -1.0, 1e154, 1e200, 1e308, math.nan, math.inf, -math.inf]


@st.composite
def _draws(draw, name):
    """Params inside the kind's domain, or pushed just outside it, and some
    extra points x at which to read sigma."""
    params = list(draw(INSIDE[name]))
    edge = draw(st.sampled_from(["none", "value", "a == b"]))
    if edge == "value":
        params[draw(st.integers(0, len(params) - 1))] = draw(st.sampled_from(_EDGES))
    elif edge == "a == b" and len(params) == 2:
        # the edge of a > b: b equal to a, or one ulp above it
        params[1] = draw(st.sampled_from([params[0], math.nextafter(params[0], math.inf)]))
    xs = draw(st.lists(ANY, max_size=8))
    return params, xs


class TestDerivedContract:
    """Every coefficient that can be built stays inside the bounds derived
    from its params and is never NaN, on t in [0, 10] and |x| up to 1e300;
    every other draw raises ValueError at construction."""

    @pytest.mark.parametrize("name", sorted(CORPUS_PARAMS))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_built_or_refused(self, name, data):
        params, xs = data.draw(_draws(name))
        try:
            c = DiffusionCoefficient(name, params)
        except ValueError:
            return
        assert math.isfinite(c.c2 * c.c2) and math.isfinite(1.0 / (c.c1 * c.c1))
        # the kind's centre and points around it, out to |x| = 1e300
        centre = float(c.params[2]) if len(c.params) == 4 else 0.0
        offsets = [0.0, 5e-324, 1e-300, 0.25, 1.0, np.pi / 2, 1e3, 1e150]
        x = np.array(
            [centre + s * d for d in offsets for s in (1, -1)] + [1e300, -1e300] + xs
        )
        t = np.array([0.0, 0.5, np.pi / 2, 3.0, 10.0])
        tt, xx = (a.ravel() for a in np.meshgrid(t, x))
        # the clock evaluates sigma under this error state
        with np.errstate(over="ignore"):
            vec = _kernels.sigma_of(c.kernel_kind, c.params, _kernels.VECTOR_OPS)(tt, xx)
        scal = np.array([c.evaluate(ti, xi) for ti, xi in zip(tt.tolist(), xx.tolist())])
        # the bounds are derived from the formula's own rounding, so they
        # hold exactly, without the bound_tolerance the clock allows
        for s in (vec, scal):
            assert not np.isnan(s).any(), (c.label, xx[np.isnan(s)])
            assert np.all((s >= c.c1) & (s <= c.c2)), (c.label, s.min(), s.max())
