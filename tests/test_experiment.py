import dataclasses
import json
import multiprocessing
import pickle
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from strategies import CASES, INSIDE, SEED
from tcsde.diffusion import builtin_coefficient
from tcsde.errors import ConfigError, ExperimentError, TcsdeError
from tcsde.experiment import (
    _KEYS,
    SCHEME_COMPARE,
    SCHEME_EULER_MARUYAMA,
    SCHEME_TIME_CHANGE,
    ExperimentConfig,
    _sample_bytes,
    fit_loglog,
    run_experiment,
    sample_paths,
    strong_error_one_sample,
)
from tcsde.timechange import write_solution_csv

#: pool tests patch the package in this process; only forked workers see it
needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool workers see patched samplers only under the fork start method",
)


def _config(**overrides):
    base = dict(
        coefficient="smooth-sin",
        params=(2.0, 1.0),
        sde_horizon=1.0,
        x0=0.0,
        resolutions=(16, 32, 64),
        ref_resolution=512,
        p=2.0,
        samples=16,
        master_seed=SEED,
        scheme=SCHEME_TIME_CHANGE,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


_LP_REPORT_DIGEST = """
import hashlib, json
from tcsde.experiment import ExperimentConfig, run_experiment
cfg = ExperimentConfig(
    coefficient="holder-root", params=(1.0, 1.0, 0.6, 0.0), sde_horizon=1.0, x0=0.0,
    resolutions=(16, 32, 64), ref_resolution=512, p=3.0, samples=32, master_seed=%d,
)
text = json.dumps(run_experiment(cfg), sort_keys=True)
print(hashlib.sha256(text.encode()).hexdigest())
""" % SEED

_positive = st.floats(1e-3, 1e3)
_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _valid_configs(draw):
    """Configs that construct: params drawn inside their kind's domain, and a
    ladder of powers of two, in any order and with repeats, that divides
    ref_resolution, which is at least 4x its top."""
    name = draw(st.sampled_from(sorted(INSIDE)))
    exponents = draw(st.lists(st.integers(0, 12), min_size=1, max_size=6))
    return ExperimentConfig(
        coefficient=name,
        params=draw(INSIDE[name]),
        sde_horizon=draw(_positive),
        x0=draw(_finite),
        resolutions=tuple(2**e for e in exponents),
        ref_resolution=4 * 2 ** max(exponents) * draw(st.integers(1, 8)),
        p=draw(st.floats(1.0, 1e6)),
        samples=draw(st.integers(1, 10**6)),
        master_seed=draw(st.integers(0, 2**64 - 1)),
        scheme=draw(
            st.sampled_from((SCHEME_TIME_CHANGE, SCHEME_EULER_MARUYAMA, SCHEME_COMPARE))
        ),
    )


class TestConfigValidation:
    def test_resolutions_sorted_and_deduplicated(self):
        cfg = _config(resolutions=(64, 16, 32, 16))
        assert cfg.resolutions == (16, 32, 64)

    def test_non_divisor_rejected(self):
        with pytest.raises(ConfigError, match="^resolutions: n=48 does not divide"):
            _config(resolutions=(48,), ref_resolution=2**14)

    def test_ref_headroom_enforced_at_run(self):
        cfg = _config(resolutions=(16, 256), ref_resolution=512)
        with pytest.raises(ConfigError, match="ref_resolution"):
            run_experiment(cfg)

    def test_bad_fields(self):
        # an out-of-range value is refused as "<key>: <requirement>, got <value>"
        bad = [
            ("T", "sde_horizon", 0.0),
            ("p", "p", 0.5),
            ("samples", "samples", 0),
            ("master_seed", "master_seed", -3),
            ("master_seed", "master_seed", 2**64),
            ("resolutions", "resolutions", ()),
            ("resolutions", "resolutions", (0, 16)),
            ("ref_resolution", "ref_resolution", 0),
            ("scheme", "scheme", "midpoint"),
        ]
        for value in (float("nan"), float("inf"), float("-inf")):
            bad += [("T", "sde_horizon", value), ("p", "p", value),
                    ("params", "params", (2.0, value)), ("x0", "x0", value)]
        for key, field, value in bad:
            with pytest.raises(ConfigError, match=f"^{key}: .*, got {re.escape(repr(value))}$"):
                _config(**{field: value})
        assert _config(master_seed=2**64 - 1).master_seed == 2**64 - 1
        mapping = _config().to_mapping()
        # numbers, as a mapping read back from JSON holds them: one with a
        # fractional part is refused, never truncated
        numeric = [
            ("samples", 12.5),
            ("ref_resolution", 512.9),
            ("master_seed", 7.9),
            ("resolutions", [16.7, 32]),
            ("samples", float("inf")),
            ("master_seed", float("nan")),
        ]
        for key, value in [
            ("samples", "1.5"),
            ("master_seed", "abc"),
            ("resolutions", ["4", "x"]),
            ("ref_resolution", "1e3"),
        ] + numeric:
            with pytest.raises(ConfigError, match=f"^{key}: "):
                ExperimentConfig.from_mapping({**mapping, key: value})
        # a config built directly parses its integer fields the same way
        for key, value in numeric:
            with pytest.raises(ConfigError, match=f"^{key}: "):
                _config(**{key: value})
        integral = {**mapping, "samples": 12.0, "resolutions": [16.0, 32]}
        cfg = ExperimentConfig.from_mapping(integral)
        assert (cfg.samples, cfg.resolutions) == (12, (16, 32))
        assert type(cfg.samples) is int
        direct = _config(samples=12.0).samples
        assert direct == 12 and type(direct) is int

    def test_every_field_has_a_key(self):
        # a field missing from _KEYS would skip its parser and its check
        fields = [f.name for f in dataclasses.fields(ExperimentConfig)]
        assert [name for _, name, *_ in _KEYS] == fields

    def test_unknown_coefficient_surfaces_field(self):
        cfg = _config(coefficient="does-not-exist", params=(1.0,))
        with pytest.raises(ConfigError, match="coefficient"):
            cfg.build_coefficient()

    @settings(max_examples=200, deadline=None)
    @given(_valid_configs())
    def test_mapping_roundtrip(self, cfg):
        mapping = cfg.to_mapping()
        assert ExperimentConfig.from_mapping(mapping) == cfg
        # the mapping is written into report.json and manifest.json
        assert ExperimentConfig.from_mapping(json.loads(json.dumps(mapping))) == cfg

    def test_mapping_rejects_unknown_keys(self):
        m = _config().to_mapping()
        m["typo"] = 1
        with pytest.raises(ConfigError, match="typo"):
            ExperimentConfig.from_mapping(m)

    def test_mapping_rejects_missing_keys(self):
        m = _config().to_mapping()
        del m["ref_resolution"]
        with pytest.raises(ConfigError, match="ref_resolution"):
            ExperimentConfig.from_mapping(m)


class TestFitLoglog:
    def test_exact_geometric_sequence(self):
        slope, stderr = fit_loglog([2, 4, 8], [0.5, 0.25, 0.125])
        assert slope == pytest.approx(1.0, abs=1e-14)
        assert stderr == pytest.approx(0.0, abs=1e-12)

    def test_matches_polyfit(self):
        rng = np.random.default_rng(0)
        ns = [16, 32, 64, 128]
        errors = 0.7 * np.asarray(ns, float) ** -0.43 * np.exp(rng.normal(0, 0.05, 4))
        slope, _ = fit_loglog(ns, errors)
        assert slope == pytest.approx(oracles.fit_slope_polyfit(ns, errors), rel=1e-10)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_loglog([4], [0.1])


class TestOneSample:
    def test_self_comparison_is_zero(self):
        cfg = _config(resolutions=(512,), ref_resolution=512, samples=4)
        res = strong_error_one_sample(cfg, 0)
        assert res.sup_errors[0] == 0.0

    def test_constant_sigma_positive_and_shrinking(self):
        cfg = _config(coefficient="constant", params=(2.0,))
        res = strong_error_one_sample(cfg, 0)
        assert np.all(res.sup_errors > 0)
        assert res.sup_errors[0] > res.sup_errors[-1]

    def test_errors_align_with_resolutions(self):
        # entry i is resolution i's error: it equals a one-level run's
        cfg = _config()
        res = strong_error_one_sample(cfg, 3)
        assert res.sup_errors.shape == (3,)
        for n, err in zip(cfg.resolutions, res.sup_errors):
            alone = strong_error_one_sample(replace(cfg, resolutions=(n,)), 3)
            assert alone.sup_errors.tobytes() == np.array([err]).tobytes()

    def test_breakpoint_sup_matches_dense_grid_oracle(self):
        # n=16 against a 2^14 reference: sup over a 1e5-point grid refined by
        # both breakpoint sets, evaluated via np.interp
        cfg = _config(resolutions=(16,), ref_resolution=2**14, samples=4)
        coeff = cfg.build_coefficient()
        res = strong_error_one_sample(cfg, 1)

        from tcsde.brownian import generate_path
        from tcsde.timechange import build_time_change, required_horizon

        fine = generate_path(
            cfg.ref_resolution, required_horizon(coeff, 1.0, 16), 0.0, SEED, 1
        )
        tc_ref = build_time_change(fine, coeff, 1.0)
        coarse = fine.subsample(cfg.ref_resolution // 16)
        tc_16 = build_time_change(coarse, coeff, 1.0)
        grid = np.union1d(np.linspace(0.0, 1.0, 100_001), tc_ref.clock)
        grid = np.union1d(grid, tc_16.clock)
        grid = grid[grid <= 1.0]
        dense = oracles.pl_sup_on_grid(
            tc_16.clock,
            coarse.values[: tc_16.knot_count],
            tc_ref.clock,
            fine.values[: tc_ref.knot_count],
            grid,
        )
        assert res.sup_errors[0] == pytest.approx(dense, abs=1e-10)

    def test_sample_index_range_checked(self):
        with pytest.raises(ConfigError, match="sample index"):
            strong_error_one_sample(_config(samples=4), 4)

    def test_inverse_clock_diagnostics_present_for_time_change(self):
        res = strong_error_one_sample(_config(), 0)
        assert res.bound_excess is not None
        assert res.bound_excess <= 1e-10

    def test_clock_sup_is_taken_up_to_c2_squared_t(self):
        # sigma = 1.1 is constant, so every sample's clocks step 1 / (1.21 n),
        # and at every level both run past C2^2 T = 1.21, where the bound no
        # longer speaks: bound_excess is the one over [0, C2^2 T]
        cfg = _config(coefficient="constant", params=(1.1,), resolutions=(16, 64, 256),
                      ref_resolution=1024, samples=20, master_seed=5)
        coeff = cfg.build_coefficient()
        paths = sample_paths(cfg, coeff, 0)
        capped, whole = (
            oracles.inverse_clock_bound_excess(paths, cfg.resolutions, 1.0, coeff.c2, hi)
            for hi in (cfg.sde_horizon * coeff.c2**2, np.inf)
        )
        assert capped != whole
        assert strong_error_one_sample(cfg, 0).bound_excess == capped == 9.436895709313452e-17
        report = run_experiment(cfg, jobs=1)
        assert report["diagnostics"]["inverse_clock_bound_max_excess"] == capped

    def test_em_sample_has_no_clock_diagnostics(self):
        cfg = _config(scheme=SCHEME_EULER_MARUYAMA)
        res = strong_error_one_sample(cfg, 0)
        assert res.bound_excess is None
        assert np.all(res.sup_errors > 0)


#: one sample on the clock's sweep, on its loop and under Euler-Maruyama, each
#: at its worst: a clock that uses nearly all of its driver (sigma about C2),
#: and a ladder level a quarter of the reference; (coefficient, params, T,
#: ladder, ref, scheme)
_MEMORY_CASES = {
    "sweep": ("constant", (1.0,), 1.0, (2**14, 2**15, 2**16), 2**18, SCHEME_TIME_CHANGE),
    "loop": ("time-smooth", (2.0, 1e-3), 12.0, (128, 256, 512), 2048, SCHEME_TIME_CHANGE),
    "euler-maruyama": ("time-smooth", (2.0, 1.0), 1.0, (2**12, 2**13, 2**14), 2**16,
                       SCHEME_EULER_MARUYAMA),
}


@pytest.mark.parametrize("route", sorted(_MEMORY_CASES))
def test_one_sample_holds_at_most_what_the_memory_rule_counts(route):
    # build_coefficient refuses a config whose _sample_bytes exceed physical
    # memory, so a sample must hold no more; and the rule counts no more than
    # twice what it holds
    name, params, t_end, ladder, ref, scheme = _MEMORY_CASES[route]
    config = _config(coefficient=name, params=params, sde_horizon=t_end, resolutions=ladder,
                     ref_resolution=ref, scheme=scheme)
    need = _sample_bytes(config, config.build_coefficient(), scheme)
    tracemalloc.start()
    try:
        strong_error_one_sample(config, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert need / 2 < peak <= need, peak / need


#: dump-path at the reference, 2^16 over a ladder of 16, where the dumped path
#: is the largest: (coefficient, params, scheme)
_DUMP_CASES = {
    "time-change": ("constant", (1.0,), SCHEME_TIME_CHANGE),
    "euler-maruyama": ("holder-root", (1.0, 1.0, 0.6, 0.0), SCHEME_EULER_MARUYAMA),
}


@pytest.mark.parametrize("case", sorted(_DUMP_CASES))
def test_dumped_sample_holds_at_most_what_the_memory_rule_counts(case, tmp_path):
    # dump-path's sample and its CSV: the rows stream from the path's own
    # arrays, so writing them holds no read of the path on top of the sample
    name, params, scheme = _DUMP_CASES[case]
    config = _config(coefficient=name, params=params, resolutions=(16,),
                     ref_resolution=2**16, scheme=scheme)
    coeff = config.build_coefficient()
    need = _sample_bytes(config, coeff, scheme)
    tracemalloc.start()
    try:
        path = sample_paths(config, coeff, 0)[config.ref_resolution]
        with (tmp_path / "path.csv").open("w", newline="") as fh:
            write_solution_csv(path, fh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= need, peak / need


class TestShortDriver:
    """A driver drawn too short fails its sample, and is never extended."""

    def test_short_driver_fails_its_sample(self, monkeypatch, tmp_path, capsys):
        import tcsde.experiment as exp
        from tcsde.brownian import BrownianPath
        from tcsde.cli import main
        from tcsde.errors import PathExhaustedError

        def refuse(self, horizon):
            raise AssertionError("a driver was extended")

        monkeypatch.setattr(exp, "required_horizon", lambda *a: 0.25)
        monkeypatch.setattr(BrownianPath, "extended", refuse)
        with pytest.raises(PathExhaustedError, match="driver ends at Brownian time 0.25"):
            strong_error_one_sample(_config(samples=4), 2)

        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "".join(
                f"{key} = {', '.join(map(str, v)) if isinstance(v, list) else v}\n"
                for key, v in _config().to_mapping().items()
            )
        )
        # every sample runs short, and a run stops at the first index
        for argv, sample in (
            (["run", str(cfg), "--jobs", "1"], 0),
            (["dump-path", str(cfg), "--sample", "2", "--n", "16"], 2),
        ):
            capsys.readouterr()
            assert main(argv + ["--out", str(tmp_path / argv[0])]) == 3
            assert (
                f"sample {sample} failed in timechange: driver ends at Brownian time"
                in capsys.readouterr().err
            )


#: one tiny run per case with the time-change scheme, and with
#: Euler-Maruyama wherever the Hoelder exponent allows (beta >= 1/2)
_JOBS_CASES = [
    (name, params, scheme)
    for name, params in CASES
    for scheme in (SCHEME_TIME_CHANGE, SCHEME_EULER_MARUYAMA)
    if scheme == SCHEME_TIME_CHANGE or builtin_coefficient(name, params).holder_beta >= 0.5
]


class TestRunExperiment:
    def test_determinism_across_jobs(self):
        cfg = _config(samples=12)
        a = run_experiment(cfg, jobs=1)
        b = run_experiment(cfg, jobs=4)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    @pytest.mark.parametrize(
        "name,params,scheme",
        _JOBS_CASES,
        ids=[f"{builtin_coefficient(n, p).label}-{s}" for n, p, s in _JOBS_CASES],
    )
    def test_determinism_across_jobs_every_kind(self, name, params, scheme):
        cfg = _config(coefficient=name, params=params, scheme=scheme, samples=4,
                      resolutions=(8, 16), ref_resolution=64)
        a = json.dumps(run_experiment(cfg, jobs=1), sort_keys=True)
        b = json.dumps(run_experiment(cfg, jobs=2), sort_keys=True)
        assert a == b

    @settings(max_examples=8, deadline=None)
    @given(case=st.sampled_from(_JOBS_CASES), master_seed=st.integers(0, 2**64 - 1))
    def test_jobs_invariance_over_seeds(self, case, master_seed):
        name, params, scheme = case
        cfg = _config(coefficient=name, params=params, scheme=scheme, samples=3,
                      resolutions=(4, 8), ref_resolution=64, master_seed=master_seed)

        def outcome(jobs):
            # the report.json text, or the error a failing run raises
            try:
                report = run_experiment(cfg, jobs=jobs)
            except TcsdeError as exc:
                return f"{type(exc).__name__}: {exc}"
            return json.dumps(report, indent=2, sort_keys=True, allow_nan=False)

        assert outcome(1) == outcome(2)

    def test_report_structure(self):
        rep = run_experiment(_config(), jobs=2)
        rows = rep["per_resolution"]
        assert [row["n"] for row in rows] == [16, 32, 64]
        assert all(row["mean_error"] > 0 for row in rows)
        assert all(row["stderr"] >= 0 for row in rows)
        assert rep["theoretical_orders"] == {"holder": 0.49**2 * 1.0, "smooth": 0.49}
        assert rep["metadata"]["config"] == _config().to_mapping()
        assert "inverse_clock_bound_max_excess" in rep["diagnostics"]

    def test_lp_mean_definition(self):
        # mean error per resolution is the plain L^p Monte Carlo estimator
        cfg = _config(samples=6, resolutions=(32, 64), ref_resolution=256, p=3.0)
        per_sample = np.stack(
            [strong_error_one_sample(cfg, i).sup_errors for i in range(6)]
        )
        rep = run_experiment(cfg, jobs=1)
        expected = np.mean(per_sample**3.0, axis=0) ** (1 / 3.0)
        got = np.array([row["mean_error"] for row in rep["per_resolution"]])
        np.testing.assert_allclose(got, expected, rtol=1e-13)

    def test_lp_report_bytes_independent_of_cpu_dispatch(self):
        # at p = 3 the powers leave numpy's exact fast paths (square, sqrt,
        # reciprocal); numpy's vector ** then differs from libm's pow by CPU
        digests = oracles.digests_with_avx512_on_and_off(_LP_REPORT_DIGEST)
        assert digests[0] == digests[1]

    def test_monotone_coupling_sanity(self):
        # per-sample sup-error at n should be >= the error at 2n most of the
        # time; require 60% over a seeded batch
        cfg = _config(samples=40, resolutions=(16, 32), ref_resolution=512)
        wins = 0
        for i in range(cfg.samples):
            res = strong_error_one_sample(cfg, i)
            wins += bool(res.sup_errors[0] >= res.sup_errors[1])
        assert wins >= 0.6 * cfg.samples

    def test_em_rough_coefficient_refused(self):
        cfg = _config(
            coefficient="holder-root",
            params=(1.0, 1.0, 0.3, 0.0),
            scheme=SCHEME_EULER_MARUYAMA,
        )
        with pytest.raises(ConfigError, match="0.5"):
            run_experiment(cfg)

    def test_error_floor_excluded_from_fit(self, monkeypatch):
        # resolutions whose mean error sits below 1e-12 measure rounding
        # noise and must be left out of the regression (but still reported)
        import tcsde.experiment as exp

        sup_errors = np.array([0.5, 0.25, 1e-15])

        def synthetic(config, coeff, sample_index):
            return exp.SampleResult(sup_errors=sup_errors, bound_excess=0.0)

        monkeypatch.setattr(exp, "_tc_sample", synthetic)
        cfg = _config(resolutions=(2, 4, 8), ref_resolution=32, samples=4)
        rep = run_experiment(cfg, jobs=1)
        assert rep["diagnostics"]["excluded_resolutions"] == [8]
        assert len(rep["per_resolution"]) == 3
        assert rep["fitted_order"] == pytest.approx(1.0, abs=1e-12)
        assert rep["fit_stderr"] == pytest.approx(0.0, abs=1e-12)

        # a run left with one usable level fails as a whole, not as a sample
        sup_errors[1] = 1e-15
        with pytest.raises(TcsdeError, match="error floor") as err:
            run_experiment(cfg, jobs=1)
        assert not isinstance(err.value, ExperimentError)

    @pytest.mark.parametrize(
        "p, resolutions, ref_resolution, samples, master_seed",
        [
            (1e6, (4, 8), 64, 4, SEED),  # every errs**p underflows to 0
            (500.0, (4, 8, 256), 4096, 2, 0),  # one level's L^p mean is 0
            (500.0, (4, 8, 256), 4096, 4, 0),  # one level's stderr is NaN
            (500.0, (4, 8, 256), 4096, 4, SEED),  # one level's spread underflows
        ],
    )
    def test_p_beyond_float_range_is_config_error(
        self, p, resolutions, ref_resolution, samples, master_seed
    ):
        # refused naming p, without numpy warnings
        cfg = _config(
            p=p,
            resolutions=resolutions,
            ref_resolution=ref_resolution,
            samples=samples,
            master_seed=master_seed,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="^p: "):
                run_experiment(cfg, jobs=1)

    def test_tiny_errors_are_not_blamed_on_p(self):
        # at T = 1e-300 the errors are about 1e-299: errs**2 and its spread
        # underflow, but p = 2 is not what loses them. The run ends at the
        # error floor instead, as a runtime error
        cfg = _config(sde_horizon=1e-300, resolutions=(16, 32), ref_resolution=128, samples=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TcsdeError, match="error floor") as err:
                run_experiment(cfg, jobs=1)
        assert not isinstance(err.value, ConfigError)

    def test_em_path_reaches_tiny_horizon(self):
        # n*T < 1e-9 makes ceil(n*T - 1e-9) zero; each level takes at least
        # one step, so every path ends at or past T and the levels' errors
        # differ (paths that all stop at t = 0 share one error)
        cfg = _config(coefficient="holder-root", params=(1.0, 1.0, 0.6, 0.0), sde_horizon=1e-12,
                      resolutions=(16, 32, 64), ref_resolution=1024, samples=4,
                      scheme=SCHEME_EULER_MARUYAMA)
        paths = sample_paths(cfg, cfg.validate_for_run(), 0)
        assert all(path.t[-1] >= cfg.sde_horizon for path in paths.values())
        errors = [level["mean_error"] for level in run_experiment(cfg, jobs=1)["per_resolution"]]
        assert len(set(errors)) == len(errors)

    @pytest.mark.parametrize("scale", [2.0**-600, 2.0**600], ids=["tiny", "huge"])
    def test_scaled_errors_scale_the_report(self, monkeypatch, scale):
        # errors scaled by 2^-600 or 2^600, whose squares leave the float64
        # range, report the L^p means and stderrs of the unscaled errors times
        # the scale, and the same order; the floor is lifted for the tiny ones
        import tcsde.experiment as exp

        rng = np.random.default_rng(17)
        errors = rng.uniform(0.5, 1.0, (8, 3)) / np.array([1.0, 2.0, 4.0])
        cfg = _config(resolutions=(2, 4, 8), ref_resolution=32, samples=8)
        monkeypatch.setattr(exp, "ERROR_FLOOR", 0.0)

        def run(factor, p=2.0):
            def synthetic(config, coeff, sample_index):
                return exp.SampleResult(errors[sample_index] * factor, bound_excess=0.0)

            monkeypatch.setattr(exp, "_tc_sample", synthetic)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                return run_experiment(replace(cfg, p=p), jobs=1)

        plain, scaled = run(1.0), run(scale)
        for a, b in zip(plain["per_resolution"], scaled["per_resolution"]):
            assert b["mean_error"] == pytest.approx(a["mean_error"] * scale, rel=1e-14)
            assert b["stderr"] == pytest.approx(a["stderr"] * scale, rel=1e-12)
        assert scaled["fitted_order"] == pytest.approx(plain["fitted_order"], abs=1e-12)
        # a p at which a scaled error's power drops out of the mean is refused
        with pytest.raises(ConfigError, match="^p: "):
            run(scale, p=1e6)

    @pytest.mark.parametrize("scheme", [SCHEME_TIME_CHANGE, SCHEME_EULER_MARUYAMA, SCHEME_COMPARE])
    def test_coefficient_built_once_per_run(self, monkeypatch, scheme):
        # the run checks and builds its coefficient once and hands it to every
        # sample; compare checks the whole config, then each scheme's run
        import tcsde.experiment as exp

        builds = []

        def counted(name, params):
            builds.append(name)
            return builtin_coefficient(name, params)

        monkeypatch.setattr(exp, "builtin_coefficient", counted)
        for samples in (2, 6):
            builds.clear()
            cfg = _config(coefficient="holder-root", params=(1.0, 1.0, 0.6, 0.0),
                          resolutions=(4, 8), ref_resolution=32, samples=samples,
                          scheme=scheme)
            run_experiment(cfg, jobs=1)
            assert len(builds) == (3 if scheme == SCHEME_COMPARE else 1), samples

    def test_experiment_error_pickles_by_fields(self):
        err = pickle.loads(pickle.dumps(ExperimentError(3, "brownian", "synthetic")))
        assert type(err) is ExperimentError
        assert (err.sample_index, err.module, err.message) == (3, "brownian", "synthetic")
        assert str(err) == "sample 3 failed in brownian: synthetic"

    @needs_fork
    def test_pool_failure_reports_sample_index(self, monkeypatch):
        # workers raise the sample's own error; the first failing index in
        # index order is the one reported
        import tcsde.experiment as exp

        cfg = _config(samples=4)
        got = exp._run_sample(cfg, cfg.build_coefficient(), 2)
        want = strong_error_one_sample(cfg, 2)
        assert got.sup_errors.tobytes() == want.sup_errors.tobytes()
        assert got.bound_excess == want.bound_excess
        original = exp._tc_sample

        def boom(config, coeff, sample_index):
            if sample_index in (3, 5):
                raise ValueError(f"synthetic failure {sample_index}")
            return original(config, coeff, sample_index)

        monkeypatch.setattr(exp, "_tc_sample", boom)
        with pytest.raises(ExperimentError) as err:
            run_experiment(_config(samples=6), jobs=2)
        assert err.value.sample_index == 3
        assert err.value.module == "experiment"
        assert "synthetic failure 3" in str(err.value)

    def test_pool_has_at_most_one_worker_per_sample(self, monkeypatch):
        # a pool forks all its workers at once, so --jobs far above the
        # sample count must not reach it; the pool here maps serially
        import tcsde.experiment as exp

        workers = []

        class SerialPool:
            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(exp, "ProcessPoolExecutor", SerialPool)
        cfg = _config(samples=3)
        pooled = run_experiment(cfg, jobs=64)
        assert workers == [3]
        assert pooled == run_experiment(cfg, jobs=1)

    def test_failure_reports_sample_index(self, monkeypatch):
        import tcsde.experiment as exp

        original = exp._tc_sample

        def boom(config, coeff, sample_index):
            if sample_index == 3:
                raise ValueError("synthetic failure")
            return original(config, coeff, sample_index)

        monkeypatch.setattr(exp, "_tc_sample", boom)
        with pytest.raises(ExperimentError) as err:
            run_experiment(_config(samples=6), jobs=1)
        assert err.value.sample_index == 3


class TestCompareSchemes:
    def test_paired_reports(self):
        # the compare report is the two single-scheme reports, side by side
        cfg = _config(
            coefficient="holder-root",
            params=(1.0, 1.0, 0.6, 0.0),
            samples=8,
            resolutions=(16, 32),
            ref_resolution=256,
        )
        cmp = run_experiment(replace(cfg, scheme=SCHEME_COMPARE), jobs=2)
        assert cmp == {
            "time_change": run_experiment(replace(cfg, scheme=SCHEME_TIME_CHANGE), jobs=2),
            "euler_maruyama": run_experiment(
                replace(cfg, scheme=SCHEME_EULER_MARUYAMA), jobs=2
            ),
        }
        assert list(cmp) == ["time_change", "euler_maruyama"]
        assert cmp["time_change"]["scheme"] == SCHEME_TIME_CHANGE
        assert cmp["euler_maruyama"]["scheme"] == SCHEME_EULER_MARUYAMA
        assert cmp["time_change"]["fitted_order"] != cmp["euler_maruyama"]["fitted_order"]

    def test_constant_sigma_both_orders_near_half(self):
        cfg = _config(
            coefficient="constant",
            params=(2.0,),
            samples=64,
            resolutions=(16, 32, 64),
            ref_resolution=1024,
        )
        cmp = run_experiment(replace(cfg, scheme=SCHEME_COMPARE), jobs=2)
        assert 0.3 <= cmp["time_change"]["fitted_order"] <= 0.7
        assert 0.3 <= cmp["euler_maruyama"]["fitted_order"] <= 0.7

    def test_rough_beta_refused_with_explanation(self):
        cfg = _config(
            coefficient="holder-root", params=(1.0, 1.0, 0.3, 0.0), scheme=SCHEME_COMPARE
        )
        with pytest.raises(ConfigError, match="beta=0.3"):
            run_experiment(cfg)

    def test_rough_beta_refused_before_any_sample(self, monkeypatch):
        import tcsde.experiment as exp

        calls = []
        monkeypatch.setattr(exp, "_tc_sample", lambda *args: calls.append(args))
        cfg = _config(
            coefficient="holder-root", params=(1.0, 1.0, 0.3, 0.0), scheme=SCHEME_COMPARE
        )
        with pytest.raises(ConfigError, match="beta=0.3"):
            cfg.validate_for_run()
        with pytest.raises(ConfigError, match="beta=0.3"):
            run_experiment(cfg, jobs=1)
        assert calls == []

    def test_beta_just_above_half_allowed(self):
        cfg = _config(
            coefficient="holder-root",
            params=(1.0, 1.0, 0.6, 0.0),
            samples=4,
            resolutions=(8, 16),
            ref_resolution=64,
        )
        cmp = run_experiment(replace(cfg, scheme=SCHEME_COMPARE), jobs=1)
        assert cmp["euler_maruyama"]["per_resolution"][0]["mean_error"] > 0
