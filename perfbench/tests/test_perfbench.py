"""Tests of the benchmark's own code: percentiles, span self-time, tracing.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import stats  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Span, Tracer, layer_summary, self_times  # noqa: E402

import tcsde.experiment as experiment  # noqa: E402
from tcsde.brownian import generate_path  # noqa: E402
from tcsde.timechange import build_time_change, required_horizon  # noqa: E402


@pytest.mark.parametrize(
    "n, pct, beyond",
    [(100, 90, 10), (1000, 90, 100), (50, 80, 10), (65, 84, 10), (11, 50, 5), (3, 50, 1)],
)
def test_tail_percentile_keeps_ten_items_beyond(n, pct, beyond):
    values = [float(v) for v in range(n, 0, -1)]
    got_pct, value, got_beyond = stats.tail_percentile(values, 90)
    assert (got_pct, got_beyond) == (pct, beyond)
    assert sum(v > value for v in values) == beyond
    if pct < 90:
        # one percentile higher would leave fewer than ten beyond
        assert n - -(-(pct + 1) * n // 100) < stats.MIN_BEYOND


def test_self_time_subtracts_children_once():
    spans = [
        Span(0, "root", 0, 100, None, None),
        Span(1, "a", 10, 30, 0, None),
        Span(2, "b", 50, 60, 0, None),
        Span(3, "grandchild", 12, 20, 1, None),
        Span(4, "leaf", 70, 70, 0, None),
    ]
    got = self_times(spans)
    assert got == {0: 70, 1: 12, 2: 10, 3: 8, 4: 0}


def test_self_time_clips_overlapping_children():
    spans = [
        Span(0, "root", 0, 100, None, None),
        Span(1, "a", 10, 40, 0, None),
        Span(2, "b", 30, 120, 0, None),
    ]
    assert self_times(spans)[0] == 10


def _tiny(scheme):
    return experiment.ExperimentConfig(
        coefficient="smooth-sin", params=(2.0, 1.0), sde_horizon=0.5, x0=0.0,
        resolutions=(4, 8), ref_resolution=64, p=2.0, samples=3, master_seed=7,
        scheme=scheme,
    )


def _traced(config):
    tracer = Tracer()
    tracer.install()
    try:
        experiment.run_experiment(config, jobs=1)
    finally:
        tracer.uninstall()
    return tracer, layer_summary(tracer.spans, tracer.knots_used)


def test_draw_efficiency_matches_reference_clock_on_tiny_config():
    config = _tiny("time-change")
    tracer, summary = _traced(config)
    coeff = config.build_coefficient()
    used = drawn = 0
    for i in range(config.samples):
        horizon = required_horizon(coeff, config.sde_horizon, min(config.resolutions))
        driver = generate_path(config.ref_resolution, horizon, config.x0,
                               config.master_seed, i)
        used += build_time_change(driver, coeff, config.sde_horizon).knot_count
        drawn += driver.knot_count
    assert summary["brownian.extend_calls"] == 0
    assert summary["brownian.knots_used"] == used
    assert summary["brownian.knots_drawn"] == drawn
    assert used / drawn < 1.0


def test_wrappers_intercept_every_call_site():
    config = _tiny("time-change")
    _, summary = _traced(config)
    ladder, samples = len(config.resolutions), config.samples
    assert summary["samples"] == samples
    assert summary["kernels.sup_calls"] == 3 * ladder * samples
    assert summary["timechange.clock_calls"] == (ladder + 1) * samples
    assert summary["brownian.generate_calls"] == samples
    assert summary["baseline.em_calls"] == 0

    _, summary = _traced(_tiny("euler-maruyama"))
    assert summary["baseline.em_calls"] == (ladder + 1) * samples
    assert summary["kernels.sup_calls"] == ladder * samples
    assert summary["timechange.clock_calls"] == 0


def test_uninstall_restores_every_patched_name():
    import tcsde.cli as cli

    before = (experiment.generate_path, cli.build_time_change,
              experiment.ExperimentConfig.__dict__["from_mapping"], experiment._tc_sample)
    tracer = Tracer()
    tracer.install()
    assert experiment.generate_path is not before[0]
    tracer.uninstall()
    after = (experiment.generate_path, cli.build_time_change,
             experiment.ExperimentConfig.__dict__["from_mapping"], experiment._tc_sample)
    assert all(a is b for a, b in zip(before, after))


def test_report_check_rejects_non_finite_and_out_of_bound_reports(tmp_path):
    import json

    report = {"per_resolution": [{"n": 16, "mean_error": 0.1, "stderr": 0.01}],
              "fitted_order": 0.5,
              "diagnostics": {"inverse_clock_bound_max_excess": 0.0}}
    (tmp_path / "report.json").write_text(json.dumps(report))
    assert len(wl.check_rep(tmp_path)) == 64
    bad_reports = [
        json.dumps({**report, "fitted_order": float("nan")}),
        json.dumps({**report, "per_resolution": [{"n": 16, "mean_error": 0.0}]}),
        json.dumps({**report, "diagnostics": {"inverse_clock_bound_max_excess": 1e-6}}),
    ]
    for text in bad_reports:
        (tmp_path / "report.json").write_text(text)
        with pytest.raises(wl.RepFailed):
            wl.check_rep(tmp_path)


def test_workload_configs_parse_and_validate(tmp_path):
    from tcsde.cli import parse_config_file

    for workload in wl.WORKLOADS.values():
        cfg = tmp_path / f"{workload.name}.cfg"
        cfg.write_text(workload.config_text(wl.rep_seed(3, 1)))
        config = experiment.ExperimentConfig.from_mapping(parse_config_file(cfg))
        config.validate_for_run()
        assert config.master_seed == 3001


def test_benchmark_json_lists_exactly_what_run_prints():
    import json
    import re

    import run

    spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert "setup_s" in run.END_TO_END_UNITS
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", m["name"])
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
