"""Percentile sample-count rule and the completeness of the report."""

import json
from pathlib import Path

import pytest

import summary

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_p90_needs_a_hundred_samples():
    assert summary.samples_needed(0.9) == 100
    assert summary.percentile(list(range(1, 101)), 0.9) == 90
    with pytest.raises(ValueError, match="need 10"):
        summary.percentile(list(range(1, 100)), 0.9)


def test_p50_needs_twenty_samples():
    assert summary.samples_needed(0.5) == 20
    assert summary.percentile(list(range(1, 21)), 0.5) == 10
    with pytest.raises(ValueError):
        summary.percentile(list(range(1, 20)), 0.5)


def test_percentile_ignores_input_order():
    values = [float(v) for v in range(200, 0, -1)]
    assert summary.percentile(values, 0.9) == 180.0


def _child(n_units, calib=6.3e-4):
    return {"units": [0.01 * (1 + k % 7) for k in range(n_units)],
            "calib_s": [calib] * n_units,
            "makespan_s": 12.5, "sim_s": 600.0, "peak_rss_kb": 81920}


SETUP = [(0.4, 4.5e-4), (0.5, 4.5e-4), (0.45, 9e-4)]


def test_times_scale_with_the_host_speed_factor():
    at_ref = summary.end_to_end_metrics(_child(120), SETUP)
    slow = summary.end_to_end_metrics(_child(120, calib=12.6e-4), SETUP)
    assert at_ref["makespan_s"] == 12.5
    assert slow["makespan_s"] == pytest.approx(12.5 / 2)
    assert slow["unit_p90_s"] == pytest.approx(at_ref["unit_p90_s"] / 2)
    assert slow["sim_s_per_host_s"] == pytest.approx(
        2 * at_ref["sim_s_per_host_s"])
    assert slow["peak_rss_mb"] == at_ref["peak_rss_mb"] == 80.0
    # The third probe ran at half speed: 0.45 s counts as 0.225 s.
    assert at_ref["setup_s"] == 0.4
    raw = summary.end_to_end_metrics(_child(120, calib=1.0), SETUP,
                                     normalize=False)
    assert raw["makespan_s"] == 12.5 and raw["setup_s"] == 0.45


@pytest.mark.parametrize("workload",
                         [w["name"] for w in BENCHMARK["workloads"]])
def test_report_names_every_end_to_end_metric_with_its_unit(workload):
    metrics = summary.end_to_end_metrics(_child(120), SETUP)
    lines = summary.report_lines(workload, metrics, metrics, attempted=120,
                                 failed=0, unit_name="unit",
                                 setup_count=len(SETUP))
    for spec in BENCHMARK["end_to_end"]:
        row = [ln.split() for ln in lines if ln.split()[:1] == [spec["name"]]]
        assert row, f"{spec['name']} missing from the {workload} report"
        assert row[0][2] == spec["unit"]
    assert any(ln.split()[0] == "failed_ratio" for ln in lines[1:])
    result = summary.result_line_metrics(metrics, summary.END_TO_END)
    assert {n: m["unit"] for n, m in result.items()} == {
        s["name"]: s["unit"] for s in BENCHMARK["end_to_end"]}


def test_per_layer_catalogue_matches_the_manifest():
    assert summary.PER_LAYER == {s["name"]: s["unit"]
                                 for s in BENCHMARK["per_layer"]}
