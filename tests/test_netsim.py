"""Network-level scenario simulation."""

import pytest

from repro.netsim import FlowRequest, Scenario, ScenarioRunner
from repro.obs import MetricsRegistry, Profiler, Tracer
from repro.units import MBPS


def test_flow_request_validation():
    with pytest.raises(ValueError):
        FlowRequest("f", 0, 0, 0.0, duration_s=1.0)          # src == dst
    with pytest.raises(ValueError):
        FlowRequest("f", 0, 1, 0.0, kind="torrent")
    with pytest.raises(ValueError):
        FlowRequest("f", 0, 1, 0.0, kind="cbr", duration_s=1.0)
    with pytest.raises(ValueError):
        FlowRequest("f", 0, 1, 0.0, kind="file")
    with pytest.raises(ValueError):
        FlowRequest("f", 0, 1, 0.0, kind="saturated")        # no duration


def test_scenario_rejects_duplicate_names():
    scenario = Scenario("s")
    scenario.add(FlowRequest("f", 0, 1, 0.0, duration_s=1.0))
    with pytest.raises(ValueError):
        scenario.add(FlowRequest("f", 2, 3, 0.0, duration_s=1.0))


def test_single_saturated_flow_gets_full_link(testbed, t_work):
    scenario = Scenario("solo").add(FlowRequest(
        "solo", 0, 1, t_work, kind="saturated", duration_s=20.0))
    results = ScenarioRunner(testbed).run(scenario)
    solo = results["solo"]
    expected = testbed.plc_link(0, 1).throughput_bps(t_work, measured=False)
    assert solo.mean_rate_bps == pytest.approx(expected, rel=0.2)
    assert solo.finished


def test_same_domain_flows_share_airtime(testbed, t_work):
    """Two saturated PLC flows on one board each get roughly half."""
    scenario = (Scenario("pair")
                .add(FlowRequest("a", 0, 1, t_work, duration_s=20.0))
                .add(FlowRequest("b", 2, 3, t_work, duration_s=20.0)))
    results = ScenarioRunner(testbed).run(scenario)
    solo = testbed.plc_link(0, 1).throughput_bps(t_work, measured=False)
    assert results["a"].mean_rate_bps == pytest.approx(solo / 2, rel=0.3)


def test_cross_board_plc_flows_do_not_interfere(testbed, t_work):
    """B1 and B2 are separate contention domains (§3.1)."""
    scenario = (Scenario("boards")
                .add(FlowRequest("b1", 0, 1, t_work, duration_s=20.0))
                .add(FlowRequest("b2", 13, 14, t_work, duration_s=20.0)))
    results = ScenarioRunner(testbed).run(scenario)
    solo_b1 = testbed.plc_link(0, 1).throughput_bps(t_work, measured=False)
    assert results["b1"].mean_rate_bps == pytest.approx(solo_b1, rel=0.2)


def test_cbr_leftover_goes_to_saturated_flow(testbed, t_work):
    """Work conservation: a 1 Mbps CBR barely dents a saturated peer."""
    scenario = (Scenario("mix")
                .add(FlowRequest("bulk", 0, 1, t_work, duration_s=20.0))
                .add(FlowRequest("probe", 2, 3, t_work, kind="cbr",
                                 rate_bps=1 * MBPS, duration_s=20.0)))
    results = ScenarioRunner(testbed).run(scenario)
    solo = testbed.plc_link(0, 1).throughput_bps(t_work, measured=False)
    assert results["probe"].mean_rate_bps == pytest.approx(1 * MBPS,
                                                           rel=0.05)
    assert results["bulk"].mean_rate_bps > 0.75 * solo


def test_file_flow_completes_and_frees_the_medium(testbed, t_work):
    size = 20e6  # 20 MB
    scenario = (Scenario("file")
                .add(FlowRequest("dl", 0, 1, t_work, kind="file",
                                 size_bytes=size))
                .add(FlowRequest("bg", 2, 3, t_work, duration_s=40.0)))
    runner = ScenarioRunner(testbed)
    results = runner.run(scenario, horizon_s=120.0)
    dl = results["dl"]
    assert dl.finished
    assert dl.delivered_bytes == pytest.approx(size)
    # Background flow speeds up after the download finishes.
    loads = [q.domain_load.get("plc:B1", 0) for q in runner.log]
    assert max(loads) == 2 and loads[-1] == 1


def test_hybrid_flow_uses_both_media(testbed, t_work):
    scenario = Scenario("h").add(FlowRequest(
        "bond", 0, 1, t_work, medium="hybrid", duration_s=20.0))
    results = ScenarioRunner(testbed).run(scenario)
    plc_only = testbed.plc_link(0, 1).throughput_bps(t_work,
                                                     measured=False)
    assert results["bond"].mean_rate_bps > plc_only


def test_dead_link_starves(testbed, t_work):
    scenario = Scenario("dead").add(FlowRequest(
        "x", 11, 4, t_work, duration_s=10.0))       # dead at work hours
    results = ScenarioRunner(testbed).run(scenario)
    assert results["x"].starved_quanta > 0
    assert results["x"].mean_rate_mbps < 1.0


def test_runner_quantum_validation(testbed):
    with pytest.raises(ValueError):
        ScenarioRunner(testbed, quantum_s=0.0)


def test_results_export_to_campaign(testbed, t_work, tmp_path):
    from repro.analysis.traces import load_campaign, save_campaign
    from repro.netsim.runner import results_to_campaign

    scenario = (Scenario("exp")
                .add(FlowRequest("a", 0, 1, t_work, duration_s=5.0))
                .add(FlowRequest("b", 13, 14, t_work, duration_s=5.0)))
    results = ScenarioRunner(testbed).run(scenario)
    campaign = results_to_campaign(results, name="exp")
    assert len(campaign) == 2
    path = tmp_path / "scenario.jsonl"
    save_campaign(campaign, path)
    assert len(load_campaign(path)) == 2


def test_late_start_scenario_stops_at_end_plus_slack(testbed):
    """Regression: the default horizon used to be double-offset — an
    absolute deadline (``end_time() + 60``) treated as relative to the
    first start, so a scenario starting at t0 ran until
    ``t0 + end_time() + 60`` whenever t0 > 0."""
    t0 = 300.0
    scenario = (Scenario("late")
                .add(FlowRequest("sat", 0, 1, t0, duration_s=10.0))
                .add(FlowRequest("big", 2, 3, t0, kind="file",
                                 size_bytes=1e13)))   # never completes
    runner = ScenarioRunner(testbed)
    runner.run(scenario)
    last = runner.log[-1].time
    assert last < scenario.end_time() + 60.0
    assert last >= scenario.end_time() + 60.0 - 2 * runner.quantum_s


def test_hybrid_cbr_excess_is_not_minted_into_both_domains(testbed, t_work):
    """Regression: a hybrid CBR flow's excess was credited *in full* to
    both its PLC and WiFi domains, letting a saturated neighbour exceed
    its own link capacity. Excess must be returned as per-medium airtime."""
    scenario = (Scenario("mint")
                .add(FlowRequest("cbr", 0, 1, t_work, kind="cbr",
                                 medium="hybrid", rate_bps=0.5 * MBPS,
                                 duration_s=10.0))
                .add(FlowRequest("sat_plc", 2, 3, t_work, duration_s=10.0))
                .add(FlowRequest("sat_wifi", 4, 5, t_work, medium="wifi",
                                 duration_s=10.0)))
    runner = ScenarioRunner(testbed, check_invariants=True)
    results = runner.run(scenario)
    plc_cap = testbed.plc_link(2, 3).throughput_bps(t_work, measured=False)
    wifi_cap = testbed.wifi_link(4, 5).throughput_bps(t_work,
                                                      measured=False)
    # No flow may beat its own link capacity (20% slack for channel drift).
    assert results["sat_plc"].mean_rate_bps <= 1.2 * plc_cap
    assert results["sat_wifi"].mean_rate_bps <= 1.2 * wifi_cap
    assert runner.stats.invariant_violations == 0
    assert runner.stats.max_domain_airtime <= 1.0 + 1e-6


def test_runner_stats_report_cache_hits_and_utilisation(testbed, t_work):
    scenario = Scenario("obs").add(FlowRequest(
        "solo", 0, 1, t_work, duration_s=20.0))
    runner = ScenarioRunner(testbed)
    runner.run(scenario)
    stats = runner.stats
    assert stats.quanta == 40
    assert stats.cache.hit_rate > 0.5          # 5 s window, 0.5 s quantum
    assert stats.cache.misses > 0
    util = stats.domain_utilisation()
    assert util["plc:B1"] == pytest.approx(1.0)
    assert stats.to_dict()["quanta"] == 40


def test_campaign_export_records_runner_stats(testbed, t_work):
    from repro.netsim.runner import results_to_campaign

    scenario = Scenario("prov").add(FlowRequest(
        "solo", 0, 1, t_work, duration_s=5.0))
    runner = ScenarioRunner(testbed)
    results = runner.run(scenario)
    campaign = results_to_campaign(results, name="prov",
                                   stats=runner.stats)
    assert "cache_hit_rate=" in campaign.description
    assert "quanta=10" in campaign.description


def test_many_flows_share_one_domain(testbed, t_work):
    """Five saturated flows on B1: each gets ~a fifth of its solo rate."""
    scenario = Scenario("five")
    pairs = [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)]
    for k, (i, j) in enumerate(pairs):
        scenario.add(FlowRequest(f"f{k}", i, j, t_work, duration_s=10.0))
    results = ScenarioRunner(testbed).run(scenario)
    for k, (i, j) in enumerate(pairs):
        solo = testbed.plc_link(i, j).throughput_bps(t_work,
                                                     measured=False)
        share = results[f"f{k}"].mean_rate_bps
        assert share == pytest.approx(solo / 5, rel=0.4)


NINE_FLOW_HORIZON_S = 60.0


def _nine_flow_scenario(t0):
    """Saturated PLC on both boards, a CBR, a hybrid bond and WiFi."""
    duration = NINE_FLOW_HORIZON_S
    scenario = Scenario("nine")
    pairs = [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (13, 14)]
    for k, (i, j) in enumerate(pairs):
        scenario.add(FlowRequest(f"sat{k}", i, j, t0, duration_s=duration))
    scenario.add(FlowRequest("cbr0", 6, 7, t0, kind="cbr",
                             rate_bps=2 * MBPS, duration_s=duration))
    scenario.add(FlowRequest("hyb", 8, 9, t0, medium="hybrid",
                             duration_s=duration))
    scenario.add(FlowRequest("wifi0", 13, 14, t0, medium="wifi",
                             duration_s=duration))
    return scenario


def test_nine_mixed_flows_keep_the_runner_contract(testbed, t_work):
    """Nine mixed flows under tracing and profiling: exact quanta, no
    invariant violation, the CBR cap, bytes on every flow, a warm
    capacity cache, and every quantum seen by both observers."""
    tracer = Tracer()
    profiler = Profiler(metrics=MetricsRegistry())
    runner = ScenarioRunner(testbed, check_invariants=True,
                            tracer=tracer, profiler=profiler)
    results = runner.run(_nine_flow_scenario(t_work),
                         horizon_s=NINE_FLOW_HORIZON_S)
    quanta = NINE_FLOW_HORIZON_S / runner.quantum_s
    stats = runner.stats
    assert stats.quanta == quanta
    assert stats.invariant_violations == 0
    assert stats.max_domain_airtime <= 1.0 + 1e-6
    assert results["cbr0"].mean_rate_bps <= 2 * MBPS * (1 + 1e-9)
    assert all(r.delivered_bytes > 0 for r in results.values())
    assert stats.cache.hit_rate > 0.9          # 5 s window, 0.5 s quantum
    assert profiler.summary()["runner.allocate"]["calls"] == quanta
    assert len(tracer.events) > quanta
