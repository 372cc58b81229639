"""Appliance state served per interval.

``OfficeActivityModel.state_interval`` says over which interval an
appliance's state lasts, and ``ElectricalLoad.state_signature`` serves one signature for
the whole interval in which no appliance can switch. The contract is
exactness: the memoised signature equals a fresh ``is_on`` scan at every
time, in any query order, at and around every switch, and with a
fault-injection overlay installed on the live model. The count test pins
the cost side: one ``is_on`` per appliance per signature interval, not
per query.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.compile import compile_testbed
from repro.faults import ANY_TARGET, FaultEvent, FaultPlan, inject_surges
from repro.netsim.runner import ScenarioRunner
from repro.netsim.scenario import build_scenario
from repro.obs import MetricsRegistry
from repro.powergrid.activity import SWITCH_GUARD_S, OfficeActivityModel
from repro.powergrid.appliances import ScheduleClass
from repro.powergrid.load import ElectricalLoad
from repro.sim.clock import MainsClock
from repro.units import DAY, HOUR, WEEK

TWO_WEEKS = 2 * WEEK
EPOCH = 15 * 60.0


def _world(preset: str, seed: int = 7):
    """A private (uncached) world, so memo state and overlays stay here."""
    return compile_testbed(preset, seed=seed,
                           metrics=MetricsRegistry()).template


def _around(t: float):
    """``t`` itself and the times just before and after it, on both
    sides of the switch guard."""
    return (t - SWITCH_GUARD_S, math.nextafter(t, -math.inf), t,
            math.nextafter(t, math.inf), t + SWITCH_GUARD_S)


def _probe_times(load: ElectricalLoad) -> list:
    """Random times over two weeks plus every switch candidate of the
    first week (weekdays and a weekend), each with its neighbours."""
    rng = np.random.default_rng(5)
    randoms = [float(t) for t in rng.uniform(0.0, TWO_WEEKS, 300)]
    edges = [MainsClock.at(day=day, hour=h) for day in range(7)
             for h in (0.0, 6.5, 8.0, 18.0, 21.0)]
    edges += [k * EPOCH for k in range(int(WEEK // EPOCH))]
    activity = load.activity
    for appliance in load.appliances:
        schedule = appliance.kind.schedule
        if schedule is ScheduleClass.OFFICE_HOURS:
            # Each drawn office start and end, and weekend visits.
            edges += activity.switching_times(appliance, 0.0, WEEK)
        elif schedule is ScheduleClass.INTERMITTENT:
            edges += activity.switching_times(appliance, 0.0, 12 * HOUR)
    return sorted({x for e in edges for x in _around(e) if x >= 0.0}
                  | set(randoms))


def _orders(times: list, shuffled: int) -> list:
    """Ascending, descending, then ``shuffled`` times in random order."""
    rng = np.random.default_rng(11)
    return (list(times) + list(reversed(times))
            + [times[i] for i in rng.permutation(len(times))[:shuffled]])


@pytest.mark.slow
@pytest.mark.parametrize("preset,seed", [("office", 7), ("mini3", 8)])
def test_signature_equals_is_on_scan(preset, seed):
    load = _world(preset, seed).load
    activity = load.activity
    times = _probe_times(load)
    reference = {t: activity.state_signature(load.appliances, t)
                 for t in times}
    for t in _orders(times, shuffled=2000):
        assert load.state_signature(t) == reference[t], t
    stats = load.signature_stats
    assert stats.hits > 0 and stats.misses > 0


@pytest.mark.slow
def test_signature_with_surge_overlay_installed_mid_run():
    load = _world("mini3").load
    activity = load.activity
    times = _orders(_probe_times(load)[::5], shuffled=1000)
    clean = {t: activity.state_signature(load.appliances, t)
             for t in set(times)}
    half = len(times) // 2
    for t in times[:half]:
        assert load.state_signature(t) == clean[t]
    # Surges go onto the live model while the memo holds a clean
    # signature for a time inside the surge.
    noon = MainsClock.at(day=2, hour=12.0)
    night = MainsClock.at(day=5, hour=3.0)
    inside = noon + 100.0
    assert load.state_signature(inside) == activity.state_signature(
        load.appliances, inside)
    target = load.appliances[0].instance_id
    inject_surges(activity, FaultPlan(seed=0, events=[
        FaultEvent("appliance_surge", ANY_TARGET, noon, noon + HOUR),
        FaultEvent("appliance_surge", target, night, night + 600.0)]))
    assert all(load.state_signature(inside))
    surged = 0
    for t in times[half:]:
        expected = activity.state_signature(load.appliances, t)
        surged += expected != clean[t]
        assert load.state_signature(t) == expected
        assert load.active_count(t) == sum(1 for on in expected if on)
    assert surged > 0
    # Removing the overlay serves the schedule again, memo intact.
    activity.overlay = None
    for t in times[:half]:
        assert load.state_signature(t) == clean[t]


def test_state_holds_over_its_interval():
    load = _world("office").load
    activity = load.activity
    rng = np.random.default_rng(3)
    for t in rng.uniform(0.0, TWO_WEEKS, 300):
        t = float(t)
        for appliance in load.appliances:
            since, until = activity.state_interval(appliance, t)
            if since == until:
                assert since == t  # within a guard of a switch
                continue
            assert since <= t < until
            state = activity.is_on(appliance, t)
            for x in (since, 0.5 * (since + until),
                      math.nextafter(until, -math.inf)):
                if math.isfinite(x):
                    assert activity.is_on(appliance, x) == state


def test_switching_times_are_the_transitions():
    load = _world("office").load
    activity = load.activity
    for appliance in load.appliances:
        times = activity.switching_times(appliance, 0.0, 3 * DAY)
        assert times == sorted(times)
        for ts in times:
            assert (activity.is_on(appliance, ts - 2 * SWITCH_GUARD_S)
                    != activity.is_on(appliance, ts + 2 * SWITCH_GUARD_S))
        # Between consecutive transitions the state does not change.
        edges = [0.0] + times + [3 * DAY]
        for lo, hi in zip(edges, edges[1:]):
            inside = np.linspace(lo, hi, 7)[1:-1]
            states = {activity.is_on(appliance, float(x)) for x in inside}
            assert len(states) == 1


def test_draw_memo_evicts_per_entry(monkeypatch):
    monkeypatch.setattr("repro.powergrid.activity.DRAW_CACHE_ENTRIES", 4)
    load = _world("mini3").load
    activity = load.activity
    appliance = next(a for a in load.appliances
                     if a.kind.schedule is ScheduleClass.INTERMITTENT)
    for k in range(10):
        activity.is_on(appliance, k * EPOCH)
    stats = activity.draw_cache_stats
    assert stats.misses == 10 and stats.evictions == 6
    activity.is_on(appliance, 9 * EPOCH)  # the newest entry survived
    assert stats.hits == 1


# --- cost contract -------------------------------------------------------------


def _longhaul_slice(monkeypatch, full_scan: bool):
    """Two days of the §6 ``mini3-longhaul`` scenario at 2 h quanta on a
    private world; returns (records, is_on calls, query times, load)."""
    testbed = _world("mini3")
    load = testbed.load
    if full_scan:
        # Any overlay bypasses the memo: the one-scan-per-query path.
        load.activity.overlay = lambda appliance, t: None
    calls, times = [0], []
    is_on, signature = OfficeActivityModel.is_on, ElectricalLoad.state_signature

    def counting_is_on(self, appliance, t):
        calls[0] += 1
        return is_on(self, appliance, t)

    def recording_signature(self, t):
        times.append(t)
        return signature(self, t)

    monkeypatch.setattr(OfficeActivityModel, "is_on", counting_is_on)
    monkeypatch.setattr(ElectricalLoad, "state_signature",
                        recording_signature)
    scenario = build_scenario("mini3-longhaul", MainsClock.at(day=2,
                                                              hour=14.0))
    runner = ScenarioRunner(testbed, quantum_s=7200.0, check_invariants=True)
    results = runner.run(scenario, horizon_s=2 * DAY)
    monkeypatch.undo()
    records = [results[name].to_dict() for name in sorted(results)]
    return records, calls[0], times, load


def test_longhaul_slice_scans_once_per_signature_interval(monkeypatch):
    records, calls, times, load = _longhaul_slice(monkeypatch, False)
    activity = load.activity
    # A signature interval: the stretch between consecutive switch
    # candidates of any appliance, where every state_interval is constant.
    intervals = {tuple(activity.state_interval(a, t)
                       for a in load.appliances) for t in times}
    assert calls <= len(load.appliances) * len(intervals)
    full_records, full_calls, _, _ = _longhaul_slice(monkeypatch, True)
    assert records == full_records
    assert calls * 10 <= full_calls
