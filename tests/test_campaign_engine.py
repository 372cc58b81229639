"""The parallel campaign engine: determinism, resume, failure handling.

The acceptance-grade end-to-end check lives here: an office-preset survey
(9 pairs × 3 seeds) must produce bit-identical JSONL artifacts at 1 and 4
workers and resume correctly after an interrupted run.
"""

from __future__ import annotations

import pytest

from repro.campaign import (
    CampaignAborted,
    CampaignEngine,
    EngineConfig,
    ExperimentSpec,
    check_specs,
    read_artifacts,
    run_campaign,
    scenario_campaign,
    survey_specs,
)
from repro.cli import main

PAIRS = [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1), (0, 3),
         (3, 0), (1, 3)]
SEEDS = [7, 8, 9]


def _office_specs():
    return survey_specs("office", SEEDS, PAIRS, duration_s=5.0,
                        interval_s=0.5)


def test_office_survey_bit_identical_across_worker_counts(tmp_path):
    """Acceptance: ≥9 pairs × 3 seeds, workers 1 vs 4, same bytes."""
    specs = _office_specs()
    p1, p4 = tmp_path / "w1.jsonl", tmp_path / "w4.jsonl"
    s1 = run_campaign(specs, p1, workers=1)
    s4 = run_campaign(specs, p4, workers=4)
    assert s1.completed == s4.completed == len(specs) == 27
    assert p1.read_bytes() == p4.read_bytes()
    _, tasks = read_artifacts(p1)
    assert len(tasks) == 27
    assert all(t.records[0]["plc_mean_mbps"] >= 0 for t in tasks)


def test_resume_after_interrupted_run(tmp_path):
    """Kill mid-campaign (simulated by a truncated artifact file) →
    rerun completes only the remainder and converges to the same bytes."""
    specs = _office_specs()
    clean, interrupted = tmp_path / "clean.jsonl", tmp_path / "int.jsonl"
    run_campaign(specs, clean, workers=0)

    # A killed run leaves a complete prefix plus half a task line.
    lines = clean.read_text().splitlines(keepends=True)
    interrupted.write_text("".join(lines[:11]) + lines[11][:37])
    stats = run_campaign(specs, interrupted, workers=0)
    assert stats.resumed == 10
    assert stats.completed == len(specs) - 10
    assert interrupted.read_bytes() == clean.read_bytes()


def test_resume_disabled_redoes_everything(tmp_path):
    specs = _office_specs()[:4]
    path = tmp_path / "a.jsonl"
    run_campaign(specs, path, workers=0)
    stats = run_campaign(specs, path, workers=0, resume=False)
    assert stats.resumed == 0 and stats.completed == 4


def test_retry_with_backoff_recovers_flaky_task(tmp_path):
    spec = ExperimentSpec.make("flaky", "mini3", 7, fail_attempts=2)
    stats = run_campaign([spec], tmp_path / "f.jsonl", workers=0,
                         retries=2, backoff_base_s=0.0)
    assert stats.retries == 2
    assert stats.completed == 1 and stats.failed == 0
    _, tasks = read_artifacts(tmp_path / "f.jsonl")
    assert tasks[0].records[0]["survived_attempt"] == 2


def test_circuit_breaker_aborts_but_keeps_artifacts(tmp_path):
    specs = [ExperimentSpec.make("rng_probe", "mini3", 7, idx=0),
             ExperimentSpec.make("flaky", "mini3", 7, fail_attempts=9)]
    path = tmp_path / "b.jsonl"
    with pytest.raises(CampaignAborted):
        run_campaign(specs, path, workers=0, retries=1,
                     backoff_base_s=0.0, max_failures=0)
    _, tasks = read_artifacts(path)
    assert [t.spec["kind"] for t in tasks] == ["rng_probe"]
    # The breaker threshold is honoured: allowing one failure completes.
    stats = run_campaign(specs, path, workers=0, retries=1,
                         backoff_base_s=0.0, max_failures=1)
    assert stats.failed == 1 and stats.resumed == 1
    assert stats.failures[0].attempts == 2


def test_per_task_timeout_counts_and_fails(tmp_path):
    """A task that outlives its budget is abandoned, retried, and finally
    reported as a timeout failure (pool mode only)."""
    spec = ExperimentSpec.make("sleepy", "mini3", 7, sleep_s=3.0)
    config = EngineConfig(workers=2, timeout_s=0.3, retries=1,
                          backoff_base_s=0.0, max_failures=5)
    engine = CampaignEngine([spec], tmp_path / "t.jsonl", config=config)
    stats = engine.run()
    assert stats.timeouts == 2  # first attempt + its retry
    assert stats.failed == 1 and stats.completed == 0
    assert "Timeout" in stats.failures[0].error


def test_duplicate_task_keys_rejected():
    spec = ExperimentSpec.make("rng_probe", "mini3", 7, idx=1)
    with pytest.raises(ValueError, match="duplicate task key"):
        check_specs([spec, spec])


def test_unknown_preset_rejected_before_any_work(tmp_path):
    spec = ExperimentSpec.make("rng_probe", "atlantis", 7)
    with pytest.raises(KeyError, match="unknown testbed preset"):
        run_campaign([spec], tmp_path / "x.jsonl", workers=0)


def test_scenario_campaign_aggregates_runner_stats(tmp_path):
    stats = scenario_campaign("mini3", [7, 8], ["mini3-mixed"],
                              tmp_path / "sc.jsonl", workers=0,
                              horizon_s=90.0)
    assert stats.completed == 2
    assert stats.runner["quanta"] > 0
    assert 0.0 <= stats.runner["cache_hit_rate"] <= 1.0
    assert stats.runner.get("invariant_violations", 0) == 0
    _, tasks = read_artifacts(tmp_path / "sc.jsonl")
    flows = {r["flow"] for t in tasks for r in t.records}
    assert flows == {"cbr", "file", "wifi"}


def test_cli_campaign_end_to_end(tmp_path, capsys):
    out = tmp_path / "cli.jsonl"
    rc = main(["campaign", "--preset", "mini3", "--seeds", "7,8",
               "--out", str(out), "--workers", "0", "--duration", "2",
               "--interval", "0.5", "--quiet"])
    text = capsys.readouterr().out
    assert rc == 0
    assert "campaign survey-mini3" in text
    # Rerun resumes everything and reports it.
    rc = main(["campaign", "--preset", "mini3", "--seeds", "7,8",
               "--out", str(out), "--workers", "0", "--duration", "2",
               "--interval", "0.5", "--quiet"])
    text = capsys.readouterr().out
    assert rc == 0
    assert ["12"] == [
        row.split()[-1] for row in text.splitlines()
        if row.startswith("resumed")]

    rc = main(["report", str(out)])
    text = capsys.readouterr().out
    assert rc == 0
    assert "task census" in text and "survey_pair" in text


# --- failure-path units (chaos PR satellites) ---------------------------------


def test_expire_timeouts_abandons_only_overdue_attempts(tmp_path):
    """Unit-level sweep of ``_expire_timeouts``: attempts past the budget
    are abandoned (timeout counted, retry scheduled with the
    deterministic error string); in-budget attempts stay in flight."""
    import itertools
    from concurrent.futures import Future

    from repro.campaign import CampaignStats
    from repro.obs import FakeClock

    spec_old = ExperimentSpec.make("rng_probe", "mini3", 7, idx=0)
    spec_new = ExperimentSpec.make("rng_probe", "mini3", 7, idx=1)
    clock = FakeClock(start=100.0)
    engine = CampaignEngine(
        [spec_old, spec_new], tmp_path / "x.jsonl",
        config=EngineConfig(workers=1, timeout_s=1.0, retries=1,
                            backoff_base_s=0.0),
        clock=clock)
    now = clock.now()
    stale, fresh = Future(), Future()
    in_flight = {stale: (spec_old, 0, now - 5.0),
                 fresh: (spec_new, 0, now - 0.01)}
    heap, stats = [], CampaignStats()
    abandoned = engine._expire_timeouts(in_flight, heap,
                                        itertools.count(), stats)
    assert abandoned == 1
    assert list(in_flight) == [fresh]  # the in-budget attempt survives
    assert stats.timeouts == 1 and stats.retries == 1
    _, _, spec, attempt = heap[0]
    assert spec.task_key() == spec_old.task_key()
    assert attempt == 1  # retry carries the incremented attempt


def test_dead_pool_worker_is_an_infra_failure_not_a_crash(tmp_path):
    """A worker process that dies takes its future down with a
    ``BrokenProcessPool``; the engine books that attempt as an
    infrastructure failure and finishes the campaign."""
    import os

    from repro.campaign import read_quarantine, temporary_task_kind
    from repro.campaign.artifacts import quarantine_path_for
    from repro.obs.metrics import global_registry

    parent = os.getpid()

    def die(spec, attempt):
        if os.getpid() != parent:  # never kill the test process itself
            os._exit(1)
        raise AssertionError("must run in a pool worker")

    reg = global_registry()
    before = reg.counter("backend.infra_failures")
    out = tmp_path / "dead.jsonl"
    with temporary_task_kind("dead_worker", die):
        stats = run_campaign(
            [ExperimentSpec.make("dead_worker", "mini3", 7)], out,
            workers=1, retries=0, quarantine=True)
    assert stats.quarantined == 1 and stats.completed == 0
    assert reg.counter("backend.infra_failures") == before + 1
    [entry] = read_quarantine(quarantine_path_for(out))
    assert entry.error.startswith("BrokenProcessPool(")


def test_retry_heap_is_fifo_under_equal_deadlines(tmp_path):
    """Retries whose backoffs expire at the same instant dequeue in
    submission order — the tiebreak counter, not spec comparison (specs
    are unorderable) or hash order, decides."""
    import heapq
    import itertools

    from repro.campaign import CampaignStats
    from repro.obs import FakeClock

    specs = [ExperimentSpec.make("rng_probe", "mini3", 7, idx=i)
             for i in range(4)]
    engine = CampaignEngine(
        specs, tmp_path / "x.jsonl",
        config=EngineConfig(workers=1, retries=3, backoff_base_s=0.0),
        clock=FakeClock(start=1000.0))
    heap, tiebreak, stats = [], itertools.count(), CampaignStats()
    for spec in specs:
        engine._handle_failure(spec, 0, "boom", heap, tiebreak, stats)
    assert {entry[0] for entry in heap} == {1000.0}  # all deadlines equal
    popped = [heapq.heappop(heap)[2].task_key() for _ in range(len(specs))]
    assert popped == [s.task_key() for s in specs]


def test_breaker_threshold_boundary_is_exact(tmp_path):
    """``max_failures`` is inclusive: exactly N permanent failures
    complete the campaign; the (N+1)-th opens the breaker."""
    specs = [ExperimentSpec.make("flaky", "mini3", s, fail_attempts=9)
             for s in (7, 8, 9)]
    stats = run_campaign(specs, tmp_path / "at-cap.jsonl", workers=0,
                         retries=0, max_failures=3)
    assert stats.failed == 3 and stats.completed == 0
    assert len(stats.failures) == 3
    with pytest.raises(CampaignAborted):
        run_campaign(specs, tmp_path / "over-cap.jsonl", workers=0,
                     retries=0, max_failures=2)
