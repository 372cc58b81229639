"""Campaign-engine chaos: poison tasks, torn writes, hangs, crashes.

The engine's contracts under injected faults:

* **work conservation** — every spec is accounted for exactly once:
  completed, resumed, or quarantined;
* **byte identity for survivors** — the finalized artifact (and the
  quarantine sidecar) are byte-identical at any worker count, however
  crashes and retries interleave;
* **quarantine** — deterministically poisoned specs land in the
  ``*.quarantine.jsonl`` sidecar instead of tripping the circuit
  breaker, and recover out of it on a later clean run;
* **torn writes** — a half-written artifact line (a killed run) is
  discarded on resume and the rerun converges to the clean bytes.
"""

from __future__ import annotations

import pytest

from repro.campaign import (
    CampaignEngine,
    EngineConfig,
    read_artifacts,
    read_quarantine,
    run_campaign,
    spec_grid,
)
from repro.campaign.artifacts import quarantine_path_for
from repro.faults import classify_task

#: Classification rates for the standing chaos population.
RATES = {"poison_rate": 0.25, "crash_rate": 0.3, "hang_rate": 0.0}


def _chaos_specs(chaos_seed, n=12, **overrides):
    params = {"fault_seed": chaos_seed, **RATES, "crashes": 1,
              "draws": 4, **overrides}
    return spec_grid("chaos_probe", ["mini3"], range(n), **params)


def _fates(specs, chaos_seed):
    return {s.task_key(): classify_task(
        chaos_seed, s.task_key(), RATES["poison_rate"],
        RATES["crash_rate"], RATES["hang_rate"]) for s in specs}


def test_chaos_population_exercises_every_fate(chaos_seed):
    """The standing population must contain poison, crash and clean
    tasks, or the suite below tests nothing."""
    fates = set(_fates(_chaos_specs(chaos_seed), chaos_seed).values())
    assert {"poison", "crash", "clean"} <= fates


def test_classification_is_per_class_independent(chaos_seed):
    """Tuning one class's rate never changes another class's members."""
    specs = _chaos_specs(chaos_seed)
    poisoned = {k for k, f in _fates(specs, chaos_seed).items()
                if f == "poison"}
    without_crashes = {
        s.task_key() for s in specs
        if classify_task(chaos_seed, s.task_key(),
                         RATES["poison_rate"], 0.0, 0.0) == "poison"}
    assert poisoned == without_crashes


@pytest.mark.parametrize("workers", [1, 4])
def test_poison_quarantined_crashes_recover(tmp_path, chaos_seed,
                                            workers):
    """Poison -> sidecar; crashes retry to success; everyone accounted."""
    specs = _chaos_specs(chaos_seed)
    fates = _fates(specs, chaos_seed)
    out = tmp_path / f"chaos-w{workers}.jsonl"
    stats = run_campaign(specs, out, name="chaos", workers=workers,
                         retries=2, quarantine=True)
    poisoned = {k for k, f in fates.items() if f == "poison"}
    _, artifacts = read_artifacts(out)
    assert {a.task_key for a in artifacts} == set(fates) - poisoned
    entries = read_quarantine(quarantine_path_for(out))
    assert {e.task_key for e in entries} == poisoned
    assert stats.quarantined == len(poisoned)
    assert stats.failed == 0  # breaker untouched: default max_failures=0
    assert stats.completed + stats.quarantined == len(specs)
    assert all("poisoned task" in e.error for e in entries)


def test_survivor_artifacts_byte_identical_across_worker_counts(
        tmp_path, chaos_seed):
    """Same bytes inline and at workers=1 and 4, for both the artifact
    and the quarantine sidecar (whose error strings come from the
    worker-side ``repr`` on either path)."""
    specs = _chaos_specs(chaos_seed)
    paths = {}
    for workers in (0, 1, 4):
        out = tmp_path / f"w{workers}" / "chaos.jsonl"
        out.parent.mkdir()
        run_campaign(specs, out, name="chaos", workers=workers,
                     retries=2, quarantine=True)
        paths[workers] = out
    for workers in (1, 4):
        assert paths[0].read_bytes() == paths[workers].read_bytes()
        assert (quarantine_path_for(paths[0]).read_bytes()
                == quarantine_path_for(paths[workers]).read_bytes())


def test_torn_artifact_write_converges_on_resume(tmp_path, chaos_seed):
    """A kill mid-write leaves a torn tail; the rerun heals it to the
    clean run's exact bytes."""
    specs = _chaos_specs(chaos_seed)
    clean = tmp_path / "clean.jsonl"
    run_campaign(specs, clean, name="chaos", workers=0, retries=2,
                 quarantine=True)
    torn = tmp_path / "torn.jsonl"
    text = clean.read_text(encoding="utf-8")
    lines = text.splitlines(keepends=True)
    assert len(lines) > 3
    # Keep the header and a few complete lines, then tear the next line
    # in half — exactly what SIGKILL during an append leaves behind.
    torn.write_text("".join(lines[:3]) + lines[3][: len(lines[3]) // 2],
                    encoding="utf-8")
    stats = run_campaign(specs, torn, name="chaos", workers=0, retries=2,
                         quarantine=True)
    assert stats.resumed == 2  # the two surviving complete task lines
    assert torn.read_bytes() == clean.read_bytes()
    assert (quarantine_path_for(torn).read_bytes()
            == quarantine_path_for(clean).read_bytes())


def test_quarantined_task_recovers_on_a_healthier_rerun(tmp_path,
                                                        chaos_seed):
    """With retries=0 crash tasks are quarantined too; a rerun with
    retries lets them recover, and finalize drops them from the sidecar
    — only true poison stays."""
    specs = _chaos_specs(chaos_seed)
    fates = _fates(specs, chaos_seed)
    out = tmp_path / "recover.jsonl"
    first = run_campaign(specs, out, name="chaos", workers=0, retries=0,
                         quarantine=True)
    crashed = {k for k, f in fates.items() if f == "crash"}
    poisoned = {k for k, f in fates.items() if f == "poison"}
    assert first.quarantined == len(crashed | poisoned)
    second = run_campaign(specs, out, name="chaos", workers=0, retries=2,
                          quarantine=True)
    assert second.resumed == first.completed
    assert second.completed == len(crashed)
    entries = read_quarantine(quarantine_path_for(out))
    assert {e.task_key for e in entries} == poisoned
    _, artifacts = read_artifacts(out)
    assert {a.task_key for a in artifacts} == set(fates) - poisoned


def test_hang_times_out_into_quarantine(tmp_path, chaos_seed):
    """A hung worker is abandoned by the timeout clock and the task is
    quarantined with a deterministic error string."""
    specs = spec_grid("chaos_probe", ["mini3"], [0],
                      fault_seed=chaos_seed, poison_rate=0.0,
                      crash_rate=0.0, hang_rate=1.0, hang_s=2.0)
    out = tmp_path / "hang.jsonl"
    engine = CampaignEngine(
        specs, out, name="chaos",
        config=EngineConfig(workers=1, timeout_s=0.3, retries=0,
                            quarantine=True))
    stats = engine.run()
    assert stats.timeouts == 1
    assert stats.quarantined == 1
    assert stats.wall_seconds < 1.5  # abandoned, not waited out (2 s)
    entries = read_quarantine(engine.quarantine_path)
    assert len(entries) == 1
    assert entries[0].error == "TimeoutError(attempt exceeded 0.3s)"


def test_quarantine_disabled_keeps_breaker_semantics(tmp_path,
                                                     chaos_seed):
    """Without opt-in, poison still trips the circuit breaker — the
    pre-quarantine contract is unchanged."""
    from repro.campaign import CampaignAborted

    specs = _chaos_specs(chaos_seed)
    with pytest.raises(CampaignAborted):
        run_campaign(specs, tmp_path / "breaker.jsonl", name="chaos",
                     workers=0, retries=0)
