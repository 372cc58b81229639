"""Snapshot-plane benchmarks: codec cost and time-sliced execution.

Two questions the snapshot plane must keep answering cheaply:

* ``snapshot.roundtrip`` — what does freezing a paused mid-campaign
  :class:`~repro.netsim.runner.ScenarioRunner` to the versioned wire
  format (and thawing it back) cost? This is pure codec work — the
  per-slice tax every checkpoint pays.
* ``snapshot.fig13_straight`` / ``snapshot.fig13_sliced`` — the §6
  temporal-study workload (five two-week ``mini3-longhaul`` scenario
  tasks, the Fig. 13/14 long-run shape) on four process workers, run
  monolithically vs time-sliced at K=8. Five tasks on four workers
  leave the straight run with a straggler round (makespan ``2T``);
  slicing pipelines the tail across the idle workers (ideal ``1.25T``).

The pipelining win is a *parallel hardware* property: on a single-core
host the two runs serialize identically and slicing can only add its
checkpoint overhead. The smoke check therefore gates "sliced beats
straight" only where ``os.cpu_count() >= 2`` and bounds the overhead
ratio everywhere — so single-core CI still catches a codec or
scheduling regression, without asserting physics it cannot exhibit.
Byte-identity of sliced artifacts is *not* re-asserted here — that is
the ``diff_slice_equivalence`` oracle's job in the verify suite.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from pathlib import Path

from repro.bench.spec import benchmark, register_smoke
from repro.campaign import run_campaign
from repro.campaign.spec import ExperimentSpec

#: The Fig. 13 workload: five two-week scenario tasks on four workers.
N_TASKS = 5
WORKERS = 4
SLICES = 8
PRESET = "mini3"
SEED = 7
TWO_WEEKS = 14 * 24 * 3600.0
#: Coarse quantum: 168 quanta per two-week task keeps one task around a
#: second of CPU — long enough to dwarf per-slice checkpoint I/O, short
#: enough that the straight/sliced pair stays a sub-minute benchmark.
QUANTUM_S = 7200.0

#: Smoke bound everywhere: sliced wall-clock may exceed straight by at
#: most this factor (checkpoint encode/decode + one extra dispatch round
#: per slice). Generous — the measured single-core ratio is ~1.02x.
MAX_OVERHEAD_RATIO = 1.35


def _fig13_specs():
    return [ExperimentSpec.make("scenario", PRESET, SEED + k,
                                scenario="mini3-longhaul",
                                horizon_s=TWO_WEEKS, quantum_s=QUANTUM_S)
            for k in range(N_TASKS)]


class _CampaignState:
    """Shared fig13 state: the spec list and a scratch directory."""

    def __init__(self) -> None:
        self.specs = _fig13_specs()
        self._tmp = tempfile.TemporaryDirectory(prefix="repro-bench-")
        self.out_dir = self._tmp.name

    def run(self, name: str, **kwargs):
        from repro.snapshot import snapshot_dir_for

        path = Path(self.out_dir) / f"{name}.jsonl"
        if path.exists():
            path.unlink()
        # Clear the checkpoint sidecar too, or a later repeat would
        # resume the first repeat's slices and time a partial run.
        shutil.rmtree(snapshot_dir_for(path), ignore_errors=True)
        stats = run_campaign(self.specs, path, workers=WORKERS,
                             resume=False, **kwargs)
        assert stats.completed == N_TASKS
        return stats


class _PausedRunnerState:
    """A runner paused mid-scenario: the object every slice checkpoints."""

    def __init__(self) -> None:
        from repro.compile import checkout_testbed
        from repro.netsim.runner import ScenarioRunner
        from repro.netsim.scenario import build_scenario

        t0 = 14 * 3600.0
        self.testbed = checkout_testbed(PRESET, seed=SEED)
        self.runner = ScenarioRunner(self.testbed, quantum_s=0.5)
        self.scenario = build_scenario("mini3-mixed", t0)
        self.results = self.runner.run(self.scenario, horizon_s=120.0,
                                       until_s=t0 + 60.0)
        assert self.runner.paused


@benchmark("snapshot.roundtrip", setup=_PausedRunnerState, repeats=5,
           warmup=1, tags=("snapshot", "codec"),
           description="snapshot -> canonical JSON -> parse -> verify "
                       "of a paused mid-scenario runner (per-slice "
                       "checkpoint tax)")
def _roundtrip(ctx, state):
    from repro.snapshot import dump_snapshot, load_snapshot

    snap = state.runner.snapshot(state.scenario, state.results)
    blob = dump_snapshot(snap)
    thawed = load_snapshot(blob)
    assert thawed.payload == snap.payload
    return {"blob_bytes": float(len(blob))}


@benchmark("snapshot.fig13_straight", setup=_CampaignState, repeats=2,
           warmup=0, tags=("snapshot", "campaign"), figure="fig13",
           description=f"{N_TASKS} two-week mini3-longhaul tasks, "
                       f"{WORKERS} process workers, monolithic")
def _fig13_straight(ctx, state):
    state.run("straight")
    return {"n_tasks": float(N_TASKS), "workers": float(WORKERS)}


@benchmark("snapshot.fig13_sliced", setup=_CampaignState, repeats=2,
           warmup=0, tags=("snapshot", "campaign"), figure="fig13",
           description=f"{N_TASKS} two-week mini3-longhaul tasks, "
                       f"{WORKERS} process workers, time-sliced at "
                       f"K={SLICES}")
def _fig13_sliced(ctx, state):
    state.run("sliced", slice_horizon_s=TWO_WEEKS / SLICES)
    return {"n_tasks": float(N_TASKS), "workers": float(WORKERS),
            "slices_per_task": float(SLICES)}


def _smoke_slicing(doc):
    straight = doc.results["snapshot.fig13_straight"]
    sliced = doc.results["snapshot.fig13_sliced"]
    ratio = sliced.min_s / straight.min_s
    if ratio > MAX_OVERHEAD_RATIO:
        yield (f"sliced fig13 run is {ratio:.2f}x the straight "
               f"wall-clock (overhead ceiling: {MAX_OVERHEAD_RATIO}x)")
    cores = os.cpu_count() or 1
    if cores >= 2 and ratio >= 1.0:
        yield (f"sliced fig13 run ({sliced.min_s:.2f}s) did not beat "
               f"the straight run ({straight.min_s:.2f}s) on a "
               f"{cores}-core host — slice pipelining is not winning")


register_smoke("snapshot.fig13_pipelining", _smoke_slicing)
