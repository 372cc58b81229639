"""The three benchmark workloads, each a sequence of seeded rounds.

A run with seed ``s`` executes rounds ``s, s+1, ...``; a round's seed is
the world seed of the testbed it builds, so its inputs — and its output
digest — depend on that seed alone. The number of rounds follows from
the requested run length, with a floor that gives every run at least
100 units (p90 needs ten samples beyond it).

All three are closed loops with one client: one process, the inline
campaign backend, one thread.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

TWO_WEEKS_S = 14 * 24 * 3600.0
MIN_UNITS = 100

Tick = Callable[[], None]


class CheckFailed(RuntimeError):
    """A round's output or accounting check did not hold."""


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass
class RoundResult:
    """What one executed round leaves for the checks and the report."""

    seed: int
    sim_s: float
    digest: str
    #: ``CampaignStats.to_dict()`` for campaign rounds.
    campaign: Optional[Dict[str, object]] = None
    snapshot_bytes: int = 0


def check_campaign(stats, expected: int) -> None:
    """Every task completed and the engine's accounting holds."""
    if stats.completed != expected or stats.failed or stats.quarantined:
        raise CheckFailed(
            f"{stats.completed}/{expected} tasks completed, "
            f"{stats.failed} failed, {stats.quarantined} quarantined")
    if not stats.check_accounting() or stats.invariant_violations:
        raise CheckFailed(
            f"campaign accounting broken: task_seconds "
            f"{stats.task_seconds} over wall {stats.wall_seconds}")
    runner_violations = stats.runner.get("invariant_violations", 0)
    if runner_violations:
        raise CheckFailed(f"{runner_violations} runner invariant "
                          f"violations")


class Workload:
    """One workload: how to prepare a round's inputs and run it."""

    name = ""
    unit = ""
    units_per_round = 0
    #: Host seconds one round takes on the reference host (2-core VM);
    #: only used to turn ``--seconds`` into a round count.
    nominal_round_s = 10.0

    def rounds(self, seconds: float) -> int:
        floor = math.ceil(MIN_UNITS / self.units_per_round)
        return max(floor, int(seconds / self.nominal_round_s + 0.5))

    def prepare(self, seed: int):
        raise NotImplementedError

    def execute(self, inputs, workdir: Path, tick: Tick,
                straight: bool = False) -> RoundResult:
        raise NotImplementedError


class Survey(Workload):
    """§4.1: every directed same-board ``office`` pair, PLC then WiFi."""

    name = "survey"
    unit = "task"
    units_per_round = 174
    nominal_round_s = 6.5
    #: One task measures 30 s of PLC, then 30 s of WiFi.
    sim_s_per_unit = 60.0

    def prepare(self, seed: int):
        from repro.campaign import survey_specs
        from repro.compile import compiled_testbed

        world = compiled_testbed("office", seed=seed).template
        specs = survey_specs("office", [seed], world.same_board_pairs(),
                             duration_s=30.0, interval_s=1.0)
        if len(specs) != self.units_per_round:
            raise CheckFailed(f"office preset gave {len(specs)} pairs, "
                              f"expected {self.units_per_round}")
        return seed, specs

    def execute(self, inputs, workdir, tick, straight=False):
        from repro.campaign import run_campaign

        seed, specs = inputs
        out = workdir / f"survey-{seed}.jsonl"

        def progress(event, detail, stats):
            if event == "done":
                tick()

        stats = run_campaign(specs, out, name=f"survey-{seed}",
                             workers=0, progress=progress)
        check_campaign(stats, len(specs))
        return RoundResult(seed=seed,
                           sim_s=self.sim_s_per_unit * len(specs),
                           digest=sha256_file(out),
                           campaign=stats.to_dict())


class LonghaulSliced(Workload):
    """§6 Fig. 13/14: two-week ``mini3-longhaul`` runs, time-sliced.

    A round is one ``mini3`` world running the scenario from each of
    the seven days of the week; each task is cut into eight slices.
    """

    name = "longhaul-sliced"
    unit = "slice"
    start_days = tuple(range(7))
    slices = 8
    units_per_round = len(start_days) * slices
    nominal_round_s = 11.0
    quantum_s = 7200.0

    def prepare(self, seed: int):
        from repro.campaign import ExperimentSpec
        from repro.compile import compiled_testbed

        compiled_testbed("mini3", seed=seed)
        specs = [ExperimentSpec.make("scenario", "mini3", seed,
                                     scenario="mini3-longhaul", day=day,
                                     horizon_s=TWO_WEEKS_S,
                                     quantum_s=self.quantum_s)
                 for day in self.start_days]
        return seed, specs

    def execute(self, inputs, workdir, tick, straight=False):
        from repro.campaign import run_campaign
        from repro.snapshot import snapshot_dir_for

        seed, specs = inputs
        out = workdir / f"longhaul-{seed}.jsonl"

        def progress(event, detail, stats):
            if event in ("slice", "done"):
                tick()

        slice_horizon = None if straight else TWO_WEEKS_S / self.slices
        stats = run_campaign(specs, out, name=f"longhaul-{seed}",
                             workers=0, progress=progress,
                             slice_horizon_s=slice_horizon)
        check_campaign(stats, len(specs))
        checkpoints = snapshot_dir_for(out)
        snapshot_bytes = (sum(p.stat().st_size
                              for p in checkpoints.iterdir())
                          if checkpoints.is_dir() else 0)
        return RoundResult(seed=seed, sim_s=TWO_WEEKS_S * len(specs),
                           digest=sha256_file(out),
                           campaign=stats.to_dict(),
                           snapshot_bytes=snapshot_bytes)


class HybridBond(Workload):
    """§7.4 / Fig. 20: bonded PLC+WiFi devices driven directly.

    A round draws ``pairs`` distinct ``office`` pairs from its seed and
    makes two calls per pair: a saturated hybrid run and a packet-level
    hybrid run through the reorder buffer.
    """

    name = "hybrid-bond"
    unit = "call"
    pairs = 10
    units_per_round = 2 * pairs
    nominal_round_s = 3.0
    saturated_s = 2.0
    quantum_s = 0.1
    quanta = round(saturated_s / quantum_s)
    #: Packet count, and so cost, grows with the pair's rate; a short
    #: run keeps the packet-level share of the round's variance small.
    packet_level_s = 0.005

    def prepare(self, seed: int):
        import numpy as np

        from repro.compile import compiled_testbed

        world = compiled_testbed("office", seed=seed).template
        pairs = world.same_board_pairs()
        picks = np.random.default_rng(seed).choice(
            len(pairs), size=self.pairs, replace=False)
        return seed, [tuple(int(v) for v in pairs[k]) for k in picks]

    def execute(self, inputs, workdir, tick, straight=False):
        from repro.compile import checkout_testbed
        from repro.hybrid import HybridDevice
        from repro.testbed.experiments import working_hours_start

        seed, pairs = inputs
        testbed = checkout_testbed("office", seed=seed)
        t0 = working_hours_start()
        calls: List[Dict[str, object]] = []
        for src, dst in pairs:
            device = HybridDevice(testbed.plc_link(src, dst),
                                  testbed.wifi_link(src, dst),
                                  testbed.streams)
            sat = device.run_saturated("hybrid", t0,
                                       duration=self.saturated_s,
                                       quantum_s=self.quantum_s)
            if len(sat.throughput) != self.quanta:
                raise CheckFailed(f"saturated run {src}->{dst} returned "
                                  f"{len(sat.throughput)} quanta, "
                                  f"expected {self.quanta}")
            calls.append({"pair": [src, dst], "call": "saturated",
                          "values": [float(v)
                                     for v in sat.throughput.values],
                          "failovers": sat.failovers})
            tick()
            stats = device.run_packet_level(
                "hybrid", t0, duration=self.packet_level_s,
                check_invariants=True)
            calls.append({"pair": [src, dst], "call": "packet_level",
                          "delivered": stats.delivered,
                          "reordered_arrivals": stats.reordered_arrivals,
                          "holes_flushed": stats.holes_flushed,
                          "release_times": [float(t) for t in
                                            stats.release_times]})
            tick()
        digest = hashlib.sha256(
            canonical_json(calls).encode("utf-8")).hexdigest()
        sim_s = len(pairs) * (self.saturated_s + self.packet_level_s)
        return RoundResult(seed=seed, sim_s=sim_s, digest=digest)


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (Survey(), LonghaulSliced(), HybridBond())}
