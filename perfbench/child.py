"""One workload process: prepare inputs, run the rounds, check outputs.

Started by ``run.py`` in a fresh interpreter (so ``setup_s`` includes the
imports) with ``PYTHONPATH`` pointing at the checkout's ``src``. Prints
one JSON object as its last stdout line. Modes:

* ``setup``  — prepare every round's inputs, report when they were ready;
* ``run``    — also run the rounds and check their outputs;
* ``record`` — run the rounds unsliced and report their digests, which
  ``run.py --record`` stores in ``digests.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"


def layer_metrics(agg, counts, registry, rounds, calib_s: float) -> dict:
    """The per-layer metrics of a traced run (``summary.PER_LAYER``).

    ``calib_s`` is the calibration time spent in progress callbacks,
    which the campaign engine books as its own overhead.
    """

    def self_s(*names):
        return sum(agg.get(n, {}).get("self_s", 0.0) for n in names)

    def calls(name):
        return agg.get(name, {}).get("calls", 0)

    def ratio(hits, misses):
        return hits / (hits + misses) if hits + misses else 0.0

    campaigns = [r.campaign for r in rounds if r.campaign]
    runner = [c["runner"] for c in campaigns]
    cache_hits = sum(r.get("cache_hits", 0) for r in runner)
    cache_misses = sum(r.get("cache_misses", 0) for r in runner)
    medium = registry.counters_with_prefix("medium.")
    return {
        "campaign.overhead_s": sum(c["wall_seconds"] - c["task_seconds"]
                                   for c in campaigns)
        - (calib_s if campaigns else 0.0),
        "campaign.units": sum(c["completed"] for c in campaigns),
        "campaign.artifact_write_s": self_s("campaign.artifact_write"),
        "compile.checkout_s": self_s("compile.checkout"),
        "compile.cache_hit_ratio": ratio(
            registry.counter("compile.cache.hits"),
            registry.counter("compile.cache.misses")),
        "testbed.measure_pair_s": self_s("testbed.measure_pair"),
        "medium.series_calls": sum(v for k, v in medium.items()
                                   if k.endswith(".series_calls")),
        "medium.samples": sum(v for k, v in medium.items()
                              if k.endswith(".samples")),
        "medium.sample_series_s": self_s("medium.plc.sample_series",
                                         "wifi.sample_series"),
        "plc.path_loss_calls": calls("plc.path_loss"),
        "plc.path_loss_s": self_s("plc.path_loss"),
        "plc.snr_s": self_s("plc.snr"),
        "wifi.sample_series_s": self_s("wifi.sample_series"),
        "powergrid.load_calls": calls("powergrid.load"),
        "powergrid.load_s": self_s("powergrid.load"),
        "powergrid.is_on_calls": counts.get("powergrid.is_on", 0),
        "sim.fresh_calls": counts.get("sim.fresh", 0),
        "netsim.run_s": self_s("netsim.run"),
        "netsim.quanta": sum(r.get("quanta", 0) for r in runner),
        "netsim.capacity_cache_hit_ratio": ratio(cache_hits, cache_misses),
        "snapshot.checkpoints": calls("snapshot.save"),
        "snapshot.bytes": sum(r.snapshot_bytes for r in rounds),
        "snapshot.encode_s": self_s("snapshot.encode"),
        "snapshot.save_s": self_s("snapshot.save"),
        "snapshot.load_s": self_s("snapshot.load"),
        "hybrid.saturated_s": self_s("hybrid.saturated"),
        "hybrid.packet_level_s": self_s("hybrid.packet_level"),
        "hybrid.reorder_push_s": self_s("hybrid.reorder_push"),
        "hybrid.capacity_probes": registry.counter("hybrid.capacity_probes"),
        "hybrid.packets": registry.counter("reorder.delivered"),
    }


def calibrate() -> float:
    """Host seconds of a fixed half-millisecond snippet of interpreter
    and small-numpy work.

    Run right after set-up and after every unit, it samples the host's
    current speed; ``summary.speed_factor`` turns the samples into the
    factor that normalises the run's times (see README, "Noise").
    """
    t0 = time.perf_counter()
    acc = 0
    table = {}
    for i in range(2000):
        acc += i * i % 7
        table[i & 255] = acc
    rng = np.random.default_rng(acc)
    arr = np.zeros(1024)
    for _ in range(8):
        arr = np.sort(arr + rng.normal(0.0, 1.0, size=arr.size))
    return time.perf_counter() - t0


def digest_checks(workload, seed, rounds):
    """Compare each round's digest with the recorded default-seed one.

    Returns ``(status per round, error or None)``; a non-default seed
    skips the comparison, every other check still applies.
    """
    recorded = json.loads(DIGESTS.read_text())
    table = recorded["workloads"].get(workload.name, {})
    statuses, errors = [], []
    for r in rounds:
        if seed != recorded["default_seed"]:
            statuses.append("skipped")
        elif str(r.seed) not in table:
            statuses.append("unrecorded")
        elif table[str(r.seed)] == r.digest:
            statuses.append("match")
        else:
            statuses.append("mismatch")
            errors.append(f"round {r.seed}: digest {r.digest} differs "
                          f"from the recorded {table[str(r.seed)]}")
    return statuses, "\n".join(errors) or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "record"),
                        required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    seeds = [args.seed + k for k in range(workload.rounds(args.seconds))]
    recorder = None
    tracing = contextlib.ExitStack()
    if args.trace:
        from spans import SpanRecorder, Tracing

        recorder = SpanRecorder()
        tracing.enter_context(Tracing(recorder))
    with tracing:
        inputs = [workload.prepare(s) for s in seeds]
        ready = time.perf_counter()
        setup_calib = statistics.median(calibrate() for _ in range(40))
        if args.mode == "setup":
            print(json.dumps({"ready": ready, "setup_calib_s": setup_calib}))
            return 0

        # A leftover artifact would be resumed instead of recomputed.
        shutil.rmtree(args.workdir, ignore_errors=True)
        args.workdir.mkdir(parents=True)
        unit_s, calib_s = [], []
        last = [time.perf_counter()]

        def tick():
            now = time.perf_counter()
            unit_s.append(now - last[0])
            calib_s.append(calibrate())
            last[0] = time.perf_counter()

        start = last[0]
        rounds, error = [], None
        try:
            for round_inputs in inputs:
                rounds.append(workload.execute(
                    round_inputs, args.workdir, tick,
                    straight=args.mode == "record"))
        except Exception:
            error = traceback.format_exc()
        makespan = time.perf_counter() - start - sum(calib_s)

    out = {
        "ready": ready, "setup_calib_s": setup_calib,
        "seeds": seeds, "unit": workload.unit,
        "units": unit_s, "makespan_s": makespan, "calib_s": calib_s,
        "sim_s": sum(r.sim_s for r in rounds),
        "attempted": len(seeds) * workload.units_per_round,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "numpy": np.__version__,
        "digests": {str(r.seed): r.digest for r in rounds},
    }
    if args.mode == "run":
        out["digest_checks"], digest_error = digest_checks(
            workload, args.seed, rounds)
        error = error or digest_error
        if error is None and len(unit_s) != out["attempted"]:
            error = (f"{len(unit_s)} of {out['attempted']} "
                     f"{workload.unit}s reported completion")
    out["error"] = error
    out["failed"] = out["attempted"] if error else 0
    if recorder is not None:
        from repro.obs import global_registry

        recorder.write(args.workdir / "spans.json")
        out["spans"] = len(recorder)
        out["layers"] = layer_metrics(recorder.aggregate(),
                                      recorder.counts, global_registry(),
                                      rounds, sum(calib_s))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
