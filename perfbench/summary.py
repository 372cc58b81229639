"""Metric catalogue and the arithmetic that turns one run into a report.

Kept free of any ``repro`` import so the report logic can be tested
without running the program.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Mapping, Optional, Sequence

#: Every percentile must have at least this many samples above it.
MIN_SAMPLES_BEYOND = 10

#: End-to-end metrics, measured with tracing off: name -> unit.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "makespan_s": "s",
    "sim_s_per_host_s": "ratio",
    "unit_p50_s": "s",
    "unit_p90_s": "s",
    "peak_rss_mb": "MB",
}

#: Printed with the end-to-end metrics but left out of the JSON result:
#: it reads 0 on every healthy run, so no relative bound can apply to it.
FAILED_RATIO = ("failed_ratio", "ratio")


def samples_needed(q: float) -> int:
    """Fewest samples for which the ``q`` quantile has
    :data:`MIN_SAMPLES_BEYOND` samples above it."""
    return math.ceil(MIN_SAMPLES_BEYOND / (1.0 - q) - 1e-9)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q`` quantile of ``values``.

    Refuses (``ValueError``) when fewer than :data:`MIN_SAMPLES_BEYOND`
    samples lie above the chosen rank, so p90 needs 100 samples.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {q}")
    n = len(values)
    rank = max(1, math.ceil(q * n - 1e-9))
    if n - rank < MIN_SAMPLES_BEYOND:
        raise ValueError(
            f"p{q * 100:g} of {n} samples has {n - rank} above it; "
            f"need {MIN_SAMPLES_BEYOND} (at least {samples_needed(q)} "
            f"samples)")
    return sorted(values)[rank - 1]


#: Typical median host time of ``child.calibrate()`` on the reference
#: host (a 2-core KVM guest on a Xeon Sapphire Rapids), right after
#: set-up and between units; the two differ by cache state.
REF_CALIB_S = {"setup": 4.5e-4, "run": 6.3e-4}


#: Calibration samples on each side of a unit that set its speed factor.
FACTOR_WINDOW = 5


def speed_factor(calib_samples: Sequence[float], context: str) -> float:
    """Reference calibration time over the median measured one: multiply
    a host time by it to get the time at the reference host speed."""
    return REF_CALIB_S[context] / statistics.median(calib_samples)


def unit_factors(calib_samples: Sequence[float]) -> List[float]:
    """Speed factor of each unit, from the calibration samples taken
    within :data:`FACTOR_WINDOW` units of it, so drift within a run is
    followed too."""
    n = len(calib_samples)
    return [speed_factor(calib_samples[max(0, i - FACTOR_WINDOW):
                                       i + FACTOR_WINDOW + 1], "run")
            for i in range(n)]


def run_factor(child: Mapping[str, object]) -> float:
    """The time-weighted speed factor of a whole workload process."""
    units = child["units"]
    factors = unit_factors(child["calib_s"])
    return sum(u * f for u, f in zip(units, factors)) / sum(units)


def end_to_end_metrics(child: Mapping[str, object],
                       setup_probes: Sequence[Sequence[float]],
                       normalize: bool = True) -> Dict[str, float]:
    """The end-to-end metrics of one untraced workload process.

    ``child`` is the JSON the workload process reported: ``units`` (host
    seconds per unit), ``makespan_s``, ``sim_s``, ``peak_rss_kb`` and
    the ``calib_s`` sample taken after each unit. ``setup_probes`` holds
    one ``(setup seconds, calibration seconds)`` pair per process. With
    ``normalize`` each unit is scaled by its :func:`unit_factors` entry,
    the makespan by :func:`run_factor` and each set-up time by its own
    probe's :func:`speed_factor`.
    """
    units = list(child["units"])
    if normalize:
        units = [u * f for u, f in zip(units,
                                       unit_factors(child["calib_s"]))]
        setup = [seconds * speed_factor([calib], "setup")
                 for seconds, calib in setup_probes]
        makespan = float(child["makespan_s"]) * run_factor(child)
    else:
        setup = [seconds for seconds, _ in setup_probes]
        makespan = float(child["makespan_s"])
    return {
        "setup_s": statistics.median(setup),
        "makespan_s": makespan,
        "sim_s_per_host_s": float(child["sim_s"]) / makespan,
        "unit_p50_s": percentile(units, 0.5),
        "unit_p90_s": percentile(units, 0.9),
        "peak_rss_mb": float(child["peak_rss_kb"]) / 1024.0,
    }


def report_lines(workload: str, metrics: Mapping[str, float],
                 raw: Mapping[str, float], attempted: int, failed: int,
                 unit_name: str, setup_count: int) -> List[str]:
    """Human-readable lines: every metric by name, unit and sample count,
    next to its raw (unnormalised) host value."""
    counts = {"setup_s": f"n={setup_count} processes",
              "unit_p50_s": f"n={attempted} {unit_name}s",
              "unit_p90_s": f"n={attempted} {unit_name}s"}
    lines = [f"[{workload}]  {'metric':<18} {'normalised':>14} {'unit':<6} "
             f"{'raw host':>14}"]
    for name, unit in END_TO_END.items():
        note = counts.get(name, "")
        lines.append(f"  {name:<18} {metrics[name]:>14.6f} {unit:<6} "
                     f"{raw[name]:>14.6f}  {note}".rstrip())
    name, unit = FAILED_RATIO
    ratio = failed / attempted if attempted else 1.0
    lines.append(f"  {name:<18} {ratio:>14.6f} {unit:<6} "
                 f"{ratio:>14.6f}  failed={failed} attempted={attempted}")
    return lines


def result_line_metrics(values: Mapping[str, float],
                        units: Mapping[str, str]
                        ) -> Dict[str, Dict[str, object]]:
    """``{"name": {"value": v, "unit": u}}`` for the JSON result line."""
    return {name: {"value": float(values[name]), "unit": units[name]}
            for name in units}


def spread(values: Sequence[float]) -> Optional[float]:
    """Inter-quartile distance as a share of the median (None if < 2)."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


#: Per-layer metrics of the traced run: name -> unit.
PER_LAYER: Dict[str, str] = {
    "campaign.overhead_s": "s",
    "campaign.units": "count",
    "campaign.artifact_write_s": "s",
    "compile.checkout_s": "s",
    "compile.cache_hit_ratio": "ratio",
    "testbed.measure_pair_s": "s",
    "medium.series_calls": "count",
    "medium.samples": "count",
    "medium.sample_series_s": "s",
    "plc.path_loss_calls": "count",
    "plc.path_loss_s": "s",
    "plc.snr_s": "s",
    "wifi.sample_series_s": "s",
    "powergrid.load_calls": "count",
    "powergrid.load_s": "s",
    "powergrid.is_on_calls": "count",
    "sim.fresh_calls": "count",
    "netsim.run_s": "s",
    "netsim.quanta": "count",
    "netsim.capacity_cache_hit_ratio": "ratio",
    "snapshot.checkpoints": "count",
    "snapshot.bytes": "bytes",
    "snapshot.encode_s": "s",
    "snapshot.save_s": "s",
    "snapshot.load_s": "s",
    "hybrid.saturated_s": "s",
    "hybrid.packet_level_s": "s",
    "hybrid.reorder_push_s": "s",
    "hybrid.capacity_probes": "count",
    "hybrid.packets": "count",
    "obs.trace_overhead_ratio": "ratio",
}
