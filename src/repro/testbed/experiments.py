"""Measurement runners the benchmarks share.

Each function mirrors one of the paper's experimental protocols so the
per-figure benchmarks stay short and declarative.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.metrics import MetricSeries
from repro.sim.clock import MainsClock
from repro.testbed.builder import Testbed
from repro.traffic.iperf import run_udp_test
from repro.units import MBPS, MINUTE


@dataclass(frozen=True)
class PairSurveyRow:
    """One directed pair of the Fig. 3 survey."""

    src: int
    dst: int
    air_distance_m: float
    cable_distance_m: float
    plc_mean_mbps: float
    plc_std_mbps: float
    wifi_mean_mbps: float
    wifi_std_mbps: float

    @property
    def plc_connected(self) -> bool:
        return self.plc_mean_mbps > 1.0

    @property
    def wifi_connected(self) -> bool:
        return self.wifi_mean_mbps > 1.0

    def to_dict(self) -> Dict[str, float]:
        """Plain-dict form (campaign artifact records, CSV export)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, float]) -> "PairSurveyRow":
        return cls(**data)


def measure_pair(testbed: Testbed, src: int, dst: int, t_start: float,
                 duration: float = 5 * MINUTE,
                 report_interval: float = 0.1) -> PairSurveyRow:
    """Measure one directed pair on both media (§4.1, back-to-back).

    This is the single implementation of the survey protocol: both the
    serial :func:`survey_pairs` and the parallel campaign engine's
    ``survey_pair`` task execute pairs through it.
    """
    plc = testbed.plc_link(src, dst)
    wifi = testbed.wifi_link(src, dst)
    plc_series = run_udp_test(plc, t_start, duration, report_interval)
    wifi_series = run_udp_test(wifi, t_start + duration, duration,
                               report_interval)
    return PairSurveyRow(
        src=src, dst=dst,
        air_distance_m=testbed.air_distance(src, dst),
        cable_distance_m=testbed.cable_distance(src, dst),
        plc_mean_mbps=plc_series.mean / MBPS,
        plc_std_mbps=plc_series.std / MBPS,
        wifi_mean_mbps=wifi_series.mean / MBPS,
        wifi_std_mbps=wifi_series.std / MBPS)


def survey_pairs(testbed: Testbed, t_start: float,
                 duration: float = 5 * MINUTE,
                 report_interval: float = 0.1,
                 pairs: Optional[List[Tuple[int, int]]] = None
                 ) -> List[PairSurveyRow]:
    """§4.1's protocol: back-to-back saturated tests on both media.

    For every directed same-board pair, measure PLC then WiFi for
    ``duration`` at ``report_interval`` and record mean and std, one
    pair at a time through :func:`measure_pair` (the same code the
    campaign engine's ``survey_pair`` task runs); use
    ``repro.campaign.survey_campaign`` to fan the same measurements out
    across worker processes.
    """
    if pairs is None:
        pairs = testbed.same_board_pairs()
    return [measure_pair(testbed, i, j, t_start, duration,
                         report_interval) for i, j in pairs]


def poll_ble_series(testbed: Testbed, src: int, dst: int, t_start: float,
                    duration: float, interval: float = 0.05
                    ) -> MetricSeries:
    """§6.2's protocol: request average BLE by MM every 50 ms.

    The whole poll sequence is one ``sample_series`` batch over the link's
    medium contract — the MM floor of one request per 50 ms is still
    enforced up front, because §6.2's measurement design depends on it.
    """
    from repro.plc.mm import MM_MIN_INTERVAL_S, MmRateLimitError

    if interval < MM_MIN_INTERVAL_S - 1e-9:
        raise MmRateLimitError(
            f"polling every {interval:.3f}s is below the MM floor of "
            f"{MM_MIN_INTERVAL_S}s")
    link = testbed.plc_link(src, dst)
    assert link is not None
    times = np.arange(t_start, t_start + duration, interval)
    # int6krate reports in Mbps; mirror its round-trip scaling exactly.
    values = link.sample_series(times,
                                measured=False).column("avg_ble_bps")
    return MetricSeries(times, values / MBPS * MBPS,
                        name=f"BLE-{src}-{dst}")


#: Figs. 12–14 metric names → medium-contract series columns.
_LONG_RUN_COLUMNS = {"ble": "avg_ble_bps", "throughput": "throughput_bps",
                     "pberr": "pb_err"}


def long_run_series(testbed: Testbed, src: int, dst: int, t_start: float,
                    duration: float, interval: float = 60.0,
                    metric: str = "ble") -> MetricSeries:
    """Random-scale sampling (Figs. 12–14): one sample per ``interval``."""
    link = testbed.plc_link(src, dst)
    assert link is not None
    try:
        column = _LONG_RUN_COLUMNS[metric]
    except KeyError:
        raise ValueError(f"unknown metric {metric!r}") from None
    times = np.arange(t_start, t_start + duration, interval)
    # Only throughput carries measurement noise; BLE/PBerr are MM reads.
    series = link.sample_series(times,
                                measured=(metric == "throughput"))
    return MetricSeries(times, series.column(column),
                        name=f"{metric}-{src}-{dst}")


def working_hours_start(clock: Optional[MainsClock] = None,
                        day: int = 2, hour: float = 14.0) -> float:
    """A canonical 'during working hours' measurement start (Wed 2 pm).

    ``clock=None`` builds a fresh default clock per call — a mutable
    default instance here would be shared by every caller (the classic
    mutable-default-argument hazard).
    """
    return (clock if clock is not None else MainsClock()).at(day=day,
                                                            hour=hour)


def night_start(clock: Optional[MainsClock] = None, day: int = 2,
                hour: float = 23.5) -> float:
    """A canonical quiet-hours start (§6.2 runs at night/weekends)."""
    return (clock if clock is not None else MainsClock()).at(day=day,
                                                            hour=hour)
