"""Conformance suite for the ``repro.medium`` Link contract.

Three guarantees, for every link type (physical PLC, physical WiFi, and
the synthetic two-metric model):

* ``sample_series(ts)`` equals the per-``t`` ``sample`` loop **exactly**
  (bit-for-bit, every column), in both ``measured`` modes;
* series are deterministic functions of the world seed (and of seeds
  derived through :func:`repro.sim.random.derive_seed`);
* the batch path evaluates each channel state once, not once per
  timestamp, and a scalar ``sample`` runs the PLC PHY chain once;
* no consumer outside the ``plc``/``wifi`` packages imports channel/PHY
  internals — capacities flow only through the contract.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest

from repro.core.metrics import LinkMetricRecord
from repro.core.two_metric_model import (
    TwoMetricLinkModel,
    TwoMetricParameters,
)
from repro.medium.link import Link, series_from_samples
from repro.medium.registry import (
    constituent_media,
    get_medium,
    known_media,
    registered_media,
)
from repro.netsim.scenario import FlowRequest
from repro.sim.random import RandomStreams, derive_seed
from repro.testbed.builder import build_testbed
from repro.testbed.experiments import night_start, working_hours_start
from repro.wifi.channel import COHERENCE_TIME_S, WifiChannel
from repro.wifi.link import CAPACITY_PROBE_COUNT

_TM_PARAMS = TwoMetricParameters(
    slot_ble_bps=(80e6, 95e6, 110e6, 90e6, 85e6, 100e6),
    jitter_sigma_rel=0.05,
    jitter_hold_s=2.0,
    pb_err_base=0.02,
    pb_err_spread=0.8)


def _two_metric(seed: int) -> TwoMetricLinkModel:
    return TwoMetricLinkModel(_TM_PARAMS, RandomStreams(seed=seed),
                              name="tm-0-1")


@pytest.fixture(scope="module")
def world_pair():
    """Two independently built but identically seeded testbeds.

    The conformance tests drive one through the batch path and one
    through the scalar path; because the contract is exact (including
    noise-stream consumption), the worlds stay in lockstep across tests.
    """
    return build_testbed(seed=11), build_testbed(seed=11)


def _link_pair(kind: str, world_pair):
    if kind == "two-metric":
        return _two_metric(11), _two_metric(11)
    tb_a, tb_b = world_pair
    getter = {"plc": "plc_link", "wifi": "wifi_link"}[kind]
    return getattr(tb_a, getter)(0, 1), getattr(tb_b, getter)(0, 1)


def _grid(n_work: int, n_night: int, step: float) -> np.ndarray:
    """A time grid spanning both busy and quiet regimes, with a step
    incommensurate with the channels' block/jitter intervals."""
    return np.concatenate([
        working_hours_start() + np.arange(n_work) * step,
        night_start() + np.arange(n_night) * step])


#: Grid sizes per kind: PLC's scalar path is the slow one, keep it short.
GRIDS = {
    "plc": _grid(18, 18, 0.37),
    "wifi": _grid(120, 120, 0.05),
    "two-metric": _grid(60, 60, 0.11),
}


@pytest.mark.parametrize("measured", [False, True])
@pytest.mark.parametrize("kind", ["plc", "wifi", "two-metric"])
def test_sample_series_matches_scalar_loop(kind, measured, world_pair):
    """The contract's core promise: batch ≡ scalar, exactly."""
    link_batch, link_scalar = _link_pair(kind, world_pair)
    ts = GRIDS[kind]
    batch = link_batch.sample_series(ts, measured=measured)
    reference = series_from_samples(
        [link_scalar.sample(float(t), measured=measured) for t in ts],
        name=link_scalar.name, medium=link_scalar.medium)
    assert batch.medium == reference.medium == link_scalar.medium
    assert batch.data.dtype == reference.data.dtype
    assert len(batch) == len(ts)
    for field in reference.data.dtype.names:
        assert np.array_equal(batch.data[field], reference.data[field]), (
            f"{kind}: column {field!r} differs between sample_series and "
            f"the scalar sample loop (measured={measured})")


#: The §4.1 survey window: 5 minutes of 100 ms reports.
SURVEY_WINDOW = working_hours_start() + np.arange(0.0, 300.0, 0.1)


def _counting(monkeypatch, owner, attr):
    """Wrap ``owner.attr`` so each call bumps the returned counter."""
    calls = [0]
    original = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, wrapper)
    return calls


def test_plc_series_runs_the_phy_once_per_channel_group(monkeypatch):
    from repro.plc import phy

    link = build_testbed(seed=7).plc_link(0, 1)
    ts = SURVEY_WINDOW
    n_groups = len(link.channel.snr_series_groups(ts))
    calls = _counting(monkeypatch, phy, "ble_from_snr")
    link.sample_series(ts, measured=False)
    assert calls[0] == n_groups
    assert n_groups < len(ts)


def test_plc_sample_runs_the_phy_once_per_call(monkeypatch):
    from repro.plc import phy

    link = build_testbed(seed=7).plc_link(0, 1)
    calls = _counting(monkeypatch, phy, "ble_from_snr")
    for t in SURVEY_WINDOW[:50]:
        link.sample(float(t))
    assert calls[0] == 50


def test_wifi_series_draws_fading_once_per_coherence_block(monkeypatch):
    link = build_testbed(seed=7).wifi_link(0, 1)
    ts = SURVEY_WINDOW
    n_blocks = len(np.unique((ts / COHERENCE_TIME_S).astype(np.int64)))
    calls = _counting(monkeypatch, WifiChannel, "_draw_block_state")
    link.sample_series(ts, measured=False)
    assert calls[0] == n_blocks
    assert n_blocks < len(ts)


@pytest.mark.parametrize("kind", ["plc", "wifi", "two-metric"])
def test_link_satisfies_protocol(kind, world_pair):
    link = _link_pair(kind, world_pair)[0]
    assert isinstance(link, Link)
    assert link.medium in registered_media()


def test_series_deterministic_under_derived_seeds():
    """Equal (derived) seeds ⇒ byte-identical series; different ⇒ not."""
    ts = GRIDS["two-metric"]
    seed_a = derive_seed(7, "medium-contract", "world")
    seed_b = derive_seed(7, "medium-contract", "other")
    first = _two_metric(seed_a).sample_series(ts).data.tobytes()
    replay = _two_metric(seed_a).sample_series(ts).data.tobytes()
    other = _two_metric(seed_b).sample_series(ts).data.tobytes()
    assert first == replay
    assert first != other


def test_metric_series_projection(world_pair):
    """A LinkSeries column projects into the analysis layer's container."""
    link = world_pair[0].wifi_link(0, 1)
    ts = GRIDS["wifi"][:40]
    series = link.sample_series(ts, measured=False)
    metric = series.to_metric_series("capacity_bps")
    assert np.array_equal(metric.times, ts)
    assert np.array_equal(metric.values, series.capacity_bps)
    assert metric.name.endswith(":capacity_bps")


# --- registry ------------------------------------------------------------------


def test_registry_surface():
    assert registered_media() == ("plc", "wifi")
    assert set(known_media()) == {"plc", "wifi", "hybrid"}
    assert constituent_media("hybrid") == ("plc", "wifi")
    assert constituent_media("wifi") == ("wifi",)
    with pytest.raises(KeyError):
        get_medium("hybrid")  # composite: not an elemental medium
    with pytest.raises(KeyError):
        get_medium("li-fi")
    with pytest.raises(KeyError):
        constituent_media("li-fi")


def test_registry_link_lookup(world_pair):
    tb = world_pair[0]
    plc = tb.link("plc", 0, 1)
    wifi = tb.link("wifi", 0, 1)
    assert plc.medium == "plc"
    assert wifi is tb.wifi_link(0, 1)
    with pytest.raises(KeyError):
        tb.link("hybrid", 0, 1)  # composites have no single link


def test_flow_request_medium_validated_by_registry():
    with pytest.raises(ValueError, match="li-fi"):
        FlowRequest("f", 0, 1, 0.0, medium="li-fi", duration_s=1.0)


def test_metric_record_medium_validated_by_registry():
    with pytest.raises(ValueError, match="hybrid"):
        LinkMetricRecord(time=0.0, src="0", dst="1", medium="hybrid",
                         capacity_bps=1.0)


# --- WiFi capacity probe window (fixed-count regression) ----------------------


def test_capacity_probe_count_is_fixed(world_pair):
    link = world_pair[0].wifi_link(0, 1)
    awkward = [0.0, 223200.1, 1.0e6 + 0.37, 36013669.4291844]
    for t in awkward:
        probes = link.capacity_probe_times(t)
        assert len(probes) == CAPACITY_PROBE_COUNT
        assert probes[-1] == pytest.approx(t)
        assert probes[0] == pytest.approx(t - 1.0 + 0.1)
        assert np.all(np.diff(probes) > 0)
    # The arange formula this replaces silently drops to 9 samples once
    # float error at large t pushes the last point past the endpoint.
    t = 36013669.4291844
    assert len(np.arange(t - 1.0 + 0.1, t + 1e-9, 0.1)) == 9


def test_aggregator_estimates_through_link_contract(world_pair):
    """The hybrid device's probe is exactly the links' own capacity_bps."""
    from repro.hybrid.aggregator import HybridDevice

    tb = world_pair[0]
    plc, wifi = tb.plc_link(0, 1), tb.wifi_link(0, 1)
    device = HybridDevice(plc, wifi, tb.streams)
    t = working_hours_start()
    estimates = device.estimate_capacities_bps(t)
    assert estimates == {"plc": max(plc.capacity_bps(t), 0.0),
                         "wifi": max(wifi.capacity_bps(t), 0.0)}


# --- architectural boundary ---------------------------------------------------

_SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
_BANNED_IMPORT = re.compile(
    r"^\s*(?:from|import)\s+repro\.(?:plc|wifi)\.(?:channel|phy)\b",
    re.MULTILINE)


def test_no_channel_internals_outside_media_packages():
    """Consumers compute capacities only through the Link contract: no
    module outside ``repro.plc``/``repro.wifi`` may import the channel
    or PHY internals."""
    offenders = []
    for path in sorted(_SRC.rglob("*.py")):
        rel = path.relative_to(_SRC)
        if rel.parts[0] in ("plc", "wifi"):
            continue
        if _BANNED_IMPORT.search(path.read_text(encoding="utf-8")):
            offenders.append(str(rel))
    assert offenders == [], (
        f"channel/PHY internals imported outside the medium packages: "
        f"{offenders}")
