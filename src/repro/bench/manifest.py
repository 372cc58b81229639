"""The bench manifest: every ``benchmarks/test_*.py`` module, accounted.

The manifest maps each pytest module under ``benchmarks/`` to the
harness benchmarks it asserts. Modules in :data:`FIGURE_REGENERATIONS`
are figure/table regenerations — they run once under
``pytest-benchmark`` to price a paper artefact, and deliberately stay
off the regression trajectory (one-shot timings of analysis code, not
hot paths). The exemption is *named and explicit*: a module is either
harness-backed (a non-empty tuple below) or a declared regeneration,
never silently neither.

``tests/test_bench_manifest.py`` closes the loop in both directions:
every file on disk must appear here (a new benchmark module cannot
silently skip trajectory tracking — adding one forces an explicit
entry), every name the manifest claims must exist in the registry (and
vice versa), and the harness/regeneration split must be disjoint and
exhaustive, so the manifest can never drift into fiction.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Tuple

#: Declared pytest-benchmark-only modules: one-shot regenerations of a
#: paper figure or table, exempt from the regression trajectory. Adding
#: a ``benchmarks/test_*.py`` file puts you here or in
#: :data:`HARNESS_MANIFEST` — the manifest tests reject anything else.
FIGURE_REGENERATIONS: FrozenSet[str] = frozenset({
    "test_ablation_deferral_counter",
    "test_ablation_slot_averaging",
    "test_ablation_tonemap_expiry",
    "test_ablation_two_metric_model",
    "test_fig03_wifi_vs_plc_spatial",
    "test_fig04_temporal_wifi_vs_plc",
    "test_fig06_asymmetry",
    "test_fig07_distance_pberr",
    "test_fig09_invariance_scale",
    "test_fig10_cycle_scale",
    "test_fig11_alpha_vs_quality",
    "test_fig12_random_scale_2days",
    "test_fig13_good_link_2weeks",
    "test_fig14_bad_link_2weeks",
    "test_fig15_ble_throughput_fit",
    "test_fig16_probe_rate_convergence",
    "test_fig17_pause_resume",
    "test_fig18_probe_size",
    "test_fig19_adaptive_probing",
    "test_fig20_hybrid_aggregation",
    "test_fig21_broadcast_loss",
    "test_fig22_uetx",
    "test_fig23_contention_sensitivity",
    "test_fig24_burst_probes",
    "test_table1_findings",
    "test_table2_measurement_methods",
    "test_table3_guidelines",
})

#: Harness-backed performance modules: module stem -> the registered
#: benchmark names that module asserts (all regression-gated).
HARNESS_MANIFEST: Dict[str, Tuple[str, ...]] = {
    "test_bench_harness": ("meta.noop",),
    "test_campaign_backends": (
        "campaign.compile_cold",
        "campaign.compile_warm",
        "campaign.backend_process",
    ),
    "test_medium_sampling_scale": (
        "medium.plc.sample_scalar",
        "medium.plc.sample_series",
        "medium.wifi.sample_scalar",
        "medium.wifi.sample_series",
    ),
    "test_scenario_runner_scale": (
        "runner.nine_flows",
        "obs.runner_untraced",
        "obs.runner_traced",
    ),
    "test_snapshot_slicing": (
        "snapshot.roundtrip",
        "snapshot.fig13_straight",
        "snapshot.fig13_sliced",
    ),
}

#: module stem under ``benchmarks/`` -> harness benchmark names it
#: asserts ( () = declared figure regeneration). Derived: the union of
#: the harness manifest and the regeneration exemptions.
MODULE_MANIFEST: Dict[str, Tuple[str, ...]] = {
    **HARNESS_MANIFEST,
    **{module: () for module in FIGURE_REGENERATIONS},
}


def manifest_names() -> Tuple[str, ...]:
    """Every harness benchmark the manifest claims, sorted."""
    names = set()
    for entries in MODULE_MANIFEST.values():
        names.update(entries)
    return tuple(sorted(names))


def module_for(benchmark_name: str) -> str:
    """The pytest module asserting ``benchmark_name`` (KeyError if the
    benchmark is unclaimed — the manifest test makes that unreachable
    for registered benchmarks)."""
    for module, entries in MODULE_MANIFEST.items():
        if benchmark_name in entries:
            return module
    raise KeyError(f"benchmark {benchmark_name!r} is not claimed by any "
                   f"benchmarks/ module in the manifest")
