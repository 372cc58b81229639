"""Compile/execute-plane benchmarks for the campaign layer.

Pytest surface over the shared bench plane: the 50-task cold/warm
compile-cache pair and the 4-worker process-pool run live in
:mod:`repro.bench.domains.campaign_backends`. This module runs the
cold/warm pair through the harness and asserts the exact cache
accounting plus the generous smoke floor; byte-identity between inline
and pooled runs is the verify suite's ``diff_backend_equivalence``
oracle, and wall-time regressions are gated baseline-relative in CI.
"""

from __future__ import annotations

from repro.bench import check_smoke, run_benchmarks
from repro.bench.domains.campaign_backends import N_TASKS


def test_compile_cache_cold_vs_warm():
    doc = run_benchmarks(["campaign.compile_cold",
                          "campaign.compile_warm"],
                         repeats=2, warmup=0)
    cold = doc.results["campaign.compile_cold"]
    warm = doc.results["campaign.compile_warm"]

    assert warm.metrics["compile_builds"] == 1, (
        "expected exactly one compile for the campaign's single "
        f"(preset, seed, fingerprint) world, got "
        f"{warm.metrics['compile_builds']:g}")
    assert warm.metrics["compile_cache_hits"] >= N_TASKS
    print(f"cold {cold.min_s:.3f}s warm {warm.min_s:.3f}s "
          f"speedup {cold.min_s / warm.min_s:.1f}x over {N_TASKS} tasks")

    violations = check_smoke(doc)
    assert not violations, "\n".join(violations)


def test_pooled_backends_complete_the_campaign():
    doc = run_benchmarks(["campaign.backend_process"], repeats=1,
                         warmup=0)
    result = doc.results["campaign.backend_process"]
    assert result.metrics["n_tasks"] == N_TASKS
    print(f"process pool, 4 workers: {result.min_s:.3f}s")
