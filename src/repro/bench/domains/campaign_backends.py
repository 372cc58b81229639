"""Campaign compile/execute-plane benchmarks.

The acceptance workload of the compile-plane PR — a 50-task single-world
``survey_pair`` campaign on the mini3 preset — timed cold (compile cache
disabled, so nothing is precompiled and every task builds its world from
scratch), warm (content-addressed cache + precompiled template), and warm
on a 4-worker process pool. The cold/warm speedup smoke floor is a
generous 1.5x (the old hard 3x single-shot assert moved to the
baseline-relative gate); cache accounting (exactly one build, >= one hit
per task) stays exact because it is discrete, not a timing.

Byte-identity between inline and pooled runs is *not* re-asserted here
— that is the ``diff_backend_equivalence`` oracle's job in the verify
suite.
"""

from __future__ import annotations

import itertools
import tempfile
from pathlib import Path

from repro.bench.spec import benchmark, register_smoke
from repro.campaign import run_campaign, spec_grid
from repro.compile import compile_cache_disabled, reset_compile_cache
from repro.obs.metrics import global_registry

#: The acceptance workload: 50 survey tasks sharing one compiled world.
N_TASKS = 50
PRESET = "mini3"
SEED = 7

#: Generous absolute floor for warm-vs-cold compile cache (smoke only).
SMOKE_MIN_SPEEDUP = 1.5


def _survey_specs():
    """50 distinct ``survey_pair`` specs over one ``(preset, seed)``."""
    pairs = itertools.cycle(
        [(i, j) for i in range(3) for j in range(3) if i != j])
    specs = []
    for k, (src, dst) in zip(range(N_TASKS), pairs):
        specs.extend(spec_grid(
            "survey_pair", [PRESET], [SEED],
            {"hour": [8.0 + k * 0.25]},
            src=src, dst=dst, duration_s=0.5, interval_s=0.5))
    assert len(specs) == N_TASKS
    return specs


def _campaign(specs, out_dir: str, name: str, *, workers: int,
              cold: bool = False):
    """One campaign run into a throwaway artifact; stats returned."""
    path = Path(out_dir) / f"{name}.jsonl"
    if path.exists():
        path.unlink()
    reset_compile_cache()
    if cold:
        with compile_cache_disabled():
            stats = run_campaign(specs, path, workers=workers,
                                 resume=False)
    else:
        stats = run_campaign(specs, path, workers=workers, resume=False)
    assert stats.completed == N_TASKS
    return stats


class _State:
    """Shared benchmark state: the spec list and a scratch directory
    that lives as long as the run (tempdir cleans itself up)."""

    def __init__(self) -> None:
        self.specs = _survey_specs()
        self._tmp = tempfile.TemporaryDirectory(prefix="repro-bench-")
        self.out_dir = self._tmp.name


@benchmark("campaign.compile_cold", setup=_State, repeats=2, warmup=0,
           tags=("campaign", "compile"),
           description=f"{N_TASKS}-task survey, compile cache disabled "
                       "(every task builds its world from scratch)")
def _cold(ctx, state):
    _campaign(state.specs, state.out_dir, "cold", workers=0, cold=True)
    return {"n_tasks": float(N_TASKS)}


@benchmark("campaign.compile_warm", setup=_State, repeats=3, warmup=1,
           tags=("campaign", "compile"),
           description=f"{N_TASKS}-task survey through the "
                       "content-addressed compile cache, run inline")
def _warm(ctx, state):
    reg = global_registry()
    builds_before = reg.counter("compile.builds")
    hits_before = reg.counter("compile.cache.hits")
    _campaign(state.specs, state.out_dir, "warm", workers=0)
    return {
        "n_tasks": float(N_TASKS),
        "compile_builds": reg.counter("compile.builds") - builds_before,
        "compile_cache_hits":
            reg.counter("compile.cache.hits") - hits_before,
    }


@benchmark("campaign.backend_process", setup=_State, repeats=2, warmup=0,
           tags=("campaign", "backend", "process"),
           description=f"{N_TASKS}-task survey on a 4-worker process "
                       "pool, warm cache")
def _pooled(ctx, state):
    _campaign(state.specs, state.out_dir, "process", workers=4)
    return {"n_tasks": float(N_TASKS), "workers": 4.0}


def _smoke_compile(doc):
    cold = doc.results["campaign.compile_cold"]
    warm = doc.results["campaign.compile_warm"]
    speedup = cold.min_s / warm.min_s
    if speedup < SMOKE_MIN_SPEEDUP:
        yield (f"warm compile cache is only {speedup:.1f}x faster than "
               f"cold (smoke floor: {SMOKE_MIN_SPEEDUP}x)")
    if warm.metrics.get("compile_builds") != 1.0:
        yield (f"expected exactly one compile for the campaign's single "
               f"(preset, seed, fingerprint) world, got "
               f"{warm.metrics.get('compile_builds')!r}")
    if warm.metrics.get("compile_cache_hits", 0.0) < N_TASKS:
        yield (f"warm campaign hit the compile cache only "
               f"{warm.metrics.get('compile_cache_hits'):g} times for "
               f"{N_TASKS} tasks")


register_smoke("campaign.compile_speedup", _smoke_compile)
