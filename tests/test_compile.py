"""The compile plane's contracts (``repro.compile``).

The core promise — stated in the module docstring and relied on by every
task executor — is that a cache checkout is **bit-identical** to a
from-scratch build: the compiled template shares only deterministic
state (load memoisation, channel caches), while each
:meth:`CompiledTestbed.instantiate` view gets private monotonic RNG
streams.  These tests pin that promise, the content addressing, and the
cache/metrics accounting.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.campaign import ExperimentSpec, run_campaign
from repro.compile import (
    COMPILE_CACHE_ENTRIES,
    CompiledTestbed,
    checkout_testbed,
    compile_cache,
    compile_cache_disabled,
    compile_testbed,
    compiled_testbed,
    precompile_specs,
    reset_compile_cache,
    testbed_fingerprint as fingerprint_of,  # pytest collects `test*` names
)
from repro.obs import MetricsRegistry, global_registry
from repro.testbed.builder import build_preset_testbed
from repro.testbed.experiments import measure_pair


@pytest.fixture(autouse=True)
def _fresh_cache():
    """Each test starts from an empty process-wide cache (stats are
    cumulative across the process, so tests compare deltas)."""
    reset_compile_cache()
    yield
    reset_compile_cache()


def _survey(testbed, src=0, dst=1, t=1000.0):
    return measure_pair(testbed, src, dst, t, duration=2.0,
                        report_interval=0.5)


def _series(testbed, src=0, dst=1, t=1000.0):
    ts = np.linspace(t, t + 30.0, 16)
    return {medium: testbed.link(medium, src, dst)
            .sample_series(ts, measured=True).data
            for medium in ("plc", "wifi")}


# --- the bit-identity contract ------------------------------------------------


def test_checkout_is_bit_identical_to_scratch_build():
    scratch = build_preset_testbed("mini3", seed=7)
    checkout = checkout_testbed("mini3", seed=7)
    assert _survey(checkout) == _survey(scratch)
    scratch2 = build_preset_testbed("mini3", seed=7)
    checkout2 = checkout_testbed("mini3", seed=7)
    # Evaluate each world once: measured sampling consumes the link's
    # monotonic noise stream, so a second pass would read further values.
    reference, observed = _series(scratch2), _series(checkout2)
    for medium in reference:
        assert np.array_equal(observed[medium], reference[medium]), medium


def test_second_checkout_matches_the_first():
    """Instantiated views never leak RNG state back into the template:
    the Nth checkout behaves exactly like the 1st."""
    first = _survey(checkout_testbed("mini3", seed=11))
    second = _survey(checkout_testbed("mini3", seed=11))
    assert first == second


def test_warm_links_never_moves_a_result_byte():
    cold = _survey(build_preset_testbed("mini3", seed=13))
    compiled = compiled_testbed("mini3", seed=13)
    resolved = compiled.warm_links()
    assert resolved > 0
    assert _survey(compiled.instantiate()) == cold


def test_cache_disabled_produces_the_same_bytes():
    cached = _survey(checkout_testbed("mini3", seed=7))
    with compile_cache_disabled():
        bypassed = _survey(checkout_testbed("mini3", seed=7))
    assert bypassed == cached


# --- content addressing -------------------------------------------------------


def test_fingerprint_is_stable_and_preset_sensitive():
    assert fingerprint_of("mini3") == fingerprint_of("mini3")
    assert fingerprint_of("mini3") != fingerprint_of("office")
    assert len(fingerprint_of("mini3")) == 64


def test_cache_key_carries_the_content_address():
    compiled = compiled_testbed("mini3", seed=7)
    assert isinstance(compiled, CompiledTestbed)
    assert compiled.cache_key == (
        f"mini3/s7/{fingerprint_of('mini3')[:12]}")


def test_distinct_seeds_are_distinct_worlds():
    a = compiled_testbed("mini3", seed=7)
    b = compiled_testbed("mini3", seed=8)
    assert a is not b
    assert a.fingerprint == b.fingerprint  # content, not seed, hashed
    assert a.cache_key != b.cache_key


# --- cache and metrics accounting ---------------------------------------------


def test_one_build_per_world_then_hits():
    reg = MetricsRegistry()
    a = compiled_testbed("mini3", seed=7, metrics=reg)
    b = compiled_testbed("mini3", seed=7, metrics=reg)
    assert a is b  # served by reference, not rebuilt
    assert reg.counter("compile.builds") == 1
    assert reg.counter("compile.cache.misses") == 1
    assert reg.counter("compile.cache.hits") == 1


def test_instantiate_counts_checkouts():
    reg = MetricsRegistry()
    compiled = compiled_testbed("mini3", seed=7, metrics=reg)
    compiled.instantiate(metrics=reg)
    compiled.instantiate(metrics=reg)
    assert reg.counter("compile.instantiations") == 2
    assert reg.counter("compile.builds") == 1


def test_cache_disabled_counts_bypasses_and_rebuilds():
    reg = MetricsRegistry()
    with compile_cache_disabled():
        a = compiled_testbed("mini3", seed=7, metrics=reg)
        b = compiled_testbed("mini3", seed=7, metrics=reg)
    assert a is not b
    assert reg.counter("compile.cache.bypasses") == 2
    assert reg.counter("compile.builds") == 2
    assert reg.counter("compile.cache.hits") == 0


def test_lru_evicts_beyond_capacity():
    reg = MetricsRegistry()
    for seed in range(COMPILE_CACHE_ENTRIES + 4):
        compiled_testbed("mini3", seed=seed, metrics=reg)
    assert reg.counter("compile.cache.evictions") == 4
    assert len(compile_cache()) <= COMPILE_CACHE_ENTRIES


def test_compile_testbed_always_builds():
    reg = MetricsRegistry()
    a = compile_testbed("mini3", seed=7, metrics=reg)
    b = compile_testbed("mini3", seed=7, metrics=reg)
    assert a is not b
    assert reg.counter("compile.builds") == 2
    assert reg.counter("compile.build_seconds") >= 0.0


def test_campaign_builds_its_world_once_then_only_hits(tmp_path):
    """A single-world campaign compiles once and every task checks out
    from the cache; a second campaign over that world builds nothing."""
    specs = [ExperimentSpec.make("survey_pair", "mini3", 7, src=k % 3,
                                 dst=(k + 1) % 3, hour=8.0 + k * 0.25,
                                 duration_s=0.5, interval_s=0.5)
             for k in range(12)]
    reg = global_registry()

    def run(name):
        builds = reg.counter("compile.builds")
        hits = reg.counter("compile.cache.hits")
        stats = run_campaign(specs, tmp_path / f"{name}.jsonl", workers=0,
                             resume=False)
        assert stats.completed == len(specs)
        return (reg.counter("compile.builds") - builds,
                reg.counter("compile.cache.hits") - hits)

    builds, hits = run("first")
    assert builds == 1
    assert hits >= len(specs)
    builds, hits = run("second")
    assert builds == 0
    assert hits >= len(specs)


# --- precompilation -----------------------------------------------------------


def test_precompile_dedups_worlds_and_skips_testbed_free_kinds():
    reg = MetricsRegistry()
    specs = (
        [ExperimentSpec.make("survey_pair", "mini3", s, src=0, dst=1)
         for s in (7, 7, 8)]
        + [ExperimentSpec.make("rng_probe", "mini3", s, draws=2)
           for s in range(5)]
    )
    worlds = precompile_specs(specs, metrics=reg)
    assert worlds == 2  # (mini3, 7) and (mini3, 8); rng_probe compiles none
    assert reg.counter("compile.builds") == 2
    # A later survey checkout hits the warm cache.
    checkout_testbed("mini3", seed=7, metrics=reg)
    assert reg.counter("compile.builds") == 2
    assert reg.counter("compile.cache.hits") == 1


def test_precompile_compiles_nothing_with_the_cache_disabled():
    """With no cache to warm, precompiling would build every world only
    to throw it away; the engine's unconditional call must cost nothing."""
    reg = MetricsRegistry()
    specs = [ExperimentSpec.make("survey_pair", "mini3", s, src=0, dst=1)
             for s in (7, 8)]
    with compile_cache_disabled():
        assert precompile_specs(specs, metrics=reg) == 0
    assert reg.counter("compile.builds") == 0
    assert reg.counter("compile.cache.bypasses") == 0
    assert len(compile_cache()) == 0
