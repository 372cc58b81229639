"""Property tests: seed derivation and campaign-engine invariants.

The determinism and resume contracts are stated in
``docs/architecture.md``; these tests enforce them over randomized spec
lists rather than one blessed example. The cheap ``rng_probe`` task kind
(no testbed build) keeps each engine run in the milliseconds, so hypothesis
can afford whole-campaign executions per example.
"""

from __future__ import annotations

import math

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import (
    ExperimentSpec,
    check_specs,
    run_campaign,
    spec_grid,
)
from repro.campaign.tasks import (
    TASK_REGISTRY,
    TaskOutput,
    temporary_task_kind,
)
from repro.obs import MetricsRegistry, current_tracer, trace_path_for
from repro.sim.random import RandomStreams, derive_seed

pytestmark = pytest.mark.slow

# Engine runs fork real processes on the pool path; keep example counts
# low (deadline/health-check policy comes from the conftest profiles).
ENGINE_SETTINGS = settings(max_examples=5)

names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789.-", min_size=1,
    max_size=24)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


# --- sim.random.derive_seed ---------------------------------------------------


@given(seed=seeds, name=names)
def test_derive_seed_is_pure_and_bounded(seed, name):
    a = derive_seed(seed, name)
    assert a == derive_seed(seed, name)
    assert 0 <= a < 2**63


@given(seed=seeds, name_a=names, name_b=names)
def test_derive_seed_separates_names(seed, name_a, name_b):
    if name_a == name_b:
        return
    assert derive_seed(seed, name_a) != derive_seed(seed, name_b)


@given(seed_a=seeds, seed_b=seeds, name=names)
def test_derive_seed_separates_roots(seed_a, seed_b, name):
    if seed_a == seed_b:
        return
    assert derive_seed(seed_a, name) != derive_seed(seed_b, name)


@given(seed=seeds, name=names)
def test_spawned_streams_are_reproducible(seed, name):
    a = RandomStreams(seed).spawn(name).get("x").uniform(size=3)
    b = RandomStreams(seed).spawn(name).get("x").uniform(size=3)
    assert (a == b).all()


# --- spec identity ------------------------------------------------------------


spec_lists = st.lists(
    st.tuples(seeds, st.integers(0, 99), st.integers(1, 6)),
    min_size=1, max_size=8, unique=True,
).map(lambda items: [
    ExperimentSpec.make("rng_probe", "mini3", seed, idx=idx, draws=draws)
    for seed, idx, draws in items])


@given(specs=spec_lists)
def test_task_keys_unique_across_generated_grids(specs):
    keys = [s.task_key() for s in specs]
    assert len(set(keys)) == len(keys)
    check_specs(specs)  # must not raise for a duplicate-free list


@given(seed=seeds)
def test_spec_roundtrips_through_dict(seed):
    spec = ExperimentSpec.make("rng_probe", "mini3", seed,
                               draws=3, tags=["a", "b"])
    clone = ExperimentSpec.from_dict(spec.to_dict())
    assert clone == spec
    assert clone.task_key() == spec.task_key()
    assert clone.task_seed() == spec.task_seed()


def test_grid_task_keys_unique_at_scale():
    specs = spec_grid("rng_probe", ["mini3", "office"], range(25),
                      param_grid={"idx": range(10)})
    keys = {s.task_key() for s in specs}
    assert len(keys) == len(specs) == 2 * 25 * 10


# --- engine determinism across worker counts ---------------------------------


@ENGINE_SETTINGS
@given(specs=spec_lists)
def test_artifacts_identical_for_1_2_and_4_workers(specs, tmp_path_factory):
    base = tmp_path_factory.mktemp("workers")
    blobs = []
    for workers in (1, 2, 4):
        path = base / f"w{workers}-{len(blobs)}.jsonl"
        stats = run_campaign(specs, path, workers=workers)
        assert stats.completed == len(specs)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


@ENGINE_SETTINGS
@given(specs=spec_lists, data=st.data())
def test_resume_after_kill_matches_uninterrupted_run(specs, data,
                                                     tmp_path_factory):
    base = tmp_path_factory.mktemp("resume")
    clean = base / f"clean-{len(specs)}.jsonl"
    run_campaign(specs, clean, workers=0)
    reference = clean.read_bytes()

    lines = clean.read_text().splitlines(keepends=True)
    # Kill point: keep k complete task lines, maybe a torn partial line.
    k = data.draw(st.integers(min_value=0, max_value=len(specs)),
                  label="kill_after_tasks")
    torn = data.draw(st.booleans(), label="torn_tail")
    survived = "".join(lines[: 1 + k])
    if torn and k < len(specs):
        survived += lines[1 + k][: max(1, len(lines[1 + k]) // 2)]
    victim = base / f"victim-{k}-{torn}.jsonl"
    victim.write_text(survived)

    stats = run_campaign(specs, victim, workers=0)
    assert stats.resumed == k
    assert stats.completed == len(specs) - k
    assert victim.read_bytes() == reference


# --- metrics-registry merge laws ----------------------------------------------


mutations = st.lists(
    st.one_of(
        st.tuples(st.just("inc"), st.sampled_from("abc"),
                  st.integers(-5, 5)),
        st.tuples(st.just("inc"), st.sampled_from("abc"),
                  st.floats(-10, 10, allow_nan=False)),
        st.tuples(st.just("watermark"), st.sampled_from("pq"),
                  st.floats(0, 100, allow_nan=False)),
        st.tuples(st.just("observe"), st.sampled_from("hk"),
                  st.floats(0, 100, allow_nan=False)),
    ), max_size=20)


def _registry_from(ops) -> MetricsRegistry:
    reg = MetricsRegistry()
    for op, name, value in ops:
        if op == "inc":
            reg.inc(name, value)
        elif op == "watermark":
            reg.watermark(name, value, sim_time=abs(value) / 2)
        else:
            reg.observe(name, value, edges=(1.0, 10.0, 100.0))
    return reg


def _assert_registries_match(left: MetricsRegistry,
                             right: MetricsRegistry) -> None:
    """Bit-exact on the discrete structure (int counters, bucket counts,
    gauges, min/max); float sums are IEEE additions, so regrouping may
    move the last ulp — compare those to relative 1e-12."""
    la, ra = left.to_dict(), right.to_dict()
    assert la["gauges"] == ra["gauges"]
    assert set(la["counters"]) == set(ra["counters"])
    for name, value in la["counters"].items():
        other = ra["counters"][name]
        if isinstance(value, int) and isinstance(other, int):
            assert value == other, name
        else:
            assert math.isclose(value, other, rel_tol=1e-12,
                                abs_tol=1e-12), name
    assert set(la["histograms"]) == set(ra["histograms"])
    for name, hist in la["histograms"].items():
        other = ra["histograms"][name]
        for key in ("edges", "counts", "min", "max"):
            assert hist[key] == other[key], (name, key)
        assert math.isclose(hist["sum"], other["sum"], rel_tol=1e-12,
                            abs_tol=1e-12), name


@given(ops_a=mutations, ops_b=mutations)
def test_registry_merge_is_commutative(ops_a, ops_b):
    # Commutativity is bit-exact: IEEE addition commutes, and gauge/
    # min/max picks are order-free selections.
    ab, ba = _registry_from(ops_a), _registry_from(ops_b)
    ab.merge(_registry_from(ops_b))
    ba.merge(_registry_from(ops_a))
    assert ab.to_dict() == ba.to_dict()


@given(ops_a=mutations, ops_b=mutations, ops_c=mutations)
def test_registry_merge_is_associative(ops_a, ops_b, ops_c):
    left = _registry_from(ops_a)
    left.merge(_registry_from(ops_b))
    left.merge(_registry_from(ops_c))
    bc = _registry_from(ops_b)
    bc.merge(_registry_from(ops_c))
    right = _registry_from(ops_a)
    right.merge(bc)
    _assert_registries_match(left, right)


@given(ops=mutations)
def test_registry_merge_roundtrips_through_serialised_form(ops):
    """Merging a ``to_dict()`` payload (the cross-process path) equals
    merging the live registry."""
    via_dict, via_object = MetricsRegistry(), MetricsRegistry()
    via_dict.merge(_registry_from(ops).to_dict())
    via_object.merge(_registry_from(ops))
    assert via_dict.to_dict() == via_object.to_dict()


# --- tracing never moves a result byte ----------------------------------------


def _traced_probe(spec: ExperimentSpec, attempt: int) -> TaskOutput:
    """``rng_probe`` plus sim-time trace events — cheap enough for
    hypothesis to run whole traced campaigns per example.  Registered
    per-test via :func:`temporary_task_kind` so the kind never leaks
    into other test modules."""
    p = spec.params_dict
    streams = RandomStreams(seed=spec.task_seed())
    draws = int(p.get("draws", 4))
    values = [float(x) for x in
              streams.get("probe").uniform(size=draws)]
    tracer = current_tracer()
    if tracer.enabled:
        for k, value in enumerate(values):
            tracer.event("probe.draw", float(k), value=value)
        tracer.span("probe.run", 0.0, float(draws), draws=draws)
    return TaskOutput(records=[{"task_seed": spec.task_seed(),
                                "uniform": values}])


traced_spec_lists = st.lists(
    st.tuples(seeds, st.integers(0, 99), st.integers(1, 6)),
    min_size=1, max_size=6, unique=True,
).map(lambda items: [
    ExperimentSpec.make("traced_probe", "mini3", seed, idx=idx,
                        draws=draws)
    for seed, idx, draws in items])


@ENGINE_SETTINGS
@given(specs=traced_spec_lists)
def test_tracing_never_changes_result_bytes(specs, tmp_path_factory):
    """The tentpole determinism contract: a traced campaign's result
    artifact is byte-identical to an untraced one at workers 1 and 4,
    and the trace sidecar itself is byte-identical across worker
    counts (its events carry sim-time only)."""
    base = tmp_path_factory.mktemp("traced")
    with temporary_task_kind("traced_probe", _traced_probe,
                             params=("draws", "idx")):
        plain = base / "plain.jsonl"
        run_campaign(specs, plain, workers=1)
        reference = plain.read_bytes()

        sidecars = []
        for workers in (1, 4):
            path = base / f"traced-w{workers}.jsonl"
            stats = run_campaign(specs, path, workers=workers,
                                 trace=True)
            assert stats.completed == len(specs)
            assert path.read_bytes() == reference
            sidecar = trace_path_for(path)
            assert sidecar.exists()
            sidecars.append(sidecar.read_bytes())
    assert "traced_probe" not in TASK_REGISTRY  # context cleaned up
    assert sidecars[0] == sidecars[1]
    assert b"probe.draw" in sidecars[0]  # events actually flowed
    assert b'"wall"' not in sidecars[0]  # sim-time only, no wall clock


# --- inline vs pooled execution never moves a result byte ---------------------


mixed_spec_lists = st.lists(
    st.tuples(seeds, st.integers(0, 99), st.integers(1, 6)),
    min_size=1, max_size=4, unique=True,
).flatmap(lambda items: st.integers(0, 2**31 - 1).map(lambda s: (
    [ExperimentSpec.make("rng_probe", "mini3", seed, idx=idx, draws=draws)
     for seed, idx, draws in items]
    + [ExperimentSpec.make("survey_pair", "mini3", s, src=0, dst=1,
                           duration_s=1.0, interval_s=0.5)])))


@settings(max_examples=3)
@given(specs=mixed_spec_lists)
def test_artifacts_identical_across_all_backends(specs, tmp_path_factory):
    """The execute-plane contract: whether a mixed-kind campaign runs
    inline or on a process pool, and at any worker count, the finalized
    artifact bytes are identical."""
    base = tmp_path_factory.mktemp("backends")
    reference = None
    for workers in (0, 1, 4):
        path = base / f"w{workers}.jsonl"
        stats = run_campaign(specs, path, workers=workers)
        assert stats.completed == len(specs)
        blob = path.read_bytes()
        if reference is None:
            reference = blob
        else:
            assert blob == reference, f"w{workers}"
