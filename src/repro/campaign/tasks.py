"""Task kinds: how one :class:`ExperimentSpec` becomes artifact records.

Executors run inside worker processes. They must be pure functions of the
spec (plus the attempt number, which only the failure-injection kind reads):
no globals, no wall clock, no OS randomness — that is what lets the engine
promise bit-identical artifacts at any worker count.

Custom kinds can be registered with :func:`register_task`; under the
(POSIX-default) ``fork`` start method test-registered kinds are visible in
workers, otherwise they must live in an importable module.
"""

from __future__ import annotations

import difflib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional

import numpy as np

from repro.campaign.spec import ExperimentSpec
from repro.compile import checkout_testbed
from repro.sim.clock import MainsClock
from repro.sim.random import RandomStreams


@dataclass
class TaskOutput:
    """What an executor hands back across the process boundary.

    ``control`` is an executor→engine side channel that never reaches
    the artifact: the time-sliced scenario kind uses it to report "this
    slice paused at a checkpoint, schedule the next one". ``None`` (the
    overwhelmingly common case) means the task simply completed.
    """

    records: List[dict]
    stats: Dict[str, object] = field(default_factory=dict)
    control: Optional[Dict[str, object]] = None


TaskFn = Callable[[ExperimentSpec, int], TaskOutput]

TASK_REGISTRY: Dict[str, TaskFn] = {}


@dataclass(frozen=True)
class TaskKindInfo:
    """Declared metadata for one registered kind.

    ``params=None`` means the kind declared no parameter schema —
    validation passes everything through (ad-hoc test kinds). A declared
    schema makes unknown keys a hard error: ``durration_s`` fails loudly
    instead of silently measuring for the 30-second default.
    """

    params: Optional[FrozenSet[str]] = None
    required: FrozenSet[str] = frozenset()
    uses_testbed: bool = False


TASK_KIND_INFO: Dict[str, TaskKindInfo] = {}


def register_task(kind: str, *, params: Optional[Iterable[str]] = None,
                  required: Iterable[str] = (),
                  uses_testbed: bool = False):
    """Decorator registering an executor for a spec ``kind``.

    ``params`` declares the complete set of recognised parameter keys
    (``required`` ⊆ ``params`` must be present); omitting it skips
    validation for the kind. ``uses_testbed`` marks kinds that check out
    a compiled testbed, so the engine can precompile their worlds before
    forking a pool.
    """
    required = frozenset(required)
    allowed = None if params is None else frozenset(params) | required

    def wrap(fn: TaskFn) -> TaskFn:
        if kind in TASK_REGISTRY:
            raise ValueError(f"duplicate task kind {kind!r}")
        TASK_REGISTRY[kind] = fn
        TASK_KIND_INFO[kind] = TaskKindInfo(
            params=allowed, required=required, uses_testbed=uses_testbed)
        return fn
    return wrap


def unregister_task(kind: str) -> None:
    """Remove a registered kind (no-op if absent).

    Exists so tests can register throwaway kinds without leaking them
    into later tests as duplicate-kind errors; prefer
    :func:`temporary_task_kind`, which cannot forget the cleanup.
    """
    TASK_REGISTRY.pop(kind, None)
    TASK_KIND_INFO.pop(kind, None)


@contextmanager
def temporary_task_kind(kind: str, fn: TaskFn, **meta):
    """Register ``kind`` for the duration of a ``with`` block.

    ``meta`` is forwarded to :func:`register_task` (``params``,
    ``required``, ``uses_testbed``). The kind is removed on exit even if
    the body raises — the test-suite-safe way to try out an executor.
    """
    register_task(kind, **meta)(fn)
    try:
        yield fn
    finally:
        unregister_task(kind)


def task_uses_testbed(kind: str) -> bool:
    """Whether ``kind`` declared that it checks out a compiled testbed."""
    if kind not in TASK_KIND_INFO:
        _load_plugin_kinds()
    info = TASK_KIND_INFO.get(kind)
    return bool(info is not None and info.uses_testbed)


def validate_task_params(kind: str, params: Dict[str, object]) -> None:
    """Reject unknown or missing parameter keys for a declared kind.

    Kinds without a declared schema (``params=None`` at registration)
    pass through untouched; unknown *kinds* are the dispatcher's problem,
    not this function's.
    """
    info = TASK_KIND_INFO.get(kind)
    if info is None or info.params is None:
        return
    unknown = sorted(set(params) - info.params)
    if unknown:
        hints = []
        for key in unknown:
            close = difflib.get_close_matches(key, sorted(info.params),
                                              n=1)
            hints.append(f"{key!r}"
                         + (f" (did you mean {close[0]!r}?)" if close
                            else ""))
        raise ValueError(
            f"unknown parameter(s) for task kind {kind!r}: "
            f"{', '.join(hints)}; recognised keys: "
            f"{', '.join(sorted(info.params))}")
    missing = sorted(info.required - set(params))
    if missing:
        raise ValueError(
            f"missing required parameter(s) for task kind {kind!r}: "
            f"{', '.join(missing)}")


#: Modules that register extra task kinds on import. Resolved lazily in
#: :func:`execute_spec` (importing them here would cycle: they import
#: ``register_task`` from this module), so worker processes find plugin
#: kinds under any pool start method.
PLUGIN_KIND_MODULES = ("repro.faults.tasks", "repro.verify.fuzzer")


def _load_plugin_kinds() -> None:
    import importlib

    for module in PLUGIN_KIND_MODULES:
        importlib.import_module(module)


def execute_spec(spec: ExperimentSpec, attempt: int = 0) -> TaskOutput:
    """Dispatch one spec to its registered executor."""
    if spec.kind not in TASK_REGISTRY:
        _load_plugin_kinds()
    try:
        fn = TASK_REGISTRY[spec.kind]
    except KeyError:
        known = ", ".join(sorted(TASK_REGISTRY))
        raise KeyError(
            f"unknown task kind {spec.kind!r} (known: {known})") from None
    validate_task_params(spec.kind, spec.params_dict)
    return fn(spec, attempt)


def _start_time(params: Dict[str, object]) -> float:
    return MainsClock.at(day=int(params.get("day", 2)),
                         hour=float(params.get("hour", 14.0)))


# --- survey -------------------------------------------------------------------


@register_task("survey_pair", uses_testbed=True,
               params=("day", "hour", "duration_s", "interval_s"),
               required=("src", "dst"))
def _survey_pair(spec: ExperimentSpec, attempt: int) -> TaskOutput:
    """§4.1 dual-medium measurement of one directed pair."""
    from repro.testbed.experiments import measure_pair

    from repro.obs.trace import current_tracer

    p = spec.params_dict
    testbed = checkout_testbed(spec.preset, seed=spec.seed)
    t0 = _start_time(p)
    duration = float(p.get("duration_s", 30.0))
    row = measure_pair(testbed, int(p["src"]), int(p["dst"]), t0,
                       duration=duration,
                       report_interval=float(p.get("interval_s", 1.0)))
    tracer = current_tracer()
    if tracer.enabled:
        tracer.span("survey.measure_pair", t0, t0 + duration,
                    src=int(p["src"]), dst=int(p["dst"]))
    return TaskOutput(records=[row.to_dict()])


# --- scenario -----------------------------------------------------------------


#: ``Snapshot.kind`` of the checkpoint one scenario slice leaves behind.
SLICE_CHECKPOINT_KIND = "scenario-slice"


@register_task("scenario_slice", uses_testbed=True,
               params=("day", "hour", "horizon_s", "quantum_s"),
               required=("scenario", "slice_index", "num_slices",
                         "slice_horizon_s", "store", "original_key"))
@register_task("scenario", uses_testbed=True,
               params=("day", "hour", "horizon_s", "quantum_s"),
               required=("scenario",))
def _scenario(spec: ExperimentSpec, attempt: int) -> TaskOutput:
    """Run a named library scenario through the fluid runner.

    The straight ``scenario`` kind is the single-slice case. A
    ``scenario_slice`` spec is one time slice of a long-horizon task:
    slice 0 starts the run and pauses at the first slice boundary;
    slice ``k`` restores checkpoint ``k-1`` from the snapshot ``store``
    and continues. The *final* slice (``num_slices - 1``, or any slice
    in which the scenario ends early) returns exactly the records and
    stats of a straight run — the engine rewrites its identity back to
    ``original_key``, so the artifact is byte-identical to an unsliced
    run. Intermediate slices checkpoint and report back through
    ``TaskOutput.control``. A re-run slice restores the same immutable
    checkpoint into a fresh testbed, so crash-resume stays
    deterministic.

    The runner publishes its sim-time events into the task's current
    tracer (:func:`repro.obs.current_tracer` — a no-op unless the engine
    enabled tracing), which never changes the returned records or stats.
    """
    from repro.netsim.runner import ScenarioRunner
    from repro.netsim.scenario import build_scenario
    from repro.obs.trace import current_tracer

    p = spec.params_dict
    index = int(p.get("slice_index", 0))
    num_slices = int(p.get("num_slices", 1))
    testbed = checkout_testbed(spec.preset, seed=spec.seed)
    scenario = build_scenario(str(p["scenario"]), _start_time(p))
    tracer = current_tracer()
    runner = ScenarioRunner(testbed,
                            quantum_s=float(p.get("quantum_s", 0.5)),
                            check_invariants=True, tracer=tracer)
    until = None
    if index < num_slices - 1:
        t0 = min(f.start_s for f in scenario.flows)
        until = t0 + (index + 1) * float(p["slice_horizon_s"])
    if index == 0:
        results = runner.run(scenario,
                             horizon_s=float(p.get("horizon_s", 900.0)),
                             until_s=until)
    else:
        results = runner.resume(scenario,
                                _load_slice(p, index - 1, tracer),
                                until_s=until)
    if runner.paused:
        _save_slice(p, index, runner.snapshot(scenario, results), tracer)
        return TaskOutput(records=[],
                          control={"slice_paused": True,
                                   "slice_index": index})
    records = [results[name].to_dict() for name in sorted(results)]
    return TaskOutput(records=records, stats=runner.stats.to_dict())


def _slice_chain(p: Dict[str, object]) -> Dict[str, object]:
    """The slicing plan a checkpoint belongs to."""
    return {"slice_horizon_s": float(p["slice_horizon_s"]),
            "num_slices": int(p["num_slices"]),
            "horizon_s": float(p.get("horizon_s", 900.0))}


def _save_slice(p: Dict[str, object], index: int, runner_snapshot,
                tracer) -> None:
    """Checkpoint a paused slice (with the trace so far) for the next."""
    from repro.snapshot.codec import Snapshot
    from repro.snapshot.store import SnapshotStore

    payload = {"runner": runner_snapshot.payload, "chain": _slice_chain(p),
               "trace": tracer.to_dicts() if tracer.enabled else None}
    SnapshotStore(str(p["store"])).save(
        str(p["original_key"]), index,
        Snapshot(kind=SLICE_CHECKPOINT_KIND, payload=payload))


def _load_slice(p: Dict[str, object], index: int, tracer):
    """Checkpoint ``index`` as a runner snapshot, refusing one left by a
    different slicing plan. When tracing, the earlier slices' sim-time
    events are prepended so the final sidecar is byte-identical to the
    straight run's."""
    from repro.obs.trace import TraceEvent
    from repro.snapshot.codec import Snapshot
    from repro.snapshot.store import SnapshotStore

    original_key = str(p["original_key"])
    checkpoint = SnapshotStore(str(p["store"])).load(original_key, index)
    if checkpoint.kind != SLICE_CHECKPOINT_KIND:
        raise ValueError(
            f"checkpoint {index} for {original_key} has kind "
            f"{checkpoint.kind!r}, expected {SLICE_CHECKPOINT_KIND!r}")
    chain = checkpoint.payload.get("chain", {})
    if chain != _slice_chain(p):
        raise ValueError(
            f"checkpoint {index} for {original_key} belongs to a "
            f"different slicing plan ({chain}); re-run from slice 0")
    stored_trace = checkpoint.payload.get("trace")
    if tracer.enabled and stored_trace:
        tracer.events.extend(TraceEvent.from_dict(event)
                             for event in stored_trace)
    return Snapshot(kind="scenario-runner",
                    payload=checkpoint.payload["runner"])


# --- BLE polling --------------------------------------------------------------


@register_task("ble_series", uses_testbed=True,
               params=("day", "hour", "duration_s", "interval_s"),
               required=("src", "dst"))
def _ble_series(spec: ExperimentSpec, attempt: int) -> TaskOutput:
    """§6.2 MM polling of one link's average BLE."""
    from repro.testbed.experiments import poll_ble_series

    p = spec.params_dict
    testbed = checkout_testbed(spec.preset, seed=spec.seed)
    series = poll_ble_series(testbed, int(p["src"]), int(p["dst"]),
                             _start_time(p),
                             duration=float(p.get("duration_s", 2.0)),
                             interval=float(p.get("interval_s", 0.05)))
    return TaskOutput(records=[{
        "src": int(p["src"]), "dst": int(p["dst"]),
        "times": [float(t) for t in series.times],
        "ble_bps": [float(v) for v in series.values]}])


# --- medium-agnostic link sampling --------------------------------------------


@register_task("link_series", uses_testbed=True,
               params=("medium", "day", "hour", "duration_s", "interval_s",
                       "measured"),
               required=("src", "dst"))
def _link_series(spec: ExperimentSpec, attempt: int) -> TaskOutput:
    """Sample any registered medium's link through the ``repro.medium``
    contract — the campaign engine's view of ``Link.sample_series``.

    ``params``: ``src``, ``dst``, optional ``medium`` ("plc"/"wifi",
    default "plc"), ``duration_s``, ``interval_s``, ``measured``.
    """
    p = spec.params_dict
    testbed = checkout_testbed(spec.preset, seed=spec.seed)
    medium = str(p.get("medium", "plc"))
    src, dst = int(p["src"]), int(p["dst"])
    link = testbed.link(medium, src, dst)
    if link is None:
        raise ValueError(
            f"no {medium} link between stations {src} and {dst}")
    t0 = _start_time(p)
    times = np.arange(t0, t0 + float(p.get("duration_s", 2.0)),
                      float(p.get("interval_s", 0.1)))
    series = link.sample_series(times,
                                measured=bool(p.get("measured", True)))
    return TaskOutput(records=[{
        "src": src, "dst": dst, "medium": series.medium,
        "times": [float(t) for t in series.times],
        "capacity_bps": [float(v) for v in series.capacity_bps],
        "throughput_bps": [float(v) for v in series.throughput_bps],
        "loss": [float(v) for v in series.loss]}])


# --- diagnostics --------------------------------------------------------------


@register_task("rng_probe", params=("draws", "idx", "tags"))
def _rng_probe(spec: ExperimentSpec, attempt: int) -> TaskOutput:
    """Draw from the task's derived streams — no testbed, near-zero cost.

    Exists for the property-test harness: it exposes exactly the seed
    derivation the heavyweight kinds rely on, so determinism across worker
    counts can be checked thousands of times per second.
    """
    p = spec.params_dict
    streams = RandomStreams(seed=spec.task_seed())
    draws = int(p.get("draws", 4))
    return TaskOutput(records=[{
        "task_seed": spec.task_seed(),
        "uniform": [float(x) for x in
                    streams.get("probe").uniform(size=draws)],
        "normal": [float(x) for x in
                   streams.get("noise").normal(size=draws)]}])


@register_task("sleepy", params=("sleep_s", "idx"))
def _sleepy(spec: ExperimentSpec, attempt: int) -> TaskOutput:
    """Block for ``sleep_s`` seconds — exercises the timeout path.

    (Wall-clock sleep, so never use it in a determinism-sensitive
    campaign; it exists for engine tests and operational smoke checks.)
    """
    import time

    sleep_s = float(spec.params_dict.get("sleep_s", 1.0))
    time.sleep(sleep_s)
    return TaskOutput(records=[{"slept_s": sleep_s}])


@register_task("flaky", params=("fail_attempts", "idx"))
def _flaky(spec: ExperimentSpec, attempt: int) -> TaskOutput:
    """Deterministic failure injection for retry/circuit-breaker tests.

    Fails the first ``fail_attempts`` attempts, then succeeds — so with
    enough retries the final artifact is identical to a never-failing
    run's, which is precisely the retry contract worth testing.
    """
    fails = int(spec.params_dict.get("fail_attempts", 0))
    if attempt < fails:
        raise RuntimeError(
            f"injected failure {attempt + 1}/{fails} for "
            f"{spec.task_key()}")
    return TaskOutput(records=[{"survived_attempt": attempt,
                                "task_seed": spec.task_seed()}])
