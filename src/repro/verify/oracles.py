"""Differential oracles: two paths that must produce identical results.

Each oracle re-states an equivalence contract an earlier layer promised —
scalar vs vectorized sampling, inline vs pooled campaigns, traced vs
untraced runs, fault plans vs their serialized replays, explicit vs
default runner horizons — as a generic function over *any* scenario or
spec list, instead of the one frozen example a test file happened to
pick.  Every oracle returns a list of difference messages; empty means
the two paths agreed.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.medium.link import series_from_samples
from repro.netsim.runner import ScenarioRunner
from repro.netsim.scenario import Scenario

#: ``runner_factory(testbed, **kwargs) -> ScenarioRunner`` — the seam the
#: fuzzer uses to plant deliberate bugs (see ScenarioFuzzer).
RunnerFactory = Callable[..., ScenarioRunner]


def default_runner_factory(testbed, **kwargs) -> ScenarioRunner:
    return ScenarioRunner(testbed, **kwargs)


# --- scalar vs vectorized sampling --------------------------------------------


def diff_scalar_vs_vectorized(link_batch, link_scalar, ts: np.ndarray,
                              measured: bool = True) -> List[str]:
    """The medium contract's core promise: batch ≡ scalar, bit for bit.

    ``link_batch`` and ``link_scalar`` must be two *independently built*
    but identically seeded facades of the same link (measured sampling
    consumes the noise stream, so one object cannot drive both paths).
    """
    batch = link_batch.sample_series(ts, measured=measured)
    reference = series_from_samples(
        [link_scalar.sample(float(t), measured=measured) for t in ts],
        name=link_scalar.name, medium=link_scalar.medium)
    diffs: List[str] = []
    if batch.data.dtype != reference.data.dtype:
        return [f"dtype mismatch: {batch.data.dtype} vs "
                f"{reference.data.dtype}"]
    if len(batch) != len(reference):
        return [f"length mismatch: {len(batch)} vs {len(reference)}"]
    for field in reference.data.dtype.names:
        if not np.array_equal(batch.data[field], reference.data[field]):
            delta = np.asarray(batch.data[field], dtype=float) - \
                np.asarray(reference.data[field], dtype=float)
            k = int(np.argmax(np.abs(np.atleast_1d(delta).reshape(
                len(reference), -1)).max(axis=1)))
            diffs.append(
                f"column {field!r} differs (first at row {k}, "
                f"t={float(ts[k])!r}, measured={measured})")
    return diffs


# --- scenario-runner equivalences ---------------------------------------------


def _results_delta(results_a, results_b, label_a: str,
                   label_b: str) -> List[str]:
    """Exact comparison of two ``ScenarioRunner.run`` result mappings."""
    if sorted(results_a) != sorted(results_b):
        return [f"flow sets differ: {sorted(results_a)} vs "
                f"{sorted(results_b)}"]
    diffs: List[str] = []
    for name in sorted(results_a):
        a, b = results_a[name].to_dict(), results_b[name].to_dict()
        for key in a:
            if a[key] != b[key]:
                diffs.append(
                    f"flow {name}.{key}: {label_a}={a[key]!r} vs "
                    f"{label_b}={b[key]!r}")
    return diffs


def diff_default_horizon(testbed, scenario: Scenario,
                         runner_factory: RunnerFactory =
                         default_runner_factory,
                         link_decorator=None,
                         **runner_kwargs) -> List[str]:
    """Default horizon ≡ its documented explicit equivalent.

    ``run(scenario)`` promises to stop at ``scenario.end_time() + 60 s``
    — exactly what ``run(scenario, horizon_s=end - t0 + 60)`` requests
    relative to the first flow start.  Any drift between the two paths
    (e.g. the pre-PR-1 double offset of ``t0``) shows up as a per-flow
    difference on scenarios whose file flows outlive the horizon.
    """
    if not scenario.flows:
        return []
    t0 = min(f.start_s for f in scenario.flows)
    explicit = scenario.end_time() - t0 + 60.0
    runner_a = runner_factory(testbed, link_decorator=link_decorator,
                              **runner_kwargs)
    runner_b = runner_factory(testbed, link_decorator=link_decorator,
                              **runner_kwargs)
    results_default = runner_a.run(scenario)
    results_explicit = runner_b.run(scenario, horizon_s=explicit)
    return _results_delta(results_default, results_explicit,
                          "default-horizon", "explicit-horizon")


def diff_fault_replay(testbed, scenario: Scenario, plan,
                      horizon_s: Optional[float] = None,
                      runner_factory: RunnerFactory =
                      default_runner_factory,
                      **runner_kwargs) -> List[str]:
    """A faulted run ≡ the same run replayed from the plan's artifact.

    Serializes the :class:`repro.faults.FaultPlan` through its
    ``to_dict``/``from_dict`` round trip — the exact path a chaos-failure
    artifact takes — and asserts the replay reproduces every flow result
    bit for bit.
    """
    from repro.faults.link import faulty_link_decorator
    from repro.faults.plan import FaultPlan

    replayed = FaultPlan.from_dict(plan.to_dict())
    if replayed.events != plan.events or replayed.seed != plan.seed:
        return [f"plan round-trip drifted: {len(plan.events)} events -> "
                f"{len(replayed.events)}"]
    runner_a = runner_factory(
        testbed, link_decorator=faulty_link_decorator(plan),
        **runner_kwargs)
    runner_b = runner_factory(
        testbed, link_decorator=faulty_link_decorator(replayed),
        **runner_kwargs)
    original = runner_a.run(scenario, horizon_s=horizon_s)
    replay = runner_b.run(scenario, horizon_s=horizon_s)
    return _results_delta(original, replay, "original", "replayed")


# --- campaign-artifact equivalences -------------------------------------------


def _artifact_bytes_delta(path_a: Path, path_b: Path, label_a: str,
                          label_b: str) -> List[str]:
    bytes_a = Path(path_a).read_bytes()
    bytes_b = Path(path_b).read_bytes()
    if bytes_a == bytes_b:
        return []
    lines_a = bytes_a.decode("utf-8").splitlines()
    lines_b = bytes_b.decode("utf-8").splitlines()
    if len(lines_a) != len(lines_b):
        return [f"artifact line counts differ: {label_a}={len(lines_a)} "
                f"vs {label_b}={len(lines_b)}"]
    for k, (a, b) in enumerate(zip(lines_a, lines_b)):
        if a != b:
            return [f"artifacts first differ at line {k + 1}"]
    return ["artifacts differ (same lines, different bytes)"]


def diff_backend_equivalence(specs: Sequence, out_dir: Path,
                             pool_workers: Sequence[int] = (2, 4),
                             name: str = "verify",
                             trace: bool = True) -> List[str]:
    """The execute plane's core promise: artifacts (and trace sidecars)
    are byte-identical whether the campaign ran inline or on a process
    pool, at any worker count.

    The inline run (``workers=0``) is the reference each pool size in
    ``pool_workers`` is compared against.
    """
    from repro.campaign.engine import run_campaign
    from repro.obs.trace import trace_path_for

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for workers in (0, *pool_workers):
        path = out_dir / f"w{workers}.jsonl"
        run_campaign(specs, path, name=name, workers=workers,
                     resume=False, trace=trace)
        paths.append(("inline" if workers == 0 else f"pool({workers})",
                      path))
    diffs: List[str] = []
    ref_label, ref_path = paths[0]
    for label, path in paths[1:]:
        diffs.extend(_artifact_bytes_delta(ref_path, path, ref_label,
                                           label))
        if trace:
            diffs.extend(_artifact_bytes_delta(
                trace_path_for(ref_path), trace_path_for(path),
                f"{ref_label} trace", f"{label} trace"))
    return diffs


def diff_slice_equivalence(specs: Sequence, out_dir: Path,
                           slice_counts: Sequence[int] = (1, 4, 16),
                           worker_counts: Sequence[int] = (0, 4),
                           name: str = "verify",
                           trace: bool = True) -> List[str]:
    """Time-sliced execution's headline guarantee: a campaign whose long
    scenario tasks are split into K checkpointed slices produces an
    artifact (and trace sidecar) byte-identical to the straight run, at
    any K, inline or pooled.

    The straight reference runs inline without slicing; each comparison
    run slices at ``horizon / K`` where ``horizon`` is the largest
    scenario horizon among ``specs`` (K=1 therefore exercises the
    "slicing configured but below threshold" no-op path). Non-scenario
    specs ride along untouched in every run.
    """
    from repro.campaign.engine import run_campaign
    from repro.obs.trace import trace_path_for

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    horizons = [float(spec.params_dict.get("horizon_s", 900.0))
                for spec in specs if spec.kind == "scenario"]
    if not horizons:
        return ["no scenario specs to slice"]
    horizon = max(horizons)
    ref_path = out_dir / "straight.jsonl"
    run_campaign(specs, ref_path, name=name, workers=0, resume=False,
                 trace=trace)
    diffs: List[str] = []
    for count in slice_counts:
        for workers in worker_counts:
            label = f"sliced(K={count},w{workers})"
            path = out_dir / f"sliced-k{count}-w{workers}.jsonl"
            run_campaign(specs, path, name=name, workers=workers,
                         resume=False, trace=trace,
                         slice_horizon_s=horizon / count)
            diffs.extend(_artifact_bytes_delta(ref_path, path,
                                               "straight", label))
            if trace:
                diffs.extend(_artifact_bytes_delta(
                    trace_path_for(ref_path), trace_path_for(path),
                    "straight trace", f"{label} trace"))
    return diffs


def diff_traced_vs_untraced(specs: Sequence, out_dir: Path,
                            name: str = "verify") -> List[str]:
    """Tracing must never change a campaign artifact's bytes."""
    from repro.campaign.engine import run_campaign

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path_plain = out_dir / "untraced.jsonl"
    path_traced = out_dir / "traced.jsonl"
    run_campaign(specs, path_plain, name=name, workers=0, resume=False)
    run_campaign(specs, path_traced, name=name, workers=0, resume=False,
                 trace=True)
    return _artifact_bytes_delta(path_plain, path_traced, "untraced",
                                 "traced")


# --- seed relabeling ----------------------------------------------------------


def diff_seed_relabeling(evaluate: Callable[[int], float],
                         seeds: Sequence[int]) -> List[str]:
    """Aggregate statistics depend on the *set* of seeds, not the order.

    Evaluates ``evaluate(seed)`` once per seed in the given order and
    once in reverse; per-seed values must match exactly (anything else
    means hidden state leaks between evaluations) and the order-free
    aggregates (sorted sum / min / max) must be bit-identical.
    """
    forward = {s: float(evaluate(s)) for s in seeds}
    backward = {s: float(evaluate(s)) for s in reversed(list(seeds))}
    diffs: List[str] = []
    for s in seeds:
        if forward[s] != backward[s]:
            diffs.append(f"seed {s}: {forward[s]!r} (forward order) != "
                         f"{backward[s]!r} (reverse order)")
    agg_f = _order_free_aggregate(list(forward.values()))
    agg_b = _order_free_aggregate(list(backward.values()))
    if agg_f != agg_b:
        diffs.append(f"aggregates differ under relabeling: {agg_f} vs "
                     f"{agg_b}")
    return diffs


def _order_free_aggregate(values: List[float]) -> Tuple[float, ...]:
    ordered = sorted(values)
    total = 0.0
    for v in ordered:
        total += v
    if not ordered:
        return (0.0, 0.0, 0.0)
    return (total, ordered[0], ordered[-1])
