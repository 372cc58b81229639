"""Task execution: the *mechanism* half of the campaign engine.

The engine owns policy — retry/backoff, per-attempt timeouts, the circuit
breaker, resume, artifact ordering. How an attempt actually runs is one
:class:`concurrent.futures.Executor`, chosen from the worker count:

* ``workers == 0`` — :class:`InlineExecutor`, synchronous in this
  process: every future is already complete when ``submit`` returns;
* ``workers >= 1`` — a :class:`~concurrent.futures.ProcessPoolExecutor`
  of that many workers.

Either way one spec goes per submission, through one worker entry point,
:func:`run_task_payload`. It catches the task's exception and returns
the worker-side ``repr`` as data, so the error string the engine records
— and hence every failure/quarantine artifact byte — is the same
whichever executor ran the task.
"""

from __future__ import annotations

from concurrent.futures import Executor, Future
from typing import Dict

from repro.campaign.spec import ExperimentSpec
from repro.campaign.tasks import execute_spec
from repro.obs.clock import SystemClock
from repro.obs.trace import task_trace

#: Worker-process clock: used only for the in-worker task *duration*.
_WORKER_CLOCK = SystemClock()


def run_task_payload(spec_dict: Dict[str, object], attempt: int,
                     trace: bool = False) -> Dict[str, object]:
    """Worker-side single-task entry (module-level: pickles by name).

    ``elapsed_s`` is a worker-local *duration* (safe to aggregate in the
    parent); ``trace`` installs a tracer for the task's executors to
    publish sim-time events into, returned out-of-band from the records.
    A task that raises yields ``{"error": repr(exc)}`` instead.
    """
    try:
        t0 = _WORKER_CLOCK.now()
        spec = ExperimentSpec.from_dict(spec_dict)
        with task_trace(enabled=trace) as tracer:
            out = execute_spec(spec, attempt)
        return {"task_key": spec.task_key(), "spec": spec.to_dict(),
                "task_seed": spec.task_seed(), "records": out.records,
                "stats": out.stats, "control": out.control,
                "trace": tracer.to_dicts() if trace else None,
                "elapsed_s": _WORKER_CLOCK.now() - t0}
    except Exception as exc:  # noqa: BLE001 — task sandbox
        return {"error": repr(exc)}


class InlineExecutor(Executor):
    """Run each submission synchronously in the calling process.

    The future is complete when ``submit`` returns, so an inline
    campaign executes specs in exactly the submission order and
    per-attempt timeouts never fire (no expiry sweep can see a pending
    future).
    """

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:  # noqa: BLE001 — surfaced via the future
            future.set_exception(exc)
        return future
