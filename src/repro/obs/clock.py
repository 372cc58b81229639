"""The wall-clock seam: one injectable monotonic clock for the stack.

Mixing clock domains is how the old engine grew its retry-deadline bug:
backoff deadlines were computed from ``time.perf_counter()`` epochs in the
parent process while task durations came from in-worker timers, and
nothing marked which numbers were comparable. The rule now is:

* **epochs** (``now()`` readings used for deadlines, budgets, elapsed
  intervals) come from exactly one :class:`Clock` instance per component,
  injected at construction — so a test can swap in a :class:`FakeClock`
  and drive the retry heap, timeouts and the circuit breaker without
  sleeping;
* **durations** (an in-worker ``elapsed_s``) may cross process boundaries,
  epochs may not;
* this module is the only place in ``src/repro`` allowed to touch
  ``time.perf_counter`` / ``time.time`` (enforced by a static scan and a
  ruff banned-API rule).
"""

from __future__ import annotations

import time as _time
from typing import List, Protocol, runtime_checkable


@runtime_checkable
class Clock(Protocol):
    """Monotonic clock surface every timed component depends on."""

    def now(self) -> float:
        """Seconds on a monotonic axis (epoch is instance-private)."""
        ...

    def sleep(self, seconds: float) -> None:
        """Block (or simulate blocking) for ``seconds``."""
        ...


class SystemClock:
    """The production clock: ``time.perf_counter`` + ``time.sleep``."""

    def now(self) -> float:
        return _time.perf_counter()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            _time.sleep(seconds)


class FakeClock:
    """Deterministic test clock: ``sleep`` advances, nothing blocks.

    ``sleeps`` records every requested sleep so tests can assert backoff
    schedules exactly (e.g. exponential retry delays) instead of timing
    them.
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        self.sleeps: List[float] = []

    def now(self) -> float:
        return self._now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(float(seconds))
        if seconds > 0:
            self._now += seconds

    def advance(self, seconds: float) -> None:
        """Move time forward without recording a sleep."""
        if seconds < 0:
            raise ValueError("time cannot move backwards")
        self._now += seconds

