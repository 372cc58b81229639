"""Human-activity model: when appliances are on.

The paper's *random scale* (§6.3) is the channel variation caused by people
switching appliances — higher electrical load during working hours, the
building-wide 9 pm lights-off event visible in Fig. 12, quieter weekends in
Fig. 13/14.

Design constraint: long experiments (two simulated weeks sampled every second)
must be cheap, so an appliance's state is a **pure function of time, served
per interval**. ``is_on`` computes it in O(1) from hashed per-day and
per-epoch random draws instead of simulating a global switching event queue;
``state_interval`` says how long that state lasts — every schedule class
switches only at times computable from the same draws (06:30 and 21:00, the
drawn office start and end, a weekend visit, an intermittent run inside its
15-minute epoch) — so :class:`~repro.powergrid.load.ElectricalLoad` can
reuse one state signature for a whole interval. Determinism comes for free:
the same seed gives the same two weeks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.cache import CacheStats, WindowedLruCache
from repro.powergrid.appliances import ApplianceInstance, ScheduleClass
from repro.sim.clock import MainsClock
from repro.sim.random import RandomStreams
from repro.units import DAY, HOUR, MINUTE

#: Building lighting is switched off centrally at 21:00 (paper Fig. 12:
#: "Every day at 9pm, all lights are turned off in our building").
LIGHTS_OFF_HOUR = 21.0
LIGHTS_ON_HOUR = 6.5

#: Margin (s) by which ``state_interval`` stays clear of a computed switch
#: time. Hour-of-day and epoch-phase comparisons round at the last ulp
#: (under 1e-7 s for any t below 30 years), so a state served up to the
#: guarded time can never outlive a real switch.
SWITCH_GUARD_S = 1e-6

#: Bound of the per-appliance draw memo (entries, LRU-evicted).
DRAW_CACHE_ENTRIES = 200_000

#: ``[start, end)`` windows meaning "off all period" / "on all day".
_NEVER = (math.inf, math.inf)
_ALL_DAY = (0.0, math.inf)


@dataclass(frozen=True)
class ActivityConfig:
    """Tunable behaviour of the office population."""

    #: Std-dev (hours) of per-day arrival/departure jitter for office gear.
    office_jitter_hours: float = 0.6
    #: Earliest arrival / nominal departure for office appliances.
    office_start_hour: float = 8.0
    office_end_hour: float = 18.0
    #: Fraction of office appliances left running overnight (standby PCs).
    overnight_fraction: float = 0.15
    #: Weekend usage probability for office appliances (somebody came in).
    weekend_use_probability: float = 0.08
    #: Epoch length for intermittent appliances (a kettle run, a print job).
    intermittent_epoch: float = 15 * MINUTE
    #: Activity multiplier for intermittent appliances out of working hours.
    night_activity_factor: float = 0.1


class OfficeActivityModel:
    """Maps (appliance, time) -> powered-on state, deterministically.

    Each appliance gets a private random stream; per-day and per-epoch draws
    are indexed draws from a *fresh* generator seeded by (appliance, index),
    so queries at arbitrary times — in any order — return consistent states.
    """

    def __init__(self, streams: RandomStreams,
                 config: ActivityConfig = ActivityConfig(),
                 clock: MainsClock = MainsClock()):
        self._streams = streams
        self.config = config
        self.clock = clock
        # Draw memo: generator creation is the hot cost; each (appliance,
        # purpose, index) triple is drawn once and reused. Draws are
        # timeless, so the windowed cache serves as a plain LRU.
        self._draws = WindowedLruCache(window_s=1.0,
                                       max_entries=DRAW_CACHE_ENTRIES)
        #: Optional override consulted before the schedule model: returns
        #: True/False to force a state, None to fall through. This is the
        #: fault-injection seam (``repro.faults.powergrid`` schedules
        #: appliance surges through it) — it must stay a pure function of
        #: ``(appliance, t)`` or state signatures lose determinism.
        self.overlay: Optional[
            Callable[[ApplianceInstance, float], Optional[bool]]] = None

    @property
    def draw_cache_stats(self) -> CacheStats:
        """Hits, misses and evictions of the per-appliance draw memo."""
        return self._draws.stats

    # --- per-appliance deterministic draws -----------------------------------

    def _draw(self, appliance: ApplianceInstance, index: int,
              purpose: str, size: int = 1) -> np.ndarray:
        """Deterministic uniform draws keyed by (appliance, purpose, index)."""
        return self._draws.get(
            (appliance.instance_id, purpose, index, size), 0.0,
            lambda: self._streams.fresh(
                f"activity.{purpose}.{appliance.instance_id}.{index}"
            ).uniform(size=size))

    # --- schedule classes -------------------------------------------------------
    #
    # Each class reduces to a window: on iff ``start <= x < end``, with x
    # the hour of day (lighting, office gear) or the phase within the
    # epoch (intermittent gear). ``_edges`` turns the window into the
    # times the state may switch.

    def _lighting_hours(self, appliance: ApplianceInstance,
                        t: float) -> Tuple[float, float]:
        if self.clock.is_weekend(t):
            # Only emergency/corridor lighting: modelled as a small chance the
            # fixture is part of the always-on subset.
            always = self._draw(appliance, 0, "lighting-always")[0]
            if not always < 0.1:
                return _NEVER
        return LIGHTS_ON_HOUR, LIGHTS_OFF_HOUR

    def _office_hours(self, appliance: ApplianceInstance,
                      t: float) -> Tuple[float, float]:
        cfg = self.config
        draws = self._draw(appliance, self.clock.day_index(t), "office",
                           size=4)
        if self.clock.is_weekend(t):
            if draws[3] >= cfg.weekend_use_probability:
                return _NEVER
            # A short weekend visit around midday.
            start = 10.0 + 4.0 * draws[0]
            return start, start + 2.0
        # Whether this machine is left running overnight is a property of
        # the machine (a build server stays on every night), not of the day.
        overnight = self._draw(appliance, 0,
                               "office-overnight")[0] < cfg.overnight_fraction
        if overnight:
            return _ALL_DAY
        start = cfg.office_start_hour + cfg.office_jitter_hours * (
            2.0 * draws[0] - 1.0)
        end = cfg.office_end_hour + cfg.office_jitter_hours * (
            2.0 * draws[1] - 1.0)
        return start, end

    def _intermittent_phases(self, appliance: ApplianceInstance,
                             t: float) -> Tuple[float, float]:
        cfg = self.config
        epoch = int(t // cfg.intermittent_epoch)
        duty = appliance.kind.duty_cycle
        if not self.clock.is_working_hours(t):
            duty *= cfg.night_activity_factor
        draws = self._draw(appliance, epoch, "intermittent", size=2)
        # The appliance runs for a contiguous slice of the epoch whose length
        # matches the duty cycle; epochs are active independently.
        epoch_active_prob = min(1.0, duty * 4.0)
        if draws[0] >= epoch_active_prob:
            return _NEVER
        run_fraction = min(1.0, duty / max(epoch_active_prob, 1e-9))
        offset = draws[1] * max(0.0, 1.0 - run_fraction)
        return offset, offset + run_fraction

    def _schedule_on(self, appliance: ApplianceInstance, t: float) -> bool:
        """State under the schedule model alone (no overlay)."""
        schedule = appliance.kind.schedule
        if schedule is ScheduleClass.ALWAYS_ON:
            return True
        if schedule is ScheduleClass.LIGHTING:
            start, end = self._lighting_hours(appliance, t)
        elif schedule is ScheduleClass.OFFICE_HOURS:
            start, end = self._office_hours(appliance, t)
        elif schedule is ScheduleClass.INTERMITTENT:
            start, end = self._intermittent_phases(appliance, t)
            epoch = self.config.intermittent_epoch
            return start <= (t % epoch) / epoch < end
        else:
            raise ValueError(f"unhandled schedule class {schedule}")
        return start <= self.clock.hour_of_day(t) < end

    def _edges(self, appliance: ApplianceInstance,
               t: float) -> Tuple[float, List[float]]:
        """Start of ``t``'s day (or epoch) and the ascending times inside
        it at which the state may switch, ending with the period's end."""
        schedule = appliance.kind.schedule
        if schedule is ScheduleClass.ALWAYS_ON:
            return -math.inf, [math.inf]
        if schedule is ScheduleClass.INTERMITTENT:
            period = self.config.intermittent_epoch
            scale = period
            window = self._intermittent_phases(appliance, t)
        else:
            period = DAY
            scale = HOUR
            window = (self._lighting_hours(appliance, t)
                      if schedule is ScheduleClass.LIGHTING
                      else self._office_hours(appliance, t))
        start = (t // period) * period
        end = start + period
        edges = [start + x * scale for x in window if 0.0 < x * scale < period]
        if schedule is ScheduleClass.INTERMITTENT:
            # The duty factor follows ``is_working_hours``, which changes
            # only on the hour: such edges fall inside an epoch only when
            # the epoch does not divide an hour.
            hour = (start // HOUR + 1.0) * HOUR
            while hour < end:
                edges.append(hour)
                hour += HOUR
        edges.append(end)
        edges.sort()
        return start, edges

    # --- public API -----------------------------------------------------------------

    def is_on(self, appliance: ApplianceInstance, t: float) -> bool:
        """Powered-on state of ``appliance`` at simulated time ``t``."""
        if self.overlay is not None:
            forced = self.overlay(appliance, t)
            if forced is not None:
                return forced
        return self._schedule_on(appliance, t)

    def state_interval(self, appliance: ApplianceInstance,
                       t: float) -> Tuple[float, float]:
        """The interval ``[since, until)`` around ``t`` over which
        ``is_on(appliance, ·)`` keeps its value at ``t``.

        Its ends are the neighbouring possible switches of the appliance's
        schedule class (day and epoch starts are exact; every other
        switch is widened by :data:`SWITCH_GUARD_S` on both sides), so
        ``until`` is the time the state holds until. Within a guard of a
        switch, and while an :attr:`overlay` is installed, nothing is
        known beyond ``t`` and the interval is the empty ``(t, t)``. A
        candidate at which the state does not actually change only
        shortens the interval.
        """
        if self.overlay is not None:
            return t, t
        since, edges = self._edges(appliance, t)
        for edge in edges:
            if t < edge - SWITCH_GUARD_S:
                return since, edge - SWITCH_GUARD_S
            if t < edge + SWITCH_GUARD_S:
                break
            since = edge + SWITCH_GUARD_S
        return t, t

    def state_signature(self, appliances: List[ApplianceInstance],
                        t: float) -> Tuple[bool, ...]:
        """On/off vector for a list of appliances (channel cache key)."""
        return tuple(self.is_on(a, t) for a in appliances)

    def switching_times(self, appliance: ApplianceInstance, t_start: float,
                        t_end: float) -> List[float]:
        """Schedule on/off transition times in ``[t_start, t_end)``.

        Walks the schedule's switch candidates and keeps those where the
        state really changes, each exact up to float rounding of the
        switch time itself. An installed :attr:`overlay` is not consulted.
        """
        times: List[float] = []
        if t_end <= t_start:
            return times
        state = self._schedule_on(appliance, t_start)
        t = t_start
        while True:
            edge = next(e for e in self._edges(appliance, t)[1] if e > t)
            if edge >= t_end:
                return times
            # Read the new state past the guard: at the computed edge
            # itself rounding may still show the old one.
            after = self._schedule_on(appliance, edge + SWITCH_GUARD_S)
            if after != state:
                times.append(edge)
                state = after
            t = edge

    def active_count(self, appliances: List[ApplianceInstance],
                     t: float) -> int:
        """Number of powered-on appliances (the 'electrical load' proxy)."""
        return sum(1 for a in appliances if self.is_on(a, t))
