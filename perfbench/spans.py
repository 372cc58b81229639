"""Spans for the traced run, recorded from outside the program.

The traced run wraps public functions of each layer (see ``TARGETS``)
for the length of the run and restores them afterwards; untraced runs
never import this module. Spans live in memory as parallel arrays —
name id, start, end, parent index — and are written out when the run
ends. Hot functions whose cost would drown in the wrapper's own cost
are only counted.

Self time of a span is its duration minus the time its child spans
cover. The workload runs on one thread, so the children of a span never
overlap one another and their durations simply add.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import types
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

#: What the traced run wraps: (module, class or None, attributes or "*"
#: for every public method of the class, span name, "span" | "count").
TARGETS: List[Tuple[str, object, object, str, str]] = [
    ("repro.campaign.artifacts", "ArtifactWriter", ("write",),
     "campaign.artifact_write", "span"),
    ("repro.compile", None, ("checkout_testbed",), "compile.checkout",
     "span"),
    ("repro.testbed.experiments", None, ("measure_pair",),
     "testbed.measure_pair", "span"),
    ("repro.plc.link", "PlcLink", ("sample_series",),
     "medium.plc.sample_series", "span"),
    ("repro.wifi.link", "WifiLink", ("sample_series",),
     "wifi.sample_series", "span"),
    ("repro.plc.channel", "PlcChannel", ("path_loss_db",),
     "plc.path_loss", "span"),
    ("repro.plc.channel", "PlcChannel", ("snr_db", "snr_series_groups"),
     "plc.snr", "span"),
    ("repro.powergrid.load", "ElectricalLoad", "*", "powergrid.load",
     "span"),
    ("repro.powergrid.activity", "OfficeActivityModel", ("is_on",),
     "powergrid.is_on", "count"),
    ("repro.sim.random", "RandomStreams", ("fresh", "fresh_batch"),
     "sim.fresh", "count"),
    ("repro.netsim.runner", "ScenarioRunner", ("run", "resume"),
     "netsim.run", "span"),
    ("repro.netsim.runner", "ScenarioRunner", ("snapshot",),
     "snapshot.encode", "span"),
    ("repro.snapshot.store", "SnapshotStore", ("save",), "snapshot.save",
     "span"),
    ("repro.snapshot.store", "SnapshotStore", ("load",), "snapshot.load",
     "span"),
    ("repro.hybrid.aggregator", "HybridDevice", ("run_saturated",),
     "hybrid.saturated", "span"),
    ("repro.hybrid.aggregator", "HybridDevice", ("run_packet_level",),
     "hybrid.packet_level", "span"),
    ("repro.hybrid.reorder", "ReorderBuffer", ("push",),
     "hybrid.reorder_push", "span"),
]


class SpanRecorder:
    """Nested spans and call counts of one single-threaded run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._open: List[int] = []
        self.counts: Counter = Counter()

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(float("nan"))
        self._open.append(index)
        self.start.append(self.clock())
        return index

    def close(self, index: int) -> None:
        self.end[index] = self.clock()
        self._open.pop()

    def __len__(self) -> int:
        return len(self.start)

    def aggregate(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s``."""
        return aggregate(self.names, self.name_id, self.start, self.end,
                         self.parent)

    def write(self, path) -> None:
        """All spans as one JSON document of parallel columns."""
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "name_id": list(self.name_id),
                       "start": list(self.start), "end": list(self.end),
                       "parent": list(self.parent),
                       "counts": dict(self.counts)}, fh)


def self_times(start, end, parent) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [e - s for s, e in zip(start, end)]
    for index, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[index] - start[index]
    return own


def aggregate(names, name_id, start, end, parent
              ) -> Dict[str, Dict[str, float]]:
    out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
           for name in names}
    for nid, s, e, own in zip(name_id, start, end,
                              self_times(start, end, parent)):
        row = out[names[nid]]
        row["calls"] += 1
        row["total_s"] += e - s
        row["self_s"] += own
    return out


@dataclass
class _Patch:
    owner: object
    attr: str
    original: object


class Tracing:
    """Context manager installing the ``TARGETS`` wrappers."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._patches: List[_Patch] = []

    def _wrap(self, fn, name: str, kind: str):
        rec = self.recorder
        if kind == "count":
            def counted(*args, **kwargs):
                rec.counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        def spanned(*args, **kwargs):
            index = rec.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close(index)
        return spanned

    def __enter__(self) -> "Tracing":
        for module_name, cls_name, attrs, name, kind in TARGETS:
            module = importlib.import_module(module_name)
            if cls_name is None:
                for attr in attrs:
                    self._patch_function(module, attr, name, kind)
                continue
            cls = getattr(module, cls_name)
            if attrs == "*":
                attrs = [a for a, v in vars(cls).items()
                         if not a.startswith("_")
                         and isinstance(v, types.FunctionType)]
            for attr in attrs:
                original = vars(cls)[attr]
                self._patches.append(_Patch(cls, attr, original))
                setattr(cls, attr, self._wrap(original, name, kind))
        return self

    def _patch_function(self, module, attr: str, name: str,
                        kind: str) -> None:
        """Replace a module function everywhere ``repro`` bound it by
        name (``from module import fn`` copies the reference)."""
        original = getattr(module, attr)
        wrapper = self._wrap(original, name, kind)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "repro" or mod_name.startswith("repro.")) \
                    and getattr(mod, attr, None) is original:
                self._patches.append(_Patch(mod, attr, original))
                setattr(mod, attr, wrapper)

    def __exit__(self, *exc) -> None:
        for patch in reversed(self._patches):
            setattr(patch.owner, patch.attr, patch.original)
        self._patches.clear()
