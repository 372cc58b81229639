"""The snapshot wire format: versioned, content-addressed, canonical.

One document shape for every snapshot kind::

    {
      "format": "repro-snapshot",
      "version": 1,
      "kind": "scenario-runner",          # who produced the payload
      "content_hash": "<sha256 of the canonical payload JSON>",
      "payload": { ... }                  # component state, JSON-safe
    }

An explicit ``format`` / ``version`` header means foreign or future
documents are *refused* (a ``SnapshotVersionError``), never
half-parsed; dumps are canonical (sorted keys, NaN-refusing, trailing
newline) so identical worlds produce identical bytes; and the payload
is content-addressed — a blob whose ``content_hash`` no longer matches
its payload raises ``SnapshotIntegrityError`` instead of silently
restoring a corrupted world into a "deterministic" run.

Floats survive exactly: ``json`` emits the shortest ``repr`` that
round-trips, so an accumulated simulation time ``t`` restores to the
very same IEEE double and the continued run stays bit-identical.
Payload builders must hand us plain Python scalars — numpy types are
rejected by the encoder, which is the point: an ``np.float64`` smuggled
into a payload would serialise today and desynchronise dtype semantics
on restore.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict

SNAPSHOT_FORMAT = "repro-snapshot"
SNAPSHOT_VERSION = 1


class SnapshotVersionError(ValueError):
    """A blob that is not a current-version repro-snapshot document."""


class SnapshotIntegrityError(ValueError):
    """A snapshot whose payload no longer matches its content hash."""


@dataclass
class Snapshot:
    """A typed payload: ``kind`` names the producer, ``payload`` is its
    JSON-safe state."""

    kind: str
    payload: Dict[str, object] = field(default_factory=dict)


def _canonical_payload(payload: Dict[str, object]) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def content_hash(payload: Dict[str, object]) -> str:
    """sha256 over the canonical payload JSON — the snapshot's address."""
    return hashlib.sha256(
        _canonical_payload(payload).encode("utf-8")).hexdigest()


def dump_snapshot(snap: Snapshot) -> str:
    """Canonical text: same world state, same bytes."""
    body = {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "kind": snap.kind,
        "content_hash": content_hash(snap.payload),
        "payload": snap.payload,
    }
    return json.dumps(body, indent=1, sort_keys=True,
                      allow_nan=False) + "\n"


def load_snapshot(text: str) -> Snapshot:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not a JSON document: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError("snapshot top level must be an object")
    if data.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotVersionError(
            f"not a {SNAPSHOT_FORMAT} document "
            f"(format={data.get('format')!r}); refusing to guess at an "
            f"unversioned or foreign blob")
    version = data.get("version")
    if version != SNAPSHOT_VERSION:
        raise SnapshotVersionError(
            f"snapshot schema version {version!r} != "
            f"{SNAPSHOT_VERSION}; refusing to restore across versions")
    kind = data.get("kind")
    if not isinstance(kind, str) or not kind:
        raise SnapshotVersionError("snapshot has no 'kind'")
    payload = data.get("payload")
    if not isinstance(payload, dict):
        raise SnapshotVersionError("snapshot has no 'payload' object")
    expected = data.get("content_hash")
    actual = content_hash(payload)
    if expected != actual:
        raise SnapshotIntegrityError(
            f"snapshot content hash mismatch: header says {expected!r}, "
            f"payload hashes to {actual!r} — blob is corrupt or "
            f"hand-edited")
    return Snapshot(kind=kind, payload=payload)


def write_snapshot(path: Path, snap: Snapshot) -> None:
    """Atomic write (tmp + rename): a crash mid-checkpoint leaves the
    previous checkpoint intact, never a torn file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = dump_snapshot(snap)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def read_snapshot(path: Path) -> Snapshot:
    return load_snapshot(Path(path).read_text(encoding="utf-8"))
