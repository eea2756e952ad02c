"""Structured, schema-versioned event log with pluggable sinks.

Every notable execution-stack occurrence — a plan compile, a cache
hit/miss burst, a chunk dispatch, a worker failure,
a measured-vs-modeled residual — is one **event**: a flat JSON-friendly
dict stamped with a schema version, a monotonically increasing sequence
number and a wall-clock timestamp. Events flow through an
:class:`EventLog` to its sinks:

* :class:`RingSink` — a bounded in-memory deque; the test suite's (and
  ``repro metrics``'s) way to inspect what happened without touching disk.
* :class:`FileSink` — append-only JSONL, one event per line; what
  ``repro mix --trace FILE`` and the CI event-log artifacts use.

The facade (:mod:`repro.observability`) mirrors finished trace spans into
the log as ``kind="span"`` events, so a single JSONL file carries both
the discrete events and the whole span tree of a run.
"""

from __future__ import annotations

import io
import json
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Iterator

#: bump when the event record shape changes incompatibly; consumers should
#: skip records with a newer major version than they know
SCHEMA_VERSION = 1


class RingSink:
    """Keeps the last ``capacity`` events in memory."""

    def __init__(self, capacity: int = 4096) -> None:
        self._ring: deque[dict[str, Any]] = deque(maxlen=capacity)

    def write(self, record: dict[str, Any]) -> None:
        self._ring.append(record)

    @property
    def records(self) -> list[dict[str, Any]]:
        return list(self._ring)

    def kinds(self) -> list[str]:
        """The event kinds seen, in order (convenience for assertions)."""
        return [r["kind"] for r in self._ring]

    def of_kind(self, kind: str) -> list[dict[str, Any]]:
        return [r for r in self._ring if r["kind"] == kind]

    def clear(self) -> None:
        self._ring.clear()

    def close(self) -> None:  # sink protocol
        pass


class FileSink:
    """Appends events to a JSONL file, one line per event.

    The file opens lazily on the first event and flushes per write —
    event rates are per-chunk/per-trial, not per-op, so durability wins
    over batching. Write failures disable the sink (observability must
    never take the run down with it).
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._fh: io.TextIOBase | None = None
        self._dead = False

    def write(self, record: dict[str, Any]) -> None:
        if self._dead:
            return
        try:
            if self._fh is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._fh = self.path.open("a", encoding="utf-8")
            self._fh.write(json.dumps(record, default=str) + "\n")
            self._fh.flush()
        except OSError:
            self._dead = True

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None


def read_events(path: str | Path) -> Iterator[dict[str, Any]]:
    """Parse a JSONL event file back into records (skipping corrupt lines)."""
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict):
                yield record


class EventLog:
    """Fans structured events out to its sinks; thread-safe."""

    def __init__(self, *sinks: Any) -> None:
        self.sinks: list[Any] = list(sinks)
        self._seq = 0
        self._lock = threading.Lock()

    def emit(self, kind: str, **payload: Any) -> dict[str, Any]:
        """Stamp and dispatch one event; returns the record."""
        with self._lock:
            self._seq += 1
            record = {
                "v": SCHEMA_VERSION,
                "seq": self._seq,
                "ts": time.time(),
                "kind": kind,
                **payload,
            }
            for sink in self.sinks:
                sink.write(record)
        return record

    def add_sink(self, sink: Any) -> None:
        with self._lock:
            self.sinks.append(sink)

    def close(self) -> None:
        with self._lock:
            for sink in self.sinks:
                sink.close()
