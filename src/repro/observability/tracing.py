"""Nested trace spans with a context that hands a trace to a worker.

A :class:`Tracer` records a tree of timed spans: ``with tracer.span(name,
**attrs):`` opens a child of whatever span is currently open on this
thread, closes it on exit, and appends the finished
:class:`SpanRecord` to the tracer's ledger. The per-thread open-span
stack lives in ``threading.local`` so concurrent threads (the parallel
engine's workers, the DSE's evaluation pool) each grow their own branch of
the tree without interleaving parents.

Handing a trace to a worker works by value, not by reference: the
parent captures a :class:`TraceContext` — trace id plus the currently open
span's id — and ships it inside the task. The worker builds a
throwaway tracer seeded with that context, records its spans, and returns
them as plain dicts (:meth:`SpanRecord.to_dict`); the parent then
:meth:`Tracer.adopt`\\ s them, so worker-side chunk spans reattach under
the submit-side dispatch span they belong to and the assembled tree reads
compile → chunk dispatch → worker execution across worker threads.

Span ids are namespaced by tracer (``id_prefix``): a worker-side tracer
mints ids disjoint from its parent's ``s…`` ids, so the shipped parent
reference can never be mistaken for an intra-batch one. Adopted ids are
additionally always remapped to fresh local ids — sibling worker tasks
each start a throwaway tracer at 1, so batches collide
with each other even though neither collides with the parent.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field as dc_field
from typing import Any, Callable, Iterator, Mapping, Sequence


def _new_trace_id() -> str:
    return os.urandom(8).hex()


@dataclass
class SpanRecord:
    """One finished (or still-open) span."""

    name: str
    span_id: str
    parent_id: str | None
    trace_id: str
    start: float
    end: float = 0.0
    attrs: dict[str, Any] = dc_field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Wall-clock seconds between enter and exit."""
        return max(0.0, self.end - self.start)

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            "start": self.start,
            "end": self.end,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SpanRecord":
        return cls(
            name=str(data["name"]),
            span_id=str(data["span_id"]),
            parent_id=data.get("parent_id"),
            trace_id=str(data.get("trace_id", "")),
            start=float(data.get("start", 0.0)),
            end=float(data.get("end", 0.0)),
            attrs=dict(data.get("attrs", {})),
        )


@dataclass(frozen=True)
class TraceContext:
    """The picklable capture of "where in the trace am I right now".

    Shipped inside worker task messages so remote spans can name their
    parent; ``None`` parent means the remote spans become roots of the
    trace (nothing was open at capture time).
    """

    trace_id: str
    parent_id: str | None = None


class Tracer:
    """Records a process-local tree of timed spans."""

    def __init__(
        self,
        trace_id: str | None = None,
        root_parent: str | None = None,
        on_finish: Callable[[SpanRecord], None] | None = None,
        id_prefix: str = "s",
    ) -> None:
        self.trace_id = trace_id if trace_id else _new_trace_id()
        #: parent assigned to spans opened with no enclosing span — how a
        #: worker-side tracer grafts its spans under the parent's submit span
        self.root_parent = root_parent
        #: span-id namespace. A worker-side tracer MUST use a prefix
        #: distinct from its parent's (e.g. ``w.``): the shipped
        #: ``root_parent`` travels by id, so a worker id that textually
        #: matched a parent id would make parent references ambiguous at
        #: adoption time.
        self.id_prefix = id_prefix
        #: called with each span as it closes (the facade uses this to
        #: mirror spans into the structured event log)
        self.on_finish = on_finish
        self._records: list[SpanRecord] = []
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._lock = threading.Lock()

    # -- recording ----------------------------------------------------------------
    def _stack(self) -> list[SpanRecord]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def current_span_id(self) -> str | None:
        """The id of this thread's innermost open span, if any."""
        stack = self._stack()
        return stack[-1].span_id if stack else None

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[SpanRecord]:
        """Open a child span of the innermost open span on this thread."""
        stack = self._stack()
        parent = stack[-1].span_id if stack else self.root_parent
        with self._lock:
            span_id = f"{self.id_prefix}{next(self._ids)}"
        record = SpanRecord(
            name=name,
            span_id=span_id,
            parent_id=parent,
            trace_id=self.trace_id,
            start=time.perf_counter(),
            attrs=dict(attrs),
        )
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self._records.append(record)
            if self.on_finish is not None:
                self.on_finish(record)

    def context(self) -> TraceContext:
        """The shippable capture of the current position in the trace."""
        return TraceContext(self.trace_id, self.current_span_id())

    # -- cross-process reattachment -------------------------------------------------
    def adopt(self, records: Sequence[Mapping[str, Any]]) -> list[SpanRecord]:
        """Graft worker-side span dicts into this tracer's ledger.

        Span ids minted by another tracer can collide with local ones —
        including spans still *open* here, which are not in the ledger yet
        — so every incoming id is remapped to a fresh local id, and
        intra-batch parent references follow the remap. References to
        ids outside the batch (the shipped :class:`TraceContext`'s local
        parent) are preserved, which is what reattaches the remote subtree
        in the right place.
        """
        adopted: list[SpanRecord] = []
        batch = [SpanRecord.from_dict(d) for d in records]
        incoming = {r.span_id for r in batch}
        with self._lock:
            remap = {
                sid: f"{self.id_prefix}{next(self._ids)}"
                for sid in sorted(incoming)
            }
        for record in batch:
            record.trace_id = self.trace_id
            record.span_id = remap[record.span_id]
            if record.parent_id in incoming:
                record.parent_id = remap[record.parent_id]
            adopted.append(record)
        with self._lock:
            self._records.extend(adopted)
        if self.on_finish is not None:
            for record in adopted:
                self.on_finish(record)
        return adopted

    # -- inspection ----------------------------------------------------------------
    def records(self) -> list[SpanRecord]:
        """Finished spans, in completion order (snapshot copy)."""
        with self._lock:
            return list(self._records)

    def tree(self) -> list[tuple[SpanRecord, list]]:
        """The span forest as ``(record, children)`` pairs, start-ordered.

        Spans whose parent never closed (or was never adopted) surface as
        roots rather than disappearing.
        """
        records = sorted(self.records(), key=lambda r: r.start)
        nodes: dict[str, tuple[SpanRecord, list]] = {
            r.span_id: (r, []) for r in records
        }
        roots: list[tuple[SpanRecord, list]] = []
        for record in records:
            node = nodes[record.span_id]
            parent = nodes.get(record.parent_id) if record.parent_id else None
            if parent is None or parent[0] is record:
                roots.append(node)
            else:
                parent[1].append(node)
        return roots

    def clear(self) -> None:
        with self._lock:
            self._records.clear()
