"""Span-based tracing with deterministic, seed-stable span identities.

A trace is a tree of spans — ``track`` at the root, the five pipeline
phases under it, engine batches and live windows below those.  Span
*identity* follows the :mod:`repro.faults` determinism scheme: a span id
is the SHA-256 digest of ``parent-id | site-name | per-parent ordinal``,
never of the wall clock, so two runs of the same seeded scenario emit
the same tree of ids whether they ran serial or with ``--workers 8``,
today or next year.  Wall-clock durations are still captured (with
:func:`time.perf_counter`) but only as *data* on the span — they never
feed identity, and :func:`span_tree_signature` strips them so trees can
be compared across runs.

Traces export as JSONL, one span per line, closed spans first-finished
first; :func:`load_spans` reads them back and :func:`build_tree`
reassembles the hierarchy.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional

from contextlib import contextmanager

#: Identity prefix length (hex chars).  64 bits of SHA-256 — collisions
#: within one trace are out of the question at these span counts.
SPAN_ID_HEX = 16


def _derive_id(parent_id: str, name: str, ordinal: int) -> str:
    text = f"{parent_id}|{name}|{ordinal}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:SPAN_ID_HEX]


@dataclass
class Span:
    """One traced operation.

    ``span_id``/``parent_id``/``name``/``attrs`` are deterministic;
    ``duration_seconds`` is measured wall time, recorded as data only.
    """

    span_id: str
    parent_id: str
    name: str
    attrs: Dict[str, object] = field(default_factory=dict)
    duration_seconds: float = 0.0
    _start: float = field(default=0.0, repr=False)
    _child_ordinals: Dict[str, int] = field(default_factory=dict, repr=False)

    def set(self, key: str, value: object) -> None:
        """Attach a (deterministic) attribute to this span."""
        self.attrs[key] = value

    def as_record(self) -> Dict:
        """JSON-safe export form (one JSONL line)."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "attrs": dict(self.attrs),
            "duration_seconds": round(self.duration_seconds, 6),
        }


@dataclass(frozen=True)
class TraceContext:
    """Span parentage for records minted outside a ``with`` block.

    Span identity is pure structure (parent id | name | ordinal), so the
    parent span id and the run name are enough to mint the *same* child
    ids :meth:`Tracer.span` would.  The simulation engine mints its
    per-miss ``simulate``/``warm_start`` records this way with ordinals
    assigned from the batch's logical structure, then adopts them via
    :meth:`Tracer.graft` — whether a miss ran in-process or on a pool
    worker, only its measured duration differs.
    """

    parent_span_id: str
    run_name: str = "run"

    def child_record(
        self,
        name: str,
        ordinal: int,
        attrs: Optional[Mapping[str, object]] = None,
        duration_seconds: float = 0.0,
    ) -> Dict:
        """A deterministic child span record (JSON-safe, graftable).

        Identity comes from ``(parent id, name, ordinal)`` exactly like
        :meth:`Tracer.span`; the measured duration rides along as data
        only, so the record set is worker-count invariant.
        """
        return {
            "span_id": _derive_id(self.parent_span_id, name, ordinal),
            "parent_id": self.parent_span_id,
            "name": name,
            "attrs": dict(attrs or {}),
            "duration_seconds": round(duration_seconds, 6),
        }


class Tracer:
    """Builds one deterministic span tree per run.

    Args:
        run_name: root identity token; the root span id is the digest of
            ``|root|run_name`` so traces of different subcommands never
            collide.

    The tracer keeps an explicit stack of open spans (``span`` nests);
    the per-parent, per-site ordinal counter makes repeated sites under
    one parent (engine batches, live windows) distinct and stable.
    """

    def __init__(self, run_name: str = "run") -> None:
        self.root = Span(
            span_id=_derive_id("", run_name, 0),
            parent_id="",
            name=run_name,
            _start=time.perf_counter(),
        )
        self._stack: List[Span] = [self.root]
        self.finished: List[Span] = []
        #: Span-closure hooks, called with each closed span's record
        #: (the flight recorder rides here).  Keep them cheap.
        self.listeners: List[Callable[[Dict], None]] = []

    @property
    def current(self) -> Span:
        """The innermost open span (the root when nothing is open)."""
        return self._stack[-1]

    def context(self) -> TraceContext:
        """A :class:`TraceContext` rooted at the current span."""
        return TraceContext(
            parent_span_id=self.current.span_id, run_name=self.root.name
        )

    def _notify(self, span: Span) -> None:
        if self.listeners:
            record = span.as_record()
            for listener in list(self.listeners):
                listener(record)

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        """Open a child span of the current span for the ``with`` body.

        The span id derives from the parent id, the site name, and how
        many spans of this name the parent has already opened — pure
        structure, no clock.
        """
        parent = self._stack[-1]
        ordinal = parent._child_ordinals.get(name, 0)
        parent._child_ordinals[name] = ordinal + 1
        span = Span(
            span_id=_derive_id(parent.span_id, name, ordinal),
            parent_id=parent.span_id,
            name=name,
            attrs=dict(attrs),
            _start=time.perf_counter(),
        )
        self._stack.append(span)
        try:
            yield span
        finally:
            span.duration_seconds = time.perf_counter() - span._start
            self._stack.pop()
            self.finished.append(span)
            self._notify(span)

    def finish(self) -> None:
        """Close the root span (idempotent)."""
        if self._stack and self._stack[-1] is self.root:
            self.root.duration_seconds = time.perf_counter() - self.root._start
            self._stack.pop()
            self.finished.append(self.root)
            self._notify(self.root)

    def graft(self, records: Iterable[Mapping]) -> int:
        """Adopt span records minted outside a ``with`` block.

        Records must carry ids derived through the same
        ``parent|name|ordinal`` scheme (see :class:`TraceContext`) so
        the merged tree stays deterministic.  Returns how many spans
        were adopted.
        """
        count = 0
        for record in records:
            span = Span(
                span_id=record["span_id"],
                parent_id=record["parent_id"],
                name=record["name"],
                attrs=dict(record.get("attrs", {})),
                duration_seconds=float(record.get("duration_seconds", 0.0)),
            )
            self.finished.append(span)
            self._notify(span)
            count += 1
        return count

    # -- export ---------------------------------------------------------

    def records(self) -> List[Dict]:
        """Every closed span (root last once :meth:`finish` ran)."""
        return [span.as_record() for span in self.finished]

    def write_jsonl(self, path: str) -> str:
        """Write the trace as JSONL to ``path``; returns the path.

        Closes the root first so the file always holds a full tree.
        """
        from . import ensure_parent_dir

        self.finish()
        ensure_parent_dir(path)
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.records():
                handle.write(json.dumps(record, sort_keys=True))
                handle.write("\n")
        return path


def load_spans(path: str) -> List[Dict]:
    """Read a JSONL trace back into span records."""
    spans: List[Dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                spans.append(json.loads(line))
    return spans


def build_tree(spans: List[Mapping]) -> Dict[str, List[Mapping]]:
    """Children-by-parent-id index of a span list."""
    tree: Dict[str, List[Mapping]] = {}
    for span in spans:
        tree.setdefault(span["parent_id"], []).append(span)
    for children in tree.values():
        children.sort(key=lambda span: span["span_id"])
    return tree


def span_tree_signature(spans: List[Mapping]) -> str:
    """Canonical digest of a trace's *deterministic* content.

    Strips measured durations and hashes the sorted
    ``(span_id, parent_id, name, attrs)`` tuples — two runs of the same
    seeded scenario must produce the same signature regardless of
    worker count, machine, or clock.
    """
    canonical = sorted(
        json.dumps(
            {
                "span_id": span["span_id"],
                "parent_id": span["parent_id"],
                "name": span["name"],
                "attrs": span.get("attrs", {}),
            },
            sort_keys=True,
        )
        for span in spans
    )
    return hashlib.sha256("\n".join(canonical).encode("utf-8")).hexdigest()


def phase_durations(spans: List[Mapping], parent_id: Optional[str] = None) -> Dict[str, float]:
    """Total measured duration by span name (optionally under one parent)."""
    totals: Dict[str, float] = {}
    for span in spans:
        if parent_id is not None and span["parent_id"] != parent_id:
            continue
        totals[span["name"]] = (
            totals.get(span["name"], 0.0) + span.get("duration_seconds", 0.0)
        )
    return totals
