"""Span recorder and call-boundary instrumentation, all outside the program.

A span records name, start, end, parent span and operation id.  Spans are
kept in memory and written out once, at the end of a run, to a trace file
apart from the metrics.  Nothing here edits qlsub: the traced run calls the
package's public functions under spans (see ``rebuild``), wraps a record
source in :class:`TimedStream`, and for the duration of :func:`instrument`
replaces a few module-level names with timing wrappers so that calls made
inside the package (the pilot's Newton fit, a shard's second pass) are timed
at the module boundary too.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager

from qlsub import distributed, pipeline, synth
from qlsub.ingest import RecordStream

_CURRENT = object()


class Tracer:
    """In-memory span list; ``op`` tags every span opened while it is set."""

    def __init__(self, prefix: str = ""):
        self.prefix = prefix
        self.spans: list[dict] = []
        self.op = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, parent=_CURRENT):
        """Open a span; ``parent`` defaults to this thread's innermost span.

        Worker threads start with an empty stack, so a span opened on behalf
        of a parent in another thread passes that parent explicitly.
        """
        stack = self._stack()
        rec = {
            "id": f"{self.prefix}{next(self._ids)}",
            "name": name,
            "parent": self.current() if parent is _CURRENT else parent,
            "op": self.op,
            "thread": threading.get_ident(),
            "attrs": {},
        }
        stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(rec)


def _timed(tracer: Tracer, name: str, fn, attrs=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as rec:
            out = fn(*args, **kwargs)
            if attrs is not None:
                rec["attrs"].update(attrs(out))
            return out

    return wrapper


def _newton_attrs(fit) -> dict:
    return {"iterations": fit.iterations}


def _pass_attrs(sample) -> dict:
    return {"realized": sample.size, "expected": sample.expected_size}


# (module, attribute, span name, result -> attrs): calls the package makes
# to its own functions, timed where they are looked up in the module
PATCHES = (
    (pipeline, "solve_weighted_qle", "estimator.solve_weighted_qle", _newton_attrs),
    (pipeline, "subsample_hessian", "estimator.subsample_hessian", None),
    (pipeline, "resolve_rule", "pipeline.resolve_rule", None),
    (distributed, "second_pass", "pipeline.second_pass", _pass_attrs),
    (distributed, "solve_weighted_qle", "estimator.solve_weighted_qle", _newton_attrs),
    (distributed, "subsample_hessian", "estimator.subsample_hessian", None),
    (distributed, "vc_contribution", "estimator.vc_contribution", None),
    (synth, "generate_case", "synth.generate_case", None),
)


@contextmanager
def instrument(tracer: Tracer):
    """Install the timing wrappers in :data:`PATCHES`; restore them on exit."""
    saved = []
    try:
        for module, attr, name, attrs in PATCHES:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _timed(tracer, name, original, attrs))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


class TimedStream(RecordStream):
    """Timing proxy around a record source.

    Every block a scan produces is an ``ingest.block`` span covering the time
    the source spent producing it (for CSV: reading and parsing).  The first
    block of each scan carries the scan's range, so scans are counted from
    the spans.  ``record_bytes(lo, hi)``, when given, returns the text bytes
    of records [lo, hi) and is used to count bytes parsed.

    Wrapping hides the source's type, so ``partition_view`` no longer aligns
    shards with the files of a multi-file CSV source; the workloads use one
    file each, where the split is the same either way.
    """

    def __init__(self, inner: RecordStream, tracer: Tracer, record_bytes=None):
        self.inner = inner
        self.tracer = tracer
        self.record_bytes = record_bytes

    @property
    def n_records(self) -> int:
        with self.tracer.span("ingest.count"):
            return self.inner.n_records

    @property
    def dim(self) -> int:
        with self.tracer.span("ingest.dim"):
            return self.inner.dim

    def iter_blocks(self, lo: int = 0, hi: int | None = None):
        blocks = self.inner.iter_blocks(lo, hi)
        first = True
        try:
            while True:
                with self.tracer.span("ingest.block") as rec:
                    item = next(blocks, None)
                attrs = rec["attrs"]
                if first:
                    attrs.update(first=True, lo=lo, hi=hi)
                    first = False
                if item is None:
                    attrs["rows"] = 0
                    return
                start, xb, _ = item
                attrs["rows"] = xb.shape[0]
                if self.record_bytes is not None:
                    attrs["bytes"] = self.record_bytes(start, start + xb.shape[0])
                yield item
        finally:
            blocks.close()


def csv_record_bytes(line_ends):
    """``record_bytes`` for a headerless CSV file without blank lines.

    ``line_ends[i]`` is the byte offset just past line i.
    """

    def record_bytes(lo: int, hi: int) -> int:
        return int(line_ends[hi - 1] - (line_ends[lo - 1] if lo > 0 else 0))

    return record_bytes
