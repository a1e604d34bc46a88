"""Spans and counters recorded around the calls into each library layer.

Nothing in the library is edited: the tracer replaces module attributes
that the library looks up at call time (``numpy.linalg.svd``,
``hodgeheights._rational.rref``, ``hodgeheights.mhs.validate`` and so on)
with wrappers that count the call and record a span
``[name, start, end, parent, op]``.  ``uninstall`` puts the originals back.
A seam that a later version of the library no longer has is listed in
``Tracer.missing`` instead of failing the run.  Spans stay in memory until
the run writes them out.
"""

from __future__ import annotations

import json
import time
from collections import Counter

import numpy as np

from hodgeheights import _rational, deligne, framed, mhs, polylog

# (span name, module, attribute).  One name may cover several attributes
# that refer to the same function under different module names.
LAYERS = (
    ("linalg.svd", np.linalg, "svd"),
    ("rational.rref", _rational, "rref"),
    ("mhs.validate", mhs, "validate"),
    ("mhs.derive", mhs, "dual"),
    ("mhs.derive", mhs, "twist"),
    ("mhs.derive", mhs, "conjugate"),
    ("deligne.bigrading", deligne, "_compute_bigrading"),
    ("deligne.projectors", deligne, "projectors"),
    ("deligne.solve_delta", deligne, "_solve_delta"),
    ("deligne.delta_splitting", deligne, "delta_splitting"),
    ("deligne.delta_splitting", framed, "delta_splitting"),
    ("framed.frame_elements", framed, "frame_elements"),
    ("framed.height1", framed, "height1"),
    ("framed.height2", framed, "height2"),
    ("framed.height1_via_delta", framed, "height1_via_delta"),
    ("framed.morphism_check", framed, "framed_morphism_check"),
    ("polylog.polylog_mhs", polylog, "polylog_mhs"),
    ("polylog.transport", polylog, "_transport"),
    ("polylog.closed_forms", polylog, "li"),
    ("polylog.closed_forms", polylog, "sv_brown"),
    ("polylog.closed_forms", polylog, "sv_bd"),
    ("polylog.closed_forms", polylog, "build_matrices"),
    ("polylog.closed_forms", polylog, "delta_closed_form"),
    ("polylog.closed_forms", polylog, "heights_closed_form"),
)

# Counted only: called from inside a span above, cheap to count, and the
# count is the quantity of interest.
COUNTED = (
    ("polylog.transport.passes", polylog, "_transport_once"),
    ("polylog.transport.panel_calls", polylog, "_panel_points"),
)

# Module-level lru_caches whose size the traced run reports.
CACHES = (
    ("deligne.bigrading", deligne, "bigrading"),
    ("deligne.delta_splitting", deligne, "delta_splitting"),
    ("framed._dual", framed, "_dual"),
    ("polylog.polylog_mhs", polylog, "polylog_mhs"),
    ("polylog._transport", polylog, "_transport"),
    ("polylog._cheb_nodes", polylog, "_cheb_nodes"),
    ("polylog.bernoulli", polylog, "bernoulli"),
)


class Tracer:
    """Counts calls per layer and records a span for each call."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._originals: dict[tuple, object] = {}
        self.missing: list[str] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        self.missing = []
        for seams, make in ((LAYERS, self._span_wrapper), (COUNTED, self._count_wrapper)):
            for name, module, attr in seams:
                if not hasattr(module, attr):
                    self.missing.append(f"{module.__name__}.{attr}")
                    continue
                self._patch(module, attr, make(name, self._original(module, attr)))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)

    def _original(self, module, attr):
        key = (module.__name__, attr)
        if key not in self._originals:
            self._originals[key] = getattr(module, attr)
        return self._originals[key]

    def _patch(self, module, attr, wrapper) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _span_wrapper(self, name, fn):
        counts, spans, stack = self.counts, self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            counts[name] += 1
            idx = len(spans)
            parent = stack[-1] if stack else -1
            span = [name, clock(), 0.0, parent, self.op]
            spans.append(span)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            out = fn(*args, **kwargs)
            if name == "polylog.transport.panel_calls":
                counts["polylog.transport.panels"] += len(out) - 1
            return out

        return wrapper

    # -- ops --------------------------------------------------------------

    def begin_op(self, op: int) -> int:
        self.op = op
        idx = len(self.spans)
        self.spans.append(["op", time.perf_counter(), 0.0, -1, op])
        self._stack.append(idx)
        return idx

    def end_op(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()
        self.op = None

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time (s) per span name: duration minus child coverage.

        Spans nest strictly (they come from a call stack), so the part of a
        span covered by its children is the sum of the children's durations.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for (name, start, end, _, _), covered in zip(self.spans, child):
            out[name] += (end - start) - covered
        return dict(out)

    def descendants(self, span_idx: int):
        """Indices of the spans nested under span `span_idx`, in start order.

        Spans are appended when they start, so a subtree is contiguous.
        """
        inside = {span_idx}
        for i in range(span_idx + 1, len(self.spans)):
            if self.spans[i][3] not in inside:
                return
            inside.add(i)
            yield i

    def first(self, span_idx: int, name: str) -> int | None:
        """The first span called `name` under span `span_idx`, if any."""
        return next((i for i in self.descendants(span_idx) if self.spans[i][0] == name), None)

    def inclusive_counts(self, span_idx: int, name: str) -> int:
        """Number of spans called `name` nested anywhere under span `span_idx`."""
        return sum(self.spans[i][0] == name for i in self.descendants(span_idx))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")

    def cache_sizes(self) -> dict[str, object]:
        """currsize of each module lru_cache; "missing" when the cache is gone."""
        out: dict[str, object] = {}
        for name, module, attr in CACHES:
            fn = self._originals.get((module.__name__, attr), getattr(module, attr, None))
            info = getattr(fn, "cache_info", None)
            out[name] = info().currsize if info is not None else "missing"
        return out
