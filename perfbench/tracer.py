"""Span tracer for the benchmark's traced run.

The tracer wraps the solver's public functions and oracle methods at each
layer boundary from outside the package: every wrapped call records one span
(kind, start, end, parent).  Spans are kept in compact in-memory arrays until
the run ends and are summarised there; a layer's self time is its span time
minus the time covered by its direct child spans.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

import numpy as np


class Tracer:
    """Records nested spans of wrapped callables on a single thread."""

    def __init__(self):
        self.kinds: list[str] = []
        self._kind_ids: dict[str, int] = {}
        self._kind = array("H")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        # Index of the innermost open span; -1 when no span is open.
        self._stack = [-1]

    def _kind_id(self, kind: str) -> int:
        if kind not in self._kind_ids:
            self._kind_ids[kind] = len(self.kinds)
            self.kinds.append(kind)
        return self._kind_ids[kind]

    def wrap(self, kind: str, fn, on_result=None):
        """Return ``fn`` wrapped so that each call records a ``kind`` span.

        ``on_result``, when given, receives the call's return value (after the
        span closes), so layers can add counts such as iterations.
        """
        k = self._kind_id(kind)
        kinds, parents, starts, ends = self._kind, self._parent, self._start, self._end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            kinds.append(k)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if on_result is not None:
                on_result(out)
            return out

        return traced

    @contextmanager
    def patched(self, boundaries):
        """Temporarily replace attributes with traced wrappers.

        ``boundaries`` holds ``(owner, attribute, kind, on_result)`` tuples.
        Owners lacking the attribute are skipped, so the trace keeps working
        when a layer boundary is removed; its metrics then read zero.
        """
        saved = []
        try:
            for owner, attr, kind, on_result in boundaries:
                original = getattr(owner, attr, None)
                if original is None:
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(kind, original, on_result))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def summary(self) -> dict:
        """Per-kind span counts, inclusive seconds, self seconds, and the
        inclusive seconds of outermost spans (those whose parent is of
        another kind)."""
        kind = np.frombuffer(self._kind, dtype=np.uint16).astype(np.intp)
        parent = np.frombuffer(self._parent, dtype=np.int64)
        dur = np.frombuffer(self._end, dtype=float) - np.frombuffer(self._start, dtype=float)
        nested = parent >= 0
        child_time = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        self_time = dur - child_time
        outermost = ~nested
        outermost[nested] = kind[parent[nested]] != kind[nested]
        out = {}
        for k, name in enumerate(self.kinds):
            mask = kind == k
            out[name] = {
                "count": int(np.count_nonzero(mask)),
                "incl_s": float(dur[mask].sum()),
                "self_s": float(self_time[mask].sum()),
                "outer_incl_s": float(dur[mask & outermost].sum()),
            }
        return out
