"""In-memory span recording by wrapping layer entry points from outside.

:class:`SpanRecorder` keeps one record per call of a wrapped entry point:
span id, parent span id, name, the operation id current when it opened,
start and end (``perf_counter`` seconds) and the thread it ran on.  Parents
come from a per-thread stack, so nesting is exact on the single client
thread the benchmark drives.  :meth:`SpanRecorder.installed` patches every
:class:`~ssbbench.layers.WrapPoint` for the duration of a ``with`` block and
restores the original attribute objects afterwards, even on error.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from ssbbench.layers import ROOT_SPAN, WRAP_POINTS, WrapPoint

#: Field order of one span record.
SPAN_FIELDS = ("id", "parent", "name", "op", "start", "end", "thread")


def _owner(point: WrapPoint):
    module = importlib.import_module(point.module)
    return module if point.owner is None else getattr(module, point.owner)


def current_attributes() -> list[object]:
    """The raw attribute objects the wrap points currently hold."""
    return [vars(_owner(point))[point.attr] for point in WRAP_POINTS]


class SpanRecorder:
    """Collects spans and call counts of the wrapped entry points."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter[str] = Counter()
        #: Operation id stamped on every span that opens (set by the client loop).
        self.op: str = ""
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # ------------------------------------------------------------ wrappers
    def _timed(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append((
                    span_id, parent, name, self.op, start, end,
                    threading.get_ident(),
                ))
        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def installed(self):
        """Patch every wrap point for the block; restore them afterwards."""
        patched: list[tuple[object, str, object]] = []
        try:
            for point in WRAP_POINTS:
                owner = _owner(point)
                original = vars(owner)[point.attr]
                make = self._timed if point.kind == "timed" else self._counted
                setattr(owner, point.attr, make(point.span, original))
                patched.append((owner, point.attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    # ------------------------------------------------------------ analysis
    def layer_totals(
        self, factors: dict[str, float]
    ) -> tuple[dict[str, float], Counter[str]]:
        """Self seconds and call counts per span name, over the ops in ``factors``.

        A span's self time is its duration minus the durations of its
        direct children (which, on one thread, never overlap each other),
        scaled by its operation's speed factor.
        """
        child_s: dict[int, float] = defaultdict(float)
        for span_id, parent, _, _, start, end, _ in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter[str] = Counter()
        for span_id, _, name, op, start, end, _ in self.spans:
            if op in factors:
                self_s[name] += ((end - start) - child_s[span_id]) * factors[op]
                calls[name] += 1
        return dict(self_s), calls

    def coverage(self, ops: set[str], root: str = ROOT_SPAN) -> float:
        """Share of root-span wall covered by the named layers below it."""
        roots: dict[int, float] = {}
        for span_id, parent, name, op, start, end, _ in self.spans:
            if name == root and parent is None and op in ops:
                roots[span_id] = end - start
        covered = sum(
            end - start
            for _, parent, _, _, start, end, _ in self.spans
            if parent in roots
        )
        total = sum(roots.values())
        return covered / total if total > 0 else 0.0

    def write_jsonl(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as sink:
            for record in self.spans:
                sink.write(json.dumps(dict(zip(SPAN_FIELDS, record))) + "\n")
