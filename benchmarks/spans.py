"""Span tracer that wraps module attributes from outside the package.

A wrapped function records one span per call: name, start, end (integer
nanoseconds from ``time.perf_counter_ns``) and the index of the enclosing
span.  Spans stay in memory until the run ends.  Counters sit beside the
spans and are updated by per-wrap hooks from the call's arguments, so
ratios are measured where the work happens.

Nothing in the package is edited: ``Tracer.wrap`` replaces a name in the
namespace that looks it up (``from .analysis import receiver_snr`` binds
the name in ``montecarlo``, so that is where it is wrapped) and
``Tracer.restore`` puts every original back.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent_index]
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.spans[idx][2] = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span stack out of order: closed {idx}, top was {popped}")

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn under a span named name; used for the root span of an invocation."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def wrap(self, namespace, attr: str, name, hook=None):
        """Replace namespace.attr with a traced version.

        name is a span name, or a callable (args, kwargs) -> span name.
        hook(tracer, args, kwargs, result) updates counters after the call.
        """
        orig = getattr(namespace, attr)
        label = name if callable(name) else (lambda args, kwargs, _n=name: _n)

        def traced(*args, **kwargs):
            span_name = label(args, kwargs)
            self.counts[span_name + ".calls"] += 1
            idx = self._open(span_name)
            try:
                result = orig(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        setattr(namespace, attr, traced)
        self._patched.append((namespace, attr, orig))

    def restore(self):
        while self._patched:
            namespace, attr, orig = self._patched.pop()
            setattr(namespace, attr, orig)

    def self_times_ns(self) -> dict[str, int]:
        """Per-name self time: span duration minus the time covered by its children.

        Raises if a span is left open or a child lies outside its parent,
        which would make the self times meaningless.
        """
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open")
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if end < start:
                raise RuntimeError(f"span {name} ends before it starts")
            if parent >= 0:
                _, p_start, p_end, _ = self.spans[parent]
                if start < p_start or end > p_end:
                    raise RuntimeError(f"span {name} lies outside its parent")
                child_ns[parent] += end - start
        out: defaultdict[str, int] = defaultdict(int)
        for (name, start, end, _), child in zip(self.spans, child_ns):
            out[name] += end - start - child
        return dict(out)

    def root_total_ns(self) -> int:
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def write(self, path):
        """Write every span as tab-separated index, parent, name, start_ns, end_ns."""
        with open(path, "w") as f:
            f.write("index\tparent\tname\tstart_ns\tend_ns\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                f.write(f"{i}\t{parent}\t{name}\t{start}\t{end}\n")
