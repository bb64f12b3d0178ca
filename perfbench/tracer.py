"""Outside-in span tracer for the geoattn benchmark.

The tracer records spans from the benchmark's side of each layer boundary:
it replaces a function in the module where its *caller* looks it up (for
example ``geoattn.attention.matmul``, because ``attention`` imports
``matmul`` by name) with a timing wrapper, and puts the original back
afterwards.  Nothing inside the library changes.

Spans are kept in memory as a flat list with parent indices and written out
by the caller when the run ends.  A probe may attach computed counts to its
span (work done, clip fractions); the time spent computing them is recorded
as the span's ``tail_ns`` and is charged to neither the span nor its parent.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass(frozen=True)
class Probe:
    """Where to wrap, and what to call the span.

    ``module`` and ``attr`` name the lookup site the caller uses.  ``count``
    maps ``(args, kwargs, result)`` to a dict of computed counts.  When the
    innermost open span is named ``skip_under``, the call is not recorded
    and its time stays in that span's self time.
    """

    module: str
    attr: str
    name: str
    count: Optional[Callable] = None
    skip_under: Optional[str] = None


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int = 0
    parent: int = -1
    tail_ns: int = 0
    counts: dict = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Records nested spans for one thread; install/restore the wrappers."""

    def __init__(self, probes):
        self.probes = list(probes)
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.uncounted: set[str] = set()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter_ns(), parent=parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code, such as one whole op."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, fn, probe: Probe):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if probe.skip_under and stack and spans[stack[-1]].name == probe.skip_under:
                return fn(*args, **kwargs)
            span = self._open(probe.name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if probe.count is not None:
                try:
                    span.counts = probe.count(args, kwargs, result)
                except Exception:  # a changed signature loses the counts, not the op
                    self.uncounted.add(probe.name)
                span.tail_ns = time.perf_counter_ns() - span.end_ns
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every probe whose name still exists; list the rest as absent."""
        if self._saved:
            raise RuntimeError("tracer wrappers are already installed")
        self.absent = []
        for probe in self.probes:
            try:
                module = importlib.import_module(probe.module)
            except ImportError:
                self.absent.append(probe.name)
                continue
            original = getattr(module, probe.attr, None)
            if original is None:
                self.absent.append(probe.name)
                continue
            setattr(module, probe.attr, self._wrap(original, probe))
            self._saved.append((module, probe.attr, original))

    def restore(self) -> None:
        """Put every original back and check each one by identity."""
        saved, self._saved = self._saved, []
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
        for module, attr, original in saved:
            if getattr(module, attr) is not original:
                raise RuntimeError(f"failed to restore {module.__name__}.{attr}")

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()


def self_times_ns(spans) -> list[int]:
    """Each span's duration minus the part its direct children cover.

    A child covers ``[start, end + tail]``: its own interval plus the time
    the tracer spent computing its counts.  Coverage is clipped to the
    parent's interval and overlapping children are counted once.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start_ns, s.end_ns + s.tail_ns))
    out = []
    for i, s in enumerate(spans):
        covered = 0
        cursor = s.start_ns
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, cursor), min(hi, s.end_ns)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s.duration_ns - covered)
    return out
