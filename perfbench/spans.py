"""In-memory span recorder for the traced benchmark pass.

A span is ``[name, start, end, parent]``: ``time.perf_counter`` seconds
and the index of the enclosing span (``-1`` at the root).  Spans are
opened from the benchmark's own code around calls into the program's
public functions — with :meth:`Tracer.span` at a call site, or with
:meth:`Tracer.wrap`, which swaps a class attribute for a recording
wrapper until :meth:`Tracer.restore`.  No per-access function is
wrapped; per-access work is counted from ``CacheMetrics`` instead.

A disabled tracer records nothing and wraps nothing, so the untraced
pass that gives the end-to-end metrics runs the program unmodified.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from pathlib import Path

_NULL = contextlib.nullcontext()


class Tracer:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def _span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def span(self, name: str):
        """Context manager recording one span (a no-op when disabled)."""
        return self._span(name) if self.enabled else _NULL

    def timed(self, name: str, fn):
        """``fn`` wrapped so that every call records a span ``name``."""

        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return wrapper

    # -- patching ------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, result=None) -> None:
        """Record a span ``name`` around every call of ``owner.attr``.

        ``attr`` is a method or a ``functools.cached_property`` defined
        on ``owner`` itself.  ``result``, when given, maps the call's
        return value (used to wrap the kernel callable ``batch_kernel``
        returns).  Undone by :meth:`restore`; a no-op when disabled.
        """
        if not self.enabled:
            return
        original = owner.__dict__[attr]
        if isinstance(original, functools.cached_property):
            replacement = functools.cached_property(
                self.timed(name, original.func)
            )
            replacement.__set_name__(owner, attr)
        elif result is None:
            replacement = self.timed(name, original)
        else:
            timed = self.timed(name, original)

            def replacement(*args, **kwargs):
                return result(timed(*args, **kwargs))

        self._patched.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------
    def totals(self) -> dict[str, float]:
        """Inclusive seconds per span name."""
        out: dict[str, float] = {}
        for name, start, end, _ in self.spans:
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for name, *_ in self.spans:
            out[name] = out.get(name, 0) + 1
        return out

    def self_times(self) -> dict[str, float]:
        """Per-name self time: each span's duration minus its children's.

        The benchmark is single-threaded, so sibling spans never overlap.
        """
        children = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _), inner in zip(self.spans, children):
            out[name] = out.get(name, 0.0) + (end - start) - inner
        return out

    def root_seconds(self) -> float:
        """Seconds covered by root spans."""
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    # -- output --------------------------------------------------------
    def dump(self, path: Path) -> None:
        """Write the spans as JSON lines and a self-time table to stderr."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                record = {
                    "id": index,
                    "name": name,
                    "start_s": round(start - t0, 6),
                    "end_s": round(end - t0, 6),
                    "parent": parent,
                }
                fh.write(json.dumps(record) + "\n")
        counts = self.counts()
        totals = self.totals()
        print(f"perfbench: {len(self.spans)} spans -> {path}", file=sys.stderr)
        print(f"{'span':<48} {'calls':>7} {'self_s':>9} {'total_s':>9}", file=sys.stderr)
        for name, seconds in sorted(
            self.self_times().items(), key=lambda kv: -kv[1]
        ):
            print(
                f"{name:<48} {counts[name]:>7} {seconds:>9.3f} {totals[name]:>9.3f}",
                file=sys.stderr,
            )
