"""In-memory span tracing applied from outside the program.

A `Tracer` replaces public functions of the `blockembed` modules with
wrappers that record one span per call (name, start, end, parent) or, for
very hot leaves, only a call count.  Every module attribute bound to the
original function is replaced, so names imported into other modules
(`from .fields import sample_field`) are traced as well.  `uninstall()`
restores every attribute.  Nothing under `src/` is edited.
"""

from __future__ import annotations

import json
import sys
import time
import types
from collections import Counter, defaultdict

NAME, START, END, PARENT = range(4)


class Tracer:
    """Spans and counters recorded by wrappers around program functions."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or -1]
        self.counters: Counter = Counter()
        self._stack: list = []
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][END] = time.perf_counter()

    def timed(self, name: str, fn, on_exit=None):
        """A wrapper of ``fn`` that records a span named ``name``.

        ``on_exit(args, kwargs, result, exc)`` runs after the call, inside
        the span, with either the result or the exception raised.
        """
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_exit is not None:
                    on_exit(args, kwargs, None, exc)
                raise
            else:
                if on_exit is not None:
                    on_exit(args, kwargs, result, None)
                return result
            finally:
                self.close(idx)

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn):
        """A wrapper of ``fn`` that only counts calls; its time stays in the
        caller's span."""
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr: str, wrapper) -> None:
        """Bind ``wrapper`` wherever ``owner.attr`` is bound in the program.

        ``owner`` is a module or a class.  For a module function, every
        loaded ``blockembed`` module whose attribute is the same object is
        patched too, so calls through imported names are traced.
        """
        original = getattr(owner, attr)
        targets = [owner]
        if isinstance(owner, types.ModuleType):
            targets += [
                mod for name, mod in sorted(sys.modules.items())
                if name.startswith("blockembed") and mod is not owner
            ]
        for target in targets:
            for name, value in list(vars(target).items()):
                if value is original:
                    setattr(target, name, wrapper)
                    self._undo.append((target, name, original))

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        for target, name, original in reversed(self._undo):
            setattr(target, name, original)
        self._undo.clear()

    # -- analysis ----------------------------------------------------------

    def aggregate(self) -> dict:
        """Per span name: calls, inclusive ms and self ms.

        A span's self time is its duration minus the durations of its
        direct children.
        """
        child_s = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_s[span[PARENT]] += span[END] - span[START]
        out: dict = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        for span, children in zip(self.spans, child_s):
            entry = out[span[NAME]]
            dur = span[END] - span[START]
            entry["calls"] += 1
            entry["ms"] += 1000.0 * dur
            entry["self_ms"] += 1000.0 * (dur - children)
        return dict(out)

    def children_named(self, parent_name: str, child_name: str) -> int:
        """Number of ``child_name`` spans whose direct parent is ``parent_name``."""
        return sum(
            1 for span in self.spans
            if span[NAME] == child_name and span[PARENT] >= 0
            and self.spans[span[PARENT]][NAME] == parent_name
        )

    def write(self, path) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, round(start - t0, 9),
                                     round(end - t0, 9), parent]) + "\n")
