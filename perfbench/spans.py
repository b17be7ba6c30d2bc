"""Span recorder for the traced run, wrapping public functions from outside.

Each wrapped call records a span: its name, start, end and the span that was
open when it began (its parent).  Spans stay in memory and are written out
once, at the end of the run.  Self time is a span's duration minus the time
covered by its child spans.

A wrapper is installed under every name that refers to the original function
in any loaded ``dvrcircuits`` module, because modules import names from each
other (``convergence`` imports ``eigenvalues``; ``cli`` and ``states`` import
``assemble`` and ``eigensolve``) and a patch of the defining module alone
would miss those calls.
"""

from __future__ import annotations

import functools
import sys
import time
from pathlib import Path

# Span fields, kept as lists for cheap in-place updates.
NAME, START, END, PARENT, CHILD_TIME, ATTRS = range(6)


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, attrs):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD_TIME] += span[END] - span[START]
            if attrs is not None:
                span[ATTRS] = attrs(args, result)
            return result

        return wrapper

    def install(self, targets) -> None:
        """Wrap each (span name, owner, attribute, attrs) target.

        ``owner`` is the module or class that defines the attribute; ``attrs``
        maps (args, result) to the values kept with the span, or is None.
        """
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "dvrcircuits" or n.startswith("dvrcircuits."))]
        for name, owner, attr, attrs in targets:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, attrs)
            holders = [owner] + [m for m in modules if m is not owner]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    def write(self, path: Path) -> None:
        """All spans as CSV: index, name, start, end, parent, self time."""
        lines = ["index,name,start_s,end_s,parent,self_s"]
        for i, s in enumerate(self.spans):
            lines.append(f"{i},{s[NAME]},{s[START]:.9f},{s[END]:.9f},{s[PARENT]},{self_time(s):.9f}")
        path.write_text("\n".join(lines) + "\n")


def self_time(span: list) -> float:
    return span[END] - span[START] - span[CHILD_TIME]


def duration(span: list) -> float:
    return span[END] - span[START]
