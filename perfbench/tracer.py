"""Per-layer tracing from outside the package.

Wrappers replace a callable under the name its caller looks it up by
(``coceer.cantor_unpair``, ``pi01.upseq_eval``, ``CeerRunner.advance_to``,
...), so the library is traced without being edited.  Every wrapped call
updates its name's call count, total time and self time (total minus the
time covered by wrapped calls made inside it).  Calls of the layers that
run a handful of times per stage or less also become spans
``(id, parent_id, name, start, end)``; the hot leaf calls (millions per run)
are aggregated only, so the span list stays small.  Spans stay in memory
until :meth:`Tracer.write_spans`.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Optional


class Tracer:
    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.total_s: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.counters: Counter[str] = Counter()
        self.spans: list[tuple[int, Optional[int], str, float, float]] = []
        # one frame per open call: [time covered by children, parent id for
        # spans opened inside it, its own parent id]
        self._stack: list[list] = [[0.0, None, None]]
        self._patched: list[tuple[object, str, object]] = []
        self.t0 = perf_counter()

    def _enter(self, span: bool) -> list:
        parent_id = self._stack[-1][1]
        frame = [0.0, len(self.spans) + 1 if span else parent_id, parent_id]
        if span:
            self.spans.append(None)  # reserve the id; filled in on exit
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list, span: bool, start: float, end: float) -> None:
        self._stack.pop()
        duration = end - start
        self._stack[-1][0] += duration
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - frame[0]
        if span:
            self.spans[frame[1] - 1] = (frame[1], frame[2], name, start - self.t0, end - self.t0)

    def patch(self, owner: object, attr: str, name: str, span: bool = True,
              before: Optional[Callable] = None, after: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by a wrapper timed under ``name`` until
        :meth:`unpatch`; ``before(args)`` and ``after(args, result)`` run
        outside the timed interval."""
        fn = getattr(owner, attr)
        self._patched.append((owner, attr, fn))

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            frame = self._enter(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, frame, span, start, perf_counter())
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, traced)

    @contextmanager
    def region(self, name: str):
        """Record the benchmark's own code as a span."""
        frame = self._enter(True)
        start = perf_counter()
        try:
            yield
        finally:
            self._exit(name, frame, True, start, perf_counter())

    def unpatch(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write_spans(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["id", "parent_id", "name", "start_s", "end_s"],
                    "spans": [s for s in self.spans if s is not None],
                },
                fh,
            )
            fh.write("\n")

