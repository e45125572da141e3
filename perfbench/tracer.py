"""Per-layer tracing of the ``repro`` package, attached from outside.

The tracer never edits the program.  It replaces public functions and
methods with timing wrappers for the length of one traced pass and
puts the originals back afterwards.  A function is replaced under every
name a ``repro`` module binds it to, so a caller that did
``from ..smt.solver import solve_exists_forall`` sees the wrapper just
like a caller that looks the name up in its home module.

Two kinds of boundary are recorded:

* **spans** — one Chrome trace event per call, for boundaries crossed
  at most a few thousand times per pass (a job, a query, a SAT solve);
* **aggregates** — calls, hits and time summed in place with no event,
  for hot boundaries crossed hundreds of thousands of times (the
  peephole matcher, the rewriter, the analyses).

Both kinds keep a stack of open frames, so every boundary gets a *self
time*: its duration minus the time covered by boundaries opened inside
it.  Self times of all boundaries sum to the covered part of the traced
region; ``coverage`` divides that by the region's wall time, minus the
time the tracer spent in its own counting hooks.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

_pc = time.perf_counter


class Tracer:
    """Span stack, per-name totals, named counters and trace events."""

    def __init__(self) -> None:
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        #: (name, start, duration, item) for span boundaries
        self.events: List[tuple] = []
        #: open frames; each is a one-element list holding child time
        self._stack: List[List[float]] = [[0.0]]
        self._restore: List[Callable[[], None]] = []
        #: label of the rule or function being worked on, for events
        self.item: Optional[str] = None
        #: seconds spent in counting hooks (excluded from coverage)
        self.hook_s = 0.0
        self.region_s = 0.0
        self._region_start: Optional[float] = None
        self.origin = _pc()

    # -- the traced region ---------------------------------------------

    def begin(self) -> None:
        self._stack[0][0] = 0.0
        self._region_start = _pc()

    def end(self) -> None:
        self.region_s += _pc() - self._region_start
        self._region_start = None

    def coverage(self) -> float:
        covered = sum(self.self_time.values())
        return covered / max(1e-9, self.region_s - self.hook_s)

    # -- wrappers ---------------------------------------------------------

    def wrapper(self, orig: Callable, name: str, event: bool = True,
                before: Optional[Callable] = None,
                after: Optional[Callable] = None,
                consume: bool = False) -> Callable:
        """A timing wrapper around *orig* recorded under *name*.

        ``before(args)`` runs outside the timed call and returns a state
        handed to ``after(state, args, result)``; both are counting
        hooks and their cost is booked to :attr:`hook_s`.  With
        ``consume`` the wrapped call returns an iterator that is drained
        inside the span (a generator's work happens while it is
        iterated, not when it is called).
        """
        stack = self._stack
        self_time = self.self_time
        calls = self.calls
        events = self.events
        tracer = self

        def traced(*args, **kwargs):
            state = None
            if before is not None:
                h0 = _pc()
                state = before(args)
                h = _pc() - h0
                tracer.hook_s += h
                stack[-1][0] += h
            frame = [0.0]
            stack.append(frame)
            t0 = _pc()
            try:
                result = orig(*args, **kwargs)
                if consume:
                    result = list(result)
            finally:
                dur = _pc() - t0
                stack.pop()
                stack[-1][0] += dur
                self_time[name] += dur - frame[0]
                calls[name] += 1
                if event:
                    events.append((name, t0, dur, tracer.item))
            if after is not None:
                h0 = _pc()
                after(state, args, result)
                h = _pc() - h0
                tracer.hook_s += h
                stack[-1][0] += h
            return iter(result) if consume else result

        traced.__wrapped__ = orig
        return traced

    def aggregate(self, orig: Callable, name: str,
                  hit: Optional[Callable] = None) -> Callable:
        """A lean wrapper for hot boundaries: no event, no hooks.

        ``hit(result)`` decides whether the call counts toward
        ``<name>.hits`` (for example "the matcher returned a match").
        """
        stack = self._stack
        self_time = self.self_time
        calls = self.calls
        counts = self.counts
        hits_key = name + ".hits"

        def traced(*args):
            frame = [0.0]
            stack.append(frame)
            t0 = _pc()
            try:
                result = orig(*args)
            finally:
                dur = _pc() - t0
                stack.pop()
                stack[-1][0] += dur
                self_time[name] += dur - frame[0]
                calls[name] += 1
            if hit is not None and hit(result):
                counts[hits_key] += 1
            return result

        traced.__wrapped__ = orig
        return traced

    # -- installing -------------------------------------------------------

    def patch_attr(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` for the traced pass; undone by :meth:`unpatch`."""
        had = attr in vars(owner)
        old = vars(owner).get(attr)
        setattr(owner, attr, replacement)

        def restore() -> None:
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)

        self._restore.append(restore)

    def patch_function(self, fn: Callable, replacement: Callable) -> int:
        """Rebind *fn* to *replacement* in every ``repro`` module.

        Returns the number of bindings replaced; zero means the name is
        not where the tracer expects it, which the caller treats as an
        error rather than silently tracing nothing.
        """
        replaced = 0
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "repro"
                                      or modname.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.patch_attr(module, attr, replacement)
                    replaced += 1
        return replaced

    def unpatch(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- output -----------------------------------------------------------

    def write_chrome_trace(self, path: str, metadata: dict) -> None:
        """Write the recorded spans in Chrome Trace Event format.

        Aggregated boundaries have no per-call events; their totals ride
        in ``otherData`` next to the per-layer metrics.
        """
        trace_events = []
        for name, start, dur, item in self.events:
            event = {
                "name": name,
                "cat": name.split(".")[0],
                "ph": "X",
                "ts": round((start - self.origin) * 1e6, 3),
                "dur": round(dur * 1e6, 3),
                "pid": 1,
                "tid": 1,
            }
            if item is not None:
                event["args"] = {"item": item}
            trace_events.append(event)
        with open(path, "w") as handle:
            json.dump({"traceEvents": trace_events, "displayTimeUnit": "ms",
                       "otherData": metadata}, handle)
