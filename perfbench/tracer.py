"""Outside-in wall-clock layer timing for the traced benchmark run.

The tracer wraps public callables of the program (module functions and
class methods) from outside, keeps a stack of open spans, and splits each
span's duration into time spent in wrapped callees (child time) and its own
*self* time.  Self times of all spans sum to the duration of the top-level
spans, so with one root span around the measured window, the root's self
time is exactly the wall time no wrapped layer accounts for.

Spans are kept in memory and exported at the end as a Chrome trace.  Hooks
that read results run after a span closes, on the caller's time; each is a
few attribute reads.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

Hook = Callable[[tuple, dict, Any], None]
PreHook = Callable[[tuple, dict], None]

#: Package whose modules :meth:`Tracer.patch_function` rebinds.
PATCHED_PACKAGE = "repro"


class Tracer:
    """Stack-based span recorder with per-name call/total/self aggregates."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.t0 = clock()
        # Open spans: [name, start, child_seconds].
        self._stack: List[list] = []
        self.calls: Dict[str, int] = {}
        self.total_s: Dict[str, float] = {}
        self.self_s: Dict[str, float] = {}
        # Closed spans kept for export: (name, start, duration).
        self.events: List[Tuple[str, float, float]] = []
        self._unrecorded: set = set()
        self._patches: List[Tuple[object, str, object]] = []
        self._paused = 0

    # ------------------------------------------------------------------
    # Span arithmetic
    # ------------------------------------------------------------------
    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> float:
        """Close the innermost span; returns its duration."""
        name, start, child = self._stack.pop()
        dur = self.clock() - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total_s[name] = self.total_s.get(name, 0.0) + dur
        self.self_s[name] = self.self_s.get(name, 0.0) + (dur - child)
        if self._stack:
            self._stack[-1][2] += dur
        if name not in self._unrecorded:
            self.events.append((name, start, dur))
        return dur

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    @contextmanager
    def paused(self, name: str) -> Iterator[None]:
        """One span for benchmark work (input generation); wrapped program
        calls inside it are not split out, so its whole duration is its
        own self time."""
        self.enter(name)
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1
            self.exit()

    def parent(self) -> Optional[str]:
        return self._stack[-1][0] if self._stack else None

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap(
        self, fn: Callable, name: str, hook: Optional[Hook] = None,
        record: bool = True, pre: Optional[PreHook] = None,
    ) -> Callable:
        """``fn`` timed as span ``name``.  ``pre(args, kwargs)`` runs
        before the span opens and ``hook(args, kwargs, result)`` after it
        closes.  ``record=False`` aggregates the span but leaves it out of
        the exported trace (per-warp calls)."""
        if not record:
            self._unrecorded.add(name)
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if tracer._paused:
                return fn(*args, **kwargs)
            if pre is not None:
                pre(args, kwargs)
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def patch_method(
        self, cls: type, attr: str, name: str, hook: Optional[Hook] = None,
        record: bool = True, pre: Optional[PreHook] = None,
    ) -> None:
        """Wrap the method ``attr`` defined on ``cls`` (subclasses that do
        not override it see the wrapper too)."""
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(original, name, hook, record, pre))

    def patch_function(
        self, fn: Callable, name: str, hook: Optional[Hook] = None
    ) -> None:
        """Rebind every module-level reference to ``fn`` in loaded
        :data:`PATCHED_PACKAGE` modules (``from x import f`` copies the
        binding, so each importing module is patched)."""
        wrapper = self.wrap(fn, name, hook)
        prefix = PATCHED_PACKAGE
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == prefix or mod_name.startswith(prefix + ".")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, wrapper)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def chrome_trace(self, process_name: str) -> Dict[str, Any]:
        """Chrome Trace Event JSON of the recorded spans (wall clock, one
        thread; ``ts``/``dur`` in microseconds from tracer creation)."""
        meta = [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
             "args": {"name": process_name}},
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
             "args": {"name": "client"}},
        ]
        spans = [
            {
                "name": name, "cat": name.split(".", 1)[0], "ph": "X",
                "ts": (start - self.t0) * 1e6, "dur": dur * 1e6,
                "pid": 1, "tid": 1,
            }
            for name, start, dur in self.events
        ]
        return {
            "traceEvents": meta + spans,
            "displayTimeUnit": "ms",
            "otherData": {"clock": "wall seconds (perf_counter)"},
        }

    def layer_rows(self, wall_s: float) -> List[Dict[str, Any]]:
        """Per-span-name rows (calls, total, self, self share of wall),
        largest self time first."""
        rows = [
            {
                "span": name,
                "calls": self.calls[name],
                "total_s": self.total_s[name],
                "self_s": self.self_s[name],
                "share": self.self_s[name] / wall_s if wall_s > 0 else 0.0,
            }
            for name in self.calls
        ]
        rows.sort(key=lambda r: -r["self_s"])
        return rows


def format_layer_table(rows: List[Dict[str, Any]], wall_s: float) -> str:
    lines = [
        f"{'span':<28} {'calls':>9} {'total_s':>10} {'self_s':>10} {'share':>7}",
    ]
    for r in rows:
        lines.append(
            f"{r['span']:<28} {r['calls']:>9d} {r['total_s']:>10.4f} "
            f"{r['self_s']:>10.4f} {100 * r['share']:>6.2f}%"
        )
    attributed = sum(r["self_s"] for r in rows)
    lines.append(f"{'sum of self':<28} {'':>9} {'':>10} {attributed:>10.4f}")
    lines.append(f"{'wall':<28} {'':>9} {'':>10} {wall_s:>10.4f}")
    return "\n".join(lines)
