"""Host-clock span recorder that wraps the program's callables from outside.

The traced repeat installs wrappers around public callables of each layer
(see ``layers.TARGETS``), runs once, and removes them again.  Nothing under
``src/`` knows about this file.

Rank code is generators driven by the event engine, so a "call" is not one
contiguous stretch of host time: a generator runs, yields to the engine,
other ranks run, and it is resumed later.  A span therefore accumulates host
time **per resumption**.  Each resumption is a proper dynamic extent (the
engine's ``send`` returns before anything else runs), so one frame stack is
enough: while generator G is being resumed, whatever wrapped callable runs
inside that resumption is G's child, and an interleaved rank's resumption is
pushed and popped before G's next one.  Spans of different coroutines never
nest into each other, which is what "stack keyed per coroutine" buys, without
needing to know which coroutine is running.

Self time of a span = its busy time minus the busy time of wrapped callables
that ran inside its resumptions.  Summed over all spans, self times tile the
traced wall exactly (up to clock reads), which ``run.py`` checks.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager

__all__ = ["SpanRecorder", "install", "remove"]


class SpanRecorder:
    """Aggregates (calls, busy, self) per (layer, name); keeps span records."""

    def __init__(self, clock=time.perf_counter, max_records: int = 200_000) -> None:
        self._clock = clock
        self._stack: list[list] = []  # frames: [span_id, t0, child_busy]
        self._next_id = 0
        self.max_records = max_records
        # (layer, name) -> [calls, busy_s, self_s, units]
        self.totals: dict[tuple[str, str], list] = {}
        # (span_id, parent_id, layer, name, t0, t1, busy_s, self_s)
        self.records: list[tuple] = []
        self.dropped = 0

    # -- frame stack -------------------------------------------------------
    def _open(self) -> tuple[int, int]:
        """Allocate a span id; its parent is whatever is running now."""
        parent = self._stack[-1][0] if self._stack else -1
        self._next_id += 1
        return self._next_id, parent

    def _push(self, span_id: int) -> None:
        self._stack.append([span_id, self._clock(), 0.0])

    def _pop(self) -> tuple[float, float, float, float]:
        t1 = self._clock()
        _sid, t0, child = self._stack.pop()
        busy = t1 - t0
        if self._stack:
            self._stack[-1][2] += busy
        return t0, t1, busy, busy - child

    def _close(self, key, span_id, parent, t0, t1, busy, self_s, units=0) -> None:
        tot = self.totals.get(key)
        if tot is None:
            tot = self.totals[key] = [0, 0.0, 0.0, 0]
        tot[0] += 1
        tot[1] += busy
        tot[2] += self_s
        tot[3] += units
        if len(self.records) < self.max_records:
            self.records.append((span_id, parent, key[0], key[1], t0, t1, busy, self_s))
        else:
            self.dropped += 1

    # -- public ------------------------------------------------------------
    @contextmanager
    def span(self, layer: str, name: str):
        """A plain (non-generator) span around a ``with`` block."""
        span_id, parent = self._open()
        self._push(span_id)
        try:
            yield
        finally:
            t0, t1, busy, self_s = self._pop()
            self._close((layer, name), span_id, parent, t0, t1, busy, self_s)

    def wrap(self, fn, layer: str, name: str, tally=None):
        """Wrap ``fn``; generator functions get the per-resumption wrapper.

        ``tally(args, result)`` (plain callables only) returns a number of
        work units — bytes, usually — summed into the span's totals, so a
        count is taken at the same boundary as the time.
        """
        key = (layer, name)
        rec = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                span_id = parent = None
                busy = self_s = 0.0
                t_first = None
                t_last = 0.0
                value = exc = None
                try:
                    while True:
                        if span_id is None:
                            span_id, parent = rec._open()
                        rec._push(span_id)
                        try:
                            if exc is not None:
                                item = gen.throw(exc)
                            else:
                                item = gen.send(value)
                        except StopIteration as stop:
                            return stop.value
                        finally:
                            t0, t_last, b, s = rec._pop()
                            if t_first is None:
                                t_first = t0
                            busy += b
                            self_s += s
                        try:
                            value = yield item
                            exc = None
                        except GeneratorExit:
                            gen.close()
                            raise
                        except BaseException as thrown:  # forwarded into the wrapped generator
                            exc = thrown
                finally:
                    if span_id is not None:
                        rec._close(key, span_id, parent, t_first, t_last, busy, self_s)

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id, parent = rec._open()
            rec._push(span_id)
            units = 0
            try:
                result = fn(*args, **kwargs)
                if tally is not None:
                    units = tally(args, result)
                return result
            finally:
                t0, t1, busy, self_s = rec._pop()
                rec._close(key, span_id, parent, t0, t1, busy, self_s, units)

        return wrapper

    def layer_self(self) -> dict[str, float]:
        """Self seconds summed per layer."""
        out: dict[str, float] = {}
        for (layer, _name), (_calls, _busy, self_s, _units) in self.totals.items():
            out[layer] = out.get(layer, 0.0) + self_s
        return out

    def _sum(self, slot: int, layer: str, names) -> float:
        return sum(self.totals.get((layer, n), (0, 0.0, 0.0, 0))[slot] for n in names)

    def calls(self, layer: str, *names: str) -> int:
        return self._sum(0, layer, names)

    def busy(self, layer: str, *names: str) -> float:
        return self._sum(1, layer, names)

    def units(self, layer: str, *names: str) -> float:
        return self._sum(3, layer, names)


def install(recorder: SpanRecorder, targets) -> tuple[list, list]:
    """Wrap every target; returns ``(undo, missing)``.

    A target is ``(layer, span_name, module, qualname[, tally])`` where
    ``qualname`` is ``"Class.attr"`` or a module-level function name.  Module-level functions
    are usually imported by name elsewhere (``from .x import f``), so every
    module of the same top-level package whose globals hold the identical
    object is rebound too.  Targets that no longer exist are reported in
    ``missing`` rather than failing: later PRs may delete what they name.
    """
    undo: list[tuple] = []
    missing: list[str] = []
    for layer, name, modname, qualname, *rest in targets:
        tally = rest[0] if rest else None
        try:
            mod = importlib.import_module(modname)
        except ImportError:
            missing.append(f"{modname}:{qualname}")
            continue
        if "." in qualname:
            clsname, attr = qualname.split(".", 1)
            cls = getattr(mod, clsname, None)
            raw = cls.__dict__.get(attr) if cls is not None else None
            if raw is None:
                missing.append(f"{modname}:{qualname}")
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(recorder.wrap(raw.__func__, layer, name, tally))
            else:
                new = recorder.wrap(raw, layer, name, tally)
            setattr(cls, attr, new)
            undo.append((cls, attr, raw))
            continue
        orig = getattr(mod, qualname, None)
        if orig is None:
            missing.append(f"{modname}:{qualname}")
            continue
        wrapped = recorder.wrap(orig, layer, name, tally)
        package = modname.split(".", 1)[0]
        for other_name, other in list(sys.modules.items()):
            if other is None or other_name.split(".", 1)[0] != package:
                continue
            for attr, value in list(vars(other).items()):
                if value is orig:
                    setattr(other, attr, wrapped)
                    undo.append((other, attr, orig))
    return undo, missing


def remove(undo: list) -> None:
    """Restore every attribute :func:`install` rebound (reverse order)."""
    for owner, attr, raw in reversed(undo):
        setattr(owner, attr, raw)
    undo.clear()
