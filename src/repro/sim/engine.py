"""Discrete-event simulation kernel.

This module implements a small, deterministic discrete-event engine in the
style of SimPy: *processes* are Python generators that ``yield`` awaitable
:class:`Event` objects, and the :class:`Engine` advances a virtual clock by
popping scheduled callbacks from a heap.

Everything in :mod:`repro` that needs virtual time — the simulated MPI
runtime, the parallel-filesystem model, the training loop — runs on top of
this kernel.  The engine is single-threaded and fully deterministic: event
ordering ties are broken by a monotonically increasing sequence number, so
two runs with the same inputs produce bit-identical schedules.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Engine",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "SimulationError",
    "Interrupt",
]


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (e.g. double trigger)."""


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it."""


class Event:
    """A one-shot occurrence at a point in virtual time.

    Processes wait on an event by yielding it.  An event is *triggered* at
    most once, carries an optional value, and may represent a failure (an
    exception to be re-raised inside every waiter).
    """

    __slots__ = ("engine", "callbacks", "_value", "_exc", "triggered", "_name")

    def __init__(self, engine: "Engine", name: "str | tuple[str, Any]" = "") -> None:
        self.engine = engine
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self.triggered = False
        self._name = name

    # -- inspection ------------------------------------------------------
    @property
    def name(self) -> str:
        """The event's label.  A ``(template, arg)`` name is formatted here,
        on read: hot-path events (timeouts, lock and resource grants,
        process kicks) never pay for a label nobody looks at."""
        name = self._name
        if type(name) is tuple:
            return name[0].format(name[1])
        return name

    @property
    def value(self) -> Any:
        if not self.triggered:
            raise SimulationError(f"event {self!r} has not been triggered")
        if self._exc is not None:
            raise self._exc
        return self._value

    @property
    def processed(self) -> bool:
        """True once callbacks have run (i.e. waiters were resumed)."""
        return self.callbacks is None

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        if self.triggered:
            raise SimulationError(f"event {self!r} already triggered")
        self.triggered = True
        self._value = value
        self.engine._post(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        if self.triggered:
            raise SimulationError(f"event {self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self.triggered = True
        self._exc = exc
        self.engine._post(self)
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Register ``fn(event)`` to run when the event is processed.

        If the event has already been processed the callback runs
        immediately (still inside the engine's notion of "now").
        """
        if self.callbacks is None:
            fn(self)
        else:
            self.callbacks.append(fn)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "triggered" if self.triggered else "pending"
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state}>"


class Timeout(Event):
    """An event that triggers ``delay`` units of virtual time after creation."""

    __slots__ = ()

    def __init__(self, engine: "Engine", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative Timeout delay: {delay}")
        self.engine = engine
        self.callbacks = []
        self._value = value
        self._exc = None
        self.triggered = True
        self._name = ("timeout({:g})", delay)
        engine._schedule(engine.now + delay, self)


class Process(Event):
    """A running coroutine; as an Event it triggers when the coroutine returns.

    The coroutine's ``return`` value (via ``StopIteration``) becomes the
    event value, so processes can wait on each other by yielding the
    :class:`Process` object.
    """

    __slots__ = ("generator", "_waiting_on")

    def __init__(self, engine: "Engine", generator: Generator, name: str = "") -> None:
        if not hasattr(generator, "send"):
            raise TypeError(f"Process requires a generator, got {type(generator)!r}")
        super().__init__(engine, name=name or getattr(generator, "__name__", "process"))
        self.generator = generator
        self._waiting_on: Optional[Event] = None
        # Kick off the coroutine at the current simulation time.
        init = Event(engine, name=("init:{.name}", self))
        init.succeed()
        init.add_callback(self._resume)

    def interrupt(self) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self.triggered:
            return
        target = self._waiting_on
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._waiting_on = None
        kick = Event(self.engine, name=("interrupt:{.name}", self))
        kick.fail(Interrupt())
        kick.add_callback(self._resume)

    # -- internal --------------------------------------------------------
    def _resume(self, trigger: Event) -> None:
        self._waiting_on = None
        engine = self.engine
        try:
            if trigger._exc is not None:
                nxt = self.generator.throw(trigger._exc)
            else:
                nxt = self.generator.send(trigger._value)
        except StopIteration as stop:
            self.triggered = True
            self._value = stop.value
            engine._post(self)
            return
        except Interrupt as exc:
            self.triggered = True
            self._exc = exc
            engine._post(self)
            return
        except BaseException as exc:
            self.triggered = True
            self._exc = exc
            engine._post(self)
            if not isinstance(exc, SimulationError):
                engine._crashed.append(self)
            return
        if not isinstance(nxt, Event):
            err = SimulationError(
                f"process {self.name!r} yielded {nxt!r}, expected an Event"
            )
            self.generator.close()
            self.triggered = True
            self._exc = err
            engine._post(self)
            return
        self._waiting_on = nxt
        nxt.add_callback(self._resume)


class AllOf(Event):
    """Triggers when every child event has triggered (value: list of values).

    Fails fast if any child fails.
    """

    __slots__ = ("_children", "_remaining")

    def __init__(self, engine: "Engine", events: Iterable[Event]) -> None:
        super().__init__(engine, name="all_of")
        self._children = list(events)
        self._remaining = len(self._children)
        if self._remaining == 0:
            self.succeed([])
            return
        for ev in self._children:
            ev.add_callback(self._child_done)

    def _child_done(self, ev: Event) -> None:
        if self.triggered:
            return
        if ev._exc is not None:
            self.fail(ev._exc)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([c._value for c in self._children])


class AnyOf(Event):
    """Triggers when the first child event triggers (value: (index, value))."""

    __slots__ = ("_children",)

    def __init__(self, engine: "Engine", events: Iterable[Event]) -> None:
        super().__init__(engine, name="any_of")
        self._children = list(events)
        if not self._children:
            raise ValueError("AnyOf requires at least one event")
        for i, ev in enumerate(self._children):
            ev.add_callback(lambda e, i=i: self._child_done(i, e))

    def _child_done(self, index: int, ev: Event) -> None:
        if self.triggered:
            return
        if ev._exc is not None:
            self.fail(ev._exc)
        else:
            self.succeed((index, ev._value))


class Engine:
    """The event loop: a priority queue of (time, seq, event) triples."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._crashed: list[Process] = []

    # -- factory helpers --------------------------------------------------
    def event(self, name: str = "") -> Event:
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling --------------------------------------------------------
    def _schedule(self, at: float, event: Event) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (at, self._seq, event))

    def _post(self, event: Event) -> None:
        """Schedule a triggered event's callbacks to run *now*."""
        self._schedule(self.now, event)

    def schedule_call(self, delay: float, fn: Callable[[], None]) -> Event:
        """Run a plain callable after ``delay`` time units."""
        ev = self.timeout(delay)
        ev.add_callback(lambda _e: fn())
        return ev

    # -- execution ---------------------------------------------------------
    def step(self) -> None:
        at, _seq, event = heapq.heappop(self._heap)
        if at < self.now:
            raise SimulationError("time went backwards")
        self.now = at
        callbacks, event.callbacks = event.callbacks, None
        if callbacks:
            for fn in callbacks:
                fn(event)

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until the heap drains, a deadline passes, or an event triggers.

        Returns the event's value when ``until`` is an Event.  Raises the
        first unhandled in-process exception once the run stops.
        """
        stop_event: Optional[Event] = None
        deadline: Optional[float] = None
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            deadline = float(until)

        while self._heap:
            if stop_event is not None and stop_event.processed:
                break
            if deadline is not None and self._heap[0][0] > deadline:
                self.now = deadline
                break
            self.step()
            self._raise_crashed()
        self._raise_crashed()
        if stop_event is not None:
            if not stop_event.triggered:
                raise SimulationError(
                    "run(until=event) exhausted the event queue before the "
                    "event triggered (deadlock?)"
                )
            return stop_event.value
        return None

    def _raise_crashed(self) -> None:
        if self._crashed:
            proc = self._crashed[0]
            self._crashed.clear()
            assert proc._exc is not None
            raise proc._exc
