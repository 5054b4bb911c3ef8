"""Unit tests for the discrete-event kernel (repro.sim.engine)."""

import pytest

from repro.sim import Engine, Interrupt, SimulationError


def test_timeout_advances_clock():
    eng = Engine()

    def proc():
        yield eng.timeout(1.5)
        yield eng.timeout(2.5)
        return eng.now

    p = eng.process(proc())
    result = eng.run(until=p)
    assert result == pytest.approx(4.0)
    assert eng.now == pytest.approx(4.0)


def test_timeout_rejects_negative_delay():
    eng = Engine()
    with pytest.raises(ValueError):
        eng.timeout(-1.0)


def test_zero_delay_timeouts_fire_in_fifo_order():
    eng = Engine()
    order = []

    def proc(tag):
        yield eng.timeout(0)
        order.append(tag)

    for tag in range(5):
        eng.process(proc(tag))
    eng.run()
    assert order == [0, 1, 2, 3, 4]


def test_process_return_value_propagates():
    eng = Engine()

    def child():
        yield eng.timeout(3)
        return "payload"

    def parent():
        value = yield eng.process(child())
        return value + "!"

    p = eng.process(parent())
    assert eng.run(until=p) == "payload!"


def test_event_succeed_wakes_waiter_with_value():
    eng = Engine()
    ev = eng.event()
    got = []

    def waiter():
        value = yield ev
        got.append(value)

    def trigger():
        yield eng.timeout(2)
        ev.succeed(42)

    eng.process(waiter())
    eng.process(trigger())
    eng.run()
    assert got == [42]


def test_event_fail_raises_in_waiter():
    eng = Engine()
    ev = eng.event()
    seen = []

    def waiter():
        try:
            yield ev
        except ValueError as exc:
            seen.append(str(exc))

    eng.process(waiter())
    ev.fail(ValueError("boom"))
    eng.run()
    assert seen == ["boom"]


def test_double_trigger_is_an_error():
    eng = Engine()
    ev = eng.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_value_before_trigger_is_an_error():
    eng = Engine()
    ev = eng.event()
    with pytest.raises(SimulationError):
        _ = ev.value


def test_unhandled_process_exception_surfaces_from_run():
    eng = Engine()

    def bad():
        yield eng.timeout(1)
        raise RuntimeError("kaboom")

    eng.process(bad())
    with pytest.raises(RuntimeError, match="kaboom"):
        eng.run()


def test_yielding_non_event_fails_the_process():
    eng = Engine()

    def bad():
        yield 42

    p = eng.process(bad())
    eng.run()
    assert p.triggered
    with pytest.raises(SimulationError):
        _ = p.value


def test_all_of_collects_values_in_child_order():
    eng = Engine()
    a = eng.timeout(5, value="a")
    b = eng.timeout(1, value="b")
    combined = eng.all_of([a, b])
    results = []

    def waiter():
        values = yield combined
        results.append((eng.now, values))

    eng.process(waiter())
    eng.run()
    assert results == [(5.0, ["a", "b"])]


def test_all_of_empty_triggers_immediately():
    eng = Engine()
    combined = eng.all_of([])
    done = []

    def waiter():
        values = yield combined
        done.append(values)

    eng.process(waiter())
    eng.run()
    assert done == [[]]


def test_any_of_returns_first_index_and_value():
    eng = Engine()
    a = eng.timeout(5, value="slow")
    b = eng.timeout(1, value="fast")
    got = []

    def waiter():
        idx, value = yield eng.any_of([a, b])
        got.append((idx, value, eng.now))

    eng.process(waiter())
    eng.run(until=10)
    assert got == [(1, "fast", 1.0)]


def test_any_of_requires_children():
    eng = Engine()
    with pytest.raises(ValueError):
        eng.any_of([])


def test_run_until_deadline_stops_clock_at_deadline():
    eng = Engine()

    def proc():
        yield eng.timeout(100)

    eng.process(proc())
    eng.run(until=7.0)
    assert eng.now == pytest.approx(7.0)
    assert eng.peek() == pytest.approx(100.0)


def test_run_until_event_deadlock_detection():
    eng = Engine()
    never = eng.event()

    def waiter():
        yield never

    eng.process(waiter())
    with pytest.raises(SimulationError, match="deadlock"):
        eng.run(until=never)


def test_interrupt_raises_inside_process():
    eng = Engine()
    caught = []

    def sleeper():
        try:
            yield eng.timeout(100)
        except Interrupt as exc:
            caught.append((eng.now, exc.cause))

    p = eng.process(sleeper())

    def killer():
        yield eng.timeout(3)
        p.interrupt(cause="stop")

    eng.process(killer())
    eng.run()
    assert caught == [(3.0, "stop")]


def test_schedule_call_runs_function_at_time():
    eng = Engine()
    seen = []
    eng.schedule_call(4.5, lambda: seen.append(eng.now))
    eng.run()
    assert seen == [4.5]


def test_deterministic_ordering_two_runs_identical():
    def build():
        eng = Engine()
        trace = []

        def proc(tag, delay):
            yield eng.timeout(delay)
            trace.append(tag)
            yield eng.timeout(delay)
            trace.append(tag * 10)

        for tag in range(8):
            eng.process(proc(tag, (tag % 3) * 0.5))
        eng.run()
        return trace

    assert build() == build()


def test_nested_processes_three_levels():
    eng = Engine()

    def level3():
        yield eng.timeout(1)
        return 3

    def level2():
        v = yield eng.process(level3())
        yield eng.timeout(1)
        return v + 2

    def level1():
        v = yield eng.process(level2())
        return v + 1

    p = eng.process(level1())
    assert eng.run(until=p) == 6
    assert eng.now == pytest.approx(2.0)
