"""Self-time arithmetic of the span tracer, driven by a fake clock."""

from __future__ import annotations

import pytest

from simbench.tracer import Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, seconds):
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def tracer(clock):
    tracer = Tracer(clock=clock)
    tracer.active = True
    return tracer


def drive(gen, sends=()):
    """Run a generator to completion the way a DES process does.

    Sends ``sends`` in order after the first item, then ``None``.
    Returns the yielded items and the return value.
    """
    sends = list(sends)
    items = []
    value = None
    while True:
        try:
            items.append(gen.send(value))
        except StopIteration as stop:
            return items, stop.value
        value = sends.pop(0) if sends else None


def test_nested_function_spans(tracer, clock):
    def inner():
        clock.tick(2.0)
        return "inner"

    inner = tracer.wrap_function(inner, "b", "b:inner")

    def outer():
        clock.tick(1.0)
        value = inner()
        clock.tick(3.0)
        return value

    outer = tracer.wrap_function(outer, "a", "a:outer")
    assert outer() == "inner"
    assert tracer.self_times() == {"a": 4.0, "b": 2.0}
    assert tracer.inclusive_times() == {"a:outer": 6.0, "b:inner": 2.0}
    assert tracer.calls() == {"a": 1, "b": 1}


def test_same_layer_call_stays_in_its_span(tracer, clock):
    def helper():
        clock.tick(5.0)

    helper = tracer.wrap_function(helper, "a", "a:helper")

    def outer():
        clock.tick(1.0)
        helper()

    outer = tracer.wrap_function(outer, "a", "a:outer")
    outer()
    assert tracer.self_times() == {"a": 6.0}
    assert tracer.calls() == {"a": 1}
    assert "a:helper" not in tracer.boundary_calls()


def test_nested_boundary_times_same_layer_calls(tracer, clock):
    def append():
        clock.tick(5.0)

    append = tracer.wrap_function(append, "a", "a:append", nested=True)

    def outer():
        clock.tick(1.0)
        append()

    tracer.wrap_function(outer, "a", "a:outer")()
    assert tracer.self_times() == {"a": 6.0}
    assert tracer.inclusive_times() == {"a:outer": 6.0, "a:append": 5.0}
    assert tracer.calls() == {"a": 1}
    assert tracer.boundary_calls() == {"a:outer": 1, "a:append": 1}


def test_generator_timed_per_resumption(tracer, clock):
    def worker():
        clock.tick(1.0)
        got = yield "first"
        clock.tick(2.0)
        yield got
        clock.tick(4.0)
        return "done"

    gen = tracer.wrap_generator_function(worker, "a", "a:worker")()
    clock.tick(100.0)  # time between resumptions belongs to nobody
    items, value = drive(gen, sends=["second"])
    assert items == ["first", "second"]
    assert value == "done"
    assert tracer.self_times() == {"a": 7.0}
    assert tracer.boundary_calls() == {"a:worker": 3}


def test_yield_from_attributes_each_layer(tracer, clock):
    def child():
        clock.tick(2.0)
        yield "c1"
        clock.tick(3.0)
        return 10

    child = tracer.wrap_generator_function(child, "b", "b:child")

    def parent():
        clock.tick(1.0)
        result = yield from child()
        clock.tick(5.0)
        yield "p"
        return result + 1

    gen = tracer.wrap_generator_function(parent, "a", "a:parent")()
    items, value = drive(gen)
    assert items == ["c1", "p"]
    assert value == 11
    assert tracer.self_times() == {"a": 6.0, "b": 5.0}
    stack = tracer._totals().stack
    assert stack == []


def test_exception_thrown_into_nested_generators(tracer, clock):
    class Interrupt(Exception):
        pass

    def child():
        clock.tick(1.0)
        try:
            yield "waiting"
        except Interrupt:
            clock.tick(2.0)
            raise

    child = tracer.wrap_generator_function(child, "b", "b:child")

    def parent():
        try:
            yield from child()
        except Interrupt:
            clock.tick(4.0)
            return "interrupted"

    gen = tracer.wrap_generator_function(parent, "a", "a:parent")()
    assert gen.send(None) == "waiting"
    with pytest.raises(StopIteration) as stop:
        gen.throw(Interrupt())
    assert stop.value.value == "interrupted"
    assert tracer.self_times() == {"a": 4.0, "b": 3.0}
    assert tracer._totals().stack == []


def test_exception_escaping_a_span_closes_it(tracer, clock):
    def failing():
        clock.tick(2.0)
        raise ValueError("boom")
        yield  # pragma: no cover - makes this a generator

    gen = tracer.wrap_generator_function(failing, "b", "b:failing")()
    with pytest.raises(ValueError):
        gen.send(None)

    def raising():
        clock.tick(1.0)
        raise KeyError("k")

    with pytest.raises(KeyError):
        tracer.wrap_function(raising, "c", "c:raising")()
    assert tracer.self_times() == {"b": 2.0, "c": 1.0}
    assert tracer._totals().stack == []


def test_inactive_tracer_records_nothing(clock):
    tracer = Tracer(clock=clock)

    def work():
        clock.tick(1.0)
        yield 1

    wrapped = tracer.wrap_generator_function(work, "a", "a:work")
    drive(wrapped())
    tracer.wrap_function(lambda: clock.tick(1.0), "a", "a:fn")()
    assert tracer.self_times() == {}
    assert tracer.calls() == {}


def test_counter_counts_without_timing(tracer, clock):
    counted = tracer.wrap_counter(lambda: clock.tick(9.0), "s", "s:submit")
    counted()
    counted()
    assert tracer.calls() == {"s": 2}
    assert tracer.boundary_calls() == {"s:submit": 2}
    assert tracer.self_times() == {}


def test_generator_keeps_its_name(tracer):
    def periodic_flush():
        yield 1

    gen = tracer.wrap_generator_function(periodic_flush, "a", "a:f")()
    assert gen.__name__ == "periodic_flush"


def test_patch_and_uninstall(tracer):
    class Device:
        def read(self):
            return "read"

    original = Device.__dict__["read"]
    assert tracer.patch(Device, "read",
                        lambda fn: tracer.wrap_function(fn, "p", "p:read"),
                        "p:read")
    assert Device.__dict__["read"] is not original
    assert Device().read() == "read"
    assert not tracer.patch(Device, "merged_away", lambda fn: fn, "p:gone")
    assert tracer.boundaries == ["p:read"]
    tracer.uninstall()
    assert Device.__dict__["read"] is original
    assert tracer.boundaries == []
