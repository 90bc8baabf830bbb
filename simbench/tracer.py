"""Span tracer for per-layer wall-clock attribution.

The tracer is installed from the benchmark's own files: it replaces a
layer's entry points (plain functions, methods, generator functions and
DES callbacks) with wrappers that open a span on entry and close it on
exit.  A layer's *self time* is the time its spans were open minus the
time their nested spans of other layers were open, so the self times of
all layers add up to the traced wall time without double counting.

Rules the wrappers follow:

* A call is a *boundary crossing* when the innermost open span belongs to
  another layer (or no span is open).  Only crossings count as calls and
  open spans; a layer calling its own entry points stays inside its span.
  A boundary marked ``nested`` always opens a span, so its inclusive time
  is known even when its own layer calls it.
* A wrapped generator is timed per ``send``/``throw``: each resumption is
  one span, whether the generator is driven by a DES process or by a
  parent generator through ``yield from``.  Exceptions thrown in are
  forwarded, and the span is closed whichever way the resumption ends.
* Spans are kept per thread; a thread's stack never sees another
  thread's spans.  Totals are merged when read.
* While the tracer is inactive the wrappers only forward the call.

Spans stay in memory as running totals; nothing is written while tracing.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Callable, Dict, List, Optional


class _ThreadTotals:
    """One thread's span stack and running totals."""

    __slots__ = ("stack", "self_time", "inclusive", "calls", "boundary_calls")

    def __init__(self) -> None:
        #: Open spans, innermost last: ``[layer, boundary, start, child]``.
        self.stack: List[list] = []
        self.self_time: Dict[str, float] = {}
        self.inclusive: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.boundary_calls: Dict[str, int] = {}


class Tracer:
    """Collects spans from wrapped layer boundaries.

    ``clock`` is injectable so tests can drive the arithmetic with exact
    numbers.  One tracer serves one process; install it with
    :meth:`patch` and remove it with :meth:`uninstall`.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.active = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[_ThreadTotals] = []
        self._restore: List[Callable[[], None]] = []
        #: ``"layer:boundary"`` names of every installed wrapper.
        self.boundaries: List[str] = []

    # ---------------------------------------------------------------- state
    def _totals(self) -> _ThreadTotals:
        try:
            return self._local.totals
        except AttributeError:
            totals = self._local.totals = _ThreadTotals()
            with self._lock:
                self._threads.append(totals)
            return totals

    def _merged(self, attr: str) -> Dict[str, float]:
        merged: Dict[str, float] = {}
        with self._lock:
            for totals in self._threads:
                for key, value in getattr(totals, attr).items():
                    merged[key] = merged.get(key, 0) + value
        return merged

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per layer."""
        return self._merged("self_time")

    def inclusive_times(self) -> Dict[str, float]:
        """Seconds of inclusive span time per ``layer:boundary``."""
        return self._merged("inclusive")

    def calls(self) -> Dict[str, int]:
        """Boundary crossings per layer."""
        return self._merged("calls")

    def boundary_calls(self) -> Dict[str, int]:
        """Span openings per ``layer:boundary``."""
        return self._merged("boundary_calls")

    # ---------------------------------------------------------------- spans
    def _open(self, totals: _ThreadTotals, layer: str, boundary: str,
              nested: bool) -> Optional[list]:
        """Open a span unless the call stays inside ``layer``."""
        stack = totals.stack
        if stack and stack[-1][0] == layer and not nested:
            return None
        if not stack or stack[-1][0] != layer:
            totals.calls[layer] = totals.calls.get(layer, 0) + 1
        totals.boundary_calls[boundary] = totals.boundary_calls.get(boundary, 0) + 1
        span = [layer, boundary, self.clock(), 0.0]
        stack.append(span)
        return span

    def _close(self, totals: _ThreadTotals, span: list) -> None:
        stack = totals.stack
        if stack.pop() is not span:
            raise RuntimeError(f"span {span[1]} closed out of order")
        duration = self.clock() - span[2]
        layer = span[0]
        totals.self_time[layer] = (
            totals.self_time.get(layer, 0.0) + duration - span[3]
        )
        boundary = span[1]
        totals.inclusive[boundary] = totals.inclusive.get(boundary, 0.0) + duration
        if stack:
            # Exclusive-time rule: a span's self time is its duration
            # minus its children's durations, each child having booked
            # its own self time already (to its own layer, which may be
            # the parent's layer for a ``nested`` boundary).
            stack[-1][3] += duration

    # ------------------------------------------------------------- wrappers
    def wrap_function(self, fn: Callable, layer: str, boundary: str, *,
                      nested: bool = False) -> Callable:
        """A wrapper timing each call of ``fn`` as one span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            totals = tracer._totals()
            span = tracer._open(totals, layer, boundary, nested)
            if span is None:
                return fn(*args, **kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(totals, span)

        return traced

    def wrap_counter(self, fn: Callable, layer: str, boundary: str) -> Callable:
        """A wrapper counting calls of ``fn`` without timing them.

        For entry points that block on another thread (a client waiting
        for the service worker): their wall time is waiting, not work.
        """
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.active:
                totals = tracer._totals()
                totals.calls[layer] = totals.calls.get(layer, 0) + 1
                totals.boundary_calls[boundary] = (
                    totals.boundary_calls.get(boundary, 0) + 1
                )
            return fn(*args, **kwargs)

        return counted

    def wrap_generator_function(self, fn: Callable, layer: str, boundary: str,
                                *, nested: bool = False) -> Callable:
        """A wrapper whose generators are timed per resumption."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            outer = tracer._timed(inner, layer, boundary, nested)
            # Processes take their default name from the generator.
            outer.__name__ = inner.__name__
            outer.__qualname__ = inner.__qualname__
            return outer

        return traced

    def _timed(self, inner, layer: str, boundary: str, nested: bool):
        """Drive ``inner``, one span per ``send``/``throw``."""
        value = None
        thrown: Optional[BaseException] = None
        while True:
            span = None
            if self.active:
                totals = self._totals()
                span = self._open(totals, layer, boundary, nested)
            try:
                if thrown is None:
                    item = inner.send(value)
                else:
                    exc, thrown = thrown, None
                    item = inner.throw(exc)
            except StopIteration as stop:
                if span is not None:
                    self._close(totals, span)
                return stop.value
            except BaseException:
                if span is not None:
                    self._close(totals, span)
                raise
            if span is not None:
                self._close(totals, span)
            try:
                value = yield item
            except GeneratorExit:
                inner.close()
                raise
            except BaseException as exc:  # noqa: BLE001 - forwarded to inner
                thrown = exc
                value = None

    # ------------------------------------------------------------- install
    def patch(self, owner, name: str, wrapper_of: Callable[[Callable], Callable],
              label: Optional[str] = None) -> bool:
        """Replace ``owner.name`` by ``wrapper_of(original)``.

        ``label`` is recorded in :attr:`boundaries` (once, however many
        owners share it).  Returns ``False`` and installs nothing when
        ``owner`` has no such attribute, so a boundary that a refactor
        removed shows up as missing instead of failing the run.
        """
        # A class's own attribute only: an inherited one is wrapped on
        # the class that defines it.
        original = owner.__dict__.get(name) if isinstance(owner, type) else (
            getattr(owner, name, None)
        )
        if not callable(original):
            return False
        setattr(owner, name, wrapper_of(original))
        self._restore.append(lambda: setattr(owner, name, original))
        if label is not None and label not in self.boundaries:
            self.boundaries.append(label)
        return True

    def uninstall(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._restore:
            self._restore.pop()()
        self.boundaries.clear()
