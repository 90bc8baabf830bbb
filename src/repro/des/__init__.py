"""Discrete-event simulation kernel.

This subpackage provides a small but complete process-oriented
discrete-event simulation engine in the spirit of SimPy, written from
scratch.  It plays the role that SimGrid plays for WRENCH in the original
paper: an event queue, simulated processes implemented as Python
generators, composite events, and contention-aware shared resources.

Typical usage::

    from repro.des import Environment, Resource

    def worker(env, cores):
        with (yield cores.request()):
            yield env.timeout(1.0)

    env = Environment()
    cores = Resource(env, capacity=2)
    for _ in range(3):
        env.process(worker(env, cores))
    env.run()
"""

from repro.des.events import (
    Event,
    Timeout,
    Condition,
    AllOf,
    AnyOf,
    Interrupt,
    StopProcess,
    PENDING,
)
from repro.des.process import Process
from repro.des.environment import Environment, EmptySchedule
from repro.des.resources import (
    Resource,
    Request,
    Release,
)

__all__ = [
    "Environment",
    "EmptySchedule",
    "Event",
    "Timeout",
    "Condition",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "StopProcess",
    "PENDING",
    "Process",
    "Resource",
    "Request",
    "Release",
]
