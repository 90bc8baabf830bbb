"""The traced run observes without changing what it observes."""

from __future__ import annotations

import time

import pytest

from repro.simulator.simulation import Simulation
from repro.units import MB
from simbench import checks, workloads
from simbench.layers import LAYERS, LayerProbe
from simbench.tracer import Tracer

SIZES = [64 * MB, 96 * MB, 128 * MB]


@pytest.fixture(scope="module", autouse=True)
def recipes():
    workloads.register_recipes()


def test_traced_run_matches_untraced_and_accounts_its_time():
    untraced = checks.result_digest(workloads.build_host_nfs(SIZES).run())

    tracer = Tracer()
    probe = LayerProbe(tracer)
    original_init = Simulation.__dict__["__init__"]
    try:
        wrapped = probe.install()
        sim = workloads.build_host_nfs(SIZES)
        probe.begin()
        start = time.perf_counter()
        result = sim.run()
        wall = time.perf_counter() - start
        probe.end()
    finally:
        tracer.uninstall()
    assert Simulation.__dict__["__init__"] is original_init

    assert checks.result_digest(result) == untraced
    assert "pagecache:IOController.read_chunk" in wrapped
    assert "platform:FairShareChannel._on_wake" in wrapped
    self_times = tracer.self_times()
    assert set(self_times) <= set(LAYERS)
    assert {"des", "platform", "pagecache", "simulator"} <= set(self_times)
    assert sum(self_times.values()) == pytest.approx(wall, rel=0.05)
    assert probe.simulations == [sim]
    counters = probe.counters
    assert counters["events"] > 0 and counters["transfers"] > 0
    assert counters["operations"] == len(result.operations)
    assert counters["hit_bytes"] + counters["miss_bytes"] > 0
