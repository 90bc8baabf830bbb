"""The layer boundaries the traced run wraps, and the layers' counters.

Layers are named after the ``repro`` packages.  Each boundary is a public
entry point of its layer, or a callback the DES runs on the layer's own
objects (flow wake and reschedule, the periodic flusher, job and task
processes, the service worker's admission and advance steps): without
those, the layer's work would be booked to whichever layer drove the
event loop.  DES primitives a layer calls directly (event creation,
heap pushes) count toward that layer; the DES layer's self time is the
event loop itself: heap pops, callback dispatch and process resumption.

Counters come from public state read at the edges of each traced
window: the environment's event-id counter, channel flow and byte
totals, ``CacheStatistics``, ``ExtentOccupancy``, ``SchedulerMetrics``,
the simulation tracer's operation records and the service registry.
"""

from __future__ import annotations

import inspect
import sys
from typing import Dict, List, Tuple

from repro.des.environment import Environment
from repro.pagecache.io_controller import IOController
from repro.pagecache.memory_manager import MemoryManager
from repro.pagecache.stats import ExtentOccupancy
from repro.platform.cpu import CPU
from repro.platform.flows import FairShareChannel
from repro.platform.host import Host
from repro.platform.network import Link, Network
from repro.platform.storage import StorageDevice
from repro.scheduler.cluster import ClusterScheduler
from repro.service import core as service_core
from repro.service.core import SimulationService
from repro.service.log import SubmissionLog
from repro.simulator.simulation import Simulation
from repro.simulator.storage_service import (
    NFSStorageService,
    PageCachedStorageService,
)
from repro.simulator.wms import WorkflowExecutor
from repro.snapshot import canonical as snapshot_canonical
from repro.snapshot import capture as snapshot_capture
from repro.snapshot import recipe as snapshot_recipe
from repro.snapshot import store as snapshot_store

from simbench.tracer import Tracer

LAYERS = ("des", "platform", "pagecache", "simulator", "scheduler",
          "service", "snapshot")

#: (layer, owner, attribute names).  Generator functions are detected and
#: timed per resumption.
METHOD_BOUNDARIES: Tuple[Tuple[str, type, Tuple[str, ...]], ...] = (
    ("des", Environment, ("run", "step", "process", "timeout", "all_of",
                          "any_of")),
    ("platform", FairShareChannel, ("transfer", "abort_all", "set_bandwidth",
                                    "_on_wake", "_on_deferred_reschedule")),
    ("platform", StorageDevice, ("read", "write", "allocate", "deallocate",
                                 "_delayed_transfer")),
    ("platform", Link, ("transfer", "_transfer")),
    ("platform", Network, ("transfer", "_transfer")),
    ("platform", CPU, ("execute", "compute_seconds", "_execute")),
    ("platform", Host, ("fail", "restore")),
    ("pagecache", IOController, ("read_chunk", "write_chunk",
                                 "write_chunk_through", "read_file",
                                 "write_file")),
    ("pagecache", MemoryManager, (
        "flush", "write_to_cache", "read_from_cache", "evict", "select_flush",
        "add_to_cache", "put_to_cache", "take_from_cache",
        "use_anonymous_memory", "release_anonymous_memory", "anonymous_of",
        "invalidate_file", "invalidate_all", "cached_amount", "cache_content",
        "snapshot", "notify_job_dispatch", "notify_job_preempted",
        "predicted_survival", "mark_file_being_written",
        "unmark_file_being_written", "expired_blocks", "stop",
        "_periodic_flush")),
    ("simulator", Simulation, ("run", "step_until", "submit_job",
                               "submit_workflow", "submit_trace", "stage_file",
                               "stage_files", "stage_file_replicated")),
    ("simulator", WorkflowExecutor, ("run", "preempt", "crash", "rebind",
                                     "_execute_task")),
    ("simulator", PageCachedStorageService, ("read_file", "write_file",
                                             "stage_file", "delete_file")),
    ("simulator", NFSStorageService, ("read_file", "write_file",
                                      "stage_file", "delete_file")),
    ("scheduler", ClusterScheduler, ("run", "submit", "feed", "close_stream",
                                     "kick", "fail_node", "restore_node",
                                     "drain_node", "undrain_node",
                                     "leave_node", "metrics", "_run_job")),
    ("service", SimulationService, ("start", "snapshot_now", "metrics",
                                    "job_status", "_admit", "_advance",
                                    "_log_close", "_finish_drain")),
    ("service", SubmissionLog, ("append",)),
)

#: Entry points that block the calling thread on the service worker:
#: counted, not timed (their wall time is waiting).
COUNTED_BOUNDARIES: Tuple[Tuple[str, type, Tuple[str, ...]], ...] = (
    ("service", SimulationService, ("submit", "drain")),
)

#: Boundaries whose inclusive time a metric needs even when their own
#: layer calls them.
NESTED = frozenset({
    "service:SubmissionLog.append",
    "service:replay_entries",
    "snapshot:capture_state",
})

#: (layer, defining module, function name): module-level functions,
#: patched in every ``repro`` module that imported them by name.
FUNCTION_BOUNDARIES: Tuple[Tuple[str, object, str], ...] = (
    ("service", service_core, "replay_entries"),
    ("snapshot", snapshot_capture, "capture_state"),
    ("snapshot", snapshot_canonical, "fingerprint"),
    ("snapshot", snapshot_store, "write_snapshot_doc"),
    ("snapshot", snapshot_recipe, "build_from_recipe"),
)


def _wrapper_for(tracer: Tracer, layer: str, label: str):
    nested = label in NESTED

    def wrap(fn):
        if inspect.isgeneratorfunction(fn):
            return tracer.wrap_generator_function(fn, layer, label,
                                                  nested=nested)
        return tracer.wrap_function(fn, layer, label, nested=nested)

    return wrap


class LayerProbe:
    """Installs the boundaries and reads the layers' counters.

    Every :class:`Simulation` constructed while the probe is installed is
    registered; counters are the change in each registered simulation's
    public state between :meth:`begin` and :meth:`end` of each traced
    window, summed over windows.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.simulations: List[Simulation] = []
        self.counters: Dict[str, float] = {}
        self._baseline: Dict[int, Dict[str, float]] = {}

    # -------------------------------------------------------------- install
    def install(self) -> List[str]:
        """Wrap every boundary; returns the labels actually wrapped."""
        tracer = self.tracer
        for layer, owner, names in METHOD_BOUNDARIES:
            for name in names:
                label = f"{layer}:{owner.__name__}.{name}"
                tracer.patch(owner, name, _wrapper_for(tracer, layer, label),
                             label)
        for layer, owner, names in COUNTED_BOUNDARIES:
            for name in names:
                label = f"{layer}:{owner.__name__}.{name}"
                tracer.patch(
                    owner, name,
                    lambda fn, layer=layer, label=label:
                        tracer.wrap_counter(fn, layer, label),
                    label,
                )
        for layer, module, name in FUNCTION_BOUNDARIES:
            self._patch_function(layer, module, name)
        tracer.patch(Simulation, "__init__", self._registering)
        return list(tracer.boundaries)

    def _patch_function(self, layer: str, module, name: str) -> None:
        original = getattr(module, name, None)
        if original is None:
            return
        label = f"{layer}:{name}"
        wrapped = _wrapper_for(self.tracer, layer, label)(original)
        holders = [
            mod for mod_name, mod in list(sys.modules.items())
            if (mod_name == "repro" or mod_name.startswith("repro."))
            and getattr(mod, name, None) is original
        ]
        for mod in holders:
            self.tracer.patch(mod, name, lambda _fn: wrapped, label)

    def _registering(self, init):
        simulations = self.simulations

        def register(sim, *args, **kwargs):
            init(sim, *args, **kwargs)
            simulations.append(sim)

        return register

    # ------------------------------------------------------------- counters
    @staticmethod
    def state_of(sim: Simulation) -> Dict[str, float]:
        """The cumulative counters of one simulation's public state."""
        # itertools.count has no accessor; its repr is ``count(N)``.
        events = int(repr(sim.env._eid)[len("count("):-1])
        state = {"events": events, "transfers": 0, "bytes": 0.0,
                 "hit_bytes": 0.0, "miss_bytes": 0.0, "flushed_bytes": 0.0,
                 "evicted_bytes": 0.0, "operations": len(sim.tracer.operations),
                 "dispatches": 0, "preemptions": 0}
        platform = sim.platform
        if platform is not None:
            channels = {}
            for host in platform.hosts.values():
                for channel in host.channels(include_memory=True):
                    channels[id(channel)] = channel
                manager = host.memory_manager
                if manager is not None:
                    stats = manager.stats
                    state["hit_bytes"] += stats.cache_hit_bytes
                    state["miss_bytes"] += stats.cache_miss_bytes
                    state["flushed_bytes"] += (stats.flushed_bytes
                                               + stats.background_flushed_bytes)
                    state["evicted_bytes"] += stats.evicted_bytes
            for link in platform.network.links.values():
                channels[id(link.channel)] = link.channel
            for channel in channels.values():
                state["transfers"] += channel.total_flows
                state["bytes"] += channel.total_transferred
        scheduler = sim.scheduler
        if scheduler is not None:
            metrics = scheduler.metrics()
            state["preemptions"] = metrics.n_preemptions
            state["dispatches"] = (metrics.n_jobs + metrics.n_preemptions
                                   + metrics.n_job_restarts)
        return state

    @staticmethod
    def occupancy_of(sim: Simulation) -> Tuple[int, int]:
        """(runs, fragments) held by the simulation's page caches now."""
        runs = fragments = 0
        if sim.platform is not None:
            for host in sim.platform.hosts.values():
                if host.memory_manager is not None:
                    occupancy = ExtentOccupancy.of(host.memory_manager.lists)
                    runs += occupancy.runs
                    fragments += occupancy.fragments
        return runs, fragments

    def begin(self) -> None:
        """Open a traced window."""
        self._baseline = {id(sim): self.state_of(sim)
                          for sim in self.simulations}
        self.tracer.active = True

    def end(self) -> None:
        """Close the window and add its counter changes to the totals."""
        self.tracer.active = False
        counters = self.counters
        for sim in self.simulations:
            now = self.state_of(sim)
            before = self._baseline.get(id(sim))
            if before is not None and now["events"] == before["events"]:
                continue  # idle in this window
            for key, value in now.items():
                counters[key] = counters.get(key, 0) + value - (
                    before[key] if before is not None else 0
                )
            runs, fragments = self.occupancy_of(sim)
            counters["runs"] = counters.get("runs", 0) + runs
            counters["fragments"] = counters.get("fragments", 0) + fragments
        self._baseline = {}
