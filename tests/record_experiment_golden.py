"""Regenerate the experiment-output golden (``tests/data/experiment_golden.json``).

Captures the headline numbers (makespans, hit ratios, slowdowns) of cheap
experiment configurations.  The committed file was recorded from the
pre-refactor tree, so the parity suite certifies that the hot-path rewrite
left every experiment output bit-identical (within float tolerance).
The two extra NFS points (a writeback server, and the calibrated
reference, which protects files being written from eviction) were
recorded before the NFS service moved onto the shared read/write loops
of the I/O Controller, with every older key kept as committed::

    PYTHONPATH=src:tests python tests/record_experiment_golden.py

Re-recording keeps a committed value whenever the recomputed one is
within the parity suite's relative tolerance ``REL``, so float drift far
below what the suite can see does not move keys a model change did not
touch; the keys that did change are printed.  On an unmodified tree the
command leaves the file byte-identical.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List

from repro.apps.concurrent import make_instances, stage_and_submit_instances
from repro.experiments.calibration import TABLE3_BANDWIDTHS
from repro.experiments.exp2_concurrent import finish_exp2, run_exp2
from repro.experiments.exp6_cluster import run_exp6
from repro.experiments.exp7_trace_replay import run_exp7
from repro.pagecache.config import PageCacheConfig
from repro.simulator.simulation import Simulation, SimulationConfig
from repro.units import GB, GiB, MB
from test_pagecache_parity import REL


def run_nfs_writeback(n_apps: int, *, input_size: float = 3 * GB,
                      chunk_size: float = 100 * MB,
                      memory_size: float = 16 * GiB):
    """Exp 3's workload against a *writeback* NFS server cache.

    The harness only builds the paper's writethrough NFS mount, so this
    point is assembled from the public API.  The small server memory makes
    the server flush synchronously, flush in the background and evict.
    """
    table = TABLE3_BANDWIDTHS
    simulation = Simulation(config=SimulationConfig(
        cache_mode="writeback",
        page_cache=PageCacheConfig(chunk_size=chunk_size),
        chunk_size=chunk_size,
        trace_interval=None,
    ))
    simulation.create_cluster_platform(
        compute_nodes=1,
        memory_size=memory_size,
        memory_bandwidth=table.memory.simulated,
        local_disk_bandwidth=table.local_disk.simulated,
        remote_disk_bandwidth=table.remote_disk.simulated,
        network_bandwidth=table.network.simulated,
        local_disk_capacity=float("inf"),
        remote_disk_capacity=float("inf"),
    )
    storage = simulation.create_nfs_storage_service("storage1", "/export",
                                                    cache_mode="writeback")
    stage_and_submit_instances(simulation, make_instances(n_apps, input_size),
                               host="node1", storage=storage,
                               chunk_size=chunk_size)
    return finish_exp2(simulation.run(), "wrench-cache", n_apps)


def collect() -> dict:
    golden: dict = {}

    exp2 = run_exp2("wrench-cache", 8, input_size=3 * GB, chunk_size=100 * MB,
                    nfs=False)
    golden["exp2_cache_local_8"] = {
        "makespan": exp2.makespan,
        "read_time": exp2.read_time,
        "write_time": exp2.write_time,
    }
    exp2_nfs = run_exp2("wrench-cache", 4, input_size=3 * GB,
                        chunk_size=100 * MB, nfs=True)
    golden["exp2_cache_nfs_4"] = {
        "makespan": exp2_nfs.makespan,
        "read_time": exp2_nfs.read_time,
        "write_time": exp2_nfs.write_time,
    }
    nfs_writeback = run_nfs_writeback(4)
    golden["exp2_cache_nfs_writeback_4"] = {
        "makespan": nfs_writeback.makespan,
        "read_time": nfs_writeback.read_time,
        "write_time": nfs_writeback.write_time,
    }
    # The calibrated reference protects files being written from eviction;
    # 8 x 10 GB files overflow the server memory, so eviction happens.
    real_nfs = run_exp2("real", 8, input_size=10 * GB, chunk_size=100 * MB,
                        nfs=True)
    golden["exp2_real_nfs_8"] = {
        "makespan": real_nfs.makespan,
        "read_time": real_nfs.read_time,
        "write_time": real_nfs.write_time,
    }

    for placement in ("round-robin", "cache"):
        point = run_exp6(placement)
        golden[f"exp6_{placement}"] = {
            "makespan": point.makespan,
            "cache_hit_ratio": point.cache_hit_ratio,
            "mean_wait_time": point.mean_wait_time,
            "mean_bounded_slowdown": point.mean_bounded_slowdown,
            "utilization": point.utilization,
        }

    for policy in ("fifo", "preemptive-priority"):
        point = run_exp7(policy, load_factor=40.0)
        golden[f"exp7_{policy}"] = {
            "makespan": point.makespan,
            "cache_hit_ratio": point.cache_hit_ratio,
            "mean_bounded_slowdown": point.mean_bounded_slowdown,
            "high_prio_slowdown": point.high_priority.mean_bounded_slowdown,
            "high_prio_wait": point.high_priority.mean_wait_time,
            "n_preemptions": point.n_preemptions,
        }
    return golden


def _within_rel(new: float, old: float) -> bool:
    """Whether ``new`` matches ``old`` as ``pytest.approx(old, rel=REL)``
    does (with its default absolute floor)."""
    return abs(new - old) <= max(REL * abs(old), 1e-12)


def merge_committed(recorded: dict, committed: dict) -> List[str]:
    """Keep committed values the recomputed ones match; return the changes.

    ``recorded`` is updated in place.  Returns the ``point.key`` names
    whose value was added, changed beyond ``REL`` or dropped.
    """
    changed = []
    for point, values in recorded.items():
        old_values = committed.get(point, {})
        for key, value in values.items():
            if key in old_values and _within_rel(value, old_values[key]):
                values[key] = old_values[key]
            else:
                changed.append(f"{point}.{key}")
    for point, old_values in committed.items():
        for key in old_values:
            if key not in recorded.get(point, {}):
                changed.append(f"{point}.{key} (dropped)")
    return sorted(changed)


def main() -> None:
    golden = collect()
    out = Path(__file__).parent / "data" / "experiment_golden.json"
    committed = json.loads(out.read_text()) if out.exists() else {}
    changed = merge_committed(golden, committed)
    out.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(golden)} experiment points -> {out}")
    print(f"changed keys: {', '.join(changed) if changed else 'none'}")


if __name__ == "__main__":
    main()
