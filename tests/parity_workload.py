"""Deterministic randomized page-cache workload for the parity suite.

The LRU rewrite (intrusive linked list, per-file/state indexes, extent
coalescing) must keep the *observable* simulation semantics bit-identical.
This module drives a seeded random mix of chunked reads, writeback writes,
explicit evictions, foreground flushes and file invalidations through a
:class:`~repro.pagecache.memory_manager.MemoryManager` +
:class:`~repro.pagecache.io_controller.IOController` pair and records, after
every operation, the byte-level state an experiment could observe:

* simulated time (flush/eviction order changes I/O time, so any ordering
  divergence shows up here);
* free / cached / dirty / clean bytes and the per-list split;
* per-file cached bytes across both lists (evicting block A before block B
  changes which *file* loses bytes — this pins the eviction order without
  depending on the block structure, which coalescing legitimately changes);
* the cumulative cache statistics (hit/miss/flushed/evicted bytes).

The golden trace (``tests/data/pagecache_golden.json``) was recorded from
the pre-refactor list-of-Blocks implementation; the parity test replays the
same workload on the current implementation and compares states.
"""

from __future__ import annotations

from typing import Dict, List

from repro.des import Environment
from repro.pagecache import IOController, MemoryManager, PageCacheConfig
from repro.platform.memory import MemoryDevice
from repro.platform.storage import Disk
from repro.rng import DeterministicRNG
from repro.units import GB, MB, MBps

#: Bump when the workload script changes (golden traces must be
#: regenerated with ``python -m tests.record_parity_golden``).
WORKLOAD_VERSION = 1

#: Operation mix (weights are relative).
_OPS = (
    ("read", 5),
    ("write", 4),
    ("evict", 1),
    ("flush", 1),
    ("invalidate", 1),
)


def _snapshot(env: Environment, mm: MemoryManager) -> Dict[str, object]:
    """Byte-level observable state (independent of block structure)."""
    lists = mm.lists
    per_file = {
        name: round(size, 3) for name, size in sorted(lists.files().items())
    }
    stats = mm.stats
    return {
        "now": round(env.now, 9),
        "free": round(mm.free_mem, 3),
        "cached": round(mm.cached, 3),
        "dirty": round(mm.dirty, 3),
        "inactive_size": round(lists.inactive.size, 3),
        "inactive_dirty": round(lists.inactive.dirty_size, 3),
        "active_size": round(lists.active.size, 3),
        "active_dirty": round(lists.active.dirty_size, 3),
        "per_file": per_file,
        "hit_bytes": round(stats.cache_hit_bytes, 3),
        "miss_bytes": round(stats.cache_miss_bytes, 3),
        "flushed_bytes": round(stats.flushed_bytes, 3),
        "bg_flushed_bytes": round(stats.background_flushed_bytes, 3),
        "evicted_bytes": round(stats.evicted_bytes, 3),
        "hit_ratio": round(stats.hit_ratio, 9),
    }


def run_parity_workload(seed: int = 2021, n_ops: int = 120, *,
                        memory_size: float = 4 * GB,
                        periodic_flushing: bool = True,
                        evict_from_active: bool = False,
                        eviction_policy=None,
                        ) -> List[Dict[str, object]]:
    """Run the seeded workload and return the per-operation state trace.

    The memory is deliberately small relative to the working set so that
    reads and writes constantly trigger flushing and eviction (the code
    paths whose ordering the parity suite pins down).

    ``eviction_policy`` is forwarded when given (the default ``None``
    keeps the config construction identical to the pre-policy-API code):
    passing an explicit ``LRUPolicy`` instance must reproduce the golden
    byte for byte, pinning the policy interface's default dispatch.
    """
    env = Environment()
    memory = MemoryDevice.symmetric(env, "ram", 2000 * MBps, size=memory_size)
    disk = Disk.symmetric(env, "disk", 200 * MBps)
    config_kwargs = {}
    if eviction_policy is not None:
        config_kwargs["eviction_policy"] = eviction_policy
    config = PageCacheConfig(
        chunk_size=64 * MB,
        periodic_flushing=periodic_flushing,
        evict_from_active=evict_from_active,
        # Short expiration/interval so the background flusher interleaves
        # with foreground I/O inside the workload's time horizon.
        dirty_expire=3.0,
        writeback_interval=1.0,
        **config_kwargs,
    )
    mm = MemoryManager(env, memory, config, name="parity-mm")
    io = IOController(env, mm)

    rng = DeterministicRNG(seed)
    op_rng = rng.spawn("ops")
    file_rng = rng.spawn("files")
    size_rng = rng.spawn("sizes")
    amount_rng = rng.spawn("amounts")

    files = [f"file{i}" for i in range(8)]
    # File sizes between 256 MB and 1.5 GB: several files exceed what the
    # cache can hold together, forcing evictions.
    file_sizes = {
        name: size_rng.uniform(256 * MB, 1.5 * GB) for name in files
    }

    weights = []
    for op, weight in _OPS:
        weights.extend([op] * weight)

    trace: List[Dict[str, object]] = []

    def driver():
        for _ in range(n_ops):
            op = op_rng.choice(weights)
            filename = file_rng.choice(files)
            size = file_sizes[filename]
            if op == "read":
                yield from io.read_file(
                    filename, size, disk, use_anonymous_memory=False
                )
            elif op == "write":
                yield from io.write_file(filename, size, disk)
            elif op == "evict":
                mm.evict(amount_rng.uniform(64 * MB, 1 * GB))
            elif op == "flush":
                yield from mm.flush(amount_rng.uniform(64 * MB, 1 * GB))
            elif op == "invalidate":
                mm.invalidate_file(filename)
            mm.lists.assert_consistent()
            trace.append(_snapshot(env, mm))
        mm.stop()

    process = env.process(driver(), name="parity-driver")
    env.run(until=process)
    return trace
