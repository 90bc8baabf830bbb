"""The I/O Controller (Section III.B of the paper).

Applications send file read and write requests to the I/O Controller,
which splits them into chunks and orchestrates flushing, eviction, cache
and disk accesses with the Memory Manager.  Each algorithm has exactly one
implementation:

* :meth:`IOController.read_file` — Algorithm 2 (chunked read, writeback
  or writethrough cache);
* :meth:`IOController.write_file` — Algorithm 3 (chunked writeback write),
  or the writethrough write path with ``writethrough=True``.

Both loops run on whichever host holds the cache.  Local storage calls
them directly; the NFS storage service runs them on the server and passes
a per-chunk ``hop`` that moves each chunk over the network.  Both also
keep track of the per-operation elapsed time reported in the experiments.

All public methods are simulation processes: ``yield`` them from a process
(or wrap them with ``env.process``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Optional

from repro.des.environment import Environment
from repro.errors import ConfigurationError
from repro.pagecache.config import PageCacheConfig
from repro.pagecache.memory_manager import MemoryManager
from repro.pagecache.tolerances import BYTE_EPSILON as _EPSILON
from repro.platform.storage import StorageDevice

#: A per-chunk hop: called with the chunk size, returns the simulation
#: process that moves the chunk between the client and the cache's host.
Hop = Callable[[float], Generator]


@dataclass
class IOResult:
    """Outcome of a full-file read or write operation."""

    filename: str
    size: float
    start_time: float
    end_time: float
    #: Bytes served from (reads) or written to (writes) the page cache.
    cache_bytes: float = 0.0
    #: Bytes read from or written to the storage device synchronously.
    storage_bytes: float = 0.0
    #: Number of chunk operations performed.
    chunks: int = 0

    @property
    def elapsed(self) -> float:
        """Wall-clock simulated duration of the operation."""
        return self.end_time - self.start_time

    @property
    def cache_fraction(self) -> float:
        """Fraction of the operation served by the page cache."""
        if self.size <= 0:
            return 0.0
        return self.cache_bytes / self.size


class IOController:
    """Chunk-level file I/O on top of a :class:`MemoryManager`.

    Parameters
    ----------
    env:
        Simulation environment.
    memory_manager:
        The Memory Manager of the host holding the page cache; required
        (the cacheless baseline bypasses the controller entirely).
    config:
        Page cache configuration; defaults to the memory manager's.
    """

    def __init__(self, env: Environment, memory_manager: MemoryManager,
                 config: Optional[PageCacheConfig] = None):
        if memory_manager is None:
            raise ConfigurationError("IOController requires a MemoryManager")
        self.env = env
        self.mm = memory_manager
        self.config = config or memory_manager.config

    # ---------------------------------------------------------------- file ops
    def read_file(self, filename: str, file_size: float, storage: StorageDevice,
                  chunk_size: Optional[float] = None,
                  anonymous_owner: Optional[str] = None,
                  use_anonymous_memory: bool = True,
                  hop: Optional[Hop] = None):
        """Algorithm 2: read a whole file chunk by chunk.

        Returns an :class:`IOResult`.  Pages are accessed round-robin, so
        the uncached data of the file is read first: each chunk comes from
        storage for as much of it as the file has uncached, and from the
        page cache for the rest.  Dirty data is flushed and clean data
        evicted as needed to make room for the newly cached data and, with
        ``use_anonymous_memory``, one copy of the chunk in the reader's
        anonymous memory.

        ``hop`` (internal; only the NFS service sets it) is called once per
        chunk, after the chunk is read, and its process is run before the
        next chunk starts.
        """
        chunk = chunk_size or self.config.chunk_size
        env = self.env
        mm = self.mm
        stats = mm.stats
        read_label = f"read:{filename}"
        start = env.now
        result = IOResult(filename, file_size, start, start)
        chunks = 0
        storage_bytes = 0.0
        cache_bytes = 0.0
        remaining = file_size
        while remaining > _EPSILON:
            this_chunk = min(chunk, remaining)
            uncached = max(0.0, file_size - mm.cached_amount(filename))
            disk_read = min(this_chunk, uncached)
            cache_read = this_chunk - disk_read
            # Memory needed: the anonymous copy plus the newly cached data.
            required_mem = (this_chunk if use_anonymous_memory else 0.0) + disk_read
            flush_amount = required_mem - mm._free - mm.evictable
            if flush_amount > 0:
                per_device, total = mm.select_flush(flush_amount,
                                                    exclude_file=filename)
                if total > 0:
                    for device, device_amount in per_device.items():
                        yield device.write(device_amount, label=mm._label_flush)
                    stats.flushed_bytes += total
                    stats.flush_ops += 1
            evict_amount = required_mem - mm._free
            if evict_amount > 0:
                mm.evict(evict_amount, exclude_file=filename)
                still_needed = required_mem - mm._free
                if still_needed > 0:
                    # Last resort when the file being read is the only
                    # evictable data (e.g. a file larger than the remaining
                    # memory streams through the cache): reclaim its own
                    # least recently used blocks, as the kernel does.
                    mm.evict(still_needed)
            if disk_read > 0:
                stats.record_miss(filename, disk_read)
                yield storage.read(disk_read, label=read_label)
                mm.add_to_cache(filename, disk_read, storage, dirty=False)
            if cache_read > 0:
                served = mm.take_from_cache(filename, cache_read)
                if served > 0:
                    yield mm.memory.read(served, label=mm._label_cache_read)
            if use_anonymous_memory:
                mm.use_anonymous_memory(this_chunk, owner=anonymous_owner)
            stats.read_ops += 1
            if hop is not None:
                yield from hop(this_chunk)
            storage_bytes += disk_read
            cache_bytes += cache_read
            chunks += 1
            remaining -= this_chunk
        result.storage_bytes = storage_bytes
        result.cache_bytes = cache_bytes
        result.chunks = chunks
        result.end_time = env.now
        observer = env.observer
        if observer is not None:
            observer.complete(
                read_label, "io", f"io:{storage.name}", start, result.end_time,
                attrs={"bytes": file_size, "cache_bytes": cache_bytes,
                       "storage_bytes": storage_bytes, "chunks": chunks},
            )
        return result

    def write_file(self, filename: str, file_size: float, storage: StorageDevice,
                   chunk_size: Optional[float] = None, writethrough: bool = False,
                   hop: Optional[Hop] = None):
        """Algorithm 3: write a whole file chunk by chunk.

        Returns an :class:`IOResult`.  With a writeback cache each chunk is
        written to memory while the dirty data stays below the dirty
        threshold; beyond it, dirty data is flushed and clean data evicted
        to make room.  With ``writethrough=True`` each chunk is written
        synchronously to storage, then cached clean.  The file is marked as
        being written for the duration of the operation.

        ``hop`` (internal; only the NFS service sets it) is called once per
        chunk, before the chunk is written, and its process is run first.
        """
        chunk = chunk_size or self.config.chunk_size
        env = self.env
        mm = self.mm
        stats = mm.stats
        start = env.now
        result = IOResult(filename, file_size, start, start)
        chunks = 0
        storage_bytes = 0.0
        cache_bytes = 0.0
        remaining_file = file_size
        mm.mark_file_being_written(filename)
        try:
            while remaining_file > _EPSILON:
                this_chunk = min(chunk, remaining_file)
                if hop is not None:
                    yield from hop(this_chunk)
                if writethrough:
                    # Synchronous storage write, then cache the data (clean,
                    # since it is already persisted).
                    yield storage.write(this_chunk, label=f"wt-write:{filename}")
                    stats.direct_write_bytes += this_chunk
                    evict_amount = this_chunk - mm.free_mem
                    if evict_amount > 0:
                        mm.evict(evict_amount, exclude_file=filename)
                    to_cache = min(this_chunk, max(0.0, mm.free_mem))
                    if to_cache > 0:
                        mm.add_to_cache(filename, to_cache, storage, dirty=False)
                    stats.write_ops += 1
                    storage_bytes += this_chunk
                    cache_bytes += to_cache
                else:
                    total_flushed = 0.0
                    direct = 0.0
                    mem_amt = 0.0
                    remain_dirty = mm.dirty_capacity - mm.lists.dirty_size
                    if remain_dirty > 0:
                        # Room below the dirty threshold: write to memory.
                        evict_amount = min(this_chunk, remain_dirty) - mm._free
                        if evict_amount > 0:
                            mm.evict(evict_amount, exclude_file=filename)
                        mem_amt = min(this_chunk, max(0.0, mm._free))
                        if mem_amt > 0:
                            mm.put_to_cache(filename, mem_amt, storage)
                            yield mm.memory.write(mem_amt,
                                                  label=mm._label_cache_write)
                    remaining = this_chunk - mem_amt
                    while remaining > _EPSILON:
                        # Dirty threshold reached: flush, evict, then write
                        # the rest.
                        per_device, flushed = mm.select_flush(
                            this_chunk - mem_amt, exclude_file=None
                        )
                        if flushed > 0:
                            for device, device_amount in per_device.items():
                                yield device.write(device_amount,
                                                   label=mm._label_flush)
                            stats.flushed_bytes += flushed
                            stats.flush_ops += 1
                        total_flushed += flushed
                        evict_amount = this_chunk - mem_amt - mm._free
                        if evict_amount > 0:
                            mm.evict(evict_amount, exclude_file=filename)
                        to_cache = min(remaining, max(0.0, mm._free))
                        if to_cache <= _EPSILON:
                            # No progress is possible through the cache
                            # (e.g. dirty data of this very file fills
                            # memory): write the remainder straight to
                            # storage so the simulation cannot deadlock.
                            yield storage.write(remaining,
                                                label=f"write:{filename}")
                            stats.direct_write_bytes += remaining
                            direct = remaining
                            remaining = 0.0
                            break
                        mm.put_to_cache(filename, to_cache, storage)
                        yield mm.memory.write(to_cache,
                                              label=mm._label_cache_write)
                        remaining -= to_cache
                    stats.write_ops += 1
                    # Bytes written straight to storage went to the
                    # disk, not into the cache.
                    cache_bytes += this_chunk - remaining - direct
                    storage_bytes += total_flushed + direct
                chunks += 1
                remaining_file -= this_chunk
        finally:
            mm.unmark_file_being_written(filename)
        result.storage_bytes = storage_bytes
        result.cache_bytes = cache_bytes
        result.chunks = chunks
        result.end_time = env.now
        observer = env.observer
        if observer is not None:
            observer.complete(
                f"write:{filename}", "io", f"io:{storage.name}",
                start, result.end_time,
                attrs={"bytes": file_size, "cache_bytes": cache_bytes,
                       "storage_bytes": storage_bytes, "chunks": chunks,
                       "writethrough": writethrough},
            )
        return result
