"""Storage services.

A storage service exposes file read/write operations backed by a disk on a
host.  Three flavours are provided:

* :class:`~repro.simulator.cacheless.SimpleStorageService` — the original
  WRENCH behaviour: every byte goes to the disk at disk bandwidth, no page
  cache (defined in its own module to keep the baseline isolated);
* :class:`PageCachedStorageService` — WRENCH-cache: local I/O goes through
  the host's Memory Manager and I/O Controller (writeback or writethrough);
* :class:`NFSStorageService` — a remote storage service reached over the
  network; the *server* runs the same I/O Controller loops on its own page
  cache (writethrough by default, as in the paper's Exp 3) and each chunk
  crosses the network; the client does not cache.

All read/write methods are simulation processes returning an
:class:`~repro.pagecache.io_controller.IOResult`.
"""

from __future__ import annotations

from typing import Optional

from repro.des.environment import Environment
from repro.errors import ConfigurationError
from repro.filesystem.file import File
from repro.pagecache.config import PageCacheConfig
from repro.pagecache.io_controller import IOController
from repro.pagecache.memory_manager import MemoryManager
from repro.platform.host import Host
from repro.platform.network import Network
from repro.platform.storage import Disk


class StorageService:
    """Base class for storage services."""

    #: Cache behaviour; one of ``"none"``, ``"writeback"``, ``"writethrough"``.
    cache_mode = "none"

    def __init__(self, env: Environment, host: Host, disk: Disk,
                 name: Optional[str] = None):
        self.env = env
        self.host = host
        self.disk = disk
        self.name = name or f"{host.name}:{disk.name}"

    # ------------------------------------------------------------------- api
    def stage_file(self, file: File) -> None:
        """Place ``file`` on the service without simulating any transfer.

        Used to create the input files that exist before the execution
        starts (the page cache is cleared before each run in the paper, so
        staged files are *not* cached).
        """
        self.disk.allocate(file.size)

    def delete_file(self, file: File) -> None:
        """Remove ``file`` from the service, releasing its disk space."""
        self.disk.deallocate(file.size)

    def read_file(self, file: File, *, reader_host: Optional[Host] = None,
                  owner: Optional[str] = None, chunk_size: Optional[float] = None,
                  use_anonymous_memory: bool = True):
        """Read ``file``; simulation process returning an :class:`IOResult`."""
        raise NotImplementedError

    def write_file(self, file: File, *, writer_host: Optional[Host] = None,
                   owner: Optional[str] = None, chunk_size: Optional[float] = None):
        """Write ``file``; simulation process returning an :class:`IOResult`."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r} cache={self.cache_mode}>"


class PageCachedStorageService(StorageService):
    """Local storage service with a simulated page cache (WRENCH-cache).

    Parameters
    ----------
    env, host, disk:
        Location of the service.  The host must have a memory device.
    cache_config:
        Page cache tunables; a fresh :class:`MemoryManager` is created on
        the host if it does not already have one (one manager per host,
        shared by all its services, like the kernel's single page cache).
    writethrough:
        If true, writes use the writethrough path instead of writeback.
    """

    def __init__(self, env: Environment, host: Host, disk: Disk,
                 cache_config: Optional[PageCacheConfig] = None,
                 writethrough: bool = False, name: Optional[str] = None):
        super().__init__(env, host, disk, name=name)
        if host.memory is None:
            raise ConfigurationError(
                f"host {host.name!r} has no memory device; a page-cached storage "
                "service requires one"
            )
        if host.memory_manager is None:
            host.memory_manager = MemoryManager(
                env, host.memory, cache_config or PageCacheConfig(),
                name=f"{host.name}.mm",
            )
        self.memory_manager: MemoryManager = host.memory_manager
        self.io_controller = IOController(env, self.memory_manager)
        self.writethrough = writethrough

    @property
    def cache_mode(self) -> str:  # type: ignore[override]
        return "writethrough" if self.writethrough else "writeback"

    def _require_local(self, accessor: Optional[Host], verb: str) -> None:
        # This service models *local* I/O only: it has no network path and
        # charges the service host's disk, memory and page cache.  A remote
        # accessor would get a silently free (and wrongly attributed)
        # transfer; multi-node setups must replicate files on every node
        # (Simulation.stage_file_replicated) or use an NFS service.
        if accessor is not None and accessor.name != self.host.name:
            raise ConfigurationError(
                f"host {accessor.name!r} cannot {verb} on the local storage "
                f"service of {self.host.name!r}; replicate the file on "
                f"{accessor.name!r} or use an NFS storage service"
            )

    def read_file(self, file: File, *, reader_host: Optional[Host] = None,
                  owner: Optional[str] = None, chunk_size: Optional[float] = None,
                  use_anonymous_memory: bool = True):
        self._require_local(reader_host, "read")
        result = yield from self.io_controller.read_file(
            file.name,
            file.size,
            self.disk,
            chunk_size=chunk_size,
            anonymous_owner=owner,
            use_anonymous_memory=use_anonymous_memory,
        )
        return result

    def write_file(self, file: File, *, writer_host: Optional[Host] = None,
                   owner: Optional[str] = None, chunk_size: Optional[float] = None):
        self._require_local(writer_host, "write")
        self.disk.allocate(file.size)
        result = yield from self.io_controller.write_file(
            file.name,
            file.size,
            self.disk,
            chunk_size=chunk_size,
            writethrough=self.writethrough,
        )
        return result

    def delete_file(self, file: File) -> None:
        super().delete_file(file)
        self.memory_manager.invalidate_file(file.name)


class NFSStorageService(StorageService):
    """A storage service on a remote host, accessed over the network.

    Exp 3 of the paper runs the synthetic application against a 50 GiB
    NFS-mounted partition of a remote disk.  As is common in HPC
    environments the mount is configured so that data loss cannot happen
    on a client crash: there is no client write cache, the server cache is
    writethrough, and read caches are enabled on both sides.  The model
    simulates the server's cache, the one shared by all concurrent
    application instances.  The client does not cache data, but its
    anonymous memory is accounted when it has a memory manager.

    Reads and writes run the I/O Controller's loops on the *server's* page
    cache with a per-chunk network hop.  A read chunk is read on the server
    (from its cache when possible), then transferred to the client.  A
    written chunk is transferred to the server, then written there:
    writethrough (synchronous to the server disk, and the data populates
    the server's cache) or writeback.

    Parameters
    ----------
    env, server_host, disk:
        Location of the service.  The server must have a memory device.
    network:
        Network connecting the server and its clients.
    cache_config:
        Page cache tunables of the server's :class:`MemoryManager`, created
        if the server does not already have one.
    writethrough:
        If true (the default, as in Exp 3), the server cache is
        writethrough; otherwise writeback.
    """

    def __init__(self, env: Environment, server_host: Host, disk: Disk,
                 network: Network,
                 cache_config: Optional[PageCacheConfig] = None,
                 writethrough: bool = True, name: Optional[str] = None):
        super().__init__(env, server_host, disk,
                         name=name or f"nfs:{server_host.name}:{disk.name}")
        if server_host.memory is None:
            raise ConfigurationError(
                f"NFS server {server_host.name!r} has no memory device"
            )
        if server_host.memory_manager is None:
            server_host.memory_manager = MemoryManager(
                env, server_host.memory, cache_config or PageCacheConfig(),
                name=f"{server_host.name}.mm",
            )
        self.network = network
        self.memory_manager: MemoryManager = server_host.memory_manager
        self.io_controller = IOController(env, self.memory_manager)
        self.writethrough = writethrough

    @property
    def cache_mode(self) -> str:  # type: ignore[override]
        return "writethrough" if self.writethrough else "writeback"

    def read_file(self, file: File, *, reader_host: Optional[Host] = None,
                  owner: Optional[str] = None, chunk_size: Optional[float] = None,
                  use_anonymous_memory: bool = True):
        if reader_host is None:
            raise ConfigurationError("NFS reads require the reading host")
        transfer = self.network.transfer
        server, client = self.host.name, reader_host.name
        label = f"nfs:{file.name}"
        client_mm = reader_host.memory_manager if use_anonymous_memory else None

        def hop(chunk: float):
            yield transfer(server, client, chunk, label=label)
            if client_mm is not None:
                client_mm.use_anonymous_memory(chunk, owner=owner)

        result = yield from self.io_controller.read_file(
            file.name, file.size, self.disk, chunk_size=chunk_size,
            use_anonymous_memory=False, hop=hop,
        )
        return result

    def write_file(self, file: File, *, writer_host: Optional[Host] = None,
                   owner: Optional[str] = None, chunk_size: Optional[float] = None):
        if writer_host is None:
            raise ConfigurationError("NFS writes require the writing host")
        self.disk.allocate(file.size)
        transfer = self.network.transfer
        client, server = writer_host.name, self.host.name
        label = f"nfs:{file.name}"

        def hop(chunk: float):
            yield transfer(client, server, chunk, label=label)

        result = yield from self.io_controller.write_file(
            file.name, file.size, self.disk, chunk_size=chunk_size,
            writethrough=self.writethrough, hop=hop,
        )
        return result

    def delete_file(self, file: File) -> None:
        super().delete_file(file)
        self.memory_manager.invalidate_file(file.name)
