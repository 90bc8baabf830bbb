"""Process supervision: keep the service alive across crashes.

The :class:`Supervisor` runs the service (worker loop + HTTP server) in a
forked child process and watches its exit code.  A clean drain exits 0
and ends supervision; anything else — a SIGKILL, an ``os._exit``, an
unhandled exception — triggers a restart, and the restarted worker
recovers from the data directory: it replays the submission log
(checking any recorded fingerprints) and resumes serving.  Acknowledged
submissions survive because their log entries were fsync'd before the
ack.

The child writes its bound HTTP port to ``<data_dir>/http.port`` once the
server is listening (ports can change across restarts when ``port=0``);
:meth:`Supervisor.port` polls that file.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from repro.errors import ConfigurationError, ServiceError
from repro.service.core import SimulationService
from repro.service.http import make_server
from repro.snapshot import SimRecipe

#: The child's exit code for a crashed worker thread (sysexits EX_SOFTWARE).
CRASH_EXIT_CODE = 70

PORT_FILE = "http.port"

#: Grace period after a drain before the HTTP server stops, so in-flight
#: responses (the drain summary, a follow-up ``GET /result``) can flush.
DRAIN_LINGER = 1.0


@dataclass
class ServiceConfig:
    """Everything a worker process needs to serve one data directory."""

    data_dir: Union[str, Path]
    recipe: Optional[SimRecipe] = None
    host: str = "127.0.0.1"
    port: int = 0
    queue_capacity: int = 64
    request_timeout: float = 30.0

    def build_service(self) -> SimulationService:
        return SimulationService(
            self.data_dir,
            recipe=self.recipe,
            queue_capacity=self.queue_capacity,
            request_timeout=self.request_timeout,
        )


def write_port_file(data_dir: Union[str, Path], port: int) -> Path:
    path = Path(data_dir) / PORT_FILE
    tmp = path.with_suffix(".tmp")
    tmp.write_text(f"{port}\n", encoding="utf-8")
    tmp.replace(path)
    return path


def worker_main(config: ServiceConfig) -> None:
    """Child-process entry point: recover, serve, drain, exit.

    Exit codes: 0 after a graceful drain (SIGTERM or POST /drain);
    :data:`CRASH_EXIT_CODE` when the worker thread died — the supervisor
    restarts on any non-zero exit.
    """
    service = config.build_service()
    service.start()
    server = make_server(service, config.host, config.port)
    write_port_file(config.data_dir, server.server_address[1])

    def _terminate(_signum, _frame):
        service.request_drain()

    signal.signal(signal.SIGTERM, _terminate)

    http_thread = threading.Thread(target=server.serve_forever,
                                   name="sim-service-http", daemon=True)
    http_thread.start()
    try:
        service.join()
    except BaseException:
        server.shutdown()
        os._exit(CRASH_EXIT_CODE)
    time.sleep(DRAIN_LINGER)
    server.shutdown()


class Supervisor:
    """Run the service under restart-on-crash supervision.

    Parameters
    ----------
    config:
        The worker's service configuration.
    max_restarts:
        Restarts allowed before the supervisor gives up (the data
        directory stays intact for manual recovery).
    backoff:
        Seconds between a crash and the restart.
    """

    def __init__(self, config: ServiceConfig, *, max_restarts: int = 5,
                 backoff: float = 0.2):
        if not hasattr(os, "fork"):  # pragma: no cover - POSIX only
            raise ConfigurationError(
                "the service supervisor requires a POSIX platform (fork)"
            )
        self.config = config
        self.max_restarts = int(max_restarts)
        self.backoff = float(backoff)
        self.restarts = 0
        self.gave_up = False
        self._context = multiprocessing.get_context("fork")
        self._process = None
        self._monitor: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        self._exited = threading.Event()

    # -------------------------------------------------------------- lifecycle
    def start(self) -> "Supervisor":
        if self._monitor is not None:
            raise ServiceError("the supervisor has already been started")
        self._spawn()
        self._monitor = threading.Thread(target=self._watch,
                                         name="sim-service-supervisor",
                                         daemon=True)
        self._monitor.start()
        return self

    def _spawn(self) -> None:
        port_file = Path(self.config.data_dir) / PORT_FILE
        try:
            port_file.unlink()
        except OSError:
            pass
        self._process = self._context.Process(
            target=worker_main, args=(self.config,),
            name="sim-service-worker",
        )
        self._process.start()

    def _watch(self) -> None:
        while True:
            process = self._process
            process.join()
            if self._stopping.is_set() or process.exitcode == 0:
                break
            if self.restarts >= self.max_restarts:
                self.gave_up = True
                break
            self.restarts += 1
            time.sleep(self.backoff)
            self._spawn()
        self._exited.set()

    # ------------------------------------------------------------------- api
    @property
    def pid(self) -> Optional[int]:
        """The current worker process id (changes across restarts)."""
        process = self._process
        return process.pid if process is not None else None

    def port(self, timeout: float = 10.0) -> int:
        """The worker's bound HTTP port, polled from its port file."""
        path = Path(self.config.data_dir) / PORT_FILE
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                return int(path.read_text(encoding="utf-8").strip())
            except (OSError, ValueError):
                time.sleep(0.02)
        raise ServiceError(
            f"worker did not publish its port within {timeout}s"
        )

    @property
    def alive(self) -> bool:
        """Whether a worker process is currently running."""
        process = self._process
        return process is not None and process.is_alive()

    def kill_worker(self) -> int:
        """SIGKILL the current worker (crash injection for tests/CI)."""
        process = self._process
        if process is None or process.pid is None:
            raise ServiceError("no worker process to kill")
        pid = process.pid
        os.kill(pid, signal.SIGKILL)
        return pid

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Wait until supervision ends (clean exit or give-up)."""
        return self._exited.wait(timeout)

    def stop(self, *, timeout: float = 60.0) -> int:
        """Gracefully stop: SIGTERM the worker (drain) and wait.

        Returns the worker's final exit code.
        """
        self._stopping.set()
        process = self._process
        if process is not None and process.is_alive():
            try:
                os.kill(process.pid, signal.SIGTERM)
            except OSError:
                pass
            process.join(timeout)
            if process.is_alive():
                process.terminate()
                process.join(5.0)
        self._exited.wait(timeout)
        return process.exitcode if process is not None else 0
