"""The simulation service: a long-lived, crash-recoverable worker.

:class:`SimulationService` wraps one streaming simulation (built by
:func:`repro.service.base.build_service_cluster`) behind a bounded
admission queue.  Client threads submit job specs; a single worker thread
owns the simulation and alternates between admitting queued submissions
and advancing the DES with ``step_until``.

Determinism contract
--------------------
The durable submission log fully determines the results.  Every accepted
operation is applied at a recorded *injection time* ``t`` (the service
frontier, ``max(previous frontier, env.now)``) via the fixed procedure
``step_until(t); apply(op)``; replaying the log through the same
procedure reproduces the exact event sequence, so recovered runs are
byte-identical to uninterrupted ones (:func:`replay_entries` is the
reference implementation, and what the crash-recovery tests compare
against).

Recovery protocol
-----------------
On start, the service rebuilds the recipe and replays the whole log with
:func:`replay_entries`.  The simulator is deterministic and restoring a
snapshot would itself replay from ``t=0``, so log replay is the cheapest
recovery there is.  Fingerprint entries recorded by
:meth:`SimulationService.fingerprint_now` audit the replay: each one is
recomputed at its ``t`` and a mismatch raises
:class:`~repro.errors.SnapshotIntegrityError`, so a service whose log no
longer reproduces its history refuses to start.
"""

from __future__ import annotations

import json
import math
import threading
import time
from concurrent.futures import Future
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.errors import (
    ConfigurationError,
    ServiceBackpressure,
    ServiceDraining,
    ServiceError,
    SnapshotIntegrityError,
)
from repro.obs import MetricsRegistry
from repro.scheduler.arrivals import SubmissionQueue
from repro.service.log import (
    OP_CLOSE,
    OP_FINGERPRINT,
    OP_SUBMIT,
    LogEntry,
    SubmissionLog,
)
from repro.service.spec import JobSpec
from repro.snapshot import (
    SimRecipe,
    build_from_recipe,
    canonical_json,
    capture_state,
    fingerprint,
    to_jsonable,
)

#: File names inside a service data directory.
RECIPE_FILE = "recipe.json"
LOG_FILE = "submissions.log"
RESULT_FILE = "result.json"


# --------------------------------------------------------------------- replay
def apply_entry(sim, entry: LogEntry) -> None:
    """Apply one log entry to a paused simulation (the replay primitive).

    The single procedure both the live path and every replay path share:
    ``step_until(entry.t)`` then the operation.  Sharing it is what makes
    recovery byte-identical — feeds happen at identical paused states.
    A fingerprint entry only checks the paused state: it raises
    :class:`~repro.errors.SnapshotIntegrityError` on a mismatch.
    """
    sim.step_until(entry.t)
    if entry.op == OP_SUBMIT:
        spec = JobSpec.from_dict(entry.spec)
        arrival = entry.t
        if spec.arrival_time is not None:
            arrival = max(arrival, spec.arrival_time)
        sim.submit_job(
            spec.build_workflow(sim.service_datasets),
            cores=spec.cores,
            arrival_time=arrival,
            priority=spec.priority,
            label=spec.label,
        )
    elif entry.op == OP_CLOSE:
        sim.scheduler.close_stream()
    elif entry.op == OP_FINGERPRINT:
        replayed = fingerprint(to_jsonable(capture_state(sim)))
        if replayed != entry.fingerprint:
            raise SnapshotIntegrityError(
                f"replayed state at seq {entry.seq} (t={entry.t}) has "
                f"fingerprint {replayed}, the log recorded "
                f"{entry.fingerprint} (corrupt log, different code version, "
                "or lost determinism)"
            )
    else:  # pragma: no cover - entries() already validates ops
        raise ServiceError(f"unknown log op {entry.op!r}")


def replay_entries(recipe: SimRecipe, entries: List[LogEntry]):
    """Rebuild a simulation and replay ``entries`` onto it.

    Returns the paused simulation; the stream is still open unless the
    log ends with a close op.
    """
    sim = build_from_recipe(recipe)
    sim.step_until(0.0)
    for entry in entries:
        apply_entry(sim, entry)
    return sim


def replay_result(recipe: SimRecipe, entries: List[LogEntry]):
    """The uninterrupted-reference result of a (closed) log.

    Replays every entry offline and runs the simulation to completion.
    This is what a service that never crashed would have produced — the
    crash-recovery tests compare the recovered service's canonical result
    bytes against this.
    """
    sim = replay_entries(recipe, entries)
    if not sim.scheduler._stream_closed:
        sim.scheduler.close_stream()
    return sim.run()


def canonical_result(result) -> str:
    """Canonical JSON of a simulation result (nondeterminism excluded).

    ``wallclock_time`` and the observer are dropped by the canonical
    encoder, so two runs that simulated identical histories produce
    byte-identical strings.
    """
    return canonical_json(to_jsonable(result))


# -------------------------------------------------------------------- service
class SimulationService:
    """A supervised, crash-recoverable streaming simulation worker.

    Parameters
    ----------
    data_dir:
        Durable state: the recipe, the submission log and the final
        result all live here.  A service re-opened on an existing
        directory recovers from it by replaying the log.
    recipe:
        Build recipe of the base simulation.  Required on first open
        (persisted to ``recipe.json``); on re-open it must be omitted or
        equal to the persisted one.
    queue_capacity:
        Admission queue bound — the backpressure contract.
    request_timeout:
        Default seconds a :meth:`submit` caller waits for its ack.
    advance_slice:
        Wall-clock budget in seconds of one DES advance burst; keeps the
        worker responsive to new submissions.
    """

    def __init__(self, data_dir: Union[str, Path], *,
                 recipe: Optional[SimRecipe] = None,
                 queue_capacity: int = 64,
                 request_timeout: float = 30.0,
                 advance_slice: float = 0.05,
                 poll_interval: float = 0.05):
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.recipe = self._load_or_persist_recipe(recipe)
        self.request_timeout = float(request_timeout)
        self.advance_slice = float(advance_slice)
        self.poll_interval = float(poll_interval)

        self.log = SubmissionLog(self.data_dir / LOG_FILE)
        self.queue = SubmissionQueue(queue_capacity)
        self.registry = MetricsRegistry()

        #: Guards the simulation and all bookkeeping below.
        self._lock = threading.RLock()
        self._sim = None
        self._frontier = 0.0
        self._next_seq = 0
        self._closed = False
        self._tokens: Dict[str, Dict[str, Any]] = {}
        self._labels: set = set()

        self._drain_requested = threading.Event()
        self._drained = threading.Event()
        self._result = None
        self._crashed: Optional[BaseException] = None
        self._worker: Optional[threading.Thread] = None

    # ----------------------------------------------------------- construction
    def _load_or_persist_recipe(self,
                                recipe: Optional[SimRecipe]) -> SimRecipe:
        recipe_path = self.data_dir / RECIPE_FILE
        if recipe_path.exists():
            persisted = SimRecipe.decode(
                json.loads(recipe_path.read_text(encoding="utf-8"))
            )
            if recipe is not None and recipe.encoded() != persisted.encoded():
                raise ConfigurationError(
                    f"data dir {self.data_dir} was created with a different "
                    "recipe; omit recipe= to recover it, or use a fresh "
                    "directory"
                )
            return persisted
        if recipe is None:
            raise ConfigurationError(
                f"no recipe persisted in {self.data_dir}; pass recipe= on "
                "first open"
            )
        tmp = recipe_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(recipe.encoded(), sort_keys=True, indent=2),
                       encoding="utf-8")
        tmp.replace(recipe_path)
        return recipe

    # -------------------------------------------------------------- lifecycle
    def start(self) -> "SimulationService":
        """Recover durable state and start the worker thread."""
        with self._lock:
            if self._worker is not None:
                raise ServiceError("the service has already been started")
            self._recover()
            self._worker = threading.Thread(
                target=self._serve_forever, name="sim-service-worker",
                daemon=True,
            )
            self._worker.start()
        return self

    def _recover(self) -> None:
        entries = self.log.entries()
        sim = replay_entries(self.recipe, entries)
        if entries:
            self.registry.counter("service.recoveries").inc()
            self.registry.counter("service.fingerprints_verified").inc(
                sum(1 for entry in entries if entry.op == OP_FINGERPRINT)
            )

        self._sim = sim
        self._next_seq = len(entries)
        self._frontier = max(
            [sim.env.now] + [entry.t for entry in entries]
        )
        self._closed = bool(entries) and entries[-1].op == OP_CLOSE
        for entry in entries:
            if entry.op != OP_SUBMIT:
                continue
            ack = {"seq": entry.seq, "label": entry.spec["label"],
                   "t": entry.t}
            if entry.token is not None:
                self._tokens[entry.token] = ack
            self._labels.add(entry.spec["label"])
        if self._closed:
            # The previous lifetime was already draining; finish its
            # drain now so /result becomes available.
            self._finish_drain()

    def stop(self, *, timeout: Optional[float] = None) -> None:
        """Request a graceful drain and wait for the worker to finish."""
        self.request_drain()
        self.join(timeout=timeout)

    def join(self, timeout: Optional[float] = None) -> None:
        """Wait for the worker thread; re-raises a worker crash."""
        worker = self._worker
        if worker is not None:
            worker.join(timeout)
        if self._crashed is not None:
            raise self._crashed

    # ------------------------------------------------------------- client api
    def submit(self, spec: Dict[str, Any], *,
               token: Optional[str] = None,
               timeout: Optional[float] = None) -> Dict[str, Any]:
        """Submit one job; blocks until the ack is durable.

        Returns the ack dict ``{"seq", "label", "t"}`` (plus
        ``"duplicate": True`` when ``token`` was already acknowledged —
        idempotent retries).  Raises :class:`ServiceBackpressure` when
        the admission queue is full, :class:`ServiceDraining` once a
        drain started, and :class:`ConfigurationError` for invalid specs.
        """
        with self._lock:
            if self._crashed is not None:
                raise ServiceError(
                    f"the service worker crashed: {self._crashed!r}"
                )
            if self._drain_requested.is_set() or self._closed:
                raise ServiceDraining(
                    "the service is draining; no new submissions accepted"
                )
            if token is not None and token in self._tokens:
                self.registry.counter("service.submissions_duplicate").inc()
                return {**self._tokens[token], "duplicate": True}
        future: Future = Future()
        if not self.queue.offer((token, spec, future)):
            self.registry.counter("service.submissions_rejected").inc()
            raise ServiceBackpressure(
                f"admission queue is full ({self.queue.capacity} pending); "
                "retry later",
                retry_after=max(1.0, self.queue.capacity * 0.01),
            )
        return future.result(timeout if timeout is not None
                             else self.request_timeout)

    def request_drain(self) -> None:
        """Ask the worker to drain: finish accepted jobs, stop."""
        self._drain_requested.set()

    def drain(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        """Drain and wait for completion; returns the final summary."""
        self.request_drain()
        if not self._drained.wait(timeout):
            raise ServiceError("drain did not complete within the timeout")
        if self._crashed is not None:
            raise ServiceError(f"the service worker crashed: {self._crashed!r}")
        return self.summary()

    def fingerprint_now(self) -> Dict[str, Any]:
        """Durably record the current state's fingerprint in the log.

        Appends one fsync'd fingerprint entry; every later replay of the
        log (recovery, :func:`replay_entries`) recomputes the fingerprint
        at the entry's ``t`` and fails on a mismatch.  Returns the entry's
        ``{"seq", "t", "fingerprint"}``.
        """
        with self._lock:
            self._require_live()
            if self._closed:
                raise ServiceDraining(
                    "the submission stream is closed; the drained result "
                    "is audited by result.json instead"
                )
            t = max(self._frontier, self._sim.env.now)
            self._sim.step_until(t)
            entry = self.log.append(LogEntry(
                seq=self._next_seq, op=OP_FINGERPRINT, t=t,
                fingerprint=fingerprint(
                    to_jsonable(capture_state(self._sim))
                ),
            ))
            self._frontier = t
            self._next_seq += 1
            return {"seq": entry.seq, "t": t,
                    "fingerprint": entry.fingerprint}

    def job_status(self, label: str) -> Dict[str, Any]:
        """The lifecycle state of one submitted job."""
        with self._lock:
            if label not in self._labels:
                raise KeyError(label)
            scheduler = self._sim.scheduler
            for record in scheduler.records:
                if record.label == label:
                    return {
                        "label": label, "state": "completed",
                        "node": record.node,
                        "start_time": record.start_time,
                        "end_time": record.end_time,
                        "wait_time": max(
                            0.0, record.start_time - record.arrival_time
                        ),
                    }
            for job in scheduler.jobs:
                if job.label != label:
                    continue
                if job.id in scheduler._running_procs:
                    state = "running"
                elif job in scheduler.queue:
                    state = "queued"
                else:
                    state = "scheduled"
                return {"label": label, "state": state,
                        "node": job.node_name,
                        "arrival_time": job.arrival_time}
            return {"label": label, "state": "accepted"}

    def metrics(self) -> Dict[str, Any]:
        """Service + simulation metrics (the ``repro.obs`` registry view)."""
        with self._lock:
            registry = self.registry.as_dict()
            sim = self._sim
            scheduler = sim.scheduler if sim is not None else None
            return {
                "service": registry,
                "queue": {
                    "depth": len(self.queue),
                    "capacity": self.queue.capacity,
                    "accepted": self.queue.n_accepted,
                    "rejected": self.queue.n_rejected,
                },
                "sim": {
                    "now": sim.env.now if sim is not None else 0.0,
                    "frontier": self._frontier,
                    "submitted": len(self._labels),
                    "completed": (
                        len(scheduler.records) if scheduler is not None else 0
                    ),
                    "running": (
                        len(scheduler._running_procs)
                        if scheduler is not None else 0
                    ),
                    "queued": (
                        len(scheduler.queue) if scheduler is not None else 0
                    ),
                    "closed": self._closed,
                    "drained": self._drained.is_set(),
                },
            }

    def health(self) -> Dict[str, Any]:
        """Liveness: ok / draining / drained / crashed."""
        if self._crashed is not None:
            status = "crashed"
        elif self._drained.is_set():
            status = "drained"
        elif self._drain_requested.is_set():
            status = "draining"
        else:
            status = "ok"
        return {"status": status}

    @property
    def ready(self) -> bool:
        """Whether the service currently accepts submissions."""
        return (self._crashed is None and not self._closed
                and not self._drain_requested.is_set()
                and self._worker is not None)

    @property
    def result(self):
        """The final :class:`SimulationResult` (``None`` until drained)."""
        return self._result

    def canonical_result(self) -> str:
        """Canonical result JSON; raises until the service has drained."""
        with self._lock:
            if self._result is None:
                raise ServiceError(
                    "no result yet: the service has not drained"
                )
            return canonical_result(self._result)

    def summary(self) -> Dict[str, Any]:
        """Small JSON summary of the drained run."""
        with self._lock:
            if self._result is None:
                raise ServiceError("no result yet: the service has not drained")
            metrics = self._result.scheduler
            return {
                "jobs_submitted": sum(
                    1 for e in self.log.entries() if e.op == OP_SUBMIT
                ),
                "jobs_completed": metrics.n_jobs if metrics else 0,
                "makespan": metrics.makespan if metrics else 0.0,
                "cache_hit_ratio": self._result.read_cache_hit_ratio(),
                "result_file": str(self.data_dir / RESULT_FILE),
            }

    def _require_live(self) -> None:
        if self._sim is None:
            raise ServiceError("the service has not been started")
        if self._drained.is_set():
            raise ServiceError("the service has already drained")

    # ------------------------------------------------------------ worker loop
    def _serve_forever(self) -> None:
        try:
            while True:
                items = self.queue.drain(timeout=self.poll_interval)
                with self._lock:
                    for token, spec, future in items:
                        self._admit(token, spec, future)
                    if self._drain_requested.is_set() or self._closed:
                        if not self._closed:
                            self._log_close()
                        self._finish_drain()
                        self._fail_pending()
                        return
                    self._advance(self.advance_slice)
        except BaseException as exc:  # noqa: BLE001 - reported to clients
            self._crashed = exc
            self._drained.set()
            self._fail_pending()

    def _fail_pending(self) -> None:
        """Reject submissions still queued after the worker stopped."""
        for _token, _spec, future in self.queue.drain(timeout=0):
            try:
                future.set_exception(ServiceDraining(
                    "the service stopped before admitting this submission"
                ))
            except Exception:  # pragma: no cover - future already resolved
                pass

    def _admit(self, token: Optional[str], spec_dict: Dict[str, Any],
               future: Future) -> None:
        """Validate, durably log, then inject one submission (lock held)."""
        try:
            if token is not None and token in self._tokens:
                self.registry.counter("service.submissions_duplicate").inc()
                future.set_result({**self._tokens[token], "duplicate": True})
                return
            if self._closed or self._drain_requested.is_set():
                raise ServiceDraining(
                    "the service is draining; no new submissions accepted"
                )
            seq = self._next_seq
            spec = JobSpec.from_dict(spec_dict, default_label=f"job{seq}")
            scheduler = self._sim.scheduler
            spec.validate(
                n_datasets=len(self._sim.service_datasets),
                max_cores=max(n.total_cores for n in scheduler.nodes),
            )
            if spec.label in self._labels:
                raise ConfigurationError(
                    f"a job labelled {spec.label!r} was already submitted; "
                    "labels must be unique (use a token for safe retries)"
                )
            t = max(self._frontier, self._sim.env.now)
            entry = self.log.append(LogEntry(
                seq=seq, op=OP_SUBMIT, t=t, token=token,
                spec=spec.as_dict(),
            ))
            # Durable from here: the ack below survives any crash.
            apply_entry(self._sim, entry)
            self._frontier = t
            self._next_seq = seq + 1
            self._labels.add(spec.label)
            ack = {"seq": seq, "label": spec.label, "t": t}
            if token is not None:
                self._tokens[token] = ack
            self.registry.counter("service.submissions_accepted").inc()
            future.set_result(ack)
        except BaseException as exc:  # noqa: BLE001 - delivered to the client
            future.set_exception(exc)

    def _log_close(self) -> None:
        t = max(self._frontier, self._sim.env.now)
        entry = self.log.append(LogEntry(seq=self._next_seq, op=OP_CLOSE, t=t))
        apply_entry(self._sim, entry)
        self._frontier = t
        self._next_seq += 1
        self._closed = True

    def _outstanding_work(self) -> bool:
        """Whether any accepted job is still pending/queued/running."""
        scheduler = self._sim.scheduler
        return bool(scheduler._running_procs or scheduler.queue
                    or scheduler._arrivals)

    def _advance(self, wall_budget: float) -> None:
        """Advance the DES within a wall-clock budget (lock held).

        Only advances while accepted jobs are outstanding: an idle open
        stream parks the simulated clock instead of racing it through
        background-flusher ticks forever.
        """
        sim = self._sim
        env = sim.env
        deadline = time.perf_counter() + wall_budget
        while time.perf_counter() < deadline:
            if not self._outstanding_work():
                return
            peek = env.peek()
            if math.isinf(peek):
                return
            sim.step_until(peek + 1.0)

    def _finish_drain(self) -> None:
        """Run the closed stream to completion, finalize."""
        if self._drained.is_set():
            return
        sim = self._sim
        sim.step_until(math.inf)
        self._result = sim.run()
        text = canonical_result(self._result)
        tmp = self.data_dir / (RESULT_FILE + ".tmp")
        tmp.write_text(text, encoding="utf-8")
        tmp.replace(self.data_dir / RESULT_FILE)
        self.log.close()
        self._drained.set()
