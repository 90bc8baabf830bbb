"""Tests of the simulation service: streaming scheduler, submission
queue and log, job specs, the in-process service lifecycle, warm-start
restores, and the off-main-thread sweep timeout.

The governing invariant (shared with ``test_service_recovery.py``): the
durable submission log fully determines the results — a recovered or
replayed run is byte-identical to the uninterrupted one.
"""

from __future__ import annotations

import json
import shutil
import threading
import time

import pytest

from repro.errors import (
    ConfigurationError,
    SchedulingError,
    ServiceBackpressure,
    ServiceDraining,
    ServiceError,
    SnapshotError,
    SnapshotIntegrityError,
)
from repro.scheduler.arrivals import SubmissionQueue
from repro.service import (
    JobSpec,
    LogEntry,
    SimulationService,
    SubmissionLog,
    build_service_cluster,
    canonical_result,
    replay_result,
)
from repro.service.log import (
    OP_CLOSE,
    OP_FINGERPRINT,
    OP_SUBMIT,
    SubmissionLogError,
)
from repro.snapshot import (
    SimRecipe,
    apply_live_overrides,
    restore_simulation,
    warm_start_values,
    write_snapshot,
)
from repro.units import MB

#: A tiny service cluster every test here can afford to replay.
SMALL_PARAMS = dict(
    n_nodes=2, cores_per_node=2, n_datasets=3,
    input_size=32 * MB, chunk_size=16 * MB,
)
SMALL_RECIPE = SimRecipe("service-cluster", dict(SMALL_PARAMS))


def small_service(tmp_path, **kwargs):
    kwargs.setdefault("recipe", SMALL_RECIPE)
    return SimulationService(tmp_path / "svc", **kwargs)


def service_counter(service, name):
    """The value of one unlabelled counter of a service's registry."""
    return service.metrics()["service"].get(name, {}).get("", 0.0)


def spec_dict(label, dataset=0, runtime=1.0, **extra):
    return {"label": label, "dataset": dataset, "runtime": runtime, **extra}


# ------------------------------------------------------------ streaming
class TestStreamingScheduler:
    def build(self):
        return build_service_cluster(**SMALL_PARAMS)

    def test_batch_scheduler_closes_stream_at_start(self):
        from repro.scheduler.job import Job
        from repro.simulator.simulation import Simulation, SimulationConfig
        from repro.simulator.workflow import Workflow

        sim = Simulation(config=SimulationConfig(chunk_size=16 * MB))
        sim.create_cluster_platform(2, cores_per_node=2,
                                    with_nfs_server=False)
        scheduler = sim.create_cluster_scheduler()
        # Before the run starts, submit and feed are one path.
        scheduler.submit(Job(Workflow("j0")))
        scheduler.feed(Job(Workflow("j1")))
        sim.step_until(0.0)
        for add in (scheduler.submit, scheduler.feed):
            with pytest.raises(SchedulingError, match="closed"):
                add(Job(Workflow("late")))
        scheduler.close_stream()  # already closed: a no-op
        result = sim.run()
        assert result.scheduler.n_jobs == 2

    def test_submit_delegates_to_feed_and_close_ends_run(self):
        sim = self.build()
        sim.submit_job(
            JobSpec.from_dict(spec_dict("j0")).build_workflow(
                sim.service_datasets),
            label="j0",
        )
        sim.scheduler.close_stream()
        result = sim.run()
        assert result.scheduler.n_jobs == 1

    def test_mid_run_feed_and_past_arrival_clamped(self):
        sim = self.build()
        sim.step_until(5.0)
        job = sim.submit_job(
            JobSpec.from_dict(spec_dict("late")).build_workflow(
                sim.service_datasets),
            arrival_time=1.0, label="late",
        )
        # A job cannot arrive in the simulated past.
        assert job.arrival_time == sim.env.now
        sim.scheduler.close_stream()
        result = sim.run()
        record = result.scheduler.records[0]
        assert record.arrival_time >= 5.0

    def test_feed_after_close_raises(self):
        sim = self.build()
        sim.scheduler.close_stream()
        sim.scheduler.close_stream()  # idempotent
        with pytest.raises(SchedulingError, match="closed"):
            sim.submit_job(
                JobSpec.from_dict(spec_dict("j1")).build_workflow(
                    sim.service_datasets),
                label="j1",
            )

    def test_empty_closed_stream_completes(self):
        sim = self.build()
        sim.scheduler.close_stream()
        result = sim.run()
        assert result.scheduler.n_jobs == 0

    @staticmethod
    def _faulty_stream_run():
        """Feed jobs around a crash and a repair of the only node.

        The crash hits the first job; a second job is fed while the node
        is down (nothing can run, only the wake event can resume the
        loop), and two more after the repair, all with the stream open.
        """
        from repro.faults import FaultPlan, NodeFaultSpec

        plan = FaultPlan(seed=3, node_faults=(NodeFaultSpec(
            mtbf=1.0, mttr=4.0, first_failure_after=1.0, max_failures=1),))
        sim = build_service_cluster(**dict(SMALL_PARAMS, n_nodes=1),
                                    fault_plan=plan)
        node = sim.scheduler.nodes[0]

        def feed(label, runtime=1.0):
            sim.submit_job(
                JobSpec.from_dict(spec_dict(label, runtime=runtime))
                .build_workflow(sim.service_datasets),
                label=label,
            )

        feed("before", runtime=30.0)
        # step_until returns the clock of the last event, so count the
        # pause points separately; both loops are bounded by the plan.
        t = 0.0
        while node.up and t < 50.0:
            t += 0.5
            sim.step_until(t)
        feed("while-down")
        while not node.up and t < 100.0:
            t += 0.5
            sim.step_until(t)
        sim.step_until(t + 1.0)
        feed("after-0")
        feed("after-1")
        sim.scheduler.close_stream()
        return sim.run()

    def test_fault_plan_crash_and_repair_with_open_stream(self):
        first = self._faulty_stream_run()
        metrics = first.scheduler
        assert metrics.n_jobs == 4
        assert sorted(r.label for r in metrics.records) == [
            "after-0", "after-1", "before", "while-down"]
        assert metrics.n_node_failures == 1
        assert metrics.n_job_restarts == 1
        # The repair's kick, not the next feed, started the queued job
        # (a feed clamps its arrival to the clock of the last event).
        records = {r.label: r for r in metrics.records}
        assert (records["while-down"].start_time
                < records["after-0"].arrival_time)
        second = self._faulty_stream_run()
        assert canonical_result(second) == canonical_result(first)

    def test_duplicate_label_rejected(self):
        sim = self.build()
        workflow = JobSpec.from_dict(spec_dict("dup")).build_workflow(
            sim.service_datasets)
        sim.submit_job(workflow, label="dup")
        with pytest.raises(SchedulingError, match="unique label"):
            sim.submit_job(workflow, label="dup")


# ------------------------------------------------------- submission queue
class TestSubmissionQueue:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            SubmissionQueue(0)

    def test_offer_and_drain_preserve_order(self):
        queue = SubmissionQueue(4)
        for item in ("a", "b", "c"):
            assert queue.offer(item)
        assert len(queue) == 3
        assert queue.drain(timeout=0) == ["a", "b", "c"]
        assert len(queue) == 0

    def test_offer_beyond_bound_is_rejected_not_dropped(self):
        queue = SubmissionQueue(2)
        assert queue.offer(1) and queue.offer(2)
        assert not queue.offer(3)
        assert queue.n_rejected == 1
        assert queue.n_accepted == 2
        # The rejected item never entered the queue.
        assert queue.drain(timeout=0) == [1, 2]

    def test_drain_times_out_empty(self):
        queue = SubmissionQueue(2)
        start = time.perf_counter()
        assert queue.drain(timeout=0.05) == []
        assert time.perf_counter() - start < 1.0

    def test_drain_wakes_on_offer(self):
        queue = SubmissionQueue(2)
        got = []

        def consumer():
            got.extend(queue.drain(timeout=5.0))

        thread = threading.Thread(target=consumer)
        thread.start()
        time.sleep(0.05)
        queue.offer("x")
        thread.join(5.0)
        assert got == ["x"]


# ------------------------------------------------------------- job specs
class TestJobSpec:
    def test_round_trip(self):
        spec = JobSpec.from_dict(spec_dict("j", dataset=2, runtime=3.5,
                                           cores=2, priority=1))
        assert JobSpec.from_dict(spec.as_dict()) == spec

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown job spec"):
            JobSpec.from_dict(spec_dict("j", nodes=4))

    def test_dataset_and_runtime_required(self):
        with pytest.raises(ConfigurationError, match="dataset"):
            JobSpec.from_dict({"label": "j"})

    def test_default_label(self):
        spec = JobSpec.from_dict({"dataset": 0, "runtime": 1.0},
                                 default_label="job7")
        assert spec.label == "job7"

    @pytest.mark.parametrize("patch,match", [
        (dict(dataset=9), "out of range"),
        (dict(dataset=True), "integer index"),
        (dict(runtime=0.0), "runtime"),
        (dict(cores=0), "cores"),
        (dict(cores=64), "largest node"),
        (dict(arrival_time=-1.0), "arrival_time"),
        (dict(output_size=-1.0), "output_size"),
    ])
    def test_validation(self, patch, match):
        spec = JobSpec.from_dict(spec_dict("j", **patch))
        with pytest.raises(ConfigurationError, match=match):
            spec.validate(n_datasets=3, max_cores=8)

    def test_build_workflow_reads_one_dataset(self):
        sim = build_service_cluster(**SMALL_PARAMS)
        workflow = JobSpec.from_dict(
            spec_dict("j", dataset=1)).build_workflow(sim.service_datasets)
        task = workflow.tasks[0]
        assert [f.name for f in task.inputs] == ["dataset1"]
        assert [f.name for f in task.outputs] == ["j_out"]


# --------------------------------------------------------- submission log
class TestSubmissionLog:
    def entry(self, seq, t=0.0, op=OP_SUBMIT, **kw):
        spec = spec_dict(f"j{seq}") if op == OP_SUBMIT else None
        return LogEntry(seq=seq, op=op, t=t, spec=spec, **kw)

    def test_append_then_read_round_trips(self, tmp_path):
        log = SubmissionLog(tmp_path / "s.log")
        log.append(self.entry(0, t=0.0, token="tok"))
        log.append(self.entry(1, t=2.5))
        log.append(self.entry(2, t=3.0, op=OP_CLOSE))
        log.close()
        entries = SubmissionLog(tmp_path / "s.log").entries()
        assert [(e.seq, e.op, e.t) for e in entries] == [
            (0, OP_SUBMIT, 0.0), (1, OP_SUBMIT, 2.5), (2, OP_CLOSE, 3.0)]
        assert entries[0].token == "tok"

    def test_torn_trailing_line_is_dropped(self, tmp_path):
        path = tmp_path / "s.log"
        log = SubmissionLog(path)
        log.append(self.entry(0))
        log.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 1, "op": "subm')  # crash mid-append
        assert len(SubmissionLog(path).entries()) == 1

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "s.log"
        lines = [json.dumps(self.entry(0).as_dict()), "garbage",
                 json.dumps(self.entry(2, t=1.0).as_dict())]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(SubmissionLogError, match="corrupt at line 2"):
            SubmissionLog(path).entries()

    def test_sequence_gap_raises(self, tmp_path):
        path = tmp_path / "s.log"
        for entry in (self.entry(0), self.entry(2, t=1.0)):
            SubmissionLog(path).append(entry)
        with pytest.raises(SubmissionLogError, match="out of sequence"):
            SubmissionLog(path).entries()

    def test_time_going_backwards_raises(self, tmp_path):
        path = tmp_path / "s.log"
        log = SubmissionLog(path)
        log.append(self.entry(0, t=5.0))
        log.append(self.entry(1, t=1.0))
        with pytest.raises(SubmissionLogError, match="backwards"):
            SubmissionLog(path).entries()

    def test_close_must_be_final(self, tmp_path):
        path = tmp_path / "s.log"
        log = SubmissionLog(path)
        log.append(self.entry(0, op=OP_CLOSE))
        log.append(self.entry(1, t=1.0))
        with pytest.raises(SubmissionLogError, match="not the final"):
            SubmissionLog(path).entries()

    def test_fingerprint_entry_round_trips(self, tmp_path):
        log = SubmissionLog(tmp_path / "s.log")
        log.append(self.entry(0, op=OP_FINGERPRINT, fingerprint="ab" * 32))
        entries = SubmissionLog(tmp_path / "s.log").entries()
        assert entries[0].op == OP_FINGERPRINT
        assert entries[0].fingerprint == "ab" * 32

    def test_fingerprint_entry_requires_a_value(self, tmp_path):
        path = tmp_path / "s.log"
        SubmissionLog(path).append(self.entry(0))
        SubmissionLog(path).append(self.entry(1, t=1.0, op=OP_FINGERPRINT))
        with pytest.raises(SubmissionLogError, match="no fingerprint"):
            SubmissionLog(path).entries()


# ---------------------------------------------------------------- service
class TestSimulationService:
    def test_submit_drain_and_replay_identical(self, tmp_path):
        service = small_service(tmp_path).start()
        acks = [
            service.submit(spec_dict(f"job{i}", dataset=i % 3,
                                     runtime=0.5 + 0.25 * i))
            for i in range(4)
        ]
        assert [ack["seq"] for ack in acks] == [0, 1, 2, 3]
        assert all(ack["t"] >= 0.0 for ack in acks)
        summary = service.drain(timeout=60.0)
        assert summary["jobs_submitted"] == 4
        assert summary["jobs_completed"] == 4

        # The log + recipe fully determine the results.
        entries = service.log.entries()
        assert entries[-1].op == OP_CLOSE
        reference = canonical_result(replay_result(service.recipe, entries))
        assert service.canonical_result() == reference
        # ... and the canonical result was durably written.
        on_disk = (service.data_dir / "result.json").read_text("utf-8")
        assert on_disk == reference
        # Recovery replays the log: no snapshot is ever written.
        assert not (service.data_dir / "snapshots").exists()

    def test_idempotent_token(self, tmp_path):
        service = small_service(tmp_path).start()
        first = service.submit(spec_dict("one"), token="tok-1")
        again = service.submit(spec_dict("one"), token="tok-1")
        assert again == {**first, "duplicate": True}
        # Only one durable entry, only one job.
        assert len(service.log.entries()) == 1
        service.drain(timeout=60.0)
        assert service.summary()["jobs_completed"] == 1

    def test_duplicate_label_rejected_before_logging(self, tmp_path):
        service = small_service(tmp_path).start()
        service.submit(spec_dict("same"))
        with pytest.raises(ConfigurationError, match="unique"):
            service.submit(spec_dict("same"))
        assert len(service.log.entries()) == 1
        service.drain(timeout=60.0)

    def test_invalid_spec_rejected_unlogged(self, tmp_path):
        service = small_service(tmp_path).start()
        with pytest.raises(ConfigurationError, match="out of range"):
            service.submit(spec_dict("bad", dataset=99))
        assert service.log.entries() == []
        service.drain(timeout=60.0)

    def test_backpressure_when_queue_full(self, tmp_path):
        # Unstarted service: nothing drains the queue, so the bound hits.
        service = small_service(tmp_path, queue_capacity=2)
        for i in range(2):
            assert service.queue.offer(("t", spec_dict(f"j{i}"), None))
        with pytest.raises(ServiceBackpressure) as excinfo:
            service.submit(spec_dict("over"))
        assert excinfo.value.retry_after >= 1.0
        assert service.queue.n_rejected == 1

    def test_draining_rejects_submissions(self, tmp_path):
        service = small_service(tmp_path).start()
        service.submit(spec_dict("j0"))
        service.request_drain()
        with pytest.raises(ServiceDraining):
            service.submit(spec_dict("j1"))
        service.drain(timeout=60.0)

    def test_job_status_and_metrics(self, tmp_path):
        service = small_service(tmp_path).start()
        service.submit(spec_dict("watched"))
        with pytest.raises(KeyError):
            service.job_status("nope")
        status = service.job_status("watched")
        assert status["state"] in ("accepted", "scheduled", "queued",
                                   "running", "completed")
        metrics = service.metrics()
        assert metrics["queue"]["capacity"] == 64
        assert metrics["sim"]["submitted"] == 1
        service.drain(timeout=60.0)
        assert service.job_status("watched")["state"] == "completed"
        assert service.health()["status"] == "drained"
        assert not service.ready

    def test_fingerprint_now(self, tmp_path):
        service = small_service(tmp_path).start()
        service.submit(spec_dict("j0"))
        record = service.fingerprint_now()
        assert record["seq"] == 1
        entry = service.log.entries()[1]
        assert entry.op == OP_FINGERPRINT
        assert (entry.t, entry.fingerprint) == (record["t"],
                                                record["fingerprint"])
        # The entry takes a seq but is not a submission.
        assert service.submit(spec_dict("j1"))["seq"] == 2
        summary = service.drain(timeout=60.0)
        assert summary["jobs_submitted"] == 2
        with pytest.raises(ServiceError):
            service.fingerprint_now()

    def test_recipe_mismatch_rejected(self, tmp_path):
        small_service(tmp_path)
        other = SimRecipe("service-cluster", dict(SMALL_PARAMS, n_nodes=3))
        with pytest.raises(ConfigurationError, match="different"):
            small_service(tmp_path, recipe=other)

    def test_recipe_required_on_first_open(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no recipe"):
            SimulationService(tmp_path / "fresh")


class TestServiceRecovery:
    """In-process recovery: re-open a data directory and converge."""

    def run_and_abandon(self, tmp_path, n_jobs=4):
        """Run a service to completion, return its data dir + reference.

        The drained dir stands in for a crash *after* the close op; the
        mid-run crash (copy-while-running) is covered below and the real
        SIGKILL in ``test_service_recovery.py``.
        """
        service = small_service(tmp_path).start()
        for i in range(n_jobs):
            service.submit(spec_dict(f"job{i}", dataset=i % 3,
                                     runtime=0.5 + 0.5 * i))
            if i == n_jobs // 2:
                service.fingerprint_now()
        service.drain(timeout=60.0)
        return service.data_dir, service.canonical_result()

    def test_reopen_closed_log_reproduces_result(self, tmp_path):
        data_dir, reference = self.run_and_abandon(tmp_path)
        (data_dir / "result.json").unlink()
        recovered = SimulationService(data_dir).start()
        recovered.join(timeout=60.0)
        assert recovered._drained.wait(60.0)
        assert recovered.canonical_result() == reference
        assert (data_dir / "result.json").read_text("utf-8") == reference

    def test_recorded_fingerprint_is_verified_on_reopen(self, tmp_path):
        data_dir, reference = self.run_and_abandon(tmp_path)
        (data_dir / "result.json").unlink()
        recovered = SimulationService(data_dir).start()
        recovered.join(timeout=60.0)
        assert service_counter(recovered, "service.recoveries") == 1
        assert service_counter(recovered,
                               "service.fingerprints_verified") == 1
        assert recovered.canonical_result() == reference

    def test_tampered_fingerprint_refuses_to_start(self, tmp_path):
        data_dir, _ = self.run_and_abandon(tmp_path)
        (data_dir / "result.json").unlink()
        log_path = data_dir / "submissions.log"
        lines = log_path.read_text("utf-8").splitlines()
        tampered = []
        for line in lines:
            data = json.loads(line)
            if data["op"] == OP_FINGERPRINT:
                data["fingerprint"] = "0" * 64
            tampered.append(json.dumps(data))
        log_path.write_text("\n".join(tampered) + "\n", encoding="utf-8")
        with pytest.raises(SnapshotIntegrityError, match="fingerprint"):
            SimulationService(data_dir).start()
        assert not (data_dir / "result.json").exists()

    def test_fingerprint_entries_do_not_change_the_replay(self, tmp_path):
        data_dir, reference = self.run_and_abandon(tmp_path)
        entries = SubmissionLog(data_dir / "submissions.log").entries()
        assert any(e.op == OP_FINGERPRINT for e in entries)
        without = [e for e in entries if e.op != OP_FINGERPRINT]
        assert canonical_result(replay_result(SMALL_RECIPE, entries)) \
            == reference
        assert canonical_result(replay_result(SMALL_RECIPE, without)) \
            == reference

    def test_midrun_copy_recovers_byte_identical(self, tmp_path):
        service = small_service(tmp_path).start()
        for i in range(4):
            service.submit(spec_dict(f"job{i}", dataset=i % 3,
                                     runtime=1.0))
        # Wait until the worker has advanced into the work, then copy
        # the dir — a crash at an arbitrary moment, with jobs still in
        # flight.
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if service.metrics()["sim"]["now"] > 0.0:
                break
            time.sleep(0.01)
        service.fingerprint_now()
        crashed_dir = tmp_path / "crashed-copy"
        shutil.copytree(service.data_dir, crashed_dir)
        service.drain(timeout=60.0)

        log = SubmissionLog(crashed_dir / "submissions.log")
        entries = log.entries()
        assert entries, "the copy should hold acknowledged submissions"
        reference = canonical_result(
            replay_result(SMALL_RECIPE, entries)
        )
        recovered = SimulationService(crashed_dir).start()
        assert service_counter(recovered, "service.recoveries") == 1
        assert service_counter(recovered,
                               "service.fingerprints_verified") == 1
        summary = recovered.drain(timeout=60.0)
        assert summary["jobs_completed"] == sum(
            1 for e in entries if e.op == OP_SUBMIT
        )
        assert recovered.canonical_result() == reference


# ------------------------------------------------------------ warm starts
class TestWarmStart:
    """Branching variants off one snapshot (the exp10 machinery).

    Warm starts need a recipe-complete workload — the snapshot's recipe
    must rebuild the *whole* submission history — so they use exp6, just
    like ``run_exp10`` (a service carries its history in the submission
    log instead and recovers by replaying it).
    """

    EXP6 = dict(n_jobs=12, n_nodes=2, n_datasets=3, cores_per_node=8)

    def snapshot(self, tmp_path):
        from repro.experiments.exp6_cluster import build_exp6

        sim = build_exp6(**self.EXP6)
        sim.step_until(3.0)
        return write_snapshot(sim, tmp_path / "branch.json")

    def test_restore_with_recipe_overrides(self, tmp_path):
        path = self.snapshot(tmp_path)
        sim = restore_simulation(path, overrides={"placement":
                                                  "round-robin"})
        assert type(sim.scheduler.placement).__name__.startswith("RoundRobin")
        result = sim.run()
        assert result.scheduler.n_jobs == self.EXP6["n_jobs"]

    def test_live_override_unknown_key_raises(self, tmp_path):
        path = self.snapshot(tmp_path)
        sim = restore_simulation(path, verify=False)
        with pytest.raises(SnapshotError, match="cannot be applied"):
            apply_live_overrides(sim, {"n_nodes": 5})

    def test_warm_equals_cold_per_variant(self, tmp_path):
        path = self.snapshot(tmp_path)
        variants = [{"policy": "fifo", "placement": "cache"},
                    {"policy": "sjf", "placement": "round-robin"}]

        def finish(_recipe, result):
            metrics = result.scheduler
            return (metrics.n_jobs, metrics.makespan,
                    metrics.mean_wait_time)

        warm = warm_start_values(path, variants, finish=finish,
                                 verify=False)
        cold = []
        for overrides in variants:
            sim = restore_simulation(path, verify=False)
            apply_live_overrides(sim, overrides)
            cold.append(finish(None, sim.run()))
        assert warm == cold

    def test_warm_start_propagates_variant_failure(self, tmp_path):
        path = self.snapshot(tmp_path)
        with pytest.raises(SnapshotError, match="failed"):
            warm_start_values(path, [{"policy": "no-such-policy"}],
                              verify=False)


# ---------------------------------------------- off-main-thread timeouts
class TestWatchdogTimeout:
    """The sweep timeout must arm off the main thread (service workers)."""

    def run_in_thread(self, target):
        box = {}

        def wrapper():
            try:
                box["value"] = target()
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                box["error"] = exc

        thread = threading.Thread(target=wrapper)
        thread.start()
        thread.join(30.0)
        assert not thread.is_alive(), "worker thread hung"
        if "error" in box:
            raise box["error"]
        return box["value"]

    def test_timeout_fires_off_main_thread(self):
        from repro.experiments.runner import (
            SweepPointError, make_spec, register_experiment, run_sweep,
        )

        def spin(**kwargs):
            while True:
                time.sleep(0.005)

        register_experiment("svc-spin", spin)
        with pytest.raises(SweepPointError) as excinfo:
            self.run_in_thread(
                lambda: run_sweep([make_spec("svc-spin")], timeout=0.2,
                                  workers=1)
            )
        assert "PointTimeoutError" in str(excinfo.value)

    def test_fast_point_off_main_thread_unaffected(self):
        from repro.experiments.runner import (
            make_spec, register_experiment, run_sweep,
        )

        register_experiment("svc-fast", lambda **kw: "done")
        results = self.run_in_thread(
            lambda: run_sweep([make_spec("svc-fast")], timeout=30.0,
                              workers=1)
        )
        assert results[0].value == "done"
