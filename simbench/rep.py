"""One repetition of one workload, in a fresh process.

Run by ``run.py``; prints one JSON line with what it measured.  Set-up
time is measured from the parent's spawn instant (``--spawned-at``, a
``time.monotonic()`` reading, a clock all processes share) to the
moment the workload is built and ready to run, so interpreter start and
imports are included.  Peak RSS is this process's own.

Untraced repetitions run a :class:`~simbench.speed.SpeedProbe` from the
first line of ``main`` and record, next to each raw time, the factor
that converts it to the reference speed of the phase it was taken in.

    python3 simbench/rep.py --workload host-nfs --seed 1 --trace 0 \
        --spawned-at <monotonic> --work-dir <empty dir> [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from simbench.speed import SpeedProbe  # noqa: E402

#: Batch crash-image rebuilds timed per repetition (each takes
#: milliseconds, so one alone would be mostly timer noise).
BATCH_RECOVERIES = 20


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Phases:
    """Speed factors of consecutive phases (1.0 when not probed)."""

    def __init__(self, speed):
        self.speed = speed
        self.since = 0

    def close(self) -> float:
        """The factor of the phase that ends now; the next one starts."""
        if self.speed is None:
            return 1.0
        until = self.speed.mark()
        factor = self.speed.factor(self.since, until)
        self.since = until
        return factor


def time_submissions(latencies: list) -> None:
    """Record the wall time of each batch job submission call."""
    from repro.simulator.simulation import Simulation

    for name in ("submit_job", "submit_workflow"):
        original = getattr(Simulation, name)

        def timed(self, *args, _original=original, **kwargs):
            start = time.perf_counter()
            try:
                return _original(self, *args, **kwargs)
            finally:
                latencies.append(time.perf_counter() - start)

        setattr(Simulation, name, timed)


def time_recoveries(recipe) -> list:
    """Rebuild times of a batch crash image: the recipe, an empty log."""
    from repro.service import replay_entries

    recoveries = []
    for _ in range(BATCH_RECOVERIES):
        start = time.perf_counter()
        replay_entries(recipe, [])
        recoveries.append(time.perf_counter() - start)
    return recoveries


def run_batch(args, layers, phases: Phases, record: dict) -> None:
    from simbench import checks, workloads

    latencies: list = []
    time_submissions(latencies)
    sim = workloads.build_batch(args.workload, args.seed, args.work_dir)
    record["ready_at"] = time.monotonic()
    record["setup_factor"] = record["ack_factor"] = phases.close()
    record["ack_s"] = list(latencies)
    if args.setup_only:
        record["recover_s"] = time_recoveries(sim.recipe)
        record["recover_factor"] = phases.close()
        return

    if layers is not None:
        layers.begin()
    start = time.perf_counter()
    result = sim.run()
    record["run_s"] = record["window_s"] = time.perf_counter() - start
    if layers is not None:
        layers.end()
    record["run_factor"] = phases.close()
    record["peak_rss_mb"] = peak_rss_mb()

    n_jobs = workloads.batch_job_count(args.workload)
    digest = checks.result_digest(result)
    record["digest"] = digest
    record["problems"] = checks.check_batch(
        result, n_jobs=n_jobs, digest=digest,
        expected=checks.expected_digest(args.workload, args.seed),
    )
    record["attempted"] = n_jobs
    record["failed"] = n_jobs - checks.completed_jobs(result)
    phases.close()  # the check is not measured
    record["recover_s"] = time_recoveries(sim.recipe)
    record["recover_factor"] = phases.close()


def run_service(args, layers, phases: Phases, record: dict) -> None:
    from repro.service import SimulationService
    from simbench import checks, workloads

    specs = workloads.service_specs(args.seed)
    live_dir = args.work_dir / "live"
    service = SimulationService(live_dir, recipe=workloads.SERVICE_RECIPE)
    service.start()
    record["ready_at"] = time.monotonic()
    record["setup_factor"] = phases.close()
    if args.setup_only:
        service.stop()
        return

    latencies, acked, failed = [], [], 0
    if layers is not None:
        layers.begin()
    start = time.perf_counter()
    for index, spec in enumerate(specs):
        sent = time.perf_counter()
        try:
            ack = service.submit(spec, token=f"{args.seed}-{index}")
        except Exception as exc:  # noqa: BLE001 - counted as a failed submission
            failed += 1
            print(f"submission {index} failed: {exc!r}", file=sys.stderr)
            continue
        latencies.append(time.perf_counter() - sent)
        acked.append(ack["label"])
    service.drain()
    record["run_s"] = time.perf_counter() - start
    if layers is not None:
        layers.end()
    record["run_factor"] = record["ack_factor"] = phases.close()
    record["peak_rss_mb"] = peak_rss_mb()
    record["ack_s"] = latencies
    live_metrics = service.metrics()

    crash_dir = args.work_dir / "crash"
    checks.write_crash_image(live_dir, crash_dir)
    phases.close()  # writing the crash image is not measured
    if layers is not None:
        layers.begin()
    start = time.perf_counter()
    recovered = SimulationService(crash_dir)
    recovered.start()
    recover_s = time.perf_counter() - start
    record["recover_factor"] = phases.close()
    recovered.drain()
    # The window closes once the recovered worker has stopped: its
    # simulation must not change while the probe reads it.
    window_end = time.perf_counter()
    if layers is not None:
        layers.end()
    record["recover_s"] = [recover_s]
    record["window_s"] = record["run_s"] + window_end - start

    problems = checks.check_service(recovered, acked, service.result)
    completed = checks.completed_labels(service.result)
    record["problems"] = problems
    record["attempted"] = len(specs)
    record["failed"] = failed + sum(1 for label in acked
                                    if label not in completed)
    record["rejected"] = live_metrics["queue"]["rejected"]


def layer_record(tracer, layers) -> dict:
    """The traced repetition's raw per-layer numbers."""
    return {
        "self_s": tracer.self_times(),
        "calls": tracer.calls(),
        "inclusive_s": tracer.inclusive_times(),
        "boundary_calls": tracer.boundary_calls(),
        "counters": layers.counters,
        "boundaries": list(tracer.boundaries),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    # Traced repetitions report raw times: the probe's interruptions
    # would be booked to whichever layer they land in.
    speed = None if args.trace else SpeedProbe().start()

    # Imported here, after the probe started: imports are part of the
    # measured set-up.
    from simbench import workloads
    from simbench.layers import LayerProbe
    from simbench.tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    tracer = layers = None
    if args.trace:
        tracer = Tracer()
        layers = LayerProbe(tracer)
        layers.install()
    record: dict = {}
    phases = Phases(speed)
    try:
        if args.workload == workloads.SERVICE_WORKLOAD:
            run_service(args, layers, phases, record)
        else:
            run_batch(args, layers, phases, record)
    finally:
        if speed is not None:
            speed.stop()
    record["setup_s"] = record["ready_at"] - args.spawned_at
    if layers is not None and not args.setup_only:
        record["layers"] = layer_record(tracer, layers)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
