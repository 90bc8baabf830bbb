"""The repository benchmark: one workload, measured from its seed.

    python3 simbench/run.py --workload cluster-replay --seed 1 --seconds 25 --trace 0

Repeats the workload in fresh processes (``rep.py``) until ``--seconds``
have passed, checks every repetition's output, prints each metric with
its unit, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, measured untraced.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (see ``layers.py``), plus the
tracing overhead against the untraced ones.  The exit code is non-zero
when any output check fails.

Host time on a small shared machine is noisy: fresh-process runs of
``cluster-replay`` spanned 11.6-14.8 s on one 2-CPU container, and a
pure-Python loop varied by +-7%.  Every time is therefore reported at a
reference machine speed (``speed.py``; the raw wall clock is printed
beside it), every timing is a median over repetitions (set-up over at
least ``MIN_SETUPS`` process starts), and acknowledgement percentiles
pool every repetition's samples.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"

# Kept here as well as in workloads.py / layers.py, which import the
# program: this process must start, and fail cleanly, without it.
WORKLOADS = ("cluster-replay", "cluster-dispatch", "host-nfs", "service-ingest")
DEFAULT_SEED = 1
LAYERS = ("des", "platform", "pagecache", "simulator", "scheduler",
          "service", "snapshot")

#: Untraced repetitions of the workload per run, at least (each traced
#: run pairs every untraced repetition with a traced one).
MIN_REPS = 2
MIN_TRACED_PAIRS = 1
#: Set-up samples per run, at least.  Set-up-only processes fill the gap,
#: interleaved with the repetitions so that short timings (set-up, batch
#: acks and rebuilds) are sampled across the whole run.
MIN_SETUPS = 7
#: No repetition starts once this much of the run has passed.
TIME_LIMIT_S = 150.0
#: A repetition that takes longer is killed and the run fails.
REP_TIMEOUT_S = 120.0

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_ratio", "ratio"),
    ("ack_p50_ms", "ms"),
    ("ack_p90_ms", "ms"),
    ("recover_s", "s"),
)

PER_LAYER = (
    ("des.calls", "count"), ("des.events", "count"),
    ("des.events_per_s", "1/s"), ("des.self_s", "s"),
    ("platform.calls", "count"), ("platform.transfers", "count"),
    ("platform.bytes", "B"), ("platform.self_s", "s"),
    ("pagecache.calls", "count"), ("pagecache.self_s", "s"),
    ("pagecache.hit_ratio", "ratio"), ("pagecache.read_bytes", "B"),
    ("pagecache.fragments", "count"), ("pagecache.runs", "count"),
    ("pagecache.flushed_bytes", "B"), ("pagecache.evicted_bytes", "B"),
    ("simulator.calls", "count"), ("simulator.self_s", "s"),
    ("simulator.operations", "count"),
    ("scheduler.calls", "count"), ("scheduler.self_s", "s"),
    ("scheduler.dispatches", "count"), ("scheduler.preemptions", "count"),
    ("service.self_s", "s"), ("service.submit_calls", "count"),
    ("service.log_append_ms", "ms"), ("service.advance_s", "s"),
    ("service.replay_s", "s"), ("service.rejected", "count"),
    ("snapshot.self_s", "s"), ("snapshot.captures", "count"),
    ("snapshot.capture_s", "s"),
    ("trace.overhead", "ratio"), ("trace.run_s", "s"),
    ("trace.boundaries", "count"),
)


class RepFailed(RuntimeError):
    """A repetition process crashed, timed out or printed no record."""


def spawn(workload: str, seed: int, *, trace: bool = False,
          setup_only: bool = False) -> dict:
    """Run one repetition in a fresh process and return its record."""
    work_dir = OUT / f"work-{workload}-{seed}-{time.monotonic_ns()}"
    work_dir.mkdir(parents=True)
    command = [sys.executable, str(BENCH / "rep.py"), "--workload", workload,
               "--seed", str(seed), "--trace", str(int(trace)),
               "--work-dir", str(work_dir)]
    if setup_only:
        command.append("--setup-only")
    try:
        spawned_at = time.monotonic()
        proc = subprocess.run(command + ["--spawned-at", repr(spawned_at)],
                              stdout=subprocess.PIPE, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise RepFailed(f"{workload} repetition timed out") from exc
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepFailed(f"{workload} repetition exited {proc.returncode}")
    return json.loads(lines[-1])


def percentile(samples: List[float], share: int) -> float:
    """The ``share``-th percentile (a multiple of 10) of ``samples``."""
    return statistics.quantiles(samples, n=10, method="inclusive")[share // 10 - 1]


def end_to_end(reps: List[dict], setups: List[dict], *,
               normalized: bool = True) -> Dict[str, float]:
    """End-to-end metrics of full repetitions and set-up-only processes.

    ``normalized`` scales every time by its phase's speed factor (see
    ``speed.py``); without it the times are raw wall clock.
    """
    def scale(rep, key):
        return rep.get(f"{key}_factor", 1.0) if normalized else 1.0

    samples = reps + setups
    acks = [s * scale(rep, "ack") for rep in samples for s in rep.get("ack_s", [])]
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    return {
        "setup_s": statistics.median(rep["setup_s"] * scale(rep, "setup")
                                     for rep in samples),
        "run_s": statistics.median(rep["run_s"] * scale(rep, "run")
                                   for rep in reps),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
        "success_ratio": (attempted - failed) / attempted,
        "ack_p50_ms": percentile(acks, 50) * 1e3,
        "ack_p90_ms": percentile(acks, 90) * 1e3,
        "recover_s": statistics.median(
            s * scale(rep, "recover")
            for rep in samples for s in rep.get("recover_s", [])
        ),
    }


def layer_metrics(rep: dict, untraced_window_s: float,
                  untraced_run_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition."""
    layers = rep["layers"]
    self_s, calls = layers["self_s"], layers["calls"]
    inclusive, boundary_calls = layers["inclusive_s"], layers["boundary_calls"]
    counters = layers["counters"]

    def get(table, key):
        return table.get(key, 0)

    read_bytes = get(counters, "hit_bytes") + get(counters, "miss_bytes")
    appends = get(boundary_calls, "service:SubmissionLog.append")
    metrics = {
        "des.events": get(counters, "events"),
        "des.events_per_s": get(counters, "events") / untraced_window_s,
        "platform.transfers": get(counters, "transfers"),
        "platform.bytes": get(counters, "bytes"),
        "pagecache.hit_ratio": (get(counters, "hit_bytes") / read_bytes
                                if read_bytes else 0.0),
        "pagecache.read_bytes": read_bytes,
        "pagecache.fragments": get(counters, "fragments"),
        "pagecache.runs": get(counters, "runs"),
        "pagecache.flushed_bytes": get(counters, "flushed_bytes"),
        "pagecache.evicted_bytes": get(counters, "evicted_bytes"),
        "simulator.operations": get(counters, "operations"),
        "scheduler.dispatches": get(counters, "dispatches"),
        "scheduler.preemptions": get(counters, "preemptions"),
        "service.submit_calls": get(boundary_calls,
                                    "service:SimulationService.submit"),
        "service.log_append_ms": (
            get(inclusive, "service:SubmissionLog.append") / appends * 1e3
            if appends else 0.0
        ),
        "service.advance_s": get(inclusive, "service:SimulationService._advance"),
        "service.replay_s": get(inclusive, "service:replay_entries"),
        "service.rejected": rep.get("rejected", 0),
        "snapshot.captures": get(boundary_calls, "snapshot:capture_state"),
        "snapshot.capture_s": get(inclusive, "snapshot:capture_state"),
        "trace.overhead": rep["run_s"] / untraced_run_s,
        "trace.run_s": rep["run_s"],
        "trace.boundaries": len(layers["boundaries"]),
    }
    for layer in LAYERS:
        metrics.setdefault(f"{layer}.calls", get(calls, layer))
        metrics.setdefault(f"{layer}.self_s", get(self_s, layer))
    return metrics


def check_records(workload: str, records: List[dict]) -> List[str]:
    """Problems across every repetition of one run."""
    problems = [p for rep in records for p in rep["problems"]]
    digests = {rep["digest"] for rep in records if "digest" in rep}
    if len(digests) > 1:
        problems.append(f"{workload} repetitions disagree: {sorted(digests)}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    reps: List[dict] = []
    traced: List[dict] = []
    setups: List[dict] = []
    try:
        while True:
            reps.append(spawn(args.workload, args.seed))
            if args.trace:
                traced.append(spawn(args.workload, args.seed, trace=True))
            elif len(reps) + len(setups) < MIN_SETUPS:
                setups.append(spawn(args.workload, args.seed, setup_only=True))
            elapsed = time.monotonic() - started
            minimum = MIN_TRACED_PAIRS if args.trace else MIN_REPS
            if len(reps) >= minimum and (
                elapsed >= args.seconds
                or elapsed * (len(reps) + 1) / len(reps) > TIME_LIMIT_S
            ):
                break
        while not args.trace and len(reps) + len(setups) < MIN_SETUPS:
            setups.append(spawn(args.workload, args.seed, setup_only=True))
    except RepFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    problems = check_records(args.workload, reps + traced)
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    units = dict(END_TO_END + PER_LAYER)
    if args.trace:
        window = statistics.median(rep["window_s"] for rep in reps)
        run_s = statistics.median(rep["run_s"] for rep in reps)
        per_rep = [layer_metrics(rep, window, run_s) for rep in traced]
        values = {name: statistics.median(m[name] for m in per_rep)
                  for name, _ in PER_LAYER}
        print("wrapped boundaries: " + ", ".join(traced[0]["layers"]["boundaries"]))
        raw = {}
    else:
        values = end_to_end(reps, setups)
        raw = end_to_end(reps, setups, normalized=False)
    n_acks = sum(len(rep.get("ack_s", [])) for rep in reps + setups)
    for name, value in values.items():
        note = f"  (n={n_acks})" if name.startswith("ack_") else ""
        if raw.get(name, value) != value:
            note += f"  [wall clock {raw[name]:.6g}]"
        print(f"{name} = {value:.6g} {units[name]}{note}")
    print(f"repetitions: {len(reps)} untraced, {len(traced)} traced, "
          f"{len(setups)} set-up only; {time.monotonic() - started:.1f} s")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")

    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"last-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"args": vars(args), "values": values, "raw": raw,
                    "reps": reps, "traced": traced, "setups": setups},
                   indent=1),
        encoding="utf-8",
    )
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
