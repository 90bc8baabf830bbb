#!/usr/bin/env python
"""CI gate: service crash recovery over real HTTP, kill -9 included.

Boots the supervised simulation service on a throwaway data directory,
submits an Exp 6-shaped workload over HTTP, records the state's
fingerprint (``POST /fingerprint``), SIGKILLs the worker process mid-run,
and demands:

1. **Recovery** — the supervisor restarts the worker, which replays the
   submission log and verifies the recorded fingerprint against the
   replayed state; it comes up healthy and keeps accepting submissions.
2. **No lost work** — every acknowledged submission completes (100%
   job completion in the drain summary).
3. **Byte-identical results** — the drained canonical result JSON
   equals an uninterrupted offline replay of the submission log.
4. **Explicit backpressure** — with the admission queue artificially
   held full, a surplus submission is answered 429 + Retry-After,
   never silently dropped.

Usage::

    PYTHONPATH=src python benchmarks/check_service_recovery.py \
        [--data-dir DIR] [--jobs N]

``--data-dir`` keeps the submission log around (CI uploads it as an
artifact on failure); the default is a temp dir.
Exit status 0 when every check passes, 1 on any violation.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

#: Exp 6-shaped submissions: shared datasets re-read by short jobs.
N_JOBS = 12
CLUSTER = dict(n_nodes=2, cores_per_node=4, n_datasets=4)


def http_json(method: str, url: str, body=None, timeout: float = 30.0):
    data = None if body is None else json.dumps(body).encode("utf-8")
    request = urllib.request.Request(url, data=data, method=method)
    request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read() or b"{}")
    except urllib.error.HTTPError as exc:
        raw = exc.read()
        payload = json.loads(raw) if raw else {}
        payload["_headers"] = dict(exc.headers)
        return exc.code, payload


def wait_until(predicate, timeout: float = 60.0, interval: float = 0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    raise AssertionError("condition not met within the timeout")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data-dir", default=None,
                        help="service data directory (kept for artifact "
                             "upload; default: a temp dir)")
    parser.add_argument("--jobs", type=int, default=N_JOBS)
    args = parser.parse_args()

    from repro.service import (
        ServiceConfig,
        SubmissionLog,
        Supervisor,
        canonical_result,
        replay_result,
    )
    from repro.snapshot import SimRecipe
    from repro.units import MB

    if args.data_dir:
        data_dir = Path(args.data_dir)
        if data_dir.exists():
            shutil.rmtree(data_dir)
    else:
        data_dir = Path(tempfile.mkdtemp(prefix="service-smoke-")) / "svc"

    recipe = SimRecipe("service-cluster", dict(
        CLUSTER, input_size=64 * MB, chunk_size=32 * MB,
    ))
    supervisor = Supervisor(
        ServiceConfig(
            data_dir=data_dir, recipe=recipe, port=0,
            queue_capacity=32,
        ),
        max_restarts=3, backoff=0.05,
    ).start()

    try:
        port = supervisor.port()
        base = f"http://127.0.0.1:{port}"
        print(f"service up on {base} (pid {supervisor.pid}, "
              f"data dir {data_dir})")

        print(f"submitting {args.jobs} jobs over HTTP ...")
        for i in range(args.jobs):
            status, ack = http_json("POST", f"{base}/jobs", {
                "label": f"job{i}", "dataset": i % CLUSTER["n_datasets"],
                "runtime": 1.0 + 0.25 * (i % 4), "token": f"tok-{i}",
            })
            if status != 201:
                print(f"FAIL: submission {i} -> {status}: {ack}",
                      file=sys.stderr)
                return 1

        wait_until(lambda: http_json(
            "GET", f"{base}/metrics")[1]["sim"]["now"] > 1.0)
        status, recorded = http_json("POST", f"{base}/fingerprint")
        if status != 200:
            print(f"FAIL: fingerprint -> {status}: {recorded}",
                  file=sys.stderr)
            return 1
        print(f"recorded fingerprint {recorded['fingerprint'][:16]}... "
              f"at t={recorded['t']:.3f} (seq {recorded['seq']})")
        killed = supervisor.kill_worker()
        print(f"killed worker pid {killed} with SIGKILL")

        def recovered_port():
            if not supervisor.alive or supervisor.pid == killed:
                return None
            try:
                port = supervisor.port(timeout=0.1)
                status, _ = http_json(
                    "GET", f"http://127.0.0.1:{port}/healthz", timeout=2.0)
            except Exception:
                return None
            return port if status == 200 else None

        port = wait_until(recovered_port)
        base = f"http://127.0.0.1:{port}"
        print(f"worker restarted (pid {supervisor.pid}, "
              f"restarts {supervisor.restarts})")
        counters = http_json("GET", f"{base}/metrics")[1]["service"]
        verified = counters.get("service.fingerprints_verified", {}).get("")
        if verified != 1:
            print(f"FAIL: the restarted worker verified {verified} "
                  "recorded fingerprints, expected 1", file=sys.stderr)
            return 1
        print("recorded fingerprint verified by the log replay")

        status, dup = http_json("POST", f"{base}/jobs", {
            "label": "job0", "dataset": 0, "runtime": 1.0,
            "token": "tok-0",
        })
        if status != 200 or not dup.get("duplicate"):
            print(f"FAIL: post-crash token retry -> {status}: {dup}",
                  file=sys.stderr)
            return 1
        print("acknowledged pre-crash token deduplicated after recovery")

        print("draining ...")
        status, summary = http_json("POST", f"{base}/drain", {},
                                    timeout=120.0)
        if status != 200:
            print(f"FAIL: drain -> {status}: {summary}", file=sys.stderr)
            return 1
        if summary["jobs_completed"] != args.jobs:
            print(f"FAIL: {summary['jobs_completed']}/{args.jobs} jobs "
                  "completed — acknowledged work was lost",
                  file=sys.stderr)
            return 1
        print(f"drain OK: {summary['jobs_completed']}/{args.jobs} jobs, "
              f"makespan {summary['makespan']:.2f}s")

        supervisor.wait(timeout=60.0)
        if supervisor.gave_up:
            print("FAIL: supervisor gave up", file=sys.stderr)
            return 1
    finally:
        supervisor.stop(timeout=60.0)

    entries = SubmissionLog(data_dir / "submissions.log").entries()
    submitted = sum(1 for entry in entries if entry.op == "submit")
    if submitted != args.jobs:
        print(f"FAIL: log holds {submitted} submissions, "
              f"expected {args.jobs}", file=sys.stderr)
        return 1
    reference = canonical_result(replay_result(recipe, entries))
    recovered = (data_dir / "result.json").read_text(encoding="utf-8")
    if recovered != reference:
        print("FAIL: recovered result diverged from the uninterrupted "
              "replay of the submission log", file=sys.stderr)
        print(f"  reference: {reference[:200]}...", file=sys.stderr)
        print(f"  recovered: {recovered[:200]}...", file=sys.stderr)
        return 1
    print(f"recovery parity OK ({len(reference)} canonical bytes)")
    if (data_dir / "snapshots").exists():
        print("FAIL: the service wrote a snapshots/ directory; recovery "
              "is log replay only", file=sys.stderr)
        return 1

    # Backpressure: a worker-less service with a full queue must answer
    # 429 + Retry-After, never drop silently.
    from repro.service import SimulationService, make_server
    import threading

    with tempfile.TemporaryDirectory() as tmp:
        service = SimulationService(Path(tmp) / "bp", recipe=recipe,
                                    queue_capacity=2)
        for i in range(2):
            service.queue.offer((None, {"dataset": 0, "runtime": 1.0},
                                 None))
        server = make_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        bp_base = f"http://127.0.0.1:{server.server_address[1]}"
        status, payload = http_json("POST", f"{bp_base}/jobs",
                                    {"dataset": 0, "runtime": 1.0})
        server.shutdown()
        headers = {k.lower(): v
                   for k, v in payload.get("_headers", {}).items()}
        if status != 429 or "retry-after" not in headers:
            print(f"FAIL: over-bound submission -> {status} "
                  f"(headers {sorted(headers)}), expected 429 + "
                  "Retry-After", file=sys.stderr)
            return 1
        if len(service.queue) != 2 or service.queue.n_rejected != 1:
            print("FAIL: backpressure accounting is off", file=sys.stderr)
            return 1
    print("backpressure OK: 429 + Retry-After beyond the queue bound")

    print("service recovery: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
