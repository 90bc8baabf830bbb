"""Output checks: every run's simulated results are verified.

Batch workloads are deterministic: the SHA-256 of a result's canonical
encoding (``repro.snapshot.canonical``, wall-clock fields excluded) is
committed per workload and seed in ``digests.json``.  A perf change must
keep them identical; a deliberate model change re-records them with
``python3 simbench/record_digests.py``.

The service's results depend on when each submission was injected, so
its check is self-referential: the service recovered from a crash image
and drained must produce exactly ``replay_result`` of its own log, and
every acknowledged job must have completed.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from repro.service import canonical_result, replay_result
from repro.service.core import LOG_FILE, RECIPE_FILE
from repro.service.log import OP_CLOSE

DIGESTS_FILE = Path(__file__).with_name("digests.json")


def result_digest(result) -> str:
    """SHA-256 of the canonical encoding of a simulation result."""
    return hashlib.sha256(canonical_result(result).encode("utf-8")).hexdigest()


def load_digests(path: Path = DIGESTS_FILE) -> Dict[str, Dict[str, str]]:
    """``{workload: {seed: digest}}`` as committed."""
    return json.loads(path.read_text(encoding="utf-8"))


def expected_digest(workload: str, seed: int,
                    digests: Optional[Dict[str, Dict[str, str]]] = None
                    ) -> Optional[str]:
    """The committed digest of one batch run, or ``None`` if unrecorded."""
    digests = load_digests() if digests is None else digests
    return digests.get(workload, {}).get(str(seed))


def completed_jobs(result) -> int:
    """Jobs (cluster runs) or applications (host runs) that completed."""
    if result.scheduler is not None:
        return result.scheduler.n_jobs
    return len(result.app_makespans)


def check_batch(result, *, n_jobs: int, digest: str,
                expected: Optional[str]) -> List[str]:
    """Problems with one batch result (empty when it is correct)."""
    problems = []
    completed = completed_jobs(result)
    if completed != n_jobs:
        problems.append(f"{completed} of {n_jobs} jobs completed")
    if not result.makespan > 0:
        problems.append(f"makespan {result.makespan!r} is not positive")
    if expected is not None and digest != expected:
        problems.append(f"result digest {digest} != committed {expected}")
    return problems


def write_crash_image(data_dir: Path, crash_dir: Path) -> int:
    """Copy a drained service's recipe and log minus its close entry.

    This is what a crash just before the drain leaves behind.  Returns
    the number of log entries kept.
    """
    lines = (Path(data_dir) / LOG_FILE).read_text(encoding="utf-8").splitlines()
    if not lines or json.loads(lines[-1])["op"] != OP_CLOSE:
        raise ValueError(f"{data_dir} does not hold a drained service log")
    kept = lines[:-1]
    crash_dir = Path(crash_dir)
    crash_dir.mkdir(parents=True)
    shutil.copyfile(Path(data_dir) / RECIPE_FILE, crash_dir / RECIPE_FILE)
    (crash_dir / LOG_FILE).write_text(
        "".join(line + "\n" for line in kept), encoding="utf-8"
    )
    return len(kept)


def completed_labels(result) -> set:
    """Labels of the jobs a drained result records as completed."""
    return {record.label for record in result.scheduler.records}


def check_service(recovered, acked: Iterable[str], live_result) -> List[str]:
    """Problems with a service run (empty when it is correct).

    ``recovered`` is the drained service reopened on the crash image;
    ``acked`` the labels the client got durable acks for.
    """
    problems = []
    reference = canonical_result(
        replay_result(recovered.recipe, recovered.log.entries())
    )
    if recovered.canonical_result() != reference:
        problems.append("recovered result differs from replay_result of its log")
    acked = set(acked)
    for name, result in (("live", live_result), ("recovered", recovered.result)):
        missing = acked - completed_labels(result)
        if missing:
            problems.append(f"{len(missing)} acked jobs never completed "
                            f"({name} run), e.g. {sorted(missing)[:3]}")
    return problems
