"""Re-record the committed result digests of the batch workloads.

Only for a deliberate change of the simulated model: a performance
change must leave every digest as it is.

    python3 simbench/record_digests.py [--seeds 0-31] [--workload NAME ...]
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = Path(__file__).resolve().parent / "out"
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from simbench import checks, workloads  # noqa: E402


def seed_range(text: str) -> range:
    """``"0-31"`` -> ``range(0, 32)``."""
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-31"))
    parser.add_argument("--workload", action="append",
                        choices=workloads.BATCH_WORKLOADS)
    args = parser.parse_args(argv)
    OUT.mkdir(exist_ok=True)
    digests = checks.load_digests()
    for workload in args.workload or workloads.BATCH_WORKLOADS:
        table = digests.setdefault(workload, {})
        for seed in args.seeds:
            with tempfile.TemporaryDirectory(dir=OUT) as work_dir:
                sim = workloads.build_batch(workload, seed, Path(work_dir))
                table[str(seed)] = checks.result_digest(sim.run())
            print(workload, seed, table[str(seed)], flush=True)
        digests[workload] = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
    checks.DIGESTS_FILE.write_text(json.dumps(digests, indent=1) + "\n",
                                   encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
