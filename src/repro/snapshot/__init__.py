"""Snapshot/restore of full simulator state.

Deterministic snapshots of a live simulation (``write_snapshot`` /
``restore_simulation``), the canonical state capture and fingerprint
behind them (``capture_state`` / ``fingerprint``), and warm-start
branching (``warm_start_values``).  The invariant throughout: a run
snapshotted at ``t=T`` and restored produces byte-identical results to
the uninterrupted run.  Restore replays the recipe from ``t=0``, so it
costs as much as a fresh run to ``T``.
"""

from repro.snapshot.canonical import (
    NONDETERMINISTIC_FIELDS,
    canonical_json,
    fingerprint,
    to_jsonable,
)
from repro.snapshot.capture import capture_state
from repro.snapshot.recipe import (
    BUILDERS,
    FINISHERS,
    SimRecipe,
    build_from_recipe,
    finish_point,
)
from repro.snapshot.run import (
    LIVE_OVERRIDES,
    apply_live_overrides,
    restore_simulation,
    warm_start_values,
    write_snapshot,
)
from repro.snapshot.store import (
    FORMAT,
    VERSION,
    read_snapshot_doc,
    write_snapshot_doc,
)

__all__ = [
    "BUILDERS",
    "FINISHERS",
    "FORMAT",
    "LIVE_OVERRIDES",
    "NONDETERMINISTIC_FIELDS",
    "SimRecipe",
    "VERSION",
    "apply_live_overrides",
    "build_from_recipe",
    "canonical_json",
    "capture_state",
    "fingerprint",
    "finish_point",
    "read_snapshot_doc",
    "restore_simulation",
    "to_jsonable",
    "warm_start_values",
    "write_snapshot",
    "write_snapshot_doc",
]
