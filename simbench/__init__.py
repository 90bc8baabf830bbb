"""The repository benchmark: seeded workloads, end-to-end and per-layer metrics.

Entry point: ``python3 simbench/run.py --workload NAME --seed N
--seconds S --trace 0|1``.  See ``NOTES.md`` for why each workload and
metric exists.
"""
