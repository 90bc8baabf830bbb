"""The experiment-golden recorder keeps committed values it reproduces."""

from record_experiment_golden import merge_committed
from test_pagecache_parity import REL


def test_drift_within_rel_keeps_committed_value():
    committed = {"p": {"write_time": 45.3613774622868, "n": 3}}
    recorded = {"p": {"write_time": 45.36137746228679, "n": 3}}
    assert merge_committed(recorded, committed) == []
    assert recorded == committed


def test_changes_beyond_rel_are_recorded_and_reported():
    committed = {"p": {"makespan": 10.0, "old": 1.0}, "gone": {"x": 1.0}}
    recorded = {"p": {"makespan": 10.0 * (1 + 10 * REL), "new": 2.0}}
    changed = merge_committed(recorded, committed)
    assert changed == ["gone.x (dropped)", "p.makespan", "p.new",
                       "p.old (dropped)"]
    assert recorded["p"]["makespan"] == 10.0 * (1 + 10 * REL)
