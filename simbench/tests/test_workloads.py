"""Seeded inputs repeat for a seed and change with it; the CLI agrees."""

from __future__ import annotations

import json

import pytest

from simbench import run, workloads


def replay_submits(seed):
    return [record.submit_time for record in workloads.tiled_trace(seed).records]


def dispatch_arrivals(seed, tmp_path):
    sim = workloads.build_cluster_dispatch(seed, tmp_path)
    return [(job.arrival_time, job.cores) for job in sim.scheduler.jobs]


@pytest.mark.parametrize("generate", [
    replay_submits,
    workloads.nfs_file_sizes,
    workloads.service_specs,
], ids=["cluster-replay", "host-nfs", "service-ingest"])
def test_generators_repeat_per_seed_and_differ_across_seeds(generate):
    assert generate(3) == generate(3)
    assert generate(3) != generate(4)


def test_dispatch_inputs_follow_the_seed(tmp_path):
    assert dispatch_arrivals(3, tmp_path) == dispatch_arrivals(3, tmp_path)
    assert dispatch_arrivals(3, tmp_path) != dispatch_arrivals(4, tmp_path)


def test_replay_tiles_the_sample_to_paper_scale():
    trace = workloads.tiled_trace(workloads.DEFAULT_SEED)
    ids = [record.job_id for record in trace.records]
    assert len(ids) == len(set(ids)) >= workloads.REPLAY_JOBS
    submits = [record.submit_time for record in trace.records]
    assert submits == sorted(submits)


def test_sizes_stay_near_three_gigabytes():
    sizes = workloads.nfs_file_sizes(workloads.DEFAULT_SEED)
    assert len(sizes) == workloads.NFS_APPS
    spread = workloads.NFS_SIZE_SPREAD * workloads.NFS_FILE_SIZE
    assert all(abs(size - workloads.NFS_FILE_SIZE) <= spread for size in sizes)


def test_cli_lists_the_same_workloads_and_layers():
    from simbench.layers import LAYERS

    assert run.WORKLOADS == workloads.WORKLOADS
    assert run.DEFAULT_SEED == workloads.DEFAULT_SEED
    assert run.LAYERS == LAYERS


def test_percentile_and_record_checks():
    samples = [float(i) for i in range(1, 101)]
    assert run.percentile(samples, 50) == pytest.approx(50.5)
    assert run.percentile(samples, 90) == pytest.approx(90.1)
    same = [{"problems": [], "digest": "a"}, {"problems": [], "digest": "a"}]
    assert run.check_records("w", same) == []
    differ = same + [{"problems": ["bad"], "digest": "b"}]
    problems = run.check_records("w", differ)
    assert problems[0] == "bad" and "disagree" in problems[1]


def test_benchmark_json_matches_the_cli():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(run.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
