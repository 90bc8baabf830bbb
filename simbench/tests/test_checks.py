"""The output checks reject wrong results and accept recovered ones."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.service import SimulationService, canonical_result, replay_result
from repro.service.core import LOG_FILE
from repro.units import MB
from simbench import checks, workloads

SMALL_SIZES = [64 * MB, 96 * MB]


@pytest.fixture(scope="module")
def small_result():
    workloads.register_recipes()
    return workloads.build_host_nfs(SMALL_SIZES).run()


def test_batch_check_accepts_the_committed_digest(small_result):
    digest = checks.result_digest(small_result)
    assert checks.check_batch(small_result, n_jobs=2, digest=digest,
                              expected=digest) == []


def test_batch_check_rejects_a_perturbed_result(small_result):
    expected = checks.result_digest(small_result)
    first = small_result.operations[0]
    perturbed = dataclasses.replace(
        small_result,
        operations=[dataclasses.replace(first, end=first.end + 1e-9)]
        + small_result.operations[1:],
    )
    digest = checks.result_digest(perturbed)
    assert digest != expected
    problems = checks.check_batch(perturbed, n_jobs=2, digest=digest,
                                  expected=expected)
    assert len(problems) == 1 and "digest" in problems[0]


def test_batch_check_rejects_missing_jobs(small_result):
    digest = checks.result_digest(small_result)
    problems = checks.check_batch(small_result, n_jobs=3, digest=digest,
                                  expected=None)
    assert problems == ["2 of 3 jobs completed"]


def test_digest_ignores_wall_clock(small_result):
    slower = dataclasses.replace(small_result,
                                 wallclock_time=small_result.wallclock_time + 5)
    assert checks.result_digest(slower) == checks.result_digest(small_result)


def test_committed_digests_cover_every_batch_workload():
    digests = checks.load_digests()
    assert set(digests) == set(workloads.BATCH_WORKLOADS)
    for workload in workloads.BATCH_WORKLOADS:
        assert checks.expected_digest(workload, workloads.DEFAULT_SEED,
                                      digests)


@pytest.fixture(scope="module")
def drained_service(tmp_path_factory):
    base = tmp_path_factory.mktemp("service")
    service = SimulationService(base / "live", recipe=workloads.SERVICE_RECIPE)
    service.start()
    acked = [service.submit(spec)["label"]
             for spec in workloads.service_specs(7, n=6)]
    service.drain()
    return base, service, acked


def test_crash_image_recovers_to_replay_result_bytes(drained_service):
    base, service, acked = drained_service
    crash = base / "crash-bytes"
    kept = checks.write_crash_image(base / "live", crash)
    assert kept == len(acked)
    entries = [json.loads(line) for line in
               (crash / LOG_FILE).read_text().splitlines()]
    assert all(entry["op"] == "submit" for entry in entries)

    recovered = SimulationService(crash)
    recovered.start()
    recovered.drain()
    reference = canonical_result(
        replay_result(recovered.recipe, recovered.log.entries())
    )
    assert recovered.canonical_result() == reference
    assert checks.check_service(recovered, acked, service.result) == []


def test_service_check_reports_unfinished_acks(drained_service):
    base, service, acked = drained_service
    recovered = SimulationService(base / "live")
    recovered.start()
    problems = checks.check_service(recovered, acked + ["ghost"],
                                    service.result)
    assert len(problems) == 2
    assert all("1 acked jobs never completed" in p for p in problems)


def test_crash_image_needs_a_drained_log(tmp_path):
    live = tmp_path / "live"
    service = SimulationService(live, recipe=workloads.SERVICE_RECIPE)
    service.start()
    service.submit(workloads.service_specs(1, n=1)[0])
    with pytest.raises(ValueError):
        checks.write_crash_image(live, tmp_path / "crash")
    service.drain()
