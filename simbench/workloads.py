"""The benchmark's workloads, built from a seed through public entry points.

Every workload is a pure function of its seed: the same seed gives the
same inputs, byte for byte.  The program under test only ever receives
the generated inputs (an SWF file, builder parameters, job specs).

``cluster-replay``
    The exp7 replay at paper scale: the bundled SWF sample tiled to 400
    jobs over 32 nodes, preemptive-priority scheduling with cache
    placement, 2 GB shared input and 2 GB private output per job at 4 MB
    chunks (writeback).  The seed jitters the arrival offset of each
    tiled copy.  Page cache, flows and the DES core dominate.
``cluster-dispatch``
    An exp6-shaped stream: 1200 short jobs on 32 nodes x 8 cores at
    45 jobs/s (overloaded: the queue keeps growing), EASY backfilling
    with cache placement, 64 MB read and 16 MB written per job at 16 MB
    chunks.  The scheduler dominates; page-cache and flow changes should
    not move it.
``host-nfs``
    The Figure 7/8 shape: 32 concurrent synthetic applications on one
    host, each file about 3 GB (drawn from the seed), 10 MB chunks,
    through the NFS writethrough server cache.  The only workload on the
    chunked copy of Algorithms 2/3 and on the NFS hop; no scheduler.
``service-ingest``
    One in-process client submits seeded job specs to a
    ``SimulationService`` in a closed loop, waits for each durable ack,
    then drains.  The only workload on the service and snapshot layers.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List

from repro.apps.synthetic import synthetic_workflow
from repro.experiments.exp6_cluster import build_exp6
from repro.experiments.exp7_trace_replay import build_exp7, default_trace_path
from repro.experiments.harness import ScenarioConfig, build_simulation
from repro.rng import DeterministicRNG
from repro.scheduler.swf import SWFRecord, SWFTrace, load_swf, save_swf
from repro.snapshot.recipe import BUILDERS, SimRecipe
from repro.units import GB, MB

BATCH_WORKLOADS = ("cluster-replay", "cluster-dispatch", "host-nfs")
SERVICE_WORKLOAD = "service-ingest"
WORKLOADS = BATCH_WORKLOADS + (SERVICE_WORKLOAD,)

#: Seed used when none is given on the command line.
DEFAULT_SEED = 1

# cluster-replay
REPLAY_COPIES = 5
REPLAY_JOBS = 400
REPLAY_NODES = 32
REPLAY_LOAD_FACTOR = 120.0
#: Each copy after the first starts up to this share of the trace span late.
REPLAY_JITTER = 0.1

# cluster-dispatch: deep overload.  At 30 jobs/s (utilisation 0.91) the
# queue length, and with it the scheduler's work, swung by 0.21 of the
# median across seeds; at 45 jobs/s the backlog grows steadily and the
# swing halves.
DISPATCH_JOBS = 1200
DISPATCH_NODES = 32
DISPATCH_CORES = 8
DISPATCH_RATE = 45.0

# host-nfs
NFS_APPS = 32
NFS_FILE_SIZE = 3 * GB
#: File sizes are drawn uniformly within this share of NFS_FILE_SIZE.
NFS_SIZE_SPREAD = 0.01
NFS_CHUNK = 10 * MB
#: Recipe name the host-nfs builder is registered under, so a crash image
#: of it rebuilds through the same recipe machinery as every experiment.
NFS_RECIPE = "simbench-host-nfs"

# service-ingest
SERVICE_JOBS = 1000
SERVICE_RECIPE = SimRecipe("service-cluster", {})


def tiled_trace(seed: int) -> SWFTrace:
    """The bundled SWF sample tiled back to back, copy offsets jittered.

    Each copy is shifted by the span of the sample plus one mean
    inter-arrival gap, then delayed by a seeded whole number of seconds
    (at most ``REPLAY_JITTER`` of the span).  Copies are renumbered;
    applications keep their identity, so the dataset count stays that of
    the sample.
    """
    base = load_swf(default_trace_path())
    submits = [record.submit_time for record in base.records]
    first, last = min(submits), max(submits)
    span = (last - first) + max(1.0, (last - first) / max(1, len(submits) - 1))
    jitter = DeterministicRNG(seed).spawn("tile-offsets")
    records = []
    for copy in range(REPLAY_COPIES):
        offset = copy * span
        if copy:
            offset += jitter.integer(0, int(REPLAY_JITTER * span))
        for record in base.records:
            values = {name: getattr(record, name)
                      for name in SWFRecord.__dataclass_fields__}
            values["job_id"] = record.job_id + copy * len(base.records)
            values["submit_time"] = record.submit_time + offset
            records.append(SWFRecord(**values))
    return SWFTrace(directives=dict(base.directives), records=records)


def build_cluster_replay(seed: int, work_dir: Path):
    """The exp7 paper-scale replay; its trace is written to ``work_dir``."""
    path = Path(work_dir) / f"replay-{seed}.swf"
    save_swf(tiled_trace(seed), path)
    return build_exp7(
        "preemptive-priority",
        placement="cache",
        trace=str(path),
        max_jobs=REPLAY_JOBS,
        n_nodes=REPLAY_NODES,
        load_factor=REPLAY_LOAD_FACTOR,
        dataset_size=2 * GB,
        output_size=2 * GB,
        chunk_size=4 * MB,
    )


def build_cluster_dispatch(seed: int, work_dir: Path):
    """The dispatch-heavy exp6 stream; the seed drives every draw."""
    return build_exp6(
        "cache",
        policy="easy",
        n_jobs=DISPATCH_JOBS,
        n_nodes=DISPATCH_NODES,
        cores_per_node=DISPATCH_CORES,
        arrival_rate=DISPATCH_RATE,
        input_size=64 * MB,
        output_size=16 * MB,
        chunk_size=16 * MB,
        seed=seed,
    )


def nfs_file_sizes(seed: int) -> List[float]:
    """Per-application file sizes, whole megabytes around 3 GB."""
    rng = DeterministicRNG(seed).spawn("nfs-sizes")
    low = int(NFS_FILE_SIZE * (1 - NFS_SIZE_SPREAD) / MB)
    high = int(NFS_FILE_SIZE * (1 + NFS_SIZE_SPREAD) / MB)
    return [rng.integer(low, high) * MB for _ in range(NFS_APPS)]


def build_host_nfs(sizes: List[float]):
    """32 synthetic applications on one host over the NFS server cache."""
    simulation, storage = build_simulation(
        "wrench-cache", ScenarioConfig(nfs=True, chunk_size=NFS_CHUNK)
    )
    for index, size in enumerate(sizes):
        name = f"app{index + 1}"
        workflow = synthetic_workflow(size, name=name, file_prefix=f"{name}_")
        simulation.stage_file(workflow.input_files()[0], storage)
        simulation.submit_workflow(workflow, host="node1", storage=storage,
                                   label=name, chunk_size=NFS_CHUNK)
    simulation.bind_recipe(SimRecipe(NFS_RECIPE, {"sizes": list(sizes)}))
    return simulation


def register_recipes() -> None:
    """Register the host-nfs builder with the snapshot recipe registry."""
    BUILDERS[NFS_RECIPE] = f"{__name__}:build_host_nfs"


def build_batch(workload: str, seed: int, work_dir: Path):
    """Build one batch workload (unstarted, recipe bound)."""
    if workload == "cluster-replay":
        return build_cluster_replay(seed, work_dir)
    if workload == "cluster-dispatch":
        return build_cluster_dispatch(seed, work_dir)
    if workload == "host-nfs":
        register_recipes()
        return build_host_nfs(nfs_file_sizes(seed))
    raise ValueError(f"not a batch workload: {workload!r}")


def batch_job_count(workload: str) -> int:
    """Jobs (or applications) one batch workload submits."""
    return {"cluster-replay": REPLAY_JOBS, "cluster-dispatch": DISPATCH_JOBS,
            "host-nfs": NFS_APPS}[workload]


def service_specs(seed: int, n: int = SERVICE_JOBS) -> List[Dict[str, Any]]:
    """Seeded job specs for the service client, in submission order."""
    rng = DeterministicRNG(seed)
    datasets = rng.spawn("datasets")
    runtimes = rng.spawn("runtimes")
    cores = rng.spawn("cores")
    return [
        {
            "label": f"job{index}",
            "dataset": datasets.integer(0, 7),
            "runtime": round(runtimes.uniform(0.5, 4.0), 3),
            "cores": cores.integer(1, 4),
            "output_size": 16 * MB,
        }
        for index in range(n)
    ]
