"""Command-line entry point: ``python -m repro.service``.

Serves a streaming simulation cluster over HTTP, either directly (one
process, exits on drain or crash) or under supervision
(``--supervise``: restart-on-crash with submission-log recovery).
"""

from __future__ import annotations

import argparse
import sys

from repro.service.supervisor import ServiceConfig, Supervisor, worker_main
from repro.snapshot import SimRecipe


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Serve a streaming cluster simulation over HTTP/JSON.",
    )
    parser.add_argument("--data-dir", required=True,
                        help="durable state directory (submission log, "
                             "recipe, result)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8754,
                        help="HTTP port (0 picks a free one; the bound "
                             "port is written to <data-dir>/http.port)")
    parser.add_argument("--nodes", type=int, default=4,
                        help="compute nodes of the simulated cluster")
    parser.add_argument("--cores-per-node", type=int, default=8)
    parser.add_argument("--datasets", type=int, default=8,
                        help="shared input datasets staged on every node")
    parser.add_argument("--policy", default="fifo")
    parser.add_argument("--placement", default="cache")
    parser.add_argument("--queue-limit", type=int, default=64,
                        help="admission queue bound (backpressure beyond it)")
    parser.add_argument("--supervise", action="store_true",
                        help="run under the restart-on-crash supervisor")
    parser.add_argument("--max-restarts", type=int, default=5)
    return parser


def config_from_args(args: argparse.Namespace) -> ServiceConfig:
    recipe = SimRecipe("service-cluster", dict(
        n_nodes=args.nodes,
        cores_per_node=args.cores_per_node,
        n_datasets=args.datasets,
        policy=args.policy,
        placement=args.placement,
    ))
    return ServiceConfig(
        data_dir=args.data_dir,
        recipe=recipe,
        host=args.host,
        port=args.port,
        queue_capacity=args.queue_limit,
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = config_from_args(args)
    if args.supervise:
        supervisor = Supervisor(config, max_restarts=args.max_restarts)
        supervisor.start()
        print(f"serving on {config.host}:{supervisor.port()} "
              f"(data dir {config.data_dir}, pid {supervisor.pid})",
              flush=True)
        supervisor.wait()
        return 1 if supervisor.gave_up else 0
    worker_main(config)
    return 0


if __name__ == "__main__":
    sys.exit(main())
