"""Repository benchmark: one command, four workloads, every metric.

Run from the checkout root::

    python3 perfbench/run.py --workload train --seed 1 --seconds 12 --trace 0

Workloads: ``train`` and ``train_dp2`` (RMPI-TA training plus the ranking
and classification protocols), ``query_cold`` and ``query_hot`` (open-loop
HTTP traffic against a ``ServingServer`` in its own process).  With
``--trace 0`` the last line of standard output is a JSON object holding
every end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` it holds
every per-layer metric, measured in a separate traced run (a layer a
workload does not exercise reports 0).  ``correct`` is false, and the exit
code 1, when an output check failed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import common

WORKLOADS = ("train", "train_dp2", "query_cold", "query_hot")


def _metric_specs():
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return spec["end_to_end"], spec["per_layer"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    end_to_end, per_layer = _metric_specs()
    if args.workload.startswith("train"):
        import train_wl as workload
    else:
        import serve_wl as workload
    result = workload.run(args.workload, args.seed, args.seconds, bool(args.trace))

    values = result["values"]
    metrics = {}
    if args.trace:
        for entry in per_layer:
            metrics[entry["name"]] = common.metric(
                values.get(entry["name"], 0.0), entry["unit"]
            )
    else:
        for entry in end_to_end:
            metrics[entry["name"]] = common.metric(values[entry["name"]], entry["unit"])
    correct = result["failed"] == 0 and result.get("valid", True)
    common.emit_result(correct, result["attempted"], result["failed"], metrics)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
