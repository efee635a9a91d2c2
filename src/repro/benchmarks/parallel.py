"""Workload ``parallel``: sharded prepare against the serial path.

:class:`repro.parallel.prepare.ShardedPreparer` against the serial
``prepare_many`` path on the same candidate workload.  On boxes without
enough usable CPUs the speedup is informational (fork+IPC overhead can
exceed the win), so only the absolute times carry regression thresholds.

``workers`` is an environment fact (``direction="fact"``): running on a
different worker count is a different experiment, never a regression.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.benchmarks.records import MetricSpec
from repro.benchmarks.timing import best_of
from repro.core import RMPI, RMPIConfig
from repro.experiments import bench_settings
from repro.kg import build_partial_benchmark, ranking_candidates
from repro.parallel.pool import fork_available, usable_cpus
from repro.parallel.prepare import ShardedPreparer
from repro.utils.seeding import seeded_rng

SPECS: Dict[str, MetricSpec] = {
    "serial_s": MetricSpec("lower"),
    "parallel_s": MetricSpec("lower"),
    "speedup": MetricSpec("higher", threshold_pct=None),
    "workers": MetricSpec("fact", threshold_pct=None),
}


def run(smoke: bool) -> Tuple[Dict[str, float], Dict[str, Any]]:
    settings = bench_settings()
    num_queries, num_negatives, repeats = (2, 19, 1) if smoke else (8, 49, 3)
    workers = 2 if smoke else min(4, max(2, usable_cpus()))
    bench = build_partial_benchmark(
        "FB15k-237", 2, scale=settings.scale, seed=settings.seed
    )
    graph = bench.train_graph
    rng = seeded_rng(0)
    pool_entities = sorted(graph.triples.entities())
    queries = (
        list(bench.test_triples)[:num_queries]
        or list(bench.train_triples)[:num_queries]
    )
    workload = []
    for i, query in enumerate(queries):
        workload.extend(
            ranking_candidates(
                query,
                graph.num_entities,
                rng,
                num_negatives=num_negatives,
                candidate_entities=pool_entities,
                corrupt_head=bool(i % 2),
            )
        )
    model = RMPI(
        bench.num_relations, seeded_rng(0), RMPIConfig(embed_dim=16, dropout=0.0)
    )

    def serial() -> None:
        model.clear_cache()
        model.prepared_many(graph, workload)

    serial()  # warm frontier caches
    serial_s = best_of(repeats, serial)

    if fork_available():
        with ShardedPreparer(model, graph, workers=workers, seed=0) as preparer:

            def parallel() -> None:
                model.clear_cache()
                preparer.prepare_many(graph, workload)

            parallel()
            parallel_s = best_of(repeats, parallel)
    else:  # pragma: no cover - fork exists on every CI platform
        parallel_s = serial_s
        workers = 1

    metrics = {
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "speedup": serial_s / parallel_s if parallel_s else 0.0,
        "workers": float(workers),
    }
    info = {
        "family": "FB15k-237",
        "scale": settings.scale,
        "samples": len(workload),
        "usable_cpus": usable_cpus(),
        "fork_available": fork_available(),
        "repeats": repeats,
    }
    return metrics, info
