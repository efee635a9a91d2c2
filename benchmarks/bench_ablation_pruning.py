"""Ablation — Algorithm-1 pruning vs full-graph relational message passing.

The paper motivates target-relation-guided pruning with computational
efficiency (§III-C): the relation-view graph is denser than the entity
view, so updating every node at every layer wastes work.  This bench
quantifies both the node-update savings and the wall-clock forward-pass
speedup on real extracted subgraphs.
"""

import numpy as np

from repro.core import RMPI, RMPIConfig
from repro.core.model import RMPISample
from repro.experiments import bench_settings, format_table
from repro.kg import build_partial_benchmark
from repro.obs import span
from repro.subgraph import (
    build_message_plan,
    build_relational_graph,
    extract_enclosing_subgraph,
    full_graph_plan,
)
from repro.utils.seeding import seeded_rng


def test_ablation_pruning_efficiency(benchmark, emit):
    settings = bench_settings()

    def run():
        bench = build_partial_benchmark(
            "FB15k-237", 2, scale=settings.scale, seed=settings.seed
        )
        model = RMPI(bench.num_relations, seeded_rng(0), RMPIConfig())
        model.eval()
        triples = list(bench.train_triples)[:60]

        pruned_samples, full_samples = [], []
        pruned_updates = full_updates = 0
        for triple in triples:
            sub = extract_enclosing_subgraph(bench.train_graph, triple, 2)
            rg = build_relational_graph(sub)
            pruned_plan = build_message_plan(rg, model.config.num_layers)
            full_plan = full_graph_plan(rg, model.config.num_layers)
            pruned_updates += pruned_plan.total_updates()
            full_updates += full_plan.total_updates()
            pruned_samples.append(RMPISample(triple, pruned_plan, None, sub.is_empty))
            full_samples.append(RMPISample(triple, full_plan, None, sub.is_empty))

        def score_all(samples):
            timer = span("bench.ablation.forward")
            with timer:
                for sample in samples:
                    model.score_sample(sample)
            return timer.elapsed_s

        # Warm-up then measure.
        score_all(pruned_samples[:5])
        pruned_time = score_all(pruned_samples)
        full_time = score_all(full_samples)

        rows = [
            ["pruned (Algorithm 1)", pruned_updates, pruned_time * 1000],
            ["full graph", full_updates, full_time * 1000],
            [
                "savings",
                full_updates - pruned_updates,
                (full_time - pruned_time) * 1000,
            ],
        ]
        table = format_table(
            ["message passing", "node updates", "forward time (ms)"],
            rows,
            title=f"Pruning ablation over {len(triples)} subgraphs "
            f"({bench.name}, K=2 layers)",
        )
        assert pruned_updates <= full_updates
        return table

    emit("ablation_pruning", benchmark.pedantic(run, rounds=1, iterations=1))
