"""Batched (disjoint-union) scoring tests: equivalence with per-sample."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import RMPI, RMPIConfig
from repro.core.batching import merge_plans
from repro.subgraph import (
    build_message_plan,
    build_relational_graph,
    extract_enclosing_subgraph,
)


@pytest.fixture
def bench(tiny_partial_benchmark):
    return tiny_partial_benchmark


def some_triples(bench, n=12):
    return list(bench.train_triples)[:n]


def mixed_triples(bench, n=12):
    """Facts interleaved with random tail corruptions: on this sparse graph
    most corruptions have an empty enclosing subgraph, most facts do not."""
    rng = np.random.default_rng(0)
    facts = some_triples(bench, n)
    corrupted = [
        (h, r, int(rng.integers(bench.train_graph.num_entities)))
        for h, r, _t in facts
    ]
    return [triple for pair in zip(facts, corrupted) for triple in pair]


class TestMergePlans:
    def test_node_counts_add_up(self, bench):
        model = RMPI(bench.num_relations, np.random.default_rng(0))
        plans = [
            model.prepared(bench.train_graph, t).plan for t in some_triples(bench, 5)
        ]
        merged = merge_plans(plans)
        assert merged.num_nodes == sum(p.num_nodes for p in plans)
        assert merged.num_samples == 5

    def test_targets_point_at_relation_of_sample(self, bench):
        model = RMPI(bench.num_relations, np.random.default_rng(0))
        triples = some_triples(bench, 5)
        plans = [model.prepared(bench.train_graph, t).plan for t in triples]
        merged = merge_plans(plans)
        for i, triple in enumerate(triples):
            assert merged.node_relations[merged.target_indices[i]] == triple[1]

    def test_edges_stay_within_sample_blocks(self, bench):
        model = RMPI(bench.num_relations, np.random.default_rng(0))
        plans = [
            model.prepared(bench.train_graph, t).plan for t in some_triples(bench, 6)
        ]
        merged = merge_plans(plans)
        bounds = list(merged.sample_offsets) + [merged.num_nodes]
        for layer in merged.layers:
            for src, _etype, dst in layer.edges:
                # src and dst fall in the same sample block.
                block_src = np.searchsorted(bounds, src, side="right") - 1
                block_dst = np.searchsorted(bounds, dst, side="right") - 1
                assert block_src == block_dst

    def test_empty_batch_raises(self):
        with pytest.raises(ValueError):
            merge_plans([])

    def test_mixed_depth_raises(self, bench):
        model2 = RMPI(bench.num_relations, np.random.default_rng(0), RMPIConfig(num_layers=2))
        model1 = RMPI(bench.num_relations, np.random.default_rng(0), RMPIConfig(num_layers=1))
        triple = some_triples(bench, 1)[0]
        plan2 = model2.prepare(bench.train_graph, triple).plan
        plan1 = model1.prepare(bench.train_graph, triple).plan
        with pytest.raises(ValueError):
            merge_plans([plan2, plan1])


@pytest.mark.parametrize(
    "config",
    [
        RMPIConfig(embed_dim=16, dropout=0.0),
        RMPIConfig(embed_dim=16, dropout=0.0, use_target_attention=True),
        RMPIConfig(embed_dim=16, dropout=0.0, use_disclosing=True),
        RMPIConfig(
            embed_dim=16,
            dropout=0.0,
            use_disclosing=True,
            use_target_attention=True,
            fusion="concat",
        ),
        RMPIConfig(embed_dim=16, dropout=0.0, use_entity_clues=True),
    ],
    ids=["base", "TA", "NE", "NE-TA-concat", "EC"],
)
class TestBatchedEquivalence:
    def test_matches_per_sample_scores(self, bench, config):
        model = RMPI(bench.num_relations, np.random.default_rng(0), config)
        model.eval()
        triples = mixed_triples(bench, 10)
        per_sample = np.concatenate(
            [
                model.score_sample(sample).data.reshape(-1)
                for sample in model.prepare_many(bench.train_graph, triples)
            ]
        )
        fused = model.score_batch(bench.train_graph, triples).data.reshape(-1)
        # The merged pass sums in a different order than one tiny forward
        # per sample: a few ulp of the score dtype, relative and absolute.
        ulps = 8 * np.finfo(fused.dtype).eps
        np.testing.assert_allclose(fused, per_sample, rtol=ulps, atol=ulps)

    def test_gradients_flow_through_fused_path(self, bench, config):
        model = RMPI(bench.num_relations, np.random.default_rng(0), config)
        model.eval()
        scores = model.score_batch(bench.train_graph, some_triples(bench, 4))
        scores.sum().backward()
        assert any(p.grad is not None for p in model.parameters())


def assert_same_plan(a, b):
    for name in ("node_ids", "node_relations", "hops"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.target_index == b.target_index
    assert len(a.layers) == len(b.layers)
    for mine, theirs in zip(a.layers, b.layers):
        assert np.array_equal(mine.edges, theirs.edges)
        assert mine.edges.shape == theirs.edges.shape
        assert np.array_equal(mine.update_nodes, theirs.update_nodes)


@pytest.mark.parametrize(
    "config",
    [
        RMPIConfig(embed_dim=16, dropout=0.0),
        RMPIConfig(embed_dim=16, dropout=0.0, use_disclosing=True),
        RMPIConfig(embed_dim=16, dropout=0.0, use_target_attention=True),
    ],
    ids=["base", "NE", "TA"],
)
class TestEmptySubgraphSamples:
    """Empty samples share one singleton plan per relation and skip the
    line graph and plan compiler; nothing downstream may notice."""

    def test_batch_plans_match_preparing_each_alone(self, bench, config):
        model = RMPI(bench.num_relations, np.random.default_rng(0), config)
        graph = bench.train_graph
        triples = mixed_triples(bench)
        batch = model.prepare_many(graph, triples)
        empty = [sample.enclosing_empty for sample in batch]
        assert any(empty) and not all(empty)
        for triple, sample in zip(triples, batch):
            alone = model.prepare_many(graph, [triple])[0]
            assert sample.enclosing_empty == alone.enclosing_empty
            assert_same_plan(sample.plan, alone.plan)
            if sample.enclosing_empty:
                assert sample.plan is alone.plan

    def test_fused_scores_bitwise_equal_to_compiled_plans(self, bench, config):
        # The shared plans score exactly like the ones the line graph and
        # compiler build for the same empty subgraphs.
        model = RMPI(bench.num_relations, np.random.default_rng(0), config)
        model.eval()
        graph = bench.train_graph
        samples = model.prepare_many(graph, mixed_triples(bench))
        compiled = [
            replace(
                sample,
                plan=build_message_plan(
                    build_relational_graph(
                        extract_enclosing_subgraph(
                            graph, sample.triple, config.num_hops
                        )
                    ),
                    config.num_layers,
                ),
            )
            for sample in samples
        ]
        for sample, reference in zip(samples, compiled):
            assert_same_plan(sample.plan, reference.plan)
        ours = model.score_samples_batched(samples).data
        theirs = model.score_samples_batched(compiled).data
        assert np.array_equal(ours, theirs)
        for sample, reference in zip(samples, compiled):
            assert np.array_equal(
                model.score_sample(sample).data, model.score_sample(reference).data
            )
