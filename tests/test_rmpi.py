"""RMPI model tests: variants, layers, NE, scoring, unseen relations."""

import dataclasses

import numpy as np
import pytest

from oracles.linegraph import disclosing_one_hop_relations
from repro.core import RMPI, RMPIConfig
from repro.core.disclosing import DisclosingAggregator
from repro.core.layers import RelationalMessagePassingLayer
from repro.core.scoring import ScoringHead
from repro.autograd import Tensor
from repro.kg import KnowledgeGraph


@pytest.fixture
def model(family_graph):
    return RMPI(family_graph.num_relations, np.random.default_rng(0))


class TestConfig:
    def test_variant_names(self):
        assert RMPIConfig().variant_name == "RMPI-base"
        assert RMPIConfig(use_disclosing=True).variant_name == "RMPI-NE"
        assert RMPIConfig(use_target_attention=True).variant_name == "RMPI-TA"
        assert (
            RMPIConfig(use_disclosing=True, use_target_attention=True).variant_name
            == "RMPI-NE-TA"
        )

    def test_invalid_fusion(self):
        with pytest.raises(ValueError):
            RMPIConfig(fusion="mean")

    def test_invalid_layers(self):
        with pytest.raises(ValueError):
            RMPIConfig(num_layers=0)


class TestPrepare:
    def test_sample_structure(self, model, family_graph):
        sample = model.prepare(family_graph, (0, 0, 1))
        assert sample.triple == (0, 0, 1)
        assert sample.plan.target_index == 0
        assert sample.disclosing_relations is None  # base variant

    def test_ne_variant_collects_disclosing(self, family_graph):
        config = RMPIConfig(use_disclosing=True)
        model = RMPI(family_graph.num_relations, np.random.default_rng(0), config)
        sample = model.prepare(family_graph, (0, 0, 1))
        assert sample.disclosing_relations is not None
        assert len(sample.disclosing_relations) > 0

    def test_cache_hit(self, model, family_graph):
        a = model.prepared(family_graph, (0, 0, 1))
        b = model.prepared(family_graph, (0, 0, 1))
        assert a is b
        assert model.cache_size() == 1
        model.clear_cache()
        assert model.cache_size() == 0

    def test_empty_enclosing_flag(self, model):
        g = KnowledgeGraph.from_triples([(0, 0, 1), (2, 0, 3)])
        sample = model.prepare(g, (0, 0, 3))
        assert sample.enclosing_empty


class TestScoring:
    def test_score_shape(self, model, family_graph):
        score = model.score_sample(model.prepare(family_graph, (0, 0, 1)))
        assert score.shape == (1, 1)

    def test_eval_deterministic(self, model, family_graph):
        model.eval()
        s1 = model.score_triples(family_graph, [(0, 0, 1)])
        s2 = model.score_triples(family_graph, [(0, 0, 1)])
        assert s1 == pytest.approx(s2)

    def test_score_batch_stacks(self, model, family_graph):
        scores = model.score_batch(family_graph, [(0, 0, 1), (1, 2, 2)])
        assert scores.shape == (2, 1)

    def test_empty_subgraph_scoreable(self, model):
        g = KnowledgeGraph.from_triples([(0, 0, 1), (2, 0, 3)])
        score = model.score_triples(g, [(0, 0, 3)])
        assert np.isfinite(score).all()

    def test_unseen_relation_scoreable(self, family_graph):
        # Relation id 6 never occurs around the target; score a candidate
        # with an id beyond anything trained (global id space covers it).
        model = RMPI(20, np.random.default_rng(0))
        score = model.score_triples(family_graph, [(0, 15, 1)])
        assert np.isfinite(score).all()

    def test_gradients_reach_embedding(self, model, family_graph):
        score = model.score_sample(model.prepare(family_graph, (0, 0, 1)))
        score.backward()
        grads = model.embedding.table.weight.grad
        assert grads is not None and np.abs(grads).sum() > 0

    def test_training_dropout_varies_scores(self, family_graph):
        config = RMPIConfig(dropout=0.5)
        model = RMPI(family_graph.num_relations, np.random.default_rng(0), config)
        model.train()
        sample = model.prepared(family_graph, (0, 0, 1))
        values = {float(model.score_sample(sample).data.reshape(-1)[0]) for _ in range(8)}
        assert len(values) > 1

    def test_variants_score_differently(self, family_graph):
        scores = {}
        for flags in ((False, False), (True, False), (False, True), (True, True)):
            config = RMPIConfig(use_disclosing=flags[0], use_target_attention=flags[1])
            m = RMPI(family_graph.num_relations, np.random.default_rng(0), config)
            m.eval()
            scores[flags] = float(m.score_triples(family_graph, [(0, 0, 1)])[0])
        assert len(set(scores.values())) >= 2

    def test_schema_enhanced_model(self, family_graph):
        schema_vectors = np.random.default_rng(1).normal(size=(7, 12))
        model = RMPI(
            family_graph.num_relations,
            np.random.default_rng(0),
            schema_vectors=schema_vectors,
        )
        assert "+schema" in model.name
        score = model.score_triples(family_graph, [(0, 0, 1)])
        assert np.isfinite(score).all()

    def test_schema_vectors_must_cover_relations(self):
        with pytest.raises(ValueError):
            RMPI(10, np.random.default_rng(0), schema_vectors=np.zeros((5, 8)))


class TestLayerInternals:
    def test_empty_edges_identity(self):
        layer = RelationalMessagePassingLayer(4, np.random.default_rng(0))
        h = Tensor(np.random.default_rng(1).normal(size=(3, 4)))
        out = layer(h, np.empty((0, 3), dtype=np.int64), 0, False, False)
        assert out is h

    def test_residual_preserves_unreached_nodes(self):
        layer = RelationalMessagePassingLayer(4, np.random.default_rng(0))
        h = Tensor(np.random.default_rng(1).normal(size=(3, 4)))
        edges = np.array([[1, 0, 0]], dtype=np.int64)  # only node 0 updated
        out = layer(h, edges, 0, False, False)
        assert np.allclose(out.data[1], h.data[1])
        assert np.allclose(out.data[2], h.data[2])

    def test_attention_weights_change_output(self):
        rng = np.random.default_rng(0)
        layer = RelationalMessagePassingLayer(4, rng)
        h = Tensor(np.random.default_rng(1).normal(size=(4, 4)))
        edges = np.array([[1, 0, 0], [2, 0, 0], [3, 0, 0]], dtype=np.int64)
        with_attn = layer(h, edges, 0, True, False)
        without = layer(h, edges, 0, False, False)
        assert not np.allclose(with_attn.data[0], without.data[0])

    def test_last_layer_sums_not_means(self):
        layer = RelationalMessagePassingLayer(4, np.random.default_rng(0))
        h = Tensor(np.abs(np.random.default_rng(1).normal(size=(3, 4))))
        edges = np.array([[1, 0, 0], [2, 0, 0]], dtype=np.int64)
        last = layer(h, edges, 0, False, True)
        mid = layer(h, edges, 0, False, False)
        # Equal aggregation (sum) vs mean over 2 neighbors differ.
        assert not np.allclose(last.data[0], mid.data[0])


class TestDisclosingAggregator:
    def test_no_neighbors_returns_zeros(self):
        agg = DisclosingAggregator(6, np.random.default_rng(0))
        out = agg(Tensor(np.zeros((0, 6))), Tensor(np.ones((1, 6))))
        assert np.allclose(out.data, 0.0)
        assert out.shape == (1, 6)

    def test_output_shape(self):
        agg = DisclosingAggregator(6, np.random.default_rng(0))
        out = agg(Tensor(np.random.default_rng(1).normal(size=(5, 6))), Tensor(np.ones((1, 6))))
        assert out.shape == (1, 6)

    def test_nonnegative_after_relu(self):
        agg = DisclosingAggregator(6, np.random.default_rng(0))
        out = agg(Tensor(np.random.default_rng(1).normal(size=(5, 6))), Tensor(np.ones((1, 6))))
        assert (out.data >= 0).all()


class TestScoringHead:
    def test_sum_fusion(self):
        head = ScoringHead(4, np.random.default_rng(0), fusion="sum", use_disclosing=True)
        a, b = Tensor(np.ones((1, 4))), Tensor(np.ones((1, 4)))
        assert head(a, b).shape == (1, 1)

    def test_concat_fusion_uses_merge(self):
        head = ScoringHead(4, np.random.default_rng(0), fusion="concat", use_disclosing=True)
        assert head.merge is not None
        a, b = Tensor(np.ones((1, 4))), Tensor(np.ones((1, 4)))
        assert head(a, b).shape == (1, 1)

    def test_without_disclosing_ignores_second_arg(self):
        head = ScoringHead(4, np.random.default_rng(0), fusion="sum", use_disclosing=False)
        a = Tensor(np.ones((1, 4)))
        s1 = head(a, None)
        s2 = head(a, Tensor(np.full((1, 4), 100.0)))
        assert np.allclose(s1.data, s2.data)

    def test_invalid_fusion(self):
        with pytest.raises(ValueError):
            ScoringHead(4, np.random.default_rng(0), fusion="bogus")


class TestNEParity:
    """``prepare_many`` reads the NE neighbourhood from CSR incidence; it
    must match the disclosing-subgraph extraction it replaced, and so must
    every score computed from it."""

    @staticmethod
    def ranking_list(graph):
        h, r, t = (int(x) for x in graph.triples.array[0])
        tails = [t] + [e for e in range(graph.num_entities) if e != t][:49]
        return [(h, r, e) for e in tails]

    @pytest.mark.parametrize("fusion", ["sum", "gated"])
    def test_samples_and_scores_match_disclosing_reference(
        self, tiny_partial_benchmark, fusion
    ):
        graph = tiny_partial_benchmark.test_graph
        num_relations = tiny_partial_benchmark.num_relations
        config = RMPIConfig(embed_dim=16, use_disclosing=True, fusion=fusion)
        candidates = self.ranking_list(graph)
        assert len(candidates) == 50

        model = RMPI(num_relations, np.random.default_rng(0), config)
        samples = model.prepare_many(graph, candidates)
        expected = [
            disclosing_one_hop_relations(graph, t, config.num_hops)
            for t in candidates
        ]
        assert sum(len(e) for e in expected) > 0
        for sample, reference in zip(samples, expected):
            relations = sample.disclosing_relations
            assert relations.dtype == np.int64 and relations.ndim == 1
            assert np.array_equal(relations, reference)
            assert not relations.flags.writeable

        # The reference model has the same weights and scores samples that
        # carry the extraction-built neighbourhoods.
        reference_model = RMPI(num_relations, np.random.default_rng(0), config)
        reference_model.install_samples(
            graph,
            candidates,
            [
                dataclasses.replace(s, disclosing_relations=e)
                for s, e in zip(samples, expected)
            ],
        )
        for score in ("score_triples_fused", "score_triples"):
            got = getattr(model, score)(graph, candidates)
            want = getattr(reference_model, score)(graph, candidates)
            assert np.array_equal(got, want), score
