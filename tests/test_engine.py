"""Engine policy tests: no-grad mode, dtype policy, optimizer fast paths,
one-pass training, repeatable fused scores, and float32/float64 score
parity."""

import numpy as np
import pytest

from engine_tolerances import score_tolerance
from repro.autograd import (
    Adam,
    Parameter,
    Tensor,
    clip_grad_norm,
    default_dtype,
    get_default_dtype,
    is_grad_enabled,
    no_grad,
    ops,
    set_default_dtype,
)
from repro.autograd.segment import gather, segment_softmax, segment_sum
from repro.core import RMPI, RMPIConfig
from repro.train import Trainer, TrainingConfig, train_model


def make_model(bench, seed=0, **config_kwargs):
    config_kwargs.setdefault("embed_dim", 16)
    config_kwargs.setdefault("dropout", 0.0)
    return RMPI(
        bench.num_relations, np.random.default_rng(seed), RMPIConfig(**config_kwargs)
    )


class TestNoGrad:
    def test_ops_build_no_graph(self):
        a = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            out = ops.mul(ops.add(a, 2.0), a)
        assert out._backward_fn is None
        assert out._parents == ()
        assert not out.requires_grad

    def test_segment_ops_build_no_graph(self):
        a = Tensor(np.ones((4, 2)), requires_grad=True)
        logits = Tensor(np.ones(4), requires_grad=True)
        with no_grad():
            assert gather(a, [0, 1])._backward_fn is None
            assert segment_sum(a, [0, 0, 1, 1], 2)._backward_fn is None
            assert segment_softmax(logits, [0, 0, 1, 1], 2)._backward_fn is None

    def test_values_identical_to_grad_mode(self):
        a = Tensor(np.linspace(-2, 2, 8), requires_grad=True)

        def compute():
            return ops.sum(ops.relu(ops.mul(a, a)))

        with_graph = compute()
        with no_grad():
            without_graph = compute()
        assert with_graph.data == without_graph.data

    def test_nesting_restores_state(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_decorator_form(self):
        @no_grad()
        def score():
            return ops.add(Tensor([1.0], requires_grad=True), 1.0)

        assert score()._backward_fn is None

    def test_model_scores_match_grad_mode(self, tiny_partial_benchmark):
        bench = tiny_partial_benchmark
        model = make_model(bench)
        model.eval()
        triples = list(bench.train_triples)[:4]
        in_grad_mode = model.score_batch(bench.train_graph, triples)
        assert in_grad_mode._backward_fn is not None
        with no_grad():
            graph_free = model.score_batch(bench.train_graph, triples)
        assert graph_free._backward_fn is None
        assert not graph_free.requires_grad
        np.testing.assert_array_equal(in_grad_mode.data, graph_free.data)

    def test_score_triples_runs_under_no_grad(self, tiny_partial_benchmark):
        bench = tiny_partial_benchmark
        model = make_model(bench)
        triples = list(bench.train_triples)[:2]
        seen = {}
        original = model.head.forward

        def spy(*args, **kwargs):
            seen["grad_enabled"] = is_grad_enabled()
            return original(*args, **kwargs)

        model.head.forward = spy
        try:
            model.score_triples(bench.train_graph, triples)
            assert seen["grad_enabled"] is False
            seen.clear()
            model.score_triples_fused(bench.train_graph, triples)
            assert seen["grad_enabled"] is False
        finally:
            del model.head.forward


class TestDtypePolicy:
    def test_default_is_float32(self):
        assert get_default_dtype() == np.float32

    def test_set_and_restore(self):
        set_default_dtype("float64")
        try:
            assert get_default_dtype() == np.float64
            assert Tensor([1.0]).data.dtype == np.float64
        finally:
            set_default_dtype("float32")

    def test_invalid_dtype_rejected(self):
        with pytest.raises(ValueError):
            set_default_dtype("int32")

    def test_model_parameters_follow_policy(self, tiny_partial_benchmark):
        bench = tiny_partial_benchmark
        assert all(
            p.data.dtype == get_default_dtype()
            for p in make_model(bench).parameters()
        )
        with default_dtype("float64"):
            wide = make_model(bench)
        assert all(p.data.dtype == np.float64 for p in wide.parameters())

    def test_scores_are_float32_under_default(self, tiny_partial_benchmark):
        bench = tiny_partial_benchmark
        model = make_model(bench, use_disclosing=True)
        model.eval()
        scores = model.score_batch(
            bench.train_graph, list(bench.train_triples)[:3]
        )
        assert scores.data.dtype == np.float32

    def test_float32_float64_score_parity_on_trained_model(
        self, tiny_partial_benchmark
    ):
        bench = tiny_partial_benchmark
        model = make_model(bench, use_disclosing=True, use_target_attention=True)
        train_model(
            model,
            bench.train_graph,
            bench.train_triples,
            config=TrainingConfig(epochs=2, seed=0),
        )
        with default_dtype("float64"):
            wide = make_model(bench, use_disclosing=True, use_target_attention=True)
        wide.load_state_dict(model.state_dict())  # casts to float64
        triples = list(bench.train_triples)[:12]
        narrow_scores = model.score_triples(bench.train_graph, triples)
        wide_scores = wide.score_triples(bench.train_graph, triples)
        np.testing.assert_allclose(narrow_scores, wide_scores, rtol=1e-4, atol=1e-4)


class TestOptimizerFastPaths:
    def test_clip_grad_norm_matches_reference(self):
        rng = np.random.default_rng(0)
        params = [Parameter(rng.normal(size=shape)) for shape in [(3, 4), (7,), (2, 2)]]
        grads = [rng.normal(size=p.shape) for p in params]
        for p, g in zip(params, grads):
            p.grad = g.copy()
        reference = float(np.sqrt(sum(float((g**2).sum()) for g in grads)))
        returned = clip_grad_norm(params, max_norm=reference / 2.0)
        assert returned == pytest.approx(reference)
        scale = (reference / 2.0) / reference
        for p, g in zip(params, grads):
            np.testing.assert_allclose(p.grad, g * scale)

    def test_clip_noop_below_max(self):
        p = Parameter(np.zeros(2))
        p.grad = np.array([3.0, 4.0])
        assert clip_grad_norm([p], max_norm=10.0) == pytest.approx(5.0)
        np.testing.assert_array_equal(p.grad, [3.0, 4.0])

    def test_adam_step_matches_reference(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(4, 3))
        param = Parameter(data.copy())
        opt = Adam([param], lr=0.01, weight_decay=0.1)

        # Reference Adam (the original out-of-place formulation).
        ref = data.copy()
        m = np.zeros_like(ref)
        v = np.zeros_like(ref)
        for step in range(1, 4):
            grad = rng.normal(size=ref.shape)
            param.grad = grad.copy()
            opt.step()
            grad_ref = grad + 0.1 * ref
            m = 0.9 * m + 0.1 * grad_ref
            v = 0.999 * v + 0.001 * grad_ref**2
            m_hat = m / (1.0 - 0.9**step)
            v_hat = v / (1.0 - 0.999**step)
            ref = ref - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
            np.testing.assert_allclose(param.data, ref, rtol=1e-12, atol=1e-12)

    def test_adam_moments_updated_in_place(self):
        param = Parameter(np.zeros(3))
        opt = Adam([param], lr=0.1)
        m_buffer, v_buffer = opt._m[0], opt._v[0]
        param.grad = np.ones(3)
        opt.step()
        assert opt._m[0] is m_buffer and opt._v[0] is v_buffer
        assert np.all(m_buffer != 0.0) and np.all(v_buffer != 0.0)


class TestOnePassTrainingStep:
    def test_one_call_matches_two_calls(self, tiny_partial_benchmark):
        # A training step scores positives and negatives in ONE score_batch
        # call; in eval mode that equals scoring the two sides apart.
        bench = tiny_partial_benchmark
        model = make_model(bench, seed=3, use_disclosing=True)
        model.eval()
        triples = list(bench.train_triples)
        positives, negatives = triples[:6], triples[6:12]
        together = model.score_batch(bench.train_graph, positives + negatives)
        apart = np.concatenate(
            [
                model.score_batch(bench.train_graph, positives).data,
                model.score_batch(bench.train_graph, negatives).data,
            ]
        )
        np.testing.assert_allclose(together.data, apart, **score_tolerance())

    def test_loss_decreases_with_one_pass(self, tiny_partial_benchmark):
        bench = tiny_partial_benchmark
        model = make_model(bench, seed=0)
        history = train_model(
            model,
            bench.train_graph,
            bench.train_triples,
            config=TrainingConfig(epochs=6, seed=0),
        )
        assert history.losses[-1] < history.losses[0]


class TestFusedScoreRepeatability:
    def test_scores_consistent_through_cache(self, tiny_partial_benchmark):
        bench = tiny_partial_benchmark
        model = make_model(bench, use_disclosing=True)
        model.eval()
        triples = list(bench.train_triples)[:4]
        first = model.score_triples_fused(bench.train_graph, triples)
        second = model.score_triples_fused(bench.train_graph, triples)
        np.testing.assert_array_equal(first, second)


class TestSegmentDtypeSatellites:
    def test_segment_sum_no_longer_forces_float64(self):
        out = segment_sum(Tensor(np.ones((2, 3), dtype=np.float32)), [0, 1], 2)
        assert out.data.dtype == np.float32

    def test_zero_neighbor_rows_follow_model_dtype(self, tiny_partial_benchmark):
        bench = tiny_partial_benchmark
        with default_dtype("float64"):
            model = make_model(bench, use_disclosing=True)
        model.eval()
        scores = model.score_triples(
            bench.train_graph, list(bench.train_triples)[:3]
        )
        # A float64 model stays float64 end to end (no float32 zero-row
        # contamination); score_triples reports float64 regardless.
        fused = model.score_batch(
            bench.train_graph, list(bench.train_triples)[:3]
        )
        assert fused.data.dtype == np.float64
        np.testing.assert_allclose(
            scores, fused.data.reshape(-1), **score_tolerance()
        )
