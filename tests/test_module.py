"""Tests for Module/Parameter: traversal, modes, state dicts."""

import numpy as np
import pytest

from repro.autograd import MLP, Dropout, Embedding, Linear, Module, ModuleList, Parameter, Tensor


class Net(Module):
    def __init__(self, rng):
        super().__init__()
        self.fc1 = Linear(4, 8, rng)
        self.fc2 = Linear(8, 2, rng)
        self.blocks = ModuleList([Linear(2, 2, rng) for _ in range(2)])
        self.extra = Parameter(np.zeros(3), name="extra")

    def forward(self, x):
        return self.fc2(self.fc1(x))


class TestParameterTraversal:
    def test_named_parameters_cover_nesting(self, rng):
        net = Net(rng)
        names = [name for name, _ in net.named_parameters()]
        assert "fc1.weight" in names
        assert "fc1.bias" in names
        assert "blocks.items[0].weight" in names
        assert "extra" in names

    def test_dict_attribute_is_not_traversed(self, rng):
        net = Net(rng)
        net.lookup = {"a": Linear(2, 2, rng)}
        names = [name for name, _ in net.named_parameters()]
        assert not any(name.startswith("lookup") for name in names)
        net.eval()
        assert net.lookup["a"].training

    def test_parameters_count(self, rng):
        net = Net(rng)
        # fc1(2) + fc2(2) + 2 blocks(2 each) + extra = 9
        assert len(net.parameters()) == 9

    def test_num_parameters(self, rng):
        lin = Linear(4, 8, rng)
        assert lin.num_parameters() == 4 * 8 + 8

    def test_zero_grad_clears(self, rng):
        net = Net(rng)
        x = Tensor(np.ones((1, 4)))
        net(x).sum().backward()
        assert net.fc1.weight.grad is not None
        net.zero_grad()
        assert net.fc1.weight.grad is None


class TestModes:
    def test_train_eval_propagate(self, rng):
        class WithDropout(Module):
            def __init__(self):
                super().__init__()
                self.drop = Dropout(0.5, rng)

        m = WithDropout()
        m.eval()
        assert not m.drop.training
        m.train()
        assert m.drop.training

    def test_modulelist_propagation(self, rng):
        ml = ModuleList([Linear(2, 2, rng)])
        ml.eval()
        assert not ml.items[0].training


class TestStateDict:
    def test_roundtrip(self, rng):
        net1, net2 = Net(rng), Net(np.random.default_rng(99))
        net2.load_state_dict(net1.state_dict())
        for (n1, p1), (n2, p2) in zip(net1.named_parameters(), net2.named_parameters()):
            assert n1 == n2
            assert np.allclose(p1.data, p2.data)

    def test_state_dict_is_a_copy(self, rng):
        net = Net(rng)
        state = net.state_dict()
        state["extra"][0] = 123.0
        assert net.extra.data[0] == 0.0

    def test_missing_key_raises(self, rng):
        net = Net(rng)
        state = net.state_dict()
        del state["extra"]
        with pytest.raises(KeyError):
            net.load_state_dict(state)

    def test_shape_mismatch_raises(self, rng):
        net = Net(rng)
        state = net.state_dict()
        state["extra"] = np.zeros(5)
        with pytest.raises(ValueError):
            net.load_state_dict(state)


class TestLayers:
    def test_linear_shapes(self, rng):
        lin = Linear(3, 5, rng)
        out = lin(Tensor(np.ones((7, 3))))
        assert out.shape == (7, 5)

    def test_linear_no_bias(self, rng):
        lin = Linear(3, 5, rng, bias=False)
        assert lin.bias is None
        assert len(lin.parameters()) == 1

    def test_embedding_lookup(self, rng):
        emb = Embedding(10, 4, rng)
        out = emb([1, 1, 3])
        assert out.shape == (3, 4)
        assert np.allclose(out.data[0], out.data[1])

    def test_embedding_gradient_accumulates_duplicates(self, rng):
        emb = Embedding(5, 2, rng)
        emb([2, 2]).sum().backward()
        assert np.allclose(emb.weight.grad[2], 2.0)
        assert np.allclose(emb.weight.grad[0], 0.0)

    def test_mlp_forward(self, rng):
        mlp = MLP([4, 8, 3], rng)
        out = mlp(Tensor(np.ones((2, 4))))
        assert out.shape == (2, 3)

    def test_mlp_requires_two_sizes(self, rng):
        with pytest.raises(ValueError):
            MLP([4], rng)

    def test_dropout_eval_identity(self, rng):
        drop = Dropout(0.9, rng)
        drop.eval()
        x = Tensor(np.ones(50))
        assert np.allclose(drop(x).data, 1.0)

    def test_dropout_invalid_rate(self, rng):
        with pytest.raises(ValueError):
            Dropout(1.5, rng)

    def test_modulelist_not_callable(self, rng):
        with pytest.raises(TypeError):
            ModuleList([])(1)
