"""Tests for the Module system, losses and optimisers."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.nn.tensor import Tensor


class TestModuleSystem:
    def test_named_parameters_are_recursive(self):
        model = nn.Sequential(nn.Linear(4, 8, rng=0), nn.ReLU(), nn.Linear(8, 2, rng=0))
        names = [name for name, _ in model.named_parameters()]
        assert "0.weight" in names and "2.bias" in names

    def test_num_parameters_counts_scalars(self):
        layer = nn.Linear(3, 2, rng=0)
        assert layer.num_parameters() == 3 * 2 + 2

    def test_train_eval_propagates(self):
        model = nn.Sequential(nn.Dropout(0.5, rng=0), nn.Linear(2, 2, rng=0))
        model.eval()
        assert all(not child.training for child in model.children())
        model.train()
        assert all(child.training for child in model.children())

    def test_zero_grad_clears_gradients(self):
        layer = nn.Linear(3, 1, rng=0)
        layer(Tensor(np.ones((2, 3)))).sum().backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None

    def test_state_dict_roundtrip(self):
        model = nn.Sequential(nn.Linear(3, 4, rng=0), nn.Linear(4, 2, rng=1))
        state = model.state_dict()
        clone = nn.Sequential(nn.Linear(3, 4, rng=5), nn.Linear(4, 2, rng=6))
        clone.load_state_dict(state)
        for (_, a), (_, b) in zip(model.named_parameters(), clone.named_parameters()):
            assert np.allclose(a.data, b.data)

    def test_state_dict_includes_buffers(self):
        layer = nn.BatchNorm1d(3)
        assert "running_mean" in layer.state_dict()

    def test_set_buffer_requires_registration(self):
        layer = nn.BatchNorm1d(3)
        with pytest.raises(KeyError):
            layer.set_buffer("not_registered", np.zeros(3))

    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    def test_training_after_load_leaves_callers_state_unchanged(self, optimizer):
        # load_state_dict installs the caller's arrays without copying, and
        # BayesFT reloads one initial state before every trial: an in-place
        # parameter or buffer update would corrupt every later trial.
        model = nn.Sequential(nn.Linear(3, 4, rng=0), nn.BatchNorm1d(4),
                              nn.ReLU(), nn.Linear(4, 2, rng=1))
        state = model.state_dict()
        expected = {name: array.copy() for name, array in state.items()}
        model.load_state_dict(state)
        parameters = list(model.parameters())
        step = (nn.SGD(parameters, lr=0.1, momentum=0.9, weight_decay=0.01)
                if optimizer == "sgd" else nn.Adam(parameters, lr=0.1))
        x = Tensor(np.random.default_rng(2).normal(size=(8, 3)))
        nn.cross_entropy(model(x), np.arange(8) % 2).backward()
        step.step()
        for name, array in state.items():
            assert np.array_equal(array, expected[name]), name
        trained = model.state_dict()
        assert all(not np.array_equal(trained[name], expected[name])
                   for name in ("0.weight", "1.running_mean"))

    def test_sequential_iteration_and_indexing(self):
        model = nn.Sequential(nn.ReLU(), nn.Tanh())
        assert len(model) == 2
        assert isinstance(model[1], nn.Tanh)
        assert [type(m).__name__ for m in model] == ["ReLU", "Tanh"]

    def test_module_list_registers_children(self):
        holder = nn.ModuleList([nn.Linear(2, 2, rng=0), nn.Linear(2, 2, rng=1)])
        assert len(list(holder.parameters())) == 4
        with pytest.raises(RuntimeError):
            holder(Tensor(np.zeros((1, 2))))

    def test_named_modules_contains_nested(self):
        model = nn.Sequential(nn.Sequential(nn.Linear(2, 2, rng=0)))
        names = [name for name, _ in model.named_modules()]
        assert "0.0" in names

    def test_forward_not_implemented_on_base(self):
        with pytest.raises(NotImplementedError):
            nn.Module()(Tensor(np.zeros(1)))


class TestLosses:
    def test_cross_entropy_uniform_logits(self):
        logits = Tensor(np.zeros((4, 10)))
        loss = nn.cross_entropy(logits, np.array([0, 1, 2, 3]))
        assert loss.item() == pytest.approx(np.log(10))

    def test_cross_entropy_perfect_prediction_near_zero(self):
        logits = np.full((2, 3), -50.0)
        logits[0, 1] = 50.0
        logits[1, 2] = 50.0
        loss = nn.cross_entropy(Tensor(logits), np.array([1, 2]))
        assert loss.item() == pytest.approx(0.0, abs=1e-6)

    def test_cross_entropy_gradient_is_softmax_minus_onehot(self):
        logits = Tensor(np.zeros((1, 3)), requires_grad=True)
        nn.cross_entropy(logits, np.array([0])).backward()
        expected = np.array([[1 / 3 - 1, 1 / 3, 1 / 3]])
        assert np.allclose(logits.grad, expected)

    def test_mse_loss_value(self):
        loss = nn.mse_loss(Tensor(np.array([1.0, 2.0])), np.array([0.0, 0.0]))
        assert loss.item() == pytest.approx(2.5)

    def test_smooth_l1_quadratic_region(self):
        loss = nn.smooth_l1_loss(Tensor(np.array([0.5])), np.array([0.0]))
        assert loss.item() == pytest.approx(0.125)

    def test_smooth_l1_linear_region(self):
        loss = nn.smooth_l1_loss(Tensor(np.array([3.0])), np.array([0.0]))
        assert loss.item() == pytest.approx(2.5)

    def test_bce_with_logits_matches_reference(self):
        logits = np.array([0.3, -1.2, 2.0])
        targets = np.array([1.0, 0.0, 1.0])
        loss = nn.bce_with_logits(Tensor(logits), targets)
        reference = np.mean(np.log1p(np.exp(-np.abs(logits)))
                            + np.maximum(logits, 0) - logits * targets)
        assert loss.item() == pytest.approx(reference)

    def test_bce_with_logits_stable_for_large_inputs(self):
        loss = nn.bce_with_logits(Tensor(np.array([1000.0])), np.array([1.0]))
        assert np.isfinite(loss.item())
        assert loss.item() == pytest.approx(0.0, abs=1e-6)

    def test_loss_modules_callable(self):
        assert nn.CrossEntropyLoss()(Tensor(np.zeros((2, 4))), np.array([0, 1])).item() > 0
        assert nn.MSELoss()(Tensor(np.ones(3)), np.zeros(3)).item() == pytest.approx(1.0)
        assert nn.SmoothL1Loss()(Tensor(np.zeros(2)), np.zeros(2)).item() == pytest.approx(0.0)
        assert nn.BCEWithLogitsLoss()(Tensor(np.zeros(2)), np.ones(2)).item() > 0


class TestOptimizers:
    def _quadratic_problem(self):
        target = np.array([3.0, -2.0])
        parameter = nn.Parameter(np.zeros(2))

        def loss_fn():
            return ((parameter - Tensor(target)) * (parameter - Tensor(target))).sum()

        return parameter, loss_fn, target

    def test_sgd_converges_on_quadratic(self):
        parameter, loss_fn, target = self._quadratic_problem()
        optimizer = nn.SGD([parameter], lr=0.1)
        for _ in range(100):
            loss = loss_fn()
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        assert np.allclose(parameter.data, target, atol=1e-3)

    def test_sgd_momentum_converges_faster_than_plain(self):
        losses = {}
        for momentum in (0.0, 0.9):
            parameter, loss_fn, _ = self._quadratic_problem()
            optimizer = nn.SGD([parameter], lr=0.02, momentum=momentum)
            for _ in range(30):
                loss = loss_fn()
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
            losses[momentum] = loss_fn().item()
        assert losses[0.9] < losses[0.0]

    def test_adam_converges_on_quadratic(self):
        parameter, loss_fn, target = self._quadratic_problem()
        optimizer = nn.Adam([parameter], lr=0.2)
        for _ in range(200):
            loss = loss_fn()
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        assert np.allclose(parameter.data, target, atol=1e-2)

    def test_weight_decay_shrinks_weights(self):
        parameter = nn.Parameter(np.ones(4))
        optimizer = nn.SGD([parameter], lr=0.1, weight_decay=0.5)
        loss = (parameter * 0.0).sum()
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
        assert np.all(np.abs(parameter.data) < 1.0)

    def test_empty_parameter_list_rejected(self):
        with pytest.raises(ValueError):
            nn.SGD([], lr=0.1)

    def test_negative_learning_rate_rejected(self):
        with pytest.raises(ValueError):
            nn.SGD([nn.Parameter(np.ones(1))], lr=-0.1)

    def test_step_skips_parameters_without_grad(self):
        parameter = nn.Parameter(np.ones(2))
        optimizer = nn.SGD([parameter], lr=0.1)
        optimizer.step()  # no gradient accumulated yet; must not fail
        assert np.allclose(parameter.data, 1.0)

    def test_set_lr(self):
        optimizer = nn.SGD([nn.Parameter(np.ones(1))], lr=0.1)
        optimizer.set_lr(0.01)
        assert optimizer.lr == pytest.approx(0.01)


class TestInitializers:
    def test_fan_computation_linear_and_conv(self):
        from repro.nn import init
        assert init.fan_in_and_fan_out((10, 20)) == (20, 10)
        assert init.fan_in_and_fan_out((8, 4, 3, 3)) == (4 * 9, 8 * 9)

    def test_fan_rejects_vectors(self):
        from repro.nn import init
        with pytest.raises(ValueError):
            init.fan_in_and_fan_out((5,))

    def test_xavier_normal_std(self):
        from repro.nn import init
        weights = init.xavier_normal((200, 300), np.random.default_rng(0))
        expected_std = np.sqrt(2.0 / 500)
        assert weights.std() == pytest.approx(expected_std, rel=0.05)

    def test_kaiming_normal_std(self):
        from repro.nn import init
        weights = init.kaiming_normal((256, 128), np.random.default_rng(0))
        assert weights.std() == pytest.approx(np.sqrt(2.0 / 128), rel=0.05)

    def test_zeros_and_ones(self):
        from repro.nn import init
        assert np.all(init.zeros((2, 2)) == 0)
        assert np.all(init.ones((2, 2)) == 1)
