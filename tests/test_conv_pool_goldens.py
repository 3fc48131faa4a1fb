"""Byte-level goldens for the convolution and max-pool kernels.

The goldens in ``test_bayesopt_async.py`` train an MLP, so they never touch
``conv2d``, ``im2col``/``col2im`` or ``max_pool2d``.  The digests below were
captured from the einsum/im2col-loop kernels and pin the bytes those kernels
produced: a LeNet BayesFT search (valid 5x5 convs, 2x2 pools), a PreAct-18
training epoch (stride-2 convs, padding, batch norm), a trial-batched LeNet
drift sweep, and a direct forward/backward of the general strided paths
(overlapping and ragged max-pool windows).  Any kernel rewrite must keep
them; they are never re-pinned.

The CI tier-1 job runs this file at the default BLAS thread count and again
with ``OPENBLAS_NUM_THREADS=1``: the bytes must not depend on it.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import BayesFT
from repro.core.algorithm import _state_sha256
from repro.data import SyntheticCIFAR, SyntheticMNIST, train_test_split
from repro.evaluation import DriftSweepEngine
from repro.models import build_model
from repro.nn import functional as F
from repro.nn.tensor import Tensor
from repro.training import train_classifier

GOLDEN_LENET_SEARCH_SHA256 = {
    11: "a4bdf650c9a8d3136b5e9351252fdc05d62210492f4c292c3acc8fe6ed6fc634",
    12: "06a399fa200b18d84d30aa13c5f99d9ebfa653b71fa4ae5f668ca598aa5cf830",
    13: "a05a77e251fa7cb4b208304063f933defa7b77650f52413f0be7a8148728a3b1",
}
GOLDEN_PREACT18_EPOCH_SHA256 = (
    "60f70be63d306a1710b7ed4d16d7b64cc6533f1430d2997b55cf50e037b75fb3")
GOLDEN_LENET_TRIAL_BATCHED_SWEEP_SHA256 = (
    "b8fdac5290d07eac90875b48bae38d183e76aeef6c94308d6fa1410eb499f2d5")
GOLDEN_STRIDED_KERNELS_SHA256 = (
    "4480a4243ef90499387cc6ac3066d111a0da79b53394719329230ea65b83219e")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def lenet_search_json(seed: int) -> str:
    """``BayesFT.fit`` on LeNet / SyntheticMNIST 16x16: 8 trials, E=2, T=3."""
    data = SyntheticMNIST(n_samples=400, image_size=16, rng=seed)
    model = build_model("lenet", num_classes=10, in_channels=1,
                        image_size=16, rng=seed)
    return BayesFT(sigma=0.8, n_trials=8, epochs_per_trial=2,
                   monte_carlo_samples=3, rng=seed).fit(model, data).to_json()


def preact18_epoch_sha256() -> str:
    """Parameter digest of a PreAct-18 after one training epoch."""
    data = SyntheticCIFAR(n_samples=48, image_size=16, rng=0)
    model = build_model("preact18", num_classes=10, in_channels=3,
                        image_size=16, rng=np.random.default_rng(0))
    train_classifier(model, data, epochs=1, batch_size=16,
                     learning_rate=0.05, rng=0)
    return _state_sha256(model.state_dict())


def lenet_trial_batched_sweep_json(trial_batch: int) -> str:
    """Canonical report of a drift sweep over a briefly trained LeNet."""
    dataset = SyntheticMNIST(n_samples=120, image_size=16, rng=7)
    train_set, test_set = train_test_split(dataset, test_fraction=0.4, rng=7)
    model = build_model("lenet", num_classes=10, in_channels=1,
                        image_size=16, rng=np.random.default_rng(7))
    train_classifier(model, train_set, epochs=1, learning_rate=0.05, rng=7)
    report = DriftSweepEngine(model, test_set.subset(np.arange(24)), trials=4,
                              trial_batch=trial_batch, rng=99).run(
                                  (0.0, 0.5, 1.0), label="golden")
    return report.to_json(canonical=True)


def strided_kernels_sha256() -> str:
    """Forward and gradient bytes of the general (strided) kernel paths."""
    rng = np.random.default_rng(5)
    digest = hashlib.sha256()
    cases = [
        # (input shape, conv weight shape, stride, padding, pool kernel, pool stride)
        ((2, 3, 9, 9), (4, 3, 3, 3), 2, 1, 3, 2),   # overlapping pool windows
        ((3, 2, 7, 8), (5, 2, 2, 3), 1, 0, 2, 2),   # ragged pool (odd H)
        ((2, 2, 8, 8), (3, 2, 3, 3), 1, 1, 2, 2),   # non-overlapping pool
    ]
    for x_shape, w_shape, stride, padding, pool, pool_stride in cases:
        x = Tensor(rng.standard_normal(x_shape), requires_grad=True)
        weight = Tensor(rng.standard_normal(w_shape), requires_grad=True)
        bias = Tensor(rng.standard_normal(w_shape[0]), requires_grad=True)
        out = F.max_pool2d(F.conv2d(x, weight, bias, stride, padding),
                           pool, pool_stride)
        (out * Tensor(rng.standard_normal(out.shape))).sum().backward()
        for array in (out.data, x.grad, weight.grad, bias.grad):
            digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("seed", sorted(GOLDEN_LENET_SEARCH_SHA256))
def test_lenet_search_bytes(seed):
    assert _sha256(lenet_search_json(seed)) == GOLDEN_LENET_SEARCH_SHA256[seed]


def test_preact18_epoch_bytes():
    assert preact18_epoch_sha256() == GOLDEN_PREACT18_EPOCH_SHA256


def test_lenet_trial_batched_sweep_bytes():
    batched = lenet_trial_batched_sweep_json(trial_batch=4)
    assert _sha256(batched) == GOLDEN_LENET_TRIAL_BATCHED_SWEEP_SHA256
    assert lenet_trial_batched_sweep_json(trial_batch=1) == batched


def test_strided_kernel_bytes():
    assert strided_kernels_sha256() == GOLDEN_STRIDED_KERNELS_SHA256
