"""Figure 2: ablation of architecture factors for fault tolerance.

Four sub-experiments on an MLP / SyntheticMNIST, each sweeping σ and
comparing variants of one architectural factor:

* (a) dropout: none vs Dropout vs AlphaDropout,
* (b) normalisation: none vs Instance vs Batch vs Group vs Layer,
* (c) model complexity: 3-, 6- and 9-layer MLPs,
* (d) activation: ReLU, ELU, GELU, Leaky ReLU.

Each function returns a list of :class:`RobustnessCurve`, one per variant —
the same series the paper plots.  Passing a
:class:`~repro.scenarios.runner.ScenarioRunner` routes every sweep through
the scenario subsystem: cells already in the runner's result store are
answered from disk (the curves are bit-identical either way, because the
harness keeps its RNG threading and hands the runner the same evaluation
generator the direct engine path used).
"""

from __future__ import annotations

import numpy as np

from ..data.registry import build_dataset
from ..data.loader import train_test_split
from ..evaluation.robustness import RobustnessCurve
from ..models.mlp import MLP, build_mlp
from ..models.lenet import LeNet5
from ..nn.layers import GroupNorm, InstanceNorm2d
from ..training.trainer import train_classifier
from ..utils.config import ExperimentConfig
from ..utils.rng import get_rng

__all__ = [
    "run_dropout_ablation", "run_normalization_ablation",
    "run_depth_ablation", "run_activation_ablation",
]


def _make_data(config: ExperimentConfig, rng):
    dataset = build_dataset("mnist", n_samples=config.train_samples + config.test_samples,
                            image_size=16, rng=rng)
    fraction = config.test_samples / (config.train_samples + config.test_samples)
    return train_test_split(dataset, test_fraction=fraction, rng=rng)


def _cell_spec(figure: str, label: str, config: ExperimentConfig, seed: int,
               model: str = "mlp", variants: dict | None = None):
    """Identity of one harness cell in the scenario/result-store world.

    The context records the lineage: figure, harness seed, full training
    config, and — crucially — any call-site parameter that changes the
    variant list (``variants``).  The harness threads one RNG through every
    variant's construction and training, so a cell's weights depend on
    *which other variants ran before it*; anything that alters that
    sequence must enter the hash or the store would serve stale curves.
    How the sweep is scheduled is not part of it: that is the runner's.
    """
    from ..scenarios.spec import ScenarioSpec

    return ScenarioSpec(
        name=label, model=model, dataset="mnist",
        sigmas=tuple(config.sigma_grid), trials=config.drift_trials,
        seed=config.seed, train=config,
        context={"figure": figure, "harness_seed": seed,
                 **(variants or {})})


def _train_and_sweep(model, train_set, test_set, label, config, rng,
                     runner=None, figure: str = "fig2", seed: int = 0,
                     model_name: str = "mlp",
                     variants: dict | None = None) -> RobustnessCurve:
    train_classifier(model, train_set, epochs=config.epochs,
                     batch_size=config.batch_size, learning_rate=config.learning_rate,
                     momentum=config.momentum, rng=rng)
    if runner is None:
        from ..scenarios.runner import ScenarioRunner
        runner = ScenarioRunner()  # no store: plain engine sweep
    # Common random numbers: every variant is evaluated with the same drift
    # samples, so the comparison between curves is paired and low-variance.
    # (The engine pre-draws all samples, so this also holds for any worker
    # count or chunk size the runner schedules the sweep with.)
    evaluation_rng = np.random.default_rng(config.seed + 99991)
    spec = _cell_spec(figure, label, config, seed, model=model_name,
                      variants=variants)
    return runner.sweep_trained(model, test_set, spec, rng=evaluation_rng,
                                scenario=figure).curve()


def run_dropout_ablation(config: ExperimentConfig | None = None, seed: int = 0,
                         runner=None) -> list[RobustnessCurve]:
    """Fig. 2(a): the original model vs Dropout vs AlphaDropout."""
    config = config or ExperimentConfig()
    rng = get_rng(seed)
    train_set, test_set = _make_data(config, rng)
    input_dim = int(np.prod(train_set.inputs.shape[1:]))
    # Alpha dropout is used with a smaller rate: it is designed for SELU
    # networks, and on a ReLU MLP with a short training budget larger rates
    # prevent convergence entirely.
    variants = [
        ("Original Model", {"dropout": "none"}),
        ("DropOut", {"dropout": "dropout", "dropout_rate": 0.3}),
        ("Alpha DropOut", {"dropout": "alpha", "dropout_rate": 0.1}),
    ]
    curves = []
    for label, kwargs in variants:
        model = MLP(input_dim, hidden_dims=(128, 64), num_classes=10, rng=rng, **kwargs)
        curves.append(_train_and_sweep(model, train_set, test_set, label, config, rng,
                                       runner=runner, figure="fig2_dropout", seed=seed))
    return curves


def run_normalization_ablation(config: ExperimentConfig | None = None,
                               seed: int = 0, runner=None) -> list[RobustnessCurve]:
    """Fig. 2(b): no normalisation vs Instance/Batch/Group/Layer norm.

    Instance and Group normalisation require spatial feature maps, so this
    ablation uses the LeNet convolutional trunk (the paper notes the same
    experiments were run with larger models with similar findings); the
    no-norm / batch / layer variants are also run on the MLP for parity.
    """
    config = config or ExperimentConfig()
    rng = get_rng(seed)
    train_set, test_set = _make_data(config, rng)
    input_dim = int(np.prod(train_set.inputs.shape[1:]))

    curves = []
    for label, norm in [("Without Norm", "none"), ("Batch Norm", "batch"),
                        ("Layer Norm", "layer")]:
        model = MLP(input_dim, hidden_dims=(128, 64), num_classes=10,
                    normalization=norm, dropout="none", rng=rng)
        curves.append(_train_and_sweep(model, train_set, test_set, label, config, rng,
                                       runner=runner, figure="fig2_normalization",
                                       seed=seed))

    for label, norm_class in [("Instance Norm", InstanceNorm2d), ("Group Norm", GroupNorm)]:
        model = _lenet_with_norm(norm_class, rng)
        curves.append(_train_and_sweep(model, train_set, test_set, label, config, rng,
                                       runner=runner, figure="fig2_normalization",
                                       seed=seed, model_name="lenet"))
    return curves


def _lenet_with_norm(norm_class, rng) -> LeNet5:
    """LeNet with a feature-map normalisation layer inserted after each conv."""
    model = LeNet5(num_classes=10, in_channels=1, image_size=16, rng=rng)
    features = model.features
    # Insert the normalisation module right after each Conv2d in the Sequential.
    from ..nn.layers import Conv2d
    rebuilt = []
    for module in features:
        rebuilt.append(module)
        if isinstance(module, Conv2d):
            channels = module.out_channels
            if norm_class is GroupNorm:
                rebuilt.append(GroupNorm(num_groups=2, num_features=channels))
            else:
                rebuilt.append(norm_class(channels))
    from ..nn.module import Sequential
    model.features = Sequential(*rebuilt)
    return model


def run_depth_ablation(config: ExperimentConfig | None = None, seed: int = 0,
                       depths: tuple = (3, 6, 9), runner=None) -> list[RobustnessCurve]:
    """Fig. 2(c): 3- vs 6- vs 9-layer MLP."""
    config = config or ExperimentConfig()
    rng = get_rng(seed)
    train_set, test_set = _make_data(config, rng)
    input_dim = int(np.prod(train_set.inputs.shape[1:]))
    curves = []
    for depth in depths:
        model = build_mlp(input_dim, depth=depth, width=96, num_classes=10,
                          dropout="none", rng=rng)
        curves.append(_train_and_sweep(model, train_set, test_set,
                                       f"{depth}-Layer", config, rng,
                                       runner=runner, figure="fig2_depth", seed=seed,
                                       variants={"depths": list(depths)}))
    return curves


def run_activation_ablation(config: ExperimentConfig | None = None,
                            seed: int = 0, runner=None) -> list[RobustnessCurve]:
    """Fig. 2(d): ReLU vs ELU vs GELU vs Leaky ReLU."""
    config = config or ExperimentConfig()
    rng = get_rng(seed)
    train_set, test_set = _make_data(config, rng)
    input_dim = int(np.prod(train_set.inputs.shape[1:]))
    curves = []
    for label, activation in [("ReLU", "relu"), ("ELU", "elu"),
                              ("GELU", "gelu"), ("Leaky ReLU", "leaky_relu")]:
        model = MLP(input_dim, hidden_dims=(128, 64), num_classes=10,
                    activation=activation, dropout="none", rng=rng)
        curves.append(_train_and_sweep(model, train_set, test_set, label, config, rng,
                                       runner=runner, figure="fig2_activation",
                                       seed=seed))
    return curves
