"""Figure 3(a)-(i): accuracy-vs-σ comparison of all methods on classification.

One function drives every panel: given a panel name (model + dataset
combination) it trains ERM, FTNA, ReRAM-V, AWP and BayesFT models and sweeps
the drift level, returning one :class:`RobustnessCurve` per method — the
lines of the corresponding sub-figure.  Passing a
:class:`~repro.scenarios.runner.ScenarioRunner` routes each method's sweep
through the scenario subsystem's result store (curves are bit-identical
either way; see ``fig2_ablation``).
"""

from __future__ import annotations

import numpy as np

from ..baselines import build_method
from ..core.api import BayesFT
from ..data.registry import build_dataset
from ..data.loader import Dataset, train_test_split
from ..evaluation.robustness import RobustnessCurve
from ..evaluation.sweep import SweepReport
from ..models.registry import build_model
from ..utils.config import ExperimentConfig
from ..utils.rng import get_rng

__all__ = ["FIG3_PANELS", "run_classification_comparison"]


# panel id -> (model name, dataset name, num_classes, in_channels)
FIG3_PANELS = {
    "a_mlp_mnist": ("mlp", "mnist", 10, 1),
    "b_lenet_mnist": ("lenet", "mnist", 10, 1),
    "c_alexnet_cifar": ("alexnet", "cifar", 10, 3),
    "d_resnet18_cifar": ("resnet18", "cifar", 10, 3),
    "e_vgg11_cifar": ("vgg11", "cifar", 10, 3),
    "f_preact18_cifar": ("preact18", "cifar", 10, 3),
    "g_preact50_cifar": ("preact50", "cifar", 10, 3),
    "h_preact152_cifar": ("preact152", "cifar", 10, 3),
    "i_stn_gtsrb": ("stn", "gtsrb", 43, 3),
}

# The paper omits FTNA for the GTSRB/STN panel (Fig. 3i legend has no FTNA).
_PANEL_METHODS = {
    "default": ("erm", "ftna", "reram-v", "awp", "bayesft"),
    "i_stn_gtsrb": ("erm", "reram-v", "awp", "bayesft"),
}


def _make_dataset(name: str, config: ExperimentConfig, num_classes: int, rng) -> Dataset:
    total = config.train_samples + config.test_samples
    return build_dataset(name, n_samples=total, image_size=16,
                         num_classes=num_classes, rng=rng)


def _model_kwargs(model_name: str, config: ExperimentConfig) -> dict:
    kwargs = dict(config.extra.get("model_kwargs", {}))
    # Deep PreAct models get a width small enough for the CPU budget unless
    # the caller overrides it explicitly.
    if model_name in ("preact50", "preact152") and "width" not in kwargs:
        kwargs["width"] = 4
    return kwargs


def _cell_spec(panel: str, method_label: str, model_name: str, dataset_name: str,
               config: ExperimentConfig, seed: int, methods: tuple):
    """Identity of one (panel, method) sweep for the scenario result store.

    ``methods`` is part of the lineage: the harness threads one RNG through
    every method's model construction and training, so a cell's weights
    depend on which methods ran before it — a ``methods=(...)`` subset must
    hash differently from the full panel.  ``config`` carries the BO
    suggestion batch when it is not 1, so a q=2 panel never answers a q=1
    run; scheduling is the runner's and stays out of the spec.
    """
    from ..scenarios.spec import ScenarioSpec

    return ScenarioSpec(
        name=method_label, model=model_name, dataset=dataset_name,
        sigmas=tuple(config.sigma_grid), trials=config.drift_trials,
        seed=seed, train=config,
        context={"figure": f"fig3_{panel}", "harness_seed": seed,
                 "methods": list(methods)})


def run_classification_comparison(panel: str, config: ExperimentConfig | None = None,
                                  methods: tuple | None = None,
                                  seed: int = 0, runner=None) -> dict:
    """Run one Figure-3 panel and return its curves and summary statistics.

    Parameters
    ----------
    panel:
        One of :data:`FIG3_PANELS` (e.g. ``"a_mlp_mnist"``).
    config:
        Experiment scale; :meth:`ExperimentConfig.fast` keeps a panel under a
        minute on CPU.
    methods:
        Override the method list (default: the paper's set for that panel).
    runner:
        Optional :class:`~repro.scenarios.runner.ScenarioRunner`; its result
        store then caches each method's sweep, and its scheduling (sweep
        workers, chunk bound, ``search_workers`` for the BayesFT search)
        runs the panel.  The BO suggestion batch is
        ``config.extra["suggest_batch"]`` (default 1): it changes the
        search, so it is part of every cell's identity.
    """
    if panel not in FIG3_PANELS:
        raise ValueError(f"unknown panel {panel!r}; choose from {sorted(FIG3_PANELS)}")
    config = config or ExperimentConfig()
    rng = get_rng(seed)
    if runner is None:
        from ..scenarios.runner import ScenarioRunner
        runner = ScenarioRunner()  # no store: plain engine sweeps
    model_name, dataset_name, num_classes, in_channels = FIG3_PANELS[panel]
    methods = methods or _PANEL_METHODS.get(panel, _PANEL_METHODS["default"])

    dataset = _make_dataset(dataset_name, config, num_classes, rng)
    fraction = config.test_samples / (config.train_samples + config.test_samples)
    train_set, test_set = train_test_split(dataset, test_fraction=fraction, rng=rng)
    model_kwargs = _model_kwargs(model_name, config)

    curves: list[RobustnessCurve] = []
    reports: list[SweepReport] = []
    for method_name in methods:
        model = build_model(model_name, num_classes=num_classes,
                            in_channels=in_channels, image_size=16,
                            rng=rng, **model_kwargs)
        if method_name == "bayesft":
            searcher = BayesFT(sigma=float(config.extra.get("search_sigma", 0.6)),
                               n_trials=config.bo_trials,
                               epochs_per_trial=max(1, config.epochs // 2),
                               monte_carlo_samples=config.monte_carlo_samples,
                               batch_size=config.batch_size,
                               learning_rate=config.learning_rate,
                               momentum=config.momentum,
                               weight_optimizer=config.optimizer,
                               # High dropout on every conv layer can stop the
                               # short CPU training budget from learning at
                               # all; cap the search range accordingly.
                               max_dropout_rate=float(config.extra.get("max_dropout_rate", 0.5)),
                               # q shapes the search (it is in the config,
                               # so in every cell's hash); the worker count
                               # is the runner's scheduling.
                               suggest_batch=int(config.extra.get("suggest_batch", 1)),
                               search_workers=int(runner.search_workers or 0),
                               rng=rng)
            searcher.fit(model, train_set)
            label = "BayesFT"
        else:
            method = build_method(method_name, num_classes=num_classes,
                                  config=config, rng=rng)
            model = method.apply(model, train_set)
            label = method.name
        # Common random numbers across methods: every method's sweep sees the
        # same drift samples, making the Figure-3 comparison paired.  The
        # engine pre-draws all samples in the main process, so the pairing is
        # preserved for any worker count or chunk bound the runner uses (the
        # latter bounds memory for the deep PreAct panels).
        evaluation_rng = np.random.default_rng(seed + 77771)
        spec = _cell_spec(panel, label, model_name, dataset_name, config, seed,
                          methods)
        reports.append(runner.sweep_trained(model, test_set, spec,
                                            rng=evaluation_rng,
                                            scenario=f"fig3_{panel}"))
        curves.append(reports[-1].curve())

    return {
        "panel": panel,
        "model": model_name,
        "dataset": dataset_name,
        "sigmas": list(config.sigma_grid),
        "curves": curves,
        "sweep_reports": [report.as_dict() for report in reports],
        "summary": {curve.label: {"clean": curve.means[0],
                                  "worst": float(np.min(curve.means))}
                    for curve in curves},
    }
