"""Figure 3(j): object-detection mAP under drift, ERM vs BayesFT.

The paper compares only ERM and BayesFT on PennFudanPed because the other
baselines do not transfer to detection.  BayesFT for the detector keeps the
same recipe: search the per-layer dropout rates of the TinyDetector for the
best drift-marginalised mAP, alternating with detector training.

Both test-set mAP sweeps run through the scenario runner (metric ``"map"``)
with a common, training-decoupled evaluation RNG, so the ERM-vs-BayesFT
comparison is paired — the same convention as the fig2/fig3 classification
harnesses — and a store-backed runner caches the sweeps.
"""

from __future__ import annotations

import numpy as np

from ..bayesopt.optimizer import BayesianOptimizer
from ..core.search_space import DropoutSearchSpace
from ..data.detection import SyntheticPedestrians
from ..evaluation.detection_metrics import mean_average_precision
from ..evaluation.sweep import DriftSweepEngine
from ..models.detection import TinyDetector
from ..training.trainer import train_detector
from ..utils.config import ExperimentConfig
from ..utils.rng import get_rng

__all__ = ["run_detection_comparison"]

#: Added to the harness seed for the paired evaluation RNG (kept distinct
#: from the fig2/fig3 offsets so the streams never collide).
_EVALUATION_SEED_OFFSET = 55551


def _cell_spec(method_label: str, config: ExperimentConfig, seed: int,
               sigmas: tuple, image_size: int, n_images: int):
    """Identity of one detection sweep for the scenario result store.

    Scheduling (sweep workers, chunk bound) is the runner's, never the
    cell's.
    """
    from ..scenarios.spec import ScenarioSpec

    return ScenarioSpec(
        name=method_label, model="detector", dataset="pedestrians",
        metric="map", sigmas=tuple(sigmas), trials=config.drift_trials,
        seed=seed, train=config, image_size=image_size,
        context={"figure": "fig3_detection", "harness_seed": seed,
                 "n_images": n_images})


def _drifted_map_objective(detector, samples, sigma, mc_samples, rng) -> float:
    """Monte-Carlo mAP under drift (the detection analogue of Eq. 4).

    Always serial: the objective runs once per BayesOpt trial with only
    ``mc_samples`` (1-2) evaluations, so per-call worker-pool startup would
    dwarf the work; the test-set sweeps below are where workers pay off.
    """
    engine = DriftSweepEngine(detector, samples, trials=mc_samples, rng=rng,
                              evaluate_fn=mean_average_precision)
    return engine.run([sigma]).means[0]


def run_detection_comparison(config: ExperimentConfig | None = None, seed: int = 0,
                             sigmas: tuple = (0.0, 0.2, 0.4, 0.6, 0.8),
                             image_size: int = 32, n_images: int = 48,
                             runner=None) -> dict:
    """Train ERM and BayesFT detectors and sweep mAP over σ."""
    config = config or ExperimentConfig()
    rng = get_rng(seed)
    if runner is None:
        from ..scenarios.runner import ScenarioRunner
        runner = ScenarioRunner()  # no store: plain engine sweeps
    dataset = SyntheticPedestrians(n_samples=n_images, image_size=image_size,
                                   max_pedestrians=2, rng=rng)
    train_samples, test_samples = dataset.split(test_fraction=0.3, rng=rng)
    detector_epochs = int(config.extra.get("detector_epochs", max(4, config.epochs * 2)))

    def _sweep(detector, label):
        # Common random numbers: both methods' sweeps see the same drift
        # samples, decoupled from the training streams.
        spec = _cell_spec(label, config, seed, sigmas, image_size, n_images)
        report = runner.sweep_trained(
            detector, test_samples, spec,
            rng=np.random.default_rng(seed + _EVALUATION_SEED_OFFSET),
            scenario="fig3_detection")
        return {"sigmas": list(report.sigmas), "means": list(report.means),
                "stds": list(report.stds), "label": label}

    # ------------------------------------------------------------------ #
    # ERM detector: plain training, no drift-awareness.
    erm_detector = TinyDetector(image_size=image_size, width=8, grid_size=8, rng=rng)
    train_detector(erm_detector, train_samples, epochs=detector_epochs,
                   learning_rate=0.01, rng=rng)
    erm_curve = _sweep(erm_detector, "ERM")

    # ------------------------------------------------------------------ #
    # BayesFT detector: alternate training with BO over the dropout rates.
    bayesft_detector = TinyDetector(image_size=image_size, width=8, grid_size=8,
                                    dropout_rate=0.0, rng=rng)
    space = DropoutSearchSpace(bayesft_detector)
    optimizer = BayesianOptimizer(space.bounds, rng=rng)
    search_sigma = float(config.extra.get("search_sigma", 0.4))
    best_state = None
    best_value = -np.inf
    epochs_per_trial = max(2, detector_epochs // max(config.bo_trials, 1))
    for _ in range(config.bo_trials):
        alpha = optimizer.suggest()
        space.apply(alpha)
        train_detector(bayesft_detector, train_samples, epochs=epochs_per_trial,
                       learning_rate=0.01, rng=rng)
        value = _drifted_map_objective(bayesft_detector, train_samples, search_sigma,
                                       config.monte_carlo_samples, rng)
        optimizer.observe(alpha, value)
        if value > best_value:
            best_value = value
            best_state = bayesft_detector.state_dict()
            best_alpha = np.asarray(alpha).copy()
    bayesft_detector.load_state_dict(best_state)
    space.apply(best_alpha)
    bayesft_curve = _sweep(bayesft_detector, "BayesFT")

    return {
        "sigmas": list(sigmas),
        "curves": [erm_curve, bayesft_curve],
        "best_alpha": best_alpha.tolist(),
        "search_objective": best_value,
    }
