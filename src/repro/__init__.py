"""BayesFT reproduction: Bayesian optimisation for fault-tolerant neural networks.

Reproduces "BayesFT: Bayesian Optimization for Fault Tolerant Neural Network
Architecture" (Ye et al., DAC 2021) end-to-end on a from-scratch numpy
substrate:

* :mod:`repro.nn` — autograd tensor, layers, losses, optimisers;
* :mod:`repro.models` — the paper's model zoo (MLP, LeNet, AlexNet, VGG,
  ResNet, PreAct-ResNets, spatial transformer, TinyDetector);
* :mod:`repro.fault` / :mod:`repro.reram` — memristance-drift fault models
  and a crossbar-level hardware substrate;
* :mod:`repro.bayesopt` — Gaussian-process Bayesian optimisation;
* :mod:`repro.core` — the BayesFT search (Algorithm 1);
* :mod:`repro.baselines` — ERM, ReRAM-V, AWP, FTNA;
* :mod:`repro.data` — synthetic stand-ins for MNIST/CIFAR-10/GTSRB/PennFudanPed;
* :mod:`repro.evaluation` / :mod:`repro.experiments` — robustness sweeps and
  per-figure harnesses;
* :mod:`repro.execution` — pluggable execution backends (serial, process
  pool, shared-memory weight shipping) and scenario-cell fan-out;
* :mod:`repro.telemetry` — unified tracing, metrics and progress across all
  of the above (spans, counters, JSONL export, ``trace summarize``);
* :mod:`repro.scenarios` — declarative experiment cells, the fault-model and
  scenario registries, the on-disk result store and the ``python -m repro``
  CLI.

Importing the package sets this process's glibc heap policy once
(:mod:`repro.utils.heap`).
"""

from .utils.heap import retain_freed_memory

# Before anything else allocates: freed training buffers stay in the heap
# for the next step (see repro.utils.heap).
retain_freed_memory()

from . import nn, models, fault, reram, bayesopt, core, baselines, data, evaluation
from . import execution, telemetry, training, experiments, scenarios, utils
from .core import BayesFT
from .utils.config import ExperimentConfig
from .utils.rng import seed_everything

__version__ = "1.1.0"

__all__ = [
    "nn", "models", "fault", "reram", "bayesopt", "core", "baselines", "data",
    "evaluation", "execution", "telemetry", "training", "experiments",
    "scenarios", "utils",
    "BayesFT", "ExperimentConfig", "seed_everything",
    "__version__",
]
