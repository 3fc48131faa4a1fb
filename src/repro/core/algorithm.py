"""Algorithm 1: alternating weight training and Bayesian architecture search.

Each outer iteration (a "trial") does:

1. train the network weights θ for ``epochs_per_trial`` epochs of SGD with
   the current dropout rates α (Algorithm 1, lines 5–7);
2. estimate the drift-marginalised objective u(α, θ) with Monte-Carlo
   sampling (Eq. 4);
3. feed (α, u) to the Gaussian-process surrogate and pick the next α by
   maximising the acquisition function (lines 8–9).

The best (α, θ) pair seen — judged by the drifted objective — is returned.

With ``suggest_batch=q`` / ``search_workers=k`` the loop runs *batch-
synchronously*: ``q`` architectures are proposed at once (constant-liar
fantasies) and evaluated concurrently over ``k`` worker processes, with
observations committed by ordered replay (:mod:`repro.core.scheduler`) so
the seeded trace depends on ``q`` but never on ``k``, the backend, or which
worker finished first.  ``q=1, k≤1`` takes the original sequential path,
bit-identical to what it always produced.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from ..bayesopt.optimizer import BayesianOptimizer
from ..bayesopt.acquisition import AcquisitionFunction
from ..bayesopt.random_search import RandomSearchOptimizer
from ..data.loader import Dataset
from ..execution.search import SearchTrialPool
from ..nn.module import Module
from ..telemetry import current
from ..training.trainer import Trainer
from ..utils.rng import get_rng
from .objective import DriftMarginalizedObjective
from .scheduler import AsyncTrialScheduler, _execute_search_trial, train_span
from .search_space import DropoutSearchSpace

__all__ = ["BayesFTSearch", "BayesFTResult"]


def _state_sha256(state: dict) -> str:
    """Content digest of a ``state_dict`` (key-sorted, dtype/shape-tagged)."""
    digest = hashlib.sha256()
    for key in sorted(state):
        array = np.ascontiguousarray(state[key])
        digest.update(key.encode())
        digest.update(str(array.dtype).encode())
        digest.update(str(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


@dataclass
class BayesFTResult:
    """Outcome of a BayesFT search.

    ``objective_stats`` summarises the inner Monte-Carlo evaluation work:
    ``evaluations`` is the number of model evaluations the sweep engine
    actually ran and ``cache_hits`` how many trials the inference cache
    answered without running the model (evaluations saved).

    ``trial_terminated`` marks trials the async scheduler cut short from the
    partial σ-grid (clean row only); their recorded objective is the clean
    value, which by construction sits below an already-committed objective,
    so a terminated trial is never the winner.  ``search_stats`` holds
    volatile scheduling accounting (backend, worker count, tasks shipped) —
    like the sweep reports' scheduling fields it is excluded from
    :meth:`canonical_dict`.
    """

    best_alpha: np.ndarray
    best_objective: float
    best_state: dict
    trial_alphas: list = field(default_factory=list)
    trial_objectives: list = field(default_factory=list)
    clean_objectives: list = field(default_factory=list)
    objective_stats: dict = field(default_factory=dict)
    trial_terminated: list = field(default_factory=list)
    search_stats: dict = field(default_factory=dict)

    @property
    def num_trials(self) -> int:
        return len(self.trial_objectives)

    def improvement_over_first(self) -> float:
        """Objective gain of the best trial over the first (random) trial."""
        if not self.trial_objectives:
            return 0.0
        return float(self.best_objective - self.trial_objectives[0])

    def canonical_dict(self) -> dict:
        """Deterministic projection for byte-comparison across schedules.

        Two seeded searches are equivalent iff this dict serialises to the
        same JSON — the ``SweepReport.canonical_dict`` contract lifted to
        whole searches.  The trained weights enter as a content digest so
        the comparison covers them without serialising megabytes.
        """
        return {
            "best_alpha": [float(x) for x in np.asarray(self.best_alpha)],
            "best_objective": float(self.best_objective),
            "best_state_sha256": _state_sha256(self.best_state),
            "trial_alphas": [[float(x) for x in alpha]
                             for alpha in self.trial_alphas],
            "trial_objectives": [float(v) for v in self.trial_objectives],
            "clean_objectives": [float(v) for v in self.clean_objectives],
            "trial_terminated": [bool(t) for t in self.trial_terminated],
            "objective_stats": {key: int(value) for key, value
                                in sorted(self.objective_stats.items())},
        }

    def to_json(self) -> str:
        """Canonical JSON (sorted keys, no whitespace); byte-comparable."""
        return json.dumps(self.canonical_dict(), sort_keys=True,
                          separators=(",", ":"))


class BayesFTSearch:
    """Algorithm 1 of the paper.

    Parameters
    ----------
    search_space:
        A :class:`DropoutSearchSpace` wrapping the model to optimise.
    objective:
        The drift-marginalised objective (Eq. 3–4) on validation data.
    train_dataset:
        Training data for the inner SGD loop.
    epochs_per_trial:
        ``E`` in Algorithm 1.
    optimizer_kind:
        ``"bayes"`` (GP surrogate, the paper) or ``"random"`` (ablation
        baseline: random search over α with the same trial budget).
    warm_start:
        If True (default) each trial fine-tunes the weights from the current
        best state instead of re-initialising, which matches the alternating
        formulation of Algorithm 1 and saves compute.  If False, every trial
        retrains from the stored initial weights.  Under async scheduling
        every trial of a batch starts from the best state *committed before
        the batch was built* (the initial weights for batch 0).
    suggest_batch:
        ``q``: architectures proposed per scheduling round via constant-liar
        batch suggestion.  ``1`` (default) keeps the sequential loop, which
        is bit-identical to the pre-async implementation.
    search_workers:
        ``k``: worker processes evaluating a batch concurrently.  ``0``/``1``
        evaluates the batch in-process.  Never changes seeded results — the
        canonical trace depends only on ``q``.
    search_backend:
        ``None`` derives ``"process"``/``"serial"`` from ``search_workers``;
        otherwise a name from
        :data:`~repro.execution.search.SEARCH_BACKENDS`.  Never changes
        seeded results.
    early_stop_margin:
        If set (async mode only), a trial whose σ=0 clean utility falls more
        than this margin below the best committed objective is terminated
        without running the ``T``-sample drifted sweep; its recorded value
        is then the clean utility, flagged in ``trial_terminated``.  By
        construction a terminated trial can never become the winner.
    """

    def __init__(self, search_space: DropoutSearchSpace,
                 objective: DriftMarginalizedObjective,
                 train_dataset: Dataset, epochs_per_trial: int = 2,
                 batch_size: int = 64, learning_rate: float = 0.05,
                 momentum: float = 0.9, weight_optimizer: str = "sgd",
                 optimizer_kind: str = "bayes",
                 acquisition: AcquisitionFunction | None = None,
                 warm_start: bool = True, rng=None,
                 suggest_batch: int = 1, search_workers: int = 0,
                 search_backend: str | None = None,
                 early_stop_margin: float | None = None):
        if optimizer_kind not in ("bayes", "random"):
            raise ValueError("optimizer_kind must be 'bayes' or 'random'")
        if suggest_batch < 1:
            raise ValueError("suggest_batch must be at least 1")
        if search_workers < 0:
            raise ValueError("search_workers must be non-negative")
        if early_stop_margin is not None and early_stop_margin < 0:
            raise ValueError("early_stop_margin must be non-negative")
        self.search_space = search_space
        self.objective = objective
        self.train_dataset = train_dataset
        self.epochs_per_trial = int(epochs_per_trial)
        self.batch_size = int(batch_size)
        self.learning_rate = float(learning_rate)
        self.momentum = float(momentum)
        self.weight_optimizer = weight_optimizer
        self.warm_start = warm_start
        self.rng = get_rng(rng)
        self.suggest_batch = int(suggest_batch)
        self.search_workers = int(search_workers)
        self.search_backend = search_backend
        self.early_stop_margin = early_stop_margin
        bounds = search_space.bounds
        if optimizer_kind == "bayes":
            self.optimizer = BayesianOptimizer(bounds, acquisition=acquisition,
                                               rng=self.rng)
        else:
            self.optimizer = RandomSearchOptimizer(bounds, rng=self.rng)

    # ------------------------------------------------------------------ #
    @property
    def model(self) -> Module:
        return self.search_space.model

    def _train_weights(self) -> None:
        trainer = Trainer(self.model, learning_rate=self.learning_rate,
                          momentum=self.momentum, optimizer=self.weight_optimizer,
                          rng=self.rng)
        trainer.fit(self.train_dataset, epochs=self.epochs_per_trial,
                    batch_size=self.batch_size)

    def run(self, n_trials: int = 10) -> BayesFTResult:
        """Execute the alternating optimisation for ``n_trials`` trials.

        ``suggest_batch=1`` with at most one worker takes the sequential
        path — bit-identical to the pre-async implementation; anything else
        runs batch-synchronously through :class:`AsyncTrialScheduler`.
        """
        if n_trials < 1:
            raise ValueError("n_trials must be at least 1")
        if self.suggest_batch == 1 and self.search_workers <= 1:
            return self._run_sequential(n_trials)
        return self._run_async(n_trials)

    def _run_sequential(self, n_trials: int) -> BayesFTResult:
        initial_state = self.model.state_dict()
        best_alpha: np.ndarray | None = None
        best_objective = -np.inf
        best_state: dict | None = None
        trial_alphas: list[np.ndarray] = []
        trial_objectives: list[float] = []
        clean_objectives: list[float] = []

        telemetry = current()
        for index in range(n_trials):
            with telemetry.span("bo_trial", index=index):
                with telemetry.span("suggest"):
                    alpha = np.asarray(self.optimizer.suggest(),
                                       dtype=np.float64)
                self.search_space.apply(alpha)
                if not self.warm_start:
                    self.model.load_state_dict(initial_state)
                with train_span(telemetry, self.epochs_per_trial):
                    self._train_weights()
                # One engine run measures the drifted utility (Eq. 4) and
                # the clean diagnostic together; the inference cache
                # collapses the σ=0 trials to a single model evaluation.
                with telemetry.span("evaluate"):
                    if hasattr(self.objective, "evaluate_with_clean"):
                        value, clean_value, _ = \
                            self.objective.evaluate_with_clean(self.model)
                    else:  # custom objective without the engine fast path
                        value = self.objective.evaluate(self.model)
                        clean_value = self.objective.evaluate_clean(self.model)
            clean_objectives.append(clean_value)
            self.optimizer.observe(alpha, value)
            trial_alphas.append(alpha.copy())
            trial_objectives.append(value)
            if value > best_objective:
                best_objective = value
                best_alpha = alpha.copy()
                best_state = self.model.state_dict()

        # Leave the model configured with the best architecture and weights.
        self.search_space.apply(best_alpha)
        self.model.load_state_dict(best_state)
        stats = {}
        if hasattr(self.objective, "evaluations_total"):
            stats = {"evaluations": self.objective.evaluations_total,
                     "cache_hits": self.objective.cache_hits_total}
        return BayesFTResult(best_alpha=best_alpha, best_objective=best_objective,
                             best_state=best_state, trial_alphas=trial_alphas,
                             trial_objectives=trial_objectives,
                             clean_objectives=clean_objectives,
                             objective_stats=stats,
                             trial_terminated=[False] * len(trial_objectives))

    def _run_async(self, n_trials: int) -> BayesFTResult:
        """Batch-synchronous concurrent search (see :mod:`repro.core.scheduler`).

        All scheduling decisions are functions of *committed* state only:
        the warm-start base and the early-termination baseline for a batch
        are fixed when the batch is built, and observations are replayed in
        trial-index order — which is why the canonical result depends on
        ``suggest_batch`` but not on ``search_workers``, the backend, or
        worker completion order.
        """
        for required in ("clone", "evaluate_with_clean", "evaluate_clean"):
            if not hasattr(self.objective, required):
                raise TypeError(
                    f"async search needs an engine-backed objective with "
                    f"{required}() (e.g. DriftMarginalizedObjective); pass "
                    f"suggest_batch=1, search_workers=0 for custom objectives")
        initial_state = self.model.state_dict()
        # One root draw keeps self.rng's consumption independent of q and k;
        # each trial's work is derived from its own spawned stream.
        root = np.random.SeedSequence(int(self.rng.integers(0, 2 ** 63 - 1)))
        trial_seeds = [int(child.generate_state(1)[0])
                       for child in root.spawn(n_trials)]
        context = {
            "model": self.model,
            "train_dataset": self.train_dataset,
            "objective": self.objective,
            "learning_rate": self.learning_rate,
            "momentum": self.momentum,
            "weight_optimizer": self.weight_optimizer,
            "epochs_per_trial": self.epochs_per_trial,
            "batch_size": self.batch_size,
            "max_rate": self.search_space.max_rate,
            "include_alpha_dropout": getattr(
                self.search_space, "include_alpha_dropout", True),
            "early_stop_margin": self.early_stop_margin,
            # Plain flag, not a tracer: workers build their own session and
            # ship span/counter snapshots back with each trial result.
            "trace": current().enabled,
        }
        pool = SearchTrialPool(_execute_search_trial, context,
                               workers=self.search_workers,
                               backend=self.search_backend)
        # Worker-side sweeps report their own (serial) worker counts; the
        # search pool's width is the figure that makes worker utilisation
        # in `trace summarize` honest.
        current().gauge("workers", pool.workers)
        best_alpha: np.ndarray | None = None
        best_objective = -np.inf
        best_state: dict | None = None
        trial_alphas: list[np.ndarray] = []
        trial_objectives: list[float] = []
        clean_objectives: list[float] = []
        trial_terminated: list[bool] = []
        stats = {"evaluations": 0, "cache_hits": 0}

        def build_payload(index: int, alpha: np.ndarray) -> dict:
            base = initial_state
            if self.warm_start and best_state is not None:
                base = best_state
            baseline = best_objective if best_state is not None else None
            return {"index": index, "alpha": alpha,
                    "seed": trial_seeds[index], "base_state": base,
                    "baseline": baseline}

        def commit(alpha: np.ndarray, result: dict) -> None:
            nonlocal best_alpha, best_objective, best_state
            trial_alphas.append(alpha.copy())
            trial_objectives.append(result["value"])
            clean_objectives.append(result["clean"])
            trial_terminated.append(result["terminated"])
            stats["evaluations"] += result["stats"]["evaluations"]
            stats["cache_hits"] += result["stats"]["cache_hits"]
            if result["value"] > best_objective and result["state"] is not None:
                best_objective = result["value"]
                best_alpha = alpha.copy()
                best_state = result["state"]

        scheduler = AsyncTrialScheduler(self.optimizer, pool,
                                        suggest_batch=self.suggest_batch)
        try:
            scheduler.run(n_trials, build_payload, commit)
        finally:
            pool.close()
        if best_state is None:
            raise ValueError("every trial returned a non-finite objective; "
                             "no winning architecture to report")
        # Leave the model configured with the best architecture and weights.
        self.search_space.apply(best_alpha)
        self.model.load_state_dict(best_state)
        return BayesFTResult(
            best_alpha=best_alpha, best_objective=best_objective,
            best_state=best_state, trial_alphas=trial_alphas,
            trial_objectives=trial_objectives,
            clean_objectives=clean_objectives, objective_stats=stats,
            trial_terminated=trial_terminated,
            search_stats={"used_backend": pool.used_backend,
                          "workers": pool.workers,
                          "tasks_shipped": pool.tasks_shipped,
                          "fell_back": pool.fell_back,
                          "fallback_reason": pool.fallback_reason,
                          "suggest_batch": self.suggest_batch,
                          "batches": scheduler.batches_run,
                          "terminated_trials": int(sum(trial_terminated))})
