"""Async trial scheduling for batched Bayesian-optimisation search.

:class:`AsyncTrialScheduler` turns the strictly sequential Algorithm-1 loop
into batch-synchronous concurrent search: the optimiser proposes ``q``
architectures at once (constant-liar fantasies,
:meth:`~repro.bayesopt.optimizer.BayesianOptimizer.suggest_batch`), the
batch fans out over a :class:`~repro.execution.search.SearchTrialPool`, and
the results are committed by **ordered observation replay** — observations
enter the GP and the trace in trial-index order, never in worker-completion
order.  Because the suggestion sequence depends only on the committed trace
and ``q`` (each batch slot draws from its own spawned RNG stream), and every
trial is a pure function of ``(α, base state, trial seed)``, a seeded
``(q, k)`` run produces exactly one canonical trace for *any* worker count
``k`` and any backend — the async counterpart of the sweep determinism
contract in :mod:`repro.execution`.

Every worker-side trial rebuilds all of its state from the shipped context
and its payload: the base weights are reloaded, every module-private RNG
(dropout mask generators live *outside* ``state_dict``) is reseeded from the
trial's spawned stream, and the objective is cloned with a private RNG and
cache.  Nothing a previous trial did to that worker can leak forward.

Early termination consumes the σ-grid in order: the σ=0 (clean) row is
nearly free, so it is measured first, and a trial whose clean utility
already sits ``early_stop_margin`` below the best *committed* objective is
dominated and skips the expensive ``T``-sample drifted sweep.  Its recorded
value is strictly below an objective the search has already banked, so a
terminated trial can never be reported as its run's winner.  The cut is a
*heuristic* on the clean reading, though: a pruned trial's drifted utility
is never measured, so with a tight margin the run may keep a different
winner than the exhaustive (no-margin) search would have — the margin
trades search fidelity for wall-clock.
"""

from __future__ import annotations

import resource
from contextlib import contextmanager

import numpy as np

from ..telemetry import current
from ..training.trainer import Trainer
from ..utils import heap
from .search_space import DropoutSearchSpace

__all__ = ["AsyncTrialScheduler"]


def _reseed_module_rngs(model, seed_seq: np.random.SeedSequence) -> None:
    """Give every RNG-bearing module a fresh stream spawned from ``seed_seq``.

    Dropout mask generators are module state *outside* ``state_dict()``, so
    reloading weights alone would leave each worker's mask streams wherever
    the previous trial advanced them — results would then depend on which
    worker a trial landed on.  ``named_modules()`` enumerates in model order,
    so stream assignment is deterministic.
    """
    bearers = [module for _, module in model.named_modules()
               if hasattr(module, "_rng")]
    for module, child in zip(bearers, seed_seq.spawn(len(bearers))):
        module._rng = np.random.default_rng(child)


@contextmanager
def train_span(telemetry, epochs: int):
    """The ``train`` span of one trial, plus its heap cost when tracing.

    A traced span records the process heap policy and adds the minor page
    faults taken inside it to the ``train_page_faults`` counter.
    """
    if not telemetry.enabled:
        yield
        return
    with telemetry.span("train", epochs=epochs, heap=heap.state,
                        mallopt_ok=heap.mallopt_ok):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        yield
        telemetry.add("train_page_faults",
                      resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                      - before)


def _execute_search_trial(context: dict, payload: dict) -> dict:
    """One search trial: load base weights, train with α, evaluate.

    Module-level so the pool ships it by reference; self-contained so the
    result is a pure function of the context plus this payload.  The three
    spawned sub-streams (module reseed / SGD shuffling / objective) make the
    trial reproducible bit-for-bit wherever it runs.

    A traced trial records one ``search_trial`` span (train / evaluate,
    with the objective's whole sweep hierarchy nested below); in a worker
    the pool ships that span back and grafts it under the batch's span.
    Telemetry rides outside every canonical field, so traced and untraced
    trials commit identical observations.
    """
    with current().span("search_trial", index=payload["index"]):
        return _search_trial_body(context, payload)


def _search_trial_body(context: dict, payload: dict) -> dict:
    model = context["model"]
    space = context.get("_space")
    if space is None:
        space = DropoutSearchSpace(
            model, max_rate=context["max_rate"],
            include_alpha_dropout=context["include_alpha_dropout"])
        context["_space"] = space

    reseed_seq, train_seq, eval_seq = \
        np.random.SeedSequence(payload["seed"]).spawn(3)
    model.load_state_dict(payload["base_state"])
    _reseed_module_rngs(model, reseed_seq)
    space.apply(payload["alpha"])

    trainer = Trainer(model, learning_rate=context["learning_rate"],
                      momentum=context["momentum"],
                      optimizer=context["weight_optimizer"],
                      rng=np.random.default_rng(train_seq))
    telemetry = current()
    with train_span(telemetry, context["epochs_per_trial"]):
        trainer.fit(context["train_dataset"],
                    epochs=context["epochs_per_trial"],
                    batch_size=context["batch_size"])

    objective = context["objective"].clone(rng=np.random.default_rng(eval_seq))
    baseline = payload.get("baseline")
    margin = context.get("early_stop_margin")
    if baseline is not None and margin is not None:
        with telemetry.span("evaluate", clean_only=True):
            clean = float(objective.evaluate_clean(model))
        # NaN-safe comparison: a diverged trial (NaN clean utility) is
        # dominated too and must terminate rather than run the full sweep.
        if not clean >= baseline - margin:
            telemetry.add("terminated_trials")
            return {"index": payload["index"], "value": clean, "clean": clean,
                    "terminated": True, "state": None,
                    "stats": {"evaluations": 0, "cache_hits": 0}}
    with telemetry.span("evaluate"):
        value, clean, _ = objective.evaluate_with_clean(model)
    return {"index": payload["index"], "value": float(value),
            "clean": float(clean), "terminated": False,
            "state": model.state_dict(),
            "stats": {"evaluations": objective.evaluations_total,
                      "cache_hits": objective.cache_hits_total}}


class AsyncTrialScheduler:
    """Batch-suggest, fan out, commit observations in trial-index order.

    Parameters
    ----------
    optimizer:
        Anything with ``suggest_batch(q)`` / ``observe(point, value)``
        (:class:`~repro.bayesopt.optimizer.BayesianOptimizer` or the random
        baseline).
    pool:
        A :class:`~repro.execution.search.SearchTrialPool` (or any object
        with the same ``run_batch`` contract — results carry an ``index``).
    suggest_batch:
        ``q``, the number of points proposed (and evaluated concurrently)
        per scheduling round.  The canonical trace depends on ``q`` but
        never on the pool's worker count.
    """

    def __init__(self, optimizer, pool, suggest_batch: int = 1):
        if suggest_batch < 1:
            raise ValueError("suggest_batch must be at least 1")
        self.optimizer = optimizer
        self.pool = pool
        self.suggest_batch = int(suggest_batch)
        self.batches_run = 0

    def run(self, n_trials: int, build_payload, commit) -> None:
        """Drive ``n_trials`` trials in batches of ``suggest_batch``.

        ``build_payload(index, alpha)`` is called at batch-build time (so it
        sees only *committed* state — the deterministic baseline for early
        termination and warm starts); ``commit(alpha, result)`` is called
        strictly in trial-index order after the matching observation has
        been replayed into the optimiser.
        """
        telemetry = current()
        completed = 0
        while completed < n_trials:
            q = min(self.suggest_batch, n_trials - completed)
            with telemetry.span("bo_batch", batch=self.batches_run, q=q):
                with telemetry.span("suggest_batch", q=q):
                    alphas = [np.asarray(alpha, dtype=np.float64)
                              for alpha in self.optimizer.suggest_batch(q)]
                payloads = [build_payload(completed + slot, alphas[slot])
                            for slot in range(q)]
                results = self.pool.run_batch(payloads)
                # Ordered observation replay: workers may finish in any
                # order (and a pool may even return them shuffled); the
                # trace is built from trial indices alone.
                for result in sorted(results, key=lambda r: r["index"]):
                    slot = result["index"] - completed
                    self.optimizer.observe(alphas[slot], result["value"])
                    commit(alphas[slot], result)
            completed += q
            self.batches_run += 1
