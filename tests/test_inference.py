"""Tests for the trial-batched inference layer (`repro.inference`).

The load-bearing guarantee is batching equivalence: a seeded sweep produces
a byte-identical canonical report whether trials are evaluated one forward
pass at a time or stacked `trial_batch` at a time — across every execution
backend, worker count and chunk size, σ=0 cache fast path and ragged
remainder batches included, and for conv + BatchNorm models whose batched
forward exercises the stacked GEMM paths.  On top of that: the evaluator
contract (fallbacks, protocol detection, error paths), the batched-capable
metrics, the `trial_batch` knob on the BayesFT objective and the ReRAM
program-and-verify deployment, spec-hash invariance, and the shared-memory
dataset publication that rides along in the backends.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import SyntheticCIFAR, SyntheticMNIST, train_test_split
from repro.evaluation import DriftSweepEngine
from repro.fault.drift import LogNormalDrift
from repro.fault.injector import FaultInjector
from repro.inference import (
    AccuracyAndLoss, ClassificationAccuracy, InferenceEvaluator,
    PerTrialEvaluator, TrialBatchedEvaluator, resolve_evaluator,
)
from repro.models import build_mlp
from repro.training import train_classifier


@pytest.fixture(scope="module")
def trained():
    dataset = SyntheticMNIST(n_samples=200, image_size=16, rng=13)
    train_set, test_set = train_test_split(dataset, test_fraction=0.3, rng=13)
    model = build_mlp(256, depth=3, width=32, num_classes=10, rng=13)
    train_classifier(model, train_set, epochs=3, learning_rate=0.1, rng=13)
    return model, test_set


@pytest.fixture(scope="module")
def trained_lenet():
    from repro.models.registry import build_model

    dataset = SyntheticMNIST(n_samples=120, image_size=16, rng=7)
    train_set, test_set = train_test_split(dataset, test_fraction=0.4, rng=7)
    model = build_model("lenet", num_classes=10, in_channels=1,
                        image_size=16, rng=np.random.default_rng(7))
    train_classifier(model, train_set, epochs=1, learning_rate=0.05, rng=7)
    return model, test_set.subset(np.arange(16))


@pytest.fixture(scope="module")
def trained_preact():
    from repro.models.registry import build_model

    dataset = SyntheticCIFAR(n_samples=60, image_size=16, rng=0)
    train_set, test_set = train_test_split(dataset, test_fraction=0.5, rng=0)
    model = build_model("preact18", num_classes=10, in_channels=3,
                        image_size=16, rng=np.random.default_rng(0))
    train_classifier(model, train_set, epochs=1, learning_rate=0.05, rng=0)
    return model, test_set.subset(np.arange(8))


def _pending(model, trials, seed=0, sigma=0.8):
    """Pre-drawn `digest -> params` trials plus the snapshotted injector."""
    injector = FaultInjector(model, LogNormalDrift(sigma),
                             rng=np.random.default_rng(seed))
    injector.snapshot()
    drawn = injector.draw_trials(trials)
    pending = {f"trial-{index}": {name: arrays[index]
                                  for name, arrays in drawn.items()}
               for index in range(trials)}
    return injector, pending


# --------------------------------------------------------------------------- #
class TestResolveEvaluator:
    def test_none_and_one_resolve_per_trial(self):
        assert isinstance(resolve_evaluator(None), PerTrialEvaluator)
        assert isinstance(resolve_evaluator(1), PerTrialEvaluator)

    def test_batched_resolution_carries_the_batch_size(self):
        evaluator = resolve_evaluator(4)
        assert isinstance(evaluator, TrialBatchedEvaluator)
        assert evaluator.trial_batch == 4

    def test_invalid_batch_sizes_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            resolve_evaluator(0)
        with pytest.raises(ValueError, match="at least 1"):
            TrialBatchedEvaluator(0)

    def test_abstract_contract_raises(self, trained):
        model, test_set = trained
        with pytest.raises(NotImplementedError):
            InferenceEvaluator().run(model, test_set, lambda m, d: 0.0,
                                     {}, lambda params: None)


class TestEvaluatorEquivalence:
    """Batched and per-trial evaluators agree bit for bit."""

    def _scores(self, evaluator, model, data, pending, injector):
        results = evaluator.run(model, data, ClassificationAccuracy(),
                                pending, injector.apply_trial)
        return [(result.digest, result.score) for result in results]

    @pytest.mark.parametrize("trials,batch", [(6, 6), (5, 2), (5, 3), (7, 4)],
                             ids=lambda v: str(v))
    def test_mlp_scores_identical_including_ragged_groups(self, trained,
                                                          trials, batch):
        model, test_set = trained
        injector, pending = _pending(model, trials)
        try:
            per = self._scores(PerTrialEvaluator(), model, test_set,
                               pending, injector)
            bat = self._scores(TrialBatchedEvaluator(batch), model, test_set,
                               pending, injector)
        finally:
            injector.restore()
        assert per == bat

    def test_lenet_scores_identical(self, trained_lenet):
        model, data = trained_lenet
        injector, pending = _pending(model, 5, seed=3)
        try:
            per = self._scores(PerTrialEvaluator(), model, data,
                               pending, injector)
            bat = self._scores(TrialBatchedEvaluator(5), model, data,
                               pending, injector)
        finally:
            injector.restore()
        assert per == bat

    def test_preact_scores_identical(self, trained_preact):
        """Conv + BatchNorm + residual adds through the stacked paths."""
        model, data = trained_preact
        injector, pending = _pending(model, 4, seed=5, sigma=0.5)
        try:
            per = self._scores(PerTrialEvaluator(), model, data,
                               pending, injector)
            bat = self._scores(TrialBatchedEvaluator(4), model, data,
                               pending, injector)
        finally:
            injector.restore()
        assert per == bat

    def test_batched_results_flagged(self, trained):
        model, test_set = trained
        injector, pending = _pending(model, 4)
        try:
            results = TrialBatchedEvaluator(2).run(
                model, test_set, ClassificationAccuracy(), pending,
                injector.apply_trial)
        finally:
            injector.restore()
        assert all(result.batched for result in results)
        assert [result.digest for result in results] == list(pending)

    def test_weights_restorable_after_stacked_install(self, trained):
        model, test_set = trained
        before = model.state_dict()
        injector, pending = _pending(model, 4)
        try:
            TrialBatchedEvaluator(4).run(model, test_set,
                                         ClassificationAccuracy(), pending,
                                         injector.apply_trial)
        finally:
            injector.restore()
        after = model.state_dict()
        for key in before:
            np.testing.assert_array_equal(before[key], after[key])


class TestEvaluatorFallbacks:
    def test_plain_function_falls_back_per_trial(self, trained):
        """No ``evaluate_trials`` protocol → the historical per-trial loop."""
        model, test_set = trained
        injector, pending = _pending(model, 4)
        accuracy = ClassificationAccuracy()

        def plain(m, d):
            return accuracy(m, d)

        try:
            results = TrialBatchedEvaluator(4).run(model, test_set, plain,
                                                   pending,
                                                   injector.apply_trial)
            reference = PerTrialEvaluator().run(model, test_set, plain,
                                                dict(pending),
                                                injector.apply_trial)
        finally:
            injector.restore()
        assert not any(result.batched for result in results)
        assert ([(r.digest, r.score) for r in results]
                == [(r.digest, r.score) for r in reference])

    def test_heterogeneous_parameter_sets_fall_back(self, trained):
        """Trials drifting different parameter subsets cannot be stacked."""
        model, test_set = trained
        injector, pending = _pending(model, 3)
        digests = list(pending)
        # Drop one parameter from the middle trial: its keyset now differs.
        dropped = dict(pending[digests[1]])
        dropped.pop(next(iter(dropped)))
        pending[digests[1]] = dropped
        try:
            results = TrialBatchedEvaluator(3).run(
                model, test_set, ClassificationAccuracy(), pending,
                injector.apply_trial)
            reference = PerTrialEvaluator().run(
                model, test_set, ClassificationAccuracy(), dict(pending),
                injector.apply_trial)
        finally:
            injector.restore()
        assert not any(result.batched for result in results)
        assert ([(r.digest, r.score) for r in results]
                == [(r.digest, r.score) for r in reference])

    def test_metric_count_mismatch_raises(self, trained):
        model, test_set = trained
        injector, pending = _pending(model, 2)

        class Broken:
            def __call__(self, m, d):
                return 0.0

            def evaluate_trials(self, m, d, trials):
                return [0.0]  # always one result, whatever was asked

        try:
            with pytest.raises(RuntimeError, match="evaluate_trials"):
                TrialBatchedEvaluator(2).run(model, test_set, Broken(),
                                             pending, injector.apply_trial)
        finally:
            injector.restore()


# --------------------------------------------------------------------------- #
class TestMetrics:
    def test_classification_accuracy_matches_robustness_accuracy(self, trained):
        from repro.evaluation.robustness import accuracy

        model, test_set = trained
        assert ClassificationAccuracy()(model, test_set) == accuracy(
            model, test_set)

    def test_accuracy_and_loss_batched_protocol_bit_identical(self, trained):
        model, test_set = trained
        injector, pending = _pending(model, 3)
        metric = AccuracyAndLoss()
        digests = list(pending)
        try:
            reference = []
            for digest in digests:
                injector.apply_trial(pending[digest])
                reference.append(metric(model, test_set))
            stacked = {name: np.stack([pending[d][name] for d in digests])
                       for name in pending[digests[0]]}
            injector.apply_trial(stacked)
            batched = metric.evaluate_trials(model, test_set, len(digests))
        finally:
            injector.restore()
        assert reference == batched  # scores AND losses, bit for bit

    def test_classification_accuracy_respects_loader_batches(self, trained):
        """Tiled evaluation keeps the per-sample batch boundaries."""
        model, test_set = trained
        injector, pending = _pending(model, 3)
        small = ClassificationAccuracy(batch_size=16)  # forces several batches
        try:
            per = PerTrialEvaluator().run(model, test_set, small,
                                          dict(pending), injector.apply_trial)
            bat = TrialBatchedEvaluator(3).run(model, test_set, small,
                                               pending, injector.apply_trial)
        finally:
            injector.restore()
        assert ([(r.digest, r.score) for r in per]
                == [(r.digest, r.score) for r in bat])


class TestTrialBatchingContext:
    def test_rejects_non_positive_counts(self):
        from repro.nn.functional import trial_batching

        with pytest.raises(ValueError, match="at least one"):
            with trial_batching(0):
                pass

    def test_inference_only(self, trained):
        from repro.nn.functional import trial_batching
        from repro.nn.tensor import Tensor

        model, test_set = trained
        tiled = np.concatenate([test_set.inputs[:4]] * 2, axis=0)
        with trial_batching(2):
            with pytest.raises(RuntimeError, match="no_grad"):
                model(Tensor(tiled))  # gradient recording still enabled

    def test_batch_must_tile_trial_major(self, trained):
        from repro.nn.functional import trial_batching
        from repro.nn.tensor import Tensor, no_grad

        model, test_set = trained
        with no_grad(), trial_batching(3):
            with pytest.raises(ValueError, match="multiple of 3"):
                model(Tensor(test_set.inputs[:4]))  # 4 rows, 3 trials

    def test_count_restored_after_context(self):
        from repro.nn.functional import trial_batching, trial_count

        assert trial_count() == 1
        with trial_batching(5):
            assert trial_count() == 5
        assert trial_count() == 1


# --------------------------------------------------------------------------- #
class TestSweepEquivalence:
    """`trial_batch` is a pure scheduling knob at the engine level."""

    SIGMAS = (0.0, 0.6, 1.2)  # σ=0 exercises the deterministic-drift fast path

    def _canonical(self, trained, trials=5, **kwargs) -> str:
        model, test_set = trained
        report = DriftSweepEngine(model, test_set, trials=trials, rng=99,
                                  **kwargs).run(self.SIGMAS, label="equiv")
        return report.to_json(canonical=True)

    @pytest.mark.parametrize("kwargs", [
        dict(trial_batch=1),
        dict(trial_batch=3),
        dict(trial_batch=5),                    # == trials: one full stack
        dict(trial_batch=7),                    # > trials: one ragged stack
        dict(trial_batch=3, max_chunk_trials=2),
        dict(trial_batch=2, workers=2),
        dict(trial_batch=3, workers=2, backend="process"),
        dict(trial_batch=3, workers=2, backend="shared_memory"),
        dict(trial_batch=5, workers=3, backend="shared_memory",
             max_chunk_trials=3),
    ], ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
    def test_byte_identical_canonical_reports(self, trained, kwargs):
        assert (self._canonical(trained, **kwargs)
                == self._canonical(trained))

    def test_lenet_sweep_identical_when_batched(self, trained_lenet):
        base = self._canonical(trained_lenet, trials=4)
        assert self._canonical(trained_lenet, trials=4,
                               trial_batch=4) == base

    def test_engine_rejects_invalid_trial_batch(self, trained):
        model, test_set = trained
        with pytest.raises(ValueError, match="trial_batch"):
            DriftSweepEngine(model, test_set, trial_batch=0)

    def test_batched_evaluations_counted(self, trained):
        model, test_set = trained
        report = DriftSweepEngine(model, test_set, trials=4, rng=21,
                                  trial_batch=4).run((0.0, 0.9))
        # σ=0 collapses to one (unbatched) evaluation; σ=0.9's four unique
        # trials run as one stacked group.
        assert report.trial_batch == 4
        assert report.batched_evaluations == 4
        assert report.n_evaluations == 5

    def test_trial_batch_fields_are_volatile(self, trained):
        model, test_set = trained
        report = DriftSweepEngine(model, test_set, trials=3, rng=1,
                                  trial_batch=3).run((0.7,))
        full = report.as_dict()
        assert full["trial_batch"] == 3 and full["batched_evaluations"] == 3
        canonical = report.canonical_dict()
        assert "trial_batch" not in canonical
        assert "batched_evaluations" not in canonical

    def test_legacy_report_dicts_still_load(self):
        from repro.evaluation.sweep import SweepReport

        legacy = SweepReport(label="old", sigmas=[0.5], means=[0.9],
                             stds=[0.0]).as_dict()
        legacy.pop("trial_batch")
        legacy.pop("batched_evaluations")
        report = SweepReport.from_dict(legacy)
        assert report.trial_batch is None and report.batched_evaluations == 0


# --------------------------------------------------------------------------- #
class TestObjectiveTrialBatch:
    def test_objective_identical_with_trial_batch(self, trained):
        from repro.core.objective import DriftMarginalizedObjective

        model, test_set = trained
        values = {}
        for trial_batch in (None, 3):
            objective = DriftMarginalizedObjective(
                test_set, sigma=0.7, monte_carlo_samples=3, rng=11,
                trial_batch=trial_batch)
            values[trial_batch] = objective.evaluate_with_clean(model)[:2]
        assert values[None] == values[3]

    def test_objective_batch_composes_with_shared_memory(self, trained):
        from repro.core.objective import DriftMarginalizedObjective

        model, test_set = trained
        serial = DriftMarginalizedObjective(
            test_set, sigma=0.7, monte_carlo_samples=4, rng=2)
        pooled = DriftMarginalizedObjective(
            test_set, sigma=0.7, monte_carlo_samples=4, rng=2,
            sweep_workers=2, sweep_backend="shared_memory", trial_batch=2)
        assert serial.evaluate(model) == pooled.evaluate(model)

    def test_bayesft_api_forwards_trial_batch(self):
        from repro.core.api import BayesFT

        assert BayesFT(trial_batch=4).trial_batch == 4


class TestDeployTrialBatch:
    def _model(self):
        return build_mlp(64, depth=2, width=12, num_classes=4, rng=0)

    def _data(self):
        dataset = SyntheticMNIST(n_samples=40, image_size=8, rng=2)
        _, test_set = train_test_split(dataset, test_fraction=0.5, rng=2)
        return test_set

    def test_program_and_verify_identical_when_batched(self):
        from repro.reram import deploy_on_reram

        reference_model, batched_model = self._model(), self._model()
        reference = deploy_on_reram(reference_model, rng=4, trials=3,
                                    validate_data=self._data())
        batched = deploy_on_reram(batched_model, rng=4, trials=3,
                                  validate_data=self._data(), trial_batch=3)
        assert batched.candidate_scores == reference.candidate_scores
        assert batched.selected_trial == reference.selected_trial
        for (name, expected), (_, got) in zip(
                reference_model.named_parameters(),
                batched_model.named_parameters()):
            np.testing.assert_array_equal(expected.data, got.data)


class TestSpecTrialBatch:
    def test_trial_batch_never_enters_the_spec_hash(self):
        from repro.scenarios import ScenarioSpec
        from repro.scenarios.runner import ScenarioRunner

        spec = ScenarioSpec(name="cell", model="mlp", dataset="mnist")
        legacy = dict(spec.to_dict(), trial_batch=8)
        assert ScenarioSpec.from_dict(legacy).spec_hash() == spec.spec_hash()
        assert "trial_batch" not in ScenarioSpec.from_dict(legacy).to_dict()
        assert ScenarioRunner(None, trial_batch=8)._engine_kwargs(
            spec)["trial_batch"] == 8

    def test_cli_parser_accepts_trial_batch(self):
        from repro.scenarios.cli import build_parser

        args = build_parser().parse_args(
            ["run", "smoke", "--trial-batch", "6"])
        assert args.trial_batch == 6

    def test_runner_override_wins_over_spec(self):
        """A spec.json that still records a trial batch never schedules:
        the runner alone does."""
        from repro.scenarios import ScenarioSpec
        from repro.scenarios.runner import ScenarioRunner

        spec = ScenarioSpec.from_dict(
            dict(ScenarioSpec(name="cell").to_dict(), trial_batch=2))
        runner = ScenarioRunner(None, trial_batch=5)
        assert runner._engine_kwargs(spec)["trial_batch"] == 5
        assert ScenarioRunner(None)._engine_kwargs(spec)["trial_batch"] is None


# --------------------------------------------------------------------------- #
class TestDatasetPublication:
    def test_dataset_segment_created_and_released(self, trained):
        from repro.execution import SharedMemoryBackend

        model, test_set = trained
        backend = SharedMemoryBackend(workers=2)
        DriftSweepEngine(model, test_set, trials=3, rng=3,
                         backend=backend).run((0.5, 1.0))
        # The engine closes the backend after the sweep: the pinned dataset
        # segment must be gone along with the per-chunk trial segments.
        assert backend._segments == []
        assert backend._data_segment is None

    def test_dataset_handle_counts_toward_bytes_shipped(self, trained):
        """Publication replaces the initializer's pickled dataset copy."""
        import pickle

        model, test_set = trained
        report = DriftSweepEngine(model, test_set, trials=3, rng=1,
                                  workers=2,
                                  backend="shared_memory").run((0.8, 1.2))
        assert report.backend == "shared_memory"
        # The handle is tiny but non-zero — and orders of magnitude smaller
        # than the dataset it replaces in the worker-initializer payload.
        assert report.bytes_shipped > 0
        assert len(pickle.dumps(test_set)) > 10_000

    def test_non_dataset_data_still_ships_pickled(self, trained):
        """Evaluation data without the Dataset shape falls back to pickling."""
        from repro.execution import EvalContext, SharedMemoryBackend

        model, test_set = trained
        samples = [(test_set.inputs[:8], test_set.labels[:8])]

        backend = SharedMemoryBackend(workers=2)
        engine = DriftSweepEngine(model, samples, trials=3, rng=9,
                                  backend=backend,
                                  evaluate_fn=_accuracy_on_samples)
        serial = DriftSweepEngine(model, samples, trials=3, rng=9,
                                  evaluate_fn=_accuracy_on_samples)
        assert (engine.run((0.8,)).to_json(canonical=True)
                == serial.run((0.8,)).to_json(canonical=True))
        assert backend._data_segment is None  # nothing was published

    def test_worker_views_match_the_published_dataset(self, trained):
        from repro.execution import EvalContext, SharedMemoryBackend

        model, test_set = trained
        backend = SharedMemoryBackend(workers=2)
        backend.open(EvalContext(model=model, data=test_set,
                                 evaluate_fn=ClassificationAccuracy()))
        segment, handle = backend._publish_dataset(test_set)
        try:
            rebuilt = handle.attach()
            np.testing.assert_array_equal(rebuilt.inputs, test_set.inputs)
            np.testing.assert_array_equal(rebuilt.labels, test_set.labels)
            assert rebuilt.num_classes == test_set.num_classes
            # Zero-copy: the rebuilt arrays alias the attached segment.
            assert rebuilt.inputs.base is not None
        finally:
            from repro.execution.pool import _ATTACHED, _PINNED

            _PINNED.discard(handle.segment)
            attached = _ATTACHED.pop(handle.segment, None)
            if attached is not None:
                attached.close()
            segment.close()
            segment.unlink()
            backend.close()


def _accuracy_on_samples(model, samples) -> float:
    """Module-level (picklable) metric over a plain list of batches."""
    from repro.nn.tensor import Tensor, no_grad

    correct = total = 0
    for inputs, labels in samples:
        with no_grad():
            logits = model(Tensor(inputs))
        correct += int((logits.data.argmax(axis=1) == labels).sum())
        total += len(labels)
    return correct / max(total, 1)
