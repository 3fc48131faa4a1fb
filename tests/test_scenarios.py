"""Tests for the scenario subsystem: specs, store, runner, library, CLI.

The load-bearing guarantees:

* ``ScenarioSpec`` round-trips through JSON and its content hash is stable
  against key order and scheduling (which lives on the runner, never on
  the spec), while a BayesFT search's suggestion batch keys its cells;
* the result store resumes (skips) completed cells, detects corruption with
  a labeled error, and stores **byte-identical** report files for any
  worker count (the determinism contract made auditable on disk);
* the figure harnesses produce bit-identical curves with and without a
  store-backed runner.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.fault.drift import CompositeFault, LogNormalDrift, StuckAtFault
from repro.scenarios import (
    FaultSpec, ResultStore, ResultStoreError, Scenario, ScenarioRunner,
    ScenarioSpec, available_fault_models, available_scenarios, get_scenario,
)
from repro.scenarios.cli import main
from repro.scenarios.store import VOLATILE_REPORT_FIELDS
from repro.utils.config import ExperimentConfig

#: spec_hash of every grid-scenario cell, captured before the scheduling
#: fields left ScenarioSpec: removing them must not re-key a stored cell.
GRID_CELL_HASHES = {
    "dataset_matrix@0": (
        "6d8f9ff35a55ea4b1348168d3c9770f728f3b39bee29ea9d198a4665d5500f24",
        "110b8f40865e941b07847dc9381ee93461300b2bfae55a05d83fafe19db63db6",
        "dc1a193ba3da6dde742095c9ec01873098c222c75fa15126190d05bdc03ddd7e",
    ),
    "dataset_matrix@1": (
        "0f8b64dfe1e6d4381c1627919179485ad2e5b4beab436599a358968c3488bcf6",
        "9602fa2ce13d7a409f9d9649538249b250a62fcc00ad7c1dec1a1aaae84b8d97",
        "ac5ab7d96deea6a2df5a0c5f1c23b36cacc5b70b01857f2fffc216df56c687bb",
    ),
    "dataset_matrix@7": (
        "02cb64dda2b3ab8067bee1c86718fc8b9196a8eb8f222ad7d3e1de2194bce18b",
        "631e6a0050c4b379ff5c291d8e209c461c65e46814d0ba2a3e8945b00a0cc5ac",
        "57a824e3525631982ef6a154340da980d5237a975c73a49657cb21f83c91cc61",
    ),
    "detection_smoke@0": (
        "cd490cd4892b72166ef47a69064ecad12abe0671a4d60014492538dcf0f5bdf1",
    ),
    "detection_smoke@1": (
        "6de9c70ba455bd8f61c133bbdd290046e0c2016b33d065a3d14282ec879cfa03",
    ),
    "detection_smoke@7": (
        "895c60e2fb9eeb79a46c17e39d140464f1cf5f7281936af106870c771640ac3f",
    ),
    "fault_matrix@0": (
        "a28e9c9763746c85ea050920267d7557a9b460e047a91c40c31f2f8b3ce13217",
        "ed76f3d2e16d80fbcb76e5a981b9b729cf2008ec80ed735b70881a0b1aeade08",
        "52f5db3469058dba6ae7c2bbb9c627b885aafccd1cf27064d8a476cca9464b96",
        "01f480ddacea4e251aaf991940b34ec075c408ad1bb21b299a9f978563f903ea",
        "e7f9a94e9edab6f0136e59197458ee1c2ae6e194a243894fd80a16b17ba0ce46",
        "171bd14c4d98c4f88a05c93dc3b24c6412768ed82dafe92e22c24f13a3b3ceb4",
    ),
    "fault_matrix@1": (
        "f57943c197e31145bb28fea1969d7036dab6657305904de80f7fcec51534dcfc",
        "8b233ac8d629f22333ff7da83dce315c3bd90df9f73767c06e0f2005c71d4eda",
        "6cbef7da0343abf34e60b518d4902b9c03202a681ea924e96051ca53c60db804",
        "c8b90cf47420a72052d2e7c73874491940a13514d9dbf48537de340e1ac59471",
        "882f7da1d94f5a866f100416373f8337d0e1baeb1b04d1ea8d87717b8abd7e38",
        "bffcc1109acf18f0a15563ec429bcda7d1d7028f9b961642a66bb4c0f2a15b02",
    ),
    "fault_matrix@7": (
        "87008a5eda1a8e9f48ac7a23deb5f198275b3b3c9a7bca2f117ada0f5b581186",
        "1b41d805d9b8d1bdfaec8afe8d433466c2078fed073813ef6070261577cbc7c4",
        "91c61c0960cbfa5acad5fe4e2b98363d182d2116e14267e59449bf51e6275394",
        "cecde4e380ad41005459e210a916e591beb243d45673fb94a9e6245f131948e2",
        "de25494e0bcdb8baa44596d8c5b90b2e54f4f9b48bb1ef037d1d15800d580ea2",
        "f372617b6aa949a36f48c34a695470b07e4dc90e3f99e56f43ab8476af4f7b54",
    ),
    "smoke@0": (
        "7a9f360fb443e309221311987c7da236fed11fe1a9ec307d43f76950540fd22d",
    ),
    "smoke@1": (
        "e2a5dcc1cdb60487fd7fa5a24cad2176dbb518c7cd1ac94b982dd46b74cec789",
    ),
    "smoke@7": (
        "e4c78182d4b39d15850b77c3a54e9f0acdeb56cb2bc087d3de8070b99fe33852",
    ),
}

#: A spec.json as the store wrote it while ScenarioSpec still carried six
#: scheduling fields (here with non-default values), and the hash its
#: entry was filed under.
LEGACY_SPEC_JSON = {
    "name": "tiny", "model": "mlp", "dataset": "mnist",
    "fault": {"kind": "lognormal"}, "sigmas": [0.0, 0.8], "trials": 2,
    "seed": 3, "metric": "accuracy", "image_size": 16, "num_classes": None,
    "policy": None, "model_kwargs": {}, "dataset_kwargs": {},
    "train": {"seed": 0, "epochs": 1, "batch_size": 32,
              "learning_rate": 0.1, "momentum": 0.9, "optimizer": "sgd",
              "weight_decay": 0.0, "train_samples": 64, "test_samples": 32,
              "monte_carlo_samples": 3, "bo_trials": 8,
              "sigma_grid": [0.0, 0.3, 0.6, 0.9, 1.2, 1.5],
              "drift_trials": 5, "extra": {}},
    "context": {}, "workers": 2, "max_chunk_trials": 1,
    "backend": "process", "trial_batch": 2, "search_workers": None,
    "suggest_batch": None,
}
LEGACY_SPEC_HASH = \
    "fcd5b79a031ee8ae10fc9e574216c5db2a0d458eaddb94c4cbc9f882beb1bd37"


def tiny_spec(**overrides) -> ScenarioSpec:
    """A cell small enough that executing it takes well under a second."""
    defaults = dict(
        name="tiny", model="mlp", dataset="mnist",
        fault=FaultSpec("lognormal"), sigmas=(0.0, 0.8), trials=2, seed=3,
        train=ExperimentConfig(epochs=1, train_samples=64, test_samples=32,
                               batch_size=32, learning_rate=0.1))
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


class TestFaultSpec:
    def test_registry_covers_issue_kinds(self):
        names = available_fault_models()
        for kind in ("lognormal", "gaussian", "uniform", "stuckat", "bitflip",
                     "composite"):
            assert kind in names

    def test_build_dispatches_severity(self):
        drift = FaultSpec("lognormal").build(0.7)
        assert isinstance(drift, LogNormalDrift) and drift.sigma == 0.7
        stuck = FaultSpec("stuckat", params={"stuck_value": 1.5}).build(0.2)
        assert isinstance(stuck, StuckAtFault)
        assert stuck.probability == 0.2 and stuck.stuck_value == 1.5

    def test_composite_parse_and_scale(self):
        spec = FaultSpec.parse("composite:lognormal+stuckat")
        assert spec.kind == "composite"
        assert [c.kind for c in spec.components] == ["lognormal", "stuckat"]
        scaled = FaultSpec("composite", components=(
            FaultSpec("lognormal"), FaultSpec("stuckat", scale=0.1)))
        built = scaled.build(1.0)
        assert isinstance(built, CompositeFault)
        assert built.models[1].probability == pytest.approx(0.1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault model"):
            FaultSpec("made-up")

    def test_bad_params_raise_labeled_error(self):
        with pytest.raises(ValueError, match="bad parameters"):
            FaultSpec("bitflip", params={"nonsense": 3}).build(0.1)

    def test_json_round_trip(self):
        spec = FaultSpec("composite", components=(
            FaultSpec("gaussian", params={"relative": False}),
            FaultSpec("stuckat", scale=0.5)))
        assert FaultSpec.from_dict(spec.to_dict()).to_dict() == spec.to_dict()

    def test_from_dict_rejects_unknown_keys(self):
        """A typo'd key must not silently run a different fault model."""
        with pytest.raises(ValueError, match="unknown FaultSpec fields"):
            FaultSpec.from_dict({"kind": "gaussian",
                                 "parameters": {"relative": False}})


class TestScenarioSpec:
    def test_json_round_trip_preserves_hash(self):
        spec = tiny_spec(model_kwargs={"depth": 3},
                         context={"figure": "fig2_dropout", "harness_seed": 1})
        restored = ScenarioSpec.from_json(spec.to_json())
        assert restored.to_dict() == spec.to_dict()
        assert restored.spec_hash() == spec.spec_hash()

    def test_hash_stable_across_key_order(self):
        spec = tiny_spec()
        shuffled = dict(reversed(list(spec.to_dict().items())))
        # A JSON file whose keys arrive in any order names the same cell.
        assert ScenarioSpec.from_dict(
            json.loads(json.dumps(shuffled))).spec_hash() == spec.spec_hash()

    def test_hash_ignores_scheduling_knobs(self, tmp_path):
        """Scheduling lives on the runner: the spec has no field for it,
        and a cell run under any of it is filed under the plain hash."""
        with pytest.raises(TypeError):
            tiny_spec(workers=4)
        spec = tiny_spec()
        store = ResultStore(tmp_path / "store")
        ScenarioRunner(store, workers=2, max_chunk_trials=1, trial_batch=2,
                       search_workers=2).run(spec)
        assert list(store.hashes()) == [spec.spec_hash()]

    def test_hash_ignores_search_scheduling_knobs(self):
        """``search_workers`` is the runner's and keys nothing; the BO
        suggestion batch q changes what a search finds, so a config that
        carries it keys every cell of the panel."""
        from repro.experiments.fig3_classification import _cell_spec

        batched = ExperimentConfig.fast()
        batched.extra["suggest_batch"] = 2
        for label in ("ERM", "BayesFT"):
            plain = _cell_spec("a_mlp_mnist", label, "mlp", "mnist",
                               ExperimentConfig.fast(), 0,
                               methods=("erm", "bayesft"))
            keyed = _cell_spec("a_mlp_mnist", label, "mlp", "mnist",
                               batched, 0, methods=("erm", "bayesft"))
            assert keyed.spec_hash() != plain.spec_hash()

    def test_grid_cell_hashes_match_the_golden(self):
        for key, hashes in GRID_CELL_HASHES.items():
            name, _, seed = key.partition("@")
            cells = get_scenario(name).cells(seed=int(seed))
            assert tuple(cell.spec_hash() for cell in cells) == hashes, key

    def test_legacy_spec_json_drops_scheduling_fields(self):
        spec = ScenarioSpec.from_dict(LEGACY_SPEC_JSON)
        assert spec.to_dict() == tiny_spec().to_dict()
        assert spec.spec_hash() == tiny_spec().spec_hash() == LEGACY_SPEC_HASH

    def test_hash_covers_result_determining_fields(self):
        base = tiny_spec()
        assert tiny_spec(seed=4).spec_hash() != base.spec_hash()
        assert tiny_spec(fault=FaultSpec("gaussian")).spec_hash() != base.spec_hash()
        assert tiny_spec(sigmas=(0.0, 0.9)).spec_hash() != base.spec_hash()
        assert tiny_spec(trials=3).spec_hash() != base.spec_hash()

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            tiny_spec(sigmas=())
        with pytest.raises(ValueError):
            tiny_spec(trials=0)
        with pytest.raises(ValueError):
            tiny_spec(metric="bleu")


class TestResultStore:
    def _stored(self, tmp_path):
        spec = tiny_spec()
        runner = ScenarioRunner(ResultStore(tmp_path / "store"))
        run = runner.run(spec)
        return spec, runner.store, run

    def test_save_load_round_trip(self, tmp_path):
        spec, store, run = self._stored(tmp_path)
        assert store.contains(spec)
        loaded = store.load(spec)
        assert loaded.means == run.report.means
        assert loaded.trial_scores == run.report.trial_scores

    def test_resume_skips_completed_cells(self, tmp_path):
        spec, store, first = self._stored(tmp_path)
        second = ScenarioRunner(store).run(spec)
        assert not first.cached and second.cached
        assert second.report.means == first.report.means

    def test_entry_with_legacy_spec_json_resumes_cached(self, tmp_path):
        """A store filled while specs carried scheduling fields keeps
        answering: same hash, cached, report.json bytes untouched."""
        spec, store, _ = self._stored(tmp_path)
        entry = store.path_for(spec)
        assert entry.name == LEGACY_SPEC_HASH
        (entry / "spec.json").write_text(
            json.dumps(LEGACY_SPEC_JSON, sort_keys=True, indent=2) + "\n")
        report_bytes = (entry / "report.json").read_bytes()
        reopened = ResultStore(tmp_path / "store")
        assert reopened.reindex() == {"entries": 1, "skipped": 0}
        assert reopened.load_entry(LEGACY_SPEC_HASH)[0].to_dict() == \
            spec.to_dict()
        assert ScenarioRunner(reopened).run(spec).cached
        assert (entry / "report.json").read_bytes() == report_bytes

    def test_corrupted_report_raises_labeled_error(self, tmp_path):
        spec, store, _ = self._stored(tmp_path)
        report_file = store.path_for(spec) / "report.json"
        report_file.write_text(report_file.read_text()[:40])  # truncate
        with pytest.raises(ResultStoreError, match="corrupted"):
            store.load(spec)

    def test_mistyped_report_fields_raise_labeled_error(self, tmp_path):
        """Valid JSON with a scalar where a list belongs is corruption too,
        not a bare TypeError escaping to the caller."""
        spec, store, _ = self._stored(tmp_path)
        report_file = store.path_for(spec) / "report.json"
        tampered = json.loads(report_file.read_text())
        tampered["sigmas"] = 0.5
        report_file.write_text(json.dumps(tampered))
        with pytest.raises(ResultStoreError, match="corrupted"):
            store.load(spec)

    def test_edited_spec_detected_by_hash_mismatch(self, tmp_path):
        spec, store, _ = self._stored(tmp_path)
        spec_file = store.path_for(spec) / "spec.json"
        tampered = json.loads(spec_file.read_text())
        tampered["seed"] = 999  # claims to be a different experiment
        spec_file.write_text(json.dumps(tampered))
        with pytest.raises(ResultStoreError, match="hashes to"):
            store.load(spec)

    def test_missing_file_raises(self, tmp_path):
        spec, store, _ = self._stored(tmp_path)
        (store.path_for(spec) / "meta.json").unlink()
        with pytest.raises(ResultStoreError, match="missing meta.json"):
            store.load(spec)
        # The failed load evicted the stale index row, so the hand-broken
        # entry stops answering membership checks.
        assert not store.contains(spec)

    def test_missing_entry_raises(self, tmp_path):
        store = ResultStore(tmp_path / "empty")
        with pytest.raises(ResultStoreError, match="no entry"):
            store.load(tiny_spec())

    def test_entries_iterates_and_validates(self, tmp_path):
        spec, store, _ = self._stored(tmp_path)
        entries = list(store.entries())
        assert len(entries) == len(store) == 1
        stored_spec, report, meta = entries[0]
        assert stored_spec.spec_hash() == spec.spec_hash()
        assert "volatile" in meta

    def test_stale_staging_directories_are_invisible(self, tmp_path):
        """Regression: a crash mid-save leaves `<hash>.tmp-<pid>` behind;
        it must not surface as an entry or break report/compare."""
        import shutil

        spec, store, _ = self._stored(tmp_path)
        entry = store.path_for(spec)
        shutil.copytree(entry, entry.with_name(entry.name + ".tmp-9999"))
        assert len(store) == 1
        assert len(list(store.entries())) == 1  # does not raise


class TestDeterminism:
    def test_stored_report_bytes_identical_for_any_workers(self, tmp_path):
        """The acceptance criterion: workers ∈ {0, 2} → same report.json."""
        spec = tiny_spec()
        payloads = {}
        for workers in (0, 2):
            store = ResultStore(tmp_path / f"store-w{workers}")
            ScenarioRunner(store, workers=workers).run(spec)
            payloads[workers] = (store.path_for(spec) / "report.json").read_bytes()
        assert payloads[0] == payloads[2]

    def test_volatile_fields_live_in_meta_not_report(self, tmp_path):
        spec = tiny_spec()
        store = ResultStore(tmp_path / "store")
        ScenarioRunner(store).run(spec)
        report = json.loads((store.path_for(spec) / "report.json").read_text())
        meta = json.loads((store.path_for(spec) / "meta.json").read_text())
        for field in VOLATILE_REPORT_FIELDS:
            assert field not in report
            assert field in meta["volatile"]


class TestScenarioRunner:
    def test_summary_reports_no_clean_accuracy_without_sigma_zero(self, tmp_path):
        """A grid that never visits severity 0 has nothing 'clean' in it."""
        spec = tiny_spec(sigmas=(0.5, 1.0))
        run = ScenarioRunner(ResultStore(tmp_path / "store")).run(spec)
        assert run.summary()["clean"] is None
        run_with_zero = ScenarioRunner().run(tiny_spec())
        assert run_with_zero.summary()["clean"] == run_with_zero.report.means[0]

    def test_figure_cell_specs_cannot_be_executed_declaratively(self):
        spec = tiny_spec(context={"figure": "fig2_dropout"})
        with pytest.raises(ValueError, match="figure-harness context"):
            ScenarioRunner().run(spec)

    def test_run_scenario_by_name_and_resume(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        first = ScenarioRunner(store).run_scenario("smoke")
        again = ScenarioRunner(store).run_scenario("smoke")
        assert [run.cached for run in first] == [False]
        assert [run.cached for run in again] == [True]
        assert again[0].report.means == first[0].report.means

    def test_figure_harness_with_store_matches_plain_run(self, tmp_path):
        """Store-backed and store-less runs produce bit-identical curves."""
        from repro.experiments import run_dropout_ablation

        config = ExperimentConfig(epochs=1, train_samples=64, test_samples=32,
                                  drift_trials=2, sigma_grid=(0.0, 1.0),
                                  batch_size=32, learning_rate=0.1)
        plain = run_dropout_ablation(config, seed=0)
        runner = ScenarioRunner(ResultStore(tmp_path / "store"))
        stored = run_dropout_ablation(config, seed=0, runner=runner)
        rerun = run_dropout_ablation(
            config, seed=0, runner=ScenarioRunner(runner.store))
        for a, b, c in zip(plain, stored, rerun):
            assert a.means == b.means == c.means
            assert a.stds == b.stds == c.stds
        assert len(runner.store) == 3  # one cell per dropout variant

    def test_figure_cell_hash_covers_call_site_variants(self, tmp_path):
        """Regression: the harness threads one RNG through every variant, so
        a call that runs a *subset* of variants trains different weights for
        the same label — its cells must not be answered from a store filled
        by the full-variant call."""
        from repro.experiments import run_dropout_ablation, run_depth_ablation

        config = ExperimentConfig(epochs=1, train_samples=64, test_samples=32,
                                  drift_trials=1, sigma_grid=(0.0, 1.0),
                                  batch_size=32, learning_rate=0.1)
        store = ResultStore(tmp_path / "store")
        run_depth_ablation(config, seed=0, depths=(3, 6),
                           runner=ScenarioRunner(store))
        subset_runner = ScenarioRunner(store)
        run_depth_ablation(config, seed=0, depths=(6,), runner=subset_runner)
        assert [run.cached for run in subset_runner.runs] == [False]

        # Different figures sharing a label/config never collide either.
        dropout_runner = ScenarioRunner(store)
        run_dropout_ablation(config, seed=0, runner=dropout_runner)
        assert not any(run.cached for run in dropout_runner.runs)

    def test_fig3_cell_hash_covers_method_subset(self, tmp_path):
        from repro.experiments.fig3_classification import _cell_spec

        config = ExperimentConfig.fast()
        full = _cell_spec("a_mlp_mnist", "ERM", "mlp", "mnist", config, 0,
                          methods=("erm", "bayesft"))
        subset = _cell_spec("a_mlp_mnist", "ERM", "mlp", "mnist", config, 0,
                            methods=("erm",))
        assert full.spec_hash() != subset.spec_hash()

    def test_fig3_store_keys_on_q_and_never_on_search_workers(self, tmp_path):
        """Regression: a store filled at suggest_batch=2 answered a later
        q=1 run with the q=2 curve.  For a fixed q (q=1 included) the
        stored bytes are identical for any search_workers."""
        from repro.experiments import run_classification_comparison

        def run(q, search_workers, store):
            config = ExperimentConfig(
                epochs=2, train_samples=64, test_samples=32, bo_trials=4,
                monte_carlo_samples=2, drift_trials=2, sigma_grid=(0.0, 1.0),
                batch_size=32, learning_rate=0.1)
            if q != 1:
                config.extra["suggest_batch"] = q
            runner = ScenarioRunner(store, search_workers=search_workers)
            run_classification_comparison("a_mlp_mnist", config,
                                          methods=("bayesft",), runner=runner)
            (cell,) = runner.runs
            return cell, (store.path_for(cell.spec) / "report.json").read_bytes()

        for q in (1, 2):
            stored = {k: run(q, k, ResultStore(tmp_path / f"q{q}-k{k}"))[1]
                      for k in (0, 1, 2)}
            assert stored[0] == stored[1] == stored[2], q
        sequential, _ = run(1, 0, ResultStore(tmp_path / "q2-k0"))
        assert not sequential.cached

    def test_scenario_registry_contents(self):
        names = available_scenarios()
        assert "smoke" in names and "fault_matrix" in names
        assert "fig2_dropout" in names and "fig3_b_lenet_mnist" in names
        scenario = get_scenario("fault_matrix")
        faults = {spec.fault.describe() for spec in scenario.cells()}
        assert {"lognormal", "gaussian", "uniform", "stuckat", "bitflip",
                "composite:lognormal+stuckat"} <= faults

    def test_register_scenario_validates_shape(self):
        from repro.scenarios import register_scenario

        with pytest.raises(ValueError, match="exactly one"):
            register_scenario(Scenario(name="x-test-only",
                                       description="no builder and no figure"))
        with pytest.raises(ValueError, match="already registered"):
            register_scenario(get_scenario("smoke"))


class TestCLI:
    def test_list_runs(self, capsys):
        assert main(["list"]) == 0
        assert "fault_matrix" in capsys.readouterr().out

    def test_run_report_compare_round_trip(self, tmp_path, capsys):
        out = str(tmp_path / "results")
        assert main(["run", "smoke", "--out", out, "--json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["cells_executed"] == 1 and first["cells_cached"] == 0

        assert main(["run", "smoke", "--out", out, "--json"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["cells_cached"] >= 1  # the acceptance criterion

        assert main(["report", "--out", out, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["cells"]) == 1
        assert report["cells"][0]["name"] == "smoke-mlp-lognormal"

        assert main(["compare", "smoke", "--out", out, "--json"]) == 0
        compare = json.loads(capsys.readouterr().out)
        assert compare["cells"][0]["fault"] == "lognormal"

    def test_compare_requires_stored_cells(self, tmp_path):
        with pytest.raises(SystemExit, match="not in"):
            main(["compare", "smoke", "--out", str(tmp_path / "nothing")])

    def test_compare_rejects_figure_scenarios(self, tmp_path):
        with pytest.raises(SystemExit, match="figure"):
            main(["compare", "fig2_dropout", "--out", str(tmp_path)])

    def test_corrupted_store_reported_as_error(self, tmp_path, capsys):
        out = str(tmp_path / "results")
        assert main(["run", "smoke", "--out", out]) == 0
        store = ResultStore(out)
        entry = next(iter(store.hashes()))
        (store.entry_dir(entry) / "report.json").write_text("{not json")
        assert main(["report", "--out", out]) == 2
        assert "corrupted" in capsys.readouterr().err


class TestPolicySpecs:
    """Per-layer fault policies as spec data (`policy` field + registry)."""

    POLICY = {"kind": "per_layer_sigma",
              "sigma_scales": {r"layers\.0": 2.0},
              "default_scale": 0.5}

    def test_policy_registry_contents(self):
        from repro.fault.policy import available_policies

        assert {"uniform", "per_layer_sigma"} <= set(available_policies())

    def test_policy_enters_the_spec_hash(self):
        base = tiny_spec()
        with_policy = tiny_spec(policy=dict(self.POLICY))
        assert with_policy.spec_hash() != base.spec_hash()
        # ... and different policy parameters are different cells.
        stronger = dict(self.POLICY, default_scale=1.0)
        assert tiny_spec(policy=stronger).spec_hash() != with_policy.spec_hash()

    def test_policy_hash_stable_across_json_round_trip(self):
        spec = tiny_spec(policy=dict(self.POLICY))
        restored = ScenarioSpec.from_json(spec.to_json())
        assert restored.policy == spec.policy
        assert restored.spec_hash() == spec.spec_hash()

    def test_unknown_policy_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault policy"):
            tiny_spec(policy={"kind": "chaotic"})
        with pytest.raises(ValueError, match="'kind'"):
            tiny_spec(policy={"sigma_scales": {}})

    def test_per_layer_sigma_requires_lognormal_fault(self, tmp_path):
        from repro.fault.policy import build_policy

        with pytest.raises(ValueError, match="log-normal"):
            build_policy("per_layer_sigma", 0.5, FaultSpec("stuckat"),
                         sigma_scales={"w": 1.0})

    def test_policy_cell_executes_and_differs_from_uniform(self, tmp_path):
        runner = ScenarioRunner(ResultStore(tmp_path / "results"))
        uniform = runner.run(tiny_spec(name="uniform-cell"))
        # Only the first layer drifts, at double strength; everything else
        # stays clean — a different measurement than uniform drift.
        selective = runner.run(tiny_spec(
            name="policy-cell",
            policy={"kind": "per_layer_sigma",
                    "sigma_scales": {r"layers\.0\.": 2.0}}))
        assert uniform.report.means[0] == selective.report.means[0]  # σ=0
        assert uniform.report.trial_scores != selective.report.trial_scores

    def test_policy_cell_resumes_from_store(self, tmp_path):
        store = ResultStore(tmp_path / "results")
        spec = tiny_spec(name="policy-resume", policy=dict(self.POLICY))
        first = ScenarioRunner(store).run(spec)
        second = ScenarioRunner(store).run(spec)
        assert not first.cached and second.cached
        assert second.report.means == first.report.means


class TestDetectionCells:
    """Declarative fig3-detection-style cells (mAP sweeps in the runner)."""

    def test_detection_smoke_scenario_runs_and_resumes(self, tmp_path):
        store = ResultStore(tmp_path / "results")
        cold = ScenarioRunner(store).run_scenario("detection_smoke")
        assert len(cold) == 1 and not cold[0].cached
        report = cold[0].report
        assert report.sigmas[0] == 0.0
        assert report.means[0] > 0.2          # the detector really detects
        assert report.means[-1] < report.means[0]   # and drift degrades it
        resumed = ScenarioRunner(store).run_scenario("detection_smoke")
        assert resumed[0].cached
        assert resumed[0].report.means == report.means

    def test_detection_cell_requires_map_metric(self):
        spec = tiny_spec(name="bad-detector", model="detector",
                         dataset="pedestrians", metric="accuracy",
                         image_size=32)
        with pytest.raises(ValueError, match="metric='map'"):
            ScenarioRunner().run(spec)

    def test_detection_cell_is_scheduling_invariant(self, tmp_path):
        spec = get_scenario("detection_smoke").cells(seed=0)[0]
        serial = ScenarioRunner().run(spec)
        parallel = ScenarioRunner(workers=2, backend="shared_memory").run(spec)
        assert (parallel.report.to_json(canonical=True)
                == serial.report.to_json(canonical=True))


class TestCellFanOut:
    """run_specs(backend="process"): matrix cells over worker processes."""

    def _specs(self):
        return [tiny_spec(name=f"cell-{i}", seed=i) for i in range(3)]

    def test_fanned_matrix_matches_serial_bit_for_bit(self, tmp_path):
        specs = self._specs()
        serial_store = ResultStore(tmp_path / "serial")
        ScenarioRunner(serial_store).run_specs(specs)
        fanned_store = ResultStore(tmp_path / "fanned")
        runs = ScenarioRunner(fanned_store).run_specs(
            specs, backend="process", cell_workers=2)
        assert [run.spec.name for run in runs] == [s.name for s in specs]
        for spec in specs:
            a = (serial_store.path_for(spec) / "report.json").read_bytes()
            b = (fanned_store.path_for(spec) / "report.json").read_bytes()
            assert a == b

    def test_interrupted_fill_in_resumes_without_recompute(self, tmp_path):
        specs = self._specs()
        store = ResultStore(tmp_path / "results")
        # A "killed" matrix run that only finished the first cell.
        ScenarioRunner(store).run_specs(specs[:1])
        runner = ScenarioRunner(store)
        runs = runner.run_specs(specs, backend="process", cell_workers=2)
        assert [run.cached for run in runs] == [True, False, False]
        # Everything is now stored; a further run recomputes nothing.
        again = ScenarioRunner(store).run_specs(specs, backend="process",
                                                cell_workers=2)
        assert [run.cached for run in again] == [True, True, True]

    def test_trial_backends_rejected_for_cells(self):
        with pytest.raises(ValueError, match="trial-level backend"):
            ScenarioRunner().run_specs(self._specs(), backend="shared_memory")

    def test_figure_context_cells_cannot_fan_out(self):
        specs = [tiny_spec(name=f"ctx-{i}", context={"figure": "fig9"})
                 for i in range(2)]
        with pytest.raises(ValueError, match="figure-harness context"):
            ScenarioRunner().run_specs(specs, backend="process")

    def test_figure_scenarios_cannot_fan_out(self, tmp_path):
        runner = ScenarioRunner(ResultStore(tmp_path / "results"))
        with pytest.raises(ValueError, match="cannot fan out"):
            runner.run_scenario("fig2_dropout", cell_backend="process")


class TestStoreGC:
    def _filled(self, tmp_path, n=3):
        store = ResultStore(tmp_path / "results")
        runner = ScenarioRunner(store)
        for i in range(n):
            runner.run(tiny_spec(name=f"gc-{i}", seed=i), scenario="gc-test")
        return store

    def test_stats_accounting(self, tmp_path):
        store = self._filled(tmp_path)
        stats = store.stats()
        assert stats["entries"] == 3
        assert stats["total_bytes"] > 0
        assert stats["by_scenario"] == {"gc-test": 3}
        assert stats["oldest"] <= stats["newest"]
        assert stats["stale_staging_dirs"] == 0

    def test_gc_keep_latest_removes_oldest(self, tmp_path):
        store = self._filled(tmp_path)
        # Make creation order unambiguous (the stamp has 1s resolution);
        # gc ranks from the index, so hand-edited stamps need a reindex.
        for index, spec_hash in enumerate(sorted(store.hashes())):
            meta_path = store.entry_dir(spec_hash) / "meta.json"
            meta = json.loads(meta_path.read_text())
            meta["created_at"] = f"2026-01-0{index + 1}T00:00:00+0000"
            meta_path.write_text(json.dumps(meta))
        store.reindex()
        ordered = sorted(store.hashes())
        result = store.gc(keep_latest=1)
        assert result["entries_kept"] == 1
        assert sorted(result["removed_entries"]) == ordered[:2]
        assert result["bytes_freed"] > 0
        assert list(store.hashes()) == [ordered[2]]

    def test_gc_dry_run_deletes_nothing(self, tmp_path):
        store = self._filled(tmp_path)
        result = store.gc(keep_latest=0, dry_run=True)
        assert len(result["removed_entries"]) == 3 and result["dry_run"]
        assert store.stats()["entries"] == 3

    def test_gc_collects_stale_staging_dirs(self, tmp_path):
        store = self._filled(tmp_path, n=1)
        stale = store.root / ("f" * 64 + ".tmp-123")
        stale.mkdir()
        (stale / "report.json").write_text("{}")
        assert store.stats()["stale_staging_dirs"] == 1
        result = store.gc()
        assert result["removed_staging"] == [stale.name]
        assert result["removed_entries"] == []
        assert not stale.exists()
        assert store.stats()["entries"] == 1  # complete entries untouched

    def test_gc_rejects_negative_keep(self, tmp_path):
        with pytest.raises(ValueError, match="non-negative"):
            ResultStore(tmp_path).gc(keep_latest=-1)

    def test_cli_gc_round_trip(self, tmp_path, capsys):
        out = str(tmp_path / "results")
        assert main(["run", "smoke", "--out", out]) == 0
        capsys.readouterr()
        assert main(["gc", "--out", out, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["before"]["entries"] == 1
        assert payload["gc"]["removed_entries"] == []
        assert main(["gc", "--out", out, "--keep-latest", "0", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["gc"]["removed_entries"]) == 1
        assert payload["after"]["entries"] == 0


class TestSchedulingKnobInvariance:
    def test_runner_backend_override_is_result_invariant(self, tmp_path):
        spec = tiny_spec(name="backend-invariant")
        serial = ScenarioRunner().run(spec)
        shm = ScenarioRunner(workers=2, backend="shared_memory").run(spec)
        assert (shm.report.to_json(canonical=True)
                == serial.report.to_json(canonical=True))

    def test_cli_backend_flag_produces_identical_store(self, tmp_path, capsys):
        plain, shm = str(tmp_path / "plain"), str(tmp_path / "shm")
        assert main(["run", "smoke", "--out", plain, "--json"]) == 0
        assert main(["run", "smoke", "--out", shm, "--workers", "2",
                     "--backend", "shared_memory", "--json"]) == 0
        capsys.readouterr()
        store = ResultStore(plain)
        entry = next(iter(store.hashes()))
        a = (ResultStore(plain).entry_dir(entry) / "report.json").read_bytes()
        b = (ResultStore(shm).entry_dir(entry) / "report.json").read_bytes()
        assert a == b


class TestCellFanOutOverrides:
    def test_runner_overrides_reach_worker_cells(self, tmp_path):
        """--chunk-trials etc. must keep working under --cell-workers.

        The engine setting a cell ran with is auditable in its meta.json
        volatile record, so the stored cells prove the override crossed
        the process boundary.
        """
        store = ResultStore(tmp_path / "results")
        specs = [tiny_spec(name=f"ov-{i}", seed=i) for i in range(2)]
        runner = ScenarioRunner(store, max_chunk_trials=1)
        runner.run_specs(specs, backend="process", cell_workers=2)
        for spec in specs:
            meta = json.loads(
                (store.path_for(spec) / "meta.json").read_text())
            assert meta["volatile"]["max_chunk_trials"] == 1
            assert meta["volatile"]["peak_resident_trials"] == 1

    def test_cell_errors_propagate_without_serial_retry(self, tmp_path):
        """A deterministic cell failure is not pool breakage: no fallback
        warning, no wasted serial recompute — the original error surfaces."""
        import warnings as warnings_module

        # Passes spec validation, fails in the runner: detection dataset
        # with a classification metric.
        bad = tiny_spec(name="bad-cell", model="detector",
                        dataset="pedestrians", metric="accuracy",
                        image_size=32)
        good = tiny_spec(name="good-cell")
        runner = ScenarioRunner(ResultStore(tmp_path / "results"))
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="metric='map'"):
                runner.run_specs([bad, good], backend="process",
                                 cell_workers=2)
