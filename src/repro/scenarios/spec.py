"""Declarative scenario specifications.

A :class:`ScenarioSpec` is one cell of the experiment matrix the ROADMAP
asks for — a (model × dataset × fault model × severity grid) combination
with its training recipe and seed — expressed as plain data.  Everything
round-trips through JSON, and :meth:`ScenarioSpec.spec_hash` gives each
cell a stable content address that the on-disk
:class:`~repro.scenarios.store.ResultStore` keys results by.

Fault models are referenced by string keys through a registry
(``lognormal``, ``gaussian``, ``uniform``, ``stuckat``, ``bitflip``, plus
``composite`` stacks), following FTT-NAS-style fault matrices: the same
scenario machinery sweeps a severity grid under any registered fault
distribution, not just the paper's Eq. (1) log-normal drift.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable

from ..fault.drift import (
    BitFlipFault, CompositeFault, DriftModel, GaussianDrift, LogNormalDrift,
    StuckAtFault, UniformDrift,
)
from ..utils.config import ExperimentConfig

__all__ = [
    "FaultSpec", "ScenarioSpec", "register_fault_model",
    "available_fault_models", "SPEC_SCHEMA_VERSION",
]

#: Bumped whenever the hashed spec layout changes, so stale stores are
#: never silently reused across incompatible schema revisions.
#: v2: cells gained the ``policy`` field (per-layer fault policies as data).
SPEC_SCHEMA_VERSION = 2

# --------------------------------------------------------------------------- #
# Fault-model registry: string key -> builder(severity, **params) -> DriftModel.
# The severity is the scenario's grid variable (the x-axis of every figure);
# what it means — σ, amplitude, probability — is the builder's business.
# --------------------------------------------------------------------------- #
_FAULT_REGISTRY: dict[str, Callable[..., DriftModel]] = {}


def register_fault_model(name: str):
    """Decorator registering ``builder(severity, **params) -> DriftModel``."""

    def _register(builder: Callable[..., DriftModel]):
        key = name.lower()
        if key in _FAULT_REGISTRY:
            raise ValueError(f"fault model {name!r} is already registered")
        _FAULT_REGISTRY[key] = builder
        return builder

    return _register


def available_fault_models() -> list[str]:
    """Registered fault-model kinds (``composite`` is always available)."""
    return sorted(_FAULT_REGISTRY) + ["composite"]


@register_fault_model("lognormal")
def _lognormal(severity: float) -> DriftModel:
    return LogNormalDrift(severity)


@register_fault_model("gaussian")
def _gaussian(severity: float, relative: bool = True) -> DriftModel:
    return GaussianDrift(severity, relative=relative)


@register_fault_model("uniform")
def _uniform(severity: float) -> DriftModel:
    return UniformDrift(severity)


@register_fault_model("stuckat")
def _stuckat(severity: float, stuck_value: float = 0.0) -> DriftModel:
    return StuckAtFault(severity, stuck_value=stuck_value)


@register_fault_model("bitflip")
def _bitflip(severity: float, bits: int = 8) -> DriftModel:
    return BitFlipFault(severity, bits=bits)


@dataclass
class FaultSpec:
    """A fault model as data: registry kind + parameters (+ components).

    ``kind="composite"`` stacks its ``components`` in order (e.g. drift then
    stuck-at), each built at ``severity * component.scale`` — the ``scale``
    lets a composite sweep run σ up to 1.5 while keeping a stuck-at
    probability in [0, 1].
    """

    kind: str = "lognormal"
    params: dict = field(default_factory=dict)
    scale: float = 1.0
    components: tuple = ()

    def __post_init__(self):
        self.kind = self.kind.lower()
        self.components = tuple(
            component if isinstance(component, FaultSpec)
            else FaultSpec.from_dict(component)
            for component in self.components)
        if self.kind == "composite":
            if not self.components:
                raise ValueError("composite fault spec needs at least one component")
        else:
            if self.components:
                raise ValueError("only composite fault specs take components")
            if self.kind not in _FAULT_REGISTRY:
                raise ValueError(f"unknown fault model {self.kind!r}; "
                                 f"available: {available_fault_models()}")

    # ------------------------------------------------------------------ #
    def build(self, severity: float) -> DriftModel:
        """Instantiate the drift model at one severity grid point."""
        severity = float(severity) * self.scale
        if self.kind == "composite":
            return CompositeFault(*(c.build(severity) for c in self.components))
        try:
            return _FAULT_REGISTRY[self.kind](severity, **self.params)
        except TypeError as error:
            raise ValueError(
                f"bad parameters {self.params!r} for fault model "
                f"{self.kind!r}: {error}") from error

    def factory(self) -> Callable[[float], DriftModel]:
        """The ``severity -> DriftModel`` callable the sweep engine expects."""
        return self.build

    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        data: dict = {"kind": self.kind}
        if self.params:
            data["params"] = dict(self.params)
        if self.scale != 1.0:
            data["scale"] = self.scale
        if self.components:
            data["components"] = [c.to_dict() for c in self.components]
        return data

    @classmethod
    def from_dict(cls, data: "dict | str") -> "FaultSpec":
        if isinstance(data, str):
            return cls.parse(data)
        unknown = set(data) - {"kind", "params", "scale", "components"}
        if unknown:
            # A typo'd key (e.g. "parameters") must not silently run a
            # different fault model — same contract as ExperimentConfig.
            raise ValueError(f"unknown FaultSpec fields {sorted(unknown)}")
        return cls(kind=data.get("kind", "lognormal"),
                   params=dict(data.get("params", {})),
                   scale=float(data.get("scale", 1.0)),
                   components=tuple(data.get("components", ())))

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse CLI shorthand: ``"stuckat"`` or ``"composite:lognormal+stuckat"``."""
        text = text.strip().lower()
        if text.startswith("composite:"):
            names = [name for name in text[len("composite:"):].split("+") if name]
            return cls(kind="composite",
                       components=tuple(cls(kind=name) for name in names))
        return cls(kind=text)

    def describe(self) -> str:
        if self.kind == "composite":
            return "composite:" + "+".join(c.describe() for c in self.components)
        return self.kind


@dataclass
class ScenarioSpec:
    """One declarative experiment cell, fully resolvable from registries.

    ``name`` doubles as the sweep label.  ``train`` embeds the
    :class:`~repro.utils.config.ExperimentConfig` losslessly (its
    ``from_dict`` is symmetric with ``to_dict``).  ``context`` carries the
    lineage of figure-harness cells (which figure, which variant, which
    harness seed) — cells with a non-empty context are *produced by* their
    harness and cannot be re-executed from the spec alone.

    **Identity only.**  A spec names *what* a cell computes, never *how*
    it is scheduled: :meth:`spec_hash` covers every field — model,
    dataset, fault, per-layer ``policy``, grid, trials, seed, metric,
    training recipe (``train.extra`` included, so a harness's BO
    ``suggest_batch`` keys its cells) and context.  Worker counts, chunk
    bounds, trial backends and batches live on the
    :class:`~repro.scenarios.runner.ScenarioRunner` that executes the
    cell; the engine and the search scheduler guarantee bit-identical
    results for any of them, so they never fragment the result store.
    """

    name: str
    model: str = "mlp"
    dataset: str = "mnist"
    fault: FaultSpec = field(default_factory=FaultSpec)
    sigmas: tuple = (0.0, 0.3, 0.6, 0.9, 1.2, 1.5)
    trials: int = 5
    seed: int = 0
    metric: str = "accuracy"
    image_size: int = 16
    num_classes: int | None = None
    #: Per-layer fault policy as data: ``None`` (the implicit ``uniform``
    #: policy — every parameter gets ``fault``) or a dict with a ``kind``
    #: from the :func:`repro.fault.policy.available_policies` registry plus
    #: that builder's parameters, e.g. ``{"kind": "per_layer_sigma",
    #: "sigma_scales": {r"layers\.0": 2.0}, "default_scale": 1.0}``.
    policy: dict | None = None
    model_kwargs: dict = field(default_factory=dict)
    dataset_kwargs: dict = field(default_factory=dict)
    train: ExperimentConfig = field(default_factory=ExperimentConfig)
    context: dict = field(default_factory=dict)

    #: Scheduling fields that older ``spec.json`` files carry; they never
    #: entered the hash, so reading such a file drops them.
    _LEGACY_SCHEDULING_KEYS = ("workers", "max_chunk_trials", "backend",
                               "trial_batch", "search_workers",
                               "suggest_batch")

    def __post_init__(self):
        if isinstance(self.fault, (dict, str)):
            self.fault = FaultSpec.from_dict(self.fault)
        if isinstance(self.train, dict):
            self.train = ExperimentConfig.from_dict(self.train)
        self.sigmas = tuple(float(s) for s in self.sigmas)
        if not self.sigmas:
            raise ValueError("a scenario spec needs at least one severity grid point")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.metric not in ("accuracy", "map"):
            raise ValueError(f"unknown metric {self.metric!r}; "
                             "expected 'accuracy' or 'map'")
        if self.policy is not None:
            from ..fault.policy import available_policies

            if not isinstance(self.policy, dict) or "kind" not in self.policy:
                raise ValueError(
                    "policy must be None or a dict with a 'kind' key "
                    f"(got {self.policy!r})")
            if self.policy["kind"].lower() not in available_policies():
                raise ValueError(
                    f"unknown fault policy {self.policy['kind']!r}; "
                    f"available: {available_policies()}")

    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "model": self.model,
            "dataset": self.dataset,
            "fault": self.fault.to_dict(),
            "sigmas": list(self.sigmas),
            "trials": self.trials,
            "seed": self.seed,
            "metric": self.metric,
            "image_size": self.image_size,
            "num_classes": self.num_classes,
            "policy": None if self.policy is None else dict(self.policy),
            "model_kwargs": dict(self.model_kwargs),
            "dataset_kwargs": dict(self.dataset_kwargs),
            "train": self.train.to_dict(),
            "context": dict(self.context),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        data = dict(data)
        for key in ("schema_version", *cls._LEGACY_SCHEDULING_KEYS):
            data.pop(key, None)
        return cls(**data)

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------------ #
    def hash_dict(self) -> dict:
        """The identity payload: :meth:`to_dict` plus the schema version."""
        data = self.to_dict()
        data["schema_version"] = SPEC_SCHEMA_VERSION
        return data

    def spec_hash(self) -> str:
        """Stable content address: key order, tuples-vs-lists never matter."""
        payload = json.dumps(self.hash_dict(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()

    def describe(self) -> str:
        return (f"{self.name}: {self.model}/{self.dataset} "
                f"fault={self.fault.describe()} grid={list(self.sigmas)} "
                f"trials={self.trials} seed={self.seed}")
