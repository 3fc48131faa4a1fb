"""Module system: parameter containers mirroring ``torch.nn.Module`` semantics.

A :class:`Module` owns named :class:`Parameter` tensors and child modules,
supports train/eval modes, recursive parameter iteration, and state-dict
export/import.  The fault-injection machinery in :mod:`repro.fault` relies on
``named_parameters`` to enumerate every weight that would be stored on a
ReRAM crossbar.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator

import numpy as np

from .tensor import Tensor

__all__ = ["Parameter", "Module", "Sequential", "ModuleList"]


class Parameter(Tensor):
    """A :class:`Tensor` that is registered as a trainable model parameter."""

    def __init__(self, data, requires_grad: bool = True):
        super().__init__(data, requires_grad=requires_grad)

    def __repr__(self) -> str:
        return f"Parameter(shape={self.shape})"


class Module:
    """Base class for all neural-network modules."""

    def __init__(self):
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self._buffers: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self.training = True

    # ------------------------------------------------------------------ #
    # Attribute registration
    # ------------------------------------------------------------------ #
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register a non-trainable persistent array (e.g. BatchNorm statistics)."""
        self._buffers[name] = np.asarray(value, dtype=np.float64)
        object.__setattr__(self, name, self._buffers[name])

    def set_buffer(self, name: str, value: np.ndarray) -> None:
        """Rebind a previously registered buffer to ``value``.

        The old array is not written to, and a float64 ``value`` is
        installed without a copy (see :meth:`load_state_dict`).
        """
        if name not in self._buffers:
            raise KeyError(f"buffer {name!r} was never registered")
        self._buffers[name] = np.asarray(value, dtype=np.float64)
        object.__setattr__(self, name, self._buffers[name])

    # ------------------------------------------------------------------ #
    # Iteration
    # ------------------------------------------------------------------ #
    def parameters(self) -> Iterator[Parameter]:
        """Yield every trainable parameter in this module and its children."""
        for _, parameter in self.named_parameters():
            yield parameter

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs recursively."""
        for name, parameter in self._parameters.items():
            yield prefix + name, parameter
        for child_name, child in self._modules.items():
            yield from child.named_parameters(prefix + child_name + ".")

    def modules(self) -> Iterator["Module"]:
        """Yield this module and every descendant module."""
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        yield prefix.rstrip("."), self
        for child_name, child in self._modules.items():
            yield from child.named_modules(prefix + child_name + ".")

    def children(self) -> Iterator["Module"]:
        yield from self._modules.values()

    def num_parameters(self) -> int:
        """Total number of scalar trainable parameters."""
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------ #
    # Modes
    # ------------------------------------------------------------------ #
    def train(self, mode: bool = True) -> "Module":
        """Switch this module (and children) between train and eval behaviour."""
        self.training = mode
        for child in self._modules.values():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for parameter in self.parameters():
            parameter.zero_grad()

    # ------------------------------------------------------------------ #
    # State dict
    # ------------------------------------------------------------------ #
    def state_dict(self, prefix: str = "") -> "OrderedDict[str, np.ndarray]":
        """Return a flat mapping of parameter/buffer names to array copies."""
        state: "OrderedDict[str, np.ndarray]" = OrderedDict()
        for name, parameter in self._parameters.items():
            state[prefix + name] = parameter.data.copy()
        for name, buffer in self._buffers.items():
            state[prefix + name] = buffer.copy()
        for child_name, child in self._modules.items():
            state.update(child.state_dict(prefix + child_name + "."))
        return state

    def load_state_dict(self, state: dict, prefix: str = "") -> None:
        """Load arrays produced by :meth:`state_dict` back into the module.

        float64 arrays are installed without a copy, so the module and the
        caller share them until the next update.  Every update rebinds
        (optimiser steps, :meth:`set_buffer`); an in-place update would
        write through to the caller's ``state``.
        """
        for name, parameter in self._parameters.items():
            key = prefix + name
            if key in state:
                parameter.data = np.asarray(state[key], dtype=np.float64).reshape(parameter.shape)
        for name in list(self._buffers):
            key = prefix + name
            if key in state:
                self.set_buffer(name, np.asarray(state[key]).reshape(self._buffers[name].shape))
        for child_name, child in self._modules.items():
            child.load_state_dict(state, prefix + child_name + ".")

    # ------------------------------------------------------------------ #
    # Call protocol
    # ------------------------------------------------------------------ #
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:
        child_lines = [f"  ({name}): {child!r}" for name, child in self._modules.items()]
        if not child_lines:
            return f"{type(self).__name__}()"
        body = "\n".join(child_lines)
        return f"{type(self).__name__}(\n{body}\n)"


class Sequential(Module):
    """Container applying child modules in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self._ordered: list[Module] = []
        for index, module in enumerate(modules):
            self.add(module, name=str(index))

    def add(self, module: Module, name: str | None = None) -> "Sequential":
        """Append a module to the chain."""
        name = name if name is not None else str(len(self._ordered))
        self._modules[name] = module
        self._ordered.append(module)
        return self

    def __iter__(self) -> Iterator[Module]:
        return iter(self._ordered)

    def __len__(self) -> int:
        return len(self._ordered)

    def __getitem__(self, index: int) -> Module:
        return self._ordered[index]

    def forward(self, x):
        for module in self._ordered:
            x = module(x)
        return x


class ModuleList(Module):
    """A list of child modules that are properly registered."""

    def __init__(self, modules=()):
        super().__init__()
        self._ordered: list[Module] = []
        for module in modules:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        self._modules[str(len(self._ordered))] = module
        self._ordered.append(module)
        return self

    def __iter__(self) -> Iterator[Module]:
        return iter(self._ordered)

    def __len__(self) -> int:
        return len(self._ordered)

    def __getitem__(self, index: int) -> Module:
        return self._ordered[index]

    def forward(self, *args, **kwargs):
        raise RuntimeError("ModuleList is a container and cannot be called directly")
