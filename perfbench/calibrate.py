"""Reference kernels that measure the box's own speed next to the program.

The box is a few cores of a shared host, and its speed drifts: the same
pure-Python resume pass takes 4 ms in one hour and 9 ms in another, and a
BayesFT search 0.8 s or 1.5 s, with no change to the code.  Timings taken
minutes apart are therefore only comparable once that drift is taken out.

Each workload runs one of the fixed kernels below in the driving process
between its timed calls, and every timed call is scaled by
``REFERENCE_S[kernel] / (kernel time around it)``.  The gated timings are
thus *reference seconds*: the wall time the call would have taken with the
box at its reference speed, the speed at which the kernel takes
``REFERENCE_S`` seconds.  Wall seconds are printed next to them.

The kernels use only Python and numpy, never ``repro``, so no change to the
program moves them.  They stay single-threaded on purpose: every matrix
product is below OpenBLAS's threading threshold, so a program that changes
the BLAS thread count does not change the yardstick it is measured with.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import statistics
import time

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

_RNG = np.random.default_rng(0)
#: A LeNet-sized activation batch and a 5×5 kernel bank for the numpy kernel.
_X = _RNG.standard_normal((16, 6, 14, 14))
_W = _RNG.standard_normal((150, 16))
_SMALL = _RNG.standard_normal((48, 48))


@dataclasses.dataclass
class _Fault:
    kind: str
    sigma: float
    params: dict


@dataclasses.dataclass
class _Cell:
    name: str
    seed: int
    sigmas: list
    faults: list
    meta: dict


_CELLS = [_Cell(name=f"cell-{i}", seed=i, sigmas=[0.0, 0.3, 0.6, 0.9],
                faults=[_Fault("lognormal", 0.1 * j, {"scale": j, "tag": "w"})
                        for j in range(6)],
                meta={"model": "lenet", "dataset": "mnist", "trials": 8})
          for i in range(12)]


def python_kernel() -> None:
    """Interpreter-bound work shaped like a resume pass: nested dataclasses
    turned into dicts, deep copies, canonical JSON and a digest."""
    for _ in range(18):
        for cell in _CELLS:
            payload = copy.deepcopy(dataclasses.asdict(cell))
            text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
            hashlib.blake2b(text.encode(), digest_size=16).hexdigest()
            json.loads(text)


def numpy_kernel() -> None:
    """Many small numpy calls shaped like a LeNet training step: im2col
    copies, a pooled argmax, a col2im scatter and small matrix products."""
    for _ in range(36):
        cols = sliding_window_view(_X, (5, 5), axis=(2, 3))
        cols = cols.transpose(0, 2, 3, 1, 4, 5).reshape(-1, 150)
        out = np.maximum(cols[:1024:8] @ _W, 0.0)
        pooled = _X.reshape(16, 6, 7, 2, 7, 2).transpose(0, 1, 2, 4, 3, 5)
        pooled.reshape(16, 6, 7, 7, 4).argmax(axis=-1)
        grad = np.zeros_like(_X)
        for i in range(5):
            for j in range(5):
                grad[:, :, i:i + 10, j:j + 10] += _X[:, :, 2:12, 2:12]
        small = _SMALL
        for _ in range(20):
            small = np.tanh(small @ _SMALL * 0.05)
        float(out.sum() + grad.sum() + small.sum())


KERNELS = {"python": python_kernel, "numpy": numpy_kernel}

#: Seconds each kernel takes with the box at its reference speed: rounded
#: medians over ten 30-second runs per workload on a 2-core Intel Xeon VM
#: while its host was quiet.  Changing them rescales every gated timing.
REFERENCE_S = {"python": 0.0200, "numpy": 0.0400}


class Calibrator:
    """Times one kernel; ``scale(seconds, kernel_s)`` gives reference seconds."""

    def __init__(self, kernel: str):
        self.kernel = kernel
        self._run = KERNELS[kernel]
        self.reference_s = REFERENCE_S[kernel]

    def measure(self) -> float:
        start = time.perf_counter()
        self._run()
        return time.perf_counter() - start

    def measure_median(self, repeats: int) -> float:
        return statistics.median(self.measure() for _ in range(repeats))

    def scale(self, seconds: float, kernel_s: float) -> float:
        return seconds * self.reference_s / kernel_s
