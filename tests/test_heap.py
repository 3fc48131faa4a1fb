"""The process heap policy set by ``import repro`` (:mod:`repro.utils.heap`).

Importing the package fixes glibc's mmap and trim thresholds so freed
training buffers stay in the heap.  These tests pin the three states, that
a user's own glibc policy is never overridden, and the count of minor page
faults a warm training run takes under the policy.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from repro.utils import heap

SRC = str(Path(__file__).resolve().parents[1] / "src")

USER_POLICIES = {
    "MALLOC_TRIM_THRESHOLD_": "268435456",
    "MALLOC_MMAP_THRESHOLD_": "131072",
    "MALLOC_TOP_PAD_": "0",
    "GLIBC_TUNABLES": "glibc.malloc.trim_threshold=268435456",
}

# Spies on mallopt while repro is imported, then reports the policy state.
IMPORT_SPY = """
import ctypes, json
calls = []
real_cdll = ctypes.CDLL

class Spy:
    def __init__(self, *args, **kwargs):
        self._lib = real_cdll(*args, **kwargs)

    def __getattr__(self, name):
        attr = getattr(self._lib, name)
        if name != "mallopt":
            return attr
        def mallopt(*args):
            calls.append(args)
            return attr(*args)
        return mallopt

ctypes.CDLL = Spy
import repro
ctypes.CDLL = real_cdll
from repro.utils import heap
print(json.dumps({"state": heap.state, "mallopt_ok": heap.mallopt_ok,
                  "calls": calls}))
"""

# A warm 2-epoch LeNet fit with dropout; prints the minor faults it took.
WARM_FIT_FAULTS = """
import resource
from repro.data import SyntheticMNIST
from repro.models import build_model
from repro.training.trainer import Trainer

data = SyntheticMNIST(n_samples=400, image_size=16, rng=0)
model = build_model("lenet", num_classes=10, in_channels=1, image_size=16,
                    dropout_rate=0.2, rng=0)
trainer = Trainer(model, rng=1)
trainer.fit(data, epochs=2, batch_size=64)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
trainer.fit(data, epochs=2, batch_size=64)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _user_policy_set(environ) -> bool:
    return (any(name in environ for name in heap.USER_VARIABLES)
            or "glibc.malloc." in environ.get("GLIBC_TUNABLES", ""))


def _run(script: str, **extra_env) -> str:
    """Run ``script`` in a fresh interpreter with no user heap policy."""
    env = {name: value for name, value in os.environ.items()
           if name not in USER_POLICIES}
    env["PYTHONPATH"] = SRC
    env.update(extra_env)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()[-1]


on_glibc = pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                              reason="the policy needs glibc's mallopt")


@on_glibc
@pytest.mark.skipif(_user_policy_set(os.environ),
                    reason="a user heap policy is set for this run")
def test_import_retains_freed_memory_on_glibc():
    assert heap.state == "retained"
    assert heap.mallopt_ok


@on_glibc
def test_fresh_import_calls_mallopt_for_both_thresholds():
    report = json.loads(_run(IMPORT_SPY))
    assert report["state"] == "retained" and report["mallopt_ok"]
    assert report["calls"] == [[heap.M_MMAP_THRESHOLD, heap.MMAP_THRESHOLD],
                               [heap.M_TRIM_THRESHOLD, heap.TRIM_THRESHOLD]]


@pytest.mark.parametrize("name", sorted(USER_POLICIES))
def test_user_policy_stands_the_policy_down(name):
    report = json.loads(_run(IMPORT_SPY, **{name: USER_POLICIES[name]}))
    assert report == {"state": "env", "mallopt_ok": False, "calls": []}


def test_tunables_without_malloc_keys_do_not_stand_down(monkeypatch):
    monkeypatch.setattr(heap, "state", heap.state)
    monkeypatch.setattr(heap, "mallopt_ok", heap.mallopt_ok)
    for name in USER_POLICIES:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("GLIBC_TUNABLES", "glibc.cpu.hwcaps=-AVX512F")
    assert heap.retain_freed_memory() != "env"


def test_libc_without_mallopt_is_unavailable(monkeypatch):
    monkeypatch.setattr(heap, "state", heap.state)
    monkeypatch.setattr(heap, "mallopt_ok", heap.mallopt_ok)
    for name in USER_POLICIES:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setattr(heap.ctypes, "CDLL", lambda name: object())
    assert heap.retain_freed_memory() == "unavailable"
    assert not heap.mallopt_ok


@on_glibc
def test_warm_training_fit_does_not_page_fault():
    # Without the policy glibc trims the heap after each step and this fit
    # takes thousands of minor faults; with it, the freed buffers are reused.
    faults = int(_run(WARM_FIT_FAULTS))
    assert faults < 500, faults


@pytest.mark.parametrize("scheduling", [{}, {"suggest_batch": 2,
                                             "search_workers": 2}])
def test_traced_train_spans_report_policy_and_page_faults(scheduling):
    from repro.core import BayesFT
    from repro.data import SyntheticMNIST
    from repro.models import build_mlp
    from repro.telemetry import (
        Telemetry, format_trace_summary, summarize_trace, using,
    )

    data = SyntheticMNIST(n_samples=120, image_size=16, rng=3)

    def search():
        model = build_mlp(256, depth=2, width=16, num_classes=10, rng=5)
        return BayesFT(sigma=0.7, n_trials=2, epochs_per_trial=1,
                       monte_carlo_samples=2, rng=5,
                       **scheduling).fit(model, data)

    untraced = search().to_json()
    with using(Telemetry()) as telemetry:
        traced = search().to_json()
    assert traced == untraced
    summary = summarize_trace(telemetry.snapshot())
    assert summary["counters"]["train_page_faults"] >= 0
    assert summary["heap_policy"] == heap.state
    heap_lines = [line for line in format_trace_summary(summary).splitlines()
                  if line.startswith("heap ")]
    assert len(heap_lines) == 1
    assert heap_lines[0].endswith(
        f"{heap.state}, {summary['counters']['train_page_faults']} "
        "train page faults")
