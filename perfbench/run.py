"""End-to-end benchmark of the BayesFT reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload search_seq --seed 1 --seconds 30 --trace 0

Workloads (``BENCHMARK.json`` lists the gated ones and why each exists;
``layers.json`` says what every metric means on each):

* ``search_seq``   -- back-to-back ``BayesFT.fit`` searches, in-process;
* ``matrix``       -- ``fault_matrix`` fill passes over 2 cell workers into
  fresh result stores, each followed by resume passes;
* ``search_async`` -- the ``search_seq`` searches with ``suggest_batch=2``
  over a 2-worker search pool (runnable, not gated);
* ``sweep_deep``   -- ``DriftSweepEngine.run`` on a trained PreAct-18 over
  2 shared-memory workers (runnable, not gated).

One driving process runs a closed loop: the next unit starts when the
previous one returns.  The run prints a human-readable report and, as its
last line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
spends the first half of the window untraced and the second half traced,
and reports the per-layer metrics, writing the spans and ledger to
``perfbench/out/``.

All gated timings are in reference seconds (``calibrate.py``): each timed
call is scaled by how much slower than its reference time the workload's
calibration kernel ran around it, which takes out the drift in the shared
host's speed between runs.  The report prints wall seconds beside them.

``setup_s`` is the median of five set-ups, each in a fresh interpreter:
this process, timed from its first line, and four child processes started
with ``--setup-only``; each is scaled by the median of five kernel runs
made right after it.  The benchmark never sets BLAS or OpenMP thread
counts; it reads the effective BLAS thread count into the fingerprint.
"""

import time

_START = time.perf_counter()  # set-up time counts the imports below

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_CHILDREN = 4
SETUP_KERNEL_RUNS = 5
CHILD_TIMEOUT_S = 150


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' for every workload "
                             "BENCHMARK.json gates, one process each")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and exit (used for setup_s)")
    return parser.parse_args(argv)


def shm_segments() -> set:
    try:
        return {name for name in os.listdir("/dev/shm")
                if name.startswith("psm_")}
    except OSError:
        return set()


def live_children() -> list[int]:
    """PIDs of this process's children that still exist (Linux /proc)."""
    pids = []
    for task in os.listdir(f"/proc/{os.getpid()}/task"):
        with open(f"/proc/{os.getpid()}/task/{task}/children") as handle:
            pids.extend(int(pid) for pid in handle.read().split())
    return pids


def release_processes(shm_before: set) -> list[str]:
    """Shut the program's pools down; return what survived (should be nothing)."""
    import multiprocessing
    from multiprocessing import resource_tracker

    from repro.execution import shutdown_runtime

    shutdown_runtime()
    problems = [f"multiprocessing child {child.pid} alive"
                for child in multiprocessing.active_children()]
    # Look for leaked segments before the resource tracker stops: on exit
    # it unlinks whatever is still registered, which would hide a leak.
    problems += [f"shared-memory segment {name} left"
                 for name in sorted(shm_segments() - shm_before)]
    # The tracker is a helper process the program starts; stop it and wait,
    # so no process of this run outlives the run.
    resource_tracker._resource_tracker._stop()
    problems += [f"child process {pid} alive" for pid in live_children()]
    return problems


def tail_percentile(samples: list) -> tuple | None:
    """Highest of p50..p99 with at least ten samples beyond it."""
    import numpy as np

    for p in (99, 95, 90, 75, 50):
        if len(samples) - int(np.ceil(p / 100 * len(samples))) >= 10:
            return p, float(np.percentile(samples, p))
    return None


def run_window(workload, seconds: float) -> list:
    """Closed loop for ``seconds`` (at least one unit).

    Returns ``(start, end, Unit)`` per unit; a unit that raises counts as
    failed and the loop goes on.
    """
    from workloads import Unit

    units = []
    begin = time.perf_counter()
    while not units or time.perf_counter() - begin < seconds:
        start = time.perf_counter()
        try:
            unit = workload.unit(workload.next_index)
        except Exception:
            traceback.print_exc()
            unit = Unit(failed=1)
        workload.next_index += 1
        units.append((start, time.perf_counter(), unit))
    return units


def setup_only(args) -> int:
    from workloads import WORKLOADS

    shm_before = shm_segments()
    workdir = tempfile.mkdtemp(prefix="setup-", dir=OUT)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.setup()
        setup = timed_setup(workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems = release_processes(shm_before)
    print(json.dumps({"setup": setup, "problems": problems}))
    return 0


def timed_setup(workload) -> tuple:
    """``(wall_s, kernel_s)`` of this process's set-up, which just ended."""
    wall_s = time.perf_counter() - _START
    return wall_s, workload.calibrator.measure_median(SETUP_KERNEL_RUNS)


def child_setup_times(args) -> list:
    times = []
    for _ in range(SETUP_CHILDREN):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if out.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{out.stderr}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if result["problems"]:
            raise RuntimeError(f"set-up child left {result['problems']}")
        times.append(tuple(result["setup"]))
    return times


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no src/repro under {ROOT}; run it from the root "
              "of a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one "
              f"of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    if args.setup_only:
        return setup_only(args)

    shm_before = shm_segments()
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        return measure(args, WORKLOADS[args.workload], workdir, shm_before)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args) -> int:
    """Run each gated workload in its own process; 1 if any failed."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        names = [workload["name"] for workload in json.load(handle)["workloads"]]
    status = 0
    for name in names:
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        print(out.stdout, end="", flush=True)
        lines = out.stdout.strip().splitlines()
        try:
            correct = out.returncode == 0 and json.loads(lines[-1])["correct"]
        except (IndexError, ValueError, KeyError):
            correct = False
        status = status or int(not correct)
    return status


def measure(args, workload_cls, workdir: str, shm_before: set) -> int:
    workload = workload_cls(args.seed, workdir)
    workload.setup()
    setup_times = [timed_setup(workload)]

    from fingerprint import fingerprint
    from repro.execution import get_runtime, shutdown_runtime

    if not args.trace:  # the traced run reports no end-to-end metrics
        setup_times += child_setup_times(args)
    workload.reference()

    if not args.trace:
        units = run_window(workload, args.seconds)
        every_unit = units
    else:
        from tracing import Tracer

        untraced = run_window(workload, args.seconds / 2)
        tracer = Tracer(tempfile.mkdtemp(prefix="spans-", dir=workdir))
        tracer.install()
        workload.tracer = tracer
        # Warm pools forked before install lack the wrappers: fork afresh,
        # and let one traced unit pay the cold start outside the window.
        shutdown_runtime()
        warm = run_window(workload, 0)
        before = dict(get_runtime().stats()["counters"])
        units = run_window(workload, args.seconds / 2)
        after = get_runtime().stats()["counters"]
        workload.tracer = None
        tracer.uninstall()
        every_unit = untraced + warm + units

    try:
        compared, mismatched = workload.check()
    except Exception:
        traceback.print_exc()
        compared, mismatched = 1, 1
    problems = release_processes(shm_before)
    env = fingerprint(ROOT)

    print(f"workload {workload.name} seed {args.seed} trace {args.trace} "
          f"seconds {args.seconds:g}")
    print("fingerprint " + json.dumps(env, sort_keys=True))
    for problem in problems:
        print(f"hygiene FAILED: {problem}")
    if not args.trace:
        metrics = end_to_end(workload, units, setup_times)
    else:
        from ledger import compute

        delta = {key: after.get(key, 0) - before.get(key, 0) for key in after}
        overhead = (statistics.median(end - start for start, end, _ in units)
                    / statistics.median(end - start
                                        for start, end, _ in untraced))
        worker_spans = tracer.worker_spans()
        metrics, ledger = compute(units, tracer.spans, worker_spans, delta,
                                  workload.data_build_s,
                                  env["blas"]["threads"], overhead)
        print_ledger(ledger, metrics)
        path = os.path.join(OUT, f"trace-{workload.name}-seed{args.seed}.json")
        with open(path, "w") as handle:
            json.dump({"fingerprint": env, "ledger": ledger,
                       "metrics": metrics, "main_spans": tracer.spans,
                       "worker_spans": worker_spans}, handle)
        print(f"trace written to {os.path.relpath(path, ROOT)}")

    attempted = sum(unit.attempted for _, _, unit in every_unit) + compared
    failed = (sum(unit.failed for _, _, unit in every_unit) + mismatched
              + int(bool(problems)))
    print(f"fail_ratio  {failed / attempted:.4f}  ({failed} of {attempted} "
          "units failed)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def end_to_end(workload, units: list, setup_times: list) -> dict:
    scale = workload.calibrator.scale
    walls = [sample for _, _, unit in units for sample in unit.samples]
    kernels = [kernel for _, _, unit in units for kernel in unit.kernel_s]
    samples = [scale(wall, kernel) for wall, kernel in zip(walls, kernels)]
    unit_s = statistics.median(samples)
    # Throughput at the median unit: a mean over a few long units, or over
    # resume passes with a tail right after each fill, would track the
    # outliers rather than the program.
    items_per_sample = sum(unit.items for _, _, unit in units) / len(samples)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups = [scale(wall, kernel) for wall, kernel in setup_times]
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "unit_s": {"value": unit_s, "unit": "s"},
        "work_per_s": {"value": items_per_sample / unit_s, "unit": "1/s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    tail = tail_percentile(samples)
    reference_s = workload.calibrator.reference_s
    print(f"kernel      {workload.calibrator.kernel}: median "
          f"{statistics.median(kernels):.5f} s over {len(set(kernels))} "
          f"brackets, reference {reference_s:.5f} s")
    print(f"setup_s     {metrics['setup_s']['value']:.4f} s  median of "
          f"{len(setups)} set-ups {[round(t, 3) for t in setups]}; wall "
          f"{[round(wall, 3) for wall, _ in setup_times]}")
    print(f"unit_s      {unit_s:.4f} s  median of {len(samples)} "
          f"({workload.unit_label})"
          + (f"; p{tail[0]} {tail[1]:.4f} s" if tail else "")
          + f"; wall median {statistics.median(walls):.4f} s")
    print(f"work_per_s  {metrics['work_per_s']['value']:.4f} 1/s  "
          f"{items_per_sample:g} {workload.item_label} / median unit")
    print(f"peak_rss_mb {peak_rss_mb:.1f} MB  (driving process)")
    fill_cells = sum(unit.counts.get("fill_cells", 0) for _, _, unit in units)
    if fill_cells:
        fill_seconds = sum(unit.counts["fill_seconds"] for _, _, unit in units)
        print(f"fill        {fill_cells / fill_seconds:.4f} cells/s  "
              f"{fill_cells} cells in {fill_seconds:.3f} s (not gated)")
    return metrics


def print_ledger(ledger: dict, metrics: dict) -> None:
    print(f"ledger over {ledger['units']} traced units, seconds per unit:")
    print(f"  wall                    {ledger['wall_s_per_unit']:.4f}")
    rows = ledger["main_self_s_per_unit"]
    for name, value in sorted(rows.items(), key=lambda item: -item[1]):
        print(f"  {name:<24}{value:.4f}")
    print(f"  {'(unattributed)':<24}{ledger['unattributed_s_per_unit']:.4f}")
    print(f"  rows + unattributed     "
          f"{sum(rows.values()) + ledger['unattributed_s_per_unit']:.4f}")
    print(f"worker busy {ledger['worker_busy_s_per_unit']:.4f} s per unit:")
    for name, value in sorted(ledger["worker_self_s_per_unit"].items(),
                              key=lambda item: -item[1]):
        print(f"  {name:<24}{value:.4f}")
    for name, metric in metrics.items():
        print(f"{name:<32}{metric['value']:.6g} {metric['unit']}")


if __name__ == "__main__":
    sys.exit(main())
