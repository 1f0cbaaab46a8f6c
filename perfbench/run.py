#!/usr/bin/env python3
"""taskport benchmark: one workload per process, a closed loop with one client.

Run from the root of a checkout (the program is imported from ./src):

    python3 perfbench/run.py --workload transport-theseus --seed 1 --seconds 50 --trace 0

A run has three phases.

1. Set-up: import numpy and taskport, then several set-up rounds. A round
   makes the input of one timed op (a fixture set for the transport
   workloads) and runs one small warm-up op. ``setup_s`` is the median import
   time (this process's import and the same import in two child processes)
   plus the median round.
2. Timed: one op after another for ``--seconds`` (at least one op; two with
   ``--trace 1``); another op starts while half a median step still fits.
   Between two ops, outside the op's clock, the benchmark makes the next op's
   input and checks the last op's output (workloads.py). With ``--trace 1``
   every second op is traced (see spans.py) and the rest run untraced, so the
   overhead of tracing is measured in the same run.
3. Repeat: the input of warm-up 0 is run again and must give an identical
   output.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The full record
(machine, per-op samples, problems, and with tracing every span) is written to
``--out``, by default under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

# BENCHMARK.json lists the two transport workloads. "experiment" runs only on
# request: its op is interpreter- and page-fault-bound, and its time followed
# the host's speed, which drifted by a third over minutes, so ten runs of one
# commit spread wider than any bound a comparison could use.
WORKLOADS = ("transport-theseus", "transport-pinv", "experiment")
OUT_DIR = ".perfbench_out"


def parse_args(argv):
    p = argparse.ArgumentParser(description="Benchmark one taskport workload.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True, help="workload seed; inputs derive from it")
    p.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: trace every second op and report per-layer metrics")
    p.add_argument("--out", default=None, help="path of the full JSON record")
    return p.parse_args(argv)


# Child processes that time the import again, so setup_s takes a median.
IMPORT_REPEATS = 2
PROGRAM_MODULES = ("numpy", "taskport", "taskport.cli", "taskport.harness.experiment")


def pin_environment() -> dict:
    """Fix thread and log settings before numpy loads, identically on every commit.

    BLAS runs one thread. The benchmark's host shares its few cores with other
    machines; two BLAS threads that wait on each other at every call then
    measure the scheduler: they doubled an op's CPU time and made its wall time
    vary by a quarter within one run.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["TASKPORT_LOG"] = "error"
    return {"nproc": nproc}


def timed_import(src: str) -> float:
    """Import the program's modules from ``src``; returns the seconds it took."""
    sys.path.insert(0, src)
    start = time.perf_counter()
    for name in PROGRAM_MODULES:
        importlib.import_module(name)
    return time.perf_counter() - start


def import_program(root: str) -> list[float]:
    """Import numpy and taskport from ``root/src``, here and in child processes.

    Returns the import time of this process followed by that of each child.
    """
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "taskport", "__init__.py")):
        sys.exit(f"perfbench: no taskport sources under {src}; run from the root of a checkout")
    times = [timed_import(src)]
    import taskport
    if not os.path.realpath(taskport.__file__).startswith(os.path.realpath(src) + os.sep):
        sys.exit(f"perfbench: imported taskport from {taskport.__file__}, not from {src}")
    here = os.path.dirname(os.path.abspath(__file__))
    code = f"import sys; sys.path.insert(0, {here!r}); import run; print(run.timed_import({src!r}))"
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              cwd=root, timeout=60, check=True)
        times.append(float(done.stdout.split()[-1]))
    return times


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None when it cannot be asked."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def git_commit(root: str):
    """HEAD of the checkout, or None when ``root`` is not the top of a git work tree."""
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=root)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def machine_record(root: str, pinned: dict) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        **pinned,
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads(),
                 "env": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}},
        "git_commit": git_commit(root),
    }


def usage() -> tuple[float, int]:
    """CPU seconds (user plus system, all threads) and minor page faults so far."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime, ru.ru_minflt


class Ledger:
    """Ops attempted and failed; an op fails when it raises or its output check does."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{label}: " + "; ".join(problems[:3]))
        return not problems


def attempt(workload, inp, tag: str):
    """Run one op; returns (output, None) or (None, reason)."""
    from workloads import OpFailed
    try:
        return workload.run(inp, tag), None
    except OpFailed as exc:
        return None, str(exc)
    except SystemExit as exc:
        return None, f"exited with {exc.code!r}"
    except Exception as exc:  # op boundary: a defect in the program is a failed op
        traceback.print_exc()
        return None, f"{type(exc).__name__}: {exc}"


def outcome(workload, inp, out, err) -> list[str]:
    """Problems of one op: its failure, or what its output check found."""
    if err is not None:
        return [err]
    try:
        return workload.check(inp, out)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        return [f"output has an unexpected structure: {type(exc).__name__}: {exc}"]


def run(args, workdir: str, import_times: list[float]) -> dict:
    import spans
    import workloads

    origin = time.perf_counter()
    wl = workloads.make(args.workload, workdir, args.seed)
    ledger = Ledger()
    repeat_of = None

    round_s = []
    for r in range(wl.rounds):
        start = time.perf_counter()
        inp = wl.setup_round(r)
        out, err = attempt(wl, inp, f"warm{r}")
        round_s.append(time.perf_counter() - start)
        ok = ledger.record(f"warm-up {r}", outcome(wl, inp, out, err))
        if r == 0 and ok:
            repeat_of = (inp, out)
        else:
            wl.discard(inp, out)
    setup_s = statistics.median(import_times) + statistics.median(round_s)

    tracer = spans.Tracer() if args.trace else None
    min_ops = 2 if tracer else 1
    ops, steps = [], []
    phase_start = time.perf_counter()
    # Start another op while at least half a median step (input, op, check) fits.
    while len(ops) < min_ops or (
            time.perf_counter() - phase_start + statistics.median(steps) / 2 <= args.seconds):
        i = len(ops)
        step_start = time.perf_counter()
        traced = tracer is not None and i % 2 == 1
        inp = wl.op_input(i)
        if traced:
            tracer.install(i)
        try:
            (c0, f0), t0 = usage(), time.perf_counter()
            out, err = attempt(wl, inp, f"op{i}")
            wall, (c1, f1) = time.perf_counter() - t0, usage()
        finally:
            if traced:
                tracer.uninstall()
        ledger.record(f"op {i}", outcome(wl, inp, out, err))
        ops.append({"index": i, "wall_s": wall, "cpu_s": c1 - c0, "minflt": f1 - f0, "traced": traced})
        wl.discard(inp, out)
        steps.append(time.perf_counter() - step_start)
    phase_s = time.perf_counter() - phase_start

    if repeat_of is not None:
        inp, first = repeat_of
        out, err = attempt(wl, inp, "repeat")
        problems = outcome(wl, inp, out, err)
        if not problems and not wl.identical(first, out):
            problems = ["output differs from warm-up 0's on the same input"]
        ledger.record("repeat of warm-up 0", problems)
        wl.discard(inp, first, out)

    plain = [op for op in ops if not op["traced"]]
    untraced = [op["wall_s"] for op in plain]
    end_to_end = {
        "op_s.p50": (statistics.median(untraced), "s"),
        "ops_per_s": (len(ops) / phase_s, "1/s"),
        "cpu_s_per_op": (statistics.median(op["cpu_s"] for op in plain), "s"),
        "minor_faults_per_op": (statistics.median(op["minflt"] for op in plain), "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "inputs": wl.describe(),
        "ops": len(ops), "untraced_ops": len(untraced),
        "op_wall_s": [op["wall_s"] for op in ops],
        "op_cpu_s": [op["cpu_s"] for op in ops],
        "op_minor_faults": [op["minflt"] for op in ops],
        "traced_ops": [op["index"] for op in ops if op["traced"]],
        "setup": {"import_s": import_times, "round_s": round_s}, "timed_phase_s": phase_s,
        "step_s": steps,
        "attempted": ledger.attempted, "failed": ledger.failed,
        "fail_frac": ledger.failed / ledger.attempted, "problems": ledger.problems,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
    }
    if tracer is not None:
        values = tracer.metrics({op["index"]: op["wall_s"] for op in ops if op["traced"]}, untraced)
        record["per_layer"] = {name: {"value": values[name], "unit": unit}
                               for name, unit in spans.metric_specs()}
        record["absent"] = sorted(tracer.absent)
        record["spans"] = [[op, name, s - origin, e - origin, parent]
                           for op, name, s, e, parent in tracer.spans]
    return record


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    pinned = pin_environment()
    import_times = import_program(root)
    record = {"machine": machine_record(root, pinned)}
    workdir = os.path.join(root, OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        record.update(run(args, workdir, import_times))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    out_path = args.out or os.path.join(
        root, OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")

    for problem in record["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"{record['workload']} seed={args.seed} ops={record['ops']} "
          f"(untraced {record['untraced_ops']}) record={os.path.relpath(out_path, root)}")
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    print(f"  fail_frac = {record['fail_frac']:.6g} ({record['failed']} of {record['attempted']} ops)")
    metrics = record["per_layer"] if args.trace else record["end_to_end"]
    if args.trace:
        for name, m in record["end_to_end"].items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}  (traced run)")
        if record["absent"]:
            print("  absent: " + ", ".join(record["absent"]))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
