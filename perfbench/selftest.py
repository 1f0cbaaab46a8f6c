#!/usr/bin/env python3
"""Self-test of the benchmark's own checks, on small inputs (a few seconds).

Run from the root of a checkout:

    python3 perfbench/selftest.py

For every workload it runs one small op and shows that the genuine output
passes its check while tampered outputs are counted as failures, and that a
changed output fails the repeat comparison. It also shows that tracing restores
the library, reports a missing function as absent, and repeats its counts
exactly, and that BENCHMARK.json lists exactly the metrics the benchmark prints.
Exits 1 if any expectation fails.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys

import run

FAILURES: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(("ok      " if condition else "FAILED  ") + what)
    if not condition:
        FAILURES.append(what)


def counted_as_failure(wl, inp, out) -> bool:
    ledger = run.Ledger()
    ledger.record("tampered", run.outcome(wl, inp, out, None))
    return ledger.failed == 1


def tamper_tpk1(path: str, edit) -> None:
    from tpfiles import read_tpk1, write_tpk1
    layers, _ = read_tpk1(path)
    layers = [copy.deepcopy(layer) for layer in layers]
    for layer in layers:
        layer.weight = layer.weight.copy()
    edit(layers)
    write_tpk1(path, layers)


def tamper_report(path: str, key: str, value) -> None:
    with open(path) as f:
        report = json.load(f)
    report["layers"][0][key] = value
    with open(path, "w") as f:
        json.dump(report, f)


def check_transport(wl) -> None:
    inp = wl.setup_round(0)
    out = wl.run(inp, "genuine")
    expect(wl.check(inp, out) == [], f"{wl.name}: genuine output passes")
    again = wl.run(inp, "again")
    expect(wl.identical(out, again), f"{wl.name}: same input gives identical bytes")

    def bump(layers):
        layers[1].weight[0, 0] += 1e-3

    def poison(layers):
        layers[2].weight[3, 1] = float("nan")

    tamper_tpk1(again[0], bump if wl.method == "theseus" else poison)
    expect(not wl.identical(out, again), f"{wl.name}: changed output fails the repeat comparison")
    expect(counted_as_failure(wl, inp, again), f"{wl.name}: tampered weights count as a failed op")

    again = wl.run(inp, "again")
    tamper_report(again[1], "bilinear_residual", -1.0)
    expect(counted_as_failure(wl, inp, again), f"{wl.name}: negative report residual counts as failed")


def check_experiment(wl) -> None:
    cfg = wl.setup_round(0)
    result = wl.run(cfg, "genuine")
    expect(wl.check(cfg, result) == [], "experiment: genuine result passes")
    expect(wl.identical(result, {**result, "wall_clock_sec": -1.0}),
           "experiment: wall_clock_sec is left out of the repeat comparison")

    shifted = copy.deepcopy(result)
    shifted["methods"]["theseus"]["accuracy_after"] = 0.5 * shifted["methods"]["theseus"]["accuracy_after"] + 0.01
    expect(not wl.identical(result, shifted), "experiment: changed result fails the repeat comparison")
    expect(counted_as_failure(wl, cfg, shifted), "experiment: delta_acc mismatch counts as a failed op")

    missing = copy.deepcopy(result)
    del missing["methods"]["random"]
    expect(counted_as_failure(wl, cfg, missing), "experiment: missing method counts as a failed op")

    bad = copy.deepcopy(result)
    row = bad["methods"]["zero_pad"]
    row["accuracy_after"], row["delta_acc"] = 1.5, 1.5 - row["accuracy_before"]
    expect(counted_as_failure(wl, cfg, bad), "experiment: accuracy above 1 counts as a failed op")


def check_tracing(wl) -> None:
    import spans
    import taskport.linalg
    import taskport.transport

    original = taskport.transport.svd
    inp = wl.setup_round(1)
    tracer = spans.Tracer()
    for op in (0, 1):
        tracer.install(op)
        try:
            wl.discard(wl.run(inp, f"traced{op}"))
        finally:
            tracer.uninstall()
    expect(taskport.transport.svd is original and taskport.linalg.svd is original,
           "tracing: originals restored at every binding")
    per_op = tracer.per_op()
    calls = [{name: entry[0] for name, entry in per_op[op]["layers"].items()} for op in (0, 1)]
    counts = [{name: v for (o, name), v in tracer.counts.items() if o == op} for op in (0, 1)]
    expect(calls[0] == calls[1] and counts[0] == counts[1] and calls[0].get("linalg.svd", 0) > 0,
           "tracing: calls and computed counts repeat exactly on the same input")
    expect(all(entry[1] >= -1e-9 for op in (0, 1) for entry in per_op[op]["layers"].values()),
           "tracing: self times are non-negative")

    saved = spans.TRACED
    spans.TRACED = saved + (("transport.no_such_function", ""),)
    try:
        tracer = spans.Tracer()
        tracer.install(0)
        tracer.uninstall()
    finally:
        spans.TRACED = saved
    expect(tracer.absent == {"transport.no_such_function"}, "tracing: a missing function is reported absent")


def check_benchmark_json(root: str) -> None:
    import spans
    path = os.path.join(root, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    expect([w["name"] for w in spec["workloads"]] == ["transport-theseus", "transport-pinv"],
           "BENCHMARK.json: lists the transport workloads")
    expect([(m["name"], m["unit"]) for m in spec["per_layer"]] == spans.metric_specs(),
           "BENCHMARK.json: per-layer metrics match the traced run's")
    expect({m["name"] for m in spec["end_to_end"]} ==
           {"op_s.p50", "ops_per_s", "cpu_s_per_op", "minor_faults_per_op", "peak_rss_mb", "setup_s"},
           "BENCHMARK.json: end-to-end metrics match the untraced run's")


def main() -> int:
    root = os.getcwd()
    run.pin_environment()
    run.import_program(root)
    import workloads

    workdir = os.path.join(root, run.OUT_DIR, f"selftest-{os.getpid()}")
    os.makedirs(workdir)
    try:
        small = dict(size=workloads.WARM, rounds=1)
        check_transport(workloads.TransportWorkload("theseus", workdir, 7, **small))
        check_transport(workloads.TransportWorkload("pinv", workdir, 7, **small))
        check_experiment(workloads.ExperimentWorkload(7))
        check_tracing(workloads.TransportWorkload("theseus", workdir, 8, **small))
        check_benchmark_json(root)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(FAILURES)} expectation(s) failed" if FAILURES else "all expectations hold")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
