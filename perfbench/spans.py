"""Per-layer tracing from outside the library.

During a traced op every function in TRACED is replaced, at every module
attribute (and module-level dict entry) of the ``taskport`` package that binds
it, by a wrapper that records a span: op id, name, start, end and the index of
the enclosing span. The originals are put back after the op, so untraced ops
run the library unchanged. A layer's self time is its span's duration minus the
durations of its direct child spans. Spans stay in memory until the run ends.

A function a later change deletes is reported as absent and its metrics read 0;
the benchmark does not crash on it.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "taskport"

# Traced functions, with the end-to-end metric and workload each should move.
# "theseus", "pinv" and "experiment" stand for the three workloads.
TRACED = (
    ("cli.main", "op_s.p50 on theseus/pinv: argument parsing, report JSON, orchestration residue"),
    ("model.forward_collect", "op_s.p50 on experiment (training) and theseus/pinv; bytes_out moves peak_rss_mb on theseus/pinv"),
    ("model.task_vector", "op_s.p50 on theseus/pinv"),
    ("model.apply_update", "op_s.p50 on experiment (alpha search) and theseus/pinv"),
    ("model.load_checkpoint", "op_s.p50 on theseus/pinv (TPK1 reads)"),
    ("model.load_calibration", "op_s.p50 on theseus/pinv (TPC1 reads)"),
    ("model.save_checkpoint", "op_s.p50 on theseus/pinv (TPK1 write)"),
    ("seqalign.align_sequence", "op_s.p50 and peak_rss_mb on theseus/pinv"),
    ("linalg.svd", "op_s.p50 and cpu_s_per_op on theseus (~30%) and pinv (~45%); ~0 on experiment"),
    ("linalg.pseudo_inverse", "op_s.p50 on pinv only"),
    ("linalg.require_finite", "op_s.p50 on all; most calls on experiment, most bytes on theseus/pinv"),
    ("linalg.as_matrix", "op_s.p50 on all"),
    ("transport.cross_covariance", "op_s.p50 on pinv (~15%, 6 per layer) and theseus (~7%, 2 per layer)"),
    ("transport.procrustes_align", "op_s.p50 on theseus only (~8%, residual product)"),
    ("transport.bilinear_residual", "op_s.p50 on theseus (~21%) and pinv (~15%)"),
    ("transport.transport_task_vector", "op_s.p50 on theseus/pinv (orchestration residue)"),
    ("baselines.pinv_transport", "op_s.p50 on pinv only"),
    ("harness.training.train_classifier", "op_s.p50 on experiment"),
    ("harness.training.loss_and_grads", "op_s.p50 on experiment (~30% self)"),
    ("harness.training.evaluate", "op_s.p50 on experiment"),
    ("harness.training.alpha_search", "op_s.p50 on experiment"),
    ("harness.experiment.prepare_experiment", "op_s.p50 on experiment"),
    ("harness.experiment.evaluate_method", "op_s.p50 on experiment"),
    ("harness.data.make_dataset", "op_s.p50 on experiment"),
    ("harness.data.render_tokens", "op_s.p50 on experiment"),
)


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs.get(key)


def _size(a) -> int:
    return math.prod(np.shape(a)) if a is not None else 0


def _svd_flops(args, kwargs, result) -> int:
    # Golub & Van Loan's R-SVD count for the thin SVD (U1, Sigma, V) of an
    # M x N matrix with M >= N: 6 M N^2 + 20 N^3.
    shape = np.shape(_arg(args, kwargs, 0, "a"))
    if len(shape) != 2:
        return 0
    m, n = max(shape), min(shape)
    return 6 * m * n * n + 20 * n ** 3


def _record_bytes(args, kwargs, result) -> int:
    # float64 bytes of every recorded layer input and pre-activation output.
    records = result[1] if isinstance(result, tuple) and len(result) == 2 else ()
    return sum(8 * (_size(getattr(r, "h_in", None)) + _size(getattr(r, "h_out", None)))
               for r in records)


def _array_bytes(args, kwargs, result) -> int:
    return 8 * _size(_arg(args, kwargs, 0, "a"))


def _file_bytes(pos: int):
    def count(args, kwargs, result) -> int:
        path = _arg(args, kwargs, pos, "path")
        return os.path.getsize(path) if isinstance(path, (str, os.PathLike)) and os.path.exists(path) else 0
    return count


# Computed counts: (name, unit, traced function, amount per call). A name may
# collect from several functions.
COUNTERS = (
    ("linalg.svd.flops", "flop", "linalg.svd", _svd_flops),
    ("model.forward_collect.bytes_out", "B", "model.forward_collect", _record_bytes),
    ("linalg.require_finite.bytes", "B", "linalg.require_finite", _array_bytes),
    ("model.io.bytes", "B", "model.load_checkpoint", _file_bytes(0)),
    ("model.io.bytes", "B", "model.load_calibration", _file_bytes(0)),
    ("model.io.bytes", "B", "model.save_checkpoint", _file_bytes(1)),
)
COUNTER_UNITS = {name: unit for name, unit, _, _ in COUNTERS}

# Whole-op figures of the traced run.
TRACE_METRICS = (
    ("trace.op_s.p50", "s"),       # median wall time of the traced ops
    ("trace.overhead_s", "s"),     # traced minus untraced op_s.p50, same run
    ("trace.uncovered_s", "s"),    # median op time outside every top-level span
)


def metric_specs() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    specs = []
    for name, _ in TRACED:
        specs += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    specs += list(COUNTER_UNITS.items())
    return specs + list(TRACE_METRICS)


class Tracer:
    def __init__(self):
        self.spans: list = []           # [op, name, start, end, parent index]
        self.counts = defaultdict(int)  # (op, counter name) -> amount
        self.absent: set[str] = set()
        self._op = None
        self._stack: list[int] = []
        self._patched: list = []

    def _wrap(self, name: str, fn, counters):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[idx] = (tracer._op, name, start, end, parent)
            for counter, count in counters:
                tracer.counts[tracer._op, counter] += count(args, kwargs, result)
            return result

        return wrapper

    def install(self, op: int) -> None:
        """Wrap every traced function for op ``op``."""
        self._op = op
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for name, _ in TRACED:
            module_name, _, attr = name.rpartition(".")
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.add(name)
                continue
            counters = [(c, count) for c, _, fname, count in COUNTERS if fname == name]
            wrapper = self._wrap(name, fn, counters)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        bindings = [(vars(mod), key)]
                    elif isinstance(value, dict) and not key.startswith("__"):
                        bindings = [(value, k) for k, v in value.items() if v is fn]
                    else:
                        continue
                    for container, k in bindings:
                        container[k] = wrapper
                        self._patched.append((container, k, fn))

    def uninstall(self) -> None:
        for container, key, original in reversed(self._patched):
            container[key] = original
        self._patched.clear()
        self._op = None

    def per_op(self) -> dict:
        """op -> {"layers": {name: [calls, self_s]}, "covered_s": top-level span time}."""
        child = [0.0] * len(self.spans)
        for op, name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"layers": defaultdict(lambda: [0, 0.0]), "covered_s": 0.0})
        for idx, (op, name, start, end, parent) in enumerate(self.spans):
            entry = out[op]["layers"][name]
            entry[0] += 1
            entry[1] += (end - start) - child[idx]
            if parent < 0:
                out[op]["covered_s"] += end - start
        return out

    def metrics(self, traced_walls: dict, untraced_walls: list) -> dict:
        """Per-layer metrics: counts from the first traced op, times as medians over traced ops.

        ``traced_walls`` maps each traced op to its wall time.
        """
        per_op = self.per_op()
        ops = sorted(traced_walls)
        first = ops[0]
        values = {}
        for name, _ in TRACED:
            per_call = [per_op[op]["layers"].get(name, (0, 0.0)) for op in ops]
            values[f"{name}.calls"] = per_call[0][0]
            values[f"{name}.self_s"] = statistics.median(self_s for _, self_s in per_call)
        for name in COUNTER_UNITS:
            values[name] = self.counts.get((first, name), 0)
        traced_p50 = statistics.median(traced_walls.values())
        values["trace.op_s.p50"] = traced_p50
        values["trace.overhead_s"] = traced_p50 - statistics.median(untraced_walls)
        values["trace.uncovered_s"] = statistics.median(
            traced_walls[op] - per_op[op]["covered_s"] for op in ops)
        return values
