"""Fingerprint the canonical outputs of taskport, and compare two fingerprints.

    python scripts/fingerprint.py --out FP.json [--tiny]
    python scripts/fingerprint.py --compare A.json B.json

The canonical outputs are:
  - for each of 6 methods x 3 seq_align strategies x 4 width cases
    (narrow->wide, wide->narrow, mixed per side, equal; ReLU stacks with
    biases): the transported deltas, the bias deltas, and the report JSON, or
    the error message when the transport fails
  - run_experiment(ExperimentConfig()) without wall_clock_sec
  - the make-fixtures demo transport, for every method: the output
    checkpoint's weights and bytes, and the report

Each entry holds a SHA-256 hash and a Frobenius norm, plus the values needed to
say how far two fingerprints differ. ``--compare`` prints one line per entry:
"bitwise", the largest relative deviation and its absolute size (of an array,
relative to its largest entry; of a report, of the number that moved most
relative to itself, so a rounding-level residual reads large relative and
small absolute), or old -> new for a changed error message or experiment
number. When any number moved, the summary line also names the entry with the
largest relative deviation; when any entry moved, one line per method follows
it (the experiment is one more), with its count of moved entries and its
largest relative deviation. Hashes depend on the BLAS build, the BLAS thread
count and the CPU, so compare fingerprints made on one machine under one
thread count. A fingerprint written to a file records the BLAS thread
settings it ran under beside it, outside its entries (``FP.json`` in
``FP.blas.json``), and ``--compare`` prints one line naming both sides'
settings when they differ. ``--tiny`` shrinks the calibration set and swaps
the stock experiment for a seconds-long one.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

# Fingerprint this checkout's taskport, whatever PYTHONPATH says; it is
# imported only to make a fingerprint, as comparing two needs none.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

# Interface widths (source, target) per case; inputs differ in width too.
WIDTH_CASES = {
    "narrow_to_wide": ((6, 10, 8, 4), (8, 14, 12, 5)),
    "wide_to_narrow": ((8, 14, 12, 5), (6, 10, 8, 4)),
    "mixed": ((6, 14, 8, 4), (8, 10, 12, 4)),
    "equal": ((6, 10, 10, 4), (6, 10, 10, 4)),
}
TOKENS = (9, 16)  # 3x3 and 4x4 grids, so every strategy applies
# The BLAS thread settings a fingerprint records, as perfbench/run.py records them.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# CLI spelling -> config spelling, in the order of the library's METHODS.
CLI_METHODS = {"theseus": "theseus", "pinv": "pinv", "pinv-tikh": "pinv_tikhonov",
               "zero-pad": "zero_pad", "random": "random", "random-source": "random_source"}


def _stack(widths, rng):
    from taskport.model import Checkpoint, LayerSpec

    specs = [LayerSpec(widths[i], widths[i + 1], has_bias=True,
                       activation="relu" if i < len(widths) - 2 else "identity")
             for i in range(len(widths) - 1)]
    weights = [rng.standard_normal((s.d_out, s.d_in)) / math.sqrt(s.d_in) for s in specs]
    biases = [0.5 * rng.standard_normal(s.d_out) for s in specs]
    return Checkpoint(layer_specs=specs, weights=weights, biases=biases)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _array_entry(a) -> dict:
    a = np.ascontiguousarray(a, dtype=np.float64)
    return {"sha256": _sha(repr(a.shape).encode() + a.tobytes()),
            "norm": float(np.linalg.norm(a)), "values": a.ravel().tolist()}


def _numbers(doc, prefix=""):
    """(dotted path, number) for every numeric leaf of a JSON document."""
    if isinstance(doc, dict):
        for key in sorted(doc):
            yield from _numbers(doc[key], f"{prefix}.{key}" if prefix else str(key))
    elif isinstance(doc, list):
        for idx, item in enumerate(doc):
            yield from _numbers(item, f"{prefix}[{idx}]")
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        yield prefix, float(doc)


def _doc_entry(doc) -> dict:
    nums = [v for _, v in _numbers(doc)]
    return {"sha256": _sha(json.dumps(doc, sort_keys=True).encode()),
            "norm": float(np.linalg.norm(nums)) if nums else 0.0, "doc": doc}


def _error_entry(message: str) -> dict:
    return {"sha256": _sha(message.encode()), "norm": 0.0, "error": message}


def transport_entries(seqs: int) -> dict:
    from taskport.errors import TaskportError
    from taskport.seqalign import STRATEGIES
    from taskport.transport import METHODS, TransportConfig, transport_task_vector

    entries = {}
    for case_index, (case, (widths_a, widths_b)) in enumerate(WIDTH_CASES.items()):
        rng = np.random.default_rng(np.random.SeedSequence((case_index, 4242)))
        theta_a, theta_a_ft, theta_b = _stack(widths_a, rng), _stack(widths_a, rng), _stack(widths_b, rng)
        calib_a = rng.standard_normal((seqs, TOKENS[0], widths_a[0]))
        calib_b = rng.standard_normal((seqs, TOKENS[1], widths_b[0]))
        for strategy in STRATEGIES:
            for method in METHODS:
                key = f"transport/{case}/{strategy}/{method}"
                cfg = TransportConfig(method=method, strategy=strategy, seed=3)
                try:
                    update, report = transport_task_vector(
                        theta_a, theta_a_ft, theta_b, lambda: (calib_a.copy(), calib_b.copy()), cfg)
                except TaskportError as exc:
                    entries[f"{key}/error"] = _error_entry(f"{exc.kind}: {exc}")
                    continue
                for idx, (delta, bias) in enumerate(zip(update.deltas, update.bias_deltas)):
                    entries[f"{key}/delta{idx}"] = _array_entry(delta)
                    entries[f"{key}/bias{idx}"] = _array_entry(bias)
                entries[f"{key}/report"] = _doc_entry(report)
    return entries


def experiment_entry(tiny: bool) -> dict:
    from taskport.harness.experiment import (
        ExperimentConfig, ModelConfig, TaskConfig, TrainConfig, run_experiment,
    )

    cfg = ExperimentConfig()
    if tiny:
        cfg = ExperimentConfig(
            task=TaskConfig(n_classes=3, d_raw=12, tokens=3, noise_sigma=0.6, center_scale=2.0,
                            train_per_class=20, val_per_class=10, test_per_class=20,
                            pretrain_per_class=20),
            source_model=ModelConfig(width=8), target_model=ModelConfig(width=10),
            train=TrainConfig(pretrain_steps=20, finetune_steps=30, lr=0.08),
            batches_b=2, batch_size=10, alpha_grid=[0.0, 0.5, 1.0],
        )
    result = run_experiment(cfg)
    result.pop("wall_clock_sec")
    return _doc_entry(result)


def demo_entries() -> dict:
    from taskport.cli import main as cli_main
    from taskport.model import load_checkpoint

    entries = {}
    with tempfile.TemporaryDirectory() as tmp:
        demo = Path(tmp)
        with contextlib.redirect_stdout(io.StringIO()):
            if cli_main(["make-fixtures", "--seed", "0", "--outdir", str(demo)]) != 0:
                raise SystemExit("make-fixtures failed")
        for method in CLI_METHODS:
            out, report = demo / f"{method}.tpk", demo / f"{method}.json"
            argv = ["transport", "--source", str(demo / "source_a.tpk"),
                    "--finetuned", str(demo / "source_a_ft.tpk"),
                    "--target", str(demo / "target_b.tpk"), "--calib", str(demo / "calib.tpc"),
                    "--method", method, "--output", str(out), "--report", str(report)]
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                code = cli_main(argv)
            if code != 0:
                entries[f"demo/{method}/error"] = _error_entry(stderr.getvalue().strip())
                continue
            weights = np.concatenate([w.ravel() for w in load_checkpoint(out).weights])
            entries[f"demo/{method}/weights"] = _array_entry(weights)
            entries[f"demo/{method}/checkpoint_bytes"] = {"sha256": _sha(out.read_bytes()), "norm": 0.0}
            entries[f"demo/{method}/report"] = {**_doc_entry(json.loads(report.read_text())),
                                                "sha256": _sha(report.read_bytes())}
    return entries


def fingerprint(tiny: bool = False) -> dict:
    entries = transport_entries(seqs=4 if tiny else 24)
    entries["experiment"] = experiment_entry(tiny)
    entries.update(demo_entries())
    return entries


def settings_path(path) -> Path:
    """Where the BLAS thread settings of the fingerprint at ``path`` are kept."""
    return Path(path).with_suffix(".blas.json")


def write(entries: dict, out: str) -> None:
    """The fingerprint to ``out``, or to stdout for ``-``; beside a file, the
    BLAS thread settings it ran under."""
    text = json.dumps(entries, sort_keys=True) + "\n"
    if out == "-":
        sys.stdout.write(text)
        return
    Path(out).write_text(text)
    settings_path(out).write_text(json.dumps({v: os.environ.get(v) for v in BLAS_THREAD_VARS}) + "\n")


def _settings(path) -> str:
    """The BLAS thread settings recorded beside the fingerprint at ``path``, as one phrase."""
    recorded = settings_path(path)
    if not recorded.is_file():
        return "not recorded"
    settings = json.loads(recorded.read_text())
    return " ".join(f"{v}={settings.get(v) or 'unset'}" for v in BLAS_THREAD_VARS)


def _relative(old: float, new: float) -> float:
    return abs(new - old) / abs(old) if old != 0.0 else (0.0 if new == 0.0 else math.inf)


def describe(key: str, old: dict, new: dict) -> tuple[str, float | None]:
    """One line saying how far entry ``new`` is from ``old``, and the largest
    relative deviation of its numbers, or None when no number can say it."""
    if old["sha256"] == new["sha256"]:
        return "bitwise", None
    if "error" in old or "error" in new:
        return f"{old.get('error', '(no error)')!r} -> {new.get('error', '(no error)')!r}", None
    if "values" in old and "values" in new:
        a, b = np.asarray(old["values"]), np.asarray(new["values"])
        if a.shape != b.shape:
            return f"shape {a.shape} -> {b.shape}", None
        scale = float(np.max(np.abs(a))) if a.size else 0.0
        dev = float(np.max(np.abs(a - b))) if a.size else 0.0
        rel = dev / scale if scale else dev
        return f"max relative deviation {rel:.3e}, absolute {dev:.3e}", rel
    if "doc" not in old or "doc" not in new:
        return "bytes differ", None
    old_nums, new_nums = dict(_numbers(old["doc"])), dict(_numbers(new["doc"]))
    if old_nums.keys() != new_nums.keys():
        return "document structure changed", None
    moved = {p: (v, new_nums[p]) for p, v in old_nums.items() if v != new_nums[p]}
    if not moved:
        return "numbers bitwise, text differs", None
    worst = max(moved, key=lambda p: _relative(*moved[p]))
    rel = _relative(*moved[worst])
    if key == "experiment":
        return "; ".join(f"{p}: {o!r} -> {n!r}" for p, (o, n) in moved.items()), rel
    old_value, new_value = moved[worst]
    return f"max relative deviation {rel:.3e}, absolute {abs(new_value - old_value):.3e} ({worst})", rel


def method_of(key: str) -> str:
    """The method an entry belongs to, in config spelling; ``experiment`` and
    other entries group by their first path part."""
    parts = key.split("/")
    if parts[0] == "transport" and len(parts) > 3:
        return parts[3]
    if parts[0] == "demo" and len(parts) > 1:
        return CLI_METHODS.get(parts[1], parts[1])
    return parts[0]


def compare(path_a, path_b) -> int:
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    settings_a, settings_b = _settings(path_a), _settings(path_b)
    if settings_a != settings_b:
        print(f"BLAS thread settings differ: {path_a} {settings_a}; {path_b} {settings_b}")
    same, worst = 0, None
    groups = {}  # method -> [entries, moved, worst (relative deviation, key) or None]
    for key in sorted(a.keys() | b.keys()):
        group = groups.setdefault(method_of(key), [0, 0, None])
        group[0] += 1
        if key not in a or key not in b:
            group[1] += 1
            print(f"{key}: only in {path_a if key in a else path_b}")
            continue
        line, rel = describe(key, a[key], b[key])
        same += line == "bitwise"
        group[1] += line != "bitwise"
        if rel is not None and (worst is None or rel > worst[0]):
            worst = (rel, key)
        if rel is not None and (group[2] is None or rel > group[2][0]):
            group[2] = (rel, key)
        print(f"{key}: {line}")
    summary = f"{same} of {len(a.keys() | b.keys())} entries bitwise"
    if worst is not None:
        summary += f"; largest relative deviation {worst[0]:.3e} ({worst[1]})"
    print(summary)
    if same < len(a.keys() | b.keys()):
        print("moved entries by method:")
        order = {m: i for i, m in enumerate(CLI_METHODS.values())}
        for method in sorted(groups, key=lambda m: (order.get(m, len(order)), m)):
            entries, moved, group_worst = groups[method]
            line = f"  {method}: {moved} of {entries} moved"
            if group_worst is not None:
                line += f"; largest relative deviation {group_worst[0]:.3e} ({group_worst[1]})"
            print(line)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="-", help="fingerprint JSON path, or - for stdout")
    parser.add_argument("--tiny", action="store_true", help="small sizes, for a smoke test")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two fingerprints")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    write(fingerprint(args.tiny), args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
