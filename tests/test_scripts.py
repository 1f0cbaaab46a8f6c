import csv
import json
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
NAMES = ("fingerprint", "seqalign_ablation", "warm_start_curves", "width_scaling")


def load_script(name):
    spec = importlib.util.spec_from_file_location(f"scripts_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


@pytest.mark.parametrize("name", NAMES)
def test_script_imports(name):
    assert callable(load_script(name).main)


def test_seqalign_ablation_writes_its_table(tmp_path, capsys):
    out = tmp_path / "ablation.csv"
    assert load_script("seqalign_ablation").main(["--calib-sequences", "2", "--output", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0] == ["strategy", "accuracy_before", "accuracy_after", "best_alpha", "delta_acc"]
    assert [r[0] for r in rows[1:]] == ["mean", "interp1d", "interp2d"]


def test_warm_start_curves_writes_one_row_per_step(tmp_path, capsys):
    out = tmp_path / "curves.csv"
    assert load_script("warm_start_curves").main(["--steps", "2", "--output", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0] == ["step", "cold_loss", "warm_loss", "cold_acc", "warm_acc"]
    assert [r[0] for r in rows[1:]] == ["0", "1", "2"]


def test_width_scaling_tabulates_each_batch_count_and_method(tmp_path, monkeypatch, capsys):
    module = load_script("width_scaling")

    def canned(cfg):
        delta = cfg.batches_b / 4 + cfg.seeds.data / 8  # exact in binary
        return {"methods": {m: {"delta_acc": delta} for m in cfg.methods}}

    monkeypatch.setattr(module, "run_experiment", canned)
    out = tmp_path / "scaling.csv"
    assert module.main(["--batches", "1", "3", "--seeds", "2", "--output", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0] == ["batches_B", "method", "median_delta", "min_delta", "max_delta"]
    assert len(rows) == 1 + 2 * 3
    assert rows[1] == ["1", "theseus", "0.3125", "0.25", "0.375"]


def test_fingerprint_repeats_bitwise(tmp_path, capsys):
    # Hashes depend on the BLAS build and the CPU, so only a repeat is compared.
    module = load_script("fingerprint")
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert module.main(["--tiny", "--out", str(first)]) == 0
    assert module.main(["--tiny", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    entries = json.loads(first.read_text())
    assert "experiment" in entries and "demo/theseus/weights" in entries
    assert any(key.endswith("/error") for key in entries)  # zero_pad cannot shrink
    capsys.readouterr()
    assert module.main(["--compare", str(first), str(second)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"{len(entries)} of {len(entries)} entries bitwise"


def test_fingerprint_method_names_match_the_cli_and_the_library():
    # The fingerprint keeps its own copy so that --compare runs without
    # taskport; the copy must not drift from the CLI's table or METHODS.
    from taskport.cli import _METHOD_TOKENS
    from taskport.transport import METHODS

    cli_methods = load_script("fingerprint").CLI_METHODS
    assert list(cli_methods.items()) == list(_METHOD_TOKENS.items())
    assert tuple(cli_methods.values()) == METHODS


def test_fingerprint_compare_names_the_worst_moved_entry(tmp_path, capsys):
    module = load_script("fingerprint")
    old = {"a/same": module._array_entry([1.0, 2.0]),
           "b/array": module._array_entry([1.0, 4.0]),
           "c/report": module._doc_entry({"x": 2.0, "y": [1.0, 8.0]}),
           "d/bytes": {"sha256": "0", "norm": 0.0}}
    new = {"a/same": module._array_entry([1.0, 2.0]),
           "b/array": module._array_entry([1.0, 4.0 + 4e-12]),
           "c/report": module._doc_entry({"x": 2.0, "y": [1.0 + 3e-10, 8.0]}),
           "d/bytes": {"sha256": "1", "norm": 0.0}}
    paths = []
    for name, doc in (("old", old), ("new", new)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(doc))
    assert module.main(["--compare", *map(str, paths)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:4] == ["a/same: bitwise", "b/array: max relative deviation 1.000e-12, absolute 4.000e-12",
                         "c/report: max relative deviation 3.000e-10, absolute 3.000e-10 (y[0])",
                         "d/bytes: bytes differ"]
    assert lines[4] == "1 of 4 entries bitwise; largest relative deviation 3.000e-10 (c/report)"


def test_fingerprint_compare_prints_a_rounding_level_residual_in_both_measures(tmp_path, capsys):
    # A residual at rounding level moves by a large fraction of itself and a
    # tiny amount in absolute; the line keeps both.
    module = load_script("fingerprint")
    old = {"demo/pinv/report": module._doc_entry({"layers": [{"bilinear_residual": 7.3e-13, "norm": 0.7}]})}
    new = {"demo/pinv/report": module._doc_entry({"layers": [{"bilinear_residual": 1.5e-13, "norm": 0.7}]})}
    paths = []
    for name, doc in (("old", old), ("new", new)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(doc))
    assert module.main(["--compare", *map(str, paths)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        "demo/pinv/report: max relative deviation 7.945e-01, absolute 5.800e-13 "
        "(layers[0].bilinear_residual)")


def test_fingerprint_compare_summarizes_moved_entries_by_method(tmp_path, capsys):
    module = load_script("fingerprint")
    old = {"transport/equal/mean/theseus/delta0": module._array_entry([1.0, 2.0]),
           "transport/equal/mean/theseus/report": module._doc_entry({"x": 2.0}),
           "transport/equal/mean/pinv/delta0": module._array_entry([1.0, 2.0]),
           "demo/pinv-tikh/weights": module._array_entry([4.0]),
           "demo/theseus/checkpoint_bytes": {"sha256": "0", "norm": 0.0},
           "experiment": module._doc_entry({"accuracy": 0.5})}
    new = {**old,
           "transport/equal/mean/theseus/report": module._doc_entry({"x": 2.0 + 2e-9}),
           "demo/pinv-tikh/weights": module._array_entry([4.0 + 4e-12]),
           "demo/theseus/checkpoint_bytes": {"sha256": "1", "norm": 0.0},
           "experiment": module._doc_entry({"accuracy": 0.25})}
    paths = []
    for name, doc in (("old", old), ("new", new)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(doc))
    assert module.main(["--compare", *map(str, paths)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[6:] == [
        "2 of 6 entries bitwise; largest relative deviation 5.000e-01 (experiment)",
        "moved entries by method:",
        "  theseus: 2 of 3 moved; largest relative deviation 1.000e-09 "
        "(transport/equal/mean/theseus/report)",
        "  pinv: 0 of 1 moved",
        "  pinv_tikhonov: 1 of 1 moved; largest relative deviation 1.000e-12 (demo/pinv-tikh/weights)",
        "  experiment: 1 of 1 moved; largest relative deviation 5.000e-01 (experiment)",
    ]
    # An all-bitwise comparison ends at its summary line, as before.
    assert module.main(["--compare", str(paths[0]), str(paths[0])]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "6 of 6 entries bitwise"


def test_fingerprint_compare_names_both_sides_blas_thread_settings_when_they_differ(tmp_path, capsys, monkeypatch):
    # Hashes depend on the BLAS thread count, so a comparison across two
    # thread counts says so before its entries.
    module = load_script("fingerprint")
    entries = {"a/array": module._array_entry([1.0, 2.0])}
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    paths = [tmp_path / name for name in ("one.json", "two.json", "one_again.json")]
    for path, threads in zip(paths, ("1", "2", "1")):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        module.write(entries, str(path))
    assert json.loads(paths[0].read_text()) == entries
    assert module.main(["--compare", str(paths[0]), str(paths[1])]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"BLAS thread settings differ: {paths[0]} OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=unset "
        f"MKL_NUM_THREADS=unset; {paths[1]} OPENBLAS_NUM_THREADS=2 OMP_NUM_THREADS=unset MKL_NUM_THREADS=unset",
        "a/array: bitwise", "1 of 1 entries bitwise"]
    assert module.main(["--compare", str(paths[0]), str(paths[2])]) == 0
    assert capsys.readouterr().out.splitlines() == ["a/array: bitwise", "1 of 1 entries bitwise"]
    # A fingerprint written before settings were recorded has none to name.
    module.settings_path(paths[2]).unlink()
    assert module.main(["--compare", str(paths[0]), str(paths[2])]) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        f"BLAS thread settings differ: {paths[0]} OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=unset "
        f"MKL_NUM_THREADS=unset; {paths[2]} not recorded")


def test_fingerprint_compare_runs_from_anywhere_without_pythonpath(tmp_path):
    # Comparing two fingerprints needs no taskport, so it runs from any
    # directory without PYTHONPATH.
    module = load_script("fingerprint")
    path = tmp_path / "fp.json"
    path.write_text(json.dumps({"a/array": module._array_entry([1.0, 2.0])}))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    argv = [sys.executable, str(SCRIPTS / "fingerprint.py"), "--compare", str(path), str(path)]
    done = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["a/array: bitwise", "1 of 1 entries bitwise"]


def test_benchmark_selftest_passes():
    # The benchmark's own checks of its transport and experiment ops, run as
    # the benchmark runs them, so a library change that breaks them fails here.
    root = SCRIPTS.parent
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    argv = [sys.executable, str(root / "perfbench" / "selftest.py")]
    done = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "all expectations hold"
