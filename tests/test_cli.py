import contextlib
import copy
import io
import json
import os
import re
import stat
import struct
import tracemalloc
import warnings
import weakref
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from taskport import cli, model
from taskport import transport as transport_module
from taskport.cli import main
from taskport.errors import ConfigError
from taskport.harness.experiment import ExperimentConfig, load_config
from taskport.model import (
    Checkpoint,
    LayerSpec,
    apply_layer,
    init_checkpoint,
    load_calibration,
    load_checkpoint,
    save_calibration,
    save_checkpoint,
)
from taskport.seqalign import STRATEGIES
from taskport.transport import TransportConfig, depth_expand, transport_model

FIXTURE_NAMES = (
    "source_a.tpk", "source_a_ft.tpk", "target_b.tpk", "calib.tpc", "demo_config.json"
)


def tiny_config_payload(**overrides):
    payload = {
        "task": {
            "n_classes": 3, "d_raw": 12, "tokens": 3, "noise_sigma": 0.6,
            "center_scale": 2.0, "train_per_class": 30, "val_per_class": 20,
            "test_per_class": 30, "pretrain_per_class": 30,
        },
        "source_model": {"width": 8},
        "target_model": {"width": 10},
        "train": {"pretrain_steps": 40, "finetune_steps": 60, "lr": 0.08},
        "regime": "independent",
        "batches_B": 2,
        "batch_size": 10,
        "methods": ["theseus", "zero_pad"],
        "seq_align": "interp2d",
        "alpha_grid": [0.0, 0.5, 1.0],
        "seeds": {"data": 1, "init": 1, "calib": 1},
        "output_path": None,
    }
    payload.update(overrides)
    return payload


@pytest.fixture(scope="module")
def fixtures_dir(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("fixtures")
    assert main(["make-fixtures", "--seed", "0", "--outdir", str(outdir)]) == 0
    return outdir


def transport_args(fixtures_dir, output, **extra):
    args = [
        "transport",
        "--source", str(fixtures_dir / "source_a.tpk"),
        "--finetuned", str(fixtures_dir / "source_a_ft.tpk"),
        "--target", str(fixtures_dir / "target_b.tpk"),
        "--calib", str(fixtures_dir / "calib.tpc"),
        "--output", str(output),
    ]
    for key, value in extra.items():
        args.extend([f"--{key.replace('_', '-')}", str(value)])
    return args


# -- fixtures -------------------------------------------------------------------


def test_make_fixtures_writes_the_documented_files(fixtures_dir, capsys):
    for name in FIXTURE_NAMES:
        assert (fixtures_dir / name).is_file()


def test_make_fixtures_is_bitwise_reproducible(fixtures_dir, tmp_path):
    again = tmp_path / "again"
    assert main(["make-fixtures", "--seed", "0", "--outdir", str(again)]) == 0
    for name in FIXTURE_NAMES:
        assert (again / name).read_bytes() == (fixtures_dir / name).read_bytes(), name


def test_make_fixtures_seed_changes_content(fixtures_dir, tmp_path):
    other = tmp_path / "other"
    assert main(["make-fixtures", "--seed", "1", "--outdir", str(other)]) == 0
    assert (other / "source_a.tpk").read_bytes() != (fixtures_dir / "source_a.tpk").read_bytes()


# -- transport ------------------------------------------------------------------


def test_transport_writes_checkpoint_and_report(fixtures_dir, tmp_path, capsys):
    out = tmp_path / "transported.tpk"
    report_path = tmp_path / "report.json"
    code = main(transport_args(fixtures_dir, out, report=report_path))
    assert code == 0
    ckpt = load_checkpoint(out)
    assert ckpt.depth == 2
    assert json.loads(ckpt.meta["transport"])["method"] == "theseus"
    report = json.loads(report_path.read_text())
    assert report["method"] == "theseus"
    assert report["alpha"] == 1.0
    assert len(report["layers"]) == 2
    for layer in report["layers"]:
        # Orthogonal conjugation carries the update norm across unchanged.
        assert abs(layer["tau_norm_dst"] - layer["tau_norm_src"]) <= 1e-9 * layer["tau_norm_src"]
        assert layer["in_residual"] <= 1e-8


def test_transport_report_to_stdout(fixtures_dir, tmp_path, capsys):
    out = tmp_path / "transported.tpk"
    assert main(transport_args(fixtures_dir, out)) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["seq_align"] == "interp2d"


def test_transport_alpha_zero_copies_target_weights(fixtures_dir, tmp_path):
    out = tmp_path / "unchanged.tpk"
    assert main(transport_args(fixtures_dir, out, alpha="0.0")) == 0
    got = load_checkpoint(out)
    target = load_checkpoint(fixtures_dir / "target_b.tpk")
    for idx in range(target.depth):
        assert np.array_equal(got.weights[idx], target.weights[idx])
        assert np.array_equal(got.biases[idx], target.biases[idx])


def test_transport_is_bitwise_idempotent(fixtures_dir, tmp_path):
    first = tmp_path / "first.tpk"
    second = tmp_path / "second.tpk"
    assert main(transport_args(fixtures_dir, first, method="pinv")) == 0
    assert main(transport_args(fixtures_dir, second, method="pinv")) == 0
    assert first.read_bytes() == second.read_bytes()


def test_transport_methods_all_run(fixtures_dir, tmp_path):
    for token in ("pinv", "pinv-tikh", "zero-pad", "random", "random-source"):
        out = tmp_path / f"{token}.tpk"
        assert main(transport_args(fixtures_dir, out, method=token)) == 0
        assert load_checkpoint(out).meta["transport"] != ""


def test_transport_depth_mismatch_needs_the_flag(fixtures_dir, tmp_path, capsys):
    deep = tmp_path / "deep_target.tpk"
    specs = [LayerSpec(d_in=9, d_out=9, has_bias=True, activation="identity")] * 3
    save_checkpoint(init_checkpoint(specs, np.random.SeedSequence(8)), deep)
    args = transport_args(fixtures_dir, tmp_path / "out.tpk")
    args[args.index("--target") + 1] = str(deep)
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("depth_mismatch:")
    assert "source has 2 layers, target has 3" in err
    assert main(args + ["--depth-expand"]) == 0


def test_depth_expand_compares_the_unexpanded_source_stacks(fixtures_dir, tmp_path, capsys, monkeypatch):
    # Expanded to the target's depth, a two-layer source and a three-layer
    # fine-tuned stack would share their specs; they are compared before
    # expansion, with or without the flag, and before any output is made.
    finetuned, target = tmp_path / "finetuned.tpk", tmp_path / "target.tpk"
    for path, width, depth, seed in ((finetuned, 6, 3, 9), (target, 9, 4, 10)):
        specs = [LayerSpec(d_in=width, d_out=width, has_bias=True, activation="identity")] * depth
        save_checkpoint(init_checkpoint(specs, np.random.SeedSequence(seed)), path)
    out = tmp_path / "out" / "out.tpk"
    out.parent.mkdir()
    argv = transport_args(fixtures_dir, out)
    argv[argv.index("--finetuned") + 1] = str(finetuned)
    argv[argv.index("--target") + 1] = str(target)
    monkeypatch.setattr(cli, "_replacing", _never)
    for flags in ([], ["--depth-expand"]):
        assert main(argv + flags) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["dimension_mismatch: base and finetuned checkpoints have different layer specs"], err
        assert list(out.parent.iterdir()) == []


def test_transport_unknown_method_lists_the_valid_set(fixtures_dir, tmp_path, capsys):
    assert main(transport_args(fixtures_dir, tmp_path / "x.tpk", method="warp")) == 1
    err = capsys.readouterr().err
    assert err.startswith("bad_config:")
    assert "unknown method" in err and "theseus" in err and "pinv-tikh" in err


def test_transport_tiny_lambda_is_one_error_line(fixtures_dir, tmp_path, capsys):
    # The demo target's Grams are singular, and 1e-320 cannot lift them.
    args = transport_args(fixtures_dir, tmp_path / "x.tpk", method="pinv-tikh")
    assert main(args + ["--lambda", "1e-320"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("not_positive_definite: layer 0: ")


@pytest.mark.parametrize("method, option, value", [
    ("pinv", "rcond", "nan"), ("pinv-tikh", "rcond", "nan"), ("pinv", "rcond", "inf"),
    ("theseus", "rcond", "inf"), ("pinv-tikh", "lambda", "inf"),
])
def test_transport_rejects_non_finite_solver_settings(fixtures_dir, tmp_path, capsys, method, option, value):
    out = tmp_path / "x.tpk"
    assert main(transport_args(fixtures_dir, out, method=method, **{option: value})) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("bad_config: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["transport-random", "transport-random-source", "experiment", "make-fixtures"])
def test_negative_seeds_are_one_error_line(fixtures_dir, tmp_path, capsys, command):
    if command == "experiment":
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config_payload(seeds={"data": -1, "init": 1, "calib": 1})))
        argv = ["experiment", str(cfg_path)]
    elif command == "make-fixtures":
        argv = ["make-fixtures", "--seed", "-1", "--outdir", str(tmp_path / "demo")]
    else:
        argv = transport_args(fixtures_dir, tmp_path / "x.tpk", method=command[len("transport-"):], seed=-1)
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("bad_config: "), err
    # Nothing is written, make-fixtures' --outdir included.
    assert [p.name for p in tmp_path.iterdir()] == (["cfg.json"] if command == "experiment" else [])


def _never(*args, **kwargs):
    raise AssertionError("ran before the destination check")


def _one_io_error_and_nothing_written(capsys, workdir, kept=()):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("io_error: "), err
    assert sorted(p.name for p in workdir.iterdir()) == sorted(kept)


@pytest.mark.parametrize("flag, dest", [
    ("--report", "nodir/r.json"), ("--report", "."), ("--report", ""),
    ("--output", "nodir/out.tpk"), ("--output", "."), ("--output", ""),
])
def test_transport_checks_destinations_before_loading(fixtures_dir, tmp_path, capsys, monkeypatch,
                                                      flag, dest):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "CheckpointReader", _never)
    assert main(transport_args(fixtures_dir, "out.tpk") + [flag, dest]) == 1
    _one_io_error_and_nothing_written(capsys, tmp_path)


def test_transport_refuses_output_to_stdout(fixtures_dir, tmp_path, capsys, monkeypatch):
    # A TPK1 checkpoint is binary; '-' is not stdout for it, nor a file name.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "CheckpointReader", _never)
    assert main(transport_args(fixtures_dir, "-")) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("bad_config: --output "), err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("spelling", ["same", "absolute", "symlink", "hardlink"])
def test_transport_refuses_report_over_its_output(fixtures_dir, tmp_path, capsys, monkeypatch,
                                                  spelling):
    # The JSON report, written last, would overwrite the checkpoint.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "CheckpointReader", _never)
    kept = []
    report = {"same": "out.tpk", "absolute": str(tmp_path / "out.tpk")}.get(spelling, "link.json")
    if spelling in ("symlink", "hardlink"):
        (tmp_path / "out.tpk").write_bytes(b"old")
        getattr(tmp_path / "link.json", f"{spelling}_to")("out.tpk")
        kept = ["link.json", "out.tpk"]
    assert main(transport_args(fixtures_dir, "out.tpk", report=report)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("bad_config: --output and --report "), err
    assert sorted(p.name for p in tmp_path.iterdir()) == kept
    if kept:
        assert (tmp_path / "out.tpk").read_bytes() == b"old"


_INPUT_FLAGS = {"--source": "source_a.tpk", "--finetuned": "source_a_ft.tpk",
                "--target": "target_b.tpk", "--calib": "calib.tpc"}


@pytest.mark.parametrize("dest_flag", ["--output", "--report"])
@pytest.mark.parametrize("input_flag", list(_INPUT_FLAGS))
def test_transport_refuses_an_output_over_an_input(fixtures_dir, tmp_path, capsys, monkeypatch,
                                                   dest_flag, input_flag):
    # An input is given by its absolute path and the output names it relatively;
    # the refusal comes before any file is read or written.
    for name in _INPUT_FLAGS.values():
        (tmp_path / name).write_bytes((fixtures_dir / name).read_bytes())
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "CheckpointReader", _never)
    monkeypatch.setattr(cli, "load_calibration", _never)
    before = {name: (tmp_path / name).read_bytes() for name in _INPUT_FLAGS.values()}
    dest = _INPUT_FLAGS[input_flag]
    argv = transport_args(tmp_path, dest if dest_flag == "--output" else "out.tpk")
    if dest_flag == "--report":
        argv += ["--report", dest]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"bad_config: {dest_flag} and {input_flag} name the same file: {dest}"], err
    assert {name: (tmp_path / name).read_bytes() for name in _INPUT_FLAGS.values()} == before
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(_INPUT_FLAGS.values())


def test_transport_refuses_a_calibration_file_changed_mid_op(fixtures_dir, tmp_path, capsys, monkeypatch):
    # Transport reads the file once for layer 0 and again for each input-side
    # guard that fires, as every guard does on the isometric demo fixtures; a
    # second read of fewer sequences is one error line, not a traceback.
    reads = []

    def shrinking(path):
        reads.append(path)
        inputs_a, inputs_b = load_calibration(path)
        return (inputs_a, inputs_b) if len(reads) == 1 else (inputs_a[1:], inputs_b[1:])

    monkeypatch.setattr(cli, "load_calibration", shrinking)
    out = tmp_path / "out.tpk"
    assert main(transport_args(fixtures_dir, out)) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["dimension_mismatch: layer 0: the calibration read again has shapes (63, 5, 6) and "
                   "(63, 5, 9), the first read (64, 5, 6) and (64, 5, 9)"], err
    assert len(reads) == 2 and not out.exists()


def _svd_failing_on_call(monkeypatch, fail_at):
    """Make ``np.linalg.svd`` fail on call ``fail_at`` (never when None);
    returns the list of calls made."""
    calls, real = [], np.linalg.svd

    def svd(*args, **kwargs):
        calls.append(1)
        if len(calls) == fail_at:
            raise np.linalg.LinAlgError("did not converge")
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    return calls


@pytest.mark.parametrize("existing", [False, True])
def test_a_failed_transport_leaves_nothing_behind(fixtures_dir, tmp_path, capsys, monkeypatch, existing):
    # The checkpoint goes to a temporary file beside --output, renamed onto
    # it only once complete; a transport failing at its last layer, with the
    # first already written, removes that file and leaves --output as it was.
    monkeypatch.chdir(tmp_path)
    with monkeypatch.context() as counting:
        calls = _svd_failing_on_call(counting, None)
        assert main(transport_args(fixtures_dir, tmp_path / "probe.tpk")) == 0
    (tmp_path / "probe.tpk").unlink()
    capsys.readouterr()
    out = tmp_path / "out.tpk"
    if existing:
        out.write_bytes(b"old checkpoint")
    _svd_failing_on_call(monkeypatch, len(calls))
    assert main(transport_args(fixtures_dir, out)) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["svd_no_convergence: layer 1: SVD failed to converge on a 6x9 matrix: did not converge"], err
    assert sorted(p.name for p in tmp_path.iterdir()) == (["out.tpk"] if existing else [])
    if existing:
        assert out.read_bytes() == b"old checkpoint"


def _with_nan_in_last_layer(src, dest):
    """``src``'s TPK1 bytes with the first weight of its last layer made NaN."""
    ckpt = load_checkpoint(src)
    offset = 8 + 10 * ckpt.depth + sum(8 * (w.size + (0 if b is None else b.size))
                                       for w, b in zip(ckpt.weights[:-1], ckpt.biases[:-1]))
    data = bytearray(src.read_bytes())
    data[offset:offset + 8] = struct.pack("<d", float("nan"))
    dest.write_bytes(bytes(data))


@pytest.mark.parametrize("existing", [False, True])
@pytest.mark.parametrize("flag", ["--source", "--finetuned", "--target"])
def test_a_nan_in_a_last_layer_is_one_error_line(fixtures_dir, tmp_path, capsys, monkeypatch, flag, existing):
    # Each layer is read when the loop reaches it, so a NaN in the last one
    # is found after layer 0 has reached the temporary file: one line naming
    # the layer, the temporary file removed, an existing --output kept.
    poisoned = tmp_path / "inputs" / _INPUT_FLAGS[flag]
    poisoned.parent.mkdir()
    _with_nan_in_last_layer(fixtures_dir / _INPUT_FLAGS[flag], poisoned)
    written, real_layer = [], cli.CheckpointWriter.layer
    monkeypatch.setattr(cli.CheckpointWriter, "layer",
                        lambda self, *arrays: written.append(self.written) or real_layer(self, *arrays))
    out = tmp_path / "out" / "out.tpk"
    out.parent.mkdir()
    if existing:
        out.write_bytes(b"old checkpoint")
    argv = transport_args(fixtures_dir, out)
    argv[argv.index(flag) + 1] = str(poisoned)
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["non_finite: layer 1 weights contains NaN or Inf entries"], err
    assert written == [0]
    assert [p.name for p in out.parent.iterdir()] == (["out.tpk"] if existing else [])
    if existing:
        assert out.read_bytes() == b"old checkpoint"


@pytest.mark.parametrize("existing", [False, True])
def test_transport_through_a_symlink_replaces_its_target(fixtures_dir, tmp_path, existing):
    want = tmp_path / "want.tpk"
    assert main(transport_args(fixtures_dir, want)) == 0
    (tmp_path / "real").mkdir()
    real = tmp_path / "real" / "out.tpk"
    if existing:
        real.write_bytes(b"old checkpoint")
    link = tmp_path / "link.tpk"
    link.symlink_to(real)
    assert main(transport_args(fixtures_dir, link)) == 0
    assert link.is_symlink() and link.resolve() == real.resolve()
    assert real.read_bytes() == want.read_bytes()
    assert [p.name for p in real.parent.iterdir()] == ["out.tpk"]


def test_transport_output_gets_the_mode_of_a_plain_open(fixtures_dir, tmp_path):
    fresh, kept = tmp_path / "fresh.tpk", tmp_path / "kept.tpk"
    with open(tmp_path / "plain", "wb"):
        pass
    kept.write_bytes(b"old checkpoint")
    kept.chmod(0o640)
    for out in (fresh, kept):
        assert main(transport_args(fixtures_dir, out)) == 0
    assert fresh.stat().st_mode == (tmp_path / "plain").stat().st_mode
    assert kept.stat().st_mode & 0o777 == 0o640


@pytest.mark.parametrize("case", ["fifo", "device", "dangling"])
def test_transport_refuses_an_output_it_cannot_replace(fixtures_dir, tmp_path, capsys, monkeypatch, case):
    # Renaming onto a FIFO or a device node would replace the node itself; a
    # symlink into a missing directory has nowhere to put the new file. Each
    # is refused before any input is read.
    out = tmp_path / "out"
    if case == "fifo":
        os.mkfifo(out)
    else:
        out.symlink_to("/dev/null" if case == "device" else tmp_path / "missing" / "out.tpk")
    monkeypatch.setattr(cli, "CheckpointReader", _never)
    assert main(transport_args(fixtures_dir, out)) == 1
    err = capsys.readouterr().err.splitlines()
    want = {"dangling": f"io_error: [Errno 2] No such file or directory: '{tmp_path / 'missing' / 'out.tpk'}'"}
    assert err == [want.get(case, f"io_error: --output exists and is not a regular file: {out}")], err
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    assert stat.S_ISFIFO(os.lstat(out).st_mode) if case == "fifo" else out.is_symlink()


def _deep_target(fixtures_dir, path):
    """A three-layer target for the two-layer demo source, as --depth-expand takes."""
    specs = [LayerSpec(d_in=9, d_out=9, has_bias=True, activation="relu")] * 2 + [
        LayerSpec(d_in=9, d_out=9, has_bias=True, activation="identity")]
    save_checkpoint(init_checkpoint(specs, np.random.SeedSequence(8)), path)


def _signed_zero_target(fixtures_dir, path):
    """The demo target with a -0.0 weight and a layer without a bias."""
    target = load_checkpoint(fixtures_dir / "target_b.tpk")
    target.weights[0][1, 2] = -0.0
    target.layer_specs[1] = LayerSpec(d_in=9, d_out=9, has_bias=False, activation="identity")
    target.biases[1] = None
    save_checkpoint(Checkpoint(target.layer_specs, target.weights, target.biases, target.meta), path)


@pytest.mark.parametrize("case", ["alpha_zero", "negative_alpha", "depth_expand"])
@pytest.mark.parametrize("method", list(cli._METHOD_TOKENS))
def test_streamed_output_is_the_librarys_checkpoint(fixtures_dir, tmp_path, capsys, method, case):
    # The CLI writes each layer as it is transported; its bytes are those of
    # the whole checkpoint the library builds, alpha = 0's exact copy included
    # (-0.0 + 0.0 would be +0.0).
    target, alpha = tmp_path / "target.tpk", {"negative_alpha": -0.7}.get(case, 0.0)
    (_deep_target if case == "depth_expand" else _signed_zero_target)(fixtures_dir, target)
    argv = transport_args(fixtures_dir, tmp_path / "out.tpk", method=method, alpha=alpha,
                          report=tmp_path / "report.json")
    argv[argv.index("--target") + 1] = str(target)
    assert main(argv + (["--depth-expand"] if case == "depth_expand" else [])) == 0
    theta_a, theta_a_ft, theta_b = (load_checkpoint(p) for p in (
        fixtures_dir / "source_a.tpk", fixtures_dir / "source_a_ft.tpk", target))
    if case == "depth_expand":
        theta_a, theta_a_ft = (depth_expand(theta, theta_b.depth) for theta in (theta_a, theta_a_ft))
    cfg = TransportConfig(method=cli._METHOD_TOKENS[method])
    want, report = transport_model(theta_a, theta_a_ft, theta_b,
                                   partial(load_calibration, fixtures_dir / "calib.tpc"), cfg, alpha=alpha)
    save_checkpoint(want, tmp_path / "want.tpk")
    assert (tmp_path / "out.tpk").read_bytes() == (tmp_path / "want.tpk").read_bytes()
    assert json.loads((tmp_path / "report.json").read_text()) == report
    if case == "alpha_zero":
        got = load_checkpoint(tmp_path / "out.tpk")
        assert np.signbit(got.weights[0][1, 2]) and got.biases[1] is None


def test_transport_holds_one_checkpoint_of_the_update(fixtures_dir, tmp_path, monkeypatch):
    # The three checkpoints are read a layer at a time: nothing of the
    # fine-tuned model is alive when the calibration is read; what was read
    # from any of the three files for a layer, its transported delta and the
    # weights written from it are dropped before the next layer's solve; and
    # every file is closed at the end.
    read, written, transported, opened, closed, layer_now = [], [], [], [], [], [0]
    reader = model.CheckpointReader
    real_init, real_layer, real_close = reader.__init__, reader.layer, reader.close

    def init(self, path):
        real_init(self, path)
        opened.append((self, os.path.basename(path)))

    def layer(self, idx):
        arrays = real_layer(self, idx)
        name = next(n for r, n in opened if r is self)
        read.extend((name, idx, weakref.ref(a)) for a in arrays if a is not None)
        return arrays

    def close(self):
        real_close(self)
        closed.append(self)

    def read_calibration(path):
        # A firing guard reads it again inside layer k's solve, where only
        # layer k's delta, written over its fine-tuned layer, is alive.
        assert all(ref() is None for name, k, ref in read if name == "source_a_ft.tpk" and k < layer_now[0])
        return load_calibration(path)

    def apply(*args):
        layer = apply_layer(*args)
        written.extend(weakref.ref(a) for a in layer if a is not None)
        return layer

    real_transport_layer = transport_module._transport_layer

    def transport_layer(idx, *args):
        layer_now[0] = idx
        assert all(ref() is None for ref in transported + written)
        assert all(ref() is None for _, k, ref in read if k < idx)
        layer = real_transport_layer(idx, *args)
        transported.extend(weakref.ref(a) for a in layer[:2] if a is not None)
        return layer

    monkeypatch.setattr(reader, "__init__", init)
    monkeypatch.setattr(reader, "layer", layer)
    monkeypatch.setattr(reader, "close", close)
    monkeypatch.setattr(cli, "load_calibration", read_calibration)
    monkeypatch.setattr(cli, "apply_layer", apply)
    monkeypatch.setattr(transport_module, "_transport_layer", transport_layer)
    assert main(transport_args(fixtures_dir, tmp_path / "out.tpk", report=tmp_path / "r.json")) == 0
    assert len(transported) == 4 and len(written) == 4
    assert {n for n, _, _ in read} == {"source_a.tpk", "source_a_ft.tpk", "target_b.tpk"}
    assert all(ref() is None for _, _, ref in read)
    assert len(opened) == 3 and all(any(c is r for c in closed) for r, _ in opened)


_RUNNERS = {"experiment": "run_experiment", "ablate-seqalign": "ablate_seqalign"}


# dest None: experiment takes the config's output_path.
@pytest.mark.parametrize("command, dest", [
    (command, dest) for command in _RUNNERS for dest in ("nodir/x.out", ".", "")
] + [("experiment", None)])
def test_commands_check_their_output_before_running(tmp_path, capsys, monkeypatch, command, dest):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, _RUNNERS[command], _never)
    payload = tiny_config_payload(output_path="nodir/x.json" if dest is None else None)
    (tmp_path / "cfg.json").write_text(json.dumps(payload))
    argv = [command, "cfg.json"] + ([] if dest is None else ["--output", dest])
    assert main(argv) == 1
    _one_io_error_and_nothing_written(capsys, tmp_path, kept=["cfg.json"])


def test_transport_missing_input_reports_io_error(fixtures_dir, tmp_path, capsys):
    args = transport_args(fixtures_dir, tmp_path / "x.tpk")
    args[args.index("--source") + 1] = str(tmp_path / "nope.tpk")
    assert main(args) == 1
    assert capsys.readouterr().err.startswith("io_error:")


@pytest.mark.parametrize("fails", [False, True])
def test_command_releases_the_held_heap(fixtures_dir, tmp_path, monkeypatch, fails):
    released = []
    monkeypatch.setattr(cli, "_hold_heap", lambda: lambda: released.append(True))
    args = transport_args(fixtures_dir, tmp_path / "x.tpk")
    if fails:
        args[args.index("--source") + 1] = str(tmp_path / "nope.tpk")
    assert main(args) == int(fails)
    assert released == [True]


def test_hold_heap_without_glibc_does_nothing(monkeypatch):
    def no_library(name):
        raise OSError("no C library")

    monkeypatch.setattr(cli.ctypes, "CDLL", no_library)
    assert cli._hold_heap()() is None


# -- experiment -----------------------------------------------------------------


def test_experiment_runs_config_to_stdout(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config_payload()))
    assert main(["experiment", str(cfg_path)]) == 0
    result = json.loads(capsys.readouterr().out)
    assert set(result["methods"]) == {"theseus", "zero_pad"}
    assert 0.0 <= result["zero_shot_accuracy"] <= 1.0


def test_experiment_writes_output_file(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config_payload(methods=["zero_pad"])))
    out = tmp_path / "result.json"
    assert main(["experiment", str(cfg_path), "--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    result = json.loads(out.read_text())
    assert result["methods"]["zero_pad"]["accuracy_before"] == result["zero_shot_accuracy"]


def test_experiment_rejects_unknown_method_in_config(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config_payload(methods=["warp"])))
    assert main(["experiment", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("bad_config:")
    assert "unknown method" in err


def test_experiment_refuses_models_of_different_depths(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config_payload(target_model={"width": 10, "depth": 3})))
    out = tmp_path / "result.json"
    assert main(["experiment", str(cfg_path), "--output", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(
        "bad_config: source_model.depth=2 and target_model.depth=3 differ"), err
    assert not out.exists()


@pytest.mark.parametrize("overrides, key", [
    ({"batches_B": "abc"}, "batches_B"),
    ({"batch_size": "x"}, "batch_size"),
    ({"seeds": {"data": "q", "init": 1, "calib": 1}}, "seeds.data"),
    ({"source_model": {"width": "16"}}, "source_model.width"),
    ({"methods": "theseus"}, "methods"),
])
def test_experiment_type_checks_config_values(tmp_path, capsys, overrides, key):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config_payload(**overrides)))
    assert main(["experiment", str(cfg_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"bad_config: config key '{key}' must be ")


@pytest.mark.parametrize("overrides", [
    {"train": {"pretrain_steps": 40, "finetune_steps": 60, "lr": float("inf")}},
    {"alpha_grid": [0.0, float("nan")]},
    {"task": {**tiny_config_payload()["task"], "pretrain_center_shift": float("inf")}},
    {"rcond": 10**400},  # an integer too large for a float
])
def test_experiment_rejects_non_finite_config_numbers(tmp_path, capsys, overrides):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config_payload(**overrides)))  # NaN / Infinity literals
    assert main(["experiment", str(cfg_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("bad_config: "), err


def _raise_memory_error(*args, **kwargs):
    raise MemoryError("Unable to allocate 29.1 TiB for an array")


def _raise_lin_alg_error(*args, **kwargs):
    raise np.linalg.LinAlgError("did not converge")


@pytest.mark.parametrize("case, kind", [
    ("non_utf8_config", "bad_config"),
    ("deeply_nested_config", "bad_config"),
    ("transport_alpha_nan", "bad_config"),
    ("transport_alpha_inf", "bad_config"),
    ("out_of_memory", "out_of_memory"),
    ("transport_pinv_eigh", "svd_no_convergence"),
    ("transport_theseus_svd", "svd_no_convergence"),
])
def test_hostile_inputs_are_one_error_line(fixtures_dir, tmp_path, capsys, monkeypatch, case, kind):
    out = tmp_path / "out"
    cfg_path = tmp_path / "cfg.json"
    argv = ["experiment", str(cfg_path), "--output", str(out)]
    if case == "non_utf8_config":
        cfg_path.write_bytes(b'{"a": "\xff"}')
    elif case == "deeply_nested_config":
        cfg_path.write_text("[" * 100_000 + "]" * 100_000)
    elif case.startswith("transport_alpha_"):
        argv = transport_args(fixtures_dir, out, alpha=case[len("transport_alpha_"):])
    elif case.startswith("transport_"):
        # LAPACK's non-convergence has no known small input, so it is simulated.
        _, method, routine = case.split("_")
        argv = transport_args(fixtures_dir, out, method=method)
        monkeypatch.setattr(np.linalg, routine, _raise_lin_alg_error)
    else:
        # A real allocation this large succeeds or fails by the host's
        # overcommit policy, so the failure is simulated.
        cfg_path.write_text(json.dumps(tiny_config_payload()))
        monkeypatch.setattr(cli, "run_experiment", _raise_memory_error)
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and re.match(r"^[a-z_]+: ", err[0]), err
    assert err[0].startswith(f"{kind}: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "method", ["theseus", "pinv", "pinv-tikh", "zero-pad", "random", "random-source"]
)
def test_overflowing_activations_are_one_error_line(fixtures_dir, tmp_path, capsys, method):
    # Finite weights and finite calibration inputs, each scaled by 1e160: the
    # first layer's activations overflow. No numpy warning may reach stderr.
    scaled = tmp_path / "scaled"
    scaled.mkdir()
    for name in ("source_a.tpk", "source_a_ft.tpk", "target_b.tpk"):
        ckpt = load_checkpoint(fixtures_dir / name)
        save_checkpoint(Checkpoint(ckpt.layer_specs, [1e160 * w for w in ckpt.weights],
                                   ckpt.biases, ckpt.meta), scaled / name)
    calib_a, calib_b = load_calibration(fixtures_dir / "calib.tpc")
    save_calibration(1e160 * calib_a, 1e160 * calib_b, scaled / "calib.tpc")
    out = tmp_path / "out.tpk"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(transport_args(scaled, out, method=method)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("non_finite: "), err
    assert not out.exists()


def test_experiment_rejects_malformed_json(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("{not json")
    assert main(["experiment", str(cfg_path)]) == 1
    assert "not valid JSON" in capsys.readouterr().err


# -- ablation ---------------------------------------------------------------------


def ablation_config_payload():
    return tiny_config_payload(
        regime="isometric",
        source_model={"width": 8, "activation": "identity"},
        target_model={"width": 12, "activation": "identity"},
        methods=["theseus"],
    )


def test_ablate_seqalign_stdout_and_file_agree(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(ablation_config_payload()))
    assert main(["ablate-seqalign", str(cfg_path)]) == 0
    stdout_lines = capsys.readouterr().out.strip().splitlines()
    assert stdout_lines[0] == "strategy,accuracy_before,accuracy_after,best_alpha,delta_acc"
    assert len(stdout_lines) == 4
    assert [line.split(",")[0] for line in stdout_lines[1:]] == ["mean", "interp1d", "interp2d"]

    csv_path = tmp_path / "ablation.csv"
    assert main(["ablate-seqalign", str(cfg_path), "--output", str(csv_path)]) == 0
    file_lines = csv_path.read_text().strip().splitlines()
    assert file_lines[0] == stdout_lines[0]
    assert [line.split(",")[0] for line in file_lines[1:]] == ["mean", "interp1d", "interp2d"]
    # One writer: stdout carries the file's exact bytes.
    assert main(["ablate-seqalign", str(cfg_path)]) == 0
    assert capsys.readouterr().out.encode() == csv_path.read_bytes()


# -- inspect ----------------------------------------------------------------------


def test_inspect_checkpoint_header(fixtures_dir, capsys):
    assert main(["inspect", str(fixtures_dir / "target_b.tpk")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["format"] == "TPK1"
    assert doc["layer_count"] == 2
    assert doc["layers"][0]["d_in"] == 9
    assert doc["meta"]["role"] == "demo-target"


def test_inspect_calibration_header(fixtures_dir, capsys):
    assert main(["inspect", str(fixtures_dir / "calib.tpc")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["format"] == "TPC1"
    assert doc["n_samples"] == 64
    assert doc["d_a"] == 6 and doc["d_b"] == 9


def test_inspect_huge_calibration_header_is_truncated(tmp_path, capsys):
    # 2**22 cubed float64 entries overflow a fixed-width element count.
    path = tmp_path / "huge.tpc"
    path.write_bytes(b"TPC1" + struct.pack("<IIIII", 1 << 22, 1 << 22, 1 << 22, 1, 1))
    assert main(["inspect", str(path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("truncated: ")


def test_inspect_rejects_unknown_magic(tmp_path, capsys):
    # TPA1 activation dumps are no longer a format of the package.
    for magic in (b"NOPE", b"TPA1"):
        junk = tmp_path / "junk.bin"
        junk.write_bytes(magic + b"\x00" * 16)
        assert main(["inspect", str(junk)]) == 1
        assert capsys.readouterr().err.startswith("bad_magic:")


def test_inspect_reads_headers_only(fixtures_dir, tmp_path, capsys):
    # inspect checks each file's layout but reads no array: a NaN payload
    # inspects, and a calibration file is not read into memory.
    _with_nan_in_last_layer(fixtures_dir / "target_b.tpk", tmp_path / "nan.tpk")
    calib = tmp_path / "nan.tpc"
    save_calibration(np.zeros((256, 16, 32)), np.zeros((256, 16, 32)), calib)
    data = bytearray(calib.read_bytes())
    data[-8:] = struct.pack("<d", float("nan"))
    calib.write_bytes(bytes(data))
    for name, key, count in (("nan.tpk", "layer_count", 2), ("nan.tpc", "n_samples", 256)):
        tracemalloc.start()
        try:
            assert main(["inspect", str(tmp_path / name)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out, err = capsys.readouterr()
        assert err == "" and json.loads(out)[key] == count, (err, out)
    assert peak < 0.1 * calib.stat().st_size, (peak, calib.stat().st_size)


@st.composite
def mutated_file(draw, files):
    """A valid fixture file with a few bytes flipped, its tail cut off, or bytes appended."""
    data = files[draw(st.sampled_from(sorted(files)))]
    kind = draw(st.sampled_from(["flip", "truncate", "append"]))
    if kind == "truncate":
        return data[:draw(st.integers(0, len(data) - 1))]
    if kind == "append":
        return data + draw(st.binary(min_size=1, max_size=16))
    # Most flips aim past the magic into the header, or at the last 64 bytes
    # (a checkpoint's meta entries), where a flip changes the structure rather
    # than one float of the payload.
    end = len(data) - 1
    pos = st.integers(4, 31) | st.integers(end - 63, end) | st.integers(0, end)
    out = bytearray(data)
    for p, mask in draw(st.lists(st.tuples(pos, st.integers(1, 255)), min_size=1, max_size=6)):
        out[p] ^= mask
    return bytes(out)


_FUZZ_NAMES = ("source_a_ft.tpk", "target_b.tpk", "calib.tpc")


@pytest.fixture(scope="module")
def fuzz_files(fixtures_dir):
    return {name: (fixtures_dir / name).read_bytes() for name in _FUZZ_NAMES}


def test_inspect_survives_mutated_files(fuzz_files, tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "mutated.bin"

    @settings(max_examples=150)
    @given(mutated_file(fuzz_files))
    def check(data):
        path.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["inspect", str(path)])
        lines = err.getvalue().splitlines()
        if code == 0:
            assert lines == [] and json.loads(out.getvalue())["format"] in ("TPK1", "TPC1")
        else:
            assert code == 1 and len(lines) == 1 and re.match(r"^[a-z_]+: ", lines[0]), lines

    check()


_CHECKPOINT_FLAGS = {"--source": "source_a.tpk", "--finetuned": "source_a_ft.tpk", "--target": "target_b.tpk"}


def test_transport_survives_mutated_checkpoints(fixtures_dir, tmp_path_factory):
    # A checkpoint may fail at open or only when a later layer is read; either
    # way the run is one error line, and no temporary file is left behind.
    files = {name: (fixtures_dir / name).read_bytes() for name in _CHECKPOINT_FLAGS.values()}
    workdir = tmp_path_factory.mktemp("fuzz_transport")
    mutated, outdir = workdir / "mutated.tpk", workdir / "out"
    outdir.mkdir()

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(sorted(_CHECKPOINT_FLAGS)), st.data())
    def check(flag, data):
        mutated.write_bytes(data.draw(mutated_file({flag: files[_CHECKPOINT_FLAGS[flag]]})))
        argv = transport_args(fixtures_dir, outdir / "out.tpk", report=outdir / "report.json")
        argv[argv.index(flag) + 1] = str(mutated)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        lines = err.getvalue().splitlines()
        left = sorted(p.name for p in outdir.iterdir())
        for p in outdir.iterdir():
            p.unlink()
        if code == 0:
            assert lines == [] and left == ["out.tpk", "report.json"], (lines, left)
        else:
            assert code == 1 and len(lines) == 1 and re.match(r"^[a-z_]+: ", lines[0]), lines
            assert left == [], left

    check()


# Numbers at the edges of what a float or int field accepts, drawn as often
# as every other JSON value together.
_EDGE_NUMBERS = st.sampled_from([float("nan"), float("inf"), 10**400, -1])
# A small alphabet keeps hypothesis from building its unicode tables.
_TEXT = st.text(alphabet="ab_.- é", max_size=6)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=6,
)


def _locations(doc, path=()):
    """The path of every value inside a JSON document, containers included."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _locations(value, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def perturbed_config(draw, base):
    """The document with one to three edits: a value replaced by a random JSON
    value, a key or list item deleted, or a key added to an object."""
    doc = copy.deepcopy(base)
    known_keys = sorted({p[-1] for p in _locations(base) if isinstance(p[-1], str)})
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(("replace", "delete", "add")))
        paths = list(_locations(doc))
        if op == "add" or not paths:
            objects = [()] + [p for p in paths if isinstance(_at(doc, p), dict)]
            parent = _at(doc, draw(st.sampled_from(objects)))
            parent[draw(st.sampled_from(known_keys) | _TEXT)] = draw(_JSON_VALUES)
            continue
        path = draw(st.sampled_from(paths))
        parent = _at(doc, path[:-1])
        if op == "replace":
            parent[path[-1]] = draw(_EDGE_NUMBERS | _JSON_VALUES)
        else:
            del parent[path[-1]]
    return doc


def test_config_decoder_survives_perturbed_documents(fixtures_dir):
    base = json.loads((fixtures_dir / "demo_config.json").read_text())

    @settings(max_examples=100, deadline=None)
    @given(perturbed_config(base))
    def check(doc):
        try:
            cfg = ExperimentConfig.from_dict(doc)
        except ConfigError:
            return
        assert ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    check()


def test_config_loader_survives_mutated_files(fixtures_dir, tmp_path_factory):
    files = {"demo_config.json": (fixtures_dir / "demo_config.json").read_bytes()}
    path = tmp_path_factory.mktemp("fuzz") / "config.json"

    @settings(max_examples=150)
    @given(mutated_file(files))
    def check(data):
        path.write_bytes(data)
        try:
            assert isinstance(load_config(path), ExperimentConfig)
        except ConfigError:
            pass

    check()


# -- parser surface -----------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["transport", "--help"],
    ["experiment", "--help"],
    ["ablate-seqalign", "--help"],
    ["make-fixtures", "--help"],
    ["inspect", "--help"],
])
def test_help_exits_cleanly(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage" in capsys.readouterr().out.lower()


def test_missing_subcommand_exits_with_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err.lower()


# -- argv sweep -------------------------------------------------------------------

_FLOAT_VALUES = ("nan", "inf", "-inf", "1e308", "-1e308", "1e400", "0", "-0.0", "-1",
                 "1e-320", "0x10", "1_0", "", "abc")
_INT_VALUES = ("-1", "0", "-0", "18446744073709551616", "1" + "0" * 400, "1.5", "1e3", "", "abc")
_WORD_VALUES = ("", "THESEUS", "pinv_tikhonov", "interp", " mean", "é", "-x")
_PATH_FLAGS = ("--source", "--finetuned", "--target", "--calib")
_PATH_CHOICES = FIXTURE_NAMES + (".", "missing.tpk")
_TRANSPORT_INPUTS = FIXTURE_NAMES[:4]
# A missing directory, an existing directory, an empty path.
_HOSTILE_DESTINATIONS = ("missing/out", "fx", "")


def _flag_values(convert, values):
    return st.sampled_from(values).map(lambda value: (convert, value))


_TRANSPORT_VALUES = {
    "--method": _flag_values(str, tuple(cli._METHOD_TOKENS) + _WORD_VALUES),
    "--seq-align": _flag_values(str, STRATEGIES + _WORD_VALUES),
    "--alpha": _flag_values(float, _FLOAT_VALUES),
    "--rcond": _flag_values(float, _FLOAT_VALUES),
    "--lambda": _flag_values(float, _FLOAT_VALUES),
    "--seed": _flag_values(int, _INT_VALUES),
}


def _transport_argv(method, inputs=_TRANSPORT_INPUTS):
    argv = ["transport", "--output", "out.tpk", "--method", method]
    for flag, name in zip(_PATH_FLAGS, inputs):
        argv += [flag, f"fx/{name}"]
    return argv


@st.composite
def hostile_argv(draw):
    """A valid command line with one flag's value swapped for a hostile one.

    Returns (argv, convert, value): ``convert`` is the flag's argparse type
    and ``value`` the swapped string, or (argv, None, None) for a path swap."""
    command = draw(st.sampled_from(["transport", "make-fixtures", "inspect", "experiment",
                                    "ablate-seqalign"]))
    if command in ("experiment", "ablate-seqalign"):
        return [command, "fx/tiny.json", "--output", draw(st.sampled_from(_HOSTILE_DESTINATIONS))], None, None
    if command == "inspect":
        return ["inspect", "fx/" + draw(st.sampled_from(_PATH_CHOICES))], None, None
    if command == "make-fixtures":
        flag = draw(st.sampled_from(["--seed", "--outdir"]))
        if flag == "--seed":
            convert, value = draw(_flag_values(int, _INT_VALUES))
            return ["make-fixtures", "--seed", value, "--outdir", "made"], convert, value
        outdir = draw(st.sampled_from(["made", "made/deeper", "fx/calib.tpc", "", "."]))
        return ["make-fixtures", "--seed", "1", "--outdir", outdir], None, None
    paths = dict(zip(_PATH_FLAGS, _TRANSPORT_INPUTS))
    flag = draw(st.sampled_from(_PATH_FLAGS + tuple(_TRANSPORT_VALUES) + ("--output", "--report")))
    convert = value = None
    extra = []
    if flag in paths:
        paths[flag] = draw(st.sampled_from(_PATH_CHOICES))
    elif flag in ("--output", "--report"):
        # '-' is stdout for --report, and refused for the binary checkpoint;
        # a report over the checkpoint's own path is refused.
        own = ("-",) if flag == "--output" else ("out.tpk",)
        extra = [flag, draw(st.sampled_from(_HOSTILE_DESTINATIONS + own))]
    else:
        convert, value = draw(_TRANSPORT_VALUES[flag])
        extra = [flag, value]
    # Later flags override earlier ones, so a swapped --method replaces the drawn one.
    argv = _transport_argv(draw(st.sampled_from(sorted(cli._METHOD_TOKENS))), paths.values())
    return argv + extra, convert, value


def _argparse_rejects(parser, convert, value) -> bool:
    """Whether argparse itself refuses ``value``: it reads it as a flag, or
    the flag's type cannot convert it."""
    if value is None:
        return False
    if value.startswith("-") and not parser._negative_number_matcher.match(value):
        return True
    try:
        convert(value)
    except ValueError:
        return True
    return False


def _tree(root):
    return {p.relative_to(root) for p in root.rglob("*")}


def test_cli_survives_one_hostile_value_per_flag(fixtures_dir, tmp_path, monkeypatch):
    (tmp_path / "fx").mkdir()
    for name in FIXTURE_NAMES:
        (tmp_path / "fx" / name).write_bytes((fixtures_dir / name).read_bytes())
    (tmp_path / "fx" / "tiny.json").write_text(json.dumps(tiny_config_payload()))
    monkeypatch.chdir(tmp_path)
    parser = cli.build_parser()
    tree = _tree(tmp_path)

    @settings(max_examples=500)
    @given(hostile_argv())
    @example(([*_transport_argv("pinv"), "--rcond", "1e308"], float, "1e308"))
    def check(case):
        argv, convert, value = case
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        # A warning is a line on stderr in a real process.
        lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
        made = _tree(tmp_path) - tree
        for path in sorted(made, key=lambda p: len(p.parts), reverse=True):
            if (tmp_path / path).is_dir():
                (tmp_path / path).rmdir()
            else:
                (tmp_path / path).unlink()
        assert code == 0 or not made, (argv, sorted(map(str, made)))
        if code == 2:
            assert _argparse_rejects(parser, convert, value), (argv, lines)
        elif code == 0:
            assert lines == [], (argv, lines)
        else:
            assert code == 1 and len(lines) == 1 and re.match(r"^[a-z_]+: ", lines[0]), (argv, lines)

    check()
