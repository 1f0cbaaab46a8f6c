import contextlib
import io
import json
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from taskport.cli import main
from taskport.model import (
    LayerSpec,
    init_checkpoint,
    load_checkpoint,
    save_checkpoint,
)

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


def test_transport_missing_input_reports_io_error(fixtures_dir, tmp_path, capsys):
    args = transport_args(fixtures_dir, tmp_path / "x.tpk")
    args[args.index("--source") + 1] = str(tmp_path / "nope.tpk")
    assert main(args) == 1
    assert capsys.readouterr().err.startswith("io_error:")


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
