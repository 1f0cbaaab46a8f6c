import contextlib
import copy
import io
import json
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from taskport import cli
from taskport.cli import main
from taskport.errors import ConfigError
from taskport.harness.experiment import ExperimentConfig, load_config
from taskport.model import (
    Checkpoint,
    LayerSpec,
    init_checkpoint,
    load_calibration,
    load_checkpoint,
    save_calibration,
    save_checkpoint,
)
from taskport.seqalign import STRATEGIES

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
    command = draw(st.sampled_from(["transport", "make-fixtures", "inspect"]))
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
    flag = draw(st.sampled_from(_PATH_FLAGS + tuple(_TRANSPORT_VALUES)))
    convert = value = None
    extra = []
    if flag in paths:
        paths[flag] = draw(st.sampled_from(_PATH_CHOICES))
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


def test_cli_survives_one_hostile_value_per_flag(fixtures_dir, tmp_path, monkeypatch):
    (tmp_path / "fx").mkdir()
    for name in FIXTURE_NAMES:
        (tmp_path / "fx" / name).write_bytes((fixtures_dir / name).read_bytes())
    monkeypatch.chdir(tmp_path)
    parser = cli.build_parser()

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
        if code == 2:
            assert _argparse_rejects(parser, convert, value), (argv, lines)
        elif code == 0:
            assert lines == [], (argv, lines)
        else:
            assert code == 1 and len(lines) == 1 and re.match(r"^[a-z_]+: ", lines[0]), (argv, lines)

    check()
