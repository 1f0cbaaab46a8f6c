import csv
import json

import numpy as np
import pytest

from helpers import small_checkpoint
from taskport.errors import ConfigError, DimensionError, TrainingError
from taskport.harness.data import (
    SyntheticTask,
    input_projection,
    make_dataset,
    render_tokens,
)
from taskport.harness.experiment import (
    ExperimentConfig,
    ModelConfig,
    SeedConfig,
    TaskConfig,
    TrainConfig,
    ablate_seqalign,
    prepare_experiment,
    run_experiment,
    warm_start_experiment,
    write_ablation_csv,
)
from taskport.harness.isometry import build_isometric_target
from taskport.harness.training import (
    alpha_search,
    classification_loss,
    evaluate,
    loss_and_grads,
    train_classifier,
    warm_start_compare,
    write_curves,
)
from taskport.model import (
    Checkpoint,
    LayerSpec,
    apply_update,
    forward_collect,
    init_checkpoint,
    task_vector,
)


def tiny_task(**overrides):
    kwargs = dict(n_classes=3, d_raw=12, tokens=3, noise_sigma=0.6, seed=0)
    kwargs.update(overrides)
    return SyntheticTask.generate(**kwargs)


def fast_config(**overrides):
    base = {
        "task": {
            "n_classes": 3, "d_raw": 12, "tokens": 3, "noise_sigma": 0.6,
            "center_scale": 2.0, "train_per_class": 40, "val_per_class": 25,
            "test_per_class": 40, "pretrain_per_class": 40,
        },
        "source_model": {"width": 8},
        "target_model": {"width": 10},
        "train": {"pretrain_steps": 60, "finetune_steps": 120, "lr": 0.08},
        "regime": "independent",
        "batches_B": 2,
        "batch_size": 12,
        "methods": ["theseus", "zero_pad", "random"],
        "seq_align": "interp2d",
        "alpha_grid": [0.0, 0.25, 0.5, 0.75, 1.0],
        "seeds": {"data": 3, "init": 3, "calib": 3},
        "output_path": None,
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            base[key] = {**base[key], **value}
        else:
            base[key] = value
    return ExperimentConfig.from_dict(base)


def isometric_config(**overrides):
    merged = {
        "regime": "isometric",
        "source_model": {"width": 8, "activation": "identity"},
        "target_model": {"width": 12, "activation": "identity"},
        # Hard enough that the pretrained model leaves headroom on the task;
        # with easier settings every accuracy saturates at 1.0 and the
        # directional comparisons below turn vacuous.
        "task": {"noise_sigma": 1.2, "center_scale": 1.0},
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = {**merged[key], **value}
        else:
            merged[key] = value
    return fast_config(**merged)


@pytest.fixture(scope="module")
def independent_result():
    return run_experiment(fast_config())


@pytest.fixture(scope="module")
def isometric_result():
    return run_experiment(isometric_config())


# -- synthetic data ------------------------------------------------------------


def test_make_dataset_tiny_noise_hugs_centers():
    task = tiny_task(noise_sigma=1e-9)
    inputs, labels = make_dataset(task, 5, "train")
    assert inputs.shape == (15, 3, 4)
    flat = inputs.reshape(15, 12)
    for row, label in zip(flat, labels):
        assert np.abs(row - task.centers[label]).max() <= 1e-6


def test_make_dataset_deterministic_and_split_dependent():
    task = tiny_task(seed=9)
    a_x, a_y = make_dataset(task, 4, "val")
    b_x, b_y = make_dataset(task, 4, "val")
    c_x, _ = make_dataset(task, 4, "test")
    assert a_x.tobytes() == b_x.tobytes()
    assert np.array_equal(a_y, b_y)
    assert a_x.tobytes() != c_x.tobytes()


def test_make_dataset_splits_are_disjoint():
    task = tiny_task(seed=2)
    seen = set()
    for split in ("train", "val", "test", "calib"):
        inputs, _ = make_dataset(task, 6, split)
        rows = {row.tobytes() for row in inputs.reshape(inputs.shape[0], -1)}
        assert not rows & seen
        seen |= rows


def test_make_dataset_rejects_bad_args():
    task = tiny_task()
    with pytest.raises(ConfigError, match="unknown split"):
        make_dataset(task, 4, "holdout")
    with pytest.raises(ConfigError, match="n_per_class"):
        make_dataset(task, 0, "train")
    lopsided = SyntheticTask(
        n_classes=2, d_raw=10, tokens=3, centers=np.zeros((2, 10)),
        noise_sigma=1.0, seed=0,
    )
    with pytest.raises(DimensionError, match="chunk"):
        make_dataset(lopsided, 4, "train")


def test_input_projection_rows_are_orthonormal():
    proj = input_projection(4, 9, np.random.SeedSequence(3))
    np.testing.assert_allclose(proj @ proj.T, np.eye(4), atol=1e-10)
    with pytest.raises(ConfigError, match="narrower"):
        input_projection(9, 4, np.random.SeedSequence(3))


def test_render_tokens_shapes_and_rejections():
    inputs = np.arange(24, dtype=np.float64).reshape(2, 3, 4)
    proj = input_projection(4, 6, np.random.SeedSequence(5))
    out = render_tokens(inputs, proj)
    assert out.shape == (2, 3, 6)
    np.testing.assert_allclose(out[1, 2], inputs[1, 2] @ proj, atol=1e-12)
    with pytest.raises(DimensionError, match="render"):
        render_tokens(inputs, np.zeros((5, 6)))


# -- gradients and training ----------------------------------------------------


def test_loss_gradients_match_central_differences():
    ckpt = small_checkpoint(widths=(5, 5, 5), seed=12)
    rng = np.random.default_rng(13)
    inputs = rng.standard_normal((6, 3, 5))
    labels = rng.integers(0, 3, size=6)
    _, grads_w, grads_b = loss_and_grads(ckpt, inputs, labels, n_classes=3)

    eps = 1e-6

    def probe(mutate):
        trial = ckpt.copy()
        mutate(trial, eps)
        up = classification_loss(trial, inputs, labels, 3)
        trial = ckpt.copy()
        mutate(trial, -eps)
        down = classification_loss(trial, inputs, labels, 3)
        return (up - down) / (2 * eps)

    for idx in range(ckpt.depth):
        for pos in np.ndindex(ckpt.weights[idx].shape):
            def bump_w(trial, delta, idx=idx, pos=pos):
                trial.weights[idx][pos] += delta

            numeric = probe(bump_w)
            analytic = grads_w[idx][pos]
            assert abs(numeric - analytic) <= 1e-5 * max(1.0, abs(analytic))
        for pos in range(ckpt.biases[idx].shape[0]):
            def bump_b(trial, delta, idx=idx, pos=pos):
                trial.biases[idx][pos] += delta

            numeric = probe(bump_b)
            analytic = grads_b[idx][pos]
            assert abs(numeric - analytic) <= 1e-5 * max(1.0, abs(analytic))


def test_train_zero_steps_is_bitwise_copy():
    ckpt = small_checkpoint(widths=(4, 4, 4), seed=20)
    rng = np.random.default_rng(21)
    trained = train_classifier(
        ckpt, rng.standard_normal((8, 2, 4)), rng.integers(0, 2, 8), steps=0, lr=0.1
    )
    assert trained is not ckpt
    for idx in range(ckpt.depth):
        assert np.array_equal(trained.weights[idx], ckpt.weights[idx])
        assert np.array_equal(trained.biases[idx], ckpt.biases[idx])
    assert "train_steps" not in trained.meta


def test_train_separates_two_blobs():
    task = tiny_task(n_classes=2, d_raw=12, tokens=3, noise_sigma=0.4, seed=5)
    inputs, labels = make_dataset(task, 40, "train")
    proj = input_projection(4, 6, np.random.SeedSequence(6))
    rendered = render_tokens(inputs, proj)
    ckpt = init_checkpoint(ModelConfig(width=6).layer_specs(), np.random.SeedSequence(7))
    trained = train_classifier(ckpt, rendered, labels, steps=300, lr=0.1)
    assert evaluate(trained, rendered, labels) >= 0.95
    assert trained.meta["train_steps"] == "300"


def test_train_aborts_on_divergence_with_step_index():
    task = tiny_task(seed=8)
    inputs, labels = make_dataset(task, 10, "train")
    proj = input_projection(4, 6, np.random.SeedSequence(9))
    rendered = render_tokens(inputs, proj)
    ckpt = init_checkpoint(ModelConfig(width=6).layer_specs(), np.random.SeedSequence(10))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingError, match=r"non-finite loss at step \d+"):
            train_classifier(ckpt, rendered, labels, steps=40, lr=1e200)


def test_train_rejects_bad_args():
    ckpt = small_checkpoint(widths=(4, 4, 4), seed=22)
    x = np.zeros((4, 2, 4))
    y = np.array([0, 1, 0, 1])
    with pytest.raises(ConfigError, match="steps"):
        train_classifier(ckpt, x, y, steps=-1, lr=0.1)
    with pytest.raises(ConfigError, match="lr"):
        train_classifier(ckpt, x, y, steps=5, lr=0.0)


def test_train_minibatch_seed_changes_trajectory():
    task = tiny_task(seed=11)
    inputs, labels = make_dataset(task, 20, "train")
    proj = input_projection(4, 6, np.random.SeedSequence(12))
    rendered = render_tokens(inputs, proj)
    ckpt = init_checkpoint(ModelConfig(width=6).layer_specs(), np.random.SeedSequence(13))
    runs = [
        train_classifier(ckpt, rendered, labels, steps=30, lr=0.05,
                         seed=seed, batch_size=16)
        for seed in (1, 1, 2)
    ]
    assert runs[0].weights[0].tobytes() == runs[1].weights[0].tobytes()
    assert runs[0].weights[0].tobytes() != runs[2].weights[0].tobytes()


# -- alpha search ----------------------------------------------------------------


def test_alpha_search_zero_update_picks_grid_floor():
    ckpt = small_checkpoint(widths=(4, 4, 4), seed=30)
    update = task_vector(ckpt, ckpt)
    rng = np.random.default_rng(31)
    inputs, labels = rng.standard_normal((10, 2, 4)), rng.integers(0, 3, 10)
    alpha, acc = alpha_search(ckpt, update, inputs, labels, [0.0, 0.5, 1.0], n_classes=3)
    assert alpha == 0.0
    assert acc == evaluate(ckpt, inputs, labels, n_classes=3)


def test_alpha_search_single_point_grid():
    ckpt = small_checkpoint(widths=(4, 4, 4), seed=32)
    update = task_vector(ckpt, ckpt)
    rng = np.random.default_rng(33)
    inputs, labels = rng.standard_normal((6, 2, 4)), rng.integers(0, 2, 6)
    alpha, _ = alpha_search(ckpt, update, inputs, labels, [0.7], n_classes=2)
    assert alpha == 0.7


def test_alpha_search_unit_strength_restores_finetuned_model():
    task = tiny_task(seed=14)
    inputs, labels = make_dataset(task, 30, "train")
    val_x, val_y = make_dataset(task, 20, "val")
    proj = input_projection(4, 8, np.random.SeedSequence(15))
    rendered, val_r = render_tokens(inputs, proj), render_tokens(val_x, proj)
    base = init_checkpoint(ModelConfig(width=8).layer_specs(), np.random.SeedSequence(16))
    tuned = train_classifier(base, rendered, labels, steps=200, lr=0.08)
    update = task_vector(base, tuned)
    alpha, acc = alpha_search(base, update, val_r, val_y, [0.0, 1.0], n_classes=3)
    assert alpha == 1.0
    assert acc == evaluate(tuned, val_r, val_y, n_classes=3)


def test_alpha_search_rejects_bad_grids():
    ckpt = small_checkpoint(widths=(4, 4, 4), seed=34)
    update = task_vector(ckpt, ckpt)
    x, y = np.zeros((2, 2, 4)), np.array([0, 1])
    with pytest.raises(ConfigError, match="empty"):
        alpha_search(ckpt, update, x, y, [], n_classes=2)
    with pytest.raises(ConfigError, match="ascending"):
        alpha_search(ckpt, update, x, y, [0.5, 0.5], n_classes=2)


# -- isometric construction ------------------------------------------------------


def linear_stack(widths, seed):
    return small_checkpoint(widths=widths, seed=seed, activation="identity")


def test_isometric_identity_maps_copy_the_source():
    theta_a = linear_stack((3, 4, 2), seed=40)
    dims = [3, 4, 2]
    theta_b, maps = build_isometric_target(
        theta_a, maps=[np.eye(d) for d in dims]
    )
    for idx in range(theta_a.depth):
        assert np.array_equal(theta_b.weights[idx], theta_a.weights[idx])
        assert np.array_equal(theta_b.biases[idx], theta_a.biases[idx])
    assert all(np.array_equal(m.in_map, np.eye(dims[i])) for i, m in enumerate(maps))


def test_isometric_activations_ride_the_maps_exactly():
    theta_a = linear_stack((3, 3, 3), seed=41)
    theta_b, maps = build_isometric_target(theta_a, widths=[5, 6, 4], seed=42)
    rng = np.random.default_rng(43)
    x_a = rng.standard_normal((7, 2, 3))
    x_b = np.einsum("nld,dk->nlk", x_a, maps[0].in_map)
    _, rec_a = forward_collect(theta_a, x_a)
    _, rec_b = forward_collect(theta_b, x_b)
    for idx in range(theta_a.depth):
        mapped = np.einsum("nld,dk->nlk", rec_a[idx].h_out, maps[idx].out_map)
        np.testing.assert_allclose(rec_b[idx].h_out, mapped, atol=1e-12)


def test_isometric_maps_chain_and_carry_zero_residuals():
    theta_a = linear_stack((3, 4, 2), seed=44)
    theta_b, maps = build_isometric_target(theta_a, widths=[4, 6, 3], seed=45)
    assert [s.d_in for s in theta_b.layer_specs] == [4, 6]
    assert [s.d_out for s in theta_b.layer_specs] == [6, 3]
    assert maps[0].out_map.tobytes() == maps[1].in_map.tobytes()
    assert all(m.in_residual == 0.0 and m.out_residual == 0.0 for m in maps)
    assert theta_b.meta["construction"] == "isometric"


def test_isometric_keep_final_pins_the_readout():
    theta_a = linear_stack((3, 4, 2), seed=46)
    theta_b, maps = build_isometric_target(theta_a, widths=[5, 6, 2], seed=47, keep_final=True)
    assert np.array_equal(maps[-1].out_map, np.eye(2))
    with pytest.raises(DimensionError, match="keep_final"):
        build_isometric_target(theta_a, widths=[5, 6, 3], keep_final=True)


def test_isometric_rejections():
    with pytest.raises(DimensionError, match="layer 0 uses relu"):
        build_isometric_target(small_checkpoint(widths=(3, 4, 2), seed=48))
    theta_a = linear_stack((3, 4, 2), seed=49)
    with pytest.raises(DimensionError, match="narrower"):
        build_isometric_target(theta_a, widths=[2, 4, 2])
    with pytest.raises(DimensionError, match="one dimension per interface"):
        build_isometric_target(theta_a, widths=[3, 4])
    with pytest.raises(DimensionError, match="orthonormal rows"):
        build_isometric_target(theta_a, maps=[np.eye(3) * 2, np.eye(4), np.eye(2)])
    with pytest.raises(DimensionError, match="expected 3 maps"):
        build_isometric_target(theta_a, maps=[np.eye(3)])


# -- experiment configs -----------------------------------------------------------


def test_config_round_trips_through_dict():
    cfg = fast_config()
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg
    assert cfg.to_dict()["lambda"] is None
    assert cfg.to_dict()["batches_B"] == 2


def test_config_reports_missing_keys_with_dotted_names():
    payload = fast_config().to_dict()
    del payload["source_model"]["width"]
    with pytest.raises(ConfigError, match="missing config key 'source_model.width'"):
        ExperimentConfig.from_dict(payload)
    payload = fast_config().to_dict()
    del payload["regime"]
    with pytest.raises(ConfigError, match="missing config key 'regime'"):
        ExperimentConfig.from_dict(payload)


def test_config_reports_unknown_keys_with_dotted_names():
    payload = fast_config().to_dict()
    payload["task"]["bogus"] = 1
    with pytest.raises(ConfigError, match="unknown config key 'task.bogus'"):
        ExperimentConfig.from_dict(payload)
    payload = fast_config().to_dict()
    payload["frobnicate"] = True
    with pytest.raises(ConfigError, match="unknown config key 'frobnicate'"):
        ExperimentConfig.from_dict(payload)


def test_config_validation_catches_semantic_errors():
    with pytest.raises(ConfigError, match="unknown method"):
        fast_config(methods=["theseus", "prayer"])
    with pytest.raises(ConfigError, match="batches_B"):
        fast_config(batches_B=0)
    with pytest.raises(ConfigError, match="seq_align"):
        fast_config(seq_align="bilinear")
    with pytest.raises(ConfigError, match="ascending"):
        fast_config(alpha_grid=[0.5, 0.25])
    with pytest.raises(ConfigError, match="identity activations"):
        isometric_config(source_model={"width": 8, "activation": "relu"})
    with pytest.raises(ConfigError, match="classes"):
        fast_config(source_model={"width": 2})
    with pytest.raises(ConfigError, match="duplicate"):
        fast_config(methods=["random", "random"])
    with pytest.raises(ConfigError, match="rcond must be finite"):
        fast_config(rcond=float("inf"))
    with pytest.raises(ConfigError, match="lambda must be finite"):
        fast_config(**{"lambda": float("inf")})


@pytest.mark.parametrize("overrides, key", [
    ({"methods": "theseus"}, "methods"),
    ({"batches_b": "3"}, "batches_B"),
    ({"alpha_grid": "0.5"}, "alpha_grid"),
])
def test_config_type_checks_direct_construction(overrides, key):
    with pytest.raises(ConfigError, match=f"^config key '{key}' must be "):
        ExperimentConfig(**overrides)


def test_config_lambda_key_feeds_ridge_strength():
    cfg = fast_config(**{"lambda": 0.125})
    assert cfg.lam == 0.125
    assert ExperimentConfig.from_dict(cfg.to_dict()).lam == 0.125


# -- experiment pipeline -----------------------------------------------------------


def test_prepared_experiment_shapes_and_streams():
    cfg = fast_config()
    prep = prepare_experiment(cfg)
    n_calib = cfg.batches_b * cfg.batch_size
    assert prep.calib_a.shape == (n_calib, 3, 8)
    assert prep.calib_b.shape == (n_calib, 3, 10)
    assert 0.0 <= prep.zero_shot <= 1.0
    assert prep.source_accuracy["finetuned"] >= prep.source_accuracy["pretrained"]
    # The two models render the same raw calibration rows.
    np.testing.assert_allclose(
        prep.calib_a @ prep.proj_a.T, prep.calib_b @ prep.proj_b.T, atol=1e-10
    )


def test_prepared_isometric_target_keeps_readout_width():
    prep = prepare_experiment(isometric_config())
    assert [s.d_in for s in prep.theta_b.layer_specs] == [12, 12]
    assert [s.d_out for s in prep.theta_b.layer_specs] == [12, 8]
    np.testing.assert_allclose(
        prep.calib_b, np.einsum("nld,dk->nlk", prep.calib_a, np.linalg.pinv(prep.proj_a) @ prep.proj_b),
        atol=1e-8,
    )


def test_run_experiment_result_structure(independent_result):
    result = independent_result
    assert set(result["methods"]) == {"theseus", "zero_pad", "random"}
    for name, res in result["methods"].items():
        assert res["accuracy_before"] == result["zero_shot_accuracy"]
        assert res["delta_acc"] == pytest.approx(res["accuracy_after"] - res["accuracy_before"])
        assert res["best_alpha"] in ExperimentConfig.from_dict(result["config"]).alpha_grid
        assert len(res["layers"]) == 2
    summary = result["methods"]["theseus"]["residual_summary"]
    assert summary["bilinear_residual"]["mean"] >= 0.0
    assert result["methods"]["zero_pad"]["residual_summary"]["in_residual"] is None


def test_run_experiment_is_deterministic(independent_result):
    again = run_experiment(fast_config())
    a = {k: v for k, v in independent_result.items() if k != "wall_clock_sec"}
    b = {k: v for k, v in again.items() if k != "wall_clock_sec"}
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_isometric_transport_beats_activation_free_baselines(isometric_result):
    methods = isometric_result["methods"]
    assert methods["theseus"]["delta_acc"] > 0.0
    assert methods["theseus"]["delta_acc"] >= methods["zero_pad"]["delta_acc"]
    assert methods["theseus"]["delta_acc"] >= methods["random"]["delta_acc"]


def test_zero_update_moves_nothing():
    cfg = fast_config(train={"pretrain_steps": 40, "finetune_steps": 0, "lr": 0.08})
    result = run_experiment(cfg)
    for res in result["methods"].values():
        assert res["delta_acc"] == 0.0
        assert res["accuracy_after"] == result["zero_shot_accuracy"]


def test_run_experiment_writes_output_file(tmp_path):
    out = tmp_path / "result.json"
    cfg = fast_config(
        methods=["zero_pad"],
        train={"pretrain_steps": 30, "finetune_steps": 40, "lr": 0.08},
    )
    result = run_experiment(cfg, output_path=str(out))
    on_disk = json.loads(out.read_text())
    assert on_disk["config"] == result["config"]
    assert on_disk["methods"]["zero_pad"]["delta_acc"] == result["methods"]["zero_pad"]["delta_acc"]


# -- warm start ---------------------------------------------------------------------


def test_warm_start_zero_update_duplicates_the_cold_curve():
    cfg = fast_config(train={"pretrain_steps": 40, "finetune_steps": 0, "lr": 0.08})
    curves, info = warm_start_experiment(cfg, steps=6)
    assert info["best_alpha"] == 0.0
    assert curves["step"] == list(range(7))
    assert curves["cold_loss"] == curves["warm_loss"]
    assert curves["cold_acc"] == curves["warm_acc"]


def test_warm_start_compare_counts_and_descends():
    task = tiny_task(seed=17)
    inputs, labels = make_dataset(task, 30, "train")
    val_x, val_y = make_dataset(task, 15, "val")
    proj = input_projection(4, 8, np.random.SeedSequence(18))
    rendered, val_r = render_tokens(inputs, proj), render_tokens(val_x, proj)
    base = init_checkpoint(ModelConfig(width=8).layer_specs(), np.random.SeedSequence(19))
    tuned = train_classifier(base, rendered, labels, steps=150, lr=0.08)
    update = task_vector(base, tuned)
    curves = warm_start_compare(
        base, update, 1.0, rendered, labels, val_r, val_y, steps=10, lr=0.08
    )
    assert len(curves["cold_loss"]) == 11
    # Step 0 of the warm curve scores theta + update before any training.
    assert curves["warm_acc"][0] == evaluate(tuned, val_r, val_y, n_classes=3)
    assert curves["cold_loss"][-1] < curves["cold_loss"][0]


def test_write_curves_round_trips(tmp_path):
    curves = {
        "step": [0, 1],
        "cold_loss": [1.25, 0.5], "warm_loss": [1.0, 0.25],
        "cold_acc": [0.5, 0.75], "warm_acc": [0.625, 1.0],
    }
    path = tmp_path / "curves.csv"
    write_curves(curves, path)
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["step", "cold_loss", "warm_loss", "cold_acc", "warm_acc"]
    assert len(rows) == 3
    assert [float(v) for v in rows[1][1:]] == [1.25, 1.0, 0.5, 0.625]


# -- sequence-alignment ablation -------------------------------------------------------


def test_ablation_rows_and_csv(tmp_path):
    cfg = isometric_config(
        train={"pretrain_steps": 40, "finetune_steps": 80, "lr": 0.08},
    )
    rows = ablate_seqalign(cfg)
    assert [r["strategy"] for r in rows] == ["mean", "interp1d", "interp2d"]
    for row in rows:
        assert row["delta_acc"] == pytest.approx(row["accuracy_after"] - row["accuracy_before"])
    path = tmp_path / "ablation.csv"
    write_ablation_csv(rows, path)
    with open(path, newline="") as f:
        parsed = list(csv.reader(f))
    assert parsed[0] == ["strategy", "accuracy_before", "accuracy_after", "best_alpha", "delta_acc"]
    assert len(parsed) == 4
    assert float(parsed[3][4]) == rows[2]["delta_acc"]
