"""Acceptance gate: one test per top-level guarantee the package makes.

Each test prints a single verdict line and enforces a wall-clock budget on top
of its assertions. Run with output capture off to see the verdicts:

    pytest tests/test_acceptance.py -v -s
"""

import csv
import json
import time
from contextlib import contextmanager

import numpy as np

from helpers import (
    assert_checkpoint_equal,
    full_rank_activations,
    layer_stats,
    rank_deficient_witness,
    small_checkpoint,
)
from taskport.baselines import gram_transport
from taskport.cli import main
from taskport.harness.experiment import (
    ExperimentConfig,
    ModelConfig,
    SeedConfig,
    TaskConfig,
    TrainConfig,
    run_experiment,
    warm_start_experiment,
)
from taskport.harness.isometry import build_isometric_target
from taskport.linalg import DEFAULT_RCOND, random_orthonormal_rows
from taskport.model import (
    LayerSpec,
    forward_collect,
    init_checkpoint,
    load_calibration,
    load_checkpoint,
    save_calibration,
    save_checkpoint,
)
from taskport.seqalign import align_sequence
from taskport.transport import (
    ProcrustesMap,
    bilinear_residual,
    procrustes_maps,
    transport_update,
)


@contextmanager
def criterion(label: str, budget_sec: float):
    """Print a pass/fail verdict for one criterion and enforce its budget."""
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] {label}: FAIL ({time.perf_counter() - start:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget_sec:
        print(f"\n[acceptance] {label}: FAIL ({elapsed:.2f}s, over the {budget_sec:g}s budget)")
        raise AssertionError(f"{label}: {elapsed:.2f}s exceeds the {budget_sec:g}s budget")
    print(f"\n[acceptance] {label}: PASS ({elapsed:.2f}s, budget {budget_sec:g}s)")


def test_recovers_exact_isometry():
    """A linear stack rotated into wider coordinates is recovered exactly.

    The fitted per-side maps reproduce the target activations to 1e-8, and the
    update they transport matches conjugation through the construction's own
    maps to 1e-7 entrywise.
    """
    with criterion("isometry-recovery", 1.0):
        specs = [LayerSpec(3, 3, True, "identity"), LayerSpec(3, 3, True, "identity")]
        theta_a = init_checkpoint(specs, np.random.SeedSequence((2024, 2)))
        theta_b, true_maps = build_isometric_target(theta_a, widths=[5, 5, 5], seed=41)

        # 256 calibration rows with a chosen, well-separated singular spectrum,
        # so every per-side Procrustes problem has a unique answer.
        rng = np.random.default_rng(np.random.SeedSequence((2024, 1)))
        u, _ = np.linalg.qr(rng.standard_normal((256, 3)))
        v, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        calib_a = (u * np.array([4.0, 2.0, 1.0])) @ v.T
        _, rec_a = forward_collect(theta_a, calib_a[:, None, :])
        _, rec_b = forward_collect(theta_b, (calib_a @ true_maps[0].in_map)[:, None, :])

        for idx in range(theta_a.depth):
            hin_a = rec_a[idx].h_in.reshape(256, -1)
            hout_a = rec_a[idx].h_out.reshape(256, -1)
            hin_b = rec_b[idx].h_in.reshape(256, -1)
            hout_b = rec_b[idx].h_out.reshape(256, -1)
            pmap = procrustes_maps(layer_stats(hin_a, hout_a, hin_b, hout_b))
            assert np.linalg.norm(hin_a @ pmap.in_map - hin_b) <= 1e-8
            assert np.linalg.norm(hout_a @ pmap.out_map - hout_b) <= 1e-8

            update_a = np.random.default_rng(
                np.random.SeedSequence((2024, 3, idx))
            ).standard_normal(theta_a.weights[idx].shape)
            moved = transport_update(update_a, pmap)
            expected = true_maps[idx].out_map.T @ update_a @ true_maps[idx].in_map
            assert np.max(np.abs(moved - expected)) <= 1e-7


def test_transport_preserves_update_norm():
    """Conjugation through orthonormal maps keeps the Frobenius norm."""
    with criterion("norm-preservation", 1.0):
        for trial in range(200):
            rng = np.random.default_rng(np.random.SeedSequence((7, trial)))
            d_in_a = int(rng.integers(1, 33))
            d_in_b = int(rng.integers(d_in_a, 65))
            d_out_a = int(rng.integers(1, 33))
            d_out_b = int(rng.integers(d_out_a, 65))
            pmap = ProcrustesMap(
                in_map=random_orthonormal_rows(d_in_a, d_in_b, np.random.SeedSequence((7, trial, 1))),
                out_map=random_orthonormal_rows(d_out_a, d_out_b, np.random.SeedSequence((7, trial, 2))),
            )
            update = rng.standard_normal((d_out_a, d_in_a)) * 10.0 ** rng.uniform(-3.0, 3.0)
            moved = transport_update(update, pmap)
            assert moved.shape == (d_out_b, d_in_b)
            norm_src = np.linalg.norm(update)
            assert abs(np.linalg.norm(moved) - norm_src) <= 1e-10 * norm_src


def test_closed_form_solves_least_squares():
    """The pseudo-inverse rule is the least-squares optimum it claims to be.

    On small aligned instances it matches the vectorized Kronecker solve
    entrywise, and no 1e-3 perturbation of its output fits the source coupling
    better.
    """
    with criterion("closed-form-optimality", 10.0):
        for trial in range(20):
            rng = np.random.default_rng(np.random.SeedSequence((11, trial)))
            d_in = int(rng.integers(2, 5))
            d_out = int(rng.integers(2, 5))
            m = int(rng.integers(max(d_in, d_out) + 1, 11))
            hin_a = rng.standard_normal((m, d_in))
            hout_a = rng.standard_normal((m, d_out))
            hin_b = rng.standard_normal((m, d_in))
            hout_b = rng.standard_normal((m, d_out))
            update_a = rng.standard_normal((d_out, d_in))
            solved, _ = gram_transport(layer_stats(hin_a, hout_a, hin_b, hout_b), update_a, rcond=DEFAULT_RCOND)

            # Independent route: flatten the bilinear system and solve it as
            # one ordinary least-squares problem.
            coupling = hin_a @ update_a.T @ hout_a.T
            operator = np.kron(hout_b, hin_b)
            x = np.linalg.lstsq(operator, coupling.flatten(order="F"), rcond=None)[0]
            oracle = x.reshape((d_in, d_out), order="F").T
            assert np.max(np.abs(solved - oracle)) <= 1e-7

            base = np.linalg.norm(coupling - hin_b @ solved.T @ hout_b.T)
            dirs = np.random.default_rng(
                np.random.SeedSequence((11, trial, 5))
            ).standard_normal((1000, d_out, d_in))
            dirs /= np.linalg.norm(dirs, axis=(1, 2), keepdims=True)
            couplings = np.einsum("mi,poi,no->pmn", hin_b, solved + 1e-3 * dirs, hout_b)
            perturbed = np.linalg.norm(coupling - couplings, axis=(1, 2))
            assert base <= perturbed.min()


def test_pinv_matches_alignment_until_rank_drops():
    """Full-rank isometric data: both routes agree. Rank-deficient data: the
    orthogonal route generalizes better off the fitting rows."""
    with criterion("pinv-reduction", 2.0):
        for trial in range(5):
            hin_a = full_rank_activations(40, 4, seed=130 + trial)
            hout_a = full_rank_activations(40, 3, seed=230 + trial)
            t_in = random_orthonormal_rows(4, 7, np.random.SeedSequence((13, trial, 3)))
            t_out = random_orthonormal_rows(3, 6, np.random.SeedSequence((13, trial, 4)))
            hin_b = hin_a @ t_in
            hout_b = hout_a @ t_out
            update_a = np.random.default_rng(
                np.random.SeedSequence((13, trial, 5))
            ).standard_normal((3, 4))
            stats = layer_stats(hin_a, hout_a, hin_b, hout_b)
            aligned = transport_update(update_a, procrustes_maps(stats))
            solved, _ = gram_transport(stats, update_a, rcond=DEFAULT_RCOND)
            assert np.max(np.abs(solved - aligned)) <= 1e-6

        fit, held_out, update = rank_deficient_witness()
        fit_stats, held_out_stats = layer_stats(*fit), layer_stats(*held_out)
        solved, _ = gram_transport(fit_stats, update, rcond=1e-10)
        aligned = transport_update(update, procrustes_maps(fit_stats))
        res_aligned = bilinear_residual(held_out_stats, update, aligned)
        res_pinv = bilinear_residual(held_out_stats, update, solved)
        assert res_aligned < res_pinv


def test_independent_regime_gain():
    """Transport between independently trained models moves test accuracy.

    Median over five seeds of the stock config: the orthogonal method gains
    accuracy and is at least as good as both reference baselines.
    """
    with criterion("independent-gain", 60.0):
        stock = ExperimentConfig()
        assert stock.source_model.width == 16 and stock.target_model.width == 24
        assert stock.task.n_classes == 4
        assert stock.batches_b == 10 and stock.batch_size == 32
        assert stock.alpha_grid == [i / 20 for i in range(21)]
        assert set(stock.methods) == {"theseus", "zero_pad", "random"}

        deltas = {m: [] for m in stock.methods}
        for seed in range(5):
            cfg = ExperimentConfig(seeds=SeedConfig(data=seed, init=seed, calib=seed))
            result = run_experiment(cfg)
            for m in deltas:
                deltas[m].append(result["methods"][m]["delta_acc"])
        med = {m: float(np.median(v)) for m, v in deltas.items()}
        assert med["theseus"] > 0.0, med
        assert med["theseus"] >= med["zero_pad"], med
        assert med["theseus"] >= med["random"], med


def test_kron_operator_stays_injective():
    """Full-column-rank activations give an invertible normal-equations kernel."""
    with criterion("kron-injectivity", 1.0):
        hin = full_rank_activations(16, 3, seed=61)
        hout = full_rank_activations(16, 4, seed=62)
        assert np.linalg.matrix_rank(hin) == 3
        assert np.linalg.matrix_rank(hout) == 4
        operator = np.kron(hout.T @ hout, hin.T @ hin)
        assert operator.shape == (12, 12)
        smallest = np.linalg.svd(operator, compute_uv=False)[-1]
        assert smallest > 1e-10


def ablation_config(seed: int) -> ExperimentConfig:
    """Isometric target whose token width equals the source width.

    Six calibration sequences: mean pooling leaves 6 rows, fewer than the 8
    activation dimensions, while the interp strategies keep all 24 token rows
    and determine the alignment completely.
    """
    return ExperimentConfig(
        task=TaskConfig(n_classes=3, d_raw=32, tokens=4, noise_sigma=1.0,
                        center_scale=1.0, train_per_class=100, val_per_class=50,
                        test_per_class=100, pretrain_per_class=100),
        source_model=ModelConfig(width=8, depth=2, activation="identity"),
        target_model=ModelConfig(width=12, depth=2, activation="identity"),
        train=TrainConfig(pretrain_steps=120, finetune_steps=240, lr=0.05),
        seeds=SeedConfig(data=seed, init=seed, calib=seed),
        regime="isometric", batches_b=1, batch_size=6,
        methods=["theseus"],
    )


def test_sequence_alignment_suite(tmp_path):
    """Alignment strategies keep their contracts, and full-token fitting is at
    least as good as pooled fitting on an isometric target."""
    with criterion("seq-align-suite", 5.0):
        rng = np.random.default_rng(np.random.SeedSequence((71, 0)))

        # Constant sequences stay constant.
        for strategy, l_src, l_tgt in (("mean", 6, 1), ("interp1d", 5, 9), ("interp2d", 4, 9)):
            value = rng.standard_normal((3, 1, 2))
            h = np.repeat(value, l_src, axis=1)
            out = align_sequence(h, l_tgt, strategy)
            assert out.shape == (3, 1 if strategy == "mean" else l_tgt, 2)
            assert np.max(np.abs(out - value)) <= 1e-12

        # Equal lengths copy (mean always pools, so its equal length is 1).
        h = rng.standard_normal((4, 9, 3))
        assert np.array_equal(align_sequence(h, 9, "interp1d"), h)
        assert np.array_equal(align_sequence(h, 9, "interp2d"), h)
        single = rng.standard_normal((4, 1, 3))
        assert np.array_equal(align_sequence(single, 1, "mean"), single)

        # Endpoints survive: sequence ends for interp1d, grid corners for interp2d.
        h = rng.standard_normal((2, 5, 3))
        out = align_sequence(h, 11, "interp1d")
        assert np.max(np.abs(out[:, 0] - h[:, 0])) <= 1e-12
        assert np.max(np.abs(out[:, -1] - h[:, -1])) <= 1e-12
        g = rng.standard_normal((2, 4, 3))
        out = align_sequence(g, 9, "interp2d")
        assert np.max(np.abs(out[:, [0, 2, 6, 8]] - g[:, [0, 1, 2, 3]])) <= 1e-12

        # Every strategy is a fixed linear map.
        for strategy, l_src, l_tgt in (("mean", 7, 1), ("interp1d", 7, 4), ("interp2d", 9, 4)):
            h1 = rng.standard_normal((3, l_src, 2))
            h2 = rng.standard_normal((3, l_src, 2))
            lhs = align_sequence(1.7 * h1 - 0.4 * h2, l_tgt, strategy)
            rhs = 1.7 * align_sequence(h1, l_tgt, strategy) - 0.4 * align_sequence(h2, l_tgt, strategy)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12

        # Hand-computed bilinear values for the 2x2 -> 3x3 grid.
        h = np.arange(4, dtype=np.float64).reshape(1, 4, 1)
        out = align_sequence(h, 9, "interp2d")[0, :, 0]
        oracle = np.array([0.0, 0.5, 1.0, 1.0, 1.5, 2.0, 2.0, 2.5, 3.0])
        assert np.max(np.abs(out - oracle)) <= 1e-12

        # Ablation command on an isometric target.
        cfg_path = tmp_path / "ablate.json"
        cfg_path.write_text(json.dumps(ablation_config(seed=3).to_dict()))
        csv_path = tmp_path / "ablate.csv"
        assert main(["ablate-seqalign", str(cfg_path), "--output", str(csv_path)]) == 0
        with open(csv_path, newline="") as f:
            rows = {r["strategy"]: float(r["delta_acc"]) for r in csv.DictReader(f)}
        assert rows["interp2d"] >= rows["mean"], rows


def warm_start_config(seed: int) -> ExperimentConfig:
    # Long source finetuning puts the warm run on its plateau from step 0, and
    # the large train split keeps validation accuracy from sliding back.
    return ExperimentConfig(
        task=TaskConfig(n_classes=3, d_raw=32, tokens=4, noise_sigma=1.0,
                        center_scale=1.0, train_per_class=150, val_per_class=50,
                        test_per_class=100, pretrain_per_class=150),
        source_model=ModelConfig(width=8, depth=2, activation="identity"),
        target_model=ModelConfig(width=12, depth=2, activation="identity"),
        train=TrainConfig(pretrain_steps=150, finetune_steps=300, lr=0.05),
        seeds=SeedConfig(data=seed, init=seed, calib=seed),
        regime="isometric", batches_b=1, batch_size=12,
        methods=["theseus"],
    )


def test_warm_start_dominates_cold():
    """Finetuning from the transported model is never behind the cold start
    (median over three seeds) and is at the cold run's final accuracy early."""
    with criterion("warm-start", 60.0):
        cold, warm = [], []
        for seed in (0, 1, 2):
            curves, _ = warm_start_experiment(warm_start_config(seed), steps=150)
            cold.append(curves["cold_acc"])
            warm.append(curves["warm_acc"])
        cold_med = np.median(np.asarray(cold), axis=0)
        warm_med = np.median(np.asarray(warm), axis=0)
        assert warm_med.shape == (151,)
        assert np.all(warm_med >= cold_med)
        reached = np.nonzero(warm_med >= cold_med[150])[0]
        assert reached.size > 0 and reached[0] <= 150


def test_determinism(tmp_path):
    """File round-trips are bitwise, and every command repeats bitwise per seed."""
    with criterion("determinism", 5.0):
        ckpt = small_checkpoint(seed=9)
        path = tmp_path / "roundtrip.tpk"
        save_checkpoint(ckpt, path)
        assert_checkpoint_equal(load_checkpoint(path), ckpt, bitwise=True)

        rng = np.random.default_rng(np.random.SeedSequence((91, 1)))
        inputs = rng.standard_normal((6, 2, 3))
        paired = rng.standard_normal((6, 2, 5))
        path = tmp_path / "roundtrip.tpc"
        save_calibration(inputs, paired, path)
        back_a, back_b = load_calibration(path)
        assert back_a.tobytes() == inputs.tobytes()
        assert back_b.tobytes() == paired.tobytes()

        fixture_names = (
            "source_a.tpk", "source_a_ft.tpk", "target_b.tpk", "calib.tpc", "demo_config.json"
        )
        outdirs = [tmp_path / "fx_one", tmp_path / "fx_two"]
        for outdir in outdirs:
            assert main(["make-fixtures", "--seed", "5", "--outdir", str(outdir)]) == 0
        for name in fixture_names:
            assert (outdirs[0] / name).read_bytes() == (outdirs[1] / name).read_bytes()

        for method in ("theseus", "random"):
            moved = []
            for run in ("one", "two"):
                out = tmp_path / f"moved_{method}_{run}.tpk"
                code = main([
                    "transport",
                    "--source", str(outdirs[0] / "source_a.tpk"),
                    "--finetuned", str(outdirs[0] / "source_a_ft.tpk"),
                    "--target", str(outdirs[0] / "target_b.tpk"),
                    "--calib", str(outdirs[0] / "calib.tpc"),
                    "--method", method, "--seed", "3",
                    "--output", str(out),
                    "--report", str(tmp_path / f"report_{method}_{run}.json"),
                ])
                assert code == 0
                moved.append(out.read_bytes())
            assert moved[0] == moved[1]

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
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(payload))
        results = []
        for run in ("one", "two"):
            out = tmp_path / f"exp_{run}.json"
            assert main(["experiment", str(cfg_path), "--output", str(out)]) == 0
            data = json.loads(out.read_text())
            data.pop("wall_clock_sec")
            results.append(data)
        assert results[0] == results[1]
