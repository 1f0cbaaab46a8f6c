"""Metamorphic properties of the transport's geometry.

The norm identity, rotation recovery and closed-form optimality all hold for a
transposed or mis-indexed map too, since such a map still preserves norms.
These properties relabel one side's hidden units, rotate the hidden units of
an identity-activation target, or reorder the calibration sequences, and
check that the transported update follows exactly as the geometry says it
must.

Data are generic and full rank, so each Procrustes solution and each Gram
inverse is unique: seeded Gaussian weights, biases and inputs, no layer more
than one unit wider than its input, every layer's rows, as the strategy lays
them out, of full column rank with condition number below 1e3, and each
side's cross-covariance between the two models' aligned rows with
sigma_min/sigma_max above 1e-3 (drawn examples that miss this are rejected:
a ReLU unit dead on every row, or rows of full rank on each model whose
cross-covariance has a zero singular value, which fixes the Procrustes map
only up to the sign of one column). The ``mean`` strategy, whose rows are
the sequences, is drawn only with more sequences than any width; ``mean``
with fewer rows than dimensions is excluded, because its rank-deficient
cross-covariances leave the maps undetermined. Linearity in the update needs
none of this: a map that is not unique is still the same map on every call.
"""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from helpers import calibration
from taskport.model import Checkpoint, LayerSpec, TaskVector, forward_collect
from taskport.seqalign import STRATEGIES, align_sequence, flatten_tokens
from taskport.transport import TransportConfig, transport_task_vector

GEOMETRY_METHODS = ("theseus", "pinv")
TOKENS_A, TOKENS_B = 4, 9  # 2x2 and 3x3 grids, so interp2d applies


def stack(widths, rng, hidden="relu"):
    """Stack with ``hidden`` activations, an identity readout and generic
    nonzero biases."""
    specs = [
        LayerSpec(widths[i], widths[i + 1], has_bias=True,
                  activation=hidden if i < len(widths) - 2 else "identity")
        for i in range(len(widths) - 1)
    ]
    weights = [rng.standard_normal((s.d_out, s.d_in)) / np.sqrt(s.d_in) for s in specs]
    biases = [1.0 + 0.5 * rng.standard_normal(s.d_out) for s in specs]
    return Checkpoint(layer_specs=specs, weights=weights, biases=biases)


def well_conditioned(m) -> bool:
    sigma = np.linalg.svd(m, compute_uv=False)
    return sigma[-1] > 1e-3 * sigma[0]


def full_rank(theta_a, calib_a, theta_b, calib_b, strategy) -> bool:
    """Every layer's input and output rows of each model, as the strategy
    lays them out, have full column rank (no ReLU unit is dead on the whole
    calibration set), and so has each side's cross-covariance between the
    two models' rows, aligned per strategy."""
    records = [forward_collect(ckpt, calib)[1] for ckpt, calib in ((theta_a, calib_a), (theta_b, calib_b))]
    for rec_a, rec_b in zip(*records):
        for pair in ((rec_a.h_in, rec_b.h_in), (rec_a.h_out, rec_b.h_out)):
            for h in pair:
                own = align_sequence(h, 1, "mean") if strategy == "mean" else h
                if not well_conditioned(flatten_tokens(own)):
                    return False
            length = 1 if strategy == "mean" else max(h.shape[1] for h in pair)
            rows_a, rows_b = (flatten_tokens(align_sequence(h, length, strategy)) for h in pair)
            if not well_conditioned(rows_a.T @ rows_b):
                return False
    return True


def change_basis(weights, biases, bases):
    """Change the basis of the hidden units: the orthogonal bases[k] maps the
    outputs of layer k (W_k and b_k from the left) and the inputs of layer
    k + 1 (W_k+1 from the right, by its transpose). A permutation matrix
    relabels the units."""
    weights = list(weights)
    biases = list(biases)
    for k, q in enumerate(bases):
        weights[k] = q @ weights[k]
        biases[k] = q @ biases[k]
        weights[k + 1] = weights[k + 1] @ q.T
    return weights, biases


def change_basis_checkpoint(ckpt, bases):
    weights, biases = change_basis(ckpt.weights, ckpt.biases, bases)
    return Checkpoint(layer_specs=list(ckpt.layer_specs), weights=weights, biases=biases)


@st.composite
def widths(draw, affine=False):
    """Four interface widths, each at most one more than the one before: an
    affine layer's pre-activation outputs have rank at most d_in + 1, and a
    wider layer would leave its output-side maps undetermined. An ``affine``
    stack (identity activations) is one affine map up to each interface, so
    there every width is at most one more than the input width."""
    out = [draw(st.integers(2, 6))]
    for _ in range(3):
        out.append(draw(st.integers(2, min(6, (out[0] if affine else out[-1]) + 1))))
    return out


def permutation_matrices(widths, rng):
    return [np.eye(w)[rng.permutation(w)] for w in widths]


@st.composite
def instances(draw, target_hidden="relu"):
    """Two depth-3 stacks of drawn widths, the target with ``target_hidden``
    activations, a fine-tune of the source, paired calibration inputs, a
    method and a strategy; and relabelings of the hidden units of each stack
    and of the sequences."""
    widths_a, widths_b = draw(widths()), draw(widths(affine=target_hidden == "identity"))
    method = draw(st.sampled_from(GEOMETRY_METHODS))
    strategy = draw(st.sampled_from(STRATEGIES))
    seqs = draw(st.integers(8, 12))  # > every width, so `mean` rows stay full rank
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(np.random.SeedSequence((seed, 808)))
    theta_a = stack(widths_a, rng)
    theta_b = stack(widths_b, rng, target_hidden)
    ft = [w + 0.1 * rng.standard_normal(w.shape) for w in theta_a.weights]
    ft_b = [b + 0.1 * rng.standard_normal(b.shape) for b in theta_a.biases]
    theta_a_ft = Checkpoint(layer_specs=list(theta_a.layer_specs), weights=ft, biases=ft_b)
    # Paired inputs: the same raw sequences, resampled to each side's token
    # count and projected into each side's input space.
    raw = rng.standard_normal((seqs, TOKENS_A, 6))
    calib_a = raw @ rng.standard_normal((6, widths_a[0]))
    calib_b = align_sequence(raw, TOKENS_B, "interp2d") @ rng.standard_normal((6, widths_b[0]))
    assume(full_rank(theta_a, calib_a, theta_b, calib_b, strategy))
    perms_a = permutation_matrices(widths_a[1:-1], rng)
    perms_b = permutation_matrices(widths_b[1:-1], rng)
    order = rng.permutation(seqs)
    cfg = TransportConfig(method=method, strategy=strategy)
    return theta_a, theta_a_ft, theta_b, calib_a, calib_b, cfg, perms_a, perms_b, order


def assert_updates_close(got: TaskVector, want: TaskVector):
    for idx, (g, w) in enumerate(zip(got.deltas, want.deltas)):
        scale = max(1.0, float(np.linalg.norm(w)))
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-7 * scale, err_msg=f"layer {idx} delta")
    for idx, (g, w) in enumerate(zip(got.bias_deltas, want.bias_deltas)):
        scale = max(1.0, float(np.linalg.norm(w)))
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-7 * scale, err_msg=f"layer {idx} bias")


@settings(max_examples=50)
@given(instances())
def test_target_relabeling_permutes_the_output(inst):
    theta_a, theta_a_ft, theta_b, calib_a, calib_b, cfg, _, perms_b, _ = inst
    base, _ = transport_task_vector(theta_a, theta_a_ft, theta_b, calibration(calib_a, calib_b), cfg)
    relabeled = change_basis_checkpoint(theta_b, perms_b)
    got, _ = transport_task_vector(theta_a, theta_a_ft, relabeled, calibration(calib_a, calib_b), cfg)
    want = TaskVector(*change_basis(base.deltas, base.bias_deltas, perms_b))
    assert_updates_close(got, want)


@settings(max_examples=50)
@given(instances(target_hidden="identity"), st.integers(0, 2**16))
def test_target_change_of_basis_carries_the_output(inst, seed):
    # An identity-activation stack computes the same function in any
    # orthogonal basis of its hidden units, not only a permuted one.
    theta_a, theta_a_ft, theta_b, calib_a, calib_b, cfg, _, _, _ = inst
    rng = np.random.default_rng(np.random.SeedSequence((seed, 809)))
    bases = [np.linalg.qr(rng.standard_normal((s.d_out, s.d_out)))[0]
             for s in theta_b.layer_specs[:-1]]
    base, _ = transport_task_vector(theta_a, theta_a_ft, theta_b, calibration(calib_a, calib_b), cfg)
    rotated = change_basis_checkpoint(theta_b, bases)
    got, _ = transport_task_vector(theta_a, theta_a_ft, rotated, calibration(calib_a, calib_b), cfg)
    want = TaskVector(*change_basis(base.deltas, base.bias_deltas, bases))
    assert_updates_close(got, want)


@settings(max_examples=50)
@given(instances())
def test_source_relabeling_with_its_update_leaves_the_output(inst):
    theta_a, theta_a_ft, theta_b, calib_a, calib_b, cfg, perms_a, _, _ = inst
    base, _ = transport_task_vector(theta_a, theta_a_ft, theta_b, calibration(calib_a, calib_b), cfg)
    got, _ = transport_task_vector(
        change_basis_checkpoint(theta_a, perms_a), change_basis_checkpoint(theta_a_ft, perms_a),
        theta_b, calibration(calib_a, calib_b), cfg,
    )
    assert_updates_close(got, base)


@settings(max_examples=50)
@given(instances())
def test_reordering_calibration_pairs_leaves_the_output(inst):
    theta_a, theta_a_ft, theta_b, calib_a, calib_b, cfg, _, _, order = inst
    base, _ = transport_task_vector(theta_a, theta_a_ft, theta_b, calibration(calib_a, calib_b), cfg)
    got, _ = transport_task_vector(
        theta_a, theta_a_ft, theta_b, calibration(calib_a[order], calib_b[order]), cfg
    )
    assert_updates_close(got, base)


# The methods whose plan is fitted from the layer's statistics alone, so that
# transport is linear in the update; random and random_source draw theirs.
LINEAR_METHODS = ("theseus", "pinv", "pinv_tikhonov", "zero_pad")


@st.composite
def linear_instances(draw):
    """Two depth-3 stacks of independently drawn widths (for zero_pad, a
    target no narrower on any side, the only widths it accepts), paired
    calibration inputs, two updates of the source's weights and biases, a
    linear method and a strategy."""
    method = draw(st.sampled_from(LINEAR_METHODS))
    widths_a = draw(st.lists(st.integers(2, 8), min_size=4, max_size=4))
    if method == "zero_pad":
        widths_b = [w + draw(st.integers(0, 3)) for w in widths_a]
    else:
        widths_b = draw(st.lists(st.integers(2, 8), min_size=4, max_size=4))
    strategy = draw(st.sampled_from(STRATEGIES))
    seqs = draw(st.integers(2, 12))
    rng = np.random.default_rng(np.random.SeedSequence((draw(st.integers(0, 2**16)), 810)))
    theta_a, theta_b = stack(widths_a, rng), stack(widths_b, rng)
    calib_a = rng.standard_normal((seqs, TOKENS_A, widths_a[0]))
    calib_b = rng.standard_normal((seqs, TOKENS_B, widths_b[0]))
    taus = [[rng.standard_normal(a.shape) for a in (*theta_a.weights, *theta_a.biases)] for _ in range(2)]
    return theta_a, theta_b, calib_a, calib_b, taus, TransportConfig(method=method, strategy=strategy)


@settings(max_examples=60)
@given(linear_instances())
def test_transport_is_linear_in_the_update(inst):
    # Task arithmetic commutes with transport: T(tau_1 + tau_2) = T(tau_1) +
    # T(tau_2) and T(2.5 tau_1) = 2.5 T(tau_1), as each plan is fitted from
    # the two base models and the calibration, and never reads the update.
    theta_a, theta_b, calib_a, calib_b, (tau_1, tau_2), cfg = inst
    depth = theta_a.depth

    def moved(update):
        """The transported weight and bias deltas of fine-tuned = base + update."""
        tuned = [base + tau for base, tau in zip((*theta_a.weights, *theta_a.biases), update)]
        finetuned = Checkpoint(layer_specs=list(theta_a.layer_specs), weights=tuned[:depth], biases=tuned[depth:])
        out, _ = transport_task_vector(theta_a, finetuned, theta_b, calibration(calib_a, calib_b), cfg)
        return [*out.deltas, *out.bias_deltas]

    one, two = moved(tau_1), moved(tau_2)
    both, scaled = moved([a + b for a, b in zip(tau_1, tau_2)]), moved([2.5 * a for a in tau_1])
    for a, b, a_b, a_25 in zip(one, two, both, scaled):
        assert np.linalg.norm(a_b - (a + b)) <= 1e-12 * np.linalg.norm(a + b)
        assert np.linalg.norm(a_25 - 2.5 * a) <= 1e-12 * np.linalg.norm(2.5 * a)
