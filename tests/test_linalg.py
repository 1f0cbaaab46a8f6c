import numpy as np
import pytest
from hypothesis import given, strategies as st

from taskport.errors import ConvergenceError, DimensionError, NonFiniteError
from taskport.linalg import (
    DEFAULT_RCOND,
    as_matrix,
    pseudo_inverse,
    random_orthonormal_rows,
    svd,
    tikhonov_solve,
)


def test_svd_identity():
    u, sigma, vt = svd(np.eye(3))
    np.testing.assert_allclose(sigma, np.ones(3))
    np.testing.assert_allclose((u * sigma) @ vt, np.eye(3), atol=1e-14)


def test_svd_diagonal():
    _, sigma, _ = svd(np.diag([3.0, 2.0, 1.0]))
    np.testing.assert_allclose(sigma, [3.0, 2.0, 1.0])


def test_svd_seeded_reconstruction():
    a = np.random.default_rng(0).standard_normal((8, 5))
    u, sigma, vt = svd(a)
    assert np.linalg.norm((u * sigma) @ vt - a) <= 1e-10 * max(1.0, np.linalg.norm(a))
    np.testing.assert_allclose(u.T @ u, np.eye(5), atol=1e-10)
    np.testing.assert_allclose(vt @ vt.T, np.eye(5), atol=1e-10)


def test_svd_shape_sweep():
    # >= 100 seeded shapes in 1..64, every third one rank-deficient.
    rng = np.random.default_rng(1234)
    for trial in range(120):
        m = int(rng.integers(1, 65))
        n = int(rng.integers(1, 65))
        if trial % 3 == 0 and min(m, n) > 1:
            r = int(rng.integers(1, min(m, n)))
            a = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
        else:
            a = rng.standard_normal((m, n))
        u, sigma, vt = svd(a)
        k = min(m, n)
        assert u.shape == (m, k) and vt.shape == (k, n)
        assert np.linalg.norm((u * sigma) @ vt - a) <= 1e-10 * max(1.0, np.linalg.norm(a))
        np.testing.assert_allclose(u.T @ u, np.eye(k), atol=1e-10)
        np.testing.assert_allclose(vt @ vt.T, np.eye(k), atol=1e-10)
        assert np.all(sigma >= 0.0)
        assert np.all(np.diff(sigma) <= 1e-12)


def test_svd_determinism():
    a = np.random.default_rng(7).standard_normal((6, 4))
    first, second = svd(a), svd(a.copy())
    for x, y in zip(first, second):
        assert x.tobytes() == y.tobytes()


def test_svd_rejects_non_finite():
    with pytest.raises(NonFiniteError):
        svd(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_svd_rejects_empty_and_1d():
    with pytest.raises(DimensionError):
        svd(np.zeros((0, 3)))
    with pytest.raises(DimensionError):
        svd(np.zeros(3))


def test_pinv_diagonal():
    out = pseudo_inverse(np.diag([2.0, 4.0]), rcond=0.0)
    np.testing.assert_allclose(out, np.diag([0.5, 0.25]), atol=1e-14)


def test_pinv_rank_one():
    # Closed form for rank-1 u v^T: v u^T / (|u|^2 |v|^2) = (1/4) * ones.
    out = pseudo_inverse(np.ones((2, 2)), rcond=1e-12)
    np.testing.assert_allclose(out, 0.25 * np.ones((2, 2)), atol=1e-12)


def test_pinv_zero_matrix():
    np.testing.assert_array_equal(pseudo_inverse(np.zeros((3, 3))), np.zeros((3, 3)))


def test_pinv_moore_penrose_conditions():
    rng = np.random.default_rng(5)
    full = rng.standard_normal((6, 4))
    deficient = rng.standard_normal((2, 5))  # fewer rows than columns: rank 2 of 5
    indefinite = rng.standard_normal((5, 5))
    for a in (full.T @ full, deficient.T @ deficient, indefinite + indefinite.T):
        p = pseudo_inverse(a)
        np.testing.assert_allclose(a @ p @ a, a, atol=1e-8)
        np.testing.assert_allclose(p @ a @ p, p, atol=1e-8)
        np.testing.assert_allclose((a @ p).T, a @ p, atol=1e-8)
        np.testing.assert_allclose((p @ a).T, p @ a, atol=1e-8)


def test_pinv_truncates_small_singular_values():
    a = np.diag([1.0, 1e-14])
    out = pseudo_inverse(a, rcond=1e-10)
    np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-12)


@pytest.mark.filterwarnings("error")
def test_pinv_cutoff_past_the_float_range_keeps_nothing():
    # rcond * max|w| overflows here; the infinite cutoff drops every eigenvalue.
    a = np.diag([4.0, 2.0])
    for rcond in (1e308, np.finfo(float).max, np.inf):
        np.testing.assert_array_equal(pseudo_inverse(a, rcond), np.zeros((2, 2)))
    np.testing.assert_array_equal(pseudo_inverse(np.zeros((2, 2)), np.inf), np.zeros((2, 2)))
    # The largest finite cutoffs still keep what reaches them.
    np.testing.assert_array_equal(pseudo_inverse(np.diag([1.0, 0.5]), 1.0), np.diag([1.0, 0.0]))
    big = np.finfo(float).max
    np.testing.assert_array_equal(pseudo_inverse(np.diag([big, 1.0]), 1.0), np.diag([1.0 / big, 0.0]))


@pytest.mark.parametrize("rcond", [-1e-10, np.nan])
def test_pinv_refuses_negative_and_nan_rcond(rcond):
    # A NaN cutoff compares false with every eigenvalue; refused, not read as "keep nothing".
    with pytest.raises(ValueError, match="rcond must be non-negative"):
        pseudo_inverse(np.eye(2), rcond)


def _symmetric_of_rank(n, rank, seed, rotate):
    """A symmetric n x n matrix of the given rank, nonzero |eigenvalues| in [0.1, 10].

    Unrotated, its null space is the trailing coordinates, and eigh and SVD
    both return exact zeros there; rotated, they return rounding noise, which
    only a positive rcond cuts.
    """
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.1, 10.0, rank) * rng.choice([-1.0, 1.0], rank)
    q = np.linalg.qr(rng.standard_normal((rank, rank)))[0]
    a = np.zeros((n, n))
    a[:rank, :rank] = (q * w) @ q.T
    if rotate:
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        a = q @ a @ q.T
    return (a + a.T) / 2


@given(st.integers(1, 12), st.data(), st.integers(0, 2**32 - 1), st.sampled_from([0.0, DEFAULT_RCOND]))
def test_pinv_matches_svd_definition(n, data, seed, rcond):
    rank = data.draw(st.integers(0, n))
    a = _symmetric_of_rank(n, rank, seed, rotate=rcond > 0)
    u, sigma, vt = np.linalg.svd(a)
    keep = (sigma > 0.0) & (sigma >= rcond * sigma[0])
    assert keep.sum() == rank
    expected = (vt[keep].T / sigma[keep]) @ u[:, keep].T
    np.testing.assert_allclose(pseudo_inverse(a, rcond), expected, atol=1e-10)


@pytest.mark.parametrize(
    "solve",
    [pseudo_inverse, lambda a: tikhonov_solve(a, np.zeros(len(a)), 1.0)],
    ids=["pseudo_inverse", "tikhonov_solve"],
)
def test_gram_solves_reject_rectangular_and_asymmetric(solve):
    with pytest.raises(DimensionError):
        solve(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        solve(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("name, call", [
    ("svd", lambda: svd(np.ones((3, 2)))),
    ("eigh", lambda: pseudo_inverse(np.eye(3))),
])
def test_linalg_failures_are_convergence_errors(monkeypatch, name, call):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError(f"{name} did not converge")

    monkeypatch.setattr(np.linalg, name, fail)
    with pytest.raises(ConvergenceError):
        call()


def test_tikhonov_pure_regularizer():
    np.testing.assert_allclose(tikhonov_solve(np.zeros((2, 2)), np.eye(2), 1.0), np.eye(2), atol=1e-14)


def test_tikhonov_diagonal():
    out = tikhonov_solve(np.diag([1.0, 3.0]), np.array([1.0, 1.0]), 1.0)
    np.testing.assert_allclose(out, [0.5, 0.25], atol=1e-14)


def test_tikhonov_large_lambda_bound():
    rng = np.random.default_rng(3)
    h = rng.standard_normal((10, 4))
    gram = h.T @ h
    rhs = rng.standard_normal((4, 2))
    for lam in (1e3, 1e6):
        x = tikhonov_solve(gram, rhs, lam)
        assert np.linalg.norm(x) <= np.linalg.norm(rhs) / lam


def test_tikhonov_gradient_vanishes():
    rng = np.random.default_rng(11)
    for trial in range(20):
        n = int(rng.integers(1, 12))
        h = rng.standard_normal((n + 3, n))
        gram = h.T @ h
        rhs = rng.standard_normal(n)
        lam = float(10.0 ** rng.uniform(-6, 2))
        x = tikhonov_solve(gram, rhs, lam)
        grad = (gram + lam * np.eye(n)) @ x - rhs
        assert np.linalg.norm(grad) <= 1e-8 * max(1.0, np.linalg.norm(rhs))


def test_tikhonov_rejects_bad_inputs():
    with pytest.raises(ValueError):
        tikhonov_solve(np.zeros((2, 2)), np.zeros(2), 0.0)
    with pytest.raises(DimensionError):
        tikhonov_solve(np.zeros((2, 2)), np.zeros(3), 1.0)


def test_orthonormal_rows_square():
    t = random_orthonormal_rows(2, 2, 42)
    np.testing.assert_allclose(t @ t.T, np.eye(2), atol=1e-12)
    assert abs(abs(np.linalg.det(t)) - 1.0) < 1e-12


def test_orthonormal_rows_rectangular():
    t = random_orthonormal_rows(3, 5, 7)
    assert t.shape == (3, 5)
    np.testing.assert_allclose(t @ t.T, np.eye(3), atol=1e-12)


def test_orthonormal_rows_single():
    t = random_orthonormal_rows(1, 4, 0)
    assert abs(np.linalg.norm(t) - 1.0) < 1e-12


def test_orthonormal_rows_deterministic():
    a = random_orthonormal_rows(4, 9, 123)
    b = random_orthonormal_rows(4, 9, 123)
    c = random_orthonormal_rows(4, 9, 124)
    assert a.tobytes() == b.tobytes()
    assert a.tobytes() != c.tobytes()


def test_orthonormal_rows_rejects_wide_source():
    with pytest.raises(DimensionError):
        random_orthonormal_rows(5, 3, 0)


@given(st.integers(1, 16), st.integers(0, 2**32 - 1))
def test_orthonormal_rows_gram_property(d_small, seed):
    t = random_orthonormal_rows(d_small, d_small + 7, seed)
    np.testing.assert_allclose(t @ t.T, np.eye(d_small), atol=1e-12)


def test_as_matrix_coercion():
    out = as_matrix([[1, 2], [3, 4]])
    assert out.dtype == np.float64 and out.shape == (2, 2)
    with pytest.raises(DimensionError):
        as_matrix([1.0, 2.0])
