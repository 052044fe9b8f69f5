import math

import numpy as np
import numpy.testing as npt
import pytest

from hetgp.errors import NotPositiveDefiniteError, ShapeError
from hetgp.kernels import (
    KernelParams,
    kernel_matrix,
    sq_dist_contract,
    stable_cholesky,
)
from support import kernel_eval


def test_kernel_identity_is_signal_variance():
    p = KernelParams(lengthscales=[1.0], signal_variance=1.0)
    assert kernel_eval(p, [0.0], [0.0]) == 1.0


def test_kernel_unit_gap_hand_value():
    p = KernelParams(lengthscales=[1.0], signal_variance=1.0)
    npt.assert_allclose(kernel_eval(p, [0.0], [1.0]), math.exp(-0.5), rtol=0, atol=1e-15)


def test_kernel_per_dimension_scaling():
    # 3 * exp(-0.5 * (4/2 + 16/8)) = 3 * exp(-2)
    p = KernelParams(lengthscales=[2.0, 8.0], signal_variance=3.0)
    got = kernel_eval(p, [1.0, 2.0], [3.0, 6.0])
    npt.assert_allclose(got, 3.0 * math.exp(-2.0), rtol=0, atol=1e-14)


def test_kernel_eval_dimension_mismatch_names_both_lengths():
    p = KernelParams(lengthscales=[1.0, 1.0], signal_variance=1.0)
    with pytest.raises(ShapeError, match="2"):
        kernel_eval(p, [0.0, 0.0], [0.0, 0.0, 0.0])
    with pytest.raises(ShapeError):
        kernel_eval(p, [0.0], [0.0, 0.0])


def test_kernel_matrix_single_row():
    p = KernelParams(lengthscales=[1.0], signal_variance=2.5)
    npt.assert_allclose(kernel_matrix(p, [[0.0]], [[0.0]]), [[2.5]])


def test_kernel_matrix_matches_scalar_oracle():
    """Every matrix entry equals a direct kernel_eval of the row pair."""
    rng = np.random.default_rng(41)
    p = KernelParams(lengthscales=[0.7, 2.0, 5.0], signal_variance=1.3)
    X = rng.normal(size=(3, 3))
    X2 = rng.normal(size=(4, 3))
    K = kernel_matrix(p, X, X2)
    assert K.shape == (3, 4)
    for i in range(3):
        for j in range(4):
            npt.assert_allclose(K[i, j], kernel_eval(p, X[i], X2[j]), rtol=1e-14)


def test_kernel_matrix_symmetry():
    rng = np.random.default_rng(7)
    p = KernelParams(lengthscales=[1.0, 3.0], signal_variance=0.8)
    X = rng.normal(size=(20, 2))
    K = kernel_matrix(p, X, X)
    npt.assert_allclose(K, K.T, rtol=0, atol=1e-12)


def test_kernel_bounds_and_equality_condition():
    rng = np.random.default_rng(11)
    p = KernelParams(lengthscales=[0.5, 4.0], signal_variance=1.7)
    for _ in range(50):
        x, x2 = rng.normal(size=2, scale=3.0), rng.normal(size=2, scale=3.0)
        k = kernel_eval(p, x, x2)
        assert 0.0 < k < p.signal_variance
    assert kernel_eval(p, [1.0, -2.0], [1.0, -2.0]) == p.signal_variance


def test_kernel_matrix_positive_semidefinite():
    rng = np.random.default_rng(3)
    p = KernelParams(lengthscales=[1.2], signal_variance=2.0)
    X = rng.uniform(0, 5, size=(40, 1))
    eigs = np.linalg.eigvalsh(kernel_matrix(p, X, X))
    assert eigs.min() >= -1e-8 * p.signal_variance


def test_doubling_lengthscale_equals_shrinking_gap():
    # k with l_j = 2 on gap d equals k with l_j = 1 on gap d / sqrt(2)
    wide = KernelParams(lengthscales=[2.0], signal_variance=1.0)
    unit = KernelParams(lengthscales=[1.0], signal_variance=1.0)
    for d in (0.1, 0.9, 2.7):
        npt.assert_allclose(
            kernel_eval(wide, [0.0], [d]),
            kernel_eval(unit, [0.0], [d / math.sqrt(2.0)]),
            rtol=1e-13,
        )


def test_stable_cholesky_identity_and_scalar():
    npt.assert_allclose(stable_cholesky(np.eye(3), 0.0), np.eye(3))
    npt.assert_allclose(stable_cholesky(np.array([[4.0]]), 0.0), [[2.0]])


def test_stable_cholesky_near_duplicate_reconstruction():
    """Jittered factorization of an ill-conditioned kernel matrix."""
    rng = np.random.default_rng(5)
    p = KernelParams(lengthscales=[1.0], signal_variance=1.0)
    X = np.repeat(rng.uniform(0, 1, size=(10, 1)), 5, axis=0)
    X = X + rng.normal(scale=1e-9, size=X.shape)
    A = kernel_matrix(p, X, X)
    jitter = 1e-6
    L, used = stable_cholesky(A, jitter, return_jitter=True)
    recon = L @ L.T - A - used * np.eye(50)
    assert np.abs(recon).max() < 1e-8


def test_stable_cholesky_escalates_jitter():
    # singular PSD matrix: fails at 0, must succeed once jitter kicks in
    A = np.ones((4, 4))
    L, used = stable_cholesky(A, 0.0, return_jitter=True)
    assert used > 0
    npt.assert_allclose(L @ L.T, A + used * np.eye(4), atol=1e-10)


def test_stable_cholesky_indefinite_reports_final_jitter():
    A = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
    with pytest.raises(NotPositiveDefiniteError) as info:
        stable_cholesky(A, 0.0)
    # escalation stops at the cap, 1e-2 of the mean diagonal
    npt.assert_allclose(info.value.jitter, 1e-2)


def test_stable_cholesky_rejects_non_finite():
    A = np.eye(2)
    A[0, 1] = np.nan
    with pytest.raises(ValueError):
        stable_cholesky(A, 0.0)


def test_sq_dist_contract_matches_per_dimension_loop():
    rng = np.random.default_rng(3)
    A, B = rng.normal(size=(7, 3)), rng.normal(size=(5, 3))
    P = rng.normal(size=(7, 5))
    loop = [np.sum(P * (A[:, j, None] - B[None, :, j]) ** 2) for j in range(3)]
    npt.assert_allclose(sq_dist_contract(P, A, B), loop, rtol=1e-12, atol=1e-12)
