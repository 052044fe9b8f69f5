import math

import numpy as np
import numpy.testing as npt
import pytest

import hetgp.gpr
from hetgp.data import DataSet, FeatureSpec, sobol_design
from hetgp.errors import FormatError, ShapeError
from hetgp.gpr import (
    COARSE_FIT_SIZE,
    INIT_NOISE,
    ExactGprModel,
    GprFitConfig,
    gpr_fit,
    gpr_from_dict,
    gpr_nll,
    gpr_predict,
    gpr_to_dict,
    load_gpr,
    nll_and_grad,
    save_gpr,
)
from hetgp.kernels import KernelParams, kernel_matrix, stable_cholesky

LOG2PI = math.log(2.0 * math.pi)


def _dense_nll(params, noise, const, X, y):
    """Naive oracle: explicit inverse and determinant."""
    K = kernel_matrix(params, X, X) + noise * np.eye(len(y))
    r = y - const
    sign, logdet = np.linalg.slogdet(K)
    assert sign > 0
    return 0.5 * r @ np.linalg.inv(K) @ r + 0.5 * logdet + 0.5 * len(y) * LOG2PI


def _dense_predict(params, noise, const, X, y, Xs):
    K = kernel_matrix(params, X, X) + noise * np.eye(len(y))
    Ks = kernel_matrix(params, Xs, X)
    Kinv = np.linalg.inv(K)
    mean = const + Ks @ Kinv @ (y - const)
    var = params.signal_variance - np.einsum("ij,jk,ik->i", Ks, Kinv, Ks)
    return mean, var


def _random_problem(seed, n=20, m=2):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2, 2, size=(n, m))
    y = np.sin(X.sum(axis=1)) + 0.3 * rng.standard_normal(n)
    return X, y


def test_nll_single_point_zero_residual():
    p = KernelParams([1.0], 1.0)
    got = gpr_nll(p, 0.0, 0.0, np.zeros((1, 1)), np.zeros(1))
    assert got == pytest.approx(0.5 * LOG2PI, abs=1e-12)  # 0.918939


def test_nll_single_point_unit_residual():
    p = KernelParams([1.0], 1.0)
    got = gpr_nll(p, 0.0, 0.0, np.zeros((1, 1)), np.ones(1))
    assert got == pytest.approx(0.5 + 0.5 * LOG2PI, abs=1e-12)  # 1.418939


def test_nll_matches_dense_oracle():
    X, y = _random_problem(5, n=5)
    p = KernelParams([0.7, 1.3], 1.4)
    want = _dense_nll(p, 0.2, 0.1, X, y)
    npt.assert_allclose(gpr_nll(p, 0.2, 0.1, X, y), want, rtol=1e-8)


def test_nll_permutation_invariant():
    X, y = _random_problem(9, n=25)
    p = KernelParams([1.0, 1.0], 1.0)
    base = gpr_nll(p, 0.1, 0.0, X, y)
    perm = np.random.default_rng(0).permutation(25)
    npt.assert_allclose(gpr_nll(p, 0.1, 0.0, X[perm], y[perm]), base, atol=1e-10)


def test_nll_gradient_matches_finite_differences():
    h = 1e-5
    for seed in range(5):
        X, y = _random_problem(seed)
        rng = np.random.default_rng(100 + seed)
        # packed layout: log lengthscales (m), log signal, log noise, const
        theta = np.concatenate([rng.uniform(-1, 1, size=4), rng.normal(size=1)])
        _, grad = nll_and_grad(theta, X, y)
        for j in range(theta.size):
            e = np.zeros_like(theta)
            e[j] = h
            fp, _ = nll_and_grad(theta + e, X, y)
            fm, _ = nll_and_grad(theta - e, X, y)
            fd = (fp - fm) / (2 * h)
            rel = abs(grad[j] - fd) / max(abs(grad[j]), abs(fd), 1e-3)
            assert rel < 1e-4, f"seed {seed} component {j}: {grad[j]} vs {fd}"


def test_fit_recovers_known_noise_level():
    """Data from the model itself: log sigma back within 0.35."""
    rng = np.random.default_rng(1)
    X = sobol_design([FeatureSpec("x", 0.0, 3.0)], 200, skip=1)
    truth = KernelParams([0.5], 1.0)
    L = stable_cholesky(kernel_matrix(truth, X, X), 1e-10)
    y = L @ rng.standard_normal(200) + 0.1 * rng.standard_normal(200)
    m = gpr_fit(DataSet(X, y))
    d_log_sigma = 0.5 * abs(math.log(m.noise_variance) - math.log(0.01))
    assert d_log_sigma < 0.35


def test_fit_constant_targets():
    X = np.linspace(0, 1, 20)[:, None]
    m = gpr_fit(DataSet(X, np.full(20, 4.2)))
    assert m.mean_const == pytest.approx(4.2, abs=1e-3)
    nll = gpr_nll(m.params, m.noise_variance, m.mean_const, m.train_X, m.train_y)
    assert math.isfinite(nll)
    assert m.noise_variance < 1e-4


def test_fit_never_worse_than_default_start():
    X, y = _random_problem(11, n=40)
    d = DataSet(X, y)
    m = gpr_fit(d, GprFitConfig(restarts=2, seed=3))
    start = gpr_nll(KernelParams([1.0, 1.0], 1.0), 0.1, 0.0, X, y)
    final = gpr_nll(m.params, m.noise_variance, m.mean_const, X, y)
    assert final <= start + 1e-9


def _recorded_fit(monkeypatch, n, opt):
    """Fit on an n x 2 problem; return the model, the problem and the
    (rows, theta) of every objective call."""
    X, y = _random_problem(21, n=n)
    calls = []
    real = hetgp.gpr.nll_and_grad

    def spy(theta, Xs, ys):
        calls.append((len(ys), tuple(theta)))
        return real(theta, Xs, ys)

    monkeypatch.setattr(hetgp.gpr, "nll_and_grad", spy)
    return gpr_fit(DataSet(X, y), opt), X, y, calls


@pytest.mark.parametrize("n, restarts", [(COARSE_FIT_SIZE, 1), (320, 0)])
def test_fit_without_a_subset_sees_all_rows(monkeypatch, n, restarts):
    _, _, _, calls = _recorded_fit(monkeypatch, n, GprFitConfig(restarts=restarts, seed=4))
    assert calls and {rows for rows, _ in calls} == {n}


def test_fit_screens_restarts_on_the_subset(monkeypatch):
    """n=320: the default start on all rows, the jittered ones on the
    COARSE_FIT_SIZE subset, and only the subset winner again on all rows."""
    n, opt = 320, GprFitConfig(restarts=2, seed=5)
    model, X, y, calls = _recorded_fit(monkeypatch, n, opt)
    rows = [r for r, _ in calls]
    first, last = rows.index(COARSE_FIT_SIZE), len(rows) - 1 - rows[::-1].index(COARSE_FIT_SIZE)
    assert set(rows[:first]) == {n} and first >= 2  # the NLL check and the default screen
    assert set(rows[first:last + 1]) == {COARSE_FIT_SIZE}
    assert set(rows[last + 1:]) == {n}

    base = (0.0, 0.0, 0.0, math.log(INIT_NOISE), 0.0)
    rng = np.random.default_rng(opt.seed)
    jittered = [tuple(np.asarray(base) + np.append(rng.uniform(-1, 1, 4), 0.0))
                for _ in range(opt.restarts)]
    assert calls[0] == (n, base)
    subset_thetas = {t for r, t in calls if r == COARSE_FIT_SIZE}
    full_thetas = {t for r, t in calls if r == n}
    assert set(jittered) <= subset_thetas
    again = full_thetas & subset_thetas
    assert len(again) == 1 and again <= set(jittered)
    assert calls[last + 1][1] in again

    start = gpr_nll(KernelParams([1.0, 1.0], 1.0), INIT_NOISE, 0.0, X, y)
    final = gpr_nll(model.params, model.noise_variance, model.mean_const, X, y)
    assert final <= start
    twin = gpr_fit(DataSet(X, y), opt)
    assert gpr_to_dict(twin) == gpr_to_dict(model)


def test_fit_rejects_non_finite_start():
    X = np.linspace(0, 1, 5)[:, None]
    y = np.array([1e200, -1e200, 1e200, -1e200, 1e200])
    with pytest.raises(ValueError):
        gpr_fit(DataSet(X, y))


def test_fit_needs_two_points():
    with pytest.raises(ShapeError):
        gpr_fit(DataSet(np.zeros((1, 1)), np.zeros(1)))


def test_predict_interpolates_training_points():
    X = np.array([[0.0], [0.8], [1.5], [2.2], [3.0]])
    y = np.sin(X[:, 0])
    m = ExactGprModel.assemble(X, y, KernelParams([1.0], 1.0), 1e-10, 0.0)
    mean, var = gpr_predict(m, X)
    npt.assert_allclose(mean, y, atol=1e-4)
    assert var.max() < 1e-6


def test_predict_reverts_to_prior_far_away():
    X = np.array([[0.0], [1.0], [2.0]])
    m = ExactGprModel.assemble(X, np.array([3.0, 4.0, 5.0]),
                               KernelParams([1.0], 1.7), 0.25, 1.5)
    mean, var = gpr_predict(m, np.array([[100.0]]))
    assert mean[0] == pytest.approx(1.5, abs=1e-10)
    assert var[0] == pytest.approx(1.7, abs=1e-10)
    _, var_n = gpr_predict(m, np.array([[100.0]]), include_noise=True)
    assert var_n[0] == pytest.approx(1.7 + 0.25, abs=1e-10)


def test_predict_matches_dense_oracle():
    X, y = _random_problem(13, n=5, m=1)
    p = KernelParams([0.9], 1.2)
    m = ExactGprModel.assemble(X, y, p, 0.3, 0.2)
    Xs = np.linspace(-2, 2, 7)[:, None]
    mean, var = gpr_predict(m, Xs)
    want_mean, want_var = _dense_predict(p, 0.3, 0.2, X, y, Xs)
    npt.assert_allclose(mean, want_mean, rtol=1e-8)
    npt.assert_allclose(var, want_var, rtol=1e-8, atol=1e-10)


def test_predict_dimension_mismatch():
    X, y = _random_problem(15, n=10, m=2)
    m = ExactGprModel.assemble(X, y, KernelParams([1.0, 1.0], 1.0), 0.1, 0.0)
    with pytest.raises(ShapeError):
        gpr_predict(m, np.zeros((3, 1)))


def test_mean_shift_equivariance():
    X, y = _random_problem(17, n=15)
    p = KernelParams([1.0, 1.0], 1.0)
    Xs = np.zeros((1, 2))
    base, _ = gpr_predict(ExactGprModel.assemble(X, y, p, 0.1, 0.4), Xs)
    shifted, _ = gpr_predict(ExactGprModel.assemble(X, y + 7.0, p, 0.1, 7.4), Xs)
    npt.assert_allclose(shifted, base + 7.0, atol=1e-9)


def test_extra_observation_cannot_raise_variance():
    p = KernelParams([1.0], 1.0)
    for seed in range(5):
        rng = np.random.default_rng(40 + seed)
        X = rng.uniform(0, 4, size=(12, 1))
        y = rng.standard_normal(12)
        xs = rng.uniform(0, 4, size=(1, 1))
        m_small = ExactGprModel.assemble(X, y, p, 0.1, 0.0)
        _, v_small = gpr_predict(m_small, xs)
        X2 = np.vstack([X, xs])
        y2 = np.append(y, 0.0)
        m_big = ExactGprModel.assemble(X2, y2, p, 0.1, 0.0)
        _, v_big = gpr_predict(m_big, xs)
        assert v_big[0] <= v_small[0] + 1e-10


def test_serialization_round_trip(tmp_path):
    X, y = _random_problem(19, n=30)
    m = gpr_fit(DataSet(X, y), GprFitConfig(restarts=1, max_iters=60))
    path = tmp_path / "model.json"
    save_gpr(m, path)
    back = load_gpr(path)
    Xs = np.random.default_rng(2).uniform(-2, 2, size=(9, 2))
    mean_a, var_a = gpr_predict(m, Xs)
    mean_b, var_b = gpr_predict(back, Xs)
    npt.assert_allclose(mean_b, mean_a, rtol=0, atol=1e-12)
    npt.assert_allclose(var_b, var_a, rtol=0, atol=1e-12)


def test_deserialization_rejects_wrong_kind():
    X, y = _random_problem(25, n=5)
    doc = gpr_to_dict(ExactGprModel.assemble(X, y, KernelParams([1.0, 1.0], 1.0), 0.1, 0.0))
    doc["kind"] = "other"
    with pytest.raises(FormatError):
        gpr_from_dict(doc)
