import itertools
import math

import numpy as np
import numpy.testing as npt
import pytest

from hetgp.chained import (
    KZZ_JITTER_REL,
    CgpFitConfig,
    ChainedGpModel,
    ElboObjective,
    ElboReport,
    LatentSparseGp,
    cgp_fit,
    cgp_from_dict,
    cgp_predict_moments,
    cgp_predict_samples,
    cgp_to_dict,
    elbo,
    expected_loglik_gaussian,
    gaussian_kl,
    latent_posterior,
    load_cgp,
    save_cgp,
)
from hetgp.data import DataSet, TransformRecord, TransformPipeline, fit_transforms
from hetgp.errors import FormatError, ShapeError
from hetgp.gpr import gpr_nll
from hetgp.kernels import KernelParams, kernel_matrix
from support import collapse_model, expected_loglik_gh

LOG2PI = math.log(2.0 * math.pi)


def _random_latent(rng, num, m, center=0.0, diag_lo=0.3, diag_hi=1.0):
    params = KernelParams(rng.uniform(0.6, 2.0, size=m), rng.uniform(0.5, 1.5))
    Z = rng.uniform(-1.5, 1.5, size=(num, m))
    mu = center + 0.5 * rng.standard_normal(num)
    L = 0.15 * np.tril(rng.standard_normal((num, num)))
    L[np.diag_indices(num)] = rng.uniform(diag_lo, diag_hi, size=num)
    return LatentSparseGp(params, center + 0.3 * rng.standard_normal(), Z, mu, L)


def _random_model(seed, n=25, num=6, m=2, noise_parameterization="variance"):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.5, 1.5, size=(n, m))
    y = np.sin(X[:, 0]) + 0.1 * rng.standard_normal(n)
    model = ChainedGpModel(
        _random_latent(rng, num, m),
        _random_latent(rng, num, m, center=-0.5),
        noise_parameterization=noise_parameterization,
    )
    return model, DataSet(X, y)


# ---- latent posterior ----


def test_latent_posterior_single_inducing_interpolates():
    l = LatentSparseGp(
        KernelParams([1.0], 2.0), 0.5, [[0.7]], [1.3], [[1e-8]]
    )
    a, v = latent_posterior(l, [[0.7]], warn=False)
    assert a[0] == pytest.approx(1.3, abs=1e-5)  # limited by the relative jitter
    assert 0.0 <= v[0] < 1e-4


def test_latent_posterior_reverts_to_prior_far_away():
    rng = np.random.default_rng(3)
    l = _random_latent(rng, 4, 1)
    a, v = latent_posterior(l, [[60.0]])
    assert a[0] == pytest.approx(l.mean_const, abs=1e-12)
    assert v[0] == pytest.approx(l.params.signal_variance, rel=1e-10)


def test_latent_posterior_matches_dense_oracle():
    rng = np.random.default_rng(8)
    l = _random_latent(rng, 3, 2)
    Xs = rng.uniform(-1.5, 1.5, size=(7, 2))
    Kzz = kernel_matrix(l.params, l.Z, l.Z)
    Kzz += KZZ_JITTER_REL * l.params.signal_variance * np.eye(3)
    Kxz = kernel_matrix(l.params, Xs, l.Z)
    A = Kxz @ np.linalg.inv(Kzz)
    S = l.var_chol @ l.var_chol.T
    want_a = l.mean_const + A @ (l.var_mean - l.mean_const)
    want_v = (
        l.params.signal_variance
        - np.einsum("ij,ij->i", A, Kxz)
        + np.einsum("ij,jk,ik->i", A, S, A)
    )
    a, v = latent_posterior(l, Xs)
    npt.assert_allclose(a, want_a, rtol=1e-8)
    npt.assert_allclose(v, want_v, rtol=1e-8)


def test_latent_posterior_dimension_mismatch():
    l = LatentSparseGp(KernelParams([1.0], 1.0), 0.0, [[0.0]], [0.0], [[1.0]])
    with pytest.raises(ShapeError):
        latent_posterior(l, [[0.0, 1.0]])


# ---- KL divergence ----


def test_kl_of_prior_is_zero():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((4, 4))
    K = A @ A.T + 4.0 * np.eye(4)
    mean = rng.standard_normal(4)
    kl = gaussian_kl(mean, np.linalg.cholesky(K), mean, K)
    assert abs(kl) < 1e-10


def test_kl_identity_covariances_closed_form():
    mu = np.array([0.3, -1.2, 2.0])
    kl = gaussian_kl(mu, np.eye(3), np.zeros(3), np.eye(3))
    assert kl == pytest.approx(0.5 * float(mu @ mu), abs=1e-12)


def test_kl_matches_monte_carlo():
    rng = np.random.default_rng(12)
    A = rng.standard_normal((4, 4))
    K = A @ A.T + 4.0 * np.eye(4)
    B = 0.4 * np.tril(rng.standard_normal((4, 4)))
    B[np.diag_indices(4)] = rng.uniform(0.5, 1.2, size=4)
    q_mean = rng.standard_normal(4)
    p_mean = rng.standard_normal(4)
    kl = gaussian_kl(q_mean, B, p_mean, K)

    from scipy.stats import multivariate_normal

    draws = q_mean + rng.standard_normal((1_000_000, 4)) @ B.T
    log_q = multivariate_normal(q_mean, B @ B.T).logpdf(draws)
    log_p = multivariate_normal(p_mean, K).logpdf(draws)
    diffs = log_q - log_p
    se = diffs.std(ddof=1) / math.sqrt(diffs.size)
    assert kl == pytest.approx(diffs.mean(), abs=3 * se)


def test_kl_shape_mismatch():
    with pytest.raises(ShapeError):
        gaussian_kl(np.zeros(3), np.eye(2), np.zeros(3), np.eye(3))


# ---- expected log-likelihood ----


def test_expected_loglik_point_mass_values():
    got = expected_loglik_gaussian(0.0, 0.0, 0.0, 0.0, 0.0)
    assert got == pytest.approx(-0.5 * LOG2PI, abs=1e-12)  # -0.918939
    got = expected_loglik_gaussian(1.0, 0.0, 0.0, 0.0, 0.0)
    assert got == pytest.approx(-0.5 - 0.5 * LOG2PI, abs=1e-12)  # -1.418939


def test_expected_loglik_matches_quadrature():
    rng = np.random.default_rng(21)
    for _ in range(25):
        y = rng.normal()
        a_f, v_f = rng.normal(), rng.uniform(0.0, 1.5)
        a_g, v_g = rng.uniform(-2.0, 1.0), rng.uniform(0.0, 1.0)
        closed = expected_loglik_gaussian(y, a_f, v_f, a_g, v_g)
        quad = expected_loglik_gh(y, a_f, v_f, a_g, v_g, num_nodes=50)
        assert closed == pytest.approx(quad, abs=1e-8)


def test_expected_loglik_rejects_bad_inputs():
    with pytest.raises(ValueError):
        expected_loglik_gaussian(0.0, 0.0, -1e-9, 0.0, 0.0)
    with pytest.raises(ValueError):
        expected_loglik_gaussian(np.nan, 0.0, 0.0, 0.0, 0.0)


# ---- ELBO ----


def test_elbo_report_terms_add_up():
    model, d = _random_model(0)
    rep = elbo(model, d)
    resid = rep.elbo - (rep.expected_loglik_sum - rep.kl_f - rep.kl_g)
    assert abs(resid) < 1e-9 * max(1.0, abs(rep.elbo))
    assert rep.kl_f >= 0.0 and rep.kl_g >= 0.0


def test_elbo_report_rejects_inconsistent_terms():
    with pytest.raises(ValueError):
        ElboReport(0.0, 10.0, 1.0, 2.0)


def test_elbo_collapse_sits_just_below_exact_marginal():
    rng = np.random.default_rng(17)
    X = np.sort(rng.uniform(0.0, 3.0, size=40))[:, None]
    y = np.sin(2.0 * X[:, 0]) + 0.2 * rng.standard_normal(40)
    params = KernelParams([0.7], 1.2)
    noise = 0.05
    model = collapse_model(X, y, params, noise)
    bound = elbo(model, DataSet(X, y)).elbo
    log_ml = -gpr_nll(params, noise, 0.0, X, y)
    assert bound <= log_ml + 1e-9
    assert log_ml - bound < 1e-3


def test_elbo_collapse_bound_holds_for_random_settings():
    rng = np.random.default_rng(29)
    X = np.sort(rng.uniform(0.0, 3.0, size=30))[:, None]
    y = np.sin(2.0 * X[:, 0]) + 0.2 * rng.standard_normal(30)
    params = KernelParams([0.7], 1.2)
    noise = 0.05
    base = collapse_model(X, y, params, noise)
    log_ml = -gpr_nll(params, noise, 0.0, X, y)
    d = DataSet(X, y)
    for _ in range(20):
        mu = rng.standard_normal(30)
        L = 0.1 * np.tril(rng.standard_normal((30, 30)))
        L[np.diag_indices(30)] = rng.uniform(0.1, 0.8, size=30)
        perturbed = ChainedGpModel(
            LatentSparseGp(params, 0.0, X.copy(), mu, L), base.latent_g
        )
        assert elbo(perturbed, d).elbo <= log_ml + 1e-9


def test_elbo_empty_minibatch_rejected():
    model, d = _random_model(1)
    with pytest.raises(ShapeError):
        elbo(model, d, minibatch=[])


def test_elbo_single_point_minibatches_average_to_full_data_term():
    model, d = _random_model(2, n=12)
    full = elbo(model, d)
    parts = [elbo(model, d, minibatch=[i]).expected_loglik_sum for i in range(12)]
    mean_part = math.fsum(parts) / 12.0
    assert mean_part == pytest.approx(full.expected_loglik_sum, rel=1e-12)


def test_elbo_invariant_under_row_permutation():
    model, d = _random_model(4, n=60)
    perm = np.random.default_rng(0).permutation(60)
    shuffled = DataSet(d.features[perm], d.target[perm])
    assert abs(elbo(model, d).elbo - elbo(model, shuffled).elbo) < 1e-10


def test_elbo_dimension_mismatch():
    model, _ = _random_model(5, m=2)
    with pytest.raises(ShapeError):
        elbo(model, DataSet(np.zeros((4, 3)), np.zeros(4)))


def test_elbo_stddev_reading_matches_doubled_variance_reading():
    model, d = _random_model(6, noise_parameterization="stddev")
    g = model.latent_g
    doubled = LatentSparseGp(
        KernelParams(g.params.lengthscales, 4.0 * g.params.signal_variance),
        2.0 * g.mean_const,
        g.Z,
        2.0 * g.var_mean,
        2.0 * g.var_chol,
    )
    as_variance = ChainedGpModel(model.latent_f, doubled)
    a = elbo(model, d)
    b = elbo(as_variance, d)
    assert a.expected_loglik_sum == pytest.approx(b.expected_loglik_sum, rel=1e-10)


# ---- flattened objective ----


def test_objective_value_matches_public_elbo():
    model, d = _random_model(7)
    obj = ElboObjective(model, d)
    rep, _ = obj.value_and_grad(obj.pack(model))
    pub = elbo(model, d)
    assert rep.elbo == pytest.approx(pub.elbo, rel=1e-10)
    assert rep.kl_f == pytest.approx(pub.kl_f, rel=1e-8, abs=1e-10)
    assert rep.kl_g == pytest.approx(pub.kl_g, rel=1e-8, abs=1e-10)


@pytest.mark.parametrize("noise_parameterization", ("variance", "stddev"))
def test_objective_minibatch_matches_public_elbo(noise_parameterization):
    # the minibatch bound ``train --minibatch`` climbs, against the oracle
    model, d = _random_model(8, noise_parameterization=noise_parameterization)
    obj = ElboObjective(model, d)
    theta = obj.pack(model)
    theta += 0.05 * np.random.default_rng(8).standard_normal(theta.size)
    batch = np.array([3, 0, 17, 9, 21, 4, 9])
    rep, _ = obj.value_and_grad(theta, batch)
    pub = elbo(obj.unpack(theta), d, minibatch=batch)
    npt.assert_allclose(
        [rep.elbo, rep.expected_loglik_sum, rep.kl_f, rep.kl_g],
        [pub.elbo, pub.expected_loglik_sum, pub.kl_f, pub.kl_g],
        rtol=1e-9,
    )


def test_objective_pack_unpack_round_trip():
    model, d = _random_model(9)
    obj = ElboObjective(model, d)
    back = obj.unpack(obj.pack(model))
    npt.assert_allclose(back.latent_f.var_mean, model.latent_f.var_mean, atol=1e-12)
    npt.assert_allclose(back.latent_f.var_chol, model.latent_f.var_chol, atol=1e-12)
    npt.assert_allclose(back.latent_g.var_mean, model.latent_g.var_mean, atol=1e-12)
    npt.assert_allclose(back.latent_g.Z, model.latent_g.Z, atol=0)


@pytest.mark.parametrize(
    "m,noise_parameterization,learn_Z",
    list(itertools.product((1, 3), ("variance", "stddev"), (False, True))),
)
def test_objective_gradients_match_finite_differences(m, noise_parameterization, learn_Z):
    rng = np.random.default_rng(100 + 10 * m + learn_Z)
    n, num = 20, 5
    X = rng.uniform(-1.5, 1.5, size=(n, m))
    y = np.sin(X[:, 0]) + 0.1 * rng.standard_normal(n)
    Z = np.linspace(-1.5, 1.5, num)[:, None] * np.ones((1, m))
    Z += rng.uniform(-0.2, 0.2, size=Z.shape)

    def latent(center):
        params = KernelParams(rng.uniform(0.6, 2.0, size=m), rng.uniform(0.5, 1.5))
        mu = center + 0.5 * rng.standard_normal(num)
        L = 0.15 * np.tril(rng.standard_normal((num, num)))
        L[np.diag_indices(num)] = rng.uniform(0.3, 1.0, size=num)
        return LatentSparseGp(
            params, center + 0.3 * rng.standard_normal(), Z.copy(), mu, L
        )

    model = ChainedGpModel(
        latent(0.0), latent(-0.5), noise_parameterization=noise_parameterization
    )
    obj = ElboObjective(model, DataSet(X, y), learn_Z=learn_Z)
    theta = obj.pack(model)
    _, grad = obj.value_and_grad(theta)
    h = 1e-6
    for k in range(obj.size):
        tp = theta.copy(); tp[k] += h
        tm = theta.copy(); tm[k] -= h
        fd = (obj.value_and_grad(tp)[0].elbo - obj.value_and_grad(tm)[0].elbo) / (2 * h)
        rel = abs(fd - grad[k]) / max(abs(fd), abs(grad[k]), 1e-3)
        assert rel < 1e-4, f"component {k}: analytic {grad[k]}, fd {fd}"


# ---- fitting ----


def _toy_fit_data(seed=4, n=80):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 3.0, size=(n, 1))
    y = np.sin(2.0 * X[:, 0]) + 0.2 * rng.standard_normal(n)
    return fit_transforms(DataSet(X, y))


def test_cgp_fit_final_not_worse_than_initial():
    d, _ = _toy_fit_data()
    model, trace = cgp_fit(d, CgpFitConfig(num_inducing=15, max_iters=60, seed=0))
    assert len(trace) >= 2
    assert elbo(model, d).elbo >= trace[0].elbo - 1e-9
    assert trace[-1].elbo > trace[0].elbo


def test_cgp_fit_guarded_trace_is_monotone():
    rng = np.random.default_rng(11)
    X = np.linspace(0.0, 3.0, 30)[:, None]
    y = np.sin(2.0 * X[:, 0]) + 0.2 * rng.standard_normal(30)
    d, _ = fit_transforms(DataSet(X, y))
    model, trace = cgp_fit(
        d, CgpFitConfig(num_inducing=30, max_iters=150, seed=0, monotone=True)
    )
    e = np.array([r.elbo for r in trace])
    assert len(e) > 10
    assert np.all(np.diff(e) >= -1e-9)
    npt.assert_allclose(model.latent_f.Z, d.features, atol=0)  # I = n keeps Z = X


def test_cgp_fit_constant_noise_gives_near_constant_variance():
    rng = np.random.default_rng(4)
    X = rng.uniform(0.0, 3.0, size=(400, 1))
    y = np.sin(2.0 * X[:, 0]) + 0.2 * rng.standard_normal(400)
    d, pipe = fit_transforms(DataSet(X, y))
    model, _ = cgp_fit(d, CgpFitConfig(num_inducing=20, max_iters=300, seed=0))
    grid = pipe.apply_features(np.linspace(0.0, 3.0, 50)[:, None])
    a_g, _ = latent_posterior(model.latent_g, grid)
    assert float(np.exp(a_g.max() - a_g.min())) < 1.5


def test_cgp_fit_rejects_bad_inducing_counts():
    d, _ = _toy_fit_data(n=20)
    with pytest.raises(ValueError, match="exceeds"):
        cgp_fit(d, CgpFitConfig(num_inducing=21, max_iters=5))
    with pytest.raises(ValueError, match=">= 1"):
        cgp_fit(d, CgpFitConfig(num_inducing=0, max_iters=5))


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_cgp_fit_non_finite_initial_elbo():
    X = np.linspace(0.0, 1.0, 8)[:, None]
    y = np.full(8, 1e200)
    y[0] = -1e200
    with pytest.raises(ValueError, match="non-finite"):
        cgp_fit(DataSet(X, y), CgpFitConfig(num_inducing=4, max_iters=5))


def test_cgp_fit_minibatch_never_worse_than_initial():
    d, _ = _toy_fit_data(n=60)
    config = CgpFitConfig(num_inducing=10, max_iters=80, seed=1, minibatch_size=8)
    model, trace = cgp_fit(d, config)
    assert len(trace) >= 2
    first = trace[0].elbo  # initial report is always full batch
    assert elbo(model, d).elbo >= first - 1e-9


def test_cgp_fit_learn_z_moves_inducing_points():
    d, _ = _toy_fit_data(n=50)
    fixed, _ = cgp_fit(d, CgpFitConfig(num_inducing=8, max_iters=40, seed=0))
    learned, _ = cgp_fit(
        d, CgpFitConfig(num_inducing=8, max_iters=40, seed=0, learn_Z=True)
    )
    assert np.abs(learned.latent_f.Z - fixed.latent_f.Z).max() > 1e-6


# ---- prediction ----


def test_predict_moments_compose_latent_marginals():
    model, _ = _random_model(13)
    Xs = np.random.default_rng(13).uniform(-1.0, 1.0, size=(9, 2))
    a_f, v_f = latent_posterior(model.latent_f, Xs)
    a_g, v_g = latent_posterior(model.latent_g, Xs)
    mean, var = cgp_predict_moments(model, Xs)
    npt.assert_allclose(mean, a_f, rtol=1e-12)
    npt.assert_allclose(var, v_f + np.exp(a_g + 0.5 * v_g), rtol=1e-12)
    assert np.all(var >= v_f)


def test_predict_moments_tight_latents_reduce_to_plugin_noise():
    l_f = LatentSparseGp(KernelParams([1.0], 1.0), 0.0, [[0.2]], [0.9], [[1e-8]])
    l_g = LatentSparseGp(KernelParams([1.0], 1.0), -1.0, [[0.2]], [-2.0], [[1e-8]])
    model = ChainedGpModel(l_f, l_g)
    mean, var = cgp_predict_moments(model, [[0.2]])
    assert mean[0] == pytest.approx(0.9, abs=1e-5)
    assert var[0] == pytest.approx(math.exp(-2.0), rel=1e-4)


def test_predict_samples_deterministic_for_fixed_seed():
    model, _ = _random_model(14)
    a = cgp_predict_samples(model, [0.3, -0.2], 64, seed=42)
    b = cgp_predict_samples(model, [0.3, -0.2], 64, seed=42)
    c = cgp_predict_samples(model, [0.3, -0.2], 64, seed=43)
    npt.assert_array_equal(a, b)
    assert np.any(a != c)


def test_predict_samples_match_analytic_moments():
    model, _ = _random_model(15)
    x = [0.1, 0.4]
    mean, var = cgp_predict_moments(model, [x])
    draws = cgp_predict_samples(model, x, 100_000, seed=7)
    assert draws.mean() == pytest.approx(mean[0], abs=4 * math.sqrt(var[0] / 1e5))
    assert draws.var() == pytest.approx(var[0], rel=0.05)


def test_predict_samples_positive_for_log_target():
    model, _ = _random_model(16)
    pipeline = TransformPipeline(
        (TransformRecord("standardize", 0.0, 1.0),) * 2,
        TransformRecord("log-then-standardize", 1.0, 0.5),
    )
    logged = ChainedGpModel(
        model.latent_f, model.latent_g, transforms=pipeline
    )
    draws = cgp_predict_samples(logged, [0.0, 0.0], 5000, seed=3)
    assert np.all(draws > 0.0)


def test_predict_samples_count_validation():
    model, _ = _random_model(18)
    with pytest.raises(ValueError):
        cgp_predict_samples(model, [0.0, 0.0], 0, seed=1)


# ---- serialization ----


def test_serialization_round_trip_preserves_predictions(tmp_path):
    d, pipe = _toy_fit_data(n=40)
    model, _ = cgp_fit(d, CgpFitConfig(num_inducing=10, max_iters=40, seed=2))
    assert model.transforms is pipe  # fitted models remember their scaling
    path = tmp_path / "model.json"
    save_cgp(model, path)
    back = load_cgp(path)
    grid = pipe.apply_features(np.linspace(0.0, 3.0, 20)[:, None])
    m0, v0 = cgp_predict_moments(model, grid)
    m1, v1 = cgp_predict_moments(back, grid)
    npt.assert_allclose(m1, m0, atol=1e-12)
    npt.assert_allclose(v1, v0, atol=1e-12)
    npt.assert_array_equal(
        cgp_predict_samples(back, [1.5], 32, seed=5),
        cgp_predict_samples(model, [1.5], 32, seed=5),
    )


def test_serialization_rejects_wrong_kind():
    model, _ = _random_model(19)
    doc = cgp_to_dict(model)
    doc["kind"] = "gpr"
    with pytest.raises(FormatError, match="kind"):
        cgp_from_dict(doc)
