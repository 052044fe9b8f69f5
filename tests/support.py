"""Shared builders and oracles for the tests.

The collapse construction turns a homoscedastic exact-GPR posterior into
an equivalent chained model: the mean latent carries the exact posterior
at Z = X and the variance latent is pinned to the constant log noise
variance with a vanishing kernel, so the bound should sit just below the
exact log marginal likelihood.

The Gauss-Hermite quadrature of the expected log-likelihood is an
independent cross-check for the closed form used during training, and the
merge walk over quantile breakpoints one for the vectorized W1. The
single-pair kernel and the pipeline applied to fresh data are references
for ``kernel_matrix`` and ``fit_transforms``.
"""

import math

import numpy as np

from hetgp.chained import KZZ_JITTER_REL, ChainedGpModel, LatentSparseGp
from hetgp.data import DataSet, TransformPipeline
from hetgp.errors import ShapeError
from hetgp.kernels import KernelParams, kernel_matrix, stable_cholesky


def collapse_model(X, y, params, noise_variance, mean_const=0.0):
    """Chained model equivalent to an exact GPR posterior on (X, y)."""
    n = X.shape[0]
    K = kernel_matrix(params, X, X)
    Kj = K + KZZ_JITTER_REL * params.signal_variance * np.eye(n)
    Ky = K + noise_variance * np.eye(n)
    sol = np.linalg.solve(Ky, K)
    mu = mean_const + K @ np.linalg.solve(Ky, y - mean_const)
    S = Kj - K @ sol
    S = 0.5 * (S + S.T)
    latent_f = LatentSparseGp(params, mean_const, X.copy(), mu, stable_cholesky(S, 0.0))

    log_noise = math.log(noise_variance)
    params_g = KernelParams(np.ones(X.shape[1]), 1e-12)
    Kg = kernel_matrix(params_g, X, X)
    Kg += KZZ_JITTER_REL * params_g.signal_variance * np.eye(n)
    latent_g = LatentSparseGp(
        params_g, log_noise, X.copy(), np.full(n, log_noise), stable_cholesky(Kg, 0.0)
    )
    return ChainedGpModel(latent_f, latent_g)


def expected_loglik_gh(
    y: float, a_f: float, v_f: float, a_g: float, v_g: float, num_nodes: int = 50
) -> float:
    """Tensor-product Gauss-Hermite estimate of E[log N(y | f, e^g)].

    The double integral over f ~ N(a_f, v_f) and g ~ N(a_g, v_g) is
    evaluated on a grid of ``num_nodes`` Hermite nodes per latent; 50 is
    far past convergence for the moderate variances these models see.
    Slow and honest by design; use
    :func:`hetgp.chained.expected_loglik_gaussian` in hot paths.
    """
    if v_f < 0 or v_g < 0:
        raise ValueError(f"variances must be non-negative, got v_f={v_f}, v_g={v_g}")
    t, w = np.polynomial.hermite.hermgauss(num_nodes)
    f = a_f + math.sqrt(2.0 * v_f) * t  # nodes for f
    g = a_g + math.sqrt(2.0 * v_g) * t  # nodes for g
    # log N(y | f_i, e^{g_j}) over the grid
    ll = (
        -0.5 * math.log(2.0 * math.pi)
        - 0.5 * g[None, :]
        - 0.5 * np.exp(-g)[None, :] * (y - f[:, None]) ** 2
    )
    return float(w @ ll @ w / math.pi)


def merge_quantile_w1(x, y):
    """W1 of two sorted sample vectors by walking the merged breakpoints.

    Segment (pos, nxt] has width nxt - pos in units of 1/(n*k); the
    breakpoints of x sit at multiples of k, those of y at multiples of n.
    """
    n, k = len(x), len(y)
    terms = []
    i = j = pos = 0
    while i < n and j < k:
        nxt = min((i + 1) * k, (j + 1) * n)
        terms.append((nxt - pos) * abs(x[i] - y[j]))
        if nxt == (i + 1) * k:
            i += 1
        if nxt == (j + 1) * n:
            j += 1
        pos = nxt
    return math.fsum(terms) / (n * k)


def kernel_eval(params: KernelParams, x1, x2) -> float:
    """Covariance between two single inputs."""
    a = np.asarray(x1, dtype=float).ravel()
    b = np.asarray(x2, dtype=float).ravel()
    if a.shape[0] != b.shape[0]:
        raise ShapeError(f"inputs have different lengths: {a.shape[0]} vs {b.shape[0]}")
    if a.shape[0] != params.input_dim:
        raise ShapeError(
            f"inputs have length {a.shape[0]} but kernel has {params.input_dim} lengthscales"
        )
    d2 = np.square(a - b) / params.lengthscales
    return float(params.signal_variance * np.exp(-0.5 * d2.sum()))


def apply_transforms(d: DataSet, pipeline: TransformPipeline) -> DataSet:
    """Apply a fitted pipeline to fresh raw data (e.g. held-out rows)."""
    return DataSet(
        pipeline.apply_features(d.features),
        pipeline.apply_target(d.target),
        d.feature_specs,
        d.target_name,
        pipeline,
    )
