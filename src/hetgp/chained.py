"""Sparse variational heteroscedastic GP regression.

Two latent GPs are chained through the likelihood: f models the mean and
g the log of the noise variance, y ~ N(f(x), exp(g(x))). Each latent
carries its own kernel, constant mean, inducing inputs Z, and a Gaussian
variational posterior q(u) = N(var_mean, var_chol var_chol^T) over the
inducing values. The expected log-likelihood under q(f) q(g) is available
in closed form for the Gaussian likelihood, so the ELBO

    sum_n E_q[log N(y_n | f_n, e^{g_n})] - KL_f - KL_g

is deterministic and is maximized with analytic gradients.

A ``noise_parameterization`` of "stddev" reinterprets g as the log of the
noise standard deviation instead; internally that is the same bound with
(a_g, v_g) replaced by (2 a_g, 4 v_g).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import solve_triangular

from ._io import FORMAT_VERSION, check_version, dump_json, member, read_json
from .data import DataSet, TransformPipeline
from .errors import FormatError, NotPositiveDefiniteError, ShapeError
from .gpr import GprFitConfig, gpr_fit, gpr_predict
from .kernels import KernelParams, kernel_matrix, sq_dist_contract, stable_cholesky
from .optim import Adam

LOG2PI = float(np.log(2.0 * np.pi))

# relative diagonal boost on K_ZZ; scales with the signal variance so that
# d(K_ZZ + jitter)/d log sv is exactly the boosted matrix
KZZ_JITTER_REL = 1e-6

# variational covariances start at (INIT_CHOL_SCALE^2) * K_ZZ
INIT_CHOL_SCALE = 0.1

NOISE_PARAMETERIZATIONS = ("variance", "stddev")

# subsample cap for the coarse exact fit that seeds f and the noise level
COARSE_FIT_SIZE = 300
# relative ELBO improvement that resets the early-stop counter
FTOL_REL = 1e-6
# iterations without such an improvement before stopping
PATIENCE = 100


# =========================
# Model containers
# =========================

@dataclass(frozen=True)
class LatentSparseGp:
    """One latent GP: kernel, constant mean, and inducing-point posterior."""

    params: KernelParams
    mean_const: float
    Z: np.ndarray
    var_mean: np.ndarray
    var_chol: np.ndarray

    def __post_init__(self):
        Z = np.atleast_2d(np.asarray(self.Z, dtype=float))
        mu = np.asarray(self.var_mean, dtype=float).ravel()
        L = np.asarray(self.var_chol, dtype=float)
        num = Z.shape[0]
        if num < 1:
            raise ShapeError("need at least one inducing point")
        if Z.shape[1] != self.params.input_dim:
            raise ShapeError(
                f"inducing inputs have {Z.shape[1]} columns, kernel expects "
                f"{self.params.input_dim}"
            )
        if mu.shape != (num,):
            raise ShapeError(f"var_mean has shape {mu.shape}, expected ({num},)")
        if L.shape != (num, num):
            raise ShapeError(f"var_chol has shape {L.shape}, expected ({num}, {num})")
        if np.any(np.triu(L, 1) != 0.0):
            raise ShapeError("var_chol must be lower triangular")
        if np.any(np.diagonal(L) <= 0.0):
            raise ValueError("var_chol must have a strictly positive diagonal")
        for name, arr in (("Z", Z), ("var_mean", mu), ("var_chol", L)):
            a = arr.copy()
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        object.__setattr__(self, "mean_const", float(self.mean_const))

    @property
    def num_inducing(self) -> int:
        return self.Z.shape[0]

    @property
    def input_dim(self) -> int:
        return self.Z.shape[1]

    @cached_property
    def whitened(self):
        """``(C, eta, Lam)``: C = chol(jittered K_ZZ), eta = C^{-1}
        (var_mean - mean_const), Lam = C^{-1} var_chol.

        Computed once from the stored fields and shared by every query, so
        a model and its saved-and-loaded copy hold the same bits.
        """
        _, C = _kzz_chol(self.params, self.Z)
        eta = solve_triangular(C, self.var_mean - self.mean_const,
                               lower=True, check_finite=False)
        Lam = np.tril(solve_triangular(C, self.var_chol, lower=True, check_finite=False))
        for a in (C, eta, Lam):
            a.setflags(write=False)
        return C, eta, Lam


@dataclass(frozen=True)
class ChainedGpModel:
    latent_f: LatentSparseGp
    latent_g: LatentSparseGp
    transforms: TransformPipeline | None = None
    feature_names: tuple[str, ...] | None = None
    target_name: str = "y"
    noise_parameterization: str = "variance"

    def __post_init__(self):
        if self.latent_f.input_dim != self.latent_g.input_dim:
            raise ShapeError(
                f"latent input dims differ: f has {self.latent_f.input_dim}, "
                f"g has {self.latent_g.input_dim}"
            )
        if self.noise_parameterization not in NOISE_PARAMETERIZATIONS:
            raise ValueError(
                f"noise_parameterization must be one of "
                f"{NOISE_PARAMETERIZATIONS}, got {self.noise_parameterization!r}"
            )
        if self.feature_names is None:
            names = tuple(f"x{j}" for j in range(self.latent_f.input_dim))
            object.__setattr__(self, "feature_names", names)
        else:
            object.__setattr__(self, "feature_names", tuple(self.feature_names))

    @property
    def input_dim(self) -> int:
        return self.latent_f.input_dim

    def scale_features(self, X_raw):
        """Map physical-unit queries into the model's scaled input space."""
        if self.transforms is None:
            return np.atleast_2d(np.asarray(X_raw, dtype=float))
        return self.transforms.apply_features(X_raw)


@dataclass(frozen=True)
class ElboReport:
    elbo: float
    expected_loglik_sum: float
    kl_f: float
    kl_g: float

    def __post_init__(self):
        if self.kl_f < 0 or self.kl_g < 0:
            raise ValueError(f"negative KL in report: {self.kl_f}, {self.kl_g}")
        resid = abs(self.elbo - (self.expected_loglik_sum - self.kl_f - self.kl_g))
        scale = max(1.0, abs(self.elbo))
        if np.isfinite(self.elbo) and resid > 1e-6 * scale:
            raise ValueError("report terms do not add up")

    def to_dict(self) -> dict:
        return {
            "elbo": self.elbo,
            "expected_loglik_sum": self.expected_loglik_sum,
            "kl_f": self.kl_f,
            "kl_g": self.kl_g,
        }


# =========================
# Core operations
# =========================

def _kzz_chol(params: KernelParams, Z: np.ndarray):
    """Jittered K_ZZ and its Cholesky factor."""
    Kzz = kernel_matrix(params, Z)
    Kzz[np.diag_indices_from(Kzz)] += KZZ_JITTER_REL * params.signal_variance
    return Kzz, stable_cholesky(Kzz, 0.0)


def _marginals(params, const, C, eta, Lam, Z, X):
    """Posterior marginals of one latent at X from its whitened state.

    With At = C^{-1} K_ZX, one column per point:
    mean = const + At^T eta, and
    var = k(x,x) - colsum(At^2) + colsum((Lam^T At)^2), unclamped.
    Returns ``(Kxz, At, B, a, v_raw)`` with B = Lam^T At, the
    intermediates the ELBO gradient reuses.
    """
    Kxz = kernel_matrix(params, X, Z)
    At = solve_triangular(C, Kxz.T, lower=True, check_finite=False)
    a = const + At.T @ eta
    B = Lam.T @ At
    v_raw = (params.signal_variance - np.einsum("ij,ij->j", At, At)
             + np.einsum("ij,ij->j", B, B))
    return Kxz, At, B, a, v_raw


def latent_posterior(l: LatentSparseGp, Xstar, *, warn: bool = True):
    """Marginal posterior mean and variance of the latent at query points."""
    Xs = np.atleast_2d(np.asarray(Xstar, dtype=float))
    if Xs.shape[1] != l.input_dim:
        raise ShapeError(f"queries have {Xs.shape[1]} columns, latent has {l.input_dim}")
    *_, a, v = _marginals(l.params, l.mean_const, *l.whitened, l.Z, Xs)
    if warn and np.any(v < -1e-10):
        warnings.warn(f"latent variance dipped to {v.min():.3e}; clamping at 0")
    return a, np.maximum(v, 0.0)


def gaussian_kl(q_mean, q_chol, prior_mean, prior_cov, jitter: float = 0.0) -> float:
    """KL(N(q_mean, q_chol q_chol^T) || N(prior_mean, prior_cov)).

    All solves go through a Cholesky factor of the prior covariance;
    log-determinants come straight off the factor diagonals.
    """
    mu = np.asarray(q_mean, dtype=float).ravel()
    L = np.asarray(q_chol, dtype=float)
    mp = np.asarray(prior_mean, dtype=float).ravel()
    K = np.asarray(prior_cov, dtype=float)
    num = mu.size
    if L.shape != (num, num) or mp.shape != (num,) or K.shape != (num, num):
        raise ShapeError(
            f"inconsistent KL shapes: mean {mu.shape}, chol {L.shape}, "
            f"prior mean {mp.shape}, prior cov {K.shape}"
        )
    C = stable_cholesky(K, jitter)
    W = solve_triangular(C, L, lower=True, check_finite=False)
    s = solve_triangular(C, mp - mu, lower=True, check_finite=False)
    logdet_k = 2.0 * float(np.sum(np.log(np.diagonal(C))))
    logdet_s = 2.0 * float(np.sum(np.log(np.abs(np.diagonal(L)))))
    return float(
        0.5 * (np.sum(W * W) + np.sum(s * s) - num + logdet_k - logdet_s)
    )


def expected_loglik_gaussian(y, a_f, v_f, a_g, v_g):
    """E_{q(f) q(g)}[log N(y | f, e^g)] with independent Gaussian marginals.

    Closed form: -1/2 log 2pi - a_g/2 - 1/2 exp(-a_g + v_g/2) ((y - a_f)^2 + v_f).
    Broadcasts over arrays; scalars in, scalar out.
    """
    y = np.asarray(y, dtype=float)
    a_f = np.asarray(a_f, dtype=float)
    v_f = np.asarray(v_f, dtype=float)
    a_g = np.asarray(a_g, dtype=float)
    v_g = np.asarray(v_g, dtype=float)
    if np.any(v_f < 0) or np.any(v_g < 0):
        raise ValueError("latent variances must be nonnegative")
    for name, arr in (("y", y), ("a_f", a_f), ("v_f", v_f), ("a_g", a_g), ("v_g", v_g)):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"non-finite value in {name}")
    out = (
        -0.5 * LOG2PI
        - 0.5 * a_g
        - 0.5 * np.exp(-a_g + 0.5 * v_g) * ((y - a_f) ** 2 + v_f)
    )
    return float(out) if out.ndim == 0 else out


def _g_scale(noise_parameterization: str) -> float:
    """Factor s in log noise variance = s g: 2 when g is the log noise
    stddev, 1 when g is the log noise variance."""
    return 2.0 if noise_parameterization == "stddev" else 1.0


def elbo(model: ChainedGpModel, d: DataSet, minibatch=None) -> ElboReport:
    """Evidence lower bound of the model on a (transformed) dataset.

    With a minibatch index set the data term is rescaled by n/|batch|;
    the KL terms are always full. The per-point sum uses compensated
    summation so the result does not depend on row order.
    """
    X = d.features
    y = d.target
    n = X.shape[0]
    if X.shape[1] != model.input_dim:
        raise ShapeError(f"data has {X.shape[1]} features, model has {model.input_dim}")
    if minibatch is not None:
        idx = np.asarray(minibatch, dtype=int).ravel()
        if idx.size == 0:
            raise ShapeError("empty minibatch")
        X = X[idx]
        y = y[idx]
    weight = n / X.shape[0]

    a_f, v_f = latent_posterior(model.latent_f, X, warn=False)
    a_g, v_g = latent_posterior(model.latent_g, X, warn=False)
    s = _g_scale(model.noise_parameterization)
    ell = weight * math.fsum(expected_loglik_gaussian(y, a_f, v_f, s * a_g, s * s * v_g))

    kls = []
    for latent in (model.latent_f, model.latent_g):
        Kzz, _ = _kzz_chol(latent.params, latent.Z)
        prior_mean = np.full(latent.num_inducing, latent.mean_const)
        kl = gaussian_kl(latent.var_mean, latent.var_chol, prior_mean, Kzz)
        kls.append(max(kl, 0.0))
    return ElboReport(ell - kls[0] - kls[1], ell, kls[0], kls[1])


# =========================
# Flattened objective with analytic gradients
# =========================

def _chol_backward(C: np.ndarray, Cbar: np.ndarray) -> np.ndarray:
    """Adjoint of ``K -> cholesky(K)``: map dLoss/dC to dLoss/dK.

    ``C`` is the lower factor and ``Cbar`` its (lower-triangular)
    adjoint; the result is symmetric. The finite-difference tests pin
    this together with the rest of the gradient.
    """
    P = np.tril(C.T @ Cbar)
    P[np.diag_indices_from(P)] *= 0.5
    tmp = solve_triangular(C, P, trans="T", lower=True, check_finite=False)
    Kbar = solve_triangular(C, tmp.T, trans="T", lower=True, check_finite=False).T
    return 0.5 * (Kbar + Kbar.T)


class _LatentLayout:
    """Index bookkeeping for one latent's slice of the parameter vector.

    Order: log lengthscales (m), log signal variance, mean const, the
    whitened variational mean (I), the whitened variational Cholesky
    lower triangle row-major with the diagonal stored as logs, then Z
    row-major when inducing inputs are learned.

    Whitened coordinates express the variational posterior relative to
    the prior at the inducing inputs: with C the Cholesky factor of the
    jittered K_ZZ, the posterior mean is ``const + C eta`` and its
    Cholesky factor is ``C Lam``. The bound's value is unchanged by the
    reparameterization, but its geometry improves drastically: the KL
    term becomes a sum of scalar penalties independent of the kernel,
    and the data term sees prior-scaled directions, so one step size
    works across the whole vector. Optimizing var_mean and var_chol
    directly stalls; the gradient check alone does not catch that.
    """

    def __init__(self, m: int, num_inducing: int, learn_Z: bool, offset: int):
        self.m = m
        self.num = num_inducing
        self.learn_Z = learn_Z
        tr, tc = np.tril_indices(num_inducing)
        self.tril_rows = tr
        self.tril_cols = tc
        self.diag_mask = tr == tc
        n_tril = tr.size
        k = offset
        self.sl_log_l = slice(k, k + m); k += m
        self.i_log_sv = k; k += 1
        self.i_const = k; k += 1
        self.sl_eta = slice(k, k + num_inducing); k += num_inducing
        self.sl_tril = slice(k, k + n_tril); k += n_tril
        if learn_Z:
            self.sl_Z = slice(k, k + num_inducing * m); k += num_inducing * m
        else:
            self.sl_Z = None
        self.end = k

    def read(self, theta: np.ndarray, fixed_Z: np.ndarray):
        ls = np.exp(theta[self.sl_log_l])
        sv = float(np.exp(theta[self.i_log_sv]))
        const = float(theta[self.i_const])
        eta = theta[self.sl_eta]
        vals = theta[self.sl_tril].copy()
        vals[self.diag_mask] = np.exp(vals[self.diag_mask])
        Lam = np.zeros((self.num, self.num))
        Lam[self.tril_rows, self.tril_cols] = vals
        Z = theta[self.sl_Z].reshape(self.num, self.m) if self.learn_Z else fixed_Z
        return KernelParams(ls, sv), const, eta, Lam, Z

    def write(self, theta: np.ndarray, params: KernelParams, const: float,
              eta: np.ndarray, Lam: np.ndarray, Z: np.ndarray) -> None:
        theta[self.sl_log_l] = np.log(params.lengthscales)
        theta[self.i_log_sv] = math.log(params.signal_variance)
        theta[self.i_const] = const
        theta[self.sl_eta] = eta
        vals = Lam[self.tril_rows, self.tril_cols].copy()
        vals[self.diag_mask] = np.log(vals[self.diag_mask])
        theta[self.sl_tril] = vals
        if self.learn_Z:
            theta[self.sl_Z] = Z.ravel()


class ElboObjective:
    """ELBO and gradient as functions of one flat parameter vector.

    The parameter order is the f block then the g block, each laid out as
    documented on ``_LatentLayout``. Gradients are exact (analytic); the
    finite-difference tests pin them.
    """

    def __init__(self, model: ChainedGpModel, d: DataSet, *, learn_Z: bool = False):
        if d.features.shape[1] != model.input_dim:
            raise ShapeError(
                f"data has {d.features.shape[1]} features, model has {model.input_dim}"
            )
        self.X = d.features
        self.y = d.target
        self.n = d.features.shape[0]
        self.noise_parameterization = model.noise_parameterization
        self.transforms = model.transforms
        self.feature_names = model.feature_names
        self.target_name = model.target_name
        self.learn_Z = learn_Z
        self.Z_f = model.latent_f.Z
        self.Z_g = model.latent_g.Z
        m = model.input_dim
        self.layout_f = _LatentLayout(m, model.latent_f.num_inducing, learn_Z, 0)
        self.layout_g = _LatentLayout(
            m, model.latent_g.num_inducing, learn_Z, self.layout_f.end
        )
        self.size = self.layout_g.end

    def pack(self, model: ChainedGpModel) -> np.ndarray:
        theta = np.empty(self.size)
        for layout, latent in ((self.layout_f, model.latent_f),
                               (self.layout_g, model.latent_g)):
            _, eta, Lam = latent.whitened
            layout.write(theta, latent.params, latent.mean_const, eta, Lam,
                         latent.Z)
        return theta

    def _dewhiten(self, layout, theta, fixed_Z) -> LatentSparseGp:
        params, const, eta, Lam, Z = layout.read(theta, fixed_Z)
        _, C = _kzz_chol(params, Z)
        return LatentSparseGp(params, const, Z, const + C @ eta, np.tril(C @ Lam))

    def unpack(self, theta: np.ndarray) -> ChainedGpModel:
        return ChainedGpModel(
            self._dewhiten(self.layout_f, theta, self.Z_f),
            self._dewhiten(self.layout_g, theta, self.Z_g),
            transforms=self.transforms,
            feature_names=self.feature_names,
            target_name=self.target_name,
            noise_parameterization=self.noise_parameterization,
        )

    # ---- forward/backward per latent ----

    def _forward(self, layout, theta, fixed_Z, X):
        params, const, eta, Lam, Z = layout.read(theta, fixed_Z)
        Kzz, C = _kzz_chol(params, Z)
        Kxz, At, B, a, v_raw = _marginals(params, const, C, eta, Lam, Z, X)
        v = np.maximum(v_raw, 0.0)
        diag_lam = np.diagonal(Lam)
        kl = max(0.0, float(
            0.5 * (np.sum(Lam * Lam) + eta @ eta - layout.num)
            - np.sum(np.log(diag_lam))
        ))
        return {
            "params": params, "const": const, "eta": eta, "Lam": Lam, "Z": Z,
            "Kzz": Kzz, "C": C, "Kxz": Kxz, "At": At, "a": a,
            "B": B, "v_raw": v_raw, "v": v, "kl": kl,
        }

    def _backward(self, layout, fw, abar, vbar, X, grad):
        """Accumulate the ELBO gradient for one latent into ``grad``.

        ``abar``/``vbar`` are the adjoints of the posterior marginals from
        the data term; the KL contribution is added here directly.
        """
        params, eta, Lam, Z = fw["params"], fw["eta"], fw["Lam"], fw["Z"]
        ls = params.lengthscales
        sv = params.signal_variance
        C, At, Kxz, Kzz, B = fw["C"], fw["At"], fw["Kxz"], fw["Kzz"], fw["B"]

        # variance clamp: no gradient flows through clamped points
        vbar = np.where(fw["v_raw"] > 0.0, vbar, 0.0)

        # whitened mean and the shared constant
        grad[layout.sl_eta] += At @ abar - eta
        grad[layout.i_const] += float(np.sum(abar))

        # whitened Cholesky factor, diagonal in logs
        Bbar = 2.0 * B * vbar[None, :]
        Lbar = At @ Bbar.T - Lam
        gl = Lbar[layout.tril_rows, layout.tril_cols].copy()
        diag_lam = np.diagonal(Lam)
        gl[layout.diag_mask] += 1.0 / diag_lam
        gl[layout.diag_mask] *= diag_lam
        grad[layout.sl_tril] += gl

        # kernel-matrix adjoints, through At = C^{-1} K_ZX and the factor C
        Atbar = np.outer(eta, abar) - 2.0 * At * vbar[None, :] + Lam @ Bbar
        G = solve_triangular(C, Atbar, trans="T", lower=True, check_finite=False)
        Kzz_bar = _chol_backward(C, np.tril(-G @ At.T))
        Kxz_bar = G.T

        P1 = Kzz_bar * Kzz
        P2 = Kxz_bar * Kxz
        grad[layout.i_log_sv] += float(np.sum(P1) + np.sum(P2) + sv * np.sum(vbar))

        s_zz = sq_dist_contract(P1, Z, Z)
        s_xz = sq_dist_contract(P2, X, Z)
        grad[layout.sl_log_l] += 0.5 * (s_zz + s_xz) / ls

        if layout.learn_Z:
            Wsym = P1 + P1.T
            gz = (Wsym @ Z - Z * Wsym.sum(axis=1)[:, None]) / ls[None, :]
            gz += (P2.T @ X - Z * P2.sum(axis=0)[:, None]) / ls[None, :]
            grad[layout.sl_Z] += gz.ravel()

    def value_and_grad(self, theta: np.ndarray, batch_idx=None):
        """ELBO report and gradient of the ELBO at ``theta``.

        ``batch_idx`` selects a minibatch; the data term and its gradient
        are then rescaled by n/|batch| while the KL terms stay exact.
        """
        X, y = self.X, self.y
        if batch_idx is not None:
            idx = np.asarray(batch_idx, dtype=int).ravel()
            if idx.size == 0:
                raise ShapeError("empty minibatch")
            X = X[idx]
            y = y[idx]
        weight = self.n / X.shape[0]
        s = _g_scale(self.noise_parameterization)

        ff = self._forward(self.layout_f, theta, self.Z_f, X)
        fg = self._forward(self.layout_g, theta, self.Z_g, X)
        a_f, v_f = ff["a"], ff["v"]
        a_g, v_g = fg["a"], fg["v"]

        r = y - a_f
        Q = r * r + v_f
        P = np.exp(-s * a_g + 0.5 * s * s * v_g)
        E = -0.5 * LOG2PI - 0.5 * s * a_g - 0.5 * P * Q
        ell = weight * math.fsum(E)
        value = ell - ff["kl"] - fg["kl"]
        report = ElboReport(value, ell, ff["kl"], fg["kl"])

        abar_f = weight * P * r
        vbar_f = -0.5 * weight * P
        abar_g = weight * 0.5 * s * (P * Q - 1.0)
        vbar_g = -weight * 0.25 * s * s * P * Q

        grad = np.zeros(self.size)
        self._backward(self.layout_f, ff, abar_f, vbar_f, X, grad)
        self._backward(self.layout_g, fg, abar_g, vbar_g, X, grad)
        return report, grad


# =========================
# Fitting
# =========================

@dataclass(frozen=True)
class CgpFitConfig:
    num_inducing: int = 50
    max_iters: int = 400
    learning_rate: float = 1e-2
    minibatch_size: int | None = None  # None = full batch
    learn_Z: bool = False
    seed: int = 0
    noise_parameterization: str = "variance"
    monotone: bool = False       # reject any step that lowers the ELBO


def _farthest_point_rows(X: np.ndarray, count: int) -> np.ndarray:
    """Greedy max-min design: start near the centroid, then spread out."""
    n = X.shape[0]
    if count == n:
        return np.arange(n)
    center = X.mean(axis=0)
    start = int(np.argmin(np.sum((X - center) ** 2, axis=1)))
    chosen = [start]
    d2 = np.sum((X - X[start]) ** 2, axis=1)
    for _ in range(count - 1):
        nxt = int(np.argmax(d2))
        chosen.append(nxt)
        d2 = np.minimum(d2, np.sum((X - X[nxt]) ** 2, axis=1))
    return np.asarray(chosen)


def _initial_model(d: DataSet, config: CgpFitConfig, rng) -> ChainedGpModel:
    X = d.features
    y = d.target
    n, m = X.shape
    num = config.num_inducing
    Z = X[_farthest_point_rows(X, num)].copy()

    params_f = KernelParams(np.ones(m), 1.0)
    const_f = 0.0
    mu_f = np.zeros(num)
    resid_var = max(float(np.var(y)), 1e-12)
    coarse = None
    if n >= 2:
        sub = rng.choice(n, size=min(COARSE_FIT_SIZE, n), replace=False)
        sub.sort()
        try:
            coarse = gpr_fit(
                d.take(sub),
                GprFitConfig(restarts=1, max_iters=60, screen_iters=20,
                             seed=config.seed),
            )
            params_f = coarse.params
            const_f = coarse.mean_const
            mu_f = gpr_predict(coarse, Z)[0]
            resid_var = max(coarse.noise_variance, 1e-12)
        except (NotPositiveDefiniteError, ValueError):
            coarse = None  # fall back to the cold defaults above

    s = _g_scale(config.noise_parameterization)
    const_g = math.log(resid_var) / s

    mu_g = np.full(num, const_g)
    if coarse is not None:
        # local averages of the coarse fit's squared residuals give a
        # first sketch of the variance surface, so the second latent does
        # not have to discover the x-dependence from a flat start
        resid2 = (y - gpr_predict(coarse, X)[0]) ** 2
        weights = kernel_matrix(KernelParams(params_f.lengthscales, 1.0), Z, X)
        local = (weights @ resid2) / np.maximum(weights.sum(axis=1), 1e-300)
        mu_g = np.log(np.maximum(local, 1e-12)) / s

    # start each variational covariance at a shrunk copy of its prior,
    # S = INIT_CHOL_SCALE^2 K_ZZ.  Scaling the prior keeps the KL bounded
    # even when K_ZZ is poorly conditioned (an isotropic 0.1 I start puts
    # mass in near-null directions of K_ZZ and the KL blows up), and the
    # shrinkage keeps the initial latent variances well below the signal
    # variance; at S = K_ZZ the expected log-likelihood is dominated by
    # the prior-sized posterior variance of the mean latent and the
    # variance latent sees almost no residual signal
    params_g = KernelParams(np.ones(m), 1.0)
    latent_f = LatentSparseGp(
        params_f, const_f, Z, mu_f, INIT_CHOL_SCALE * _kzz_chol(params_f, Z)[1],
    )
    latent_g = LatentSparseGp(
        params_g, const_g, Z.copy(), mu_g, INIT_CHOL_SCALE * _kzz_chol(params_g, Z)[1],
    )
    return ChainedGpModel(
        latent_f, latent_g,
        transforms=d.pipeline,
        feature_names=d.feature_names,
        target_name=d.target_name,
        noise_parameterization=config.noise_parameterization,
    )


def cgp_fit(d: DataSet, config: CgpFitConfig | None = None):
    """Fit the chained model by gradient ascent on the ELBO.

    Returns the trained model and the trace of accepted ``ElboReport``s.
    By default every finite Adam step is accepted and the returned model
    is the best full-batch iterate seen (never worse than the
    initialization).  With ``monotone=True`` steps that lower the ELBO
    are rejected outright, with the step size halved on each rejection,
    so the trace is non-decreasing to within 1e-9.  Adam oscillates on
    its way down, so the guard trades convergence speed for a clean
    trace; it is meant for small full-batch diagnostics.
    """
    config = config or CgpFitConfig()
    n = d.features.shape[0]
    if config.num_inducing < 1:
        raise ValueError(f"num_inducing must be >= 1, got {config.num_inducing}")
    if config.num_inducing > n:
        raise ValueError(
            f"num_inducing ({config.num_inducing}) exceeds the number of "
            f"data points ({n})"
        )
    if config.minibatch_size is not None and config.minibatch_size < 1:
        raise ValueError(f"minibatch_size must be >= 1, got {config.minibatch_size}")

    rng = np.random.default_rng(config.seed)
    model0 = _initial_model(d, config, rng)
    obj = ElboObjective(model0, d, learn_Z=config.learn_Z)
    theta = obj.pack(model0)

    report0, grad = obj.value_and_grad(theta)
    if not np.isfinite(report0.elbo):
        raise ValueError(f"non-finite ELBO at initialization: {report0.elbo}")

    full_batch = config.minibatch_size is None or config.minibatch_size >= n
    guarded = config.monotone
    adam = Adam(obj.size, config.learning_rate)
    trace = [report0]
    theta_best = theta.copy()
    best = report0.elbo
    accepted = report0.elbo
    stall = 0

    for _ in range(config.max_iters):
        snap = adam.snapshot()
        batch = None
        if not full_batch:
            batch = rng.choice(n, size=config.minibatch_size, replace=False)
        cand = adam.step(theta, -grad)
        try:
            report, cand_grad = obj.value_and_grad(cand, batch)
            ok = np.isfinite(report.elbo) and not (
                guarded and report.elbo < accepted - 1e-9
            )
        except NotPositiveDefiniteError:
            ok = False
        if not ok:
            # roll the whole optimizer state back and take smaller steps
            adam.restore(snap)
            adam.learning_rate *= 0.5
            stall += 1
            if adam.learning_rate < 1e-10 or stall >= PATIENCE:
                break
            continue
        theta = cand
        grad = cand_grad
        accepted = report.elbo
        trace.append(report)
        if guarded:
            # let the step size climb back after a run of clean accepts
            adam.learning_rate = min(adam.learning_rate * 1.1, config.learning_rate)
        if guarded or full_batch:
            stall = 0 if accepted > best + FTOL_REL * (abs(best) + 1.0) else stall + 1
            if accepted > best:
                best = accepted
                theta_best = theta.copy()
            if stall >= PATIENCE:
                break

    if full_batch:
        final_theta = theta_best
    else:
        # unguarded minibatch run: keep whichever of (final, initial) has
        # the better full-batch bound
        final_report, _ = obj.value_and_grad(theta)
        final_theta = theta if final_report.elbo >= report0.elbo else obj.pack(model0)
    return obj.unpack(final_theta), trace


# =========================
# Prediction
# =========================

def cgp_predict_moments(model: ChainedGpModel, Xstar):
    """Predictive mean and variance on the transformed target scale."""
    Xs = np.atleast_2d(np.asarray(Xstar, dtype=float))
    a_f, v_f = latent_posterior(model.latent_f, Xs)
    a_g, v_g = latent_posterior(model.latent_g, Xs)
    s = _g_scale(model.noise_parameterization)
    return a_f, v_f + np.exp(s * a_g + 0.5 * s * s * v_g)


def cgp_predict_samples(model: ChainedGpModel, xstar, num_samples: int, seed) -> np.ndarray:
    """Draw predictive target samples at one query point, in physical units.

    Order of draws for a fixed seed: f, then g, then the observation noise,
    so runs are reproducible bit for bit.
    """
    if num_samples < 1:
        raise ValueError(f"num_samples must be >= 1, got {num_samples}")
    x = np.asarray(xstar, dtype=float).reshape(1, -1)
    a_f, v_f = latent_posterior(model.latent_f, x)
    a_g, v_g = latent_posterior(model.latent_g, x)
    rng = np.random.default_rng(seed)
    f = a_f[0] + math.sqrt(v_f[0]) * rng.standard_normal(num_samples)
    g = a_g[0] + math.sqrt(v_g[0]) * rng.standard_normal(num_samples)
    sd = np.exp(0.5 * _g_scale(model.noise_parameterization) * g)
    y = f + sd * rng.standard_normal(num_samples)
    if model.transforms is not None:
        y = model.transforms.invert_target(y)
    return y


# =========================
# Serialization
# =========================

def _latent_to_dict(l: LatentSparseGp) -> dict:
    tr, tc = np.tril_indices(l.num_inducing)
    return {
        "kernel": l.params.to_dict(),
        "mean_const": l.mean_const,
        "Z": l.Z.tolist(),
        "var_mean": l.var_mean.tolist(),
        "var_chol_tril": l.var_chol[tr, tc].tolist(),
    }


def _latent_from_dict(doc: dict, what: str) -> LatentSparseGp:
    mu = np.asarray(member(doc, "var_mean", list, what=what), dtype=float)
    num = mu.size
    vals = np.asarray(member(doc, "var_chol_tril", list, what=what), dtype=float)
    if vals.size != num * (num + 1) // 2:
        raise FormatError(
            f"{what} member 'var_chol_tril' has {vals.size} entries, "
            f"expected {num * (num + 1) // 2}"
        )
    L = np.zeros((num, num))
    L[np.tril_indices(num)] = vals
    return LatentSparseGp(
        KernelParams.from_dict(member(doc, "kernel", dict, what=what), f"{what} kernel"),
        float(member(doc, "mean_const", float, what=what)),
        np.asarray(member(doc, "Z", list, what=what), dtype=float),
        mu,
        L,
    )


def cgp_to_dict(model: ChainedGpModel) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "cgp",
        "noise_parameterization": model.noise_parameterization,
        "transforms": None if model.transforms is None else model.transforms.to_dict(),
        "feature_names": list(model.feature_names),
        "target_name": model.target_name,
        "latent_f": _latent_to_dict(model.latent_f),
        "latent_g": _latent_to_dict(model.latent_g),
    }


def cgp_from_dict(doc: dict, path=None) -> ChainedGpModel:
    check_version(doc, "model", path)
    if doc.get("kind") != "cgp":
        raise FormatError(f"expected a cgp model document, got kind={doc.get('kind')!r}")
    what = f"{path}: cgp model document" if path else "cgp model document"
    transforms = doc.get("transforms")
    if transforms is not None:
        transforms = TransformPipeline.from_dict(transforms, f"{what} transforms")
    return ChainedGpModel(
        _latent_from_dict(member(doc, "latent_f", dict, what=what), f"{what} latent_f"),
        _latent_from_dict(member(doc, "latent_g", dict, what=what), f"{what} latent_g"),
        transforms=transforms,
        feature_names=tuple(member(doc, "feature_names", list, what=what)),
        target_name=member(doc, "target_name", str, what=what),
        noise_parameterization=member(doc, "noise_parameterization", str, what=what),
    )


def save_cgp(model: ChainedGpModel, path) -> None:
    dump_json(cgp_to_dict(model), path)


def load_cgp(path) -> ChainedGpModel:
    return cgp_from_dict(read_json(path), path)
