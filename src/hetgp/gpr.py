"""Exact Gaussian process regression with homoscedastic noise.

Hyperparameters (log-lengthscales, log signal variance, log noise variance,
constant mean) are chosen by minimizing the negative log marginal
likelihood with analytic gradients (Rasmussen & Williams 2006, 5.4.1).
Multi-start L-BFGS-B guards against poor local optima: the default start
is screened on all rows, the jittered restarts on ``COARSE_FIT_SIZE``
farthest-point rows and their winner again on all rows; the fit never
ends above the default start's NLL. The fitted model caches the Cholesky
factor of K + sigma^2 I and the weights alpha for O(n) predictive means.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, solve_triangular
from scipy.linalg.lapack import dpotri
from scipy.optimize import minimize

from ._io import FORMAT_VERSION, check_version, dump_json, member, read_json
from .data import TransformPipeline
from .errors import FormatError, NotPositiveDefiniteError, ShapeError
from .kernels import KernelParams, kernel_matrix, sq_dist_contract, stable_cholesky

LOG2PI = float(np.log(2.0 * np.pi))

# box for the log-hyperparameters during optimization; wide enough to act
# only as an overflow guard (exp of +-11.5 spans roughly 1e-5 .. 1e5)
LOG_BOUND = 11.5

# noise variance at the default start
INIT_NOISE = 0.1

# rows that screen the GPR restarts and fit the chained warm start
COARSE_FIT_SIZE = 300


@dataclass(frozen=True)
class GprFitConfig:
    """Optimizer settings for :func:`gpr_fit`: the default start and the
    restart winner are screened on all rows, ``restarts`` jittered starts on
    at most ``COARSE_FIT_SIZE``; the final NLL never exceeds the default's."""

    restarts: int = 3          # extra starts beyond the default one
    max_iters: int = 150       # L-BFGS-B iterations for the polish phase
    screen_iters: int = 40     # iterations for each screen
    seed: int = 0              # jitters the restart initializations


@dataclass(frozen=True)
class ExactGprModel:
    train_X: np.ndarray
    train_y: np.ndarray
    params: KernelParams
    noise_variance: float
    mean_const: float
    transforms: TransformPipeline | None
    feature_names: tuple[str, ...]
    target_name: str
    chol: np.ndarray
    alpha: np.ndarray
    jitter: float  # jitter actually added on top of K + sigma^2 I (usually 0)

    @classmethod
    def assemble(
        cls, train_X, train_y, params, noise_variance, mean_const,
        transforms=None, feature_names=None, target_name="y",
    ) -> "ExactGprModel":
        X = np.atleast_2d(np.asarray(train_X, dtype=float))
        y = np.asarray(train_y, dtype=float).ravel()
        if X.shape[0] != y.shape[0]:
            raise ShapeError(f"{X.shape[0]} rows vs {y.shape[0]} targets")
        if not noise_variance > 0:
            raise ValueError(f"noise_variance must be positive, got {noise_variance}")
        K = kernel_matrix(params, X)
        K[np.diag_indices_from(K)] += noise_variance
        L, jit = stable_cholesky(K, 0.0, return_jitter=True)
        alpha = cho_solve((L, True), y - mean_const)
        if feature_names is None:
            feature_names = tuple(f"x{j}" for j in range(X.shape[1]))
        return cls(
            X, y, params, float(noise_variance), float(mean_const),
            transforms, tuple(feature_names), target_name, L, alpha, jit,
        )

    @property
    def n(self) -> int:
        return self.train_X.shape[0]

    @property
    def m(self) -> int:
        return self.train_X.shape[1]

    def scale_features(self, X_raw):
        """Map physical-unit queries into the model's scaled input space."""
        if self.transforms is None:
            return np.atleast_2d(np.asarray(X_raw, dtype=float))
        return self.transforms.apply_features(X_raw)


# =========================
# Negative log marginal likelihood
# =========================

def gpr_nll(params: KernelParams, noise_variance: float, mean_const: float, X, y) -> float:
    """NLL = 1/2 r^T (K+s2 I)^-1 r + 1/2 log|K+s2 I| + n/2 log 2pi."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    if X.shape[0] != y.shape[0]:
        raise ShapeError(f"{X.shape[0]} rows vs {y.shape[0]} targets")
    if X.shape[0] < 1:
        raise ShapeError("need at least one data point")
    K = kernel_matrix(params, X)
    K[np.diag_indices_from(K)] += noise_variance
    L = stable_cholesky(K, 0.0)
    r = y - mean_const
    a = cho_solve((L, True), r)
    logdet = 2.0 * float(np.sum(np.log(np.diagonal(L))))
    return float(0.5 * r @ a + 0.5 * logdet + 0.5 * y.size * LOG2PI)


def nll_and_grad(theta: np.ndarray, X: np.ndarray, y: np.ndarray):
    """NLL and its gradient in the packed parameterization.

    ``theta`` is [log l_1..log l_m, log signal_variance, log noise_variance,
    mean_const]. Used by the optimizer and by finite-difference tests.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    n, m = X.shape
    ls = np.exp(theta[:m])
    sv = float(np.exp(theta[m]))
    noise = float(np.exp(theta[m + 1]))
    const = float(theta[m + 2])

    Kk = kernel_matrix(KernelParams(ls, sv), X)  # kernel part, no noise
    K = Kk.copy()
    K[np.diag_indices_from(K)] += noise
    L = stable_cholesky(K, 0.0)
    r = y - const
    alpha = cho_solve((L, True), r)
    logdet = 2.0 * float(np.sum(np.log(np.diagonal(L))))
    nll = float(0.5 * r @ alpha + 0.5 * logdet + 0.5 * n * LOG2PI)

    # dNLL/dtheta_k = 1/2 tr((Kinv - alpha alpha^T) dK/dtheta_k)
    Kinv, info = dpotri(L, lower=1)
    if info != 0:
        raise NotPositiveDefiniteError(f"dpotri failed with info={info}", jitter=0.0)
    Kinv = np.tril(Kinv)
    Kinv += np.tril(Kinv, -1).T
    M = Kinv - np.outer(alpha, alpha)
    grad = np.empty(m + 3)
    MK = M * Kk
    # per-dimension squared distances enter as dK/dlog l_j = Kk * D_j/(2 l_j)
    grad[:m] = 0.25 / ls * sq_dist_contract(MK, X, X)
    grad[m] = 0.5 * float(np.sum(MK))
    grad[m + 1] = 0.5 * noise * float(np.trace(M))
    grad[m + 2] = -float(np.sum(alpha))
    return nll, grad


# =========================
# Fitting
# =========================

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


def gpr_fit(d, opt: GprFitConfig | None = None) -> ExactGprModel:
    """Type-II maximum likelihood fit on an (already transformed) dataset.

    The default start (lengthscales 1, variances 1, noise 0.1) is screened
    on all rows, the ``opt.restarts`` jittered starts on the
    ``COARSE_FIT_SIZE`` rows of ``_farthest_point_rows`` (all rows if n is
    no larger), and their winner there again on all rows. The better full
    screen is polished: the final NLL never exceeds the default start's.
    """
    opt = opt or GprFitConfig()
    X = d.features
    y = d.target
    n, m = X.shape
    if n < 2:
        raise ShapeError(f"need at least 2 points to fit, got {n}")

    base = np.concatenate([np.zeros(m + 1), [np.log(INIT_NOISE)], [0.0]])
    rng = np.random.default_rng(opt.seed)
    restarts = [base + np.concatenate([rng.uniform(-1.0, 1.0, m + 2), [0.0]])
                for _ in range(opt.restarts)]

    def objective(theta, Xs, ys):
        try:
            # overflow in extreme corners is expected and handled below
            with np.errstate(over="ignore", invalid="ignore"):
                return nll_and_grad(theta, Xs, ys)
        except NotPositiveDefiniteError:
            # a hopeless corner of hyperparameter space; steer the line
            # search away without crashing the whole fit
            return 1e25, np.zeros_like(theta)

    f0, _ = objective(base, X, y)
    if not np.isfinite(f0):
        raise ValueError(f"non-finite objective at initial parameters {base}")

    bounds = [(-LOG_BOUND, LOG_BOUND)] * (m + 2) + [(None, None)]

    def run(theta, rows=slice(None), iters=opt.screen_iters):
        return minimize(objective, theta, args=(X[rows], y[rows]), jac=True,
                        method="L-BFGS-B", bounds=bounds, options={"maxiter": iters})

    best = run(base)
    if restarts:
        rows = _farthest_point_rows(X, COARSE_FIT_SIZE) if n > COARSE_FIT_SIZE else slice(None)
        screened = [run(s, rows) for s in restarts]
        k = int(np.argmin([r.fun for r in screened]))  # the first minimum on ties
        winner = screened[k] if n <= COARSE_FIT_SIZE else run(restarts[k])
        best = winner if winner.fun < best.fun else best
    res = run(best.x, iters=opt.max_iters)
    theta = res.x if res.fun <= best.fun else best.x

    params = KernelParams(np.exp(theta[:m]), float(np.exp(theta[m])))
    return ExactGprModel.assemble(
        X, y, params, float(np.exp(theta[m + 1])), float(theta[m + 2]),
        transforms=d.pipeline, feature_names=d.feature_names,
        target_name=d.target_name,
    )


# =========================
# Prediction
# =========================

def gpr_predict(model: ExactGprModel, Xstar, include_noise: bool = False):
    """Predictive mean and variance at scaled query points."""
    Xs = np.atleast_2d(np.asarray(Xstar, dtype=float))
    if Xs.shape[1] != model.m:
        raise ShapeError(f"queries have {Xs.shape[1]} columns, model has {model.m}")
    Ks = kernel_matrix(model.params, Xs, model.train_X)
    mean = model.mean_const + Ks @ model.alpha
    V = solve_triangular(model.chol, Ks.T, lower=True)
    var = model.params.signal_variance - np.einsum("ij,ij->j", V, V)
    if np.any(var < -1e-10):
        warnings.warn(
            f"predictive variance dipped to {var.min():.3e}; clamping at 0"
        )
    var = np.maximum(var, 0.0)
    if include_noise:
        var = var + model.noise_variance
    return mean, var


# =========================
# Serialization
# =========================

def gpr_to_dict(model: ExactGprModel) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "gpr",
        "kernel": model.params.to_dict(),
        "noise_variance": model.noise_variance,
        "mean_const": model.mean_const,
        "transforms": None if model.transforms is None else model.transforms.to_dict(),
        "feature_names": list(model.feature_names),
        "target_name": model.target_name,
        "train_X": model.train_X.tolist(),
        "train_y": model.train_y.tolist(),
    }


def gpr_from_dict(doc: dict, path=None) -> ExactGprModel:
    check_version(doc, "model", path)
    if doc.get("kind") != "gpr":
        raise FormatError(f"expected a gpr model document, got kind={doc.get('kind')!r}")
    what = f"{path}: gpr model document" if path else "gpr model document"
    params = KernelParams.from_dict(member(doc, "kernel", dict, what=what), f"{what} kernel")
    transforms = doc.get("transforms")
    if transforms is not None:
        transforms = TransformPipeline.from_dict(transforms, f"{what} transforms")
    # factorizations are recomputed, never trusted from disk
    return ExactGprModel.assemble(
        np.asarray(member(doc, "train_X", list, what=what), dtype=float),
        np.asarray(member(doc, "train_y", list, what=what), dtype=float),
        params,
        float(member(doc, "noise_variance", float, what=what)),
        float(member(doc, "mean_const", float, what=what)),
        transforms=transforms,
        feature_names=tuple(member(doc, "feature_names", list, what=what)),
        target_name=member(doc, "target_name", str, what=what),
    )


def save_gpr(model: ExactGprModel, path) -> None:
    dump_json(gpr_to_dict(model), path)


def load_gpr(path) -> ExactGprModel:
    return gpr_from_dict(read_json(path), path)
