"""Squared-exponential ARD kernel and a stabilized Cholesky helper.

The covariance between two inputs is

    k(x, x') = s * exp(-0.5 * sum_j (x_j - x'_j)**2 / l_j)

with signal variance ``s`` and one positive scale ``l_j`` per input
dimension. The squared distance is divided by the first power of ``l_j``,
so each lengthscale carries units of its input squared; halving the
responsiveness of a dimension means multiplying its ``l_j`` by four.

Examples
--------
>>> import numpy as np
>>> p = KernelParams(lengthscales=np.array([1.0, 4.0]), signal_variance=2.0)
>>> float(kernel_matrix(p, [[0.0, 0.0]], [[1.0, 2.0]])[0, 0])  # 2 * exp(-1)
0.7357588823428847
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cholesky

from ._io import member
from .errors import NotPositiveDefiniteError, ShapeError

# Relative jitter policy: start at 1e-6 of the mean diagonal, escalate
# tenfold, give up at 1e-2. Values are fractions of the mean diagonal.
JITTER_START_REL = 1e-6
JITTER_CAP_REL = 1e-2


@dataclass(frozen=True)
class KernelParams:
    """Hyperparameters of the squared-exponential ARD kernel.

    Parameters
    ----------
    lengthscales : np.ndarray
        Positive scale per input dimension, in squared input units.
    signal_variance : float
        Positive prior variance of the latent function.
    """

    lengthscales: np.ndarray
    signal_variance: float

    def __post_init__(self):
        ls = np.atleast_1d(np.asarray(self.lengthscales, dtype=float))
        if ls.ndim != 1:
            raise ShapeError(f"lengthscales must be a vector, got shape {ls.shape}")
        if not np.all(np.isfinite(ls)) or np.any(ls <= 0.0):
            raise ValueError(f"lengthscales must be positive and finite, got {ls}")
        sv = float(self.signal_variance)
        if not np.isfinite(sv) or sv <= 0.0:
            raise ValueError(f"signal_variance must be positive and finite, got {sv}")
        ls.flags.writeable = False
        object.__setattr__(self, "lengthscales", ls)
        object.__setattr__(self, "signal_variance", sv)

    @property
    def input_dim(self) -> int:
        return self.lengthscales.shape[0]

    def to_dict(self) -> dict:
        return {
            "lengthscales": self.lengthscales.tolist(),
            "signal_variance": self.signal_variance,
        }

    @classmethod
    def from_dict(cls, doc: dict, what: str) -> "KernelParams":
        return cls(
            np.asarray(member(doc, "lengthscales", list, what=what), dtype=float),
            float(member(doc, "signal_variance", float, what=what)),
        )


def kernel_matrix(params: KernelParams, A, B=None) -> np.ndarray:
    """Cross-covariance matrix between two sets of row-wise inputs.

    With ``B=None`` the Gram matrix of ``A`` is returned, exactly
    symmetric and with ``signal_variance`` on the diagonal.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.shape[1] != params.input_dim:
        raise ShapeError(
            f"inputs have {A.shape[1]} columns but kernel has {params.input_dim} lengthscales"
        )
    inv_l = 1.0 / params.lengthscales
    Aw = A * inv_l
    sq_a = np.einsum("ij,ij->i", Aw, A)
    if B is None:
        S = sq_a[:, None] + sq_a[None, :] - 2.0 * (Aw @ A.T)
        # kill roundoff asymmetry so k(x, x') == k(x', x) exactly
        S = 0.5 * (S + S.T)
        np.fill_diagonal(S, 0.0)
    else:
        B = np.atleast_2d(np.asarray(B, dtype=float))
        if B.shape[1] != A.shape[1]:
            raise ShapeError(
                f"inputs have different lengths: {A.shape[1]} vs {B.shape[1]}"
            )
        sq_b = np.einsum("ij,ij->i", B * inv_l, B)
        S = sq_a[:, None] + sq_b[None, :] - 2.0 * (Aw @ B.T)
    np.maximum(S, 0.0, out=S)
    return params.signal_variance * np.exp(-0.5 * S)


def sq_dist_contract(P, A, B) -> np.ndarray:
    """``sum_ab P[a, b] * (A[a, j] - B[b, j])**2`` for every column ``j``.

    Contracts a kernel-matrix adjoint against the per-dimension squared
    distances (the lengthscale gradient) without forming them.
    """
    return (A * A).T @ P.sum(axis=1) + (B * B).T @ P.sum(axis=0) \
        - 2.0 * np.einsum("ij,ij->j", A, P @ B)


def stable_cholesky(A, jitter: float = 0.0, return_jitter: bool = False):
    """Lower Cholesky factor of ``A + jitter * I`` with escalation on failure.

    The caller's jitter (0 is fine) is tried first. On failure the jitter
    grows from ``1e-6 * mean(diag(A))`` by factors of ten up to
    ``1e-2 * mean(diag(A))``; past that a
    :class:`~hetgp.errors.NotPositiveDefiniteError` carrying the last
    jitter is raised. ``L @ L.T`` reconstructs ``A + j * I`` for the
    jitter ``j`` actually used, which ``return_jitter=True`` reports.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ShapeError(f"matrix must be square, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix contains NaN or Inf entries")
    scale = float(np.mean(np.diagonal(A)))
    if not scale > 0.0:
        scale = 1.0
    cap = JITTER_CAP_REL * scale
    j = float(jitter)
    n = A.shape[0]
    while True:
        try:
            M = A if j == 0.0 else A + j * np.eye(n)
            L = cholesky(M, lower=True, check_finite=False)
            return (L, j) if return_jitter else L
        except LinAlgError:
            if j >= cap:
                raise NotPositiveDefiniteError(
                    f"matrix of size {n} is not positive definite even with "
                    f"jitter {j:.3e}",
                    jitter=j,
                ) from None
            j = min(max(j * 10.0, JITTER_START_REL * scale), cap)
