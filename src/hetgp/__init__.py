"""Heteroscedastic Gaussian-process surrogates for noisy simulators.

An exact GP regressor with homoscedastic noise (the baseline) and a sparse
variational chained GP whose second latent models the log noise variance,
plus the supporting pieces: seeded synthetic scenarios with known ground
truth, Wasserstein-based distribution metrics, dataset plumbing, and a
batch CLI (``hetgp``).
"""

import os as _os

# BLAS threads: HETGP_THREADS if set; else, if the caller set a
# *_NUM_THREADS variable, BLAS is left as it is; else one thread. The
# package's algebra is on matrices of a few hundred rows, where waking a
# second OpenBLAS thread costs more than it saves. The environment only
# reaches a BLAS that loads later, so the count is also set at runtime,
# below the imports, on the libraries numpy and scipy already loaded.
_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
_threads = _os.environ.get("HETGP_THREADS") or (
    None if any(v in _os.environ for v in _BLAS_VARS) else "1"
)
if _threads:
    if not _threads.strip().isdigit() or int(_threads) < 1:
        raise ValueError(f"HETGP_THREADS must be a positive integer, got {_threads!r}")
    for _var in _BLAS_VARS:
        _os.environ.setdefault(_var, _threads)

from .errors import (
    DataError,
    ExpressionError,
    FormatError,
    HetgpError,
    NotPositiveDefiniteError,
    ShapeError,
)
from .expressions import Expression
from .kernels import KernelParams, kernel_matrix, stable_cholesky
from .data import (
    DataSet,
    FeatureSpec,
    TransformPipeline,
    TransformRecord,
    feature_specs_from_json,
    fit_transforms,
    load_csv,
    map_unit_points,
    sobol_design,
    write_csv,
    zscore_filter,
)
from .metrics import (
    EmpiricalDistribution,
    PointMetrics,
    normalized_wasserstein,
    point_metrics,
    wasserstein1,
)
from .gpr import (
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
from .chained import (
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
from .synthbench import (
    ReplicationStudy,
    SyntheticScenario,
    derive_seed,
    generate_dataset,
    load_scenario,
    replication_reference,
    shipped_scenario_ids,
    simulate,
)


def _set_blas_threads(count: int) -> None:
    """Set the thread count of the OpenBLAS builds numpy and scipy loaded.

    ``dlsym`` on an extension module also searches the libraries it links,
    so each BLAS is reached through a module known to link it. A build
    without these symbols (MKL, say) keeps the environment's count.
    """
    import ctypes
    import importlib

    for module, symbol in (
        ("numpy._core._multiarray_umath", "scipy_openblas_set_num_threads64_"),
        ("scipy.linalg._fblas", "scipy_openblas_set_num_threads"),
    ):
        try:
            lib = ctypes.CDLL(importlib.import_module(module).__file__)
        except (ImportError, OSError):
            continue
        fn = getattr(lib, symbol, None) or getattr(lib, "openblas_set_num_threads", None)
        if fn is not None:
            fn.argtypes = [ctypes.c_int]
            fn.restype = None
            fn(count)


if _threads:
    _set_blas_threads(int(_threads))
del _os, _BLAS_VARS, _threads, _set_blas_threads

__version__ = "0.1.0"

__all__ = [
    "CgpFitConfig",
    "ChainedGpModel",
    "DataError",
    "DataSet",
    "ElboObjective",
    "ElboReport",
    "EmpiricalDistribution",
    "ExactGprModel",
    "Expression",
    "ExpressionError",
    "FeatureSpec",
    "FormatError",
    "GprFitConfig",
    "HetgpError",
    "KernelParams",
    "LatentSparseGp",
    "NotPositiveDefiniteError",
    "PointMetrics",
    "ReplicationStudy",
    "ShapeError",
    "SyntheticScenario",
    "TransformPipeline",
    "TransformRecord",
    "cgp_fit",
    "cgp_from_dict",
    "cgp_predict_moments",
    "cgp_predict_samples",
    "cgp_to_dict",
    "derive_seed",
    "elbo",
    "expected_loglik_gaussian",
    "feature_specs_from_json",
    "fit_transforms",
    "gaussian_kl",
    "generate_dataset",
    "gpr_fit",
    "gpr_from_dict",
    "gpr_nll",
    "gpr_predict",
    "gpr_to_dict",
    "kernel_matrix",
    "latent_posterior",
    "load_cgp",
    "load_csv",
    "load_gpr",
    "load_scenario",
    "map_unit_points",
    "nll_and_grad",
    "normalized_wasserstein",
    "point_metrics",
    "replication_reference",
    "save_cgp",
    "save_gpr",
    "shipped_scenario_ids",
    "simulate",
    "sobol_design",
    "stable_cholesky",
    "wasserstein1",
    "write_csv",
    "zscore_filter",
]
