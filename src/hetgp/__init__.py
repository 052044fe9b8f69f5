"""Heteroscedastic Gaussian-process surrogates for noisy simulators.

An exact GP regressor with homoscedastic noise (the baseline) and a sparse
variational chained GP whose second latent models the log noise variance,
plus the supporting pieces: seeded synthetic scenarios with known ground
truth, Wasserstein-based distribution metrics, dataset plumbing, and a
batch CLI (``hetgp``).
"""

import os as _os

# HETGP_THREADS caps BLAS parallelism; it must land in the environment
# before numpy loads, which is why this sits above every other import.
# Explicitly set *_NUM_THREADS variables win.
_threads = _os.environ.get("HETGP_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)
del _os, _threads

from .errors import (
    DataError,
    ExpressionError,
    FormatError,
    HetgpError,
    NotPositiveDefiniteError,
    ShapeError,
)
from .expressions import Expression
from .kernels import KernelParams, kernel_eval, kernel_matrix, stable_cholesky
from .data import (
    DataSet,
    FeatureSpec,
    TransformPipeline,
    TransformRecord,
    apply_transforms,
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
    "apply_transforms",
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
    "kernel_eval",
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
