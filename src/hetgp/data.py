"""Data ingestion and preprocessing: CSV I/O, outlier filtering, scaling,
and Sobol experiment designs over (possibly wind-speed-dependent) bounds.

The preprocessing convention is pinned for reproducibility: feature columns
are standardized with the population standard deviation, positive targets
are log-transformed before standardization, and the records needed to undo
every step travel with the trained models.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.stats import qmc

from ._io import atomic_write_text, fmt_float, member, read_table
from .errors import DataError, ShapeError
from .expressions import Expression

# scipy's Sobol implementation carries direction numbers for this many dims
MAX_SOBOL_DIM = 21201


# =========================
# Feature specifications
# =========================

@dataclass(frozen=True)
class FeatureSpec:
    """Name, bounds, and units of one input feature.

    Bounds are usually numbers, but either may be an expression string in
    earlier features (e.g. a turbulence-intensity ceiling that depends on
    wind speed). Numeric bounds must satisfy ``lower < upper``; expression
    bounds are checked pointwise wherever they are evaluated.
    """

    name: str
    lower: float | str
    upper: float | str
    units: str = ""

    def __post_init__(self):
        if not self.name or not isinstance(self.name, str):
            raise DataError(f"feature name must be a nonempty string, got {self.name!r}")
        lo = _as_bound(self.lower, self.name, "lower")
        hi = _as_bound(self.upper, self.name, "upper")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if self.is_static and not lo < hi:
            raise DataError(f"feature {self.name!r}: lower {lo} must be < upper {hi}")

    @property
    def is_static(self) -> bool:
        return isinstance(self.lower, float) and isinstance(self.upper, float)

    def bounds_at(self, env):
        """Numeric (lower, upper) with earlier-feature values from ``env``."""
        lo = self.lower if isinstance(self.lower, float) else self.lower.evaluate(env)
        hi = self.upper if isinstance(self.upper, float) else self.upper.evaluate(env)
        return lo, hi

    def to_dict(self) -> dict:
        as_json = lambda b: b if isinstance(b, float) else str(b)
        return {
            "name": self.name,
            "lower": as_json(self.lower),
            "upper": as_json(self.upper),
            "units": self.units,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureSpec":
        try:
            return cls(d["name"], d["lower"], d["upper"], d.get("units", ""))
        except KeyError as e:
            raise DataError(f"feature spec is missing key {e}") from None


def _as_bound(value, name, side):
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        v = float(value)
        # +-inf marks an unknown bound (CSV-loaded data); NaN is always a bug
        if math.isnan(v):
            raise DataError(f"feature {name!r}: {side} bound must not be NaN")
        return v
    if isinstance(value, (str, Expression)):
        return Expression.parse(value)
    raise DataError(f"feature {name!r}: {side} bound must be a number or expression")


def feature_specs_from_json(items) -> tuple[FeatureSpec, ...]:
    if not isinstance(items, list):
        raise DataError("feature spec file must hold a JSON array")
    specs = tuple(FeatureSpec.from_dict(d) for d in items)
    _validate_spec_order(specs)
    return specs


def _validate_spec_order(specs) -> None:
    # expression bounds may only reference features that come earlier
    seen: set[str] = set()
    for spec in specs:
        for bound in (spec.lower, spec.upper):
            if isinstance(bound, Expression):
                unknown = bound.names.difference(seen)
                if unknown:
                    raise DataError(
                        f"feature {spec.name!r}: bound references {sorted(unknown)} "
                        "which are not earlier features"
                    )
        seen.add(spec.name)


# =========================
# Transform records
# =========================

@dataclass(frozen=True)
class TransformRecord:
    """One invertible column transform: optional log, then affine."""

    kind: str  # standardize | range | log-then-standardize
    shift: float
    scale: float

    _KINDS = ("standardize", "range", "log-then-standardize")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise DataError(f"unknown transform kind {self.kind!r}")
        if not self.scale > 0:
            raise DataError(f"transform scale must be positive, got {self.scale}")

    @property
    def takes_log(self) -> bool:
        return self.kind == "log-then-standardize"

    def apply(self, v):
        v = np.asarray(v, dtype=float)
        if self.takes_log:
            v = np.log(v)
        return (v - self.shift) / self.scale

    def invert(self, t):
        v = np.asarray(t, dtype=float) * self.scale + self.shift
        return np.exp(v) if self.takes_log else v

    def to_dict(self) -> dict:
        return {"kind": self.kind, "shift": self.shift, "scale": self.scale}

    @classmethod
    def from_dict(cls, d: dict, what: str = "transform record") -> "TransformRecord":
        return cls(
            member(d, "kind", str, what=what),
            float(member(d, "shift", float, what=what)),
            float(member(d, "scale", float, what=what)),
        )


@dataclass(frozen=True)
class TransformPipeline:
    """Per-feature records plus the target record for one dataset."""

    features: tuple[TransformRecord, ...]
    target: TransformRecord

    def apply_features(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != len(self.features):
            raise ShapeError(
                f"pipeline has {len(self.features)} feature records, data has "
                f"{X.shape[1]} columns"
            )
        return np.column_stack([r.apply(X[:, j]) for j, r in enumerate(self.features)])

    def apply_target(self, y):
        return self.target.apply(y)

    def invert_target(self, t):
        return self.target.invert(t)

    def to_dict(self) -> dict:
        return {
            "features": [r.to_dict() for r in self.features],
            "target": self.target.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict, what: str = "transforms") -> "TransformPipeline":
        features = member(d, "features", list, what=what)
        return cls(
            tuple(TransformRecord.from_dict(r, f"{what} feature {j}")
                  for j, r in enumerate(features)),
            TransformRecord.from_dict(member(d, "target", dict, what=what), f"{what} target"),
        )


# =========================
# DataSet
# =========================

@dataclass(frozen=True)
class DataSet:
    """Immutable (features, target) table with specs and transform records.

    ``pipeline`` is None for raw data; :func:`fit_transforms` returns the
    scaled twin together with the pipeline that produced it.
    """

    features: np.ndarray
    target: np.ndarray
    feature_specs: tuple[FeatureSpec, ...] = ()
    target_name: str = "y"
    pipeline: TransformPipeline | None = None

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.features, dtype=float))
        y = np.asarray(self.target, dtype=float).ravel()
        if X.shape[0] != y.shape[0]:
            raise ShapeError(f"{X.shape[0]} feature rows vs {y.shape[0]} targets")
        if not np.all(np.isfinite(X)) or not np.all(np.isfinite(y)):
            raise DataError("dataset contains NaN or Inf entries")
        specs = tuple(self.feature_specs)
        if not specs:
            specs = tuple(
                FeatureSpec(f"x{j}", -math.inf, math.inf) for j in range(X.shape[1])
            )
        if len(specs) != X.shape[1]:
            raise ShapeError(
                f"{len(specs)} feature specs vs {X.shape[1]} feature columns"
            )
        X = X.copy()
        y = y.copy()
        X.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "target", y)
        object.__setattr__(self, "feature_specs", specs)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def m(self) -> int:
        return self.features.shape[1]

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.feature_specs)

    def take(self, idx) -> "DataSet":
        """Row subset, keeping specs and pipeline."""
        idx = np.asarray(idx)
        return DataSet(
            self.features[idx], self.target[idx], self.feature_specs,
            self.target_name, self.pipeline,
        )


# =========================
# CSV I/O
# =========================

def load_csv(path, target_column: str) -> DataSet:
    """Read a raw dataset from a UTF-8, comma-separated, '.'-decimal CSV.

    The first row must be a header naming ``target_column``; every other
    column becomes a feature (bounds unknown, recorded as infinite). Rows
    with unparseable or non-finite cells are rejected with the 1-based data
    row (header excluded) in the error.
    """
    path = Path(path)
    with read_table(path) as (header, table_rows):
        if target_column not in header:
            raise DataError(f"{path}: no column named {target_column!r} (header: {header})")
        t_col = header.index(target_column)
        rows = []
        for file_row, raw in table_rows:
            if len(raw) != len(header):
                raise DataError(
                    f"{path}: row {file_row} has {len(raw)} cells, expected {len(header)}",
                    row=file_row,
                )
            try:
                vals = [float(c) for c in raw]
            except ValueError as e:
                raise DataError(
                    f"{path}: row {file_row} has an unparseable cell ({e})", row=file_row
                ) from None
            if not all(math.isfinite(v) for v in vals):
                raise DataError(f"{path}: row {file_row} contains NaN or Inf", row=file_row)
            rows.append(vals)
    if not rows:
        raise DataError(f"{path}: no data rows")
    table = np.asarray(rows, dtype=float)
    mask = np.ones(len(header), dtype=bool)
    mask[t_col] = False
    specs = tuple(
        FeatureSpec(name, -math.inf, math.inf)
        for name, keep in zip(header, mask) if keep
    )
    return DataSet(table[:, mask], table[:, t_col], specs, target_name=target_column)


def write_csv(d: DataSet, path) -> None:
    """Write the dataset as stored (raw or transformed) — exact round trip."""
    lines = [",".join([*d.feature_names, d.target_name])]
    for i in range(d.n):
        cells = [fmt_float(v) for v in d.features[i]]
        cells.append(fmt_float(d.target[i]))
        lines.append(",".join(cells))
    atomic_write_text(path, "\n".join(lines) + "\n")


# =========================
# Outlier filter and transforms
# =========================

def zscore_filter(d: DataSet, threshold: float = 3.0):
    """Drop rows whose target deviates more than ``threshold`` std devs.

    Statistics (mean and population std) are computed once on the input;
    re-filtering the survivors with the same statistics removes nothing.
    Returns (surviving DataSet, removed row indices). Zero target variance
    removes nothing and raises a warning.
    """
    if d.n < 3:
        raise DataError(f"need at least 3 rows to filter, got {d.n}")
    if not threshold > 0:
        raise DataError(f"threshold must be positive, got {threshold}")
    y = d.target
    std = float(np.std(y))
    if std == 0.0:
        warnings.warn("target has zero variance; z-score filter removed nothing")
        return d, np.empty(0, dtype=int)
    z = np.abs(y - np.mean(y)) / std
    removed = np.flatnonzero(z > threshold)
    if removed.size == 0:
        return d, removed
    return d.take(np.flatnonzero(z <= threshold)), removed


def fit_transforms(d: DataSet, target_positive: bool = False):
    """Standardize features and target; log-transform positive targets first.

    Returns (transformed DataSet, pipeline). A constant feature column
    cannot be scaled and is an error; a constant target falls back to
    scale 1 so degenerate fits stay possible.
    """
    X, y = d.features, d.target
    records = []
    for j, name in enumerate(d.feature_names):
        col = X[:, j]
        shift, scale = float(np.mean(col)), float(np.std(col))
        if scale <= 0.0 or not math.isfinite(scale):
            raise DataError(f"feature column {name!r} is constant and cannot be scaled")
        records.append(TransformRecord("standardize", shift, scale))

    if target_positive:
        bad = np.flatnonzero(y <= 0.0)
        if bad.size:
            shown = ", ".join(str(i) for i in bad[:10])
            raise DataError(
                f"target must be positive for the log transform; "
                f"non-positive at rows [{shown}]"
            )
        ty = np.log(y)
        kind = "log-then-standardize"
    else:
        ty = y
        kind = "standardize"
    t_shift, t_scale = float(np.mean(ty)), float(np.std(ty))
    if t_scale <= 0.0:
        t_scale = 1.0  # constant target: center only
    pipeline = TransformPipeline(tuple(records), TransformRecord(kind, t_shift, t_scale))

    out = DataSet(
        pipeline.apply_features(X),
        pipeline.apply_target(y),
        d.feature_specs,
        d.target_name,
        pipeline,
    )
    return out, pipeline


# =========================
# Sobol designs
# =========================

def sobol_design(specs, n: int, skip: int = 0) -> np.ndarray:
    """First ``n`` points of the unscrambled Sobol sequence over the bounds.

    ``skip`` drops that many leading sequence points (skip=1 drops the
    all-zeros point). Columns are mapped in spec order so bounds given as
    expressions can depend on features sampled before them. Deterministic:
    identical arguments give bitwise-identical output.
    """
    specs = tuple(specs)
    if n < 1:
        raise DataError(f"need n >= 1 design points, got {n}")
    if skip < 0:
        raise DataError(f"skip must be non-negative, got {skip}")
    m = len(specs)
    if m < 1:
        raise DataError("need at least one feature spec")
    if m > MAX_SOBOL_DIM:
        raise DataError(
            f"{m} dimensions exceeds the Sobol direction-number table ({MAX_SOBOL_DIM})"
        )
    _validate_spec_order(specs)
    with warnings.catch_warnings():
        # scipy warns when n is not a power of two; balance is not our contract
        warnings.simplefilter("ignore", UserWarning)
        eng = qmc.Sobol(d=m, scramble=False)
        if skip:
            eng.fast_forward(skip)
        unit = eng.random(n)
    return map_unit_points(specs, unit)


def map_unit_points(specs, unit: np.ndarray) -> np.ndarray:
    """Map [0,1]^m rows onto the feature box, honoring dependent bounds."""
    specs = tuple(specs)
    unit = np.atleast_2d(np.asarray(unit, dtype=float))
    if unit.shape[1] != len(specs):
        raise ShapeError(f"{unit.shape[1]} columns vs {len(specs)} feature specs")
    env: dict[str, np.ndarray] = {}
    cols = []
    for j, spec in enumerate(specs):
        lo, hi = spec.bounds_at(env)
        lo = np.broadcast_to(np.asarray(lo, dtype=float), unit.shape[:1])
        hi = np.broadcast_to(np.asarray(hi, dtype=float), unit.shape[:1])
        if not np.all(lo < hi):
            raise DataError(
                f"feature {spec.name!r}: lower bound meets or exceeds upper somewhere"
            )
        col = lo + unit[:, j] * (hi - lo)
        env[spec.name] = col
        cols.append(col)
    return np.column_stack(cols)
