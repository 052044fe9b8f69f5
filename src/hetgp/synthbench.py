"""Seeded stochastic simulator scenarios with known heteroscedastic truth.

Each scenario defines a closed-form conditional law y | x = N(mean(x),
exp(log_var(x))) over a bounded feature box, so surrogate models can be
scored against exact ground truth. Draws come from a counter-based
generator keyed by (scenario id, the bytes of x, seed): the value of a
draw depends only on that content key, never on call order, so datasets
can be generated in any order or in parallel with identical results.

Scenario definitions live in JSON files (see ``scenarios/``) using the
small expression grammar of :mod:`hetgp.expressions`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from ._io import FORMAT_VERSION, check_version, dump_json, member, read_json
from .data import DataSet, FeatureSpec, feature_specs_from_json, map_unit_points, sobol_design
from .errors import DataError, ExpressionError, FormatError, ShapeError
from .expressions import Expression
from .metrics import EmpiricalDistribution

VARIANCE_FLOOR = 1e-12


# =========================
# Scenario definition
# =========================

@dataclass(frozen=True)
class SyntheticScenario:
    id: str
    mean_fn: Expression
    log_var_fn: Expression
    feature_specs: tuple[FeatureSpec, ...]
    target_positive: bool = False
    # optional per-feature expressions giving the canonical evaluation
    # point; later features may reference earlier ones
    default_case: dict[str, Expression] | None = None

    def __post_init__(self):
        object.__setattr__(self, "feature_specs", tuple(self.feature_specs))
        for attr in ("mean_fn", "log_var_fn"):
            value = getattr(self, attr)
            if isinstance(value, str):
                object.__setattr__(self, attr, Expression.parse(value))
        names = {s.name for s in self.feature_specs}
        for expr in (self.mean_fn, self.log_var_fn):
            unknown = expr.names - names
            if unknown:
                raise ExpressionError(
                    f"scenario {self.id!r} references unknown features {sorted(unknown)}"
                )

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.feature_specs)

    @property
    def input_dim(self) -> int:
        return len(self.feature_specs)

    def conditional_law(self, x) -> tuple[float, float]:
        """Exact (mean, variance) of y | x, on the draw scale."""
        env = self._env(x)
        mean = float(self.mean_fn.evaluate(env))
        var = float(np.exp(self.log_var_fn.evaluate(env)))
        if not (np.isfinite(mean) and np.isfinite(var)):
            raise ExpressionError(
                f"scenario {self.id!r} produced non-finite law at x={list(env.values())}"
            )
        return mean, max(var, VARIANCE_FLOOR)

    def _env(self, x) -> dict:
        x = np.asarray(x, dtype=float).ravel()
        if x.size != self.input_dim:
            raise ShapeError(
                f"scenario {self.id!r} expects {self.input_dim} features, got {x.size}"
            )
        return {s.name: float(v) for s, v in zip(self.feature_specs, x)}

    def check_bounds(self, x) -> dict:
        """Validate a point against the (possibly dependent) feature bounds."""
        env = self._env(x)
        for spec in self.feature_specs:
            lo, hi = spec.bounds_at(env)
            v = env[spec.name]
            if not (lo <= v <= hi):
                raise DataError(
                    f"feature '{spec.name}' = {v} outside [{lo}, {hi}] "
                    f"for scenario {self.id!r}"
                )
        return env

    def resolve_default_case(self, assigned: dict) -> dict:
        """Complete a partial assignment using the scenario's default case.

        Features are resolved in declaration order so a default expression
        can reference any feature that comes before it.
        """
        unknown = set(assigned) - set(self.feature_names)
        if unknown:
            raise DataError(
                f"unknown features {sorted(unknown)} for scenario {self.id!r}"
            )
        env: dict = {}
        for spec in self.feature_specs:
            if spec.name in assigned:
                env[spec.name] = float(assigned[spec.name])
            elif self.default_case and spec.name in self.default_case:
                env[spec.name] = float(self.default_case[spec.name].evaluate(env))
            else:
                raise DataError(
                    f"feature '{spec.name}' is not assigned and scenario "
                    f"{self.id!r} has no default for it"
                )
        return env

    def to_dict(self) -> dict:
        doc = {
            "format_version": FORMAT_VERSION,
            "id": self.id,
            "feature_specs": [s.to_dict() for s in self.feature_specs],
            "mean_fn_expr": self.mean_fn.source,
            "log_var_fn_expr": self.log_var_fn.source,
            "target_positive": self.target_positive,
        }
        if self.default_case is not None:
            doc["default_case"] = {k: e.source for k, e in self.default_case.items()}
        return doc

    @classmethod
    def from_dict(cls, doc: dict, path=None) -> "SyntheticScenario":
        check_version(doc, "scenario", path)
        what = f"{path}: scenario document" if path else "scenario document"
        default_case = None
        if doc.get("default_case") is not None:
            default_case = {
                k: Expression.parse(v)
                for k, v in member(doc, "default_case", dict, what=what).items()
            }
        return cls(
            id=member(doc, "id", str, what=what),
            mean_fn=Expression.parse(member(doc, "mean_fn_expr", object, what=what)),
            log_var_fn=Expression.parse(member(doc, "log_var_fn_expr", object, what=what)),
            feature_specs=feature_specs_from_json(member(doc, "feature_specs", list,
                                                         what=what)),
            target_positive=bool(doc.get("target_positive", False)),
            default_case=default_case,
        )


def shipped_scenario_ids() -> tuple[str, ...]:
    files = resources.files("hetgp.scenarios")
    return tuple(sorted(
        p.name[:-5] for p in files.iterdir() if p.name.endswith(".json")
    ))


def load_scenario(id_or_path) -> SyntheticScenario:
    """Load a shipped scenario by id, or any scenario JSON by path."""
    name = str(id_or_path)
    if name in shipped_scenario_ids():
        with resources.files("hetgp.scenarios").joinpath(name + ".json").open() as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise FormatError(f"bad scenario JSON for {name!r}: {exc}") from exc
        return SyntheticScenario.from_dict(doc)
    return SyntheticScenario.from_dict(read_json(id_or_path), id_or_path)


# =========================
# Seeded simulation
# =========================

def _content_key(scenario_id: str, x: np.ndarray, seed: int) -> int:
    h = hashlib.blake2b(digest_size=16)
    h.update(scenario_id.encode("utf-8"))
    h.update(np.ascontiguousarray(x, dtype=float).tobytes())
    h.update(int(seed).to_bytes(16, "little", signed=True))
    return int.from_bytes(h.digest(), "little")


def derive_seed(master_seed: int, *indices: int) -> int:
    """Stable 63-bit seed derived from a master seed and index tuple."""
    h = hashlib.blake2b(digest_size=8)
    h.update(int(master_seed).to_bytes(16, "little", signed=True))
    for ix in indices:
        h.update(int(ix).to_bytes(8, "little", signed=True))
    return int.from_bytes(h.digest(), "little") >> 1


def simulate(s: SyntheticScenario, x, seed: int) -> float:
    """One draw from y | x, deterministic in (scenario id, x, seed)."""
    env = s.check_bounds(x)
    xv = np.asarray([env[n] for n in s.feature_names], dtype=float)
    mean, var = s.conditional_law(xv)
    rng = np.random.Generator(np.random.Philox(key=_content_key(s.id, xv, seed)))
    draw = mean + np.sqrt(var) * rng.standard_normal()
    return float(np.exp(draw)) if s.target_positive else float(draw)


def generate_dataset(s: SyntheticScenario, n: int, design: str = "sobol",
                     master_seed: int = 0) -> DataSet:
    """Design points plus one simulator draw each, as a raw DataSet.

    Each row gets its own derived seed, so the same (scenario,
    master_seed, n, design) always produces the same table.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if design == "sobol":
        X = sobol_design(s.feature_specs, n, skip=1)
    elif design == "pseudorandom":
        rng = np.random.default_rng(master_seed)
        X = map_unit_points(s.feature_specs, rng.random((n, s.input_dim)))
    else:
        raise ValueError(f"design must be 'sobol' or 'pseudorandom', got {design!r}")
    y = np.empty(n)
    for i in range(n):
        y[i] = simulate(s, X[i], derive_seed(master_seed, i))
    return DataSet(X, y, feature_specs=s.feature_specs, target_name="y")


# =========================
# Replication references
# =========================

@dataclass(frozen=True)
class ReplicationStudy:
    """Repeated draws at fixed conditions: the reference distributions."""

    conditions: np.ndarray
    replications: int
    distributions: tuple[EmpiricalDistribution, ...]
    feature_names: tuple[str, ...] | None = None
    scenario_id: str | None = None

    def __post_init__(self):
        cond = np.atleast_2d(np.asarray(self.conditions, dtype=float))
        if cond.shape[0] != len(self.distributions):
            raise ShapeError(
                f"{cond.shape[0]} conditions but {len(self.distributions)} distributions"
            )
        for i, dist in enumerate(self.distributions):
            if dist.n != self.replications:
                raise ShapeError(
                    f"condition {i} has {dist.n} samples, expected {self.replications}"
                )
        cond = cond.copy()
        cond.setflags(write=False)
        object.__setattr__(self, "conditions", cond)
        object.__setattr__(self, "distributions", tuple(self.distributions))

    @property
    def num_conditions(self) -> int:
        return self.conditions.shape[0]

    def to_dict(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "kind": "replication",
            "scenario_id": self.scenario_id,
            "feature_names": None if self.feature_names is None else list(self.feature_names),
            "replications": self.replications,
            "conditions": self.conditions.tolist(),
            "samples": [d.samples.tolist() for d in self.distributions],
        }

    @classmethod
    def from_dict(cls, doc: dict, path=None) -> "ReplicationStudy":
        check_version(doc, "replication study", path)
        if doc.get("kind") != "replication":
            raise FormatError(
                f"expected a replication document, got kind={doc.get('kind')!r}"
            )
        what = f"{path}: replication document" if path else "replication document"
        names = doc.get("feature_names")
        if names is not None:
            names = tuple(member(doc, "feature_names", list, what=what))
        samples = member(doc, "samples", list, what=what)
        for i, s in enumerate(samples):
            if not isinstance(s, list):
                raise FormatError(f"{what} member 'samples' entry {i} must be an array")
        return cls(
            conditions=np.asarray(member(doc, "conditions", list, what=what), dtype=float),
            replications=int(member(doc, "replications", float, what=what)),
            distributions=tuple(
                EmpiricalDistribution(np.asarray(s, dtype=float)) for s in samples
            ),
            feature_names=names,
            scenario_id=doc.get("scenario_id"),
        )

    def save(self, path) -> None:
        dump_json(self.to_dict(), path)

    @classmethod
    def load(cls, path) -> "ReplicationStudy":
        return cls.from_dict(read_json(path), path)


def replication_reference(s: SyntheticScenario, conditions, replications: int,
                          master_seed: int = 0) -> ReplicationStudy:
    """Reference distributions from repeated draws at fixed conditions."""
    if replications < 2:
        raise ValueError(f"replications must be >= 2, got {replications}")
    cond = np.atleast_2d(np.asarray(conditions, dtype=float))
    dists = []
    for ci in range(cond.shape[0]):
        draws = np.empty(replications)
        for r in range(replications):
            draws[r] = simulate(s, cond[ci], derive_seed(master_seed, ci, r))
        dists.append(EmpiricalDistribution(draws))
    return ReplicationStudy(
        cond, replications, tuple(dists),
        feature_names=s.feature_names, scenario_id=s.id,
    )
