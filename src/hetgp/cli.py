"""Batch command-line pipeline: sample, train, predict, evaluate, bench.

Every command is deterministic given its full flag set (seeds included),
writes output files atomically, and exits 0 on success, 2 on usage or
validation problems, 1 on runtime failures. ``--json-errors`` switches
stderr diagnostics to one-line JSON. ``--config FILE`` supplies defaults
from a flat JSON object keyed by flag name (underscores for dashes);
explicit flags win over the config file, which wins over built-ins, and
the effective settings are echoed into every report.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from ._io import (
    FORMAT_VERSION, atomic_write_text, check_version, dump_json, fmt_float, read_json, read_table,
)
from .chained import (
    CgpFitConfig,
    cgp_fit,
    cgp_from_dict,
    cgp_predict_moments,
    cgp_predict_samples,
    save_cgp,
)
from .data import fit_transforms, load_csv, write_csv, zscore_filter
from .errors import DataError, ExpressionError, FormatError, ShapeError
from .gpr import GprFitConfig, gpr_fit, gpr_from_dict, gpr_nll, gpr_predict, save_gpr
from .metrics import (
    EmpiricalDistribution,
    normalized_wasserstein,
    point_metrics,
    wasserstein1,
)
from .synthbench import (
    ReplicationStudy,
    derive_seed,
    generate_dataset,
    load_scenario,
    replication_reference,
    shipped_scenario_ids,
)

USAGE_ERRORS = (
    DataError, ShapeError, ExpressionError, FormatError, ValueError,
    FileNotFoundError,
)


# =========================
# Small helpers
# =========================

def _meta_path(path) -> Path:
    return Path(path).with_suffix(".meta.json")


def _read_sidecar(path):
    """The ``.meta.json`` sidecar of ``path``, version-checked; None if absent."""
    meta_p = _meta_path(path)
    if not meta_p.exists():
        return None
    doc = read_json(meta_p)
    check_version(doc, "sidecar", meta_p)
    return doc


def _seed(text: str) -> int:
    """The argparse type of every ``--seed``: a non-negative integer."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _config_echo(args, keys) -> dict:
    return {k: getattr(args, k) for k in keys if hasattr(args, k)}


def _emit_error(json_errors: bool, exc: BaseException) -> None:
    if json_errors:
        doc = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(doc), file=sys.stderr)
    else:
        print(f"error: {exc}", file=sys.stderr)


def _load_model_any(path):
    """Model file -> ("gpr"|"hgpr", model), dispatching on the kind field."""
    doc = read_json(path)
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if kind == "gpr":
        return "gpr", gpr_from_dict(doc, path)
    if kind == "cgp":
        return "hgpr", cgp_from_dict(doc, path)
    raise FormatError(f"{path}: unrecognized model kind {kind!r}")


# =========================
# Slice grammar
# =========================

# most query rows one slice may expand to, per sweep and over all sweeps;
# checked before anything is allocated
MAX_SLICE_QUERIES = 100_000


def _parse_slice(text: str):
    """Split 'u=6..22 step 4; Hs=1; default-case' into parts.

    Returns (fixed values, sweeps as (name, values) in clause order,
    whether default-case completion was requested).
    """
    fixed: dict[str, float] = {}
    sweeps: list[tuple[str, np.ndarray]] = []
    use_default = False
    for raw in text.split(";"):
        part = raw.strip()
        if not part:
            continue
        if part == "default-case":
            use_default = True
            continue
        if "=" not in part:
            raise DataError(f"cannot parse slice clause {part!r}")
        name, rhs = part.split("=", 1)
        name = name.strip()
        rhs = rhs.strip()
        if ".." in rhs:
            span, _, step_part = rhs.partition("step")
            lo_s, sep, hi_s = span.partition("..")
            if not sep or not step_part.strip():
                raise DataError(
                    f"slice sweep {part!r} must look like 'name=a..b step c'"
                )
            try:
                lo = float(lo_s)
                hi = float(hi_s)
                step = float(step_part)
            except ValueError:
                raise DataError(f"non-numeric value in slice sweep {part!r}") from None
            if step <= 0:
                raise DataError(f"slice sweep step must be positive in {part!r}")
            span = np.floor((hi - lo) / step + 1e-9)
            if not np.isfinite(span):
                raise DataError(f"slice sweep {part!r} needs finite bounds and step")
            count = int(span) + 1
            if count < 1:
                raise DataError(f"slice sweep {part!r} is empty")
            if count > MAX_SLICE_QUERIES:
                raise DataError(
                    f"slice sweep {part!r} has {count} values, more than the "
                    f"limit of {MAX_SLICE_QUERIES}"
                )
            sweeps.append((name, lo + step * np.arange(count)))
        else:
            try:
                fixed[name] = float(rhs)
            except ValueError:
                raise DataError(f"non-numeric value in slice clause {part!r}") from None
    total = math.prod(vals.size for _, vals in sweeps)
    if total > MAX_SLICE_QUERIES:
        raise DataError(
            f"slice expands to {total} queries, more than the limit of {MAX_SLICE_QUERIES}"
        )
    return fixed, sweeps, use_default


def _expand_slice(text: str, feature_names, scenario=None) -> np.ndarray:
    """Expand a slice spec into query rows ordered like ``feature_names``."""
    feature_names = tuple(feature_names)
    fixed, sweeps, use_default = _parse_slice(text)
    known = set(feature_names)
    for name in (*fixed, *(n for n, _ in sweeps)):
        if name not in known:
            raise DataError(f"slice names unknown feature {name!r} (have {feature_names})")
    if use_default:
        if scenario is None:
            raise DataError("slice uses default-case; pass --scenario to resolve it")
        if tuple(scenario.feature_names) != feature_names:
            raise DataError(
                f"scenario features {scenario.feature_names} do not match "
                f"{feature_names}"
            )
    rows = []
    grids = [vals for _, vals in sweeps] or [np.zeros(1)]
    for combo in itertools.product(*grids):
        assigned = dict(fixed)
        if sweeps:
            for (name, _), value in zip(sweeps, combo):
                assigned[name] = float(value)
        if use_default:
            env = scenario.resolve_default_case(assigned)
        else:
            missing = known - set(assigned)
            if missing:
                raise DataError(
                    f"slice leaves features {sorted(missing)} unassigned and "
                    "default-case was not requested"
                )
            env = assigned
        rows.append([env[n] for n in feature_names])
    return np.asarray(rows, dtype=float)


# =========================
# sample
# =========================

SAMPLE_KEYS = ("scenario", "n", "design", "seed", "replicate", "at_slice")


def cmd_sample(args) -> int:
    scenario = load_scenario(args.scenario)
    out = Path(args.out)

    if args.replicate is not None:
        if args.at_slice is None:
            raise DataError("--replicate needs --at-slice to define the conditions")
        conditions = _expand_slice(args.at_slice, scenario.feature_names, scenario)
        study = replication_reference(scenario, conditions, args.replicate, args.seed)
        doc = study.to_dict()
        doc["master_seed"] = args.seed
        doc["config"] = _config_echo(args, SAMPLE_KEYS)
        dump_json(doc, out)
        print(
            f"wrote replication study ({study.num_conditions} conditions x "
            f"{args.replicate} draws) to {out}"
        )
        return 0

    if args.n is None:
        raise DataError("--n is required (or use --replicate)")
    if args.n < 1:
        raise ValueError(f"--n must be >= 1, got {args.n}")
    d = generate_dataset(scenario, args.n, args.design, args.seed)
    write_csv(d, out)
    dump_json(
        {
            "format_version": FORMAT_VERSION,
            "kind": "dataset_meta",
            "scenario": scenario.id,
            "design": args.design,
            "master_seed": args.seed,
            "n": args.n,
            "feature_names": list(d.feature_names),
            "target_name": d.target_name,
            "target_positive": scenario.target_positive,
            "config": _config_echo(args, SAMPLE_KEYS),
        },
        _meta_path(out),
    )
    print(f"wrote {d.n} rows to {out}")
    return 0


# =========================
# train
# =========================

TRAIN_KEYS = (
    "data", "model", "target", "target_positive", "zscore", "n_train",
    "inducing", "seed", "max_iters", "learning_rate", "minibatch",
    "learn_z", "noise_param", "restarts",
)


def cmd_train(args) -> int:
    data_path = Path(args.data)
    d_raw = load_csv(data_path, args.target)
    meta = _read_sidecar(data_path) or {}
    if args.target_positive == "auto":
        target_positive = bool(meta.get("target_positive", False))
    else:
        target_positive = args.target_positive == "true"

    cap = args.n_train if args.n_train is not None else d_raw.n
    if args.model == "hgpr" and args.inducing is not None and args.inducing > cap:
        raise ValueError(f"--inducing {args.inducing} exceeds the training size {cap}")

    t0 = time.perf_counter()
    if args.zscore and args.zscore > 0 and d_raw.n >= 3:
        kept, removed = zscore_filter(d_raw, args.zscore)
    else:
        kept, removed = d_raw, np.empty(0, dtype=int)
    if args.n_train is not None:
        if args.n_train < 2:
            raise ValueError(f"--n-train must be >= 2, got {args.n_train}")
        if args.n_train > kept.n:
            raise ValueError(
                f"--n-train {args.n_train} exceeds the {kept.n} rows available "
                "after filtering"
            )
        kept = kept.take(np.arange(args.n_train))
    transformed, _ = fit_transforms(kept, target_positive=target_positive)

    if args.model == "gpr":
        cfg = GprFitConfig(
            restarts=args.restarts,
            max_iters=args.max_iters if args.max_iters is not None else 150,
            seed=args.seed,
        )
        model = gpr_fit(transformed, cfg)
        save = save_gpr
        detail = {
            "final_nll": gpr_nll(
                model.params, model.noise_variance, model.mean_const,
                transformed.features, transformed.target,
            ),
            "kernel": {
                "lengthscales": model.params.lengthscales.tolist(),
                "signal_variance": model.params.signal_variance,
            },
            "noise_variance": model.noise_variance,
            "mean_const": model.mean_const,
            "jitter": model.jitter,
        }
    else:
        num_inducing = args.inducing if args.inducing is not None else min(100, transformed.n)
        cfg = CgpFitConfig(
            num_inducing=num_inducing,
            max_iters=args.max_iters if args.max_iters is not None else 400,
            learning_rate=args.learning_rate,
            minibatch_size=args.minibatch,
            learn_Z=args.learn_z,
            seed=args.seed,
            noise_parameterization=args.noise_param,
        )
        model, trace = cgp_fit(transformed, cfg)
        save = save_cgp
        best = max(trace, key=lambda r: r.elbo)
        detail = {
            "final_elbo": best.elbo,
            "final_report": best.to_dict(),
            "elbo_trace": [r.elbo for r in trace],
            "num_inducing": num_inducing,
        }
    wall = time.perf_counter() - t0

    out = Path(args.out)
    save(model, out)
    report_path = Path(args.report) if args.report else out.with_suffix(".report.json")
    report = {
        "format_version": FORMAT_VERSION,
        "kind": "train_report",
        "model_kind": args.model,
        "data": str(data_path),
        "scenario": meta.get("scenario"),
        "rows_loaded": d_raw.n,
        "target_positive": target_positive,
        "wall_time_s": wall,
        "config": _config_echo(args, TRAIN_KEYS),
        **detail,
        "outliers_removed": int(removed.size),
        "n_train": transformed.n,
    }
    dump_json(report, report_path)
    headline = detail.get("final_elbo", detail.get("final_nll"))
    print(f"trained {args.model} on {transformed.n} rows "
          f"(objective {headline:.4f}) -> {out}")
    return 0


# =========================
# predict
# =========================

PREDICT_KEYS = ("model", "queries", "at_slice", "scenario", "samples", "seed")


def _gauss_moments_physical(transforms, mean_t, var_t):
    """Map Gaussian predictive moments back to physical units.

    Affine target transforms map exactly; log-transformed targets give a
    lognormal predictive whose moments are also closed-form.
    """
    if transforms is None:
        return float(mean_t), float(var_t)
    rec = transforms.target
    mu = rec.shift + rec.scale * mean_t
    s2 = rec.scale ** 2 * var_t
    if rec.takes_log:
        mean = np.exp(mu + 0.5 * s2)
        return float(mean), float((np.exp(s2) - 1.0) * mean * mean)
    return float(mu), float(s2)


def _predict_one(kind, model, x_raw, num_samples, qseed):
    """Per-query stats: physical-unit mean, variance, and draws."""
    Xs = model.scale_features(np.asarray(x_raw, dtype=float).reshape(1, -1))
    if kind == "gpr":
        mean_t, var_t = gpr_predict(model, Xs, include_noise=True)
        mean, var = _gauss_moments_physical(model.transforms, mean_t[0], var_t[0])
        samples = np.empty(0)
        if num_samples > 0:
            rng = np.random.default_rng(qseed)
            t = mean_t[0] + np.sqrt(var_t[0]) * rng.standard_normal(num_samples)
            samples = model.transforms.invert_target(t) if model.transforms else t
        return {"mean": mean, "variance": var, "samples": samples}

    log_target = model.transforms is not None and model.transforms.target.takes_log
    draw_count = num_samples if num_samples > 0 else (5000 if log_target else 0)
    samples = np.empty(0)
    if draw_count > 0:
        samples = cgp_predict_samples(model, Xs[0], draw_count, qseed)
    if log_target:
        # no closed-form moments through the exp; summarize the draws
        mean, var = float(np.mean(samples)), float(np.var(samples))
    else:
        mean_t, var_t = cgp_predict_moments(model, Xs)
        mean, var = _gauss_moments_physical(model.transforms, mean_t[0], var_t[0])
    return {"mean": mean, "variance": var, "samples": samples[:num_samples]}


def _write_predictions_csv(path, feature_names, queries, stats) -> None:
    lines = [",".join(["query_index", *feature_names, "statistic", "value"])]
    for qi, st in enumerate(stats):
        prefix = ",".join([str(qi), *map(fmt_float, queries[qi])])
        lines.append(f"{prefix},mean,{fmt_float(st['mean'])}")
        lines.append(f"{prefix},variance,{fmt_float(st['variance'])}")
        lines.extend(f"{prefix},sample,{v!r}" for v in st["samples"].tolist())  # = fmt_float
    atomic_write_text(path, "\n".join(lines) + "\n")


def _read_query_csv(path, feature_names) -> np.ndarray:
    """Feature columns (by name) from a CSV; extra columns are ignored."""
    with read_table(path) as (header, table_rows):
        _read_sidecar(path)
        missing = [n for n in feature_names if n not in header]
        if missing:
            raise DataError(f"{path}: missing feature columns {missing}")
        cols = [header.index(n) for n in feature_names]
        rows = []
        for data_row, raw in table_rows:
            try:
                rows.append([float(raw[c]) for c in cols])
            except (ValueError, IndexError):
                raise DataError(
                    f"{path}: row {data_row} is not a valid query row", row=data_row
                ) from None
    if not rows:
        raise DataError(f"{path}: no query rows")
    return np.asarray(rows, dtype=float)


def cmd_predict(args) -> int:
    kind, model = _load_model_any(args.model)
    if (args.queries is None) == (args.at_slice is None):
        raise DataError("exactly one of --queries or --at-slice is required")
    if args.at_slice is not None:
        scenario = load_scenario(args.scenario) if args.scenario else None
        queries = _expand_slice(args.at_slice, model.feature_names, scenario)
    else:
        queries = _read_query_csv(args.queries, model.feature_names)

    num_samples = args.samples
    if num_samples is None:
        num_samples = 5000 if kind == "hgpr" else 0
    if num_samples < 0:
        raise ValueError(f"--samples must be >= 0, got {num_samples}")

    stats = [
        _predict_one(kind, model, queries[qi], num_samples, derive_seed(args.seed, qi))
        for qi in range(queries.shape[0])
    ]
    out = Path(args.out)
    _write_predictions_csv(out, model.feature_names, queries, stats)
    dump_json(
        {
            "format_version": FORMAT_VERSION,
            "kind": "predictions_meta",
            "model": str(args.model),
            "model_kind": kind,
            "seed": args.seed,
            "samples": num_samples,
            "num_queries": int(queries.shape[0]),
            "feature_names": list(model.feature_names),
            "slice": args.at_slice,
            "queries_file": args.queries,
            "config": _config_echo(args, PREDICT_KEYS),
        },
        _meta_path(out),
    )
    print(f"wrote predictions for {queries.shape[0]} queries to {out}")
    return 0


# =========================
# evaluate
# =========================

EVALUATE_KEYS = ("reference", "predictions", "labels")


def _read_predictions(path, feature_names):
    """Predictions CSV back into per-query stat dicts (in query order).

    A query's entry is made on its first row, whose feature cells every
    later row of it must repeat; its cells are converted in one call.
    """
    expected = ["query_index", *feature_names, "statistic", "value"]
    m = len(feature_names)
    queries: dict[int, tuple] = {}  # qi -> (feature cells, {statistic: value cells})
    with read_table(path) as (header, table_rows):
        if header != expected:
            raise FormatError(f"{path}: header {header} != expected {expected}")
        for row, raw in table_rows:
            if len(raw) != len(expected):
                raise DataError(f"{path}: row {row} has {len(raw)} fields, expected "
                                f"{len(expected)}", row=row)
            try:
                qi = int(raw[0])
            except ValueError:
                raise DataError(f"{path}: row {row} has a non-integer query_index",
                                row=row) from None
            if qi not in queries:
                queries[qi] = (raw[1:1 + m], {"mean": [], "variance": [], "sample": []})
            features, values = queries[qi]
            if raw[1:1 + m] != features:
                raise DataError(f"{path}: row {row} has features {raw[1:1 + m]}, but query "
                                f"{qi} began with {features}", row=row)
            if raw[1 + m] not in values:
                raise FormatError(f"{path}: row {row} has unknown statistic {raw[1 + m]!r}")
            values[raw[1 + m]].append(raw[2 + m])
    out = []
    for qi in sorted(queries):
        features, values = queries[qi]
        try:
            v = np.array(features + values["mean"] + values["variance"] + values["sample"],
                         dtype=float)
        except ValueError:
            row = _first_non_numeric_row(path, m)
            raise DataError(f"{path}: row {row} has a non-numeric feature or value",
                            row=row) from None
        if len(values["mean"]) != 1 or len(values["variance"]) != 1:
            raise FormatError(f"{path}: query {qi} needs one mean row and one variance row")
        out.append({"features": v[:m], "mean": float(v[m]), "variance": float(v[m + 1]),
                    "samples": v[m + 2:]})
    return out


def _first_non_numeric_row(path, m):
    with read_table(path) as (_, table_rows):
        for row, raw in table_rows:
            try:
                np.array(raw[1:1 + m] + raw[2 + m:], dtype=float)
            except ValueError:
                return row


def _match_condition(condition, stats, label):
    for qi, entry in enumerate(stats):
        if np.allclose(entry["features"], condition, rtol=1e-9, atol=1e-12):
            return qi
    raise DataError(
        f"condition {condition.tolist()} has no matching query in the "
        f"predictions for {label!r}"
    )


def _evaluate_core(study: ReplicationStudy, labeled_stats):
    """Per-condition distribution metrics for each labeled prediction set."""
    feature_names = study.feature_names or tuple(
        f"x{j}" for j in range(study.conditions.shape[1])
    )
    per_condition = []
    means = {label: [] for label, _ in labeled_stats}
    d_w1s = {label: [] for label, _ in labeled_stats}
    for ci in range(study.num_conditions):
        ref = study.distributions[ci]
        cond = study.conditions[ci]
        entry = {
            "condition_index": ci,
            "condition": {n: float(v) for n, v in zip(feature_names, cond)},
            "reference_mean": ref.mean(),
            "reference_std": ref.std(),
            "results": {},
        }
        for label, stats in labeled_stats:
            qi = _match_condition(cond, stats, label)
            st = stats[qi]
            if st["samples"].size == 0:
                raise DataError(
                    f"predictions for {label!r} carry no sample rows; rerun "
                    "predict with --samples"
                )
            pred = EmpiricalDistribution(st["samples"])
            entry["results"][label] = {
                "d_w1": normalized_wasserstein(ref, pred),
                "w1": wasserstein1(ref, pred),
                "mean": st["mean"],
                "variance": st["variance"],
                "mean_abs_error": abs(st["mean"] - ref.mean()),
            }
            means[label].append(st["mean"])
            d_w1s[label].append(entry["results"][label]["d_w1"])
        per_condition.append(entry)

    ref_means = [c["reference_mean"] for c in per_condition]
    summary = {}
    for label, _ in labeled_stats:
        summary[label] = {
            "mean_d_w1": float(np.mean(d_w1s[label])),
            "max_d_w1": float(np.max(d_w1s[label])),
            "mean_vs_reference": point_metrics(ref_means, means[label]).to_dict(),
        }
    return per_condition, summary


def _evaluation_csv(per_condition) -> str:
    lines = ["condition_index,model,metric,value"]
    for entry in per_condition:
        ci = entry["condition_index"]
        lines.append(f"{ci},reference,mean,{fmt_float(entry['reference_mean'])}")
        lines.append(f"{ci},reference,std,{fmt_float(entry['reference_std'])}")
        for label in entry["results"]:
            for metric in ("d_w1", "w1", "mean", "variance"):
                value = entry["results"][label][metric]
                lines.append(f"{ci},{label},{metric},{fmt_float(value)}")
    return "\n".join(lines) + "\n"


def cmd_evaluate(args) -> int:
    study = ReplicationStudy.load(args.reference)
    if args.labels and len(args.labels) != len(args.predictions):
        raise DataError(
            f"{len(args.labels)} labels for {len(args.predictions)} prediction files"
        )
    feature_names = study.feature_names or tuple(
        f"x{j}" for j in range(study.conditions.shape[1])
    )
    labeled = []
    used = set()
    for i, ppath in enumerate(args.predictions):
        meta = _read_sidecar(ppath) or {}
        label = args.labels[i] if args.labels else meta.get("model_kind", f"model{i}")
        while label in used:
            label += "+"
        used.add(label)
        labeled.append((label, _read_predictions(ppath, feature_names)))

    t0 = time.perf_counter()
    per_condition, summary = _evaluate_core(study, labeled)
    report = {
        "format_version": FORMAT_VERSION,
        "kind": "evaluation",
        "reference": {
            "path": str(args.reference),
            "scenario": study.scenario_id,
            "replications": study.replications,
            "num_conditions": study.num_conditions,
        },
        "models": [label for label, _ in labeled],
        "per_condition": per_condition,
        "summary": summary,
        "config": _config_echo(args, EVALUATE_KEYS),
        "wall_time_s": time.perf_counter() - t0,
    }
    out = Path(args.out)
    dump_json(report, out)
    csv_path = Path(args.csv) if args.csv else out.with_suffix(".csv")
    atomic_write_text(csv_path, _evaluation_csv(per_condition))
    for label, _ in labeled:
        print(f"{label}: mean d_W1 = {summary[label]['mean_d_w1']:.4f}")
    return 0


# =========================
# bench
# =========================

BENCH_KEYS = ("scenario", "n", "inducing", "replications", "samples", "seed", "outdir")


def cmd_bench(args) -> int:
    """Run sample, train gpr and hgpr, sample --replicate, predict for each
    model and evaluate, as the commands themselves, into ``--outdir``."""
    scenario = load_scenario(args.scenario)
    o = Path(args.outdir).absolute()  # absolute, so no path reads as a flag
    o.mkdir(parents=True, exist_ok=True)
    t_start = time.perf_counter()

    # sweep the first feature across the central part of its box, fill the
    # rest from the scenario's default case
    first = scenario.feature_specs[0]
    lo, hi = first.bounds_at({})
    a, b = lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo)
    sweep = (f"{first.name}={fmt_float(a)}..{fmt_float(b)} "
             f"step {fmt_float((b - a) / 4)}; default-case")
    # "--scenario=" keeps a scenario path that starts with "-" a value
    scen, seed = f"--scenario={args.scenario}", ("--seed", args.seed)
    steps = {
        "sample": ["sample", scen, "--n", args.n, *seed, "-o", o / "data.csv"],
        "train_gpr": ["train", "--model", "gpr", "--data", o / "data.csv", *seed,
                      "-o", o / "gpr.json"],
        "train_hgpr": ["train", "--model", "hgpr", "--data", o / "data.csv",
                       "--inducing", args.inducing, *seed, "-o", o / "hgpr.json"],
        "reference": ["sample", scen, "--replicate", args.replications, "--at-slice", sweep,
                      "--seed", derive_seed(args.seed, 101), "-o", o / "reference.json"],
        "predict_gpr": ["predict", "--model", o / "gpr.json", scen, "--at-slice", sweep,
                        "--samples", args.samples, *seed, "-o", o / "p_gpr.csv"],
        "predict_hgpr": ["predict", "--model", o / "hgpr.json", scen, "--at-slice", sweep,
                         "--samples", args.samples, *seed, "-o", o / "p_hgpr.csv"],
        "evaluate": ["evaluate", "--reference", o / "reference.json", "--predictions",
                     o / "p_gpr.csv", o / "p_hgpr.csv", "--labels", "gpr", "hgpr",
                     "-o", o / "evaluation.json"],
    }
    parser = build_parser()
    timings = {}
    for name, argv in steps.items():
        step = parser.parse_args([str(v) for v in argv])
        t0 = time.perf_counter()
        rc = step.func(step)
        timings[f"{name}_s"] = time.perf_counter() - t0
        if rc:
            return rc

    ev = read_json(o / "evaluation.json")
    report = {
        "format_version": FORMAT_VERSION,
        "kind": "bench_report",
        "scenario": scenario.id,
        "n": args.n,
        "inducing": args.inducing,
        "replications": args.replications,
        "samples": args.samples,
        "per_condition": ev["per_condition"],
        "summary": ev["summary"],
        "timings_s": timings,
        "wall_time_s": time.perf_counter() - t_start,
        "config": _config_echo(args, BENCH_KEYS),
    }
    dump_json(report, o / "bench.json")
    print(f"bench artifacts in {o} ({report['wall_time_s']:.1f} s)")
    return 0


# =========================
# Parser and entry point
# =========================

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hetgp",
        description="Heteroscedastic GP surrogate pipeline for stochastic simulators.",
    )
    parser.add_argument("--version", action="version", version=f"hetgp {__version__}")
    parser.add_argument("--json-errors", action="store_true",
                        help="emit errors as one-line JSON on stderr")
    parser.add_argument("--config", metavar="FILE",
                        help="JSON file of default flag values (flags still win)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw a dataset or replication reference")
    p.add_argument("--scenario", required=True,
                   help=f"scenario id {shipped_scenario_ids()} or a JSON path")
    p.add_argument("--n", type=int, help="number of design points")
    p.add_argument("--design", choices=("sobol", "pseudorandom"), default="sobol")
    p.add_argument("--seed", type=_seed, default=0, help="master seed")
    p.add_argument("--replicate", type=int, metavar="R",
                   help="write R repeated draws per --at-slice condition instead")
    p.add_argument("--at-slice", help="conditions for --replicate, e.g. "
                   "'u=6..22 step 4; default-case'")
    p.add_argument("-o", "--out", required=True, help="output CSV (or JSON with --replicate)")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("train", help="fit a model on a dataset CSV")
    p.add_argument("--data", required=True, help="training CSV")
    p.add_argument("--model", choices=("gpr", "hgpr"), required=True)
    p.add_argument("--target", default="y", help="target column name")
    p.add_argument("--target-positive", choices=("auto", "true", "false"),
                   default="auto",
                   help="log-transform the target (auto: from the dataset sidecar)")
    p.add_argument("--zscore", type=float, default=3.0,
                   help="target outlier threshold in std devs (0 disables)")
    p.add_argument("--n-train", type=int, help="cap on training rows (after filtering)")
    p.add_argument("--inducing", type=int, help="inducing points for hgpr")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--max-iters", type=int, help="optimizer iterations")
    p.add_argument("--learning-rate", type=float, default=1e-2)
    p.add_argument("--minibatch", type=int, help="minibatch size (default full batch)")
    p.add_argument("--learn-z", action="store_true", help="optimize inducing inputs")
    p.add_argument("--noise-param", choices=("variance", "stddev"), default="variance",
                   help="read g as log noise variance or log noise stddev")
    p.add_argument("--restarts", type=int, default=3, help="gpr optimizer restarts")
    p.add_argument("-o", "--out", required=True, help="model JSON path")
    p.add_argument("--report", help="report JSON path (default <out>.report.json)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predictive stats at query points")
    p.add_argument("--model", required=True, help="model JSON from train")
    p.add_argument("--queries", help="CSV of query points (feature columns by name)")
    p.add_argument("--at-slice", help="inline query spec, e.g. 'u=6..22 step 4; default-case'")
    p.add_argument("--scenario", help="scenario id/path (needed for default-case slices)")
    p.add_argument("--samples", type=int,
                   help="predictive draws per query (default: 5000 for hgpr, 0 for gpr)")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("-o", "--out", required=True, help="predictions CSV path")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score predictions against a replication reference")
    p.add_argument("--reference", required=True, help="replication JSON from sample --replicate")
    p.add_argument("--predictions", required=True, nargs="+",
                   help="one or more predictions CSVs")
    p.add_argument("--labels", nargs="+", help="labels for the prediction files")
    p.add_argument("-o", "--out", required=True, help="evaluation report JSON")
    p.add_argument("--csv", help="evaluation CSV path (default <out>.csv)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("bench", help="quick end-to-end scenario run")
    p.add_argument("--scenario", default="S1")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--inducing", type=int, default=50)
    p.add_argument("--replications", type=int, default=100)
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--outdir", default="bench_out")
    p.set_defaults(func=cmd_bench)

    return parser


def _walk_parsers(parser):
    yield parser
    for action in parser._actions:  # noqa: SLF001 - argparse has no public walk
        if isinstance(action, argparse._SubParsersAction):
            for p in action.choices.values():
                yield from _walk_parsers(p)


def _own_dests(parser) -> set:
    return {
        a.dest
        for a in parser._actions  # noqa: SLF001
        if a.dest != "help" and not isinstance(a, argparse._SubParsersAction)
    }


def _apply_config(parser, doc) -> None:
    """Install config values as defaults everywhere the dest exists.

    Subparsers re-apply their own defaults over the shared namespace, so
    the values must be set on each subparser, not just the root.
    """
    known = set()
    for p in _walk_parsers(parser):
        dests = _own_dests(p)
        known |= dests
        hits = {k: v for k, v in doc.items() if k in dests}
        if hits:
            p.set_defaults(**hits)
    unknown = set(doc) - known
    if unknown:
        raise FormatError(f"unknown config keys {sorted(unknown)}")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--json-errors", action="store_true")
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)

    parser = build_parser()
    if known.config:
        try:
            doc = read_json(known.config)
            if not isinstance(doc, dict):
                raise FormatError(f"{known.config}: config must be a JSON object")
            _apply_config(parser, doc)
        except USAGE_ERRORS as exc:
            _emit_error(known.json_errors, exc)
            return 2

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0

    try:
        return args.func(args)
    except USAGE_ERRORS as exc:
        _emit_error(args.json_errors, exc)
        return 2
    except Exception as exc:  # runtime failures: optimizer, I/O, bad state
        _emit_error(args.json_errors, exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
