"""Correctness checks computed apart from ``hetgp``.

Nothing here imports the package. The scenario laws are written out in
numpy from the formulas in ``src/hetgp/scenarios/*.json``, model moments
are recomputed densely from the saved model JSON, and W1 comes from
``scipy.stats.wasserstein_distance``. Every check returns a list of
failure messages; an empty list means the check passed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.stats import wasserstein_distance

# Relative diagonal boost the chained model adds to K_ZZ (a property of
# the saved model format: the file stores K_ZZ's hyperparameters, not the
# jittered matrix, so a reader must add the same boost).
KZZ_JITTER_REL = 1e-6

# Monte Carlo checks fail only beyond this many standard errors.
MC_SIGMAS = 5.0


# =========================
# Scenario laws, written out
# =========================

def s6_default_case(u, hs=1.0):
    """S6 condition rows (u, TI, alpha, Hs, Tp, Wdir) at the default case."""
    u = np.asarray(u, dtype=float)
    hs = np.broadcast_to(np.asarray(hs, dtype=float), u.shape)
    ti = 12.0 * (0.75 * u + 5.6) / u
    return np.column_stack([u, ti, np.full_like(u, 0.08), hs,
                            np.full_like(u, 7.0), np.zeros_like(u)])


def s6_law(X):
    """Exact (mean, sd) of y | x for S6."""
    u, ti, hs, tp = X[:, 0], X[:, 1], X[:, 3], X[:, 4]
    mean = (50.0 / (1.0 + np.exp(-0.9 * (u - 8.5)))
            * (1.0 - 0.012 * np.maximum(u - 11.0, 0.0))
            + 2.0 * hs + 0.6 * np.cos(tp / 4.0))
    log_var = -2.2 + 0.012 * np.minimum(ti * u, 300.0) + 0.5 * hs * np.exp(-(u - 4.0) / 5.0)
    return mean, np.exp(0.5 * log_var)


def s1_law(X):
    """Exact (mean, sd) of y | x for S1."""
    x = X[:, 0]
    return np.sin(3.0 * x), 0.1 + 0.25 * x * x


LAWS = {"S1": s1_law, "S6": s6_law}


# =========================
# Dense model moments from the saved JSON
# =========================

def _se_kernel(kernel, A, B):
    ls = np.asarray(kernel["lengthscales"], dtype=float)
    diff = A[:, None, :] - B[None, :, :]
    return kernel["signal_variance"] * np.exp(-0.5 * np.sum(diff * diff / ls, axis=2))


def _scale_features(doc, X_raw):
    recs = doc["transforms"]["features"]
    shift = np.array([r["shift"] for r in recs])
    scale = np.array([r["scale"] for r in recs])
    return (np.asarray(X_raw, dtype=float) - shift) / scale


def _target_to_physical(doc, mean_t, var_t):
    rec = doc["transforms"]["target"]
    if rec["kind"] != "standardize":
        raise ValueError(f"target transform {rec['kind']!r} is not read by the benchmark")
    return rec["shift"] + rec["scale"] * mean_t, rec["scale"] ** 2 * var_t


def gpr_moments(doc, X_raw):
    """Predictive mean and variance (noise included), physical units."""
    X = np.asarray(doc["train_X"], dtype=float)
    y = np.asarray(doc["train_y"], dtype=float)
    c = doc["mean_const"]
    K = _se_kernel(doc["kernel"], X, X) + doc["noise_variance"] * np.eye(len(y))
    Xs = _scale_features(doc, X_raw)
    Ks = _se_kernel(doc["kernel"], Xs, X)
    mean = c + Ks @ np.linalg.solve(K, y - c)
    var = (doc["kernel"]["signal_variance"]
           - np.einsum("ij,ji->i", Ks, np.linalg.solve(K, Ks.T))
           + doc["noise_variance"])
    return _target_to_physical(doc, mean, var)


def _latent(lat, Xs):
    Z = np.asarray(lat["Z"], dtype=float)
    num = Z.shape[0]
    L = np.zeros((num, num))
    L[np.tril_indices(num)] = lat["var_chol_tril"]
    sv = lat["kernel"]["signal_variance"]
    Kzz = _se_kernel(lat["kernel"], Z, Z) + KZZ_JITTER_REL * sv * np.eye(num)
    Kxz = _se_kernel(lat["kernel"], Xs, Z)
    A = np.linalg.solve(Kzz, Kxz.T).T
    c = lat["mean_const"]
    a = c + A @ (np.asarray(lat["var_mean"]) - c)
    AL = A @ L
    v = sv - np.sum(A * Kxz, axis=1) + np.sum(AL * AL, axis=1)
    return a, np.maximum(v, 0.0)


def cgp_moments(doc, X_raw):
    """Chained model: predictive mean, variance and noise sd, physical units.

    The noise sd is sqrt(E[exp(g)]), the noise part of the predictive
    variance; only the "variance" noise parameterization is read.
    """
    if doc["noise_parameterization"] != "variance":
        raise ValueError("only the 'variance' noise parameterization is read")
    Xs = _scale_features(doc, X_raw)
    a_f, v_f = _latent(doc["latent_f"], Xs)
    a_g, v_g = _latent(doc["latent_g"], Xs)
    noise_var = np.exp(a_g + 0.5 * v_g)
    mean, var = _target_to_physical(doc, a_f, v_f + noise_var)
    return mean, var, doc["transforms"]["target"]["scale"] * np.sqrt(noise_var)


def gpr_nll(X, y, theta):
    """Dense negative log marginal likelihood at packed hyperparameters.

    ``theta`` is [log l_1..log l_m, log signal var, log noise var, const],
    the order ``hetgp.gpr`` documents for its optimizer.
    """
    m = X.shape[1]
    kernel = {"lengthscales": np.exp(theta[:m]), "signal_variance": math.exp(theta[m])}
    K = _se_kernel(kernel, X, X) + math.exp(theta[m + 1]) * np.eye(len(y))
    r = y - theta[m + 2]
    sign, logdet = np.linalg.slogdet(K)
    if sign <= 0:
        return math.inf
    return float(0.5 * r @ np.linalg.solve(K, r) + 0.5 * logdet
                 + 0.5 * len(y) * math.log(2.0 * math.pi))


# =========================
# Checks
# =========================

def d_w1_scipy(ref, pred):
    ref = np.asarray(ref, dtype=float)
    return wasserstein_distance(ref, np.asarray(pred, dtype=float)) / np.std(ref)


def check_d_w1(ref_samples, pred_samples, reported, label, rtol=1e-9):
    """Each reported d_W1 equals scipy's W1 over the reference's population sd."""
    out = []
    for ci, (ref, pred, got) in enumerate(zip(ref_samples, pred_samples, reported)):
        want = d_w1_scipy(ref, pred)
        if not abs(got - want) <= rtol * max(abs(want), 1e-12):
            out.append(f"{label} d_W1 at condition {ci}: {got!r} but scipy gives {want!r}")
    return out


def check_hgpr_beats_gpr(d_w1_hgpr, d_w1_gpr):
    h, g = float(np.mean(d_w1_hgpr)), float(np.mean(d_w1_gpr))
    return [] if h < g else [f"mean d_W1 hgpr {h:.4f} is not below gpr {g:.4f}"]


def check_noise_sd(sd_true, sd_hgpr, sd_gpr):
    """The chained noise sd tracks the true sd better than GPR's constant."""
    eh = float(np.mean(np.abs(np.asarray(sd_hgpr) - sd_true)))
    eg = float(np.mean(np.abs(sd_gpr - np.asarray(sd_true))))
    return [] if eh < eg else [
        f"hgpr noise sd error {eh:.4f} is not below gpr's constant sd error {eg:.4f}"]


def check_elbo(public_elbo, trace_elbos, rtol=1e-9):
    best, first = max(trace_elbos), trace_elbos[0]
    out = []
    if not abs(public_elbo - best) <= rtol * max(abs(best), 1.0):
        out.append(f"elbo() gives {public_elbo!r}, best trace entry is {best!r}")
    if best < first:
        out.append(f"best ELBO {best!r} is below the first trace entry {first!r}")
    return out


def check_gpr_nll(nll_fitted, nll_start):
    return [] if nll_fitted <= nll_start else [
        f"dense NLL at the fit {nll_fitted!r} exceeds the default start's {nll_start!r}"]


def check_mean_agreement(mean_gpr, mean_hgpr, sigma_ref, need=4, tol=0.15):
    gaps = np.abs(np.asarray(mean_gpr) - np.asarray(mean_hgpr)) / np.asarray(sigma_ref)
    hits = int(np.sum(gaps < tol))
    return [] if hits >= need else [
        f"|mean_gpr - mean_hgpr| < {tol} sigma_ref at {hits} conditions, need {need} "
        f"(gaps in sigma_ref: {np.round(gaps, 3).tolist()})"]


def check_close(got, want, what, rtol):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    err = np.abs(got - want) / np.maximum(np.abs(want), 1e-300)
    worst = int(np.argmax(err))
    return [] if err[worst] <= rtol else [
        f"{what} row {worst}: {got[worst]!r} vs dense {want[worst]!r} "
        f"(relative error {err[worst]:.2e})"]


def _mc_failures(samples, mean, var, what):
    """Sample mean and variance within MC_SIGMAS standard errors."""
    x = np.asarray(samples, dtype=float)
    n = x.size
    xbar = x.mean()
    s2 = x.var(ddof=1)
    out = []
    if abs(xbar - mean) > MC_SIGMAS * math.sqrt(var / n):
        out.append(f"{what}: sample mean {xbar:.5g} vs {mean:.5g} "
                   f"(n={n}, sd {math.sqrt(var):.4g})")
    # standard error of the sample variance from the sample's own fourth
    # moment, so heavy-tailed mixtures get wider bounds than Gaussians
    m4 = float(np.mean((x - xbar) ** 4))
    se = math.sqrt(max(m4 - s2 * s2, 2.0 * s2 * s2) / n)
    if abs(s2 - var) > MC_SIGMAS * se:
        out.append(f"{what}: sample variance {s2:.5g} vs {var:.5g} (se {se:.3g})")
    return out


def check_samples_match_moments(per_query, label):
    """Each query's draws agree with its own mean and variance rows."""
    out = []
    for qi, st in enumerate(per_query):
        out += _mc_failures(st["samples"], st["mean"], st["variance"],
                            f"{label} query {qi}")
    return out


def check_reference_law(conditions, samples, law):
    """Replication draws agree with the closed-form conditional law."""
    mean, sd = law(np.asarray(conditions, dtype=float))
    out = []
    for ci, draws in enumerate(samples):
        out += _mc_failures(draws, mean[ci], sd[ci] ** 2, f"reference condition {ci}")
    return out


def check_row_count(n_rows, queries, draws, label):
    want = queries * (2 + draws)
    return [] if n_rows == want else [
        f"{label}: {n_rows} data rows, expected {queries} x (2 + {draws}) = {want}"]


def check_same_rows(got, want, what, atol=1e-9):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape or not np.allclose(got, want, rtol=0.0, atol=atol):
        return [f"{what}: conditions {got.tolist()} differ from {want.tolist()}"]
    return []


# =========================
# File readers (plain csv/json, not the package's parsers)
# =========================

def read_predictions(path, num_features):
    """Predictions CSV -> (per-query dicts in order, number of data rows)."""
    per_query: dict[int, dict] = {}
    rows = 0
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            cells = line.rstrip("\n").split(",")
            rows += 1
            qi = int(cells[0])
            st = per_query.setdefault(qi, {
                "x": [float(v) for v in cells[1:1 + num_features]],
                "mean": math.nan, "variance": math.nan, "samples": []})
            stat, value = cells[1 + num_features], float(cells[2 + num_features])
            if stat == "sample":
                st["samples"].append(value)
            else:
                st[stat] = value
    out = [per_query[q] for q in sorted(per_query)]
    for st in out:
        st["samples"] = np.asarray(st["samples"])
    return out, rows


def read_evaluation_csv(path):
    """Evaluation CSV -> {(condition, model, metric): value}."""
    table = {}
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            ci, model, metric, value = line.rstrip("\n").split(",")
            table[(int(ci), model, metric)] = float(value)
    return table
