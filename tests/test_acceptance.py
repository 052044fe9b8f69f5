"""End-to-end acceptance checks with stated tolerances and budgets.

Run with ``python3 -m pytest tests/test_acceptance.py -s`` to see one
PASS/FAIL line per criterion. The expensive two-scenario comparison
behind the distribution and mean-equivalence checks runs once as a
module fixture and is shared by the tests that score it.
"""

import math
import time

import numpy as np
import pytest

from hetgp.chained import (
    CgpFitConfig,
    ChainedGpModel,
    ElboObjective,
    LatentSparseGp,
    cgp_fit,
    cgp_predict_moments,
    elbo,
    expected_loglik_gaussian,
    gaussian_kl,
    latent_posterior,
    load_cgp,
    save_cgp,
)
from hetgp.cli import _predict_one, main
from hetgp.data import DataSet, fit_transforms, load_csv, sobol_design, write_csv, zscore_filter
from hetgp.gpr import GprFitConfig, gpr_fit, gpr_nll, gpr_predict, load_gpr, nll_and_grad, save_gpr
from hetgp.kernels import KernelParams
from hetgp.metrics import EmpiricalDistribution, normalized_wasserstein, wasserstein1
from hetgp.synthbench import derive_seed, generate_dataset, load_scenario, replication_reference
from support import collapse_model, expected_loglik_gh

pytestmark = pytest.mark.acceptance


def _verdict(name, ok, elapsed, budget, detail):
    timing = f"{elapsed:.1f} s" + ("" if budget is None else f", budget {budget:.0f} s")
    line = f"{name} {'PASS' if ok else 'FAIL'} ({timing}): {detail}"
    print(f"\n{line}")
    assert ok, line


# ---- A1: closed-form math against independent oracles ----


def test_a1_math_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(1000):
        y = rng.normal()
        a_f, v_f = rng.normal(), rng.uniform(0.0, 2.0)
        a_g, v_g = rng.uniform(-3.0, 1.5), rng.uniform(0.0, 1.5)
        closed = expected_loglik_gaussian(y, a_f, v_f, a_g, v_g)
        quad = expected_loglik_gh(y, a_f, v_f, a_g, v_g, num_nodes=50)
        worst = max(worst, abs(closed - quad))
    loglik_ok = worst < 1e-8

    A = rng.standard_normal((5, 5))
    K = A @ A.T + 5.0 * np.eye(5)
    mean = rng.standard_normal(5)
    kl_identity = abs(gaussian_kl(mean, np.linalg.cholesky(K), mean, K))
    mu = rng.standard_normal(5)
    kl_closed = abs(gaussian_kl(mu, np.eye(5), np.zeros(5), np.eye(5)) - 0.5 * mu @ mu)
    kl_ok = kl_identity < 1e-10 and kl_closed < 1e-10

    p = EmpiricalDistribution([0.0, 1.0])
    q = EmpiricalDistribution([1.0, 2.0])
    gauss_p = EmpiricalDistribution(rng.standard_normal(100_000))
    gauss_q = EmpiricalDistribution(1.0 + rng.standard_normal(100_000))
    w1_ok = (
        wasserstein1(p, p) == 0.0
        and wasserstein1(p, q) == 1.0
        and abs(wasserstein1(gauss_p, gauss_q) - 1.0) < 0.02
        and normalized_wasserstein(gauss_p, gauss_p) == 0.0
        and abs(normalized_wasserstein(gauss_p, gauss_q) - 1.0) < 0.03
        and abs(
            normalized_wasserstein(gauss_p, gauss_q)
            - normalized_wasserstein(
                EmpiricalDistribution(3.0 * gauss_p.samples),
                EmpiricalDistribution(3.0 * gauss_q.samples),
            )
        ) < 1e-10
    )

    elapsed = time.perf_counter() - t0
    _verdict(
        "A1", loglik_ok and kl_ok and w1_ok and elapsed < 10.0, elapsed, 10,
        f"loglik vs quadrature worst {worst:.2e}, KL residuals "
        f"{max(kl_identity, kl_closed):.2e}, W1 unit cases "
        f"{'ok' if w1_ok else 'failed'}",
    )


# ---- A2: gradients against central finite differences ----


def _fd_worst(value_and_grad, theta, h=1e-6, denom_floor=1e-3):
    _, grad = value_and_grad(theta)
    worst = 0.0
    for k in range(theta.size):
        tp = theta.copy(); tp[k] += h
        tm = theta.copy(); tm[k] -= h
        fd = (value_and_grad(tp)[0] - value_and_grad(tm)[0]) / (2 * h)
        worst = max(worst, abs(fd - grad[k]) / max(abs(fd), abs(grad[k]), denom_floor))
    return worst


def _random_instance(rng, m, n=20, num=5):
    X = rng.uniform(-1.5, 1.5, size=(n, m))
    y = np.sin(X[:, 0]) + 0.1 * rng.standard_normal(n)
    Z = np.linspace(-1.4, 1.4, num)[:, None] * np.ones((1, m))
    Z += rng.uniform(-0.2, 0.2, size=Z.shape)

    def latent(center):
        params = KernelParams(rng.uniform(0.6, 2.0, size=m), rng.uniform(0.5, 1.5))
        mu = center + 0.5 * rng.standard_normal(num)
        L = 0.15 * np.tril(rng.standard_normal((num, num)))
        L[np.diag_indices(num)] = rng.uniform(0.3, 1.0, size=num)
        return LatentSparseGp(params, center, Z.copy(), mu, L)

    return DataSet(X, y), ChainedGpModel(latent(0.0), latent(-0.5))


def test_a2_gradient_checks():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    worst_nll = 0.0
    for i in range(25):
        m = 1 if i % 2 == 0 else 3
        X = rng.uniform(-1.5, 1.5, size=(20, m))
        y = np.sin(X[:, 0]) + 0.1 * rng.standard_normal(20)
        theta = np.concatenate([
            np.log(rng.uniform(0.5, 2.0, size=m)),
            [math.log(rng.uniform(0.5, 2.0)), math.log(rng.uniform(0.05, 0.5)),
             rng.normal(scale=0.3)],
        ])
        worst_nll = max(worst_nll, _fd_worst(lambda t: nll_and_grad(t, X, y), theta))

    worst_elbo = 0.0
    for i in range(25):
        m = 1 if i % 2 == 0 else 3
        d, model = _random_instance(rng, m)
        obj = ElboObjective(model, d, learn_Z=(i % 3 == 0))

        def wrapped(t, obj=obj):
            rep, grad = obj.value_and_grad(t)
            return rep.elbo, grad

        worst_elbo = max(worst_elbo, _fd_worst(wrapped, obj.pack(model)))

    elapsed = time.perf_counter() - t0
    ok = worst_nll < 1e-4 and worst_elbo < 1e-4 and elapsed < 60.0
    _verdict(
        "A2", ok, elapsed, 60,
        f"25 NLL instances worst rel {worst_nll:.2e}, "
        f"25 ELBO instances worst rel {worst_elbo:.2e} (tol 1e-4)",
    )


# ---- A3: homoscedastic collapse against the exact marginal ----


def test_a3_homoscedastic_collapse():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    X = np.sort(rng.uniform(0.0, 3.0, size=200))[:, None]
    y = np.sin(2.0 * X[:, 0]) + 0.2 * rng.standard_normal(200)
    d = DataSet(X, y)

    violations = 0
    worst_excess = -np.inf
    for _ in range(100):
        params = KernelParams([rng.uniform(0.3, 2.0)], rng.uniform(0.3, 3.0))
        noise = rng.uniform(0.01, 0.5)
        const = rng.normal(scale=0.5)
        bound = elbo(collapse_model(X, y, params, noise, const), d).elbo
        log_ml = -gpr_nll(params, noise, const, X, y)
        excess = bound - log_ml
        worst_excess = max(worst_excess, excess)
        if excess > 1e-9 * max(1.0, abs(log_ml)):
            violations += 1

    fitted = gpr_fit(d, GprFitConfig(seed=0))
    matched_bound = elbo(
        collapse_model(X, y, fitted.params, fitted.noise_variance, fitted.mean_const),
        d,
    ).elbo
    matched_ml = -gpr_nll(
        fitted.params, fitted.noise_variance, fitted.mean_const, X, y
    )
    gap_per_point = (matched_ml - matched_bound) / 200.0

    elapsed = time.perf_counter() - t0
    ok = violations == 0 and gap_per_point < 1e-3 and elapsed < 120.0
    _verdict(
        "A3", ok, elapsed, 120,
        f"bound exceeded log-ML in {violations}/100 settings "
        f"(worst excess {worst_excess:.2e}), matched gap "
        f"{gap_per_point:.2e}/point (tol 1e-3)",
    )


# ---- A4: recovering input-dependent noise on the 1-d scenario ----


def test_a4_heteroscedasticity_recovery():
    t0 = time.perf_counter()
    s1 = load_scenario("S1")
    grid = np.linspace(0.0, 1.0, 200)[:, None]
    true_mean = np.sin(3.0 * grid[:, 0])
    true_logvar = 2.0 * np.log(0.1 + 0.25 * grid[:, 0] ** 2)

    passes = []
    details = []
    for seed in range(5):
        d_raw = generate_dataset(s1, 2000, master_seed=seed)
        d, pipe = fit_transforms(d_raw)
        model, _ = cgp_fit(d, CgpFitConfig(num_inducing=100, max_iters=400, seed=0))
        grid_t = pipe.apply_features(grid)
        a_f, _ = latent_posterior(model.latent_f, grid_t)
        a_g, _ = latent_posterior(model.latent_g, grid_t)
        mean_phys = pipe.target.shift + pipe.target.scale * a_f
        logvar_phys = a_g + 2.0 * math.log(pipe.target.scale)
        rmse_mean = float(np.sqrt(np.mean((mean_phys - true_mean) ** 2)))
        rmse_logvar = float(np.sqrt(np.mean((logvar_phys - true_logvar) ** 2)))
        passes.append(rmse_mean < 0.05 and rmse_logvar < 0.25)
        details.append(f"seed {seed}: mean {rmse_mean:.3f}, logvar {rmse_logvar:.3f}")

    elapsed = time.perf_counter() - t0
    ok = sum(passes) >= 4 and elapsed < 600.0
    _verdict(
        "A4", ok, elapsed, 600,
        f"{sum(passes)}/5 seeds within (0.05, 0.25); " + "; ".join(details),
    )


# ---- A5 + A6: two-scenario comparison against replication references ----

COMPARISON_SETTINGS = {
    "S1": {"inducing": 100, "max_iters": 400},
    "S6": {"inducing": 1000, "max_iters": 200},
}


@pytest.fixture(scope="module")
def comparison_runs():
    """Train GPR and H-GPR per scenario, score both against references."""
    out = {}
    for sid, setting in COMPARISON_SETTINGS.items():
        t0 = time.perf_counter()
        s = load_scenario(sid)
        d_raw = generate_dataset(s, 2000, "sobol", 7)
        kept, _ = zscore_filter(d_raw, 3.0)
        d, _ = fit_transforms(kept, target_positive=s.target_positive)
        gpr = gpr_fit(d, GprFitConfig(seed=0))
        hgpr, _ = cgp_fit(d, CgpFitConfig(
            num_inducing=setting["inducing"], max_iters=setting["max_iters"], seed=0,
        ))

        first = s.feature_specs[0]
        if sid == "S6":
            # the wind-speed sweep the replication protocol fixes
            sweep = np.array([6.0, 10.0, 14.0, 18.0, 22.0])
        else:
            lo, hi = first.bounds_at({})
            sweep = np.linspace(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), 5)
        conds = np.array([
            [s.resolve_default_case({first.name: u})[n] for n in s.feature_names]
            for u in sweep
        ])
        study = replication_reference(s, conds, 100, derive_seed(7, 101))
        sigma = np.array([math.sqrt(s.conditional_law(c)[1]) for c in conds])
        lo_s, hi_s = sigma.min(), sigma.max()
        central = (sigma >= lo_s + 0.1 * (hi_s - lo_s) - 1e-12) \
            & (sigma <= hi_s - 0.1 * (hi_s - lo_s) + 1e-12)

        rows = []
        for ci in range(5):
            ref = study.distributions[ci]
            st_g = _predict_one("gpr", gpr, conds[ci], 5000, derive_seed(7, 200 + ci))
            st_h = _predict_one("hgpr", hgpr, conds[ci], 5000, derive_seed(7, 300 + ci))
            rows.append({
                "d_w1_gpr": normalized_wasserstein(
                    ref, EmpiricalDistribution(st_g["samples"])
                ),
                "d_w1_hgpr": normalized_wasserstein(
                    ref, EmpiricalDistribution(st_h["samples"])
                ),
                "mean_gap": abs(st_g["mean"] - st_h["mean"]),
                "sigma_ref": ref.std(),
                "central": bool(central[ci]),
            })
        out[sid] = {"rows": rows, "elapsed": time.perf_counter() - t0}
    return out


def test_a5_distribution_recovery(comparison_runs):
    elapsed = sum(run["elapsed"] for run in comparison_runs.values())
    details = []
    ok = True
    for sid, run in comparison_runs.items():
        rows = run["rows"]
        mean_g = float(np.mean([r["d_w1_gpr"] for r in rows]))
        mean_h = float(np.mean([r["d_w1_hgpr"] for r in rows]))
        central_worst = max(
            (r["d_w1_hgpr"] for r in rows if r["central"]), default=0.0
        )
        ok = ok and mean_h < mean_g and central_worst < 0.5
        details.append(
            f"{sid}: mean d_W1 hgpr {mean_h:.3f} vs gpr {mean_g:.3f}, "
            f"central-80% worst hgpr {central_worst:.3f}"
        )
    _verdict("A5", ok, elapsed, None, "; ".join(details))


def test_a6_mean_equivalence(comparison_runs):
    elapsed = sum(run["elapsed"] for run in comparison_runs.values())
    rows = [r for run in comparison_runs.values() for r in run["rows"]]
    hits = sum(1 for r in rows if r["mean_gap"] < 0.15 * r["sigma_ref"])
    ok = hits >= 0.8 * len(rows)
    _verdict(
        "A6", ok, elapsed, None,
        f"|mean_GPR - mean_HGPR| < 0.15 sigma_ref at {hits}/{len(rows)} "
        "sweep conditions (need 8)",
    )


# ---- A7: pipeline plumbing and reproducibility ----


def _cli_round(root, tag):
    run = root / tag
    run.mkdir()
    data = run / "d.csv"
    steps = [
        ["sample", "--scenario", "S1", "--n", "200", "--seed", "7", "-o", str(data)],
        ["train", "--model", "gpr", "--data", str(data), "--seed", "0",
         "-o", str(run / "gpr.json")],
        ["train", "--model", "hgpr", "--data", str(data), "--inducing", "50",
         "--seed", "0", "-o", str(run / "hgpr.json")],
        ["sample", "--scenario", "S1", "--replicate", "100",
         "--at-slice", "x=0.1..0.9 step 0.2", "--seed", "101",
         "-o", str(run / "ref.json")],
        ["predict", "--model", str(run / "gpr.json"), "--at-slice",
         "x=0.1..0.9 step 0.2", "--samples", "2000", "--seed", "5",
         "-o", str(run / "p_gpr.csv")],
        ["predict", "--model", str(run / "hgpr.json"), "--at-slice",
         "x=0.1..0.9 step 0.2", "--samples", "2000", "--seed", "5",
         "-o", str(run / "p_hgpr.csv")],
        ["evaluate", "--reference", str(run / "ref.json"), "--predictions",
         str(run / "p_gpr.csv"), str(run / "p_hgpr.csv"),
         "--labels", "gpr", "hgpr", "-o", str(run / "eval.json")],
    ]
    for argv in steps:
        assert main(argv) == 0, f"{tag}: {argv[0]} failed"
    return run


def test_a7_pipeline_and_reproducibility(tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)

    X = rng.uniform(0.0, 3.0, size=(60, 2))
    y = np.sin(X[:, 0]) + 0.1 * rng.standard_normal(60)
    y[5] = 40.0
    kept, removed = zscore_filter(DataSet(X, y), 3.0)
    filter_ok = removed.tolist() == [5] and kept.n == 59

    d, pipe = fit_transforms(kept)
    back = pipe.target.shift + pipe.target.scale * d.target
    transform_ok = (
        np.max(np.abs(back - kept.target)) < 1e-12
        and np.max(np.abs(pipe.invert_target(d.target) - kept.target)) < 1e-12
    )

    specs = load_scenario("S6").feature_specs
    sobol_ok = np.array_equal(sobol_design(specs, 128), sobol_design(specs, 128))

    csv_path = tmp_path / "round.csv"
    write_csv(kept, csv_path)
    loaded = load_csv(csv_path, "y")
    csv_ok = np.array_equal(loaded.features, kept.features) \
        and np.array_equal(loaded.target, kept.target)

    gpr = gpr_fit(d, GprFitConfig(restarts=1, max_iters=60, seed=0))
    save_gpr(gpr, tmp_path / "g.json")
    grid = rng.uniform(0.0, 3.0, size=(40, 2))
    m0, v0 = gpr_predict(gpr, gpr.scale_features(grid), include_noise=True)
    m1, v1 = gpr_predict(
        load_gpr(tmp_path / "g.json"),
        gpr.scale_features(grid), include_noise=True,
    )
    hgpr, _ = cgp_fit(d, CgpFitConfig(num_inducing=12, max_iters=60, seed=0))
    save_cgp(hgpr, tmp_path / "h.json")
    h0 = cgp_predict_moments(hgpr, hgpr.scale_features(grid))
    h1 = cgp_predict_moments(load_cgp(tmp_path / "h.json"), hgpr.scale_features(grid))
    serialize_ok = (
        np.max(np.abs(m1 - m0)) < 1e-12 and np.max(np.abs(v1 - v0)) < 1e-12
        and np.max(np.abs(h1[0] - h0[0])) < 1e-12
        and np.max(np.abs(h1[1] - h0[1])) < 1e-12
    )

    run1 = _cli_round(tmp_path, "run1")
    run2 = _cli_round(tmp_path, "run2")
    deterministic_files = [
        "d.csv", "gpr.json", "hgpr.json", "ref.json",
        "p_gpr.csv", "p_hgpr.csv", "eval.csv",
    ]
    cli_ok = all(
        (run1 / name).read_bytes() == (run2 / name).read_bytes()
        for name in deterministic_files
    )

    elapsed = time.perf_counter() - t0
    ok = all([filter_ok, transform_ok, sobol_ok, csv_ok, serialize_ok, cli_ok,
              elapsed < 60.0])
    _verdict(
        "A7", ok, elapsed, 60,
        f"filter {filter_ok}, transforms {transform_ok}, sobol {sobol_ok}, "
        f"csv {csv_ok}, serialize {serialize_ok}, CLI byte-stable {cli_ok}",
    )
