"""Each benchmark check passes on a correct output and fails on a perturbed one.

    python3 -m pytest perfbench/test_checks.py -q

The model-moment tests fit tiny models with ``hetgp`` (imported from
``src/``) to produce real outputs; everything else feeds the checks
synthetic outputs with a known answer.
"""

import json
import math
import os
import sys

import numpy as np
import pytest

import checks

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from hetgp.chained import (  # noqa: E402
    CgpFitConfig, cgp_fit, cgp_predict_moments, cgp_to_dict, elbo,
)
from hetgp.data import fit_transforms  # noqa: E402
from hetgp.gpr import GprFitConfig, gpr_fit, gpr_predict, gpr_to_dict, nll_and_grad  # noqa: E402
from hetgp.synthbench import generate_dataset, load_scenario  # noqa: E402


@pytest.fixture(scope="module")
def tiny_fits():
    s = load_scenario("S1")
    d, _ = fit_transforms(generate_dataset(s, 40, "sobol", 3))
    gpr = gpr_fit(d, GprFitConfig(restarts=0, max_iters=30))
    hgpr, trace = cgp_fit(d, CgpFitConfig(num_inducing=10, max_iters=30, seed=0))
    # through JSON text, as the benchmark reads the saved files
    docs = {k: json.loads(json.dumps(v)) for k, v in
            (("gpr", gpr_to_dict(gpr)), ("hgpr", cgp_to_dict(hgpr)))}
    return d, gpr, hgpr, trace, docs


def _physical(model, mean_t, var_t):
    rec = model.transforms.target
    return rec.shift + rec.scale * mean_t, rec.scale ** 2 * var_t


def test_scenario_laws_match_the_shipped_files():
    rng = np.random.default_rng(0)
    s6 = load_scenario("S6")
    X = checks.s6_default_case(rng.uniform(4.0, 25.0, 20), rng.uniform(0.0, 6.0, 20))
    mean, sd = checks.s6_law(X)
    for i, x in enumerate(X):
        m, v = s6.conditional_law(x)
        assert math.isclose(mean[i], m, rel_tol=1e-12)
        assert math.isclose(sd[i], math.sqrt(v), rel_tol=1e-12)
        env = s6.resolve_default_case({"u": x[0], "Hs": x[3]})
        assert np.allclose([env[n] for n in s6.feature_names], x, rtol=1e-14)
    s1 = load_scenario("S1")
    X1 = rng.uniform(0.0, 1.0, (20, 1))
    mean, sd = checks.s1_law(X1)
    for i, x in enumerate(X1):
        m, v = s1.conditional_law(x)
        assert math.isclose(mean[i], m, rel_tol=1e-12)
        assert math.isclose(sd[i], math.sqrt(v), rel_tol=1e-12)


def test_dense_moments_check(tiny_fits):
    d, gpr, hgpr, _, docs = tiny_fits
    X_raw = np.linspace(0.05, 0.95, 7)[:, None]
    for model, doc, dense in ((gpr, docs["gpr"], checks.gpr_moments),
                              (hgpr, docs["hgpr"], checks.cgp_moments)):
        Xs = model.scale_features(X_raw)
        if dense is checks.gpr_moments:
            mean, var = _physical(model, *gpr_predict(model, Xs, include_noise=True))
        else:
            mean, var = _physical(model, *cgp_predict_moments(model, Xs))
        want = dense(doc, X_raw)
        assert checks.check_close(mean, want[0], "mean", 1e-8) == []
        assert checks.check_close(var, want[1], "variance", 1e-8) == []
        assert checks.check_close(mean * (1 + 1e-6), want[0], "mean", 1e-8) != []
        assert checks.check_close(var * (1 + 1e-6), want[1], "variance", 1e-8) != []


def test_gpr_nll_check(tiny_fits):
    d, gpr, _, _, docs = tiny_fits
    doc = docs["gpr"]
    fitted = np.concatenate([np.log(doc["kernel"]["lengthscales"]),
                             [math.log(doc["kernel"]["signal_variance"]),
                              math.log(doc["noise_variance"]), doc["mean_const"]]])
    start = np.array([0.0, 0.0, math.log(0.1), 0.0])
    nll_fit = checks.gpr_nll(d.features, d.target, fitted)
    assert math.isclose(nll_fit, nll_and_grad(fitted, d.features, d.target)[0], rel_tol=1e-9)
    assert checks.check_gpr_nll(nll_fit, checks.gpr_nll(d.features, d.target, start)) == []
    worse = fitted.copy()
    worse[2] += 3.0  # a noise variance twenty times the fitted one
    assert checks.check_gpr_nll(checks.gpr_nll(d.features, d.target, worse), nll_fit) != []


def test_elbo_check(tiny_fits):
    d, _, hgpr, trace, _ = tiny_fits
    elbos = [r.elbo for r in trace]
    public = elbo(hgpr, d).elbo
    assert checks.check_elbo(public, elbos) == []
    assert checks.check_elbo(public + 1e-6 * abs(public), elbos) != []
    assert checks.check_elbo(max(elbos), [max(elbos) + 1.0, *elbos]) != []


def test_noise_sd_check():
    sd_true = np.array([0.5, 1.0, 1.5])
    assert checks.check_noise_sd(sd_true, sd_true * 1.05, 1.0) == []
    assert checks.check_noise_sd(sd_true, np.full(3, 1.0), 1.0) != []


def test_hgpr_beats_gpr_check():
    assert checks.check_hgpr_beats_gpr([0.1, 0.2], [0.4, 0.5]) == []
    assert checks.check_hgpr_beats_gpr([0.4, 0.5], [0.4, 0.5]) != []


def test_d_w1_check():
    rng = np.random.default_rng(1)
    refs = [rng.normal(size=100) for _ in range(3)]
    preds = [rng.normal(0.2, 1.1, size=500) for _ in range(3)]
    good = [checks.d_w1_scipy(r, p) for r, p in zip(refs, preds)]
    assert checks.check_d_w1(refs, preds, good, "m") == []
    bad = list(good)
    bad[1] *= 1 + 1e-7
    assert checks.check_d_w1(refs, preds, bad, "m") != []
    # the population sd, not the sample sd, normalizes
    sample_sd = [g * np.std(r) / np.std(r, ddof=1) for g, r in zip(good, refs)]
    assert checks.check_d_w1(refs, preds, sample_sd, "m") != []


def test_mean_agreement_check():
    sigma = np.ones(5)
    mean_g = np.zeros(5)
    assert checks.check_mean_agreement(mean_g, np.array([0.1, 0, 0, 0, 0.5]), sigma) == []
    assert checks.check_mean_agreement(mean_g, np.array([0.2, 0, 0, 0, 0.5]), sigma) != []


def test_samples_match_moments_check():
    rng = np.random.default_rng(2)
    x = 3.0 + 2.0 * rng.standard_normal(5000)
    ok = [{"samples": x, "mean": 3.0, "variance": 4.0}]
    assert checks.check_samples_match_moments(ok, "m") == []
    shifted = [{"samples": x + 0.2, "mean": 3.0, "variance": 4.0}]
    assert checks.check_samples_match_moments(shifted, "m") != []
    widened = [{"samples": 3.0 + 1.15 * (x - 3.0), "mean": 3.0, "variance": 4.0}]
    assert checks.check_samples_match_moments(widened, "m") != []


def test_reference_law_check():
    rng = np.random.default_rng(3)
    X = checks.s6_default_case(np.array([6.0, 14.0, 22.0]))
    mean, sd = checks.s6_law(X)
    draws = [m + s * rng.standard_normal(2000) for m, s in zip(mean, sd)]
    assert checks.check_reference_law(X, draws, checks.s6_law) == []
    draws[2] = draws[2] + 0.2 * sd[2]
    assert checks.check_reference_law(X, draws, checks.s6_law) != []


def test_row_count_check():
    assert checks.check_row_count(30 * 5002, 30, 5000, "m") == []
    assert checks.check_row_count(30 * 5002 - 1, 30, 5000, "m") != []


def test_same_rows_check():
    grid = checks.s6_default_case(np.array([6.0, 10.0]))
    assert checks.check_same_rows(grid.tolist(), grid, "m") == []
    moved = grid.copy()
    moved[1, 1] += 1e-6
    assert checks.check_same_rows(moved, grid, "m") != []


def test_readers(tmp_path):
    p = tmp_path / "p.csv"
    p.write_text("query_index,x,statistic,value\n0,0.5,mean,1.0\n0,0.5,variance,2.0\n"
                 "0,0.5,sample,0.5\n0,0.5,sample,1.5\n")
    stats, rows = checks.read_predictions(p, 1)
    assert rows == 4 and stats[0]["mean"] == 1.0 and stats[0]["variance"] == 2.0
    assert stats[0]["samples"].tolist() == [0.5, 1.5]
    e = tmp_path / "e.csv"
    e.write_text("condition_index,model,metric,value\n0,reference,std,0.25\n0,hgpr,d_w1,0.1\n")
    assert checks.read_evaluation_csv(e) == {(0, "reference", "std"): 0.25,
                                             (0, "hgpr", "d_w1"): 0.1}
