"""The benchmark's workloads: set-up, one timed round, and its checks.

Every workload runs the paper's pipeline through ``hetgp``'s public
functions and its CLI entry point ``hetgp.cli.main``: train a GPR and a
chained GP, serve the conditional pdf with ``hetgp predict``, draw the
replication reference with ``hetgp sample --replicate`` and score both
models with ``hetgp evaluate``. The train workloads time the fits; on
``s6-predict`` the fits are set-up and the serving steps are timed.

Training rows are a fixed table, as in the acceptance tests (Sobol design,
data seed 7, fit seed 0): at benchmark sizes a fresh noise draw of the
training set moves the fitted model, and with it d_W1, by tens of
percent. ``--seed`` drives everything else: the replication draws and
every predictive draw stream.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

DATA_SEED = 7
FIT_SEED = 0
DRAWS = 5000
# the GPR predict is the shortest call and the most jittery one (loading
# the model factors the n x n kernel matrix anew), so each serving repeat
# makes it this many times, with the same arguments
GPR_PREDICT_CALLS = 3


@dataclass(frozen=True)
class Spec:
    scenario: str
    n: int
    inducing: int
    max_iters: int
    at_slice: str
    replications: int
    train_in_round: bool
    # serving repeats per round; short calls repeat so that every rate has
    # calls to choose from spread over several seconds, not one instant
    serving_repeats: int
    # distinct random streams the repeats cycle through; each stream's
    # first outputs get every check, its later ones must match them byte
    # for byte
    streams: int
    # extra gpr_fit and cgp_fit calls, so the fastest fit is taken over
    # calls seconds apart: on a train workload one before each of the
    # first serving repeats, on s6-predict after the last round
    gpr_refits: int
    cgp_refits: int
    # nominal length of one round on the reference machine: a run makes
    # round(--seconds / round_s) rounds, at least one, so the number of
    # calls per run does not depend on the program's speed
    round_s: float
    # GprFitConfig overrides; empty means the default config
    gpr_config: tuple = ()


WORKLOADS = {
    # 6-d, dense n x n GPR gradient and an ELBO with M in the hundreds
    "s6-train": Spec("S6", 800, 200, 100, "u=6..22 step 4; default-case", 1000,
                     True, 16, 8, 0, 0, 60.0),
    # 1-d, small matrices: per-step overhead, warm start, BLAS threading
    "s1-train": Spec("S1", 300, 100, 200, "x=0.1..0.9 step 0.2", 1000,
                     True, 16, 16, 9, 0, 30.0),
    # serving the conditional pdf on a wind speed x wave height grid
    "s6-predict": Spec(
        "S6", 500, 300, 10, "u=6..22 step 4; Hs=0.5..5.5 step 1; default-case", 100,
        False, 1, 1, 1, 1, 4.0, (("restarts", 0), ("screen_iters", 10), ("max_iters", 20)),
    ),
}


def rounds_for(spec: Spec, seconds: float) -> int:
    """Rounds per run: fixed by ``--seconds``, not by how fast they go."""
    return max(1, round(seconds / spec.round_s))


def query_grid(spec: Spec) -> np.ndarray:
    """The query conditions, built from the scenario formulas in numpy."""
    if spec.scenario == "S1":
        return np.linspace(0.1, 0.9, 5)[:, None]
    u = np.arange(6.0, 22.0 + 1e-9, 4.0)
    if "Hs=" not in spec.at_slice:
        return checks.s6_default_case(u)
    hs = np.arange(0.5, 5.5 + 1e-9, 1.0)
    uu, hh = np.meshgrid(u, hs, indexing="ij")
    return checks.s6_default_case(uu.ravel(), hh.ravel())


def _stream(seed: int, k: int) -> int:
    return int(np.random.SeedSequence([seed, k]).generate_state(1, np.uint64)[0] >> 1)


def _add(samples, key, numerator, denominator):
    """Record one call's figure, numerator / denominator (work / seconds
    for rates, seconds / 1 for times)."""
    samples.setdefault(key, []).append((numerator, denominator))


class Failure(Exception):
    """An operation of the program raised or returned a failing exit code."""


def _cli(h, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = h.cli.main(argv)
    if rc != 0:
        raise Failure(f"hetgp {' '.join(argv)} exited {rc}: {err.getvalue().strip()}")


class Run:
    """One workload in one process: set-up, rounds, checks."""

    def __init__(self, h, name: str, seed: int, workdir: Path, span=None):
        self.h, self.seed, self.dir = h, seed, workdir
        self.spec = WORKLOADS[name]
        # wraps the checks, so a traced run keeps them out of its layers
        self.span = span or (lambda name: contextlib.nullcontext())
        self.grid = query_grid(self.spec)
        self.attempted = 0
        self.failed = 0
        self.setup_samples: dict = {}
        self.first_hashes: dict = {}
        self.check_s = 0.0  # time spent in checks, kept out of round walls

    # ---- operations ----

    def _timed(self, fn, *args):
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:
            self.failed += 1
            raise Failure(f"{getattr(fn, '__name__', fn)}: {exc!r}") from exc
        return result, time.perf_counter() - t0

    def _fit_gpr(self, samples):
        h = self.h
        gcfg = h.gpr.GprFitConfig(**dict(self.spec.gpr_config))
        gpr, t = self._timed(h.gpr.gpr_fit, self.d, gcfg)
        _add(samples, "train_gpr_s", t, 1)
        h.gpr.save_gpr(gpr, self.dir / "gpr.json")

    def _fit_cgp(self, samples):
        h, spec = self.h, self.spec
        ccfg = h.chained.CgpFitConfig(num_inducing=spec.inducing,
                                      max_iters=spec.max_iters, seed=FIT_SEED)
        (hgpr, trace), t = self._timed(h.chained.cgp_fit, self.d, ccfg)
        _add(samples, "train_hgpr_s", t, 1)
        h.chained.save_cgp(hgpr, self.dir / "hgpr.json")
        return hgpr, trace

    def _refit(self, samples, k):
        """Refit number ``k``: the same fits again, on the same data."""
        if k < self.spec.gpr_refits:
            self._fit_gpr(samples)
        if k < self.spec.cgp_refits:
            self._fit_cgp(samples)

    def setup(self):
        h, spec = self.h, self.spec
        scenario = h.synthbench.load_scenario(spec.scenario)
        raw = h.synthbench.generate_dataset(scenario, spec.n, "sobol", DATA_SEED)
        h.data.write_csv(raw, self.dir / "data.csv")
        loaded = h.data.load_csv(self.dir / "data.csv", "y")
        kept, _ = h.data.zscore_filter(loaded, 3.0)
        self.d, _ = h.data.fit_transforms(kept, target_positive=scenario.target_positive)
        if not spec.train_in_round:
            self._fit_gpr(self.setup_samples)
            self._fit_cgp(self.setup_samples)

    def round(self):
        """One pass of the pipeline.

        Returns the samples of each metric taken in this round, as
        (numerator, denominator) pairs, and the failures of the checks
        run on its outputs.
        """
        spec = self.spec
        samples: dict = {}
        fit = None
        if spec.train_in_round:
            self._fit_gpr(samples)
            fit = self._fit_cgp(samples)
        fails = []
        for k in range(spec.serving_repeats):
            if spec.train_in_round:
                self._refit(samples, k)
            stream = k % spec.streams
            self._serve(samples, stream)
            t0 = time.perf_counter()
            with self.span("check"):
                fails += self._check(stream, fit)
            self.check_s += time.perf_counter() - t0
        return samples, fails

    def finish(self):
        """After the last round: the set-up fits again, on s6-predict.

        Returns their samples and the failures of the check that they
        saved the same models, byte for byte, as the fits that were served.
        """
        samples: dict = {}
        if self.spec.train_in_round:
            return samples, []
        for k in range(max(self.spec.gpr_refits, self.spec.cgp_refits)):
            self._refit(samples, k)
        names = ("gpr.json", "hgpr.json")
        hashes = {n: hashlib.sha256((self.dir / n).read_bytes()).hexdigest() for n in names}
        return samples, [f"refitted {n} differs from the served one"
                         for n in names if hashes[n] != self.first_hashes[0][n]]

    def _serve(self, samples, k):
        """Serve and score once with stream ``k``'s random draws."""
        h, spec, d = self.h, self.spec, self.dir
        q = self.grid.shape[0]
        common = ["--at-slice", spec.at_slice, "--scenario", spec.scenario]
        for kind, stream, calls in (("hgpr", 3 * k, 1), ("gpr", 3 * k + 1, GPR_PREDICT_CALLS)):
            for _ in range(calls):
                _, t = self._timed(_cli, h, [
                    "predict", "--model", str(d / f"{kind}.json"), *common,
                    "--samples", str(DRAWS), "--seed", str(_stream(self.seed, stream)),
                    "-o", str(d / f"p_{kind}.csv")])
                _add(samples, f"predict_{kind}_qps", q, t)
        _, t = self._timed(_cli, h, [
            "sample", "--scenario", spec.scenario, "--replicate", str(spec.replications),
            "--at-slice", spec.at_slice, "--seed", str(_stream(self.seed, 3 * k + 2)),
            "-o", str(d / "ref.json")])
        _add(samples, "reference_draws_per_s", q * spec.replications, t)
        _, t = self._timed(_cli, h, [
            "evaluate", "--reference", str(d / "ref.json"), "--predictions",
            str(d / "p_gpr.csv"), str(d / "p_hgpr.csv"), "--labels", "gpr", "hgpr",
            "-o", str(d / "eval.json")])
        _add(samples, "evaluate_conditions_per_s", q, t)
        if k not in self.first_hashes:
            with open(d / "eval.json", encoding="utf-8") as fh:
                _add(samples, "d_w1_hgpr", json.load(fh)["summary"]["hgpr"]["mean_d_w1"], 1)

    # ---- checks ----

    def _check(self, k, fit) -> list[str]:
        """Every check on stream ``k``'s first outputs; later ones must repeat them."""
        names = ("gpr.json", "hgpr.json", "p_gpr.csv", "p_hgpr.csv", "ref.json", "eval.csv")
        hashes = {n: hashlib.sha256((self.dir / n).read_bytes()).hexdigest() for n in names}
        if k in self.first_hashes:
            return [f"{n} differs from stream {k}'s first output"
                    for n in names if hashes[n] != self.first_hashes[k][n]]
        self.first_hashes[k] = hashes
        fails = self._check_serving()
        if fit is not None and k == 0:
            fails += self._check_training(*fit)
        return fails

    def _check_serving(self) -> list[str]:
        spec, d, grid = self.spec, self.dir, self.grid
        q, m = grid.shape
        docs = {k: json.loads((d / f"{k}.json").read_text()) for k in ("gpr", "hgpr")}
        ref = json.loads((d / "ref.json").read_text())
        ref_samples = [np.asarray(s) for s in ref["samples"]]
        fails = checks.check_same_rows(ref["conditions"], grid, "reference")
        fails += checks.check_reference_law(grid, ref_samples, checks.LAWS[spec.scenario])
        table = checks.read_evaluation_csv(d / "eval.csv")
        # dense recomputation on a fixed subset of at most six queries
        subset = np.unique(np.linspace(0, q - 1, min(q, 6)).round().astype(int))
        for kind, moments in (("gpr", checks.gpr_moments), ("hgpr", checks.cgp_moments)):
            stats, rows = checks.read_predictions(d / f"p_{kind}.csv", m)
            fails += checks.check_row_count(rows, q, DRAWS, kind)
            fails += checks.check_same_rows([st["x"] for st in stats], grid, kind)
            dense = moments(docs[kind], grid[subset])
            for col, stat in ((0, "mean"), (1, "variance")):
                fails += checks.check_close([stats[i][stat] for i in subset], dense[col],
                                            f"{kind} {stat}", rtol=1e-8)
            fails += checks.check_samples_match_moments(stats, kind)
            fails += checks.check_d_w1(ref_samples, [st["samples"] for st in stats],
                                       [table[(ci, kind, "d_w1")] for ci in range(q)], kind)
        return fails

    def _check_training(self, hgpr, trace) -> list[str]:
        h, grid = self.h, self.grid
        gdoc = json.loads((self.dir / "gpr.json").read_text())
        hdoc = json.loads((self.dir / "hgpr.json").read_text())
        table = checks.read_evaluation_csv(self.dir / "eval.csv")
        q = grid.shape[0]
        col = lambda label, metric: np.array([table[(ci, label, metric)] for ci in range(q)])

        _, sd_true = checks.LAWS[self.spec.scenario](grid)
        _, _, sd_hgpr = checks.cgp_moments(hdoc, grid)
        sd_gpr = math.sqrt(gdoc["noise_variance"]) * gdoc["transforms"]["target"]["scale"]
        fails = checks.check_noise_sd(sd_true, sd_hgpr, sd_gpr)
        fails += checks.check_hgpr_beats_gpr(col("hgpr", "d_w1"), col("gpr", "d_w1"))
        fails += checks.check_elbo(h.chained.elbo(hgpr, self.d).elbo, [r.elbo for r in trace])
        m = self.d.features.shape[1]
        fitted = np.concatenate([np.log(gdoc["kernel"]["lengthscales"]),
                                 [math.log(gdoc["kernel"]["signal_variance"]),
                                  math.log(gdoc["noise_variance"]), gdoc["mean_const"]]])
        start = np.concatenate([np.zeros(m + 1), [math.log(0.1), 0.0]])
        X, y = self.d.features, self.d.target
        fails += checks.check_gpr_nll(checks.gpr_nll(X, y, fitted), checks.gpr_nll(X, y, start))
        fails += checks.check_mean_agreement(col("gpr", "mean"), col("hgpr", "mean"),
                                             col("reference", "std"))
        return fails
