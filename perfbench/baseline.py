"""Re-measure the ROADMAP baseline rows on this machine.

    python3 perfbench/baseline.py    # a few minutes

Prints one markdown table row per ROADMAP row, the median of a few
repeats (count in brackets). BLAS threads are left as the caller set them,
and the count in effect is printed first.
"""

import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

from hetgp.chained import (  # noqa: E402
    CgpFitConfig, ElboObjective, _initial_model, cgp_predict_samples,
)
from hetgp.data import fit_transforms, zscore_filter  # noqa: E402
from hetgp.gpr import GprFitConfig, gpr_fit, nll_and_grad  # noqa: E402
from hetgp.metrics import EmpiricalDistribution, normalized_wasserstein  # noqa: E402
from hetgp.synthbench import generate_dataset, load_scenario  # noqa: E402


def timed(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), repeats


def row(what, result, scale=1.0, unit="s"):
    value, repeats = result
    print(f"| {what} | {value * scale:.3g} {unit} [{repeats}] |", flush=True)


def main():
    print(f"cores {os.cpu_count()}, HETGP_THREADS={os.environ.get('HETGP_THREADS')}, "
          f"numpy {np.__version__}")
    print("| what | time [repeats] |\n| --- | --- |")
    s6 = load_scenario("S6")
    row("`generate_dataset` S6, n=2000", timed(lambda: generate_dataset(s6, 2000, "sobol", 7), 3))
    raw = generate_dataset(s6, 2000, "sobol", 7)
    d, _ = fit_transforms(zscore_filter(raw, 3.0)[0])
    row("`gpr_fit` S6, n=2000, default config", timed(lambda: gpr_fit(d, GprFitConfig()), 1))
    theta = np.concatenate([np.zeros(7), [np.log(0.1), 0.0]])
    row("GPR `nll_and_grad`, n=2000, m=6",
        timed(lambda: nll_and_grad(theta, d.features, d.target), 5))

    rng = np.random.default_rng(0)
    models = {}
    for num in (100, 1000):
        cfg = CgpFitConfig(num_inducing=num, seed=0)
        if num == 100:
            row("`_initial_model` (coarse warm-start fit), n=2000",
                timed(lambda: _initial_model(d, cfg, np.random.default_rng(0)), 3))
        model = _initial_model(d, cfg, rng)
        obj = ElboObjective(model, d)
        theta_c = obj.pack(model)
        row(f"`ElboObjective.value_and_grad`, n=2000, M={num}",
            timed(lambda: obj.value_and_grad(theta_c), 5))
        models[num] = model
    for num, model in models.items():
        x = model.scale_features(raw.features[:1])[0]
        row(f"`cgp_predict_samples`, 1 query x 5000 draws, M={num}",
            timed(lambda: cgp_predict_samples(model, x, 5000, 1), 10), 1e3, "ms")
    ref = EmpiricalDistribution(rng.standard_normal(100))
    pred = EmpiricalDistribution(rng.standard_normal(5000))
    row("`normalized_wasserstein`, 100 vs 5000 samples",
        timed(lambda: normalized_wasserstein(ref, pred), 20), 1e3, "ms")


if __name__ == "__main__":
    main()
