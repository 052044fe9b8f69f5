"""Benchmark of the hetgp surrogate pipeline: one command, one workload per run.

    python3 perfbench/run.py --workload s6-train --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``. The
run clears ``HETGP_THREADS`` and every ``*_NUM_THREADS`` variable first,
so BLAS runs at its own default thread count, as a user's run would. It
sets up the workload, then makes a fixed number of whole rounds, about
``--seconds`` long on the reference machine, checks the outputs against
computations made apart from the package, and prints every metric by
name and unit. The last line of standard output is one JSON object. ``--trace 1`` reports the per-layer
metrics instead, from a traced run, with the tracing overhead.
"""

import time

_T_TOP = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402


# must happen before numpy loads its BLAS
for _var in list(os.environ):
    if _var == "HETGP_THREADS" or _var.endswith("_NUM_THREADS"):
        del os.environ[_var]

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

END_TO_END = {
    "setup_s": "s",
    "train_gpr_s": "s",
    "train_hgpr_s": "s",
    "d_w1_hgpr": "1",
    "predict_hgpr_qps": "queries/s",
    "predict_gpr_qps": "queries/s",
    "reference_draws_per_s": "draws/s",
    "evaluate_conditions_per_s": "conditions/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "kernels.kernel_matrix.calls": "count",
    "kernels.kernel_matrix.self_s": "s",
    "kernels.kernel_matrix.bytes": "B",
    "kernels.stable_cholesky.calls": "count",
    "kernels.stable_cholesky.self_s": "s",
    "kernels.stable_cholesky.flops": "flop",
    "kernels.stable_cholesky.jitter_escalations": "count",
    "gpr.nll_and_grad.calls": "count",
    "gpr.nll_and_grad.self_s": "s",
    "gpr.gpr_predict.calls": "count",
    "gpr.gpr_predict.self_s": "s",
    "chained.value_and_grad.calls": "count",
    "chained.value_and_grad.self_s": "s",
    "chained.cgp_fit.accepted_steps": "count",
    "chained.cgp_fit.rejected_steps": "count",
    "chained.initial_model.s": "s",
    "chained.latent_posterior.calls": "count",
    "chained.latent_posterior.self_s": "s",
    "chained.cgp_predict_samples.calls": "count",
    "chained.cgp_predict_samples.self_s": "s",
    "synthbench.simulate.calls": "count",
    "synthbench.simulate.self_s": "s",
    "expressions.evaluate.calls": "count",
    "expressions.evaluate.self_s": "s",
    "metrics.wasserstein1.calls": "count",
    "metrics.wasserstein1.self_s": "s",
    "data.load_csv.self_s": "s",
    "data.write_csv.self_s": "s",
    "data.fit_transforms.self_s": "s",
    "cli.load_model.s": "s",
    "cli.predict.self_s": "s",
    "cli.predict.bytes_written": "B",
    "cli.evaluate.self_s": "s",
    "io.dump_json.calls": "count",
    "io.dump_json.self_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


def _blas_info(np):
    """(library description, threads in effect or None)."""
    cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    desc = f"{cfg.get('name')} {cfg.get('version')}"
    threads = None
    try:
        import ctypes
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln and ln.strip().endswith(".so")}
        for path in sorted(libs):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    threads = fn()
                    break
    except OSError:
        pass
    return desc, threads


def _aggregate(name, values):
    """One figure per metric from the calls of a run.

    Times take the fastest call and rates the highest: on a shared machine
    calls switch between a fast mode and one about twice as slow for
    seconds at a time, and the slow mode's share changes from run to run,
    so a median or a mean moves with the neighbours more than with the
    program. These are best-case figures: a change that slows only some
    calls moves them little. ``d_w1_hgpr`` averages its independent
    random streams.
    """
    if name == "d_w1_hgpr":
        return statistics.fmean(values)
    return min(values) if END_TO_END[name] == "s" else max(values)


def measure(run, rounds, phase, tracer=None):
    """Run ``rounds`` whole rounds and return what they measured.

    Returns the samples of every completed round and of the run's closing
    refits, the wall time of each round (checks excluded), the failures,
    and with a tracer the wall time of one untraced round made first, for
    the tracing overhead. An operation that fails ends the run: it is a
    failure, and the round it broke off is not counted.
    """
    import workloads

    failures: list[str] = []
    samples = {k: list(v) for k, v in run.setup_samples.items()}
    round_walls: list[float] = []
    untraced_wall = None
    try:
        if tracer:
            tracer.uninstall()
            t0, c0 = time.perf_counter(), run.check_s
            failures += run.round()[1]
            untraced_wall = time.perf_counter() - t0 - (run.check_s - c0)
            tracer.install()
        for _ in range(rounds):
            t0, c0 = time.perf_counter(), run.check_s
            with phase("round"):
                got, fails = run.round()
            round_walls.append(time.perf_counter() - t0 - (run.check_s - c0))
            failures += fails
            for k, v in got.items():
                samples.setdefault(k, []).extend(v)
        got, fails = run.finish()
        failures += fails
        for k, v in got.items():
            samples.setdefault(k, []).extend(v)
    except workloads.Failure as exc:
        failures.append(f"operation failed in round {len(round_walls) + 1}, "
                        f"which is not counted: {exc}")
    return samples, round_walls, failures, untraced_wall


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hetgp", "__init__.py")):
        print(f"error: no hetgp package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import contextlib
    import importlib
    import resource
    import shutil
    import tempfile
    import types
    from pathlib import Path

    import numpy as np

    names = ("kernels", "gpr", "chained", "synthbench", "metrics", "data",
             "expressions", "_io", "cli")
    mods = {n: importlib.import_module(f"hetgp.{n}") for n in names}
    h = types.SimpleNamespace(**{n.lstrip("_"): m for n, m in mods.items()})

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(have {sorted(workloads.WORKLOADS)})", file=sys.stderr)
        return 2

    blas, threads = _blas_info(np)
    print(f"cores {os.cpu_count()}, affinity {len(os.sched_getaffinity(0))}, "
          f"blas {blas}, blas threads {threads}, numpy {np.__version__}")

    out_root = Path(ROOT) / ".bench_out"
    out_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root))
    tracer = tracing.Tracer(mods) if args.trace else None
    phase = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    run = workloads.Run(h, args.workload, args.seed, workdir, phase)

    rounds = workloads.rounds_for(workloads.WORKLOADS[args.workload], args.seconds)
    try:
        if tracer:
            tracer.install()
        try:
            with phase("setup"):
                run.setup()
        except workloads.Failure as exc:
            print(f"FAIL set-up: {exc}", file=sys.stderr)
            return 1
        setup_s = time.perf_counter() - _T_TOP
        samples, round_walls, failures, untraced_wall = measure(run, rounds, phase, tracer)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    if not round_walls:
        for f in failures:
            print(f"FAIL {f}", file=sys.stderr)
        return 1

    if tracer:
        metrics = tracing.layer_metrics(tracer, [k for k in PER_LAYER if k != "trace.overhead_s"])
        metrics["trace.overhead_s"] = statistics.median(round_walls) - untraced_wall
        units = PER_LAYER
        trace_path = out_root / f"trace-{args.workload}-{args.seed}.json"
        tracer.dump(trace_path)
        print(f"spans written to {trace_path}")
    else:
        metrics = {k: _aggregate(k, [a / b for a, b in v]) for k, v in samples.items()}
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END

    print(f"workload {args.workload}, seed {args.seed}, {len(round_walls)} rounds "
          f"of {', '.join(f'{w:.2f}' for w in round_walls)} s")
    for k in units:
        got = [a / b for a, b in samples.get(k, [])]
        spread = f"  n={len(got)} [{min(got):.4g} .. {max(got):.4g}]" if got else ""
        print(f"  {k:45s} {metrics[k]:14.6g} {units[k]}{spread}")
    print(f"  attempted {run.attempted}, failed {run.failed}")
    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 1 if run.failed else 0


if __name__ == "__main__":
    sys.exit(main())
