"""Span tracing of ``hetgp`` from outside the package.

``Tracer.install`` rebinds the traced functions in their home module and
in every module that imported a copy by name, so calls made inside the
package are traced too. Spans (name, start, end, parent, attributes) are
kept in memory; ``layer_metrics`` turns them into calls, self time and
the computed counters per layer, and ``dump`` writes them out.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import time

# (metric prefix, home module, attribute, modules holding a copy by name)
FUNCTIONS = (
    ("kernels.kernel_matrix", "kernels", "kernel_matrix", ("gpr", "chained")),
    ("kernels.stable_cholesky", "kernels", "stable_cholesky", ("gpr", "chained")),
    ("gpr.nll_and_grad", "gpr", "nll_and_grad", ()),
    ("gpr.gpr_fit", "gpr", "gpr_fit", ("chained", "cli")),
    ("gpr.gpr_predict", "gpr", "gpr_predict", ("chained", "cli")),
    ("chained.cgp_fit", "chained", "cgp_fit", ("cli",)),
    ("chained.initial_model", "chained", "_initial_model", ()),
    ("chained.latent_posterior", "chained", "latent_posterior", ()),
    ("chained.cgp_predict_samples", "chained", "cgp_predict_samples", ("cli",)),
    ("chained.cgp_predict_moments", "chained", "cgp_predict_moments", ("cli",)),
    ("synthbench.simulate", "synthbench", "simulate", ()),
    ("synthbench.replication_reference", "synthbench", "replication_reference", ("cli",)),
    ("synthbench.generate_dataset", "synthbench", "generate_dataset", ("cli",)),
    ("metrics.wasserstein1", "metrics", "wasserstein1", ("cli",)),
    ("data.load_csv", "data", "load_csv", ("cli",)),
    ("data.write_csv", "data", "write_csv", ("cli",)),
    ("data.fit_transforms", "data", "fit_transforms", ("cli",)),
    ("io.dump_json", "_io", "dump_json", ("gpr", "chained", "synthbench", "cli")),
    ("cli.load_model", "cli", "_load_model_any", ()),
    ("cli.predict", "cli", "cmd_predict", ()),
    ("cli.sample", "cli", "cmd_sample", ()),
    ("cli.evaluate", "cli", "cmd_evaluate", ()),
)

# methods, traced on their class
METHODS = (
    ("chained.value_and_grad", "chained", "ElboObjective", "value_and_grad"),
    ("expressions.evaluate", "expressions", "Expression", "evaluate"),
)


def _kernel_matrix_attrs(args, kwargs, result):
    # float64 inputs read plus the matrix written
    A = args[1]
    B = args[2] if len(args) > 2 else kwargs.get("B")
    rows = len(A) + (0 if B is None else len(B))
    return {"bytes": 8 * (result.size + rows * len(A[0]))}


def _cholesky_attrs(args, kwargs, result):
    return {"flops": len(args[0]) ** 3 / 3.0}


def _cgp_fit_attrs(args, kwargs, result):
    return {"trace_entries": len(result[1])}


def _predict_attrs(args, kwargs, result):
    out = args[0].out
    meta = os.path.splitext(out)[0] + ".meta.json"
    return {"bytes_written": os.path.getsize(out) + os.path.getsize(meta)}


ATTRS = {
    "kernels.kernel_matrix": _kernel_matrix_attrs,
    "kernels.stable_cholesky": _cholesky_attrs,
    "chained.cgp_fit": _cgp_fit_attrs,
    "cli.predict": _predict_attrs,
}


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self, hetgp_modules: dict):
        self.modules = hetgp_modules
        self.spans: list[list] = []   # [name, start, end, parent, attrs]
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.cholesky_attempts = 0

    # ---- spans ----

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx, attrs=None):
        self.spans[idx][2] = time.perf_counter()
        self.spans[idx][4] = attrs
        self._stack.pop()

    def _wrap(self, name, fn):
        attrs_fn = ATTRS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name)
            attempts0 = tracer.cholesky_attempts
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(idx, {"raised": 1})
                raise
            attrs = attrs_fn(args, kwargs, result) if attrs_fn else None
            if name == "kernels.stable_cholesky":
                attrs["jitter_escalations"] = tracer.cholesky_attempts - attempts0 - 1
            tracer._close(idx, attrs)
            return result

        traced.__wrapped__ = fn
        return traced

    # ---- install / uninstall ----

    def _rebind(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        mods = self.modules
        for name, home, attr, copies in FUNCTIONS:
            wrapped = self._wrap(name, getattr(mods[home], attr))
            for mod in (home, *copies):
                self._rebind(mods[mod], attr, wrapped)
        for name, mod, cls, attr in METHODS:
            klass = getattr(mods[mod], cls)
            self._rebind(klass, attr, self._wrap(name, getattr(klass, attr)))
        # count factorization attempts inside stable_cholesky, so jitter
        # escalations show without a change to the package
        raw = mods["kernels"].cholesky

        def counted(*args, **kwargs):
            self.cholesky_attempts += 1
            return raw(*args, **kwargs)

        self._rebind(mods["kernels"], "cholesky", counted)

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # ---- reduction ----

    def self_times(self):
        """Per-span self time: duration minus the time its children cover."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "attrs"],
                       "spans": self.spans}, fh)


# spans under "check" are the benchmark's own checks, counted nowhere
PHASES = ("setup", "round", "check")


def _phase_of(spans, idx):
    while idx >= 0 and spans[idx][0] not in PHASES:
        idx = spans[idx][3]
    return idx


def layer_metrics(tracer: Tracer, metric_names):
    """Per-layer metrics: set-up once plus the median traced round.

    A metric ``<layer>.calls`` counts spans, ``.self_s`` sums self time,
    ``.s`` sums whole durations, and any other suffix sums that span
    attribute. ``chained.cgp_fit.accepted_steps`` and ``.rejected_steps``
    come from the ELBO calls under each fit and its trace length.
    """
    spans = tracer.spans
    selfs = tracer.self_times()
    phase_ids = [i for i, s in enumerate(spans) if s[0] in ("setup", "round")]
    tally = {p: {} for p in phase_ids}

    def add(phase, key, value):
        tally[phase][key] = tally[phase].get(key, 0.0) + value

    for i, (name, start, end, parent, attrs) in enumerate(spans):
        ph = _phase_of(spans, parent)
        if ph not in tally or i in tally:
            continue
        add(ph, name + ".calls", 1)
        add(ph, name + ".self_s", selfs[i])
        add(ph, name + ".s", end - start)
        for k, v in (attrs or {}).items():
            add(ph, f"{name}.{k}", v)
        add(ph, "trace.spans", 1)
        if name == "chained.value_and_grad" and spans[parent][0] == "chained.cgp_fit":
            add(ph, "chained.cgp_fit.elbo_calls", 1)
    for t in tally.values():
        entries = t.get("chained.cgp_fit.trace_entries", 0.0)
        t["chained.cgp_fit.accepted_steps"] = entries - t.get("chained.cgp_fit.calls", 0.0)
        t["chained.cgp_fit.rejected_steps"] = t.get("chained.cgp_fit.elbo_calls", 0.0) - entries

    setup = [tally[p] for p in phase_ids if spans[p][0] == "setup"]
    rounds = [tally[p] for p in phase_ids if spans[p][0] == "round"]
    out = {}
    for key in metric_names:
        value = sum(t.get(key, 0.0) for t in setup)
        if rounds:
            value += statistics.median(t.get(key, 0.0) for t in rounds)
        out[key] = value
    return out
