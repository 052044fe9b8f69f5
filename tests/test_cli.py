import json
import shutil
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import hetgp.chained
from hetgp import __version__
from hetgp.cli import (
    MAX_SLICE_QUERIES,
    _expand_slice,
    _parse_slice,
    _read_predictions,
    _write_predictions_csv,
    main,
)
from hetgp.errors import DataError
from hetgp.synthbench import ReplicationStudy, load_scenario

S1_SWEEP = "x=0.1..0.9 step 0.2"


def _run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One quick end-to-end run on the 1-d scenario, shared across tests."""
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "d.csv"
    assert _run("sample", "--scenario", "S1", "--n", 300, "--seed", 7, "-o", data) == 0
    assert _run(
        "train", "--model", "gpr", "--data", data, "--seed", 0,
        "-o", root / "gpr.json",
    ) == 0
    assert _run(
        "train", "--model", "hgpr", "--data", data, "--inducing", 30,
        "--max-iters", 200, "--seed", 0, "-o", root / "hgpr.json",
    ) == 0
    assert _run(
        "sample", "--scenario", "S1", "--replicate", 100, "--at-slice", S1_SWEEP,
        "--seed", 101, "-o", root / "ref.json",
    ) == 0
    for kind in ("gpr", "hgpr"):
        assert _run(
            "predict", "--model", root / f"{kind}.json", "--at-slice", S1_SWEEP,
            "--samples", 2000, "--seed", 5, "-o", root / f"p_{kind}.csv",
        ) == 0
    assert _run(
        "evaluate", "--reference", root / "ref.json",
        "--predictions", root / "p_gpr.csv", root / "p_hgpr.csv",
        "--labels", "gpr", "hgpr", "-o", root / "eval.json",
    ) == 0
    return root


# ---- slice grammar ----


def test_parse_slice_clauses():
    fixed, sweeps, use_default = _parse_slice("u=6..22 step 4; Hs=1; default-case")
    assert fixed == {"Hs": 1.0}
    assert use_default
    (name, values), = sweeps
    assert name == "u"
    np.testing.assert_allclose(values, [6.0, 10.0, 14.0, 18.0, 22.0])


def test_parse_slice_rejects_malformed_clauses():
    with pytest.raises(DataError):
        _parse_slice("u=6..22")  # sweep without a step
    with pytest.raises(DataError):
        _parse_slice("u=a..b step 1")
    with pytest.raises(DataError):
        _parse_slice("u=6..22 step -1")
    with pytest.raises(DataError):
        _parse_slice("just-words")


@pytest.mark.parametrize("text, counts", [
    ("x=0..1e9 step 1e-9", ["1000000000000000001 values"]),  # one sweep too long
    ("x=0..9999 step 1; y=0..9999 step 1", ["100000000 queries"]),  # product too long
])
def test_parse_slice_bounds_expansion_before_allocating(text, counts):
    with pytest.raises(DataError) as info:
        _parse_slice(text)
    for count in (*counts, str(MAX_SLICE_QUERIES)):
        assert count in str(info.value)


def test_expand_slice_needs_full_assignment_without_default_case():
    with pytest.raises(DataError, match="unassigned"):
        _expand_slice("x=1", ("x", "y"))
    rows = _expand_slice("x=1; y=0..1 step 0.5", ("x", "y"))
    np.testing.assert_allclose(rows, [[1, 0], [1, 0.5], [1, 1]])


# ---- top-level behavior ----


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.strip() == f"hetgp {__version__}"


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    assert "command" in capsys.readouterr().err


def test_json_errors_emit_machine_readable_stderr(tmp_path, capsys):
    rc = _run(
        "--json-errors", "sample", "--scenario", "S1", "--n", 0,
        "-o", tmp_path / "d.csv",
    )
    assert rc == 2
    err = capsys.readouterr().err.strip()
    doc = json.loads(err)
    assert doc["error"] == "ValueError"
    assert ">= 1" in doc["message"]


def test_config_file_supplies_defaults_but_flags_win(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 25, "seed": 3}))
    out = tmp_path / "d.csv"
    rc = _run(
        "--config", cfg, "sample", "--scenario", "S1", "--n", 10, "-o", out
    )
    assert rc == 0
    assert len(out.read_text().splitlines()) == 1 + 10  # the flag beat the config
    meta = json.loads((tmp_path / "d.meta.json").read_text())
    assert meta["master_seed"] == 3  # the config beat the built-in default
    assert meta["config"]["n"] == 10
    assert meta["config"]["seed"] == 3


@pytest.mark.parametrize("argv, out_flag", [
    (["sample", "--scenario", "S1", "--n", 5], "-o"),
    (["train", "--model", "gpr", "--data", "d.csv"], "-o"),
    (["predict", "--model", "m.json", "--at-slice", "x=0.5"], "-o"),
    (["bench", "--n", 20], "--outdir"),
])
def test_seed_must_be_non_negative(tmp_path, capsys, argv, out_flag):
    out = tmp_path / "out"
    assert _run(*argv, "--seed", -1, out_flag, out) == 2
    err = capsys.readouterr().err
    assert "--seed" in err and "non-negative integer" in err
    assert not out.exists()


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    rc = _run("--config", cfg, "sample", "--scenario", "S1", "--n", 5,
              "-o", tmp_path / "d.csv")
    assert rc == 2
    assert "bogus" in capsys.readouterr().err


# ---- sample ----


def test_sample_writes_csv_and_sidecar(tmp_path):
    out = tmp_path / "d.csv"
    rc = _run("sample", "--scenario", "S6", "--n", 2491, "--design", "sobol",
              "--seed", 7, "-o", out)
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 2491
    assert lines[0] == "u,TI,alpha,Hs,Tp,Wdir,y"
    meta = json.loads((tmp_path / "d.meta.json").read_text())
    assert meta["scenario"] == "S6"
    assert meta["design"] == "sobol"
    assert meta["master_seed"] == 7
    assert meta["target_positive"] is False


def test_sample_rejects_nonpositive_n(tmp_path, capsys):
    out = tmp_path / "d.csv"
    assert _run("sample", "--scenario", "S1", "--n", 0, "-o", out) == 2
    assert ">= 1" in capsys.readouterr().err
    assert not out.exists()


def test_sample_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert _run("sample", "--scenario", "S1", "--n", 64, "--seed", 9,
                    "-o", out) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sample_replicate_writes_loadable_study(tmp_path):
    out = tmp_path / "ref.json"
    rc = _run("sample", "--scenario", "S1", "--replicate", 10,
              "--at-slice", "x=0.25..0.75 step 0.25", "--seed", 4, "-o", out)
    assert rc == 0
    study = ReplicationStudy.load(out)
    assert study.num_conditions == 3
    assert study.replications == 10
    assert study.scenario_id == "S1"


def test_sample_replicate_requires_a_slice(tmp_path, capsys):
    rc = _run("sample", "--scenario", "S1", "--replicate", 5,
              "-o", tmp_path / "ref.json")
    assert rc == 2
    assert "at-slice" in capsys.readouterr().err


# ---- train ----


def test_train_hgpr_report_carries_upward_elbo_trace(pipeline):
    report = json.loads((pipeline / "hgpr.report.json").read_text())
    assert report["kind"] == "train_report"
    assert report["model_kind"] == "hgpr"
    assert report["scenario"] == "S1"  # picked up from the dataset sidecar
    trace = report["elbo_trace"]
    assert len(trace) >= 2
    assert report["final_elbo"] == max(trace)
    assert report["final_elbo"] > trace[0]
    assert report["outliers_removed"] >= 0
    assert report["config"]["inducing"] == 30


def test_train_gpr_report_carries_final_nll(pipeline):
    report = json.loads((pipeline / "gpr.report.json").read_text())
    assert report["model_kind"] == "gpr"
    assert np.isfinite(report["final_nll"])
    assert report["kernel"]["signal_variance"] > 0
    assert report["noise_variance"] > 0
    assert report["jitter"] >= 0


def test_train_rejects_inducing_above_training_size(pipeline, tmp_path, capsys):
    out = tmp_path / "m.json"
    rc = _run("train", "--model", "hgpr", "--data", pipeline / "d.csv",
              "--inducing", 50, "--n-train", 20, "-o", out)
    assert rc == 2
    assert "exceeds" in capsys.readouterr().err
    assert not out.exists()  # rejected before any fitting or writing


def test_train_rejects_unknown_target_column(pipeline, tmp_path, capsys):
    rc = _run("train", "--model", "gpr", "--data", pipeline / "d.csv",
              "--target", "load", "-o", tmp_path / "m.json")
    assert rc == 2
    assert "load" in capsys.readouterr().err


def test_train_rejects_unknown_model_kind(pipeline, tmp_path, capsys):
    rc = _run("train", "--model", "tree", "--data", pipeline / "d.csv",
              "-o", tmp_path / "m.json")
    assert rc == 2
    assert "invalid choice" in capsys.readouterr().err


# ---- predict ----


def _split_rows(path):
    lines = Path(path).read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def test_predict_single_sample_per_query(pipeline, tmp_path):
    out = tmp_path / "p.csv"
    rc = _run("predict", "--model", pipeline / "gpr.json",
              "--at-slice", "x=0.2..0.8 step 0.3", "--samples", 1, "-o", out)
    assert rc == 0
    header, rows = _split_rows(out)
    assert header == ["query_index", "x", "statistic", "value"]
    stats = [(r[0], r[2]) for r in rows]
    for qi in ("0", "1", "2"):
        assert stats.count((qi, "mean")) == 1
        assert stats.count((qi, "variance")) == 1
        assert stats.count((qi, "sample")) == 1


def test_predict_reruns_are_byte_identical(pipeline, tmp_path):
    a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
    for out, seed in ((a, 5), (b, 5), (c, 6)):
        assert _run("predict", "--model", pipeline / "hgpr.json",
                    "--at-slice", S1_SWEEP, "--samples", 100, "--seed", seed,
                    "-o", out) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_predict_from_query_csv_ignores_extra_columns(pipeline, tmp_path):
    queries = tmp_path / "q.csv"
    queries.write_text("note,x\nfirst,0.25\nsecond,0.75\n")
    out = tmp_path / "p.csv"
    rc = _run("predict", "--model", pipeline / "gpr.json", "--queries", queries,
              "--samples", 0, "-o", out)
    assert rc == 0
    _, rows = _split_rows(out)
    assert {r[1] for r in rows} == {"0.25", "0.75"}


def test_predict_rejects_missing_feature_column(pipeline, tmp_path, capsys):
    queries = tmp_path / "q.csv"
    queries.write_text("u,y\n0.5,1\n")
    rc = _run("predict", "--model", pipeline / "gpr.json", "--queries", queries,
              "-o", tmp_path / "p.csv")
    assert rc == 2
    assert "missing feature columns" in capsys.readouterr().err


def test_predict_needs_exactly_one_query_source(pipeline, tmp_path, capsys):
    rc = _run("predict", "--model", pipeline / "gpr.json", "-o", tmp_path / "p.csv")
    assert rc == 2
    assert "queries" in capsys.readouterr().err


def test_predict_rejects_non_model_json(pipeline, tmp_path, capsys):
    rc = _run("predict", "--model", pipeline / "d.meta.json",
              "--at-slice", "x=0.5", "-o", tmp_path / "p.csv")
    assert rc == 2
    assert "model kind" in capsys.readouterr().err


@pytest.mark.parametrize("kind, missing", [("cgp", "latent_f"), ("gpr", "kernel")])
def test_predict_rejects_model_missing_keys(kind, missing, tmp_path, capsys):
    model = tmp_path / "m.json"
    model.write_text(json.dumps({"format_version": 1, "kind": kind}))
    rc = _run("predict", "--model", model, "--at-slice", "x=0.5",
              "-o", tmp_path / "p.csv")
    assert rc == 2
    err = capsys.readouterr().err
    assert "missing key" in err and repr(missing) in err


@pytest.mark.parametrize("kind, members, named", [
    ("cgp", {"latent_f": 5, "latent_g": 5}, "latent_f"),
    ("cgp", {"latent_f": {"var_mean": [0.0], "var_chol_tril": [1.0], "kernel": 5}},
     "kernel"),
    ("gpr", {"kernel": 5}, "kernel"),
    ("gpr", {"kernel": {"lengthscales": [1.0], "signal_variance": [1.0]}},
     "signal_variance"),
])
def test_predict_rejects_model_members_of_wrong_type(kind, members, named, tmp_path,
                                                     capsys):
    model = tmp_path / "m.json"
    model.write_text(json.dumps({"format_version": 1, "kind": kind, **members}))
    rc = _run("predict", "--model", model, "--at-slice", "x=0.5",
              "-o", tmp_path / "p.csv")
    assert rc == 2
    err = capsys.readouterr().err
    assert "must be" in err and repr(named) in err


def test_predict_hgpr_factors_each_kzz_once(pipeline, tmp_path, monkeypatch):
    # the K_ZZ factor of each latent is shared by every query of a run
    calls = []
    real = hetgp.chained.stable_cholesky

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(hetgp.chained, "stable_cholesky", counted)
    assert _run("predict", "--model", pipeline / "hgpr.json",
                "--at-slice", S1_SWEEP, "--samples", 10,
                "-o", tmp_path / "p.csv") == 0
    assert len(calls) == 2


def test_predict_default_case_slice_matches_case_study_vector(tmp_path):
    data = tmp_path / "d6.csv"
    assert _run("sample", "--scenario", "S6", "--n", 60, "--seed", 1,
                "-o", data) == 0
    model = tmp_path / "m6.json"
    assert _run("train", "--model", "hgpr", "--data", data, "--inducing", 8,
                "--max-iters", 10, "-o", model) == 0
    out = tmp_path / "p6.csv"
    rc = _run("predict", "--model", model, "--scenario", "S6",
              "--at-slice", "u=6..22 step 4; default-case", "--samples", 1,
              "--seed", 2, "-o", out)
    assert rc == 0
    _, rows = _split_rows(out)
    by_query = {}
    for r in rows:
        by_query[int(r[0])] = [float(v) for v in r[1:7]]
    assert sorted(by_query) == [0, 1, 2, 3, 4]
    for qi, u in enumerate((6.0, 10.0, 14.0, 18.0, 22.0)):
        want = [u, 12 * (0.75 * u + 5.6) / u, 0.08, 1.0, 7.0, 0.0]
        np.testing.assert_allclose(by_query[qi], want, rtol=1e-12)


# ---- evaluate ----


def test_evaluate_identity_predictions_score_zero(tmp_path):
    ref = tmp_path / "ref.json"
    assert _run("sample", "--scenario", "S1", "--replicate", 50,
                "--at-slice", "x=0.2..0.8 step 0.3", "--seed", 3, "-o", ref) == 0
    study = ReplicationStudy.load(ref)
    lines = ["query_index,x,statistic,value"]
    for ci in range(study.num_conditions):
        x = float(study.conditions[ci, 0])
        dist = study.distributions[ci]
        lines.append(f"{ci},{x!r},mean,{float(dist.mean())!r}")
        lines.append(f"{ci},{x!r},variance,{float(dist.std()) ** 2!r}")
        for v in dist.samples:
            lines.append(f"{ci},{x!r},sample,{float(v)!r}")
    pred = tmp_path / "p.csv"
    pred.write_text("\n".join(lines) + "\n")
    out = tmp_path / "eval.json"
    assert _run("evaluate", "--reference", ref, "--predictions", pred,
                "--labels", "self", "-o", out) == 0
    report = json.loads(out.read_text())
    for entry in report["per_condition"]:
        assert entry["results"]["self"]["d_w1"] == 0.0
        assert entry["results"]["self"]["w1"] == 0.0
    assert report["summary"]["self"]["mean_d_w1"] == 0.0


def test_evaluate_report_matches_published_schema(pipeline):
    from importlib import resources

    schema = json.loads(
        resources.files("hetgp")
        .joinpath("schemas/evaluation_report.schema.json")
        .read_text()
    )
    report = json.loads((pipeline / "eval.json").read_text())
    jsonschema.validate(report, schema)


def test_evaluate_writes_condition_by_model_csv(pipeline):
    lines = (pipeline / "eval.csv").read_text().splitlines()
    assert lines[0] == "condition_index,model,metric,value"
    models = {line.split(",")[1] for line in lines[1:]}
    assert models == {"reference", "gpr", "hgpr"}


def test_evaluate_rejects_unmatched_conditions(pipeline, tmp_path, capsys):
    pred = tmp_path / "p.csv"
    pred.write_text(
        "query_index,x,statistic,value\n"
        "0,0.42,mean,0.0\n0,0.42,variance,1.0\n0,0.42,sample,0.1\n"
    )
    rc = _run("evaluate", "--reference", pipeline / "ref.json",
              "--predictions", pred, "-o", tmp_path / "eval.json")
    assert rc == 2
    assert "no matching query" in capsys.readouterr().err


def test_evaluate_rejects_label_count_mismatch(pipeline, tmp_path, capsys):
    rc = _run("evaluate", "--reference", pipeline / "ref.json",
              "--predictions", pipeline / "p_gpr.csv",
              "--labels", "a", "b", "-o", tmp_path / "eval.json")
    assert rc == 2
    assert "labels" in capsys.readouterr().err


def test_evaluate_rejects_empty_predictions_file(pipeline, tmp_path, capsys):
    pred = tmp_path / "p.csv"
    pred.write_text("")
    rc = _run("evaluate", "--reference", pipeline / "ref.json",
              "--predictions", pred, "-o", tmp_path / "eval.json")
    assert rc == 2
    assert "file is empty" in capsys.readouterr().err


@pytest.mark.parametrize("row", [
    "0,0.5",                 # short row
    "0.5,0.5,sample,1.0",    # non-integer query_index
    "0,99.0,sample,1.0",     # features differ from the query's first row
    "0,0.5,sample,abc",      # non-numeric value
])
def test_evaluate_rejects_malformed_prediction_rows(pipeline, tmp_path, capsys, row):
    pred = tmp_path / "p.csv"
    pred.write_text(f"query_index,x,statistic,value\n0,0.5,mean,0.0\n{row}\n")
    rc = _run("evaluate", "--reference", pipeline / "ref.json",
              "--predictions", pred, "-o", tmp_path / "eval.json")
    assert rc == 2
    err = capsys.readouterr().err
    assert str(pred) in err and "row 2" in err


@pytest.mark.parametrize("sidecar", [[], {"format_version": 99}])
@pytest.mark.parametrize("command", ["train", "predict", "evaluate"])
def test_bad_sidecar_exits_2(pipeline, tmp_path, capsys, command, sidecar):
    if command == "train":
        target = tmp_path / "d.csv"
        shutil.copy(pipeline / "d.csv", target)
        argv = ["train", "--model", "gpr", "--data", target, "-o", tmp_path / "m.json"]
    elif command == "predict":
        target = tmp_path / "q.csv"
        target.write_text("x\n0.5\n")
        argv = ["predict", "--model", pipeline / "gpr.json", "--queries", target,
                "-o", tmp_path / "p.csv"]
    else:
        target = tmp_path / "p.csv"
        shutil.copy(pipeline / "p_gpr.csv", target)
        argv = ["evaluate", "--reference", pipeline / "ref.json", "--predictions", target,
                "-o", tmp_path / "eval.json"]
    meta = target.with_suffix(".meta.json")
    meta.write_text(json.dumps(sidecar))
    assert _run(*argv) == 2
    assert str(meta) in capsys.readouterr().err


EDGE_FLOATS = (-0.0, 5e-324, 2.5e-310, 1e308, -1e308)
prediction_values = st.one_of(
    st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
)


@given(queries=st.lists(st.tuples(
    st.lists(prediction_values, min_size=2, max_size=2),  # features
    prediction_values, prediction_values,                 # mean, variance
    st.lists(prediction_values, max_size=20),             # samples
), min_size=1, max_size=5))
def test_predictions_csv_round_trip_is_bit_exact(tmp_path_factory, queries):
    bits = lambda v: np.asarray(v, dtype=float).tobytes()
    path = tmp_path_factory.getbasetemp() / "p_round_trip.csv"
    stats = [{"mean": mean, "variance": var, "samples": np.array(samples, dtype=float)}
             for _, mean, var, samples in queries]
    _write_predictions_csv(path, ("u", "v"), np.array([q[0] for q in queries]), stats)
    back = _read_predictions(path, ("u", "v"))
    assert len(back) == len(queries)
    for got, (features, mean, var, samples) in zip(back, queries):
        assert bits(got["features"]) == bits(features)
        assert bits(got["mean"]) == bits(mean)
        assert bits(got["variance"]) == bits(var)
        assert bits(got["samples"]) == bits(samples)


@pytest.mark.parametrize("document, key, value", [
    ("replication", "samples", 5),
    ("replication", "samples", [5]),
    ("replication", "feature_names", 5),
    ("replication", "conditions", None),
    ("scenario", "id", None),
    ("scenario", "default_case", 5),
])
def test_malformed_reference_and_scenario_documents_exit_2(
        pipeline, tmp_path, capsys, document, key, value):
    if document == "replication":
        doc = json.loads((pipeline / "ref.json").read_text())
    else:
        doc = load_scenario("S1").to_dict()
    if value is None:
        del doc[key]
    else:
        doc[key] = value
    path = tmp_path / f"{document}.json"
    path.write_text(json.dumps(doc))
    if document == "replication":
        rc = _run("evaluate", "--reference", path, "--predictions",
                  pipeline / "p_gpr.csv", "-o", tmp_path / "eval.json")
    else:
        rc = _run("sample", "--scenario", path, "--n", 5, "-o", tmp_path / "d.csv")
    assert rc == 2
    err = capsys.readouterr().err
    assert repr(key) in err and str(path) in err


def test_evaluate_rejects_sampleless_predictions(pipeline, tmp_path, capsys):
    out = tmp_path / "p.csv"
    assert _run("predict", "--model", pipeline / "gpr.json",
                "--at-slice", S1_SWEEP, "--samples", 0, "-o", out) == 0
    rc = _run("evaluate", "--reference", pipeline / "ref.json",
              "--predictions", out, "-o", tmp_path / "eval.json")
    assert rc == 2
    assert "no sample rows" in capsys.readouterr().err


# ---- bench ----


def test_bench_runs_the_commands_and_keeps_their_bytes(tmp_path):
    out = tmp_path / "bench"
    assert _run("bench", "--scenario", "S1", "--n", 60, "--inducing", 10,
                "--replications", 20, "--samples", 50, "--outdir", out) == 0
    report = json.loads((out / "bench.json").read_text())
    assert list(report) == [
        "format_version", "kind", "scenario", "n", "inducing", "replications",
        "samples", "per_condition", "summary", "timings_s", "wall_time_s", "config",
    ]
    assert list(report["timings_s"]) == [
        "sample_s", "train_gpr_s", "train_hgpr_s", "reference_s",
        "predict_gpr_s", "predict_hgpr_s", "evaluate_s",
    ]
    assert sorted(report["summary"]) == ["gpr", "hgpr"]
    assert len(report["per_condition"]) == 5

    solo = tmp_path / "solo"
    solo.mkdir()
    data = solo / "data.csv"
    assert _run("sample", "--scenario", "S1", "--n", 60, "--seed", 0, "-o", data) == 0
    assert _run("train", "--model", "gpr", "--data", data, "--seed", 0,
                "-o", solo / "gpr.json") == 0
    assert _run("train", "--model", "hgpr", "--data", data, "--inducing", 10,
                "--seed", 0, "-o", solo / "hgpr.json") == 0
    for name in ("data.csv", "gpr.json", "hgpr.json"):
        assert (out / name).read_bytes() == (solo / name).read_bytes(), name


def test_end_to_end_heteroscedastic_beats_homoscedastic_where_noisy(pipeline):
    report = json.loads((pipeline / "eval.json").read_text())
    per = report["per_condition"]
    # the 1-d scenario's noise grows with x, so the last two sweep
    # conditions have the widest reference distributions
    stds = [entry["reference_std"] for entry in per]
    assert stds == sorted(stds)
    for entry in per[-2:]:
        assert entry["results"]["hgpr"]["d_w1"] < entry["results"]["gpr"]["d_w1"]
    assert (
        report["summary"]["hgpr"]["mean_d_w1"]
        < report["summary"]["gpr"]["mean_d_w1"]
    )
