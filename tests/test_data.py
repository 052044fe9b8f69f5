import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hetgp.data import (
    DataSet,
    FeatureSpec,
    TransformPipeline,
    feature_specs_from_json,
    fit_transforms,
    load_csv,
    map_unit_points,
    sobol_design,
    write_csv,
    zscore_filter,
)
from hetgp.errors import DataError
from support import apply_transforms

CSV_6D = """u,TI,alpha,Hs,Tp,Wdir,TwrBsMyt_avg
6.0,18.2,0.1,1.5,7.0,-30.0,12.5
14.0,14.1,0.12,2.0,9.0,0.0,48.1
22.0,12.3,0.09,3.5,11.0,45.0,35.7
"""


def _write(tmp_path, text, name="d.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_load_csv_shapes_and_names(tmp_path):
    d = load_csv(_write(tmp_path, CSV_6D), "TwrBsMyt_avg")
    assert (d.n, d.m) == (3, 6)
    assert d.feature_names == ("u", "TI", "alpha", "Hs", "Tp", "Wdir")
    assert d.target_name == "TwrBsMyt_avg"
    npt.assert_allclose(d.target, [12.5, 48.1, 35.7])


def test_load_csv_bad_cell_names_row(tmp_path):
    text = "x,y\n1.0,2.0\nabc,3.0\n"
    with pytest.raises(DataError, match="row 2"):
        load_csv(_write(tmp_path, text), "y")


def test_load_csv_missing_column(tmp_path):
    with pytest.raises(DataError, match="load"):
        load_csv(_write(tmp_path, CSV_6D), "load")


def test_load_csv_rejects_nan(tmp_path):
    text = "x,y\n1.0,2.0\nnan,3.0\n"
    with pytest.raises(DataError, match="row 2"):
        load_csv(_write(tmp_path, text), "y")


@given(table=arrays(
    np.float64, st.tuples(st.integers(1, 8), st.integers(2, 5)),
    elements=st.floats(allow_nan=False, allow_infinity=False),
))
def test_csv_round_trip(tmp_path_factory, table):
    d = DataSet(table[:, :-1], table[:, -1], target_name="resp")
    out = tmp_path_factory.getbasetemp() / "rt.csv"
    write_csv(d, out)
    back = load_csv(out, "resp")
    assert back.feature_names == d.feature_names
    assert back.features.tobytes() == d.features.tobytes()
    assert back.target.tobytes() == d.target.tobytes()


def test_zscore_constant_targets_removes_nothing():
    d = DataSet(np.zeros((5, 1)), np.ones(5))
    with pytest.warns(UserWarning):
        kept, removed = zscore_filter(d, 3.0)
    assert kept.n == 5
    assert removed.size == 0


def test_zscore_removes_exactly_the_outlier():
    rng = np.random.default_rng(0)
    y = np.append(rng.normal(size=99), 50.0)
    d = DataSet(np.arange(100.0)[:, None], y)
    kept, removed = zscore_filter(d, 3.0)
    npt.assert_array_equal(removed, [99])
    assert kept.n == 99
    # survivors pass a second filter untouched
    kept2, removed2 = zscore_filter(kept, 3.0)
    assert removed2.size == 0
    npt.assert_array_equal(kept2.target, kept.target)


def test_zscore_infinite_threshold_is_identity():
    rng = np.random.default_rng(8)
    d = DataSet(rng.normal(size=(30, 2)), rng.normal(scale=100, size=30))
    kept, removed = zscore_filter(d, math.inf)
    assert removed.size == 0
    npt.assert_array_equal(kept.target, d.target)


def test_zscore_needs_three_rows():
    with pytest.raises(DataError):
        zscore_filter(DataSet(np.zeros((2, 1)), np.array([0.0, 1.0])), 3.0)


def test_fit_transforms_two_point_standardization():
    d = DataSet(np.array([[0.0], [2.0]]), np.array([5.0, 7.0]))
    td, _ = fit_transforms(d)
    npt.assert_allclose(td.features[:, 0], [-1.0, 1.0], atol=1e-12)


def test_fit_transforms_log_target_hand_values():
    y = np.array([1.0, math.e ** 2, math.e ** 4])
    d = DataSet(np.array([[0.0], [1.0], [2.0]]), y)
    td, pipe = fit_transforms(d, target_positive=True)
    # log y = {0, 2, 4}; population std sqrt(8/3)
    want = np.array([-2.0, 0.0, 2.0]) / math.sqrt(8.0 / 3.0)
    npt.assert_allclose(td.target, want, atol=1e-12)
    npt.assert_allclose(want[2], math.sqrt(1.5), atol=1e-12)
    npt.assert_allclose(pipe.invert_target(td.target), y, rtol=1e-10)


def test_fit_transforms_rejects_nonpositive_target_when_log():
    d = DataSet(np.arange(3.0)[:, None], np.array([1.0, -2.0, 3.0]))
    with pytest.raises(DataError, match=r"rows \[1\]"):  # index of the offender
        fit_transforms(d, target_positive=True)


def test_fit_transforms_rejects_constant_feature():
    d = DataSet(np.ones((4, 2)), np.arange(4.0))
    with pytest.raises(DataError):
        fit_transforms(d)


def test_transformed_columns_are_standardized():
    rng = np.random.default_rng(13)
    d = DataSet(rng.uniform(3, 9, size=(200, 4)), rng.normal(5, 2, size=200))
    td, _ = fit_transforms(d)
    npt.assert_allclose(td.features.mean(axis=0), 0.0, atol=1e-10)
    npt.assert_allclose(td.features.std(axis=0), 1.0, atol=1e-10)
    assert abs(td.target.mean()) < 1e-10
    assert abs(td.target.std() - 1.0) < 1e-10


def test_pipeline_round_trip_random_positive_targets():
    rng = np.random.default_rng(21)
    d = DataSet(rng.normal(size=(50, 2)), rng.lognormal(size=50))
    td, pipe = fit_transforms(d, target_positive=True)
    npt.assert_allclose(pipe.invert_target(td.target), d.target, rtol=1e-10)
    # a fresh dataset through apply_transforms matches fit output
    again = apply_transforms(d, pipe)
    npt.assert_allclose(again.features, td.features, atol=1e-12)
    npt.assert_allclose(again.target, td.target, atol=1e-12)


def test_pipeline_serialization_round_trip():
    rng = np.random.default_rng(33)
    d = DataSet(rng.normal(size=(20, 3)), rng.lognormal(size=20))
    _, pipe = fit_transforms(d, target_positive=True)
    back = TransformPipeline.from_dict(pipe.to_dict())
    y = rng.lognormal(size=10)
    npt.assert_allclose(back.apply_target(y), pipe.apply_target(y), atol=1e-14)
    npt.assert_allclose(back.invert_target(pipe.apply_target(y)), y, rtol=1e-10)


def test_sobol_second_point_is_midpoint():
    specs = [FeatureSpec("u", 4.0, 25.0), FeatureSpec("h", 0.0, 6.0)]
    npt.assert_allclose(sobol_design(specs, 1, skip=1), [[14.5, 3.0]])


def test_sobol_containment_and_determinism():
    specs = [FeatureSpec(f"x{j}", 0.0, 1.0) for j in range(3)]
    a = sobol_design(specs, 128, skip=1)
    b = sobol_design(specs, 128, skip=1)
    npt.assert_array_equal(a, b)
    assert a.min() >= 0.0 and a.max() <= 1.0


def _star_discrepancy(P):
    # brute-force estimate over the 4^m grid of anchored boxes
    g = np.array([0.25, 0.5, 0.75, 1.0])
    m = P.shape[1]
    corners = np.stack(np.meshgrid(*[g] * m, indexing="ij"), axis=-1).reshape(-1, m)
    inside = (P[None, :, :] < corners[:, None, :]).all(axis=2).mean(axis=1)
    return np.abs(inside - corners.prod(axis=1)).max()


def test_sobol_beats_pseudorandom_discrepancy():
    specs = [FeatureSpec(f"x{j}", 0.0, 1.0) for j in range(6)]
    sob = sobol_design(specs, 1024, skip=1)
    pseudo = np.random.default_rng(0).random((1024, 6))
    assert _star_discrepancy(sob) < _star_discrepancy(pseudo)


def test_dependent_bounds_sampled_in_order():
    specs = feature_specs_from_json([
        {"name": "u", "lower": 4.0, "upper": 25.0},
        {"name": "TI", "lower": 2.5, "upper": "180 / u"},
    ])
    pts = sobol_design(specs, 64, skip=1)
    lo_ok = pts[:, 1] >= 2.5
    hi_ok = pts[:, 1] <= 180.0 / pts[:, 0]
    assert lo_ok.all() and hi_ok.all()


def test_dependent_bounds_reject_forward_reference():
    with pytest.raises(DataError, match="TI"):
        feature_specs_from_json([
            {"name": "u", "lower": 4.0, "upper": "2 * TI"},
            {"name": "TI", "lower": 2.5, "upper": 18.0},
        ])


def test_map_unit_points_hits_box_corners():
    specs = [FeatureSpec("a", -1.0, 1.0), FeatureSpec("b", 10.0, 30.0)]
    pts = map_unit_points(specs, np.array([[0.0, 0.0], [1.0, 1.0]]))
    npt.assert_allclose(pts, [[-1.0, 10.0], [1.0, 30.0]])


def test_take_keeps_specs_and_pipeline():
    rng = np.random.default_rng(4)
    specs = (FeatureSpec("x", 0.0, 1.0),)
    d = DataSet(rng.random((10, 1)), rng.random(10), feature_specs=specs)
    td, _ = fit_transforms(d)
    sub = td.take(np.array([1, 3, 5]))
    assert sub.n == 3
    assert sub.feature_specs == specs
    assert sub.pipeline is td.pipeline
