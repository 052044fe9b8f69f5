import numpy as np
import numpy.testing as npt
import pytest
from scipy.stats import wasserstein_distance

from hetgp.errors import ShapeError
from hetgp.metrics import (
    EmpiricalDistribution,
    normalized_wasserstein,
    point_metrics,
    wasserstein1,
)
from support import merge_quantile_w1


def _dist(values):
    return EmpiricalDistribution(np.asarray(values, dtype=float))


def test_w1_identity():
    p = _dist([3.0, -1.0, 4.0])
    assert wasserstein1(p, p) == 0.0


def test_w1_hand_case():
    assert wasserstein1(_dist([0.0, 1.0]), _dist([1.0, 2.0])) == pytest.approx(1.0)


def test_w1_shifted_gaussians():
    rng = np.random.default_rng(17)
    p = _dist(rng.normal(0.0, 1.0, size=100_000))
    q = _dist(rng.normal(1.0, 1.0, size=100_000))
    assert wasserstein1(p, q) == pytest.approx(1.0, abs=0.02)


def test_w1_matches_scipy_unequal_counts():
    """Exact quantile integral against the scipy implementation."""
    rng = np.random.default_rng(23)
    for n, k in ((10, 7), (100, 33), (5, 400), (64, 64)):
        x = rng.normal(size=n) * rng.uniform(0.5, 2)
        y = rng.standard_gamma(2.0, size=k)
        want = wasserstein_distance(x, y)
        npt.assert_allclose(wasserstein1(_dist(x), _dist(y)), want, rtol=1e-10)


def test_w1_matches_merge_walk_reference():
    # same terms, each rounded once, and fsum: unequal counts agree bit for
    # bit; equal counts scale every term by n, within an ulp
    rng = np.random.default_rng(29)
    for n, k in ((1, 1), (1, 9), (7, 3), (50, 50), (100, 33), (64, 500)):
        x = np.sort(rng.normal(size=n))
        y = np.sort(rng.normal(loc=0.3, size=k))
        got = wasserstein1(_dist(x), _dist(y))
        if n == k:
            npt.assert_allclose(got, merge_quantile_w1(x, y), rtol=2 * np.finfo(float).eps)
        else:
            assert got == merge_quantile_w1(x, y)


def test_w1_symmetry_and_triangle_inequality():
    rng = np.random.default_rng(31)
    for _ in range(25):
        a = _dist(rng.normal(size=rng.integers(2, 40)))
        b = _dist(rng.normal(1, 2, size=rng.integers(2, 40)))
        c = _dist(rng.standard_gamma(1.5, size=rng.integers(2, 40)))
        ab, ba = wasserstein1(a, b), wasserstein1(b, a)
        npt.assert_allclose(ab, ba, atol=1e-12)
        assert wasserstein1(a, c) <= ab + wasserstein1(b, c) + 1e-10


def test_w1_translation():
    rng = np.random.default_rng(37)
    x = rng.normal(size=30)
    y = rng.normal(size=45)
    base = wasserstein1(_dist(x), _dist(y))
    for c in (0.5, -2.0, 10.0):
        shifted_copy = wasserstein1(_dist(x), _dist(x + c))
        npt.assert_allclose(shifted_copy, abs(c), atol=1e-12)
        moved = wasserstein1(_dist(x), _dist(y + c))
        assert moved <= base + abs(c) + 1e-12


def test_w1_rejects_empty():
    with pytest.raises((ShapeError, ValueError)):
        EmpiricalDistribution(np.empty(0))


def test_empirical_distribution_sorts_and_summarizes():
    d = _dist([3.0, 1.0, 2.0])
    npt.assert_array_equal(d.samples, [1.0, 2.0, 3.0])
    assert d.n == 3
    assert d.mean() == pytest.approx(2.0)
    assert d.std() == pytest.approx(np.sqrt(2.0 / 3.0))  # population formula


def test_normalized_w1_identity_and_shift():
    rng = np.random.default_rng(41)
    p = _dist(rng.normal(0.0, 1.0, size=100_000))
    q = _dist(rng.normal(1.0, 1.0, size=100_000))
    assert normalized_wasserstein(p, p) == 0.0
    assert normalized_wasserstein(p, q) == pytest.approx(1.0, abs=0.03)


def test_normalized_w1_scale_invariant():
    rng = np.random.default_rng(43)
    x = rng.normal(size=200)
    y = rng.normal(0.7, 1.5, size=150)
    base = normalized_wasserstein(_dist(x), _dist(y))
    for c in (0.2, 3.0, 100.0):
        scaled = normalized_wasserstein(_dist(c * x), _dist(c * y))
        npt.assert_allclose(scaled, base, atol=1e-10)


def test_normalized_w1_uses_first_argument_std():
    narrow = _dist([0.0, 0.1, 0.2, 0.3])
    wide = _dist([0.0, 5.0, 10.0, 15.0])
    assert normalized_wasserstein(narrow, wide) != pytest.approx(
        normalized_wasserstein(wide, narrow)
    )


def test_normalized_w1_zero_reference_std():
    with pytest.raises(ValueError):
        normalized_wasserstein(_dist([2.0, 2.0, 2.0]), _dist([0.0, 1.0]))


def test_point_metrics_identity():
    pm = point_metrics([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert (pm.rmse, pm.mae, pm.r2) == (0.0, 0.0, 1.0)


def test_point_metrics_hand_case():
    # SS_res = 2, SS_tot = 0.5 -> r2 = -3
    pm = point_metrics([0.0, 1.0], [1.0, 0.0])
    assert pm.rmse == pytest.approx(1.0)
    assert pm.mae == pytest.approx(1.0)
    assert pm.r2 == pytest.approx(-3.0)


def test_point_metrics_constant_prediction_r2_zero():
    truth = np.array([1.0, 2.0, 3.0, 6.0])
    pm = point_metrics(truth, np.full(4, truth.mean()))
    assert pm.r2 == pytest.approx(0.0)


def test_point_metrics_zero_truth_variance_flags_r2():
    pm = point_metrics([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
    assert pm.r2 is None
    assert pm.rmse > 0


def test_point_metrics_shape_errors():
    with pytest.raises(ShapeError):
        point_metrics([1.0], [1.0])
    with pytest.raises(ShapeError):
        point_metrics([1.0, 2.0], [1.0, 2.0, 3.0])


def test_point_metrics_to_dict():
    d = point_metrics([0.0, 1.0], [1.0, 0.0]).to_dict()
    assert set(d) == {"rmse", "mae", "r2"}
