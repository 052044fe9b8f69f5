import math

import numpy as np
import pytest

from support import expected_loglik_gh


def test_point_mass_reduces_to_log_density():
    # v_f = v_g = 0: every node sits at (a_f, a_g)
    got = expected_loglik_gh(1.0, 0.0, 0.0, 0.0, 0.0)
    assert got == pytest.approx(-0.5 - 0.5 * math.log(2 * math.pi), abs=1e-12)


def test_zero_residual_unit_variance():
    got = expected_loglik_gh(0.3, 0.3, 0.0, 0.0, 0.0)
    assert got == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-12)


def test_node_count_convergence():
    rng = np.random.default_rng(3)
    for _ in range(10):
        y, af, ag = rng.normal(size=3)
        vf, vg = rng.uniform(0.01, 1.0, size=2)
        coarse = expected_loglik_gh(y, af, vf, ag, vg, num_nodes=30)
        fine = expected_loglik_gh(y, af, vf, ag, vg, num_nodes=50)
        assert coarse == pytest.approx(fine, abs=1e-10)


def test_variance_inflation_lowers_expectation():
    # extra uncertainty in f can only hurt the expected log-density
    base = expected_loglik_gh(0.5, 0.0, 0.0, 0.0, 0.0)
    worse = expected_loglik_gh(0.5, 0.0, 2.0, 0.0, 0.0)
    assert worse < base
