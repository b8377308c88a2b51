import math

import numpy as np
import pytest

from sgfem import coupling_coefficient
from oracles import gauss_quadrature, legendre_eval, triple_moment


def test_degree_zero_is_one():
    y = np.linspace(-1.0, 1.0, 11)
    assert np.allclose(legendre_eval(0, y), 1.0)


def test_degree_one_is_sqrt3_y():
    y = np.linspace(-1.0, 1.0, 11)
    assert np.allclose(legendre_eval(1, y), math.sqrt(3.0) * y, atol=1e-14)


def test_value_at_one_is_normalization():
    for n in range(11):
        assert legendre_eval(n, 1.0) == pytest.approx(math.sqrt(2 * n + 1), abs=1e-12)


def test_negative_degree_rejected():
    with pytest.raises(ValueError):
        legendre_eval(-1, 0.0)


def test_orthonormal_up_to_degree_20():
    y, w = gauss_quadrature(64)
    vals = np.array([legendre_eval(n, y) for n in range(21)])
    gram = (vals * w) @ vals.T
    assert np.max(np.abs(gram - np.eye(21))) < 1e-12


def test_gauss_quadrature_weights_sum_to_one():
    _, w = gauss_quadrature(16)
    assert w.sum() == pytest.approx(1.0, abs=1e-14)


def test_coupling_closed_form_small():
    assert coupling_coefficient(1) == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-15)
    assert coupling_coefficient(2) == pytest.approx(2.0 / math.sqrt(15.0), abs=1e-15)


def test_coupling_matches_quadrature_oracle():
    for n in range(1, 21):
        assert coupling_coefficient(n) == pytest.approx(
            triple_moment(1, n, n - 1), abs=1e-12
        )


def test_coupling_envelope_and_limit():
    prev = 1.0
    for n in range(1, 200):
        c = coupling_coefficient(n)
        assert 0.5 < c < 0.5 + 1.0 / (8 * n)
        assert c < prev
        prev = c
    assert prev == pytest.approx(0.5, abs=1e-5)


def test_coupling_rejects_degree_zero():
    with pytest.raises(ValueError):
        coupling_coefficient(0)


def test_off_by_more_than_one_moment_vanishes():
    # y P_n has degree n + 1, so the moment with P_m vanishes for |n - m| != 1
    for n, m in [(0, 0), (1, 1), (0, 2), (1, 3), (2, 5)]:
        assert abs(triple_moment(1, n, m)) < 1e-13
