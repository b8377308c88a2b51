"""Legendre polynomials orthonormal for the uniform measure dy/2 on [-1, 1].

``legendre_eval(n, y)`` returns sqrt(2n+1) L_n(y), where L_n is the classical
Legendre polynomial, so that the family is orthonormal in L^2(dy/2) with
P_0 = 1.  The three-term moments needed for the parametric coupling matrices
reduce to a single coefficient per degree:

    y P_n = c_{n+1} P_{n+1} + c_n P_{n-1},   c_n = n / sqrt(4 n^2 - 1).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import eval_legendre

__all__ = ["legendre_eval", "coupling_coefficient", "gauss_quadrature"]


def legendre_eval(n: int, y):
    """Orthonormal Legendre polynomial of degree `n` at `y` in [-1, 1]."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return math.sqrt(2 * n + 1) * eval_legendre(n, y)


def coupling_coefficient(n):
    """Coefficient c_n = integral of y P_n P_{n-1} dy/2 for a degree n >= 1,
    or elementwise for an integer array of them."""
    if np.any(np.asarray(n) < 1):
        raise ValueError("coupling coefficient defined for n >= 1")
    return n / np.sqrt(4.0 * n * n - 1.0)


def gauss_quadrature(num_points: int = 64):
    """Gauss-Legendre nodes and weights for the measure dy/2 on [-1, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(num_points)
    return nodes, 0.5 * weights
