"""Legendre polynomials orthonormal for the uniform measure dy/2 on [-1, 1].

The orthonormal family is P_n = sqrt(2n+1) L_n, where L_n is the classical
Legendre polynomial, so that P_0 = 1.  The three-term moments needed for the
parametric coupling matrices reduce to a single coefficient per degree:

    y P_n = c_{n+1} P_{n+1} + c_n P_{n-1},   c_n = n / sqrt(4 n^2 - 1).
"""

from __future__ import annotations

import numpy as np

__all__ = ["coupling_coefficient"]


def coupling_coefficient(n):
    """Coefficient c_n = integral of y P_n P_{n-1} dy/2 for a degree n >= 1,
    or elementwise for an integer array of them."""
    if np.any(np.asarray(n) < 1):
        raise ValueError("coupling coefficient defined for n >= 1")
    return n / np.sqrt(4.0 * n * n - 1.0)
