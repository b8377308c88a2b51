"""The model problem: -div(a grad u) = 1 with an affine-parametric coefficient.

The coefficient is a(x, y) = 1 + sum_m y_m a_m(x), the modes a_m planar
cosines of increasing total order with algebraically decaying amplitudes
A m^(-sigma), and y_m uniform on [-1, 1].  The mean field a_0 and the load f
are constant one; a problem is set by sigma and the amplitude A alone, which
the command line reads from its flags or its settings file (`sgfem.cli`).

The chaos in y is the Legendre family orthonormal for dy/2 on [-1, 1],
P_n = sqrt(2n+1) L_n with L_n the classical Legendre polynomial, so that
P_0 = 1.  The three-term moments of the parametric coupling matrices reduce to
one coefficient per degree:

    y P_n = c_{n+1} P_{n+1} + c_n P_{n-1},   c_n = n / sqrt(4 n^2 - 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import zeta

__all__ = [
    "ProblemSpec",
    "ContrastBounds",
    "coupling_coefficient",
    "fourier_mode",
    "mode_frequencies",
    "amplitude_from_tau",
    "contrast_bounds",
    "lshape_benchmark",
]


def mode_frequencies(m: int) -> tuple[int, int]:
    """Cosine frequencies (beta1, beta2) of mode `m` >= 1, enumerating plane
    waves by increasing total order."""
    if m < 1:
        raise ValueError("mode number must be >= 1")
    k = int(math.floor(-0.5 + math.sqrt(0.25 + 2.0 * m)))
    beta1 = m - k * (k + 1) // 2
    beta2 = k - beta1
    return beta1, beta2


def fourier_mode(m: int, amplitude: float, sigma: float) -> Callable:
    """Coefficient function a_m(x) = A m^(-sigma) cos(2 pi b1 x1) cos(2 pi b2 x2).
    A factor of frequency 0 is exactly 1, so it is left out: (A * 1) c = A c."""
    if sigma <= 1.0:
        raise ValueError("decay exponent must satisfy sigma > 1")
    if amplitude < 0.0:
        raise ValueError("amplitude must be nonnegative")
    beta1, beta2 = mode_frequencies(m)
    alpha = amplitude * m ** (-float(sigma))

    def a_m(x):
        x = np.asarray(x, dtype=np.float64)
        value = alpha
        for axis, beta in enumerate((beta1, beta2)):
            if beta:
                value = value * np.cos(2.0 * np.pi * beta * x[..., axis])
        return value

    return a_m


def amplitude_from_tau(tau: float, sigma: float) -> float:
    """Amplitude A with A zeta(sigma) = tau."""
    if sigma <= 1.0:
        raise ValueError("zeta series diverges for sigma <= 1")
    if not 0.0 <= tau < 1.0:
        raise ValueError("tau must lie in [0, 1)")
    return tau / float(zeta(sigma))


def coupling_coefficient(n):
    """Coefficient c_n = integral of y P_n P_{n-1} dy/2 for a degree n >= 1,
    or elementwise for an integer array of them."""
    if np.any(np.asarray(n) < 1):
        raise ValueError("coupling coefficient defined for n >= 1")
    return n / np.sqrt(4.0 * n * n - 1.0)


def _unit_field(x):
    """The mean field a_0, one at every point of `x`."""
    return np.ones(np.asarray(x).shape[:-1])


@dataclass(frozen=True)
class ProblemSpec:
    """The model problem of decay `sigma` and `amplitude` A: the coefficient
    1 + sum_m y_m a_m(x), with a_m = A m^(-sigma) cosine modes, and load 1.
    """

    sigma: float
    amplitude: float

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma > 1.0):
            raise ValueError(f"decay exponent must be finite with sigma > 1, got {self.sigma}")
        if not (math.isfinite(self.amplitude) and self.amplitude >= 0.0):
            raise ValueError(f"amplitude must be finite and >= 0, got {self.amplitude}")
        if self.tau >= 1.0:
            raise ValueError(
                f"inadmissible problem: tau = {self.tau:.6g} >= 1"
            )

    @property
    def tau(self) -> float:
        return self.amplitude * float(zeta(self.sigma))

    def coefficient(self, m: int) -> Callable:
        """a_0 for m = 0, otherwise the m-th parametric mode."""
        return _unit_field if m == 0 else fourier_mode(m, self.amplitude, self.sigma)


@dataclass(frozen=True)
class ContrastBounds:
    lam: float
    Lam: float


def contrast_bounds(spec: ProblemSpec) -> ContrastBounds:
    """Norm-equivalence constants between the full and mean-field energies."""
    tau = spec.tau
    return ContrastBounds(lam=1.0 / (1.0 + tau), Lam=1.0 / (1.0 - tau))


def lshape_benchmark(sigma: float = 2.0, tau: float = 0.9) -> ProblemSpec:
    """The L-shaped benchmark problem: unit mean field, unit load, cosine
    modes with decay `sigma` and total relative perturbation `tau`."""
    return ProblemSpec(sigma=sigma, amplitude=amplitude_from_tau(tau, sigma))

