"""Problem definitions: affine-parametric diffusion coefficients and data.

The shipped coefficient family consists of planar cosine modes of increasing
total order with algebraically decaying amplitudes A m^(-sigma).  The mean
field and the right-hand side default to constant one.
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
    "fourier_mode",
    "mode_frequencies",
    "amplitude_from_tau",
    "contrast_bounds",
    "lshape_benchmark",
    "parse_config",
    "spec_from_config",
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
    """Coefficient function a_m(x) = A m^(-sigma) cos(2 pi b1 x1) cos(2 pi b2 x2)."""
    if sigma <= 1.0:
        raise ValueError("decay exponent must satisfy sigma > 1")
    if amplitude < 0.0:
        raise ValueError("amplitude must be nonnegative")
    beta1, beta2 = mode_frequencies(m)
    alpha = amplitude * m ** (-float(sigma))

    def a_m(x):
        x = np.asarray(x, dtype=np.float64)
        return (
            alpha
            * np.cos(2.0 * np.pi * beta1 * x[..., 0])
            * np.cos(2.0 * np.pi * beta2 * x[..., 1])
        )

    return a_m


def amplitude_from_tau(tau: float, sigma: float) -> float:
    """Amplitude A with A zeta(sigma) = tau."""
    if sigma <= 1.0:
        raise ValueError("zeta series diverges for sigma <= 1")
    if not 0.0 <= tau < 1.0:
        raise ValueError("tau must lie in [0, 1)")
    return tau / float(zeta(sigma))


def _unit_field(x):
    """The default mean field, one; a module-level function, so that it pickles."""
    return np.ones(np.asarray(x).shape[:-1])


@dataclass(frozen=True)
class ProblemSpec:
    """Affine diffusion problem on a 2D domain.

    The parametric coefficient is a0(x) + sum_m y_m a_m(x) with
    a_m = amplitude * m^(-sigma) cosine modes and y_m uniform on [-1, 1].
    """

    sigma: float
    amplitude: float
    a0: Callable = _unit_field
    a0_min: float = 1.0
    a0_max: float = 1.0
    rhs: Callable | None = None  # None means f == 1 (handled exactly)

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma > 1.0):
            raise ValueError(f"decay exponent must be finite with sigma > 1, got {self.sigma}")
        if not (math.isfinite(self.amplitude) and self.amplitude >= 0.0):
            raise ValueError(f"amplitude must be finite and >= 0, got {self.amplitude}")
        if not (0.0 < self.a0_min <= self.a0_max):
            raise ValueError("mean field bounds must satisfy 0 < a0_min <= a0_max")
        if self.tau >= 1.0:
            raise ValueError(
                f"inadmissible problem: tau = {self.tau:.6g} >= 1"
            )

    @property
    def tau(self) -> float:
        if self.amplitude == 0.0:
            return 0.0
        return self.amplitude * float(zeta(self.sigma)) / self.a0_min

    def coefficient(self, m: int) -> Callable:
        """a_0 for m = 0, otherwise the m-th parametric mode."""
        return self.a0 if m == 0 else fourier_mode(m, self.amplitude, self.sigma)


@dataclass(frozen=True)
class ContrastBounds:
    lam: float
    Lam: float


def contrast_bounds(spec: ProblemSpec) -> ContrastBounds:
    """Norm-equivalence constants between the full and mean-field energies."""
    tau = spec.tau
    lam = spec.a0_min / (spec.a0_max * (1.0 + tau))
    Lam = spec.a0_max / (spec.a0_min * (1.0 - tau))
    return ContrastBounds(lam=lam, Lam=Lam)


def lshape_benchmark(sigma: float = 2.0, tau: float = 0.9) -> ProblemSpec:
    """The L-shaped benchmark problem: unit mean field, unit load, cosine
    modes with decay `sigma` and total relative perturbation `tau`."""
    return ProblemSpec(sigma=sigma, amplitude=amplitude_from_tau(tau, sigma))


_CONFIG_KEYS = {"sigma", "tau", "amplitude", "mesh", "rhs"}


def parse_config(text: str) -> dict:
    """Parse a key=value problem configuration.

    Known keys: sigma, tau, amplitude (tau and amplitude are mutually
    exclusive), mesh ("lshape" or a mesh file path), rhs ("one").
    Unknown keys are rejected.  Returns a dict of parsed settings.
    """
    settings: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if key in settings:
            raise ValueError(f"config line {lineno}: duplicate key {key!r}")
        if key in ("sigma", "tau", "amplitude"):
            settings[key] = float(value)
        else:
            settings[key] = value
    if "tau" in settings and "amplitude" in settings:
        raise ValueError("config keys 'tau' and 'amplitude' are mutually exclusive")
    if settings.get("rhs", "one") != "one":
        raise ValueError(f"unsupported rhs {settings['rhs']!r} (only 'one' ships)")
    return settings


def spec_from_config(settings: dict) -> ProblemSpec:
    """Build a ProblemSpec from parsed config settings."""
    sigma = float(settings.get("sigma", 2.0))
    if "amplitude" in settings:
        amplitude = float(settings["amplitude"])
    else:
        amplitude = amplitude_from_tau(float(settings.get("tau", 0.9)), sigma)
    return ProblemSpec(sigma=sigma, amplitude=amplitude)
