import dataclasses
import math
import pickle

import numpy as np
import pytest

from sgfem import (
    ContrastBounds,
    ProblemSpec,
    amplitude_from_tau,
    contrast_bounds,
    fourier_mode,
    lshape_benchmark,
    mode_frequencies,
)

import oracles


class TestModeFrequencies:
    def test_enumeration_by_total_order(self):
        # modes enumerate the plane-wave frequencies block by block:
        # total order 1: (0,1), (1,0); total order 2: (0,2), (1,1), (2,0); ...
        expected = [(0, 1), (1, 0), (0, 2), (1, 1), (2, 0), (0, 3), (1, 2), (2, 1), (3, 0)]
        assert [mode_frequencies(m) for m in range(1, 10)] == expected

    def test_every_frequency_pair_appears_once(self):
        seen = {mode_frequencies(m) for m in range(1, 106)}
        assert len(seen) == 105

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            mode_frequencies(0)


class TestFourierMode:
    def test_values_match_formula(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-1.0, 1.0, size=(20, 2))
        for m in (1, 2, 5, 9):
            b1, b2 = mode_frequencies(m)
            want = 0.6 * m**-2.0 * np.cos(2 * np.pi * b1 * x[:, 0]) * np.cos(2 * np.pi * b2 * x[:, 1])
            got = fourier_mode(m, 0.6, 2.0)(x)
            assert np.allclose(got, want, atol=1e-15)

    @pytest.mark.parametrize("points", [7, 28])
    def test_equals_three_factor_oracle(self, points):
        # a factor of frequency 0 is left out; it was exactly 1
        x = np.random.default_rng(points).uniform(-1.0, 1.0, size=(50, points, 2))
        for m in range(1, 31):
            got = fourier_mode(m, 0.6, 2.0)(x)
            assert got.shape == (50, points)
            assert np.array_equal(got, oracles.three_factor_mode(m, 0.6, 2.0)(x))

    def test_zero_amplitude_allowed(self):
        assert fourier_mode(1, 0.0, 2.0)(np.zeros((1, 2)))[0] == 0.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            fourier_mode(1, -0.1, 2.0)
        with pytest.raises(ValueError):
            fourier_mode(1, 0.5, 1.0)


class TestAmplitudeTau:
    def test_sigma_two_closed_form(self):
        # zeta(2) = pi^2 / 6
        assert amplitude_from_tau(0.9, 2.0) == pytest.approx(0.9 * 6.0 / math.pi**2, rel=1e-14)

    def test_roundtrip_through_spec(self):
        spec = lshape_benchmark(sigma=2.5, tau=0.4)
        assert spec.tau == pytest.approx(0.4, rel=1e-13)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            amplitude_from_tau(1.0, 2.0)
        with pytest.raises(ValueError):
            amplitude_from_tau(0.5, 1.0)


class TestProblemSpec:
    def test_benchmark_amplitude(self):
        spec = lshape_benchmark()
        assert spec.sigma == 2.0
        assert spec.amplitude == pytest.approx(0.9 * 6.0 / math.pi**2, rel=1e-14)
        assert [f.name for f in dataclasses.fields(spec)] == ["sigma", "amplitude"]

    def test_mean_field_is_one(self):
        spec = lshape_benchmark()
        x = np.array([[0.3, -0.2], [0.9, 0.1]])
        assert np.allclose(spec.coefficient(0)(x), 1.0)

    def test_pickle_roundtrip(self):
        spec = lshape_benchmark(sigma=1.5, tau=0.7)
        back = pickle.loads(pickle.dumps(spec))
        assert back == spec
        x = np.random.default_rng(4).uniform(-1.0, 1.0, size=(30, 2))
        for m in (0, 1, 2, 7):
            assert np.array_equal(back.coefficient(m)(x), spec.coefficient(m)(x))

    def test_mode_amplitude_decay(self):
        spec = lshape_benchmark()
        origin = np.zeros((1, 2))
        for m in (1, 2, 10):
            # both cosine factors are one at the origin
            assert spec.coefficient(m)(origin)[0] == pytest.approx(spec.amplitude * m**-2.0)

    def test_inadmissible_tau_rejected(self):
        with pytest.raises(ValueError):
            ProblemSpec(sigma=2.0, amplitude=amplitude_from_tau(0.99, 2.0) * 1.1)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf, 1.0, 0.5])
    def test_bad_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            ProblemSpec(sigma=sigma, amplitude=0.1)

    @pytest.mark.parametrize("amplitude", [math.nan, math.inf, -math.inf, -0.1])
    def test_bad_amplitude_rejected(self, amplitude):
        with pytest.raises(ValueError, match="amplitude"):
            ProblemSpec(sigma=2.0, amplitude=amplitude)

    def test_contrast_bounds_benchmark(self):
        cb = contrast_bounds(lshape_benchmark())
        assert isinstance(cb, ContrastBounds)
        assert cb.lam == pytest.approx(1.0 / 1.9, rel=1e-12)
        assert cb.Lam == pytest.approx(10.0, rel=1e-12)

    def test_contrast_bounds_formula(self):
        cb = contrast_bounds(lshape_benchmark(tau=0.5))
        assert cb.lam == pytest.approx(1.0 / 1.5, rel=1e-12)
        assert cb.Lam == pytest.approx(2.0, rel=1e-12)

