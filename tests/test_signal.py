"""Basis, synthesis and smoothness-ball tests."""

import math

import numpy as np
import pytest

from semimartreg.signal import (
    Signal,
    SobolevBallSpec,
    basis_matrix,
    ellipsoid_coeffs,
    sample_sobolev,
    sobolev_norm,
    synthesize,
)

SQRT2 = math.sqrt(2.0)


class TestTrigBasis:
    def test_constant_element(self):
        assert basis_matrix(1, [0.37])[0, 0] == 1.0

    def test_cosine_at_zero(self):
        assert basis_matrix(2, [0.0])[1, 0] == pytest.approx(SQRT2, abs=1e-12)

    def test_sine_at_quarter(self):
        assert basis_matrix(3, [0.25])[2, 0] == pytest.approx(SQRT2, abs=1e-12)

    def test_zero_index_rejected(self):
        with pytest.raises(ValueError):
            basis_matrix(0, [0.1])

    def test_orthonormality_by_quadrature(self):
        # midpoint quadrature is exact for trig products below the grid Nyquist
        t = (np.arange(512) + 0.5) / 512
        B = basis_matrix(20, t)
        gram = B @ B.T / t.size
        np.testing.assert_allclose(gram, np.eye(20), atol=1e-10)


class TestSignal:
    def test_constant_signal(self):
        sig = Signal(np.array([1.0]))
        for t in (0.0, 0.3, 0.77):
            assert synthesize(sig, t) == pytest.approx(1.0, abs=1e-14)

    def test_zero_signal(self):
        sig = Signal(np.zeros(5))
        assert synthesize(sig, 0.42) == 0.0

    def test_single_basis_element(self):
        sig = Signal(np.array([0.0, 1.0]))
        assert synthesize(sig, 0.0) == pytest.approx(SQRT2, abs=1e-14)

    def test_exact_periodicity(self):
        sig = Signal(np.array([0.3, -1.2, 0.7, 0.1]))
        # dyadic points: t+1 is exactly representable, so the mod-1 reduction
        # feeds bit-identical arguments to the basis
        t = np.arange(64) / 64.0
        np.testing.assert_array_equal(synthesize(sig, t), synthesize(sig, t + 1.0))
        np.testing.assert_array_equal(synthesize(sig, t), synthesize(sig, t + 7.0))

    def test_periodicity_general_points(self):
        sig = Signal(np.array([0.3, -1.2, 0.7, 0.1]))
        t = np.array([0.1, 0.51, 0.999])
        np.testing.assert_allclose(synthesize(sig, t), synthesize(sig, t + 1.0), atol=1e-12)

    def test_parseval(self):
        rng = np.random.default_rng(3)
        sig = Signal(rng.normal(size=12))
        t = (np.arange(4096) + 0.5) / 4096
        quad = float(np.mean(synthesize(sig, t) ** 2))
        assert quad == pytest.approx(sig.norm_sq(), abs=1e-8)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Signal(np.array([1.0, np.inf]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Signal(np.array([]))


class TestSobolev:
    def test_norm_constant(self):
        assert sobolev_norm(Signal(np.array([1.0])), 2) == pytest.approx(1.0)

    def test_norm_single_frequency(self):
        val = sobolev_norm(Signal(np.array([0.0, 1.0])), 1)
        assert val == pytest.approx(1.0 + (2 * math.pi) ** 2, rel=1e-12)

    def test_norm_against_finite_difference_oracle(self):
        # oracle: quadrature of S^2 plus quadrature of a central-difference dS^2
        rng = np.random.default_rng(11)
        sig = Signal(rng.normal(size=6) * 0.4)
        t = (np.arange(4096) + 0.5) / 4096
        h = 1e-5
        deriv = (synthesize(sig, t + h) - synthesize(sig, t - h)) / (2 * h)
        oracle = float(np.mean(synthesize(sig, t) ** 2) + np.mean(deriv**2))
        assert sobolev_norm(sig, 1) == pytest.approx(oracle, abs=1e-6)

    def test_ellipsoid_coeffs_first_entry(self):
        a = ellipsoid_coeffs(8, 3)
        assert a[0] == 1.0
        assert np.all(np.diff(a[1:]) >= 0)

    def test_sample_on_shell(self):
        spec = SobolevBallSpec(k=1, r=2.0)
        rng = np.random.default_rng(5)
        for _ in range(50):
            sig = sample_sobolev(spec, 10, rng)
            assert sobolev_norm(sig, 1) == pytest.approx(0.95 * 2.0, abs=1e-9)
            assert sobolev_norm(sig, 1) <= 2.0

    def test_sample_norm_concentrates(self):
        spec = SobolevBallSpec(k=2, r=1.0)
        rng = np.random.default_rng(6)
        norms = [sobolev_norm(sample_sobolev(spec, 8, rng), 2) for _ in range(1000)]
        assert max(abs(v - 0.95) for v in norms) < 1e-9

    def test_zero_radius_gives_zero_signal(self):
        sig = sample_sobolev(SobolevBallSpec(k=1, r=0.0), 8, np.random.default_rng(0))
        np.testing.assert_array_equal(sig.coeffs, np.zeros(8))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SobolevBallSpec(k=0, r=1.0)
        with pytest.raises(ValueError):
            SobolevBallSpec(k=1, r=-1.0)
