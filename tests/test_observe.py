"""Observation construction, coefficient estimation, variance proxy.

Paths are folds: the M per-period sums of the increments on [0, n]."""

import math

import numpy as np
import pytest

from semimartreg.noise import LevySpec, derive_rng, nominal_sigma, simulate, simulate_levy
from semimartreg.observe import (
    ObservationPath,
    estimate_fourier,
    estimate_variance_proxy,
    signal_increments,
)
from semimartreg.signal import Signal, basis_matrix


def zero_noise(n, M):
    return simulate_levy(LevySpec(0.0, 0.0), n, M, derive_rng(0, 0))


def observe(signal, noise, n):
    """Fold of dy: n periods of the deterministic increments plus the noise fold."""
    det = n * signal_increments(signal, 1, noise.size)
    return ObservationPath(det + noise, n, noise.size)


class TestSimulateObservations:
    def test_zero_signal_passes_noise_through(self):
        noise = simulate_levy(LevySpec(1.0, 0.5), 4, 32, derive_rng(1, 0))
        path = observe(Signal(np.zeros(3)), noise, 4)
        np.testing.assert_array_equal(path.dy, noise)

    def test_constant_signal_cells(self):
        # each of the 64 cells of the fold sums 3 periods of 2.5 / 64
        path = observe(Signal(np.array([2.5])), zero_noise(3, 64), 3)
        np.testing.assert_allclose(path.dy, np.full(64, 3 * 2.5 / 64), atol=1e-12)

    def test_cosine_integrates_to_zero(self):
        # oracle: the exact integral of sqrt(2) cos(2 pi t) over a period is 0
        sig = Signal(np.array([0.0, 1.0]))
        path = observe(sig, zero_noise(1, 256), 1)
        assert abs(path.dy.sum()) < 1e-8

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ObservationPath(np.zeros(10), n=2, M=16)


class TestEstimateFourier:
    def test_noiseless_recovery(self):
        sig = Signal(np.array([0.0, 1.0, 0.0]))
        path = observe(sig, zero_noise(10, 256), 10)
        est = estimate_fourier(path, 3)
        np.testing.assert_allclose(est, sig.coeffs, atol=1e-4)

    def test_single_period_equals_quadrature(self):
        # n = 1: the estimator is the one-period midpoint quadrature against dy
        sig = Signal(np.array([0.5, -0.3]))
        path = observe(sig, zero_noise(1, 256), 1)
        est = estimate_fourier(path, 2)
        t = (np.arange(256) + 0.5) / 256
        oracle = basis_matrix(2, t) @ path.dy
        np.testing.assert_allclose(est, oracle, atol=1e-14)

    def test_noise_mean_and_ito_isometry(self):
        # oracle: E xi_{j,n}^2 = sigma_Q exactly for the Brownian case
        n, M, reps = 25, 64, 2000
        ests = np.empty((reps, 4))
        for rep in range(reps):
            noise = simulate_levy(LevySpec(1.0, 0.0), n, M, derive_rng(42, rep))
            path = ObservationPath(noise, n, M)
            ests[rep] = estimate_fourier(path, 4)
        scaled = math.sqrt(n) * ests
        means = scaled.mean(axis=0)
        ses = scaled.std(axis=0, ddof=1) / math.sqrt(reps)
        assert np.all(np.abs(means) <= 4 * ses)
        variances = scaled.var(axis=0, ddof=1)
        assert np.all(np.abs(variances - 1.0) <= 4 * math.sqrt(2.0 / reps))

    def test_linearity_and_decomposition(self):
        # theta_hat = theta + xi_{j,n}/sqrt(n) termwise when both parts are kept
        sig = Signal(np.array([0.4, -0.2, 0.3]))
        n, M = 16, 64
        noise = simulate_levy(LevySpec(0.8, 0.7), n, M, derive_rng(9, 0))
        det = n * signal_increments(sig, 1, M)
        full = ObservationPath(det + noise, n, M)
        sig_only = ObservationPath(det, n, M)
        noise_only = ObservationPath(noise, n, M)
        total = estimate_fourier(full, 6)
        parts = estimate_fourier(sig_only, 6) + estimate_fourier(noise_only, 6)
        np.testing.assert_allclose(total, parts, atol=1e-12)

    def test_anti_aliasing_guard(self):
        path = ObservationPath(np.zeros(16), n=4, M=16)
        with pytest.raises(ValueError):
            estimate_fourier(path, 17)
        # a pure Tr_41 (sin 2 pi 20 t) on M = 32 midpoints reads as Tr_25
        # (sin 2 pi 12 t): J = 60 reaches frequency 30 >= M/2 and must fail
        path = observe(Signal(np.eye(41)[40]), zero_noise(100, 32), 100)
        with pytest.raises(ValueError, match="Nyquist"):
            estimate_fourier(path, 60)
        # the top frequency [J/2] must stay below M/2: J = M - 1 passes, J = M fails
        assert estimate_fourier(path, 31).size == 31
        with pytest.raises(ValueError):
            estimate_fourier(path, 32)


class TestVarianceProxy:
    def test_zero_path_gives_zero(self):
        path = ObservationPath(np.zeros(64), n=16, M=64)
        assert estimate_variance_proxy(path) == 0.0

    def test_short_horizon_rejected(self):
        path = ObservationPath(np.zeros(16), n=3, M=16)
        with pytest.raises(ValueError):
            estimate_variance_proxy(path)

    def test_fewer_than_n_estimates_rejected(self):
        path = ObservationPath(np.random.default_rng(3).standard_normal(64), n=16, M=64)
        with pytest.raises(ValueError, match="n=16 estimates, got 15"):
            estimate_variance_proxy(path, estimate_fourier(path, 15))
        # n or more handed-in estimates give the proxy of the path itself
        assert estimate_variance_proxy(path, estimate_fourier(path, 20)) == \
            estimate_variance_proxy(path)

    def test_zero_noise_smooth_signal_bound(self):
        # band-limited signal below the tail start: the proxy must vanish;
        # wide-band signal: the proxy equals the directly computed tail energy
        n, M = 100, 256
        narrow = Signal(np.array([0.5, 0.3, -0.3, 0.2]))
        path = observe(narrow, zero_noise(n, M), n)
        assert estimate_variance_proxy(path) < 1e-20

        rng = np.random.default_rng(12)
        wide = Signal(rng.normal(size=25) * 0.2)
        path = observe(wide, zero_noise(n, M), n)
        proxy = estimate_variance_proxy(path)
        t_hat = estimate_fourier(path, n)
        direct = float(np.sum(t_hat[math.isqrt(n):] ** 2))
        assert proxy == pytest.approx(direct, rel=1e-12)
        # rate envelope from the smoothness of S
        sdot_sq = float(np.sum((2 * np.pi * (np.arange(1, 26) // 2)) ** 2 * wide.coeffs**2))
        assert proxy <= (1.0 + sdot_sq) / math.sqrt(n)

    def test_unbiased_for_brownian(self):
        # MC mean of the proxy approaches sigma_Q (1 - [sqrt(n)]/n)
        n, M, reps = 100, 256, 400
        spec = LevySpec(1.0, 0.0)
        vals = np.empty(reps)
        for rep in range(reps):
            noise = simulate(spec, n, M, derive_rng(77, rep))
            vals[rep] = estimate_variance_proxy(ObservationPath(noise, n, M))
        se = vals.std(ddof=1) / math.sqrt(reps)
        expected = nominal_sigma(spec) * (n - math.isqrt(n)) / n
        assert abs(vals.mean() - expected) <= 3 * se
        assert abs(vals.mean() - nominal_sigma(spec)) <= 0.1 + 3 * se

    def test_error_shrinks_with_horizon(self):
        # rate trend: |proxy - sigma| roughly halves as n quadruples
        spec = LevySpec(1.0, 0.0)
        sig = Signal(np.array([0.5, 0.3, -0.3]))
        means = []
        for n in (64, 256):
            M = max(256, 2 * n)
            det = n * signal_increments(sig, 1, M)
            errs = [
                abs(estimate_variance_proxy(
                    ObservationPath(det + simulate(spec, n, M, derive_rng(n, rep)), n, M)
                ) - 1.0)
                for rep in range(200)
            ]
            means.append(np.mean(errs))
        assert means[1] < means[0]
        assert 0.25 <= means[1] / means[0] <= 0.8
