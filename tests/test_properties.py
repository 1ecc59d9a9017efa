"""Property tests: the FFT estimators against their basis-matrix definitions,
the independence of the noise components' draws, the selection against a
brute-force minimum of its cost, and the head-norm identity of shrinkage."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cost_reference import cost

from semimartreg.noise import (
    JUMP_DISTS,
    Y_DISTS,
    LevySpec,
    SemiMarkovSpec,
    TauDist,
    derive_rng,
    simulate,
)
from semimartreg.observe import ObservationPath, estimate_fourier, estimate_variance_proxy
from semimartreg.select import (
    SelectionConfig,
    ShrinkageConfig,
    build_weight_grid,
    model_select,
    shrink,
)
from semimartreg.signal import basis_matrix

# derandomized: every run draws the same examples, like the seeded tests
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def reference_estimates(folded, n, J):
    """theta_hat by its definition: the basis at the M cell midpoints."""
    M = folded.size
    return basis_matrix(J, (np.arange(M) + 0.5) / M) @ folded / n


def top_J(M):
    """The largest J with 2*(J//2) < M."""
    return M - 1 if M % 2 == 0 else M


@st.composite
def folds(draw, proxy=False):
    """(n, M, fold) with M above the proxy's ceiling for J = n when proxy is set."""
    n = draw(st.integers(4 if proxy else 1, 1000))
    low = max(16, 2 * (n // 2) + 1) if proxy else 16
    M = draw(st.integers(low, low + 400))
    seed = draw(st.integers(0, 2**32 - 1))
    scale = draw(st.sampled_from([1e-3, 1.0, 30.0]))
    return n, M, scale * np.random.default_rng(seed).standard_normal(M)


def assert_matches_reference(n, M, folded, J):
    est = estimate_fourier(ObservationPath(folded, n, M), J).theta_hat
    # |theta_hat_j| <= sqrt(2) sum|dy| / n bounds the scale of the rounding
    atol = 1e-13 * np.abs(folded).sum() / n
    np.testing.assert_allclose(est, reference_estimates(folded, n, J), rtol=0, atol=atol)


class TestEstimateFourier:
    @SETTINGS
    @given(fold=folds(), data=st.data())
    def test_fft_equals_basis_matmul(self, fold, data):
        n, M, folded = fold
        J = data.draw(st.integers(1, top_J(M)), label="J")
        for j in (J, top_J(M), top_J(M) - 1, M - 1):
            assert_matches_reference(n, M, folded, j)

    def test_proxy_size(self):
        # the oracle benchmark's proxy: J = n = 800 on M = 1600
        folded = np.random.default_rng(1).standard_normal(1600)
        assert_matches_reference(800, 1600, folded, 800)

    @SETTINGS
    @given(fold=folds())
    def test_first_aliased_J_rejected(self, fold):
        n, M, folded = fold
        with pytest.raises(ValueError, match="Nyquist"):
            estimate_fourier(ObservationPath(folded, n, M), top_J(M) + 1)


class TestVarianceProxy:
    @SETTINGS
    @given(fold=folds(proxy=True))
    def test_equals_reference_tail_sum(self, fold):
        n, M, folded = fold
        ref = float(np.sum(reference_estimates(folded, n, n)[math.isqrt(n):] ** 2))
        proxy = estimate_variance_proxy(ObservationPath(folded, n, M))
        assert proxy == pytest.approx(ref, rel=1e-10)

    @SETTINGS
    @given(fold=folds(proxy=True), data=st.data())
    def test_handed_in_estimates_equal_path(self, fold, data):
        # the selection hands over its first max(J, n) estimates
        n, M, folded = fold
        path = ObservationPath(folded, n, M)
        J = data.draw(st.integers(n, max(n, top_J(M))), label="J")
        assert (estimate_variance_proxy(path, estimate_fourier(path, J))
                == estimate_variance_proxy(path))

    def test_too_few_estimates_rejected(self):
        path = ObservationPath(np.ones(64), 20, 64)
        with pytest.raises(ValueError, match="reads n=20"):
            estimate_variance_proxy(path, estimate_fourier(path, 19))


levy_specs = st.builds(
    LevySpec,
    rho1=st.floats(0.01, 3.0),
    rho2=st.floats(0.01, 3.0),
    jump_intensity=st.floats(0.1, 20.0),
    jump_dist=st.sampled_from(JUMP_DISTS),
)
tau_dists = st.one_of(
    st.builds(TauDist.exponential, st.floats(0.05, 3.0)),
    st.floats(0.05, 2.0).flatmap(lambda lo: st.builds(TauDist.uniform, st.just(lo),
                                                     st.floats(lo * 1.01, lo + 3.0))),
)
semimarkov_specs = st.builds(
    SemiMarkovSpec,
    rho1=st.floats(0.01, 3.0),
    rho2=st.floats(0.01, 3.0),
    rho_check=st.floats(0.0, 1.0),
    tau_dist=tau_dists,
    y_dist=st.sampled_from(Y_DISTS),
)


class TestComponentSwitching:
    """The draws of each component do not depend on whether the other is on:
    a path with both equals, byte for byte, the sum of the two one-component
    paths on the same stream."""

    @SETTINGS
    @given(spec=st.one_of(levy_specs, semimarkov_specs), n=st.integers(1, 50),
           M=st.integers(16, 128), seed=st.integers(0, 2**32 - 1), fold=st.booleans())
    def test_sum_of_single_component_paths(self, spec, n, M, seed, fold):
        def draw(s):
            return simulate(s, n, M, derive_rng(seed, 3), fold=fold).increments

        both = draw(spec)
        first, second = draw(replace(spec, rho2=0.0)), draw(replace(spec, rho1=0.0))
        np.testing.assert_array_equal(both, first + second)


@st.composite
def selections(draw):
    """(grid, config, theta_hat, sigma_hat) on a random grid, with J estimates
    at or above its support (up to 60)."""
    n = draw(st.integers(2, 400))
    grid = build_weight_grid(n, draw(st.floats(0.1, 3.0)), k_star=draw(st.integers(1, 3)),
                             epsilon=draw(st.floats(0.15, 1.0)))
    J = draw(st.integers(max(1, grid.max_support()), 60))
    config = SelectionConfig(delta=draw(st.floats(1e-3, 0.33)), n=n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    theta = draw(st.sampled_from([1e-3, 0.1, 1.0])) * rng.standard_normal(J)
    return grid, config, theta, draw(st.floats(0.0, 3.0))


@st.composite
def shrinkages(draw, J):
    return ShrinkageConfig(d=draw(st.integers(1, J)), l_star=draw(st.floats(0.0, 50.0)),
                           r_star=draw(st.floats(0.1, 10.0)), v_n=draw(st.floats(1.0, 1e4)),
                           n=draw(st.integers(1, 400)))


class TestSelection:
    @SETTINGS
    @given(sel=selections(), data=st.data())
    def test_argmin_equals_bruteforce(self, sel, data):
        grid, config, theta, sigma = sel
        shrink_cfg = data.draw(st.none() | shrinkages(theta.size), label="shrink_cfg")
        res = model_select(theta, grid, config, sigma, shrink_cfg)
        theta_star = theta if shrink_cfg is None else shrink(theta, shrink_cfg)[0]
        brute = [cost(w, theta, sigma, config.delta, config.n, theta_star=theta_star)
                 for w in grid.members]
        # one plain-sum cost per member; the selector's one matrix product
        # may round the last bits apart, so near ties are equal
        scale = 1e-12 * (1.0 + float(np.sum(theta_star**2)) + sigma)
        assert brute[res.index] <= min(brute) + scale
        assert res.cost == pytest.approx(brute[res.index], rel=1e-9, abs=scale)
        lam = grid.members[res.index].lam
        np.testing.assert_array_equal(res.signal.coeffs,
                                      np.pad(lam, (0, theta.size - lam.size)) * theta_star)


class TestShrink:
    @SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), J=st.integers(1, 60),
           scale=st.sampled_from([1e-3, 0.1, 1.0, 30.0]), data=st.data())
    def test_head_norm_drops_by_c_n(self, seed, J, scale, data):
        cfg = data.draw(shrinkages(J), label="cfg")
        theta = scale * np.random.default_rng(seed).standard_normal(J)
        out, degenerate = shrink(theta, cfg)
        head = math.sqrt(float(np.sum(theta[: cfg.d] ** 2)))
        head_out = math.sqrt(float(np.sum(out[: cfg.d] ** 2)))
        np.testing.assert_array_equal(out[cfg.d:], theta[cfg.d:])
        assert not degenerate
        # past c_n >= |head| the factor 1 - c_n/|head| is not a contraction
        if head > cfg.c_n:
            assert (head - head_out) == pytest.approx(cfg.c_n, rel=0, abs=1e-12 * (1.0 + head))
