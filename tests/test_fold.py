"""Fixed-seed equivalence of the folded samplers with the fold of the full path.

The folded samplers draw other random numbers than the full-path ones, so
the two agree in law, not draw for draw.  Over 2000 replicates at pinned
seeds, the folded sums of the two agree in mean, variance and 5/50/95%
quantiles, and sqrt(n) theta_hat_j agree in second moment, each within 4
standard errors of the difference.  Every statistic is a mean of one value
per replicate, so its standard error holds however the cells of one
replicate depend on each other.  The OU fold also rests on an identity,
fold = T F + S h, checked without randomness against the fold of the
full-path recursion, and that recursion against a plain loop.
"""

import math

import numpy as np
import pytest

from semimartreg.noise import (
    JUMP_DISTS,
    Y_DISTS,
    LevySpec,
    OuSpec,
    SemiMarkovSpec,
    TauDist,
    derive_rng,
    nominal_sigma,
    simulate,
    simulate_levy,
    simulate_ou,
)
from semimartreg.noise import _ou_full_path, _ou_period, _ou_weights
from semimartreg.observe import ObservationPath, estimate_fourier

REPS, N, M, J = 2000, 8, 16, 8
QUANTILES = (0.05, 0.5, 0.95)

LEVY = [LevySpec(0.3, 1.0, jump_intensity=0.5, jump_dist=d) for d in JUMP_DISTS]
SEMIMARKOV = [
    SemiMarkovSpec(0.6, 0.8, 0.5, tau, y_dist=y)
    for tau in (TauDist.exponential(0.5), TauDist.uniform(0.25, 0.75))
    for y in Y_DISTS
]
# Moderate and strong mean reversion.  At a = -50 the fold's sum is nearly
# F_{M-1} - S, so E(sqrt(n) theta_hat_1)^2 weighs the law of S given F.
OU = [
    OuSpec(a=a, a_max=50.0, driving=LevySpec(0.8, 0.6, jump_intensity=0.5, jump_dist=d))
    for a in (-2.0, -50.0)
    for d in JUMP_DISTS
]
# (spec, seed of the folded sampler, seed of the full path), pinned
CASES = [(spec, 6100 + i, 6200 + i) for i, spec in enumerate(LEVY + SEMIMARKOV + OU)]


def folded_sums(spec, seed, fold):
    """(REPS, M) per-period sums from the folded sampler, or from the fold
    of the full path."""
    return np.array([
        simulate(spec, N, M, derive_rng(seed, rep), fold=fold).increments.reshape(-1, M).sum(0)
        for rep in range(REPS)
    ])


def assert_same_mean(a, b, what):
    """a and b hold one value per replicate of two independent samples."""
    se = math.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
    gap = abs(a.mean() - b.mean())
    assert gap <= 4 * se, f"{what}: {a.mean():.5g} vs {b.mean():.5g}, gap {gap / se:.2f} se"


def scaled_estimates(sums):
    """(REPS, J) values of sqrt(n) theta_hat_j of each replicate's fold."""
    return np.array([
        math.sqrt(N) * estimate_fourier(ObservationPath(row, N, M), J).theta_hat
        for row in sums
    ])


@pytest.mark.parametrize("spec, fold_seed, full_seed", CASES,
                         ids=[f"{type(s).__name__}-{i}" for i, (s, _, _) in enumerate(CASES)])
def test_fold_matches_full_path_in_law(spec, fold_seed, full_seed):
    folded = folded_sums(spec, fold_seed, fold=True)
    full = folded_sums(spec, full_seed, fold=False)
    assert_same_mean(folded.mean(axis=1), full.mean(axis=1), "mean")
    # the sums are centred, so the second moment is the variance
    assert_same_mean((folded**2).mean(axis=1), (full**2).mean(axis=1), "variance")
    pooled = np.concatenate([folded, full]).ravel()
    for p in QUANTILES:
        q = np.quantile(pooled, p)
        # P(sum <= q) per replicate, at the pooled p-quantile q
        assert_same_mean((folded <= q).mean(axis=1), (full <= q).mean(axis=1), f"{p:.0%} quantile")
    a, b = scaled_estimates(folded) ** 2, scaled_estimates(full) ** 2
    for j in range(J):
        assert_same_mean(a[:, j], b[:, j], f"E (sqrt(n) theta_hat_{j + 1})^2")


@pytest.mark.parametrize("spec, fold_seed, full_seed", CASES[: len(LEVY)],
                         ids=list(JUMP_DISTS))
def test_levy_fold_variance_is_exact(spec, fold_seed, full_seed):
    # one cell of the fold sums n cells of width 1/M: variance n sigma / M
    second = (folded_sums(spec, fold_seed, fold=True) ** 2).mean(axis=1)
    exact = N * nominal_sigma(spec) / M
    se = second.std(ddof=1) / math.sqrt(REPS)
    assert abs(second.mean() - exact) <= 4 * se


def plain_recursion(du, a):
    """Increments of xi_{k+1} = e^{a/M} xi_k + du_k, xi_0 = 0, one cell at a time."""
    phi = math.exp(a / du.shape[1])
    xi, out = 0.0, []
    for d in du.ravel():
        nxt = phi * xi + d
        out.append(nxt - xi)
        xi = nxt
    return np.array(out)


@pytest.mark.parametrize("a", [-1.0, 0.0, -50.0])
def test_ou_fold_identity(a):
    # fold = T F + S h with F = sum_p du_p and S = sum_q c_q g.du_q, on
    # arbitrary driving increments with jumps of every size
    n, m = 50, 16
    rng = np.random.default_rng(6300)
    du = rng.standard_normal((n, m)) * rng.exponential(size=(n, m)) ** 3
    g, c = _ou_weights(a, n, m)
    folded = _ou_period(du.sum(axis=0), c @ (du @ g), a)
    full = _ou_full_path(du, a)
    np.testing.assert_allclose(folded, full.reshape(n, m).sum(axis=0), rtol=0, atol=1e-11)
    np.testing.assert_allclose(full, plain_recursion(du, a), rtol=0, atol=1e-11)


def test_ou_full_path_at_a_max():
    # a = -a_max = -50 at M = 16: the state recursion scales by e^50 per
    # period, so its scaled cumsum over the 40 period states runs in chunks
    # of 12 periods; the full path stays finite and equals the plain
    # recursion on the same driving increments
    spec = OuSpec(a=-50.0, a_max=50.0, driving=LevySpec(0.8, 0.6))
    n, m = 40, 16
    for rep in range(5):
        path = simulate_ou(spec, n, m, derive_rng(6301, rep), fold=False).increments
        du = simulate_levy(spec.driving, n, m, derive_rng(6301, rep), fold=False).increments
        assert np.all(np.isfinite(path))
        np.testing.assert_allclose(path, plain_recursion(du.reshape(n, m), spec.a),
                                   rtol=0, atol=1e-12)
