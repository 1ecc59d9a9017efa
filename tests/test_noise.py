"""Noise simulator moment checks against closed-form oracles."""

import math

import numpy as np
import pytest

from semimartreg.noise import (
    LevySpec,
    OuSpec,
    ReplicateStreams,
    RobustFamily,
    SemiMarkovSpec,
    TauDist,
    derive_rng,
    nominal_sigma,
    simulate,
    simulate_levy,
    simulate_ou,
    simulate_semimarkov,
    stream_keys,
)
from semimartreg.noise import _chunk_scales, _free_decay, _ou_fold_moments, _ou_weights
from semimartreg.observe import ObservationPath, _half_cell_phase, estimate_fourier


def terminal_values(spec, n, M, reps, seed, fold=True):
    return np.array([
        simulate(spec, n, M, derive_rng(seed, rep), fold=fold).sum()
        for rep in range(reps)
    ])


class TestLevy:
    def test_pure_brownian_scaling(self):
        n, reps = 16, 2000
        xi_n = terminal_values(LevySpec(1.0, 0.0), n, 32, reps, 101)
        scaled = xi_n / math.sqrt(n)
        var = scaled.var(ddof=1)
        se = math.sqrt(2.0 / reps)  # sd of a unit-variance sample variance
        assert abs(var - 1.0) <= 3 * se

    def test_pure_jump_variance(self):
        # oracle: compound-Poisson variance intensity * E[J^2] * n = n
        n, reps = 16, 2000
        for dist in ("two_point", "normalized_gaussian"):
            xi_n = terminal_values(LevySpec(0.0, 1.0, 2.0, dist), n, 32, reps, 202)
            var = xi_n.var(ddof=1) / n
            se = math.sqrt(2.0 / reps) * 2  # jump kurtosis inflates the variance of the variance
            assert abs(var - 1.0) <= 4 * se, dist

    def test_zero_spec_zero_path(self):
        path = simulate_levy(LevySpec(0.0, 0.0), 4, 16, derive_rng(0, 0), fold=False)
        np.testing.assert_array_equal(path, np.zeros(64))
        path = simulate_levy(LevySpec(0.0, 0.0), 4, 16, derive_rng(0, 0))
        np.testing.assert_array_equal(path, np.zeros(16))

    def test_validation(self):
        with pytest.raises(ValueError):
            LevySpec(-1.0, 0.0)
        with pytest.raises(ValueError):
            LevySpec(1.0, 1.0, jump_intensity=0.0)
        with pytest.raises(ValueError):
            LevySpec(1.0, 1.0, jump_dist="cauchy")

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            simulate_levy(LevySpec(1.0, 0.0), 0, 32, derive_rng(0, 0))
        with pytest.raises(ValueError):
            simulate_levy(LevySpec(1.0, 0.0), 4, 8, derive_rng(0, 0))


class TestOu:
    def test_zero_reversion_matches_driving(self):
        # a = 0 reduces to the driving Levy process; same seed gives the same
        # full path up to the rounding of the recursion's accumulation
        spec = OuSpec(a=0.0, a_max=1.0, driving=LevySpec(0.8, 0.6))
        n, reps = 8, 2000
        xi_ou = terminal_values(spec, n, 32, reps, 303, fold=False)
        xi_levy = terminal_values(spec.driving, n, 32, reps, 303, fold=False)
        np.testing.assert_allclose(xi_ou, xi_levy, rtol=0, atol=1e-9)
        assert abs(xi_ou.var(ddof=1) - xi_levy.var(ddof=1)) < 1e-8

    def test_stationary_variance(self):
        # oracle: Var xi_t = rho1^2 (1 - e^{2at}) / (-2a) -> 1/2 at a = -1
        spec = OuSpec(a=-1.0, a_max=2.0, driving=LevySpec(1.0, 0.0))
        n, reps = 16, 2000
        xi_n = terminal_values(spec, n, 64, reps, 404)
        var = xi_n.var(ddof=1)
        se = 0.5 * math.sqrt(2.0 / reps)
        assert abs(var - 0.5) <= 4 * se

    def test_zero_driving_zero_path(self):
        spec = OuSpec(a=-0.5, a_max=1.0, driving=LevySpec(0.0, 0.0))
        path = simulate_ou(spec, 4, 16, derive_rng(0, 0), fold=False)
        np.testing.assert_array_equal(path, np.zeros(64))
        path = simulate_ou(spec, 4, 16, derive_rng(0, 0))
        np.testing.assert_array_equal(path, np.zeros(16))

    def test_reversion_range_enforced(self):
        with pytest.raises(ValueError):
            OuSpec(a=0.5, a_max=1.0, driving=LevySpec(1.0, 0.0))
        with pytest.raises(ValueError):
            OuSpec(a=-2.0, a_max=1.0, driving=LevySpec(1.0, 0.0))

    def test_driving_must_be_levy(self):
        levy = LevySpec(0.8, 0.6)
        drivers = (SemiMarkovSpec(0.8, 0.42, 0.5, TauDist.exponential(0.5)),
                   OuSpec(a=-0.5, a_max=1.0, driving=levy))
        for driving in drivers:
            with pytest.raises(ValueError, match="driving must be a Levy spec"):
                OuSpec(a=-0.5, a_max=1.0, driving=driving)


class TestSemiMarkov:
    def test_poisson_special_case_variance(self):
        # exponential durations make X compound Poisson: Var X_n = n / tau_mean
        spec = SemiMarkovSpec(0.0, 1.0, 0.5, TauDist.exponential(1.0))
        n, reps = 32, 2000
        x_n = terminal_values(spec, n, 32, reps, 505)
        var = x_n.var(ddof=1) / n
        se = math.sqrt(2.0 / reps) * 2
        assert abs(var - 1.0) <= 4 * se

    def test_poisson_reduction_matches_levy(self):
        # first two moments of xi_n agree with the equivalent Levy spec
        sm_spec = SemiMarkovSpec(0.6, 0.8, 1.0, TauDist.exponential(1.0))
        levy = LevySpec(0.6, 0.8, jump_intensity=1.0, jump_dist="normalized_gaussian")
        n, reps = 32, 3000
        a = terminal_values(sm_spec, n, 32, reps, 606)
        b = terminal_values(levy, n, 32, reps, 607)
        pooled_se = math.sqrt(a.var(ddof=1) / reps + b.var(ddof=1) / reps)
        assert abs(a.mean() - b.mean()) <= 4 * pooled_se
        var_se = math.sqrt(2.0 / reps) * (a.var(ddof=1) + b.var(ddof=1)) / 2 * 2
        assert abs(a.var(ddof=1) - b.var(ddof=1)) <= 4 * var_se

    def test_elementary_renewal_rate(self):
        # E N_n / n -> 1/mean(tau) = 1 for uniform(0.5, 1.5) durations
        spec = SemiMarkovSpec(0.0, 1.0, 0.0, TauDist.uniform(0.5, 1.5), y_dist="rademacher")
        n, reps = 200, 200
        counts = []
        for rep in range(reps):
            path = simulate_semimarkov(spec, n, 16, derive_rng(707, rep), fold=False)
            # rademacher marks have |Y| = 1, so the event count is the L1 mass
            counts.append(np.abs(path).sum())
        rate = np.mean(counts) / n
        assert abs(rate - 1.0) <= 0.05

    def test_pure_brownian_limit(self):
        spec = SemiMarkovSpec(1.0, 0.0, 1.0, TauDist.exponential(1.0))
        n, reps = 16, 2000
        xi_n = terminal_values(spec, n, 32, reps, 808)
        var = xi_n.var(ddof=1) / n
        assert abs(var - 1.0) <= 3 * math.sqrt(2.0 / reps)

    def test_validation(self):
        with pytest.raises(ValueError):
            SemiMarkovSpec(1.0, 1.0, 1.5, TauDist.exponential(1.0))
        with pytest.raises(ValueError):
            TauDist.uniform(1.0, 0.5)
        with pytest.raises(ValueError):
            SemiMarkovSpec(1.0, 1.0, 0.5, TauDist.exponential(1.0), y_dist="cauchy")


class TestNominalSigma:
    def test_levy_values(self):
        assert nominal_sigma(LevySpec(1.0, 1.0)) == pytest.approx(2.0)
        assert nominal_sigma(LevySpec(1.0, 0.0)) == pytest.approx(1.0)

    def test_semimarkov_renewal_rate(self):
        # oracle: Var X_n / n = 1/mean(tau) via the Wald identity
        spec = SemiMarkovSpec(0.0, 1.0, 0.5, TauDist.exponential(2.0))
        assert nominal_sigma(spec) == pytest.approx(0.5)
        n, reps = 32, 2000
        x_n = terminal_values(spec, n, 32, reps, 909)
        assert abs(x_n.var(ddof=1) / n - 0.5) <= 4 * 0.5 * math.sqrt(2.0 / reps) * 2

    def test_ou_uses_driving_value(self):
        spec = OuSpec(a=-1.0, a_max=1.0, driving=LevySpec(0.5, 0.5))
        assert nominal_sigma(spec) == nominal_sigma(spec.driving)


class TestSecondMomentBound:
    def test_integral_second_moment_bounded(self):
        # E (integral of Tr_j against d_xi)^2 <= 1.1 * sigma_Q * n for Levy noise
        from semimartreg.observe import ObservationPath, estimate_fourier

        spec = LevySpec(0.6, 0.8)
        n, M, reps = 25, 64, 2000
        vals = np.empty((reps, 6))
        for rep in range(reps):
            noise = simulate(spec, n, M, derive_rng(314, rep))
            path = ObservationPath(noise, n, M)
            vals[rep] = (n * estimate_fourier(path, 6)) ** 2
        bound = 1.1 * nominal_sigma(spec) * n
        assert np.all(vals.mean(axis=0) <= bound)


class TestRefinementConsistency:
    def test_coarsened_fine_path_matches_moments(self):
        # couple M and 2M by aggregating fine cells pairwise; the coarse
        # functional must agree with the fine one within the MC standard error
        spec = LevySpec(0.7, 0.7)
        n, M, reps = 8, 32, 500
        fine_vals, coarse_vals = [], []
        for rep in range(reps):
            fine = simulate(spec, n, 2 * M, derive_rng(111, rep))
            coarse = fine.reshape(-1, 2).sum(axis=1)
            fine_vals.append(np.sum(fine) ** 2)
            coarse_vals.append(np.sum(coarse) ** 2)
        fine_vals, coarse_vals = np.array(fine_vals), np.array(coarse_vals)
        np.testing.assert_allclose(fine_vals, coarse_vals, rtol=1e-12)

    def test_independent_refinement_within_error(self):
        spec = LevySpec(1.0, 0.5)
        n, reps = 8, 1500
        a = terminal_values(spec, n, 32, reps, 112)
        b = terminal_values(spec, n, 64, reps, 113)
        pooled_se = math.sqrt(a.var(ddof=1) / reps + b.var(ddof=1) / reps)
        assert abs(a.mean() - b.mean()) <= 3 * pooled_se


class TestRobustFamily:
    def test_accepts_consistent_members(self):
        fam = RobustFamily(
            members=(LevySpec(1.0, 0.0), LevySpec(0.6, 0.8)),
            rho_lower=0.36,
            sigma_star=1.0,
        )
        assert len(fam.members) == 2

    def test_rejects_low_rho(self):
        # an OU member is bounded through its driving noise
        for member in (LevySpec(0.5, 0.0),
                       OuSpec(a=-0.5, a_max=1.0, driving=LevySpec(0.5, 0.0))):
            with pytest.raises(ValueError, match="rho1"):
                RobustFamily(members=(member,), rho_lower=0.5, sigma_star=1.0)

    def test_rejects_large_sigma(self):
        with pytest.raises(ValueError):
            RobustFamily(members=(LevySpec(1.0, 1.0),), rho_lower=0.5, sigma_star=1.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            RobustFamily(members=(), rho_lower=0.5, sigma_star=1.0)


class TestDeriveRng:
    def test_deterministic(self):
        a = derive_rng(42, 1, 2).standard_normal(4)
        b = derive_rng(42, 1, 2).standard_normal(4)
        np.testing.assert_array_equal(a, b)

    def test_distinct_paths_differ(self):
        a = derive_rng(42, 1).standard_normal(4)
        b = derive_rng(42, 2).standard_normal(4)
        assert not np.allclose(a, b)


ONE_OF_EACH = [
    LevySpec(0.6, 0.8, jump_dist="two_point"),
    OuSpec(a=-0.5, a_max=1.0, driving=LevySpec(0.8, 0.6)),
    SemiMarkovSpec(0.8, 0.42, 0.5, TauDist.exponential(0.5)),
]


# seeds of one to seven 32-bit words, and the master seed the improve-ou
# benchmark workload writes into its config at benchmark seed 801
KEY_SEEDS = [0, 2**32 - 1, 2**32, 2**64 + 5, 2**200 + 99, 1119653746]


def draw_each_kind(rng):
    """One draw of every kind the samplers make."""
    return [
        rng.standard_normal(5),
        rng.poisson(0.4, size=7),
        rng.integers(0, 100, size=6),
        rng.integers(0, 2, size=9),
        rng.exponential(0.5, size=4),
        rng.uniform(0.2, 1.5, size=4),
        rng.binomial(np.array([0, 3, 40, 900]), 0.5),
        rng.standard_normal(3),
    ]


class TestReplicateStreams:
    """stream_keys and ReplicateStreams reach the streams of derive_rng, the
    reference, without building a SeedSequence per path."""

    @pytest.mark.parametrize("seed", KEY_SEEDS)
    def test_keys_are_the_seed_sequence_state(self, seed):
        reps = 1500
        keys = stream_keys(seed, reps)
        assert keys.shape == (reps, 2) and keys.dtype == np.uint64
        expected = np.array([
            np.random.SeedSequence(entropy=seed, spawn_key=(rep,)).generate_state(2, np.uint64)
            for rep in range(reps)
        ])
        np.testing.assert_array_equal(keys, expected)

    @pytest.mark.parametrize("seed", KEY_SEEDS)
    def test_rekeyed_draws_match_derive_rng(self, seed):
        streams = ReplicateStreams(seed, 40)
        for rep in (0, 1, 17, 39):
            got, want = draw_each_kind(streams.rng(rep)), draw_each_kind(derive_rng(seed, rep))
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)

    def test_rekey_discards_buffered_bits(self):
        # a 32-bit draw leaves half a word and three words of Philox output
        # behind; the next path must not start from them
        streams = ReplicateStreams(7, 3)
        rng = streams.rng(0)
        rng.random(dtype=np.float32)
        state = rng.bit_generator.state
        assert state["has_uint32"] == 1 and state["buffer_pos"] < 4
        for a, b in zip(draw_each_kind(streams.rng(1)), draw_each_kind(derive_rng(7, 1))):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("fold", [True, False])
    def test_paths_match_derive_rng(self, fold):
        # each path follows another path on the same generator
        streams = ReplicateStreams(2024, 6)
        for rep in range(6):
            for spec in ONE_OF_EACH:
                got = simulate(spec, 8, 32, streams.rng(rep), fold=fold)
                want = simulate(spec, 8, 32, derive_rng(2024, rep), fold=fold)
                np.testing.assert_array_equal(got, want)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            stream_keys(-1, 4)
        with pytest.raises(ValueError):
            stream_keys(0, -1)


class TestOneStream:
    @pytest.mark.parametrize("fold", [True, False])
    @pytest.mark.parametrize("spec", ONE_OF_EACH, ids=lambda s: s.family)
    def test_no_child_streams(self, spec, fold):
        rng = derive_rng(11, 4)
        simulate(spec, 8, 32, rng, fold=fold)
        assert rng.bit_generator.seed_seq.n_children_spawned == 0

    @pytest.mark.parametrize("fold", [True, False])
    def test_brownian_block_draws_first(self, fold):
        # a pure Brownian path is the first cells draws of the stream, scaled
        n, M = 8, 32
        cells, width = (M, n / M) if fold else (n * M, 1.0 / M)
        path = simulate_levy(LevySpec(0.7, 0.0), n, M, derive_rng(12, 0), fold=fold)
        z = derive_rng(12, 0).standard_normal(cells)
        np.testing.assert_array_equal(path, 0.7 * math.sqrt(width) * z)


class TestCachedConstants:
    """The caches hand every caller the same arrays, so they must be
    read-only and equal to a fresh computation after use."""

    def test_read_only_and_fresh(self):
        spec = ONE_OF_EACH[1]
        n, M = 12, 64
        for fold in (True, False):
            sums = simulate(spec, n, M, derive_rng(13, 0), fold=fold).reshape(-1, M)
        estimate_fourier(ObservationPath(sums.sum(axis=0), n, M), 20)
        a = spec.a
        arrays = {
            "g": (_ou_weights(a, n, M)[0], _ou_weights.__wrapped__(a, n, M)[0]),
            "c": (_ou_weights(a, n, M)[1], _ou_weights.__wrapped__(a, n, M)[1]),
            "h": (_free_decay(a, M), _free_decay.__wrapped__(a, M)),
            "fold scales": (_chunk_scales(a / M, M), _chunk_scales.__wrapped__(a / M, M)),
            "period scales": (_chunk_scales(a, n), _chunk_scales.__wrapped__(a, n)),
            "phase": (_half_cell_phase(10, M), _half_cell_phase.__wrapped__(10, M)),
        }
        for name, (cached, fresh) in arrays.items():
            assert not cached.flags.writeable, name
            np.testing.assert_array_equal(cached, fresh, err_msg=name)
            with pytest.raises(ValueError):
                cached[0] = 1.0
        assert _ou_fold_moments(a, n, M) == _ou_fold_moments.__wrapped__(a, n, M)
