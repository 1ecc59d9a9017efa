"""Risk evaluation and report generator tests."""

import math

import numpy as np
import pytest

from semimartreg.noise import (
    LevySpec,
    OuSpec,
    RobustFamily,
    SemiMarkovSpec,
    TauDist,
    derive_rng,
)
from semimartreg.risk import (
    ProjectionPipeline,
    SelectionPipeline,
    build_grid_for,
    efficiency_sweep,
    improvement_report,
    l2_risk_exact,
    monte_carlo_risk,
    oracle_report,
    pinsker_constant,
    robust_risk,
    worst_single_frequency,
)
from semimartreg.select import SelectionConfig, ShrinkageConfig, make_shrinkage_config
from semimartreg.signal import Signal, synthesize


class TestL2RiskExact:
    def test_perfect_estimate(self):
        th = np.array([0.5, -0.2, 0.1])
        assert l2_risk_exact(th, th) == 0.0

    def test_zero_estimate(self):
        th = np.array([0.5, -0.2, 0.1])
        assert l2_risk_exact(np.zeros(3), th) == pytest.approx(float(np.sum(th**2)))

    def test_matches_quadrature(self):
        rng = np.random.default_rng(17)
        th = rng.normal(size=8)
        est = th + rng.normal(size=8) * 0.3
        t = (np.arange(4096) + 0.5) / 4096
        diff = synthesize(Signal(est), t) - synthesize(Signal(th), t)
        quad = float(np.mean(diff**2))
        assert l2_risk_exact(est, th) == pytest.approx(quad, abs=1e-8)

    def test_tail_and_padding(self):
        est = np.array([1.0])
        th = np.array([1.0, 0.5])
        assert l2_risk_exact(est, th) == pytest.approx(0.25)

    @pytest.mark.parametrize("J, T", [(12, 5), (12, 12), (5, 12)])
    def test_rows_match_one_estimate_at_a_time(self, J, T):
        # byte for byte, also where the truth is longer than the estimates
        rng = np.random.default_rng(J * 100 + T)
        for _ in range(20):
            ests, th = rng.normal(size=(7, J)), rng.normal(size=T)
            rows = l2_risk_exact(ests, th)
            assert rows.tobytes() == np.array([l2_risk_exact(e, th) for e in ests]).tobytes()


class TestMonteCarloRisk:
    def test_zero_noise_deterministic(self):
        sig = Signal(np.array([0.4, 0.3]))
        report = monte_carlo_risk(
            sig, LevySpec(0.0, 0.0), ProjectionPipeline(m=2), 10, 1, n=8, M=64
        )
        assert report.std_error == 0.0
        assert report.mean_risk == pytest.approx(0.0, abs=1e-8)

    def test_projection_risk_oracle(self):
        # oracle: exact expectation m*sigma/n for S = 0 under Brownian noise
        m, n = 5, 25
        report = monte_carlo_risk(
            Signal(np.zeros(1)), LevySpec(1.0, 0.0), ProjectionPipeline(m=m),
            600, 33, n=n, M=64,
        )
        assert abs(report.mean_risk - m / n) <= 3 * report.std_error

    def test_doubling_reps_halves_variance(self):
        sig = Signal(np.zeros(1))
        a = monte_carlo_risk(sig, LevySpec(1.0, 0.0), ProjectionPipeline(m=3),
                             400, 44, n=16, M=32)
        b = monte_carlo_risk(sig, LevySpec(1.0, 0.0), ProjectionPipeline(m=3),
                             800, 44, n=16, M=32)
        ratio = b.std_error**2 / a.std_error**2
        assert 0.3 <= ratio <= 0.75

    def test_bit_identical_reruns(self):
        sig = Signal(np.array([0.2]))
        kwargs = dict(n=8, M=32)
        a = monte_carlo_risk(sig, LevySpec(0.5, 0.5), ProjectionPipeline(m=2), 50, 7, **kwargs)
        b = monte_carlo_risk(sig, LevySpec(0.5, 0.5), ProjectionPipeline(m=2), 50, 7, **kwargs)
        assert a == b

    def test_workers_do_not_change_results(self):
        sig = Signal(np.array([0.2]))
        a = monte_carlo_risk(sig, LevySpec(0.5, 0.5), ProjectionPipeline(m=2),
                             40, 7, n=8, M=32, workers=1)
        b = monte_carlo_risk(sig, LevySpec(0.5, 0.5), ProjectionPipeline(m=2),
                             40, 7, n=8, M=32, workers=2)
        assert a == b

    def test_needs_two_reps(self):
        with pytest.raises(ValueError):
            monte_carlo_risk(Signal(np.zeros(1)), LevySpec(1.0, 0.0),
                             ProjectionPipeline(m=1), 1, 0, n=4, M=32)


class TestReplicateMap:
    def test_pool_no_larger_than_its_tasks(self, monkeypatch):
        # a fork pool starts all of its workers at once; this one runs inline
        import concurrent.futures

        from semimartreg import risk

        sizes = []

        class InlinePool:
            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(risk, "_worker_fn", None)
        assert risk._map_reps(lambda rep: rep * rep, 3, 8) == [0, 1, 4]
        assert sizes == [3]


class TestRobustRisk:
    def test_singleton_equals_monte_carlo(self):
        sig = Signal(np.array([0.3]))
        fam = RobustFamily(members=(LevySpec(1.0, 0.0),), rho_lower=0.9, sigma_star=1.0)
        a = robust_risk(sig, fam, ProjectionPipeline(m=2), 60, 5, n=8, M=32)
        b = monte_carlo_risk(sig, fam.members[0], ProjectionPipeline(m=2), 60, 5, n=8, M=32)
        assert a.mean_risk == b.mean_risk
        assert a.std_error == b.std_error
        assert a.argmax_member == 0
        # every member of a larger family, on the pool too, is its own
        # Monte Carlo risk: members share the replication streams
        fam = RobustFamily(
            members=(LevySpec(1.0, 0.0),
                     OuSpec(a=-0.5, a_max=1.0, driving=LevySpec(0.8, 0.6)),
                     SemiMarkovSpec(0.6, 0.5, 0.5, TauDist.exponential(1.0))),
            rho_lower=0.36, sigma_star=1.0,
        )
        for workers in (1, 2):
            a = robust_risk(sig, fam, ProjectionPipeline(m=2), 20, 5, n=8, M=32,
                            workers=workers)
            for k, member in enumerate(fam.members):
                b = monte_carlo_risk(sig, member, ProjectionPipeline(m=2), 20, 5,
                                     n=8, M=32, workers=workers)
                assert a.member_risks[k] == b.mean_risk
                assert a.member_std_errors[k] == b.std_error
            assert a.mean_risk == max(a.member_risks)

    def test_dominated_member_identified(self):
        # oracle: projection risk scales with sigma_Q, so the larger-sigma
        # member must achieve the supremum
        sig = Signal(np.zeros(1))
        fam = RobustFamily(
            members=(LevySpec(0.8, 0.0), LevySpec(1.6, 0.0)),
            rho_lower=0.5, sigma_star=2.6,
        )
        report = robust_risk(sig, fam, ProjectionPipeline(m=4), 300, 9, n=16, M=32)
        assert report.argmax_member == 1
        assert report.member_risks[1] > report.member_risks[0]


class TestOracleReport:
    def test_selection_never_beats_best_member_beyond_noise(self):
        spec = LevySpec(0.5, 0.5)
        grid = build_grid_for(100, 0.5)
        sig = Signal(np.array([0.5, 0.3, -0.2, 0.1]))
        cfg = SelectionConfig(delta=0.05, n=100)
        report = oracle_report(sig, spec, SelectionPipeline(grid, cfg), 150, 13, n=100, M=256)
        assert report.oracle_lhs >= min(report.member_risks) - 3 * report.std_error
        assert report.oracle_holds
        assert report.oracle_factor == pytest.approx(1.15 / 0.85)

    def test_singleton_grid_reduces_to_member(self):
        from semimartreg.select import build_weight_grid

        spec = LevySpec(1.0, 0.0)
        grid = build_weight_grid(50, 1.0, k_star=1, epsilon=1.0)
        sig = Signal(np.array([0.4, 0.2]))
        cfg = SelectionConfig(delta=0.05, n=50, sigma_known=1.0)
        report = oracle_report(sig, spec, SelectionPipeline(grid, cfg), 100, 15, n=50, M=64)
        assert report.oracle_lhs == pytest.approx(report.member_risks[0], rel=1e-12)

    def test_selection_pipeline_matches_manual_selection(self):
        from semimartreg.noise import derive_rng, simulate
        from semimartreg.select import model_select
        from semimartreg.observe import (ObservationPath, estimate_fourier,
                                         estimate_variance_proxy, signal_increments)

        spec = LevySpec(0.7, 0.5)
        n, M = 60, 64
        grid = build_grid_for(n, 0.74)
        cfg = SelectionConfig(delta=0.05, n=n)
        shrink_cfg = make_shrinkage_config((spec,), grid, n, 0.74, rho_lower=0.49, d=4)
        sig = Signal(np.array([0.4, 0.2]))
        noise = simulate(spec, n, M, derive_rng(77, 0))
        path = ObservationPath(n * signal_increments(sig, 1, M) + noise, n, M)
        theta = estimate_fourier(path, grid.max_support())
        sigma = estimate_variance_proxy(path)

        plain = SelectionPipeline(grid=grid, config=cfg)
        np.testing.assert_array_equal(
            plain(path), model_select(theta, grid, cfg, sigma).coeffs
        )
        improved = SelectionPipeline(grid=grid, config=cfg, shrink_cfg=shrink_cfg)
        np.testing.assert_array_equal(
            improved(path),
            model_select(theta, grid, cfg, sigma, shrink_cfg).coeffs,
        )

    def test_determinism(self):
        spec = LevySpec(0.5, 0.5)
        grid = build_grid_for(60, 0.5)
        sig = Signal(np.array([0.3, 0.2]))
        cfg = SelectionConfig(delta=0.05, n=60)
        a = oracle_report(sig, spec, SelectionPipeline(grid, cfg), 40, 3, n=60, M=64)
        b = oracle_report(sig, spec, SelectionPipeline(grid, cfg), 40, 3, n=60, M=64)
        assert a == b

    def test_oracle_score_member_risks_per_member(self):
        # every member risk of a replicate's score equals l2_risk_exact of
        # that member's estimate, byte for byte; the truth is longer than
        # the grid's width
        from semimartreg.noise import derive_rng, simulate
        from semimartreg.observe import ObservationPath, signal_increments
        from semimartreg.risk import _oracle_score

        n, M = 60, 64
        grid = build_grid_for(n, 0.74)
        J = grid.max_support()
        cfg = SelectionConfig(delta=0.05, n=n)
        shrink_cfg = make_shrinkage_config((LevySpec(0.7, 0.5),), grid, n, 0.74, rho_lower=0.49,
                                           d=4)
        pipeline = SelectionPipeline(grid=grid, config=cfg, shrink_cfg=shrink_cfg)
        assert pipeline.J == J
        truth = np.random.default_rng(5).normal(size=J + 6) / 10
        sig = Signal(truth)
        for rep in range(5):
            noise = simulate(LevySpec(0.7, 0.5), n, M, derive_rng(78, rep))
            path = ObservationPath(n * signal_increments(sig, 1, M) + noise, n, M)
            row = _oracle_score(path, truth, pipeline)
            theta_star = pipeline.select(path).theta_star
            expected = [l2_risk_exact(w.lam * theta_star, truth) for w in grid.members]
            assert np.array(row[1:-1]).tobytes() == np.array(expected).tobytes()

    def test_member_risks_match_bruteforce(self):
        # oracle: rebuild every member risk with plain sums on the same paths
        from semimartreg.noise import derive_rng, simulate
        from semimartreg.observe import ObservationPath, estimate_fourier
        from semimartreg.observe import signal_increments

        spec = LevySpec(0.5, 0.5)
        n, M, reps, seed = 100, 256, 60, 13
        grid = build_grid_for(n, 0.5)
        J = grid.max_support()
        sig = Signal(np.array([0.5, 0.3, -0.2, 0.1]))
        cfg = SelectionConfig(delta=0.05, n=n, sigma_known=0.5)
        rep_report = oracle_report(sig, spec, SelectionPipeline(grid, cfg), reps, seed, n=n, M=M)

        det = n * signal_increments(sig, 1, M)
        theta = np.concatenate([sig.coeffs, np.zeros(J - sig.coeffs.size)])
        sums = np.zeros(grid.nu)
        for rep in range(reps):
            noise = simulate(spec, n, M, derive_rng(seed, rep))
            th = estimate_fourier(ObservationPath(det + noise, n, M), J)
            for i, w in enumerate(grid.members):
                sums[i] += sum((w.lam[j] * th[j] - theta[j]) ** 2 for j in range(J))
        np.testing.assert_allclose(np.asarray(rep_report.member_risks), sums / reps,
                                   rtol=1e-10)


class TestSelectionPipelineBuild:
    """The contraction bound of a family is the smallest over its members,
    whatever their order."""

    LEVY = LevySpec(0.6, 0.8)
    OU = OuSpec(a=-0.5, a_max=1.0, driving=LevySpec(0.8, 0.6))
    SEMIMARKOV = SemiMarkovSpec(0.8, 0.42, 0.5, TauDist.exponential(0.5))

    @staticmethod
    def build(members, d):
        return SelectionPipeline.build(100, 1.0, 0.05, members=members, rho_lower=0.36,
                                       a_max=1.0, d=d)

    @pytest.mark.parametrize("members", [(LEVY, SEMIMARKOV), (SEMIMARKOV, LEVY)])
    def test_levy_and_semimarkov_share_the_levy_bound(self, members):
        assert self.build(members, 10).shrink_cfg.l_star == pytest.approx(9 * 0.36)

    @pytest.mark.parametrize("members", [(LEVY, OU), (OU, LEVY)])
    def test_ou_member_sets_the_bound_above_d0(self, members):
        assert self.build(members, 60).shrink_cfg.l_star == pytest.approx(54 * 0.36 / 2)

    @pytest.mark.parametrize("members", [(LEVY, OU), (OU, LEVY)])
    def test_ou_member_below_d0_disables_shrinkage(self, members):
        with pytest.warns(UserWarning, match="d0=58"):
            shrink_cfg = self.build(members, 57).shrink_cfg
        assert shrink_cfg.l_star == 0.0

    def test_no_members_is_standard_selection(self):
        assert SelectionPipeline.build(100, 1.0, 0.05).shrink_cfg is None

    def test_pipelines_compare_by_identity(self):
        a, b = self.build((self.LEVY,), 10), self.build((self.LEVY,), 10)
        assert a == a
        assert (a == b) is False


class TestImprovementReport:
    def setup_cfg(self, d=10, n=100, l=9.0):
        return ShrinkageConfig(d=d, l_star=l, r_star=math.log(n + 1.0), v_n=float(n), n=n)

    def test_zero_budget_means_zero_delta(self):
        cfg = ShrinkageConfig(d=5, l_star=0.0, r_star=5.0, v_n=100.0, n=100)
        report = improvement_report(
            Signal(np.array([0.5])), LevySpec(1.0, 0.0), cfg, 50, 2,
            n=100, M=256,
        )
        assert report.delta_hat == 0.0
        assert report.delta_se == 0.0
        assert report.improvement_bound == 0.0

    def test_levy_improvement_bound(self):
        cfg = self.setup_cfg()
        sig = Signal(np.array([0.5, 0.3, 0.2]))
        report = improvement_report(sig, LevySpec(1.0, 0.0), cfg, 800, 6, n=100, M=256)
        assert report.delta_hat - report.improvement_bound <= 3 * report.delta_se
        assert report.identity_max_dev < 1e-12

    def test_pairing_seed_stability(self):
        cfg = self.setup_cfg()
        sig = Signal(np.array([0.5, 0.3, 0.2]))
        a = improvement_report(sig, LevySpec(1.0, 0.0), cfg, 800, 6, n=100, M=256)
        b = improvement_report(sig, LevySpec(1.0, 0.0), cfg, 800, 60, n=100, M=256)
        combined = math.hypot(a.delta_se, b.delta_se)
        assert abs(a.delta_hat - b.delta_hat) <= 3 * combined

    def test_signal_norm_hypothesis_enforced(self):
        cfg = ShrinkageConfig(d=3, l_star=2.0, r_star=0.5, v_n=100.0, n=100)
        with pytest.raises(ValueError):
            improvement_report(Signal(np.array([5.0])), LevySpec(1.0, 0.0), cfg, 10, 0,
                               n=100, M=256)


class TestPinskerConstant:
    def test_reference_value(self):
        # oracle: direct evaluation of the closed form at k=1, r=1
        expected = 3.0 ** (1.0 / 3.0) * (1.0 / (2.0 * math.pi)) ** (2.0 / 3.0)
        assert pinsker_constant(1, 1.0) == pytest.approx(expected, rel=1e-12)
        assert pinsker_constant(1, 1.0) == pytest.approx(0.423565, abs=1e-6)

    def test_radius_scaling(self):
        for k in (1, 2, 5):
            ratio = pinsker_constant(k, 2.0) / pinsker_constant(k, 1.0)
            assert ratio == pytest.approx(2.0 ** (1.0 / (2 * k + 1)), rel=1e-12)

    def test_large_k_trend(self):
        # oracle: numeric sweep against (2k)^(1/(2k+1)) (1/pi)^(2k/(2k+1))
        def asymptote(k):
            return (2.0 * k) ** (1.0 / (2 * k + 1)) * (1.0 / math.pi) ** (2.0 * k / (2 * k + 1))

        ratios = [pinsker_constant(k, 1.0) / asymptote(k) for k in range(1, 40)]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert abs(ratios[-1] - 1.0) < 0.03

    def test_validation(self):
        with pytest.raises(ValueError):
            pinsker_constant(0, 1.0)
        with pytest.raises(ValueError):
            pinsker_constant(1, 0.0)


class TestEfficiencySweep:
    def test_small_sweep_sane(self):
        fam = RobustFamily(members=(LevySpec(1.0, 0.0),), rho_lower=0.9, sigma_star=1.0)
        report = efficiency_sweep(1, 1.0, fam, [50, 100], 50, 19, M=64, n_signals=2)
        assert len(report.rows) == 2
        for row in report.rows:
            assert math.isfinite(row.ratio) and row.ratio > 0
        assert report.rows[0].normalization == pytest.approx(50 ** (2.0 / 3.0))
        assert report.rows[1].v_n == 100.0

    def test_every_family_runs_improved_selection(self):
        # a family with an OU member below d0 shrinks by c_n = 0, and says so
        levy = RobustFamily(members=(LevySpec(1.0, 0.0), LevySpec(0.8, 0.6)),
                            rho_lower=0.6, sigma_star=1.0)
        mixed = RobustFamily(
            members=(LevySpec(1.0, 0.0), OuSpec(a=-0.5, a_max=1.0, driving=LevySpec(0.8, 0.6))),
            rho_lower=0.6, sigma_star=1.0,
        )
        report = efficiency_sweep(1, 1.0, levy, [50], 2, 3, M=64, n_signals=1)
        assert report.estimator_id == "improved_selection"
        with pytest.warns(UserWarning, match="shrinkage disabled"):
            report = efficiency_sweep(1, 1.0, mixed, [50], 2, 3, M=64, n_signals=1)
        assert report.estimator_id == "improved_selection"

    def test_one_pool_for_all_horizons(self, monkeypatch):
        import concurrent.futures

        pools = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs["max_workers"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        fam = RobustFamily(members=(LevySpec(1.0, 0.0),), rho_lower=0.9, sigma_star=1.0)
        args = (1, 1.0, fam, [50, 100, 200], 4, 19)
        pooled = efficiency_sweep(*args, M=64, n_signals=1, workers=2)
        assert pools == [2]
        assert pooled == efficiency_sweep(*args, M=64, n_signals=1, workers=1)

    def test_normalization_matches_reference(self):
        # v_n = n at sigma_star = 1; exponent 2k/(2k+1) = 2/3 at k = 1
        assert 400 ** (2.0 / 3.0) == pytest.approx(54.288, abs=1e-2)

    def test_increasing_horizons_required(self):
        fam = RobustFamily(members=(LevySpec(1.0, 0.0),), rho_lower=0.9, sigma_star=1.0)
        with pytest.raises(ValueError):
            efficiency_sweep(1, 1.0, fam, [100, 100], 10, 0, M=64)

    def test_worst_single_frequency_in_ball(self):
        from semimartreg.signal import sobolev_norm

        grid = build_grid_for(100, 1.0)
        sig = worst_single_frequency(grid, 1, 1.0, 1.0, 100)
        assert np.count_nonzero(sig.coeffs) == 1
        assert sobolev_norm(sig, 1) == pytest.approx(0.95, rel=1e-9)
