"""Weight grid, cost, selection and shrinkage tests."""

import math

import numpy as np
import pytest

from cost_reference import cost, penalty
from semimartreg.noise import LevySpec, OuSpec
from semimartreg.observe import ObservationPath
from semimartreg.select import (
    SelectionConfig,
    ShrinkageConfig,
    WeightVector,
    build_weight_grid,
    l_star,
    make_shrinkage_config,
    minimax_rate_vn,
    model_select,
    ou_min_dimension,
    shrink,
    tau_beta,
)
from semimartreg.signal import Signal


class TestRates:
    def test_vn_values(self):
        assert minimax_rate_vn(100, 1.0) == 100.0
        assert minimax_rate_vn(100, 2.0) == 50.0
        assert minimax_rate_vn(1000, 0.5) == 2000.0

    def test_vn_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            minimax_rate_vn(100, 0.0)

    def test_tau_beta_values(self):
        assert tau_beta(1) == pytest.approx(6.0 / math.pi**2, rel=1e-12)
        assert tau_beta(2) == pytest.approx(15.0 / (2.0 * math.pi**4), rel=1e-12)

    def test_tau_beta_below_one(self):
        assert all(tau_beta(b) < 1.0 for b in range(1, 30))


class TestWeightGrid:
    def test_reference_grid_n100(self):
        grid = build_weight_grid(100, 1.0)
        assert grid.epsilon == pytest.approx(1.0 / math.log(101.0), rel=1e-12)
        assert grid.m == 21
        assert grid.k_star == 2
        assert grid.nu == 42

    def test_member_invariants(self):
        grid = build_weight_grid(200, 0.5)
        log_n1 = math.log(201.0)
        for w in grid.members:
            lam = w.lam
            assert np.all(lam >= 0.0) and np.all(lam <= 1.0)
            assert np.all(np.diff(lam) <= 1e-12)
            assert np.all(lam[: w.d] == 1.0)
            assert np.all(lam[int(np.floor(w.omega)):] == 0.0)
            beta, r = w.alpha
            assert w.omega == pytest.approx(
                (tau_beta(beta) * r * minimax_rate_vn(200, 0.5)) ** (1.0 / (2 * beta + 1))
            )
            assert w.d == math.floor(w.omega / log_n1)

    def test_cardinality_bound(self):
        for n in (50, 100, 400):
            grid = build_weight_grid(n, 1.0)
            v_n = minimax_rate_vn(n, 1.0)
            assert grid.lambda_star_norm <= 1.0 + (v_n / grid.epsilon) ** (1.0 / 3.0)

    def test_small_n_grid_nonempty(self):
        grid = build_weight_grid(2, 1.0)
        assert grid.k_star == 1
        assert grid.nu >= 1

    def test_deterministic_order(self):
        grid = build_weight_grid(60, 1.0)
        alphas = [w.alpha for w in grid.members]
        assert alphas == sorted(alphas)

    def test_grids_compare_by_identity(self):
        # comparing array fields elementwise would raise "truth value of an
        # array is ambiguous"
        a, b = build_weight_grid(100, 1.0), build_weight_grid(100, 1.0)
        assert a == a
        assert (a == b) is False
        assert (a.members[0] == b.members[0]) is False

    def test_signals_and_paths_compare_by_identity(self):
        a, b = Signal(np.ones(3)), Signal(np.ones(3))
        assert a == a
        assert (a == b) is False
        p, q = ObservationPath(np.zeros(16), 2, 16), ObservationPath(np.zeros(16), 2, 16)
        assert p == p
        assert (p == q) is False

    @staticmethod
    def length_n_member(n, sigma_star, beta, r):
        """Member (beta, r) by its formula, at length n."""
        omega = (tau_beta(beta) * r * minimax_rate_vn(n, sigma_star)) ** (1.0 / (2 * beta + 1))
        d = math.floor(omega / math.log(n + 1))
        j = np.arange(1, n + 1, dtype=np.float64)
        return np.where(j <= d, 1.0, np.where(j <= omega, 1.0 - (j / omega) ** beta, 0.0))

    @pytest.mark.parametrize("n, sigma_star", [(2, 1000.0), (100, 1.0), (800, 1.0),
                                               (51200, 1.0)])
    def test_members_are_the_length_n_formula_at_the_support(self, n, sigma_star):
        # n = 2 at sigma* = 1000 has no support: every member is one zero
        grid = build_weight_grid(n, sigma_star)
        support = grid.max_support()
        assert (support == 0) == (n == 2)
        assert grid.lam.shape == (grid.nu, max(1, support))
        for w, row in zip(grid.members, grid.lam):
            full = self.length_n_member(n, sigma_star, *w.alpha)
            assert not full[support:].any()
            np.testing.assert_array_equal(w.lam, full[: max(1, support)])
            # the member's weights are its row of the grid's one array
            assert w.lam.base is grid.lam
            np.testing.assert_array_equal(w.lam, row)
        for lam in (grid.lam, grid.members[0].lam):
            with pytest.raises(ValueError, match="read-only"):
                lam[0, ...] = 0.5

    def test_weight_vector_validation(self):
        with pytest.raises(ValueError):
            WeightVector(lam=np.array([0.5, 1.0]), alpha=(1, 1.0), omega=2.0, d=0)
        with pytest.raises(ValueError):
            WeightVector(lam=np.array([1.0, 2.0]), alpha=(1, 1.0), omega=2.0, d=1)


class TestPenaltyAndCost:
    def test_zero_weights(self):
        assert penalty(np.zeros(5), 1.0, 100) == 0.0
        assert cost(np.zeros(5), np.ones(5), 1.0, 0.1, 100) == pytest.approx(0.1 * 0.0)

    def test_plateau_penalty(self):
        lam = np.concatenate([np.ones(7), np.zeros(3)])
        assert penalty(lam, 1.0, 100) == pytest.approx(7.0 / 100.0)

    def test_cost_hand_value(self):
        # lam = (1), theta_hat = (2), sigma = 0: 4 - 2*4 = -4
        assert cost(np.array([1.0]), np.array([2.0]), 0.0, 0.1, 50) == pytest.approx(-4.0)

    def test_cost_matches_bruteforce(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            J = 12
            lam = np.sort(rng.uniform(size=J))[::-1]
            th = rng.normal(size=J)
            sigma, delta, n = rng.uniform(0.1, 2.0), 0.2, 64
            brute = sum(
                lam[j] ** 2 * th[j] ** 2 - 2 * lam[j] * (th[j] ** 2 - sigma / n)
                for j in range(J)
            ) + delta * sigma * sum(l * l for l in lam) / n
            assert cost(lam, th, sigma, delta, n) == pytest.approx(brute, rel=1e-12)

    def test_improved_cost_matches_bruteforce(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            J = 10
            lam = np.sort(rng.uniform(size=J))[::-1]
            th = rng.normal(size=J)
            ts = th * rng.uniform(0.7, 1.0, size=J)
            sigma, delta, n = 0.8, 0.1, 128
            brute = sum(
                lam[j] ** 2 * ts[j] ** 2 - 2 * lam[j] * (ts[j] * th[j] - sigma / n)
                for j in range(J)
            ) + delta * sigma * sum(l * l for l in lam) / n
            assert cost(lam, th, sigma, delta, n, theta_star=ts) == pytest.approx(brute, rel=1e-12)

    def test_support_beyond_estimates_rejected(self):
        grid = build_weight_grid(60, 1.0)
        support = grid.max_support()
        assert support > 1
        with pytest.raises(ValueError, match="support beyond"):
            model_select(np.ones(support - 1), grid, SelectionConfig(delta=0.1, n=60), 1.0)
        with pytest.raises(ValueError, match="support beyond"):
            cost(np.array([1.0, 0.5, 0.5]), np.array([1.0, 2.0]), 1.0, 0.1, 10)


class TestModelSelect:
    def test_singleton_grid(self):
        grid = build_weight_grid(20, 1.0, k_star=1, epsilon=1.0)
        assert grid.nu == 1
        cfg = SelectionConfig(delta=0.05, n=20)
        res = model_select(np.ones(8), grid, cfg, 0.5)
        assert res.index == 0

    def test_argmin_matches_bruteforce(self):
        rng = np.random.default_rng(21)
        grid = build_weight_grid(80, 1.0)
        cfg = SelectionConfig(delta=0.1, n=80)
        for _ in range(10):
            th = rng.normal(size=20) * 0.5
            sigma = rng.uniform(0.2, 1.5)
            res = model_select(th, grid, cfg, sigma)
            brute = [cost(w, th, sigma, cfg.delta, cfg.n) for w in grid.members]
            assert res.index == int(np.argmin(brute))
            assert res.cost == pytest.approx(min(brute), rel=1e-12)

    def test_noiseless_selection_beats_every_member(self):
        # sigma = 0 and tiny delta: J_n equals Err_n minus a constant
        rng = np.random.default_rng(22)
        theta = np.zeros(30)
        theta[:5] = rng.normal(size=5)
        grid = build_weight_grid(100, 1.0)
        cfg = SelectionConfig(delta=1e-9, n=100)
        res = model_select(theta, grid, cfg, 0.0)
        errs = [float(np.sum((np.pad(w.lam, (0, 30 - w.lam.size)) * theta - theta) ** 2))
                for w in grid.members]
        sel_err = float(np.sum((res.coeffs - theta) ** 2))
        assert sel_err <= min(errs) + 1e-12

    def test_argmin_invariant_to_constant_shift(self):
        rng = np.random.default_rng(23)
        grid = build_weight_grid(60, 1.0)
        cfg = SelectionConfig(delta=0.05, n=60)
        th = rng.normal(size=15)
        base = np.array([cost(w, th, 0.7, cfg.delta, cfg.n) for w in grid.members])
        assert int(np.argmin(base)) == int(np.argmin(base + 123.456))

    def test_first_minimizer_tie_break(self):
        grid = build_weight_grid(20, 1.0, k_star=2, epsilon=1.0)
        cfg = SelectionConfig(delta=0.05, n=20)
        res = model_select(np.zeros(8), grid, cfg, 0.0)
        costs = [cost(w, np.zeros(8), 0.0, cfg.delta, cfg.n) for w in grid.members]
        ties = [i for i, c in enumerate(costs) if c == min(costs)]
        assert res.index == ties[0]


class TestLStar:
    def test_levy_value(self):
        assert l_star("levy", 10, 1.0) == pytest.approx(9.0)

    def test_ou_value(self):
        assert l_star("ou", 60, 1.0, a_max=1.0) == pytest.approx(27.0)

    def test_ou_feasibility_floor(self):
        # oracle: integer scan of 5 + ln d <= d (1-e^{-a_max})/(4 a_max)
        a_max = 1.0
        a_check = (1.0 - math.exp(-a_max)) / (4.0 * a_max)
        d = 7
        while 5.0 + math.log(d) > a_check * d:
            d += 1
        assert ou_min_dimension(a_max) == d == 58
        with pytest.raises(ValueError):
            l_star("ou", d - 1, 1.0, a_max=a_max)
        assert l_star("ou", d, 1.0, a_max=a_max) == pytest.approx((d - 6) / 2.0)

    def test_semimarkov_mirrors_levy(self):
        assert l_star("semimarkov", 10, 0.5) == l_star("levy", 10, 0.5)

    def test_levy_bound_vanishes_at_one_dim(self):
        assert l_star("levy", 1, 1.0) == 0


class TestShrink:
    def cfg(self, d=1, l=1.0, n=20):
        return ShrinkageConfig(d=d, l_star=l, r_star=3.0, v_n=float(n), n=n)

    def test_zero_budget_is_identity(self):
        th = np.array([1.0, -2.0, 3.0])
        out, degen = shrink(th, self.cfg(d=2, l=0.0))
        np.testing.assert_array_equal(out, th)
        assert not degen

    def test_hand_value(self):
        cfg = ShrinkageConfig(d=1, l_star=1.0, r_star=1.0, v_n=1e12, n=1)
        assert cfg.c_n == pytest.approx(1.0, rel=1e-6)
        out, degen = shrink(np.array([2.0]), cfg)
        assert out[0] == pytest.approx(1.0, rel=1e-6)
        assert not degen

    def test_head_norm_drops_by_exactly_cn(self):
        rng = np.random.default_rng(31)
        cfg = self.cfg(d=5, l=2.0, n=50)
        for _ in range(100):
            th = rng.normal(size=9)
            out, degen = shrink(th, cfg)
            head = math.sqrt(float(np.sum(th[:5] ** 2)))
            head_out = math.sqrt(float(np.sum(out[:5] ** 2)))
            if head > cfg.c_n:
                assert abs((head - head_out) - cfg.c_n) < 1e-12
            np.testing.assert_array_equal(out[5:], th[5:])
            assert not degen

    def test_degenerate_zero_head(self):
        th = np.array([0.0, 0.0, 5.0])
        out, degen = shrink(th, self.cfg(d=2))
        np.testing.assert_array_equal(out, th)
        assert degen

    def test_head_longer_than_estimates_rejected(self):
        with pytest.raises(ValueError):
            shrink(np.array([1.0]), self.cfg(d=2))


class TestImprovedSelect:
    def test_zero_budget_equals_standard(self):
        rng = np.random.default_rng(41)
        grid = build_weight_grid(50, 1.0)
        cfg = SelectionConfig(delta=0.05, n=50)
        shrink_cfg = ShrinkageConfig(d=4, l_star=0.0, r_star=2.0, v_n=50.0, n=50)
        th = rng.normal(size=12)
        a = model_select(th, grid, cfg, 0.8)
        b = model_select(th, grid, cfg, 0.8, shrink_cfg)
        assert a.index == b.index
        np.testing.assert_array_equal(a.coeffs, b.coeffs)

    def test_argmin_matches_bruteforce(self):
        rng = np.random.default_rng(42)
        grid = build_weight_grid(80, 1.0)
        cfg = SelectionConfig(delta=0.1, n=80)
        shrink_cfg = ShrinkageConfig(d=6, l_star=3.0, r_star=4.0, v_n=80.0, n=80)
        for _ in range(10):
            th = rng.normal(size=20)
            res = model_select(th, grid, cfg, 0.6, shrink_cfg)
            ts, _ = shrink(th, shrink_cfg)
            np.testing.assert_array_equal(res.theta_star, ts)
            brute = [cost(w, th, 0.6, cfg.delta, cfg.n, theta_star=ts) for w in grid.members]
            assert res.index == int(np.argmin(brute))

    def test_degenerate_head_falls_back(self):
        grid = build_weight_grid(50, 1.0)
        cfg = SelectionConfig(delta=0.05, n=50)
        shrink_cfg = ShrinkageConfig(d=4, l_star=1.0, r_star=2.0, v_n=50.0, n=50)
        th = np.concatenate([np.zeros(4), np.array([1.0, 0.5]), np.zeros(6)])
        a = model_select(th, grid, cfg, 0.3)
        b = model_select(th, grid, cfg, 0.3, shrink_cfg)
        assert b.degenerate_shrinkage
        assert a.index == b.index
        np.testing.assert_array_equal(a.coeffs, b.coeffs)


LEVY = LevySpec(1.0, 0.0)
OU = OuSpec(a=-0.5, a_max=1.0, driving=LevySpec(1.0, 0.5))


class TestMakeShrinkageConfig:
    def test_levy_default_dim_is_plateau(self):
        grid = build_weight_grid(100, 1.0)
        cfg = make_shrinkage_config((LEVY,), grid, 100, 1.0, rho_lower=1.0)
        assert cfg.d == max(w.d for w in grid.members)

    def test_levy_explicit_dim(self):
        grid = build_weight_grid(100, 1.0)
        cfg = make_shrinkage_config((LEVY,), grid, 100, 1.0, rho_lower=1.0, d=10)
        assert cfg.l_star == pytest.approx(9.0)
        assert cfg.c_n == pytest.approx(
            9.0 / ((math.log(101.0) + math.sqrt(10.0 / 100.0)) * 100.0)
        )

    def test_ou_infeasible_disables_with_warning(self):
        grid = build_weight_grid(100, 1.0)
        with pytest.warns(UserWarning):
            cfg = make_shrinkage_config((OU,), grid, 100, 1.0, rho_lower=1.0, a_max=1.0, d=10)
        assert cfg.l_star == 0.0
        assert cfg.c_n == 0.0

    def test_levy_at_one_dim_has_zero_budget(self):
        grid = build_weight_grid(100, 1.0)
        cfg = make_shrinkage_config((LEVY,), grid, 100, 1.0, rho_lower=1.0, d=1)
        assert cfg.l_star == 0.0
        assert cfg.c_n == 0.0

    def test_bare_kind_string_rejected(self):
        # a string is a sequence too; its characters are no noise specs
        grid = build_weight_grid(100, 1.0)
        with pytest.raises(TypeError, match="string"):
            make_shrinkage_config("levy", grid, 100, 1.0, rho_lower=1.0, d=10)
        with pytest.raises(ValueError, match="at least one"):
            make_shrinkage_config((), grid, 100, 1.0, rho_lower=1.0, d=10)

    def test_config_invariants(self):
        with pytest.raises(ValueError):
            ShrinkageConfig(d=0, l_star=1.0, r_star=1.0, v_n=1.0, n=1)
        with pytest.raises(ValueError):
            ShrinkageConfig(d=1, l_star=-1.0, r_star=1.0, v_n=1.0, n=1)

    def test_selection_config_delta_range(self):
        with pytest.raises(ValueError):
            SelectionConfig(delta=0.34, n=10)
        with pytest.raises(ValueError):
            SelectionConfig(delta=0.0, n=10)
