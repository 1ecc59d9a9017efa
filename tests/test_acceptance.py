"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are fixed here; every Monte Carlo check runs on a pinned
master seed and is therefore reproducible bit for bit.
"""

import json
import math
import time

import numpy as np

from semimartreg.cli import EXIT_OK, main
from semimartreg.noise import (
    LevySpec,
    OuSpec,
    RobustFamily,
    SemiMarkovSpec,
    TauDist,
    derive_rng,
    nominal_sigma,
    simulate,
)
from semimartreg.observe import (
    ObservationPath,
    estimate_fourier,
    estimate_variance_proxy,
    signal_increments,
)
from semimartreg.risk import (
    SelectionPipeline,
    build_grid_for,
    efficiency_sweep,
    improvement_report,
    oracle_report,
)
from semimartreg.select import (
    SelectionConfig,
    make_shrinkage_config,
    model_select,
    shrink,
)
from semimartreg.signal import (
    Signal,
    SobolevBallSpec,
    basis_matrix,
    sample_sobolev,
    synthesize,
)


def report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status} — {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_basis_parseval():
    t0 = time.monotonic()
    J, Q = 64, 256
    t = (np.arange(Q) + 0.5) / Q
    B = basis_matrix(J, t)
    gram_err = float(np.max(np.abs(B @ B.T / Q - np.eye(J))))

    rng = np.random.default_rng(123)
    parseval_err = 0.0
    for _ in range(20):
        sig = Signal(rng.normal(size=J) * 0.5)
        quad = float(np.mean(synthesize(sig, t) ** 2))
        parseval_err = max(parseval_err, abs(quad - sig.norm_sq()))
    elapsed = time.monotonic() - t0
    ok = gram_err <= 1e-8 and parseval_err <= 1e-8 and elapsed < 5.0
    report(1, "basis/Parseval", ok,
           f"orthonormality err {gram_err:.2e}, Parseval err {parseval_err:.2e}, "
           f"runtime {elapsed:.2f}s")


def test_criterion_2_martingale_moments():
    n, M, reps, J = 100, 256, 2000, 10
    configs = {
        "levy": LevySpec(0.5, 0.5, jump_intensity=1.0, jump_dist="two_point"),
        "ou": OuSpec(a=-1.0, a_max=1.0, driving=LevySpec(0.5, 0.5)),
        "semimarkov": SemiMarkovSpec(0.5, 0.5, rho_check=0.7,
                                     tau_dist=TauDist.uniform(0.5, 1.5)),
    }
    worst = {}
    for name, spec in configs.items():
        xis = np.empty((reps, J))
        for rep in range(reps):
            noise = simulate(spec, n, M, derive_rng(5150, rep))
            path = ObservationPath(noise, n, M)
            xis[rep] = math.sqrt(n) * estimate_fourier(path, J)
        means = xis.mean(axis=0)
        ses = xis.std(axis=0, ddof=1) / math.sqrt(reps)
        worst[name] = float(np.max(np.abs(means) / ses))
    ok = all(w <= 4.0 for w in worst.values())
    report(2, "martingale moments", ok,
           "worst |mean|/se: " + ", ".join(f"{k}={v:.2f}" for k, v in worst.items())
           + " (limit 4)")


def test_criterion_3_variance_proxy_rate():
    spec = LevySpec(1.0, 0.0)
    sigma_q = nominal_sigma(spec)
    sig = Signal(np.array([0.5, 0.3, -0.3, 0.2, -0.1, 0.1]))
    reps = 500
    means = []
    for n in (64, 128, 256, 512):
        M = max(256, 2 * n)
        det = n * signal_increments(sig, 1, M)
        errs = np.empty(reps)
        for rep in range(reps):
            noise = simulate(spec, n, M, derive_rng(1000 + n, rep))
            path = ObservationPath(det + noise, n, M)
            errs[rep] = abs(estimate_variance_proxy(path) - sigma_q)
        means.append(float(errs.mean()))
    ratios = [means[i + 1] / means[i] for i in range(3)]
    ok = all(m2 < m1 for m1, m2 in zip(means, means[1:])) and all(
        0.45 <= r <= 1.05 for r in ratios
    )
    report(3, "variance proxy rate", ok,
           f"mean errors {[round(m, 5) for m in means]}, "
           f"ratios {[round(r, 3) for r in ratios]} (window [0.45, 1.05])")


def test_criterion_4_oracle_inequality():
    spec = LevySpec(0.5, 0.5)
    sigma_star = nominal_sigma(spec)
    sig = sample_sobolev(SobolevBallSpec(k=1, r=1.0), 16, derive_rng(7, 99))
    delta, reps = 0.05, 500
    rows = []
    for n in (100, 200, 400):
        pipeline = SelectionPipeline.build(n, sigma_star, delta)
        rep = oracle_report(sig, spec, pipeline, reps, 2024, n=n, M=max(256, 2 * n))
        rows.append(rep)
    holds = all(r.oracle_holds for r in rows)
    structural = all(
        r.oracle_lhs >= min(r.member_risks) - 3 * r.std_error for r in rows
    )
    scaled = [r.residual_estimate / math.sqrt(n) for r, n in zip(rows, (100, 200, 400))]
    trend = all(b <= a + 1e-12 for a, b in zip(scaled, scaled[1:]))
    ok = holds and structural and trend
    report(4, "oracle inequality", ok,
           f"LHS {[round(r.oracle_lhs, 6) for r in rows]}, "
           f"principal {[round(r.oracle_principal, 6) for r in rows]}, "
           f"residual/sqrt(n) {[round(s, 6) for s in scaled]} (nonincreasing)")


def test_criterion_5_improvement_bound():
    n, M, reps = 100, 256, 2000
    spec = LevySpec(1.0, 0.0)
    grid = build_grid_for(n, 1.0)
    shrink_cfg = make_shrinkage_config((spec,), grid, n, 1.0, rho_lower=1.0, d=10)
    sig = Signal(np.array([0.5, 0.3, 0.2]))
    rep = improvement_report(sig, spec, shrink_cfg, reps, 11, n=n, M=M)
    gap = rep.delta_hat - rep.improvement_bound  # delta_hat + c_n^2
    ok = gap <= 3 * rep.delta_se and rep.identity_max_dev <= 1e-12
    report(5, "improvement bound", ok,
           f"delta_hat {rep.delta_hat:.3e} vs -c_n^2 {rep.improvement_bound:.3e}, "
           f"gap {gap:.3e} <= 3se {3 * rep.delta_se:.3e}; "
           f"head-norm identity dev {rep.identity_max_dev:.1e} (limit 1e-12)")


def _paired_selection(signal, spec, n, M, grid, cfg, shrink_cfg, reps, seed):
    """Risks of improved and standard selection on common replication paths."""
    det = n * signal_increments(signal, 1, M)
    theta_true = signal.coeffs
    # the estimates the selector reads: the grid's width and the shrunk head
    J = max(grid.lam.shape[1], shrink_cfg.d)
    tp = np.zeros(J)
    tp[: min(J, theta_true.size)] = theta_true[: min(J, theta_true.size)]
    tail = float(np.sum(theta_true[J:] ** 2)) if theta_true.size > J else 0.0
    diffs = np.empty(reps)
    for rep in range(reps):
        noise = simulate(spec, n, M, derive_rng(seed, rep))
        path = ObservationPath(det + noise, n, M)
        th = estimate_fourier(path, J)
        sigma = cfg.sigma_known if cfg.sigma_known is not None else estimate_variance_proxy(path)
        std_res = model_select(th, grid, cfg, sigma)
        imp_res = model_select(th, grid, cfg, sigma, shrink_cfg)
        risk_std = float(np.sum((std_res.coeffs - tp) ** 2)) + tail
        risk_imp = float(np.sum((imp_res.coeffs - tp) ** 2)) + tail
        diffs[rep] = risk_imp - risk_std
    return float(diffs.mean()), float(diffs.std(ddof=1) / math.sqrt(reps))


def test_criterion_6_improved_vs_standard():
    n, M, reps = 100, 256, 1000
    grid = build_grid_for(n, 1.0)
    concentrated = Signal(np.array([0.5, 0.1, 0.05]))
    zero = Signal(np.array([0.0]))
    scenarios = []

    levy = LevySpec(1.0, 0.0)
    shr_levy = make_shrinkage_config((levy,), grid, n, 1.0, rho_lower=1.0, d=10)
    cfg_levy = SelectionConfig(delta=0.05, n=n)
    scenarios.append(("levy/concentrated", levy, cfg_levy, shr_levy, concentrated, 21))
    scenarios.append(("levy/zero", levy, cfg_levy, shr_levy, zero, 21))

    ou = OuSpec(a=-0.6, a_max=1.0, driving=LevySpec(1.0, 0.5))
    shr_ou = make_shrinkage_config((ou,), grid, n, 1.0, rho_lower=1.0, a_max=1.0, d=58)
    cfg_ou = SelectionConfig(delta=0.05, n=n)
    scenarios.append(("ou/concentrated", ou, cfg_ou, shr_ou, concentrated, 22))
    scenarios.append(("ou/zero", ou, cfg_ou, shr_ou, zero, 22))

    results = {}
    for name, spec, cfg, shr, sig, seed in scenarios:
        diff, se = _paired_selection(sig, spec, n, M, grid, cfg, shr, reps, seed)
        results[name] = (diff, se)
    ok = all(diff <= 2 * se for diff, se in results.values())
    report(6, "improved vs standard selection", ok,
           "; ".join(f"{k}: diff {d:+.2e} (2se {2 * s:.2e})" for k, (d, s) in results.items()))


def test_criterion_7_efficiency_trend():
    family = RobustFamily(
        members=(LevySpec(1.0, 0.0), LevySpec(0.6, 0.8)),
        rho_lower=0.36,
        sigma_star=1.0,
    )
    rep = efficiency_sweep(1, 1.0, family, [200, 400, 800], 200, 31, M=256, n_signals=3)
    ratios = [row.ratio for row in rep.rows]
    ses = [row.sup_se * row.normalization / rep.pinsker for row in rep.rows]
    finite = all(math.isfinite(r) and r > 0 for r in ratios)
    trend = all(
        ratios[i + 1] <= ratios[i] + 2 * math.hypot(ses[i], ses[i + 1])
        for i in range(len(ratios) - 1)
    )
    ok = finite and trend
    report(7, "efficiency trend", ok,
           f"ratios to Pinsker constant {[round(r, 4) for r in ratios]} "
           f"(nonincreasing within 2se; limit value 1 deliberately not asserted)")


def test_criterion_8_bruteforce_equivalence():
    # independent oracle: plain-sum cost formulas evaluated per grid member
    def jn(lam, th, sigma, delta, n):
        total = 0.0
        for j in range(len(th)):
            total += lam[j] ** 2 * th[j] ** 2 - 2.0 * lam[j] * (th[j] ** 2 - sigma / n)
        return total + delta * sigma * sum(l * l for l in lam) / n

    def jn_star(lam, ts, th, sigma, delta, n):
        total = 0.0
        for j in range(len(th)):
            total += lam[j] ** 2 * ts[j] ** 2 - 2.0 * lam[j] * (ts[j] * th[j] - sigma / n)
        return total + delta * sigma * sum(l * l for l in lam) / n

    n = 100
    grid = build_grid_for(n, 1.0)
    assert grid.nu <= 50
    J = grid.max_support()
    rng = np.random.default_rng(88)
    shrink_cfg = make_shrinkage_config((LevySpec(1.0, 0.0),), grid, n, 1.0, rho_lower=1.0,
                                       d=min(6, J))
    mismatches = 0
    for _ in range(20):
        th = rng.normal(size=J) * 0.4
        sigma = float(rng.uniform(0.2, 1.5))
        delta = float(rng.uniform(0.02, 0.3))
        cfg = SelectionConfig(delta=delta, n=n)
        std = model_select(th, grid, cfg, sigma)
        brute = [jn(w.lam, th, sigma, delta, n) for w in grid.members]
        if std.index != int(np.argmin(brute)):
            mismatches += 1
        imp = model_select(th, grid, cfg, sigma, shrink_cfg)
        ts, _ = shrink(th, shrink_cfg)
        brute_imp = [jn_star(w.lam, ts, th, sigma, delta, n) for w in grid.members]
        if imp.index != int(np.argmin(brute_imp)):
            mismatches += 1
    ok = mismatches == 0
    report(8, "brute-force equivalence", ok,
           f"20 standard + 20 improved instances on a nu={grid.nu} grid, "
           f"{mismatches} argmin mismatches (exact match required)")


def test_criterion_9_determinism(tmp_path):
    config = {
        "signal": {"coeffs": [0.5, 0.2]},
        "noise": {"family": "levy", "rho1": 0.5, "rho2": 0.5},
        "n": 50,
        "M": 64,
        "J": 8,
        "reps": 25,
        "seed": 11,
        "delta": 0.05,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    pairs = []
    for command, record_name, table in (
        ("oracle-check", "oracle_check_record.json", "members.csv"),
        ("simulate", "simulate_record.json", "path.csv"),
    ):
        blobs = []
        for attempt in ("x", "y"):
            out = tmp_path / f"{command}-{attempt}"
            code = main([command, "--config", str(cfg_path), "--out-dir", str(out),
                         "--workers", "1"])
            assert code == EXIT_OK
            blobs.append((out / record_name).read_bytes() + (out / table).read_bytes())
        pairs.append((command, blobs[0] == blobs[1]))
    ok = all(same for _, same in pairs)
    report(9, "byte-identical reruns", ok,
           "; ".join(f"{cmd}: {'identical' if same else 'DIFFERENT'}" for cmd, same in pairs))
