"""Risk evaluation: exact coefficient-space L2 risk, Monte Carlo risk
estimates, robust (worst-member) risk over a noise family, and the report
generators behind the oracle, improvement and efficiency experiments.

Replications are embarrassingly parallel; every replication derives its own
counter-based stream from (master_seed, replication index), so results are
bit-identical regardless of worker count.

Every report is one Monte Carlo table of replicates x signals x members x
score columns.  A score turns one observed path (its fold, the M
per-period sums the estimators read) and the true coefficients into one
row of numbers: the exact risk of an estimate (Monte Carlo and
robust risk, the efficiency sweep), the selected risk with the risk of
each grid member and sigma-hat (oracle report), or the shrunk risk with the
paired shrunk - plain difference and the head-norm identity error
(improvement report).  A selection reads the grid's width of estimates, or
the shrunk head when that is longer, and an estimated proxy reads n.
Members share the replication streams (common random numbers), so the
columns of a table are paired.  A report is one map over replicate indices,
which fills every table of the report (one per horizon of the efficiency
sweep) and so starts at most one process pool; its function reaches each
pool worker once, when the worker starts, and `_mean_se` reduces every
column of a table alike.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .noise import NoiseSpec, RobustFamily, derive_rng, simulate
from .observe import (
    ObservationPath,
    estimate_fourier,
    estimate_variance_proxy,
    signal_increments,
)
from .select import (
    SelectionConfig,
    SelectionResult,
    ShrinkageConfig,
    WeightGrid,
    build_weight_grid,
    make_shrinkage_config,
    minimax_rate_vn,
    model_select,
    shrink,
)
from .signal import Signal, ellipsoid_coeffs, sample_sobolev, SobolevBallSpec

# Benchmark aliases.  mcbench/bench_trace.py traces a call by replacing the
# name its caller looks up, and it looks these up here: the selector builds
# its grid as build_grid_for, and improved_select is model_select's former
# name.  Both go when the tracer changes (ROADMAP item 2).
build_grid_for = build_weight_grid
improved_select = model_select

__all__ = [
    "RiskReport",
    "EfficiencyRow",
    "EfficiencyReport",
    "ProjectionPipeline",
    "SelectionPipeline",
    "l2_risk_exact",
    "monte_carlo_risk",
    "robust_risk",
    "oracle_report",
    "improvement_report",
    "pinsker_constant",
    "worst_single_frequency",
    "efficiency_sweep",
]


@dataclass(frozen=True)
class RiskReport:
    """Monte Carlo risk summary; optional blocks filled per experiment type."""

    estimator_id: str
    mean_risk: float
    std_error: float
    reps: int
    master_seed: int
    member_risks: Optional[tuple] = None
    member_std_errors: Optional[tuple] = None
    argmax_member: Optional[int] = None
    oracle_lhs: Optional[float] = None
    oracle_principal: Optional[float] = None
    oracle_factor: Optional[float] = None
    residual_estimate: Optional[float] = None
    oracle_holds: Optional[bool] = None
    sigma_hat_mean: Optional[float] = None
    delta_hat: Optional[float] = None
    delta_se: Optional[float] = None
    improvement_bound: Optional[float] = None
    identity_max_dev: Optional[float] = None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class EfficiencyRow:
    n: int
    v_n: float
    normalization: float
    sup_risk: float
    sup_se: float
    normalized: float
    ratio: float
    argmax_signal: int
    argmax_member: int


@dataclass(frozen=True)
class EfficiencyReport:
    estimator_id: str
    k: int
    r: float
    pinsker: float
    reps: int
    master_seed: int
    rows: tuple

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# estimator pipelines (picklable callables: ObservationPath -> coefficient array)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProjectionPipeline:
    """Keep the first m coefficient estimates unweighted."""

    m: int

    def __call__(self, path: ObservationPath) -> np.ndarray:
        return estimate_fourier(path, self.m).theta_hat


@dataclass(frozen=True)
class SelectionPipeline:
    """Full data-driven selection, with the shrunk head when shrink_cfg is set."""

    grid: WeightGrid
    config: SelectionConfig
    shrink_cfg: Optional[ShrinkageConfig] = None

    @classmethod
    def build(cls, n: int, sigma_star: float, delta: float, *,
              sigma_known: Optional[float] = None, noise_kind: Optional[str] = None,
              rho_lower: Optional[float] = None, a_max: Optional[float] = None, d: Optional[int] = None,
              r_star: Optional[float] = None, l_star: Optional[float] = None):
        """The selector at horizon n: the grid for sigma_star, and the
        shrinkage of noise_kind when one is given (d, r_star and l_star
        override its defaults)."""
        grid = build_grid_for(n, sigma_star)
        shrink_cfg = None
        if noise_kind is not None:
            shrink_cfg = make_shrinkage_config(noise_kind, grid, n, sigma_star, rho_lower,
                                               a_max=a_max, d=d, r_star=r_star,
                                               l_star_override=l_star)
        return cls(grid, SelectionConfig(delta=delta, n=n, sigma_known=sigma_known), shrink_cfg)

    @property
    def J(self) -> int:
        """Estimates the selector is given: the grid's width, or the shrunk
        head length d when that is longer."""
        width = self.grid.lam.shape[1]
        return width if self.shrink_cfg is None else max(width, self.shrink_cfg.d)

    @property
    def estimates_read(self) -> int:
        """Coefficient estimates one selection reads: J, or max(J, n) when
        the proxy is estimated from the first n, so that one transform
        serves the proxy and the selection."""
        J = self.J
        return J if self.config.sigma_known is not None else max(J, self.config.n)

    def select(self, path: ObservationPath) -> SelectionResult:
        estimates = estimate_fourier(path, self.estimates_read)
        sigma = self.config.sigma_known
        if sigma is None:
            sigma = estimate_variance_proxy(path, estimates)
        return model_select(estimates.theta_hat[: self.J], self.grid, self.config, sigma,
                            self.shrink_cfg)

    def __call__(self, path: ObservationPath) -> np.ndarray:
        return self.select(path).signal.coeffs


# ---------------------------------------------------------------------------
# exact risk
# ---------------------------------------------------------------------------


def l2_risk_exact(est: np.ndarray, theta_true: np.ndarray):
    """Squared L2 distance by Parseval: the coefficient difference, with the
    shorter of the two sequences padded by zeros.  A 2-D est holds one
    estimate per row and gives the array of their distances."""
    est = np.asarray(est, dtype=np.float64)
    theta_true = np.asarray(theta_true, dtype=np.float64)
    J = est.shape[-1]
    diff = np.zeros(est.shape[:-1] + (max(J, theta_true.size),))
    diff[..., :J] = est
    diff[..., : theta_true.size] -= theta_true
    risks = np.sum(diff**2, axis=-1)
    return float(risks) if est.ndim == 1 else risks


# ---------------------------------------------------------------------------
# Monte Carlo replication plumbing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _RepSetup:
    """Noise members, and per signal the deterministic part of the fold
    (n times one period of increments) and the truth."""

    specs: tuple
    n: int
    M: int
    master_seed: int
    dets: tuple
    truths: tuple


def _rep_setup(signals, specs, master_seed: int, n: int, M: int) -> _RepSetup:
    return _RepSetup(specs=tuple(specs), n=n, M=M, master_seed=master_seed,
                     dets=tuple(n * signal_increments(sig, 1, M) for sig in signals),
                     truths=tuple(sig.coeffs for sig in signals))


def _observe_rep(setup: _RepSetup, rep: int, k: int, s: int) -> ObservationPath:
    """Fold of replicate rep of signal s under member k; members share the
    stream."""
    rng = derive_rng(setup.master_seed, rep)
    noise = simulate(setup.specs[k], setup.n, setup.M, rng)
    return ObservationPath(setup.dets[s] + noise.increments, setup.n, setup.M)


def _score_rep(rep: int, setup: _RepSetup, score: Callable) -> np.ndarray:
    """Scores of replicate rep, as a (signals, members, columns) array;
    score(path, truth) gives the row of one path."""
    return np.array([
        [score(_observe_rep(setup, rep, k, s), truth) for k in range(len(setup.specs))]
        for s, truth in enumerate(setup.truths)
    ])


# The function a pool maps, set once in each worker by its initializer, so
# that the set-up arrays it carries are not pickled again with every chunk.
_worker_fn: Optional[Callable] = None


def _init_worker(fn: Callable) -> None:
    global _worker_fn
    _worker_fn = fn


def _call_worker(rep: int):
    return _worker_fn(rep)


def _map_reps(fn: Callable, reps: int, workers: int) -> list:
    if reps < 2:
        raise ValueError("need reps >= 2")
    # a fork pool starts all of its workers at once, busy or not
    workers = min(workers, reps)
    if workers <= 1:
        return [fn(rep) for rep in range(reps)]
    # imported here, so that a one-process run never loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, reps // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                             initargs=(fn,)) as pool:
        return list(pool.map(_call_worker, range(reps), chunksize=chunk))


def _score_jobs(rep: int, jobs: tuple) -> list:
    """Scores of replicate rep under every (setup, score) job, in job order."""
    return [_score_rep(rep, setup, score) for setup, score in jobs]


def _score_tables(jobs: Sequence, reps: int, workers: int) -> list:
    """The (reps, signals, members, columns) table of every (setup, score)
    job, all filled by one map over the replicates."""
    rows = _map_reps(partial(_score_jobs, jobs=tuple(jobs)), reps, workers)
    return [np.stack(tables) for tables in zip(*rows)]


def _mean_se(table: np.ndarray) -> tuple:
    """Mean and standard error over the replicates (axis 0) of every column.

    Each column is reduced as its own contiguous 1-D array: an axis-0
    reduction of the table would add in another order and move the last
    bits of the records."""
    columns = np.ascontiguousarray(np.moveaxis(table, 0, -1))
    return columns.mean(axis=-1), columns.std(axis=-1, ddof=1) / math.sqrt(table.shape[0])


def _pipeline_risk(path: ObservationPath, truth: np.ndarray, pipeline) -> list:
    return [l2_risk_exact(pipeline(path), truth)]


def monte_carlo_risk(
    signal: Signal,
    spec: NoiseSpec,
    pipeline,
    reps: int,
    master_seed: int,
    *,
    n: int,
    M: int,
    workers: int = 1,
    estimator_id: str = "estimator",
) -> RiskReport:
    """Mean and standard error of the exact risk over independent replications."""
    setup = _rep_setup((signal,), (spec,), master_seed, n, M)
    (table,) = _score_tables([(setup, partial(_pipeline_risk, pipeline=pipeline))], reps, workers)
    means, ses = _mean_se(table)
    return RiskReport(
        estimator_id=estimator_id, mean_risk=float(means[0, 0, 0]), std_error=float(ses[0, 0, 0]),
        reps=reps, master_seed=master_seed,
    )


def robust_risk(
    signal: Signal,
    family: RobustFamily,
    pipeline,
    reps: int,
    master_seed: int,
    *,
    n: int,
    M: int,
    workers: int = 1,
    estimator_id: str = "estimator",
) -> RiskReport:
    """Worst Monte Carlo risk across the family members.

    Members share the per-replication streams (common seeds), so each
    member's risk is its monte_carlo_risk exactly.
    """
    setup = _rep_setup((signal,), family.members, master_seed, n, M)
    (table,) = _score_tables([(setup, partial(_pipeline_risk, pipeline=pipeline))], reps, workers)
    means, ses = _mean_se(table)
    means, ses = means[0, :, 0], ses[0, :, 0]
    worst = int(np.argmax(means))
    return RiskReport(
        estimator_id=estimator_id,
        mean_risk=float(means[worst]),
        std_error=float(ses[worst]),
        reps=reps,
        master_seed=master_seed,
        member_risks=tuple(float(x) for x in means),
        member_std_errors=tuple(float(x) for x in ses),
        argmax_member=worst,
    )


# ---------------------------------------------------------------------------
# oracle inequality report
# ---------------------------------------------------------------------------


def _oracle_score(path: ObservationPath, truth: np.ndarray, pipeline: SelectionPipeline) -> list:
    """Selected risk, the risk of every grid member, and sigma-hat."""
    result = pipeline.select(path)
    lam = pipeline.grid.lam
    member_risks = l2_risk_exact(lam * result.theta_star[: lam.shape[1]], truth)
    return [member_risks[result.index], *member_risks, result.sigma_hat]


def oracle_report(
    signal: Signal,
    spec: NoiseSpec,
    grid: WeightGrid,
    config: SelectionConfig,
    reps: int,
    master_seed: int,
    *,
    n: int,
    M: int,
    shrink_cfg: Optional[ShrinkageConfig] = None,
    workers: int = 1,
) -> RiskReport:
    """Selected-estimator risk against the best fixed grid member.

    The principal term is (1+3 delta)/(1-3 delta) times the best member risk;
    the residual estimate is the clamped excess (LHS - principal) * delta * n,
    the empirical stand-in for the rest term of the oracle inequality.
    """
    score = partial(
        _oracle_score, pipeline=SelectionPipeline(grid=grid, config=config, shrink_cfg=shrink_cfg)
    )
    setup = _rep_setup((signal,), (spec,), master_seed, n, M)
    (table,) = _score_tables([(setup, score)], reps, workers)
    means, ses = _mean_se(table)
    means, ses = means[0, 0], ses[0, 0]
    lhs, lhs_se = float(means[0]), float(ses[0])
    member_means, member_ses = means[1:-1], ses[1:-1]
    factor = (1.0 + 3.0 * config.delta) / (1.0 - 3.0 * config.delta)
    principal = factor * float(member_means.min())
    residual = max(0.0, lhs - principal) * config.delta * n
    holds = lhs <= principal + residual / (config.delta * n) + 1e-12
    return RiskReport(
        estimator_id="improved_selection" if shrink_cfg is not None else "selection",
        mean_risk=lhs,
        std_error=lhs_se,
        reps=reps,
        master_seed=master_seed,
        member_risks=tuple(float(x) for x in member_means),
        member_std_errors=tuple(float(x) for x in member_ses),
        oracle_lhs=lhs,
        oracle_principal=principal,
        oracle_factor=factor,
        residual_estimate=residual,
        oracle_holds=bool(holds),
        sigma_hat_mean=float(means[-1]),
    )


# ---------------------------------------------------------------------------
# improvement (shrinkage) report
# ---------------------------------------------------------------------------


def _improvement_score(path: ObservationPath, truth: np.ndarray, lam: np.ndarray,
                       shrink_cfg: ShrinkageConfig) -> list:
    """Shrunk risk, shrunk - plain risk, and the head-norm identity error."""
    theta = estimate_fourier(path, lam.size).theta_hat
    theta_star, degenerate = shrink(theta, shrink_cfg)
    risk_star, risk_plain = l2_risk_exact(lam * np.stack([theta_star, theta]), truth)
    dev = 0.0
    if not degenerate and shrink_cfg.c_n != 0.0:
        head = float(np.sqrt(np.sum(theta[: shrink_cfg.d] ** 2)))
        head_star = float(np.sqrt(np.sum(theta_star[: shrink_cfg.d] ** 2)))
        dev = abs((head - head_star) - shrink_cfg.c_n)
    return [risk_star, risk_star - risk_plain, dev]


def improvement_report(
    signal: Signal,
    spec: NoiseSpec,
    weights: np.ndarray,
    shrink_cfg: ShrinkageConfig,
    reps: int,
    master_seed: int,
    *,
    n: int,
    M: int,
    workers: int = 1,
) -> RiskReport:
    """Paired risk difference between the shrunk and plain weighted estimators.

    Both estimators are evaluated on the same replication paths; delta_hat
    estimates E[risk(shrunk) - risk(plain)], to be compared with -c_n^2.
    The improvement guarantee needs ||S|| <= r*, enforced here.
    """
    if math.sqrt(signal.norm_sq()) > shrink_cfg.r_star:
        raise ValueError("signal norm exceeds r_star; improvement bound hypothesis fails")
    lam = np.asarray(weights, dtype=np.float64)
    lam = np.pad(lam, (0, max(0, shrink_cfg.d - lam.size)))
    score = partial(_improvement_score, lam=lam, shrink_cfg=shrink_cfg)
    setup = _rep_setup((signal,), (spec,), master_seed, n, M)
    (table,) = _score_tables([(setup, score)], reps, workers)
    means, ses = _mean_se(table)
    return RiskReport(
        estimator_id="shrunk_fixed_weights",
        mean_risk=float(means[0, 0, 0]),
        std_error=float(ses[0, 0, 0]),
        reps=reps,
        master_seed=master_seed,
        delta_hat=float(means[0, 0, 1]),
        delta_se=float(ses[0, 0, 1]),
        improvement_bound=-shrink_cfg.c_n**2,
        identity_max_dev=float(table[:, 0, 0, 2].max()),
    )


# ---------------------------------------------------------------------------
# efficiency sweep
# ---------------------------------------------------------------------------


def pinsker_constant(k: int, r: float) -> float:
    """((1+2k) r)^(1/(2k+1)) * (k/(pi (k+1)))^(2k/(2k+1))."""
    if int(k) != k or k < 1:
        raise ValueError("k must be an integer >= 1")
    if not r > 0:
        raise ValueError("r must be > 0")
    return ((1 + 2 * k) * r) ** (1.0 / (2 * k + 1)) * (
        k / (math.pi * (k + 1))
    ) ** (2.0 * k / (2 * k + 1))


def worst_single_frequency(grid: WeightGrid, k: int, r: float, sigma: float, n: int) -> Signal:
    """Single-coefficient ball-boundary signal maximizing the best fixed-member
    risk over the grid's width, computed from the exact white-coefficient
    risk formula."""
    lam = grid.lam
    J = lam.shape[1]
    a = ellipsoid_coeffs(J, k)
    theta_sq = 0.95 * r / a
    penalty_term = sigma * np.sum(lam**2, axis=1) / n  # (nu,)
    # member risk for budget at j: (1-lam(j))^2 theta_j^2 + sigma |lam|^2 / n
    risks = (1.0 - lam) ** 2 * theta_sq[None, :] + penalty_term[:, None]
    best_by_j = risks.min(axis=0)
    j_star = int(np.argmax(best_by_j))
    coeffs = np.zeros(J)
    coeffs[j_star] = math.sqrt(theta_sq[j_star])
    return Signal(coeffs)


def efficiency_sweep(
    k: int,
    r: float,
    family: RobustFamily,
    n_values: Sequence[int],
    reps: int,
    master_seed: int,
    *,
    M: int = 256,
    n_signals: int = 3,
    delta: float = 0.05,
    workers: int = 1,
) -> EfficiencyReport:
    """Normalized worst-case risk of the improved selection at each horizon
    (standard selection when the family mixes noise kinds).

    The supremum over the smoothness ball is approximated by the max over
    n_signals sampled boundary signals plus the extremal single-frequency
    signal; the robust risk takes the worst family member.  The proxy
    variance is taken as known (= sigma_star of the family).
    """
    n_values = list(n_values)
    if any(b <= a for a, b in zip(n_values, n_values[1:])):
        raise ValueError("n_values must be strictly increasing")
    pinsker = pinsker_constant(k, r)
    kinds = {member.family for member in family.members}
    estimator_id = "improved_selection" if len(kinds) == 1 else "selection"
    jobs = []
    for i_n, n in enumerate(n_values):
        # a mixed family has no common contraction bound
        pipeline = SelectionPipeline.build(
            n, family.sigma_star, delta, sigma_known=family.sigma_star,
            noise_kind=next(iter(kinds)) if len(kinds) == 1 else None,
            rho_lower=family.rho_lower, a_max=family.a_max,
        )
        support = pipeline.grid.max_support()

        spec_ball = SobolevBallSpec(k=k, r=r)
        signals = [
            sample_sobolev(spec_ball, max(2, support), derive_rng(master_seed, 900 + i_n, s))
            for s in range(n_signals)
        ]
        signals.append(worst_single_frequency(pipeline.grid, k, r, family.sigma_star, n))
        jobs.append((_rep_setup(signals, family.members, master_seed, n, M),
                     partial(_pipeline_risk, pipeline=pipeline)))

    # every horizon reads the streams of (master_seed, rep), so one map over
    # the replicates fills all of their tables
    rows = []
    for n, table in zip(n_values, _score_tables(jobs, reps, workers)):
        means, ses = _mean_se(table)
        means, ses = means[..., 0], ses[..., 0]
        # the first maximum in (signal, member) order
        i_s, i_m = np.unravel_index(int(np.argmax(means)), means.shape)
        sup_risk, sup_se = float(means[i_s, i_m]), float(ses[i_s, i_m])
        v_n = minimax_rate_vn(n, family.sigma_star)
        normalization = v_n ** (2.0 * k / (2 * k + 1))
        rows.append(
            EfficiencyRow(
                n=n,
                v_n=v_n,
                normalization=normalization,
                sup_risk=sup_risk,
                sup_se=sup_se,
                normalized=normalization * sup_risk,
                ratio=normalization * sup_risk / pinsker,
                argmax_signal=int(i_s),
                argmax_member=int(i_m),
            )
        )
    return EfficiencyReport(estimator_id=estimator_id, k=k, r=r, pinsker=pinsker, reps=reps,
                            master_seed=master_seed, rows=tuple(rows))

