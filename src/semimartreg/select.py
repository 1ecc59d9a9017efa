"""Weight grids, the penalized cost, and model selection.

There is one selection path.  `model_select` minimizes the cost J*_n over
the Pinsker-type grid, where J*_n is built from theta_star, the estimates
after an optional contraction of the leading d coefficients toward zero by
the data-dependent factor 1 - c_n/|head|.  Standard selection is the case
shrink_cfg=None: then theta_star = theta_hat and J*_n is the plain J_n,
exactly as with a contraction budget c_n = 0.

Every member's weights vanish past the grid's width, its support, so the
grid holds them as one read-only (nu, width) array and the cost reads only
the first width estimates.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .signal import Signal

__all__ = [
    "WeightVector",
    "WeightGrid",
    "SelectionConfig",
    "ShrinkageConfig",
    "SelectionResult",
    "minimax_rate_vn",
    "tau_beta",
    "build_weight_grid",
    "cost_all",
    "model_select",
    "ou_min_dimension",
    "l_star",
    "default_shrinkage_dim",
    "make_shrinkage_config",
    "shrink",
]

NOISE_FAMILIES = ("levy", "ou", "semimarkov")


@dataclass(frozen=True)
class WeightVector:
    """Pinsker weight sequence: ones up to d, polynomial decay to zero at omega."""

    lam: np.ndarray
    alpha: tuple  # (beta, r)
    omega: float
    d: int

    def __post_init__(self):
        arr = np.asarray(self.lam, dtype=np.float64)
        if np.any(arr < -1e-12) or np.any(arr > 1.0 + 1e-12):
            raise ValueError("weights must lie in [0, 1]")
        if np.any(np.diff(arr) > 1e-12):
            raise ValueError("weights must be nonincreasing in j")
        if self.d > 0 and not np.all(arr[: min(self.d, arr.size)] == 1.0):
            raise ValueError("weights must equal 1 on the plateau j <= d")
        object.__setattr__(self, "lam", arr)

    def weight_sum(self) -> float:
        return float(np.sum(self.lam))


@dataclass(frozen=True)
class WeightGrid:
    """Finite family Lambda of weight vectors indexed by alpha = (beta, r).

    lam stacks the members' weights as one read-only (nu, width) array; each
    member's lam is a row of it."""

    members: tuple
    lam: np.ndarray
    k_star: int
    epsilon: float
    m: int
    nu: int
    lambda_star_norm: float

    def __post_init__(self):
        if self.nu != len(self.members) or self.nu != self.k_star * self.m:
            raise ValueError("grid cardinality is inconsistent")

    def max_support(self) -> int:
        """Largest index j with a nonzero weight in any member."""
        nz = np.flatnonzero(self.lam.any(axis=0))
        return int(nz[-1]) + 1 if nz.size else 0


@dataclass(frozen=True)
class SelectionConfig:
    """Threshold and variance-proxy source for the selection rule."""

    delta: float
    n: int
    sigma_known: Optional[float] = None  # None -> estimate the proxy from data

    def __post_init__(self):
        if not (0.0 < self.delta < 1.0 / 3.0):
            raise ValueError("delta must lie in (0, 1/3)")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.sigma_known is not None and self.sigma_known < 0:
            raise ValueError("known proxy variance must be >= 0")


@dataclass(frozen=True)
class ShrinkageConfig:
    """Head length d and the contraction budget c_n = l*/((r* + sqrt(d/v_n)) n).

    l_star = 0 yields c_n = 0, i.e. shrinkage disabled; this is the documented
    fallback when the noise family gives no usable lower bound at this d.
    """

    d: int
    l_star: float
    r_star: float
    v_n: float
    n: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("head length d must be >= 1")
        if self.l_star < 0:
            raise ValueError("l_star must be >= 0")
        if not (self.r_star > 0 and self.v_n > 0 and self.n >= 1):
            raise ValueError("r_star, v_n must be > 0 and n >= 1")

    @property
    def c_n(self) -> float:
        return self.l_star / ((self.r_star + math.sqrt(self.d / self.v_n)) * self.n)


@dataclass(frozen=True)
class SelectionResult:
    """Selected weights and the resulting estimate, with run diagnostics."""

    weights: WeightVector
    signal: Signal
    index: int
    cost: float
    sigma_hat: float
    theta_star: np.ndarray  # estimates the cost used; theta_hat without shrinkage
    degenerate_shrinkage: bool = False


def minimax_rate_vn(n: int, sigma_star: float) -> float:
    """Normalizing rate v_n = n / sigma_star."""
    if not sigma_star > 0:
        raise ValueError("sigma_star must be > 0")
    return n / sigma_star


def tau_beta(beta: int) -> float:
    """tau_beta = (beta+1)(2 beta+1) / (pi^(2 beta) beta); < 1 for beta >= 1."""
    if int(beta) != beta or beta < 1:
        raise ValueError("beta must be an integer >= 1")
    return (beta + 1) * (2 * beta + 1) / (math.pi ** (2 * beta) * beta)


def build_weight_grid(
    n: int,
    sigma_star: float,
    *,
    k_star: Optional[int] = None,
    epsilon: Optional[float] = None,
) -> WeightGrid:
    """Construct the grid over alpha = (beta, r), beta = 1..k*, r = eps..m*eps.

    Defaults: eps = 1/ln(n+1), m = [1/eps^2], k* = max(1, [sqrt(ln(n+1))]);
    the k* floor keeps the grid nonempty at small n.  A member's weights
    vanish from j = omega on, so every weight vector has the grid's width
    max(1, min(n, ceil(max omega) - 1)), its support.
    """
    if n < 2:
        raise ValueError("grid construction needs n >= 2")
    log_n1 = math.log(n + 1)
    eps = 1.0 / log_n1 if epsilon is None else float(epsilon)
    if not (0 < eps <= 1):
        raise ValueError("epsilon must lie in (0, 1]")
    ks = max(1, math.floor(math.sqrt(log_n1))) if k_star is None else int(k_star)
    if ks < 1:
        raise ValueError("k_star must be >= 1")
    m = math.floor(1.0 / eps**2)
    v_n = minimax_rate_vn(n, sigma_star)
    alphas = [(beta, i * eps) for beta in range(1, ks + 1) for i in range(1, m + 1)]
    omegas = [(tau_beta(beta) * r * v_n) ** (1.0 / (2 * beta + 1)) for beta, r in alphas]

    # lam_j = 0 from j = omega on: no member has weight past ceil(max omega) - 1
    j = np.arange(1, max(1, min(n, math.ceil(max(omegas)) - 1)) + 1, dtype=np.float64)
    plateaus = [math.floor(omega / log_n1) for omega in omegas]
    lam = np.zeros((len(alphas), j.size))
    for row, (beta, _), omega, d in zip(lam, alphas, omegas, plateaus):
        row[j <= d] = 1.0
        mid = (j > d) & (j <= omega)
        row[mid] = 1.0 - (j[mid] / omega) ** beta
    lam.flags.writeable = False
    members = [WeightVector(lam=row, alpha=alpha, omega=omega, d=d)
               for row, alpha, omega, d in zip(lam, alphas, omegas, plateaus)]

    lam_star = 1.0 + max(w.weight_sum() for w in members)
    return WeightGrid(
        members=tuple(members),
        lam=lam,
        k_star=ks,
        epsilon=eps,
        m=m,
        nu=ks * m,
        lambda_star_norm=lam_star,
    )


def cost_all(
    grid: WeightGrid, theta_hat: np.ndarray, sigma_hat: float, delta: float, n: int,
    theta_star: Optional[np.ndarray] = None,
) -> np.ndarray:
    """J*_n(lambda) = |lambda theta_star|^2 - 2 sum lambda (theta_star theta_hat
    - sigma_hat/n) + delta sigma_hat |lambda|^2 / n of every grid member.

    theta_star defaults to theta_hat, which gives the standard J_n.  Only
    the first width estimates enter, since every weight past the grid's
    width is zero; fewer estimates than that are an error.
    """
    lam = grid.lam
    width = lam.shape[1]
    theta_hat = np.asarray(theta_hat, dtype=np.float64)
    if theta_hat.size < width:
        raise ValueError("weights have support beyond the available coefficient estimates")
    theta_star = theta_hat if theta_star is None else np.asarray(theta_star, dtype=np.float64)
    theta_hat, theta_star = theta_hat[:width], theta_star[:width]
    lam_sq = lam**2
    theta_bar = theta_star * theta_hat - sigma_hat / n
    return (
        lam_sq @ (theta_star**2)
        - 2.0 * (lam @ theta_bar)
        + delta * sigma_hat * lam_sq.sum(axis=1) / n
    )


def model_select(
    theta_hat: np.ndarray,
    grid: WeightGrid,
    config: SelectionConfig,
    sigma_hat: float,
    shrink_cfg: Optional[ShrinkageConfig] = None,
) -> SelectionResult:
    """Shrink the head if shrink_cfg is given, pick the first J*_n minimizer
    in grid order and assemble the estimate from the (shrunk) estimates; the
    estimate has as many coefficients as theta_hat, zero past the width."""
    if not grid.members:
        raise ValueError("weight grid is empty")
    theta_hat = np.asarray(theta_hat, dtype=np.float64)
    theta_star, degenerate = theta_hat, False
    if shrink_cfg is not None:
        theta_star, degenerate = shrink(theta_hat, shrink_cfg)
    costs = cost_all(grid, theta_hat, sigma_hat, config.delta, config.n, theta_star)
    idx = int(np.argmin(costs))
    w = grid.members[idx]
    coeffs = np.zeros(theta_star.size)
    coeffs[: w.lam.size] = w.lam * theta_star[: w.lam.size]
    return SelectionResult(
        weights=w,
        signal=Signal(coeffs),
        index=idx,
        cost=float(costs[idx]),
        sigma_hat=float(sigma_hat),
        theta_star=theta_star,
        degenerate_shrinkage=degenerate,
    )


def ou_min_dimension(a_max: float) -> int:
    """Smallest feasible head length for OU noise:
    d0 = inf{d >= 7 : 5 + ln d <= a_check * d}, a_check = (1-e^(-a_max))/(4 a_max)."""
    if not a_max > 0:
        raise ValueError("a_max must be > 0")
    a_check = (1.0 - math.exp(-a_max)) / (4.0 * a_max)
    d = 7
    while 5.0 + math.log(d) > a_check * d:
        d += 1
        if d > 10_000_000:
            raise ValueError("no feasible head length below 1e7; a_max too small")
    return d


def l_star(noise_family: str, d: int, rho_lower: float, a_max: Optional[float] = None) -> float:
    """Lower trace bound for the head covariance: (d-1)*rho_lower for Levy,
    (d-6)*rho_lower/2 for OU (requires d >= d0(a_max)).

    The semi-Markov case reuses the Levy value; no published bound pins it
    down, so callers may override it in the shrinkage config.
    """
    if noise_family not in NOISE_FAMILIES:
        raise ValueError(f"noise_family must be one of {NOISE_FAMILIES}")
    if not rho_lower > 0:
        raise ValueError("rho_lower must be > 0")
    if noise_family == "ou":
        if a_max is None:
            raise ValueError("OU bound needs a_max")
        d0 = ou_min_dimension(a_max)
        if d < d0:
            raise ValueError(f"head length d={d} below the OU feasibility floor d0={d0}")
        return (d - 6) * rho_lower / 2.0
    if d < 2:
        raise ValueError("head length d must be >= 2")
    return (d - 1) * rho_lower


def default_shrinkage_dim(grid: WeightGrid) -> int:
    """Plateau length of the widest grid member (at least 1)."""
    return max(1, max(w.d for w in grid.members))


def make_shrinkage_config(
    noise_family: str,
    grid: WeightGrid,
    n: int,
    sigma_star: float,
    rho_lower: float,
    *,
    a_max: Optional[float] = None,
    d: Optional[int] = None,
    r_star: Optional[float] = None,
    l_star_override: Optional[float] = None,
) -> ShrinkageConfig:
    """Assemble a shrinkage configuration with the documented defaults.

    d defaults to the widest plateau in the grid; r* defaults to ln(n+1).
    When the family's bound is infeasible at this d (OU below d0, Levy at
    d < 2) shrinkage is disabled (l* = 0) with a warning rather than failing.
    """
    dim = default_shrinkage_dim(grid) if d is None else int(d)
    rs = math.log(n + 1.0) if r_star is None else float(r_star)
    v_n = minimax_rate_vn(n, sigma_star)
    if l_star_override is not None:
        ls = float(l_star_override)
    elif noise_family in ("levy", "semimarkov") and dim < 2:
        ls = 0.0  # the (d-1) bound vanishes at d=1: nothing to shrink with
    else:
        try:
            ls = l_star(noise_family, dim, rho_lower, a_max)
        except ValueError as exc:
            warnings.warn(f"shrinkage disabled: {exc}", stacklevel=2)
            ls = 0.0
    return ShrinkageConfig(d=dim, l_star=ls, r_star=rs, v_n=v_n, n=n)


def shrink(theta_hat: np.ndarray, cfg: ShrinkageConfig):
    """Contract the first d estimates by 1 - c_n/|head|.

    Returns (theta_star, degenerate); a zero head norm cannot be contracted,
    so the estimates come back unchanged with the degenerate flag set.
    """
    theta_hat = np.asarray(theta_hat, dtype=np.float64)
    if cfg.d > theta_hat.size:
        raise ValueError(f"head length d={cfg.d} exceeds {theta_hat.size} estimates")
    out = theta_hat.copy()
    if cfg.c_n == 0.0:
        return out, False
    head_norm = float(np.sqrt(np.sum(theta_hat[: cfg.d] ** 2)))
    if head_norm == 0.0:
        return out, True
    out[: cfg.d] *= 1.0 - cfg.c_n / head_norm
    return out, False
