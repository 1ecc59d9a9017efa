"""Simulation of the three semimartingale noise families on a uniform grid.

The grid has M cells per unit time on [0, n].  Every estimator reads only
the fold of a path: the M per-period sums, entry i summing the increments
over cell i of each of the n periods.  The simulators therefore return the
fold by default, and the full path of n*M cell increments with fold=False.

- Levy: the fold is sampled directly and exactly in law.  The n increments
  summed into one entry are i.i.d., so their sum is one increment over a
  cell of length n/M; the same increment code draws the n*M cells of
  length 1/M of a full path.
- Semi-Markov: the Levy part is folded as above, and each renewal pulse is
  added to the entry of its cell index modulo M.
- OU: the per-period sums of a mean-reverting path depend on the whole
  path, so there is no exact cheap fold; the full-path recursion runs and
  is folded.

Every stochastic component (Brownian part, jump part, renewal clock, jump
marks) draws from its own child stream spawned from the caller's generator,
so switching one component on or off never perturbs the draws of the others.

Seed-splitting contract: replication (and family-member) streams are derived
as Generator(Philox(SeedSequence(entropy=master_seed, spawn_key=path))),
where path is the tuple of loop indices.  `derive_rng` implements this rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Union

import numpy as np
from numpy.random import Generator, Philox, SeedSequence
from scipy.signal import lfilter

__all__ = [
    "LevySpec",
    "OuSpec",
    "TauDist",
    "SemiMarkovSpec",
    "NoisePath",
    "RobustFamily",
    "NoiseSpec",
    "derive_rng",
    "simulate_levy",
    "simulate_ou",
    "simulate_semimarkov",
    "simulate",
    "nominal_sigma",
]

JUMP_DISTS = ("normalized_gaussian", "two_point")
Y_DISTS = ("rademacher", "standard_normal")


def derive_rng(master_seed: int, *path: int) -> Generator:
    """Counter-based generator for one task, keyed by (master_seed, path)."""
    return Generator(Philox(SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(p) for p in path))))


@dataclass(frozen=True)
class LevySpec:
    """Brownian motion plus a compensated compound-Poisson jump martingale.

    Jump sizes are scaled so that jump_intensity * E[J^2] = 1, which pins the
    second moment of the jump measure to one; for both offered size laws the
    jumps are mean zero, so the compensator drops out of the increments.
    """

    family: ClassVar[str] = "levy"
    rho1: float
    rho2: float
    jump_intensity: float = 1.0
    jump_dist: str = "normalized_gaussian"

    def __post_init__(self):
        if self.rho1 < 0 or self.rho2 < 0:
            raise ValueError("rho1 and rho2 must be >= 0")
        if not self.jump_intensity > 0:
            raise ValueError("jump_intensity must be > 0")
        if self.jump_dist not in JUMP_DISTS:
            raise ValueError(f"jump_dist must be one of {JUMP_DISTS}")

    @property
    def jump_scale(self) -> float:
        """Size scale s with E[J^2] = s^2 = 1/jump_intensity."""
        return 1.0 / math.sqrt(self.jump_intensity)


@dataclass(frozen=True)
class OuSpec:
    """Mean-reverting noise dxi = a*xi dt + du driven by a Levy process."""

    family: ClassVar[str] = "ou"
    a: float
    a_max: float
    driving: LevySpec

    def __post_init__(self):
        if not isinstance(self.driving, LevySpec):
            raise ValueError(f"driving must be a Levy spec, got {type(self.driving).__name__}")
        if not self.a_max > 0:
            raise ValueError("a_max must be > 0")
        if not (-self.a_max <= self.a <= 0):
            raise ValueError(f"a must lie in [-{self.a_max}, 0], got {self.a}")

    @property
    def rho1(self) -> float:
        """Brownian weight of the driving noise, the one rho_lower bounds."""
        return self.driving.rho1


@dataclass(frozen=True)
class TauDist:
    """Law of the i.i.d. positive renewal durations."""

    kind: str
    mean: float = 1.0
    lo: float = 0.0
    hi: float = 0.0

    def __post_init__(self):
        if self.kind == "exponential":
            if not self.mean > 0:
                raise ValueError("exponential duration mean must be > 0")
        elif self.kind == "uniform":
            if not (0 < self.lo < self.hi):
                raise ValueError("uniform durations need 0 < lo < hi")
            object.__setattr__(self, "mean", 0.5 * (self.lo + self.hi))
        else:
            raise ValueError("tau kind must be 'exponential' or 'uniform'")

    @classmethod
    def exponential(cls, mean: float) -> "TauDist":
        return cls(kind="exponential", mean=mean)

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "TauDist":
        return cls(kind="uniform", lo=lo, hi=hi)


@dataclass(frozen=True)
class SemiMarkovSpec:
    """Levy component plus a renewal pulse train with centered unit marks.

    The continuous component L mixes a Brownian motion (weight rho_check) with
    a unit-rate Gaussian compound-Poisson martingale (weight sqrt(1-rho_check^2)),
    so L has unit variance per unit time for every rho_check.
    """

    family: ClassVar[str] = "semimarkov"
    rho1: float
    rho2: float
    rho_check: float
    tau_dist: TauDist
    y_dist: str = "rademacher"

    def __post_init__(self):
        if self.rho1 < 0 or self.rho2 < 0:
            raise ValueError("rho1 and rho2 must be >= 0")
        if not (0.0 <= self.rho_check <= 1.0):
            raise ValueError("rho_check must lie in [0, 1]")
        if self.y_dist not in Y_DISTS:
            raise ValueError(f"y_dist must be one of {Y_DISTS}")


NoiseSpec = Union[LevySpec, OuSpec, SemiMarkovSpec]


@dataclass(frozen=True)
class NoisePath:
    """Noise on [0, n] with M cells of width 1/M per unit time: the n*M cell
    increments of a full path, or, when folded, its M per-period sums."""

    increments: np.ndarray
    n: int
    M: int
    folded: bool = False

    def __post_init__(self):
        arr = np.asarray(self.increments, dtype=np.float64)
        size, name = (self.M, "M") if self.folded else (self.n * self.M, "n*M")
        if arr.ndim != 1 or arr.size != size:
            raise ValueError(f"increments must have length {name}={size}, got {arr.size}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("noise increments must be finite")
        object.__setattr__(self, "increments", arr)

    def fold(self) -> "NoisePath":
        """The M per-period sums of the path."""
        if self.folded:
            return self
        sums = self.increments.reshape(self.n, self.M).sum(axis=0)
        return NoisePath(sums, self.n, self.M, folded=True)


@dataclass(frozen=True)
class RobustFamily:
    """Finite family of noise specs sharing the robustness bounds.

    rho_lower bounds rho1^2 from below for every member, sigma_star bounds the
    nominal proxy variance from above, a_max caps mean reversion of OU members.
    """

    members: tuple
    rho_lower: float
    sigma_star: float
    a_max: float = 1.0

    def __post_init__(self):
        members = tuple(self.members)
        if not members:
            raise ValueError("family must contain at least one noise spec")
        object.__setattr__(self, "members", members)
        if not (0 < self.rho_lower):
            raise ValueError("rho_lower must be > 0")
        for i, spec in enumerate(members):
            if spec.rho1**2 < self.rho_lower - 1e-12:
                raise ValueError(f"member {i}: rho1^2 < rho_lower")
            if nominal_sigma(spec) > self.sigma_star + 1e-12:
                raise ValueError(f"member {i}: nominal sigma exceeds sigma_star")
            if isinstance(spec, OuSpec) and spec.a < -self.a_max:
                raise ValueError(f"member {i}: reversion below -a_max")


def _check_grid(n: int, M: int) -> None:
    if int(n) != n or n < 1:
        raise ValueError("horizon n must be an integer >= 1")
    if int(M) != M or M < 16:
        raise ValueError("grid density M must be an integer >= 16")


def _compound_poisson_increments(
    spec: LevySpec, cells: int, width: float, rng: Generator
) -> np.ndarray:
    """Sums of a unit second-moment compound-Poisson martingale over cells
    of length width."""
    counts = rng.poisson(spec.jump_intensity * width, size=cells)
    s = spec.jump_scale
    if spec.jump_dist == "normalized_gaussian":
        # sum of k iid N(0, s^2) is sqrt(k)*s*N(0,1)
        return np.sqrt(counts) * s * rng.standard_normal(cells)
    heads = rng.binomial(counts, 0.5)
    return s * (2.0 * heads - counts)


def _levy_increments(spec: LevySpec, cells: int, width: float, rng: Generator) -> np.ndarray:
    """Increments of rho1*w + rho2*z over cells of length width."""
    w_rng, z_rng = rng.spawn(2)
    inc = np.zeros(cells)
    if spec.rho1 > 0:
        inc += spec.rho1 * math.sqrt(width) * w_rng.standard_normal(cells)
    if spec.rho2 > 0:
        inc += spec.rho2 * _compound_poisson_increments(spec, cells, width, z_rng)
    return inc


def simulate_levy(spec: LevySpec, n: int, M: int, rng: Generator, *,
                  fold: bool = True) -> NoisePath:
    """xi = rho1*w + rho2*z with z a compensated compound-Poisson martingale.

    The fold is drawn as M cells of length n/M, each with the law of the
    sum of the n cells of length 1/M it stands for."""
    _check_grid(n, M)
    if fold:
        return NoisePath(_levy_increments(spec, M, n / M, rng), n, M, folded=True)
    return NoisePath(_levy_increments(spec, n * M, 1.0 / M, rng), n, M)


def simulate_ou(spec: OuSpec, n: int, M: int, rng: Generator, *,
                fold: bool = True) -> NoisePath:
    """Per-cell recursion xi_{i+1} = exp(a/M) * xi_i + du_i, xi_0 = 0.

    OU has no exact cheap fold: the per-period sums depend on the whole
    path, so the fold is taken of the full n*M-cell recursion."""
    _check_grid(n, M)
    du = simulate_levy(spec.driving, n, M, rng, fold=False).increments
    phi = math.exp(spec.a / M)
    xi = lfilter([1.0], [1.0, -phi], du)
    path = NoisePath(np.diff(xi, prepend=0.0), n, M)
    return path.fold() if fold else path


def simulate_semimarkov(spec: SemiMarkovSpec, n: int, M: int, rng: Generator, *,
                        fold: bool = True) -> NoisePath:
    """xi = rho1*L + rho2*X with X the renewal pulse train.

    rho1*L is the Levy process with Brownian weight rho1*rho_check and
    unit-rate Gaussian jumps of weight rho1*sqrt(1-rho_check^2), drawn by
    simulate_levy from the first two children of rng; the renewal clock
    and the marks draw from the third and fourth.  A pulse lands in the
    cell of its time, or in the fold in that cell's index modulo M.
    """
    mix = math.sqrt(1.0 - spec.rho_check**2)
    continuous = LevySpec(rho1=spec.rho1 * spec.rho_check, rho2=spec.rho1 * mix)
    inc = simulate_levy(continuous, n, M, rng, fold=fold).increments
    tau_rng, y_rng = rng.spawn(2)
    if spec.rho2 > 0:
        times = _renewal_times(spec.tau_dist, n, tau_rng)
        if times.size:
            marks = (
                y_rng.integers(0, 2, size=times.size) * 2.0 - 1.0
                if spec.y_dist == "rademacher"
                else y_rng.standard_normal(times.size)
            )
            idx = np.minimum((times * M).astype(np.int64), n * M - 1)
            if fold:
                idx %= M
            inc += spec.rho2 * np.bincount(idx, weights=marks, minlength=inc.size)

    return NoisePath(inc, n, M, folded=fold)


def _renewal_times(tau: TauDist, horizon: float, rng: Generator) -> np.ndarray:
    """Partial sums of iid durations, truncated to (0, horizon]."""
    block = max(64, int(1.5 * horizon / tau.mean) + 16)
    total = 0.0
    chunks = []
    while total <= horizon:
        draws = (
            rng.exponential(tau.mean, size=block)
            if tau.kind == "exponential"
            else rng.uniform(tau.lo, tau.hi, size=block)
        )
        chunks.append(draws)
        total += float(draws.sum())
    times = np.cumsum(np.concatenate(chunks))
    return times[times <= horizon]


def simulate(spec: NoiseSpec, n: int, M: int, rng: Generator, *,
             fold: bool = True) -> NoisePath:
    """Dispatch on the spec type; the fold by default, the full path with
    fold=False."""
    if isinstance(spec, LevySpec):
        return simulate_levy(spec, n, M, rng, fold=fold)
    if isinstance(spec, OuSpec):
        return simulate_ou(spec, n, M, rng, fold=fold)
    if isinstance(spec, SemiMarkovSpec):
        return simulate_semimarkov(spec, n, M, rng, fold=fold)
    raise ValueError(f"unknown noise spec type {type(spec).__name__}")


def nominal_sigma(spec: NoiseSpec) -> float:
    """Nominal per-coordinate proxy variance of the noise.

    Levy: rho1^2 + rho2^2 (exact).  Semi-Markov: rho1^2 + rho2^2/mean(tau) by
    the renewal second-moment rate.  OU: the driving Levy value, which is only
    an approximation; selection runs on OU noise should estimate the proxy
    from data instead of trusting this number.
    """
    if isinstance(spec, LevySpec):
        return spec.rho1**2 + spec.rho2**2
    if isinstance(spec, SemiMarkovSpec):
        return spec.rho1**2 + spec.rho2**2 / spec.tau_dist.mean
    if isinstance(spec, OuSpec):
        return nominal_sigma(spec.driving)
    raise ValueError(f"unknown noise spec type {type(spec).__name__}")
