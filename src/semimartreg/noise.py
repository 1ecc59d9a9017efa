"""Simulation of the three semimartingale noise families on a uniform grid.

The grid has M cells per unit time on [0, n].  Every estimator reads only
the fold of a path: the M per-period sums, entry i summing the increments
over cell i of each of the n periods.  The simulators therefore return the
fold, an (M,) array, by default, and the full path, the (n*M,) array of
cell increments, with fold=False.

- Levy: the fold is sampled directly and exactly in law.  The n increments
  summed into one entry are i.i.d., so their sum is one increment over a
  cell of length n/M; the same increment code draws the n*M cells of
  length 1/M of a full path.
- Semi-Markov: the Levy part is folded as above, and each renewal pulse is
  added to the entry of its cell index modulo M.
- OU: the fold is linear in the driving increments du_p of the n periods,
  fold = T F + S h with F the driving Levy fold and S the sum of the
  states entering the periods (see `simulate_ou`).  (F, S) is drawn
  exactly in law: the Brownian part of S is Gaussian given F, and each
  jump adds its size to F and a weight set by its cell on the n*M grid
  to S.  The full path runs the same per-period form over the n period
  states.

A path draws all of its noise from the caller's generator, one component
after the other in a fixed order: the Brownian block, then the
compound-Poisson jumps, then, for semi-Markov noise, the renewal clock and
then the marks.  Every component is drawn whatever its weight, and a zero
weight scales its draws to zero, so switching one component on or off never
shifts the draws of the others.

Seed-splitting contract: replication (and family-member) streams are derived
as Generator(Philox(SeedSequence(entropy=master_seed, spawn_key=path))),
where path is the tuple of loop indices.  `derive_rng` implements this rule
and is its reference.  The replicate loops reach the same streams more
cheaply: `stream_keys` derives the Philox keys of every replicate of a
report at once, by numpy's SeedSequence hash vectorised over the replicate
index, and `ReplicateStreams` re-keys one generator per process for each
path, from counter 0 with nothing buffered, so a path draws exactly what
derive_rng(master_seed, rep) would give it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar, Union

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

__all__ = [
    "LevySpec",
    "OuSpec",
    "TauDist",
    "SemiMarkovSpec",
    "RobustFamily",
    "NoiseSpec",
    "derive_rng",
    "stream_keys",
    "ReplicateStreams",
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


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): a pool of 4
# 32-bit words, hashmix and mix with these constants.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


class _HashMix:
    """SeedSequence's hashmix: each call advances the hash constant, which
    depends on the number of calls only, so one word may be an array of
    32-bit values held in uint64."""

    def __init__(self, const: int, mult: int):
        self.const, self.mult = const, mult

    def __call__(self, value):
        value = value ^ self.const
        self.const = (self.const * self.mult) & _MASK32
        value = (value * self.const) & _MASK32
        return value ^ (value >> 16)


def _mix(x, y):
    result = (_MIX_L * x - _MIX_R * y) & _MASK32
    return result ^ (result >> 16)


def stream_keys(master_seed: int, reps: int) -> np.ndarray:
    """The (reps, 2) uint64 Philox keys of derive_rng(master_seed, rep) for
    rep = 0..reps-1: SeedSequence(entropy=master_seed, spawn_key=(rep,))
    .generate_state(2, np.uint64), with the hash run once on the words of
    master_seed and vectorised over rep, the last entropy word."""
    master_seed, reps = int(master_seed), int(reps)
    if master_seed < 0:
        raise ValueError("master_seed must be >= 0")
    if not 0 <= reps <= 2**32:
        raise ValueError("reps must lie in [0, 2^32]: each rep is one 32-bit word")
    # the seed's 32-bit words, low first, zero-padded to the pool size as
    # SeedSequence pads them when a spawn key follows
    words = [(master_seed >> shift) & _MASK32
             for shift in range(0, max(32, master_seed.bit_length()), 32)]
    words += [0] * (_POOL_SIZE - len(words))
    hashmix = _HashMix(_INIT_A, _MULT_A)
    pool = [hashmix(w) for w in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    rep = np.arange(reps, dtype=np.uint64)
    for word in (*words[_POOL_SIZE:], rep):
        pool = [_mix(p, hashmix(word)) for p in pool]
    out = _HashMix(_INIT_B, _MULT_B)
    state = [out(p) for p in pool]
    # generate_state reads its uint32 words in pairs, little-endian
    return np.stack([state[0] | (state[1] << 32), state[2] | (state[3] << 32)], axis=-1)


class ReplicateStreams:
    """The streams derive_rng(master_seed, rep) of replicates rep < reps,
    from keys derived once (`stream_keys`) and one generator that `rng`
    re-keys for each path.

    Each process works on its own copy (a pool worker receives one), so the
    generator is never shared across processes; within a process a path
    must make all of its draws before the next path is keyed."""

    def __init__(self, master_seed: int, reps: int):
        self.keys = stream_keys(master_seed, reps)
        self._bitgen = Philox(0)
        self._rng = Generator(self._bitgen)
        # the state of a fresh Philox: counter 0, an empty buffer and no
        # spare 32 bits; rng swaps in the key
        self._fresh = self._bitgen.state

    def rng(self, rep: int) -> Generator:
        """The generator reset to replicate rep's key from a fresh state: it
        draws what derive_rng(master_seed, rep) would."""
        self._fresh["state"]["key"] = self.keys[rep]
        self._bitgen.state = self._fresh
        return self._rng


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


def _compound_poisson(spec: LevySpec, cells: int, width: float, rng: Generator,
                      periods: int = 0):
    """A unit second-moment compound-Poisson martingale over cells of length
    width: the sum of the jumps in each cell.

    With periods > 0 each cell is the fold of `periods` cells of length
    width/periods, one per period, and the jumps are returned one by one as
    (period, cell, size): the period the jump falls in, the index of its
    cell within the period, and its size."""
    counts = rng.poisson(spec.jump_intensity * width, size=cells)
    s = spec.jump_scale
    gaussian = spec.jump_dist == "normalized_gaussian"
    if periods:
        total = int(counts.sum())
        period = rng.integers(0, periods, size=total)
        unit = (rng.standard_normal(total) if gaussian
                else 2.0 * rng.integers(0, 2, size=total) - 1.0)
        return period, np.repeat(np.arange(cells), counts), s * unit
    if gaussian:
        # sum of k iid N(0, s^2) is sqrt(k)*s*N(0,1)
        return np.sqrt(counts) * s * rng.standard_normal(cells)
    heads = rng.binomial(counts, 0.5)
    return s * (2.0 * heads - counts)


def _levy_increments(spec: LevySpec, cells: int, width: float, rng: Generator) -> np.ndarray:
    """Increments of rho1*w + rho2*z over cells of length width: the
    Brownian block, then the jumps."""
    inc = spec.rho1 * math.sqrt(width) * rng.standard_normal(cells)
    inc += spec.rho2 * _compound_poisson(spec, cells, width, rng)
    return inc


def simulate_levy(spec: LevySpec, n: int, M: int, rng: Generator, *,
                  fold: bool = True) -> np.ndarray:
    """xi = rho1*w + rho2*z with z a compensated compound-Poisson martingale.

    The fold is drawn as M cells of length n/M, each with the law of the
    sum of the n cells of length 1/M it stands for."""
    _check_grid(n, M)
    if fold:
        return _levy_increments(spec, M, n / M, rng)
    return _levy_increments(spec, n * M, 1.0 / M, rng)


# A scaled cumsum multiplies by phi^-l up to e^_MAX_LOG_SCALE (about 1e260),
# below the float64 maximum of 1.8e308.
_MAX_LOG_SCALE = 600.0


@lru_cache(maxsize=32)
def _chunk_scales(log_phi: float, m: int) -> np.ndarray:
    """phi^-l for l below the chunk length of `_one_pole` along m entries,
    phi = e^log_phi (read-only)."""
    step = m if log_phi == 0.0 else max(1, int(_MAX_LOG_SCALE / -log_phi))
    up = np.exp(-log_phi * np.arange(min(step, m)))
    up.flags.writeable = False
    return up


def _one_pole(x: np.ndarray, log_phi: float) -> np.ndarray:
    """y_i = phi*y_{i-1} + x_i along the last axis from y_{-1} = 0,
    phi = e^log_phi <= 1.

    A scaled cumsum, y_i = phi^i sum_{l<=i} phi^-l x_l, over chunks short
    enough that phi^-l stays finite; each chunk carries on from the last
    state of the one before."""
    x = np.asarray(x, dtype=np.float64)
    m = x.shape[-1]
    scales = _chunk_scales(log_phi, m)
    y = np.empty_like(x)
    carried = 0.0
    for start in range(0, m, scales.size):
        stop = min(start + scales.size, m)
        up = scales[: stop - start]
        y[..., start:stop] = (np.cumsum(x[..., start:stop] * up, axis=-1) + carried) / up
        carried = math.exp(log_phi) * y[..., stop - 1 : stop]
    return y


def _ou_period(du: np.ndarray, s, a: float) -> np.ndarray:
    """T du + s h: the increments over one period (the last axis of du) of
    the OU path that enters it in state s, driven by du.  T du are the
    increments from state 0, and h_i = phi^i (phi - 1) those of the free
    decay from state 1."""
    M = du.shape[-1]
    xi = _one_pole(du, a / M)
    inc = np.multiply.outer(s, _free_decay(a, M))
    inc[..., 0] += xi[..., 0]
    inc[..., 1:] += xi[..., 1:] - xi[..., :-1]
    return inc


@lru_cache(maxsize=32)
def _free_decay(a: float, M: int) -> np.ndarray:
    """h_i = phi^i (phi - 1), phi = e^(a/M): the increments over one period
    of the free decay from state 1 (read-only)."""
    h = np.expm1(a / M) * np.exp(a / M * np.arange(M))
    h.flags.writeable = False
    return h


@lru_cache(maxsize=32)
def _ou_weights(a: float, n: int, M: int) -> tuple:
    """(g, c): g_l = phi^(M-1-l) carries du_q to the state ending period q,
    and c_q = (1 - phi^(M(n-1-q))) / (1 - phi^M) sums that state's share of
    the states entering the later periods (n-1-q at a = 0).  Read-only."""
    g = np.exp(a / M * np.arange(M - 1, -1, -1))
    later = np.arange(n - 1, -1, -1, dtype=np.float64)
    c = later if a == 0.0 else np.expm1(a * later) / np.expm1(a)
    g.flags.writeable = c.flags.writeable = False
    return g, c


@lru_cache(maxsize=32)
def _ou_fold_moments(a: float, n: int, M: int) -> tuple:
    """(mean(c), |g|^2 sum_q (c_q - mean(c))^2) of `_ou_weights`: the mean
    of S given the Brownian fold is mean(c) g.F_W, and rho1^2/M times the
    second number is its variance."""
    g, c = _ou_weights(a, n, M)
    return float(c.mean()), float(g @ g) * float(np.sum((c - c.mean()) ** 2))


def _ou_full_path(du: np.ndarray, a: float) -> np.ndarray:
    """Increments of the OU path driven by the (n, M) periods du, period by
    period from the states entering each period."""
    g, _ = _ou_weights(a, *du.shape)
    ends = _one_pole(du @ g, a)
    return _ou_period(du, np.concatenate(([0.0], ends[:-1])), a).ravel()


def simulate_ou(spec: OuSpec, n: int, M: int, rng: Generator, *,
                fold: bool = True) -> np.ndarray:
    """Per-cell recursion xi_{i+1} = phi xi_i + du_i, xi_0 = 0, phi = exp(a/M),
    observed through its increments.

    Period p of the path has increments T du_p + s_p h (`_ou_period`), with
    s_p the state entering it, so the fold is T F + S h with F = sum_p du_p
    the driving Levy fold and S = sum_p s_p = sum_q c_q g.du_q
    (`_ou_weights`).  It is drawn exactly in law: the Brownian part of F as
    by `simulate_levy`, with the Brownian part of S Gaussian given it, of mean
    mean(c) g.F_W and variance (rho1^2/M) |g|^2 sum_q (c_q - mean(c))^2; each
    jump, placed on the n*M grid at cell l of period q, adds its size Y to
    F_l and c_q g_l Y to S.  The full path (fold=False) runs the per-period
    form over the n period states of the driving full path."""
    _check_grid(n, M)
    drv, a = spec.driving, spec.a
    if not fold:
        return _ou_full_path(simulate_levy(drv, n, M, rng, fold=False).reshape(n, M), a)
    g, c = _ou_weights(a, n, M)
    c_mean, spread = _ou_fold_moments(a, n, M)
    z = rng.standard_normal(M + 1)
    F = drv.rho1 * math.sqrt(n / M) * z[:M]
    S = c_mean * float(g @ F) + drv.rho1 * math.sqrt(spread / M) * z[M]
    q, l, sizes = _compound_poisson(drv, M, n / M, rng, periods=n)
    F += drv.rho2 * np.bincount(l, weights=sizes, minlength=M)
    S += drv.rho2 * float(np.sum(c[q] * g[l] * sizes))
    return _ou_period(F, S, a)


def simulate_semimarkov(spec: SemiMarkovSpec, n: int, M: int, rng: Generator, *,
                        fold: bool = True) -> np.ndarray:
    """xi = rho1*L + rho2*X with X the renewal pulse train.

    rho1*L is the Levy process with Brownian weight rho1*rho_check and
    unit-rate Gaussian jumps of weight rho1*sqrt(1-rho_check^2), drawn
    first by simulate_levy; the renewal clock and then the marks follow on
    the same stream.  A pulse lands in the cell of its time, or in the
    fold in that cell's index modulo M.
    """
    mix = math.sqrt(1.0 - spec.rho_check**2)
    continuous = LevySpec(rho1=spec.rho1 * spec.rho_check, rho2=spec.rho1 * mix)
    inc = simulate_levy(continuous, n, M, rng, fold=fold)
    times = _renewal_times(spec.tau_dist, n, rng)
    marks = (
        rng.integers(0, 2, size=times.size) * 2.0 - 1.0
        if spec.y_dist == "rademacher"
        else rng.standard_normal(times.size)
    )
    idx = np.minimum((times * M).astype(np.int64), n * M - 1)
    if fold:
        idx %= M
    inc += spec.rho2 * np.bincount(idx, weights=marks, minlength=inc.size)
    return inc


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
             fold: bool = True) -> np.ndarray:
    """Noise of spec on [0, n], M cells per unit time, dispatched on the spec
    type: the fold, an (M,) float64 array of per-period sums, by default, or
    the full path, the (n*M,) array of cell increments, with fold=False."""
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
