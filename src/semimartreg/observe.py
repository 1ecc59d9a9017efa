"""Observation paths and coefficient / variance-proxy estimators.

The observed process has increments dy = S(t) dt + d_xi on the simulation
grid.  Coefficient estimates are increment sums weighted by the basis at the
cell midpoints; since the basis is 1-periodic the nM-cell sum folds onto one
period of M cells, which keeps estimation cheap even with j running up to n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .noise import NoisePath
from .signal import Signal, basis_matrix, synthesize

__all__ = [
    "ObservationPath",
    "FourierEstimates",
    "signal_increments",
    "simulate_observations",
    "estimate_fourier",
    "estimate_variance_proxy",
]


@dataclass(frozen=True)
class ObservationPath:
    """Increments of y over n*M cells of width 1/M on [0, n]."""

    dy: np.ndarray
    n: int
    M: int

    def __post_init__(self):
        arr = np.asarray(self.dy, dtype=np.float64)
        if arr.ndim != 1 or arr.size != self.n * self.M:
            raise ValueError(f"dy must have length n*M={self.n * self.M}, got {arr.size}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("observation increments must be finite")
        object.__setattr__(self, "dy", arr)


@dataclass(frozen=True)
class FourierEstimates:
    """Coefficient estimates theta_hat_1..theta_hat_J from a path on [0, n]."""

    theta_hat: np.ndarray
    n: int
    J: int

    def __post_init__(self):
        arr = np.asarray(self.theta_hat, dtype=np.float64)
        if arr.size != self.J:
            raise ValueError("theta_hat length must equal J")
        if not np.all(np.isfinite(arr)):
            raise ValueError("estimates must be finite")
        object.__setattr__(self, "theta_hat", arr)


def signal_increments(signal: Signal, n: int, M: int) -> np.ndarray:
    """Deterministic part of dy: the midpoint rule for the integral of S over
    each cell, S at the cell midpoint times the width 1/M."""
    t = (np.arange(n * M) + 0.5) / M
    return synthesize(signal, t) / M


def simulate_observations(signal: Signal, noise: NoisePath) -> ObservationPath:
    """dy_i = integral of S over cell i plus the noise increment."""
    if noise.increments.size != noise.n * noise.M:
        raise ValueError("noise grid does not match its declared (n, M)")
    det = signal_increments(signal, noise.n, noise.M)
    return ObservationPath(det + noise.increments, noise.n, noise.M)


@lru_cache(maxsize=16)
def _midpoint_basis(J: int, M: int) -> np.ndarray:
    """Basis values at the M cell midpoints of one period; cached, read-only."""
    mat = basis_matrix(J, (np.arange(M) + 0.5) / M)
    mat.setflags(write=False)
    return mat


def estimate_fourier(path: ObservationPath, J: int) -> FourierEstimates:
    """theta_hat_j = (1/n) sum_i Tr_j(t_i) dy_i with t_i the cell midpoints."""
    if J < 1:
        raise ValueError("J must be >= 1")
    if J > path.n * path.M / 4:
        raise ValueError(
            f"J={J} exceeds the anti-aliasing ceiling n*M/4={path.n * path.M / 4:g}"
        )
    folded = path.dy.reshape(path.n, path.M).sum(axis=0)
    theta = _midpoint_basis(J, path.M) @ folded / path.n
    return FourierEstimates(theta, path.n, J)


def estimate_variance_proxy(path: ObservationPath) -> float:
    """Tail sum of squared trigonometric estimates, j from [sqrt(n)]+1 to n."""
    if path.n < 4:
        raise ValueError("variance proxy needs horizon n >= 4")
    t_hat = estimate_fourier(path, path.n).theta_hat
    j0 = math.isqrt(path.n)
    return float(np.sum(t_hat[j0:] ** 2))
