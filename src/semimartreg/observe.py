"""Observation paths and coefficient / variance-proxy estimators.

The observed process has increments dy = S(t) dt + d_xi on a grid of M cells
per unit time on [0, n].  Coefficient estimates are increment sums weighted
by the basis at the cell midpoints.  The basis is 1-periodic, so they read
only the fold of the path: the M per-period sums, entry i summing dy over
cell i of each of the n periods.  An ObservationPath holds that fold: the
noise fold from `noise.simulate` plus n times one period of the
deterministic increments.

On the M midpoints of a period, frequency k >= M/2 is indistinguishable
from M - k, so the estimators accept J only while 2*[J/2] < M, the top
frequency [J/2] below M/2.  Below that ceiling every estimate is one real
FFT of the fold, phase-shifted by half a cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .signal import Signal, synthesize

__all__ = [
    "ObservationPath",
    "signal_increments",
    "aliased",
    "estimate_fourier",
    "estimate_variance_proxy",
]

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class ObservationPath:
    """The M per-period sums dy of the increments of y on [0, n]."""

    dy: np.ndarray
    n: int
    M: int

    def __post_init__(self):
        arr = np.asarray(self.dy, dtype=np.float64)
        if arr.ndim != 1 or arr.size != self.M:
            raise ValueError(f"dy must have length M={self.M}, got {arr.size}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("observation increments must be finite")
        object.__setattr__(self, "dy", arr)


def signal_increments(signal: Signal, n: int, M: int) -> np.ndarray:
    """Deterministic part of dy over n*M cells: the midpoint rule for the
    integral of S over each cell, S at the cell midpoint times the width 1/M.
    One period (n = 1), times n, is the deterministic part of the fold."""
    t = (np.arange(n * M) + 0.5) / M
    return synthesize(signal, t) / M


def aliased(J: int, M: int) -> bool:
    """True when Tr_J's frequency [J/2] reaches M/2, where it cannot be told
    from frequency M - [J/2] on the M cell midpoints."""
    return 2 * (J // 2) >= M


@lru_cache(maxsize=32)
def _half_cell_phase(top: int, M: int) -> np.ndarray:
    """e^{-i pi k/M} for k = 0..top, read-only: moves the phase of frequency
    k from the cell starts to the cell midpoints."""
    phase = np.exp(-1j * math.pi * np.arange(top + 1) / M)
    phase.flags.writeable = False
    return phase


def estimate_fourier(path: ObservationPath, J: int) -> np.ndarray:
    """The (J,) array of theta_hat_j = (1/n) sum_i Tr_j(t_i) dy_i, j = 1..J,
    with t_i the cell midpoints.

    With G_k = e^{-i pi k/M} rfft(dy)_k = sum_i dy_i e^{-2 pi i k t_i}, the
    estimates are G_0/n for j = 1, and sqrt(2) Re G_k/n (j = 2k) and
    -sqrt(2) Im G_k/n (j = 2k+1) for the cosine and sine of frequency k.
    """
    if J < 1:
        raise ValueError("J must be >= 1")
    top = J // 2
    if aliased(J, path.M):
        raise ValueError(
            f"J={J} reaches frequency {top}, at or above the Nyquist limit "
            f"M/2={path.M / 2:g} of the M cell midpoints (needs 2*(J//2) < M)"
        )
    g = np.fft.rfft(path.dy)[: top + 1] * _half_cell_phase(top, path.M)
    theta = np.empty(J)
    theta[0] = g[0].real
    theta[1::2] = _SQRT2 * g[1:].real
    theta[2::2] = -_SQRT2 * g[1 : (J + 1) // 2].imag
    return theta / path.n


def estimate_variance_proxy(path: ObservationPath,
                            estimates: Optional[np.ndarray] = None) -> float:
    """Tail sum of squared trigonometric estimates, j from [sqrt(n)]+1 to n.

    estimates, when given, are the first J >= n estimates from path, which
    the proxy reads instead of transforming the path again."""
    if path.n < 4:
        raise ValueError("variance proxy needs horizon n >= 4")
    if estimates is None:
        estimates = estimate_fourier(path, path.n)
    elif estimates.size < path.n:
        raise ValueError(f"the proxy reads n={path.n} estimates, got {estimates.size}")
    j0 = math.isqrt(path.n)
    return float(np.sum(estimates[j0 : path.n] ** 2))
