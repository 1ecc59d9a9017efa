"""1-periodic signals represented in the trigonometric basis.

A signal is a finite vector of coefficients on the orthonormal basis
Tr_1 = 1, Tr_2 = sqrt(2) cos(2 pi t), Tr_3 = sqrt(2) sin(2 pi t),
Tr_4 = sqrt(2) cos(4 pi t), ...  Smoothness classes are handled through
the Fourier-side ellipsoid sum(a_j * theta_j^2) <= r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Signal",
    "SobolevBallSpec",
    "basis_matrix",
    "synthesize",
    "sample_sobolev",
    "sobolev_norm",
    "ellipsoid_coeffs",
]

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class Signal:
    """A 1-periodic signal given by trigonometric coefficients theta_1..theta_J."""

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("Signal needs a 1D coefficient vector with at least one entry")
        if not np.all(np.isfinite(arr)):
            raise ValueError("Signal coefficients must be finite")
        object.__setattr__(self, "coeffs", arr)

    @property
    def basis_size(self) -> int:
        return int(self.coeffs.size)

    def norm_sq(self) -> float:
        """Squared L2 norm over one period (Parseval)."""
        return float(np.sum(self.coeffs**2))


@dataclass(frozen=True)
class SobolevBallSpec:
    """Smoothness ball: k-times differentiable periodic functions with
    sum of squared derivative norms up to order k bounded by r.

    r = 0 is allowed as the degenerate ball containing only the zero signal.
    """

    k: int
    r: float

    def __post_init__(self):
        if int(self.k) != self.k or self.k < 1:
            raise ValueError("regularity k must be an integer >= 1")
        if not (self.r >= 0.0 and math.isfinite(self.r)):
            raise ValueError("radius r must be finite and >= 0")
        object.__setattr__(self, "k", int(self.k))
        object.__setattr__(self, "r", float(self.r))


def basis_matrix(J: int, t: np.ndarray) -> np.ndarray:
    """Stack Tr_1..Tr_J evaluated at the points t; shape (J, len(t))."""
    if J < 1:
        raise ValueError("J must be >= 1")
    t = np.asarray(t, dtype=np.float64)
    out = np.empty((J, t.size))
    out[0] = 1.0
    for j in range(2, J + 1):
        phase = 2.0 * math.pi * (j // 2) * t
        out[j - 1] = _SQRT2 * (np.cos(phase) if j % 2 == 0 else np.sin(phase))
    return out


def synthesize(signal: Signal, t) -> np.ndarray:
    """Evaluate the signal at t; exactly 1-periodic by reducing t mod 1."""
    t = np.asarray(t, dtype=np.float64)
    frac = np.mod(t, 1.0)
    vals = basis_matrix(signal.basis_size, np.atleast_1d(frac)).T @ signal.coeffs
    return vals if t.ndim else float(vals[0])


def ellipsoid_coeffs(J: int, k: int) -> np.ndarray:
    """Weights a_j = sum_{i=0..k} (2 pi [j/2])^(2i) of the smoothness ellipsoid."""
    if k < 0:
        raise ValueError("k must be >= 0")
    base = (2.0 * math.pi * (np.arange(1, J + 1) // 2)) ** 2
    a = np.ones(J)
    term = np.ones(J)
    for _ in range(k):
        term = term * base
        a += term
    return a


def sobolev_norm(signal: Signal, k: int) -> float:
    """Ellipsoid norm sum(a_j * theta_j^2), equal to the sum of squared
    L2 norms of the derivatives of order 0..k."""
    a = ellipsoid_coeffs(signal.basis_size, k)
    return float(np.sum(a * signal.coeffs**2))


def sample_sobolev(spec: SobolevBallSpec, J: int, rng: np.random.Generator) -> Signal:
    """Draw a signal on the boundary shell of the smoothness ball.

    Standard normal coefficients are rescaled so the ellipsoid norm equals
    0.95*r exactly: near the worst-case boundary, strictly feasible under
    floating-point error.
    """
    if J < 2:
        raise ValueError("J must be >= 2 for ball sampling")
    z = rng.standard_normal(J)
    if spec.r == 0.0:
        return Signal(np.zeros(J))
    a = ellipsoid_coeffs(J, spec.k)
    q = float(np.sum(a * z**2))
    if q == 0.0:
        return Signal(np.zeros(J))
    return Signal(z * math.sqrt(0.95 * spec.r / q))
