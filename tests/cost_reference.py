"""Reference penalty and cost of one weight vector, written as their formulas.

The selector evaluates every grid member in one matrix product
(`select.cost_all`); these plain sums share no code with it, so the tests
that compare the two can catch a defect in either.
"""

import numpy as np


def penalty(weights, sigma_hat, n):
    """P_n(lambda) = sigma_hat |lambda|^2 / n."""
    if sigma_hat < 0:
        raise ValueError("sigma_hat must be >= 0")
    lam = np.asarray(getattr(weights, "lam", weights), dtype=np.float64)
    return float(sigma_hat * np.sum(lam**2) / n)


def cost(weights, theta_hat, sigma_hat, delta, n, theta_star=None):
    """J*_n(lambda) = sum lambda^2 theta*^2 - 2 sum lambda (theta* theta_hat
    - sigma_hat/n) + delta P_n(lambda), with theta* = theta_hat by default
    (the standard J_n).  A lambda shorter than the estimates reads as
    zero-padded; one longer must be zero past them."""
    lam = np.asarray(getattr(weights, "lam", weights), dtype=np.float64)
    theta_hat = np.asarray(theta_hat, dtype=np.float64)
    ts = theta_hat if theta_star is None else np.asarray(theta_star, dtype=np.float64)
    if np.any(lam[theta_hat.size:] != 0.0):
        raise ValueError("weights have support beyond the available coefficient estimates")
    lam = np.pad(lam[: theta_hat.size], (0, max(0, theta_hat.size - lam.size)))
    return float(np.sum(lam**2 * ts**2) - 2.0 * np.sum(lam * (ts * theta_hat - sigma_hat / n))
                 + delta * penalty(lam, sigma_hat, n))
