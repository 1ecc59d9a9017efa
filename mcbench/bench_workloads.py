"""Workload definitions for the semimartreg Monte Carlo benchmark.

Each workload is one CLI command on a config generated from the benchmark
seed; README.md and BENCHMARK.json say why each was chosen.  The seed
picks only the Monte Carlo master seed written into the config; sizes,
noise families and signals are fixed, so the stored references in
reference.json describe every seed.  `tiny` shrinks a workload to a few
seconds for the benchmark's own tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

# Confirmation seed for later performance claims: tune on other seeds, then
# rerun on this one before claiming a gain.
HELD_OUT_SEED = 1712

# Boundary sample of the k=1, r=1 Sobolev ball with J=16 coefficients:
# sample_sobolev(SobolevBallSpec(1, 1.0), 16, derive_rng(2024, 77)), the
# signal the shipped oracle config draws.  Fixed here so that the seed moves
# only the noise draws and one reference serves every seed.
SOBOLEV_K1_J16 = (
    0.013618705737290678, 0.0006449657001170271, 0.012626632714354234,
    -1.7668827953901254e-05, -0.006622779703728741, 0.0017992043790006332,
    0.007045681879005134, 0.009098450803490888, 0.005051355986394758,
    -0.009671993225040889, -0.0040260764459849625, -0.007935245691107708,
    -0.014925956631471119, -0.003154374163131238, 0.010214995237519807,
    -0.006685231311649327,
)

LEVY_A = {"family": "levy", "rho1": 0.6, "rho2": 0.8}
OU_SWEEP = {"family": "ou", "a": -0.5, "a_max": 1.0,
            "driving": {"family": "levy", "rho1": 0.8, "rho2": 0.6}}
SEMIMARKOV = {"family": "semimarkov", "rho1": 0.8, "rho2": 0.42, "rho_check": 0.5,
              "tau_dist": {"kind": "exponential", "mean": 0.5}}
OU_IMPROVE = {"family": "ou", "a": -0.5, "a_max": 1.0,
              "driving": {"family": "levy", "rho1": 1.0, "rho2": 0.5}}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    workers: int
    make_config: Callable[[int, bool], dict]
    # Counts the traced run must see, and paths simulated, as a function of
    # the generated config.
    expected_calls: Callable[[dict], dict]


def mc_seed(workload: str, seed: int) -> int:
    """Master seed of the generated config; a pure function of (workload, seed)."""
    return random.Random(f"{workload}/{int(seed)}").randrange(1, 2**31)


def _sweep_config(seed: int, tiny: bool) -> dict:
    n_values = [50, 100] if tiny else [200, 400, 800]
    return {
        "signal": {"coeffs": [0.0]},
        "noise_family": {"members": [LEVY_A, OU_SWEEP, SEMIMARKOV],
                         "rho_lower": 0.36, "sigma_star": 1.0, "a_max": 1.0},
        "n": n_values[0],
        "M": 64 if tiny else 256,
        "sigma_source": {"known": 1.0},
        # 32 is the least rep count at which risk._map_reps hands the two
        # workers chunks of more than one replicate, as it does at the
        # shipped config's 200; see README.md for the fixed cost per launch.
        "reps": 2 if tiny else 32,
        "seed": seed,
        "efficiency": {"k": 1, "r": 1.0, "n_values": n_values, "n_signals": 1 if tiny else 3},
    }


def _sweep_calls(cfg: dict) -> dict:
    eff = cfg["efficiency"]
    paths = (len(eff["n_values"]) * (eff["n_signals"] + 1)
             * len(cfg["noise_family"]["members"]) * cfg["reps"])
    return {"paths": paths, "noise.simulate": paths, "observe.estimate_fourier": paths,
            "observe.variance_proxy": 0, "select.select": paths}



def _oracle_config(seed: int, tiny: bool) -> dict:
    n, M = (64, 128) if tiny else (800, 1600)
    return {
        "signal": {"coeffs": list(SOBOLEV_K1_J16)},
        "noise": LEVY_A,
        "n": n,
        "M": M,
        "J": 16,
        "delta": 0.05,
        "sigma_source": "estimated",
        "estimator": "improved",
        "reps": 4 if tiny else 60,
        "seed": seed,
    }


def _oracle_calls(cfg: dict) -> dict:
    reps = cfg["reps"]
    return {"paths": reps, "noise.simulate": reps, "observe.estimate_fourier": reps,
            "observe.variance_proxy": reps, "select.select": reps}



def _improve_config(seed: int, tiny: bool) -> dict:
    return {
        "signal": {"coeffs": [0.5, 0.3, 0.2]},
        "noise": OU_IMPROVE,
        "n": 100,
        "M": 64 if tiny else 256,
        "reps": 40 if tiny else 2000,
        "seed": seed,
        "estimator": "improved",
        # d0 = ou_min_dimension(1.0) = 58; below it shrinkage is disabled.
        "shrinkage": {"d": 60},
    }


def _improve_calls(cfg: dict) -> dict:
    reps = cfg["reps"]
    return {"paths": reps, "noise.simulate": reps, "observe.estimate_fourier": reps,
            "observe.variance_proxy": 0, "select.select": 0}



WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep-mixed", command="efficiency-sweep", workers=2,
            make_config=_sweep_config, expected_calls=_sweep_calls,
        ),
        Workload(
            name="oracle-dense", command="oracle-check", workers=1,
            make_config=_oracle_config, expected_calls=_oracle_calls,
        ),
        Workload(
            name="improve-ou", command="improve-check", workers=2,
            make_config=_improve_config, expected_calls=_improve_calls,
        ),
    )
}


def generate(name: str, seed: int, tiny: bool = False) -> dict:
    """The config the program receives for workload `name` at benchmark seed `seed`."""
    return WORKLOADS[name].make_config(mc_seed(name, seed), tiny)
