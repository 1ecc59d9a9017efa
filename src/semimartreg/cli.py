"""Configuration-driven experiment runner.

Commands map onto the report operations: `simulate` writes one observation
path, `estimate` runs a Monte Carlo (or robust) risk estimate, `oracle-check`
runs the oracle-inequality report, `improve-check` the paired shrinkage
comparison, and `efficiency-sweep` the normalized-risk sweep.

Every output embeds the sha256 of the config file and the effective seed;
outputs carry no timestamps, so a rerun with the same config and seed is
byte-identical.  Exit codes: 0 success, 2 configuration/validation error,
3 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import __version__
from .noise import (
    LevySpec,
    NoiseSpec,
    OuSpec,
    RobustFamily,
    SemiMarkovSpec,
    TauDist,
    derive_rng,
    nominal_sigma,
    simulate,
)
from .observe import ObservationPath, aliased, estimate_fourier, signal_increments
from .risk import (
    ProjectionPipeline,
    SelectionPipeline,
    _observe_rep,
    _rep_setup,
    efficiency_sweep,
    improvement_report,
    monte_carlo_risk,
    oracle_report,
    robust_risk,
)
from .risk import build_grid_for  # noqa: F401  (traced by name; see risk's aliases)
from .signal import Signal, SobolevBallSpec, sample_sobolev

COMMANDS = ("simulate", "estimate", "oracle-check", "improve-check", "efficiency-sweep")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


class ConfigError(Exception):
    """Configuration file is syntactically or semantically invalid.

    Not a ValueError, so the handlers that turn a constructor's ValueError
    into a field message pass an already named field through unchanged.
    """


def _fail(path: str, message: str) -> "ConfigError":
    return ConfigError(f"config field '{path}': {message}")


def _get(d: dict, key: str, path: str, required: bool = True, default=None):
    if not isinstance(d, dict):
        raise _fail(path, f"expected an object, got {d!r}")
    if key not in d:
        if required:
            raise _fail(f"{path}.{key}" if path else key, "missing")
        return default
    return d[key]


def _num(value, path: str, *, lo=None, hi=None, integer=False, positive=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(path, f"expected a number, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise _fail(path, f"expected a finite number, got {value!r}")
    if integer and int(value) != value:
        raise _fail(path, f"expected an integer, got {value!r}")
    if lo is not None and value < lo:
        raise _fail(path, f"must be >= {lo}, got {value!r}")
    if positive and not value > 0:
        raise _fail(path, f"must be > 0, got {value!r}")
    if hi is not None and value > hi:
        raise _fail(path, f"must be <= {hi}, got {value!r}")
    return int(value) if integer else float(value)


def parse_noise_spec(d: dict, path: str) -> NoiseSpec:
    family = _get(d, "family", path)
    try:
        if family == "levy":
            return LevySpec(
                rho1=_num(_get(d, "rho1", path), f"{path}.rho1", lo=0),
                rho2=_num(_get(d, "rho2", path), f"{path}.rho2", lo=0),
                jump_intensity=_num(d.get("jump_intensity", 1.0), f"{path}.jump_intensity"),
                jump_dist=d.get("jump_dist", "normalized_gaussian"),
            )
        if family == "ou":
            return OuSpec(
                a=_num(_get(d, "a", path), f"{path}.a"),
                a_max=_num(_get(d, "a_max", path), f"{path}.a_max"),
                driving=parse_noise_spec(_get(d, "driving", path), f"{path}.driving"),
            )
        if family == "semimarkov":
            tau = _get(d, "tau_dist", path)
            kind = _get(tau, "kind", f"{path}.tau_dist")
            if kind == "exponential":
                tau_dist = TauDist.exponential(
                    _num(_get(tau, "mean", f"{path}.tau_dist"), f"{path}.tau_dist.mean")
                )
            elif kind == "uniform":
                tau_dist = TauDist.uniform(
                    _num(_get(tau, "lo", f"{path}.tau_dist"), f"{path}.tau_dist.lo"),
                    _num(_get(tau, "hi", f"{path}.tau_dist"), f"{path}.tau_dist.hi"),
                )
            else:
                raise _fail(f"{path}.tau_dist.kind", f"unknown kind {kind!r}")
            return SemiMarkovSpec(
                rho1=_num(_get(d, "rho1", path), f"{path}.rho1", lo=0),
                rho2=_num(_get(d, "rho2", path), f"{path}.rho2", lo=0),
                rho_check=_num(_get(d, "rho_check", path), f"{path}.rho_check", lo=0, hi=1),
                tau_dist=tau_dist,
                y_dist=d.get("y_dist", "rademacher"),
            )
    except ValueError as exc:
        raise _fail(path, str(exc)) from exc
    raise _fail(f"{path}.family", f"unknown family {family!r}")


@dataclass
class ExperimentConfig:
    """Validated experiment description; see README for the JSON schema."""

    signal: Signal
    noise: Optional[NoiseSpec]
    family: Optional[RobustFamily]
    n: int
    M: int
    J: int
    delta: float
    sigma_known: Optional[float]
    estimator: str
    projection_m: int
    shrinkage_overrides: dict
    reps: int
    seed: int
    efficiency: dict
    config_hash: str

    def primary_noise(self) -> NoiseSpec:
        if self.noise is not None:
            return self.noise
        return self.family.members[0]


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    try:
        data = json.loads(raw.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path!r} is not valid JSON: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path!r} is not UTF-8 text: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    return validate_config(data, hashlib.sha256(raw).hexdigest())


def validate_config(data: dict, config_hash: str) -> ExperimentConfig:
    n = _num(_get(data, "n", ""), "n", lo=1, integer=True)
    M = _num(data.get("M", 256), "M", lo=16, integer=True)
    J = _num(data.get("J", n), "J", lo=1, integer=True)
    delta = _num(data.get("delta", 0.05), "delta")
    if not (0 < delta < 1 / 3):
        raise _fail("delta", f"must lie in (0, 1/3), got {delta}")
    reps = _num(data.get("reps", 500), "reps", lo=2, integer=True)
    seed = _num(data.get("seed", 0), "seed", lo=0, integer=True)

    sig = _get(data, "signal", "")
    if not isinstance(sig, dict):
        raise _fail("signal", "must be an object")
    if "coeffs" in sig:
        try:
            signal = Signal(np.asarray(sig["coeffs"], dtype=np.float64))
        except (ValueError, TypeError) as exc:
            raise _fail("signal.coeffs", str(exc)) from exc
    elif "sobolev" in sig:
        sb = sig["sobolev"]
        try:
            spec = SobolevBallSpec(
                k=_num(_get(sb, "k", "signal.sobolev"), "signal.sobolev.k", lo=1, integer=True),
                r=_num(_get(sb, "r", "signal.sobolev"), "signal.sobolev.r", lo=0),
            )
        except ValueError as exc:
            raise _fail("signal.sobolev", str(exc)) from exc
        j_sig = _num(sb.get("J", 16), "signal.sobolev.J", lo=2, integer=True)
        signal = sample_sobolev(spec, j_sig, derive_rng(seed, 77))
    else:
        raise _fail("signal", "needs either 'coeffs' or 'sobolev'")

    noise = None
    family = None
    if "noise" in data:
        noise = parse_noise_spec(data["noise"], "noise")
    if "noise_family" in data:
        fam = data["noise_family"]
        specs = _get(fam, "members", "noise_family")
        if not isinstance(specs, list):
            raise _fail("noise_family.members", f"expected a list, got {specs!r}")
        members = tuple(
            parse_noise_spec(m, f"noise_family.members[{i}]") for i, m in enumerate(specs)
        )
        try:
            family = RobustFamily(
                members=members,
                rho_lower=_num(_get(fam, "rho_lower", "noise_family"), "noise_family.rho_lower"),
                sigma_star=_num(_get(fam, "sigma_star", "noise_family"), "noise_family.sigma_star"),
                a_max=_num(fam.get("a_max", 1.0), "noise_family.a_max"),
            )
        except ValueError as exc:
            raise _fail("noise_family", str(exc)) from exc
    if noise is None and family is None:
        raise _fail("noise", "config needs 'noise' or 'noise_family'")

    sigma_source = data.get("sigma_source", "estimated")
    if sigma_source == "estimated":
        sigma_known = None
    elif isinstance(sigma_source, dict) and "known" in sigma_source:
        sigma_known = _num(sigma_source["known"], "sigma_source.known", lo=0)
    else:
        raise _fail("sigma_source", "must be 'estimated' or {'known': value}")

    estimator = data.get("estimator", "selection")
    projection_m = 1
    if isinstance(estimator, dict) and "projection" in estimator:
        projection_m = _num(estimator["projection"], "estimator.projection", lo=1, integer=True)
        estimator = "projection"
    elif estimator not in ("selection", "improved"):
        raise _fail("estimator", "must be 'selection', 'improved' or {'projection': m}")

    shrink_conf = data.get("shrinkage", {})
    if not isinstance(shrink_conf, dict):
        raise _fail("shrinkage", "must be an object")
    overrides = {}
    for key, bounds in (("d", {"lo": 1, "integer": True}), ("r_star", {"positive": True}),
                        ("l_star", {"lo": 0})):
        if shrink_conf.get(key) is not None:
            overrides[key] = _num(shrink_conf[key], f"shrinkage.{key}", **bounds)

    efficiency = data.get("efficiency", {})
    if efficiency:
        _num(_get(efficiency, "k", "efficiency"), "efficiency.k", lo=1, integer=True)
        _num(_get(efficiency, "r", "efficiency"), "efficiency.r", positive=True)
        values = _get(efficiency, "n_values", "efficiency")
        if not isinstance(values, list) or not values:
            raise _fail("efficiency.n_values", "must be a nonempty list")
        prev = 1
        for i, v in enumerate(values):
            v = _num(v, f"efficiency.n_values[{i}]", lo=2, integer=True)
            if v <= prev and i > 0:
                raise _fail("efficiency.n_values", "must be strictly increasing")
            prev = v
        _num(efficiency.get("n_signals", 3), "efficiency.n_signals", lo=0, integer=True)

    # J, read by simulate alone, defaults to n, which simulate checks
    # against M itself (see _check_ceiling)
    if "J" in data:
        _check_ceiling(J, M, "J")
    if estimator == "projection":
        _check_ceiling(projection_m, M, "estimator.projection")

    return ExperimentConfig(
        signal=signal,
        noise=noise,
        family=family,
        n=n,
        M=M,
        J=J,
        delta=delta,
        sigma_known=sigma_known,
        estimator=estimator,
        projection_m=projection_m,
        shrinkage_overrides=overrides,
        reps=reps,
        seed=seed,
        efficiency=efficiency,
        config_hash=config_hash,
    )


def _check_ceiling(J: int, M: int, field: str) -> None:
    """Reject estimating J coefficients where they alias on M midpoints.

    validate_config checks the J and m the config gives; a command checks
    the count it reads (simulate's J, the selection's estimates, the shrunk
    head d) before any replicate and names field M, the one that must grow."""
    if aliased(J, M):
        raise _fail(field, f"estimating J={J} coefficients needs 2*(J//2) < M, got M={M}")


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _provenance(cfg: ExperimentConfig, command: str) -> dict:
    return {
        "command": command,
        "config_hash": cfg.config_hash,
        "seed": cfg.seed,
        "version": __version__,
    }


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _fmt(x) -> str:
    return repr(x) if isinstance(x, float) else str(x)


def _emit_tables(record: dict, tables: list, out_dir: str, fmt: str) -> None:
    """Write tables as RFC-4180 CSV files or embed them in the run record."""
    record["outputs"] = {}
    for name, header, rows in tables:
        if fmt == "csv":
            path = os.path.join(out_dir, f"{name}.csv")
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\r\n")
                writer.writerow(header)
                for row in rows:
                    writer.writerow([_fmt(x) for x in row])
            record["outputs"][name] = f"{name}.csv"
        else:
            record.setdefault("tables", {})[name] = {"header": header, "rows": rows}
            record["outputs"][name] = "embedded"


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------


def _robustness_bounds(cfg: ExperimentConfig):
    """(sigma_star, rho_lower, a_max) from the family, or nominal values of
    the single configured spec.

    A single spec gives rho_lower = rho1^2, or 1e-6 when rho1 = 0: a spec
    without a Brownian part has no lower bound of its own, and the tiny
    positive value keeps a valid, nearly zero shrinkage budget c_n rather
    than rejecting the config."""
    if cfg.family is not None:
        return cfg.family.sigma_star, cfg.family.rho_lower, cfg.family.a_max
    spec = cfg.noise
    sigma_star = nominal_sigma(spec)
    rho_lower = spec.rho1**2 if spec.rho1 > 0 else 1e-6
    a_max = spec.a_max if isinstance(spec, OuSpec) else 1.0
    return sigma_star, rho_lower, a_max


def _selection_parts(cfg: ExperimentConfig, improved: bool) -> SelectionPipeline:
    """The selector of cfg, shrinking the head when improved."""
    sigma_star, rho_lower, a_max = _robustness_bounds(cfg)
    if not sigma_star > 0:
        raise ConfigError("config field 'noise': nominal proxy variance must be > 0 "
                          "for selection experiments")
    return SelectionPipeline.build(
        cfg.n, sigma_star, cfg.delta, sigma_known=cfg.sigma_known,
        noise_kind=cfg.primary_noise().family if improved else None,
        rho_lower=rho_lower, a_max=a_max, **cfg.shrinkage_overrides,
    )


def cmd_simulate(cfg: ExperimentConfig, out_dir: str, fmt: str, workers: int) -> dict:
    """The full path of replicate 0 cell by cell, and the estimates from its fold."""
    _check_ceiling(cfg.J, cfg.M, "M")
    rng = derive_rng(cfg.seed, 0)
    noise = simulate(cfg.primary_noise(), cfg.n, cfg.M, rng, fold=False)
    dy = signal_increments(cfg.signal, cfg.n, cfg.M) + noise.increments
    folded = ObservationPath(dy.reshape(cfg.n, cfg.M).sum(axis=0), cfg.n, cfg.M)
    theta = estimate_fourier(folded, cfg.J)
    record = {
        **_provenance(cfg, "simulate"),
        "n": cfg.n,
        "M": cfg.M,
        "total_increment": float(np.sum(dy)),
        "theta_hat": theta.theta_hat.tolist(),
    }
    rows = [[(i + 0.5) / cfg.M, float(x), cfg.config_hash[:16]]
            for i, x in enumerate(dy)]
    _emit_tables(record, [("path", ["t", "dy", "config_hash"], rows)], out_dir, fmt)
    return record


def cmd_estimate(cfg: ExperimentConfig, out_dir: str, fmt: str, workers: int) -> dict:
    if cfg.estimator == "projection":
        pipeline = ProjectionPipeline(m=cfg.projection_m)
    else:
        pipeline = _selection_parts(cfg, improved=cfg.estimator == "improved")
        _check_ceiling(pipeline.estimates_read, cfg.M, "M")
    if cfg.family is not None:
        report = robust_risk(cfg.signal, cfg.family, pipeline, cfg.reps, cfg.seed,
                             n=cfg.n, M=cfg.M, workers=workers, estimator_id=cfg.estimator)
    else:
        report = monte_carlo_risk(cfg.signal, cfg.noise, pipeline, cfg.reps, cfg.seed,
                                  n=cfg.n, M=cfg.M, workers=workers, estimator_id=cfg.estimator)
    record = {**_provenance(cfg, "estimate"), "report": report.to_dict()}
    if isinstance(pipeline, SelectionPipeline):
        record["selection_example"] = _example_selection(cfg, pipeline)
    rows = [[cfg.n, report.estimator_id, report.mean_risk, report.std_error,
             cfg.config_hash[:16]]]
    _emit_tables(record, [("risk", ["n", "estimator", "risk", "se", "config_hash"], rows)],
                 out_dir, fmt)
    return record


def _example_selection(cfg: ExperimentConfig, pipeline: SelectionPipeline) -> dict:
    """Selection diagnostics on replication 0 of the first member, for the
    run record."""
    setup = _rep_setup((cfg.signal,), (cfg.primary_noise(),), cfg.seed, cfg.n, cfg.M)
    res = pipeline.select(_observe_rep(setup, 0, 0, 0))
    shrink_cfg = pipeline.shrink_cfg
    return {
        "alpha": list(res.weights.alpha),
        "omega": res.weights.omega,
        "d": res.weights.d,
        "lambda": res.weights.lam.tolist(),
        "c_n": 0.0 if shrink_cfg is None else shrink_cfg.c_n,
        "d_shrink": None if shrink_cfg is None else shrink_cfg.d,
        "sigma_hat": res.sigma_hat,
        "degenerate_shrinkage": res.degenerate_shrinkage,
    }


def cmd_oracle_check(cfg: ExperimentConfig, out_dir: str, fmt: str, workers: int) -> dict:
    pipeline = _selection_parts(cfg, improved=cfg.estimator == "improved")
    _check_ceiling(pipeline.estimates_read, cfg.M, "M")
    report = oracle_report(cfg.signal, cfg.primary_noise(), pipeline.grid, pipeline.config,
                           cfg.reps, cfg.seed, n=cfg.n, M=cfg.M,
                           shrink_cfg=pipeline.shrink_cfg, workers=workers)
    record = {**_provenance(cfg, "oracle-check"), "report": report.to_dict()}
    rows = [[i, r, s, cfg.config_hash[:16]]
            for i, (r, s) in enumerate(zip(report.member_risks, report.member_std_errors))]
    _emit_tables(record, [("members", ["member", "risk", "se", "config_hash"], rows)],
                 out_dir, fmt)
    return record


def cmd_improve_check(cfg: ExperimentConfig, out_dir: str, fmt: str, workers: int) -> dict:
    shrink_cfg = _selection_parts(cfg, improved=True).shrink_cfg
    _check_ceiling(shrink_cfg.d, cfg.M, "M")
    lam = np.ones(shrink_cfg.d)
    report = improvement_report(cfg.signal, cfg.primary_noise(), lam, shrink_cfg,
                                cfg.reps, cfg.seed, n=cfg.n, M=cfg.M, workers=workers)
    record = {**_provenance(cfg, "improve-check"), "report": report.to_dict()}
    rows = [[cfg.n, report.delta_hat, report.delta_se, report.improvement_bound,
             cfg.config_hash[:16]]]
    _emit_tables(record,
                 [("improvement", ["n", "delta_hat", "se", "bound", "config_hash"], rows)],
                 out_dir, fmt)
    return record


def cmd_efficiency_sweep(cfg: ExperimentConfig, out_dir: str, fmt: str, workers: int) -> dict:
    if not cfg.efficiency:
        raise ConfigError("config field 'efficiency': missing")
    if cfg.family is None:
        raise ConfigError("config field 'noise_family': efficiency sweep needs a family")
    eff = cfg.efficiency
    report = efficiency_sweep(
        int(eff["k"]), float(eff["r"]), cfg.family,
        [int(v) for v in eff["n_values"]],
        cfg.reps, cfg.seed, M=cfg.M,
        n_signals=int(eff.get("n_signals", 3)),
        delta=cfg.delta, workers=workers,
    )
    record = {**_provenance(cfg, "efficiency-sweep"), "report": report.to_dict()}
    rows = [[row.n, report.estimator_id, row.sup_risk, row.sup_se, row.ratio,
             cfg.config_hash[:16]] for row in report.rows]
    _emit_tables(record,
                 [("efficiency", ["n", "estimator", "risk", "se", "ratio", "config_hash"], rows)],
                 out_dir, fmt)
    return record


HANDLERS = {
    "simulate": cmd_simulate,
    "estimate": cmd_estimate,
    "oracle-check": cmd_oracle_check,
    "improve-check": cmd_improve_check,
    "efficiency-sweep": cmd_efficiency_sweep,
}


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS keeps
    one (taskset, cpusets), else every CPU of the host."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semimartreg",
        description="Experiment runner for robust adaptive signal estimation",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--reps", type=int, default=None, help="override the replication count")
    parser.add_argument("--out-dir", default="out", help="output directory")
    parser.add_argument("--workers", type=int, default=_usable_cpus())
    parser.add_argument("--format", choices=("json", "csv"), default="csv",
                        help="table format (the JSON run record is always written)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.reps is not None:
            if args.reps < 2:
                raise ConfigError("--reps must be >= 2")
            cfg.reps = args.reps
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("--seed must be >= 0")
            cfg.seed = args.seed
        env_seed = os.environ.get("SEMIMART_SEED")
        if env_seed is not None:
            try:
                cfg.seed = int(env_seed)
            except ValueError as exc:
                raise ConfigError(f"SEMIMART_SEED must be an integer, got {env_seed!r}") from exc
        os.makedirs(args.out_dir, exist_ok=True)
        record = HANDLERS[args.command](cfg, args.out_dir, args.format, max(1, args.workers))
        record_path = os.path.join(args.out_dir, f"{args.command.replace('-', '_')}_record.json")
        _write_json(record_path, record)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # every other failure keeps the documented exit code 3
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print(record_path)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
