"""End-to-end CLI behavior: validation, outputs, determinism."""

import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from semimartreg import cli
from semimartreg.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=1))
    return str(path)


def zero_noise_config(tmp_path, **extra):
    payload = {
        "signal": {"coeffs": [0.4, 0.3, -0.2]},
        "noise": {"family": "levy", "rho1": 0.0, "rho2": 0.0},
        "n": 4,
        "M": 64,
        "J": 8,
        "reps": 10,
        "seed": 5,
        **extra,
    }
    return write_config(tmp_path, "zero.json", payload)


def run(argv):
    return main(argv)


def csv_rows(path):
    # read raw bytes: text mode would fold the RFC-4180 \r\n line endings
    return path.read_bytes().decode("utf-8").strip().split("\r\n")


class TestSimulate:
    def test_zero_noise_integral(self, tmp_path):
        cfg = zero_noise_config(tmp_path)
        out = tmp_path / "out"
        assert run(["simulate", "--config", cfg, "--out-dir", str(out), "--workers", "1"]) == EXIT_OK
        rows = csv_rows(out / "path.csv")
        assert rows[0] == "t,dy,config_hash"
        total = sum(float(r.split(",")[1]) for r in rows[1:])
        # integral of S over [0, 4] is 4 * theta_1
        assert abs(total - 4 * 0.4) < 1e-8

    def test_record_has_provenance(self, tmp_path):
        cfg = zero_noise_config(tmp_path)
        out = tmp_path / "out"
        run(["simulate", "--config", cfg, "--out-dir", str(out), "--workers", "1"])
        record = json.loads((out / "simulate_record.json").read_text())
        assert record["command"] == "simulate"
        assert len(record["config_hash"]) == 64
        assert record["seed"] == 5
        assert "version" in record

    def test_json_format_embeds_table(self, tmp_path):
        cfg = zero_noise_config(tmp_path)
        out = tmp_path / "out"
        run(["simulate", "--config", cfg, "--out-dir", str(out), "--workers", "1",
             "--format", "json"])
        assert not (out / "path.csv").exists()
        record = json.loads((out / "simulate_record.json").read_text())
        assert record["tables"]["path"]["header"] == ["t", "dy", "config_hash"]


class TestDeterminism:
    def test_oracle_check_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, "oracle.json", {
            "signal": {"coeffs": [0.5, 0.2]},
            "noise": {"family": "levy", "rho1": 0.5, "rho2": 0.5},
            "n": 50,
            "M": 64,
            "J": 8,
            "reps": 25,
            "seed": 11,
            "delta": 0.05,
        })
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert run(["oracle-check", "--config", cfg, "--out-dir", str(out),
                        "--workers", "1"]) == EXIT_OK
            outs.append(out)
        rec_a = (outs[0] / "oracle_check_record.json").read_bytes()
        rec_b = (outs[1] / "oracle_check_record.json").read_bytes()
        assert rec_a == rec_b
        assert (outs[0] / "members.csv").read_bytes() == (outs[1] / "members.csv").read_bytes()

    def test_workers_do_not_change_bytes(self, tmp_path):
        cfg = write_config(tmp_path, "w.json", {
            "signal": {"coeffs": [0.4, 0.3]},
            "noise": {"family": "levy", "rho1": 0.7, "rho2": 0.5},
            "n": 20, "M": 64, "J": 6, "reps": 12, "seed": 5,
        })
        a, b = tmp_path / "w1", tmp_path / "w2"
        assert run(["estimate", "--config", cfg, "--out-dir", str(a), "--workers", "1"]) == EXIT_OK
        assert run(["estimate", "--config", cfg, "--out-dir", str(b), "--workers", "2"]) == EXIT_OK
        assert (a / "estimate_record.json").read_bytes() == (b / "estimate_record.json").read_bytes()

    def test_env_seed_overrides(self, tmp_path, monkeypatch):
        cfg = zero_noise_config(tmp_path)
        out1, out2 = tmp_path / "e1", tmp_path / "e2"
        monkeypatch.setenv("SEMIMART_SEED", "99")
        run(["simulate", "--config", cfg, "--out-dir", str(out1), "--workers", "1"])
        monkeypatch.delenv("SEMIMART_SEED")
        run(["simulate", "--config", cfg, "--seed", "99", "--out-dir", str(out2),
             "--workers", "1"])
        assert (out1 / "simulate_record.json").read_bytes() == (out2 / "simulate_record.json").read_bytes()


class TestEstimate:
    def test_projection_estimator(self, tmp_path):
        cfg = write_config(tmp_path, "proj.json", {
            "signal": {"coeffs": [0.0]},
            "noise": {"family": "levy", "rho1": 1.0, "rho2": 0.0},
            "n": 25, "M": 64, "J": 5, "reps": 200, "seed": 3,
            "estimator": {"projection": 5},
        })
        out = tmp_path / "out"
        assert run(["estimate", "--config", cfg, "--out-dir", str(out), "--workers", "1"]) == EXIT_OK
        record = json.loads((out / "estimate_record.json").read_text())
        risk = record["report"]["mean_risk"]
        se = record["report"]["std_error"]
        assert abs(risk - 5 / 25) <= 4 * se

    def test_selection_estimator_with_family(self, tmp_path):
        cfg = write_config(tmp_path, "sel.json", {
            "signal": {"sobolev": {"k": 1, "r": 1.0, "J": 8}},
            "noise_family": {
                "members": [
                    {"family": "levy", "rho1": 1.0, "rho2": 0.0},
                    {"family": "levy", "rho1": 0.6, "rho2": 0.8},
                ],
                "rho_lower": 0.36,
                "sigma_star": 1.0,
            },
            "n": 50, "M": 64, "J": 8, "reps": 20, "seed": 4,
            "sigma_source": {"known": 1.0},
        })
        out = tmp_path / "out"
        assert run(["estimate", "--config", cfg, "--out-dir", str(out), "--workers", "1"]) == EXIT_OK
        record = json.loads((out / "estimate_record.json").read_text())
        assert record["report"]["argmax_member"] in (0, 1)
        assert "selection_example" in record
        assert record["selection_example"]["sigma_hat"] == 1.0


class TestImproveCheck:
    def test_improve_check_runs(self, tmp_path):
        cfg = write_config(tmp_path, "imp.json", {
            "signal": {"coeffs": [0.5, 0.3, 0.2]},
            "noise": {"family": "levy", "rho1": 1.0, "rho2": 0.0},
            "n": 100, "M": 64, "J": 10, "reps": 200, "seed": 8,
            "estimator": "improved",
            "shrinkage": {"d": 10},
        })
        out = tmp_path / "out"
        assert run(["improve-check", "--config", cfg, "--out-dir", str(out),
                    "--workers", "1"]) == EXIT_OK
        record = json.loads((out / "improve_check_record.json").read_text())
        rep = record["report"]
        assert rep["improvement_bound"] < 0
        assert rep["delta_hat"] < 0

    def test_spec_without_brownian_part_keeps_a_tiny_budget(self, tmp_path):
        # a single spec with rho1 = 0 takes rho_lower = 1e-6: l* = (d-1) 1e-6
        n, d = 100, 4
        cfg = write_config(tmp_path, "jumps_only.json", {
            "signal": {"coeffs": [0.5, 0.3, 0.2]},
            "noise": {"family": "levy", "rho1": 0, "rho2": 1},
            "n": n, "M": 64, "reps": 4, "seed": 8,
            "estimator": "improved",
            "shrinkage": {"d": d},
        })
        out = tmp_path / "out"
        assert run(["improve-check", "--config", cfg, "--out-dir", str(out),
                    "--workers", "1"]) == EXIT_OK
        rep = json.loads((out / "improve_check_record.json").read_text())["report"]
        c_n = (d - 1) * 1e-6 / ((math.log(n + 1) + math.sqrt(d / n)) * n)
        assert rep["improvement_bound"] == pytest.approx(-c_n**2, rel=1e-12)


class TestEfficiencySweep:
    def test_three_rows_finite_ratio(self, tmp_path):
        cfg = write_config(tmp_path, "eff.json", {
            "signal": {"coeffs": [0.0]},
            "noise_family": {
                "members": [{"family": "levy", "rho1": 1.0, "rho2": 0.0}],
                "rho_lower": 0.9,
                "sigma_star": 1.0,
            },
            "n": 50, "M": 64, "reps": 25, "seed": 12,
            "efficiency": {"k": 1, "r": 1.0, "n_values": [40, 60, 90], "n_signals": 2},
        })
        out = tmp_path / "out"
        assert run(["efficiency-sweep", "--config", cfg, "--out-dir", str(out),
                    "--workers", "1"]) == EXIT_OK
        rows = csv_rows(out / "efficiency.csv")
        assert rows[0] == "n,estimator,risk,se,ratio,config_hash"
        assert len(rows) == 4
        for row in rows[1:]:
            ratio = float(row.split(",")[4])
            assert math.isfinite(ratio) and ratio > 0


class TestValidation:
    def test_missing_file(self, tmp_path, capsys):
        assert run(["simulate", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG
        assert "cannot read config" in capsys.readouterr().err

    def test_invalid_json_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{\n  "n": 10,\n  oops\n}\n')
        assert run(["simulate", "--config", str(bad)]) == EXIT_CONFIG
        assert "line 3" in capsys.readouterr().err

    def test_schema_violation_names_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bad2.json", {
            "signal": {"coeffs": [1.0]},
            "noise": {"family": "levy", "rho1": -1.0, "rho2": 0.0},
            "n": 10,
        })
        assert run(["simulate", "--config", cfg]) == EXIT_CONFIG
        assert "noise" in capsys.readouterr().err

    def test_delta_range_checked(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bad3.json", {
            "signal": {"coeffs": [1.0]},
            "noise": {"family": "levy", "rho1": 1.0, "rho2": 0.0},
            "n": 10, "delta": 0.5,
        })
        assert run(["oracle-check", "--config", cfg]) == EXIT_CONFIG
        assert "delta" in capsys.readouterr().err

    def test_runtime_error_exit_code(self, tmp_path, capsys):
        # signal norm above r* violates the improvement hypothesis at run time
        cfg = write_config(tmp_path, "runtime.json", {
            "signal": {"coeffs": [50.0]},
            "noise": {"family": "levy", "rho1": 1.0, "rho2": 0.0},
            "n": 20, "M": 64, "J": 10, "reps": 10, "seed": 1,
            "shrinkage": {"d": 5},
        })
        assert run(["improve-check", "--config", cfg, "--workers", "1",
                    "--out-dir", str(tmp_path / "o")]) == EXIT_RUNTIME
        assert "r_star" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("noise", 5),
        ("noise_family", {"members": 5, "rho_lower": 0.5, "sigma_star": 1.0}),
        ("noise_family", {"members": [5], "rho_lower": 0.5, "sigma_star": 1.0}),
        ("noise", {"family": "semimarkov", "rho1": 1.0, "rho2": 0.0, "rho_check": 0.5,
                   "tau_dist": 5}),
        ("signal", {"sobolev": 1}),
        ("signal", {"sobolev": {"k": "x", "r": 1.0}}),
        ("reps", float("nan")),
        ("efficiency", {"k": 1, "r": 1.0, "n_values": [10, 20], "n_signals": "3"}),
        # an OU spec driven by anything but a Levy spec
        ("noise", {"family": "ou", "a": -0.5, "a_max": 1.0,
                   "driving": {"family": "semimarkov", "rho1": 0.8, "rho2": 0.42,
                               "rho_check": 0.5, "tau_dist": {"kind": "exponential",
                                                              "mean": 0.5}}}),
        ("noise", {"family": "ou", "a": -0.5, "a_max": 1.0,
                   "driving": {"family": "ou", "a": -0.5, "a_max": 1.0,
                               "driving": {"family": "levy", "rho1": 0.8, "rho2": 0.6}}}),
        # out of range, which a run would only meet mid-command
        ("efficiency", {"k": 1, "r": 0, "n_values": [10, 20]}),
        ("shrinkage", {"d": 0}),
        ("shrinkage", {"r_star": 0}),
    ])
    def test_wrongly_shaped_config_is_a_config_error(self, tmp_path, capsys, field, value):
        cfg = write_config(tmp_path, "shape.json", {
            "signal": {"coeffs": [1.0]},
            "noise": {"family": "levy", "rho1": 1.0, "rho2": 0.0},
            "n": 10,
            field: value,
        })
        assert run(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config field '{field}" in err
        assert err.count("config field") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("field, extra", [
        ("J", {"J": 60}),
        ("estimator.projection", {"J": 8, "estimator": {"projection": 40}}),
    ])
    def test_aliased_frequency_is_a_config_error(self, tmp_path, capsys, field, extra):
        # on M = 32 cell midpoints, frequency 30 of J = 60 reads as frequency 2
        cfg = write_config(tmp_path, "alias.json", {
            "signal": {"coeffs": [1.0]},
            "noise": {"family": "levy", "rho1": 1.0, "rho2": 0.0},
            "n": 100, "M": 32, **extra,
        })
        assert run(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config field '{field}'" in err
        assert "2*(J//2) < M" in err

    @pytest.mark.parametrize("exc", [TypeError("bad operand"), KeyError("missing")])
    def test_unexpected_handler_error_exit_code(self, tmp_path, capsys, monkeypatch, exc):
        def handler(*args):
            raise exc

        monkeypatch.setitem(cli.HANDLERS, "simulate", handler)
        cfg = zero_noise_config(tmp_path)
        assert run(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == EXIT_RUNTIME
        assert capsys.readouterr().err.startswith(f"runtime error: {type(exc).__name__}")

    def test_unknown_family(self, tmp_path):
        cfg = write_config(tmp_path, "bad4.json", {
            "signal": {"coeffs": [1.0]},
            "noise": {"family": "stable", "rho1": 1.0, "rho2": 0.0},
            "n": 10,
        })
        assert run(["simulate", "--config", cfg]) == EXIT_CONFIG

    def test_efficiency_requires_family(self, tmp_path):
        cfg = write_config(tmp_path, "bad5.json", {
            "signal": {"coeffs": [1.0]},
            "noise": {"family": "levy", "rho1": 1.0, "rho2": 0.0},
            "n": 10,
            "efficiency": {"k": 1, "r": 1.0, "n_values": [10, 20]},
        })
        assert run(["efficiency-sweep", "--config", cfg,
                    "--out-dir", str(tmp_path / "o")]) == EXIT_CONFIG


class TestProxyCeiling:
    """The estimated proxy reads J = n coefficients off the M cell midpoints,
    so it needs 2*(n//2) < M; n = 100 on M = 64 breaks that."""

    def config(self, tmp_path, **extra):
        """The config with extra fields; a field set to None is left out."""
        payload = {
            "signal": {"coeffs": [0.5, 0.3, 0.2]},
            "noise": {"family": "levy", "rho1": 1.0, "rho2": 0.0},
            "n": 100, "M": 64, "J": 10, "reps": 4, "seed": 8, **extra,
        }
        return write_config(tmp_path, "proxy.json",
                            {k: v for k, v in payload.items() if v is not None})

    @staticmethod
    def forbid_replicates(monkeypatch):
        from semimartreg import risk

        def no_replicates(*args, **kwargs):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr(risk, "_map_reps", no_replicates)

    @pytest.mark.parametrize("command", ["oracle-check", "estimate"])
    @pytest.mark.parametrize("estimator", ["selection", "improved"])
    def test_rejected_before_any_replicate(self, tmp_path, capsys, monkeypatch, command,
                                           estimator):
        self.forbid_replicates(monkeypatch)
        cfg = self.config(tmp_path, estimator=estimator)
        assert run([command, "--config", cfg, "--workers", "1",
                    "--out-dir", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "config field 'M'" in capsys.readouterr().err

    def test_known_sigma_needs_no_proxy(self, tmp_path):
        cfg = self.config(tmp_path, sigma_source={"known": 1.0})
        assert run(["oracle-check", "--config", cfg, "--workers", "1",
                    "--out-dir", str(tmp_path / "o")]) == EXIT_OK

    def test_known_sigma_without_J_reads_the_grid_width(self, tmp_path):
        # the selection reads max(width, d) estimates, not J = n
        cfg = self.config(tmp_path, J=None, sigma_source={"known": 1.0})
        assert run(["oracle-check", "--config", cfg, "--workers", "1",
                    "--out-dir", str(tmp_path / "o")]) == EXIT_OK

    def test_known_sigma_selection_memory_does_not_grow_with_n(self, tmp_path):
        # a (nu, n) weight array would take over 100 MB at n = 40000
        cfg = self.config(tmp_path, J=None, n=40000, M=40002, reps=2,
                          sigma_source={"known": 1.0})
        tracemalloc.start()
        try:
            assert run(["oracle-check", "--config", cfg, "--workers", "1",
                        "--out-dir", str(tmp_path / "o")]) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    @staticmethod
    def improve_config(tmp_path, d):
        return write_config(tmp_path, "improve.json", {
            "signal": {"coeffs": [0.5, 0.3, 0.2]},
            "noise": {"family": "ou", "a": -0.5, "a_max": 1.0,
                      "driving": {"family": "levy", "rho1": 1.0, "rho2": 0.5}},
            "n": 100, "M": 64, "reps": 4, "seed": 8,
            "estimator": "improved", "shrinkage": {"d": d},
        })

    def test_improve_check_needs_no_proxy(self, tmp_path):
        # the small OU improvement config: d = 60 coefficients on M = 64
        cfg = self.improve_config(tmp_path, 60)
        assert run(["improve-check", "--config", cfg, "--workers", "1",
                    "--out-dir", str(tmp_path / "o")]) == EXIT_OK

    def test_improve_check_head_rejected_before_any_replicate(self, tmp_path, capsys,
                                                              monkeypatch):
        # d = 70 shrunk coefficients reach frequency 35 >= M/2 = 32
        self.forbid_replicates(monkeypatch)
        cfg = self.improve_config(tmp_path, 70)
        assert run(["improve-check", "--config", cfg, "--workers", "1",
                    "--out-dir", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "config field 'M'" in capsys.readouterr().err


@pytest.mark.parametrize("improved", [False, True])
def test_selection_parts_do_not_read_J(improved):
    base = {
        "signal": {"coeffs": [0.5, 0.3, 0.2]},
        "noise": {"family": "levy", "rho1": 1.0, "rho2": 0.5},
        "n": 100, "M": 256,
    }
    plain = cli._selection_parts(cli.validate_config(base, "hash"), improved)
    with_J = cli._selection_parts(cli.validate_config({**base, "J": 16}, "hash"), improved)
    assert (plain.config, plain.shrink_cfg, plain.J) == (with_J.config, with_J.shrink_cfg,
                                                         with_J.J)
    np.testing.assert_array_equal(plain.grid.lam, with_J.grid.lam)


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def run_fresh(probe: str, **environ) -> str:
    """Stdout of probe in a fresh interpreter that finds the package, with
    the BLAS thread variables unset unless environ sets them."""
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", probe], env={**env, **environ},
                         capture_output=True, text=True, check=True, timeout=120)
    return out.stdout.strip()


def modules_after_cli_import(package: str) -> str:
    """The modules of package loaded by a fresh `import semimartreg.cli`."""
    return run_fresh("import sys, semimartreg.cli; "
                     f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))")


# the thread variables and the OS threads (-1 without /proc) after a fresh import
THREADS_PROBE = ("import os, semimartreg; "
                 f"print(*(os.environ.get(v) for v in {BLAS_THREAD_VARS!r}), "
                 "len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else -1)")


def test_import_pins_blas_to_one_thread():
    # parallelism comes from the process pool alone
    openblas, omp, threads = run_fresh(THREADS_PROBE).split()
    assert (openblas, omp) == ("1", "1")
    if threads == "-1":
        pytest.skip("no /proc/self/task to count threads in")
    assert threads == "1"


def test_import_keeps_a_blas_thread_count_the_user_set():
    openblas, omp, _ = run_fresh(THREADS_PROBE, OPENBLAS_NUM_THREADS="2").split()
    assert (openblas, omp) == ("2", "1")


def test_default_workers_count_usable_cpus(monkeypatch):
    # under taskset or a cpuset the process may use fewer CPUs than the host has
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert cli.build_parser().get_default("workers") == 1


def test_cli_import_loads_no_scipy():
    # the package depends on numpy alone; every launch pays for its imports
    assert modules_after_cli_import("scipy") == "[]"


def test_cli_import_loads_no_multiprocessing():
    # the process pool is imported by the runs that use one
    assert modules_after_cli_import("multiprocessing") == "[]"
