"""Tests of the benchmark itself.

Every workload runs at tiny size and must print every metric with its unit
and pass its checks; every output check must fail on a record corrupted for
it; and the benchmark must refuse to run without the program's sources.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench_checks as checks
import run
from bench_workloads import SOBOLEV_K1_J16, WORKLOADS, generate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TINY_REFERENCE = json.loads((BENCH / "reference.json").read_text())["tiny"]


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "mcbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_what_the_harness_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_seed_moves_only_the_master_seed():
    for name in WORKLOADS:
        a, b = generate(name, 1), generate(name, 2)
        assert a == generate(name, 1)
        assert a["seed"] != b["seed"]
        assert dict(a, seed=0) == dict(b, seed=0)


def test_oracle_signal_is_the_shipped_sobolev_sample():
    sys.path.insert(0, str(ROOT / "src"))
    from semimartreg import SobolevBallSpec, derive_rng, sample_sobolev

    signal = sample_sobolev(SobolevBallSpec(1, 1.0), 16, derive_rng(2024, 77))
    assert tuple(float(x) for x in signal.coeffs) == SOBOLEV_K1_J16


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_traced_run_prints_every_metric(name):
    proc = _bench("--workload", name, "--seed", "7", "--seconds", "0", "--trace", "1", "--tiny")
    result = _result(proc)
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 5
    assert list(result["metrics"]) == list(run.PER_LAYER)
    for metric, unit in run.PER_LAYER.items():
        entry = result["metrics"][metric]
        assert entry["unit"] == unit and math.isfinite(entry["value"]), metric
    # the human-readable table also carries the untraced end-to-end figures
    table = proc.stdout.splitlines()[:-1]
    for metric, unit in {**run.END_TO_END, **run.PER_LAYER}.items():
        assert any(line.split()[:1] == [metric] and line.split()[2] == unit
                   for line in table), metric
    expected = WORKLOADS[name].expected_calls(generate(name, 7, tiny=True))
    assert result["metrics"]["select.calls"]["value"] == expected["select.select"]


def test_tiny_untraced_run_prints_end_to_end_metrics():
    result = _result(_bench("--workload", "improve-ou", "--seed", "7", "--seconds", "0",
                            "--trace", "0", "--tiny"))
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == list(run.END_TO_END)
    for metric, unit in run.END_TO_END.items():
        entry = result["metrics"][metric]
        assert entry["unit"] == unit and entry["value"] > 0, metric


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "mcbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _bench("--workload", "improve-ou", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# every gate can fail
# ---------------------------------------------------------------------------


def _clean(name):
    """A config and a minimal record that reports exactly the tiny reference."""
    config = generate(name, 7, tiny=True)
    ref = {label: checks.from_check_scale(label, center)
           for label, (center, _) in TINY_REFERENCE[name].items()}
    if name == "sweep-mixed":
        rows = [{"n": n, "sup_risk": ref[f"sup_risk[n={n}]"], "sup_se": 1e-3, "ratio": 1.5,
                 "normalized": 0.6} for n in config["efficiency"]["n_values"]]
        return config, {"report": {"rows": rows}}
    report = {"mean_risk": ref["mean_risk"], "std_error": 1e-3}
    if name == "oracle-dense":
        members = len(ref) - 1
        n = config["n"]
        report.update(member_risks=[ref[f"member_risks[{i}]"] for i in range(members)],
                      member_std_errors=[1e-3] * members,
                      sigma_hat_mean=(n - math.isqrt(n)) / n)
    else:
        report.update(delta_hat=ref["delta_hat"], delta_se=1e-4, improvement_bound=-0.002,
                      identity_max_dev=1e-15)
    return config, {"report": report}


def _biased(name, label, k=6.0):
    """The reference value moved by k reference standard errors on its check scale."""
    center, se = TINY_REFERENCE[name][label]
    return checks.from_check_scale(label, center + k * se)


CORRUPTIONS = {
    "sweep risk biased": ("sweep-mixed", "standard errors from the reference",
                          lambda r: r["rows"][0].update(
                              sup_risk=_biased("sweep-mixed", "sup_risk[n=50]"))),
    "sweep row missing": ("sweep-mixed", "!= n_values", lambda r: r["rows"].pop()),
    "sweep row not finite": ("sweep-mixed", "is not finite",
                             lambda r: r["rows"][1].update(ratio=math.inf)),
    "oracle member biased": ("oracle-dense", "member_risks[3]=",
                             lambda r: r["member_risks"].__setitem__(
                                 3, _biased("oracle-dense", "member_risks[3]", -6.0))),
    "oracle risk not positive": ("oracle-dense", "mean_risk=",
                                 lambda r: r.update(mean_risk=0.0)),
    "oracle member missing": ("oracle-dense", "do not match the reference labels",
                              lambda r: r["member_risks"].pop()),
    "oracle proxy off": ("oracle-dense", "sigma_hat_mean=",
                         lambda r: r.update(sigma_hat_mean=r["sigma_hat_mean"] + 0.06)),
    "improve identity broken": ("improve-ou", "identity_max_dev=",
                                lambda r: r.update(identity_max_dev=1e-8)),
    "improve above bound": ("improve-ou", "exceeds improvement_bound",
                            lambda r: r.update(delta_se=1e-6, improvement_bound=-0.2)),
    "improve risk biased": ("improve-ou", "mean_risk=",
                            lambda r: r.update(mean_risk=_biased("improve-ou", "mean_risk"))),
    "improve gain biased": ("improve-ou", "delta_hat=",
                            lambda r: r.update(delta_hat=_biased("improve-ou", "delta_hat"))),
}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_clean_record_passes(name):
    config, record = _clean(name)
    assert checks.check_record(name, config, record, TINY_REFERENCE[name]) == []


@pytest.mark.parametrize("case", list(CORRUPTIONS))
def test_corrupted_record_fails(case):
    name, message, corrupt = CORRUPTIONS[case]
    config, record = _clean(name)
    bad = copy.deepcopy(record)
    corrupt(bad["report"])
    failures = checks.check_record(name, config, bad, TINY_REFERENCE[name])
    assert any(message in f for f in failures), failures


def test_changed_output_byte_fails():
    first = {"record.json": b'{"risk": 0.25}\n', "table.csv": b"n,risk\r\n"}
    assert checks.check_identical(dict(first), first) == []
    assert checks.check_identical(dict(first, **{"table.csv": b"n,risk\r\r"}), first)
    assert checks.check_identical({"record.json": first["record.json"]}, first)


def test_span_count_mismatch_fails():
    expected = WORKLOADS["oracle-dense"].expected_calls(generate("oracle-dense", 7, tiny=True))
    counts = {name: want for name, want in expected.items() if name != "paths"}
    assert checks.check_span_counts(counts, expected) == []
    # a refactor that calls the simulator under another name reads as free
    assert checks.check_span_counts(dict(counts, **{"noise.simulate": 0}), expected)
    assert checks.check_span_counts(dict(counts, **{"observe.variance_proxy": 3}), expected)
