"""Output checks for the benchmark's CLI runs.

A run counts as failed when any of these returns a message.  Every gate is
one a wrong program can fail: a reported risk biased by more than Z_REF
standard errors from the stored reference, a broken shrinkage
identity, a proxy far from its nominal value, a missing sweep row, or a
record that differs between two runs of one seed.
"""

from __future__ import annotations

import math

# Reported risks must lie within Z_REF reference standard errors of the
# reference mean.  Both come from the same statistic on reference seeds (see
# make_reference.py), so any seed (a resampling with the same law) passes
# and a bias beyond Z_REF standard errors fails; README.md gives that
# smallest failing bias per workload as a factor.  Risks are compared on a log
# scale, where a mean of a few squared errors is close to symmetric;
# LINEAR_LABELS can be negative and are compared as they are.
Z_REF = 5.0
LINEAR_LABELS = frozenset({"delta_hat"})
# improve-check: delta_hat <= improvement_bound + IMPROVE_SE_MULT * delta_se.
IMPROVE_SE_MULT = 3.0
# improve-check: | |head| - |head*| - c_n | on every replicate.
IDENTITY_TOL = 1e-9
# oracle-check: the tail-sum proxy sums n - isqrt(n) squared estimates, so
# its mean is about nominal * (n - isqrt(n)) / n (0.965 at n=800) for noise
# with nominal proxy variance 1; sigma_hat_mean must lie within SIGMA_TOL.
SIGMA_TOL = 0.05
SIGMA_NOMINAL = 1.0


def reported_risks(workload: str, record: dict) -> dict:
    """{label: value} for every risk a record reports."""
    report = record["report"]
    if workload == "sweep-mixed":
        return {f"sup_risk[n={row['n']}]": row["sup_risk"] for row in report["rows"]}
    out = {"mean_risk": report["mean_risk"]}
    if workload == "oracle-dense":
        for i, risk in enumerate(report["member_risks"]):
            out[f"member_risks[{i}]"] = risk
    elif workload == "improve-ou":
        out["delta_hat"] = report["delta_hat"]
    return out


def _finite(*xs) -> bool:
    return all(isinstance(x, (int, float)) and math.isfinite(x) for x in xs)


def to_check_scale(label: str, value: float) -> float:
    """The scale a reported risk is compared on: log, or as is for LINEAR_LABELS."""
    return value if label in LINEAR_LABELS else math.log(value)


def from_check_scale(label: str, x: float) -> float:
    return x if label in LINEAR_LABELS else math.exp(x)


def reference_z(reported: dict, reference: dict) -> dict:
    """{label: |x - ref| / ref_se} over the reference labels, with x the
    reported value on the check scale; a label the record lacks or reports
    as non-finite (or non-positive, on the log scale) maps to inf."""
    out = {}
    for label, (ref, ref_se) in reference.items():
        value = reported.get(label)
        if not _finite(value) or (label not in LINEAR_LABELS and value <= 0):
            out[label] = math.inf
        else:
            out[label] = abs(to_check_scale(label, value) - ref) / ref_se
    return out


def check_record(workload: str, config: dict, record: dict, reference: dict) -> list:
    """Failure messages for one run record; empty when every gate passes."""
    failures = []
    reported = reported_risks(workload, record)
    if set(reported) != set(reference):
        failures.append(f"reported risks {sorted(reported)} do not match the reference "
                        f"labels {sorted(reference)}")
    for label, z in reference_z(reported, reference).items():
        if not z <= Z_REF:
            center = from_check_scale(label, reference[label][0])
            failures.append(f"{label}={reported.get(label)!r} is {z:.2f} standard "
                            f"errors from the reference {center!r} (limit {Z_REF})")

    report = record["report"]
    if workload == "sweep-mixed":
        n_values = config["efficiency"]["n_values"]
        rows = report["rows"]
        if [row["n"] for row in rows] != n_values:
            failures.append(f"sweep rows {[row['n'] for row in rows]} != n_values {n_values}")
        for row in rows:
            if not _finite(row["sup_risk"], row["sup_se"], row["ratio"], row["normalized"]):
                failures.append(f"sweep row n={row['n']} is not finite")
    elif workload == "oracle-dense":
        sigma = report["sigma_hat_mean"]
        n = config["n"]
        expected = SIGMA_NOMINAL * (n - math.isqrt(n)) / n
        if not (_finite(sigma) and abs(sigma - expected) <= SIGMA_TOL):
            failures.append(f"sigma_hat_mean={sigma!r} is not within {SIGMA_TOL} of "
                            f"{expected!r}, the tail share of the nominal {SIGMA_NOMINAL}")
    elif workload == "improve-ou":
        dev = report["identity_max_dev"]
        if not (_finite(dev) and dev <= IDENTITY_TOL):
            failures.append(f"identity_max_dev={dev!r} exceeds {IDENTITY_TOL}")
        limit = report["improvement_bound"] + IMPROVE_SE_MULT * report["delta_se"]
        if not (_finite(report["delta_hat"], limit) and report["delta_hat"] <= limit):
            failures.append(f"delta_hat={report['delta_hat']!r} exceeds improvement_bound + "
                            f"{IMPROVE_SE_MULT} delta_se = {limit!r}")
    return failures


def check_identical(outputs: dict, first: dict) -> list:
    """Every output file of a repeat run must equal the first run's, byte for byte."""
    if set(outputs) != set(first):
        return [f"output files {sorted(outputs)} differ from the first run's {sorted(first)}"]
    return [f"{name} differs from the first run of this seed"
            for name in sorted(outputs) if outputs[name] != first[name]]


def check_span_counts(counts: dict, expected: dict) -> list:
    """Calls seen by the tracer must equal what the config implies."""
    return [f"traced {name} calls: {counts.get(name, 0)}, config implies {want}"
            for name, want in expected.items()
            if name != "paths" and counts.get(name, 0) != want]
