"""Regenerate reference.json, the risks the benchmark checks each run against.

    python3 mcbench/make_reference.py

For every workload, at full and tiny size, runs the CLI on the workload's
exact config at master seeds 0..K-1 and stores, for each reported risk on
its check scale (see bench_checks), the mean over those seeds and the
standard error of one run's value about that mean (the spread over seeds
times sqrt(1 + 1/K)).  The statistic is the one
a benchmark run reports, at the same replicate count, so maxima over
signals and members carry the same bias in both.  Benchmark seeds map to
master seeds through mc_seed(), uniform on [1, 2**31), so a benchmark run
repeats a reference run with probability about 2e-8.  Takes about twenty
minutes on two cores.
Regenerate only when the law of a reported risk changes on purpose, and
say so in the change.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_checks import reported_risks, to_check_scale
from bench_workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
SEEDS = 40


def run_record(name: str, config: dict, tmp: Path) -> dict:
    w = WORKLOADS[name]
    config_path = tmp / "config.json"
    config_path.write_text(json.dumps(config))
    out_dir = tmp / f"out-{name}-{config['seed']}"
    env = dict(os.environ, PYTHONPATH=str(BENCH.parent / "src"))
    env.pop("SEMIMART_SEED", None)
    subprocess.run([sys.executable, "-m", "semimartreg.cli", w.command, "--config",
                    str(config_path), "--out-dir", str(out_dir), "--workers", "2"],
                   check=True, env=env, stdout=subprocess.DEVNULL)
    return json.loads((out_dir / f"{w.command.replace('-', '_')}_record.json").read_text())


def reference_for(name: str, tiny: bool, tmp: Path) -> dict:
    values = {}
    for seed in range(SEEDS):
        record = run_record(name, WORKLOADS[name].make_config(seed, tiny), tmp)
        for label, value in reported_risks(name, record).items():
            values.setdefault(label, []).append(to_check_scale(label, value))
    inflate = math.sqrt(1.0 + 1.0 / SEEDS)
    return {label: [statistics.fmean(xs), statistics.stdev(xs) * inflate]
            for label, xs in values.items()}


def main() -> int:
    out = {"seeds": SEEDS}
    (BENCH / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / ".work") as tmp:
        for scale in ("full", "tiny"):
            out[scale] = {name: reference_for(name, scale == "tiny", Path(tmp))
                          for name in WORKLOADS}
    (BENCH / "reference.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
