"""Monte Carlo benchmark for semimartreg.

    python3 mcbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark writes the config that
workload NAME generates from seed N, then launches the semimartreg CLI (from
the checkout's `src/`) as a fresh process, again and again for S seconds,
and checks every run record.  Before that it times a set-up probe
(bench_setup.py) several times.  With --trace 0 it prints the end-to-end
metrics; with --trace 1 it also launches the CLI through bench_trace.py at
--workers 1 and prints the per-layer metrics.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

See README.md in this directory for the workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from bench_checks import (Z_REF, check_identical, check_record, check_span_counts,
                          reference_z, reported_risks)
from bench_trace import layer_metrics, span_counts
from bench_workloads import WORKLOADS, generate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "paths_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "noise.simulate_us.levy": "us",
    "noise.simulate_us.ou": "us",
    "noise.simulate_us.semimarkov": "us",
    "noise.busy_share": "ratio",
    "noise.cells": "count",
    "observe.variance_proxy_us": "us",
    "observe.estimate_fourier_us": "us",
    "observe.obs_path_us": "us",
    "observe.basis_bytes": "bytes",
    "observe.signal_increments_ms": "ms",
    "select.select_us": "us",
    "select.shrink_us": "us",
    "select.calls": "count",
    "select.build_grid_ms": "ms",
    "signal.synthesize_ms": "ms",
    "signal.basis_bytes": "bytes",
    "risk.rep_us": "us",
    "risk.self_share": "ratio",
    "risk.pool_utilization": "ratio",
    "cli.import_s": "s",
    "cli.load_config_ms": "ms",
    "trace.overhead": "ratio",
}

# Set-up probes timed per round, and the fewest a run may have; a probe is about
# one import (1.2 s), so two a round give six to ten samples in a run.
PROBES_PER_ROUND = 2
SETUP_PROBES = 6
# Every launch is killed once the run has lasted this long, so that a hung
# program still ends the run within the 180 s a run may take.
RUN_LIMIT_S = 170.0


@dataclass
class Launch:
    kind: str  # "warmup", "setup", "run" (workload workers), "run1" (--workers 1), "traced"
    wall_s: float
    cpu_s: float
    rss_mb: float
    failures: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)


def _stop_group(pgid: int) -> None:
    """Kill what is left of a launched process group and wait until it is gone."""
    deadline = time.monotonic() + 10.0
    try:
        os.killpg(pgid, signal.SIGKILL)
        while time.monotonic() < deadline:
            time.sleep(0.01)
            os.killpg(pgid, 0)
    except ProcessLookupError:
        pass


def launch(kind: str, argv: list, env: dict, err_path: Path, timeout: float) -> Launch:
    """Run one process to exit; wall time, CPU and peak RSS of its whole tree."""
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err, start_new_session=True)
        timer = threading.Timer(max(timeout, 0.0), _stop_group, (proc.pid,))
        timer.start()
        try:
            # wait4 reports the child plus every descendant it reaped, which
            # includes the pool workers.
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        _stop_group(proc.pid)
    result = Launch(kind, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)
    if proc.returncode != 0:
        tail = err_path.read_text(errors="replace").strip().splitlines()[-3:]
        result.failures.append(f"{kind} exited with {proc.returncode}: {' | '.join(tail)}")
    return result


def _read_outputs(out_dir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


class WorkloadRun:
    """One benchmark run of one workload in its own work directory."""

    def __init__(self, name: str, seed: int, tiny: bool, work: Path):
        self.w = WORKLOADS[name]
        self.config = generate(name, seed, tiny)
        self.expected = self.w.expected_calls(self.config)
        with open(BENCH / "reference.json") as fh:
            self.reference = json.load(fh)["tiny" if tiny else "full"][name]
        self.work = work
        self.env = {k: v for k, v in os.environ.items() if k != "SEMIMART_SEED"}
        self.env["PYTHONPATH"] = str(SRC)
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(self.config, indent=1))
        self.first_outputs = None
        self.max_z = float("nan")
        self.count = 0
        self.limit = time.monotonic() + RUN_LIMIT_S

    def _launch(self, kind: str, argv: list) -> Launch:
        self.count += 1
        return launch(kind, argv, self.env, self.work / f"err-{self.count}.txt",
                      self.limit - time.monotonic())

    def setup_probe(self, kind: str = "setup") -> Launch:
        return self._launch(kind, [sys.executable, str(BENCH / "bench_setup.py"),
                                   str(self.config_path)])

    def cli(self, kind: str) -> Launch:
        out_dir = self.work / f"out-{self.count + 1}"
        spans = self.work / f"spans-{self.count + 1}.json"
        workers = self.w.workers if kind == "run" else 1
        cli_args = [self.w.command, "--config", str(self.config_path), "--out-dir", str(out_dir),
                    "--workers", str(workers)]
        if kind == "traced":
            argv = [sys.executable, str(BENCH / "bench_trace.py"), str(spans), *cli_args]
        else:
            argv = [sys.executable, "-m", "semimartreg.cli", *cli_args]
        result = self._launch(kind, argv)
        if result.failures:
            return result
        try:
            outputs = _read_outputs(out_dir)
            record_name = f"{self.w.command.replace('-', '_')}_record.json"
            record = json.loads(outputs[record_name])
            result.failures += check_record(self.w.name, self.config, record, self.reference)
            if self.first_outputs is None:
                self.first_outputs = outputs
                z = reference_z(reported_risks(self.w.name, record), self.reference)
                self.max_z = max(z.values())
            result.failures += check_identical(outputs, self.first_outputs)
            if kind == "traced":
                with open(spans) as fh:
                    trace = json.load(fh)
                result.failures += check_span_counts(span_counts(trace), self.expected)
                result.layers = layer_metrics(trace, self.expected["paths"])
        except (OSError, KeyError, TypeError, ValueError) as exc:
            result.failures.append(f"{kind} outputs unreadable: {exc!r}")
        shutil.rmtree(out_dir, ignore_errors=True)
        return result


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool, work: Path):
    """All launches of one run: a warm-up probe, then rounds of set-up probes
    and the CLI runs until `seconds` have passed (at least one round), then
    more probes up to the minimum count.  Interleaving spreads both kinds of
    sample over the same stretch of machine load.
    Returns the WorkloadRun and its launches."""
    run = WorkloadRun(name, seed, tiny, work)
    launches = [run.setup_probe("warmup")]  # compiles bytecode, warms the file cache
    kinds = ["run"]
    if trace:
        kinds += (["run1"] if run.w.workers > 1 else []) + ["traced"]
    deadline = time.monotonic() + seconds
    while True:
        launches += [run.setup_probe() for _ in range(PROBES_PER_ROUND)]
        launches += [run.cli(kind) for kind in kinds]
        if time.monotonic() >= deadline:
            break
    probes = sum(1 for x in launches if x.kind == "setup")
    launches += [run.setup_probe() for _ in range((2 if tiny else SETUP_PROBES) - probes)]
    return run, launches


def _median(xs) -> float:
    return statistics.median(xs) if xs else float("nan")


def end_to_end_metrics(launches: list, paths: int) -> dict:
    setup = _median([x.wall_s for x in launches if x.kind == "setup"])
    runs = [x for x in launches if x.kind == "run"]
    return {
        "wall_s": _median([x.wall_s for x in runs]),
        "setup_s": setup,
        "paths_per_s": _median([paths / max(x.wall_s - setup, 1e-3) for x in runs]),
        "cpu_s": _median([x.cpu_s for x in runs]),
        "peak_rss_mb": _median([x.rss_mb for x in runs]),
    }


def per_layer_metrics(launches: list, workers: int) -> dict:
    setup = _median([x.wall_s for x in launches if x.kind == "setup"])
    traced = [x for x in launches if x.kind == "traced" and x.layers]
    metrics = {name: _median([x.layers[name] for x in traced])
               for name in PER_LAYER if traced and name in traced[0].layers}
    runs = [x for x in launches if x.kind == "run"]
    metrics["risk.pool_utilization"] = _median(
        [x.cpu_s / (workers * max(x.wall_s - setup, 1e-3)) for x in runs])
    untraced = [x.wall_s for x in launches if x.kind == ("run1" if workers > 1 else "run")]
    metrics["trace.overhead"] = (
        _median([x.wall_s for x in launches if x.kind == "traced"]) / _median(untraced) - 1.0)
    return metrics


def _number(x):
    return x if isinstance(x, (int, float)) and math.isfinite(x) else None


def result_line(launches: list, metrics: dict, units: dict) -> dict:
    failed = sum(1 for x in launches if x.failures)
    return {
        "correct": failed == 0,
        "attempted": len(launches),
        "failed": failed,
        # a figure no launch could give (every launch failed) reads null
        "metrics": {name: {"value": _number(metrics.get(name)), "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload to a few seconds (the benchmark's own tests)")
    args = parser.parse_args(argv)
    if not (SRC / "semimartreg" / "cli.py").is_file():
        print(f"error: no semimartreg sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2

    work = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run, launches = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                                args.tiny, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    paths = run.expected["paths"]
    e2e = end_to_end_metrics(launches, paths)
    if args.trace:
        metrics, units = per_layer_metrics(launches, run.w.workers), PER_LAYER
    else:
        metrics, units = e2e, END_TO_END
    for x in launches:
        for msg in x.failures:
            print(f"FAILED {x.kind}: {msg}", file=sys.stderr)
    counts = {kind: sum(1 for x in launches if x.kind == kind)
              for kind in ("setup", "run", "run1", "traced")}
    print(f"# {args.workload} seed={args.seed} paths per launch={paths} launches={counts}")
    print(f"# largest reference deviation: {run.max_z:.2f} standard errors (limit {Z_REF})")
    samples = {"setup_s": counts["setup"], "risk.pool_utilization": counts["run"]}
    table = dict(e2e, **metrics) if args.trace else e2e
    for name, value in table.items():
        kind = "traced" if name in PER_LAYER else "run"
        unit = PER_LAYER.get(name) or END_TO_END[name]
        n = samples.get(name, counts[kind])
        print(f"  {name:30s} {value:14.6g} {unit:6s} median of n={n}")
    print(json.dumps(result_line(launches, metrics, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
