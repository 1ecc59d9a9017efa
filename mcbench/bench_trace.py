"""Traced semimartreg CLI run and the per-layer metrics derived from it.

Run as a script, it imports the program, wraps the public functions of each
module under the names their callers look them up by (risk imports
`simulate`, `estimate_fourier`, `ObservationPath`, ... by name, so the
wrapper replaces `risk.simulate`, not only `noise.simulate`), runs the CLI
in this process and writes the spans it recorded as JSON:

    python3 mcbench/bench_trace.py SPANS.json <semimartreg CLI arguments>

Spans stay in memory until the CLI returns.  The wrappers time calls in a
single process, so the traced run uses --workers 1.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict

FAMILIES = {"LevySpec": "levy", "OuSpec": "ou", "SemiMarkovSpec": "semimarkov"}


def _simulate_attrs(a):
    return {"family": FAMILIES.get(type(a["spec"]).__name__, type(a["spec"]).__name__),
            "cells": int(a["n"]) * int(a["M"])}


def _fourier_attrs(a):
    return {"J": int(a["J"]), "M": int(a["path"].M)}


def _proxy_attrs(a):
    return {"J": int(a["path"].n), "M": int(a["path"].M)}


def _synthesize_attrs(a):
    return {"J": int(a["signal"].basis_size), "points": int(getattr(a["t"], "size", 1))}


# (module, attribute, span name, attribute extractor); the module is where
# the caller looks the name up.
WRAPS = (
    ("cli", "main", "cli.main", None),
    ("cli", "load_config", "cli.load_config", None),
    ("cli", "build_grid_for", "select.build_grid", None),
    ("cli", "oracle_report", "risk.report", None),
    ("cli", "improvement_report", "risk.report", None),
    ("cli", "efficiency_sweep", "risk.report", None),
    ("risk", "build_grid_for", "select.build_grid", None),
    ("risk", "simulate", "noise.simulate", _simulate_attrs),
    ("risk", "signal_increments", "observe.signal_increments", None),
    ("risk", "ObservationPath", "observe.obs_path", None),
    ("risk", "estimate_fourier", "observe.estimate_fourier", _fourier_attrs),
    ("risk", "estimate_variance_proxy", "observe.variance_proxy", _proxy_attrs),
    ("risk", "model_select", "select.select", None),
    ("risk", "improved_select", "select.select", None),
    ("risk", "shrink", "select.shrink", None),
    ("select", "shrink", "select.shrink", None),
    ("observe", "synthesize", "signal.synthesize", _synthesize_attrs),
)


class Tracer:
    """In-memory spans: [name, start_ns, end_ns, parent index or -1, attrs]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, module, attr: str, name: str, extract=None) -> None:
        fn = getattr(module, attr)
        sig = inspect.signature(fn) if extract else None

        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                attrs = extract(sig.bind(*args, **kwargs).arguments) if extract else None
                self.spans[idx] = [name, start, end, parent, attrs]

        setattr(module, attr, traced)


def main(argv) -> int:
    spans_path, cli_args = argv[0], list(argv[1:])
    start = time.perf_counter_ns()
    from semimartreg import cli, observe, risk, select

    import_ns = time.perf_counter_ns() - start
    modules = {"cli": cli, "observe": observe, "risk": risk, "select": select}
    tracer = Tracer()
    for mod, attr, name, extract in WRAPS:
        tracer.wrap(modules[mod], attr, name, extract)
    rc = cli.main(cli_args)
    with open(spans_path, "w") as fh:
        json.dump({"import_ns": import_ns, "spans": tracer.spans}, fh)
    return rc


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------


def span_counts(trace: dict) -> dict:
    counts = defaultdict(int)
    for name, *_ in trace["spans"]:
        counts[name] += 1
    return dict(counts)


def _mean(xs) -> float:
    return sum(xs) / len(xs) if xs else 0.0


def layer_metrics(trace: dict, paths: int) -> dict:
    """Per-layer figures of one traced CLI run; a mean over no calls reads 0."""
    spans = trace["spans"]
    dur = defaultdict(list)
    child_ns = defaultdict(int)
    for name, start, end, parent, _ in spans:
        dur[name].append(end - start)
        if parent >= 0:
            child_ns[parent] += end - start

    def by(name, key, value):
        return [end - start for n, start, end, _, a in spans if n == name and a[key] == value]

    main_ns = sum(dur["cli.main"])
    report_ns = sum(dur["risk.report"])
    report_self = sum(end - start - child_ns[i] for i, (n, start, end, _, _) in enumerate(spans)
                      if n == "risk.report")
    bases = {(a["J"], a["M"]) for n, _, _, _, a in spans
             if n in ("observe.estimate_fourier", "observe.variance_proxy")}
    synth = [a["J"] * a["points"] * 8 for n, _, _, _, a in spans if n == "signal.synthesize"]
    cells = sum(a["cells"] for n, _, _, _, a in spans if n == "noise.simulate")
    metrics = {
        f"noise.simulate_us.{fam}": _mean(by("noise.simulate", "family", fam)) / 1e3
        for fam in ("levy", "ou", "semimarkov")
    }
    metrics.update({
        "noise.busy_share": sum(dur["noise.simulate"]) / main_ns,
        "noise.cells": cells,
        "observe.variance_proxy_us": _mean(dur["observe.variance_proxy"]) / 1e3,
        "observe.estimate_fourier_us": _mean(dur["observe.estimate_fourier"]) / 1e3,
        "observe.obs_path_us": _mean(dur["observe.obs_path"]) / 1e3,
        "observe.basis_bytes": sum(J * M * 8 for J, M in bases),
        "observe.signal_increments_ms": _mean(dur["observe.signal_increments"]) / 1e6,
        "select.select_us": _mean(dur["select.select"]) / 1e3,
        "select.shrink_us": _mean(dur["select.shrink"]) / 1e3,
        "select.calls": len(dur["select.select"]),
        "select.build_grid_ms": _mean(dur["select.build_grid"]) / 1e6,
        "signal.synthesize_ms": _mean(dur["signal.synthesize"]) / 1e6,
        "signal.basis_bytes": max(synth, default=0),
        "risk.rep_us": report_ns / paths / 1e3,
        "risk.self_share": report_self / report_ns if report_ns else 0.0,
        "cli.import_s": trace["import_ns"] / 1e9,
        "cli.load_config_ms": _mean(dur["cli.load_config"]) / 1e6,
    })
    return metrics


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
