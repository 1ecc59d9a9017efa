"""Set-up probe: what a semimartreg run does before its first replicate.

    python3 mcbench/bench_setup.py CONFIG.json

imports the CLI, loads and validates the config, and builds the weight
grids and shrinkage configuration through the same functions the command
uses, then exits.  The benchmark times the whole process as `setup_s`.
"""

from __future__ import annotations

import sys


def main(argv) -> int:
    (config_path,) = argv
    from semimartreg import cli
    from semimartreg.risk import build_grid_for

    cfg = cli.load_config(config_path)
    if cfg.efficiency:
        # efficiency-sweep builds one grid per horizon; a mixed family
        # builds its shrinkage configuration inline, at negligible cost.
        for n in cfg.efficiency["n_values"]:
            build_grid_for(int(n), cfg.family.sigma_star)
    else:
        # oracle-check and improve-check both start from _selection_parts;
        # improve-check always asks for shrinkage, and the workloads that run
        # it name the improved estimator.
        cli._selection_parts(cfg, improved=cfg.estimator == "improved")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
