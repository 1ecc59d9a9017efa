"""Golden records: every file the CLI writes, compared byte for byte.

Each case runs one command on one config at a reduced --reps with
--workers 1, in both table formats, and compares every file written with
the copy under tests/golden/<case>/<format>/.  The three shipped configs
are covered, plus two under tests/golden/configs/ that reach the shrunk
selection (an improved oracle check and estimate), the mixed-family
sweep, whose OU member below d0 gives its improved selection a zero
contraction budget, and the robust risk of an estimate
over that mixed family and over the Levy, OU and semi-Markov members of
the benchmark's sweep family.  The cases in POOLED run again at --workers 2
against the same files, since the worker count must not move a byte.

A change that must leave the numbers alone keeps these files as they are.
A change that alters the numbers on purpose regenerates them, from the
repository root, and says in its description why they moved:

    PYTHONPATH=src python tests/test_records.py [CASE ...]

Named cases are regenerated alone; with no name, every case is.
"""

import pathlib
import shutil
import sys

import pytest

from semimartreg.cli import EXIT_OK, main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
FORMATS = ("csv", "json")

# case -> (command, config relative to the repository root, reps)
CASES = {
    "oracle_check": ("oracle-check", "configs/oracle_levy_n100.json", 40),
    "improve_check": ("improve-check", "configs/improve_levy_d10.json", 200),
    "efficiency_sweep": ("efficiency-sweep", "configs/efficiency_k1.json", 4),
    "oracle_check_improved": ("oracle-check", "tests/golden/configs/oracle_improved.json", 40),
    "estimate_improved": ("estimate", "tests/golden/configs/oracle_improved.json", 20),
    "efficiency_sweep_mixed": ("efficiency-sweep", "tests/golden/configs/efficiency_mixed.json", 4),
    "estimate_mixed": ("estimate", "tests/golden/configs/efficiency_mixed.json", 20),
    "estimate_three_kinds": ("estimate", "tests/golden/configs/family_three_kinds.json", 20),
}
# cases that also run through the process pool
POOLED = ("efficiency_sweep", "efficiency_sweep_mixed", "estimate_mixed", "estimate_three_kinds",
          "improve_check")


def run_case(case: str, fmt: str, out_dir: pathlib.Path, workers: int = 1) -> int:
    command, config, reps = CASES[case]
    return main([command, "--config", str(ROOT / config), "--reps", str(reps),
                 "--workers", str(workers), "--format", fmt, "--out-dir", str(out_dir)])


def assert_matches_golden(case: str, fmt: str, out_dir: pathlib.Path) -> None:
    golden = GOLDEN / case / fmt
    expected = sorted(p.name for p in golden.iterdir())
    assert sorted(p.name for p in out_dir.iterdir()) == expected
    for name in expected:
        assert (out_dir / name).read_bytes() == (golden / name).read_bytes(), name


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden(case, fmt, tmp_path, capsys):
    assert run_case(case, fmt, tmp_path) == EXIT_OK
    assert_matches_golden(case, fmt, tmp_path)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", POOLED)
def test_two_workers_match_golden(case, fmt, tmp_path, capsys):
    assert run_case(case, fmt, tmp_path, workers=2) == EXIT_OK
    assert_matches_golden(case, fmt, tmp_path)


def regenerate(cases) -> int:
    unknown = sorted(set(cases) - set(CASES))
    if unknown:
        print(f"unknown case(s) {', '.join(unknown)}; known: {', '.join(CASES)}",
              file=sys.stderr)
        return 2
    for case in cases or CASES:
        for fmt in FORMATS:
            out = GOLDEN / case / fmt
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir(parents=True)
            rc = run_case(case, fmt, out)
            if rc != EXIT_OK:
                print(f"{case} ({fmt}) exited {rc}", file=sys.stderr)
                return rc
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(regenerate(sys.argv[1:]))
