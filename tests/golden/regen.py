"""Rewrite the golden CSV fixtures that ``tests/test_golden.py`` compares against.

    PYTHONPATH=src python tests/golden/regen.py [--diff]

run from the repository root, sends every run in ``RUNS`` through the CLI
in-process and writes its CSVs to ``tests/golden/<name>/``.  ``manifest.json``
records the runs' CLI arguments, the numpy version and the commit the fixtures
came from; the test reruns exactly those arguments.  A change that regenerates
the fixtures says so and quotes the largest relative change it made.

With ``--diff`` it reruns ``RUNS`` into a temporary directory instead, writes
nothing under ``tests/golden/`` and judges each rerun with ``compare``, the
golden rule that ``tests/test_golden.py`` enforces too.  It prints each
fixture's largest relative float change and the values that break the rule,
and exits 1 if any value does, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from cmtmimo import cli

HERE = Path(__file__).resolve().parent

# relative tolerance of a float value against its fixture
RTOL = 1e-9

# three cells with two users each; in-cell gains are 1
EXPLICIT_GAINS = (
    "[[[1.0, 1.0], [0.3, 0.7], [0.5, 0.2]],"
    " [[0.8, 0.1], [1.0, 1.0], [0.4, 0.9]],"
    " [[0.6, 0.25], [0.15, 0.45], [1.0, 1.0]]]"
)

# fixture directory -> CLI arguments, small runs that together reach every
# experiment, both channel estimators, both sigma_q modes and explicit gains
RUNS = {
    "simulate": ["simulate", "--trials", "2"],
    "eye": ["eye", "--trials", "2", "--override", "eye.samples_per_bucket=50"],
    "gaussianity": ["gaussianity"],
    "explicit": [
        "simulate",
        "--trials",
        "1",
        "--override",
        "pilot.estimator=correlate",
        "--override",
        "signaling.sigma_q_mode=calibrated",
        "--override",
        f"topology.explicit_gains={EXPLICIT_GAINS}",
    ],
}


def run(args: list[str], out_dir: Path) -> None:
    """Run one fixture's CLI arguments, writing its CSVs to ``out_dir``."""
    rc = cli.main([*args, "--out", str(out_dir)])
    if rc != 0:
        raise RuntimeError(f"cmtmimo {' '.join(args)} exited {rc}")


# columns that must match exactly
INT_COLUMNS = {"trial_id", "iteration", "iteration_bucket"}


def _read(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _relative_change(golden: float, got: float) -> float:
    if golden == got or (math.isnan(golden) and math.isnan(got)):
        return 0.0
    if golden == 0.0 or not (math.isfinite(golden) and math.isfinite(got)):
        return math.inf
    return abs(got - golden) / abs(golden)


def _crossing_is_marginal(golden_dir: Path, trial: str, golden: str, got: str) -> bool:
    """True if the earlier of two crossings is at an iteration where the
    fixture's blind SINR lies within RTOL of its MF-perfect level."""
    at = min(i for i in (int(golden), int(got)) if i >= 0)
    header, *rows = _read(golden_dir / "trajectory.csv")
    col = {name: i for i, name in enumerate(header)}
    for row in rows:
        if int(row[col["trial_id"]]) == int(trial) and int(row[col["iteration"]]) == at:
            blind, mf = float(row[col["sinr_blind_db"]]), float(row[col["sinr_mf_perfect_db"]])
            return abs(blind - mf) <= RTOL * abs(mf)
    return False


def compare(golden_dir: Path, out_dir: Path) -> tuple[float, str, list[str]]:
    """Judge ``out_dir``'s CSVs against the fixture in ``golden_dir`` by the
    golden rule: the same files, headers and row counts; ``INT_COLUMNS``
    equal; ``cross_iteration`` equal unless its crossing is marginal; any
    other value within ``RTOL`` relative, with +-inf and nan unchanged.
    Returns the largest relative float change (inf if a file's shape
    changed), where it is, and a line for each value that breaks the rule."""
    names = sorted(p.name for p in golden_dir.glob("*.csv"))
    if not names or names != sorted(p.name for p in out_dir.glob("*.csv")):
        return math.inf, "CSV files changed", [f"CSV files differ from the fixture's {names}"]
    worst, where, broken = 0.0, "every float value equal", []
    for name in names:
        golden, got = _read(golden_dir / name), _read(out_dir / name)
        if golden[:1] != got[:1] or len(golden) != len(got):
            worst, where = math.inf, f"{name}: header or row count changed"
            broken.append(where)
            continue
        for line, (golden_row, row) in enumerate(zip(golden[1:], got[1:]), start=2):
            for column, a, b in zip(golden[0], golden_row, row):
                if column in INT_COLUMNS:
                    ok = int(a) == int(b)
                elif column == "cross_iteration":
                    ok = int(a) == int(b) or _crossing_is_marginal(golden_dir, golden_row[0], a, b)
                else:
                    change = _relative_change(float(a), float(b))
                    if change > worst:
                        worst, where = change, f"{name} line {line} {column}"
                    ok = change <= RTOL
                if not ok:
                    broken.append(f"{name} line {line} {column}: fixture {a}, got {b}")
    return worst, where, broken


def report(broken: list[str]) -> str:
    """How many values break the golden rule, and the first ten of them."""
    return f"{len(broken)} values break the golden rule:\n" + "\n".join(broken[:10])


def diff() -> int:
    """Judge a rerun of every fixture with ``compare``: 1 if a value breaks the rule, else 0."""
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for name, args in RUNS.items():
            with contextlib.redirect_stdout(io.StringIO()):
                run(args, Path(tmp) / name)
            change, where, broken = compare(HERE / name, Path(tmp) / name)
            print(f"{name}: largest relative change {change:.3g} ({where})")
            if broken:
                print(report(broken))
                failed = True
    return int(failed)


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Rewrite or compare the golden CSV fixtures.")
    parser.add_argument(
        "--diff", action="store_true", help="judge a rerun by the golden rule; write nothing"
    )
    if parser.parse_args(argv).diff:
        return diff()
    for name, args in RUNS.items():
        shutil.rmtree(HERE / name, ignore_errors=True)
        run(args, HERE / name)
    manifest = {"numpy": np.__version__, "commit": _commit(), "runs": RUNS}
    (HERE / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
