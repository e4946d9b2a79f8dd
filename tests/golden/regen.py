"""Rewrite the golden CSV fixtures that ``tests/test_golden.py`` compares against.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regen.py

Every run in ``RUNS`` goes through the CLI in-process and writes its CSVs
to ``tests/golden/<name>/``.  ``manifest.json`` records the runs' CLI
arguments, the numpy version and the commit the fixtures came from; the
test reruns exactly those arguments.  A change that regenerates the
fixtures says so and quotes the largest relative change it made.

    PYTHONPATH=src python tests/golden/regen.py --diff

reruns ``RUNS`` into a temporary directory instead and prints, for each
fixture, the largest relative change of any float value against the
committed CSVs.  It writes nothing under ``tests/golden/``, and exits 1
if any fixture's change is above ``RTOL`` (the golden tolerance that
``tests/test_golden.py`` enforces) or is inf, else 0.
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


# columns that hold integers; every other column holds floats
INT_COLUMNS = {"trial_id", "iteration", "iteration_bucket", "cross_iteration"}


def _relative_change(golden: float, got: float) -> float:
    if golden == got or (math.isnan(golden) and math.isnan(got)):
        return 0.0
    if golden == 0.0 or not (math.isfinite(golden) and math.isfinite(got)):
        return math.inf
    return abs(got - golden) / abs(golden)


def largest_change(golden_dir: Path, out_dir: Path) -> tuple[float, str]:
    """Largest relative change of any float value from ``golden_dir``'s CSVs
    to ``out_dir``'s, and where it is; inf if a file's shape changed."""
    worst, where = 0.0, "every float value equal"
    for path in sorted(golden_dir.glob("*.csv")):
        other = out_dir / path.name
        if not other.exists():
            return math.inf, f"{path.name} not written"
        with open(path, newline="") as fh, open(other, newline="") as other_fh:
            golden, got = list(csv.reader(fh)), list(csv.reader(other_fh))
        if golden[0] != got[0] or len(golden) != len(got):
            return math.inf, f"{path.name}: header or row count changed"
        header = golden[0]
        columns = [i for i, name in enumerate(header) if name not in INT_COLUMNS]
        for line, (golden_row, row) in enumerate(zip(golden[1:], got[1:]), start=2):
            for i in columns:
                change = _relative_change(float(golden_row[i]), float(row[i]))
                if change > worst:
                    worst, where = change, f"{path.name} line {line} {header[i]}"
    return worst, where


def diff() -> int:
    """Rerun every fixture into a temporary directory and print its largest
    change; returns 1 if any change is above ``RTOL`` (inf included), else 0."""
    worst = 0.0
    with tempfile.TemporaryDirectory() as tmp:
        for name, args in RUNS.items():
            with contextlib.redirect_stdout(io.StringIO()):
                run(args, Path(tmp) / name)
            change, where = largest_change(HERE / name, Path(tmp) / name)
            print(f"{name}: largest relative change {change:.3g} ({where})")
            worst = max(worst, change)
    return int(worst > RTOL)


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
        "--diff",
        action="store_true",
        help="print each fixture's largest relative change from a fresh rerun; write nothing",
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
