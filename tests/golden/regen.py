"""Rewrite the golden CSV fixtures that ``tests/test_golden.py`` compares against.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regen.py

Every run in ``RUNS`` goes through the CLI in-process and writes its CSVs
to ``tests/golden/<name>/``.  ``manifest.json`` records the runs' CLI
arguments, the numpy version and the commit the fixtures came from; the
test reruns exactly those arguments.  A change that regenerates the
fixtures says so and quotes the largest relative change it made.
"""

from __future__ import annotations

import json
import shutil
import subprocess
from pathlib import Path

import numpy as np

from cmtmimo import cli

HERE = Path(__file__).resolve().parent

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


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> None:
    for name, args in RUNS.items():
        shutil.rmtree(HERE / name, ignore_errors=True)
        run(args, HERE / name)
    manifest = {"numpy": np.__version__, "commit": _commit(), "runs": RUNS}
    (HERE / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


if __name__ == "__main__":
    main()
