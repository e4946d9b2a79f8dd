"""How far the statistics of acceptance criteria 5-7 sit from their bounds.

Run from the repository root:

    PYTHONPATH=src python tests/margins.py [seed ...]

The criteria in ``tests/test_acceptance.py`` run at seed 12345 only, so
a change can pass there by luck while the statistics they check get
worse.  This script reruns, at the default config and each seed (by
default 1-10 and 12345), the same ``harness`` calls the criteria make:
``run_fig3`` (criterion 5), ``run_eye`` (6) and ``run_gaussianity`` (7).
It computes each statistic as the criterion does and prints it for every
seed, then a table of each statistic's bound, the line of
``tests/test_acceptance.py`` the bound comes from, the range over the
seeds and the value at 12345.  It asserts nothing and writes only to a
temporary directory.  At the defaults it takes about 2 s per seed on a
2-vCPU host, 22 s for the 11 default seeds.  Pytest does not collect it
(no ``test_`` prefix).
"""

from __future__ import annotations

import argparse
import tempfile
from pathlib import Path

import numpy as np

from cmtmimo import harness
from cmtmimo.config import load_config

ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"

# statistic -> (bound as printed, text of test_acceptance.py that checks it)
BOUNDS = {
    "C5 median crossing of MF": ("<= 500", "crossing <= 500"),
    "C5 final gap to MMSE, dB": ("<= 3", "mmse - final <= 3.0"),
    "C5 final above MF, dB": (">= 3", "final - mf >= 3.0"),
    "C6 trials whose eye opens": (">= 0.8", "frac >= 0.8"),
    "C7 excess kurtosis of q": ("abs <= 0.3", "abs(excess) <= 0.3"),
    "C7 noiseless error rate": ("== 0", "real_part_alphabet_error_rate == 0.0"),
}


def source_line(text: str) -> str:
    """``test_acceptance.py:<line>`` of the one line that holds ``text``."""
    lines = ACCEPTANCE.read_text(encoding="utf-8").splitlines()
    found = [n for n, line in enumerate(lines, 1) if text in line]
    if len(found) != 1:
        raise SystemExit(f"margins: {text!r} is on {len(found)} lines of {ACCEPTANCE.name}")
    return f"{ACCEPTANCE.name}:{found[0]}"


def statistics(seed: int, out_dir: str) -> dict[str, float]:
    """Criteria 5-7's statistics at the default config and ``seed``."""
    cfg = load_config(None)
    cfg.run.master_seed = seed
    fig3 = harness.run_fig3(cfg, out_dir)
    iters, sinrs = fig3["iterations"], fig3["sinrs"]
    median = np.median(sinrs[:, 3:], axis=0)
    mf = float(np.median(sinrs[:, 0]))
    mmse = float(np.median(sinrs[:, 1]))
    crossing = next((it for it, v in zip(iters, median) if v >= mf), np.inf)
    final = float(median[-1])
    openings = harness.run_eye(cfg, out_dir)["openings"]
    stats = harness.run_gaussianity(cfg, out_dir)["stats"]
    return {
        "C5 median crossing of MF": crossing,
        "C5 final gap to MMSE, dB": mmse - final,
        "C5 final above MF, dB": final - mf,
        "C6 trials whose eye opens": float(np.mean(openings[:, -1] > openings[:, 0])),
        "C7 excess kurtosis of q": stats.kurtosis_imag - 3.0,
        "C7 noiseless error rate": stats.real_part_alphabet_error_rate,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", nargs="*", type=int, default=[*range(1, 11), 12345])
    seeds = parser.parse_args().seeds
    sources = {name: source_line(text) for name, (_, text) in BOUNDS.items()}
    values = {name: [] for name in BOUNDS}
    with tempfile.TemporaryDirectory() as out_dir:
        for seed in seeds:
            row = statistics(seed, out_dir)
            print(f"seed {seed}: " + ", ".join(f"{name} {v:.4g}" for name, v in row.items()))
            for name, value in row.items():
                values[name].append(value)
    at = seeds.index(12345) if 12345 in seeds else -1
    print(f"\n| Statistic | Bound | Bound's line | Range over {len(seeds)} seeds | At {seeds[at]} |")
    print("|---|---|---|---|---|")
    for name, (bound, _) in BOUNDS.items():
        seen = values[name]
        print(
            f"| {name} | {bound} | {sources[name]} | {min(seen):.4g} to {max(seen):.4g} "
            f"| {seen[at]:.4g} |"
        )


if __name__ == "__main__":
    main()
