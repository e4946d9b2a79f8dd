"""Golden-value gate: rerun the fixture runs and compare their CSVs with
the committed ones in ``tests/golden/``, column by column.

Integer columns must match exactly; float columns within a relative 1e-9
of the fixture; +-inf and nan must stay what they were.  A trial's
``cross_iteration`` may move only where the blind SINR it crosses at sits
within that same tolerance of the MF-perfect level.  The fixtures are
tied to the numpy version that wrote them, since its generators and
linear algebra fix the digits; ``tests/golden/regen.py`` rewrites them.
"""

from __future__ import annotations

import csv
import importlib.util
import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text())
INT_COLUMNS = {"trial_id", "iteration", "iteration_bucket"}

_spec = importlib.util.spec_from_file_location("golden_regen", GOLDEN / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)
RTOL = regen.RTOL


def _read(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _floats_agree(golden: float, got: float) -> bool:
    if not (math.isfinite(golden) and math.isfinite(got)):
        return golden == got or (math.isnan(golden) and math.isnan(got))
    return abs(got - golden) <= RTOL * abs(golden)


def _crossing_is_marginal(run_dir: Path, trial: int, golden: int, got: int) -> bool:
    """True if the earlier of two crossings is at an iteration where the
    fixture's blind SINR lies within RTOL of its MF-perfect level."""
    at = min(i for i in (golden, got) if i >= 0)
    header, rows = _read(run_dir / "trajectory.csv")
    col = {name: i for i, name in enumerate(header)}
    for row in rows:
        if int(row[col["trial_id"]]) == trial and int(row[col["iteration"]]) == at:
            blind = float(row[col["sinr_blind_db"]])
            mf = float(row[col["sinr_mf_perfect_db"]])
            return abs(blind - mf) <= RTOL * abs(mf)
    return False


def _mismatches(run_dir: Path, name: str, out_dir: Path) -> list[str]:
    golden_header, golden_rows = _read(run_dir / name)
    header, rows = _read(out_dir / name)
    if header != golden_header:
        return [f"{name}: header {header} != {golden_header}"]
    if len(rows) != len(golden_rows):
        return [f"{name}: {len(rows)} rows, fixture has {len(golden_rows)}"]
    bad = []
    for r, (golden_row, row) in enumerate(zip(golden_rows, rows), start=2):
        for column, a, b in zip(header, golden_row, row):
            if column in INT_COLUMNS:
                ok = int(a) == int(b)
            elif column == "cross_iteration":
                ok = int(a) == int(b) or _crossing_is_marginal(
                    run_dir, int(row[0]), int(a), int(b)
                )
            else:
                ok = _floats_agree(float(a), float(b))
            if not ok:
                bad.append(f"{name} line {r} {column}: fixture {a}, got {b}")
    return bad


@pytest.mark.parametrize("run", sorted(MANIFEST["runs"]))
def test_outputs_match_golden(run, tmp_path, capsys):
    if MANIFEST["numpy"] != np.__version__:
        pytest.fail(
            f"golden fixtures were written with numpy {MANIFEST['numpy']}, this is "
            f"numpy {np.__version__}: regenerate them with tests/golden/regen.py"
        )
    run_dir = GOLDEN / run
    regen.run(MANIFEST["runs"][run], tmp_path)
    capsys.readouterr()
    names = sorted(p.name for p in run_dir.glob("*.csv"))
    assert names and names == sorted(p.name for p in tmp_path.glob("*.csv"))
    bad = [line for name in names for line in _mismatches(run_dir, name, tmp_path)]
    assert not bad, f"{len(bad)} values left the golden tolerance:\n" + "\n".join(bad[:10])


def test_regen_diff_reports_the_largest_relative_change(tmp_path):
    # the figure ``regen.py --diff`` prints: 0 for equal CSVs, the largest
    # relative change of a float value otherwise, inf if a file's shape moved
    run_dir = GOLDEN / "gaussianity"
    shutil.copy(run_dir / "stats.csv", tmp_path / "stats.csv")
    assert regen.largest_change(run_dir, tmp_path) == (0.0, "every float value equal")
    header, (row,) = _read(run_dir / "stats.csv")
    values = [float(v) for v in row]
    values[1] *= 1 + 1e-6
    (tmp_path / "stats.csv").write_text(",".join(header) + "\n" + ",".join(map(repr, values)) + "\n")
    change, where = regen.largest_change(run_dir, tmp_path)
    assert change == pytest.approx(1e-6, rel=1e-6) and where == f"stats.csv line 2 {header[1]}"
    (tmp_path / "stats.csv").write_text(",".join(header) + "\n")
    assert regen.largest_change(run_dir, tmp_path)[0] == math.inf


@pytest.mark.parametrize(
    "scale, rows, code",
    [(1.0, 1, 0), (1 + 1e-10, 1, 0), (1 + 1e-8, 1, 1), (1.0, 0, 1)],
)
def test_regen_diff_exit_code(scale, rows, code, monkeypatch, capsys):
    # ``regen.py --diff`` exits 1 when a fixture's change is above RTOL or
    # inf (a row gone), else 0.  Its reruns here copy the fixtures, with
    # gaussianity's sigma_q_sq scaled, instead of running the experiments.
    def rerun(args, out_dir):
        name = next(key for key, value in regen.RUNS.items() if value == args)
        shutil.copytree(GOLDEN / name, out_dir)
        if name == "gaussianity":
            header, (row,) = _read(out_dir / "stats.csv")
            values = [float(row[0]) * scale] + [float(v) for v in row[1:]]
            lines = [",".join(header)] + [",".join(map(repr, values))] * rows
            (out_dir / "stats.csv").write_text("\n".join(lines) + "\n")

    monkeypatch.setattr(regen, "run", rerun)
    assert regen.main(["--diff"]) == code
    assert capsys.readouterr().out.count("largest relative change") == len(regen.RUNS)
