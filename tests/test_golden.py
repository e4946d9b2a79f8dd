"""Golden-value gate: rerun the fixture runs and judge their CSVs against the
fixtures in ``tests/golden/`` by the golden rule, which lives only in
``tests/golden/regen.py``'s ``compare`` and which ``regen.py --diff`` applies
too.  The fixtures are tied to the numpy version that wrote them, since its
generators and linear algebra fix the digits; ``regen.py`` rewrites them.
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

_spec = importlib.util.spec_from_file_location("golden_regen", GOLDEN / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


@pytest.mark.parametrize("run", sorted(MANIFEST["runs"]))
def test_outputs_match_golden(run, tmp_path):
    if MANIFEST["numpy"] != np.__version__:
        pytest.fail(
            f"golden fixtures were written with numpy {MANIFEST['numpy']}, this is "
            f"numpy {np.__version__}: regenerate them with tests/golden/regen.py"
        )
    regen.run(MANIFEST["runs"][run], tmp_path)
    _, _, broken = regen.compare(GOLDEN / run, tmp_path)
    assert not broken, regen.report(broken)


def _edit(directory, path, line, column, text):
    """Set one CSV value under ``directory`` to ``text``; drop its line if ``column`` is None."""
    rows = regen._read(directory / path)
    if column is None:
        del rows[line - 1]
    else:
        rows[line - 1][rows[0].index(column)] = text
    with open(directory / path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


SUMMARY, TRAJECTORY = "simulate/summary.csv", "simulate/trajectory.csv"
STATS = "gaussianity/stats.csv"
SIGMA = float(regen._read(GOLDEN / STATS)[1][0])  # sigma_q_sq
# trial 0 of the simulate fixture crosses at iteration 350, on trajectory line
# 16; setting its blind SINR there to the MF-perfect level makes it marginal
MARGINAL = (TRAJECTORY, 16, "sinr_blind_db", "15.1397262755")


def _scaled(factor):
    """An edit scaling sigma_q_sq by ``factor``, and its relative change as written."""
    value = SIGMA * factor
    return [(STATS, 2, "sigma_q_sq", repr(value))], abs(value - SIGMA) / SIGMA


EQUAL, AT_SIGMA, RESHAPED = ("every float value equal", "stats.csv line 2 sigma_q_sq",
                             "stats.csv: header or row count changed")
# edits to the rerun, the largest relative change and where it is, and whether
# a value breaks the golden rule; trial 1 crosses at iteration 275, not marginally
CASES = {
    "unchanged": ([], 0.0, EQUAL, False),
    "float * (1 + 1e-10)": (*_scaled(1 + 1e-10), AT_SIGMA, False),
    "float * (1 + 1e-8)": (*_scaled(1 + 1e-8), AT_SIGMA, True),
    "row dropped": ([(STATS, 2, None, None)], math.inf, RESHAPED, True),
    "iteration changed": ([(TRAJECTORY, 3, "iteration", "26")], 0.0, EQUAL, True),
    "crossing moved": ([(SUMMARY, 3, "cross_iteration", "1275")], 0.0, EQUAL, True),
    "marginal crossing moved": ([(SUMMARY, 2, "cross_iteration", "375")], 0.0, EQUAL, False),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_compare_and_diff_judge_alike(case, tmp_path, monkeypatch, capsys):
    # ``compare`` and ``regen.py --diff`` on fixture copies with trial 0's crossing made
    # marginal: --diff exits 1 exactly when a value breaks the rule, and prints each figure
    edits, change, where, breaks = CASES[case]
    golden, out = tmp_path / "golden", tmp_path / "out"
    for name in regen.RUNS:
        shutil.copytree(GOLDEN / name, golden / name)
    _edit(golden, *MARGINAL)
    shutil.copytree(golden, out)
    for edit in edits:
        _edit(out, *edit)
    judged = {name: regen.compare(golden / name, out / name) for name in regen.RUNS}
    worst, at, _ = max(judged.values(), key=lambda judgement: judgement[0])
    assert (worst, at) == (pytest.approx(change, rel=1e-6), where)
    assert any(broken for _, _, broken in judged.values()) == breaks

    monkeypatch.setattr(regen, "HERE", golden)
    # --diff reruns each fixture into a directory named after it
    monkeypatch.setattr(regen, "run", lambda args, to: shutil.copytree(out / to.name, to))
    assert regen.main(["--diff"]) == int(breaks)
    printed = capsys.readouterr().out
    assert printed.count("largest relative change") == len(regen.RUNS)
    assert f"({where})" in printed
    assert ("break the golden rule" in printed) == breaks
