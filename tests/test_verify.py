import numpy as np
import pytest

from cmtmimo import combine, verify
from cmtmimo.config import load_config

SEED = load_config(None).run.master_seed  # the seed `cmtmimo verify` uses by default


@pytest.mark.parametrize(
    "check", [check for _, check in verify._CHECKS], ids=[name for name, _ in verify._CHECKS]
)
def test_check(check):
    # each named check is the one desk-scale copy of its invariant
    check(SEED)


def test_suite_catches_a_planted_normalization_bug(monkeypatch):
    # sanity check of the checker itself: break the matched-filter gain
    # normalization and the named identity check must go red
    def broken(h):
        h = np.asarray(h, dtype=complex)
        return combine.CombinerWeights(w=h.copy(), kind="MF")  # missing 1/||h||^2

    monkeypatch.setattr(combine, "mf_weights", broken)
    with pytest.raises(AssertionError, match=r"w\^H h"):
        dict(verify._CHECKS)["combine.mf_identity"](SEED)


def test_report_formatting_marks_failures():
    results = [
        verify.CheckResult("alpha", True, "fine", 0.01),
        verify.CheckResult("beta", False, "broken", 0.02),
    ]
    lines = verify.format_report(results).splitlines()
    assert lines[0].startswith("PASS")
    assert lines[1].startswith("FAIL")
    assert lines[-1].startswith("FAILED: 1/2")
    ok = verify.format_report(results[:1]).splitlines()
    assert ok[-1] == "OK: 1/1 checks passed"
