import numpy as np
import pytest

from cmtmimo import combine, harness, kernels, verify
from cmtmimo.config import load_config

SEED = load_config(None).run.master_seed  # the seed `cmtmimo verify` uses by default


@pytest.mark.parametrize(
    "check", [check for _, check in verify._CHECKS], ids=[name for name, _ in verify._CHECKS]
)
def test_check(check):
    # each named check runs as its own test item
    check(SEED)


def test_suite_catches_a_planted_normalization_bug(monkeypatch):
    # sanity check of the checker itself: break the matched-filter gain
    # normalization and the named identity check must go red
    def broken(h):
        return np.array(h, dtype=complex)  # missing 1/||h||^2

    monkeypatch.setattr(combine, "mf_weights", broken)
    with pytest.raises(AssertionError, match=r"w\^H h"):
        dict(verify._CHECKS)["combine.mf_identity"](SEED)


def test_suite_catches_a_planted_noise_bug(monkeypatch):
    # the experiments' block drawing adds a second noise draw of the same
    # variance: the calibration's closed form must no longer match
    draw = harness.TrialScenario.draw_block

    def noisier(scen, num_symbols):
        x, s = draw(scen, num_symbols)
        scale = np.sqrt(scen.sigma_v_sq / 2)
        noise = scen.rng.standard_normal(x.shape) + 1j * scen.rng.standard_normal(x.shape)
        return x + scale * noise, s

    monkeypatch.setattr(harness.TrialScenario, "draw_block", noisier)
    with pytest.raises(AssertionError, match="closed-form mismatch"):
        dict(verify._CHECKS)["harness.calibration"](SEED)


def test_suite_catches_a_planted_reference_bug(monkeypatch):
    # the experiments' MMSE reference replaced by the contaminated MF
    # must fall below the perfect-CSI MF
    reference = harness.reference_weights

    def contaminated_mmse(scen, config):
        w_mf, _, w_contam = reference(scen, config)
        return np.stack([w_mf, w_contam, w_contam])

    monkeypatch.setattr(harness, "reference_weights", contaminated_mmse)
    with pytest.raises(AssertionError, match="MMSE below MF"):
        dict(verify._CHECKS)["combine.mmse_dominance"](SEED)


def test_suite_catches_a_planted_frozen_tracker(monkeypatch):
    # a tracker that takes zero steps leaves every trial at its contaminated
    # start: its median never drops, but it must fail to rise
    track = kernels.track_segment

    def frozen(w, x_packet, eta, *args):
        track(w, x_packet, np.zeros_like(eta), *args)

    monkeypatch.setattr(kernels, "track_segment", frozen)
    with pytest.raises(AssertionError, match="median SINR rises by only"):
        dict(verify._CHECKS)["blind.cost_descent"](SEED)


@pytest.mark.parametrize("seed", [34, 35, 37, 38])
def test_cost_descent_holds_at_seeds_its_private_model_failed(seed):
    # the check's earlier private link model dropped its smoothed median
    # by 0.13 dB at each of these seeds, against the 0.1 dB bound
    dict(verify._CHECKS)["blind.cost_descent"](seed)


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
