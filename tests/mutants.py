"""Plausible bugs that Tier-1 must catch, and the tests that catch them.

Run from the repository root:

    python tests/mutants.py

Each entry of ``MUTANTS`` is one mutant: a name, a file, an exact text
edit (old text, new text) and the tests that must kill it.  For each
entry the script copies ``src/``, ``tests/`` and ``pyproject.toml`` to a
temporary directory, applies the edit there and runs the named tests with
pytest (hypothesis seed 0, so a run repeats).  The mutant is killed when
they fail and survives when they pass.  The edit must find its old text
exactly once, and the named tests must pass on an unmutated copy; either
failure stops the script with exit 2, since a kill would then mean
nothing.  One line is printed per mutant; the exit status is 1 if any
survived.  All of them take about 90 s on a 2-vCPU host.  Pytest does
not collect this file (no ``test_`` prefix).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# a mutant that hangs its tests counts as killed after this long
TIMEOUT_S = 300


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = [
    Mutant(
        "tracker R is 1, not the alphabet's dispersion constant",
        "src/cmtmimo/harness.py",
        "R=blind.dispersion_constant(config.alphabet(), 1),",
        "R=1.0,",
        ("tests/test_harness.py::test_tracker_aims_at_the_alphabets_dispersion_constant",),
    ),
    Mutant(
        "eye openings skip each trial's last decision",
        "src/cmtmimo/harness.py",
        "np.minimum.reduceat(np.abs(decisions), bounds[:-1], axis=1)",
        "np.minimum.reduceat(np.abs(decisions[:, :-1]), bounds[:-1], axis=1)",
        ("tests/test_harness.py::test_eye_openings_cover_every_decision",),
    ),
    Mutant(
        "trial groups drop a short last group",
        "src/cmtmimo/harness.py",
        "[range(lo, min(lo + width, num_trials)) for lo in range(0, num_trials, width)]",
        "[range(lo, lo + width) for lo in range(0, num_trials - width + 1, width)]",
        ("tests/test_harness.py::test_csv_bytes_do_not_depend_on_group_width",),
    ),
    Mutant(
        "trial generator keyed on the position in its group",
        "src/cmtmimo/harness.py",
        "trial_rng(config.run.master_seed, trial), sigma_q",
        "trial_rng(config.run.master_seed, t), sigma_q",
        ("tests/test_harness.py::test_csv_bytes_do_not_depend_on_group_width",),
    ),
    Mutant(
        "unnormalized step is mu, not 2 mu",
        "src/cmtmimo/kernels.py",
        "np.full((x_packet.shape[1], x_packet.shape[0]), two_mu)",
        "np.full((x_packet.shape[1], x_packet.shape[0]), mu)",
        ("tests/test_kernels.py::test_kernel_matches_blind_step",),
    ),
    Mutant(
        "sign fixed point cut to one round",
        "src/cmtmimo/kernels.py",
        "for _ in range(n + 1):",
        "for _ in range(1):",
        ("tests/test_kernels.py::test_kernel_matches_blind_step",),
    ),
    Mutant(
        "prototype spectrum mirrored one bin off",
        "src/cmtmimo/cmt.py",
        "half[1 : (size + 1) // 2][::-1]",
        "half[: (size - 1) // 2][::-1]",
        ("tests/test_cmt.py::test_prototype_spectrum_is_the_hermitian_dft",),
    ),
    Mutant(
        "loopback analyses with the unconjugated prototype spectrum",
        "src/cmtmimo/cmt.py",
        "matched = np.conj(prototype, out=prototype)",
        "matched = prototype",
        ("tests/test_cmt.py::test_loopback_matches_its_plain_composition",),
    ),
    Mutant(
        "loopback analyses the spectrum before the stream is taken from it",
        "src/cmtmimo/cmt.py",
        "    x = np.fft.ifft(spectrum, axis=0).ravel()\n"
        "    y = _analysis(spectrum, config, num_frames, matched)[:, interior]\n",
        "    y = _analysis(spectrum, config, num_frames, matched)[:, interior]\n"
        "    x = np.fft.ifft(spectrum, axis=0).ravel()\n",
        ("tests/test_cmt.py::test_loopback_matches_its_plain_composition",),
    ),
    Mutant(
        "multipath pass drops its last tap",
        "src/cmtmimo/cmt.py",
        "zip(delays[1:], gains[1:])",
        "zip(delays[1:-1], gains[1:-1])",
        (
            "tests/test_cmt.py::test_loopback_matches_its_plain_composition",
            "tests/test_cmt.py::test_multipath_pass_matches_fftconvolve_and_direct_form",
        ),
    ),
    Mutant(
        "loopback floor needs two interior symbols",
        "src/cmtmimo/cmt.py",
        "if interior_per_sub < 1 or",
        "if interior_per_sub < 2 or",
        ("tests/test_cmt.py::test_measure_intrinsic_stats_rejects_short_runs",),
    ),
    Mutant(
        "loopback floor message counts at least one interior symbol",
        "src/cmtmimo/cmt.py",
        "max(interior_per_sub, 0)",
        "max(interior_per_sub, 1)",
        ("tests/test_cmt.py::test_measure_intrinsic_stats_rejects_short_runs",),
    ),
    Mutant(
        "kurtosis of q squares once",
        "src/cmtmimo/cmt.py",
        "np.mean(np.square(np.square(q - q.mean())))",
        "np.mean(np.square(q - q.mean()))",
        ("tests/test_golden.py::test_outputs_match_golden[gaussianity]",),
    ),
    Mutant(
        "unequalized kurtosis squares once",
        "src/cmtmimo/cmt.py",
        "np.mean(np.square(np.square(u_c)))",
        "np.mean(np.square(u_c))",
        ("tests/test_golden.py::test_outputs_match_golden[gaussianity]",),
    ),
    Mutant(
        "correlating estimate not divided by tau",
        "src/cmtmimo/airlink.py",
        "frames.T @ pilots.conj().T / tau",
        "frames.T @ pilots.conj().T",
        ("tests/test_harness.py::test_build_scenario_estimator_modes_agree_statistically",),
    ),
    Mutant(
        "direct estimate noise not averaged over the pilot",
        "src/cmtmimo/airlink.py",
        "_add_complex_noise(h_hat, noise_var / pilot_len, rng)",
        "_add_complex_noise(h_hat, noise_var, rng)",
        ("tests/test_airlink.py::test_direct_estimate_noise_level",),
    ),
    Mutant(
        "calibrated sigma_q not scaled by E[s^2]",
        "src/cmtmimo/harness.py",
        "sigma_q_sq * config.alphabet().second_moment",
        "sigma_q_sq",
        ("tests/test_harness.py::test_calibrated_sigma_q_is_the_gaussianity_sigma_q",),
    ),
    Mutant(
        "probe schedule misses the last iteration",
        "src/cmtmimo/harness.py",
        "    stops.add(total)\n",
        "",
        ("tests/test_harness.py::test_probe_schedule_structure",),
    ),
    Mutant(
        "non-finite packet error counts trials from the group",
        "src/cmtmimo/blind.py",
        "trial = first_trial + int(np.argmin(finite.all(axis=(0, 2))))",
        "trial = int(np.argmin(finite.all(axis=(0, 2))))",
        ("tests/test_blind.py::test_run_packet_input_validation",),
    ),
    Mutant(
        "finite-number check skips list keys",
        "src/cmtmimo/config.py",
        "if isinstance(value, list) and not _all_finite(value):",
        "if isinstance(value, tuple) and not _all_finite(value):",
        ("tests/test_cli.py::test_bad_config_value_exits_two_naming_its_key",),
    ),
    Mutant(
        "finite-number check skips the optional list key",
        "src/cmtmimo/config.py",
        "if isinstance(value, list) and not _all_finite(value):",
        "if kind is list and not _all_finite(value):",
        ("tests/test_cli.py::test_bad_config_value_exits_two_naming_its_key",),
    ),
    Mutant(
        "every float key takes +inf",
        "src/cmtmimo/config.py",
        'path != "noise.target_sinr_db" and not _all_finite(value)',
        "not (_all_finite(value) or value == math.inf)",
        ("tests/test_cli.py::test_bad_config_value_exits_two_naming_its_key",),
    ),
    Mutant(
        "noise.target_sinr_db rejects +inf",
        "src/cmtmimo/config.py",
        'path != "noise.target_sinr_db" and not _all_finite(value)',
        "not _all_finite(value)",
        ("tests/test_cli.py::test_infinite_target_sinr_is_still_accepted",),
    ),
    Mutant(
        "an integer beyond the float range escapes the list check",
        "src/cmtmimo/config.py",
        "except OverflowError:",
        "except ZeroDivisionError:",
        ("tests/test_cli.py::test_bad_config_value_exits_two_naming_its_key",),
    ),
    Mutant(
        "a float key takes an integer beyond the float range to float()",
        "src/cmtmimo/config.py",
        "float(value) if kind is float and _all_finite(value) else value",
        "float(value) if kind is float else value",
        ("tests/test_cli.py::test_bad_config_value_exits_two_naming_its_key",),
    ),
    Mutant(
        "blind.probe_dense_every rejects 1",
        "src/cmtmimo/config.py",
        "b.probe_dense_every >= 1",
        "b.probe_dense_every > 1",
        ("tests/test_cli.py::test_simulate_probes_after_every_update",),
    ),
    Mutant(
        "pam_levels accepts a nested list",
        "src/cmtmimo/config.py",
        "if not levels or any(isinstance(x, list) for x in levels):",
        "if not levels:",
        ("tests/test_cli.py::test_bad_config_value_exits_two_naming_its_key",),
    ),
    Mutant(
        "a nan cross-gain passes the topology",
        "src/cmtmimo/topology.py",
        "if not np.all((gains >= 0.0) & (gains <= 1.0)):",
        "if gains.min() < 0.0 or gains.max() > 1.0:",
        ("tests/test_topology.py::test_explicit_topology_validates_invariants",),
    ),
]


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)
    shutil.copytree(ROOT / "tests", dest / "tests", ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _run_tests(tree: Path, tests: tuple[str, ...]) -> tuple[bool, str]:
    """Whether ``tests`` pass in ``tree``, and pytest's last output lines."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
    cmd += ["--hypothesis-seed=0", *tests]
    try:
        done = subprocess.run(
            cmd, cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return False, f"timed out after {TIMEOUT_S} s"
    return done.returncode == 0, "\n".join(done.stdout.splitlines()[-15:])


def main() -> int:
    for mutant in MUTANTS:
        found = (ROOT / mutant.path).read_text().count(mutant.old)
        if found != 1:
            print(f"{mutant.name}: old text found {found} times in {mutant.path}, not once")
            return 2

    with tempfile.TemporaryDirectory(prefix="cmtmimo-mutants-") as tmp:
        baseline = Path(tmp) / "baseline"
        _copy_tree(baseline)
        tests = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        passed, output = _run_tests(baseline, tests)
        if not passed:
            print(f"the named tests fail on the unmutated tree:\n{output}")
            return 2
        survivors = []
        for i, mutant in enumerate(MUTANTS):
            tree = Path(tmp) / f"mutant{i}"
            _copy_tree(tree)
            path = tree / mutant.path
            path.write_text(path.read_text().replace(mutant.old, mutant.new))
            start = time.perf_counter()
            passed, _ = _run_tests(tree, mutant.tests)
            verdict = "SURVIVED" if passed else "killed"
            print(f"{verdict:8}  {time.perf_counter() - start:5.1f} s  {mutant.name}", flush=True)
            if passed:
                survivors.append(mutant.name)
            shutil.rmtree(tree)
    if survivors:
        print(f"{len(survivors)} of {len(MUTANTS)} mutants survived: {', '.join(survivors)}")
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
