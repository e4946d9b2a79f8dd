"""Workloads of the benchmark and the checks on their outputs.

Each workload is one CLI subcommand with fixed arguments.  Its expected
CSV files, their row counts and its work count are derived here from the
resolved config the child reports, independently of the package's own
code, so a change that drops or adds rows fails the check.
"""

import hashlib
import math
import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    cli_args: tuple  # subcommand and its arguments, without --seed/--out
    probe: tuple = ("loop", "fft")  # parts of the host-speed probe's slice, see speed.py

    def expected_rows(self, cfg):
        """Data rows (header excluded) of each CSV the run must write."""
        run = cfg["run"]
        trials = run["num_trials"]
        if self.name == "simulate":
            b = cfg["blind"]
            probes = len(probe_schedule(b, b["packet_len"] * b["passes"]))
            return {"trajectory.csv": trials * probes, "summary.csv": trials}
        if self.name == "eye":
            total = _eye_updates(cfg)
            buckets = cfg["eye"]["num_buckets"]
            bounds = [b * total // buckets for b in range(buckets + 1)]
            per_trial = sum(
                min(cfg["eye"]["samples_per_bucket"], hi - lo)
                for lo, hi in zip(bounds, bounds[1:])
            )
            return {"eye.csv": trials * per_trial, "eye_opening.csv": trials * buckets}
        return {"stats.csv": 1}

    def work(self, cfg):
        """Deterministic work count: tracker updates, or loopback symbols."""
        trials = cfg["run"]["num_trials"]
        if self.name == "simulate":
            return trials * cfg["blind"]["passes"] * cfg["blind"]["packet_len"]
        if self.name == "eye":
            return trials * _eye_updates(cfg)
        return cfg["channel"]["num_subcarriers"] * cfg["cmt"]["num_frames"]


def _eye_updates(cfg):
    packet = cfg["blind"]["packet_len"]
    return -(-cfg["eye"]["updates"] // packet) * packet


def probe_schedule(b, total):
    """Iterations at which the trajectory experiment probes the SINR."""
    stops = set(range(0, min(b["probe_dense_until"], total) + 1, b["probe_dense_every"]))
    stops.update(range(0, min(b["probe_mid_until"], total) + 1, b["probe_mid_every"]))
    stops.update(range(0, total + 1, b["probe_sparse_every"]))
    stops.add(total)
    return sorted(stops)


# Why each workload was chosen is stated in BENCHMARK.json.  eye runs 200
# trials instead of the default 20 so that the run outweighs the import.
# gaussianity streams arrays of megabytes through its filter banks, and its
# times follow the host's speed best when the probe streams memory too;
# the other two loop over small vectors, and a stream part spreads theirs.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("simulate", ("simulate",)),
        Workload("gaussianity", ("gaussianity",), ("loop", "fft", "stream")),
        Workload("eye", ("eye", "--trials", "200")),
    )
}


def check_outputs(workload, cfg, out_dir):
    """SHA-256 of each CSV, and a list of problems (empty when correct).

    Checks that exactly the expected CSVs exist, that each has the expected
    number of rows with as many fields as its header, and that every value
    is a finite number.
    """
    expected = workload.expected_rows(cfg)
    problems = []
    present = sorted(f for f in os.listdir(out_dir) if f.endswith(".csv"))
    if present != sorted(expected):
        problems.append(f"CSV files {present}, expected {sorted(expected)}")
    digests = {}
    for name in sorted(set(present) & set(expected)):
        path = os.path.join(out_dir, name)
        with open(path, "rb") as fh:
            data = fh.read()
        digests[name] = hashlib.sha256(data).hexdigest()
        lines = data.decode("utf-8").splitlines()
        width = len(lines[0].split(",")) if lines else 0
        rows = lines[1:]
        if len(rows) != expected[name]:
            problems.append(f"{name}: {len(rows)} rows, expected {expected[name]}")
        for number, line in enumerate(rows, start=2):
            fields = line.split(",")
            if len(fields) != width or not all(_finite(v) for v in fields):
                problems.append(f"{name}:{number}: malformed or non-finite row {line!r}")
                break
    return digests, problems


def _finite(text):
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False
