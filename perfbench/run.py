"""Benchmark of the cmtmimo command-line experiments.

    python3 perfbench/run.py --workload simulate --seed 12345 --seconds 35 --trace 0
    python3 perfbench/run.py                # every workload, default seed

Run it from anywhere; it works on the checkout it sits in, whose package
is imported from ``src``.  Each workload is one CLI subcommand (see
``workloads.py``), run through ``cmtmimo.cli.main`` in a fresh child
process, one child at a time: a closed loop with a single client.  Every
child runs with one BLAS/OpenMP thread.

A run times set-up alone in SETUP_PROBES children (the first one also
checks that the CLI starts at all), then runs the workload in up to
MAX_ROUNDS rounds of children while ``--seconds`` allow (at least once; a
round is not started when the last one shows it would not fit).  With ``--trace 1``
each round runs an untraced and a traced child; the traced one records
spans around the package's public entry points (see ``child.py``) and
gives the per-layer metrics.  End-to-end metrics always come from
untraced children and are medians over the run.

Every time reported is in reference seconds: wall or CPU time less the
host-speed probe's slices, scaled by the host speed the probe measured
inside the child over the same interval (see ``speed.py``).  This takes
out the drift of the shared host's core speed, which otherwise spreads
the times of identical runs by 20-30%.  The raw times go to the results
file beside them.

Every workload child's CSVs are checked (file set, row counts against
the resolved config, finite values) and hashed.  All children of a run,
and all runs with one seed on one source tree, must write byte-identical
CSVs.  Details, provenance, host-noise diagnostics and spans go to
``perfbench/results/``.  The last line of standard output is one JSON
object: correct, attempted, failed and the metrics with their units.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

from child import ENTRY_POINTS, WORK
from speed import Slices
from workloads import WORKLOADS, check_outputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "results")
DEFAULT_SEED = 12345
SETUP_PROBES = 2
MAX_ROUNDS = 3
DEADLINE_S = 170.0  # a run must end within 180 s
THREAD_ENV = {
    var: "1"
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "process_s": "s",
    "cpu_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    **{f"{ep}.{key}": unit for ep in ENTRY_POINTS for key, unit in (("calls", "count"), ("s", "s"))},
    **{counter: "count" for counter, _ in WORK.values()},
    "kernels.updates_per_s": "1/s",
    "combine.probes_per_s": "1/s",
    "airlink.symbols_per_s": "1/s",
    "cmt.samples_per_s": "1/s",
    "harness.self_s": "s",
    "setup.import_s": "s",
    "combine.nonfinite_probes": "count",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
    "host.steal_s": "s",
    "host.nivcsw": "count",
    "host.wait_s": "s",
    "host.slice_ms": "ms",
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _steal_s():
    """Steal time of the whole host so far, from /proc/stat (read only)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def spawn(workload, seed, mode, deadline):
    """Run one child ('setup', 'plain' or 'traced') and measure it."""
    report_path = os.path.join(OUT, "child-report.json")
    out_dir = os.path.join(OUT, "csv")
    if os.path.exists(report_path):
        os.remove(report_path)
    shutil.rmtree(out_dir, ignore_errors=True)
    flags = {"setup": ["--setup-only"], "plain": [], "traced": ["--trace"]}[mode]
    cmd = [
        sys.executable, os.path.join(HERE, "child.py"), "--report", report_path,
        "--probe", ",".join(workload.probe), *flags,
        "--", *workload.cli_args, "--seed", str(seed), "--out", out_dir,
    ]
    pythonpath = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, **THREAD_ENV, PYTHONPATH=pythonpath)
    log_path = os.path.join(OUT, "child.log")
    steal_before = _steal_s()
    with open(log_path, "w", encoding="utf-8") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(deadline - t_spawn, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        t_end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu_s = usage.ru_utime + usage.ru_stime
    sample = {
        "mode": mode,
        "process_s": t_end - t_spawn,
        "cpu_s": cpu_s,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "host.nivcsw": usage.ru_nivcsw,
        "host.steal_s": _steal_s() - steal_before,
        "host.wait_s": t_end - t_spawn - cpu_s,
        "problems": [],
    }
    if proc.returncode != 0 or not os.path.exists(report_path):
        with open(log_path, encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-2000:]
        sample["problems"].append(f"child exited with {proc.returncode}: {tail}")
        return sample
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    if "setup_end" not in report or (mode != "setup" and "run_end" not in report):
        sample["problems"].append("the CLI did not call a harness experiment")
        return sample
    slices = Slices(report["slices"], workload.probe)
    scale = slices.scale(t_spawn, t_end)
    if scale is None:
        sample["problems"].append("the host-speed probe ran no slice")
        return sample
    slice_count, slice_s = slices.within(t_spawn, t_end)
    sample["slice_ms"] = 1000.0 * slice_s / slice_count
    sample["raw.process_s"] = sample["process_s"]
    sample["raw.cpu_s"] = cpu_s
    sample["process_s"] = slices.reference_s(t_spawn, t_end)
    sample["cpu_s"] = (cpu_s - slice_s) * scale
    setup_end = report["setup_end"]
    setup_scale = slices.scale(t_spawn, setup_end) or scale
    sample["raw.setup_s"] = setup_end - t_spawn
    sample["setup_s"] = slices.reference_s(t_spawn, setup_end, setup_scale)
    sample["import_s"] = slices.reference_s(report["import_start"], report["import_end"], setup_scale)
    sample["versions"] = report["versions"]
    if not report["package_file"].startswith(SRC + os.sep):
        sample["problems"].append(f"imported {report['package_file']}, not the package in {SRC}")
    if mode != "setup":
        cfg = report["config"]
        start, end = report["run_start"], report["run_end"]
        sample["run_scale"] = slices.scale(start, end) or scale
        sample["raw.run_s"] = end - start
        sample["run_s"] = slices.reference_s(start, end, sample["run_scale"])
        sample["work_per_s"] = workload.work(cfg) / sample["run_s"]
        sample["digests"], problems = check_outputs(workload, cfg, out_dir)
        sample["problems"] += problems
        sample["trace"] = report.get("trace")
    return sample


def source_digest():
    """SHA-256 over the files under src, so digests are kept per program."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__" and not d.endswith(".egg-info"))
        for name in sorted(filenames):
            if name.endswith((".pyc", ".so")):
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _check_digest_store(key, digests):
    """Compare with the digests of earlier runs of this key; add them if new."""
    path = os.path.join(OUT, "digests.json")
    store = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            store = json.load(fh)
    if key in store:
        return [] if store[key] == digests else [f"CSVs differ from an earlier run: {store[key]}"]
    store[key] = digests
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(store, fh, indent=1)
    return []


def _provenance(versions):
    commit = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        ).stdout.strip() or None
    except OSError:
        pass
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "commit": commit,
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        **versions,
        "thread_env": THREAD_ENV,
    }


def _median(samples, key):
    return statistics.median(s[key] for s in samples)


def _layer_metrics(traced, plain, setups):
    """Per-layer metrics from the traced children of a run."""
    per_run = []
    for sample in traced:
        t = sample["trace"]
        scale = sample["run_scale"]
        m = {}
        for ep in ENTRY_POINTS:
            layer = t["layers"].get(ep, {})
            m[f"{ep}.calls"] = layer.get("calls", 0)
            m[f"{ep}.s"] = layer.get("s", 0.0) * scale
        m.update(t["counters"])
        for name, count, ep in (
            ("kernels.updates_per_s", m["kernels.updates"], "kernels.track_segment"),
            ("combine.probes_per_s", m["harness.block_sinr.calls"], "harness.block_sinr"),
            ("airlink.symbols_per_s", m["airlink.symbols"], "airlink.uplink_batch"),
            ("cmt.samples_per_s", m["cmt.samples"], "cmt.measure_intrinsic_stats"),
        ):
            seconds = m[f"{ep}.s"]
            m[name] = count / seconds if seconds > 0 else 0.0
        m["harness.self_s"] = t["self_s"] * scale
        m["combine.nonfinite_probes"] = t["nonfinite_probes"]
        per_run.append(m)
    metrics = {name: statistics.median(m[name] for m in per_run) for name in per_run[0]}
    metrics["setup.import_s"] = _median(setups + plain, "import_s")
    metrics["trace.run_s"] = _median(traced, "run_s")
    metrics["trace.overhead_s"] = metrics["trace.run_s"] - _median(plain, "run_s")
    for name in ("host.steal_s", "host.nivcsw", "host.wait_s"):
        metrics[name] = _median(plain + traced, name)
    metrics["host.slice_ms"] = _median(setups + plain + traced, "slice_ms")
    return metrics


def measure(workload, seed, seconds, trace, setup_probes=SETUP_PROBES):
    """One benchmark run; returns (result line, detailed record)."""
    if not os.path.isfile(os.path.join(SRC, "cmtmimo", "cli.py")):
        raise BenchError(f"no cmtmimo package under {SRC}")
    os.makedirs(OUT, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    setups = [spawn(workload, seed, "setup", deadline)]
    if setups[0]["problems"]:
        raise BenchError(f"the CLI does not start: {setups[0]['problems'][0]}")
    setups += [spawn(workload, seed, "setup", deadline) for _ in range(setup_probes - 1)]
    modes = ("plain", "traced") if trace else ("plain",)
    runs = []
    spent = last = 0.0
    while not runs or (spent + last <= seconds and len(runs) < MAX_ROUNDS * len(modes)):
        start = time.monotonic()
        runs += [spawn(workload, seed, mode, deadline) for mode in modes]
        last = time.monotonic() - start
        spent += last

    children = setups + runs
    failed = [s for s in children if s["problems"]]
    good_setups = [s for s in setups if not s["problems"]]
    plain = [s for s in runs if s["mode"] == "plain" and not s["problems"]]
    traced = [s for s in runs if s["mode"] == "traced" and not s["problems"]]
    if not plain or (trace and not traced):
        raise BenchError(f"every workload run failed: {failed[0]['problems'][0]}")

    problems = [p for s in failed for p in s["problems"]]
    digests = plain[0]["digests"]
    if any(s["digests"] != digests for s in plain + traced):
        problems.append("children of one run wrote different CSVs")
    provenance = _provenance(plain[0]["versions"])
    key = f"{provenance['source_sha256']} {' '.join(workload.cli_args)} --seed {seed}"
    problems += _check_digest_store(key, digests)

    if trace:
        values = _layer_metrics(traced, plain, good_setups)
        units = PER_LAYER
    else:
        values = {name: _median(plain, name) for name in END_TO_END if name != "setup_s"}
        values["setup_s"] = _median(good_setups + plain, "setup_s")
        units = END_TO_END
    result = {
        "correct": not problems,
        "attempted": len(children),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "workload": workload.name,
        "cli_args": list(workload.cli_args),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "provenance": provenance,
        "digests": digests,
        "problems": problems,
        "absent": traced[0]["trace"]["absent"] if traced else [],
        "children": [{k: v for k, v in s.items() if k != "trace"} for s in children],
        "result": result,
    }
    stem = f"{workload.name}-seed{seed}-trace{int(trace)}"
    with open(os.path.join(OUT, f"{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if traced:
        with open(os.path.join(OUT, f"{stem}-spans.json"), "w", encoding="utf-8") as fh:
            json.dump({"spans": [s["trace"]["spans"] for s in traced]}, fh)
    return result, record


def report(result, record):
    """Human-readable summary of one run."""
    attempted, failed = result["attempted"], result["failed"]
    print(
        f"== {record['workload']} seed {record['seed']} trace {int(record['trace'])}: "
        f"{sum(c['mode'] != 'setup' for c in record['children'])} workload run(s), "
        f"failed {failed}/{attempted} ({100.0 * failed / attempted:.1f}%), "
        f"correct {result['correct']}"
    )
    for name, metric in result["metrics"].items():
        print(f"  {name:<36} {metric['value']:>16.6g} {metric['unit']}")
    for c in record["children"]:
        if c["mode"] != "setup" and "slice_ms" in c:
            print(f"  {c['mode']} child: run_s {c['raw.run_s']:.3f} s raw, {c['run_s']:.3f} s reference, "
                  f"slice {c['slice_ms']:.3f} ms")
    for name, digest in record["digests"].items():
        print(f"  sha256 {name:<20} {digest}")
    if record["absent"]:
        print(f"  absent entry points: {', '.join(record['absent'])}")
    runs = [c for c in record["children"] if c["mode"] != "setup"]
    print("  host per run: " + "; ".join(
        f"steal_s {c['host.steal_s']:.2f} nivcsw {c['host.nivcsw']} wait_s {c['host.wait_s']:.2f}"
        for c in runs
    ))
    prov = record["provenance"]
    print("  provenance: " + ", ".join(f"{k} {v}" for k, v in prov.items() if k != "thread_env")
          + f", threads {','.join(f'{k}={v}' for k, v in prov['thread_env'].items())}")
    for problem in record["problems"]:
        print(f"  PROBLEM: {problem}")


def main(argv=None):
    # On SIGTERM, unwind through spawn() so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            result, record = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
            report(result, record)
            results[name] = result
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        line = results[names[0]]
    else:
        line = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
