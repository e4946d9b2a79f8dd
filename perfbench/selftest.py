"""Fast self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at a tiny size, untraced and traced, through the same
code as ``run.py`` and checks the result schema: the four keys, a correct
run with no failures, and exactly the metric names and units that
BENCHMARK.json declares.  It also checks that the tracer lists entry
points missing from the package as absent instead of failing, that the
traced runs see the layers each workload is meant to stress, and that
reference seconds undo a uniform slow-down of the host.
Exits nonzero on the first failed check.
"""

import json
import math
import os
import sys

import run
from child import Tracer
from speed import REFERENCE_S, Slices
from workloads import WORKLOADS, Workload

TINY = {
    "simulate": ("--trials", "2", "--override", "blind.passes=2"),
    "gaussianity": (
        "--override", "channel.num_subcarriers=16", "--override", "channel.subcarrier_index=3",
        "--override", "cmt.overlap_factor=4", "--override", "cmt.num_frames=6300",
    ),
    "eye": ("--trials", "2"),
}


def check(condition, message):
    if not condition:
        print(f"selftest FAILED: {message}")
        sys.exit(1)


def check_result(result, declared, name):
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{name}: keys {set(result)}")
    check(result["correct"] is True, f"{name}: run not correct")
    check(result["failed"] == 0 and result["attempted"] >= 1, f"{name}: {result}")
    metrics = result["metrics"]
    check(list(metrics) == [m["name"] for m in declared], f"{name}: metric names {list(metrics)}")
    for m in declared:
        got = metrics[m["name"]]
        check(got["unit"] == m["unit"], f"{name}: {m['name']} unit {got['unit']}")
        check(isinstance(got["value"], (int, float)) and math.isfinite(got["value"]),
              f"{name}: {m['name']} value {got['value']}")


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    check([w["name"] for w in bench["workloads"]] == list(WORKLOADS), "workload names")

    for name, workload in WORKLOADS.items():
        tiny = Workload(name, workload.cli_args[:1] + TINY[name], workload.probe)
        for trace, declared in ((False, bench["end_to_end"]), (True, bench["per_layer"])):
            result, record = run.measure(tiny, seed=7, seconds=0, trace=trace, setup_probes=1)
            check_result(result, declared, f"{name} trace={int(trace)}")
            check(record["digests"], f"{name}: no CSV digests recorded")
        layers = result["metrics"]
        cmt_calls = layers["cmt.cmt_synthesize.calls"]["value"]
        kernel_calls = layers["kernels.track_segment.calls"]["value"]
        check((cmt_calls > 0) == (name == "gaussianity"), f"{name}: CMT calls {cmt_calls}")
        check((kernel_calls > 0) == (name != "gaussianity"), f"{name}: kernel calls {kernel_calls}")
        print(f"selftest {name}: ok")

    sys.path.insert(0, run.SRC)
    tracer = Tracer()
    tracer.install(("kernels.track_segment", "kernels.no_such_entry", "no_such_module.f"))
    check(tracer.absent == ["kernels.no_such_entry", "no_such_module.f"], f"absent {tracer.absent}")

    # A host 2x slower than the reference: 1 s of the program's work takes
    # 2 s, and every 0.1 s a slice takes twice the reference slice time.
    slow = 2 * (REFERENCE_S["loop"] + REFERENCE_S["fft"])
    slices = Slices([(0.1 * k, 0.1 * k + slow) for k in range(1, 20)], ("loop", "fft"))
    wall = 2.0 + slices.within(0.0, 2.0)[1]
    check(math.isclose(slices.reference_s(0.0, wall), 1.0), f"reference_s {slices.reference_s(0.0, wall)}")
    check(slices.reference_s(5.0, 6.0) is None, "reference_s of an interval without slices")
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
