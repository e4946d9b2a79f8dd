"""One benchmarked CLI invocation, timed and optionally traced from inside.

    python3 perfbench/child.py --report R.json --probe loop,fft [--trace] [--setup-only] -- \
        simulate --seed 12345 --out DIR

The parent (``run.py``) starts this script in a fresh interpreter with
``src`` on ``PYTHONPATH``.  It times ``import cmtmimo``, wraps the
experiment functions of ``cmtmimo.harness`` so the experiment call is
timed, and hands the remaining arguments to ``cmtmimo.cli.main``: the run
goes through the real entry point.  Nothing inside the package changes;
every wrapper is installed from here by replacing module attributes.

``--setup-only`` stops at the entry of the experiment, after the CLI has
imported the package and resolved the config, so the parent can time
set-up alone.  ``--trace`` also wraps the entry points in ENTRY_POINTS and
records one span per call.  Entry points that do not exist in the package
under test are skipped and listed as absent.

From before ``import cmtmimo`` to the end, the host-speed probe of
``speed.py`` runs its slices; numpy is imported first, for the probe.

The report JSON carries time.monotonic timestamps (comparable with the
parent's), the experiment's start and end, the probe's slices, the
resolved config, the kernel backend, versions and the trace.
"""

import argparse
import dataclasses
import importlib
import inspect
import json
import math
import sys
import time

from speed import Probe, Slices

EXPERIMENTS = ("run_fig3", "run_eye", "run_gaussianity")

ENTRY_POINTS = (
    "harness.build_scenario",
    "harness.reference_weights",
    "harness.block_sinr",
    "blind.run_packet",
    "kernels.track_segment",
    "airlink.uplink_batch",
    "airlink.make_transmit_symbol",
    "channel.draw_channels",
    "combine.measure_sinr",
    "combine.mmse_weights",
    "cmt.cmt_synthesize",
    "cmt.cmt_demodulate",
    "cmt.measure_intrinsic_stats",
)


def _loopback_samples(args):
    cfg = args["config"]
    return (args["num_frames"] + cfg.overlap_factor) * cfg.num_subcarriers


# Work counters read from the call arguments: entry point -> (counter, count).
WORK = {
    "kernels.track_segment": ("kernels.updates", lambda a: int(a["count"])),
    "airlink.uplink_batch": ("airlink.symbols", lambda a: int(a["symbols"].shape[-1])),
    "cmt.measure_intrinsic_stats": ("cmt.samples", _loopback_samples),
}


class SetupDone(Exception):
    """Raised at the experiment entry in --setup-only mode."""


class Tracer:
    """In-memory spans around public entry points of the package.

    A span is [name, parent index, start, end] in time.monotonic seconds;
    the parent is the span open when the call began (-1 for the root).
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counters = {counter: 0 for counter, _ in WORK.values()}
        self.nonfinite_probes = 0
        self.absent = []

    def wrap(self, name, fn):
        work = WORK.get(name)
        signature = inspect.signature(fn) if work else None

        def traced(*args, **kwargs):
            if work:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counters[work[0]] += work[1](bound.arguments)
            record = [name, self.stack[-1] if self.stack else -1, time.monotonic(), 0.0]
            self.stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.monotonic()
                self.stack.pop()
            if name == "harness.block_sinr" and not math.isfinite(result):
                self.nonfinite_probes += 1
            return result

        return traced

    def install(self, entry_points=ENTRY_POINTS):
        for name in entry_points:
            module_name, func_name = name.split(".")
            try:
                module = importlib.import_module(f"cmtmimo.{module_name}")
            except ImportError:
                self.absent.append(name)
                continue
            fn = getattr(module, func_name, None)
            if not callable(fn):
                self.absent.append(name)
                continue
            replace(fn, self.wrap(name, fn))

    def summary(self, slices):
        """Calls and inclusive seconds per entry point, plus root self time.

        Seconds leave out the probe's slices (a ``speed.Slices``) that ran
        inside each span.
        """
        layers = {}
        root_s = children_s = 0.0
        for name, parent, start, end in self.spans:
            net = end - start - slices.within(start, end)[1]
            entry = layers.setdefault(name, {"calls": 0, "s": 0.0})
            entry["calls"] += 1
            entry["s"] += net
            if parent == -1:
                root_s += net
            elif self.spans[parent][1] == -1:
                children_s += net
        return {
            "layers": layers,
            "counters": self.counters,
            "nonfinite_probes": self.nonfinite_probes,
            "absent": self.absent,
            "self_s": root_s - children_s,
            "spans": self.spans,
        }


def replace(original, wrapper):
    """Rebind every cmtmimo module attribute that refers to ``original``."""
    for module_name, module in list(sys.modules.items()):
        if module_name != "cmtmimo" and not module_name.startswith("cmtmimo."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _versions():
    import numpy

    blas = None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    scipy = sys.modules.get("scipy")
    kernels = sys.modules.get("cmtmimo.kernels")
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": getattr(scipy, "__version__", None),
        "blas": blas,
        "backend": getattr(kernels, "BACKEND", None),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--probe", required=True, help="comma-separated parts of the speed probe's slice")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    opts = parser.parse_args()
    cli_args = opts.cli_args[1:] if opts.cli_args[:1] == ["--"] else opts.cli_args

    report = {}
    parts = opts.probe.split(",")
    probe = Probe(parts)
    probe.start()
    try:
        t0 = time.monotonic()
        import cmtmimo
        import cmtmimo.cli

        report["import_start"], report["import_end"] = t0, time.monotonic()
        report["package_file"] = cmtmimo.__file__

        tracer = Tracer() if opts.trace else None
        if tracer:
            tracer.install()

        for name in EXPERIMENTS:
            experiment = getattr(cmtmimo.harness, name)
            inner = tracer.wrap(f"harness.{name}", experiment) if tracer else experiment

            def timed(config, *args, _inner=inner, **kwargs):
                report["setup_end"] = time.monotonic()
                report["config"] = dataclasses.asdict(config)
                if opts.setup_only:
                    raise SetupDone
                report["run_start"] = time.monotonic()
                result = _inner(config, *args, **kwargs)
                report["run_end"] = time.monotonic()
                return result

            replace(experiment, timed)

        try:
            code = cmtmimo.cli.main(cli_args)
        except SetupDone:
            code = 0
    finally:
        probe.stop()
    report["exit_code"] = code
    report["slices"] = probe.slices
    report["versions"] = _versions()
    if tracer:
        report["trace"] = tracer.summary(Slices(probe.slices, parts))
    with open(opts.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
