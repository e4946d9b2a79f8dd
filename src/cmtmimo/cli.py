"""Command-line entry point.

Subcommands map one-to-one onto the harness experiments plus the
invariant suite:

    cmtmimo simulate    SINR trajectories (trajectory.csv, summary.csv)
    cmtmimo eye         eye-pattern samples (eye.csv, eye_opening.csv)
    cmtmimo gaussianity CMT loopback statistics (stats.csv)
    cmtmimo verify      cross-module invariant checks

Every subcommand accepts --config (YAML), --seed, --trials, --out, and
repeatable --override key=value pairs applied after the file; the file
and its overrides are validated together.
``simulate`` and ``eye`` end with one line per stage of the run: its
work count and its seconds, summed over the worker processes.

A bad config, a config the experiment rejects (for example a CMT loopback
too short for its sample floor), a run too large for memory or a
diverging tracker ends the run with one ``cmtmimo: error: ...`` line on
stderr and no CSV: exit code 2 for the config and for memory, 1 for the
divergence.
"""

from __future__ import annotations

import argparse
import statistics
import sys

from . import harness, verify
from .config import assign_override, read_config, validate_config


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", default=None, help="YAML config file")
    sub.add_argument("--seed", type=int, default=None, help="override run.master_seed")
    sub.add_argument("--trials", type=int, default=None, help="override run.num_trials")
    sub.add_argument("--out", default=None, help="override run.out_dir")
    sub.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="dotted config override, e.g. blind.mu=0.02 (repeatable)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmtmimo",
        description="Multi-cell massive-MIMO uplink experiments with blind tracking",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, text in [
        ("simulate", "run the SINR-trajectory experiment"),
        ("eye", "run the eye-pattern experiment"),
        ("gaussianity", "measure CMT loopback statistics"),
        ("verify", "run the invariant suite"),
    ]:
        _add_common(subparsers.add_parser(name, help=text))
    return parser


def _resolve_config(args: argparse.Namespace):
    """The config file with every override and flag applied, validated once."""
    config = read_config(args.config)
    for item in args.override:
        assign_override(config, item)
    if args.seed is not None:
        config.run.master_seed = args.seed
    if args.trials is not None:
        config.run.num_trials = args.trials
    if args.out is not None:
        config.run.out_dir = args.out
    return validate_config(config)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args.command, _resolve_config(args))
    except ValueError as exc:
        print(f"cmtmimo: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"cmtmimo: error: the run does not fit in memory: {exc}", file=sys.stderr)
        return 2
    except FloatingPointError as exc:
        print(f"cmtmimo: error: {exc}", file=sys.stderr)
        return 1


def _print_stages(stages) -> None:
    for name, stage in stages.items():
        print(f"stage {name}: {stage.count} {stage.unit} in {stage.seconds:.3f} s")


def _run(command: str, config) -> int:
    if command == "verify":
        results = verify.run_verify(config.run.master_seed)
        print(verify.format_report(results))
        return 0 if all(r.passed for r in results) else 1

    if command == "simulate":
        result = harness.run_fig3(config)
        print(f"wrote {result['trajectory_csv']}")
        print(f"wrote {result['summary_csv']}")
        finals = result["sinrs"][:, -1].tolist()
        print(
            f"{len(finals)} trials, final blind SINR "
            f"median {statistics.median(finals):.2f} dB"
        )
        _print_stages(result["stages"])
    elif command == "eye":
        result = harness.run_eye(config)
        print(f"wrote {result['eye_csv']}")
        print(f"wrote {result['eye_opening_csv']}")
        openings = result["openings"]
        improved = int(sum(row[-1] > row[0] for row in openings))
        print(f"eye opening improved in {improved}/{len(openings)} trials")
        _print_stages(result["stages"])
    elif command == "gaussianity":
        result = harness.run_gaussianity(config)
        stats = result["stats"]
        print(f"wrote {result['stats_csv']}")
        print(
            f"sigma_q_sq {stats.sigma_q_sq:.4f}, kurt(q) {stats.kurtosis_imag:.3f}, "
            f"kurt(unequalized) {stats.kurtosis_real_unequalized:.3f}, "
            f"err rate {stats.real_part_alphabet_error_rate:g}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
