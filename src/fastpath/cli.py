"""Command-line entry point.

    fastpath --scenario swap_deadlock.yaml [--seed 7] [--trace-out t.log]
    fastpath --scenario swap_deadlock.yaml --explore 100
    fastpath --check-only recorded-trace.log

Exit status: 0 when every invariant checker passes, 1 on any violation,
2 on a usage error (`--trace-out` with `--explore`, or `--check-only` with
any of `--scenario`, `--seed`, `--explore` or `--trace-out`), when the
scenario cannot be loaded, the `--trace-out` file cannot be written, or
the trace cannot be loaded or holds a record the checkers cannot read. The
summary prints as key=value lines; verdicts cover every registered checker
exactly once.
"""

from __future__ import annotations

import argparse
import hashlib
import sys

from .simnet.invariants import Violation, check_invariants, verdicts
from .simnet.runner import explore_schedules, run
from .simnet.scenario import Scenario, ScenarioError
from .simnet.trace import Trace


def _summary_lines(trace: Trace, violations: list[Violation],
                   scenario_digest: str, seed: int) -> list[str]:
    lines = [
        f"scenario_digest={scenario_digest}",
        f"seed={seed}",
        f"ticks={trace.ticks}",
        f"quiesced={str(trace.quiesced).lower()}",
        f"messages_sent={trace.sent}",
        f"messages_dropped={trace.dropped}",
        f"events={len(trace.events)}",
    ]
    fast_rounds = [e["rounds"] for e in trace.select("fast_driver_finished")
                   if e["status"] == "finalized"]
    unlock_rounds = [e["rounds"] for e in trace.select("unlock_driver_finished")
                     if e["status"] in ("unlocked", "superseded")]
    lines.append(f"fast_path_round_trips={max(fast_rounds) if fast_rounds else 0}")
    lines.append(f"unlock_round_trips={max(unlock_rounds) if unlock_rounds else 0}")
    lines.append(f"unlocks_completed={len(trace.select('unlock_exec'))}")
    for name, verdict in verdicts(violations).items():
        lines.append(f"check.{name}={verdict}")
    return lines


def _print_violations(violations: list[Violation]) -> None:
    for violation in violations:
        print(f"violation.{violation.checker}={violation.message}")


def _file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def _load(scenario_path: str, seed_override: int | None) -> Scenario | None:
    """The scenario with its seed overridden, or None after printing why
    it cannot be loaded."""
    try:
        scenario = Scenario.load(scenario_path)
        if seed_override is not None:
            scenario = scenario.with_seed(seed_override)
    except (ScenarioError, OSError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    return scenario


def cmd_run(scenario_path: str, seed_override: int | None,
            trace_out: str | None) -> int:
    scenario = _load(scenario_path, seed_override)
    if scenario is None:
        return 2
    trace = run(scenario)
    if trace_out:
        try:
            trace.write(trace_out)
        except OSError as exc:
            print(f"error: cannot write the trace: {exc}", file=sys.stderr)
            return 2
    violations = check_invariants(trace)
    for line in _summary_lines(trace, violations, _file_digest(scenario_path),
                               scenario.seed):
        print(line)
    _print_violations(violations)
    return 1 if violations else 0


def cmd_explore(scenario_path: str, count: int,
                seed_override: int | None) -> int:
    scenario = _load(scenario_path, seed_override)
    if scenario is None:
        return 2
    violating = explore_schedules(scenario, count)
    print(f"runs={count}")
    print(f"violating_runs={len(violating)}")
    if not violating:
        return 0
    seed, violations = violating[0]
    print(f"first_violating_seed={seed}")
    _print_violations(violations)
    return 1


def cmd_check_only(trace_path: str) -> int:
    try:
        trace = Trace.load(trace_path)
        violations = check_invariants(trace)
    except (OSError, ValueError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (LookupError, TypeError, AttributeError) as exc:
        # a record lacks a field the checkers read, or holds another type
        print(f"error: unreadable trace record: {type(exc).__name__} {exc}",
              file=sys.stderr)
        return 2
    for name, verdict in verdicts(violations).items():
        print(f"check.{name}={verdict}")
    _print_violations(violations)
    return 1 if violations else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fastpath",
        description="Run seeded protocol scenarios and check the recorded "
                    "traces against the protocol's safety and liveness claims.")
    parser.add_argument("--scenario", metavar="PATH",
                        help="scenario file (YAML or JSON)")
    parser.add_argument("--seed", type=int, metavar="U64",
                        help="override the scenario seed")
    parser.add_argument("--trace-out", metavar="PATH",
                        help="write the trace as line-delimited records")
    parser.add_argument("--explore", type=int, metavar="K",
                        help="run K seeds derived from the base seed")
    parser.add_argument("--check-only", metavar="PATH",
                        help="re-check a recorded trace file")
    args = parser.parse_args(argv)

    if args.check_only is not None:
        if (args.scenario, args.seed, args.explore, args.trace_out) != (None,) * 4:
            parser.error("--check-only takes no --scenario, --seed, --explore or --trace-out")
        return cmd_check_only(args.check_only)
    if not args.scenario:
        parser.error("--scenario or --check-only is required")
    if args.explore is not None:
        if args.explore < 1:
            parser.error("--explore must be at least 1")
        if args.trace_out is not None:
            parser.error("--explore takes no --trace-out")
        return cmd_explore(args.scenario, args.explore, args.seed)
    return cmd_run(args.scenario, args.seed, args.trace_out)


if __name__ == "__main__":
    sys.exit(main())
