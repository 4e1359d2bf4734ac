"""Golden trace digests for the bundled scenarios.

A run is deterministic in its seed, so the sha256 of a serialized trace
pins the whole schedule: every delivery order, tiebreak and recorded
field. Each bundled scenario is pinned at its own seed and at the first
three explore seeds. Only counter_race.yaml declares a fault, so each
fault kind is pinned as well, on a builder run where that kind changes the
events (`golden_fault_traces.json`). A change that is meant to leave
behaviour alone (a speed-up, a refactor) must keep every digest; a change
that moves one on purpose regenerates both files with

    PYTHONPATH=src python tests/test_golden_traces.py

and says why the schedule changed. A change that stops recording an event
kind moves every digest whose run recorded it, with the schedule unmoved.
If a fault kind's pinned runs then record nothing that the honest runs do
not, `FAULT_BASE_SEED` moves on to the next base its rule allows.
"""

import hashlib
import json
import pathlib

import pytest

from fastpath.simnet.runner import derive_seed, run
from fastpath.simnet.scenario import FAULT_KINDS, Scenario
from scenario_builders import bounded_spend, swap_deadlock

ROOT = pathlib.Path(__file__).resolve().parent
SCENARIOS = ROOT.parent / "scenarios"
GOLDEN = ROOT / "golden_traces.json"
FAULT_GOLDEN = ROOT / "golden_fault_traces.json"
EXPLORE_SEEDS = 3
# Fault kinds run on v0 at the first explore seeds of this base, on the
# builder where the kind changes the events: a swap deadlock for every kind
# but infinite_budget, which only a bounded counter's drain exercises. The
# base is the first from 5 up at which every kind changes the events of at
# least one of its runs.
FAULT_BASE_SEED = 7
FAULT_BUILDERS = {"infinite_budget": bounded_spend}


def _digest(trace) -> str:
    return hashlib.sha256(trace.serialize().encode()).hexdigest()


def trace_digests(path: pathlib.Path) -> dict[str, str]:
    """sha256 of the serialized trace, keyed by seed, at the scenario's
    own seed and at the first explore seeds derived from it."""
    scenario = Scenario.load(str(path))
    seeds = [scenario.seed] + [derive_seed(scenario.seed, i)
                               for i in range(EXPLORE_SEEDS)]
    return {str(seed): _digest(run(scenario.with_seed(seed)))
            for seed in seeds}


def all_digests() -> dict[str, dict[str, str]]:
    return {path.name: trace_digests(path)
            for path in sorted(SCENARIOS.glob("*.yaml"))}


def fault_runs(kind: str):
    """(seed, trace) of `kind` on v0 at each pinned seed."""
    build = FAULT_BUILDERS.get(kind, swap_deadlock)
    seeds = [derive_seed(FAULT_BASE_SEED, i) for i in range(EXPLORE_SEEDS)]
    return [(seed, run(build(seed, fault=kind, fault_vid=0))) for seed in seeds]


def fault_digests() -> dict[str, dict[str, str]]:
    return {kind: {str(seed): _digest(trace) for seed, trace in fault_runs(kind)}
            for kind in sorted(FAULT_KINDS)}


def test_every_bundled_scenario_is_pinned():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(p.name for p in SCENARIOS.glob("*.yaml"))
    assert all(len(seeds) == 1 + EXPLORE_SEEDS for seeds in golden.values())


@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIOS.glob("*.yaml")))
def test_trace_digests_unchanged(name):
    golden = json.loads(GOLDEN.read_text())
    assert trace_digests(SCENARIOS / name) == golden[name]


def test_every_fault_kind_is_pinned():
    golden = json.loads(FAULT_GOLDEN.read_text())
    assert sorted(golden) == sorted(FAULT_KINDS)
    assert all(len(seeds) == EXPLORE_SEEDS for seeds in golden.values())


@pytest.mark.parametrize("kind", sorted(FAULT_KINDS))
def test_fault_trace_digests_unchanged(kind):
    golden = json.loads(FAULT_GOLDEN.read_text())
    runs = fault_runs(kind)
    assert {str(seed): _digest(trace) for seed, trace in runs} == golden[kind]
    if kind != "honest":
        # a fault hook that is never called would pin honest behaviour
        build = FAULT_BUILDERS.get(kind, swap_deadlock)
        assert any(trace.events != run(build(seed, fault="honest")).events
                   for seed, trace in runs)


if __name__ == "__main__":
    for path, digests in ((GOLDEN, all_digests()),
                          (FAULT_GOLDEN, fault_digests())):
        path.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
