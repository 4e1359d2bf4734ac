"""Golden trace digests for the bundled scenarios.

A run is deterministic in its seed, so the sha256 of a serialized trace
pins the whole schedule: every delivery order, tiebreak and recorded
field. Each bundled scenario is pinned at its own seed and at the first
three explore seeds. A change that is meant to leave behaviour alone
(a speed-up, a refactor) must keep every digest; a change that moves one
on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden_traces.py > tests/golden_traces.json

and says why the schedule changed.
"""

import hashlib
import json
import pathlib

import pytest

from fastpath.simnet.runner import derive_seed, run
from fastpath.simnet.scenario import Scenario

ROOT = pathlib.Path(__file__).resolve().parent
SCENARIOS = ROOT.parent / "scenarios"
GOLDEN = ROOT / "golden_traces.json"
EXPLORE_SEEDS = 3


def trace_digests(path: pathlib.Path) -> dict[str, str]:
    """sha256 of the serialized trace, keyed by seed, at the scenario's
    own seed and at the first explore seeds derived from it."""
    scenario = Scenario.load(str(path))
    seeds = [scenario.seed] + [derive_seed(scenario.seed, i)
                               for i in range(EXPLORE_SEEDS)]
    return {str(seed): hashlib.sha256(
                run(scenario.with_seed(seed)).serialize().encode()).hexdigest()
            for seed in seeds}


def all_digests() -> dict[str, dict[str, str]]:
    return {path.name: trace_digests(path)
            for path in sorted(SCENARIOS.glob("*.yaml"))}


def test_every_bundled_scenario_is_pinned():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(p.name for p in SCENARIOS.glob("*.yaml"))
    assert all(len(seeds) == 1 + EXPLORE_SEEDS for seeds in golden.values())


@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIOS.glob("*.yaml")))
def test_trace_digests_unchanged(name):
    golden = json.loads(GOLDEN.read_text())
    assert trace_digests(SCENARIOS / name) == golden[name]


if __name__ == "__main__":
    print(json.dumps(all_digests(), indent=2, sort_keys=True))
