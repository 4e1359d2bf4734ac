"""Tests of the benchmark's own machinery.

Run from the repository root with `python3 -m pytest perfbench/tests`.
"""

import contextlib
import io
import itertools
import json
import sys

import pytest

import run
import spans
from spans import Instrumentation, SpanRecorder, leftover_wrappers, roots, \
    self_times
from workloads import WORKLOADS, outcome

BENCHMARK_JSON = run.BENCH_DIR.parent / "BENCHMARK.json"


@pytest.fixture(scope="module")
def simnet():
    return run.load_program()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_deterministic_in_the_seed(name, simnet):
    build = WORKLOADS[name].build
    first = build(7)
    assert first == build(7)
    assert first != build(8)
    # plain data only: the program sees the dicts and nothing else
    assert json.loads(json.dumps(first)) == first
    for data in first:
        simnet.Scenario.from_dict(data)


def test_self_time_on_nested_spans():
    ticks = itertools.count(0, 10)
    recorder = SpanRecorder(clock=lambda: next(ticks))
    leaf = recorder.wrap("leaf", lambda: None)
    middle = recorder.wrap("middle", lambda: (leaf(), leaf()))
    outer = recorder.wrap("outer", lambda: (middle(), leaf()))
    recorder.run_id = 3
    outer()

    names = [recorder.names[i] for i in recorder.column("name")]
    assert names == ["outer", "middle", "leaf", "leaf", "leaf"]
    parents = list(recorder.column("parent"))
    assert parents == [-1, 0, 1, 1, 0]
    assert set(recorder.column("run")) == {3}
    durations = [e - s for s, e in zip(recorder.column("start"),
                                       recorder.column("end"))]
    # clock reads: outer 0..90, middle 10..60, leaves 20..30, 40..50, 70..80
    assert durations == [90, 50, 10, 10, 10]
    assert list(self_times(parents, durations)) == [30, 30, 10, 10, 10]
    assert list(roots(parents)) == [0, 0, 0, 0, 0]


def test_self_times_of_hand_built_spans():
    parents = [-1, 0, 1, 0, -1, 4]
    durations = [100, 60, 25, 30, 40, 40]
    assert list(self_times(parents, durations)) == [10, 35, 25, 30, 0, 40]
    assert list(roots(parents)) == [0, 0, 0, 0, 4, 4]


def test_wrapper_counts_errors_and_keeps_the_stack_balanced():
    recorder = SpanRecorder()

    def fails():
        raise ValueError("no")

    wrapped = recorder.wrap("fails", fails)
    with pytest.raises(ValueError):
        wrapped()
    assert recorder.errors["fails"] == 1
    assert recorder.stack == []
    assert len(recorder) == 1


def _bindings():
    """Identity of every binding the instrumentation may replace."""
    found = {}
    for mod in spans._program_modules():
        for key, value in vars(mod).items():
            if callable(value):
                found[(mod.__name__, key)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, raw in vars(value).items():
                    found[(mod.__name__, key, attr)] = raw
    checkers = sys.modules[spans.INVARIANTS_MODULE].CHECKERS
    found["CHECKERS"] = list(checkers)
    return found


def test_instrumentation_restores_every_original(simnet):
    before = _bindings()
    data = WORKLOADS["contention_explore"].build(3)[0]
    plain = simnet.run(simnet.Scenario.from_dict(data)).serialize()

    recorder = SpanRecorder()
    with Instrumentation(recorder):
        validator = sys.modules["fastpath.validator"]
        assert hasattr(validator.verify_reveal, "span_name")
        assert hasattr(validator.ValidatorState.process_tx, "span_name")
        traced, violations = run.checked_run(simnet.Scenario.from_dict(data))
        assert leftover_wrappers()

    assert not violations
    assert traced.serialize() == plain
    traced_names = {recorder.names[i] for i in recorder.column("name")}
    assert {"encoding.digest", "validator.process_tx", "runner.loop",
            "invariants.convergence", "scenario.from_dict"} <= traced_names
    assert leftover_wrappers() == []
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]
               and key != "CHECKERS"]
    assert changed == []
    assert [(name, id(fn)) for name, fn in after["CHECKERS"]] == \
        [(name, id(fn)) for name, fn in before["CHECKERS"]]


def test_outcome_flags_missing_results(simnet):
    workload = WORKLOADS["counter_drain"]
    data = workload.build(1)[0]
    trace = simnet.run(simnet.Scenario.from_dict(data))
    assert outcome(data, trace, [], workload.expect).ok
    trace.events = [e for e in trace.events if e["kind"] != "spend_done"]
    judged = outcome(data, trace, [], workload.expect)
    assert not judged.ok and "spend_done" in judged.reason


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(19) == 50
    assert run.tail_percentile(40) == 75
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(1000) == 99


@pytest.mark.parametrize("trace_flag, section", [(0, "end_to_end"),
                                                 (1, "per_layer")])
def test_reported_metrics_match_benchmark_json(simnet, trace_flag, section):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "counter_drain", "--seed", "2",
                         "--seconds", "0", "--trace", str(trace_flag)])
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    declared = json.loads(BENCHMARK_JSON.read_text())[section]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    assert [v["unit"] for v in result["metrics"].values()] == \
        [m["unit"] for m in declared]
