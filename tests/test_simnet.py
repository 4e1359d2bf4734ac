import copy
import gc
import pathlib
import random
import types

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from fastpath.authenticators import PublicKey, commit
from fastpath.client import (
    MAX_RETRIES,
    FastPathDriver,
    Outcome,
    Rejection,
    UnlockCert,
    UnlockVote,
)
from fastpath.crypto import user_keypair
from fastpath.sequencer import EndOfEpoch
from fastpath.simnet import workflows
from fastpath.simnet.invariants import (
    check_bounded_counters,
    check_byzantine_bound,
    check_client_safety,
    check_conflicting_execution,
    check_convergence,
    check_drop_budget,
    check_gas_conservation,
    check_invariants,
    check_starvation_freedom,
    check_unlock_liveness,
    check_unlock_monotonic,
    check_per_key_linearity,
    check_version_continuity,
    verdicts,
    CHECKERS,
    Violation,
)
from fastpath.simnet.faults import FAULTS, ValidatorActor
from fastpath.simnet.runner import (
    Runner,
    _Network,
    derive_seed,
    explore_schedules,
    run,
)
from fastpath.simnet.scenario import (
    FAULT_KINDS,
    Fault,
    NetworkSpec,
    Scenario,
    ScenarioError,
    materialize_genesis,
)
from fastpath.simnet.trace import Trace
from fastpath.types import CertSign, Certificate, IntValue, Object
from fastpath.validator import ValidatorState

from tests.scenario_builders import (
    bounded_spend,
    counter_race,
    double_send,
    gas_objects,
    plain_transfer,
    swap_deadlock,
    transfer_flood,
    unauthorized_unlock,
)

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def test_same_seed_same_trace():
    a = run(swap_deadlock(123)).serialize()
    b = run(swap_deadlock(123)).serialize()
    assert a == b


def _same_tick_pops(seed):
    """The order in which 30 timers pushed for one tick leave the queue of
    a runner built from a bundled scenario at `seed`."""
    runner = Runner(Scenario.load(str(SCENARIOS / "swap_deadlock.yaml"))
                    .with_seed(seed))
    for i in range(30):
        runner.schedule_timer("alice", 10, str(i))
    return [token for _, _, token in runner.queued()]


def test_same_tick_order_is_a_seeded_shuffle():
    # Neither FIFO nor keyed on content: a plain counter would make every
    # seed order same-tick entries alike, and `--explore` would sample
    # fewer schedules.
    order = _same_tick_pops(1)
    assert order == _same_tick_pops(1)
    assert order != [str(i) for i in range(30)]
    assert order != _same_tick_pops(2)


def test_a_run_pops_by_tick_draw_and_count_and_refuses_a_due_tick():
    # 60 timers on 3 ticks: the run delivers them in the order of their
    # (tick, order draw, push count), one draw taken per push
    runner = Runner(Scenario.load(str(SCENARIOS / "swap_deadlock.yaml")))
    draws = random.Random()
    draws.setstate(runner._order.getstate())
    pick = random.Random(3)
    pushed = []
    for count in range(1, 61):
        delay = pick.choice((2, 5, 5, 9, 9, 9))
        runner.schedule_timer("alice", delay, count)
        pushed.append((delay, draws.random(), count))
    popped = []
    sink = types.SimpleNamespace(handle=lambda src, msg: popped.append(msg))
    runner._actors = dict.fromkeys(runner._actors, sink)
    runner.run()
    assert [msg for msg in popped if isinstance(msg, int)] \
        == [count for *_, count in sorted(pushed)]

    # a push for the tick being delivered would miss its sorted bucket
    runner = Runner(Scenario.load(str(SCENARIOS / "swap_deadlock.yaml")))

    def push_late(src, msg):
        if msg != "late":
            runner.schedule_timer("alice", 0, "late")
    runner._actors = dict.fromkeys(
        runner._actors, types.SimpleNamespace(handle=push_late))
    with pytest.raises(ValueError, match="is not past"):
        runner.run()


def test_replies_reach_the_newest_driver_and_ticks_the_one_that_armed_them(
        monkeypatch):
    # Two drivers of one client carry the same transaction. Replies name its
    # digest and reach the newer driver; each retry tick reaches the driver
    # that armed it, so the older one, never answered, retries to its end.
    launched = []
    start = FastPathDriver.start

    def recording_start(driver, env):
        launched.append(driver)
        start(driver, env)

    monkeypatch.setattr(FastPathDriver, "start", recording_start)
    runner = Runner(plain_transfer(1)._replace(script=[]))
    client = runner.clients["alice"]
    tx = client._build_tx({"action": "transfer", "inputs": ["coin"],
                           "gas": "gas_a", "to": "bob"})

    def send_twice():
        yield [(FastPathDriver, tx, {}), (FastPathDriver, tx, {})]
    client._run(send_twice())
    runner.run()
    older, newer = launched
    assert newer.status == "finalized"
    assert older.votes == {} and older.status == "timeout"
    assert older.retries == MAX_RETRIES + 1


def test_a_validator_sends_each_certificate_to_the_sequencer_once(monkeypatch):
    # The first certificate a validator accepts for a transaction goes to
    # the sequencer, once; a refused one does not, and a lazy forwarder
    # (v1) never sends it.
    scenario = plain_transfer(1)._replace(script=[],
                                          faults={1: Fault("lazy_forwarder")})
    runner = Runner(scenario)
    submitted = []
    send = runner.send

    def recording_send(src, dst, msg):
        if dst == "seq":
            submitted.append((src, msg))
        send(src, dst, msg)

    monkeypatch.setattr(runner, "send", recording_send)
    tx = runner.clients["alice"]._build_tx({
        "action": "transfer", "inputs": ["coin"], "gas": "gas_a", "to": "bob"})
    cert = Certificate(tx, tuple(CertSign.make(tx, vid, runner.scheme)
                                 for vid in range(3)))
    weak = Certificate(tx, cert.signs[:2])
    for actor in runner.validators[:2]:
        for msg in (weak, cert, cert):
            actor.handle("alice", msg)
    assert submitted == [("v0", cert)]
    events = [(e["actor"], e["kind"]) for e in runner.recorder.events]
    assert events.count(("v0", "cert_forwarded")) == 1
    assert events.count(("v1", "cert_forwarded")) == 1


def test_unlock_liveness_counts_a_refusal_but_not_a_hang_or_a_late_end():
    # eve claims authority she lacks; the validators refuse her unlock
    base = Scenario.load(str(SCENARIOS / "unauthorized_unlock.yaml"))
    trace = run(base._replace(script=[
        {k: v for k, v in action.items() if k != "authorized"}
        for action in base.script]))
    started, = trace.select("unlock_started")
    refused, = trace.select("unlock_driver_finished")
    assert trace.quiesced and started["authorized"] and refused["codes"]
    assert check_unlock_liveness(trace) == []

    def doctored(edit):
        events = [edit(e) for e in copy.deepcopy(trace.events)]
        copied = copy.copy(trace)
        copied.events = [e for e in events if e]
        return copied

    def timed_out(event):
        # no refusal: the driver ran out of retries instead
        if event["kind"] == "unlock_driver_finished":
            del event["codes"]
            event["status"] = "timeout"
        return event

    def late(event):
        if event["kind"] == "unlock_driver_finished":
            event["tick"] = started["tick"] + trace.meta["epoch_length"] + 1
        return event

    hung, = check_unlock_liveness(doctored(timed_out))
    assert "never completed" in hung.message
    slow, = check_unlock_liveness(doctored(late))
    assert f"took {trace.meta['epoch_length'] + 1} ticks" in slow.message


def test_validators_answer_in_four_shapes_and_sequence_three(monkeypatch):
    # over the bundled scenarios, every message a validator sends a client
    # is a vote or one of the two reply shapes, and every sequencer
    # submission is a protocol value
    seen = {"client": set(), "seq": set()}
    send = Runner.send

    def recording_send(runner, src, dst, msg):
        if dst == "seq":
            seen["seq"].add(type(msg))
        elif dst in runner.clients:
            seen["client"].add(type(msg))
        send(runner, src, dst, msg)

    monkeypatch.setattr(Runner, "send", recording_send)
    for path in sorted(SCENARIOS.glob("*.yaml")):
        run(Scenario.load(str(path)))
    assert seen == {"client": {CertSign, UnlockVote, Rejection, Outcome},
                    "seq": {UnlockCert, Certificate, EndOfEpoch}}


def test_different_seed_different_schedule():
    a = run(swap_deadlock(1)).serialize()
    b = run(swap_deadlock(2)).serialize()
    assert a != b


def _run_without_cycle_collector(scenario):
    """The trace, the client workflows left alive once the run has let go
    of its actor graph, and the unreachable objects the cycle collector
    then finds. A suspended workflow is counted by itself: the collector
    closes a generator caught in a cycle, which frees the cycle before it
    is counted."""
    gc.collect()
    gc.disable()
    try:
        trace = run(scenario)
        alive = sum(1 for o in gc.get_objects()
                    if isinstance(o, types.GeneratorType)
                    and o.gi_code.co_filename == workflows.__file__)
        unreachable = gc.collect()
    finally:
        gc.enable()
    return trace, alive, unreachable


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.yaml")),
                         ids=lambda path: path.stem)
def test_finished_run_leaves_no_cyclic_garbage(path):
    # a finished run releases its actor graph, so refcounting frees all of
    # it and the cycle collector finds nothing left to trace
    trace, alive, unreachable = _run_without_cycle_collector(
        Scenario.load(str(path)))
    assert trace.quiesced
    assert (alive, unreachable) == (0, 0)


@pytest.mark.parametrize("build, seed, ticks", [
    (swap_deadlock, 1, 25),  # bob's first unlock in flight
    (swap_deadlock, 7, 38),  # bob's retried swap, after his unlock
    (bounded_spend, 1, 25),  # a consolidation in flight
    (bounded_spend, 1, 40),  # the debit after it in flight
    (double_send, 2, 40),  # the unlock after both sends locked
    (double_send, 2, 53),  # the retry after that unlock
], ids=lambda v: getattr(v, "__name__", str(v)))
def test_a_run_cut_mid_action_leaves_no_cyclic_garbage(build, seed, ticks):
    # the tick limit leaves a workflow suspended while it holds the driver
    # it last resumed with; refcounting still frees it with the run
    scenario = build(seed)._replace(tick_limit=ticks)
    trace, alive, unreachable = _run_without_cycle_collector(scenario)
    assert not trace.quiesced
    finished = trace.select("driver_done") + trace.select("spend_done")
    assert len(finished) < len(scenario.script)
    assert (alive, unreachable) == (0, 0)


def test_trace_round_trips_through_serialization():
    trace = run(plain_transfer(4))
    again = Trace.parse(trace.serialize())
    assert again.serialize() == trace.serialize()
    assert again.meta["n"] == 4
    assert again.snapshots.keys() == trace.snapshots.keys()


def test_scenario_rejects_too_many_byzantine():
    data = {
        "committee": {"n": 4, "f": 1},
        "accounts": [],
        "faults": {"0": {"kind": "equivocator"},
                   "1": {"kind": "stale_replier"}},
    }
    with pytest.raises(ScenarioError):
        Scenario.from_dict(data)


@pytest.mark.parametrize("kind", sorted(FAULT_KINDS))
def test_loader_and_checker_agree_on_fault_bound(kind):
    faults = {"0": kind, "1": "equivocator"}
    try:
        Scenario.from_dict({
            "committee": {"n": 4, "f": 1},
            "accounts": [],
            "faults": {v: {"kind": k} for v, k in faults.items()},
        })
        rejected = False
    except ScenarioError:
        rejected = True
    trace = Trace(meta={"n": 4, "f": 1, "faults": faults})
    assert rejected == bool(check_byzantine_bound(trace))
    assert rejected == (kind != "honest")


def test_scenario_rejects_malformed_committee():
    with pytest.raises(ScenarioError):
        Scenario.from_dict({"committee": {"n": 4, "f": 2}})


def test_scenario_rejects_unknown_action():
    with pytest.raises(ScenarioError):
        Scenario.from_dict({
            "committee": {"n": 4, "f": 1},
            "accounts": ["a"],
            "script": [{"at": 0, "client": "a", "action": "rob_bank"}],
        })


def test_swap_deadlock_recovers_both_objects():
    # A swap race can deadlock both objects or let one side win outright;
    # either way both contended objects move, and over a fixed run of seeds
    # at least one deadlock is recovered through the unlock path.
    statuses = set()
    for seed in range(40, 50):
        trace = run(swap_deadlock(seed))
        assert trace.quiesced
        assert check_invariants(trace) == []
        statuses |= {e["status"] for e in trace.select("driver_done")}
        # both contended genesis objects moved past version 0 on every
        # validator
        for name in ("obj_a", "obj_b"):
            oid = trace.meta["objects"][name]["oid"]
            for snap in trace.snapshots.values():
                assert snap["latest"][oid] >= 1
    assert "finalized_after_unlock" in statuses


def test_a_lost_race_is_released_by_one_unlock():
    # the loser's unlock is sequenced after consensus settled the contended
    # object: it releases the rest of its keys itself, and the action ends
    # `unlocked` with no second unlock
    scenario = Scenario.load(str(SCENARIOS / "swap_deadlock.yaml"))
    lost = 0
    for seed in [scenario.seed] + [derive_seed(scenario.seed, i)
                                   for i in range(50)]:
        trace = run(scenario.with_seed(seed))
        assert check_invariants(trace) == []
        for done in trace.select("driver_done"):
            if done["status"] == "unlocked":
                lost += 1
                assert [e["actor"] for e in trace.select("unlock_started")
                        ].count(done["actor"]) == 1
    assert lost > 0


def test_a_recovery_whose_keys_were_all_settled_ends_superseded():
    # two transfers of one coin with one gas deadlock it; each recovers
    # with its own unlock gas. The first unlock sequenced releases the coin
    # and its retry finalizes; the other unlock finds every key it lists
    # settled, so its action ends superseded, and that finish is the
    # unlock's completion
    data = yaml.safe_load((SCENARIOS / "double_send.yaml").read_text())
    data["script"] = [
        {"at": 5, "client": "alice", "action": "transfer", "inputs": ["coin"],
         "gas": "g1", "to": "bob", "signers": ["alice"], "memo": memo,
         "first_to": first_to, "unlock_gas": [gas]}
        for memo, first_to, gas in (("a", [0, 1], "g2"), ("b", [2, 3], "g3"))]
    for i in range(50):
        trace = run(Scenario.from_dict({**data, "seed": derive_seed(3, i)}))
        assert trace.quiesced and check_invariants(trace) == []
        assert sorted(e["status"] for e in trace.select("driver_done")) == [
            "finalized_after_unlock", "superseded"]
        finished = trace.select("unlock_driver_finished")
        assert sorted(e["status"] for e in finished) == [
            "superseded", "unlocked"]
        hung = copy.copy(trace)
        hung.events = [e for e in trace.events
                       if e["kind"] != "unlock_driver_finished"
                       or e["status"] != "superseded"]
        violation, = check_unlock_liveness(hung)
        assert "never completed" in violation.message


def test_double_send_deadlocks_then_recovers():
    trace = run(double_send(7))
    assert trace.quiesced
    assert check_invariants(trace) == []
    statuses = [e["status"] for e in trace.select("driver_done")]
    assert any(s in ("finalized_after_unlock", "finalized") for s in statuses)


def test_a_finalized_double_send_reports_the_finalizing_sends_retries():
    # each send first reaches half the committee, so the one that finalizes
    # does so after a retry reaches the rest
    trace = run(double_send(0))
    statuses = [(e["status"], e["retries"])
                for e in trace.select("fast_driver_finished")]
    assert statuses == [("locked", 1), ("finalized", 1)]
    done, = trace.select("driver_done")
    assert (done["action"], done["status"], done["rounds"], done["retries"]) \
        == ("double_send", "finalized", 2, 1)


def test_a_recovered_double_send_keeps_its_action_name():
    # both sends lock; the unlock and the retry still report the double send
    trace = run(double_send(2))
    assert [e["status"] for e in trace.select("unlock_driver_finished")] \
        == ["unlocked"]
    done, = trace.select("driver_done")
    assert (done["action"], done["status"]) \
        == ("double_send", "finalized_after_unlock")


def test_unauthorized_unlock_never_assembles():
    trace = run(unauthorized_unlock(3))
    assert trace.quiesced
    assert trace.select("ucert_assembled") == []
    assert check_invariants(trace) == []


@pytest.mark.parametrize("owner, status, codes", [
    ({"oid": "x"}, "unlocked", None),
    ({"all": [{"pk": "alice"}, {"oid": "x"}]}, "unlocked", None),
    ({"oid": "y"}, "unauthorized", ["BadGas"]),
])
def test_an_unlocks_gas_owner_consents_over_the_keys_it_lists(
        owner, status, codes):
    # alice unlocks her coin x paying with gas ug, whose owner term names an
    # object: it is met when that object is among the listed keys, as it
    # would be by a transfer of x that ug pays for, and only then
    def scenario(seed):
        return Scenario.from_dict({
            "committee": {"n": 4, "f": 1}, "seed": seed, "ticks": 6000,
            "delta": 300, "epoch_length": 5000,
            "network": {"min_delay": 1, "max_delay": 4},
            "accounts": ["alice"],
            "objects": [{"name": name, "kind": "owned",
                         "owner": {"pk": "alice"}, "contents": 10}
                        for name in ("x", "y")]
                       + [{"name": "ug", "kind": "owned", "owner": owner,
                           "contents": 50}],
            "script": [{"at": 5, "client": "alice", "action": "unlock",
                        "keys": ["x"], "gas": "ug"}]})

    for i in range(4):
        trace = run(scenario(derive_seed(11, i)))
        assert trace.quiesced and check_invariants(trace) == []
        finished, = trace.select("unlock_driver_finished")
        assert (finished["status"], finished.get("codes")) == (status, codes)


def test_explore_schedules_aggregates():
    assert explore_schedules(plain_transfer(0), 3) == []


def test_derive_seed_is_stable():
    assert derive_seed(5, 0) == derive_seed(5, 0)
    assert derive_seed(5, 0) != derive_seed(5, 1)


def test_verdicts_enumerate_every_checker():
    trace = run(plain_transfer(1))
    result = verdicts(check_invariants(trace))
    assert list(result) == [name for name, _ in CHECKERS]
    assert set(result.values()) == {"pass"}


# --- checkers must catch doctored traces -----------------------------------------

def _clean_trace():
    return run(swap_deadlock(99))


def test_checker_flags_reverted_finalized_effects():
    trace = _clean_trace()
    assert check_client_safety(trace) == []
    doctored = copy.deepcopy(trace)
    final = doctored.select("effect_cert")[0]
    oid, version, _ = final["produced"][0]
    for snap in doctored.snapshots.values():
        snap["objects"].get(oid, {}).pop(str(version), None)
    assert check_client_safety(doctored)


def test_checker_flags_altered_finalized_state():
    doctored = copy.deepcopy(_clean_trace())
    final = doctored.select("effect_cert")[0]
    oid, version, _ = final["produced"][0]
    for snap in doctored.snapshots.values():
        if str(version) in snap["objects"].get(oid, {}):
            snap["objects"][oid][str(version)] = "f" * 32
    assert check_client_safety(doctored)


def test_checker_flags_forged_unauthorized_unlock_cert():
    doctored = copy.deepcopy(_clean_trace())
    assert check_starvation_freedom(doctored) == []
    for event in doctored.select("ucert_assembled"):
        event["authorized"] = False
        break
    assert check_starvation_freedom(doctored)


def test_checker_flags_conflicting_sequenced_executions():
    doctored = copy.deepcopy(_clean_trace())
    assert check_conflicting_execution(doctored) == []
    seq = doctored.select("seq_exec")
    # make one honest validator report different effects for the same tx
    seq[0]["effects"] = "0" * 64
    assert check_conflicting_execution(doctored)


def test_checker_flags_double_gas_consumption():
    doctored = copy.deepcopy(_clean_trace())
    assert check_gas_conservation(doctored) == []
    extra = copy.deepcopy(doctored.select("gas_consumed")[0])
    doctored.events.append(extra)
    assert check_gas_conservation(doctored)


def test_checker_flags_backwards_unlock_transition():
    doctored = copy.deepcopy(_clean_trace())
    assert check_unlock_monotonic(doctored) == []
    setting = doctored.select("unlock_db_set")[-1]
    doctored.events.append({**setting, "prev": "confirmed",
                            "state": "unlocked"})
    assert check_unlock_monotonic(doctored)


def test_checker_flags_version_gap():
    doctored = copy.deepcopy(_clean_trace())
    assert check_version_continuity(doctored) == []
    snap = doctored.snapshots["v0"]
    oid = next(iter(snap["objects"]))
    versions = snap["objects"][oid]
    top = max(int(v) for v in versions)
    versions[str(top + 2)] = "a" * 32
    assert check_version_continuity(doctored)


def test_checker_flags_double_execution_per_key():
    doctored = copy.deepcopy(_clean_trace())
    assert check_per_key_linearity(doctored) == []
    seq = copy.deepcopy(doctored.select("seq_exec")[0])
    seq["tx"] = "b" * 64
    doctored.events.append(seq)
    assert check_per_key_linearity(doctored)


def test_checker_flags_diverged_stores():
    doctored = copy.deepcopy(_clean_trace())
    assert check_convergence(doctored) == []
    oid = next(iter(doctored.snapshots["v0"]["objects"]))
    doctored.snapshots["v0"]["objects"][oid]["0"] = "c" * 32
    assert check_convergence(doctored)


def test_checker_flags_drops_over_the_budget():
    doctored = copy.copy(_clean_trace())
    assert check_drop_budget(doctored) == []
    doctored.dropped = doctored.meta["drop_budget"] + 1
    assert [v.message for v in check_drop_budget(doctored)] == [
        f"dropped {doctored.dropped} > budget {doctored.meta['drop_budget']}"]


def test_checker_flags_two_effect_variants_at_one_validator():
    doctored = copy.deepcopy(_clean_trace())
    # the variant goes before the real record, so the last effects each
    # validator reports still agree across validators
    first = doctored.select("seq_exec")[0]
    doctored.events.insert(doctored.events.index(first),
                           {**first, "effects": "0" * 64})
    assert [v.message for v in check_conflicting_execution(doctored)] == [
        f"{first['actor']} produced two effect variants for"
        f" {first['tx'][:16]}"]


@pytest.mark.parametrize("aspect,value", [
    ("settled", {"x" * 64: 1}), ("limit", 1), ("version", 7)])
def test_checker_flags_diverged_counters(aspect, value):
    doctored = run(bounded_spend(9))
    assert check_convergence(doctored) == []
    oid, counter = next(iter(doctored.snapshots["v1"]["counters"].items()))
    counter[aspect] = value
    assert [v.message for v in check_convergence(doctored)] == [
        f"v1 and v0 disagree on counter {oid[:16]} {aspect}"]



@pytest.mark.parametrize("offset", [0, 1], ids=["latest", "unheld"])
def test_checker_flags_a_confirmed_key_left_unconsumed(offset):
    # a key consensus settled was consumed, so it has a later version; one
    # confirmed at its object's latest version, or at a version v0 does not
    # hold, was never spent there
    trace = run(Scenario.load(str(SCENARIOS / "swap_deadlock.yaml")))
    assert check_invariants(trace) == []
    snap = trace.snapshots["v0"]
    oid, latest = sorted(snap["latest"].items())[0]
    version = latest + offset
    assert (str(version) in snap["objects"][oid]) == (offset == 0)
    snap["unlock_db"][f"{oid}:{version}"] = "confirmed"
    assert check_invariants(trace) == [Violation(
        "settled_keys_consumed",
        f"v0: {oid[:16]} v{version} is confirmed, not consumed")]

# --- checkers judge events in trace order, on the trace as it is now --------

def _bare_trace(events, objects=None) -> Trace:
    """One honest validator, v0, and the given events, ticked in order
    unless an event names its own tick."""
    meta = {"n": 1, "f": 0, "faults": {}, "drop_budget": 0,
            "epoch_length": 30, "objects": {}}
    snapshots = {"v0": {"objects": objects or {}}}
    return Trace(meta, [{"tick": i, "actor": "v0", **event}
                        for i, event in enumerate(events)], snapshots)


def _exec(kind, tx, field="consumed"):
    return {"kind": kind, "tx": tx, field: [["k" * 64, 0]]}


def test_an_undo_before_its_execution_does_not_cancel_it():
    undo = _exec("undo", "a" * 64, "keys")
    first, second = _exec("fast_exec", "a" * 64), _exec("fast_exec", "b" * 64)
    early = _bare_trace([undo, first, second])
    assert [v.message for v in check_per_key_linearity(early)] == [
        f"v0: 2 surviving executions consumed {'k' * 16} v0"]
    assert check_per_key_linearity(_bare_trace([first, undo, second])) == []


def test_a_sequenced_execution_after_an_undo_survives_it():
    events = [_exec("fast_exec", "a" * 64), _exec("undo", "a" * 64, "keys"),
              _exec("seq_exec", "a" * 64), _exec("fast_exec", "b" * 64)]
    assert check_per_key_linearity(_bare_trace(events))
    assert check_per_key_linearity(_bare_trace(events[:2] + events[3:])) == []


@pytest.mark.parametrize("late_status", ["unlocked", "unauthorized"])
def test_unlock_liveness_takes_the_first_completion_in_trace_order(
        late_status):
    # the first completion in the trace is at tick 50, 40 ticks after the
    # start (bound 30); a later record claims an earlier tick
    rqt = "r" * 64
    statuses = {"unlocked", "unauthorized"}
    first_status, = statuses - {late_status}
    completion = {"kind": "unlock_driver_finished", "rqt": rqt,
                  "rounds": 2, "retries": 0}
    trace = _bare_trace([
        {"kind": "unlock_started", "rqt": rqt, "authorized": True, "tick": 10},
        {**completion, "status": first_status, "tick": 50},
        {**completion, "status": late_status, "tick": 20}])
    assert [v.message for v in check_unlock_liveness(trace)] == [
        f"unlock {'r' * 16} took 40 ticks (bound 30)"]


@pytest.mark.parametrize("versions", [["1", "01"], ["1", "01", "3"]])
def test_version_continuity_flags_duplicate_versions(versions):
    # "1" and "01" are one version twice; with "3" their span looks whole
    trace = _bare_trace([], {"o" * 64: {v: "f" * 32 for v in versions}})
    assert check_version_continuity(trace)


def _doctored_trace():
    doctored = copy.deepcopy(_clean_trace())
    doctored.events.append(copy.deepcopy(doctored.select("gas_consumed")[0]))
    seq = copy.deepcopy(doctored.select("seq_exec")[0])
    seq["tx"] = "b" * 64
    doctored.events.append(seq)
    doctored.snapshots["v1"]["objects"].popitem()
    return doctored


@pytest.mark.parametrize("name", [
    *sorted(p.name for p in SCENARIOS.glob("*.yaml")), "doctored"])
def test_one_index_gives_what_each_checker_finds_alone(name):
    if name == "doctored":
        trace = _doctored_trace()
    else:
        trace = run(Scenario.load(str(SCENARIOS / name)))
    assert check_invariants(trace) == [
        violation for _, checker in CHECKERS for violation in checker(trace)]
    if name == "doctored":
        assert {v.checker for v in check_invariants(trace)} >= {
            "gas_conservation", "per_key_linearity", "conflicting_execution",
            "client_safety", "convergence"}


# --- a live trace shares its payload tuples; a parsed one holds lists ------

@pytest.mark.parametrize("name", [
    *sorted(p.name for p in SCENARIOS.glob("*.yaml")), "transfer_flood",
    "doctored"])
def test_a_parsed_trace_gets_the_verdicts_of_the_live_one(name):
    if name == "doctored":
        trace = _doctored_trace()
    elif name == "transfer_flood":
        trace = run(transfer_flood(1))
    else:
        trace = run(Scenario.load(str(SCENARIOS / name)))
    parsed = Trace.parse(trace.serialize())
    assert parsed.select("seq_exec")[0]["consumed"] == [
        list(key) for key in trace.select("seq_exec")[0]["consumed"]]
    assert check_invariants(parsed) == check_invariants(trace)
    assert bool(check_invariants(trace)) == (name == "doctored")


def test_validators_share_one_payload_per_execution():
    trace = run(transfer_flood(1))
    fast = {}
    for event in trace.select("fast_exec"):
        fast.setdefault(event["tx"], []).append(event)
    assert len(fast) == 12
    for first, *others in fast.values():
        assert isinstance(first["consumed"], tuple) and len(others) >= 2
        for event in others:
            assert event["consumed"] is first["consumed"]
            assert event["produced"] is first["produced"]
    locks = {}
    for event in trace.select("lock_set"):
        assert locks.setdefault(tuple(event["key"]), event["key"]) \
            is event["key"]


def test_a_recipient_spends_two_objects_sent_to_it_in_one_run():
    # both transfers to bob carry the commitment the run made for him once
    runner = Runner(Scenario.from_dict({
        "committee": {"n": 4, "f": 1},
        "seed": 7, "ticks": 5000, "epoch_length": 4000,
        "accounts": ["alice", "bob", "carol"],
        "objects": ([{"name": "c1", "kind": "owned", "owner": {"pk": "alice"},
                      "contents": 5},
                     {"name": "c2", "kind": "owned", "owner": {"pk": "carol"},
                      "contents": 6, "hidden": True}]
                    + gas_objects("alice", ["ga"])
                    + gas_objects("bob", ["gb"])
                    + gas_objects("carol", ["gc"])),
        "script": [
            {"at": 5, "client": "alice", "action": "transfer",
             "inputs": ["c1"], "gas": "ga", "to": "bob"},
            {"at": 100, "client": "carol", "action": "transfer",
             "inputs": ["c2"], "gas": "gc", "to": "bob"},
            {"at": 200, "client": "bob", "action": "transfer",
             "inputs": ["c1"], "gas": "gb", "to": "carol"},
            {"at": 300, "client": "bob", "action": "transfer",
             "inputs": ["c2"], "gas": "gb", "to": "alice"},
        ]}))
    trace = runner.run()
    assert [e["status"] for e in trace.select("driver_done")] == [
        "finalized"] * 4
    assert check_invariants(trace) == []
    bob = commit(PublicKey(runner.account_pk["bob"]))
    assert runner.commitments["bob"] == bob
    assert [e["actor"] for e in trace.select("driver_done")][2:] == [
        "bob", "bob"]


def test_a_checker_reads_events_appended_after_its_last_call():
    trace = _clean_trace()
    before = check_invariants(trace)
    trace.events.append(copy.deepcopy(trace.select("gas_consumed")[0]))
    assert check_gas_conservation(trace) and check_invariants(trace) != before


def test_network_spec_rejects_an_empty_delay_range():
    # checked on construction, so a run never draws from an empty range
    for low, high in [(5, 2), (0, 3), (-2, -1)]:
        with pytest.raises(ValueError):
            NetworkSpec(min_delay=low, max_delay=high)
    assert NetworkSpec(3, 3).max_delay == 3
    with pytest.raises(ScenarioError):
        Scenario.from_dict({"committee": {"n": 4, "f": 1},
                            "network": {"min_delay": 5, "max_delay": 2}})


def test_network_spec_copy_is_checked():
    # `_replace` builds through `_make`, which goes through the constructor
    with pytest.raises(ValueError):
        NetworkSpec()._replace(min_delay=9)
    with pytest.raises(ValueError):
        NetworkSpec(2, 4)._replace(max_delay=1)
    assert NetworkSpec()._replace(max_delay=9) == NetworkSpec(1, 9)
    assert type(NetworkSpec._make([2, 3, 0, 0.5])) is NetworkSpec


def test_clients_use_the_run_keys():
    runner = Runner(plain_transfer(1))
    assert runner.clients
    for name, client in runner.clients.items():
        assert client.pk is runner.account_pk[name]


class InflatingStore(ValidatorState):
    """v0 adds 1,000 to every balance it stores; the others are honest."""

    def _put_object(self, obj):
        if self.vid == 0 and isinstance(obj.contents, IntValue):
            obj = Object(obj.key, obj.kind, obj.owner,
                         IntValue(obj.contents.amount + 1000))
        super()._put_object(obj)


@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIOS.glob("*.yaml")))
def test_checkers_see_stored_contents(name, monkeypatch):
    # a fingerprint of the object id alone would let v0 pass both checks
    monkeypatch.setitem(FAULTS, "honest", (ValidatorActor, InflatingStore))
    trace = run(Scenario.load(str(SCENARIOS / name)))
    flagged = {v.checker for v in check_invariants(trace)}
    assert {"client_safety", "convergence"} <= flagged


def test_a_minted_object_belongs_to_whom_execute_names():
    # bob mints with alice's gas and names no recipient, so the gas owner,
    # alice, owns the minted object and can transfer it on
    scenario = Scenario.from_dict({
        "committee": {"n": 4, "f": 1}, "seed": 3,
        "network": {"min_delay": 1, "max_delay": 4},
        "accounts": ["alice", "bob", "carol"],
        "objects": [{"name": "g1", "owner": {"pk": "alice"}, "contents": 50},
                    {"name": "g2", "owner": {"pk": "alice"}, "contents": 50}],
        "script": [
            {"at": 5, "client": "bob", "action": "mint",
             "new_object": "fresh", "amount": 7, "gas": "g1",
             "signers": ["alice"]},
            {"at": 200, "client": "alice", "action": "transfer",
             "inputs": ["fresh"], "gas": "g2", "to": "carol"}]})
    trace = run(scenario)
    assert [(e["action"], e["status"]) for e in trace.select("driver_done")] \
        == [("mint", "finalized"), ("transfer", "finalized")]
    assert not trace.select("tx_rejected")
    assert check_invariants(trace) == []


def test_a_recipient_spends_what_it_was_sent():
    # bob builds his transfer at the version alice's transfer produced,
    # although only alice's client saw that effect certificate
    scenario = Scenario.from_dict({
        "committee": {"n": 4, "f": 1}, "seed": 3,
        "network": {"min_delay": 1, "max_delay": 4},
        "accounts": ["alice", "bob", "carol"],
        "objects": [{"name": "coin", "owner": {"pk": "alice"}, "contents": 10},
                    {"name": "ga", "owner": {"pk": "alice"}, "contents": 50},
                    {"name": "gb", "owner": {"pk": "bob"}, "contents": 50}],
        "script": [
            {"at": 5, "client": "alice", "action": "transfer",
             "inputs": ["coin"], "gas": "ga", "to": "bob"},
            {"at": 300, "client": "bob", "action": "transfer",
             "inputs": ["coin"], "gas": "gb", "to": "carol"}]})
    trace = run(scenario)
    assert [e["status"] for e in trace.select("driver_done")] \
        == ["finalized", "finalized"]
    assert not trace.select("tx_rejected")
    assert check_invariants(trace) == []


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), low=st.integers(1, 8),
       span=st.integers(1, 70) | st.sampled_from([1, 2, 4, 8, 16, 32, 64]),
       draws=st.lists(st.booleans(), max_size=40))
def test_network_delay_draws_as_randint(seed, low, span, draws):
    # the delay draw is randint's own, inlined: interleaved with the drop
    # draws it leaves the network stream where randint leaves it
    high = low + span - 1
    network = _Network(NetworkSpec(low, high, len(draws), 0.5),
                       random.Random(seed))
    reference = random.Random(seed)
    for is_delay in draws:
        if is_delay:
            assert network.delay() == reference.randint(low, high)
        else:
            assert network.should_drop() == (reference.random() < 0.5)
    assert network.delay() == reference.randint(low, high)


def test_checker_flags_overspent_counter():
    trace = run(bounded_spend(11))
    assert check_bounded_counters(trace) == []
    doctored = copy.deepcopy(trace)
    pool_oid = doctored.meta["objects"]["pool"]["oid"]
    fake = {"tick": 1, "actor": "alice", "kind": "effect_cert",
            "tx": "e" * 64, "effects": "e" * 64, "produced": [],
            "tx_kind": "debit", "amount": 90, "path": "fast",
            "counters": [[pool_oid, -90]]}
    doctored.events.append(fake)
    assert check_bounded_counters(doctored)


def _fixed_spend(amounts, **options):
    trace = run(bounded_spend(9, amounts=amounts, target=sum(amounts),
                              **options))
    assert trace.quiesced
    assert check_invariants(trace) == []
    done, = trace.select("spend_done")
    return trace, done


def _counter_limits(trace) -> set[int]:
    oid = trace.meta["objects"]["pool"]["oid"]
    return {snap["counters"][oid]["limit"] for snap in trace.snapshots.values()}


def _gas_versions(trace, prefix: str) -> set[tuple[int, ...]]:
    oids = [trace.meta["objects"][f"{prefix}{i}"]["oid"] for i in range(10)]
    return {tuple(snap["latest"][oid] for oid in oids)
            for snap in trace.snapshots.values()}


def test_a_fixed_spend_stops_once_the_counter_cannot_hold_its_next_amount():
    # a fresh budget of 66 covers the first 40; the 26 left of it cannot
    # take the second, which rides the consolidation without being sent on
    # the fast path. So the first is certified and its certificate rides
    # that consolidation too. 20 is left, and 40 > 20 ends the spend
    trace, done = _fixed_spend([40, 40, 40, 40], fault="infinite_budget")
    assert (done["reason"], done["consolidations"], done["remaining"]) \
        == ("over_limit", 1, 80)
    assert not trace.select("budget_reject")
    assert [(e["tx_kind"], e["amount"], e["path"])
            for e in trace.select("effect_cert")] == [
        ("debit", 40, "unlock"), ("debit", 40, "unlock"),
        ("unlock", 0, "unlock")]
    assert _counter_limits(trace) == {20}
    assert _gas_versions(trace, "u") == {(1,) + (0,) * 9}


def test_a_fixed_amount_above_a_fresh_budget_rides_a_consolidation():
    # 33 + 33 spend the whole fresh budget of 66, so the last 33 goes
    # through consensus as the replacement of the one consolidation, and
    # the second's certificate rides it
    trace, done = _fixed_spend([33, 33, 33])
    assert (done["remaining"], done["consolidations"]) == (0, 1)
    assert not trace.select("budget_reject")
    assert "reason" not in done
    assert _counter_limits(trace) == {1}
    assert {e["actor"] for e in trace.select("seq_exec")
            if e["via"] == "unlock"} == {"v0", "v1", "v2", "v3"}
    # each effect certificate names the transaction it executed; the
    # consolidation keeps the unlock's label
    assert [(e["tx_kind"], e["amount"], e["path"])
            for e in trace.select("effect_cert")] == [
        ("debit", 33, "fast"), ("debit", 33, "unlock"),
        ("debit", 33, "unlock"), ("unlock", 0, "unlock")]

    trace, done = _fixed_spend([70])
    assert (done["remaining"], done["consolidations"]) == (0, 1)
    assert _counter_limits(trace) == {30}


def test_a_replacement_chosen_from_a_stale_limit_is_refused():
    # the 50 leaves the client a limit of 100, so 70 (above the 16 left of
    # the budget of 66) rides a consolidation with the 50's certificate;
    # validators refuse it, and the limit the consolidation reports, 50,
    # ends the spend
    trace, done = _fixed_spend([50, 70])
    assert (done["reason"], done["remaining"], done["consolidations"]) \
        == ("over_limit", 70, 1)
    assert len(trace.select("sequenced_exec_failed")) == 4
    assert _counter_limits(trace) == {50}


def test_an_amount_above_the_limit_sends_nothing():
    trace, done = _fixed_spend([150])
    assert (done["reason"], done["remaining"], done["consolidations"]) \
        == ("over_limit", 150, 0)
    assert trace.sent == 0


def test_a_greedy_spend_that_meets_its_target_does_not_consolidate():
    trace = run(bounded_spend(9, target=50))
    done, = trace.select("spend_done")
    assert (done["remaining"], done["consolidations"]) == (0, 0)
    assert not trace.select("consolidate")
    assert _gas_versions(trace, "u") == {(0,) * 10}
    assert check_invariants(trace) == []


def _checked_run(scenario, **action_fields):
    """Run `scenario` with `action_fields` set on every script action."""
    trace = run(scenario._replace(script=[{**action, **action_fields}
                                          for action in scenario.script]))
    assert trace.quiesced
    assert check_invariants(trace) == []
    return trace


def test_a_spend_that_runs_out_of_gas_ends_out_of_gas():
    # 70 is above the fresh budget of 66, so it rides a consolidation with
    # the only gas object; the 10 after it finds the gas pool empty
    trace = _checked_run(bounded_spend(9, amounts=[70, 10], target=80,
                                       gas_count=1))
    assert [(e["tx_kind"], e["amount"]) for e in trace.select("effect_cert")] \
        == [("debit", 70), ("unlock", 0)]
    assert trace.select("spend_done") == [{
        "tick": 18, "actor": "alice", "kind": "spend_done",
        "counter": trace.meta["objects"]["pool"]["oid"], "remaining": 10,
        "consolidations": 1, "reason": "out_of_gas"}]


def test_a_spend_that_runs_out_of_unlock_gas_ends_out_of_unlock_gas():
    # the first 40 leaves 26 of the budget, so the second needs a
    # consolidation to ride, and nothing can pay for it
    trace = _checked_run(bounded_spend(9, amounts=[40, 40, 40], target=120,
                                       gas_count=1), unlock_gas_pool=[])
    assert not trace.select("unlock_started")
    assert not trace.select("budget_reject")
    assert trace.select("spend_done") == [{
        "tick": 16, "actor": "alice", "kind": "spend_done",
        "counter": trace.meta["objects"]["pool"]["oid"], "remaining": 80,
        "consolidations": 0, "reason": "out_of_unlock_gas"}]


def test_a_debit_that_nothing_recovers_ends_the_spend_with_its_status():
    # built for an epoch the validators have not reached, the first debit is
    # refused WrongEpoch, a refusal no consolidation answers
    trace = _checked_run(bounded_spend(9, amounts=[10, 10]), epoch=1)
    assert {e["code"] for e in trace.select("tx_rejected")} == {"WrongEpoch"}
    assert [e["status"] for e in trace.select("fast_driver_finished")] \
        == ["rejected"]
    assert not trace.select("unlock_started")
    done, = trace.select("spend_done")
    assert (done["reason"], done["remaining"], done["consolidations"]) \
        == ("rejected", 100, 0)


def test_an_overtaken_debit_drops_its_gas_and_the_spend_goes_on():
    # bob's debit of 70 exceeds every budget, so his recovery consolidates
    # the counter he and alice share; at this seed it reissues the counter
    # before alice's first debit executes anywhere, so that debit ends
    # superseded. Its gas, g0, stays with its certificate: alice drops it
    # and pays both of her debits at the new version with g1.
    owners = {"any": [{"pk": "alice"}, {"pk": "bob"}]}
    trace = _checked_run(Scenario.from_dict({
        "committee": {"n": 4, "f": 1},
        "seed": derive_seed(11, 1), "ticks": 20000, "delta": 300,
        "epoch_length": 15000, "network": {"min_delay": 1, "max_delay": 4},
        "accounts": ["alice", "bob"],
        "objects": [{"name": "pool", "kind": "commutative",
                     "flavor": "bounded", "limit": 100, "owner": owners}]
        + gas_objects("alice", ["g0", "g1", "g2", "u0", "u1"], 30)
        + gas_objects("bob", ["bg", "bu0", "bu1"], 30),
        "script": [
            {"at": 5, "client": "alice", "action": "spend_loop",
             "counter": "pool", "amounts": [10, 10],
             "gas_pool": ["g0", "g1", "g2"], "unlock_gas_pool": ["u0", "u1"],
             "signers": ["alice"]},
            {"at": 3, "client": "bob", "action": "debit", "inputs": ["pool"],
             "gas": "bg", "amount": 70, "signers": ["bob"],
             "unlock_gas": ["bu0", "bu1"]}]}))
    assert [e["status"] for e in trace.select("fast_driver_finished")
            if e["actor"] == "alice"] \
        == ["superseded", "finalized", "finalized"]
    names = {o["oid"]: name for name, o in trace.meta["objects"].items()}
    paid = [(e["amount"], [names.get(p[0]) for p in e["produced"]])
            for e in trace.select("effect_cert") if e["actor"] == "alice"]
    assert paid == [(10, ["g1"]), (10, ["g1"])]
    done, = trace.select("spend_done")
    assert "reason" not in done and done["remaining"] == 80


def test_a_greedy_debit_rides_the_consolidation_that_follows_it():
    # the ladder 66, 22, 8, 2, 1 leaves the target unmet at each step, so
    # each debit is certified, never broadcast, and its certificate rides
    # the consolidation after it; the last unit is a replacement, since the
    # budget rounds to zero
    trace = _checked_run(bounded_spend(9))
    done, = trace.select("spend_done")
    assert (done["remaining"], done["consolidations"]) == (0, 6)
    riders = [e["tx"] for e in trace.select("fast_driver_finished")]
    assert [e["status"] for e in trace.select("fast_driver_finished")] \
        == ["certified_abandoned"] * 5
    assert not trace.select("cert_forwarded")  # no validator got one
    debits = [e for e in trace.select("effect_cert")
              if e["tx_kind"] == "debit"]
    assert [(e["amount"], e["path"]) for e in debits] \
        == [(66, "unlock"), (22, "unlock"), (8, "unlock"), (2, "unlock"),
            (1, "unlock"), (1, "unlock")]
    assert [e["tx"] for e in debits[:5]] == riders


def test_a_greedy_debit_with_no_unlock_gas_left_finalizes_on_the_fast_path():
    # the one unlock gas pays for the first debit's consolidation; the next
    # debit has nothing to ride, so it finalizes on the fast path, and the
    # consolidation it then needs cannot be paid for
    trace = _checked_run(bounded_spend(9), unlock_gas_pool=["u0"])
    assert [(e["tx_kind"], e["amount"], e["path"])
            for e in trace.select("effect_cert")] == [
        ("debit", 66, "unlock"), ("unlock", 0, "unlock"),
        ("debit", 22, "fast")]
    assert [e["status"] for e in trace.select("fast_driver_finished")] \
        == ["certified_abandoned", "finalized"]
    # no certificate was left unexecuted
    assert {e["tx"] for e in trace.select("cert_assembled")} \
        <= {e["tx"] for e in trace.select("effect_cert")}
    done, = trace.select("spend_done")
    assert (done["reason"], done["remaining"], done["consolidations"]) \
        == ("out_of_unlock_gas", 12, 1)


def test_debits_the_counter_covers_are_never_left_rejected():
    # eight concurrent debits of 10 from a counter of 100: the budgets
    # refuse some on the fast path, and each refused one consolidates the
    # counter with the debit riding, so every one finalizes
    for i in range(4):
        trace = run(counter_race(derive_seed(20, i), amount=10))
        assert trace.quiesced and check_invariants(trace) == []
        assert trace.select("budget_reject")
        statuses = [e["status"] for e in trace.select("driver_done")]
        assert len(statuses) == 8
        assert all(s.startswith("finalized") for s in statuses), statuses


def test_the_race_finalizes_every_debit_its_limit_covers():
    # eight concurrent debits of 15 from a counter of 100: the limit covers
    # six, and each finalizes; the other two recover until the counter, as
    # clients see it, cannot cover them, and end `retry_rejected`
    for i in (0, 2, 3):
        trace = run(counter_race(derive_seed(9300, i)))
        assert trace.quiesced and check_invariants(trace) == []
        statuses = [e["status"] for e in trace.select("driver_done")]
        finalized = [s for s in statuses if s.startswith("finalized")]
        assert len(finalized) == 6 and 15 * len(finalized) <= 100
        assert statuses.count("retry_rejected") == 2, statuses


def test_a_lock_recovery_without_unlock_gas_ends_unlock_out_of_gas():
    # the swap locks and has nothing to pay an unlock with, so it ends
    # without sending one; the transfer finalizes after one retry
    trace = _checked_run(swap_deadlock(1), unlock_gas=[])
    assert not trace.select("unlock_started")
    assert trace.select("driver_done") == [
        {"tick": 19, "actor": "bob", "kind": "driver_done", "action": "swap",
         "status": "unlock_out_of_gas", "rounds": 0, "retries": 0},
        {"tick": 28, "actor": "alice", "kind": "driver_done",
         "action": "transfer", "status": "finalized", "rounds": 2,
         "retries": 1}]


def _unlock_with_replacement(debit: int) -> Scenario:
    """A counter of 47, debited 9 on the fast path, then unlocked with a
    replacement that debits `debit` through consensus."""
    return Scenario.from_dict({
        "committee": {"n": 4, "f": 1},
        "seed": 3, "ticks": 5000, "epoch_length": 50000,
        "network": {"min_delay": 1, "max_delay": 4},
        "accounts": ["alice"],
        "objects": (
            [{"name": "pool", "kind": "commutative", "flavor": "bounded",
              "limit": 47, "owner": {"pk": "alice"}}]
            + gas_objects("alice", ["g0", "g1", "u0"], 30)),
        "script": [
            {"at": 5, "client": "alice", "action": "debit",
             "inputs": ["pool"], "gas": "g0", "amount": 9},
            {"at": 100, "client": "alice", "action": "unlock",
             "keys": ["pool"], "gas": "u0",
             "replacement": {"action": "debit", "inputs": ["pool"],
                             "gas": "g1", "amount": debit}},
        ],
    })


@pytest.mark.parametrize("debit, refused", [(38, False), (39, True),
                                             (500, True)])
def test_a_replacement_debit_is_checked_against_the_counter(debit, refused):
    # 47 - 9 = 38 is left: a larger replacement fails on every validator,
    # and the consolidation goes ahead without it
    trace = run(_unlock_with_replacement(debit))
    assert {(e["actor"], e["code"]) for e in trace.select(
        "sequenced_exec_failed")} == ({
            (f"v{i}", "InsufficientBalance") for i in range(4)}
            if refused else set())
    assert _counter_limits(trace) == {38 if refused else 0}
    assert check_invariants(trace) == []


def _alice_and_mallory(script, seed: int = 3) -> Scenario:
    """Alice holds `coin`, gas `ga` and `pool`, a bounded counter of 100;
    mallory holds `m` and gas `mg`."""
    return Scenario.from_dict({
        "committee": {"n": 4, "f": 1},
        "seed": seed, "ticks": 5000, "epoch_length": 50000,
        "network": {"min_delay": 1, "max_delay": 4},
        "accounts": ["alice", "bob", "mallory"],
        "objects": (
            [{"name": "pool", "kind": "commutative", "flavor": "bounded",
              "limit": 100, "owner": {"pk": "alice"}}]
            + gas_objects("alice", ["coin", "ga"], 50)
            + gas_objects("mallory", ["m", "mg"], 50)),
        "script": script,
    })


@pytest.mark.parametrize("replacement", [
    {"action": "debit", "inputs": ["pool"], "gas": "m", "amount": 60},
    {"action": "mint", "new_object": "coin", "gas": "m", "amount": 1000}],
    ids=["debit", "mint"])
def test_a_replacement_takes_nothing_its_requester_does_not_own(replacement):
    # mallory unlocks her own coin with a replacement that debits alice's
    # counter or mints over alice's coin: no honest validator votes for it
    scenario = _alice_and_mallory([
        {"at": 5, "client": "mallory", "action": "unlock", "keys": ["m"],
         "gas": "mg", "replacement": replacement}])
    trace = run(scenario)
    assert [e["status"] for e in trace.select("driver_done")] \
        == ["unauthorized"]
    alices = {g.obj.key.object_id.hex(): {"0": g.obj.fingerprint}
              for g in materialize_genesis(scenario)
              if g.spec.name in ("coin", "pool")}
    pool = trace.meta["objects"]["pool"]["oid"]
    for actor, snap in trace.snapshots.items():
        assert {oid: snap["objects"][oid] for oid in alices} == alices, actor
        assert snap["counters"][pool]["settled"] == {}, actor
    assert check_invariants(trace) == []


def test_genesis_shares_one_tree_per_unhidden_bare_key():
    # `all` and `any` over the same keys compare equal as tuples, yet they
    # are different owners; a hidden object draws its own nonces
    pair = [{"pk": "alice"}, {"pk": "bob"}]
    hidden = {"kind": "owned", "owner": {"pk": "bob"}, "contents": 1,
              "hidden": True}
    scenario = Scenario.from_dict({
        "committee": {"n": 4, "f": 1}, "seed": 1, "ticks": 100,
        "accounts": ["alice", "bob"],
        "objects": gas_objects("alice", ["coin", "gas"]) + [
            {"name": "pool", "kind": "commutative", "flavor": "bounded",
             "limit": 100, "owner": {"pk": "alice"}},
            {"name": "both", "kind": "owned", "owner": {"all": pair},
             "contents": 1},
            {"name": "either", "kind": "owned", "owner": {"any": pair},
             "contents": 1},
            {"name": "h1", **hidden}, {"name": "h2", **hidden}],
        "script": []})
    genesis = {g.spec.name: g for g in materialize_genesis(scenario)}
    both, either = genesis["both"], genesis["either"]
    assert both.spec.term == either.spec.term
    assert both.obj.owner != either.obj.owner
    assert genesis["coin"].tree is genesis["gas"].tree is genesis["pool"].tree
    assert {genesis[n].obj.owner for n in ("coin", "gas", "pool")} == {
        commit(PublicKey(user_keypair("alice")[1]))}
    h1, h2 = genesis["h1"], genesis["h2"]
    assert h1.tree is not h2.tree
    assert h1.obj.owner != h2.obj.owner


def test_a_shared_input_cannot_be_an_owned_object():
    # mallory's noop names alice's coin as a shared input beside alice's
    # transfer of it; sequenced, it would consume the coin without her
    # consent, and the two executions would conflict
    script = [{"at": 5, "client": "alice", "action": "transfer",
               "inputs": ["coin"], "gas": "ga", "to": "bob"},
              {"at": 5, "client": "mallory", "action": "noop",
               "shared": ["coin"], "gas": "mg"}]
    assert [i for i in range(20) if check_invariants(run(
        _alice_and_mallory(script, derive_seed(3, i))))] == []


def test_a_replacement_that_cannot_pay_its_gas_leaves_its_key_spendable():
    # the replacement's gas holds nothing, so it fails on every validator;
    # the no-op releases coin in its place, and the later transfer of coin
    # finalizes instead of meeting a key confirmed at v0
    trace = run(Scenario.from_dict({
        "committee": {"n": 4, "f": 1},
        "seed": 3, "ticks": 5000, "epoch_length": 50000,
        "network": {"min_delay": 1, "max_delay": 4},
        "accounts": ["alice", "bob"],
        "objects": [{"name": name, "kind": "owned", "owner": {"pk": "alice"},
                     "contents": amount} for name, amount in (
                         ("coin", 10), ("poor", 0), ("ug", 50), ("g2", 50))],
        "script": [
            {"at": 5, "client": "alice", "action": "unlock", "keys": ["coin"],
             "gas": "ug", "replacement": {"action": "transfer",
                                          "inputs": ["coin"], "gas": "poor",
                                          "to": "bob"}},
            {"at": 200, "client": "alice", "action": "transfer",
             "inputs": ["coin"], "gas": "g2", "to": "bob"},
        ],
    }))
    assert {(e["actor"], e["code"]) for e in trace.select(
        "sequenced_exec_failed")} == {(f"v{i}", "InsufficientGas")
                                      for i in range(4)}
    assert [(e["action"], e["status"]) for e in trace.select("driver_done")] \
        == [("unlock", "unlocked"), ("transfer", "finalized")]
    assert check_invariants(trace) == []


def test_a_no_commit_unlock_takes_back_a_debit_whose_vote_missed_the_quorum():
    # a counter of 10 is credited 20, then debited 16 with the certificate
    # sent to v0-v2 only, then unlocked. v0, v2 and v3 vote before they see
    # the certificate, so the unlock carries none; v1 executes the debit
    # first and votes after the quorum. The no-commit unlock must take the
    # debit back on v1 too, though it consumed only its gas
    trace = run(Scenario.from_dict({
        "committee": {"n": 4, "f": 1},
        "seed": 27, "ticks": 5000, "epoch_length": 50000,
        "network": {"min_delay": 1, "max_delay": 20},
        "accounts": ["alice"],
        "objects": (
            [{"name": "pool", "kind": "commutative", "flavor": "bounded",
              "limit": 10, "owner": {"pk": "alice"}}]
            + gas_objects("alice", ["g0", "g1", "u0"], 30)),
        "script": [
            {"at": 5, "client": "alice", "action": "credit",
             "inputs": ["pool"], "gas": "g1", "amount": 20},
            {"at": 40, "client": "alice", "action": "debit",
             "inputs": ["pool"], "gas": "g0", "amount": 16,
             "cert_to": [0, 1, 2]},
            {"at": 60, "client": "alice", "action": "unlock",
             "keys": ["pool"], "gas": "u0"},
        ],
    }))
    debit, = (e["tx"] for e in trace.select("cert_assembled")
              if e["tx"] not in {x["tx"] for x in trace.select("effect_cert")})
    assert [e["actor"] for e in trace.select("undo") if e["tx"] == debit] \
        == ["v1"]
    assert check_invariants(trace) == []
    assert len({str(snap["counters"]) for snap in trace.snapshots.values()}) == 1


def test_a_no_commit_unlock_takes_back_a_fast_path_credit():
    # a credit of 10 whose certificate reaches v0 alone: v0 executes it and
    # releases half to its budget, and the unlock that follows carries no
    # certificate, so v0 takes the credit back (`CounterLocal.unapply`)
    trace = run(Scenario.from_dict({
        "committee": {"n": 4, "f": 1},
        "seed": derive_seed(39, 58), "ticks": 5000,
        "network": {"min_delay": 1, "max_delay": 4},
        "accounts": ["alice"],
        "objects": (
            [{"name": "pool", "kind": "commutative", "flavor": "bounded",
              "limit": 100, "owner": {"pk": "alice"}}]
            + gas_objects("alice", ["g1", "g2"])),
        "script": [
            {"at": 5, "client": "alice", "action": "credit",
             "inputs": ["pool"], "gas": "g1", "amount": 10, "cert_to": [0]},
            {"at": 10, "client": "alice", "action": "unlock",
             "keys": ["pool"], "gas": "g2"},
        ],
    }))
    credit, = (e["tx"] for e in trace.select("cert_assembled"))
    assert [(e["actor"], e["kind"], e.get("amount")) for e in trace.events
            if e["kind"] in ("budget_credit", "undo")] == [
        ("v0", "budget_credit", 5), ("v0", "undo", None)]
    assert trace.select("undo")[0]["tx"] == credit
    assert trace.quiesced and check_invariants(trace) == []


def test_crash_fault_tolerated():
    scenario = swap_deadlock(55, fault="crash")
    trace = run(scenario)
    assert trace.quiesced
    assert check_invariants(trace) == []


def test_byzantine_faults_preserve_invariants():
    for fault in ("equivocator", "vote_withholder", "stale_replier"):
        for i in range(10):
            trace = run(swap_deadlock(derive_seed(77, i), fault=fault))
            assert trace.quiesced, (fault, i)
            assert check_invariants(trace) == [], (fault, i)


def test_commutative_objects_converge_without_locks():
    scenario = Scenario.from_dict({
        "committee": {"n": 4, "f": 1},
        "seed": 31, "ticks": 6000, "epoch_length": 5000,
        "network": {"min_delay": 1, "max_delay": 5},
        "accounts": ["alice", "bob"],
        "objects": [
            {"name": "hits", "kind": "commutative", "flavor": "grow",
             "owner": {"pk": "alice"}},
            {"name": "registry", "kind": "commutative", "flavor": "uset",
             "owner": {"pk": "alice"}},
            {"name": "ga", "kind": "owned", "owner": {"pk": "alice"},
             "contents": 30},
            {"name": "ga2", "kind": "owned", "owner": {"pk": "alice"},
             "contents": 30},
            {"name": "gb", "kind": "owned", "owner": {"pk": "bob"},
             "contents": 30},
            {"name": "gb2", "kind": "owned", "owner": {"pk": "bob"},
             "contents": 30},
        ],
        "script": [
            # concurrent credits never conflict: no locks, no unlocks
            {"at": 5, "client": "alice", "action": "credit",
             "inputs": ["hits"], "gas": "ga", "amount": 5,
             "signers": ["alice"]},
            {"at": 5, "client": "bob", "action": "credit",
             "inputs": ["hits"], "gas": "gb", "amount": 7,
             "signers": ["bob"]},
            {"at": 6, "client": "alice", "action": "credit",
             "inputs": ["registry"], "gas": "ga2", "item": "left",
             "signers": ["alice"]},
            {"at": 6, "client": "bob", "action": "credit",
             "inputs": ["registry"], "gas": "gb2", "item": "right",
             "signers": ["bob"]},
        ],
    })
    trace = run(scenario)
    assert trace.quiesced
    assert check_invariants(trace) == []
    statuses = [e["status"] for e in trace.select("driver_done")]
    assert statuses.count("finalized") == 4
    hits_oid = trace.meta["objects"]["hits"]["oid"]
    registry_oid = trace.meta["objects"]["registry"]["oid"]
    baseline = None
    for snap in trace.snapshots.values():
        counters = snap["counters"]
        assert counters[hits_oid]["value"] == 12
        assert len(counters[registry_oid]["members"]) == 2
        settled = (counters[hits_oid]["settled"],
                   counters[registry_oid]["members"])
        if baseline is None:
            baseline = settled
        assert settled == baseline


def test_clock_skew_can_strand_time_bound_policies():
    # two validators run 30 ticks ahead, so a policy valid "before tick 20"
    # splits the committee: the transaction deadlocks, the owner cannot
    # re-authorize an unlock (the window has passed for everyone), and the
    # delay-gated fallback stays partial because half the committee never
    # recorded a lock. Recovery waits for the epoch boundary by design.
    scenario = Scenario.from_dict({
        "committee": {"n": 4, "f": 1},
        "seed": 8, "ticks": 4000, "delta": 50, "epoch_length": 3500,
        "network": {"min_delay": 1, "max_delay": 2},
        "clock_skew": {"2": 30, "3": 30},
        "accounts": ["alice", "bob"],
        "objects": [
            {"name": "window", "kind": "owned", "contents": 5,
             "owner": {"all": [{"pk": "alice"}, {"before": 20}]}},
            {"name": "ga", "kind": "owned", "owner": {"pk": "alice"},
             "contents": 30},
            {"name": "ga2", "kind": "owned", "owner": {"pk": "alice"},
             "contents": 30},
        ],
        "script": [
            {"at": 5, "client": "alice", "action": "transfer",
             "inputs": ["window"], "gas": "ga", "to": "bob",
             "signers": ["alice"]},
            # unauthenticated rescue attempt well after the delay
            {"at": 200, "client": "alice", "action": "unlock",
             "keys": ["window"], "gas": "ga2", "authorized": False},
        ],
    })
    trace = run(scenario)
    assert trace.quiesced
    assert check_invariants(trace) == []
    done = {e["action"]: e["status"] for e in trace.select("driver_done")}
    assert done["transfer"] == "rejected"  # skewed validators refused
    assert done["unlock"] in ("unauthorized", "timeout")
    window_oid = trace.meta["objects"]["window"]["oid"]
    for snap in trace.snapshots.values():
        assert snap["latest"][window_oid] == 0  # stranded until epoch end


@pytest.mark.parametrize("at", [195, *range(197, 204)])
def test_an_unlock_sequenced_past_the_epoch_boundary_ends_invalid(at):
    # the unlock gathers its votes in epoch 0, but every validator has
    # advanced to epoch 1 when its certificate is sequenced: each refuses
    # the certificate, and the requester ends the unlock on f+1 refusals
    # instead of resending until the retry limit
    data = yaml.safe_load((SCENARIOS / "epoch_change.yaml").read_text())
    data["script"] = [{"at": at, "client": "alice", "action": "unlock",
                       "keys": ["coin2"], "gas": "g3", "signers": ["alice"]}]
    trace = run(Scenario.from_dict(data))
    assert trace.quiesced
    assert check_invariants(trace) == []
    assert len(trace.select("unlock_cert_invalid")) == 4
    refused, = trace.select("unlock_driver_finished")
    assert refused["codes"] == ["InvalidUnlockCert"]
    done, = trace.select("driver_done")
    assert done["status"] == "invalid" and done["tick"] < at + 20
    assert trace.sent < 40


@pytest.mark.parametrize("at", [204, 300])
def test_an_unlock_for_a_left_epoch_ends_wrong_epoch(at):
    # the validators have moved to epoch 1 before the request, built for
    # epoch 0, reaches them: every refusal is WrongEpoch, which says nothing
    # of the requester's authority
    data = yaml.safe_load((SCENARIOS / "epoch_change.yaml").read_text())
    data["script"] = [{"at": at, "client": "alice", "action": "unlock",
                       "keys": ["coin2"], "gas": "g3", "signers": ["alice"]}]
    trace = run(Scenario.from_dict(data))
    assert trace.quiesced
    assert check_invariants(trace) == []
    refused, = trace.select("unlock_driver_finished")
    assert refused["codes"] == ["WrongEpoch"]
    done, = trace.select("driver_done")
    assert done["status"] == "wrong_epoch"


def test_a_lazy_forwarders_certificate_is_sequenced_at_the_epoch_change():
    # The client walks away once it sends the certificate to v3 alone, which
    # never forwards one. At the epoch change v3 submits the certificates
    # still waiting for a checkpoint slot, and the sequencer orders this one
    # before or after the end-of-epoch quorum: every live honest validator
    # runs it in epoch 0, or every one skips it as stale.
    data = yaml.safe_load((SCENARIOS / "epoch_change.yaml").read_text())
    data["faults"] = {"3": {"kind": "lazy_forwarder"}}
    data["script"] = [{"at": 10, "client": "alice", "action": "transfer",
                       "inputs": ["coin"], "gas": "g1", "to": "bob",
                       "signers": ["alice"], "cert_to": [3]}]
    seen = set()
    for i in range(8):
        trace = run(Scenario.from_dict(
            {**data, "seed": derive_seed(data["seed"], i)}))
        assert trace.quiesced
        assert check_invariants(trace) == []
        tx, = [e["tx"] for e in trace.select("cert_assembled")]
        slot, = [e for e in trace.select("sequenced")
                 if e["item_kind"] == "checkpoint"]
        assert slot["tick"] > data["epoch_length"]
        ends = [(e["actor"], e["kind"], e.get("via", e.get("reason")))
                for e in trace.events if e.get("tx") == tx
                and e["kind"] in ("seq_exec", "checkpoint_skip")
                and e["actor"] != "v3"]
        assert sorted(actor for actor, *_ in ends) == ["v0", "v1", "v2"]
        outcome, = {tuple(end) for _, *end in ends}
        seen.add(outcome)
    assert seen == {("seq_exec", "checkpoint"),
                    ("checkpoint_skip", "stale_epoch")}


def test_shared_object_transaction_finalizes_after_sequencing():
    scenario = Scenario.from_dict({
        "committee": {"n": 4, "f": 1},
        "seed": 12, "ticks": 6000, "epoch_length": 5000,
        "network": {"min_delay": 1, "max_delay": 4},
        "accounts": ["bob"],
        "objects": [
            {"name": "board", "kind": "shared", "contents": 0},
            {"name": "gb", "kind": "owned", "owner": {"pk": "bob"},
             "contents": 30},
        ],
        "script": [
            {"at": 5, "client": "bob", "action": "noop", "inputs": [],
             "shared": ["board"], "gas": "gb", "signers": ["bob"]},
        ],
    })
    trace = run(scenario)
    assert trace.quiesced
    assert check_invariants(trace) == []
    done = trace.select("driver_done")
    assert done and done[0]["status"] == "finalized"
    board_oid = trace.meta["objects"]["board"]["oid"]
    for snap in trace.snapshots.values():
        assert snap["latest"][board_oid] == 1
    # execution waited for sequencing: a deferral preceded the effects
    assert any(e["reason"] == "shared" for e in trace.select("cert_deferred"))
