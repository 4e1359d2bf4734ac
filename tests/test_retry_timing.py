"""When a client retries, and when a run that hits its tick limit is done.

A driver arms a retry tick for each exchange it starts, `hops * max_delay +
1` ticks ahead, once every reply of that exchange, fault-free, is overdue: 2
hops for a request or a certificate broadcast, 3 for an unlock
certificate's sequencer submission. A tick armed for an earlier exchange is
ignored. With every hop at the worst case (`min_delay = max_delay`), a
fault-free transfer and a fault-free unlock never retry; a planted tick one
tick shorter, or a sequencer submission armed for 2 hops, does, so the
property can fail. With drops, no fault-free driver runs out of retries. A
retry tick stays queued after its driver is done, and such idle ticks past
the limit do not make a finished run look cut off; nor does a late reply to
a finished driver. A message still on its way to a validator does.
"""

import copy
import itertools
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from fastpath.simnet import Scenario, check_invariants, run
from fastpath.simnet.invariants import check_convergence, check_unlock_liveness
from fastpath.simnet.runner import Runner, derive_seed
from fastpath.simnet.workflows import ClientActor

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
AT = 5


def worst_case(delay: int, n: int, seed: int, script=None,
               network=None) -> Scenario:
    """A fault-free, drop-free run where every hop takes `delay` ticks
    (unless `network` says otherwise): by default alice transfers one coin
    and unlocks another, both at `AT`."""
    coin = {"kind": "owned", "owner": {"pk": "alice"}, "contents": 10}
    return Scenario.from_dict({
        "committee": {"n": n, "f": (n - 1) // 3},
        "seed": seed, "ticks": 5000, "epoch_length": 4000,
        "network": network or {"min_delay": delay, "max_delay": delay},
        "accounts": ["alice", "bob"],
        "objects": [{**coin, "name": name}
                    for name in ("coin", "coin2", "gas", "ugas")],
        "script": script or [
            {"at": AT, "client": "alice", "action": "transfer",
             "inputs": ["coin"], "gas": "gas", "to": "bob"},
            {"at": AT, "client": "alice", "action": "unlock",
             "keys": ["coin2"], "gas": "ugas"}],
    })


def driver_retries(trace) -> dict[str, int]:
    """Retries of each finished driver, by its kind and status."""
    return {f"{e['kind']}:{e['status']}": e["retries"] for e in trace.events
            if e["kind"].endswith("_driver_finished")}


@settings(max_examples=40, deadline=None)
@given(delay=st.integers(1, 8), n=st.sampled_from((4, 7)),
       seed=st.integers(0, 2**32))
def test_worst_case_delays_never_retry(delay, n, seed):
    trace = run(worst_case(delay, n, seed))
    assert trace.quiesced
    assert driver_retries(trace) == {"fast_driver_finished:finalized": 0,
                                     "unlock_driver_finished:unlocked": 0}


def _retried_on_a_worst_case_grid() -> list[bool]:
    return [any(driver_retries(run(worst_case(delay, n, seed))).values())
            for delay, n, seed in itertools.product(range(1, 9), (4, 7),
                                                    range(3))]


def test_retry_check_flags_a_planted_early_retry(monkeypatch):
    # one tick short, a retry tick can pop before a reply due on its tick
    def early(actor, driver, hops):
        delay = hops * actor.runner.scenario.network.max_delay
        actor.runner.schedule_timer(actor.name, delay, driver)
        return actor.now + delay

    monkeypatch.setattr(ClientActor, "set_timer", early)
    assert any(_retried_on_a_worst_case_grid())


def test_retry_check_flags_a_sequencer_submission_timed_as_a_request(
        monkeypatch):
    # 2 hops cannot cover the sequenced outcome's 3
    set_timer = ClientActor.set_timer

    def short(actor, driver, hops):
        return set_timer(actor, driver, 2 if hops == 3 else hops)

    monkeypatch.setattr(ClientActor, "set_timer", short)
    assert any(_retried_on_a_worst_case_grid())


@pytest.mark.parametrize("delay", [1, 4, 8])
def test_a_partial_broadcast_reaches_the_rest_when_the_retry_falls(delay):
    # the first round reaches v0 and v1, short of a quorum of 4; the retry
    # tick, armed for the 2 hops of the votes, resends, and v2 and v3 lock
    # the coin one hop after it
    trace = run(worst_case(delay, 4, 1, script=[
        {"at": AT, "client": "alice", "action": "transfer",
         "inputs": ["coin"], "gas": "gas", "to": "bob", "first_to": [0, 1]}]))
    first_lock = {}
    for event in trace.select("lock_set"):
        first_lock.setdefault(event["actor"], event["tick"])
    retry_tick = AT + 2 * delay + 1
    assert first_lock == {"v0": AT + delay, "v1": AT + delay,
                          "v2": retry_tick + delay, "v3": retry_tick + delay}
    assert driver_retries(trace) == {"fast_driver_finished:finalized": 1}


@settings(max_examples=40, deadline=None)
@given(max_delay=st.integers(1, 8), n=st.sampled_from((4, 7)),
       seed=st.integers(0, 2**32))
def test_drops_never_run_a_fault_free_driver_out_of_retries(max_delay, n,
                                                            seed):
    # each of the 3 drops costs at most a few 2-hop retry windows, far
    # fewer than MAX_RETRIES
    trace = run(worst_case(max_delay, n, seed, network={
        "min_delay": 1, "max_delay": max_delay,
        "drop_rate": 0.3, "drop_budget": 3}))
    assert trace.quiesced
    statuses = {e["status"] for e in trace.events
                if e["kind"].endswith("_driver_finished")}
    assert statuses == {"finalized", "unlocked"}


def _cut(name: str, past_last_event: int, explore: int | None = None):
    """The bundled scenario's full run, at its own seed or at its
    `explore`-th explore seed, and a run whose tick limit falls
    `past_last_event` ticks after the full run's last event."""
    scenario = Scenario.load(str(SCENARIOS / name))
    if explore is not None:
        scenario = scenario.with_seed(derive_seed(scenario.seed, explore))
    full = run(scenario)
    limit = full.events[-1]["tick"] + past_last_event
    return full, run(scenario._replace(tick_limit=limit))


@pytest.mark.parametrize("name", ["double_send.yaml", "bounded_counter.yaml"])
def test_idle_retry_ticks_past_the_limit_leave_the_run_quiesced(name):
    # a limit on the last event's tick: an idle retry tick can fall as
    # early as the next one
    full, cut = _cut(name, 0)
    # the full run popped idle retry ticks after its last event
    assert full.ticks > cut.ticks == full.events[-1]["tick"]
    assert cut.events == full.events
    assert cut.quiesced and check_invariants(cut) == []

    # both checkers that skip truncated runs judge this one
    diverged = copy.deepcopy(cut)
    objects = diverged.snapshots["v0"]["objects"]
    objects[next(iter(objects))]["0"] = "c" * 32
    assert check_convergence(diverged)
    hung = copy.copy(cut)
    hung.events = [e for e in cut.events
                   if e["kind"] != "unlock_driver_finished"]
    assert check_unlock_liveness(hung)


def _left_queued(monkeypatch):
    """Record (src, dst, message type) of each entry a run leaves queued
    past its limit, in the order they would pop."""
    left = []
    release = Runner._release

    def record(runner):
        left.extend((src, dst, type(msg).__name__)
                    for src, dst, msg in runner.queued())
        release(runner)

    monkeypatch.setattr(Runner, "_release", record)
    return left


def test_a_late_reply_to_a_finished_driver_leaves_the_run_quiesced(
        monkeypatch):
    # bob's swap, retried after his unlock, finished on a quorum of
    # outcomes; v0's comes after the limit, and would reach a driver that
    # ignores it
    left = _left_queued(monkeypatch)
    full, cut = _cut("swap_deadlock.yaml", 0, explore=0)
    assert left == [("v0", "bob", "Outcome"), ("timer", "bob",
                                                "FastPathDriver")]
    assert cut.events == full.events
    assert cut.quiesced and check_invariants(cut) == []


def test_a_limit_that_cuts_messages_in_flight_is_not_quiesced(monkeypatch):
    # the sequencer's last checkpoint slot is still on its way to v2 and v3
    left = _left_queued(monkeypatch)
    _, cut = _cut("double_send.yaml", -1)
    assert left == [("seq", "v2", "SequencedItem"),
                    ("seq", "v3", "SequencedItem"),
                    ("timer", "alice", "FastPathDriver")]
    assert not cut.quiesced
