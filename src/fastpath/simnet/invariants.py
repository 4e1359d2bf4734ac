"""Trace-level checkers for the protocol's safety and liveness claims.

Each checker reads a recorded trace (events plus final snapshots) and
returns violations; an empty result across all of them means every claim
held on this schedule. Checkers quantify over honest validators only:
events from Byzantine actors are evidence of behavior, not subjects of
the guarantees. The registry, `CHECKERS`, is an explicit ordered list,
so run summaries enumerate every checker exactly once.

`check_invariants` reads the trace once: one pass builds a `TraceIndex`,
and every checker reads that index, only the kinds of event it judges,
instead of the events. To add a checker, write its judge, a generator
that yields one message per violation it finds in a `TraceIndex`, under
`@checker(name)`, and list it in `CHECKERS`; perfbench then reports it
as `invariants.<name>.ms_per_run`, which `BENCHMARK.json` must declare.

Covered claims: finalized effects are never reverted; sequenced execution
per object version is unique and bit-identical across honest validators;
unlock table entries move only forward; per-object versions stay gapless;
each sequenced unlock consumes its gas exactly once; every key that
consensus settled was consumed, so none is left settled at its last
version; unauthorized requesters never assemble an unlock certificate;
authorized unlocks complete within the epoch bound on quiescent runs; and
bounded-counter debit totals never exceed the credit the counter actually
had.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Callable, Iterator
from functools import wraps
from itertools import chain
from typing import NamedTuple

from .scenario import COVERED_KINDS, fault_bound_error
from .trace import Trace


class Violation(NamedTuple):
    checker: str
    message: str


class TraceIndex:
    """What the checkers read of one trace: its meta, snapshots, end flag
    and drop count, where each kind's events sit, the honest validator
    names (`honest`) and, sorted, those with a snapshot that did not crash
    (`live_honest`). An event whose kind is unhashable (a list, in a
    doctored trace) is of no kind, as `Trace.select` never returns it."""

    def __init__(self, trace: Trace):
        self.meta = trace.meta
        self.snapshots = trace.snapshots
        self.quiesced = trace.quiesced
        self.dropped = trace.dropped
        self._events = trace.events
        positions: defaultdict[str, list[int]] = defaultdict(list)
        for position, event in enumerate(trace.events):
            try:
                positions[event["kind"]].append(position)
            except TypeError:
                pass
        self._positions = positions
        faults = trace.meta.get("faults", {})
        self.honest = {f"v{i}" for i in range(trace.meta["n"])
                       if faults.get(str(i), "honest") in COVERED_KINDS}
        live = []
        for name in self.honest:
            snap = trace.snapshots.get(name)
            if snap is not None and not snap.get("crashed", False):
                live.append(name)
        self.live_honest = sorted(live)

    def of(self, *kinds: str) -> Iterator[dict]:
        """The events of these kinds, in trace order."""
        groups = [self._positions.get(kind, ()) for kind in kinds]
        positions = groups[0] if len(groups) == 1 \
            else sorted(chain.from_iterable(groups))
        return map(self._events.__getitem__, positions)


def checker(name: str):
    """Declare the checker `name` over a judge that yields one message per
    violation in a `TraceIndex`: the public function takes a `Trace` or
    its index and returns `Violation(name, message)` for each message."""
    def declare(judge: Callable[[TraceIndex], Iterator[str]]):
        @wraps(judge)
        def check(trace: Trace | TraceIndex) -> list[Violation]:
            index = trace if isinstance(trace, TraceIndex) \
                else TraceIndex(trace)
            return [Violation(name, message) for message in judge(index)]
        check.name = name
        return check
    return declare


@checker("byzantine_bound")
def check_byzantine_bound(index: TraceIndex) -> Iterator[str]:
    """No more validators are faulty than the scenario's `f` allows."""
    error = fault_bound_error(index.meta.get("faults", {}).values(),
                              index.meta["f"])
    if error:
        yield error


@checker("drop_budget")
def check_drop_budget(index: TraceIndex) -> Iterator[str]:
    """The network dropped no more messages than its `drop_budget`."""
    budget = index.meta.get("drop_budget", 0)
    if index.dropped > budget:
        yield f"dropped {index.dropped} > budget {budget}"


@checker("client_safety")
def check_client_safety(index: TraceIndex) -> Iterator[str]:
    """Finalized effects must be present in every live honest validator's
    final state: an effect certificate is a promise of permanence."""
    stores = [(name, index.snapshots[name].get("objects", {}))
              for name in index.live_honest]
    no_versions: dict = {}
    for event in index.of("effect_cert"):
        for oid, version, fingerprint in event["produced"]:
            version_key = str(version)
            for name, objects in stores:
                stored = objects.get(oid, no_versions).get(version_key)
                if stored != fingerprint:
                    yield (f"finalized tx {event['tx'][:16]} output {oid[:16]}"
                           f" v{version} missing or altered at {name}")


@checker("conflicting_execution")
def check_conflicting_execution(index: TraceIndex) -> Iterator[str]:
    """Sequenced executions: per object version at most one, and the same
    transaction with bit-identical effects at every honest validator."""
    honest = index.honest
    per_validator = defaultdict(dict)
    key_execs = defaultdict(lambda: defaultdict(set))
    for event in index.of("seq_exec"):
        actor = event["actor"]
        if actor not in honest:
            continue
        txs = per_validator[actor]
        tx = event["tx"]
        prior = txs.get(tx)
        effects = event["effects"]
        if prior is not None and prior != effects:
            yield f"{actor} produced two effect variants for {tx[:16]}"
        txs[tx] = effects
        keys = key_execs[actor]
        for oid, version in event["consumed"]:
            keys[(oid, version)].add(tx)
    for actor, keys in sorted(key_execs.items()):
        for key in sorted(k for k, txs in keys.items() if len(txs) > 1):
            yield (f"{actor} sequenced {len(keys[key])} executions over"
                   f" {key[0][:16]} v{key[1]}")
    names = sorted(per_validator)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            ours, theirs = per_validator[a], per_validator[b]
            for tx in sorted(tx for tx, effects in ours.items()
                             if tx in theirs and effects != theirs[tx]):
                yield f"{a} and {b} disagree on effects of {tx[:16]}"


@checker("per_key_linearity")
def check_per_key_linearity(index: TraceIndex) -> Iterator[str]:
    """At most one surviving state-mutating execution per object version,
    across the fast, unlock, and checkpoint paths."""
    honest = index.honest
    surviving = defaultdict(lambda: defaultdict(set))
    no_txs: set[str] = set()
    for event in index.of("fast_exec", "undo", "seq_exec"):
        actor = event.get("actor")
        if actor not in honest:
            continue
        book = surviving[actor]
        if event["kind"] == "undo":
            for oid, version in event["keys"]:
                book.get((oid, version), no_txs).discard(event["tx"])
        else:
            for oid, version in event["consumed"]:
                book[(oid, version)].add(event["tx"])
    for actor, book in sorted(surviving.items()):
        for key in sorted(k for k, txs in book.items() if len(txs) > 1):
            yield (f"{actor}: {len(book[key])} surviving executions consumed"
                   f" {key[0][:16]} v{key[1]}")


_ALLOWED_TRANSITIONS = {("none", "unlocked"), ("none", "confirmed"),
                        ("unlocked", "confirmed")}


@checker("unlock_monotonic")
def check_unlock_monotonic(index: TraceIndex) -> Iterator[str]:
    """Honest unlock-table entries only move forward."""
    honest = index.honest
    states: dict[tuple, str] = {}
    for event in index.of("unlock_db_set"):
        actor = event["actor"]
        if actor not in honest:
            continue
        key = (actor, *event["key"])
        prev_seen = states.get(key, "none")
        prev, state = event["prev"], event["state"]
        if prev != prev_seen or (prev, state) not in _ALLOWED_TRANSITIONS:
            yield (f"{actor} moved {event['key'][0][:16]}"
                   f" v{event['key'][1]} {prev_seen}->{state}")
        states[key] = state


@checker("version_continuity")
def check_version_continuity(index: TraceIndex) -> Iterator[str]:
    """Each object's versions in an honest final state are gapless."""
    # objects share a few version sets, so each set is judged once: its
    # sorted versions if they have a gap, else None
    gapped: dict[tuple, list[int] | None] = {}
    for name in sorted(index.honest):
        snap = index.snapshots.get(name)
        if snap is None:
            continue
        for oid, versions in snap.get("objects", {}).items():
            keys = tuple(versions)
            if keys not in gapped:
                present = sorted(map(int, keys))
                expected = list(range(present[0], present[0] + len(present)))
                gapped[keys] = None if present == expected else present
            present = gapped[keys]
            if present is not None:
                yield f"{name}: object {oid[:16]} versions {present} have gaps"


@checker("gas_conservation")
def check_gas_conservation(index: TraceIndex) -> Iterator[str]:
    """Every sequenced unlock certificate pays with its gas object exactly
    once per honest validator, in all outcome cases."""
    honest = index.honest
    consumed = Counter((event.get("actor"), event["rqt"])
                       for event in index.of("gas_consumed")
                       if event.get("actor") in honest)
    outcomes = {(event.get("actor"), event["rqt"])
                for event in index.of("unlock_exec", "unlock_ignored")
                if event.get("actor") in honest}
    for pair in sorted(outcomes):
        count = consumed.get(pair, 0)
        if count != 1:
            yield (f"{pair[0]} consumed unlock gas {count} times for"
                   f" rqt {pair[1][:16]}")


@checker("starvation_freedom")
def check_starvation_freedom(index: TraceIndex) -> Iterator[str]:
    """No unauthorized unlock certificate is assembled or executed."""
    unauthorized = set()
    for event in index.of("ucert_assembled"):
        if not event.get("authorized", True):
            unauthorized.add(event["rqt"])
            yield (f"unauthorized requester assembled unlock cert"
                   f" {event['rqt'][:16]}")
    for event in index.of("unlock_exec"):
        if event["actor"] in index.honest and event["rqt"] in unauthorized:
            yield f"{event['actor']} executed an unauthorized unlock"


@checker("unlock_liveness")
def check_unlock_liveness(index: TraceIndex) -> Iterator[str]:
    """On quiescent runs, every authorized unlock reaches a terminal
    outcome, its first `unlock_driver_finished` record that is not a
    `timeout`, within the epoch-length bound; truncated runs are
    inconclusive and report nothing."""
    if not index.quiesced:
        return
    bound = index.meta.get("epoch_length", 0)
    completions: dict[str, int] = {}
    for event in index.of("unlock_driver_finished"):
        if event["status"] != "timeout":
            completions.setdefault(event["rqt"], event["tick"])
    for event in index.of("unlock_started"):
        if not event.get("authorized", True):
            continue
        done_at = completions.get(event["rqt"])
        if done_at is None:
            yield f"authorized unlock {event['rqt'][:16]} never completed"
        elif done_at - event["tick"] > bound:
            yield (f"unlock {event['rqt'][:16]} took {done_at - event['tick']}"
                   f" ticks (bound {bound})")


@checker("bounded_counter_safety")
def check_bounded_counters(index: TraceIndex) -> Iterator[str]:
    """Across everything that finalized, a bounded counter's debits never
    exceed its initial credit plus finalized credits."""
    limits = {spec["oid"]: spec["limit"]
              for spec in index.meta.get("objects", {}).values()
              if spec.get("flavor") == "bounded"}
    if not limits:
        return
    honest = index.honest
    finalized: dict[str, list] = {}
    for event in index.of("effect_cert", "seq_exec"):
        counters = event.get("counters")
        if not counters:
            continue
        if event["kind"] == "effect_cert" or event["actor"] in honest:
            finalized.setdefault(event["tx"], counters)
    debits = {oid: 0 for oid in limits}
    credits = {oid: 0 for oid in limits}
    for counters in finalized.values():
        for oid, delta in counters:
            if oid not in limits:
                continue
            if delta < 0:
                debits[oid] += -delta
            else:
                credits[oid] += delta
    for oid in sorted(limits):
        allowed = limits[oid] + credits[oid]
        if debits[oid] > allowed:
            yield (f"counter {oid[:16]} finalized debits {debits[oid]}"
                   f" exceed allowed {allowed}")


@checker("convergence")
def check_convergence(index: TraceIndex) -> Iterator[str]:
    """After quiescence, live honest validators agree on object state and
    on the sequenced counter history."""
    if not index.quiesced:
        return
    names = index.live_honest
    if len(names) < 2:
        return
    baseline = index.snapshots[names[0]]
    for name in names[1:]:
        snap = index.snapshots[name]
        for field_name in ("objects", "latest"):
            if snap.get(field_name) != baseline.get(field_name):
                yield f"{name} and {names[0]} disagree on {field_name}"
        base_counters = baseline.get("counters", {})
        for oid, local in snap.get("counters", {}).items():
            other = base_counters.get(oid, {})
            for aspect in ("settled", "members", "value", "limit", "version"):
                if local.get(aspect) != other.get(aspect):
                    yield (f"{name} and {names[0]} disagree on counter"
                           f" {oid[:16]} {aspect}")


@checker("settled_keys_consumed")
def check_settled_keys_consumed(index: TraceIndex) -> Iterator[str]:
    """Every key that a live honest validator holds `confirmed` has a later
    version there: consensus settled it, so an execution consumed it."""
    for name in index.live_honest:
        snap = index.snapshots[name]
        latest, objects = snap.get("latest", {}), snap.get("objects", {})
        for key, state in snap.get("unlock_db", {}).items():
            oid, _, version = key.rpartition(":")
            if state == "confirmed" and (version not in objects.get(oid, ())
                                         or version == str(latest.get(oid))):
                yield (f"{name}: {oid[:16]} v{version}"
                       " is confirmed, not consumed")


CHECKERS = [(check.name, check) for check in (
    check_byzantine_bound,
    check_drop_budget,
    check_client_safety,
    check_conflicting_execution,
    check_per_key_linearity,
    check_unlock_monotonic,
    check_version_continuity,
    check_gas_conservation,
    check_starvation_freedom,
    check_unlock_liveness,
    check_bounded_counters,
    check_convergence,
    check_settled_keys_consumed,
)]


def check_invariants(trace: Trace) -> list[Violation]:
    """Run every registered checker on one index of the trace; empty
    result means all claims held."""
    index = TraceIndex(trace)
    return [violation for _, check in CHECKERS for violation in check(index)]


def verdicts(violations: list[Violation]) -> dict[str, str]:
    """Per-checker pass/fail map over the result of `check_invariants`,
    every registered checker exactly once."""
    failed = {violation.checker for violation in violations}
    return {name: "fail" if name in failed else "pass"
            for name, _ in CHECKERS}
