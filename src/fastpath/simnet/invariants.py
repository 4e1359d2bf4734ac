"""Trace-level checkers for the protocol's safety and liveness claims.

Each checker reads a recorded trace (events plus final snapshots) and
returns violations; an empty result across all of them means every claim
held on this schedule. Checkers quantify over honest validators only:
events from Byzantine actors are evidence of behavior, not subjects of
the guarantees. The registry below is fixed so run summaries enumerate
every checker exactly once.

Covered claims: finalized effects are never reverted; sequenced execution
per object version is unique and bit-identical across honest validators;
unlock table entries move only forward; per-object versions stay gapless;
each sequenced unlock consumes its gas exactly once; unauthorized
requesters never assemble an unlock certificate; authorized unlocks
complete within the epoch bound on quiescent runs; and bounded-counter
debit totals never exceed the credit the counter actually had.
"""

from __future__ import annotations

from typing import NamedTuple

from .scenario import COVERED_KINDS, fault_bound_error
from .trace import Trace


class Violation(NamedTuple):
    checker: str
    message: str


def _honest_ids(trace: Trace) -> set[str]:
    faults = trace.meta.get("faults", {})
    n = trace.meta["n"]
    return {f"v{i}" for i in range(n)
            if faults.get(str(i), "honest") in COVERED_KINDS}


def _live_honest(trace: Trace) -> set[str]:
    out = set()
    for name in _honest_ids(trace):
        snap = trace.snapshots.get(name)
        if snap is not None and not snap.get("crashed", False):
            out.add(name)
    return out


def check_byzantine_bound(trace: Trace) -> list[Violation]:
    error = fault_bound_error(trace.meta.get("faults", {}).values(),
                              trace.meta["f"])
    return [Violation("byzantine_bound", error)] if error else []


def check_drop_budget(trace: Trace) -> list[Violation]:
    budget = trace.meta.get("drop_budget", 0)
    if trace.dropped > budget:
        return [Violation("drop_budget",
                          f"dropped {trace.dropped} > budget {budget}")]
    return []


def check_client_safety(trace: Trace) -> list[Violation]:
    """Finalized effects must be present in every live honest validator's
    final state: an effect certificate is a promise of permanence."""
    out = []
    validators = _live_honest(trace)
    for event in trace.select("effect_cert"):
        for oid, version, fingerprint in event["produced"]:
            for name in sorted(validators):
                objects = trace.snapshots[name].get("objects", {})
                stored = objects.get(oid, {}).get(str(version))
                if stored != fingerprint:
                    out.append(Violation(
                        "client_safety",
                        f"finalized tx {event['tx'][:16]} output {oid[:16]}"
                        f" v{version} missing or altered at {name}"))
    return out


def check_conflicting_execution(trace: Trace) -> list[Violation]:
    """Sequenced executions: per object version at most one, and the same
    transaction with bit-identical effects at every honest validator."""
    out = []
    per_validator: dict[str, dict[str, str]] = {}
    key_execs: dict[str, dict[tuple, set[str]]] = {}
    honest = _honest_ids(trace)
    for event in trace.select("seq_exec"):
        actor = event["actor"]
        if actor not in honest:
            continue
        txs = per_validator.setdefault(actor, {})
        prior = txs.get(event["tx"])
        if prior is not None and prior != event["effects"]:
            out.append(Violation(
                "conflicting_execution",
                f"{actor} produced two effect variants for {event['tx'][:16]}"))
        txs[event["tx"]] = event["effects"]
        keys = key_execs.setdefault(actor, {})
        for oid, version in event["consumed"]:
            keys.setdefault((oid, version), set()).add(event["tx"])
    for actor, keys in sorted(key_execs.items()):
        for key, txs in sorted(keys.items()):
            if len(txs) > 1:
                out.append(Violation(
                    "conflicting_execution",
                    f"{actor} sequenced {len(txs)} executions over"
                    f" {key[0][:16]} v{key[1]}"))
    names = sorted(per_validator)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            common = per_validator[a].keys() & per_validator[b].keys()
            for tx in sorted(common):
                if per_validator[a][tx] != per_validator[b][tx]:
                    out.append(Violation(
                        "conflicting_execution",
                        f"{a} and {b} disagree on effects of {tx[:16]}"))
    return out


def check_per_key_linearity(trace: Trace) -> list[Violation]:
    """At most one surviving state-mutating execution per object version,
    across the fast, unlock, and checkpoint paths."""
    out = []
    honest = _honest_ids(trace)
    surviving: dict[str, dict[tuple, set[str]]] = {}
    for event in trace.events:
        actor = event.get("actor")
        if actor not in honest:
            continue
        if event["kind"] == "fast_exec":
            book = surviving.setdefault(actor, {})
            for oid, version in event["consumed"]:
                book.setdefault((oid, version), set()).add(event["tx"])
        elif event["kind"] == "undo":
            book = surviving.setdefault(actor, {})
            for oid, version in event["keys"]:
                book.get((oid, version), set()).discard(event["tx"])
        elif event["kind"] == "seq_exec":
            book = surviving.setdefault(actor, {})
            for oid, version in event["consumed"]:
                book.setdefault((oid, version), set()).add(event["tx"])
    for actor, book in sorted(surviving.items()):
        for key, txs in sorted(book.items()):
            if len(txs) > 1:
                out.append(Violation(
                    "per_key_linearity",
                    f"{actor}: {len(txs)} surviving executions consumed"
                    f" {key[0][:16]} v{key[1]}"))
    return out


_ALLOWED_TRANSITIONS = {("none", "unlocked"), ("none", "confirmed"),
                        ("unlocked", "confirmed")}


def check_unlock_monotonic(trace: Trace) -> list[Violation]:
    out = []
    honest = _honest_ids(trace)
    states: dict[tuple, str] = {}
    for event in trace.select("unlock_db_set"):
        if event["actor"] not in honest:
            continue
        key = (event["actor"], tuple(event["key"]))
        prev_seen = states.get(key, "none")
        prev, state = event["prev"], event["state"]
        if prev != prev_seen or (prev, state) not in _ALLOWED_TRANSITIONS:
            out.append(Violation(
                "unlock_monotonic",
                f"{event['actor']} moved {event['key'][0][:16]}"
                f" v{event['key'][1]} {prev_seen}->{state}"))
        states[key] = state
    return out


def check_version_continuity(trace: Trace) -> list[Violation]:
    out = []
    for name in sorted(_honest_ids(trace)):
        snap = trace.snapshots.get(name)
        if snap is None:
            continue
        for oid, versions in snap.get("objects", {}).items():
            present = sorted(int(v) for v in versions)
            expected = list(range(present[0], present[0] + len(present)))
            if present != expected:
                out.append(Violation(
                    "version_continuity",
                    f"{name}: object {oid[:16]} versions {present} have gaps"))
    return out


def check_gas_conservation(trace: Trace) -> list[Violation]:
    """Every sequenced unlock certificate pays with its gas object exactly
    once per honest validator, in all outcome cases."""
    out = []
    honest = _honest_ids(trace)
    consumed: dict[tuple, int] = {}
    outcomes: set[tuple] = set()
    for event in trace.events:
        if event.get("actor") not in honest:
            continue
        if event["kind"] == "gas_consumed":
            pair = (event["actor"], event["rqt"])
            consumed[pair] = consumed.get(pair, 0) + 1
        elif event["kind"] in ("unlock_exec", "unlock_ignored"):
            outcomes.add((event["actor"], event["rqt"]))
    for pair in sorted(outcomes):
        count = consumed.get(pair, 0)
        if count != 1:
            out.append(Violation(
                "gas_conservation",
                f"{pair[0]} consumed unlock gas {count} times for"
                f" rqt {pair[1][:16]}"))
    return out


def check_starvation_freedom(trace: Trace) -> list[Violation]:
    out = []
    unauthorized = set()
    for event in trace.select("ucert_assembled"):
        if not event.get("authorized", True):
            unauthorized.add(event["rqt"])
            out.append(Violation(
                "starvation_freedom",
                f"unauthorized requester assembled unlock cert"
                f" {event['rqt'][:16]}"))
    honest = _honest_ids(trace)
    for event in trace.select("unlock_exec"):
        if event["actor"] in honest and event["rqt"] in unauthorized:
            out.append(Violation(
                "starvation_freedom",
                f"{event['actor']} executed an unauthorized unlock"))
    return out


def check_unlock_liveness(trace: Trace) -> list[Violation]:
    """On quiescent runs, every authorized unlock reaches a terminal
    outcome (its effect certificates, superseded, or refused by the
    validators) within the epoch-length bound; truncated runs are
    inconclusive and report nothing."""
    if not trace.quiesced:
        return []
    out = []
    bound = trace.meta.get("epoch_length", 0)
    completions: dict[str, int] = {}
    for event in trace.events:
        rqt = event.get("rqt")
        if rqt is None:
            continue
        if (event["kind"] == "effect_cert" and event.get("path") == "unlock") \
                or event["kind"] in ("unlock_superseded", "unlock_refused"):
            completions.setdefault(rqt, event["tick"])
    for event in trace.select("unlock_started"):
        if not event.get("authorized", True):
            continue
        done_at = completions.get(event["rqt"])
        if done_at is None:
            out.append(Violation(
                "unlock_liveness",
                f"authorized unlock {event['rqt'][:16]} never completed"))
        elif done_at - event["tick"] > bound:
            out.append(Violation(
                "unlock_liveness",
                f"unlock {event['rqt'][:16]} took {done_at - event['tick']}"
                f" ticks (bound {bound})"))
    return out


def check_bounded_counters(trace: Trace) -> list[Violation]:
    """Across everything that finalized, a bounded counter's debits never
    exceed its initial credit plus finalized credits."""
    out = []
    limits = {}
    for name, spec in trace.meta.get("objects", {}).items():
        if spec.get("flavor") == "bounded":
            limits[spec["oid"]] = spec["limit"]
    if not limits:
        return out
    honest = _honest_ids(trace)
    finalized: dict[str, list] = {}
    for event in trace.events:
        counters = event.get("counters")
        if not counters:
            continue
        if event["kind"] == "effect_cert" or (
                event["kind"] == "seq_exec" and event["actor"] in honest):
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
            out.append(Violation(
                "bounded_counter_safety",
                f"counter {oid[:16]} finalized debits {debits[oid]}"
                f" exceed allowed {allowed}"))
    return out


def check_convergence(trace: Trace) -> list[Violation]:
    """After quiescence, live honest validators agree on object state and
    on the sequenced counter history."""
    if not trace.quiesced:
        return []
    out = []
    names = sorted(_live_honest(trace))
    if len(names) < 2:
        return out
    baseline = trace.snapshots[names[0]]
    for name in names[1:]:
        snap = trace.snapshots[name]
        for field_name in ("objects", "latest"):
            if snap.get(field_name) != baseline.get(field_name):
                out.append(Violation(
                    "convergence",
                    f"{name} and {names[0]} disagree on {field_name}"))
        base_counters = baseline.get("counters", {})
        for oid, local in snap.get("counters", {}).items():
            other = base_counters.get(oid, {})
            for aspect in ("settled", "members", "value", "limit", "version"):
                if local.get(aspect) != other.get(aspect):
                    out.append(Violation(
                        "convergence",
                        f"{name} and {names[0]} disagree on counter"
                        f" {oid[:16]} {aspect}"))
    return out


CHECKERS = [
    ("byzantine_bound", check_byzantine_bound),
    ("drop_budget", check_drop_budget),
    ("client_safety", check_client_safety),
    ("conflicting_execution", check_conflicting_execution),
    ("per_key_linearity", check_per_key_linearity),
    ("unlock_monotonic", check_unlock_monotonic),
    ("version_continuity", check_version_continuity),
    ("gas_conservation", check_gas_conservation),
    ("starvation_freedom", check_starvation_freedom),
    ("unlock_liveness", check_unlock_liveness),
    ("bounded_counter_safety", check_bounded_counters),
    ("convergence", check_convergence),
]


def check_invariants(trace: Trace) -> list[Violation]:
    """Run every registered checker; empty result means all claims held."""
    out: list[Violation] = []
    for _, checker in CHECKERS:
        out.extend(checker(trace))
    return out


def verdicts(violations: list[Violation]) -> dict[str, str]:
    """Per-checker pass/fail map over the result of `check_invariants`,
    every registered checker exactly once."""
    failed = {violation.checker for violation in violations}
    return {name: "fail" if name in failed else "pass"
            for name, _ in CHECKERS}
