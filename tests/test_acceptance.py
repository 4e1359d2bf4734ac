"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is pinned here; the randomized criteria derive all
their seeds deterministically, so the suite itself is reproducible.
"""

import itertools
import time

import pytest

from fastpath.client import UnlockRqt, UnlockVote, assemble_unlock_cert
from fastpath.counters import initial_budget
from fastpath.crypto import DEFAULT_SCHEME
from fastpath.simnet.invariants import (
    check_bounded_counters,
    check_client_safety,
    check_conflicting_execution,
    check_gas_conservation,
    check_invariants,
    check_per_key_linearity,
    check_unlock_monotonic,
)
from fastpath.simnet.runner import Runner, derive_seed, run
from fastpath.types import CommitteeParams, TxKind, quorum

from tests.conftest import World
from tests.scenario_builders import (
    bounded_spend,
    counter_race,
    double_send,
    epoch_change,
    gas_case_carried,
    gas_case_noop,
    gas_case_superseded,
    plain_transfer,
    swap_deadlock,
    unauthorized_unlock,
)


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {num:02d} {name}: {verdict}{suffix}")
    assert ok, f"criterion {num} {name} failed: {detail}"


def test_01_quorum_intersection_exhaustive():
    started = time.perf_counter()
    worst_seen = []
    for n in range(1, 14):
        for f in range((n - 1) // 3 + 1):
            params = CommitteeParams(n, f)
            q = quorum(params)
            masks = [sum(1 << i for i in combo)
                     for combo in itertools.combinations(range(n), q)]
            worst = min((a & b).bit_count() for a in masks for b in masks)
            worst_seen.append(((n, f), worst))
            assert worst >= f + 1, f"n={n} f={f}: overlap {worst} < {f + 1}"
    elapsed = time.perf_counter() - started
    report(1, "quorum intersection", elapsed < 1.0,
           f"{len(worst_seen)} committees, {elapsed:.2f}s")


def test_02_03_client_safety_and_unique_execution():
    started = time.perf_counter()
    adversaries = ("equivocator", "vote_withholder", "stale_replier")
    builders = (swap_deadlock, double_send)
    sizes = (4, 7)
    per_combo = 250  # 250 x 2 scenarios x 2 sizes = 1000 schedules/adversary
    safety_violations = []
    execution_violations = []
    runs = 0
    for fault in adversaries:
        for builder in builders:
            for n in sizes:
                for i in range(per_combo):
                    seed = derive_seed(2000 + n, i)
                    trace = run(builder(seed, n=n, fault=fault))
                    runs += 1
                    safety_violations.extend(check_client_safety(trace))
                    execution_violations.extend(
                        check_conflicting_execution(trace))
    elapsed = time.perf_counter() - started
    report(2, "client safety", not safety_violations and elapsed < 120.0,
           f"{runs} adversarial schedules, {elapsed:.1f}s, "
           f"{len(safety_violations)} reverted")
    report(3, "unique sequenced execution", not execution_violations,
           f"{len(execution_violations)} conflicts across the same runs")


def test_04_unlock_liveness_noop_case():
    failures = []
    slowest = 0.0
    for i in range(25):
        started = time.perf_counter()
        scenario = swap_deadlock(derive_seed(4000, i))
        runner = Runner(scenario)
        trace = runner.run()
        slowest = max(slowest, time.perf_counter() - started)
        if not trace.quiesced:
            failures.append((i, "did not quiesce"))
            continue
        # each no-op step is a seq_exec via noop; the same validator's
        # unlock_exec that lists its effects lists the versions they produced
        produced = {(e["actor"], effects): e["produced"]
                    for e in trace.select("unlock_exec")
                    for effects in e["effects"]}
        noops = [e for e in trace.select("seq_exec") if e["via"] == "noop"]
        if not noops:
            failures.append((i, "no no-op unlock happened"))
            continue
        states = {a.name: a.state for a in runner.validators}
        for event in noops:
            objects = states[event["actor"]].objects
            fresh = dict(produced[(event["actor"], event["effects"])])
            for oid, old in event["consumed"]:
                new = fresh.get(oid)
                versions = objects[bytes.fromhex(oid)]
                if new != old + 1 or (versions[old].contents
                                      != versions[new].contents):
                    failures.append((i, f"{oid[:8]} {old}->{new}"))
        starts = {e["rqt"]: e["tick"] for e in trace.select("unlock_started")}
        for event in trace.select("effect_cert"):
            if event.get("path") != "unlock":
                continue
            begun = starts.get(event.get("rqt"))
            if begun is not None and event["tick"] - begun > scenario.epoch_length:
                failures.append((i, "unlock exceeded the epoch bound"))
        if check_invariants(trace):
            failures.append((i, "invariant violation"))
    report(4, "unlock liveness (no-op case)",
           not failures and slowest < 1.0,
           f"25 deadlock runs, slowest {slowest * 1000:.0f}ms, "
           f"failures={failures[:3]}")


def test_05_starvation_freedom():
    started = time.perf_counter()
    assembled = 0
    violations = []
    for i in range(1000):
        trace = run(unauthorized_unlock(derive_seed(5000, i)))
        assembled += len(trace.select("ucert_assembled"))
        violations.extend(v for v in check_invariants(trace))
    elapsed = time.perf_counter() - started
    report(5, "starvation freedom", assembled == 0 and not violations,
           f"1000 seeds, {elapsed:.1f}s, {assembled} certs assembled")


def test_06_multi_unlock_branch_against_brute_force():
    world = World()
    world.add_owned("k1", "alice", 10)
    world.add_owned("k2", "alice", 20)
    for name in ("gA", "gB", "gR", "gU"):
        world.add_owned(name, "alice", 50)
    cert_a = world.cert(world.tx(TxKind.NOOP, ["k1"], "gA", ["alice"]))
    cert_b = world.cert(world.tx(TxKind.NOOP, ["k2"], "gB", ["alice"]))
    replacement = world.tx(TxKind.SWAP, ["k1", "k2"], "gR", ["alice"])
    keys = (world.key("k1"), world.key("k2"))
    bare = UnlockRqt(keys, replacement, world.key("gU"), 0,
                     world.account("alice"))
    evidence = world.evidence(bare.signing_digest, ["alice"],
                              sorted(bare.included_oids))
    rqt = UnlockRqt(keys, replacement, bare.gas, 0, world.account("alice"),
                    evidence)

    choices = [(), (cert_a,), (cert_b,), (cert_a, cert_b)]
    subsets = (list(itertools.combinations(range(4), 3))
               + [tuple(range(4))])
    cases = 0
    for assignment in itertools.product(range(4), repeat=4):
        votes = [UnlockVote.make(rqt.digest, choices[c], vid, DEFAULT_SCHEME)
                 for vid, c in enumerate(assignment)]
        for subset in subsets:
            chosen = [votes[v] for v in subset]
            ucert = assemble_unlock_cert(chosen, rqt, world.params)
            oracle_union = {c.tx.digest for v in chosen for c in v.carried}
            state = world.state()
            out = state.process_unlock_cert(ucert)
            assert out.status == "executed"
            executed = set(state.executed)
            if not oracle_union:
                expected = {replacement.digest}
            else:
                expected = set(oracle_union)
            assert executed == expected, (assignment, subset)
            assert (replacement.digest in executed) == (not oracle_union)
            cases += 1
    report(6, "multi-unlock branch correctness", True,
           f"{cases} vote subsets checked against the brute-force union")


def test_07_gas_consumed_exactly_once_in_all_three_outcomes():
    failures = []

    def gas_counts(trace, rqt_digest=None):
        counts = {}
        for event in trace.select("gas_consumed"):
            if rqt_digest is None or event["rqt"] == rqt_digest:
                counts[event["actor"]] = counts.get(event["actor"], 0) + 1
        return counts

    # outcome one: the unlock certificate carries and executes a certificate
    # at this seed v0, which alone executed the certificate, is among the
    # voters whose votes make the unlock certificate
    trace = run(gas_case_carried(15))
    execs = [e for e in trace.select("unlock_exec") if e["branch"] == "carried"]
    if len(execs) != 4 or not trace.quiesced:
        failures.append("carried-branch execution missing")
    if sorted(gas_counts(trace).values()) != [1, 1, 1, 1]:
        failures.append(f"carried case gas counts {gas_counts(trace)}")
    coin_oid = trace.meta["objects"]["coin"]["oid"]
    tx_gas_oid = trace.meta["objects"]["g1"]["oid"]
    for snap in trace.snapshots.values():
        if snap["latest"][coin_oid] != 1 or snap["latest"][tx_gas_oid] != 1:
            failures.append("carried case did not consume both gas objects")
    if check_gas_conservation(trace):
        failures.append("carried case conservation")

    # outcome two: no-op unlock; the racing transaction's gas stays locked
    trace = run(gas_case_noop(42))
    noop_rqts = {e["rqt"] for e in trace.select("unlock_exec")
                 if e["branch"] == "noop"}
    if not noop_rqts:
        failures.append("no-op case never happened")
    for rqt in sorted(noop_rqts):
        if sorted(gas_counts(trace, rqt).values()) != [1, 1, 1, 1]:
            failures.append(f"noop case gas counts for {rqt[:8]}")
    if check_gas_conservation(trace):
        failures.append("noop case conservation")

    # outcome three: a checkpoint wins, the unlock is ignored but still pays
    trace = run(gas_case_superseded(13))
    if len(trace.select("unlock_ignored")) != 4:
        failures.append("superseded case not ignored everywhere")
    if sorted(gas_counts(trace).values()) != [1, 1, 1, 1]:
        failures.append(f"superseded case gas counts {gas_counts(trace)}")
    coin_oid = trace.meta["objects"]["coin"]["oid"]
    for snap in trace.snapshots.values():
        if snap["latest"][coin_oid] != 1:
            failures.append("superseded case altered the object state")
    if check_gas_conservation(trace):
        failures.append("superseded case conservation")

    report(7, "gas handled in all three unlock outcomes", not failures,
           str(failures[:3]))


def test_08_epoch_change_preserves_finalized_work():
    trace = run(epoch_change(5))
    failures = []
    if not trace.quiesced:
        failures.append("did not quiesce")
    finalized = [e for e in trace.select("effect_cert")
                 if e.get("path") == "fast"]
    if not finalized:
        failures.append("nothing finalized before the boundary")
    tx_digest = finalized[0]["tx"]
    checkpoint_seq = None
    eoe_seqs = []
    for event in trace.select("sequenced"):
        if event["item_kind"] == "checkpoint" and checkpoint_seq is None:
            checkpoint_seq = event["seq"]
        if event["item_kind"] == "end_of_epoch":
            eoe_seqs.append(event["seq"])
    if checkpoint_seq is None or len(eoe_seqs) < 3:
        failures.append("epoch change did not complete")
    elif checkpoint_seq > eoe_seqs[2]:
        failures.append("finalized tx checkpointed after the epoch quorum")
    statuses = [e["status"] for e in trace.select("driver_done")]
    if statuses != ["finalized", "rejected", "finalized"]:
        failures.append(f"driver outcomes {statuses}")
    old_oids = {trace.meta["objects"]["coin"]["oid"]}
    for snap in trace.snapshots.values():
        if snap["epoch"] != 1:
            failures.append(f"{snap['validator']} stuck in epoch 0")
        for lock_key in snap["locks"]:
            if lock_key.split(":")[0] in old_oids:
                failures.append("old-epoch lock survived the change")
    if check_client_safety(trace) or check_invariants(trace):
        failures.append("invariant violation")
    report(8, "epoch change", not failures, str(failures[:3]))


def test_09_bounded_counter_safety_under_adversary():
    started = time.perf_counter()
    over_limit = []
    checker_hits = []
    for i in range(500):
        trace = run(bounded_spend(derive_seed(9000, i),
                                  fault="infinite_budget"))
        checker_hits.extend(check_bounded_counters(trace))
        checker_hits.extend(check_per_key_linearity(trace))
        checker_hits.extend(check_unlock_monotonic(trace))
    for i in range(500):
        trace = run(bounded_spend(derive_seed(9100, i),
                                  amounts=[40, 40, 40, 40], target=160,
                                  fault="infinite_budget"))
        checker_hits.extend(check_bounded_counters(trace))
    # concurrent debits that ask for more than the limit: the batch must
    # reach the budgets, finalizing debits on the fast path and refusing some
    fast_debits = budget_rejects = 0
    for i in range(40):
        trace = run(counter_race(derive_seed(9300, i),
                                 fault="infinite_budget"))
        checker_hits.extend(check_invariants(trace))
        fast_debits += len({e["tx"] for e in trace.select("effect_cert")
                            if e["tx_kind"] == "debit" and e["path"] == "fast"})
        budget_rejects += len(trace.select("budget_reject"))

    # honest-only bound: spend before any consolidation stays within what
    # the per-validator budgets can cover
    params = CommitteeParams(4, 1)
    honest_bound = (2 * params.f + 1) * initial_budget(100, params) \
        // (params.f + 1)
    assert honest_bound <= 100
    for i in range(50):
        trace = run(bounded_spend(derive_seed(9200, i),
                                  amounts=[33, 33, 33], target=99))
        first_consolidation = next(
            (e["tick"] for e in trace.select("consolidate")), None)
        spent = 0
        seen = set()
        for event in trace.select("effect_cert"):
            if event.get("tx_kind") != "debit" or event["tx"] in seen:
                continue
            if first_consolidation is not None \
                    and event["tick"] >= first_consolidation:
                continue
            seen.add(event["tx"])
            spent += event["amount"]
        if spent > honest_bound:
            over_limit.append((i, spent))
    elapsed = time.perf_counter() - started
    report(9, "bounded counter safety",
           not checker_hits and not over_limit and elapsed < 120.0
           and fast_debits > 0 and budget_rejects > 0,
           f"1090 seeds, {elapsed:.1f}s, pre-consolidation bound "
           f"{honest_bound}, race: {fast_debits} fast-path debits, "
           f"{budget_rejects} budget rejects, checkers hit: "
           f"{sorted({v.checker for v in checker_hits})}")


def test_10_consolidation_round_bound():
    # independent ladder: each round spends the whole per-validator budget,
    # and a zero budget pushes the remainder through as a replacement
    params = CommitteeParams(4, 1)
    expected = 0
    outstanding = 100
    while outstanding > 0:
        budget = initial_budget(outstanding, params)
        expected += 1
        outstanding -= budget if budget > 0 else outstanding
    bound = 100 .bit_length() + 1  # ceil(log2(100)) + 1 = 8
    trace = run(bounded_spend(9))
    done = trace.select("spend_done")
    consolidations = done[0]["consolidations"] if done else -1
    ok = (bool(done) and done[0]["remaining"] == 0
          and consolidations == expected and consolidations <= bound)
    report(10, "consolidation round bound", ok,
           f"spent 100 in {consolidations} consolidations "
           f"(oracle {expected}, bound {bound})")


def test_11_trace_determinism():
    ok = True
    for builder, seed in ((swap_deadlock, 42), (double_send, 7),
                          (bounded_spend, 9), (epoch_change, 5)):
        first = run(builder(seed)).serialize()
        second = run(builder(seed)).serialize()
        if first != second:
            ok = False
    report(11, "determinism", ok, "4 scenarios, byte-identical reruns")


def test_12_fast_path_two_round_trips():
    trace = run(plain_transfer(7))
    done = trace.select("driver_done")
    ok = (len(done) == 1 and done[0]["status"] == "finalized"
          and done[0]["rounds"] == 2 and done[0]["retries"] == 0)
    report(12, "fast path completes in two round trips", ok,
           f"rounds={done[0]['rounds'] if done else None}")
