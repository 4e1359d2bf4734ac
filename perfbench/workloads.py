"""Seeded scenario generators for the benchmark's workloads.

Each generator takes only the workload seed and returns a batch of plain
scenario dicts; the program sees nothing but those dicts (through
`Scenario.from_dict`). The same seed always yields the same batch, and every
scenario in a batch carries its own simulator seed drawn from it.

A checked run is `run(scenario)` followed by `check_invariants` on its
trace. `outcome` judges one checked run: it fails when the run did not
quiesce, when a checker reported a violation, or when the workload's
expected result is missing from the trace.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Sizes below set the work in one checked run; the batch is cycled for the
# whole measured interval.
FLOOD_TRANSFERS = 25
FLOOD_BATCH = 40
CONTENTION_PER_COMBO = 32
DRAIN_PAIRS = 20

TERMINAL_EVENTS = ("driver_done", "spend_done")


def _gas(owner: str, names, amount: int) -> list[dict]:
    return [{"name": n, "kind": "owned", "owner": {"pk": owner},
             "contents": amount} for n in names]


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def transfer_flood(seed: int) -> list[dict]:
    """K independent owned transfers, one arriving per tick; a quarter of
    the coins sit under hidden 2-of-3 threshold owners."""
    rng = _rng("transfer_flood", seed)
    batch = []
    for _ in range(FLOOD_BATCH):
        senders = [f"s{i}" for i in range(FLOOD_TRANSFERS)]
        shared_owned = set(rng.sample(range(FLOOD_TRANSFERS),
                                      FLOOD_TRANSFERS // 4))
        objects, script = [], []
        for i, sender in enumerate(senders):
            coin = {"name": f"coin{i}", "kind": "owned",
                    "owner": {"pk": sender}, "contents": rng.randint(1, 1000)}
            signers = [sender]
            if i in shared_owned:
                coin["owner"] = {"threshold": {"need": 2, "children": [
                    {"weight": 1, "term": {"pk": sender}},
                    {"weight": 1, "term": {"pk": "co_a"}},
                    {"weight": 1, "term": {"pk": "co_b"}}]}}
                coin["hidden"] = True
                # the sender also owns the gas, so it is one of the two
                signers = [sender, rng.choice(["co_a", "co_b"])]
            objects.append(coin)
            objects.extend(_gas(sender, [f"gas{i}"], 50))
            script.append({"at": 5 + i, "client": sender, "action": "transfer",
                           "inputs": [f"coin{i}"], "gas": f"gas{i}",
                           "to": "sink", "signers": signers})
        batch.append({
            "committee": {"n": 4, "f": 1},
            "seed": rng.getrandbits(63), "ticks": 20000, "delta": 300,
            "epoch_length": 15000,
            "network": {"min_delay": 1, "max_delay": 4, "drop_budget": 0,
                        "drop_rate": 0.0},
            "accounts": senders + ["co_a", "co_b", "sink"],
            "objects": objects,
            "script": script,
        })
    return batch


def _contention_base(seed: int, n: int, fault: str, fault_vid: int) -> dict:
    return {
        "committee": {"n": n, "f": (n - 1) // 3},
        "seed": seed, "ticks": 12000, "delta": 300, "epoch_length": 8000,
        "network": {"min_delay": 1, "max_delay": 4, "drop_budget": 3,
                    "drop_rate": 0.25},
        "faults": {str(fault_vid): {"kind": fault}},
    }


def _swap_deadlock(seed: int, n: int, fault: str, fault_vid: int) -> dict:
    data = _contention_base(seed, n, fault, fault_vid)
    data["accounts"] = ["alice", "bob", "carol"]
    data["objects"] = (
        [{"name": "obj_a", "kind": "owned", "owner": {"pk": "alice"},
          "contents": 10},
         {"name": "obj_b", "kind": "owned", "owner": {"pk": "bob"},
          "contents": 20}]
        + _gas("alice", ["gas_alice", "ga2", "ga3"], 50)
        + _gas("bob", ["gas_bob", "gb2", "gb3"], 50))
    data["script"] = [
        {"at": 5, "client": "bob", "action": "swap",
         "inputs": ["obj_a", "obj_b"], "gas": "gas_bob",
         "signers": ["alice", "bob"], "first_to": list(range(n // 2)),
         "on_locked": "unlock", "unlock_gas": ["gb2", "gb3"]},
        {"at": 5, "client": "alice", "action": "transfer",
         "inputs": ["obj_a"], "gas": "gas_alice", "to": "carol",
         "signers": ["alice"], "first_to": list(range(n // 2, n)),
         "on_locked": "unlock", "unlock_gas": ["ga2", "ga3"]},
    ]
    return data


def _double_send(seed: int, n: int, fault: str, fault_vid: int) -> dict:
    data = _contention_base(seed, n, fault, fault_vid)
    data["accounts"] = ["alice", "bob"]
    data["objects"] = ([{"name": "coin", "kind": "owned",
                         "owner": {"pk": "alice"}, "contents": 9}]
                       + _gas("alice", ["g1", "g2", "g3"], 50))
    data["script"] = [
        {"at": 5, "client": "alice", "action": "double_send",
         "inputs": ["coin"], "gas": "g1", "to": "bob",
         "signers": ["alice"], "first_to": list(range(n // 2)),
         "first_to_second": list(range(n // 2, n)),
         "on_locked": "unlock", "unlock_gas": ["g2", "g3"]},
    ]
    return data


def contention_explore(seed: int) -> list[dict]:
    """Short adversarial runs: swap deadlocks and double sends at n=4 and
    n=7, each with one equivocator, vote withholder or stale replier, over
    a lossy network."""
    rng = _rng("contention_explore", seed)
    batch = []
    # the faulty validator cycles through the committee, so every seed
    # gets the same mix of placements and differs only in its schedules
    for rep in range(CONTENTION_PER_COMBO):
        for shape in (_swap_deadlock, _double_send):
            for n in (4, 7):
                for fault in ("equivocator", "vote_withholder",
                              "stale_replier"):
                    batch.append(shape(rng.getrandbits(63), n, fault,
                                       rep % n))
    return batch


def _bounded_spend(seed: int, fault_vid: int, amounts=None,
                   target: int = 100) -> dict:
    gas_count = 10
    action = {"at": 5, "client": "alice", "action": "spend_loop",
              "counter": "pool", "target": target,
              "gas_pool": [f"g{i}" for i in range(gas_count)],
              "unlock_gas_pool": [f"u{i}" for i in range(gas_count)],
              "signers": ["alice"]}
    if amounts is not None:
        action["amounts"] = list(amounts)
    return {
        "committee": {"n": 4, "f": 1},
        "seed": seed, "ticks": 60000, "delta": 300, "epoch_length": 50000,
        "network": {"min_delay": 1, "max_delay": 4},
        "faults": {str(fault_vid): {"kind": "infinite_budget"}},
        "accounts": ["alice"],
        "objects": (
            [{"name": "pool", "kind": "commutative", "flavor": "bounded",
              "limit": 100, "owner": {"pk": "alice"}}]
            + _gas("alice", [f"g{i}" for i in range(gas_count)], 30)
            + _gas("alice", [f"u{i}" for i in range(gas_count)], 30)),
        "script": [action],
    }


def counter_drain(seed: int) -> list[dict]:
    """Bounded-counter spending next to an infinite-budget validator:
    greedy drains of 100 credits alternate with a fixed overspend attempt."""
    rng = _rng("counter_drain", seed)
    batch = []
    for pair in range(DRAIN_PAIRS):
        # the infinite-budget validator cycles through the committee
        batch.append(_bounded_spend(rng.getrandbits(63), pair % 4))
        batch.append(_bounded_spend(rng.getrandbits(63), pair % 4,
                                    amounts=[40, 40, 40, 40], target=160))
    return batch


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: object
    expect: str  # which expected result `outcome` looks for


WORKLOADS = {w.name: w for w in (
    Workload("transfer_flood",
             "many owned transfers in flight: the two-round-trip fast path "
             "plus checkpointing",
             transfer_flood, "all_finalized"),
    Workload("contention_explore",
             "short adversarial runs: unlock path, timers, retries, drops and "
             "per-run fixed costs",
             contention_explore, "all_done"),
    Workload("counter_drain",
             "bounded-counter debits against budgets, consolidated through "
             "unlock certificates",
             counter_drain, "spend_done"),
)}


@dataclass
class Outcome:
    ok: bool
    reason: str
    finalized: int
    action_ticks: list[int]


def client_finalized(trace, clients) -> set[str]:
    """Distinct transactions a client saw an effect certificate for, on the
    fast or the unlock path."""
    return {e["tx"] for e in trace.events
            if e["kind"] == "effect_cert" and e["actor"] in clients}


def outcome(data: dict, trace, violations, expect: str) -> Outcome:
    clients = set(data["accounts"])
    finalized = client_finalized(trace, clients)
    terminal: dict[str, list[dict]] = {}
    for event in trace.events:
        if event["kind"] in TERMINAL_EVENTS and event["actor"] in clients:
            terminal.setdefault(event["actor"], []).append(event)
    ticks = []
    missing = 0
    for action in data["script"]:
        done = terminal.get(action["client"])
        if done:
            ticks.append(done[0]["tick"] - int(action["at"]))
        else:
            missing += 1

    reason = ""
    if not trace.quiesced:
        reason = "did not quiesce"
    elif violations:
        reason = f"{len(violations)} violations, first {violations[0].checker}"
    elif expect == "all_finalized":
        statuses = [d[0].get("status") for d in terminal.values()]
        if missing or len(finalized) != len(data["script"]) \
                or any(s != "finalized" for s in statuses):
            reason = (f"{len(finalized)}/{len(data['script'])} transfers "
                      "finalized")
    elif expect == "all_done":
        if missing:
            reason = f"{missing} scripted actions without driver_done"
    elif expect == "spend_done":
        if not trace.select("spend_done"):
            reason = "no spend_done event"
    return Outcome(not reason, reason, len(finalized), ticks)
