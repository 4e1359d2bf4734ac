"""Scenario dictionaries shared by the simulator and acceptance tests."""

from fastpath.simnet.scenario import Scenario


def gas_objects(owner, names, amount=50):
    return [{"name": n, "kind": "owned", "owner": {"pk": owner},
             "contents": amount} for n in names]


def swap_deadlock(seed, n=4, fault=None, fault_vid=0):
    f = (n - 1) // 3
    data = {
        "committee": {"n": n, "f": f},
        "seed": seed, "ticks": 12000, "delta": 300, "epoch_length": 8000,
        "network": {"min_delay": 1, "max_delay": 4, "drop_budget": 3,
                    "drop_rate": 0.25},
        "accounts": ["alice", "bob", "carol"],
        "objects": (
            [{"name": "obj_a", "kind": "owned", "owner": {"pk": "alice"},
              "contents": 10},
             {"name": "obj_b", "kind": "owned", "owner": {"pk": "bob"},
              "contents": 20}]
            + gas_objects("alice", ["gas_alice", "ga2", "ga3"])
            + gas_objects("bob", ["gas_bob", "gb2", "gb3"])),
        "script": [
            {"at": 5, "client": "bob", "action": "swap",
             "inputs": ["obj_a", "obj_b"], "gas": "gas_bob",
             "signers": ["alice", "bob"], "first_to": list(range(n // 2)),
             "unlock_gas": ["gb2", "gb3"]},
            {"at": 5, "client": "alice", "action": "transfer",
             "inputs": ["obj_a"], "gas": "gas_alice", "to": "carol",
             "signers": ["alice"], "first_to": list(range(n // 2, n)),
             "unlock_gas": ["ga2", "ga3"]},
        ],
    }
    if fault:
        data["faults"] = {str(fault_vid): {"kind": fault}}
    return Scenario.from_dict(data)


def double_send(seed, n=4, fault=None, fault_vid=0):
    f = (n - 1) // 3
    data = {
        "committee": {"n": n, "f": f},
        "seed": seed, "ticks": 12000, "delta": 300, "epoch_length": 8000,
        "network": {"min_delay": 1, "max_delay": 4, "drop_budget": 3,
                    "drop_rate": 0.25},
        "accounts": ["alice", "bob"],
        "objects": ([{"name": "coin", "kind": "owned",
                      "owner": {"pk": "alice"}, "contents": 9}]
                    + gas_objects("alice", ["g1", "g2", "g3"])),
        "script": [
            {"at": 5, "client": "alice", "action": "double_send",
             "inputs": ["coin"], "gas": "g1", "to": "bob",
             "signers": ["alice"], "first_to": list(range(n // 2)),
             "first_to_second": list(range(n // 2, n)),
             "unlock_gas": ["g2", "g3"]},
        ],
    }
    if fault:
        data["faults"] = {str(fault_vid): {"kind": fault}}
    return Scenario.from_dict(data)


def unauthorized_unlock(seed, n=4):
    f = (n - 1) // 3
    data = {
        "committee": {"n": n, "f": f},
        "seed": seed, "ticks": 6000, "delta": 10 ** 9, "epoch_length": 5000,
        "network": {"min_delay": 1, "max_delay": 4},
        "accounts": ["alice", "bob", "eve"],
        "objects": (
            [{"name": "obj_a", "kind": "owned", "owner": {"pk": "alice"},
              "contents": 10}]
            + gas_objects("alice", ["gas_alice"])
            + gas_objects("eve", ["gas_eve", "gas_eve2"])),
        "script": [
            # the owner's transaction locks the object first
            {"at": 5, "client": "alice", "action": "transfer",
             "inputs": ["obj_a"], "gas": "gas_alice", "to": "bob",
             "signers": ["alice"], "first_to": [0]},
            {"at": 8, "client": "eve", "action": "unlock",
             "keys": ["obj_a"], "gas": "gas_eve", "authorized": False},
            {"at": 60, "client": "eve", "action": "unlock",
             "keys": ["obj_a"], "gas": "gas_eve2", "authorized": False},
        ],
    }
    return Scenario.from_dict(data)


def bounded_spend(seed, amounts=None, target=100, limit=100, fault=None,
                  fault_vid=0, gas_count=10):
    data = {
        "committee": {"n": 4, "f": 1},
        "seed": seed, "ticks": 60000, "delta": 300, "epoch_length": 50000,
        "network": {"min_delay": 1, "max_delay": 4},
        "accounts": ["alice"],
        "objects": (
            [{"name": "pool", "kind": "commutative", "flavor": "bounded",
              "limit": limit, "owner": {"pk": "alice"}}]
            + gas_objects("alice", [f"g{i}" for i in range(gas_count)], 30)
            + gas_objects("alice", [f"u{i}" for i in range(gas_count)], 30)),
        "script": [
            {"at": 5, "client": "alice", "action": "spend_loop",
             "counter": "pool", "target": target,
             "gas_pool": [f"g{i}" for i in range(gas_count)],
             "unlock_gas_pool": [f"u{i}" for i in range(gas_count)],
             "signers": ["alice"]},
        ],
    }
    if amounts is not None:
        data["script"][0]["amounts"] = list(amounts)
    if fault:
        data["faults"] = {str(fault_vid): {"kind": fault}}
    return Scenario.from_dict(data)


def counter_race(seed, fault=None, fault_vid=0, amount=15):
    """Concurrent debits of one bounded counter: each of the 8 clients of
    its `any` owner debits `amount` on the fast path at tick 5. At 15 they
    ask for more than the limit of 100, so per-validator budgets must refuse
    some; at 10 the limit covers them all, and the budgets still refuse
    some on the fast path."""
    names = [f"c{i}" for i in range(8)]
    objects = [{"name": "pool", "kind": "commutative", "flavor": "bounded",
                "limit": 100, "owner": {"any": [{"pk": c} for c in names]}}]
    script = []
    for c in names:
        objects += gas_objects(c, [f"{c}g", f"{c}u0", f"{c}u1"], 30)
        script.append({"at": 5, "client": c, "action": "debit",
                       "inputs": ["pool"], "gas": f"{c}g", "amount": amount,
                       "signers": [c], "unlock_gas": [f"{c}u0", f"{c}u1"]})
    data = {
        "committee": {"n": 4, "f": 1},
        "seed": seed, "ticks": 20000, "delta": 300, "epoch_length": 15000,
        "network": {"min_delay": 1, "max_delay": 4},
        "accounts": names,
        "objects": objects,
        "script": script,
    }
    if fault:
        data["faults"] = {str(fault_vid): {"kind": fault}}
    return Scenario.from_dict(data)


def epoch_change(seed):
    return Scenario.from_dict({
        "committee": {"n": 4, "f": 1},
        "seed": seed, "ticks": 3000, "delta": 100,
        "epoch_length": 200, "epoch_change": True,
        "network": {"min_delay": 1, "max_delay": 4},
        "accounts": ["alice", "bob"],
        "objects": (
            [{"name": "coin", "kind": "owned", "owner": {"pk": "alice"},
              "contents": 10},
             {"name": "coin2", "kind": "owned", "owner": {"pk": "alice"},
              "contents": 10}]
            + gas_objects("alice", ["g1", "g2", "g3"], 30)),
        "script": [
            {"at": 150, "client": "alice", "action": "transfer",
             "inputs": ["coin"], "gas": "g1", "to": "bob",
             "signers": ["alice"]},
            {"at": 900, "client": "alice", "action": "transfer",
             "inputs": ["coin2"], "gas": "g2", "to": "bob",
             "signers": ["alice"], "epoch": 0},
            {"at": 1000, "client": "alice", "action": "transfer",
             "inputs": ["coin2"], "gas": "g3", "to": "bob",
             "signers": ["alice"], "epoch": 1},
        ],
    })


def plain_transfer(seed, n=4):
    f = (n - 1) // 3
    return Scenario.from_dict({
        "committee": {"n": n, "f": f},
        "seed": seed, "ticks": 5000, "epoch_length": 4000,
        "network": {"min_delay": 1, "max_delay": 5},
        "accounts": ["alice", "bob"],
        "objects": ([{"name": "coin", "kind": "owned",
                      "owner": {"pk": "alice"}, "contents": 100}]
                    + gas_objects("alice", ["gas_a"])),
        "script": [
            {"at": 5, "client": "alice", "action": "transfer",
             "inputs": ["coin"], "gas": "gas_a", "to": "bob",
             "signers": ["alice"]},
        ],
    })


def transfer_flood(seed, transfers=12):
    """Owned transfers to one recipient, one starting per tick; every fourth
    coin sits under a hidden 2-of-3 threshold owner."""
    objects, script = [], []
    for i in range(transfers):
        sender, signers = f"s{i}", [f"s{i}"]
        owner = {"pk": sender}
        if i % 4 == 0:
            owner = {"threshold": {"need": 2, "children": [
                {"weight": 1, "term": {"pk": sender}},
                {"weight": 1, "term": {"pk": "co_a"}},
                {"weight": 1, "term": {"pk": "co_b"}}]}}
            signers = [sender, "co_a"]
        objects.append({"name": f"coin{i}", "kind": "owned", "owner": owner,
                        "contents": 10 + i, "hidden": i % 4 == 0})
        objects.extend(gas_objects(sender, [f"gas{i}"]))
        script.append({"at": 5 + i, "client": sender, "action": "transfer",
                       "inputs": [f"coin{i}"], "gas": f"gas{i}", "to": "sink",
                       "signers": signers})
    return Scenario.from_dict({
        "committee": {"n": 4, "f": 1},
        "seed": seed, "ticks": 20000, "delta": 300, "epoch_length": 15000,
        "network": {"min_delay": 1, "max_delay": 4},
        "accounts": [f"s{i}" for i in range(transfers)]
        + ["co_a", "co_b", "sink"],
        "objects": objects,
        "script": script,
    })


def gas_case_carried(seed):
    """The unlock certificate carries a transaction certificate that only a
    forward-withholding validator ever executed, at a seed where that
    validator's vote is among the quorum the certificate takes."""
    return Scenario.from_dict({
        "committee": {"n": 4, "f": 1},
        "seed": seed, "ticks": 8000, "delta": 300, "epoch_length": 6000,
        "network": {"min_delay": 2, "max_delay": 4},
        "faults": {"0": {"kind": "lazy_forwarder"}},
        "accounts": ["alice", "bob"],
        "objects": ([{"name": "coin", "kind": "owned",
                      "owner": {"pk": "alice"}, "contents": 10}]
                    + gas_objects("alice", ["g1", "g2"], 40)),
        "script": [
            {"at": 5, "client": "alice", "action": "transfer",
             "inputs": ["coin"], "gas": "g1", "to": "bob",
             "signers": ["alice"], "cert_to": [0]},
            {"at": 120, "client": "alice", "action": "unlock",
             "keys": ["coin", "g1"], "gas": "g2", "signers": ["alice"]},
        ],
    })


def gas_case_noop(seed):
    """No-commit unlock after a deadlock; the racing transaction's own gas
    stays behind its lock."""
    return swap_deadlock(seed)


def gas_case_superseded(seed):
    """A checkpoint certificate wins the race to the sequencer; the unlock
    certificate is ignored but still pays."""
    return Scenario.from_dict({
        "committee": {"n": 4, "f": 1},
        "seed": seed, "ticks": 8000, "delta": 300, "epoch_length": 6000,
        "network": {"min_delay": 3, "max_delay": 3},
        "accounts": ["alice", "bob"],
        "objects": ([{"name": "coin", "kind": "owned",
                      "owner": {"pk": "alice"}, "contents": 10}]
                    + gas_objects("alice", ["g1", "g2"], 40)),
        "script": [
            {"at": 5, "client": "alice", "action": "transfer",
             "inputs": ["coin"], "gas": "g1", "to": "bob",
             "signers": ["alice"]},
            {"at": 15, "client": "alice", "action": "unlock",
             "keys": ["coin"], "gas": "g2", "signers": ["alice"]},
        ],
    })
