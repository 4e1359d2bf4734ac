import contextlib
import copy
import functools
import io
import json
import operator
import pathlib
from collections import Counter

import pytest
import yaml
from hypothesis import given, seed, settings, strategies as st

from fastpath.cli import main
from fastpath.simnet import invariants
from fastpath.simnet.faults import FAULTS, ValidatorActor
from fastpath.simnet.runner import derive_seed, run
from fastpath.simnet.scenario import Scenario, ScenarioError
from fastpath.simnet.trace import Trace
from tests.test_simnet import InflatingStore

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def test_bundled_swap_deadlock_passes(capsys):
    code = main(["--scenario", str(SCENARIOS / "swap_deadlock.yaml")])
    out = capsys.readouterr().out
    assert code == 0
    assert "unlocks_completed=" in out
    lines = dict(line.split("=", 1) for line in out.splitlines() if "=" in line)
    assert int(lines["unlocks_completed"]) > 0
    assert lines["quiesced"] == "true"
    # every registered checker reports exactly once
    checks = [k for k in lines if k.startswith("check.")]
    assert len(checks) == len(set(checks)) == 13
    assert all(lines[k] == "pass" for k in checks)


def test_too_many_byzantine_is_a_schema_error(tmp_path, capsys):
    data = yaml.safe_load((SCENARIOS / "swap_deadlock.yaml").read_text())
    data["faults"] = {"0": {"kind": "equivocator"},
                      "1": {"kind": "vote_withholder"}}
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(data))
    assert main(["--scenario", str(bad)]) == 2


def test_unreadable_scenario_is_exit_2(tmp_path):
    assert main(["--scenario", str(tmp_path / "missing.yaml")]) == 2
    garbled = tmp_path / "garbled.yaml"
    garbled.write_text("{notyaml: [")
    assert main(["--scenario", str(garbled)]) == 2
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["--scenario", str(nested)]) == 2


def test_seed_override_produces_identical_trace_files(tmp_path, capsys):
    out_a = tmp_path / "a.log"
    out_b = tmp_path / "b.log"
    scenario = str(SCENARIOS / "double_send.yaml")
    assert main(["--scenario", scenario, "--seed", "7",
                 "--trace-out", str(out_a)]) == 0
    assert main(["--scenario", scenario, "--seed", "7",
                 "--trace-out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_out_of_range_seed_override_is_exit_2(capsys, seed):
    scenario = str(SCENARIOS / "double_send.yaml")
    assert main(["--scenario", scenario, "--seed", seed, "--explore", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: seed")


def test_check_only_round_trip(tmp_path, capsys):
    out = tmp_path / "trace.log"
    assert main(["--scenario", str(SCENARIOS / "unauthorized_unlock.yaml"),
                 "--trace-out", str(out)]) == 0
    capsys.readouterr()
    assert main(["--check-only", str(out)]) == 0
    printed = capsys.readouterr().out
    assert printed.count("check.") == 13


def test_check_only_flags_doctored_trace(tmp_path, capsys):
    out = tmp_path / "trace.log"
    main(["--scenario", str(SCENARIOS / "swap_deadlock.yaml"),
          "--trace-out", str(out)])
    lines = out.read_text().splitlines()
    doctored = []
    for line in lines:
        record = json.loads(line)
        if record.get("kind") == "ucert_assembled":
            record["authorized"] = False
        doctored.append(json.dumps(record, sort_keys=True,
                                   separators=(",", ":")))
    out.write_text("\n".join(doctored) + "\n")
    capsys.readouterr()
    assert main(["--check-only", str(out)]) == 1
    printed = capsys.readouterr().out
    assert "violation.starvation_freedom" in printed


def test_each_checker_runs_once_per_command(tmp_path, capsys, monkeypatch):
    calls = Counter()
    checkers = list(invariants.CHECKERS)

    def counted(name, checker):
        def wrapper(trace):
            calls[name] += 1
            return checker(trace)
        return wrapper

    monkeypatch.setattr(invariants, "CHECKERS",
                        [(name, counted(name, checker))
                         for name, checker in checkers])

    def check_lines(argv, trace_path):
        calls.clear()
        main(argv)
        assert calls == {name: 1 for name, _ in checkers}
        trace = Trace.load(str(trace_path))
        expected = [f"check.{name}={'fail' if checker(trace) else 'pass'}"
                    for name, checker in checkers]
        printed = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("check.")]
        assert printed == expected
        return printed

    out = tmp_path / "trace.log"
    check_lines(["--scenario", str(SCENARIOS / "swap_deadlock.yaml"),
                 "--trace-out", str(out)], out)
    check_lines(["--check-only", str(out)], out)
    doctored = tmp_path / "doctored.log"
    doctored.write_text(out.read_text().replace('"authorized":true',
                                                '"authorized":false'))
    assert "check.starvation_freedom=fail" in check_lines(
        ["--check-only", str(doctored)], doctored)


@pytest.mark.parametrize("extra", [
    ["--scenario", "missing.yaml"], ["--seed", "5"], ["--explore", "3"],
    ["--trace-out", "t.log"], ["--scenario", "missing.yaml", "--seed", "5"]])
def test_check_only_refuses_the_flags_it_would_ignore(tmp_path, monkeypatch,
                                                      capsys, extra):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "trace.log"
    assert main(["--scenario", str(SCENARIOS / "double_send.yaml"),
                 "--trace-out", str(out)]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["--check-only", str(out), *extra])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("--check-only takes no --scenario, --seed, --explore or --trace-out"
            in captured.err)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.log"]


def test_explore_refuses_trace_out(tmp_path, capsys):
    out = tmp_path / "t.log"
    with pytest.raises(SystemExit) as exc:
        main(["--scenario", str(SCENARIOS / "swap_deadlock.yaml"),
              "--explore", "3", "--trace-out", str(out)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--explore takes no --trace-out" in captured.err
    assert not out.exists()
    # a seed still sets the base of the explored seeds
    assert main(["--scenario", str(SCENARIOS / "swap_deadlock.yaml"),
                 "--explore", "2", "--seed", "9"]) == 0


def test_explore_reports_the_first_violating_run(monkeypatch, capsys):
    # v0 stores inflated balances, so every explored run is flagged
    monkeypatch.setitem(FAULTS, "honest", (ValidatorActor, InflatingStore))
    path = SCENARIOS / "swap_deadlock.yaml"
    assert main(["--scenario", str(path), "--explore", "3"]) == 1
    lines = capsys.readouterr().out.splitlines()
    first = derive_seed(Scenario.load(str(path)).seed, 0)
    assert lines[:3] == ["runs=3", "violating_runs=3",
                         f"first_violating_seed={first}"]
    checkers = {line.split("=", 1)[0] for line in lines[3:]}
    assert {"violation.client_safety", "violation.convergence"} <= checkers
    assert all(line.startswith("violation.") for line in lines[3:])


def test_explore_runs_derived_seeds(capsys):
    code = main(["--scenario", str(SCENARIOS / "unauthorized_unlock.yaml"),
                 "--explore", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "runs=3" in out
    assert "violating_runs=0" in out


def test_explore_hundred_seeds_honest(capsys):
    code = main(["--scenario", str(SCENARIOS / "swap_deadlock.yaml"),
                 "--explore", "100"])
    out = capsys.readouterr().out
    assert code == 0
    assert "violating_runs=0" in out


def test_explore_hundred_seeds_with_equivocator(tmp_path, capsys):
    data = yaml.safe_load((SCENARIOS / "swap_deadlock.yaml").read_text())
    data["faults"] = {"0": {"kind": "equivocator"}}
    path = tmp_path / "equivocator.yaml"
    path.write_text(yaml.safe_dump(data))
    code = main(["--scenario", str(path), "--explore", "100"])
    out = capsys.readouterr().out
    assert code == 0
    assert "violating_runs=0" in out


def test_transfer_summary_reports_two_round_trips(tmp_path, capsys):
    scenario = {
        "committee": {"n": 4, "f": 1},
        "seed": 7, "ticks": 5000,
        "network": {"min_delay": 1, "max_delay": 5},
        "accounts": ["alice", "bob"],
        "objects": [
            {"name": "coin", "kind": "owned", "owner": {"pk": "alice"},
             "contents": 100},
            {"name": "gas_a", "kind": "owned", "owner": {"pk": "alice"},
             "contents": 50},
        ],
        "script": [
            {"at": 5, "client": "alice", "action": "transfer",
             "inputs": ["coin"], "gas": "gas_a", "to": "bob",
             "signers": ["alice"]},
        ],
    }
    path = tmp_path / "transfer.yaml"
    path.write_text(yaml.safe_dump(scenario))
    assert main(["--scenario", str(path)]) == 0
    out = capsys.readouterr().out
    assert "fast_path_round_trips=2" in out


def _without_gas(data):
    del data["script"][0]["gas"]


def _unnamed_object(data):
    del data["objects"][0]["name"]


def _bogus_kind(data):
    data["objects"][0]["kind"] = "bogus"


def _unknown_owner_account(data):
    data["objects"][0]["owner"] = {"pk": "mallory"}


def _undeclared_recipient(data):
    data["script"][0]["to"] = "nobody"


def _undeclared_input(data):
    data["script"][1]["inputs"] = ["ghost"]


def _owner_deeper_than_bound(data):
    term = {"pk": "alice"}
    for _ in range(40):
        term = {"all": [term]}
    data["objects"][0]["owner"] = term


def _setting(*path_and_value):
    """A mutation that sets the entry at the path to the value."""
    *path, value = path_and_value

    def mutate(data):
        functools.reduce(operator.getitem, path[:-1], data)[path[-1]] = value
    mutate.__name__ = f"{'.'.join(map(str, path))}={value!r}"
    return mutate


@pytest.mark.parametrize("mutate", [
    _bogus_kind, _unnamed_object, _unknown_owner_account, _without_gas,
    _undeclared_recipient, _undeclared_input, _owner_deeper_than_bound,
    _setting("script", 0, "at", "soon"), _setting("script", 0, "amount", "ten"),
    _setting("script", 0, "memo", 5),
    _setting("faults", {"x": {"kind": "crash"}}),
    _setting("faults", {"1": "crash"}),
    _setting("network", "min_delay", "fast"),
    _setting("clock_skew", {"0": "late"}), _setting("clock_skew", {"12": 500}),
    _setting("script", 0, "first_to", [7, 9]),
    _setting("script", 0, "first_to", [0, 1.0]),
    _setting("script", 0, "cert_to", [4]),
    _setting("script", 0, "replacement",
             {"action": "transfer", "gas": "g2", "first_to_second": [-1]}),
    _setting("script", 0, "replacement", {"action": "trasnfer", "gas": "g2"}),
    _setting("objects", 0, "contents", "lots"), _setting("seed", "abc"),
    _setting("accounts", ["alice", "bob", "v1"]),
    _setting("accounts", ["alice", "bob", "seq"]),
    _setting("script", 0, "authorized", "false"),
    _setting("script", 0, "authorized", "yes"),
    _setting("script", 0, "unlock_gas", "g2")])
@pytest.mark.parametrize("mode", [[], ["--explore", "2"]])
def test_malformed_scenario_is_exit_2(tmp_path, capsys, mutate, mode):
    data = yaml.safe_load((SCENARIOS / "epoch_change.yaml").read_text())
    mutate(data)
    path = tmp_path / "malformed.yaml"
    path.write_text(yaml.safe_dump(data))
    assert main(["--scenario", str(path), *mode]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""


@pytest.mark.parametrize("name", ["bytes.yaml", "bytes.json"])
@pytest.mark.parametrize("mode", [[], ["--explore", "2"]])
def test_undecodable_scenario_is_exit_2(tmp_path, capsys, name, mode):
    path = tmp_path / name
    path.write_bytes(b"\xff\xfe")  # not UTF-8
    assert main(["--scenario", str(path), *mode]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""


def test_unwritable_trace_out_is_exit_2(tmp_path, capsys):
    scenario = str(SCENARIOS / "double_send.yaml")
    for target in (tmp_path / "missing" / "t.log", tmp_path):
        assert main(["--scenario", scenario, "--trace-out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""


BUNDLED = {path.name: yaml.safe_load(path.read_text())
           for path in sorted(SCENARIOS.glob("*.yaml"))}
# No bundled scenario has faults, clock skew or external events.
BASES = {**BUNDLED, "epoch_change.yaml with faults": {
    **BUNDLED["epoch_change.yaml"],
    "faults": {"1": {"kind": "crash", "at": 300}},
    "clock_skew": {"0": 3, "2": 5}, "events": [["eth", "deposit"]]}}
OTHER_TYPES = st.one_of(
    st.booleans(), st.integers(), st.floats(), st.text(max_size=6),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))


def _sites(node, path=()):
    """The path to every value under `node`, and whether a mapping holds it."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            yield path + (key,), isinstance(node, dict)
            yield from _sites(value, path + (key,))


@st.composite
def one_field_mutations(draw, bases):
    """One of `bases` with one value replaced by a value of another type, a
    negative number or None, or with one key dropped."""
    data = copy.deepcopy(bases[draw(st.sampled_from(sorted(bases)))])
    path, keyed = draw(st.sampled_from(list(_sites(data))))
    holder = functools.reduce(operator.getitem, path[:-1], data)
    old = holder[path[-1]]
    how = draw(st.sampled_from(["other", "negative", "none"]
                               + ["drop"] * keyed))
    if how == "drop":
        del holder[path[-1]]
    else:
        holder[path[-1]] = draw({
            "other": OTHER_TYPES.filter(lambda v: type(v) is not type(old)),
            "negative": st.integers(max_value=-1), "none": st.none()}[how])
    return data


@seed(20261018)
@settings(max_examples=300, deadline=None)
@given(data=one_field_mutations(BASES),
       mode=st.sampled_from([[], ["--explore", "2"]]))
def test_mutated_scenario_runs_or_is_exit_2(tmp_path_factory, data, mode):
    try:
        Scenario.from_dict(data)
        loads = True
    except ScenarioError:
        loads = False
    path = tmp_path_factory.mktemp("mutated") / "scenario.json"
    path.write_text(json.dumps(data))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(["--scenario", str(path), *mode])
    assert code in ((0, 1) if loads else (2,))


def _object_contents(name, value):
    def mutate(data):
        next(o for o in data["objects"] if o["name"] == name)["contents"] = value
    mutate.__name__ = f"{name}.contents={value!r}"
    return mutate


def _unlock_claims_authority(data):
    del data["script"][0]["authorized"]


def _replacement_shares_a_later_mint(data):
    # at tick 5 no validator holds `fresh`, which the mint makes at tick 50
    data["objects"] += [{"name": name, "kind": "owned", "owner": {"pk": "eve"},
                         "contents": 50} for name in ("e1", "e2", "e3")]
    data["script"][:0] = [
        {"at": 50, "client": "eve", "action": "mint", "gas": "e1",
         "new_object": "fresh"},
        {"at": 5, "client": "eve", "action": "unlock", "keys": ["e2"],
         "gas": "e3", "replacement": {"action": "noop", "shared": ["fresh"],
                                      "gas": "e2"}}]


# Honest validators refuse each of these unlocks: their gas cannot pay
# (BadGas), the requester holds no authority over the key (BadEvidence),
# or the replacement names a shared input no validator holds
# (MissingObject). A refusal is a terminal outcome, not a hung unlock.
@pytest.mark.parametrize("name, mutate", [
    ("swap_deadlock.yaml", _object_contents("gb2", 0)),
    ("double_send.yaml", _object_contents("g2", -1609)),
    ("unauthorized_unlock.yaml", _unlock_claims_authority),
    ("unauthorized_unlock.yaml", _replacement_shares_a_later_mint)],
    ids=lambda value: getattr(value, "__name__", value))
def test_refused_unlock_is_not_a_liveness_violation(tmp_path, capsys, name,
                                                     mutate):
    data = copy.deepcopy(BUNDLED[name])
    mutate(data)
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    trace_path = tmp_path / "trace.log"
    assert main(["--scenario", str(path), "--trace-out", str(trace_path)]) == 0
    assert "check.unlock_liveness=pass" in capsys.readouterr().out
    assert any("codes" in e for e in Trace.load(str(trace_path)).select(
        "unlock_driver_finished"))


def _credits(objects, script):
    gas = [{"name": f"g{i}", "kind": "owned", "owner": {"pk": "alice"},
            "contents": 50} for i in range(3)]
    return {"committee": {"n": 4, "f": 1}, "seed": 1, "ticks": 2000,
            "network": {"min_delay": 1, "max_delay": 4},
            "accounts": ["alice"], "objects": objects + gas, "script": script}


I64_MAX = 2**63 - 1
# A credit that would carry a balance (an i64) or a reissued counter limit
# (a u64) past what its encoding holds: validators refuse the first before
# any state changes, and the reissue saturates the second.
OVERFLOWS = {
    "balance": _credits(
        [{"name": "coin", "kind": "owned", "owner": {"pk": "alice"},
          "contents": I64_MAX}],
        [{"at": 5, "client": "alice", "action": "credit", "inputs": ["coin"],
          "gas": "g0", "amount": 5}]),
    "limit": _credits(
        [{"name": "pool", "kind": "commutative", "flavor": "bounded",
          "limit": I64_MAX, "owner": {"pk": "alice"}}],
        [{"at": 5, "client": "alice", "action": "credit", "inputs": ["pool"],
          "gas": "g0", "amount": I64_MAX},
         {"at": 6, "client": "alice", "action": "credit", "inputs": ["pool"],
          "gas": "g1", "amount": I64_MAX},
         {"at": 50, "client": "alice", "action": "unlock", "keys": ["pool"],
          "gas": "g2"}]),
}


@pytest.mark.parametrize("name", sorted(OVERFLOWS))
def test_an_overflowing_credit_passes_every_checker(tmp_path, capsys, name):
    trace = run(Scenario.from_dict(copy.deepcopy(OVERFLOWS[name])))
    assert trace.quiesced and invariants.check_invariants(trace) == []
    if name == "balance":
        assert {e["code"] for e in trace.select("tx_rejected")} \
            == {"BadTransaction"}
        assert trace.select("driver_done")[0]["status"] == "rejected"
    else:
        assert trace.select("driver_done")[-1]["status"] == "unlocked"
        assert {c["limit"] for snap in trace.snapshots.values()
                for c in snap["counters"].values()} == {2**64 - 1}
    path = tmp_path / "overflow.yaml"
    path.write_text(yaml.safe_dump(OVERFLOWS[name]))
    assert main(["--scenario", str(path)]) == 0
    assert main(["--scenario", str(path), "--explore", "5"]) == 0
    assert "violating_runs=0" in capsys.readouterr().out


def test_mint_declares_its_object_for_later_actions():
    data = yaml.safe_load((SCENARIOS / "epoch_change.yaml").read_text())
    data["script"].insert(0, {"at": 10, "client": "alice", "action": "mint",
                              "gas": "g1", "new_object": "fresh"})
    data["script"][1]["inputs"] = ["fresh"]
    assert Scenario.from_dict(data).script[1]["inputs"] == ["fresh"]
    data["script"].append(data["script"].pop(0))  # the mint now comes last
    with pytest.raises(ScenarioError, match="undeclared inputs 'fresh'"):
        Scenario.from_dict(data)


def _without_meta_n(lines):
    meta = json.loads(lines[0])
    del meta["n"]
    return [json.dumps(meta, sort_keys=True, separators=(",", ":")),
            *lines[1:]]


def _cut_after_60_lines(lines):
    return lines[:60]


def _nested_too_deep(lines):
    return [lines[0], "[" * 100_000 + "]" * 100_000, *lines[1:]]


def _editing(kind, edit, name):
    """A mutation that applies `edit` to the first record of `kind`."""
    def mutate(lines):
        records = [json.loads(line) for line in lines]
        edit(next(r for r in records if r["kind"] == kind))
        return [json.dumps(r, sort_keys=True, separators=(",", ":"))
                for r in records]
    mutate.__name__ = name
    return mutate


@pytest.mark.parametrize("mutate", [
    _without_meta_n, _cut_after_60_lines, _nested_too_deep,
    _editing("effect_cert", lambda r: r.pop("produced"), "no_produced"),
    _editing("snapshot", lambda r: next(iter(r["state"]["objects"].values()))
             .clear(), "object_without_versions"),
    _editing("seq_exec", lambda r: r.pop("actor"), "seq_exec_without_actor"),
    _editing("lock_set", lambda r: r.pop("kind"), "event_without_kind"),
    _editing("lock_set", lambda r: r.update(actor=["v0"]),
             "event_actor_a_list"),
    _editing("meta", lambda r: r.update(n="four"), "meta_n_four"),
    _editing("meta", lambda r: r.update(n=10**12), "meta_n_huge")])
def test_malformed_trace_is_exit_2(tmp_path, capsys, mutate):
    out = tmp_path / "trace.log"
    assert main(["--scenario", str(SCENARIOS / "swap_deadlock.yaml"),
                 "--trace-out", str(out)]) == 0
    out.write_text("\n".join(mutate(out.read_text().splitlines())) + "\n")
    capsys.readouterr()
    assert main(["--check-only", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""


RECORDED = {path.name: [json.loads(line) for line in
                        run(Scenario.load(str(path))).to_lines()]
            for path in (SCENARIOS / "swap_deadlock.yaml",
                         SCENARIOS / "bounded_counter.yaml")}


@seed(20261018)
@settings(max_examples=150, deadline=None)
@given(records=one_field_mutations(RECORDED))
def test_mutated_trace_is_checked_or_is_exit_2(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("mutated") / "trace.log"
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n"
                            for r in records))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(["--check-only", str(path)])
    assert code in (0, 1, 2)
