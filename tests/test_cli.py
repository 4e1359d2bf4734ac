import json
import pathlib
from collections import Counter

import pytest
import yaml

from fastpath.cli import main
from fastpath.simnet import invariants
from fastpath.simnet.scenario import Scenario, ScenarioError
from fastpath.simnet.trace import Trace

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
    assert len(checks) == len(set(checks)) == 12
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


def test_seed_override_produces_identical_trace_files(tmp_path, capsys):
    out_a = tmp_path / "a.log"
    out_b = tmp_path / "b.log"
    scenario = str(SCENARIOS / "double_send.yaml")
    assert main(["--scenario", scenario, "--seed", "7",
                 "--trace-out", str(out_a)]) == 0
    assert main(["--scenario", scenario, "--seed", "7",
                 "--trace-out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_check_only_round_trip(tmp_path, capsys):
    out = tmp_path / "trace.log"
    assert main(["--scenario", str(SCENARIOS / "unauthorized_unlock.yaml"),
                 "--trace-out", str(out)]) == 0
    capsys.readouterr()
    assert main(["--check-only", str(out)]) == 0
    printed = capsys.readouterr().out
    assert printed.count("check.") == 12


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


def _recovery_without_unlock_gas(data):
    data["script"][0]["on_locked"] = "unlock"


def _undeclared_recipient(data):
    data["script"][0]["to"] = "nobody"


def _undeclared_input(data):
    data["script"][1]["inputs"] = ["ghost"]


def _owner_deeper_than_bound(data):
    term = {"pk": "alice"}
    for _ in range(40):
        term = {"all": [term]}
    data["objects"][0]["owner"] = term


@pytest.mark.parametrize("mutate", [_bogus_kind, _unnamed_object,
                                    _unknown_owner_account, _without_gas,
                                    _recovery_without_unlock_gas,
                                    _undeclared_recipient, _undeclared_input,
                                    _owner_deeper_than_bound])
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


@pytest.mark.parametrize("mutate", [_without_meta_n, _cut_after_60_lines])
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
