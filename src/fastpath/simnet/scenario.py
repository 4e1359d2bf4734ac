"""Declarative simulation scenarios.

A scenario file (YAML or JSON) describes the committee, the seed, network
behavior, validator faults, the genesis objects, and a script of client
actions with tick triggers. Schema:

    committee: {n: 4, f: 1}
    seed: 42
    ticks: 5000                 # hard tick limit for the run
    delta: 200                  # auto-unlock delay
    epoch_length: 2000          # liveness bound; epoch machinery only
    epoch_change: false         #   runs when this is true
    network: {min_delay: 1, max_delay: 8, drop_budget: 0, drop_rate: 0.2}
    faults: {"1": {kind: equivocator}, "2": {kind: crash, at: 40}}
    clock_skew: {"0": 0, "3": 5}
    events: [[chain, event], ...]          # external-event oracle facts
    accounts: [alice, bob]
    objects:
      - {name: coin, kind: owned, owner: {pk: alice}, contents: 100}
      - {name: vault, kind: owned, owner: {threshold: {need: 2,
           children: [{weight: 1, term: {pk: alice}},
                      {weight: 1, term: {pk: bob}}]}}, hidden: true}
      - {name: pool, kind: commutative, flavor: bounded, limit: 100,
         owner: {pk: alice}}
    script:
      - {at: 5, client: alice, action: transfer, inputs: [coin], gas: g1,
         to: bob, signers: [alice], unlock_gas: [g2]}

The fault kinds are the keys of `faults.FAULTS`, where each kind's class
says what it does; `crash` stops at tick `at`. At most f validators may be
non-honest; a crash counts toward f like any other fault. An account may
not be named `seq` or `v<i>` for i in [0, n), the names of the sequencer
and the validators.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from typing import NamedTuple

from ..authenticators import (
    AllOf,
    AnyOf,
    AfterTime,
    AuthTerm,
    BeforeTime,
    EventObserved,
    IncludesObject,
    NonceStream,
    PublicKey,
    Revealed,
    TermDepthError,
    Threshold,
    annotate,
    check_depth,
    reveal_root,
)
from ..crypto import user_keypair
from ..encoding import digest
from ..types import CommitteeParams, CounterValue, IntValue, Object, ObjectKey, ObjectKind, ProtocolError
from .faults import FAULTS

FAULT_KINDS = FAULTS.keys()
# Validators the checkers' guarantees cover: a crashed validator stops, but
# everything it did before the crash is honest behavior.
COVERED_KINDS = frozenset({"honest", "crash"})
TX_ACTIONS = ("transfer", "swap", "noop", "mint", "credit", "debit")
ACTIONS = {*TX_ACTIONS, "unlock", "double_send", "spend_loop"}
# Fields an action cannot run without. A transaction that names
# `unlock_gas` recovers from a lock by unlock, paying with that pool; a
# double send always does.
REQUIRED_FIELDS = {**{name: ("gas",) for name in TX_ACTIONS},
                   "double_send": ("gas", "unlock_gas"),
                   "unlock": ("keys", "gas"),
                   "spend_loop": ("counter", "gas_pool", "unlock_gas_pool")}
# Every action field a run reads: its type, and whether it names accounts
# or objects (one name, or a list of names). An int field holds what int()
# reads and is kept as written. A `replacement` is an action of its own.
FIELDS = {
    **dict.fromkeys(("at", "amount", "epoch", "target"), (int, None)),
    **dict.fromkeys(("action", "new_object", "item", "memo"), (str, None)),
    "authorized": (bool, None),
    **dict.fromkeys(("amounts", "first_to", "first_to_second", "cert_to"),
                    (list, None)),
    "replacement": (dict, None), "to": (str, "account"),
    "signers": (list, "account"), "gas": (str, "object"),
    "counter": (str, "object"),
    **dict.fromkeys(("inputs", "shared", "keys", "gas_pool", "unlock_gas",
                     "unlock_gas_pool"), (list, "object"))}
# Every validator runs in this one process, which bounds the committee.
MAX_COMMITTEE = 100
# Top-level entries that hold a mapping or a list.
SHAPES = {"committee": dict, "faults": dict, "network": dict,
          "clock_skew": dict, "events": list, "accounts": list,
          "objects": list, "script": list}


class ScenarioError(Exception):
    pass


def fault_bound_error(kinds: Iterable[str], f: int) -> str | None:
    """Why a committee whose validators have these fault kinds breaks the
    f bound, or None; every kind other than honest counts toward f."""
    faulty = sum(1 for kind in kinds if kind != "honest")
    if faulty > f:
        return f"{faulty} faulty validators exceed f={f}"
    return None


def _number(value, what: str, low: int = -2**63, high: int = 2**63 - 1,
         kind=int):
    """`kind(value)` if it lies in [low, high]; ScenarioError otherwise."""
    try:
        if low <= kind(value) <= high:
            return kind(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ScenarioError(f"{what} must lie in [{low}, {high}], not {value!r}")


def object_id_for(name: str) -> bytes:
    return digest(b"obj:" + name.encode("utf-8"))


def nonce_seed_for(name: str) -> bytes:
    return digest(b"nonces:" + name.encode("utf-8"))


class Fault(NamedTuple):
    kind: str
    at: int = 0


class _NetworkSpec(NamedTuple):
    min_delay: int = 1
    max_delay: int = 8
    drop_budget: int = 0
    drop_rate: float = 0.2


class NetworkSpec(_NetworkSpec):
    """Delays are drawn from [min_delay, max_delay]; a spec whose range is
    empty or reaches below 1, built or `_replace`d, raises ValueError."""
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        spec = super().__new__(cls, *args, **kwargs)
        if not 1 <= spec.min_delay <= spec.max_delay:
            raise ValueError("network delays must satisfy 1 <= min <= max")
        return spec

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)  # so `_replace` checks too


class ObjectSpec(NamedTuple):
    name: str
    kind: ObjectKind
    term: AuthTerm | None  # the owner policy, resolved at load
    contents: int
    flavor: str | None
    limit: int
    hidden: bool


class Scenario(NamedTuple):
    params: CommitteeParams
    seed: int
    tick_limit: int
    delta: int
    epoch_length: int
    epoch_change: bool
    network: NetworkSpec
    faults: dict[int, Fault]
    clock_skew: dict[int, int]
    events: list[tuple[str, str]]
    accounts: list[str]
    objects: list[ObjectSpec]
    script: list[dict]

    def with_seed(self, seed: int) -> "Scenario":
        return self._replace(seed=_number(seed, "seed", 0, 2**64 - 1))

    @staticmethod
    def from_dict(data: dict) -> "Scenario":
        for key, shape in SHAPES.items():
            if not isinstance(data.get(key) or shape(), shape):
                raise ScenarioError(f"{key} must be a {shape.__name__}")
        try:
            committee = data.get("committee") or {}
            params = CommitteeParams(
                _number(committee.get("n"), "committee n", 1, MAX_COMMITTEE),
                _number(committee.get("f"), "committee f"))
        except ProtocolError as exc:
            raise ScenarioError(str(exc)) from exc

        faults: dict[int, Fault] = {}
        for key, spec in (data.get("faults") or {}).items():
            vid = _number(key, "fault entry validator", 0, params.n - 1)
            kind = spec.get("kind", "honest") if isinstance(spec, dict) else None
            if not isinstance(kind, str) or kind not in FAULT_KINDS:
                raise ScenarioError(f"fault entry {key!r}: unknown fault {spec!r}")
            faults[vid] = Fault(kind, _number(spec.get("at", 0), "fault at"))
        error = fault_bound_error((fb.kind for fb in faults.values()),
                                  params.f)
        if error:
            raise ScenarioError(error)

        net = data.get("network") or {}
        try:
            network = NetworkSpec(
                min_delay=_number(net.get("min_delay", 1), "min_delay", 1),
                max_delay=_number(net.get("max_delay", 8), "max_delay", 1),
                drop_budget=_number(net.get("drop_budget", 0), "drop_budget", 0),
                drop_rate=_number(net.get("drop_rate", 0.2), "drop_rate", 0, 1,
                                  float),
            )
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc

        accounts = list(data.get("accounts") or [])
        if not all(isinstance(name, str) for name in accounts) \
                or len(set(accounts)) != len(accounts):
            raise ScenarioError("account names must be distinct strings")
        # clients, validators and the sequencer are addressed by name
        actors = {"seq", *(f"v{vid}" for vid in range(params.n))}
        for name in accounts:
            if name in actors:
                raise ScenarioError(f"account {name!r} has the name of a "
                                    f"validator or the sequencer")
        account_keys = {name: user_keypair(name)[1] for name in accounts}

        events = data.get("events") or []
        if not all(isinstance(e, list) and len(e) == 2 for e in events):
            raise ScenarioError("events must be [chain, event] pairs")

        objects = []
        object_names = set()
        for i, spec in enumerate(data.get("objects") or []):
            if not isinstance(spec, dict) or not isinstance(spec.get("name"), str):
                raise ScenarioError(f"object entry {i} needs a name")
            name = spec["name"]
            if name in object_names:
                raise ScenarioError(f"duplicate object name {name!r}")
            object_names.add(name)
            try:
                kind = ObjectKind(spec.get("kind", "owned"))
            except ValueError:
                raise ScenarioError(f"object {name!r} has unknown kind "
                                    f"{spec.get('kind')!r}") from None
            owner_spec = spec.get("owner")
            if kind in (ObjectKind.OWNED, ObjectKind.COMMUTATIVE):
                if owner_spec is None:
                    raise ScenarioError(f"object {name!r} needs an owner")
            elif owner_spec is not None:
                raise ScenarioError(f"object {name!r} cannot have an owner")
            flavor = spec.get("flavor")
            if kind == ObjectKind.COMMUTATIVE and flavor not in (
                    "grow", "uset", "pnset", "bounded"):
                raise ScenarioError(f"object {name!r} needs a counter flavor")
            try:
                term = (term_from_spec(owner_spec, account_keys)
                        if owner_spec is not None else None)
                if term is not None:
                    check_depth(term)
            except (AttributeError, KeyError, TypeError, ValueError,
                    TermDepthError) as exc:
                raise ScenarioError(f"object {name!r}: bad owner term "
                                    f"{owner_spec!r}: {exc}") from exc
            objects.append(ObjectSpec(
                name=name, kind=kind, term=term,
                contents=_number(spec.get("contents", 0), "contents"),
                flavor=flavor, limit=_number(spec.get("limit", 0), "limit", 0),
                hidden=bool(spec.get("hidden", False))))

        script = []
        for i, action in enumerate(data.get("script") or []):
            name = action.get("action") if isinstance(action, dict) else None
            if not isinstance(name, str) or name not in ACTIONS:
                raise ScenarioError(f"script entry {i}: unknown action {name!r}")
            if action.get("client") not in accounts:
                raise ScenarioError(f"script entry {i}: unknown client")
            _check_action(action, f"script entry {i} ({name})",
                          REQUIRED_FIELDS[name],
                          {"account": account_keys, "object": object_names},
                          params.n)
            if name == "mint" and action.get("new_object"):
                object_names.add(action["new_object"])  # for later entries
            script.append(dict(action))

        return Scenario(
            params=params,
            seed=_number(data.get("seed", 0), "seed", 0, 2**64 - 1),
            tick_limit=_number(data.get("ticks", 20000), "ticks"),
            delta=_number(data.get("delta", 200), "delta"),
            epoch_length=_number(data.get("epoch_length", 10000), "epoch_length"),
            epoch_change=bool(data.get("epoch_change", False)),
            network=network,
            faults=faults,
            clock_skew={_number(k, "clock_skew validator", 0, params.n - 1):
                        _number(v, "clock_skew")
                        for k, v in (data.get("clock_skew") or {}).items()},
            events=[(str(c), str(e)) for c, e in events],
            accounts=accounts,
            objects=objects,
            script=script,
        )

    @staticmethod
    def load(path: str) -> "Scenario":
        with open(path, encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise ScenarioError(f"scenario file is not UTF-8: {exc}") from exc
        import yaml  # only files need a parser; from_dict and traces do not

        try:
            if path.endswith(".json"):
                data = json.loads(text)
            else:
                data = yaml.safe_load(text)
        except (yaml.YAMLError, json.JSONDecodeError) as exc:
            raise ScenarioError(f"cannot parse scenario file: {exc}") from exc
        if not isinstance(data, dict):
            raise ScenarioError("scenario file must hold a mapping")
        return Scenario.from_dict(data)


def _check_action(action: dict, where: str, required, declared,
                  n: int) -> None:
    """ScenarioError for the first field of `action`, or of its replacement,
    that is missing, holds the wrong type or an int outside [0, 2**63),
    names an account or object `declared` does not hold, or names a
    validator outside [0, n); and for a replacement whose action is not a
    transaction's."""
    for f in required:
        if action.get(f) is None:
            raise ScenarioError(f"{where}: missing {f}")
    for f, (kind, names) in FIELDS.items():
        if f not in action:
            continue
        value = action[f]
        if kind is int:
            _number(value, f"{where}: {f}", 0)
        elif not isinstance(value, kind):
            raise ScenarioError(f"{where}: bad {f} {value!r}")
        for name in (value if isinstance(value, list) else [value]):
            if names and (not isinstance(name, str)
                          or name not in declared[names]):
                raise ScenarioError(f"{where}: undeclared {f} {name!r}")
    for amount in action.get("amounts", []):
        _number(amount, f"{where}: amounts", 0)
    # a validator index is sent to as written, so it must be an int itself
    for f in ("first_to", "first_to_second", "cert_to"):
        for vid in action.get(f, []):
            if type(vid) is not int:
                raise ScenarioError(f"{where}: bad {f} validator {vid!r}")
            _number(vid, f"{where}: {f} validator", 0, n - 1)
    if action.get("replacement"):
        replacement = action["replacement"]
        _check_action(replacement, f"{where}: replacement", ("action", "gas"),
                      declared, n)
        if replacement["action"] not in TX_ACTIONS:
            raise ScenarioError(f"{where}: replacement: unknown action "
                                f"{replacement['action']!r}")


def term_from_spec(spec: dict, account_keys: dict[str, bytes]) -> AuthTerm:
    """Build a policy term from its scenario description."""
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ScenarioError(f"bad owner term {spec!r}")
    (tag, body), = spec.items()
    if tag == "pk":
        if body not in account_keys:
            raise ScenarioError(f"unknown account {body!r} in owner term")
        return PublicKey(account_keys[body])
    if tag == "oid":
        return IncludesObject(object_id_for(body))
    if tag == "before":
        return BeforeTime(_number(body, "before", 0))
    if tag == "after":
        return AfterTime(_number(body, "after", 0))
    if tag == "event":
        chain, event = body
        return EventObserved(str(chain), str(event))
    if tag == "threshold":
        branches = [(_number(child["weight"], "weight"),
                     term_from_spec(child["term"], account_keys))
                    for child in body["children"]]
        return Threshold.of(_number(body["need"], "need"), *branches)
    if tag == "all":
        return AllOf(tuple(term_from_spec(s, account_keys) for s in body))
    if tag == "any":
        return AnyOf(tuple(term_from_spec(s, account_keys) for s in body))
    raise ScenarioError(f"unknown owner term tag {tag!r}")


class GenesisObject(NamedTuple):
    spec: ObjectSpec
    obj: Object
    tree: Revealed | None  # the owner term annotated, its root the owner


def materialize_genesis(scenario: Scenario) -> list[GenesisObject]:
    """Build every genesis object, committing to its owner term. Objects
    under one unhidden bare key share one tree, keyed by the key's bytes."""
    out, bare = [], {}
    for spec in scenario.objects:
        tree = owner = None
        if spec.term is not None:
            if spec.hidden:
                tree = annotate(spec.term,
                                NonceStream(nonce_seed_for(spec.name)))
            elif type(spec.term) is PublicKey:
                if spec.term.pk not in bare:
                    bare[spec.term.pk] = annotate(spec.term)
                tree = bare[spec.term.pk]
            else:
                tree = annotate(spec.term)
            owner = reveal_root(tree)
        if spec.kind == ObjectKind.COMMUTATIVE:
            contents = CounterValue(spec.flavor, spec.limit)
        else:
            contents = IntValue(spec.contents)
        obj = Object(ObjectKey(object_id_for(spec.name), 0), spec.kind, owner,
                     contents)
        out.append(GenesisObject(spec, obj, tree))
    return out
