"""Deterministic discrete-event harness.

One priority queue drives validators, clients, and the sequencer. Queue
entries order by (delivery tick, tiebreak digest, insertion counter), all
randomness flows from the scenario seed, and actors never iterate
unordered collections, so a seed fully determines the trace. Message
links between clients and validators lose at most `drop_budget` messages
(eventually reliable); links to and from the sequencer model the consensus
black box and only jitter.

A message's tiebreak digest covers its `material()` bytes. A sequencer
submission, the tuple ("submit", kind, payload), has no `material()`; its
material is the tuple's `repr`, computed once per payload per run since
every validator submits the same certificate object.
"""

from __future__ import annotations

import functools
import heapq
import random
from dataclasses import dataclass

from .. import crypto
from ..authenticators import AuthContext, Evidence, NonceStream, PublicKey, \
    build_reveal, commit, event_facts, find_path
from ..client import (
    CertReply,
    FastPathDriver,
    FastUnlockDriver,
    SubmitCert,
    SubmitTx,
    SubmitUnlockRqt,
    TxErrorMsg,
    TxVoteMsg,
    UnlockErrorMsg,
    UnlockOutcomeMsg,
    UnlockRqt,
    UnlockVoteMsg,
    retry_after_unlock,
)
from ..counters import initial_budget
from ..crypto import user_keypair
from ..encoding import digest, enc_u64
from ..sequencer import (
    KIND_CHECKPOINT,
    KIND_END_OF_EPOCH,
    KIND_UNLOCK,
    SequencedItem,
    Sequencer,
)
from ..types import (
    CounterValue,
    ObjectKey,
    ObjectKind,
    ProtocolError,
    Transaction,
    TxKind,
    TxParams,
)
from ..validator import ValidatorState
from .invariants import check_invariants
from .scenario import Fault, Scenario, materialize_genesis, object_id_for
from .trace import Trace, TraceRecorder


@dataclass
class ObjectInfo:
    """Client-side knowledge about one object: its kind and the owner
    policy in force at each version (ownership persists until a transfer
    or swap rewrites it)."""

    name: str
    kind: ObjectKind
    policies: dict[int, tuple[object, bytes | None]]
    flavor: str | None
    limit: int

    def policy_at(self, version: int) -> tuple[object, bytes | None]:
        known = [v for v in self.policies if v <= version]
        if not known:
            return None, None
        return self.policies[max(known)]


class _Network:
    def __init__(self, spec, rng: random.Random):
        self.spec = spec
        self.rng = rng
        self.budget = spec.drop_budget
        self.sent = 0
        self.dropped = 0

    def delay(self) -> int:
        return self.rng.randint(self.spec.min_delay, self.spec.max_delay)

    def should_drop(self) -> bool:
        if self.budget <= 0:
            return False
        if self.rng.random() < self.spec.drop_rate:
            self.budget -= 1
            return True
        return False


class ValidatorActor:
    def __init__(self, runner: "Runner", vid: int, fault, skew: int):
        self.runner = runner
        self.vid = vid
        self.name = f"v{vid}"
        self.fault = fault
        self.skew = skew
        self.crashed = False
        self.state = ValidatorState(
            vid, runner.scenario.params, scheme=runner.scheme,
            auto_unlock_delay=runner.scenario.delta, fault=fault.kind,
            event_oracle=event_facts(runner.scenario.events),
            sink=functools.partial(runner.record, self.name))
        self.next_seq = 0
        self.seq_buffer: dict[int, SequencedItem] = {}
        self.requesters: dict[bytes, str] = {}

    def _check_crash(self) -> bool:
        if self.fault.kind == "crash" and self.runner.now >= self.fault.at:
            if not self.crashed:
                self.crashed = True
                self.runner.record(self.name, "crash")
            return True
        return False

    def handle(self, src: str, msg) -> None:
        if self._check_crash():
            return
        self.state.clock = self.runner.now + self.skew
        if isinstance(msg, SubmitTx):
            self._on_tx(msg)
        elif isinstance(msg, SubmitCert):
            self._on_cert(msg)
        elif isinstance(msg, SubmitUnlockRqt):
            self._on_unlock_rqt(msg)
        elif isinstance(msg, SequencedItem):
            self.seq_buffer[msg.seq] = msg
            while self.next_seq in self.seq_buffer:
                self._on_sequenced(self.seq_buffer.pop(self.next_seq))
                self.next_seq += 1
        elif msg == "epoch_change":
            self._on_epoch_change()

    def _reply(self, driver_id: str, msg) -> None:
        self.runner.send(self.name, driver_id.split("#")[0], msg)

    def _on_tx(self, msg: SubmitTx) -> None:
        try:
            vote = self.state.process_tx(msg.tx)
            self._reply(msg.reply_to, TxVoteMsg(vote))
        except ProtocolError as err:
            self.runner.record(self.name, "tx_rejected", tx=msg.tx.digest.hex(),
                               code=err.code.value)
            self._reply(msg.reply_to, TxErrorMsg(msg.tx.digest, err.code.value,
                                                 self.vid))

    def _on_cert(self, msg: SubmitCert) -> None:
        self.requesters[msg.cert.tx.digest] = msg.reply_to
        try:
            outcome = self.state.process_cert(msg.cert)
        except ProtocolError as err:
            self._reply(msg.reply_to, CertReply(msg.cert.tx.digest, "error",
                                                self.vid, code=err.code.value))
            return
        if outcome.forward is not None and self.fault.kind != "lazy_forwarder":
            self.runner.submit_item(self.name, KIND_CHECKPOINT, outcome.forward)
        self._reply(msg.reply_to, CertReply(
            msg.cert.tx.digest, outcome.status, self.vid, sign=outcome.sign,
            code=outcome.reason))

    def _on_unlock_rqt(self, msg: SubmitUnlockRqt) -> None:
        if self.fault.kind == "vote_withholder":
            return
        stored = self.state.unlock_outcomes.get(msg.rqt.digest)
        if stored is not None:
            self._reply(msg.reply_to, UnlockOutcomeMsg(
                msg.rqt.digest, stored.status, self.vid, stored.signs,
                stored.confirmed))
            return
        try:
            vote = self.state.process_unlock_rqt(msg.rqt)
            self._reply(msg.reply_to, UnlockVoteMsg(vote))
        except ProtocolError as err:
            self.runner.record(self.name, "unlock_rejected",
                               rqt=msg.rqt.digest.hex(), code=err.code.value)
            self._reply(msg.reply_to, UnlockErrorMsg(msg.rqt.digest,
                                                     err.code.value, self.vid,
                                                     tuple(err.keys)))

    def _on_sequenced(self, item: SequencedItem) -> None:
        if item.kind == KIND_UNLOCK:
            rqt = item.payload.rqt
            try:
                out = self.state.process_unlock_cert(item.payload)
            except ProtocolError as err:
                self.runner.record(self.name, "unlock_cert_invalid",
                                   rqt=rqt.digest.hex(), code=err.code.value)
                out = None
            if out is not None:
                client = self.runner.client_of_pk.get(rqt.requester)
                if client is not None:
                    self.runner.send(self.name, client, UnlockOutcomeMsg(
                        rqt.digest, out.status, self.vid, out.signs,
                        out.confirmed))
        elif item.kind == KIND_CHECKPOINT:
            self.state.process_checkpoint_cert(item.payload)
        elif item.kind == KIND_END_OF_EPOCH:
            vid, epoch = item.payload
            self.state.note_end_of_epoch(vid, epoch)
        if self.state.end_of_epoch_ready():
            self.runner.submit_item(self.name, KIND_END_OF_EPOCH,
                                    self.state.make_end_of_epoch())

    def _on_epoch_change(self) -> None:
        for cert in self.state.begin_epoch_change():
            self.runner.submit_item(self.name, KIND_CHECKPOINT, cert)
        if self.state.end_of_epoch_ready():
            self.runner.submit_item(self.name, KIND_END_OF_EPOCH,
                                    self.state.make_end_of_epoch())


class SequencerActor:
    def __init__(self, runner: "Runner"):
        self.runner = runner
        self.name = "seq"
        self.sequencer = Sequencer(runner.scenario.params, runner.scheme)

    def handle(self, src: str, msg) -> None:
        _, kind, payload = msg
        try:
            item = self.sequencer.submit(kind, payload)
        except ProtocolError as err:
            self.runner.record(self.name, "seq_rejected", code=err.code.value,
                               item_kind=kind)
            return
        if item is None:
            return
        self.runner.record(self.name, "sequenced", seq=item.seq,
                           item_kind=item.kind,
                           item=item.payload_digest.hex())
        for vid in range(self.runner.scenario.params.n):
            self.runner.send(self.name, f"v{vid}", item, protected=True)


class ClientActor:
    def __init__(self, runner: "Runner", name: str):
        self.runner = runner
        self.name = name
        self.sk, self.pk = user_keypair(name)
        self.versions: dict[bytes, int] = {}
        self.limits: dict[bytes, int] = {}
        self.drivers: dict[str, object] = {}
        self.interest: dict[bytes, object] = {}
        self.counter = 0

    # -- driver environment --

    @property
    def now(self) -> int:
        return self.runner.now

    def broadcast(self, msg) -> None:
        for vid in range(self.runner.scenario.params.n):
            self.runner.send(self.name, f"v{vid}", msg)

    def send_validator(self, vid: int, msg) -> None:
        self.runner.send(self.name, f"v{vid}", msg)

    def submit_sequencer(self, ucert) -> None:
        self.runner.submit_item(self.name, KIND_UNLOCK, ucert)

    def set_timer(self, delay: int, token: str) -> None:
        self.runner.schedule_timer(self.name, delay, token)

    def emit(self, kind: str, **fields) -> None:
        self.runner.record(self.name, kind, **fields)

    # -- message plumbing --

    def handle(self, src: str, msg) -> None:
        if isinstance(msg, tuple) and msg and msg[0] == "action":
            self._start_action(msg[1])
            return
        key = None
        if isinstance(msg, TxVoteMsg):
            key = msg.vote.tx_digest
        elif isinstance(msg, (TxErrorMsg, CertReply)):
            key = msg.tx_digest
        elif isinstance(msg, UnlockVoteMsg):
            key = msg.vote.rqt_digest
        elif isinstance(msg, (UnlockErrorMsg, UnlockOutcomeMsg)):
            key = msg.rqt_digest
        driver = self.interest.get(key)
        if driver is not None:
            driver.on_message(self, msg)

    def handle_timer(self, token: str) -> None:
        driver = self.drivers.get(token)
        if driver is not None and driver.result is None:
            driver.on_timer(self)

    # -- building blocks --

    def _driver_id(self) -> str:
        self.counter += 1
        return f"{self.name}#{self.counter}"

    def key_of(self, name: str) -> ObjectKey:
        oid = object_id_for(name)
        return ObjectKey(oid, self.versions.get(oid, 0))

    def _auth_ctx(self, signer_pks, oids) -> AuthContext:
        return AuthContext(signers=frozenset(signer_pks),
                           included_oids=frozenset(oids),
                           local_time=self.now,
                           event_oracle=event_facts(self.runner.scenario.events))

    def _evidence(self, message: bytes, signer_names, owned_keys,
                  all_oids) -> Evidence:
        keys = [(self.runner.account_sk[n], self.runner.account_pk[n])
                for n in signer_names]
        ctx = self._auth_ctx([pk for _, pk in keys], all_oids)
        reveals = []
        for key in owned_keys:
            info = self.runner.object_info[key.object_id]
            term, nonce_seed = info.policy_at(key.version)
            if term is None:
                continue
            path = find_path(term, ctx)
            if path is None:
                continue  # cannot authorize this object; validators will say so
            stream = NonceStream(nonce_seed) if nonce_seed else None
            reveals.append((key.object_id, build_reveal(term, path, stream),
                            path))
        return Evidence.build(message, keys, reveals, self.runner.scheme)

    def _build_tx(self, action: dict) -> Transaction:
        input_names = list(action.get("inputs", []))
        gas_name = action["gas"]
        if gas_name not in input_names:
            input_names.append(gas_name)
        inputs = tuple(self.key_of(n) for n in input_names)
        gas_key = self.key_of(gas_name)
        shared = tuple(object_id_for(n) for n in action.get("shared", []))
        kind = TxKind(action["action"]) if action["action"] in (
            "transfer", "swap", "noop", "mint", "credit", "debit") else TxKind.NOOP
        params = TxParams(
            amount=int(action.get("amount", 0)),
            new_owner=(self.runner.address_of(action["to"])
                       if action.get("to") else None),
            new_object_id=(object_id_for(action["new_object"])
                           if action.get("new_object") else None),
            item=(action["item"].encode() if action.get("item") else None),
            memo=action.get("memo", "").encode(),
        )
        tx = Transaction(inputs, shared, kind, params, gas_key,
                         int(action.get("epoch", 0)))
        if kind == TxKind.MINT and action.get("new_object"):
            self.runner.register_minted(action["new_object"],
                                        action.get("to", self.name))
        return self._sign_tx(tx, action.get("signers", [self.name]))

    def _sign_tx(self, tx: Transaction, signers) -> Transaction:
        owned = [k for k in tx.inputs if self._needs_evidence(k.object_id, tx)]
        all_oids = {k.object_id for k in tx.inputs} | set(tx.shared_inputs)
        return tx.with_evidence(self._evidence(tx.digest, signers, owned, all_oids))

    def _needs_evidence(self, oid: bytes, tx: Transaction) -> bool:
        info = self.runner.object_info.get(oid)
        if info is None or not info.policies:
            return False
        if info.kind == ObjectKind.OWNED:
            return True
        return info.kind == ObjectKind.COMMUTATIVE and tx.kind == TxKind.DEBIT

    def _owned_keys(self, tx: Transaction) -> tuple[ObjectKey, ...]:
        out = []
        for key in tx.inputs:
            info = self.runner.object_info.get(key.object_id)
            if info is not None and info.kind == ObjectKind.OWNED:
                out.append(key)
        return tuple(out)

    def _update_view(self, effect_certs) -> None:
        for cert in effect_certs:
            for obj in cert.effects.produced:
                oid = obj.key.object_id
                if obj.key.version > self.versions.get(oid, -1):
                    self.versions[oid] = obj.key.version
                if isinstance(obj.contents, CounterValue):
                    self.limits[oid] = obj.contents.limit

    # -- actions --

    def _start_action(self, action: dict) -> None:
        name = action["action"]
        if name in ("transfer", "swap", "noop", "mint", "credit", "debit"):
            self._run_tx_action(action)
        elif name == "unlock":
            self._run_unlock_action(action)
        elif name == "double_send":
            self._run_double_send(action)
        elif name == "spend_loop":
            self._run_spend_loop(action)

    def _launch_fast(self, tx: Transaction, on_done, first_to=None,
                     cert_to=None) -> FastPathDriver:
        driver = FastPathDriver(self._driver_id(), tx,
                                self.runner.scenario.params, self.runner.scheme,
                                on_done=on_done, first_to=first_to,
                                cert_to=cert_to)
        self.drivers[driver.driver_id] = driver
        self.interest[tx.digest] = driver
        driver.start(self)
        return driver

    def _launch_unlock(self, rqt: UnlockRqt, authorized: bool, on_done,
                       wait_all: bool = False) -> FastUnlockDriver:
        driver = FastUnlockDriver(self._driver_id(), rqt,
                                  self.runner.scenario.params, self.runner.scheme,
                                  authorized=authorized, on_done=on_done,
                                  wait_all=wait_all)
        self.drivers[driver.driver_id] = driver
        self.interest[rqt.digest] = driver
        driver.start(self)
        return driver

    def _finish_action(self, action: dict, driver, status: str) -> None:
        self.emit("driver_done", action=action["action"], status=status,
                  rounds=driver.round_trips, retries=driver.retries)

    def _run_tx_action(self, action: dict) -> None:
        tx = self._build_tx(action)
        recoveries = int(action.get("max_recoveries", 2))

        def done(env, driver, result):
            if result.status == "finalized":
                self._update_view(result.effect_certs)
                self._after_transfer_bookkeeping(action, tx)
                self._finish_action(action, driver, "finalized")
            elif result.status == "locked" and action.get("on_locked") == "unlock" \
                    and recoveries > 0:
                self._recover(action, tx, recoveries)
            else:
                self._finish_action(action, driver, result.status)

        self._launch_fast(tx, done, first_to=action.get("first_to"),
                          cert_to=action.get("cert_to"))

    def _after_transfer_bookkeeping(self, action: dict, tx: Transaction) -> None:
        # record the owner policy of the produced versions; older versions
        # keep their historical policies for evidence against stored state
        if tx.kind == TxKind.TRANSFER and action.get("to"):
            to_pk = self.runner.account_pk[action["to"]]
            for key in self._owned_keys(tx):
                if key != tx.gas:
                    info = self.runner.object_info[key.object_id]
                    info.policies[key.version + 1] = (PublicKey(to_pk), None)
        elif tx.kind == TxKind.SWAP:
            working = [k for k in self._owned_keys(tx) if k != tx.gas]
            if len(working) == 2:
                a, b = working
                info = self.runner.object_info
                policy_a = info[a.object_id].policy_at(a.version)
                policy_b = info[b.object_id].policy_at(b.version)
                info[a.object_id].policies[a.version + 1] = policy_b
                info[b.object_id].policies[b.version + 1] = policy_a

    def _recover(self, action: dict, tx: Transaction, recoveries: int,
                 keys=None, gas_pool=None) -> None:
        """Unlock every owned input of the blocked transaction, then retry."""
        keys = tuple(keys) if keys is not None else self._owned_keys(tx)
        signers = action.get("signers", [self.name])
        if gas_pool is None:
            pool = action.get("unlock_gas")
            gas_pool = list(pool) if isinstance(pool, list) else [pool]
        if not gas_pool:
            self.emit("driver_done", action=action["action"],
                      status="unlock_out_of_gas", rounds=0, retries=0)
            return
        gas_name, rest_pool = gas_pool[0], gas_pool[1:]
        rqt = self._make_unlock_rqt(keys, None, gas_name, signers,
                                    int(action.get("epoch", 0)))

        def unlock_done(env, driver, result):
            if result.status == "superseded" and recoveries > 0:
                # another sequenced outcome beat us to part of the key set;
                # release whatever is still reserved, without retrying the
                # now-dead transaction. Gas was spent only if our unlock
                # certificate reached the sequencer; otherwise it sits
                # wedged under this request's lock and gets unlocked too.
                remaining = [k for k in keys if k not in result.confirmed_keys]
                if driver.ucert is not None:
                    self.versions[rqt.gas.object_id] = rqt.gas.version + 1
                elif rqt.gas not in remaining:
                    remaining.append(rqt.gas)
                if remaining:
                    self._recover({**action, "retry": False}, tx,
                                  recoveries - 1, keys=remaining,
                                  gas_pool=rest_pool)
                else:
                    self._finish_action(action, driver, "superseded")
                return
            if result.status != "unlocked":
                self._finish_action(action, driver, f"unlock_{result.status}")
                return
            self._update_view(result.effect_certs)
            self.versions[rqt.gas.object_id] = rqt.gas.version + 1
            finalized = any(c.effects.tx_digest == tx.digest
                            for c in result.effect_certs)
            if finalized or not action.get("retry", True):
                self._finish_action(action, driver,
                                    "finalized_by_unlock" if finalized
                                    else "unlocked")
                return
            rebuilt = retry_after_unlock(tx, result.effect_certs[0])
            rebuilt = self._sign_tx(rebuilt, signers)

            def retry_done(env2, driver2, result2):
                if result2.status == "finalized":
                    self._update_view(result2.effect_certs)
                    self._after_transfer_bookkeeping(action, rebuilt)
                    self._finish_action(action, driver2, "finalized_after_unlock")
                elif result2.status == "locked" and recoveries > 1:
                    self._recover(action, rebuilt, recoveries - 1)
                else:
                    self._finish_action(action, driver2, f"retry_{result2.status}")

            self._launch_fast(rebuilt, retry_done)

        self._launch_unlock(rqt, True, unlock_done)

    def _make_unlock_rqt(self, keys, replacement, gas_name, signers,
                         epoch: int, authorized: bool = True) -> UnlockRqt:
        gas_key = self.key_of(gas_name)
        rqt = UnlockRqt(tuple(keys), replacement, gas_key, epoch, self.pk)
        listed_owned = [k for k in keys
                        if self.runner.object_info[k.object_id].policies]
        if not authorized:
            # sign, but only prove control of the gas object
            listed_owned = []
        evidence = self._evidence(rqt.signing_digest, signers,
                                  listed_owned + [gas_key],
                                  {k.object_id for k in keys}
                                  | {gas_key.object_id})
        return UnlockRqt(tuple(keys), replacement, gas_key, epoch, self.pk,
                         evidence)

    def _run_unlock_action(self, action: dict) -> None:
        keys = [self.key_of(n) for n in action["keys"]]
        authorized = bool(action.get("authorized", True))
        replacement = None
        if action.get("replacement"):
            replacement = self._build_tx(action["replacement"])
        rqt = self._make_unlock_rqt(keys, replacement, action["gas"],
                                    action.get("signers", [self.name]),
                                    int(action.get("epoch", 0)), authorized)

        def done(env, driver, result):
            if result.status == "unlocked" or (
                    result.status == "superseded" and driver.ucert is not None):
                self._update_view(result.effect_certs)
                self.versions[rqt.gas.object_id] = rqt.gas.version + 1
            self._finish_action(action, driver, result.status)

        self._launch_unlock(rqt, authorized, done,
                            wait_all=bool(action.get("wait_all", False)))

    def _run_double_send(self, action: dict) -> None:
        """Buggy-wallet behavior: the same intent submitted twice as two
        byte-distinct conflicting transactions."""
        first = self._build_tx({**action, "action": "transfer", "memo": "dup-a"})
        second = self._build_tx({**action, "action": "transfer", "memo": "dup-b"})
        outcomes: dict[str, object] = {}

        def check_both(env):
            if len(outcomes) < 2:
                return
            results = list(outcomes.values())
            if any(r.status == "finalized" for r in results):
                winner = next(r for r in results if r.status == "finalized")
                self._update_view(winner.effect_certs)
                self.emit("driver_done", action="double_send", status="finalized",
                          rounds=2, retries=0)
            elif any(r.status == "locked" for r in results):
                self._recover({**action, "action": "transfer",
                               "memo": "dup-a"}, first, 1)
            else:
                self.emit("driver_done", action="double_send",
                          status=results[0].status, rounds=2, retries=0)

        def done_first(env, driver, result):
            outcomes["first"] = result
            check_both(env)

        def done_second(env, driver, result):
            outcomes["second"] = result
            check_both(env)

        self._launch_fast(first, done_first, first_to=action.get("first_to"))
        self._launch_fast(second, done_second,
                          first_to=action.get("first_to_second"))

    def _run_spend_loop(self, action: dict) -> None:
        counter_oid = object_id_for(action["counter"])
        self.limits.setdefault(counter_oid,
                               self.runner.object_info[counter_oid].limit)
        state = {
            "remaining": int(action.get("target", self.limits[counter_oid])),
            "amounts": (list(action["amounts"])
                        if isinstance(action.get("amounts"), list) else None),
            "gas_pool": list(action["gas_pool"]),
            "unlock_gas_pool": list(action["unlock_gas_pool"]),
            "consolidations": 0,
        }
        self._spend_step(action, state)

    def _next_gas(self, state: dict, pool: str) -> str | None:
        return state[pool][0] if state[pool] else None

    def _spend_step(self, action: dict, state: dict) -> None:
        counter_oid = object_id_for(action["counter"])
        if state["remaining"] <= 0 or self.limits.get(counter_oid, 0) <= 0:
            self.emit("spend_done", counter=counter_oid.hex(),
                      remaining=state["remaining"],
                      consolidations=state["consolidations"])
            return
        if state["amounts"] is not None:
            if not state["amounts"]:
                self.emit("spend_done", counter=counter_oid.hex(),
                          remaining=state["remaining"],
                          consolidations=state["consolidations"])
                return
            amount = state["amounts"][0]
        else:
            budget = initial_budget(self.limits[counter_oid],
                                    self.runner.scenario.params)
            amount = min(budget, state["remaining"])
            if amount == 0:
                self._spend_via_replacement(action, state)
                return
        gas_name = self._next_gas(state, "gas_pool")
        if gas_name is None:
            self.emit("spend_done", counter=counter_oid.hex(),
                      remaining=state["remaining"], reason="out_of_gas",
                      consolidations=state["consolidations"])
            return
        tx = self._build_tx({**action, "action": "debit", "amount": amount,
                             "inputs": [action["counter"]], "gas": gas_name})

        def done(env, driver, result):
            if result.status == "finalized":
                self._update_view(result.effect_certs)
                state["remaining"] -= amount
                if state["amounts"] is not None:
                    state["amounts"].pop(0)
                    self._spend_step(action, state)
                else:
                    # greedy mode drained the budgets; consolidate right away
                    self._consolidate(action, state)
            elif result.status in ("rejected", "locked"):
                state["gas_pool"].pop(0)  # parts of this gas may now be locked
                self._consolidate(action, state)
            else:
                self.emit("spend_done", counter=counter_oid.hex(),
                          remaining=state["remaining"], reason=result.status,
                          consolidations=state["consolidations"])

        self._launch_fast(tx, done)

    def _consolidate(self, action: dict, state: dict,
                     replacement: Transaction | None = None) -> None:
        counter_oid = object_id_for(action["counter"])
        gas_name = self._next_gas(state, "unlock_gas_pool")
        if gas_name is None:
            self.emit("spend_done", counter=counter_oid.hex(),
                      remaining=state["remaining"], reason="out_of_unlock_gas",
                      consolidations=state["consolidations"])
            return
        keys = [self.key_of(action["counter"])]
        rqt = self._make_unlock_rqt(keys, replacement, gas_name,
                                    action.get("signers", [self.name]),
                                    int(action.get("epoch", 0)))

        def done(env, driver, result):
            state["unlock_gas_pool"].pop(0)
            if result.status != "unlocked":
                self.emit("spend_done", counter=counter_oid.hex(),
                          remaining=state["remaining"],
                          reason=f"consolidate_{result.status}",
                          consolidations=state["consolidations"])
                return
            state["consolidations"] += 1
            self._update_view(result.effect_certs)
            self.versions[rqt.gas.object_id] = rqt.gas.version + 1
            if replacement is not None and any(
                    c.effects.tx_digest == replacement.digest
                    for c in result.effect_certs):
                state["remaining"] -= replacement.params.amount
            self._spend_step(action, state)

        self._launch_unlock(rqt, True, done)

    def _spend_via_replacement(self, action: dict, state: dict) -> None:
        """Budgets rounded to zero: push the remainder through consensus."""
        counter_oid = object_id_for(action["counter"])
        amount = min(state["remaining"], self.limits.get(counter_oid, 0))
        gas_name = self._next_gas(state, "gas_pool")
        if amount <= 0 or gas_name is None:
            self.emit("spend_done", counter=counter_oid.hex(),
                      remaining=state["remaining"], reason="exhausted",
                      consolidations=state["consolidations"])
            return
        replacement = self._build_tx({**action, "action": "debit",
                                      "amount": amount,
                                      "inputs": [action["counter"]],
                                      "gas": gas_name})
        state["gas_pool"].pop(0)
        self._consolidate(action, state, replacement)


class Runner:
    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.scheme = crypto.DEFAULT_SCHEME
        self.rng = random.Random(scenario.seed)
        self.recorder = TraceRecorder()
        self.network = _Network(scenario.network, self.rng)
        self.now = 0
        self._heap: list = []
        self._push_count = 0
        self._submit_material: dict[tuple[str, int], tuple[object, bytes]] = {}

        self.account_pk: dict[str, bytes] = {}
        self.account_sk: dict[str, bytes] = {}
        self.client_of_pk: dict[bytes, str] = {}
        self.object_info: dict[bytes, ObjectInfo] = {}

        account_keys, genesis = materialize_genesis(scenario)
        for name in scenario.accounts:
            sk, pk = user_keypair(name)
            self.account_sk[name], self.account_pk[name] = sk, pk
            self.client_of_pk[pk] = name
        self.genesis = genesis
        for entry in genesis:
            policies = {}
            if entry.term is not None:
                policies[0] = (entry.term, entry.nonce_seed)
            self.object_info[entry.spec.object_id()] = ObjectInfo(
                name=entry.spec.name, kind=entry.spec.kind, policies=policies,
                flavor=entry.spec.flavor, limit=entry.spec.limit)

        self.validators = [
            ValidatorActor(self, vid,
                           scenario.faults.get(vid, Fault("honest")),
                           scenario.clock_skew.get(vid, 0))
            for vid in range(scenario.params.n)]
        for actor in self.validators:
            for entry in genesis:
                actor.state.seed_object(entry.obj)
        self.seq_actor = SequencerActor(self)
        self.clients = {name: ClientActor(self, name)
                        for name in scenario.accounts}
        self._actors = {a.name: a for a in self.validators}
        self._actors[self.seq_actor.name] = self.seq_actor
        self._actors.update(self.clients)

    def address_of(self, account: str) -> bytes:
        return commit(PublicKey(self.account_pk[account]))

    def register_minted(self, name: str, owner_account: str) -> None:
        oid = object_id_for(name)
        if oid not in self.object_info:
            term = PublicKey(self.account_pk[owner_account])
            self.object_info[oid] = ObjectInfo(
                name=name, kind=ObjectKind.OWNED, policies={0: (term, None)},
                flavor=None, limit=0)

    # -- event queue --

    def _push(self, tick: int, tiebreak: bytes, entry) -> None:
        self._push_count += 1
        heapq.heappush(self._heap, (tick, tiebreak, self._push_count, entry))

    def send(self, src: str, dst: str, msg, protected: bool = False) -> None:
        self.network.sent += 1
        if not protected and self.network.should_drop():
            self.network.dropped += 1
            self.recorder.emit(self.now, "net", "drop", src=src, dst=dst)
            return
        material = (msg.material() if hasattr(msg, "material")
                    else self._submission_material(msg))
        tiebreak = digest(material + src.encode() + dst.encode()
                          + enc_u64(self._push_count))
        self._push(self.now + self.network.delay(), tiebreak,
                   ("deliver", src, dst, msg))

    def _submission_material(self, msg: tuple) -> bytes:
        """`repr(msg).encode()` for a ("submit", kind, payload) message,
        computed once per payload. The payload is kept with its bytes, so
        its id cannot be reused for another object within the run."""
        _, kind, payload = msg
        key = (kind, id(payload))
        entry = self._submit_material.get(key)
        if entry is None:
            entry = self._submit_material[key] = (payload, repr(msg).encode())
        return entry[1]

    def submit_item(self, src: str, kind: str, payload) -> None:
        self.send(src, "seq", ("submit", kind, payload), protected=True)

    def schedule_timer(self, actor: str, delay: int, token: str) -> None:
        tiebreak = digest(b"timer" + actor.encode() + token.encode()
                          + enc_u64(self._push_count))
        self._push(self.now + delay, tiebreak, ("timer", actor, token))

    def record(self, actor: str, kind: str, **fields) -> None:
        self.recorder.emit(self.now, actor, kind, **fields)

    # -- main loop --

    def run(self) -> Trace:
        for action in self.scenario.script:
            tiebreak = digest(b"action" + repr(sorted(action.items())).encode())
            self._push(int(action.get("at", 0)), tiebreak,
                       ("deliver", "script", action["client"],
                        ("action", action)))
        if self.scenario.epoch_change:
            for vid in range(self.scenario.params.n):
                self._push(self.scenario.epoch_length,
                           digest(b"epoch" + enc_u64(vid)),
                           ("deliver", "script", f"v{vid}", "epoch_change"))

        quiesced = True
        last_tick = 0
        while self._heap:
            tick, _, _, entry = heapq.heappop(self._heap)
            if tick > self.scenario.tick_limit:
                quiesced = False
                break
            self.now = last_tick = tick
            if entry[0] == "deliver":
                _, src, dst, msg = entry
                actor = self._actors.get(dst)
                if actor is not None:
                    actor.handle(src, msg)
            elif entry[0] == "timer":
                _, name, token = entry
                client = self.clients.get(name)
                if client is not None:
                    client.handle_timer(token)

        snapshots = {}
        for actor in self.validators:
            snap = actor.state.snapshot()
            snap["fault"] = actor.fault.kind
            snap["crashed"] = actor.crashed
            snapshots[actor.name] = snap

        meta = {
            "n": self.scenario.params.n,
            "f": self.scenario.params.f,
            "seed": self.scenario.seed,
            "delta": self.scenario.delta,
            "epoch_length": self.scenario.epoch_length,
            "epoch_change": self.scenario.epoch_change,
            "tick_limit": self.scenario.tick_limit,
            "drop_budget": self.scenario.network.drop_budget,
            "faults": {str(v): fb.kind for v, fb in
                       sorted(self.scenario.faults.items())},
            "objects": {entry.spec.name: {
                "oid": entry.spec.object_id().hex(),
                "kind": entry.spec.kind.value,
                "flavor": entry.spec.flavor,
                "limit": entry.spec.limit,
                "contents": entry.spec.contents,
            } for entry in self.genesis},
        }
        return Trace(meta=meta, events=self.recorder.events,
                     snapshots=snapshots, quiesced=quiesced,
                     ticks=last_tick, sent=self.network.sent,
                     dropped=self.network.dropped)


def run(scenario: Scenario) -> Trace:
    """Execute a scenario to quiescence (or its tick limit); deterministic
    in the scenario seed."""
    return Runner(scenario).run()


def derive_seed(base: int, index: int) -> int:
    return int.from_bytes(digest(b"explore:" + enc_u64(base)
                                 + enc_u64(index))[:8], "big")


@dataclass
class ExploreVerdict:
    runs: int
    violating: list[tuple[int, list]]

    @property
    def ok(self) -> bool:
        return not self.violating


def explore_schedules(scenario: Scenario, k: int) -> ExploreVerdict:
    """Run k seeds derived from the base seed; report violating seeds."""
    violating = []
    for i in range(k):
        seed = derive_seed(scenario.seed, i)
        trace = run(scenario.with_seed(seed))
        violations = check_invariants(trace)
        if violations:
            violating.append((seed, violations))
    return ExploreVerdict(runs=k, violating=violating)
