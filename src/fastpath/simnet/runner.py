"""Deterministic discrete-event harness: the network model, the validator
and sequencer actors, the event queue, `run` and `explore_schedules`. What
a client does with a scripted action lives in `workflows.py`.

One priority queue drives validators, clients, and the sequencer. Every
queue entry is `(src, dst, msg)`, and popping it calls the `dst` actor's
`handle(src, msg)`. A send comes from an actor; a scripted action
(`("script", client, action)`) and an epoch change (`("script", vid,
"epoch_change")`) come from `script`; a client's retry tick (`("timer",
client, driver)`) comes from `timer` and carries the driver that armed it.
Only sends cross the network; script entries and ticks are never dropped
or counted as sent.

Every message is a protocol value, and the receiver dispatches on its
type. A validator answers a client's `Transaction`, `Certificate` or
`UnlockRqt` with a `CertSign` or `UnlockVote`, a `Rejection` or an
`Outcome`, each naming its `subject` digest, by which the client routes it
to a driver. A sequencer submission is the item itself: an `UnlockCert`
(from a client), a `Certificate` for its checkpoint slot or an
`EndOfEpoch` marker (from a validator); the sequencer hands validators each
one as a `SequencedItem`.

Entries order by (delivery tick, order draw, insertion counter): every
push takes one draw from the run's order stream, so entries due at the
same tick pop in a seeded shuffle. The run has two sources of randomness,
both derived from the scenario seed: the order stream and the network
stream (delays and drops). Actors never iterate unordered collections, so
a seed fully determines the trace. Message links between clients and
validators lose at most `drop_budget` messages (eventually reliable);
links to and from the sequencer model the consensus black box and only
jitter.

Each actor's `emit`, which its validator state machine calls too, is the
run's `TraceRecorder.emit` bound to the actor's name. A finished run
releases its actors, so that no reference cycle outlives it.
"""

from __future__ import annotations

import functools
import heapq
import random
from dataclasses import dataclass

from .. import crypto
from ..authenticators import event_facts
from ..client import Rejection, UnlockCert, UnlockRqt
from ..crypto import user_keypair
from ..encoding import digest, enc_u64
from ..sequencer import ITEM_KINDS, SequencedItem, Sequencer
from ..types import Certificate, ProtocolError, Transaction
from ..validator import ValidatorState
from .invariants import check_invariants
from .scenario import Fault, Scenario, materialize_genesis
from .trace import Trace, TraceRecorder
from .workflows import ClientActor, ObjectInfo


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
        self.emit = functools.partial(runner.recorder.emit, self.name)
        self.state = ValidatorState(
            vid, runner.scenario.params, scheme=runner.scheme,
            auto_unlock_delay=runner.scenario.delta, fault=fault.kind,
            event_oracle=runner.event_oracle, sink=self.emit)
        self.next_seq = 0
        self.seq_buffer: dict[int, SequencedItem] = {}

    def _check_crash(self) -> bool:
        if self.fault.kind == "crash" and self.runner.now >= self.fault.at:
            if not self.crashed:
                self.crashed = True
                self.emit("crash")
            return True
        return False

    def handle(self, src: str, msg) -> None:
        if self._check_crash():
            return
        self.state.clock = self.runner.now + self.skew
        if isinstance(msg, Transaction):
            self._on_tx(src, msg)
        elif isinstance(msg, Certificate):
            self._on_cert(src, msg)
        elif isinstance(msg, UnlockRqt):
            self._on_unlock_rqt(src, msg)
        elif isinstance(msg, SequencedItem):
            self.seq_buffer[msg.seq] = msg
            while self.next_seq in self.seq_buffer:
                self._on_sequenced(self.seq_buffer.pop(self.next_seq))
                self.next_seq += 1
        elif msg == "epoch_change":
            self._on_epoch_change()

    def _on_tx(self, src: str, tx: Transaction) -> None:
        try:
            reply = self.state.process_tx(tx)
        except ProtocolError as err:
            self.emit("tx_rejected", tx=tx.digest.hex(), code=err.code.value)
            reply = Rejection(tx.digest, err.code.value, self.vid)
        self.runner.send(self.name, src, reply)

    def _on_cert(self, src: str, cert: Certificate) -> None:
        # the first certificate accepted for a transaction goes to the
        # sequencer for its checkpoint slot, before the reply
        first = cert.tx.digest not in self.state.forwarded
        try:
            reply = self.state.process_cert(cert)
        except ProtocolError as err:
            reply = Rejection(cert.tx.digest, err.code.value, self.vid)
        else:
            if first and self.fault.kind != "lazy_forwarder":
                self.runner.submit_item(self.name, cert)
        self.runner.send(self.name, src, reply)

    def _on_unlock_rqt(self, src: str, rqt: UnlockRqt) -> None:
        if self.fault.kind == "vote_withholder":
            return
        reply = self.state.unlock_outcomes.get(rqt.digest)
        if reply is None:
            try:
                reply = self.state.process_unlock_rqt(rqt)
            except ProtocolError as err:
                self.emit("unlock_rejected", rqt=rqt.digest.hex(),
                          code=err.code.value)
                reply = Rejection(rqt.digest, err.code.value, self.vid,
                                  tuple(err.keys))
        self.runner.send(self.name, src, reply)

    def _on_sequenced(self, item: SequencedItem) -> None:
        payload = item.payload
        if isinstance(payload, UnlockCert):
            rqt = payload.rqt
            try:
                out = self.state.process_unlock_cert(payload)
            except ProtocolError as err:
                self.emit("unlock_cert_invalid", rqt=rqt.digest.hex(),
                          code=err.code.value)
                out = None
            if out is not None:
                client = self.runner.client_of_pk.get(rqt.requester)
                if client is not None:
                    self.runner.send(self.name, client, out)
        elif isinstance(payload, Certificate):
            self.state.process_checkpoint_cert(payload)
        else:
            self.state.note_end_of_epoch(payload.validator, payload.epoch)
        self._submit_end_of_epoch()

    def _on_epoch_change(self) -> None:
        for cert in self.state.begin_epoch_change():
            self.runner.submit_item(self.name, cert)
        self._submit_end_of_epoch()

    def _submit_end_of_epoch(self) -> None:
        if self.state.end_of_epoch_ready():
            self.runner.submit_item(self.name, self.state.make_end_of_epoch())


class SequencerActor:
    def __init__(self, runner: "Runner"):
        self.runner = runner
        self.name = "seq"
        self.emit = functools.partial(runner.recorder.emit, self.name)
        self.sequencer = Sequencer(runner.scenario.params, runner.scheme)

    def handle(self, src: str, msg) -> None:
        try:
            item = self.sequencer.submit(msg)
        except ProtocolError as err:
            self.emit("seq_rejected", code=err.code.value,
                      item_kind=ITEM_KINDS.get(type(msg)))
            return
        if item is None:
            return
        self.emit("sequenced", seq=item.seq,
                  item_kind=ITEM_KINDS[type(item.payload)],
                  item=item.payload_digest.hex())
        for vid in range(self.runner.scenario.params.n):
            self.runner.send(self.name, f"v{vid}", item, protected=True)


class Runner:
    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.scheme = crypto.DEFAULT_SCHEME
        self.recorder = TraceRecorder()
        self.event_oracle = event_facts(scenario.events)
        self.network = _Network(scenario.network, random.Random(scenario.seed))
        self._order = random.Random(b"order:" + enc_u64(scenario.seed))
        self.now = 0
        self._heap: list = []
        self._push_count = 0

        self.account_pk: dict[str, bytes] = {}
        self.account_sk: dict[str, bytes] = {}
        self.client_of_pk: dict[bytes, str] = {}
        self.object_info: dict[bytes, ObjectInfo] = {}

        genesis = materialize_genesis(scenario)
        for name in scenario.accounts:
            sk, pk = user_keypair(name)
            self.account_sk[name], self.account_pk[name] = sk, pk
            self.client_of_pk[pk] = name
        self.genesis = genesis
        for entry in genesis:
            policies = {}
            if entry.spec.term is not None:
                policies[0] = (entry.spec.term, entry.nonce_seed)
            self.object_info[entry.spec.object_id()] = ObjectInfo(
                kind=entry.spec.kind, policies=policies, limit=entry.spec.limit)

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

    # -- event queue --

    def _push(self, tick: int, entry) -> None:
        self._push_count += 1
        heapq.heappush(self._heap, (tick, self._order.random(),
                                    self._push_count, entry))

    def send(self, src: str, dst: str, msg, protected: bool = False) -> None:
        self.network.sent += 1
        if not protected and self.network.should_drop():
            self.network.dropped += 1
            self.recorder.emit("net", "drop", src=src, dst=dst)
            return
        self._push(self.now + self.network.delay(), (src, dst, msg))

    def submit_item(self, src: str, payload) -> None:
        self.send(src, "seq", payload, protected=True)

    def schedule_timer(self, actor: str, delay: int, token) -> None:
        self._push(self.now + delay, ("timer", actor, token))

    # -- main loop --

    def run(self) -> Trace:
        for action in self.scenario.script:
            self._push(int(action.get("at", 0)),
                       ("script", action["client"], action))
        if self.scenario.epoch_change:
            for vid in range(self.scenario.params.n):
                self._push(self.scenario.epoch_length,
                           ("script", f"v{vid}", "epoch_change"))

        quiesced = True
        last_tick = 0
        while self._heap:
            tick, _, _, (src, dst, msg) = heapq.heappop(self._heap)
            if tick > self.scenario.tick_limit:
                quiesced = False
                break
            self.now = last_tick = self.recorder.tick = tick
            self._actors[dst].handle(src, msg)

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
        trace = Trace(meta=meta, events=self.recorder.events,
                      snapshots=snapshots, quiesced=quiesced,
                      ticks=last_tick, sent=self.network.sent,
                      dropped=self.network.dropped)
        self._release()
        return trace

    def _release(self) -> None:
        """Cut the run's reference cycles (actors and runner point at each
        other; drivers hold `on_done` closures over their client), so that
        refcounting frees the run without the cycle collector."""
        for actor in self._actors.values():
            actor.runner = None
        for client in self.clients.values():
            client.drivers.clear()
        self._heap.clear()


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
