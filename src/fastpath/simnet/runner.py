"""Deterministic discrete-event harness: the network model, the sequencer
actor, the event queue, `run` and `explore_schedules`. The validator actor
and its fault kinds live in `faults.py`; what a client does with a
scripted action lives in `workflows.py`. The runner holds what clients
know of objects and owners: it seeds that from genesis, clients add what
they see.

One bucket queue drives validators, clients, and the sequencer: a list
of entries per due tick, under a heap of those ticks. Every queue entry
is `(src, dst, msg)`, and popping it calls the `dst` actor's
`handle(src, msg)`. A send comes from an actor; a scripted action
(`("script", client, action)`) and an epoch change (`("script", vid,
"epoch_change")`) come from `script`; a client's retry tick (`("timer",
client, driver)`) comes from `timer` and carries the driver that armed it.
It falls `hops * max_delay + 1` ticks after it is armed, `hops` being the
one-way trips of the exchange its driver just started (see `workflows.py`),
and stays queued after its driver finishes or starts its next exchange.
Only sends cross the network; script entries and ticks are never dropped
or counted as sent.

A run stops at an empty queue or at the first entry past `tick_limit`;
`ticks` is the tick of the last entry popped, idle retry ticks included.
The run is quiesced if all that is left reaches no running driver of its
client (retry ticks, late replies); else the limit cut it short.

Every message is a protocol value, and the receiver dispatches on its
type. A sequencer submission is the item itself: an `UnlockCert` (from a
client), a `Certificate` for its checkpoint slot or an `EndOfEpoch` marker
(from a validator); the sequencer hands validators each one as a
`SequencedItem`.

Entries order by (delivery tick, order draw, insertion counter): every
push takes one draw from the run's order stream, so entries due at the
same tick pop in a seeded shuffle. The run has two sources of randomness,
both derived from the scenario seed: the order stream and the network
stream (delays and drops). A delay is randint's own draw, inlined:
`getrandbits(k)`, k the bit length of the delay span, until it falls
below the span. Actors never iterate unordered collections, so a seed
fully determines the trace. `send` alone decides, from the link, whether
a message can be lost: links between clients and validators lose at most
`drop_budget` messages (eventually reliable); links to and from the
sequencer model the consensus black box and only jitter.

Each actor's `emit`, which its validator state machine calls too, is the
run's `TraceRecorder.emit` bound to the actor's name. A finished run
releases its actors, so that no reference cycle outlives it.
"""

from __future__ import annotations

import functools
import itertools
import random
from heapq import heappop, heappush

from .. import crypto
from ..authenticators import Revealed, event_facts
from ..crypto import user_keypair
from ..encoding import digest, enc_u64
from ..sequencer import ITEM_KINDS, Sequencer
from ..types import Object, ProtocolError
from .faults import FAULTS
from .invariants import check_invariants
from .scenario import Fault, Scenario, materialize_genesis
from .trace import Trace, TraceRecorder
from .workflows import ClientActor


class _Network:
    def __init__(self, spec, rng: random.Random):
        self.spec = spec
        self.rng = rng
        self.budget = spec.drop_budget
        self.sent = 0
        self.dropped = 0
        self._span = spec.max_delay - spec.min_delay + 1  # NetworkSpec checks >= 1
        self._bits = self._span.bit_length()

    def delay(self) -> int:
        draw = self.rng.getrandbits(self._bits)
        while draw >= self._span:
            draw = self.rng.getrandbits(self._bits)
        return self.spec.min_delay + draw

    def should_drop(self) -> bool:
        if self.budget <= 0:
            return False
        if self.rng.random() < self.spec.drop_rate:
            self.budget -= 1
            return True
        return False


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
            self.runner.send(self.name, f"v{vid}", item)


class Runner:
    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.scheme = crypto.DEFAULT_SCHEME
        self.recorder = TraceRecorder()
        self.event_oracle = event_facts(scenario.events)
        self.network = _Network(scenario.network, random.Random(scenario.seed))
        self._order = random.Random(b"order:" + enc_u64(scenario.seed))
        self.now = 0
        self._buckets: dict[int, list] = {}
        self._ticks: list[int] = []
        self._delivering = float("-inf")
        self._pushes = itertools.count()  # insertion counter

        self.account_pk: dict[str, bytes] = {}
        self.account_sk: dict[str, bytes] = {}
        self.client_of_pk: dict[bytes, str] = {}
        # what clients know of objects and owners (see workflows.py)
        self.seen: dict[bytes, dict[int, Object]] = {}
        self.versions: dict[bytes, int] = {}
        self.owner_trees: dict[bytes, Revealed] = {}
        self.object_ids: dict[str, bytes] = {}
        self.commitments: dict[str, bytes] = {}

        genesis = materialize_genesis(scenario)
        for name in scenario.accounts:
            sk, pk = user_keypair(name)
            self.account_sk[name], self.account_pk[name] = sk, pk
            self.client_of_pk[pk] = name
        self.genesis = genesis
        for entry in genesis:
            self.object_ids[entry.spec.name] = entry.obj.key.object_id
            self.seen[entry.obj.key.object_id] = {0: entry.obj}
            if entry.tree is not None:
                self.owner_trees[entry.obj.owner] = entry.tree

        self.validators = []
        for vid in range(scenario.params.n):
            fault = scenario.faults.get(vid, Fault("honest"))
            actor_cls, state_cls = FAULTS[fault.kind]
            self.validators.append(actor_cls(self, vid, fault, state_cls))
        objects = [entry.obj for entry in genesis]
        for actor in self.validators:
            actor.state.seed(objects)
        self.seq_actor = SequencerActor(self)
        self.clients = {name: ClientActor(self, name)
                        for name in scenario.accounts}
        self._actors = {a.name: a for a in self.validators}
        self._actors[self.seq_actor.name] = self.seq_actor
        self._actors.update(self.clients)

    # -- event queue --

    def _push(self, tick: int, entry) -> None:
        """Queue `entry` in `tick`'s bucket, with one order draw. Delays are
        at least one tick, so a bucket is complete once its delivery starts."""
        bucket = self._buckets.get(tick)
        if bucket is None:
            if tick <= self._delivering:
                raise ValueError(f"tick {tick} is not past {self._delivering}")
            bucket = self._buckets[tick] = []
            heappush(self._ticks, tick)
        bucket.append((self._order.random(), next(self._pushes), entry))

    def queued(self):
        """The pending `(src, dst, msg)` entries, in pop order."""
        return (entry for tick in sorted(self._buckets)
                for *_, entry in sorted(self._buckets[tick]))

    def send(self, src: str, dst: str, msg) -> None:
        """Queue `msg` after a network delay. Only a link between a client
        and a validator drops it; one to or from `seq` never does."""
        self.network.sent += 1
        if "seq" not in (src, dst) and self.network.should_drop():
            self.network.dropped += 1
            self.recorder.emit("net", "drop", src=src, dst=dst)
            return
        self._push(self.now + self.network.delay(), (src, dst, msg))

    def schedule_timer(self, actor: str, delay: int, token) -> None:
        self._push(self.now + delay, ("timer", actor, token))

    # -- main loop --

    def run(self) -> Trace:
        """Queue the script, then sort and deliver each due tick's bucket."""
        for action in self.scenario.script:
            self._push(int(action.get("at", 0)),
                       ("script", action["client"], action))
        if self.scenario.epoch_change:
            for vid in range(self.scenario.params.n):
                self._push(self.scenario.epoch_length,
                           ("script", f"v{vid}", "epoch_change"))

        ticks, buckets, actors = self._ticks, self._buckets, self._actors
        while ticks and ticks[0] <= self.scenario.tick_limit:
            tick = self.now = self._delivering = heappop(ticks)
            self.recorder.tick = tick
            bucket = buckets.pop(tick)
            bucket.sort()
            for _, _, (src, dst, msg) in bucket:
                actors[dst].handle(src, msg)
        quiesced = all(self._idle(*entry) for entry in self.queued())

        snapshots = {a.name: {**a.state.snapshot(), "crashed": a.crashed}
                     for a in self.validators}

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
                "oid": entry.obj.key.object_id.hex(),
                "kind": entry.spec.kind.value,
                "flavor": entry.spec.flavor,
                "limit": entry.spec.limit,
                "contents": entry.spec.contents,
            } for entry in self.genesis},
        }
        trace = Trace(meta=meta, events=self.recorder.events,
                      snapshots=snapshots, quiesced=quiesced,
                      ticks=self.now, sent=self.network.sent,
                      dropped=self.network.dropped)
        self._release()
        return trace

    def _idle(self, src: str, dst: str, msg) -> bool:
        """Whether an entry is a retry tick or a client-bound reply that
        reaches no running driver (`ClientActor.reached`)."""
        return src != "script" and dst in self.clients \
            and self.clients[dst].reached(src, msg) is None

    def _release(self) -> None:
        """Cut the run's reference cycles (actors and runner point at each
        other; a suspended workflow's frame holds its client), so that
        refcounting frees the run without the cycle collector."""
        for actor in self._actors.values():
            actor.runner = None
        for client in self.clients.values():
            client.waiting.clear()
        self._buckets.clear()


def run(scenario: Scenario) -> Trace:
    """Execute a scenario to quiescence (or its tick limit); deterministic
    in the scenario seed."""
    return Runner(scenario).run()


def derive_seed(base: int, index: int) -> int:
    return int.from_bytes(digest(b"explore:" + enc_u64(base)
                                 + enc_u64(index))[:8], "big")


def explore_schedules(scenario: Scenario, k: int) -> list[tuple[int, list]]:
    """Run k seeds derived from the base seed; return (seed, violations)
    for each violating one, in seed order."""
    violating = []
    for i in range(k):
        seed = derive_seed(scenario.seed, i)
        trace = run(scenario.with_seed(seed))
        violations = check_invariants(trace)
        if violations:
            violating.append((seed, violations))
    return violating
