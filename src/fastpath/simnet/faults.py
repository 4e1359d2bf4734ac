"""The validator actor and the fault table.

The protocol library is honest; Byzantine behaviour lives here. Each fault
kind is a subclass of `ValidatorActor` or of `ValidatorState` that
overrides a hook of the honest class, never a `process_*` handler, and
`FAULTS` maps each kind a scenario may name to its (actor class, state
class).
"""

from __future__ import annotations

import functools

from ..client import Rejection, UnlockCert, UnlockRqt
from ..sequencer import SequencedItem
from ..types import Certificate, ObjectKey, ProtocolError, Transaction
from ..validator import ValidatorState


class ValidatorActor:
    """Delivers each message of a run to one validator's state machine."""

    crashed = False

    def __init__(self, runner, vid: int, fault, state_cls):
        self.runner = runner
        self.name = f"v{vid}"
        self.fault = fault
        self.skew = runner.scenario.clock_skew.get(vid, 0)
        self.emit = functools.partial(runner.recorder.emit, self.name)
        self.state = state_cls(
            vid, runner.scenario.params, scheme=runner.scheme,
            auto_unlock_delay=runner.scenario.delta,
            event_oracle=runner.event_oracle, sink=self.emit)
        self.next_seq = 0
        self.seq_buffer: dict[int, SequencedItem] = {}

    def handle(self, src: str, msg) -> None:
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
            self.emit("tx_rejected", tx=tx.hexdigest, code=err.code.value)
            reply = Rejection(tx.digest, err.code.value, self.state.vid)
        self.runner.send(self.name, src, reply)

    def _on_cert(self, src: str, cert: Certificate) -> None:
        # the first certificate accepted for a transaction goes to the
        # sequencer for its checkpoint slot, before the reply
        first = cert.tx.digest not in self.state.forwarded
        try:
            reply = self.state.process_cert(cert)
        except ProtocolError as err:
            reply = Rejection(cert.tx.digest, err.code.value, self.state.vid)
        else:
            if first:
                self._forward(cert)
        self.runner.send(self.name, src, reply)

    def _forward(self, cert: Certificate) -> None:
        self.runner.submit_item(self.name, cert)

    def _on_unlock_rqt(self, src: str, rqt: UnlockRqt) -> None:
        reply = self.state.unlock_outcomes.get(rqt.digest)
        if reply is None:
            try:
                reply = self.state.process_unlock_rqt(rqt)
            except ProtocolError as err:
                self.emit("unlock_rejected", rqt=rqt.hexdigest,
                          code=err.code.value)
                reply = Rejection(rqt.digest, err.code.value, self.state.vid)
        self.runner.send(self.name, src, reply)

    def _on_sequenced(self, item: SequencedItem) -> None:
        payload = item.payload
        if isinstance(payload, UnlockCert):
            rqt = payload.rqt
            try:
                out = self.state.process_unlock_cert(payload)
            except ProtocolError as err:
                self.emit("unlock_cert_invalid", rqt=rqt.hexdigest,
                          code=err.code.value)
                out = Rejection(rqt.digest, err.code.value, self.state.vid)
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


class Crash(ValidatorActor):
    """Stops at tick `at`, emitting `crash` on the first message it ignores."""

    def handle(self, src: str, msg) -> None:
        if self.runner.now < self.fault.at:
            super().handle(src, msg)
        elif not self.crashed:
            self.crashed = True
            self.emit("crash")


class LazyForwarder(ValidatorActor):
    """Never submits a certificate to the sequencer for checkpointing."""

    def _forward(self, cert: Certificate) -> None:
        pass


class VoteWithholder(ValidatorActor):
    """Never answers an unlock request."""

    def _on_unlock_rqt(self, src: str, rqt: UnlockRqt) -> None:
        pass


class Equivocator(ValidatorState):
    """Signs over keys that another transaction holds locked."""

    def _check_locks(self, tx: Transaction, owned) -> None:
        pass


class StaleReplier(ValidatorState):
    """Signs over superseded versions it still stores, and votes on
    unlocks as if it had seen no certificate."""

    def _signable(self, key: ObjectKey):
        return self.get_object(key) or self._check_key(key)

    def _carried(self, rqt: UnlockRqt) -> dict:
        return {}


class InfiniteBudget(ValidatorState):
    """Signs every bounded-counter debit without drawing on its budget."""

    def _budgeted(self, local) -> bool:
        return False


FAULTS = {
    "honest": (ValidatorActor, ValidatorState),
    "crash": (Crash, ValidatorState),
    "equivocator": (ValidatorActor, Equivocator),
    "vote_withholder": (VoteWithholder, ValidatorState),
    "stale_replier": (ValidatorActor, StaleReplier),
    "infinite_budget": (ValidatorActor, InfiniteBudget),
    "lazy_forwarder": (LazyForwarder, ValidatorState),
}
