"""Client workflows: what each scripted action does.

`ClientActor` turns a script action into signed transactions and unlock
requests, drives them with the drivers of `fastpath.client`, and runs the
workflows built on them: a transaction with its recovery when the fast
path blocks, the unlock action, the double send, and the bounded-counter
spend loop. The harness a client runs in (network, validator and
sequencer actors, queue) is `runner.py`.

Clients learn owners only from what the protocol shows them, kept in
maps that all clients of a run share: `seen`, every object version clients
saw (genesis, and each output of a finalized effect certificate),
`versions`, the version each object is spent at next, and `owner_terms`,
the owner term behind each commitment they can open, with its committed
tree. A key's kind, owner and counter limit are those of the object seen at
its version, or at the latest earlier version seen; `execute` alone decides
ownership. The pure work of building a transaction is done once per run:
`object_ids` holds each object name's id, `commitments` each recipient's
owner commitment, and every reveal is cut from the stored tree
(`authenticators.reveal_from`).

A client holds one driver table keyed by subject digest, the digest of the
transaction or unlock request a driver carries. Every validator answer (a
`CertSign` or `UnlockVote`, a `Rejection` or an `Outcome`) names that digest
as its `subject` and reaches the newest driver launched for it. A retry
tick carries the driver that armed it, so it reaches that driver alone,
even when a newer driver has since taken over its digest. A driver arms one
for each exchange it starts, and it falls once every reply of that
exchange, fault-free, is overdue (`ClientActor.set_timer`): 2 hops for a
request or a certificate broadcast, 3 for a sequencer submission. A tick
armed for an earlier exchange of the same driver is ignored, so only a
drop, a fault or a partial first broadcast makes a retry. An unlock driver
submits its `UnlockCert` to the sequencer as it is. Each action is a
generator workflow: it yields a list of (driver class, subject, driver
options), and once every driver of the list has finished it resumes with
the finished drivers in the order they finished. A driver's `status`,
`effect_certs` and `confirmed` keys are its result.

One rule, `_recovery`, answers a fast-path attempt that f+1 validators
blocked, by a lock or by a budget, with the paper's fast unlock: a lock
unlocks the owned inputs; a debit refused for its bounded counter
consolidates the counter and its owned inputs, riding as the replacement;
a debit that a reissue overtook retries at the new version. A transaction
(the double send too) recovers when its action names `unlock_gas`, paying
each unlock with its first object, unless it debits more than its counter,
as clients see it, holds. Recoveries need no cap: each either pays an
unlock, and gas that can no longer pay ends the action `unlock_<status>`,
or retries after a consolidation some client paid for.

A bounded-counter spend (`spend_loop`) debits either fixed `amounts` in
order or, greedily, as much of `target` as a fresh per-validator budget
allows. Each debit takes the one path that can serve it, by the counter's
limit at the client's version less the spend's own fast-path debits at
that version: an amount above the limit ends the spend; one above the
budget left rides a consolidation (an unlock of the counter) as its
replacement; any other goes on the fast path, and `_recovery` answers it
if it does not finalize. A debit that a consolidation follows at once (a
greedy one that leaves target unmet, or a fixed one that leaves less
budget than the next amount, which fits the limit) is only certified: its
certificate rides that consolidation (`UnlockRqt.certs`), while gas is
left, on a counter that the spender's key alone owns. A superseded
consolidation or an overtaken debit met a counter that another client
reissued: the spend goes on, dropping the gas of an overtaken debit or of
a rider that did not run. `spend_done` ends it; its `reason` is absent
when the target is met, the amounts are spent or the counter is empty,
and otherwise `over_limit`, `out_of_gas`, `out_of_unlock_gas`,
`consolidate_<status>` for an unlock that ended neither `unlocked` nor
`superseded`, or the status of a debit that nothing recovers.
"""

from __future__ import annotations

import functools

from ..authenticators import AuthContext, Evidence, PublicKey, annotate, \
    commit, find_path, reveal_from
from ..client import FastPathDriver, FastUnlockDriver, UnlockRqt
from ..counters import FLAVOR_BOUNDED, initial_budget
from ..types import ErrorCode, Object, ObjectKey, ObjectKind, Transaction, \
    TxKind, TxParams
from .scenario import TX_ACTIONS, object_id_for

# A debit's refusals that a consolidation answers: a drained budget, another
# consolidation's reservation, a counter version not reached or left behind.
COUNTER_REFUSALS = {e.value for e in (
    ErrorCode.BUDGET_EXHAUSTED, ErrorCode.OBJECT_UNLOCKED,
    ErrorCode.MISSING_OBJECT, ErrorCode.STALE_VERSION)}


class ClientActor:
    def __init__(self, runner, name: str):
        self.runner = runner
        self.name = name
        self.emit = functools.partial(runner.recorder.emit, name)
        self.pk = runner.account_pk[name]
        self.drivers: dict[bytes, object] = {}

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
        self.runner.submit_item(self.name, ucert)

    def set_timer(self, driver, hops: int) -> int:
        # The exchange the driver just started is over, fault-free, once its
        # `hops` one-way trips have each taken at most `max_delay`. One tick
        # more, because entries due on the same tick pop in a seeded
        # shuffle: a reply due then arrives first. Returns the tick due.
        delay = hops * self.runner.scenario.network.max_delay + 1
        self.runner.schedule_timer(self.name, delay, driver)
        return self.now + delay

    # -- message plumbing --

    def handle(self, src: str, msg) -> None:
        if src == "script":
            self._start_action(msg)
        elif src == "timer":
            msg.on_timer(self)
        else:
            driver = self.drivers.get(msg.subject)
            if driver is not None:
                driver.on_message(self, msg)

    # -- building blocks --

    def _oid(self, name: str) -> bytes:
        oid = self.runner.object_ids.get(name)
        if oid is None:  # a minted object's
            oid = self.runner.object_ids[name] = object_id_for(name)
        return oid

    def key_of(self, name: str) -> ObjectKey:
        oid = self._oid(name)
        return ObjectKey(oid, self.runner.versions.get(oid, 0))

    def _owner_for(self, account: str) -> bytes:
        """The commitment to `account`'s bare key, made once per run."""
        owner = self.runner.commitments.get(account)
        if owner is None:
            term = PublicKey(self.runner.account_pk[account])
            owner = self.runner.commitments[account] = commit(term)
            self.runner.owner_terms[owner] = term, annotate(term)
        return owner

    def seen_at(self, key: ObjectKey) -> Object | None:
        """The object at `key` as clients saw it, or at the latest earlier
        version they saw: an unlock's gas payment makes a version that no
        effect certificate shows, and it keeps the owner."""
        versions = self.runner.seen.get(key.object_id, {})
        known = [v for v in versions if v <= key.version]
        return versions[max(known)] if known else None

    def _kind(self, key: ObjectKey) -> ObjectKind | None:
        return getattr(self.seen_at(key), "kind", None)

    def _contents(self, key: ObjectKey):
        return getattr(self.seen_at(key), "contents", None)

    def _counter_limit(self, oid: bytes) -> int:
        """The spendable credit of counter `oid` at the version clients see."""
        key = ObjectKey(oid, self.runner.versions.get(oid, 0))
        return getattr(self._contents(key), "limit", 0)

    def _debited_counter(self, tx: Transaction) -> ObjectKey | None:
        """The bounded counter that `tx` debits, if any."""
        return next((k for k in tx.inputs if tx.kind == TxKind.DEBIT and getattr(
            self._contents(k), "flavor", None) == FLAVOR_BOUNDED), None)

    def _evidence(self, message: bytes, signer_names, object_keys,
                  included_oids) -> Evidence:
        """Signatures over `message`, and a reveal for each of
        `object_keys` whose owner term the clients can open and the signers
        can satisfy, with the request's `included_oids`."""
        keys = [(self.runner.account_sk[n], self.runner.account_pk[n])
                for n in signer_names]
        ctx = AuthContext(signers=frozenset(pk for _, pk in keys),
                          included_oids=included_oids,
                          local_time=self.now,
                          event_oracle=self.runner.event_oracle)
        reveals = []
        for key in object_keys:
            obj = self.seen_at(key)
            opened = self.runner.owner_terms.get(obj.owner) if obj else None
            if opened is None:
                continue  # no owner, or one that no client can open
            term, tree = opened
            path = find_path(term, ctx)
            if path is None:
                continue  # cannot authorize this object; validators will say so
            reveals.append((key.object_id, reveal_from(tree, path), path))
        return Evidence.build(message, keys, reveals, self.runner.scheme)

    def _build_tx(self, action: dict) -> Transaction:
        input_names = list(action.get("inputs", []))
        gas_name = action["gas"]
        if gas_name not in input_names:
            input_names.append(gas_name)
        inputs = tuple(self.key_of(n) for n in input_names)
        gas_key = self.key_of(gas_name)
        shared = tuple(self._oid(n) for n in action.get("shared", []))
        params = TxParams(
            amount=int(action.get("amount", 0)),
            new_owner=(self._owner_for(action["to"]) if action.get("to")
                       else None),
            new_object_id=(self._oid(action["new_object"])
                           if action.get("new_object") else None),
            item=(action["item"].encode() if action.get("item") else None),
            memo=action.get("memo", "").encode(),
        )
        tx = Transaction(inputs, shared, TxKind(action["action"]), params,
                         gas_key, int(action.get("epoch", 0)))
        return self._sign_tx(tx, action.get("signers", [self.name]))

    def _sign_tx(self, tx: Transaction, signers) -> Transaction:
        # a commutative input needs its owner's consent only to be debited
        keys = [k for k in tx.inputs if tx.kind == TxKind.DEBIT
                or self._kind(k) != ObjectKind.COMMUTATIVE]
        return tx.with_evidence(self._evidence(tx.digest, signers, keys,
                                               tx.included_oids))

    def _owned_keys(self, tx: Transaction) -> tuple[ObjectKey, ...]:
        return tuple(k for k in tx.inputs if self._kind(k) == ObjectKind.OWNED)

    def _update_view(self, effect_certs) -> None:
        seen, versions = self.runner.seen, self.runner.versions
        for cert in effect_certs:
            for obj in cert.effects.produced:
                oid, version = obj.key
                seen.setdefault(oid, {})[version] = obj
                if version > versions.get(oid, -1):
                    versions[oid] = version

    def _launch(self, driver_cls, subject, on_done, **options) -> None:
        """Start a driver for `subject`, a transaction or an unlock request;
        replies about its digest reach the driver."""
        driver = driver_cls(subject, self.runner.scenario.params,
                            self.runner.scheme, on_done=on_done, **options)
        self.drivers[subject.digest] = driver
        driver.start(self)

    def _run(self, workflow, drivers=None) -> None:
        """Resume `workflow` with the finished `drivers` it waits on, and
        launch those it yields next; the last of them to finish resumes it
        with them all, in the order they finished."""
        try:
            launches = workflow.send(drivers)
        except StopIteration:
            return
        finished = []

        def on_done(driver):
            driver.on_done = None  # a workflow keeping it would close a cycle
            finished.append(driver)
            if len(finished) == len(launches):
                self._run(workflow, finished)

        for driver_cls, subject, options in launches:
            self._launch(driver_cls, subject, on_done, **options)

    # -- actions --

    def _start_action(self, action: dict) -> None:
        name = action["action"]
        if name in TX_ACTIONS:
            self._run(self._transact(action, [(action, {
                "first_to": action.get("first_to"),
                "cert_to": action.get("cert_to")})]))
        elif name == "unlock":
            self._run(self._unlock_action(action))
        elif name == "double_send":
            # buggy-wallet behavior: one intent sent as two byte-distinct
            # conflicting transactions, each to part of the committee
            dup = {**action, "action": "transfer"}
            self._run(self._transact(action, [
                ({**dup, "memo": "dup-a"}, {"first_to": action.get("first_to")}),
                ({**dup, "memo": "dup-b"},
                 {"first_to": action.get("first_to_second")})]))
        elif name == "spend_loop":
            self._run(self._spend(action))

    def _finish_action(self, action: dict, driver, status: str) -> None:
        self.emit("driver_done", action=action["action"], status=status,
                  rounds=driver.round_trips if driver else 0,
                  retries=driver.retries if driver else 0)

    def _unlock(self, action: dict, keys, gas: str,
                replacement: Transaction | None = None, certs=(), **options):
        """Unlock `keys`, paying with the object named `gas`, `replacement`
        and `certs` riding; returns the finished driver. An unlock ends
        `unlocked` or `superseded` only once sequenced, which paid its gas,
        so clients see its effects and the gas at its next version."""
        gas_key = self.key_of(gas)
        rqt = UnlockRqt(tuple(keys), replacement, gas_key,
                        int(action.get("epoch", 0)), self.pk, certs=certs)
        # unauthorized: sign, but only prove control of the gas object
        proved = ([*keys, gas_key] if options.get("authorized", True)
                  else [gas_key])
        rqt = rqt._replace(evidence=self._evidence(
            rqt.signing_digest, action.get("signers", [self.name]), proved,
            rqt.included_oids))
        driver, = yield [(FastUnlockDriver, rqt, options)]
        if driver.status in ("unlocked", "superseded"):
            self._update_view(driver.effect_certs)
            self.runner.versions[gas_key.object_id] = gas_key.version + 1
        return driver

    def _recovery(self, tx: Transaction, driver):
        """The one recovery rule (module docstring) for an attempt of `tx`
        that `driver` did not finalize: the unlock that answers what blocked
        it, as its keys and replacement; () to retry without one; None when
        nothing recovers it."""
        counter = self._debited_counter(tx)
        if driver.status == "locked":
            return self._owned_keys(tx), None
        if counter and driver.status == "rejected" \
                and set(driver.rejections.values()) <= COUNTER_REFUSALS:
            return (counter, *self._owned_keys(tx)), tx
        if counter and driver.status == "superseded":
            return ()
        return None

    def _transact(self, action: dict, sends):
        """Drive the first attempt's `sends`, (action to build, driver
        options) pairs, on the fast path together. The attempt ends
        finalized if any send finalized, locked if any locked, and otherwise
        as the first send to finish. The first send recovers, rebuilt at the
        versions clients see, until its unlock runs it, names a settled owned
        key or is superseded, or its counter cannot cover it any more."""
        retried = False
        while True:
            txs = [self._build_tx(build) for build, _ in sends]
            drivers = yield [(FastPathDriver, tx, options)
                             for tx, (_, options) in zip(txs, sends)]
            driver = next((d for status in ("finalized", "locked")
                           for d in drivers if d.status == status), drivers[0])
            status, end = driver.status, None
            counter = self._debited_counter(txs[0])
            plan = (None if status == "finalized" or "unlock_gas" not in action
                    or counter and txs[0].params.amount
                    > self._counter_limit(counter.object_id)
                    else self._recovery(txs[0], driver))
            if status == "finalized":
                self._update_view(driver.effect_certs)
                end = "finalized_after_unlock" if retried else status
            elif plan is None:
                end = f"retry_{status}" if retried else status
            elif plan and not action["unlock_gas"]:
                driver, end = None, "unlock_out_of_gas"
            elif plan:
                keys, replacement = plan
                driver = yield from self._unlock(
                    action, keys, action["unlock_gas"][0], replacement)
                ran = any(c.effects.tx_digest == txs[0].digest
                          for c in driver.effect_certs)
                if driver.status != "unlocked":
                    end = ("superseded" if driver.status == "superseded"
                           else f"unlock_{driver.status}")
                elif ran or any(self._kind(k) == ObjectKind.OWNED
                                for k in driver.confirmed):
                    end = "finalized_by_unlock" if ran else "unlocked"
            if end:
                self._finish_action(action, driver, end)
                return
            retried, sends = True, [(sends[0][0], {})]

    def _unlock_action(self, action: dict):
        keys = [self.key_of(n) for n in action["keys"]]
        replacement = (self._build_tx(action["replacement"])
                       if action.get("replacement") else None)
        driver = yield from self._unlock(
            action, keys, action["gas"], replacement,
            authorized=action.get("authorized", True))
        self._finish_action(action, driver, driver.status)

    def _spend(self, action: dict):
        """The spend loop of the module docstring."""
        counter = action["counter"]
        oid = self._oid(counter)
        remaining = int(action.get("target", self._counter_limit(oid)))
        amounts = list(action["amounts"]) if "amounts" in action else None
        gas_pool = list(action["gas_pool"])
        unlock_gas_pool = list(action["unlock_gas_pool"])
        consolidations = 0
        reason = None
        version = spent = 0  # own fast-path debits at the counter version seen
        # a rider is lost if another spender's consolidation comes first, so
        # debits ride only on a counter that this client's key alone owns
        obj = self.seen_at(self.key_of(counter))
        alone = obj is not None and obj.owner == self._owner_for(self.name)
        while True:
            limit = self._counter_limit(oid)
            if remaining <= 0 or limit <= 0 or amounts == []:  # [] all spent
                break
            if self.key_of(counter).version != version:  # reissued since
                version, spent = self.key_of(counter).version, 0
            budget = initial_budget(limit, self.runner.scenario.params) - spent
            if amounts is not None:
                amount = int(amounts[0])
            else:  # greedy: the budget, or the rest once budgets round to zero
                amount = min(budget, remaining) or min(remaining, limit)
            if amount > limit:
                reason = "over_limit"
                break
            if not gas_pool:
                reason = "out_of_gas"
                break
            tx = self._build_tx({**action, "action": "debit", "amount": amount,
                                 "inputs": [counter], "gas": gas_pool[0]})
            keys, replacement, certs = [self.key_of(counter)], None, ()
            if amount > budget:  # only consensus can carry it
                gas_pool.pop(0)
                replacement = tx
            else:
                nxt = int(amounts[1]) if amounts and len(amounts) > 1 else 0
                ride = alone and bool(unlock_gas_pool) and (
                    remaining > amount if amounts is None
                    else budget - amount < nxt <= limit and len(gas_pool) > 1)
                driver, = yield [(FastPathDriver, tx,
                                  {"cert_to": ()} if ride else {})]
                if driver.status == "certified_abandoned":
                    certs = (driver.cert,)
                    if nxt:  # the next amount rides as the replacement
                        replacement = self._build_tx({
                            **action, "action": "debit", "amount": nxt,
                            "inputs": [counter], "gas": gas_pool.pop(1)})
                elif driver.status == "finalized":
                    self._update_view(driver.effect_certs)
                    remaining -= amount
                    spent += amount
                    if amounts is not None:
                        amounts.pop(0)
                        continue
                    if remaining <= 0:
                        continue
                    # greedy mode drained the budgets; consolidate right away
                else:
                    plan = self._recovery(tx, driver)
                    if plan is None:
                        reason = driver.status
                        break
                    if not plan:  # its overtaken certificate holds the gas
                        gas_pool.pop(0)
                        continue
                    keys, replacement = plan
            if not unlock_gas_pool:
                reason = "out_of_unlock_gas"
                break
            driver = yield from self._unlock(
                action, keys, unlock_gas_pool.pop(0), replacement, certs)
            ran = {c.effects.tx_digest for c in driver.effect_certs}
            if certs and tx.digest not in ran:
                gas_pool.pop(0)  # a rider that did not run counts nothing
            if driver.status == "superseded":
                continue  # another consolidation reissued the counter
            if driver.status != "unlocked":
                reason = f"consolidate_{driver.status}"
                break
            consolidations += 1
            for done in (tx if certs else None, replacement):
                if done is not None and done.digest in ran:
                    remaining -= done.params.amount
                    if amounts is not None:
                        amounts.remove(done.params.amount)
        self.emit("spend_done", counter=oid.hex(),
                  remaining=remaining, consolidations=consolidations,
                  **({"reason": reason} if reason else {}))
