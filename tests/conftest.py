"""Shared test helpers: a small world builder for objects, keys, evidence,
transactions, and seeded validator states."""

import pytest

from fastpath.authenticators import (
    AuthContext,
    Evidence,
    NonceStream,
    PublicKey,
    annotate,
    build_reveal,
    commit,
    find_path,
)
from fastpath.crypto import DEFAULT_SCHEME, user_keypair
from fastpath.encoding import digest
from fastpath.types import (
    CertSign,
    Certificate,
    CommitteeParams,
    CounterValue,
    IntValue,
    Object,
    ObjectKey,
    ObjectKind,
    Transaction,
    TxKind,
    TxParams,
    quorum,
)
from fastpath.validator import ValidatorState


def oid_of(name: str) -> bytes:
    return digest(b"test-obj:" + name.encode())


class World:
    """Genesis objects plus the bookkeeping needed to author evidence."""

    def __init__(self, params: CommitteeParams = CommitteeParams(4, 1)):
        self.params = params
        self.scheme = DEFAULT_SCHEME
        self.keys: dict[str, tuple[bytes, bytes]] = {}
        self.objects: dict[str, Object] = {}
        self.terms: dict[bytes, object] = {}
        self.nonce_seeds: dict[bytes, bytes | None] = {}

    def account(self, name: str) -> bytes:
        if name not in self.keys:
            self.keys[name] = user_keypair(name)
        return self.keys[name][1]

    def add_owned(self, name: str, owner: str, amount: int = 100,
                  term=None, hidden: bool = False) -> Object:
        pk = self.account(owner)
        term = term if term is not None else PublicKey(pk)
        seed = digest(b"nonce:" + name.encode()) if hidden else None
        stream = NonceStream(seed) if seed else None
        obj = Object(ObjectKey(oid_of(name), 0), ObjectKind.OWNED,
                     commit(term, stream), IntValue(amount))
        self.objects[name] = obj
        self.terms[obj.key.object_id] = term
        self.nonce_seeds[obj.key.object_id] = seed
        return obj

    def add_counter(self, name: str, owner: str, flavor: str,
                    limit: int = 0) -> Object:
        pk = self.account(owner)
        term = PublicKey(pk)
        obj = Object(ObjectKey(oid_of(name), 0), ObjectKind.COMMUTATIVE,
                     commit(term), CounterValue(flavor, limit))
        self.objects[name] = obj
        self.terms[obj.key.object_id] = term
        self.nonce_seeds[obj.key.object_id] = None
        return obj

    def add_shared(self, name: str, amount: int = 0) -> Object:
        obj = Object(ObjectKey(oid_of(name), 0), ObjectKind.SHARED, None,
                     IntValue(amount))
        self.objects[name] = obj
        return obj

    def add_read_only(self, name: str, data: bytes = b"ro") -> Object:
        obj = Object(ObjectKey(oid_of(name), 0), ObjectKind.READ_ONLY, None,
                     IntValue(0))
        self.objects[name] = obj
        return obj

    def key(self, name: str, version: int = 0) -> ObjectKey:
        return ObjectKey(self.objects[name].key.object_id, version)

    def state(self, vid: int = 0, **kwargs) -> ValidatorState:
        state = ValidatorState(vid, self.params, scheme=self.scheme, **kwargs)
        state.seed(self.objects.values())
        return state

    def states(self) -> list[ValidatorState]:
        return [self.state(vid) for vid in range(self.params.n)]

    def evidence(self, message: bytes, signers, oids) -> Evidence:
        keypairs = [self.keys[name] for name in signers]
        ctx = AuthContext(signers=frozenset(pk for _, pk in keypairs),
                          included_oids=frozenset(oids))
        reveals = []
        for oid in oids:
            term = self.terms.get(oid)
            if term is None:
                continue
            path = find_path(annotate(term), ctx)
            if path is None:
                continue
            seed = self.nonce_seeds.get(oid)
            stream = NonceStream(seed) if seed else None
            reveals.append((oid, build_reveal(term, path, stream), path))
        return Evidence.build(message, keypairs, reveals, self.scheme)

    def tx(self, kind: TxKind, inputs, gas, signers, epoch: int = 0,
           shared=(), **params) -> Transaction:
        keys = [self.key(n) if isinstance(n, str) else n for n in inputs]
        gas_key = self.key(gas) if isinstance(gas, str) else gas
        if gas_key not in keys:
            keys.append(gas_key)
        shared_ids = tuple(self.objects[n].key.object_id for n in shared)
        tx = Transaction(tuple(keys), shared_ids, kind, TxParams(**params),
                         gas_key, epoch)
        return tx.with_evidence(self.evidence(tx.digest, signers,
                                              sorted(tx.included_oids)))

    def transfer(self, coin, gas, signer: str, to: str, **kw) -> Transaction:
        return self.tx(TxKind.TRANSFER, [coin], gas, [signer],
                       new_owner=commit(PublicKey(self.account(to))), **kw)

    def cert(self, tx: Transaction, signers=None) -> Certificate:
        if signers is None:
            signers = range(quorum(self.params))
        signs = tuple(CertSign.make(tx, vid, self.scheme) for vid in signers)
        return Certificate(tx, signs)


@pytest.fixture
def world() -> World:
    w = World()
    w.add_owned("coin", "alice", 100)
    w.add_owned("gas", "alice", 50)
    w.add_owned("gas2", "alice", 50)
    w.add_owned("bcoin", "bob", 30)
    w.add_owned("bgas", "bob", 50)
    return w
