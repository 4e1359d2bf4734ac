"""Authorization policies for collectively owned objects.

A policy is a tree of terms: public-key and object-inclusion leaves, local
time windows, external-event leaves, and weighted-threshold / all / any
branches. An object stores only a commitment (the Merkle root over the
optionally nonce-blinded tree), so a complex policy is indistinguishable
from a plain single-owner address until used. A transaction proves
authorization by revealing just the branches a chosen path needs, keeping
the rest of the policy hidden.

One tree shape serves commits and reveals: a commitment is the root of the
fully revealed tree, and a reveal hides the branches a path does not need.

Node hashing rules (fixed so commitments are reproducible):

    leaf   digest = sha256(b"authleaf:" + label + payload + nonce_part)
    branch digest = sha256(b"authnode:" + label + params
                           + u32(count) + child digests + nonce_part)

where `label` is the single kind byte, `payload`/`params` are the encodings
below, and `nonce_part` is 0x00 for no nonce or 0x01 plus the 32-byte nonce.

    PublicKey       label 0x01  payload = 32-byte key
    IncludesObject  label 0x02  payload = 32-byte object id
    BeforeTime      label 0x03  payload = u64 tick
    AfterTime       label 0x04  payload = u64 tick
    EventObserved   label 0x05  payload = str(chain) + str(event)
    Threshold       label 0x06  params  = u64 need + u32(count) + u64 weights
    AllOf           label 0x07  params  = empty
    AnyOf           label 0x08  params  = empty

Terms are named tuples whose `label` is a class attribute, so they compare
as plain tuples: `AllOf((a, b)) == AnyOf((a, b))`. No map may be keyed by
a term across kinds.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Union

from .encoding import (
    digest,
    enc_bytes,
    enc_opt,
    enc_seq,
    enc_str,
    enc_u32,
    enc_u64,
)

MAX_DEPTH = 32

LABEL_PK = 0x01
LABEL_OID = 0x02
LABEL_BEFORE = 0x03
LABEL_AFTER = 0x04
LABEL_EVENT = 0x05
LABEL_THRESHOLD = 0x06
LABEL_ALL = 0x07
LABEL_ANY = 0x08

_LEAF_LABELS = {LABEL_PK, LABEL_OID, LABEL_BEFORE, LABEL_AFTER, LABEL_EVENT}


class PathError(Exception):
    """The path does not fit the shape of the term it claims to satisfy."""


class RevealError(Exception):
    """The reveal is structurally unusable (a needed branch is hidden)."""


class TermDepthError(Exception):
    """Term tree exceeds the supported depth bound."""


# --- terms ------------------------------------------------------------------

class PublicKey(NamedTuple):
    pk: bytes
    label = LABEL_PK


class IncludesObject(NamedTuple):
    oid: bytes
    label = LABEL_OID


class BeforeTime(NamedTuple):
    tick: int
    label = LABEL_BEFORE


class AfterTime(NamedTuple):
    tick: int
    label = LABEL_AFTER


class EventObserved(NamedTuple):
    chain: str
    event: str
    label = LABEL_EVENT


class _Threshold(NamedTuple):
    need: int
    weights: tuple[int, ...]
    children: tuple["AuthTerm", ...]


class Threshold(_Threshold):
    __slots__ = ()
    label = LABEL_THRESHOLD

    def __new__(cls, need: int, weights: tuple[int, ...],
                children: tuple["AuthTerm", ...]):
        if need < 1:
            raise ValueError("threshold must be at least 1")
        if len(weights) != len(children) or not children:
            raise ValueError("threshold needs one weight per child")
        if any(w < 1 for w in weights):
            raise ValueError("threshold weights must be positive")
        return super().__new__(cls, need, weights, children)

    @classmethod
    def of(cls, need: int, *branches: tuple[int, "AuthTerm"]) -> "Threshold":
        weights = tuple(w for w, _ in branches)
        children = tuple(t for _, t in branches)
        return cls(need, weights, children)


class _Children(NamedTuple):
    children: tuple["AuthTerm", ...]


class _Branch(_Children):
    """An all-of or any-of term: at least one child."""

    __slots__ = ()

    def __new__(cls, children: tuple["AuthTerm", ...]):
        if not children:
            raise ValueError(f"{cls.__name__} needs at least one child")
        return super().__new__(cls, children)


class AllOf(_Branch):
    __slots__ = ()
    label = LABEL_ALL


class AnyOf(_Branch):
    __slots__ = ()
    label = LABEL_ANY


AuthTerm = Union[
    PublicKey, IncludesObject, BeforeTime, AfterTime, EventObserved,
    Threshold, AllOf, AnyOf,
]


# --- paths ------------------------------------------------------------------

class LeafPath(NamedTuple):
    """A leaf's path. An empty tuple is false, so test paths with `is None`."""


LEAF = LeafPath()


class AllPath(NamedTuple):
    children: tuple["AuthPath", ...]


class AnyPath(NamedTuple):
    index: int
    child: "AuthPath"


class ThresholdPath(NamedTuple):
    selected: tuple[tuple[int, "AuthPath"], ...]


AuthPath = Union[LeafPath, AllPath, AnyPath, ThresholdPath]


# --- context ----------------------------------------------------------------

def no_events(chain: str, event: str) -> bool:
    return False


class AuthContext(NamedTuple):
    """What a validator knows when judging a policy.

    `local_time` is the receiving validator's own clock; validators with
    skewed clocks legitimately disagree about time terms.
    """

    signers: frozenset[bytes] = frozenset()
    included_oids: frozenset[bytes] = frozenset()
    local_time: int = 0
    event_oracle: Callable[[str, str], bool] = no_events


def event_facts(pairs) -> Callable[[str, str], bool]:
    """Oracle backed by a fixed fact set of (chain, event) pairs."""
    facts = frozenset(tuple(p) for p in pairs)
    return lambda chain, event: (chain, event) in facts


# --- shared node plumbing ----------------------------------------------------

def _fields_bytes(label: int, fields: tuple) -> bytes:
    if label == LABEL_PK or label == LABEL_OID:
        return fields[0]
    if label == LABEL_BEFORE or label == LABEL_AFTER:
        return enc_u64(fields[0])
    if label == LABEL_EVENT:
        return enc_str(fields[0]) + enc_str(fields[1])
    if label == LABEL_THRESHOLD:
        need, weights = fields
        return enc_u64(need) + enc_seq(enc_u64(w) for w in weights)
    return b""


def _term_fields(term: AuthTerm) -> tuple:
    """What a node hashes besides its children: every field of a leaf, and
    every field but the last, `children`, of a branch."""
    return tuple(term) if term.label in _LEAF_LABELS else term[:-1]


def _term_children(term: AuthTerm) -> tuple:
    return () if term.label in _LEAF_LABELS else term.children


def _node_digest(label: int, fields: tuple, child_digests: list[bytes],
                 nonce: bytes | None) -> bytes:
    if label in _LEAF_LABELS:
        return digest(b"authleaf:" + bytes([label]) + _fields_bytes(label, fields)
                      + enc_opt(nonce))
    return digest(b"authnode:" + bytes([label]) + _fields_bytes(label, fields)
                  + enc_seq(child_digests) + enc_opt(nonce))


def check_depth(term: AuthTerm, depth: int = 1) -> None:
    if depth > MAX_DEPTH:
        raise TermDepthError(f"term deeper than {MAX_DEPTH}")
    for child in _term_children(term):
        check_depth(child, depth + 1)


# --- evaluation --------------------------------------------------------------

def _leaf_true(label: int, fields: tuple, ctx: AuthContext) -> bool:
    if label == LABEL_PK:
        return fields[0] in ctx.signers
    if label == LABEL_OID:
        return fields[0] in ctx.included_oids
    if label == LABEL_BEFORE:
        return ctx.local_time < fields[0]
    if label == LABEL_AFTER:
        return ctx.local_time > fields[0]
    return ctx.event_oracle(fields[0], fields[1])


def _selected(node: Revealed, path: AuthPath) -> tuple:
    """The (child index, child path) pairs `path` selects at branch `node`,
    in path order; PathError when the path does not fit the branch."""
    count = len(node.children)
    if node.kind == LABEL_ALL:
        if not isinstance(path, AllPath) or len(path.children) != count:
            raise PathError("AllOf path must cover every child")
        return tuple(enumerate(path.children))
    if node.kind == LABEL_ANY:
        if not isinstance(path, AnyPath):
            raise PathError("AnyOf term needs a selection path")
        if not 0 <= path.index < count:
            raise PathError("AnyOf selection out of range")
        return ((path.index, path.child),)
    if not isinstance(path, ThresholdPath):
        raise PathError("Threshold term needs a selection path")
    indices = [index for index, _ in path.selected]
    if len(set(indices)) != len(indices) or not all(
            0 <= index < count for index in indices):
        raise PathError("Threshold selection out of range or duplicated")
    return path.selected


def _eval(node, path: AuthPath, ctx: AuthContext, depth: int) -> bool:
    if depth > MAX_DEPTH:
        raise TermDepthError(f"term deeper than {MAX_DEPTH}")
    if isinstance(node, Hidden):
        raise RevealError("path descends into a hidden branch")
    if node.kind in _LEAF_LABELS:
        if not isinstance(path, LeafPath):
            raise PathError("leaf term given a branch path")
        return _leaf_true(node.kind, node.fields, ctx)
    picked = _selected(node, path)
    if node.kind != LABEL_THRESHOLD:
        return all(_eval(node.children[i], sub, ctx, depth + 1)
                   for i, sub in picked)
    # threshold: sum the weights of selected children that hold
    need, weights = node.fields
    return sum(weights[i] for i, sub in picked
               if _eval(node.children[i], sub, ctx, depth + 1)) >= need


def find_path(term: AuthTerm, ctx: AuthContext) -> AuthPath | None:
    """Prover-side search for a satisfying path; None if nothing satisfies.

    Selections are made in child order, and threshold selection stops as
    soon as enough weight accumulates, keeping the eventual reveal small.
    """
    label, fields, children = term.label, _term_fields(term), _term_children(term)
    if label in _LEAF_LABELS:
        return LEAF if _leaf_true(label, fields, ctx) else None
    if label == LABEL_ALL:
        subs = []
        for child in children:
            sub = find_path(child, ctx)
            if sub is None:
                return None
            subs.append(sub)
        return AllPath(tuple(subs))
    if label == LABEL_ANY:
        for i, child in enumerate(children):
            sub = find_path(child, ctx)
            if sub is not None:
                return AnyPath(i, sub)
        return None
    need, weights = fields
    picked = []
    total = 0
    for i, child in enumerate(children):
        if total >= need:
            break
        sub = find_path(child, ctx)
        if sub is not None:
            picked.append((i, sub))
            total += weights[i]
    if total >= need:
        return ThresholdPath(tuple(picked))
    return None


# --- commitments -------------------------------------------------------------

class NonceStream:
    """Deterministic stream of per-node blinding nonces."""

    def __init__(self, seed: bytes):
        self._seed = seed
        self._counter = 0

    def take(self) -> bytes:
        nonce = digest(b"nonce:" + self._seed + enc_u64(self._counter))
        self._counter += 1
        return nonce


class Hidden(NamedTuple):
    node_digest: bytes


class _Revealed(NamedTuple):
    kind: int
    fields: tuple
    nonce: bytes | None
    children: tuple["RevealNode", ...] = ()


class Revealed(_Revealed):
    """A revealed node; `reveal_root` stores its root in the `__dict__`."""


RevealNode = Union[Revealed, Hidden]


def annotate(term: AuthTerm, stream: NonceStream | None = None,
             depth: int = 1) -> Revealed:
    """The term as a fully revealed tree, with nonces drawn in pre-order;
    its root is the commitment, and `reveal_from` cuts reveals from it."""
    if depth > MAX_DEPTH:
        raise TermDepthError(f"term deeper than {MAX_DEPTH}")
    nonce = stream.take() if stream is not None else None
    return Revealed(term.label, _term_fields(term), nonce,
                    tuple(annotate(c, stream, depth + 1)
                          for c in _term_children(term)))


def commit(term: AuthTerm, nonce_source: NonceStream | None = None) -> bytes:
    """Merkle root over the (optionally nonce-blinded) term tree.

    Nonces are drawn from the stream in pre-order, one per node, so the
    owner can later regenerate them for reveals. Without nonces the
    commitment of a bare PublicKey leaf doubles as a plain address.
    """
    return reveal_root(annotate(term, nonce_source))


# --- reveals ------------------------------------------------------------------

def build_reveal(term: AuthTerm, path: AuthPath,
                 nonce_source: NonceStream | None = None) -> RevealNode:
    """Reveal exactly the branches `path` needs; everything else stays a digest."""
    return reveal_from(annotate(term, nonce_source), path)


def reveal_from(node: Revealed, path: AuthPath) -> RevealNode:
    """The reveal `path` needs, cut from the annotated tree `node`; its
    leaves are the tree's own nodes, so their roots are hashed once."""
    if node.kind in _LEAF_LABELS:
        if not isinstance(path, LeafPath):
            raise PathError("leaf term given a branch path")
        return node
    chosen = dict(_selected(node, path))
    kids = tuple(
        reveal_from(c, chosen[i]) if i in chosen else Hidden(reveal_root(c))
        for i, c in enumerate(node.children))
    return Revealed(node.kind, node.fields, node.nonce, kids)


def reveal_root(node: RevealNode) -> bytes:
    """The Merkle root the reveal hashes back to.

    A revealed node is frozen, so its root is computed once and stored on
    the instance; every validator checking the same evidence shares one
    hashing. A copy with any field changed is a new instance, hashed afresh.
    """
    if isinstance(node, Hidden):
        return node.node_digest
    root = node.__dict__.get("_root")
    if root is None:
        root = node.__dict__["_root"] = _node_digest(
            node.kind, node.fields, [reveal_root(c) for c in node.children],
            node.nonce)
    return root


def verify_reveal(commitment: bytes, reveal: RevealNode, path: AuthPath,
                  ctx: AuthContext) -> bool:
    """True iff the reveal hashes back to the commitment and the path holds.

    A digest mismatch is an ordinary False; a reveal whose shape cannot be
    evaluated (path leads into a hidden branch) raises RevealError, and a
    path that does not fit the revealed term raises PathError, so callers
    can tell bad evidence from a false policy.
    """
    if reveal_root(reveal) != commitment:
        return False
    return _eval(reveal, path, ctx, 1)


# --- wire encodings -----------------------------------------------------------

def encode_path(path: AuthPath) -> bytes:
    if isinstance(path, LeafPath):
        return b"\x00"
    if isinstance(path, AllPath):
        return b"\x01" + enc_seq(encode_path(c) for c in path.children)
    if isinstance(path, AnyPath):
        return b"\x02" + enc_u32(path.index) + encode_path(path.child)
    return b"\x03" + enc_seq(enc_u32(i) + encode_path(p) for i, p in path.selected)


def encode_reveal(node: RevealNode) -> bytes:
    if isinstance(node, Hidden):
        return b"\x00" + node.node_digest
    body = _fields_bytes(node.kind, node.fields)
    kids = enc_seq(encode_reveal(c) for c in node.children)
    return b"\x01" + bytes([node.kind]) + enc_bytes(body) + enc_opt(node.nonce) + kids


# --- transaction evidence ------------------------------------------------------

class _Evidence(NamedTuple):
    signatures: tuple[tuple[bytes, bytes], ...] = ()
    reveals: tuple[tuple[bytes, RevealNode, AuthPath], ...] = ()


class Evidence(_Evidence):
    """Signatures plus per-object reveals carried alongside a transaction.

    Evidence is conceptually part of the signature layer: it is excluded
    from the digests that get countersigned, so the authorizing logic never
    leaks into the transaction identity.
    """

    def canonical_bytes(self) -> bytes:
        sigs = enc_seq(enc_bytes(pk) + enc_bytes(sig) for pk, sig in self.signatures)
        revs = enc_seq(
            enc_bytes(oid) + enc_bytes(encode_reveal(rev)) + enc_bytes(encode_path(p))
            for oid, rev, p in self.reveals)
        return sigs + revs

    def signer_set(self, message: bytes, scheme) -> frozenset[bytes]:
        """Keys whose signature over `message` verifies under `scheme`.

        Computed once per (message, scheme) and stored on this evidence, so
        every validator checking the same evidence shares one verification.
        """
        sets = self.__dict__.setdefault("_signer_sets", {})
        signers = sets.get((message, scheme))
        if signers is None:
            signers = sets[(message, scheme)] = frozenset(
                pk for pk, sig in self.signatures
                if scheme.verify(pk, message, sig))
        return signers

    def for_object(self, oid: bytes):
        for entry_oid, rev, path in self.reveals:
            if entry_oid == oid:
                return rev, path
        return None

    @staticmethod
    def build(message: bytes, signer_keys, reveals, scheme) -> "Evidence":
        sigs = tuple(sorted(
            (pk, scheme.sign(sk, message)) for sk, pk in signer_keys))
        revs = tuple(sorted(reveals, key=lambda r: r[0]))
        return Evidence(sigs, revs)
