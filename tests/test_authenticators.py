import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from fastpath.authenticators import (
    LEAF,
    AfterTime,
    AllOf,
    AllPath,
    AnyOf,
    AnyPath,
    AuthContext,
    BeforeTime,
    EventObserved,
    Hidden,
    IncludesObject,
    LABEL_PK,
    NonceStream,
    PathError,
    PublicKey,
    Revealed,
    Threshold,
    ThresholdPath,
    TermDepthError,
    annotate,
    build_reveal,
    commit,
    encode_reveal,
    event_facts,
    find_path,
    reveal_from,
    reveal_root,
    verify_reveal,
)
from fastpath.crypto import user_keypair

A = user_keypair("a")[1]
B = user_keypair("b")[1]
C = user_keypair("c")[1]


def ctx(signers=(), oids=(), time=0, events=()):
    return AuthContext(signers=frozenset(signers),
                       included_oids=frozenset(oids), local_time=time,
                       event_oracle=event_facts(events))


def evaluate(term, path, context, reveal_path=None):
    """Judge `path` against `term` the way a validator judges evidence: a
    reveal built for `reveal_path` (default: `path`) is checked against the
    term's commitment."""
    reveal = build_reveal(term, path if reveal_path is None else reveal_path)
    return verify_reveal(commit(term), reveal, path, context)


def oracle_sat(term, context):
    """Brute-force truth evaluator, independent of the path machinery."""
    if isinstance(term, PublicKey):
        return term.pk in context.signers
    if isinstance(term, IncludesObject):
        return term.oid in context.included_oids
    if isinstance(term, BeforeTime):
        return context.local_time < term.tick
    if isinstance(term, AfterTime):
        return context.local_time > term.tick
    if isinstance(term, EventObserved):
        return context.event_oracle(term.chain, term.event)
    if isinstance(term, Threshold):
        total = sum(w for w, child in zip(term.weights, term.children)
                    if oracle_sat(child, context))
        return total >= term.need
    if isinstance(term, AllOf):
        return all(oracle_sat(c, context) for c in term.children)
    return any(oracle_sat(c, context) for c in term.children)


# --- evaluation ---------------------------------------------------------------

def test_public_key_leaf():
    assert evaluate(PublicKey(A), LEAF, ctx(signers=[A]))
    assert not evaluate(PublicKey(A), LEAF, ctx(signers=[B]))


def test_threshold_weights():
    term = Threshold.of(2, (1, PublicKey(A)), (1, PublicKey(B)),
                        (1, PublicKey(C)))
    path = ThresholdPath(((0, LEAF), (2, LEAF)))
    assert evaluate(term, path, ctx(signers=[A, C]))
    assert not evaluate(term, path, ctx(signers=[A]))


def test_all_with_failing_time_clause():
    term = AllOf((PublicKey(A), BeforeTime(10)))
    path = AllPath((LEAF, LEAF))
    assert not evaluate(term, path, ctx(signers=[A], time=20))
    assert evaluate(term, path, ctx(signers=[A], time=5))


def test_time_boundaries_are_strict():
    assert not evaluate(BeforeTime(10), LEAF, ctx(time=10))
    assert not evaluate(AfterTime(10), LEAF, ctx(time=10))
    assert evaluate(AfterTime(10), LEAF, ctx(time=11))


def test_any_selection_against_truth_table():
    term = AnyOf((PublicKey(A), PublicKey(B)))
    for signers in ({A}, {B}, {A, B}, set()):
        context = ctx(signers=signers)
        for index, child in enumerate(term.children):
            got = evaluate(term, AnyPath(index, LEAF), context)
            assert got == oracle_sat(child, context)
        findable = find_path(term, context)
        assert (findable is not None) == oracle_sat(term, context)


def test_included_object_and_event_leaves():
    oid = b"\x11" * 32
    assert evaluate(IncludesObject(oid), LEAF, ctx(oids=[oid]))
    assert not evaluate(IncludesObject(oid), LEAF, ctx())
    term = EventObserved("side", "funded")
    assert evaluate(term, LEAF, ctx(events=[("side", "funded")]))
    assert not evaluate(term, LEAF, ctx(events=[("side", "other")]))


def test_malformed_path_is_an_error_not_false():
    # each reveal is built for a well-formed path, so the malformed path is
    # caught where evidence is checked, by verify_reveal
    term = AnyOf((PublicKey(A), PublicKey(B)))
    with pytest.raises(PathError):
        evaluate(term, AnyPath(5, LEAF), ctx(signers=[A]),
                 reveal_path=AnyPath(0, LEAF))
    with pytest.raises(PathError):
        evaluate(term, LEAF, ctx(signers=[A]), reveal_path=AnyPath(0, LEAF))
    with pytest.raises(PathError):
        evaluate(PublicKey(A), AnyPath(0, LEAF), ctx(signers=[A]),
                 reveal_path=LEAF)
    with pytest.raises(PathError):
        evaluate(AllOf((PublicKey(A),)), AllPath((LEAF, LEAF)), ctx(),
                 reveal_path=AllPath((LEAF,)))
    with pytest.raises(PathError):
        evaluate(Threshold.of(1, (1, PublicKey(A))),
                 ThresholdPath(((0, LEAF), (0, LEAF))), ctx(signers=[A]),
                 reveal_path=ThresholdPath(((0, LEAF),)))
    # the prover side refuses to reveal along a path that does not fit
    with pytest.raises(PathError):
        build_reveal(term, AnyPath(5, LEAF))


@pytest.mark.parametrize("build", [
    lambda: Threshold.of(0, (1, PublicKey(A))),
    lambda: Threshold(1, (1, 1), (PublicKey(A),)),
    lambda: Threshold.of(1),
    lambda: Threshold.of(1, (0, PublicKey(A))),
    lambda: AllOf(()),
    lambda: AnyOf(()),
], ids=["need 0", "weights and children differ", "no children",
        "weight 0", "empty all", "empty any"])
def test_malformed_branch_is_refused(build):
    with pytest.raises(ValueError):
        build()


def test_depth_bound_enforced():
    term = PublicKey(A)
    for _ in range(40):
        term = AllOf((term,))
    with pytest.raises(TermDepthError):
        commit(term)


# --- commitments ----------------------------------------------------------------

def test_commit_deterministic():
    term = Threshold.of(2, (1, PublicKey(A)), (2, PublicKey(B)))
    assert commit(term) == commit(term)
    assert commit(term, NonceStream(b"s")) == commit(term, NonceStream(b"s"))


def test_commit_nonce_binding():
    term = PublicKey(A)
    assert commit(term, NonceStream(b"x")) != commit(term, NonceStream(b"y"))
    assert commit(term, NonceStream(b"x")) != commit(term)


def test_single_leaf_commitment_matches_documented_rule():
    # leaf digest = sha256(b"authleaf:" + label + payload + nonce_part)
    expected = hashlib.sha256(b"authleaf:" + bytes([0x01]) + A + b"\x00").digest()
    assert commit(PublicKey(A)) == expected


def test_distinct_terms_distinct_roots():
    assert commit(PublicKey(A)) != commit(PublicKey(B))
    assert commit(AnyOf((PublicKey(A), PublicKey(B)))) != \
        commit(AllOf((PublicKey(A), PublicKey(B))))
    assert commit(Threshold.of(1, (1, PublicKey(A)))) != \
        commit(Threshold.of(1, (2, PublicKey(A))))


# --- reveals ----------------------------------------------------------------------

def test_full_reveal_of_satisfied_any():
    term = AnyOf((PublicKey(A), PublicKey(B)))
    root = commit(term)
    path = AnyPath(0, LEAF)
    reveal = build_reveal(term, path)
    assert verify_reveal(root, reveal, path, ctx(signers=[A]))
    assert not verify_reveal(root, reveal, path, ctx(signers=[B]))


def test_reveal_with_tampered_sibling_fails():
    term = AnyOf((PublicKey(A), PublicKey(B)))
    root = commit(term)
    path = AnyPath(0, LEAF)
    reveal = build_reveal(term, path)
    tampered = Revealed(reveal.kind, reveal.fields, reveal.nonce,
                        (reveal.children[0], Hidden(b"\x00" * 32)))
    assert not verify_reveal(root, tampered, path, ctx(signers=[A]))


def test_unrevealed_branch_stays_opaque():
    term = AnyOf((PublicKey(A), PublicKey(B)))
    seed = NonceStream(b"hid")
    root = commit(term, NonceStream(b"hid"))
    path = AnyPath(0, LEAF)
    reveal = build_reveal(term, path, seed)
    assert isinstance(reveal.children[1], Hidden)
    wire = encode_reveal(reveal)
    assert A in wire and B not in wire

    def leaf_payloads(node):
        if isinstance(node, Hidden):
            return []
        out = [node.fields] if not node.children else []
        for child in node.children:
            out.extend(leaf_payloads(child))
        return out

    payloads = leaf_payloads(reveal)
    assert (A,) in payloads
    assert all(B not in fields for fields in payloads)
    assert verify_reveal(root, reveal, path, ctx(signers=[A]))


def test_memoized_root_does_not_follow_a_changed_copy():
    term = AnyOf((PublicKey(A), PublicKey(B)))
    root = commit(term)
    path = AnyPath(0, LEAF)
    reveal = build_reveal(term, path)
    assert verify_reveal(root, reveal, path, ctx(signers=[A]))
    assert reveal_root(reveal) == root  # now stored on the instance
    swapped = reveal._replace(children=(Revealed(LABEL_PK, (C,), None),
                                        reveal.children[1]))
    assert "_root" not in swapped.__dict__
    assert not verify_reveal(root, swapped, path, ctx(signers=[C]))
    leaf = reveal.children[0]
    assert reveal_root(leaf) == commit(PublicKey(A))
    changed = leaf._replace(fields=(C,))
    assert "_root" in leaf.__dict__ and "_root" not in changed.__dict__
    assert not verify_reveal(commit(PublicKey(A)), changed, LEAF,
                             ctx(signers=[C]))


def test_hidden_commitment_looks_like_plain_address():
    plain = commit(PublicKey(A))
    hidden = commit(Threshold.of(1, (1, PublicKey(A)), (1, PublicKey(B))),
                    NonceStream(b"n"))
    assert len(plain) == len(hidden) == 32


def test_single_signer_covers_repeated_key_leaves():
    term = AllOf((PublicKey(A), PublicKey(A), PublicKey(A)))
    context = ctx(signers=[A])
    path = find_path(term, context)
    assert path is not None
    assert evaluate(term, path, context)


# --- property tests -----------------------------------------------------------------

def _term_strategy(time_free=True, depth=3):
    leaves = [st.sampled_from([PublicKey(A), PublicKey(B), PublicKey(C)]),
              st.builds(IncludesObject, st.sampled_from([b"\x01" * 32,
                                                         b"\x02" * 32]))]
    if not time_free:
        leaves.append(st.builds(BeforeTime, st.integers(0, 50)))
        leaves.append(st.builds(AfterTime, st.integers(0, 50)))
    leaf = st.one_of(*leaves)

    def extend(children):
        branches = st.one_of(
            st.builds(lambda cs: AllOf(tuple(cs)),
                      st.lists(children, min_size=1, max_size=3)),
            st.builds(lambda cs: AnyOf(tuple(cs)),
                      st.lists(children, min_size=1, max_size=3)),
            st.builds(lambda pairs: Threshold.of(
                max(1, sum(w for w, _ in pairs) // 2), *pairs),
                st.lists(st.tuples(st.integers(1, 3), children),
                         min_size=1, max_size=3)),
        )
        return branches

    return st.recursive(leaf, extend, max_leaves=8)


def _ctx_strategy():
    return st.builds(
        lambda signers, oids, time: ctx(signers=signers, oids=oids, time=time),
        st.sets(st.sampled_from([A, B, C])),
        st.sets(st.sampled_from([b"\x01" * 32, b"\x02" * 32])),
        st.integers(0, 100))


@settings(max_examples=120, deadline=None)
@given(_term_strategy(), _ctx_strategy(), st.sets(st.sampled_from([A, B, C])))
def test_monotone_in_signers(term, context, extra):
    path = find_path(term, context)
    if path is None:
        return
    assert evaluate(term, path, context)
    grown = AuthContext(signers=context.signers | frozenset(extra),
                        included_oids=context.included_oids,
                        local_time=context.local_time,
                        event_oracle=context.event_oracle)
    assert evaluate(term, path, grown)


@settings(max_examples=120, deadline=None)
@given(_term_strategy(time_free=False, depth=5), _ctx_strategy())
def test_reveal_soundness(term, context):
    path = find_path(term, context)
    if path is None:
        return
    root = commit(term, NonceStream(b"prop"))
    reveal = build_reveal(term, path, NonceStream(b"prop"))
    assert verify_reveal(root, reveal, path, context)
    assert evaluate(term, path, context)


@settings(max_examples=120, deadline=None)
@given(_term_strategy(time_free=False), _ctx_strategy())
def test_find_path_agrees_with_truth_table(term, context):
    path = find_path(term, context)
    assert (path is not None) == oracle_sat(term, context)
    if path is not None:
        assert evaluate(term, path, context)


def _owner_terms():
    """Owner terms as scenarios write them: keys under any, all and
    threshold branches."""
    def extend(children):
        kids = st.lists(children, min_size=1, max_size=3)
        return st.one_of(
            st.builds(lambda cs: AnyOf(tuple(cs)), kids),
            st.builds(lambda cs: AllOf(tuple(cs)), kids),
            st.builds(lambda pairs: Threshold.of(
                max(1, sum(w for w, _ in pairs) // 2), *pairs),
                st.lists(st.tuples(st.integers(1, 3), children),
                         min_size=1, max_size=3)))

    keys = st.sampled_from([PublicKey(A), PublicKey(B), PublicKey(C)])
    return st.recursive(keys, extend, max_leaves=6)


@settings(max_examples=100, deadline=None)
@given(_owner_terms(), st.one_of(st.none(), st.binary(min_size=1, max_size=8)),
       st.lists(st.sets(st.sampled_from([A, B, C]), min_size=1), min_size=1,
                max_size=3))
def test_a_reveal_cut_from_a_kept_tree_is_the_one_built_afresh(
        term, seed, signer_sets):
    def stream():
        return NonceStream(seed) if seed is not None else None

    tree = annotate(term, stream())
    root = commit(term, stream())
    assert reveal_root(tree) == root
    for signers in signer_sets:  # one tree serves every reveal, in any order
        context = ctx(signers=signers)
        path = find_path(term, context)
        if path is None:
            continue
        reveal = reveal_from(tree, path)
        assert reveal == build_reveal(term, path, stream())
        assert verify_reveal(root, reveal, path, context)
    assert tree == annotate(term, stream())


def test_threshold_ignores_unselected_children_even_if_true():
    term = Threshold.of(2, (2, PublicKey(B)), (1, PublicKey(A)))
    # child 0 would satisfy the threshold alone, but only child 1 is claimed
    path = ThresholdPath(((1, LEAF),))
    assert not evaluate(term, path, ctx(signers=[A, B]))
    assert evaluate(term, ThresholdPath(((0, LEAF),)), ctx(signers=[A, B]))
