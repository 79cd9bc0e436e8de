"""Moves, sequences and the exact distance.

The edit outcomes of every move kind and the sequence rewrites on seeded
walks are pinned to tests/golden/move_outcomes.json, and the fresh-cache
dtc weight and witness on small exhaustive and sampled corpora to
tests/golden/dtc_corpora.json. Regenerate both with
``PYTHONPATH=src python tests/test_snpr.py`` only when a change of these
outputs is intended. The dtc weight and witness of every distance pair in
bench/expected.json are pinned to tests/golden/dtc_distance_pool.json, and
that of the farthest seeded pairs dtc answers within 3,000 expansions to
tests/golden/dtc_reach_pairs.txt, which the same command rewrites.
"""

import ast
import collections
import hashlib
import heapq
import json
import pathlib
import random
import re
import sys
import tracemalloc

import pytest

from snprlab.errors import (BudgetExceededError, ContractViolationError,
                            InvalidNetworkError, MoveError, ParseError)
from snprlab.netcore import (Edge, Network, _Keyer, _below, _edit, _mu_key,
                             _plus_tails, canonical_signature,
                             enumerate_tree_child, is_tree_child, isomorphic,
                             isomorphism_map, network_violations, random_network,
                             random_tree_child, validate)
from snprlab import snpr
from snprlab.snpr import (REVERSE_KIND, WEIGHTS, Move, MoveSequence, NeighborCache,
                          apply_move, apply_move_detailed, dtc,
                          enforce_global_assumption, enumerate_moves, moves_from_json,
                          moves_to_json, normalize_sequence, sequence_weight,
                          _bidirectional, _chain, _find_move_to, _key, _keyed, _replay)
from snprlab.agreement import _leaf_tail_moves, mtc
from snprlab.phyloio import parse_enewick, write_enewick, write_pnd

MOVE_GOLDEN = pathlib.Path(__file__).parent / "golden" / "move_outcomes.json"
DISTANCE_GOLDEN = pathlib.Path(__file__).parent / "golden" / "dtc_distance_pool.json"
CORPUS_GOLDEN = pathlib.Path(__file__).parent / "golden" / "dtc_corpora.json"
REACH_GOLDEN = pathlib.Path(__file__).parent / "golden" / "dtc_reach_pairs.txt"
BENCH_EXPECTED = pathlib.Path(__file__).parent.parent / "bench" / "expected.json"


@pytest.fixture
def leaf_a():
    return validate([(0, 1)], {1: "a"})


# --- apply_move -------------------------------------------------------------

def test_minus_choices_on_reticulated_triple(retic_ab_c, triple_a_bc, triple_ab_c):
    # deleting either reticulation edge collapses to one of two triples
    out1 = apply_move(retic_ab_c, Move("minus", Edge(2, 6)))
    assert isomorphic(out1, triple_a_bc)
    out2 = apply_move(retic_ab_c, Move("minus", Edge(3, 6)))
    assert isomorphic(out2, triple_ab_c)
    assert out1.reticulation_count == 0


def test_minus_rejects_non_reticulation_edge(retic_ab_c):
    with pytest.raises(MoveError):
        apply_move(retic_ab_c, Move("minus", Edge(2, 4)))


def test_minus_rejects_reticulation_tail(stack_sibling_host):
    # (4,5) heads a reticulation but its tail is one too
    with pytest.raises(MoveError):
        apply_move(stack_sibling_host, Move("minus", Edge(4, 5)))


def test_move_edge_must_exist(triple_ab_c):
    with pytest.raises(MoveError):
        apply_move(triple_ab_c, Move("minus", Edge(9, 9)))


def test_pm_relocates_leaf(triple_ab_c, triple_ac_b):
    # detach b, regraft above the a-c cherry that remains
    out = apply_move(triple_ab_c, Move("pm", Edge(2, 4), Edge(0, 1)))
    assert isomorphic(out, triple_ac_b)


def test_pm_rejects_descendant_target(triple_ab_c):
    with pytest.raises(MoveError):
        apply_move(triple_ab_c, Move("pm", Edge(1, 2), Edge(2, 3)))


def test_pm_target_may_name_merged_edge(triple_ab_c):
    # (2,3) survives suppression of 2 only as part of the merged edge
    out = apply_move(triple_ab_c, Move("pm", Edge(2, 4), Edge(2, 3)))
    assert isomorphic(out, triple_ab_c)


def test_pm_rejects_root_source(triple_ab_c):
    with pytest.raises(MoveError):
        apply_move(triple_ab_c, Move("pm", Edge(0, 1), Edge(2, 3)))


def test_plus_adds_reticulation(triple_ab_c):
    out = apply_move(triple_ab_c, Move("plus", Edge(2, 3), Edge(1, 5)))
    assert out.reticulation_count == 1
    assert len(out.edges) == len(triple_ab_c.edges) + 3
    assert is_tree_child(out)
    assert out.taxa == triple_ab_c.taxa


def test_plus_on_same_edge_makes_parallel_pair(triple_ab_c):
    out = apply_move(triple_ab_c, Move("plus", Edge(2, 3), Edge(2, 3)))
    assert out.reticulation_count == 1
    assert not is_tree_child(out)
    pairs = {(e.src, e.dst) for e in out.edges}
    assert len(pairs) == len(out.edges) - 1  # exactly one parallel pair


def test_plus_rejects_descendant_tail(triple_ab_c):
    with pytest.raises(MoveError):
        apply_move(triple_ab_c, Move("plus", Edge(1, 2), Edge(2, 3)))


def test_plus_then_minus_on_created_edge_restores(triple_ab_c):
    detail = apply_move_detailed(triple_ab_c,
                                 Move("plus", Edge(2, 3), Edge(1, 5)))
    created = [e for e in detail.network.edges
               if detail.origin_of[e] == ("new",)]
    assert len(created) == 1
    back = apply_move(detail.network, Move("minus", created[0]))
    assert isomorphic(back, triple_ab_c)


def test_move_kind_and_target_validation():
    with pytest.raises(MoveError):
        Move("swap", Edge(0, 1))
    with pytest.raises(MoveError):
        Move("minus", Edge(0, 1), Edge(1, 2))
    with pytest.raises(MoveError):
        Move("pm", Edge(0, 1))
    with pytest.raises(MoveError):
        Move("plus", Edge(0, 1))


def test_apply_move_gives_a_valid_network_or_a_move_error():
    # every (kind, edge, target) triple, legal or not, and a foreign edge:
    # moves also arrive from JSON documents
    nets = [n for leaves in (1, 2, 3) for n in enumerate_tree_child(leaves, 2)]
    nets += list(enumerate_tree_child(4, 0))
    # general networks too, which searches outside tree-child space visit
    nets += [random_network(3, 2, seed=s) for s in range(10)]
    for n in nets:
        edges = list(n.edges) + [Edge(98, 99)]
        moves = [Move("minus", e) for e in edges]
        moves += [Move(kind, e, t) for kind in ("pm", "plus")
                  for e in edges for t in edges]
        for mv in moves:
            try:
                out = apply_move(n, mv)
            except MoveError:
                continue
            assert not network_violations(out.vertices, out.edges, out.root,
                                          out.leaf_labels), (n.edges, mv)


# --- enumerate_moves --------------------------------------------------------

def test_tree_has_no_minus_moves(triple_ab_c):
    kinds = {mv.kind for mv, _ in enumerate_moves(triple_ab_c, False)}
    assert "minus" not in kinds
    assert kinds == {"pm", "plus"}


def test_pm_neighborhood_of_triple_covers_other_triples(
        triple_ab_c, triple_ac_b, triple_a_bc):
    sigs = {canonical_signature(succ)
            for mv, succ in enumerate_moves(triple_ab_c)
            if mv.kind == "pm"}
    assert canonical_signature(triple_ac_b) in sigs
    assert canonical_signature(triple_a_bc) in sigs


def test_enumerate_successors_are_valid_and_filtered(retic_ab_c):
    seen = set()
    for mv, succ in enumerate_moves(retic_ab_c, tree_child_only=True):
        assert is_tree_child(succ)
        assert succ.taxa == retic_ab_c.taxa
        key = (mv.kind, mv.edge, mv.target)
        assert key not in seen
        seen.add(key)
    assert seen


def test_enumerate_is_deterministic(retic_ab_c):
    a = [(mv, canonical_signature(s)) for mv, s in enumerate_moves(retic_ab_c)]
    b = [(mv, canonical_signature(s)) for mv, s in enumerate_moves(retic_ab_c)]
    assert a == b


def test_single_edge_network_has_one_unfiltered_move(leaf_a):
    got = list(enumerate_moves(leaf_a, tree_child_only=False))
    assert len(got) == 1
    mv, succ = got[0]
    assert mv.kind == "plus" and mv.edge == mv.target
    assert not is_tree_child(succ)
    # and the tree-child filter removes it
    assert list(enumerate_moves(leaf_a, tree_child_only=True)) == []


def test_every_move_reverses(triple_ab_c, retic_ab_c):
    for i, (mv, succ) in enumerate(enumerate_moves(triple_ab_c, False)):
        assert any(isomorphic(back, triple_ab_c)
                   for _, back in enumerate_moves(succ, False)), mv
    sampled = list(enumerate_moves(retic_ab_c, False))[::3]
    for mv, succ in sampled:
        assert any(isomorphic(back, retic_ab_c)
                   for _, back in enumerate_moves(succ, False)), mv


def test_minus_keeps_tree_child(retic_ab_c):
    for seed in range(6):
        n = random_tree_child(4, 2, seed=seed)
        for mv, succ in enumerate_moves(n, tree_child_only=False):
            if mv.kind == "minus":
                assert is_tree_child(succ)


# --- sequences and weights --------------------------------------------------

def test_sequence_weight_mixed(retic_ab_c):
    first = Move("minus", Edge(3, 6))
    mid = apply_move(retic_ab_c, first)
    second = next(mv for mv, _ in enumerate_moves(mid) if mv.kind == "pm")
    s = MoveSequence(retic_ab_c, [first, second])
    assert sequence_weight(s) == 3
    assert len(s.networks) == 3


def test_sequence_weight_empty(triple_ab_c):
    assert sequence_weight(MoveSequence(triple_ab_c)) == 0


def test_sequence_weight_four_additions(triple_ab_c):
    cur = triple_ab_c
    moves = []
    for _ in range(4):
        mv, cur = next(m for m in enumerate_moves(cur, tree_child_only=False)
                       if m[0].kind == "plus")
        moves.append(mv)
    s = MoveSequence(triple_ab_c, moves)
    assert sequence_weight(s) == 4
    assert s.end.reticulation_count == 4


def test_sequence_keeps_one_tuple_of_move_fields(retic_ab_c):
    # a kept sequence, such as a witness the caller holds on to, stores its
    # moves as one flat tuple of their fields, not a Move each; moves
    # builds equal Moves on every read
    moves = [Move("minus", Edge(3, 6)), Move("pm", Edge(2, 6), Edge(3, 5))]
    s = MoveSequence(retic_ab_c, iter(moves))
    assert s.moves == tuple(moves) and len(s) == 2
    assert all(type(mv) is Move for mv in s.moves)
    assert s._fields == ("minus", Edge(3, 6), None, "pm", Edge(2, 6), Edge(3, 5))
    one = moves[1:]
    tracemalloc.start()
    try:
        kept = [MoveSequence(retic_ab_c, one) for _ in range(1000)]
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # about 120 bytes each on 64-bit CPython; a tuple of one Move took 176
    assert len(kept) == 1000 and size < 150 * 1000


def test_moves_json_roundtrip(retic_ab_c):
    s = MoveSequence(retic_ab_c, [Move("pm", Edge(2, 6), Edge(3, 5))])
    text = moves_to_json(s)
    s2 = moves_from_json(text)
    assert [canonical_signature(x) for x in s2.networks] == \
           [canonical_signature(x) for x in s.networks]
    with pytest.raises(MoveError):
        moves_from_json('{"format": "other"}')
    # a pnd error position is a line of the embedded start, not a file offset
    bad_start = json.loads(text) | {"start": "pnd 1\nvertex 0\nbogus\n"}
    with pytest.raises(ParseError, match=r"^start: unrecognised line 'bogus'"):
        moves_from_json(json.dumps(bad_start))


# --- global assumption ------------------------------------------------------

def test_global_assumption_noop(triple_ab_c, triple_ac_b):
    s = MoveSequence(triple_ab_c, [Move("pm", Edge(2, 4), Edge(0, 1))])
    assert enforce_global_assumption(s) is s


def test_global_assumption_splits_offending_pm(retic_ab_c):
    # this pm deletes reticulation edge (2,6)
    s = MoveSequence(retic_ab_c, [Move("pm", Edge(2, 6), Edge(3, 5))])
    out = enforce_global_assumption(s)
    assert [mv.kind for mv in out.moves] == ["minus", "plus"]
    assert sequence_weight(out) == sequence_weight(s) == 2
    assert isomorphic(out.end, s.end)
    assert out.start is s.start
    # postcondition: nothing left to rewrite
    assert enforce_global_assumption(out) is out


# --- normalization ----------------------------------------------------------

def test_normalize_drops_inverse_pair(triple_ab_c):
    detail = apply_move_detailed(triple_ab_c,
                                 Move("plus", Edge(2, 3), Edge(1, 5)))
    created = [e for e in detail.network.edges
               if detail.origin_of[e] == ("new",)][0]
    s = MoveSequence(triple_ab_c,
                     [Move("plus", Edge(2, 3), Edge(1, 5)),
                      Move("minus", created)])
    assert isomorphic(s.end, triple_ab_c)
    out = normalize_sequence(s)
    assert len(out.moves) == 0
    assert isomorphic(out.end, s.end)


def test_normalize_merges_add_then_delete_to_single_pm(triple_ab_c, triple_ac_b):
    detail = apply_move_detailed(triple_ab_c,
                                 Move("plus", Edge(2, 3), Edge(1, 5)))
    mid = detail.network
    # delete the other edge into the new reticulation, landing at a
    # different tree than the start
    minus = next(mv for mv, succ in enumerate_moves(mid)
                 if mv.kind == "minus" and isomorphic(succ, triple_ac_b))
    s = MoveSequence(triple_ab_c, [Move("plus", Edge(2, 3), Edge(1, 5)), minus])
    out = normalize_sequence(s)
    assert [mv.kind for mv in out.moves] == ["pm"]
    assert sequence_weight(out) == 2
    assert isomorphic(out.end, triple_ac_b)


def test_normalize_rejects_non_tree_child_intermediate(triple_ab_c):
    s = MoveSequence(triple_ab_c, [Move("plus", Edge(2, 3), Edge(2, 3))])
    with pytest.raises(MoveError):
        normalize_sequence(s)


def test_normalize_random_walks(retic_ab_c, triple_ab_c):
    import random
    for seed in range(10):
        rng = random.Random(seed)
        start = retic_ab_c if seed % 2 else triple_ab_c
        cur, moves = start, []
        for _ in range(rng.randrange(2, 5)):
            options = list(enumerate_moves(cur, tree_child_only=True))
            if not options:
                break
            mv, cur = rng.choice(options)
            moves.append(mv)
        s = MoveSequence(start, moves)
        out = normalize_sequence(s)
        assert sequence_weight(out) <= sequence_weight(s)
        assert isomorphic(out.end, s.end)
        kinds = [mv.kind for mv in out.moves]
        if "minus" in kinds:
            last_minus = len(kinds) - 1 - kinds[::-1].index("minus")
            assert all(k == "minus" for k in kinds[:last_minus + 1])
        for net in out.networks:
            assert is_tree_child(net)


# --- dtc --------------------------------------------------------------------

def test_dtc_isomorphic_is_zero(triple_ab_c):
    shifted = validate([(10, 11), (11, 12), (11, 15), (12, 13), (12, 14)],
                       {13: "a", 14: "b", 15: "c"})
    w, s = dtc(triple_ab_c, shifted)
    assert w == 0
    assert len(s.moves) == 0


def test_dtc_between_triples_is_two(triple_ab_c, triple_ac_b):
    w, s = dtc(triple_ab_c, triple_ac_b)
    assert w == 2
    assert sequence_weight(s) == 2
    assert isomorphic(s.end, triple_ac_b)
    assert s.start is triple_ab_c
    for net in s.networks:
        assert is_tree_child(net)


def test_dtc_single_deletion(retic_ab_c, triple_a_bc):
    w, s = dtc(retic_ab_c, triple_a_bc)
    assert w == 1
    assert [mv.kind for mv in s.moves] == ["minus"]
    assert isomorphic(s.end, triple_a_bc)


def test_dtc_symmetry_and_cache_reuse(retic_ab_c, triple_a_bc, triple_ab_c):
    cache = NeighborCache()
    pairs = [(retic_ab_c, triple_a_bc), (triple_ab_c, triple_a_bc),
             (retic_ab_c, triple_ab_c)]
    for a, b in pairs:
        wab, _ = dtc(a, b, cache=cache)
        wba, _ = dtc(b, a, cache=cache)
        assert wab == wba


def test_one_cache_serves_both_modes(retic_ab_c, triple_ab_c, triple_ac_b, triple_a_bc):
    # tree-child searches key on mu keys, the others on canonical
    # signatures; sharing one cache between them changes no weight
    pairs = [(triple_ab_c, triple_ac_b), (triple_a_bc, retic_ab_c)]
    cache = NeighborCache()
    for tree_child_only in (True, False, True):
        for a, b in pairs:
            shared = dtc(a, b, cache=cache, tree_child_only=tree_child_only)
            fresh = dtc(a, b, tree_child_only=tree_child_only)
            assert shared[0] == fresh[0]
            assert sequence_weight(shared[1]) == shared[0]
    assert {sig[:2] == b"mu" for sig in cache.rep} == {True, False}


def _frozen_successors(n, tree_child_only):
    """The successor tuples and representatives of a fresh cache holding n,
    the way they were found before keys were stored lazily: every kept
    successor is frozen, then copied without its cached counts and keyed
    whole by _key(tree_child_only), and its reticulations are counted by
    in-degree."""
    key = _key(tree_child_only)
    sig = key(n)
    rep, seen = {sig: n}, []
    for mv, succ in enumerate_moves(n, tree_child_only):
        bare = Network(succ.vertices, succ.edges, succ.root, succ.leaf_labels)
        ssig = key(bare)
        rep.setdefault(ssig, succ)
        seen.append((ssig, mv.kind, WEIGHTS[mv.kind], len(bare.reticulations())))
    return sig, tuple(seen), rep


SPACES = [pytest.param(True, id="tree_child"), pytest.param(False, id="wider")]


@pytest.mark.parametrize("tree_child_only", SPACES)
def test_builder_keys_match_frozen_successors(tree_child_only):
    # every host of at most four leaves (three in the wider space, where
    # each successor is edited) and two reticulations: the cache keys and
    # counts successors, stores each new key as its parent key and move,
    # and freezes a key's representative on first use, and must give the
    # same tuples, in order, and the same first network per key, with its
    # key in the slot the key function fills
    leaves = (1, 2, 3, 4) if tree_child_only else (1, 2, 3)
    hosts = [n for k in leaves for n in enumerate_tree_child(k, 2)]
    slot = "_mu" if tree_child_only else "_sig"
    successors = 0
    for n in hosts:
        sig, seen, rep = _frozen_successors(n, tree_child_only)
        cache = NeighborCache()
        cache.representative(sig, n)
        assert cache.successors(sig, tree_child_only) == seen
        frozen = {key: cache.representative(key) for key in cache.rep}
        assert frozen == rep
        assert all(getattr(net, slot) == key for key, net in frozen.items())
        successors += len(seen)
    assert (len(hosts), successors) == ((1 + 3 + 66 + 1515, 107424) if tree_child_only
                                        else (1 + 3 + 66, 7654))


@pytest.mark.parametrize("tree_child_only", SPACES)
def test_cold_dtc_freezes_only_expanded_keys_and_endpoints(tree_child_only):
    # keys the search meets but never expands stay records of their first
    # move in both spaces, and the witness walk freezes none; a cache that
    # froze every new key would hold a Network for each
    n = random_tree_child(4, 1, seed=1)
    m = random_tree_child(4, 1, seed=2)
    key = _key(tree_child_only)
    cache = NeighborCache()
    dtc(n, m, cache=cache, tree_child_only=tree_child_only)
    frozen = {sig for sig, net in cache.rep.items() if isinstance(net, Network)}
    expanded = {sig for sig, _ in cache._succ}
    assert frozen <= expanded | {key(n), key(m)}
    assert len(frozen) < len(cache.rep)


def test_cache_holds_one_object_per_key(retic_ab_c, triple_ab_c, triple_ac_b,
                                        triple_a_bc):
    # rep, the successor entries, the records with their parent keys and
    # the keys representatives store in their _mu and _sig slots share one
    # bytes object per distinct key, in both modes and across calls that
    # meet keys seen before
    cache = NeighborCache()
    for tree_child_only in (True, False):
        for a, b in [(triple_ab_c, triple_ac_b), (triple_a_bc, retic_ab_c),
                     (triple_ac_b, triple_ab_c)]:
            dtc(a, b, cache=cache, tree_child_only=tree_child_only)
    held = list(cache.rep)
    held += [ssig for seen in cache._succ.values() for ssig, *_ in seen]
    held += [sig for sig, _ in cache._succ]
    held += [key for record in cache._keys.values() for key in record[:2]
             if key is not None]
    assert sum(record[1] is not None for record in cache._keys.values()) > len(cache.rep) / 2
    held += [key for net in cache.rep.values() if isinstance(net, Network)
             for key in (net._mu, net._sig) if key in cache.rep]
    assert len(held) > 3 * len(cache.rep)
    assert len({id(key) for key in held}) == len(cache.rep)


def _moves_as_moves(n, kind=None):
    """The move generator as it was while every legal move became a Move
    before it was decided: minus, then pm, then plus, each block sorted by
    edge tuples. The oracle of the triple stream."""
    edges = sorted(n.edges)
    if kind in (None, "minus"):
        retics = set(n.reticulations())
        for e in edges:
            if e.dst in retics and n.in_degree(e.src) == 1 and n.out_degree(e.src) == 2:
                yield Move._make(("minus", e, None))
    if kind in (None, "pm"):
        for e in edges:
            u, v = e.src, e.dst
            if not (n.in_degree(u) == 1 and n.out_degree(u) == 2):
                continue
            parent_edge = n.in_edges(u)[0]
            other_child = next(f for f in n.out_edges(u) if f != e)
            blocked = _below(n, v)
            for t in edges:
                if t == e or t == parent_edge:
                    continue
                if (parent_edge.src if t == other_child else t.src) in blocked:
                    continue
                yield Move._make(("pm", e, t))
    if kind in (None, "plus"):
        for e1 in edges:
            for e2 in _plus_tails(n, e1):
                yield Move._make(("plus", e1, e2))


def _edits_as_moves(n, tree_child_only, kind=None):
    """(Move, successor) pairs of the Move-building stream, each successor
    built and, in tree-child space, checked whole by is_tree_child."""
    for move in _moves_as_moves(n, kind):
        succ = _edit(n, *move)[0]
        if not tree_child_only or is_tree_child(succ):
            yield move, succ


def _keyed_as_moves(n, tree_child_only, kind=None):
    """(Move, key, reticulation count) triples of the Move-building
    stream."""
    if tree_child_only and is_tree_child(n):
        keyer = _Keyer(n)
        for move, _ in _edits_as_moves(n, True, kind):
            yield (move, *keyer.key(*move))
        return
    key = _key(tree_child_only)
    for move, succ in _edits_as_moves(n, tree_child_only, kind):
        yield move, key(succ), len(succ.reticulations())


MU_KEY = re.compile(rb"mu(\d+)(\(.*\))\|(\[.*\])\Z", re.S)


def _mu_fields(key):
    """(width, labels, packed vectors) of a mu key."""
    width, labels, packed = MU_KEY.match(key).groups()
    return int(width), ast.literal_eval(labels.decode()), ast.literal_eval(packed.decode())


@pytest.mark.parametrize("tree_child_only", SPACES)
def test_triple_stream_matches_the_move_stream(tree_child_only):
    # every tree-child host of at most four leaves and two reticulations
    # (in the wider space, where each successor is edited and signed, those
    # of three leaves or fewer and every thirtieth of four), seeded 6- and
    # 7-leaf hosts, each also one kind at a time, and four hosts that are
    # not tree-child: _keyed yields the plain triples, keys and counts of
    # the stream that built a Move for every legal move and, in tree-child
    # space, kept it when its edited result passed is_tree_child, in order, and
    # enumerate_moves, the replay's pick and the leaf tail moves still
    # hand on equal Moves
    hosts = [n for leaves in (1, 2, 3, 4) for n in enumerate_tree_child(leaves, 2)]
    small = hosts[:70]
    if not tree_child_only:
        hosts = small + hosts[70::30]
    seeded = [random_tree_child(leaves, r, seed=s)
              for leaves in (6, 7) for r in (0, 1, 2) for s in (1, 2)]
    others = [random_network(3, 2, seed=s) for s in range(4)]
    assert not any(is_tree_child(n) for n in others)
    streams = [(n, None) for n in hosts + seeded + others]
    streams += [(n, kind) for n in seeded for kind in WEIGHTS]
    keys, count = set(), 0
    for n, kind in streams:
        got = list(_keyed(n, tree_child_only, kind))
        want = [(mv.kind, mv.edge, mv.target, key, retics)
                for mv, key, retics in _keyed_as_moves(n, tree_child_only, kind)]
        assert got == want, (write_enewick(n), kind)
        assert all(type(succ) is tuple for succ in got)
        if tree_child_only:
            keys.update((succ[3], succ[4], n.taxa) for succ in got)
        if got and kind is not None:
            move, succ = _find_move_to(n, kind, got[-1][3], tree_child_only)
            assert type(move) is Move
            assert (move, succ) == next((mv, t) for mv, t in _edits_as_moves(
                n, tree_child_only, kind) if _key(tree_child_only)(t) == got[-1][3])
        count += len(got)
    for n in small + seeded + others:
        got = list(enumerate_moves(n, tree_child_only))
        assert got == list(_edits_as_moves(n, tree_child_only))
        assert all(type(mv) is Move for mv, _ in got)
    for n in seeded if tree_child_only else ():
        tails = list(_leaf_tail_moves(n))
        assert tails == [(mv, key) for mv, key, _ in _keyed_as_moves(n, True, "pm")
                         if mv.edge.dst in n.leaves]
        assert all(type(mv) is Move for mv, _ in tails)
    # each mu key is byte for byte the one format b"mu%d%r|%r" gave it, at
    # the width one above its reticulation count and over the sorted labels
    for key, retics, taxa in keys:
        width, labels, packed = _mu_fields(key)
        assert (width, labels) == (retics + 1, tuple(sorted(taxa)))
        assert key == b"mu%d%r|%r" % (width, labels, packed)
    assert (count, len(keys)) == ((112558, 6039) if tree_child_only else (25526, 0))


def _dtc_digest(n, m, cache):
    weight, seq = dtc(parse_enewick(n), parse_enewick(m), cache=cache)
    return hashlib.sha256(b"%d\n" % weight + moves_to_json(seq).encode()).hexdigest()


@pytest.mark.parametrize("shared", [False, True])
def test_dtc_distance_pool_matches_golden(shared):
    # the benchmark's distance pairs, baseline first, each with a fresh
    # cache or all through one cache that keeps every key seen so far
    doc = json.loads(BENCH_EXPECTED.read_text(encoding="utf-8"))["distance"]
    pairs = [(e["n"], e["m"]) for e in [doc["baseline"]] + doc["pool"]]
    assert len(pairs) == 164
    want = json.loads(DISTANCE_GOLDEN.read_text(encoding="utf-8"))["digests"]
    cache = NeighborCache()
    got = [_dtc_digest(n, m, cache if shared else NeighborCache()) for n, m in pairs]
    assert got == [want["%s %s" % pair] for pair in pairs]


def _dtc_corpus(name):
    """(ordered pairs, tree_child_only) of one pinned corpus: every ordered
    pair of 3-leaf networks with at most two reticulations; 1,000 seeded
    ordered pairs of 4-leaf networks with at most one; and every ordered
    pair of 3-leaf networks with at most one, in each search space."""
    if name == "three_leaves_two_retics":
        nets = list(enumerate_tree_child(3, 2))
        return [(a, b) for a in nets for b in nets], True
    if name == "four_leaves_one_retic_sample":
        nets = list(enumerate_tree_child(4, 1))
        picks = random.Random(0).sample(range(len(nets) ** 2), 1000)
        return [(nets[i // len(nets)], nets[i % len(nets)]) for i in picks], True
    nets = list(enumerate_tree_child(3, 1))
    return ([(a, b) for a in nets for b in nets],
            name == "three_leaves_one_retic_tree_child")


# corpus name -> number of ordered pairs
DTC_CORPORA = {"three_leaves_two_retics": 4356, "four_leaves_one_retic_sample": 1000,
               "three_leaves_one_retic_tree_child": 576, "three_leaves_one_retic_any": 576}


def _corpus_line(a, b, tree_child_only, cache=None):
    """'<weight> <first 16 hex digits of the SHA-256 of the witness's
    moves_to_json>' of dtc at the default cap, on the given cache or a
    fresh one, and the witness's moves_to_json."""
    w, s = dtc(a, b, cache=cache, tree_child_only=tree_child_only)
    text = moves_to_json(s)
    return "%d %s" % (w, hashlib.sha256(text.encode()).hexdigest()[:16]), text


def dtc_corpus_goldens():
    goldens = {"about": "per corpus of tests/test_snpr.py::_dtc_corpus, in pair "
                        "order: '<dtc weight> <first 16 hex digits of the SHA-256 of "
                        "moves_to_json(witness)>', each dtc on a fresh NeighborCache "
                        "at the default cap"}
    for name in DTC_CORPORA:
        pairs, tree_child_only = _dtc_corpus(name)
        goldens[name] = [_corpus_line(a, b, tree_child_only)[0] for a, b in pairs]
    return goldens


@pytest.mark.parametrize("name", DTC_CORPORA)
def test_dtc_corpus_matches_golden(name):
    # and each witness, read off the cache's records, is the replay's
    want = json.loads(CORPUS_GOLDEN.read_text(encoding="utf-8"))[name]
    pairs, tree_child_only = _dtc_corpus(name)
    assert len(pairs) == len(want) == DTC_CORPORA[name]
    for (a, b), line in zip(pairs, want):
        cache = NeighborCache()
        got, text = _corpus_line(a, b, tree_child_only, cache)
        assert got == line, (write_enewick(a), write_enewick(b))
        assert got[0] == "0" or text == moves_to_json(
            _replayed_witness(a, b, cache, tree_child_only)), (
            write_enewick(a), write_enewick(b))


# (leaves, reticulations, seeds) of the reach pairs: random_tree_child(L, R,
# seed=s) against seed=s+1, at distance 6 or 8
REACH_PAIRS = [(6, 1, (1, 5, 7)), (6, 2, (1, 3, 5)), (7, 1, (1, 3, 5)), (8, 0, (1, 3, 5))]


def dtc_reach_lines():
    """'<L> <R> <s> <dtc weight> <SHA-256 of moves_to_json(witness)>' per
    reach pair, each dtc on a fresh NeighborCache at budget=3000 and the
    default cap."""
    lines = []
    for leaves, retics, seeds in REACH_PAIRS:
        for seed in seeds:
            n, m = (random_tree_child(leaves, retics, seed=s) for s in (seed, seed + 1))
            w, seq = dtc(n, m, budget=3000, cache=NeighborCache())
            lines.append("%d %d %d %d %s" % (leaves, retics, seed, w, hashlib.sha256(
                moves_to_json(seq).encode()).hexdigest()))
    return lines


def test_dtc_reach_pairs_match_golden():
    want = [line for line in REACH_GOLDEN.read_text(encoding="utf-8").splitlines()
            if not line.startswith("#")]
    assert len(want) == 12
    assert dtc_reach_lines() == want


def _replayed_witness(n, m, cache, tree_child_only):
    """dtc's witness from n to m as it was built before the cache's
    records were read: the search's chain of keys, every move replayed
    from n by _replay. The oracle of _witness_moves. Run on the cache dtc
    has just used, the search repeats dtc's own and expands nothing new,
    so the cache grows as under dtc alone."""
    cap = max(n.reticulation_count, m.reticulation_count) + 1
    key = _key(tree_child_only)
    _, meet, parents = _bidirectional(key(n), key(m), cache, cap, None, tree_child_only)
    sigs_f, kinds_f = _chain(parents[0], meet)
    sigs_b, kinds_b = _chain(parents[1], meet)
    sigs = sigs_f + sigs_b[-2::-1]
    kinds = kinds_f + [REVERSE_KIND[k] for k in reversed(kinds_b)]
    return MoveSequence(n, _replay(n, sigs[1:], kinds, tree_child_only))


@pytest.mark.parametrize("tree_child_only", SPACES)
def test_witness_on_a_shared_cache_matches_the_replay(tree_child_only):
    # every ordered pair of 3-leaf networks with at most two reticulations
    # in tree-child space (at most one in the wider space), all through one
    # cache: later calls start on networks the cache holds under another
    # numbering and pass through earlier calls' endpoints, and the moves
    # read off the records are still the replay's, byte for byte. The
    # corpus goldens check the same on fresh caches
    nets = list(enumerate_tree_child(3, 2 if tree_child_only else 1))
    cache = NeighborCache()
    for a in nets:
        for b in nets:
            w, seq = dtc(a, b, cache=cache, tree_child_only=tree_child_only)
            assert w == 0 or moves_to_json(seq) == moves_to_json(
                _replayed_witness(a, b, cache, tree_child_only)), (
                write_enewick(a), write_enewick(b))


def _shifted(n, by=100):
    """n with every vertex id raised by `by`: the same network under
    another numbering."""
    return validate([(e.src + by, e.dst + by) for e in n.edges],
                    {v + by: label for v, label in n.leaf_labels.items()})


def test_witness_edits_past_an_earlier_endpoint():
    # an earlier call registers, under another numbering, the network a
    # later call's path passes through in the middle, or the one it starts
    # from. The hop into the middle one is read off its record, which names
    # the hop's source, but the walk must edit forward and not step onto
    # the registered Network; a start the cache holds under another
    # numbering is not the network the records were written from
    a, c = parse_enewick("((a,b),c);"), parse_enewick("((((c)#H1,a),#H1),b);")
    middle = dtc(a, c)[1].networks[1]
    key = _mu_key(middle)
    for earlier, through in ((middle, True), (a, False)):
        cache = NeighborCache()
        dtc(_shifted(earlier), _shifted(earlier), cache=cache)
        w, seq = dtc(a, c, cache=cache)
        assert w == 3 and _mu_key(seq.networks[1]) == key
        if through:
            record = cache._keys[key]
            assert len(record) == 6 and record[1] == _mu_key(a)
        assert moves_to_json(seq) == moves_to_json(_replayed_witness(a, c, cache, True))


def test_dtc_replays_only_what_the_records_do_not_hold(monkeypatch, retic_ab_c,
                                                       triple_a_bc, triple_ab_c,
                                                       triple_ac_b):
    # the distance-1 pair and the one-pm pair read their move off the
    # record of m; on the baseline pair, distance 4 in three moves, the
    # first is read off, the move into the meeting key, which m's
    # expansion met first, is replayed, and so is the last, off a network
    # that is no key's representative
    calls = []

    def counting(*args):
        calls.append(args[1])
        return _find_move_to(*args)

    monkeypatch.setattr(snpr, "_find_move_to", counting)
    for a, b, kinds in ((retic_ab_c, triple_a_bc, ["minus"]),
                        (triple_ab_c, triple_ac_b, ["pm"])):
        w, seq = dtc(a, b)
        assert [mv.kind for mv in seq.moves] == kinds
        assert calls == []
    n, m = random_tree_child(5, 1, seed=1), random_tree_child(5, 1, seed=2)
    w, seq = dtc(n, m)
    assert (w, len(seq.moves), len(calls)) == (4, 3, 2)


def test_move_weights_bound_the_stop():
    # dtc's search stops once its two frontier minima sum to best - 2,
    # which is exact only if every move weighs at least 1 and changes the
    # reticulation count by the parity of its weight: checked on every
    # successor entry the search reads, in both search spaces
    assert min(WEIGHTS.values()) >= 1
    hosts = [n for leaves in (1, 2, 3, 4) for n in enumerate_tree_child(leaves, 1)]
    cache = NeighborCache()
    for tree_child_only in (True, False):
        kinds = set()
        for n in hosts:
            sig = _key(tree_child_only)(n)
            cache.representative(sig, n)
            for _, kind, w, retics in cache.successors(sig, tree_child_only):
                assert w == WEIGHTS[kind]
                assert (w - retics + n.reticulation_count) % 2 == 0
                kinds.add(kind)
        assert kinds == set(WEIGHTS)


class _CountingCache(NeighborCache):
    """A NeighborCache that counts successors calls: one per expansion."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def successors(self, sig, tree_child_only=True):
        self.calls += 1
        return super().successors(sig, tree_child_only)


def test_dtc_stops_once_its_meeting_is_optimal():
    # every ordered pair of 4-leaf trees answers within one expansion per
    # side, and the distance baseline pair within three; the plain
    # two-sided rule, tops[0] + tops[1] >= best, takes 50 to 54 on the
    # tree pairs at distance 4 and 75 on the baseline pair
    trees = list(enumerate_tree_child(4, 0))
    assert len(trees) == 15
    for a in trees:
        for b in trees:
            cache = _CountingCache()
            dtc(a, b, reticulation_cap=1, cache=cache)
            assert cache.calls <= 2, (write_enewick(a), write_enewick(b))
    doc = json.loads(BENCH_EXPECTED.read_text(encoding="utf-8"))["distance"]
    cache = _CountingCache()
    dtc(parse_enewick(doc["baseline"]["n"]), parse_enewick(doc["baseline"]["m"]),
        cache=cache)
    assert cache.calls <= 3


def test_dtc_answers_six_leaves_one_reticulation():
    # 6 leaves, one reticulation, distance 8: under the plain two-sided
    # rule the search finds no answer within 10,000 expansions
    n = random_tree_child(6, 1, seed=3)
    m = random_tree_child(6, 1, seed=4)
    w, s = dtc(n, m, budget=1000)
    assert w == 8 == mtc(n, m)[0]
    replayed = moves_from_json(moves_to_json(s))
    assert sequence_weight(replayed) == w
    assert isomorphic(replayed.end, m)
    assert all(is_tree_child(net) for net in replayed.networks)


def test_dtc_cap_sensitivity(triple_ab_c, triple_ac_b, retic_ab_c, triple_a_bc):
    for a, b in [(triple_ab_c, triple_ac_b), (retic_ab_c, triple_a_bc)]:
        base = max(a.reticulation_count, b.reticulation_count)
        w1, _ = dtc(a, b, reticulation_cap=base + 1, witness=False)
        w2, _ = dtc(a, b, reticulation_cap=base + 2, witness=False)
        assert w1 == w2


def test_dtc_cap_below_inputs(retic_ab_c, triple_ab_c):
    with pytest.raises(MoveError):
        dtc(retic_ab_c, triple_ab_c, reticulation_cap=0)


def test_dtc_budget_exhaustion(triple_ab_c, triple_ac_b):
    with pytest.raises(BudgetExceededError):
        dtc(triple_ab_c, triple_ac_b, budget=0)


def test_dtc_rejects_bad_inputs(parallel_one_leaf, leaf_a, triple_ab_c):
    with pytest.raises(InvalidNetworkError):
        dtc(parallel_one_leaf, leaf_a)
    two = validate([(0, 1), (1, 2), (1, 3)], {2: "a", 3: "b"})
    with pytest.raises(InvalidNetworkError):
        dtc(triple_ab_c, two)


def test_dtc_unsafe_space(parallel_one_leaf, leaf_a):
    w, s = dtc(parallel_one_leaf, leaf_a, tree_child_only=False)
    assert w == 1
    assert [mv.kind for mv in s.moves] == ["minus"]


def _plain_dijkstra(memo, source, cap):
    """Distances from one network to every network reachable under the
    cap, keyed by canonical signature, by one-sided uniform-cost search:
    the oracle for dtc. It reads enumerate_moves alone, never dtc's key
    or NeighborCache; memo maps a signature to its successors'
    (signature, weight, network) triples and may be shared between calls."""
    sig0 = canonical_signature(source)
    nets = {sig0: source}
    dist = {sig0: 0}
    heap = [(0, sig0)]
    while heap:
        d, sig = heapq.heappop(heap)
        if d > dist[sig]:
            continue
        if sig not in memo:
            memo[sig] = [(canonical_signature(succ), WEIGHTS[mv.kind], succ)
                         for mv, succ in enumerate_moves(nets[sig])]
        for ssig, w, succ in memo[sig]:
            nets.setdefault(ssig, succ)
            if succ.reticulation_count <= cap and d + w < dist.get(ssig, d + w + 1):
                dist[ssig] = d + w
                heapq.heappush(heap, (d + w, ssig))
    return dist


def test_dtc_matches_plain_dijkstra():
    # every ordered pair of 3-leaf networks with at most one, then at most
    # two reticulations, at the default cap of the larger reticulation count
    # plus one; on 33 of the 4,356 pairs with two the first meeting of the
    # two frontiers is not on a shortest path, so stopping there is caught.
    # The witnesses are checked on the smaller corpus only, to save time
    for retics, pairs, witness in ((1, 576, True), (2, 4356, False)):
        nets = list(enumerate_tree_child(3, retics))
        assert len(nets) ** 2 == pairs
        cache = NeighborCache()
        memo = {}
        for a in nets:
            oracle = {cap: _plain_dijkstra(memo, a, cap)
                      for cap in range(a.reticulation_count + 1, retics + 2)}
            for b in nets:
                cap = max(a.reticulation_count, b.reticulation_count) + 1
                w, s = dtc(a, b, reticulation_cap=cap, cache=cache,
                           witness=witness)
                assert w == oracle[cap][canonical_signature(b)], (
                    write_enewick(a), write_enewick(b))
                if witness:
                    assert sequence_weight(s) == w
                    assert isomorphism_map(s.end, b) is not None
                    assert all(is_tree_child(net) for net in s.networks)


def test_dtc_metric_on_random_corpus():
    nets = [random_tree_child(3, r, seed=s) for r in (0, 1) for s in (0, 1)]
    cache = NeighborCache()
    d = {}
    for i, a in enumerate(nets):
        for j, b in enumerate(nets):
            if i <= j:
                w, _ = dtc(a, b, cache=cache, witness=False)
                d[i, j] = d[j, i] = w
                if i == j:
                    assert w == 0
    for i in range(len(nets)):
        for j in range(len(nets)):
            for k in range(len(nets)):
                assert d[i, j] <= d[i, k] + d[k, j]


def test_find_move_to_mu_key_picks_the_canonical_move():
    # in tree-child space the replay compares mu keys; its first match must
    # be the move that comparing canonical signatures of every successor
    # finds first
    for n in enumerate_tree_child(3, 2):
        for kind in WEIGHTS:
            classes = {}
            for mv, t in enumerate_moves(n):
                if mv.kind == kind:
                    classes.setdefault(canonical_signature(t), t)
            for sig, t in classes.items():
                assert (_find_move_to(n, kind, _mu_key(t), True)[0]
                        == _find_move_to(n, kind, sig, False)[0])


def test_find_move_to_contract(triple_ab_c, triple_ac_b):
    with pytest.raises(ContractViolationError):
        _find_move_to(triple_ab_c, "minus", canonical_signature(triple_ac_b))


# --- goldens ----------------------------------------------------------------

def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _pm_hosts():
    return (list(enumerate_tree_child(3, 1))
            + [random_network(3, 2, seed=s) for s in (0, 1)])


def _move_outcomes(n, kind):
    """apply_move_detailed of every move of the kind on n, one line each:
    the successor's pnd, vertex_map and origin_of, or the MoveError text.

    The pm targets are every edge of n, which includes the tail's parent
    edge and other child, the deleted edge and edges below its head, plus
    the reversed edge, a non-edge that ends at the tail. Minus and plus
    moves name every edge of n plus a non-edge, the reversed first edge,
    and plus targets are every edge of n plus the reversed head edge. A
    plus target equal to its head edge makes a parallel pair, so the lines
    pin which of the two edges takes slot 0."""
    edges = n.edges
    if kind != "pm":
        edges += (Edge(n.edges[0].dst, n.edges[0].src),)
    for e in edges:
        targets = (None,) if kind == "minus" else n.edges + (Edge(e.dst, e.src),)
        for t in targets:
            try:
                r = apply_move_detailed(n, Move(kind, e, t))
                out = "%s %r %r" % (write_pnd(r.network), sorted(r.vertex_map.items()),
                                    sorted(r.origin_of.items()))
            except MoveError as exc:
                out = "MoveError: %s" % exc
            if t is None:
                yield "%r %s" % (tuple(e), out)
            else:
                yield "%r %r %s" % (tuple(e), tuple(t), out)


def _outcome_family(line):
    if "MoveError: " not in line:
        return "ok"
    return re.sub(r"Edge\([^)]*\)", "E", line.split("MoveError: ")[1])


def _rewrite_walk(seed, tree_child_only=True):
    """Three or four random tree-child moves from a random tree-child
    network on three or four leaves, all drawn from the seed; without
    tree_child_only, moves among all binary networks from a random
    network."""
    rng = random.Random(seed)
    if tree_child_only:
        start = random_tree_child(3 + seed % 2, seed % 3, seed=seed)
    else:
        start = random_network(3 + seed % 2, 1 + seed % 2, seed=seed)
    cur, moves = start, []
    for _ in range(3 + seed % 2):
        options = list(enumerate_moves(cur, tree_child_only))
        mv, cur = options[rng.randrange(len(options))]
        moves.append(mv)
    return MoveSequence(start, moves)


def move_outcome_goldens():
    goldens = {}
    for kind in ("pm", "minus", "plus"):
        outcomes = [list(_move_outcomes(n, kind)) for n in _pm_hosts()]
        families = collections.Counter(_outcome_family(line) for lines in outcomes
                                       for line in lines)
        goldens[kind + "_families"] = dict(sorted(families.items()))
        goldens[kind + "_hosts"] = [_digest(lines) for lines in outcomes]
    return goldens


def rewrite_goldens():
    walks = [_rewrite_walk(seed) for seed in range(60)]
    goldens = {name: [_digest([moves_to_json(f(s))]) for s in walks]
               for name, f in (("enforce_global_assumption", enforce_global_assumption),
                               ("normalize_sequence", normalize_sequence))}
    goldens["enforce_global_assumption_any_network"] = [
        _digest([moves_to_json(enforce_global_assumption(_rewrite_walk(seed, False)))])
        for seed in range(20)]
    return goldens


def _golden(*names):
    want = json.loads(MOVE_GOLDEN.read_text(encoding="utf-8"))
    return {name: want[name] for name in names}


def test_pm_edit_outcomes_match_golden():
    got = move_outcome_goldens()
    assert {k: got[k] for k in ("pm_families", "pm_hosts")} == _golden(
        "pm_families", "pm_hosts")


def test_minus_and_plus_edit_outcomes_match_golden():
    names = ("minus_families", "minus_hosts", "plus_families", "plus_hosts")
    got = move_outcome_goldens()
    assert {k: got[k] for k in names} == _golden(*names)


def test_sequence_rewrites_match_golden():
    assert rewrite_goldens() == _golden("enforce_global_assumption",
                                        "normalize_sequence",
                                        "enforce_global_assumption_any_network")
    # the any-network walks split a reticulation-deleting pm in a sequence
    # that leaves tree-child space
    assert any(enforce_global_assumption(s) is not s
               and not all(is_tree_child(n) for n in s.networks)
               for s in (_rewrite_walk(seed, False) for seed in range(20)))


if __name__ == "__main__":
    MOVE_GOLDEN.write_text(json.dumps({**move_outcome_goldens(), **rewrite_goldens()},
                                      indent=1) + "\n", encoding="utf-8")
    CORPUS_GOLDEN.write_text(json.dumps(dtc_corpus_goldens(), indent=1) + "\n",
                             encoding="utf-8")
    REACH_GOLDEN.write_text("# L R s weight sha256(moves_to_json(witness)): dtc from "
                            "random_tree_child(L, R, seed=s) to seed=s+1, fresh cache, "
                            "budget=3000\n" + "".join(line + "\n" for line in dtc_reach_lines()),
                            encoding="utf-8")
    sys.exit(0)
