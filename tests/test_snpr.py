"""Moves, sequences and the exact distance.

The pm edit outcomes and the sequence rewrites on seeded walks are pinned
to tests/golden/move_outcomes.json. Regenerate it with
``PYTHONPATH=src python tests/test_snpr.py`` only when a change of these
outputs is intended.
"""

import collections
import hashlib
import heapq
import json
import pathlib
import random
import re
import sys

import pytest

from snprlab.errors import (BudgetExceededError, ContractViolationError,
                            InvalidNetworkError, MoveError, ParseError)
from snprlab.netcore import (Edge, Network, _mu_key, canonical_signature,
                             enumerate_tree_child, is_tree_child, isomorphic,
                             isomorphism_map, network_violations, random_network,
                             random_tree_child, validate)
from snprlab.snpr import (WEIGHTS, Move, MoveSequence, NeighborCache, apply_move,
                          apply_move_detailed, dtc, enforce_global_assumption,
                          enumerate_moves, moves_from_json, moves_to_json,
                          normalize_sequence, sequence_weight, _find_move_to)
from snprlab.phyloio import write_enewick, write_pnd

MOVE_GOLDEN = pathlib.Path(__file__).parent / "golden" / "move_outcomes.json"


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


def _frozen_successors(n):
    """The successor tuples and representatives of a fresh cache holding n,
    the way they were found before keys were read off the builder: every
    tree-child successor is frozen, then copied without its cached counts
    and keyed whole, and its reticulations are counted by in-degree."""
    sig = _mu_key(n)
    rep, seen = {sig: n}, []
    for mv, succ in enumerate_moves(n):
        bare = Network(succ.vertices, succ.edges, succ.root, succ.leaf_labels)
        ssig = _mu_key(bare)
        rep.setdefault(ssig, succ)
        seen.append((ssig, mv.kind, WEIGHTS[mv.kind], len(bare.reticulations())))
    return sig, tuple(seen), rep


def test_builder_keys_match_frozen_successors():
    # every host of at most four leaves and two reticulations: the cache
    # keys, counts and freezes successors in the builder, and must give
    # the same tuples, in order, and the same first network per key
    hosts = [n for leaves in (1, 2, 3, 4) for n in enumerate_tree_child(leaves, 2)]
    assert len(hosts) == 1 + 3 + 66 + 1515
    successors = 0
    for n in hosts:
        sig, seen, rep = _frozen_successors(n)
        cache = NeighborCache()
        cache.representative(sig, n)
        assert cache.successors(sig) == seen
        assert cache.rep == rep
        assert all(net._mu == key for key, net in cache.rep.items())
        successors += len(seen)
    assert successors == 107424


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


def _pm_outcomes(n):
    """apply_move_detailed of every pm (edge, target) pair on n, one line
    each: the successor's pnd, vertex_map and origin_of, or the MoveError
    text. The targets are every edge of n, which includes the tail's parent
    edge and other child, the deleted edge and edges below its head, plus
    the reversed edge, a non-edge that ends at the tail."""
    for e in n.edges:
        for t in n.edges + (Edge(e.dst, e.src),):
            try:
                r = apply_move_detailed(n, Move("pm", e, t))
                out = "%s %r %r" % (write_pnd(r.network), sorted(r.vertex_map.items()),
                                    sorted(r.origin_of.items()))
            except MoveError as exc:
                out = "MoveError: %s" % exc
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


def pm_outcome_goldens():
    outcomes = [list(_pm_outcomes(n)) for n in _pm_hosts()]
    families = collections.Counter(_outcome_family(line) for lines in outcomes
                                   for line in lines)
    return {"pm_families": dict(sorted(families.items())),
            "pm_hosts": [_digest(lines) for lines in outcomes]}


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
    assert pm_outcome_goldens() == _golden("pm_families", "pm_hosts")


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
    MOVE_GOLDEN.write_text(json.dumps({**pm_outcome_goldens(), **rewrite_goldens()},
                                      indent=1) + "\n", encoding="utf-8")
    sys.exit(0)
