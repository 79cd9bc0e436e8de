"""Networks, the tree-child checks and the generators.

Seeded generator output is pinned to tests/golden/random_networks.json.
Regenerate it with ``PYTHONPATH=src python tests/test_netcore.py`` only when
a change of these outputs is intended.
"""

import collections
import functools
import hashlib
import itertools
import json
import pathlib
import sys
import tracemalloc
from typing import NamedTuple

import pytest

from snprlab import _canon
from snprlab.errors import (
    BudgetExceededError,
    InvalidNetworkError,
    MoveError,
)
from snprlab.netcore import (
    Edge,
    _Keyer,
    _mu_key,
    canonical_signature,
    delete_reticulation_edge,
    enumerate_tree_child,
    is_tree_child,
    isomorphic,
    isomorphism_map,
    network_violations,
    random_network,
    random_tree_child,
    rooted_tree_count,
    tree_child_report,
    validate,
)
from snprlab.phyloio import parse_enewick, write_enewick
from snprlab.snpr import enumerate_moves


def count_identity_holds(n):
    leaves = len(n.leaves)
    retics = n.reticulation_count
    trees = sum(1 for v in n.vertices
                if n.in_degree(v) == 1 and n.out_degree(v) == 2)
    return (len(n.edges) == leaves + trees + 2 * retics
            and len(n.edges) == 1 + 2 * trees + retics)


def test_triple_counts(triple_ab_c):
    assert len(triple_ab_c.vertices) == 6
    assert len(triple_ab_c.edges) == 5
    assert triple_ab_c.reticulation_count == 0
    assert triple_ab_c.taxa == {"a", "b", "c"}


def test_reticulated_counts(retic_ab_c):
    assert len(retic_ab_c.vertices) == 8
    assert len(retic_ab_c.edges) == 8
    assert retic_ab_c.reticulation_count == 1


def test_single_leaf_network_is_valid():
    n = validate([(0, 1)], {1: "a"})
    assert len(n.vertices) == 2
    assert n.root == 0


def test_count_identity(triple_ab_c, retic_ab_c, stack_sibling_host, parallel_one_leaf):
    for n in (triple_ab_c, retic_ab_c, stack_sibling_host, parallel_one_leaf):
        assert count_identity_holds(n)


def test_validate_rejects_self_loop():
    with pytest.raises(InvalidNetworkError):
        validate([(0, 1), (1, 1)], {1: "a"})


def test_validate_rejects_two_sources():
    with pytest.raises(InvalidNetworkError) as err:
        validate([(0, 1), (2, 1), (1, 3)], {3: "a"}, root=0)
    assert any("in-degree-zero" in p for p in err.value.violations)


def test_validate_rejects_cycle():
    with pytest.raises(InvalidNetworkError) as err:
        validate([(0, 1), (1, 2), (2, 3), (3, 1), (2, 4), (3, 5)],
                 {4: "a", 5: "b"}, root=0)
    assert any("cycle" in p for p in err.value.violations)


def test_validate_rejects_bad_degrees():
    # vertex 1 has out-degree 3
    with pytest.raises(InvalidNetworkError):
        validate([(0, 1), (1, 2), (1, 3), (1, 4)], {2: "a", 3: "b", 4: "c"})


def test_validate_rejects_unlabelled_leaf():
    with pytest.raises(InvalidNetworkError) as err:
        validate([(0, 1), (1, 2), (1, 3)], {2: "a"})
    assert any("no label" in p for p in err.value.violations)


def test_validate_rejects_duplicate_labels():
    with pytest.raises(InvalidNetworkError) as err:
        validate([(0, 1), (1, 2), (1, 3)], {2: "a", 3: "a"})
    assert any("not distinct" in p for p in err.value.violations)


def test_validate_rejects_bad_label_charset():
    with pytest.raises(InvalidNetworkError):
        validate([(0, 1)], {1: "a b"})


def test_validate_rejects_trailing_newline_in_label():
    # "$" would match before a final newline, and write_enewick would then
    # write text that parse_enewick rejects
    with pytest.raises(InvalidNetworkError) as err:
        validate([(0, 2)], {2: "a\n"})
    assert any("outside [A-Za-z0-9_]" in p for p in err.value.violations)
    n = validate([(0, 2)], {2: "a"})
    assert isomorphic(parse_enewick(write_enewick(n)), n)


def test_violations_report_sparse_slots():
    problems = network_violations(
        {0, 1, 2}, [Edge(0, 1, 0), Edge(1, 2, 1)], 0, {2: "a"})
    assert any("not dense" in p for p in problems)


def test_parallel_edges_accepted(parallel_one_leaf):
    assert len(parallel_one_leaf.edges) == 4
    assert parallel_one_leaf.reticulation_count == 1


def test_tree_child_report_on_trees(triple_ab_c):
    rep = tree_child_report(triple_ab_c)
    assert rep.is_tree_child
    assert not rep.stacks and not rep.sibling_reticulations and not rep.parallel_pairs


def test_tree_child_report_on_reticulated(retic_ab_c):
    assert tree_child_report(retic_ab_c).is_tree_child


def test_tree_child_report_flags_stack_and_siblings(stack_sibling_host):
    rep = tree_child_report(stack_sibling_host)
    assert not rep.is_tree_child
    assert Edge(4, 5, 0) in rep.stacks
    assert (3, 4, 5) in rep.sibling_reticulations
    assert not rep.parallel_pairs


def test_tree_child_report_flags_parallel(parallel_one_leaf):
    rep = tree_child_report(parallel_one_leaf)
    assert not rep.is_tree_child
    assert rep.parallel_pairs == ((1, 2),)


def test_tree_child_definition_agrees_with_patterns():
    # successors outside tree-child space are included, so both verdicts occur
    starts = list(enumerate_tree_child(3, 1))
    starts += [random_network(3, 2, seed=s) for s in range(10)]
    verdicts = set()
    for n in starts:
        for _, succ in enumerate_moves(n, tree_child_only=False):
            verdict = is_tree_child(succ)
            assert tree_child_report(succ).is_tree_child == verdict
            verdicts.add(verdict)
    assert verdicts == {True, False}


class _Host(NamedTuple):
    tree_child: bool
    moves: int
    filtered: bool  # the tree-child stream is the full one filtered
    verdicts: collections.Counter  # tree-child hosts only
    keyer_misses: list


@functools.cache
def _frozen_moves():
    """One pass for the two tests below, which read the same results:
    every move of every tree-child host of at most four leaves and two
    reticulations, the one-leaf host first, then of four hosts that are
    not tree-child, each result edited and frozen once. A _Host per host.
    """
    hosts = [n for leaves in (1, 2, 3, 4) for n in enumerate_tree_child(leaves, 2)]
    hosts += [random_network(3, 2, seed=s) for s in range(4)]
    found = []
    for n in hosts:
        keyer = _Keyer(n) if is_tree_child(n) else None
        moves, kept, verdicts, misses = 0, [], collections.Counter(), []
        for mv, succ in enumerate_moves(n, tree_child_only=False):
            moves += 1
            verdict = is_tree_child(succ)
            if verdict:
                kept.append((mv, succ))
            if keyer is not None:
                verdicts[verdict] += 1
                key = (_mu_key(succ), len(succ.reticulations()))
                if keyer.keeps_tree_child(*mv) != verdict or keyer.key(*mv) != key:
                    misses.append((write_enewick(n), mv))
        found.append(_Host(keyer is not None, moves, list(enumerate_moves(n)) == kept,
                           verdicts, misses))
    return found


def test_tree_child_filter_matches_build_then_check():
    # tree-child hosts decide each successor before it is built; the others
    # build it and check it whole. Either way the kept stream must be the
    # full stream filtered by is_tree_child, move for move. The hosts have
    # two leaves or more
    hosts = _frozen_moves()[1:]
    assert sum(not h.tree_child for h in hosts) == 4
    assert all(h.filtered for h in hosts)
    assert sum(h.moves for h in hosts) == 302085


def test_keyer_decides_and_keys_every_move_as_its_edit():
    # every move of every tree-child host of at most four leaves and two
    # reticulations, rejected ones included: the verdict, the mu key and
    # the reticulation count read off the parent's tables must be those of
    # the frozen result, checked whole by is_tree_child, keyed by _mu_key
    # and counted by in-degree (the kept ones are compared with the cache's
    # representatives in tests/test_snpr.py)
    hosts = [h for h in _frozen_moves() if h.tree_child]
    assert len(hosts) == 1585
    assert [miss for h in hosts for miss in h.keyer_misses] == []
    assert sum((h.verdicts for h in hosts), collections.Counter()) == {
        True: 107424, False: 194113}


def test_mu_key_splits_like_canonical_signature():
    # the enumeration holds one network per class of canonical_signature,
    # so the mu key must tell every two apart; tests/test_properties.py
    # checks that isomorphic copies share it
    for leaves, retics, count in ((4, 2, 1515), (3, 3, 66)):
        nets = list(enumerate_tree_child(leaves, retics))
        assert len(nets) == count
        assert len({_mu_key(n) for n in nets}) == count
    # the two kinds of key cannot collide
    assert all(_mu_key(n).startswith(b"mu") for n in nets)
    assert all(canonical_signature(n).startswith(b"(") for n in nets)


def test_root_child_is_never_a_reticulation():
    for seed in range(30):
        n = random_network(4, 2, seed=seed)
        child = n.children(n.root)[0]
        assert n.in_degree(child) == 1


def test_isomorphic_under_relabelling(triple_ab_c):
    shifted = validate([(10, 11), (11, 12), (11, 15), (12, 13), (12, 14)],
                       {13: "a", 14: "b", 15: "c"})
    assert isomorphic(triple_ab_c, shifted)
    assert canonical_signature(triple_ab_c) == canonical_signature(shifted)


def test_not_isomorphic_across_topologies(triple_ab_c, triple_ac_b, triple_a_bc):
    assert not isomorphic(triple_ab_c, triple_ac_b)
    assert not isomorphic(triple_ab_c, triple_a_bc)
    assert canonical_signature(triple_ab_c) != canonical_signature(triple_ac_b)


def test_isomorphism_map_preserves_labels_and_edges(retic_ab_c):
    shifted = validate(
        [(u + 20, v + 20, s) for u, v, s in retic_ab_c.edges],
        {v + 20: lab for v, lab in retic_ab_c.leaf_labels.items()})
    mapping = isomorphism_map(retic_ab_c, shifted)
    assert mapping is not None
    for v, lab in retic_ab_c.leaf_labels.items():
        assert shifted.leaf_labels[mapping[v]] == lab
    mapped = sorted((mapping[u], mapping[v]) for u, v, _ in retic_ab_c.edges)
    assert mapped == sorted((u, v) for u, v, _ in shifted.edges)


def test_signature_agrees_with_isomorphism_oracle():
    # dual route: canonical signatures versus the backtracking matcher
    nets = list(enumerate_tree_child(3, max_reticulations=1))
    for a, b in itertools.combinations(nets, 2):
        same = canonical_signature(a) == canonical_signature(b)
        assert same == (isomorphism_map(a, b) is not None)
    for a in nets:
        assert isomorphism_map(a, a) is not None


def _cycles(*runs):
    return [(run[i], run[(i + 1) % len(run)]) for run in runs for i in range(len(run))]


def test_matcher_backtracks_and_keeps_its_candidate_order():
    # every vertex has in- and out-degree 1, so refinement leaves one cell
    # and the matcher must back out of the 6-cycle to place the 3-cycle
    three_six = _cycles([0, 1, 2], [3, 4, 5, 6, 7, 8])
    six_three = _cycles([10, 11, 12, 13, 14, 15], [16, 17, 18])
    mapping = _canon.isomorphism_mapping(range(9), three_six, None,
                                         range(10, 19), six_three, None)
    assert mapping == {0: 16, 1: 17, 2: 18, 3: 10, 4: 11, 5: 12, 6: 13, 7: 14, 8: 15}
    nine = _cycles(list(range(10, 19)))
    assert _canon.isomorphism_mapping(range(9), three_six, None,
                                      range(10, 19), nine, None) is None


def test_delete_reticulation_edge_both_ways(retic_ab_c, triple_ab_c, triple_a_bc):
    # removing the a-side reticulation edge leaves (a,(b,c))
    got = delete_reticulation_edge(retic_ab_c, Edge(2, 6, 0))
    assert isomorphic(got, triple_a_bc)
    # removing the c-side reticulation edge leaves ((a,b),c)
    got = delete_reticulation_edge(retic_ab_c, Edge(3, 6, 0))
    assert isomorphic(got, triple_ab_c)


def test_delete_reticulation_edge_rejects_tree_edge(triple_ab_c):
    with pytest.raises(MoveError):
        delete_reticulation_edge(triple_ab_c, Edge(1, 2, 0))


def test_delete_reticulation_edge_rejects_missing_edge(retic_ab_c):
    with pytest.raises(MoveError):
        delete_reticulation_edge(retic_ab_c, Edge(0, 7, 0))


def test_delete_reticulation_edge_rejects_reticulation_tail(stack_sibling_host):
    with pytest.raises(MoveError):
        delete_reticulation_edge(stack_sibling_host, Edge(4, 5, 0))


def test_delete_reticulation_edge_keeps_tree_child():
    for seed in range(20):
        n = random_tree_child(4, 2, seed=seed)
        retics = set(n.reticulations())
        for e in n.edges:
            if e.dst in retics:
                assert is_tree_child(delete_reticulation_edge(n, e))


def test_random_tree_child_is_deterministic_and_valid():
    a = random_tree_child(5, 2, seed=7)
    b = random_tree_child(5, 2, seed=7)
    assert a == b
    assert len(a.leaves) == 5
    assert a.reticulation_count == 2
    assert is_tree_child(a)
    assert not network_violations(a.vertices, a.edges, a.root, a.leaf_labels)


def test_random_tree_child_unreachable_count():
    # a single leaf admits no tree-child reticulation insertion
    with pytest.raises(BudgetExceededError):
        random_tree_child(1, 1, seed=0)


def test_random_tree_child_keeps_one_index_per_pair():
    # the 200-leaf tree has 152,737 plus pairs: 1.2 MB of shuffled
    # 8-byte indices, and the scan maps only the indices it reaches
    tracemalloc.start()
    try:
        random_tree_child(200, 1, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_random_network_reaches_non_tree_child():
    hit = False
    for seed in range(40):
        n = random_network(2, 2, seed=seed)
        assert count_identity_holds(n)
        if not is_tree_child(n):
            hit = True
    assert hit


def test_enumerate_tree_counts():
    for n_leaves, expected in ((2, 1), (3, 3), (4, 15)):
        nets = list(enumerate_tree_child(n_leaves))
        assert len(nets) == expected == rooted_tree_count(n_leaves)
        sigs = {canonical_signature(t) for t in nets}
        assert len(sigs) == expected
        for t in nets:
            assert t.is_tree
            assert len(t.leaves) == n_leaves


def test_enumerate_tree_child_two_leaves_one_reticulation():
    # worked out by hand: the reticulation feeds one of the two leaves and
    # its parents are the two tree vertices; two labelled variants exist
    nets = list(enumerate_tree_child(2, max_reticulations=1))
    assert len(nets) == 1 + 2
    level1 = [n for n in nets if n.reticulation_count == 1]
    assert len(level1) == 2
    for n in level1:
        assert is_tree_child(n)
        assert count_identity_holds(n)


def test_enumerate_tree_child_one_leaf_has_no_reticulated_level():
    nets = list(enumerate_tree_child(1, max_reticulations=1))
    assert len(nets) == 1
    assert nets[0].is_tree


def test_enumerate_leaf_limit_guard():
    with pytest.raises(ValueError):
        list(enumerate_tree_child(6))
    # explicit limit override works
    assert rooted_tree_count(5) == 105


def test_enumeration_is_deterministic():
    first = [canonical_signature(n) for n in enumerate_tree_child(3, 1)]
    second = [canonical_signature(n) for n in enumerate_tree_child(3, 1)]
    assert first == second


# --- generator golden ----------------------------------------------------------

GENERATOR_GOLDEN = pathlib.Path(__file__).parent / "golden" / "random_networks.json"


def _generated(*args, **kwargs):
    """write_enewick of random_network(*args, **kwargs), or the class and
    message of what it raises."""
    try:
        return write_enewick(random_network(*args, **kwargs))
    except (ValueError, BudgetExceededError) as exc:
        return "%s: %s" % (type(exc).__name__, exc)


def generator_goldens():
    grid = {}
    for tree_child in (False, True):
        for leaves in range(1, 9):
            for retics in range(4):
                for seed in range(10):
                    key = "%d %d %d %s" % (leaves, retics, seed, tree_child)
                    grid[key] = _generated(leaves, retics, seed, tree_child)
    digests = {"%d %d %d %s" % args: hashlib.sha256(_generated(*args).encode()).hexdigest()
               for args in [(200, 1, s, True) for s in range(3)] + [(60, 3, 0, False)]}
    return {"about": "'<leaves> <reticulations> <seed> <require_tree_child>' -> "
                     "write_enewick(random_network(...)), or '<exception class>: "
                     "<message>'; sha256 holds the SHA-256 of that text",
            "grid": grid, "sha256": digests,
            "exhausted": {"20 20 3 True": _generated(20, 20, 3, True)}}


def test_random_networks_match_golden():
    want = json.loads(GENERATOR_GOLDEN.read_text(encoding="utf-8"))
    got = generator_goldens()
    assert len(got["grid"]) == len(want["grid"]) == 640
    for key, text in want["grid"].items():
        assert got["grid"][key] == text, key
    assert got["sha256"] == want["sha256"]
    assert got["exhausted"] == want["exhausted"]


if __name__ == "__main__":
    GENERATOR_GOLDEN.write_text(json.dumps(generator_goldens(), indent=1) + "\n",
                                encoding="utf-8")
    sys.exit(0)
