"""Shared-digraph measure, its bounds, and the independent tree oracle."""

import itertools
from fractions import Fraction

import pytest

from snprlab import (
    BudgetExceededError,
    ContractViolationError,
    EmbeddingError,
    InvalidNetworkError,
    candidate_from_edges,
    check_bounds,
    dtc,
    digraph_signature,
    embedding_violations,
    enumerate_agreement_digraphs,
    enumerate_tree_child,
    extension_violations,
    find_embedding,
    gap_witness_search,
    is_tree_child_digraph,
    maf_rspr,
    mtc,
    parse_enewick,
    random_network,
    random_tree_child,
    write_enewick,
    write_witness_bundle,
)
from snprlab.agreement import _distinct_candidates, _valid_drops


@pytest.fixture
def triples():
    return parse_enewick("((a,b),c);"), parse_enewick("((a,c),b);")


@pytest.fixture
def retic_pair():
    return (parse_enewick("((a,(b)#H1),(#H1,c));"),
            parse_enewick("(a,(b,c));"))


# ------------------------------------------------------------------ measure


def test_measure_is_zero_on_isomorphic_inputs(triples):
    n, _ = triples
    same = parse_enewick(write_enewick(n))
    value, w = mtc(n, same)
    assert value == 0
    assert w.cut_n == w.cut_m == 0


def test_measure_of_the_triple_pair(triples):
    n, m = triples
    value, w = mtc(n, m)
    assert value == 2
    assert (w.cut_n, w.cut_m) == (1, 1)
    assert value == mtc(m, n)[0]


def test_measure_across_one_reticulation(retic_pair):
    n, m = retic_pair
    value, w = mtc(n, m)
    assert value == 1
    assert (w.cut_n, w.cut_m) == (1, 0)
    assert mtc(m, n)[0] == 1


def test_measure_witness_is_fully_checkable(triples):
    n, m = triples
    _, w = mtc(n, m)
    assert is_tree_child_digraph(w.digraph)
    assert embedding_violations(w.embedding_n) == []
    assert embedding_violations(w.embedding_m) == []
    assert extension_violations(w.extension_n) == []
    assert extension_violations(w.extension_m) == []
    assert find_embedding(w.digraph, n) is not None
    assert find_embedding(w.digraph, m) is not None
    assert w.total == 2


def test_measure_zero_iff_isomorphic():
    for seed in range(4):
        n = random_tree_child(4, 1, seed=seed)
        twin = parse_enewick(write_enewick(n))
        assert mtc(n, twin)[0] == 0
    n = parse_enewick("((a,b),c);")
    m = parse_enewick("((a,c),b);")
    assert mtc(n, m)[0] > 0


def test_measure_requires_tree_child_inputs(stack_sibling_host):
    partner = parse_enewick("(a,b);")
    with pytest.raises(InvalidNetworkError):
        mtc(stack_sibling_host, partner)


def test_measure_requires_matching_taxa(triples):
    n, _ = triples
    with pytest.raises(EmbeddingError):
        mtc(n, parse_enewick("((a,b),d);"))


def test_measure_budget(triples):
    n, m = triples
    with pytest.raises(BudgetExceededError):
        mtc(n, m, subset_budget=1)


# ----------------------------------------------------------------- streams


def test_stream_contains_the_known_witnesses(triples):
    n, m = triples
    seen = [(w.cut_n, w.cut_m) for w in enumerate_agreement_digraphs(n, m)]
    assert (1, 1) in seen
    assert (0, 0) not in seen
    assert min(a + b for a, b in seen) == 2


def test_stream_is_deterministic(triples):
    n, m = triples
    one = [(w.cut_n, w.cut_m) for w in enumerate_agreement_digraphs(n, m)]
    two = [(w.cut_n, w.cut_m) for w in enumerate_agreement_digraphs(n, m)]
    assert one == two


def test_unrestricted_stream_is_a_superset(retic_pair):
    n, m = retic_pair
    strict = list(enumerate_agreement_digraphs(n, m))
    loose = list(enumerate_agreement_digraphs(n, m, tree_child_only=False))
    assert len(loose) >= len(strict)


def test_witness_bundle_serialization(triples):
    n, m = triples
    _, w = mtc(n, m)
    doc = write_witness_bundle(w)
    assert "agreement witness: cut 1 + 1 = 2" in doc
    assert "begin network 1" in doc
    assert "begin digraph" in doc


# -------------------------------------------------------------- candidates


def test_empty_subset_gives_all_singletons(triples):
    n, _ = triples
    d, emb = candidate_from_edges(n, [])
    assert len(d.components) == 4
    assert d.taxa == {"a", "b", "c"}
    assert embedding_violations(emb) == []


def test_full_subset_gives_the_network_itself(triples):
    n, _ = triples
    d, emb = candidate_from_edges(n, n.edges)
    assert embedding_violations(emb) == []
    assert set(emb.host_edges()) == set(n.edges)


def test_unlabelled_sink_subset_is_rejected(triples):
    n, _ = triples
    inner = [e for e in n.edges if e.src == 1 and e.dst == 2]
    assert candidate_from_edges(n, inner) is None


def test_foreign_edges_are_a_contract_violation(triples):
    n, _ = triples
    other = parse_enewick("(a,(b,c));")
    foreign = [e for e in other.edges if e not in set(n.edges)]
    assert foreign
    with pytest.raises(ContractViolationError):
        candidate_from_edges(n, [foreign[0]])


def _level(leaves, retics):
    return [n for n in enumerate_tree_child(leaves, retics)
            if n.reticulation_count == retics]


def _all_drops(n):
    """Every dropped-index tuple of n.edges, fewest first, then lexicographic."""
    for k in range(len(n.edges) + 1):
        yield from itertools.combinations(range(len(n.edges)), k)


def _kept(n, dropped):
    gone = set(dropped)
    return [e for i, e in enumerate(n.edges) if i not in gone]


def _candidates_of_every_subset(n):
    """The 2^|E| read that _distinct_candidates replaces, kept as its oracle."""
    seen = set()
    for dropped in _all_drops(n):
        got = candidate_from_edges(n, _kept(n, dropped))
        if got is None:
            continue
        d, emb = got
        sig = digraph_signature(d)
        if sig in seen:
            continue
        seen.add(sig)
        yield d, emb


# two random_network(3, 2) hosts with a parallel pair, neither tree-child
PARALLEL_HOSTS = (2, 10)


def test_local_rule_is_exactly_candidate_acceptance():
    # 32,104 subsets of 60 hosts: every kept-degree pair of tree vertices
    # and reticulations occurs, so a weaker or a stricter rule shows up here
    hosts = (list(enumerate_tree_child(2, 2)) + list(enumerate_tree_child(3, 1))
             + _level(4, 0) + _level(3, 2)[::11] + _level(4, 1)[::20]
             + [random_network(3, 2, seed=s) for s in PARALLEL_HOSTS])
    for n in hosts:
        accepted = [dropped for dropped in _all_drops(n)
                    if candidate_from_edges(n, _kept(n, dropped)) is not None]
        assert list(_valid_drops(n)) == accepted, write_enewick(n)


def test_candidate_stream_equals_the_every_subset_read():
    hosts = ([parse_enewick("(((((c)#H1,f),a),((#H1,b),e)),d);")]
             + _level(3, 2)[::22]
             + [random_network(3, 2, seed=s) for s in PARALLEL_HOSTS])
    for n in hosts:
        got = list(_distinct_candidates(n))
        want = list(_candidates_of_every_subset(n))
        assert len(got) == len(want), write_enewick(n)
        for (d, emb), (d0, emb0) in zip(got, want):
            assert digraph_signature(d) == digraph_signature(d0)
            assert emb.vertex_map == emb0.vertex_map
            assert emb.edge_map == emb0.edge_map


# ------------------------------------------------------------------ bounds


def test_bounds_on_isomorphic_pair(triples):
    n, _ = triples
    rep = check_bounds(n, parse_enewick(write_enewick(n)))
    assert (rep.half_m, rep.d, rep.m, rep.holds) == (0, 0, 0, True)


def test_bounds_on_the_triple_pair(triples):
    rep = check_bounds(*triples)
    assert (rep.half_m, rep.d, rep.m) == (1, 2, 2)
    assert rep.holds


def test_bounds_across_one_reticulation(retic_pair):
    n, m = retic_pair
    for pair in ((n, m), (m, n)):
        rep = check_bounds(*pair)
        assert (rep.half_m, rep.d, rep.m) == (Fraction(1, 2), 1, 1)
        assert rep.holds


# ------------------------------------------------------------- tree oracle


def test_forest_oracle_on_identical_trees(triples):
    n, _ = triples
    assert maf_rspr(n, parse_enewick(write_enewick(n))) == 0


def test_forest_oracle_on_the_triple_pair(triples):
    n, m = triples
    assert maf_rspr(n, m) == 1
    assert maf_rspr(m, n) == 1


def test_forest_oracle_on_caterpillars():
    t = parse_enewick("(((a,b),c),d);")
    u = parse_enewick("(((a,c),b),d);")
    assert maf_rspr(t, u) == 1
    far = parse_enewick("((a,d),(b,c));")
    assert maf_rspr(t, far) == 1


def test_forest_oracle_rejects_reticulations(retic_pair):
    n, m = retic_pair
    with pytest.raises(InvalidNetworkError):
        maf_rspr(n, parse_enewick("((a,b),c);"))
    with pytest.raises(InvalidNetworkError):
        maf_rspr(parse_enewick("((a,b),c);"), n)


def test_tree_specialization_spot_checks():
    # the halved distance and halved measure both land on the forest count
    for s1, s2 in ((0, 1), (2, 3), (4, 7)):
        t = random_tree_child(4, 0, seed=s1)
        u = random_tree_child(4, 0, seed=s2)
        forest = maf_rspr(t, u)
        d, _ = dtc(t, u, witness=False)
        measure, _ = mtc(t, u)
        assert d == 2 * forest, (s1, s2)
        assert measure == 2 * forest, (s1, s2)


# -------------------------------------------------------------- gap search


def test_gap_search_respects_its_budget():
    assert gap_witness_search(6, 1, 0) is None
    assert gap_witness_search(4, 1, 3, seed=1) is None
