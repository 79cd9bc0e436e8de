"""Shared-digraph measure, its bounds, and the independent tree oracle."""

import functools
import gc
import itertools
import math
import pathlib
import random
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import pytest

from snprlab import (
    BudgetExceededError,
    ContractViolationError,
    EmbeddingError,
    InvalidNetworkError,
    candidate_from_edges,
    check_bounds,
    cut_size,
    dtc,
    digraph_signature,
    embedding_violations,
    enumerate_agreement_digraphs,
    enumerate_tree_child,
    extend,
    extension_violations,
    find_embedding,
    gap_witness_search,
    is_tree_child_digraph,
    maf_rspr,
    mtc,
    parse_enewick,
    random_network,
    random_tree_child,
    validate,
    write_enewick,
    write_witness_bundle,
)
from snprlab import agreement
from snprlab.agreement import (
    _kept, _min_total_cut, _split_test, _valid_candidate, _valid_drops)
from snprlab.embed import _claim, _forced_chain, _Search
from snprlab.netcore import _cluster_bits, _leaf_clusters


@pytest.fixture
def triples():
    return parse_enewick("((a,b),c);"), parse_enewick("((a,c),b);")


@pytest.fixture
def retic_pair():
    return (parse_enewick("((a,(b)#H1),(#H1,c));"),
            parse_enewick("(a,(b,c));"))


@pytest.fixture
def budget_pair():
    # random_tree_child(4, 1, seed=9) against seed=10
    return (parse_enewick("(((((b)#H1,c),#H1),d),a);"),
            parse_enewick("(((((d)#H1,a),#H1),c),b);"))


@pytest.fixture
def anchor():
    # the measure anchor pair of the benchmark: a 14-edge host
    return (parse_enewick("(((((c)#H1,f),a),((#H1,b),e)),d);"),
            parse_enewick("(((((c)#H1,f),a),((#H1,e),b)),d);"))


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


def test_measure_budget(budget_pair):
    n, m = budget_pair
    with pytest.raises(BudgetExceededError):
        mtc(n, m, subset_budget=2)


def test_measure_budget_counts_built_candidates(budget_pair, retic_pair, triples):
    # three candidates of the budget pair are built: a first one m does not
    # display, the optimum, and one that would cut less and is not
    # displayed either; the subsets that the cut bound or the split test
    # (its splits or its forced chains) skips before building them are not
    # counted. On the reticulated pair and the triple pair only the optimum
    # is built
    n, m = budget_pair
    assert mtc(n, m, subset_budget=3)[0] == 6
    with pytest.raises(BudgetExceededError):
        mtc(n, m, subset_budget=2)
    assert mtc(*retic_pair, subset_budget=1)[0] == 1
    assert mtc(*triples, subset_budget=1)[0] == 2


EIGHT_LEAF_PAIRS = pathlib.Path(__file__).parent / "golden" / "mtc_eight_leaf_pairs.txt"


def test_measure_of_eight_leaf_pairs_matches_golden():
    # 8 leaves with 2 reticulations each; the golden was written by the loop
    # before the split test, so skipping undisplayed subsets changes no byte
    got = []
    for s in (1, 3, 5, 7):
        value, w = mtc(random_tree_child(8, 2, seed=s),
                       random_tree_child(8, 2, seed=s + 1))
        got.append("== random_tree_child(8, 2, seed=%d) against seed=%d\n%d\n%s"
                   % (s, s + 1, value, write_witness_bundle(w)))
    assert "".join(got) == EIGHT_LEAF_PAIRS.read_text(encoding="utf-8")


NINE_LEAF_PAIRS = pathlib.Path(__file__).parent / "golden" / "mtc_nine_leaf_pairs.txt"


def test_measure_of_nine_leaf_pairs_matches_golden():
    # 9 leaves with 2 reticulations each; the golden was written before the
    # leaf-chain check and the whole-branch bound, so neither changes a byte
    got = []
    for s in (1, 3, 5, 7):
        value, w = mtc(random_tree_child(9, 2, seed=s),
                       random_tree_child(9, 2, seed=s + 1))
        got.append("== random_tree_child(9, 2, seed=%d) against seed=%d\n%d\n%s"
                   % (s, s + 1, value, write_witness_bundle(w)))
    assert "".join(got) == NINE_LEAF_PAIRS.read_text(encoding="utf-8")


TEN_LEAF_PAIRS = pathlib.Path(__file__).parent / "golden" / "mtc_ten_leaf_pairs.txt"


def test_measure_of_ten_leaf_pairs_matches_golden():
    # 10 leaves with 2 reticulations each; the golden was written before the
    # split test checked leaf chains, so the check changes no byte
    got = []
    for s in (1, 3, 5, 7):
        value, w = mtc(random_tree_child(10, 2, seed=s),
                       random_tree_child(10, 2, seed=s + 1))
        got.append("== random_tree_child(10, 2, seed=%d) against seed=%d\n%d\n%s"
                   % (s, s + 1, value, write_witness_bundle(w)))
    assert "".join(got) == TEN_LEAF_PAIRS.read_text(encoding="utf-8")


def test_ten_leaf_pairs_build_and_search_counts(monkeypatch):
    # how many candidates mtc builds and how many full embedding searches it
    # runs on the pairs of the ten-leaf golden; unlike timings these counts
    # repeat exactly, and each subset the split test or the forced-chain
    # check skips lowers them
    built, searched = [], []

    def counted_candidate(n, mask):
        built.append(mask)
        return _valid_candidate(n, mask)

    def counted_solve(search, limit=None):
        searched.append(limit)
        return solve(search, limit)

    solve = _Search.solve
    monkeypatch.setattr(agreement, "_valid_candidate", counted_candidate)
    monkeypatch.setattr(_Search, "solve", counted_solve)
    got = []
    for s in (1, 3, 5, 7):
        built.clear()
        searched.clear()
        mtc(random_tree_child(10, 2, seed=s), random_tree_child(10, 2, seed=s + 1))
        got.append((s, len(built), len(searched)))
    assert got == [(1, 27, 27), (3, 1, 1), (5, 120, 113), (7, 6, 6)]


def test_measure_is_twice_the_forest_count_on_larger_trees():
    # criterion 03 stops at five leaves, where dtc still finishes; the
    # measure and the forest search alone reach seven to ten
    for leaves in (7, 8, 9, 10):
        for seed in range(10):
            t = random_tree_child(leaves, 0, seed=700 + 2 * seed)
            u = random_tree_child(leaves, 0, seed=701 + 2 * seed)
            assert mtc(t, u)[0] == 2 * maf_rspr(t, u), (write_enewick(t),
                                                        write_enewick(u))


# ----------------------------------------------------------------- witness


def _parts(w):
    return (w.digraph, w.embedding_n, w.embedding_m,
            w.extension_n, w.extension_m)


def test_witness_is_built_once_on_first_access(anchor):
    n, m = anchor
    _, w = mtc(n, m)
    assert isinstance(w._state, int)
    _, eager = _extending_min_total_cut(n, m)
    assert write_witness_bundle(w) == write_witness_bundle(eager)
    first = _parts(w)
    assert all(a is b for a, b in zip(first, _parts(w)))
    for streamed in enumerate_agreement_digraphs(n, m):
        assert isinstance(streamed._state, int)


def test_retained_witnesses_are_small(anchor):
    n, m = anchor
    mtc(n, m)  # the hosts' lazily built tables exist before tracing starts
    gc.collect()
    tracemalloc.start()
    try:
        # the stream builds its witnesses the way mtc does, at a fraction of
        # the cost of a traced mtc run each
        kept = list(itertools.islice(enumerate_agreement_digraphs(n, m), 90))
        kept += [mtc(n, m)[1] for _ in range(10)]
        gc.collect()
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(kept) == 100
    assert size < 100_000, size


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
    """The bit mask of every set of dropped edge indices of n, fewest
    dropped first, then lexicographic in their indices."""
    for k in range(len(n.edges) + 1):
        for dropped in itertools.combinations(range(len(n.edges)), k):
            yield sum(1 << i for i in dropped)


def _first_of_each_class(candidates):
    """The first of the candidates, tuples ending in (digraph, embedding),
    of each digraph isomorphism class."""
    seen = set()
    for c in candidates:
        sig = digraph_signature(c[-2])
        if sig not in seen:
            seen.add(sig)
            yield c


def _candidates_of_every_subset(n):
    """(mask, digraph, embedding) of the 2^|E| checked read that
    _valid_drops replaces, kept as its oracle."""
    for mask in _all_drops(n):
        got = candidate_from_edges(n, _kept(n, mask))
        if got is not None:
            yield (mask,) + got


def _checked_candidates(n):
    """The candidates of n that candidate_from_edges reads off the subsets
    of _valid_drops, one per digraph isomorphism class, as
    (mask, cut, digraph, embedding)."""
    return _first_of_each_class(
        (mask, cut) + candidate_from_edges(n, _kept(n, mask))
        for mask, cut in _valid_drops(n))


# two random_network(3, 2) hosts with a parallel pair, neither tree-child
PARALLEL_HOSTS = (2, 10)


def _rule_hosts():
    # 60 hosts with 32,104 subsets: every kept-degree pair of tree vertices
    # and reticulations occurs
    return (list(enumerate_tree_child(2, 2)) + list(enumerate_tree_child(3, 1))
            + _level(4, 0) + _level(3, 2)[::11] + _level(4, 1)[::20]
            + [random_network(3, 2, seed=s) for s in PARALLEL_HOSTS])


def test_local_rule_is_exactly_candidate_acceptance():
    # a weaker or a stricter rule shows up on the subsets of these hosts
    for n in _rule_hosts():
        accepted = [mask for mask in _all_drops(n)
                    if candidate_from_edges(n, _kept(n, mask)) is not None]
        assert [mask for mask, _ in _valid_drops(n)] == accepted, \
            write_enewick(n)


def test_unchecked_reader_equals_candidate_from_edges():
    # the loop of _min_total_cut builds its digraphs through the unchecked
    # reader; the partner of each host is the last host on its taxa
    hosts = _rule_hosts()
    partner = {n.taxa: n for n in hosts}
    subsets = 0
    for n in hosts:
        m = partner[n.taxa]
        for mask, _ in _valid_drops(n):
            got = _valid_candidate(n, mask)
            want, _ = candidate_from_edges(n, _kept(n, mask))
            where = (write_enewick(n), bin(mask))
            assert digraph_signature(got) == digraph_signature(want), where
            assert ([(c.case, c) for c in got.components]
                    == [(c.case, c) for c in want.components]), where
            assert got.taxa == want.taxa, where
            assert is_tree_child_digraph(got) == is_tree_child_digraph(want), where
            assert ((find_embedding(got, m) is None)
                    == (find_embedding(want, m) is None)), where
            subsets += 1
    assert subsets == 2955


def _stream_oracle(n, m, classes, tree_child_only):
    """The witness bundles of the shared digraphs among classes, the first
    candidate of each class of n, in order; cuts are read off extensions."""
    for _, d, emb in classes:
        if tree_child_only and not is_tree_child_digraph(d):
            continue
        emb_m = find_embedding(d, m)
        if emb_m is not None:
            rn, rm = extend(emb, n), extend(emb_m, m)
            yield write_witness_bundle(SimpleNamespace(
                digraph=d, embedding_n=emb, embedding_m=emb_m,
                extension_n=rn, extension_m=rm,
                cut_n=cut_size(n, rn), cut_m=cut_size(m, rm)))


def test_agreement_stream_equals_the_every_subset_read():
    # each host against the first and the last two hosts on its taxa, in
    # both modes; the last two on three taxa are the parallel hosts
    hosts = _rule_hosts()
    on_taxa = {}
    for m in hosts:
        on_taxa.setdefault(m.taxa, []).append(m)
    witnesses = 0
    for n in hosts:
        classes = list(_first_of_each_class(_candidates_of_every_subset(n)))
        group = on_taxa[n.taxa]
        for m in [group[0]] + group[1:][-2:]:
            for tco in (True, False):
                got = [write_witness_bundle(w)
                       for w in enumerate_agreement_digraphs(n, m, tco)]
                assert got == list(_stream_oracle(n, m, classes, tco)), (
                    write_enewick(n), write_enewick(m), tco)
                witnesses += len(got)
    assert witnesses > 0


@functools.lru_cache(maxsize=1)
def _small_host_drops():
    """(host, mask, cut) of every valid subset of the (3, 2) and (4, 1)
    hosts."""
    hosts = list(enumerate_tree_child(3, 2)) + list(enumerate_tree_child(4, 1))
    return [(n, mask, cut) for n in hosts for mask, cut in _valid_drops(n)]


def test_cut_of_every_valid_drop_is_read_off_its_size():
    # k dropped edges and z emptied inner vertices cut k - z edges, for
    # every subset and not only the first of each isomorphism class
    drops = _small_host_drops()
    for n, mask, cut in drops:
        _, emb = candidate_from_edges(n, _kept(n, mask))
        assert cut_size(n, extend(emb, n)) == cut, (write_enewick(n), bin(mask))
    assert len(drops) == 25896


def test_capped_walk_is_the_walk_less_its_large_cuts():
    # a fixed cap leaves out exactly the subsets that cut it or more, in
    # the unbounded walk's order, however many whole branches it skips
    by_host = {}
    for n, mask, cut in _small_host_drops():
        by_host.setdefault(n, []).append((mask, cut))
    walks = 0
    for n, drops in by_host.items():
        for cap in range(max(cut for _, cut in drops) + 2):
            assert list(_valid_drops(n, [cap])) == [
                (mask, cut) for mask, cut in drops if cut < cap], (write_enewick(n), cap)
            walks += 1
    assert walks == 2121


def test_cut_is_at_least_a_third_of_the_dropped_edges():
    # the drop-count bound that stops the loop of _min_total_cut
    drops = _small_host_drops()
    for n, mask, cut in drops:
        assert cut >= math.ceil(mask.bit_count() / 3), (write_enewick(n), bin(mask))
    assert len(drops) == 25896


def test_stream_cuts_are_those_of_the_extensions():
    # the stream reads its cuts off the subsets too; that holds for digraphs
    # that are not tree-child and for hosts with a parallel pair as well
    hosts = _level(3, 2)[::11] + [random_network(3, 2, seed=s) for s in PARALLEL_HOSTS]
    witnesses = 0
    for n in hosts:
        for m in hosts:
            for w in enumerate_agreement_digraphs(n, m, tree_child_only=False):
                assert cut_size(n, w.extension_n) == w.cut_n, write_enewick(n)
                assert cut_size(m, w.extension_m) == w.cut_m, write_enewick(m)
                witnesses += 1
    assert witnesses > 0


@functools.lru_cache(maxsize=1)  # pairs come grouped by their first network
def _extended_candidates(n):
    """(digraph, embedding, extension, cut) in n of each tree-child candidate."""
    got = []
    for _, _, d, emb in _checked_candidates(n):
        if is_tree_child_digraph(d):
            rn = extend(emb, n)
            got.append((d, emb, rn, cut_size(n, rn)))
    return got


def _extending_min_total_cut(n, m, floor=1):
    """The loop _min_total_cut replaces, kept as its oracle: every tree-child
    candidate is extended in n, and in m unless its cut in n cannot win."""
    best = None
    best_w = None
    for d, emb, rn, cut_n in _extended_candidates(n):
        if best is not None and cut_n >= best:
            continue
        emb_m = find_embedding(d, m)
        if emb_m is None:
            continue
        rm = extend(emb_m, m)
        cut_m = cut_size(m, rm)
        if best is None or cut_n + cut_m < best:
            best = cut_n + cut_m
            best_w = SimpleNamespace(
                digraph=d, embedding_n=emb, embedding_m=emb_m,
                extension_n=rn, extension_m=rm, cut_n=cut_n, cut_m=cut_m)
            if best < floor:
                break
    return best, best_w


@functools.lru_cache(maxsize=1)  # two tests read the same pairs
def _differential_pairs():
    nets = list(enumerate_tree_child(3, 1))
    trees = _level(4, 0)
    pairs = ([(a, b) for a in nets for b in nets]
             + [(a, b) for a in trees for b in trees])
    # 25 first networks of each size with four partners each, so that the
    # oracle reads each first network's candidates once
    rng = random.Random(12)
    for size in ((3, 2), (4, 1), (4, 2)):
        nets = list(enumerate_tree_child(*size))
        pairs += [(a, rng.choice(nets)) for a in rng.sample(nets, 25)
                  for _ in range(4)]
    return pairs


def test_cut_bound_loop_equals_the_extending_loop():
    pairs = _differential_pairs()
    assert len(pairs) == 576 + 225 + 300
    for n, m in pairs:
        for floor in (1, 5):
            got = _min_total_cut(n, m, floor=floor)
            want = _extending_min_total_cut(n, m, floor=floor)
            where = (write_enewick(n), write_enewick(m), floor)
            assert got[0] == want[0], where
            w = got[1]
            assert write_witness_bundle(w) == write_witness_bundle(want[1]), where
            assert cut_size(n, w.extension_n) == w.cut_n, where
            assert cut_size(m, w.extension_m) == w.cut_m, where


def _skip_loop_min_total_cut(n, m, floor=1):
    """The loop of _min_total_cut before its walk was capped, kept as its
    oracle: the unbounded walk, each subset priced one at a time. Returns
    (total, mask, cut, built) of the first optimum."""
    shift = m.reticulation_count - n.reticulation_count
    splits_fit = _split_test(n, m)
    best = best_mask = best_cut = None
    built = 0
    for mask, cut in _valid_drops(n):
        if best is not None:
            if 2 * -(-mask.bit_count() // 3) + shift >= best:
                break
            if 2 * cut + shift >= best:
                continue
        if not splits_fit(mask):
            continue
        built += 1
        d = _valid_candidate(n, mask)
        if not is_tree_child_digraph(d) or find_embedding(d, m) is None:
            continue
        best, best_mask, best_cut = 2 * cut + shift, mask, cut
        if best < floor:
            break
    return best, best_mask, best_cut, built


def test_capped_walk_equals_the_skip_loop(monkeypatch):
    # the capped walk reads, builds and finds the same subsets as the loop
    # that skipped them one at a time: the same value, optimum and cut, and
    # the same count of built candidates, which subset_budget caps
    built = []

    def counted(n, mask):
        built.append(mask)
        return _valid_candidate(n, mask)

    monkeypatch.setattr(agreement, "_valid_candidate", counted)
    pairs = _differential_pairs()
    for n, m in pairs:
        for floor in (1, 5):
            built.clear()
            total, w = _min_total_cut(n, m, floor=floor)
            want = _skip_loop_min_total_cut(n, m, floor=floor)
            got = (total, w._state, w.cut_n, len(built))
            assert got == want, (write_enewick(n), write_enewick(m), floor)


def _splits_only_test(n, m):
    """The split test before it checked leaf chains, kept as its oracle:
    splits_fit(mask) is False exactly when a vertex of n keeps both
    out-edges and the leaves reachable through them fit below no split of
    m."""
    bit, _, below = _leaf_clusters(m)
    pairs = [(below[kids[0]], below[kids[1]])
             for kids in map(m.children, m.vertices) if len(kids) == 2]
    index = {e: i for i, e in enumerate(n.edges)}
    order = _leaf_clusters(n)[2]  # each vertex after its children
    at = {v: i for i, v in enumerate(order)}
    plan = [(bit.get(n.leaf_labels.get(v), 0),
             tuple((at[e.dst], 1 << index[e]) for e in n.out_edges(v)))
            for v in order]

    def fit(y1, y2):
        return any((y1 | p == p and y2 | q == q) or (y1 | q == q and y2 | p == p)
                   for p, q in pairs)

    def splits_fit(mask):
        reach = []
        for leaf, outs in plan:
            y = leaf
            for c, e in outs:
                if not mask & e:
                    y |= reach[c]
            if (len(outs) == 2 and not mask & (outs[0][1] | outs[1][1])
                    and not fit(reach[outs[0][0]], reach[outs[1][0]])):
                return False
            reach.append(y)
        return True

    return splits_fit


def _leaf_chain_edges(m, label, y):
    """The forced chain in m of the leaf labelled label whose parent in the
    digraph has the leaves y below it, as host edges from the leaf upward,
    stopping at the first vertex that covers y or has another in-degree,
    or with y None at the root of m or the first reticulation: the climb
    the leaf-chain oracles below were written with."""
    _, leaf, below = _leaf_clusters(m)
    v = leaf[label]
    while True:
        e = m.in_edges(v)[0]
        yield e
        v = e.src
        if m.in_degree(v) != 1 or y is not None and below[v] & y == y:
            return


def _leaf_chains_test(n, m, rho_climbs):
    """The split test before it checked forced images and vertex owners,
    kept as its oracle: splits_fit(mask) is False exactly when
    _splits_only_test rejects the subset or two leaf chains of its digraph
    share an edge of m, each chain stopping at the first vertex that covers
    the leaves below the leaf's parent. With rho_climbs, the chain of a
    leaf whose parent is rho climbs to the root of m or the first
    reticulation instead; without it, rho is read like any parent."""
    splits_only = _splits_only_test(n, m)
    bit = _leaf_clusters(m)[0]
    label = {b: lab for lab, b in bit.items()}
    index = {e: i for i, e in enumerate(n.edges)}
    order = _leaf_clusters(n)[2]  # each vertex after its children
    at = {v: i for i, v in enumerate(order)}
    plan = [(bit.get(n.leaf_labels.get(v), 0),
             [(at[e.dst], 1 << index[e]) for e in n.out_edges(v)],
             sum(1 << index[e] for e in n.in_edges(v)))
            for v in order]

    def splits_fit(mask):
        if not splits_only(mask):
            return False
        claimed = set()
        reach = []
        up = []  # per vertex, the bit of the leaf whose chain it passes up, or 0
        for leaf, outs, ins in plan:
            kids = [c for c, e in outs if not mask & e]
            y = leaf
            for c in kids:
                y |= reach[c]
            reach.append(y)
            if leaf:
                up.append(leaf)
            elif len(kids) == 1 and (ins & ~mask).bit_count() == 1:
                up.append(up[kids[0]])
            else:
                up.append(0)
                if rho_climbs and not ins:
                    y = None
                for c in kids:
                    if not up[c]:
                        continue
                    for e in _leaf_chain_edges(m, label[up[c]], y):
                        if e in claimed:
                            return False
                        claimed.add(e)
        return True

    return splits_fit


def _forced_chains_clash(d, n):
    """The forced-chain check on a built digraph, kept as the oracle of the
    split test's chain pass: True when the forced chains of d's edges in n
    give some host vertex two owners, so that n does not display d. The
    rules and their proof are in embed._forced_chain; a children-first
    walk of each component decides every forced image before the chain of
    its parent's edge climbs from it, and each host vertex is claimed at
    most once before the check stops."""
    bit, leaf, _ = _leaf_clusters(n)
    owner = {n.root: d.rho_component.rho}
    for c in d.components:
        if not c.edges:
            continue
        out, inn = c._adjacency()
        image = {}  # the forced images of c's vertices
        # _cluster_bits lists each vertex after its children
        for p, y in _cluster_bits(c, bit).items():
            if p in c.leaf_labels:
                image[p] = leaf[c.leaf_labels[p]]
                continue
            if p == c.rho or len(inn[p]) == 2:
                y = None
            tops = []
            for e in out[p]:
                if e.dst in image:
                    chain = _forced_chain(n, image[e.dst], y)
                    if not _claim(owner, chain, e, p):
                        return True
                    tops.append(chain[-1])
            if len(tops) == 2 and tops[0] == tops[1]:
                image[p] = tops[0]
    return False


def test_split_test_rejects_only_undisplayed_subsets():
    # the split test skips a subset exactly when its splits do not fit in m
    # or the forced chains of its built digraph clash in m, and m displays
    # none of the subsets it skips: the bare search embeds none of them. It
    # skips every subset the leaf-chain oracles skip, and the pinned counts
    # split its skips into those of the splits, of leaf chains stopping at
    # the first cover, of the climb to the root, and the rest: forced
    # images, private vertices and reticulation climbs. The (4, 2) pairs
    # are halved to save time; seeded six-leaf pairs give rho more leaves
    # to climb from, and the reticulated ones images to force
    pairs = _differential_pairs()
    pairs = pairs[:1001] + pairs[1001::2]
    pairs += [(random_tree_child(6, r, seed=s), random_tree_child(6, r, seed=s + 1))
              for r in (0, 1) for s in range(0, 40, 2)]
    pairs += [(random_tree_child(6, 2, seed=s), random_tree_child(6, 2, seed=s + 1))
              for s in range(0, 20, 2)]
    read = by_splits = by_cover_chains = by_root_chains = by_forced = 0
    for n, m in pairs:
        splits_fit = _split_test(n, m)
        splits_only = _splits_only_test(n, m)
        cover_chains = _leaf_chains_test(n, m, rho_climbs=False)
        root_chains = _leaf_chains_test(n, m, rho_climbs=True)
        pair = (write_enewick(n), write_enewick(m))
        for mask, _ in _valid_drops(n):
            read += 1
            d = _valid_candidate(n, mask)
            clash = _forced_chains_clash(d, m)
            if not splits_only(mask):
                by_splits += 1
                assert not splits_fit(mask), (pair, bin(mask))
                # a clash proves the digraph undisplayed; the search is
                # run on the rest
                assert clash or find_embedding(d, m) is None, (pair, bin(mask))
                continue
            assert splits_fit(mask) is not clash, (pair, bin(mask))
            if clash:
                assert _Search(d, m).solve(limit=1) == [], (pair, bin(mask))
            if not cover_chains(mask):
                by_cover_chains += 1
                assert clash, (pair, bin(mask))
            elif not root_chains(mask):
                by_root_chains += 1
                assert clash, (pair, bin(mask))
            elif clash:
                by_forced += 1
    assert (read, by_splits, by_cover_chains, by_root_chains, by_forced) == (
        87798, 32034, 6503, 2292, 8364)


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


def _partition_maf(t, u):
    """The partition enumerator maf_rspr replaces, kept as its oracle.

    Exhaustive over partitions of the taxa plus a root marker: a partition
    agrees when each part spans the same suppressed shape in both trees and
    the spanned regions are vertex-disjoint within each tree. The answer is
    the smallest agreeing part count minus one.
    """
    rho = "\x00root"

    def partitions(items):
        if not items:
            yield []
            return
        head, rest = items[0], items[1:]
        for part in partitions(rest):
            for i in range(len(part)):
                yield part[:i] + [part[i] + [head]] + part[i + 1:]
            yield part + [[head]]

    def tree_maps(net):
        parent = {}
        depth = {net.root: 0}
        order = [net.root]
        while order:
            v = order.pop()
            for e in net.out_edges(v):
                parent[e.dst] = v
                depth[e.dst] = depth[v] + 1
                order.append(e.dst)
        return parent, depth

    def block_span(net, parent, depth, block):
        leaves = {net.leaf_of_label(lab): lab for lab in block if lab != rho}
        anchored = rho in block
        if anchored:
            anchor = net.root
        else:
            cur = set(leaves)
            while len(cur) > 1:
                deepest = max(cur, key=lambda v: (depth[v], v))
                cur.discard(deepest)
                cur.add(parent[deepest])
            anchor = cur.pop()
        span = {anchor}
        kids = {}
        for lf in leaves:
            v = lf
            while v != anchor:
                p = parent[v]
                if v not in kids.setdefault(p, []):
                    kids[p].append(v)
                if v in span:
                    break
                span.add(v)
                v = p

        def shp(v):
            below = tuple(sorted(shp(w) for w in kids.get(v, ())))
            if v in leaves:
                return ("leaf", leaves[v])
            if len(below) == 1:
                return below[0]
            return ("node",) + below

        if anchored:
            return span, ("anchor",) + tuple(sorted(shp(w) for w in kids.get(anchor, ())))
        return span, shp(anchor)

    maps = {id(t): tree_maps(t), id(u): tree_maps(u)}
    best = None
    for part in partitions([rho] + sorted(t.taxa)):
        if best is not None and len(part) >= best:
            continue
        shapes = {}
        for net in (t, u):
            used = set()
            shapes[id(net)] = []
            for block in part:
                span, shape = block_span(net, *maps[id(net)], block)
                if used & span:
                    break
                used |= span
                shapes[id(net)].append(shape)
            else:
                continue
            break
        else:
            if shapes[id(t)] == shapes[id(u)]:
                best = len(part)
    return best - 1


def test_forest_search_matches_partition_oracle_on_four_leaf_pairs():
    trees = list(enumerate_tree_child(4, 0))
    got = [(maf_rspr(t, u), _partition_maf(t, u)) for t in trees for u in trees]
    assert len(got) == 225
    assert [i for i, (a, b) in enumerate(got) if a != b] == []
    assert {a for a, _ in got} == {0, 1, 2}


def test_forest_search_matches_partition_oracle_on_seeded_larger_pairs():
    # six to eight leaves, where the oracle takes up to about a second
    got = []
    for leaves, count in ((6, 6), (7, 4), (8, 2)):
        for s in range(count):
            t = random_tree_child(leaves, 0, seed=600 + 2 * s)
            u = random_tree_child(leaves, 0, seed=601 + 2 * s)
            got.append((maf_rspr(t, u), _partition_maf(t, u),
                        write_enewick(t), write_enewick(u)))
    assert [g for g in got if g[0] != g[1]] == []
    assert len({g[0] for g in got}) >= 3


def test_forest_search_on_identical_deep_trees():
    # a 1,000-leaf caterpillar against its copy: every reduction and the
    # marked arrays are walked with explicit stacks
    leaves = 1000
    edges = [(0, 1)] + [(i, i + 1) for i in range(1, leaves)]
    edges += [(i, leaves + i) for i in range(1, leaves)]
    labels = {leaves: "a0"}
    labels.update({leaves + i: "a%d" % i for i in range(1, leaves)})
    t = validate(edges, labels)
    u = validate(edges, labels)
    assert len(t.taxa) == leaves
    assert maf_rspr(t, u) == 0
    drawn = random_tree_child(leaves, 0, seed=1)
    assert maf_rspr(drawn, drawn) == 0


def test_forest_search_budget_counts_branch_nodes(triples):
    # the triple pair: the round for k = 0 reduces its start (1 node), the
    # round for k = 1 its start and the branch that cuts a (2 nodes)
    n, m = triples
    assert maf_rspr(n, m, budget=3) == 1
    with pytest.raises(BudgetExceededError, match="stopped after 2 branch nodes"):
        maf_rspr(n, m, budget=2)
    assert maf_rspr(n, parse_enewick(write_enewick(n)), budget=1) == 0
    with pytest.raises(BudgetExceededError):
        maf_rspr(n, n, budget=0)


def test_forest_oracle_rejects_reticulations(retic_pair):
    n, m = retic_pair
    with pytest.raises(InvalidNetworkError):
        maf_rspr(n, parse_enewick("((a,b),c);"))
    with pytest.raises(InvalidNetworkError):
        maf_rspr(parse_enewick("((a,b),c);"), n)


MAF_FIVE_LEAF_PAIRS = pathlib.Path(__file__).parent / "golden" / "maf_five_leaf_pairs.txt"


def maf_five_leaf_values():
    """maf_rspr of every ordered pair of five-leaf trees, one line each, in
    the order of enumerate_tree_child(5, 0)."""
    trees = list(enumerate_tree_child(5, 0))
    return ["%d" % maf_rspr(t, u) for t in trees for u in trees]


def test_forest_oracle_matches_five_leaf_golden():
    # written by the partition enumerator; all 11,025 ordered pairs
    golden = MAF_FIVE_LEAF_PAIRS.read_text(encoding="utf-8").splitlines()
    assert len(golden) == 105 * 105
    got = maf_five_leaf_values()
    assert [i for i, (a, b) in enumerate(zip(got, golden)) if a != b] == []
    assert len(got) == len(golden)


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
    # networks on one or two leaves have no two-leaf-move neighbour, so each
    # draw of them spends a unit of budget
    for leaves, retics, budget in ((6, 1, 0), (1, 0, 5), (2, 0, 5), (2, 1, 5)):
        assert gap_witness_search(leaves, retics, budget) is None
    assert gap_witness_search(4, 1, 3, seed=1) is None


if __name__ == "__main__":
    MAF_FIVE_LEAF_PAIRS.write_text("".join(v + "\n" for v in maf_five_leaf_values()),
                                   encoding="utf-8")
