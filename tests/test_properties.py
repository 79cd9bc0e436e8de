"""Property tests on seeded random tree-child networks.

Hypothesis draws the sizes and the generator seed. The draws are
derandomised and no example database is kept, so every run tries the same
networks.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from snprlab import check_bounds, write_witness_bundle  # noqa: E402
from snprlab.agreement import _min_total_cut  # noqa: E402
from snprlab.netcore import (Edge, Network, _mu_key, canonical_signature,  # noqa: E402
                             is_tree_child, isomorphic, isomorphism_map,
                             random_network, random_tree_child)
from snprlab.phyloio import (parse_enewick, parse_pnd, write_enewick,  # noqa: E402
                             write_pnd)
from snprlab.snpr import (REVERSE_KIND, NeighborCache, dtc,  # noqa: E402
                          enumerate_moves, moves_to_json, sequence_weight)

from test_agreement import _extending_min_total_cut  # noqa: E402

DRAWS = settings(derandomize=True, database=None, deadline=None, max_examples=60)


@st.composite
def tree_child_networks(draw):
    # a tree-child network on n leaves has at most n - 1 reticulations
    leaves = draw(st.integers(3, 5))
    retics = draw(st.integers(0, min(2, leaves - 1)))
    return random_tree_child(leaves, retics, seed=draw(st.integers(0, 2 ** 16)))


@st.composite
def tree_child_pairs(draw):
    # two networks on the same three or four leaves, within DTC_CAP
    leaves = draw(st.integers(3, 4))
    return tuple(random_tree_child(leaves, draw(st.integers(0, 1)),
                                   seed=draw(st.integers(0, 2 ** 16)))
                 for _ in range(2))


@st.composite
def any_networks(draw):
    # a random network, parallel pairs and all, or one of its successors
    # among all binary networks
    n = random_network(draw(st.integers(1, 5)), draw(st.integers(0, 2)),
                       seed=draw(st.integers(0, 2 ** 16)))
    successors = [succ for _, succ in enumerate_moves(n, tree_child_only=False)]
    return draw(st.sampled_from([n] + successors))


@st.composite
def tree_child_triples(draw):
    # three networks on the same three or four leaves, within DTC_CAP
    leaves = draw(st.integers(3, 4))
    return tuple(random_tree_child(leaves, draw(st.integers(0, 1)),
                                   seed=draw(st.integers(0, 2 ** 16)))
                 for _ in range(3))


DTC_CAP = 2
# one cache for every example, so later searches start from keys that
# earlier ones stored and never expanded
SHARED_CACHE = NeighborCache()


def _renumbered(n, shift):
    """A copy of n whose vertex ids are rotated by shift."""
    size = max(n.vertices) + 1

    def f(v):
        return (v + shift) % size
    return Network([f(v) for v in n.vertices],
                   [Edge(f(e.src), f(e.dst), e.slot) for e in n.edges],
                   f(n.root), {f(v): lab for v, lab in n.leaf_labels.items()})


@DRAWS
@given(tree_child_networks(), st.integers(1, 50))
def test_mu_key_agrees_with_canonical_signature(n, shift):
    # the one-move neighbourhood holds many isomorphic copies reached by
    # different moves, so both directions of the agreement are exercised
    nets = [succ for _, succ in enumerate_moves(n)] + [n, _renumbered(n, shift)]
    pairs = {(canonical_signature(s), _mu_key(s)) for s in nets}
    assert len({c for c, _ in pairs}) == len(pairs) == len({m for _, m in pairs})
    assert _mu_key(_renumbered(n, shift)) == _mu_key(n)


@DRAWS
@given(tree_child_networks())
def test_tree_child_decision_before_freezing(n):
    kept = [(mv, s) for mv, s in enumerate_moves(n, tree_child_only=False)
            if is_tree_child(s)]
    assert list(enumerate_moves(n)) == kept


@settings(DRAWS, max_examples=15)
@given(tree_child_networks())
def test_every_tree_child_move_reverses_at_equal_weight(n):
    # the bidirectional search walks the backward frontier along these
    # tuples, so each step must come back by a move of the reverse kind
    cache = NeighborCache()
    sig = _mu_key(n)
    cache.representative(sig, n)
    for ssig, kind, w, _ in cache.successors(sig):
        back = {(s, k, bw) for s, k, bw, _ in cache.successors(ssig)}
        assert (sig, REVERSE_KIND[kind], w) in back


def _certifies(seq, a, b, weight):
    """Whether seq is a tree-child walk from a to a copy of b of the given
    weight, every network within DTC_CAP."""
    nets = seq.networks
    return (seq.start is a and sequence_weight(seq) == weight and isomorphic(nets[-1], b)
            and all(is_tree_child(x) and x.reticulation_count <= DTC_CAP for x in nets))


@settings(DRAWS, max_examples=20)
@given(tree_child_pairs())
def test_dtc_symmetric_and_blind_to_a_shared_cache(pair):
    # the reverse search and every later search expand keys that earlier
    # ones stored unexpanded, as (parent key, move), and freeze them then
    n, m = pair
    cache = NeighborCache()
    weight, seq = dtc(n, m, DTC_CAP)
    want = moves_to_json(seq)
    assert moves_to_json(dtc(n, m, DTC_CAP, cache=cache)[1]) == want
    back, back_seq = dtc(m, n, DTC_CAP, cache=cache)
    assert back == weight and _certifies(back_seq, m, n, weight)
    # a search the cache has fully seen answers as a fresh one does
    assert moves_to_json(dtc(n, m, DTC_CAP, cache=cache)[1]) == want
    # a cache that served other pairs may hold other representatives of
    # a key, so only the weight and a valid witness are fixed
    across, across_seq = dtc(n, m, DTC_CAP, cache=SHARED_CACHE)
    assert across == weight and _certifies(across_seq, n, m, weight)


@settings(DRAWS, max_examples=20)
@given(tree_child_pairs())
def test_measure_loop_and_the_sandwich(pair):
    # the loop that prices, bounds and reads each subset once gives the
    # extending oracle's value and witness, and the measure brackets dtc
    n, m = pair
    for floor in (1, 5):
        got = _min_total_cut(n, m, floor=floor)
        want = _extending_min_total_cut(n, m, floor=floor)
        assert got[0] == want[0]
        assert write_witness_bundle(got[1]) == write_witness_bundle(want[1])
    assert check_bounds(n, m, cap=DTC_CAP).holds


@settings(DRAWS, max_examples=200)
@given(any_networks())
def test_pnd_and_enewick_round_trip(n):
    # pnd keeps every vertex id and slot; eNewick keeps the network up to
    # isomorphism, and writing the parsed copy gives the same text
    assert parse_pnd(write_pnd(n)) == n
    text = write_enewick(n)
    back = parse_enewick(text)
    assert isomorphism_map(n, back) is not None
    assert write_enewick(back) == text


@settings(DRAWS, max_examples=12)
@given(tree_child_triples())
def test_dtc_is_a_metric_under_a_fixed_cap(triple):
    # symmetry is checked above; here the distance to itself is zero and
    # each side of the triangle is at most the sum of the other two
    cache = NeighborCache()
    a, b, c = triple
    assert dtc(a, a, DTC_CAP, cache=cache, witness=False)[0] == 0
    ab, bc, ac = (dtc(x, y, DTC_CAP, cache=cache, witness=False)[0]
                  for x, y in ((a, b), (b, c), (a, c)))
    assert ac <= ab + bc and ab <= ac + bc and bc <= ab + ac
