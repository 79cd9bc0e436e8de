"""Property tests on seeded random tree-child networks.

Hypothesis draws the sizes and the generator seed. The draws are
derandomised and no example database is kept, so every run tries the same
networks.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from snprlab.netcore import (Edge, Network, _mu_key, canonical_signature,  # noqa: E402
                             is_tree_child, random_tree_child)
from snprlab.snpr import enumerate_moves  # noqa: E402

DRAWS = settings(derandomize=True, database=None, deadline=None, max_examples=60)


@st.composite
def tree_child_networks(draw):
    # a tree-child network on n leaves has at most n - 1 reticulations
    leaves = draw(st.integers(3, 5))
    retics = draw(st.integers(0, min(2, leaves - 1)))
    return random_tree_child(leaves, retics, seed=draw(st.integers(0, 2 ** 16)))


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
