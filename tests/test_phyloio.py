import pytest

from snprlab.errors import ParseError
from snprlab.netcore import (
    canonical_signature,
    is_tree_child,
    isomorphic,
    isomorphism_map,
    random_network,
    random_tree_child,
)
from snprlab.digraphcore import digraph_isomorphic, network_as_digraph, singleton_digraph
from snprlab.phyloio import (
    parse_digraph_pnd,
    parse_enewick,
    parse_pnd,
    write_digraph_pnd,
    write_enewick,
    write_pnd,
)


def test_parse_triple(triple_ab_c):
    n = parse_enewick("((a,b),c);")
    assert len(n.vertices) == 6
    assert len(n.edges) == 5
    assert isomorphic(n, triple_ab_c)


def test_parse_reticulated(retic_ab_c):
    n = parse_enewick("((a,(b)#H1),(#H1,c));")
    assert len(n.vertices) == 8
    assert len(n.edges) == 8
    assert n.reticulation_count == 1
    assert isomorphic(n, retic_ab_c)


def test_parse_single_leaf():
    n = parse_enewick("a;")
    assert len(n.vertices) == 2
    assert len(n.edges) == 1


def test_parse_parallel_pair(parallel_one_leaf):
    n = parse_enewick("((a)#H1,#H1);")
    assert isomorphic(n, parallel_one_leaf)
    assert not is_tree_child(n)


def test_parse_allows_surrounding_whitespace():
    n = parse_enewick("  ((a,b),c);\n")
    assert len(n.edges) == 5


def test_parse_error_positions():
    cases = [
        ("((a,b),c", 8),        # unclosed group
        ("((a,b)c);", 6),       # missing comma
        ("(a);", 3),            # single child without tag
        ("((a,a),c);", 4),      # duplicate label
        ("((a,b),c);x", 10),    # trailing text
        ("", 0),
        ("(a,#1);", 4),         # malformed tag, points at the char after '#'
    ]
    for text, pos in cases:
        with pytest.raises(ParseError) as err:
            parse_enewick(text)
        assert err.value.pos == pos, text


def test_parse_tag_count_errors():
    for text in ("((a)#H1,b);",              # one use
                 "(((a)#H1,#H1),(#H1,b));",  # three uses
                 "(#H1,a);"):                # never defined
        with pytest.raises(ParseError):
            parse_enewick(text)


def test_parse_tag_defined_twice():
    with pytest.raises(ParseError) as err:
        parse_enewick("((a)#H1,((c)#H1,b));")
    assert "twice" in str(err.value)


def test_parse_two_child_tagged_group_fails():
    with pytest.raises(ParseError) as err:
        parse_enewick("((a,b)#H1,(#H1,c));")
    assert "exactly one child" in str(err.value)


def test_parse_tagged_cycle_fails():
    with pytest.raises(ParseError) as err:
        parse_enewick("((#H2)#H1,(#H1)#H2);")
    assert "invalid network" in str(err.value)


def test_write_parse_round_trip_on_corpus():
    nets = [random_tree_child(4, 2, seed=s) for s in range(10)]
    nets += [random_network(3, 2, seed=s) for s in range(10)]
    nets.append(parse_enewick("((a)#H1,#H1);"))
    for n in nets:
        back = parse_enewick(write_enewick(n))
        assert isomorphic(back, n)
        assert len(back.vertices) == len(n.vertices)
        assert len(back.edges) == len(n.edges)


def test_deep_caterpillar_round_trips():
    # 1,200 leaves in groups nested 1,199 deep, once as a tree and once with
    # a reticulation joining the deepest cherry to the top
    size = 1200
    tree = "(" * (size - 1) + "t0," + ",".join("t%d)" % i for i in range(1, size))
    network = "(" + tree.replace("t0,", "(t0)#H1,", 1) + ",#H1)"
    for text in (tree + ";", network + ";"):
        n = parse_enewick(text)
        assert len(n.leaves) == size
        out = write_enewick(n)
        back = parse_enewick(out)
        assert isomorphic(back, n)
        assert write_enewick(back) == out
        assert parse_pnd(write_pnd(back)) == back
        # the independent matchers walk the same depth
        mapping = isomorphism_map(back, n)
        assert all(n.leaf_labels[mapping[v]] == lab for v, lab in back.leaf_labels.items())
        assert digraph_isomorphic(network_as_digraph(back), network_as_digraph(n))


def test_write_enewick_is_canonical(retic_ab_c):
    from snprlab.netcore import validate

    shifted = validate(
        [(u + 30, v + 30, s) for u, v, s in retic_ab_c.edges],
        {v + 30: lab for v, lab in retic_ab_c.leaf_labels.items()})
    assert write_enewick(retic_ab_c) == write_enewick(shifted)
    # one normalisation pass is a fixpoint
    s = write_enewick(retic_ab_c)
    assert write_enewick(parse_enewick(s)) == s


def test_pnd_round_trip_is_field_identical(triple_ab_c, retic_ab_c,
                                            stack_sibling_host, parallel_one_leaf):
    nets = [triple_ab_c, retic_ab_c, stack_sibling_host, parallel_one_leaf]
    nets += [random_tree_child(5, 2, seed=s) for s in range(5)]
    for n in nets:
        assert parse_pnd(write_pnd(n)) == n


def test_minimal_pnd_document():
    n = parse_pnd("pnd 1\nvertex 0\nleaf 1 a\nroot 0\nedge 0 1\n")
    assert len(n.vertices) == 2
    assert n.leaf_labels == {1: "a"}


def test_pnd_accepts_comments_and_blank_lines():
    text = "pnd 1\n# a comment\n\nvertex 0\nleaf 1 a  # trailing note\nroot 0\nedge 0 1\n"
    n = parse_pnd(text)
    assert len(n.edges) == 1


def test_pnd_parallel_edges_by_repetition():
    text = ("pnd 1\nvertex 0\nvertex 1\nvertex 2\nleaf 3 a\nroot 0\n"
            "edge 0 1\nedge 1 2\nedge 1 2\nedge 2 3\n")
    n = parse_pnd(text)
    assert n.reticulation_count == 1
    assert len(n.edges) == 4


def test_pnd_errors_are_line_positioned():
    cases = [
        ("vertex 0\nroot 0\n", 1, "header"),
        ("pnd 2\n", 1, "header"),
        ("pnd 1\nvertex 0\nvertex 0\n", 3, "twice"),
        ("pnd 1\nwombat 3\n", 2, "unrecognised"),
        ("pnd 1\nvertex x\n", 2, "integer"),
        ("pnd 1\nvertex 0\nleaf 1 a\nroot 0\nroot 0\n", 5, "twice"),
        ("pnd 1\nvertex 0\nleaf 1 a\nroot 0\nedge 0 2\n", 5, "not declared"),
    ]
    for text, line, needle in cases:
        with pytest.raises(ParseError) as err:
            parse_pnd(text)
        assert err.value.pos == line
        assert needle in str(err.value)


def test_pnd_missing_root():
    with pytest.raises(ParseError) as err:
        parse_pnd("pnd 1\nvertex 0\nleaf 1 a\nedge 0 1\n")
    assert "missing root" in str(err.value)


def test_pnd_wraps_structural_violations():
    # two sources: syntactically fine, structurally invalid
    with pytest.raises(ParseError) as err:
        parse_pnd("pnd 1\nvertex 0\nvertex 2\nleaf 1 a\nroot 0\nedge 0 1\nedge 2 1\n")
    assert "invalid network" in str(err.value)


def test_digraph_pnd_round_trip(triple_ab_c, retic_ab_c):
    for d in (singleton_digraph(triple_ab_c), network_as_digraph(retic_ab_c)):
        back = parse_digraph_pnd(write_digraph_pnd(d))
        assert back.taxa == d.taxa
        assert back.components == d.components


def test_digraph_pnd_errors():
    with pytest.raises(ParseError) as err:
        parse_digraph_pnd("pnd 1\nvertex 3\n")
    assert err.value.pos == 2  # directive before any component
    with pytest.raises(ParseError):
        parse_digraph_pnd("pnd 1\ncomponent\nrho 0\nrho 1\n")
    with pytest.raises(ParseError) as err:
        parse_digraph_pnd("pnd 1\ncomponent\nrho 0\ncomponent\nrho 1\n")
    assert "invalid digraph" in str(err.value)


def test_signature_stable_across_io(retic_ab_c):
    via_enewick = parse_enewick(write_enewick(retic_ab_c))
    via_pnd = parse_pnd(write_pnd(retic_ab_c))
    assert canonical_signature(via_enewick) == canonical_signature(retic_ab_c)
    assert canonical_signature(via_pnd) == canonical_signature(retic_ab_c)
