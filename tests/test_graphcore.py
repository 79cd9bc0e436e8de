"""Goldens for the labelled-graph core shared by networks and digraphs.

The structural checks, the canonical encodings and the candidate stream are
pinned to recorded outputs: every violation list, as strings and in order,
on a table of malformed inputs that reaches every message each checker can
produce, and SHA-256 digests of the canonical signatures and orders of all
tree-child networks on four leaves with up to two reticulations, of the
digraph signatures of the candidate streams of a few of those hosts, of the
pnd of seeded generator output, and of the move streams (each move and its
successor's pnd) of small hosts in both filter modes.

Regenerate the goldens with ``PYTHONPATH=src python tests/test_graphcore.py``
only when a change of these outputs is intended.
"""

import hashlib
import itertools
import json
import pathlib
import sys

from snprlab.digraphcore import (component_violations, digraph_signature,
                                 quotient, validate_component, validate_digraph)
from snprlab.errors import InvalidDigraphError
from snprlab.netcore import (Edge, canonical_order, canonical_signature,
                             enumerate_tree_child, network_violations,
                             random_network, random_tree_child)
from snprlab.phyloio import write_pnd
from snprlab.snpr import enumerate_moves

from test_agreement import _checked_candidates

GOLDEN = pathlib.Path(__file__).parent / "golden"
VIOLATIONS = GOLDEN / "graph_violations.json"
DIGESTS = GOLDEN / "graph_digests.json"


def E(u, v, s=0):
    return Edge(u, v, s)


# network_violations(vertices, edges, root, leaf_labels)
NETWORK_CASES = {
    "valid_triple": ({0, 1, 2, 3, 4, 5},
                     [E(0, 1), E(1, 2), E(1, 5), E(2, 3), E(2, 4)], 0,
                     {3: "a", 4: "b", 5: "c"}),
    "no_vertices": (set(), [], 0, {}),
    "vertex_not_int": ({0, 1, "x"}, [E(0, 1)], 0, {1: "a"}),
    "edge_faults": ({0, 1, 2, 3}, [E(0, 1), E(0, 1), E(1, 1), E(2, 5), E(7, 3),
                                   E(1, 2), E(1, 2)], 0, {2: "a"}),
    "sparse_slots_and_missing_root": ({0, 1, 2}, [E(0, 1, 1), E(1, 2, 0), E(1, 2, 2)],
                                      9, {2: "a"}),
    "sources_and_root_degree": ({0, 1, 2, 3, 4}, [E(0, 1), E(0, 2), E(4, 3)], 0,
                                {1: "a", 2: "b", 3: "c"}),
    "root_with_parent": ({0, 1, 2, 3}, [E(0, 1), E(1, 2), E(1, 3), E(2, 0)], 0,
                         {3: "a"}),
    "label_faults": ({0, 1, 2, 3, 4, 5, 6}, [E(0, 1), E(1, 2), E(1, 3), E(2, 4),
                                             E(2, 5), E(3, 6), E(3, 6, 1)],
                     0, {2: "a", 4: "a", 6: "b-c", 9: "z", 7: "q r"}),
    "degrees_and_cycle": ({0, 1, 2, 3, 4}, [E(0, 1), E(1, 2), E(2, 3), E(3, 1),
                                            E(2, 4)], 0, {4: "a"}),
    "bad_inner_degrees": ({0, 1, 2, 3, 4, 5, 6}, [E(0, 1), E(1, 2), E(1, 3), E(1, 4),
                                                  E(2, 5), E(5, 6)], 0,
                          {3: "a", 4: "b", 6: "c"}),
}

# component_violations(vertices, edges, leaf_labels, rho)
COMPONENT_CASES = {
    "isolated_rho": ({0}, [], {}, 0),
    "isolated_leaf": ({3}, [], {3: "a"}, None),
    "rho_cherry": ({0, 1, 2, 3}, [E(0, 1), E(1, 2), E(1, 3)], {2: "a", 3: "b"}, 0),
    "no_vertices": (set(), [], {}, None),
    "edge_faults": ({0, 1, 2}, [E(0, 1), E(1, 1), E(2, 5), E(8, 2)], {2: "a"}, None),
    "rho_not_vertex": ({0, 1}, [E(0, 1)], {1: "a"}, 9),
    "labelled_not_vertex": ({0, 1}, [E(0, 1)], {1: "a", 7: "b", 8: "c"}, 0),
    "label_faults": ({0, 1, 2, 3}, [E(0, 1), E(1, 2), E(1, 3)],
                     {0: "r", 2: "a", 3: "a-b"}, 0),
    "duplicate_labels": ({1, 2, 3}, [E(1, 2), E(1, 3)], {2: "a", 3: "a"}, None),
    "edgeless_pair": ({1, 2}, [], {1: "a"}, None),
    "isolated_unlabelled": ({3}, [], {}, None),
    "isolated_labelled_rho": ({0}, [], {0: "a"}, 0),
    "sparse_and_repeated_slots": ({1, 2, 3, 4}, [E(1, 2, 1), E(1, 3), E(1, 3), E(2, 4),
                                                E(3, 4)], {4: "a"}, None),
    "degree_faults": ({0, 1, 2, 3, 4, 5, 6, 7}, [E(0, 1), E(0, 2), E(1, 3), E(2, 3),
                                                 E(3, 4), E(3, 5), E(6, 4), E(4, 7),
                                                 E(1, 7)],
                      {5: "a", 7: "b", 1: "c"}, 0),
    "unary_sources": ({0, 1, 2, 3, 4}, [E(0, 2), E(1, 2), E(2, 3), E(2, 4)],
                      {3: "a", 4: "b"}, None),
    "rho_degree": ({0, 1, 2}, [E(0, 1), E(0, 2)], {1: "a", 2: "b"}, 0),
    "cycle_and_split": ({1, 2, 3, 4, 5, 6, 7}, [E(1, 2), E(2, 3), E(3, 1), E(3, 4),
                                                E(5, 6), E(5, 7)],
                        {4: "a", 6: "b", 7: "c"}, None),
}

# validate_component(edges, leaf_labels, rho, vertices, allowed_taxa)
VALIDATE_COMPONENT_CASES = {
    "allowed": ([(0, 1)], {1: "a"}, 0, None, {"a", "b"}),
    "outside_allowed": ([(1, 2), (1, 3)], {2: "z", 3: "y"}, None, None, {"a"}),
    "faults_and_outside": ([(1, 2)], {2: "z"}, None, {1, 2, 3}, {"a"}),
}


def _components(spec):
    return [validate_component(es, labs, rho=r, vertices=vs)
            for es, labs, r, vs in spec]


# validate_digraph(components, taxa); components given as validate_component
# arguments (edges, leaf_labels, rho, vertices)
DIGRAPH_CASES = {
    "valid": ([([(0, 1)], {1: "a"}, 0, None), ([], {2: "b"}, None, {2})], {"a", "b"}),
    "no_components": ([], {"a"}),
    "no_rho": ([([], {1: "a"}, None, {1}), ([], {2: "b"}, None, {2})], {"a", "b"}),
    "two_rhos_and_overlaps": ([([(0, 1)], {1: "a"}, 0, None),
                               ([(0, 2)], {2: "b"}, 0, None),
                               ([], {1: "a"}, None, {1}),
                               ([], {5: "x"}, None, {5})],
                              {"a", "b", "c", "d"}),
}

# quotient(vertices, edges, rho, leaf_labels)
QUOTIENT_CASES = {
    "full_cherry": ({0, 1, 2, 3}, [E(0, 1), E(1, 2), E(1, 3)], 0,
                    {2: "a", 3: "b", 9: "z"}),
    "chain_contracted": ({0, 1, 2, 3, 4}, [E(0, 1), E(1, 2), E(2, 3), E(2, 4)], 0,
                         {3: "a", 4: "b"}),
    "rho_outside": ({1, 2, 3}, [E(1, 2), E(1, 3)], 0, {2: "a", 3: "b"}),
    "hidden_cycle": ({0, 1, 2, 3, 4}, [E(0, 4), E(1, 2), E(2, 3), E(3, 1)], 0,
                     {4: "a"}),
    "faulty_components": ({0, 1, 2, 3, 4, 5, 6, 7, 8},
                          [E(0, 1), E(1, 2), E(2, 3), E(4, 5), E(6, 5), E(7, 8)],
                          0, {3: "a", 5: "b"}),
}


def _raised(call):
    try:
        call()
    except InvalidDigraphError as exc:
        return list(exc.violations)
    return []


def violation_outputs():
    out = {}
    for name, args in NETWORK_CASES.items():
        out["network_violations/" + name] = network_violations(*args)
    for name, args in COMPONENT_CASES.items():
        out["component_violations/" + name] = component_violations(*args)
    for name, (es, labs, r, vs, allowed) in VALIDATE_COMPONENT_CASES.items():
        out["validate_component/" + name] = _raised(
            lambda: validate_component(es, labs, rho=r, vertices=vs,
                                       allowed_taxa=allowed))
    for name, (spec, taxa) in DIGRAPH_CASES.items():
        out["validate_digraph/" + name] = _raised(
            lambda: validate_digraph(_components(spec), taxa))
    for name, (vs, es, r, labs) in QUOTIENT_CASES.items():
        out["quotient/" + name] = _raised(lambda: quotient(vs, es, r, labs))
    return out


def _digest(chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk + b"\n")
    return h.hexdigest()


def _generated():
    # a tree-child network has fewer reticulations than leaves
    for leaves in (2, 3, 5, 8):
        for retics in range(4):
            for seed in (0, 1):
                if retics < leaves:
                    yield random_tree_child(leaves, retics, seed=seed)
                yield random_network(leaves, retics, seed=seed)
    yield random_tree_child(200, 1, seed=0)


def _move_stream(hosts, tree_child_only):
    for host in hosts:
        for move, succ in enumerate_moves(host, tree_child_only=tree_child_only):
            yield (repr(move) + "\n" + write_pnd(succ)).encode()


def digest_outputs():
    nets = list(enumerate_tree_child(4, 2))
    hosts = [nets[i] for i in (0, 7, 20, 45, 80)]
    move_hosts = list(enumerate_tree_child(3, 2))
    move_hosts += [random_network(3, 2, seed=s) for s in range(4)]
    return {
        "networks": len(nets),
        "canonical_signature": _digest(canonical_signature(n) for n in nets),
        "canonical_order": _digest(repr(canonical_order(n)).encode() for n in nets),
        "digraph_signature": _digest(itertools.chain.from_iterable(
            (digraph_signature(d) for _, _, d, _ in _checked_candidates(h))
            for h in hosts)),
        "generator_pnd": _digest(write_pnd(n).encode() for n in _generated()),
        "enumerate_moves/tree_child": _digest(_move_stream(move_hosts, True)),
        "enumerate_moves/all": _digest(_move_stream(move_hosts, False)),
    }


def test_violation_lists_match_golden():
    want = json.loads(VIOLATIONS.read_text(encoding="utf-8"))
    got = violation_outputs()
    assert list(got) == list(want)
    for key in want:
        assert got[key] == want[key], key


def test_violation_table_reaches_every_message():
    # a message family missing here would leave a checker's output unpinned
    text = "\n".join(m for ms in violation_outputs().values() for m in ms)
    families = [
        "network has no vertices", "is not an int", "has an endpoint outside",
        "self loop at vertex", "duplicate edge", "are not dense",
        "root 9 is not a vertex", "in-degree-zero vertices are",
        "has out-degree", "labelled vertex 9 is not a vertex", "has no label",
        "is not a leaf", "leaf labels are not distinct",
        "contains characters outside", "network contains a directed cycle",
        "component has no vertices", "leaves the vertex set",
        "rho 9 is not a vertex", "labelled vertex 7 is not a vertex",
        "rho must not carry a leaf label", "edgeless component with",
        "isolated vertex 3 is neither", "labelled vertex 1 has degree",
        "is a source with out-degree 1 but not rho", "expected (0, 1)",
        "component contains a directed cycle", "is not weakly connected",
        "is outside the allowed taxa", "digraph has no components",
        "expected exactly one component with rho", "appear in more than one",
        "appears in more than one component", "are missing",
        "are not in the taxon set", "through degree-(1,1) vertices",
    ]
    for family in families:
        assert family in text, family
    vertex_degree = [m for m in text.splitlines()
                     if m.startswith("vertex ") and " has degree " in m]
    assert len(vertex_degree) >= 2


def test_canonical_digests_match_golden():
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert digest_outputs() == want


if __name__ == "__main__":
    VIOLATIONS.write_text(json.dumps(violation_outputs(), indent=1) + "\n",
                          encoding="utf-8")
    DIGESTS.write_text(json.dumps(digest_outputs(), indent=1) + "\n",
                       encoding="utf-8")
    sys.exit(0)
