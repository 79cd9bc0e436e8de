"""The only module through which the benchmark calls snprlab.

Every library entry point the benchmark uses is named here, so an API
change (a renamed function, a dropped keyword) is a change to this file
alone. The other benchmark modules import nothing from snprlab directly.

Calls go through the package attribute at call time (``snprlab.dtc``,
not a name bound at import), so the tracing wrappers installed by
``spans.py`` see every call the benchmark makes.
"""

import snprlab
import snprlab.cli

SnprLabError = snprlab.SnprLabError
CLI_MODULE = "snprlab.cli"
EXIT_OK = snprlab.cli.EXIT_OK
EXIT_BUDGET = snprlab.cli.EXIT_BUDGET

# Library functions the traced run wraps, as (metric name, module, attribute).
# Each wrapper replaces the function under every name any snprlab module
# binds it to, which is where the calling module looks it up. Generators
# are marked, because a generator's span is one segment per resumption.
TRACED = [
    ("netcore.canonical_signature", "snprlab.netcore", "canonical_signature"),
    ("netcore.is_tree_child", "snprlab.netcore", "is_tree_child"),
    ("netcore.tree_child_report", "snprlab.netcore", "tree_child_report"),
    ("netcore.isomorphic", "snprlab.netcore", "isomorphic"),
    ("netcore.isomorphism_map", "snprlab.netcore", "isomorphism_map"),
    ("netcore.random_tree_child", "snprlab.netcore", "random_tree_child"),
    ("snpr.dtc", "snprlab.snpr", "dtc"),
    ("snpr.enumerate_moves", "snprlab.snpr", "enumerate_moves"),
    ("snpr.apply_move", "snprlab.snpr", "apply_move"),
    ("phyloio.moves_to_json", "snprlab.snpr", "moves_to_json"),
    ("agreement.mtc", "snprlab.agreement", "mtc"),
    ("agreement.candidate_from_edges", "snprlab.agreement", "candidate_from_edges"),
    ("agreement.maf_rspr", "snprlab.agreement", "maf_rspr"),
    ("digraphcore.quotient_with_paths", "snprlab.digraphcore", "_quotient_with_paths"),
    ("digraphcore.component_violations", "snprlab.digraphcore", "component_violations"),
    ("digraphcore.validate_component", "snprlab.digraphcore", "validate_component"),
    ("digraphcore.validate_digraph", "snprlab.digraphcore", "validate_digraph"),
    ("digraphcore.digraph_signature", "snprlab.digraphcore", "digraph_signature"),
    ("digraphcore.is_tree_child_digraph", "snprlab.digraphcore", "is_tree_child_digraph"),
    ("embed.find_embedding", "snprlab.embed", "find_embedding"),
    ("embed.extend", "snprlab.embed", "extend"),
    ("embed.root_extend", "snprlab.embed", "root_extend"),
    ("embed.cut_size", "snprlab.embed", "cut_size"),
    ("phyloio.parse_enewick", "snprlab.phyloio", "parse_enewick"),
    ("phyloio.write_enewick", "snprlab.phyloio", "write_enewick"),
    ("phyloio.write_witness_bundle", "snprlab.phyloio", "write_witness_bundle"),
    ("cli.main", "snprlab.cli", "main"),
]
GENERATORS = {"snpr.enumerate_moves"}

# The neighbour cache class, replaced by a counting subclass when traced.
CACHE_CLASS = ("snprlab.snpr", "NeighborCache")


def parse(text):
    return snprlab.parse_enewick(text)


def write(net):
    return snprlab.write_enewick(net)


def generate(leaves, retics, seed):
    return snprlab.random_tree_child(leaves, retics, seed=seed)


def all_trees(leaves):
    return list(snprlab.enumerate_tree_child(leaves, 0))


def new_cache():
    return snprlab.NeighborCache()


def cache_size(cache):
    """Signatures the cache holds a representative for."""
    return len(cache.rep)


def distance(n, m, cache, witness=True):
    """Exact distance and its witness move sequence (None without witness)."""
    return snprlab.dtc(n, m, cache=cache, witness=witness, bidirectional=True)


def measure(n, m):
    """Exact measure and its agreement witness."""
    return snprlab.mtc(n, m)


def witness_total(w):
    return w.cut_n + w.cut_m


def forest(t, u):
    """Prune-regraft distance of two trees by agreement-forest enumeration."""
    return snprlab.maf_rspr(t, u)


def moves(n):
    """Every tree-child (move, successor) pair, in the library's order."""
    return list(snprlab.enumerate_moves(n))


def apply(n, move):
    return snprlab.apply_move(n, move)


def sequence_moves(seq):
    return seq.moves


def move_weight(move):
    return snprlab.WEIGHTS[move.kind]


def moves_from_json(text):
    return snprlab.moves_from_json(text)


def pm_move(edge, target):
    """A prune-regraft move; its legality shows only when applied."""
    return snprlab.Move("pm", edge, target)


def iso_map(n, m):
    return snprlab.isomorphism_map(n, m)


def counts(n):
    return (len(n.vertices), len(n.edges), len(n.leaves), n.reticulation_count)


def is_tree(n):
    return n.reticulation_count == 0


def tree_key(t):
    """Sorted nested-tuple form of a tree, equal exactly for equal trees.

    Built from the network's own adjacency, not from any library
    canonical form, so it can serve as an independent oracle.
    """
    def rec(v):
        if v in t.leaf_labels:
            return t.leaf_labels[v]
        return "(" + ",".join(sorted(rec(c) for c in t.children(v))) + ")"
    return rec(t.root)


def cli_main(argv):
    return snprlab.cli.main(argv)
