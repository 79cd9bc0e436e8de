"""Rooted binary phylogenetic networks.

Model, validation, tree-child recognition, isomorphism, canonical signatures,
reticulation-edge deletion, and small-instance generators.

Vertices are ints. Leaves are exactly the vertices of out-degree zero and
carry the taxon labels. Parallel edges are legal and distinguished by slot.
"""

import math
import random
import re
from typing import NamedTuple

from . import _canon
from .errors import BudgetExceededError, InvalidNetworkError, MoveError

_LABEL_RE = re.compile(r"^[A-Za-z0-9_]+$")


class Edge(NamedTuple):
    src: int
    dst: int
    slot: int = 0


def _normalize_edges(raw) -> tuple:
    """Coerce (u, v[, slot]) items to Edge triples with dense slots per pair.

    Duplicate triples are kept and treated as parallel edges.
    """
    triples = []
    for item in raw:
        if len(item) == 2:
            u, v = item
            s = 0
        else:
            u, v, s = item
        triples.append((u, v, s))
    triples.sort()
    out = []
    prev = None
    slot = 0
    for u, v, s in triples:
        slot = slot + 1 if prev == (u, v) else 0
        out.append(Edge(u, v, slot))
        prev = (u, v)
    return tuple(out)


class Network:
    """Immutable rooted binary phylogenetic network.

    Construct through validate(); the constructor itself checks nothing.
    """

    __slots__ = ("vertices", "edges", "root", "leaf_labels",
                 "_out", "_in", "_sig", "_reach", "_leaves")

    def __init__(self, vertices, edges, root, leaf_labels):
        self.vertices = frozenset(vertices)
        self.edges = tuple(sorted(edges))
        self.root = root
        self.leaf_labels = dict(leaf_labels)
        self._out = None
        self._in = None
        self._sig = None
        self._reach = {}
        self._leaves = None

    def _adjacency(self):
        if self._out is None:
            out = {v: [] for v in self.vertices}
            inn = {v: [] for v in self.vertices}
            for e in self.edges:
                out[e.src].append(e)
                inn[e.dst].append(e)
            self._out = {v: tuple(es) for v, es in out.items()}
            self._in = {v: tuple(es) for v, es in inn.items()}
        return self._out, self._in

    def out_edges(self, v):
        return self._adjacency()[0][v]

    def in_edges(self, v):
        return self._adjacency()[1][v]

    def children(self, v):
        return tuple(e.dst for e in self.out_edges(v))

    def parents(self, v):
        return tuple(e.src for e in self.in_edges(v))

    def out_degree(self, v):
        return len(self.out_edges(v))

    def in_degree(self, v):
        return len(self.in_edges(v))

    @property
    def leaves(self):
        if self._leaves is None:
            out = self._adjacency()[0]
            self._leaves = frozenset(v for v in self.vertices if not out[v])
        return self._leaves

    @property
    def taxa(self):
        return frozenset(self.leaf_labels.values())

    def leaf_of_label(self, label):
        for v, lab in self.leaf_labels.items():
            if lab == label:
                return v
        raise KeyError(label)

    def reticulations(self):
        return tuple(sorted(v for v in self.vertices if self.in_degree(v) == 2))

    @property
    def reticulation_count(self):
        return sum(1 for v in self.vertices if self.in_degree(v) == 2)

    def tree_vertices(self):
        return tuple(sorted(v for v in self.vertices
                            if self.in_degree(v) == 1 and self.out_degree(v) == 2))

    @property
    def is_tree(self):
        return self.reticulation_count == 0

    def reachable_from(self, v):
        """All vertices reachable from v, including v itself."""
        cached = self._reach.get(v)
        if cached is not None:
            return cached
        seen = {v}
        stack = [v]
        while stack:
            x = stack.pop()
            for e in self.out_edges(x):
                if e.dst not in seen:
                    seen.add(e.dst)
                    stack.append(e.dst)
        result = frozenset(seen)
        self._reach[v] = result
        return result

    def __eq__(self, other):
        if not isinstance(other, Network):
            return NotImplemented
        return (self.vertices == other.vertices and self.edges == other.edges
                and self.root == other.root and self.leaf_labels == other.leaf_labels)

    def __hash__(self):
        return hash((self.vertices, self.edges, self.root,
                     tuple(sorted(self.leaf_labels.items()))))

    def __repr__(self):
        return "Network(%d vertices, %d edges, %d reticulations)" % (
            len(self.vertices), len(self.edges), self.reticulation_count)


def network_violations(vertices, edges, root, leaf_labels) -> list:
    """All structural violations, as human-readable strings. Empty means valid."""
    problems = []
    vertices = set(vertices)
    if not vertices:
        return ["network has no vertices"]
    for v in vertices:
        if not isinstance(v, int):
            problems.append("vertex id %r is not an int" % (v,))
            return problems

    out = {v: 0 for v in vertices}
    inn = {v: 0 for v in vertices}
    seen_slots = set()
    for e in edges:
        if e.src not in vertices or e.dst not in vertices:
            problems.append("edge %r has an endpoint outside the vertex set" % (e,))
            continue
        if e.src == e.dst:
            problems.append("self loop at vertex %d" % e.src)
            continue
        if e in seen_slots:
            problems.append("duplicate edge %r" % (e,))
        seen_slots.add(e)
        out[e.src] += 1
        inn[e.dst] += 1
    if problems:
        return problems

    # slots must be dense per ordered pair
    by_pair = {}
    for e in edges:
        by_pair.setdefault((e.src, e.dst), []).append(e.slot)
    for pair, slots in by_pair.items():
        if sorted(slots) != list(range(len(slots))):
            problems.append("edge slots for %r are not dense" % (pair,))

    sources = sorted(v for v in vertices if inn[v] == 0)
    if root not in vertices:
        problems.append("root %r is not a vertex" % (root,))
        return problems
    if sources != [root]:
        problems.append("in-degree-zero vertices are %r, expected exactly the root %d"
                        % (sources, root))
    if inn[root] == 0 and out[root] != 1:
        problems.append("root %d has out-degree %d, expected 1" % (root, out[root]))

    labelled = set(leaf_labels)
    sinks = {v for v in vertices if out[v] == 0}
    for v in labelled - vertices:
        problems.append("labelled vertex %d is not a vertex" % v)
    for v in sorted(sinks - labelled):
        problems.append("leaf %d has no label" % v)
    for v in sorted(labelled & vertices - sinks):
        problems.append("labelled vertex %d is not a leaf" % v)
    labels = [leaf_labels[v] for v in sorted(labelled & vertices)]
    if len(set(labels)) != len(labels):
        problems.append("leaf labels are not distinct")
    for lab in labels:
        if not _LABEL_RE.match(lab):
            problems.append("label %r contains characters outside [A-Za-z0-9_]" % lab)

    for v in sorted(vertices):
        d = (inn[v], out[v])
        if v == root:
            continue
        if d not in ((1, 0), (1, 2), (2, 1)):
            problems.append("vertex %d has degree %r" % (v, d))

    # cycle check (Kahn)
    remaining = dict(inn)
    queue = [v for v in vertices if remaining[v] == 0]
    visited = 0
    succ = {v: [] for v in vertices}
    for e in edges:
        succ[e.src].append(e.dst)
    while queue:
        v = queue.pop()
        visited += 1
        for w in succ[v]:
            remaining[w] -= 1
            if remaining[w] == 0:
                queue.append(w)
    if visited != len(vertices):
        problems.append("network contains a directed cycle")
    # a unique source plus acyclicity forces weak connectivity, so no
    # separate component check is needed
    return problems


def validate(edges, leaf_labels, root=None, vertices=None) -> Network:
    """Build a Network from raw data, raising InvalidNetworkError on any violation."""
    edges = _normalize_edges(edges)
    leaf_labels = dict(leaf_labels)
    if vertices is None:
        vertices = {e.src for e in edges} | {e.dst for e in edges} | set(leaf_labels)
        if root is not None:
            vertices.add(root)
    vertices = set(vertices)
    if root is None:
        sources = [v for v in sorted(vertices)
                   if not any(e.dst == v for e in edges)]
        if len(sources) != 1:
            raise InvalidNetworkError(
                ["cannot infer root: in-degree-zero vertices are %r" % (sources,)])
        root = sources[0]
    problems = network_violations(vertices, edges, root, leaf_labels)
    if problems:
        raise InvalidNetworkError(problems)
    return Network(vertices, edges, root, leaf_labels)


class TreeChildReport(NamedTuple):
    is_tree_child: bool
    stacks: tuple          # reticulation edges whose tail is also a reticulation
    sibling_reticulations: tuple  # (parent, retic, retic) triples
    parallel_pairs: tuple  # (src, dst) pairs with two edges


def tree_child_report(n: Network) -> TreeChildReport:
    """Classify how a network fails to be tree-child, if it does.

    On a valid network the tree-child property is exactly the absence of
    stacks, sibling reticulations and parallel edges, so the verdict is
    read off those patterns.
    """
    retics = set(n.reticulations())
    stacks = tuple(sorted(e for e in n.edges if e.dst in retics and e.src in retics))
    siblings = []
    for v in sorted(n.vertices):
        kids = n.children(v)
        if len(kids) == 2 and kids[0] != kids[1]:
            a, b = sorted(kids)
            if a in retics and b in retics:
                siblings.append((v, a, b))
    parallel = []
    seen = set()
    for e in n.edges:
        if e.slot > 0 and (e.src, e.dst) not in seen:
            seen.add((e.src, e.dst))
            parallel.append((e.src, e.dst))
    return TreeChildReport(not (stacks or siblings or parallel), stacks,
                           tuple(siblings), tuple(parallel))


def is_tree_child(n: Network) -> bool:
    """Every non-leaf vertex has a child of in-degree at most one."""
    return all(
        any(n.in_degree(c) <= 1 for c in n.children(v))
        for v in n.vertices if n.out_degree(v) > 0)


def _seed_map(n: Network, label_index):
    seed = {n.root: 1}
    for v, lab in n.leaf_labels.items():
        seed[v] = 2 + label_index[lab]
    return seed


def canonical_signature(n: Network) -> bytes:
    """Label-anchored canonical form; equal exactly for isomorphic networks."""
    if n._sig is not None:
        return n._sig
    labels = sorted(n.taxa)
    index = {lab: i for i, lab in enumerate(labels)}
    enc, _ = _canon.canonical_labelling(
        n.vertices, [(e.src, e.dst) for e in n.edges], _seed_map(n, index))
    n._sig = repr(tuple(labels)).encode() + b"|" + enc
    return n._sig


def canonical_order(n: Network) -> tuple:
    """Vertices in canonical position order (ties impossible: positions are a bijection)."""
    labels = sorted(n.taxa)
    index = {lab: i for i, lab in enumerate(labels)}
    _, rank = _canon.canonical_labelling(
        n.vertices, [(e.src, e.dst) for e in n.edges], _seed_map(n, index))
    return tuple(sorted(n.vertices, key=lambda v: rank[v]))


def isomorphism_map(n: Network, m: Network):
    """A label-preserving isomorphism n -> m as a dict, or None.

    Decided independently of canonical_signature so the two can cross-check
    each other.
    """
    if n.taxa != m.taxa:
        return None
    labels = sorted(n.taxa)
    index = {lab: i for i, lab in enumerate(labels)}
    return _canon.isomorphism_mapping(
        n.vertices, [(e.src, e.dst) for e in n.edges], _seed_map(n, index),
        m.vertices, [(e.src, e.dst) for e in m.edges], _seed_map(m, index))


def isomorphic(n: Network, m: Network) -> bool:
    """Label-preserving isomorphism, decided by canonical signatures."""
    return n.taxa == m.taxa and canonical_signature(n) == canonical_signature(m)


# ---------------------------------------------------------------------------
# local surgery


def _flatten_origin(origin):
    kind = origin[0]
    if kind == "kept":
        yield origin[1]
    elif kind == "merged":
        for part in origin[1]:
            yield from _flatten_origin(part)
    elif kind in ("upper", "lower"):
        yield from _flatten_origin(origin[1])
    # "new" contributes nothing


class _Builder:
    """Mutable scratch copy of a network for local surgery.

    Tracks, for every edge of the result, how it arose from the input: kept,
    merged from a suppressed chain, half of a subdivision, or brand new. That
    lets callers carry edge-keyed bookkeeping through an edit without
    re-deriving it.
    """

    def __init__(self, net: Network):
        self.root = net.root
        self.labels = dict(net.leaf_labels)
        self.vertices = set(net.vertices)
        self._next_v = max(net.vertices) + 1
        self._next_e = 0
        self.src = {}
        self.dst = {}
        self.origin = {}
        self.out = {v: set() for v in self.vertices}
        self.inn = {v: set() for v in self.vertices}
        self._by_orig = {}
        self._merged_into = {}
        self.new_vertex_ids = []
        for e in net.edges:
            eid = self._add(e.src, e.dst, ("kept", e))
            self._by_orig[e] = eid

    def _add(self, u, v, origin):
        eid = self._next_e
        self._next_e += 1
        self.src[eid] = u
        self.dst[eid] = v
        self.origin[eid] = origin
        self.out[u].add(eid)
        self.inn[v].add(eid)
        return eid

    def degree(self, v):
        return (len(self.inn[v]), len(self.out[v]))

    def resolve(self, edge: Edge) -> int:
        """Edge id currently carrying an original edge, following suppressions."""
        if edge in self._by_orig:
            return self._by_orig[edge]
        cur = edge
        while cur in self._merged_into:
            eid = self._merged_into[cur]
            if eid in self.src:
                return eid
            cur = eid  # stale; cannot happen with single-move surgery
        raise MoveError("edge %r is no longer present" % (edge,))

    def new_vertex(self):
        v = self._next_v
        self._next_v += 1
        self.vertices.add(v)
        self.out[v] = set()
        self.inn[v] = set()
        self.new_vertex_ids.append(v)
        return v

    def delete_edge(self, eid):
        """Remove an edge; returns its origin."""
        u, v = self.src.pop(eid), self.dst.pop(eid)
        self.out[u].discard(eid)
        self.inn[v].discard(eid)
        origin = self.origin.pop(eid)
        for orig in _flatten_origin(origin):
            self._by_orig.pop(orig, None)
        return origin

    def add_edge(self, u, v, origin=("new",)):
        return self._add(u, v, origin)

    def subdivide(self, eid):
        """Split an edge with a fresh vertex; returns (vertex, upper id, lower id)."""
        u, v = self.src[eid], self.dst[eid]
        origin = self.origin[eid]
        mid = self.new_vertex()
        self.delete_edge(eid)
        upper = self._add(u, mid, ("upper", origin))
        lower = self._add(mid, v, ("lower", origin))
        return mid, upper, lower

    def suppress(self, v):
        """Remove a (1,1) vertex, merging its two edges."""
        if self.degree(v) != (1, 1):
            raise MoveError("vertex %d has degree %r, cannot suppress"
                            % (v, self.degree(v)))
        ein = next(iter(self.inn[v]))
        eout = next(iter(self.out[v]))
        u, w = self.src[ein], self.dst[eout]
        o_in = self.delete_edge(ein)
        o_out = self.delete_edge(eout)
        merged = self._add(u, w, ("merged", (o_in, o_out)))
        for orig in list(_flatten_origin(("merged", (o_in, o_out)))):
            self._merged_into[orig] = merged
        self.vertices.discard(v)
        del self.out[v], self.inn[v]
        return merged

    def to_network(self):
        """Compact ids and freeze.

        Returns (network, vertex_map, edge_origin) where vertex_map sends the
        builder's vertex ids to the result's dense ids, and edge_origin keys
        every result edge by its provenance in the input network.
        """
        live = sorted(self.vertices)
        vmap = {v: i for i, v in enumerate(live)}
        by_pair = {}
        for eid in sorted(self.src):
            u, v = vmap[self.src[eid]], vmap[self.dst[eid]]
            by_pair.setdefault((u, v), []).append(eid)
        edges = []
        origin_of = {}
        for (u, v), eids in by_pair.items():
            for slot, eid in enumerate(eids):
                e = Edge(u, v, slot)
                edges.append(e)
                origin_of[e] = self.origin[eid]
        labels = {vmap[v]: lab for v, lab in self.labels.items()}
        net = Network(vmap.values(), edges, vmap[self.root], labels)
        return net, vmap, origin_of


def delete_reticulation_edge(n: Network, edge: Edge) -> Network:
    """Delete a reticulation edge and suppress the two degree-two vertices.

    The tail must be a tree vertex. On tree-child input the result is again
    tree-child.
    """
    if edge not in n.edges:
        raise MoveError("edge %r is not in the network" % (edge,))
    u, v = edge.src, edge.dst
    if n.in_degree(v) != 2:
        raise MoveError("edge %r does not end in a reticulation" % (edge,))
    if not (n.in_degree(u) == 1 and n.out_degree(u) == 2):
        raise MoveError("tail of %r is not a tree vertex" % (edge,))
    b = _Builder(n)
    b.delete_edge(b.resolve(edge))
    b.suppress(u)
    b.suppress(v)
    net, _, _ = b.to_network()
    return net


# ---------------------------------------------------------------------------
# generators


def _labels_for(n_leaves):
    alphabet = "abcdefghijklmnopqrstuvwxyz"
    return [alphabet[i] if i < 26 else "t%d" % (i + 1) for i in range(n_leaves)]


def _single_leaf(label) -> Network:
    return Network([0, 1], [Edge(0, 1, 0)], 0, {1: label})


def _attach_leaf(n: Network, edge: Edge, label) -> Network:
    b = _Builder(n)
    mid, _, _ = b.subdivide(b.resolve(edge))
    leaf = b.new_vertex()
    b.add_edge(mid, leaf)
    b.labels[leaf] = label
    net, _, _ = b.to_network()
    return net


def _insert_reticulation(n: Network, e1: Edge, e2: Edge) -> Network:
    """Subdivide e1 (new reticulation) and e2 (new tree vertex), join them.

    e2 == e1 means the upper half of e1, which yields a parallel pair. The
    source of e2 must not be reachable from the head of e1, which is exactly
    what keeps the result acyclic.
    """
    if e1 not in n.edges:
        raise MoveError("edge %r is not in the network" % (e1,))
    if e2 != e1:
        if e2 not in n.edges:
            raise MoveError("edge %r is not in the network" % (e2,))
        if e2.src in n.reachable_from(e1.dst):
            raise MoveError("target edge %r hangs below the new reticulation" % (e2,))
    b = _Builder(n)
    v_new, upper1, _ = b.subdivide(b.resolve(e1))
    target = upper1 if e2 == e1 else b.resolve(e2)
    u_new, _, _ = b.subdivide(target)
    b.add_edge(u_new, v_new)
    net, _, _ = b.to_network()
    return net


def _reticulation_insertions(n: Network):
    """All legal (e1, e2) pairs for _insert_reticulation, sorted."""
    pairs = []
    for e1 in n.edges:
        below = n.reachable_from(e1.dst)
        pairs.append((e1, e1))
        for e2 in n.edges:
            if e2 != e1 and e2.src not in below:
                pairs.append((e1, e2))
    return pairs


def random_network(n_leaves, n_reticulations, seed=0, require_tree_child=False):
    """Random network by leaf attachment plus reticulation insertion.

    With require_tree_child every intermediate insertion is filtered to keep
    the tree-child property; raises when the requested count is unreachable.
    """
    if n_leaves < 1:
        raise ValueError("need at least one leaf")
    if n_reticulations < 0:
        raise ValueError("reticulation count cannot be negative")
    rng = random.Random(seed)
    labels = _labels_for(n_leaves)
    net = _single_leaf(labels[0])
    for lab in labels[1:]:
        edge = rng.choice(sorted(net.edges))
        net = _attach_leaf(net, edge, lab)
    for _ in range(n_reticulations):
        pairs = _reticulation_insertions(net)
        rng.shuffle(pairs)
        for e1, e2 in pairs:
            candidate = _insert_reticulation(net, e1, e2)
            if not require_tree_child or is_tree_child(candidate):
                net = candidate
                break
        else:
            raise BudgetExceededError(
                "no legal reticulation insertion from %r" % (net,))
    return net


def random_tree_child(n_leaves, n_reticulations, seed=0) -> Network:
    """Random tree-child network; deterministic in the seed."""
    return random_network(n_leaves, n_reticulations, seed, require_tree_child=True)


def enumerate_tree_child(n_leaves, max_reticulations=0, leaf_limit=5):
    """All tree-child networks up to isomorphism, by reticulation count.

    Trees come from leaf insertion; each further level applies every legal
    tree-child reticulation insertion to the previous level and dedupes by
    canonical signature. Networks are yielded level by level in signature
    order. Guarded by leaf_limit because the space explodes quickly.
    """
    if n_leaves < 1:
        raise ValueError("need at least one leaf")
    if n_leaves > leaf_limit:
        raise ValueError("n_leaves %d exceeds leaf_limit %d" % (n_leaves, leaf_limit))
    if max_reticulations < 0:
        raise ValueError("reticulation count cannot be negative")
    labels = _labels_for(n_leaves)
    level = {canonical_signature(n): n for n in [_single_leaf(labels[0])]}
    for lab in labels[1:]:
        nxt = {}
        for _, net in sorted(level.items()):
            for edge in net.edges:
                bigger = _attach_leaf(net, edge, lab)
                nxt.setdefault(canonical_signature(bigger), bigger)
        level = nxt
    for _, net in sorted(level.items()):
        yield net
    for _ in range(max_reticulations):
        nxt = {}
        for _, net in sorted(level.items()):
            for e1, e2 in _reticulation_insertions(net):
                candidate = _insert_reticulation(net, e1, e2)
                if is_tree_child(candidate):
                    nxt.setdefault(canonical_signature(candidate), candidate)
        level = nxt
        for _, net in sorted(level.items()):
            yield net


def rooted_tree_count(n_leaves) -> int:
    """(2n-3)!! rooted binary tree shapes on n labelled leaves."""
    if n_leaves < 1:
        raise ValueError("need at least one leaf")
    if n_leaves <= 2:
        return 1
    return math.prod(range(2 * n_leaves - 3, 0, -2))
