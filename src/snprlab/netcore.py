"""Rooted binary phylogenetic networks.

Model, validation, tree-child recognition, isomorphism, canonical signatures,
the edits of the three move kinds, and small-instance generators.

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


class _LabelledGraph:
    """Vertices, edges and leaf labels, with adjacency built on first use.

    Networks and digraph components are both leaf-labelled DAGs. Each
    subclass names its top vertex as _top: a network's root, or a digraph
    component's rho, which may be None.
    """

    __slots__ = ("vertices", "edges", "leaf_labels", "_out", "_in")

    def __init__(self, vertices, edges, leaf_labels):
        self.vertices = frozenset(vertices)
        self.edges = tuple(sorted(edges))
        self.leaf_labels = dict(leaf_labels)
        self._out = None
        self._in = None

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

    def out_degree(self, v):
        return len(self.out_edges(v))

    def in_degree(self, v):
        return len(self.in_edges(v))

    @property
    def taxa(self):
        return frozenset(self.leaf_labels.values())

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return (self.vertices == other.vertices and self.edges == other.edges
                and self._top == other._top and self.leaf_labels == other.leaf_labels)

    def __hash__(self):
        return hash((self.vertices, self.edges, self._top,
                     tuple(sorted(self.leaf_labels.items()))))


class Network(_LabelledGraph):
    """Immutable rooted binary phylogenetic network.

    Construct through validate(); the constructor itself checks nothing.
    """

    __slots__ = ("root", "_sig", "_mu", "_retics", "_tables", "_reach", "_leaves")

    def __init__(self, vertices, edges, root, leaf_labels):
        super().__init__(vertices, edges, leaf_labels)
        self.root = root
        self._sig = None
        self._mu = None
        self._retics = None
        self._tables = None
        self._reach = {}
        self._leaves = None

    _top = property(lambda self: self.root)

    def children(self, v):
        return tuple(e.dst for e in self.out_edges(v))

    def parents(self, v):
        return tuple(e.src for e in self.in_edges(v))

    @property
    def leaves(self):
        if self._leaves is None:
            out = self._adjacency()[0]
            self._leaves = frozenset(v for v in self.vertices if not out[v])
        return self._leaves

    def leaf_of_label(self, label):
        for v, lab in self.leaf_labels.items():
            if lab == label:
                return v
        raise KeyError(label)

    def reticulations(self):
        return tuple(sorted(v for v in self.vertices if self.in_degree(v) == 2))

    @property
    def reticulation_count(self):
        if self._retics is None:
            self._retics = sum(1 for v in self.vertices if self.in_degree(v) == 2)
        return self._retics

    def _edge_tables(self):
        """The tables a _Builder starts from, built once: edge ids are
        positions in self.edges, and the tuple holds src, dst and origin
        by id, the id of each edge, out and inn as frozensets of ids by
        vertex, and the first unused vertex id."""
        if self._tables is None:
            src, dst, origin, ids = {}, {}, {}, {}
            out = {v: [] for v in self.vertices}
            inn = {v: [] for v in self.vertices}
            for eid, e in enumerate(self.edges):
                src[eid], dst[eid] = e.src, e.dst
                origin[eid] = ("kept", e)
                ids[e] = eid
                out[e.src].append(eid)
                inn[e.dst].append(eid)
            self._tables = (src, dst, origin, ids,
                            {v: frozenset(es) for v, es in out.items()},
                            {v: frozenset(es) for v, es in inn.items()},
                            max(self.vertices) + 1)
        return self._tables

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

    def __repr__(self):
        return "Network(%d vertices, %d edges, %d reticulations)" % (
            len(self.vertices), len(self.edges), self.reticulation_count)


def _label_problems(vertices, leaf_labels):
    """Repeated labels, and labels with characters outside [A-Za-z0-9_],
    among the labels of vertices in the vertex set."""
    labels = [leaf_labels[v] for v in sorted(leaf_labels) if v in vertices]
    problems = [] if len(set(labels)) == len(labels) else ["leaf labels are not distinct"]
    for lab in labels:
        if not _LABEL_RE.match(lab):
            problems.append("label %r contains characters outside [A-Za-z0-9_]" % lab)
    return problems


def _scan(vertices, edges, outside, repeats=False):
    """The edge checks networks and digraph components share.

    Returns (bad edges, slots, out, inn, acyclic): the endpoint, self-loop
    and, with repeats, repeated-triple problems; the pairs whose slots are
    not dense; out- and in-degrees and acyclicity over the well-formed
    edges. outside completes the message for an edge leaving the vertex
    set. Callers order the parts.
    """
    out = dict.fromkeys(vertices, 0)
    inn = dict.fromkeys(vertices, 0)
    bad = []
    seen = set()
    succ = {v: [] for v in vertices}  # heads of the well-formed edges by tail
    by_pair = {}
    for e in edges:
        u, v, slot = e
        if u not in vertices or v not in vertices:
            bad.append("edge %r %s" % (e, outside))
        elif u == v:
            bad.append("self loop at vertex %d" % u)
        else:
            if repeats:
                if e in seen:
                    bad.append("duplicate edge %r" % (e,))
                seen.add(e)
            out[u] += 1
            inn[v] += 1
            succ[u].append(v)
        by_pair.setdefault((u, v), []).append(slot)
    slots = ["edge slots for %r are not dense" % (pair,)
             for pair, ss in by_pair.items() if sorted(ss) != list(range(len(ss)))]

    # Kahn: every vertex is popped exactly when the graph is acyclic
    remaining = dict(inn)
    queue = [v for v in vertices if not inn[v]]
    visited = 0
    while queue:
        visited += 1
        for w in succ[queue.pop()]:
            remaining[w] -= 1
            if not remaining[w]:
                queue.append(w)
    return bad, slots, out, inn, visited == len(vertices)


def network_violations(vertices, edges, root, leaf_labels) -> list:
    """All structural violations, as human-readable strings. Empty means valid."""
    vertices = set(vertices)
    if not vertices:
        return ["network has no vertices"]
    for v in vertices:
        if not isinstance(v, int):
            return ["vertex id %r is not an int" % (v,)]
    bad, problems, out, inn, acyclic = _scan(
        vertices, edges, "has an endpoint outside the vertex set", repeats=True)
    if bad:
        return bad

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
    problems += _label_problems(vertices, leaf_labels)

    for v in sorted(vertices):
        d = (inn[v], out[v])
        if v != root and d not in ((1, 0), (1, 2), (2, 1)):
            problems.append("vertex %d has degree %r" % (v, d))
    if not acyclic:
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
        heads = {e.dst for e in edges}
        sources = [v for v in sorted(vertices) if v not in heads]
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


def is_tree_child(g: _LabelledGraph) -> bool:
    """Every vertex with out-edges has a child of in-degree at most one.

    Reads any labelled graph: a network or one digraph component.
    """
    out, inn = g._adjacency()
    return all(any(len(inn[e.dst]) <= 1 for e in es) for es in out.values() if es)


def _require_tree_child_pair(n: Network, m: Network):
    """Raise InvalidNetworkError naming the first of the pair that is not tree-child."""
    for net, side in ((n, "first"), (m, "second")):
        if not is_tree_child(net):
            raise InvalidNetworkError(["%s network is not tree-child" % side])


def _canon_input(graphs, labels):
    """Vertices, arc pairs and seeds for _canon of labelled graphs together.

    Each top vertex (root or rho) is seeded 1 and each leaf 2 plus the
    index of its label in labels, so every label anchors one class.
    """
    index = {lab: i for i, lab in enumerate(labels)}
    vertices, arcs, seed = set(), [], {}
    for g in graphs:
        vertices |= g.vertices
        arcs += [(e.src, e.dst) for e in g.edges]
        if g._top is not None:
            seed[g._top] = 1
        for v, lab in g.leaf_labels.items():
            seed[v] = 2 + index[lab]
    return vertices, arcs, seed


def _signature(graphs, taxa) -> bytes:
    """Label-anchored canonical form of labelled graphs on taxa, together."""
    labels = sorted(taxa)
    enc, _ = _canon.canonical_labelling(*_canon_input(graphs, labels))
    return repr(tuple(labels)).encode() + b"|" + enc


def canonical_signature(n: Network) -> bytes:
    """Label-anchored canonical form; equal exactly for isomorphic networks."""
    if n._sig is None:
        n._sig = _signature([n], n.taxa)
    return n._sig


def _mu_key(g) -> bytes:
    """The mu-representation as bytes: the sorted multiset of vectors, one
    per vertex, that count the paths from the vertex to each leaf.

    g is a Network, whose key is cached in its _mu slot, or a _Builder,
    whose key is read off its own tables before anything is frozen. On
    tree-child networks the key is equal exactly for isomorphic networks
    (Cardona, Rossello & Valiente, IEEE/ACM TCBB 2009), and one bottom-up
    pass computes it. Each vector is packed into an int, one field of
    r + 1 bits per label in sorted order, r the reticulation count: a path
    from v to a leaf is fixed by the parent it takes at each of the r
    reticulations it meets going up, so no count exceeds 2^r and sums
    never carry between fields. The key carries the field width and the
    labels, and its prefix cannot start a canonical_signature, so the two
    kinds of key can share one dictionary.
    """
    if isinstance(g, Network):
        if g._mu is None:
            g._mu = _mu_key(_Builder(g))
        return g._mu
    src, dst, out, inn = g.src, g.dst, g.out, g.inn
    width = 1 + g.retics
    labels = sorted(g.labels.values())
    shift = {lab: i * width for i, lab in enumerate(labels)}
    mu = {v: 1 << shift[lab] for v, lab in g.labels.items()}
    left = {v: len(es) for v, es in out.items()}
    ready = list(mu)
    while ready:
        for eid in inn[ready.pop()]:
            u = src[eid]
            left[u] -= 1
            if not left[u]:
                mu[u] = sum(mu[dst[f]] for f in out[u])
                ready.append(u)
    return b"mu%d%r|%r" % (width, tuple(labels), sorted(mu.values()))


def canonical_order(n: Network) -> tuple:
    """Vertices in canonical position order (ties impossible: positions are a bijection)."""
    _, rank = _canon.canonical_labelling(*_canon_input([n], sorted(n.taxa)))
    return tuple(sorted(n.vertices, key=lambda v: rank[v]))


def isomorphism_map(n: Network, m: Network):
    """A label-preserving isomorphism n -> m as a dict, or None.

    Decided independently of canonical_signature so the two can cross-check
    each other.
    """
    if n.taxa != m.taxa:
        return None
    labels = sorted(n.taxa)
    return _canon.isomorphism_mapping(*_canon_input([n], labels),
                                      *_canon_input([m], labels))


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
    """Scratch copy of a network for local surgery.

    It starts from shallow copies of the network's edge tables and replaces
    a vertex's edge set on each edit instead of mutating it, so making one
    costs a few dict copies and leaves the network untouched. Tracks, for
    every edge of the result, how it arose from the input: kept, merged
    from a suppressed chain, half of a subdivision, or brand new. That lets
    callers carry edge-keyed bookkeeping through an edit without
    re-deriving it. It also records the vertices whose edges the edit
    changed, which is all keeps_tree_child reads, and keeps the
    reticulation count as edges come and go: the input's count plus the
    move's change, -1 for minus, +1 for plus and 0 for pm.
    """

    def __init__(self, net: Network):
        src, dst, origin, _, out, inn, next_v = net._edge_tables()
        self.root = net.root
        self.labels = net.leaf_labels
        self.src, self.dst, self.origin = src.copy(), dst.copy(), origin.copy()
        self.out, self.inn = out.copy(), inn.copy()
        self._next_v = next_v
        self._next_e = len(net.edges)
        self.retics = net.reticulation_count
        self.touched = set()

    def _set_in(self, v, eids):
        """Replace v's in-edges, keeping the reticulation count."""
        self.retics += (len(eids) == 2) - (len(self.inn[v]) == 2)
        self.inn[v] = eids

    def add_edge(self, u, v, origin=("new",)):
        eid = self._next_e
        self._next_e += 1
        self.src[eid] = u
        self.dst[eid] = v
        self.origin[eid] = origin
        self.out[u] = self.out[u] | {eid}
        self._set_in(v, self.inn[v] | {eid})
        self.touched.update((u, v))
        return eid

    def new_vertex(self):
        v = self._next_v
        self._next_v += 1
        self.out[v] = self.inn[v] = frozenset()
        return v

    def delete_edge(self, eid):
        """Remove an edge; returns its origin."""
        u, v = self.src.pop(eid), self.dst.pop(eid)
        self.out[u] = self.out[u] - {eid}
        self._set_in(v, self.inn[v] - {eid})
        self.touched.update((u, v))
        return self.origin.pop(eid)

    def subdivide(self, eid):
        """Split an edge with a fresh vertex; returns (vertex, upper id, lower id)."""
        u, v = self.src[eid], self.dst[eid]
        origin = self.origin[eid]
        mid = self.new_vertex()
        self.delete_edge(eid)
        upper = self.add_edge(u, mid, ("upper", origin))
        lower = self.add_edge(mid, v, ("lower", origin))
        return mid, upper, lower

    def suppress(self, v):
        """Remove a (1,1) vertex, merging its two edges; returns the id of
        the merged edge."""
        degree = (len(self.inn[v]), len(self.out[v]))
        if degree != (1, 1):
            raise MoveError("vertex %d has degree %r, cannot suppress" % (v, degree))
        ein = next(iter(self.inn[v]))
        eout = next(iter(self.out[v]))
        u, w = self.src[ein], self.dst[eout]
        o_in = self.delete_edge(ein)
        o_out = self.delete_edge(eout)
        merged = self.add_edge(u, w, ("merged", (o_in, o_out)))
        del self.out[v], self.inn[v]
        return merged

    def keeps_tree_child(self, whole=False):
        """Whether the result is tree-child, given that the input is, or
        whatever the input with whole.

        A vertex can lose its last child of in-degree at most one only when
        its own out-edges change or the in-edges of one of its children do,
        so unless whole only the live touched vertices and their parents
        are read.
        """
        out, inn, src, dst = self.out, self.inn, self.src, self.dst
        if whole:
            check = out
        else:
            check = set()
            for v in self.touched:
                if v in inn:
                    check.add(v)
                    for eid in inn[v]:
                        check.add(src[eid])
        for x in check:
            es = out[x]
            if es and all(len(inn[dst[eid]]) > 1 for eid in es):
                return False
        return True

    def to_network(self):
        """Compact ids and freeze.

        Returns (network, vertex_map, edge_origin) where vertex_map sends the
        builder's vertex ids to the result's dense ids, and edge_origin keys
        every result edge by its provenance in the input network.
        """
        vmap = {v: i for i, v in enumerate(sorted(self.out))}
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
        net._retics = self.retics
        return net, vmap, origin_of


def _edit(n: Network, kind, e: Edge, target: Edge = None) -> _Builder:
    """The move of the given kind on n, as a _Builder holding the result.

    snpr.Move says what kind, edge and target name. Raises MoveError when
    the move is not legal on n. Callers decide and key the result in the
    builder and freeze it with to_network only when they keep it.
    """
    ids = n._edge_tables()[3]  # edge -> id, one entry per edge of n
    if e not in ids:
        raise MoveError("edge %r is not an edge of the network" % (e,))
    u, v = e.src, e.dst
    if kind == "minus" and n.in_degree(v) != 2:
        raise MoveError("edge %r is not a reticulation edge" % (e,))
    if kind != "plus" and not (n.in_degree(u) == 1 and n.out_degree(u) == 2):
        raise MoveError("source of %r is not a tree vertex" % (e,))
    b = _Builder(n)

    if kind == "plus":
        head_mid, upper, _ = b.subdivide(ids[e])
        if target == e:
            eid_2 = upper
        else:
            if target not in ids:
                raise MoveError("edge %r is not an edge of the network" % (target,))
            if target.src in n.reachable_from(v):
                raise MoveError("target %r is a descendant of the new "
                                "reticulation" % (target,))
            eid_2 = ids[target]
        tail_mid, _, _ = b.subdivide(eid_2)
        b.add_edge(tail_mid, head_mid)
    else:
        # minus and pm both delete e and suppress its tail
        b.delete_edge(ids[e])
        merged = b.suppress(u)
        if kind == "minus":
            b.suppress(v)
        else:
            eid_f = ids.get(target)
            if eid_f not in b.src:
                # gone: e itself, a non-edge, or one of the two edges left
                # at u, which the merged edge now carries
                if eid_f is None or target == e:
                    raise MoveError("edge %r is no longer present" % (target,))
                eid_f = merged
            if b.src[eid_f] in n.reachable_from(v):
                raise MoveError("target %r is a descendant of the moved subtree"
                                % (target,))
            mid, _, _ = b.subdivide(eid_f)
            b.add_edge(mid, v)
    return b


def _plus_tails(n: Network, head: Edge) -> list:
    """The legal tail edges of a plus move with this head edge, sorted.

    A tail edge must not hang below the head, or the new edge would close a
    directed cycle. The head edge itself qualifies and names its upper half.
    """
    below = n.reachable_from(head.dst)
    return [t for t in n.edges if t.src not in below]


def delete_reticulation_edge(n: Network, edge: Edge) -> Network:
    """Delete a reticulation edge and suppress the two degree-two vertices.

    The tail must be a tree vertex. On tree-child input the result is again
    tree-child. This is the "minus" move of snpr.
    """
    return _edit(n, "minus", Edge(*edge)).to_network()[0]


# ---------------------------------------------------------------------------
# generators


def _labels_for(n_leaves):
    alphabet = "abcdefghijklmnopqrstuvwxyz"
    return [alphabet[i] if i < 26 else "t%d" % (i + 1) for i in range(n_leaves)]


def _single_leaf(label) -> Network:
    return Network([0, 1], [Edge(0, 1, 0)], 0, {1: label})


def _attach_leaf(tree: Network, edge: Edge, label) -> Network:
    """Subdivide an edge of a tree with dense vertex ids and hang a new leaf
    there; the two new vertices take the next two ids."""
    mid, leaf = len(tree.vertices), len(tree.vertices) + 1
    edges = [e for e in tree.edges if e != edge]
    edges += [Edge(edge.src, mid), Edge(mid, edge.dst), Edge(mid, leaf)]
    return Network(range(leaf + 1), edges, tree.root, {**tree.leaf_labels, leaf: label})


def _reticulation_insertions(n: Network):
    """All legal plus (head, tail) pairs, by head; each head's own pair first."""
    pairs = []
    for head in n.edges:
        pairs.append((head, head))
        pairs += [(head, t) for t in _plus_tails(n, head) if t != head]
    return pairs


def random_network(n_leaves, n_reticulations, seed=0, require_tree_child=False):
    """Random network by leaf attachment plus reticulation insertion.

    With require_tree_child every intermediate insertion is filtered to keep
    the tree-child property, decided before the candidate is frozen; raises
    when the requested count is unreachable.
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
            b = _edit(net, "plus", e1, e2)
            if not require_tree_child or b.keeps_tree_child():
                net = b.to_network()[0]
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
                b = _edit(net, "plus", e1, e2)
                if b.keeps_tree_child():
                    succ = b.to_network()[0]
                    nxt.setdefault(canonical_signature(succ), succ)
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
