"""Rooted binary phylogenetic networks.

Model, validation, tree-child recognition, isomorphism, canonical signatures,
the edits of the three move kinds, and small-instance generators.

Vertices are ints. Leaves are exactly the vertices of out-degree zero and
carry the taxon labels. Parallel edges are legal and distinguished by slot.
"""

import bisect
import itertools
import math
import random
import re
from array import array
from typing import NamedTuple

from . import _canon
from .errors import BudgetExceededError, InvalidNetworkError, MoveError

_LABEL_RE = re.compile(r"[A-Za-z0-9_]+\Z")


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

    __slots__ = ("root", "_sig", "_mu", "_retics", "_reach", "_leaves", "_clusters")

    def __init__(self, vertices, edges, root, leaf_labels):
        super().__init__(vertices, edges, leaf_labels)
        self.root = root
        self._sig = None
        self._mu = None
        self._retics = None
        self._reach = {}
        self._leaves = None
        self._clusters = None

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

    @property
    def is_tree(self):
        return self.reticulation_count == 0

    def reachable_from(self, v):
        """All vertices reachable from v, including v itself, kept on the
        network."""
        cached = self._reach.get(v)
        if cached is None:
            cached = self._reach[v] = frozenset(_below(self, v))
        return cached

    def __repr__(self):
        return "Network(%d vertices, %d edges, %d reticulations)" % (
            len(self.vertices), len(self.edges), self.reticulation_count)


def _below(n: Network, v) -> set:
    """All vertices reachable from v, including v itself, walked afresh:
    the move generators ask once per edge and keep nothing on n."""
    out = n._adjacency()[0]
    seen = {v}
    stack = [v]
    while stack:
        for e in out[stack.pop()]:
            if e.dst not in seen:
                seen.add(e.dst)
                stack.append(e.dst)
    return seen


def _cluster_bits(g: _LabelledGraph, bit) -> dict:
    """Vertex -> the bits of the labels of the leaves below it, where bit
    maps each label to its bit. Children come before their parents, in the
    walk and in the dict, and the walk keeps its own list, so depth meets no
    recursion limit."""
    out, inn = g._adjacency()
    labels = g.leaf_labels
    left = {v: len(es) for v, es in out.items()}
    ready = [v for v, k in left.items() if not k]
    below = {}
    while ready:
        v = ready.pop()
        y = bit[labels[v]] if v in labels else 0
        for e in out[v]:
            y |= below[e.dst]
        below[v] = y
        for e in inn[v]:
            left[e.src] -= 1
            if not left[e.src]:
                ready.append(e.src)
    return below


def _leaf_clusters(n: Network):
    """(bit, leaf, below), built once and kept on n: bit maps each label to
    its bit, one per taxon in sorted order; leaf maps each label to its leaf;
    below maps each vertex to the bits of the leaves below it."""
    if n._clusters is None:
        bit = {lab: 1 << i for i, lab in enumerate(sorted(n.taxa))}
        leaf = {lab: v for v, lab in n.leaf_labels.items()}
        n._clusters = (bit, leaf, _cluster_bits(n, bit))
    return n._clusters


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


def _mu_key(n: Network) -> bytes:
    """The mu-representation as bytes: the sorted multiset of vectors, one
    per vertex, that count the paths from the vertex to each leaf.

    It is read off n's adjacency and cached in its _mu slot; _Keyer keys
    the successors of a tree-child network without an edit. On tree-child
    networks the key is equal exactly for isomorphic networks (Cardona,
    Rossello & Valiente, IEEE/ACM TCBB 2009), and one bottom-up
    pass computes it. Each vector is packed into an int, one field of
    r + 1 bits per label in sorted order, r the reticulation count: a path
    from v to a leaf is fixed by the parent it takes at each of the r
    reticulations it meets going up, so no count exceeds 2^r and sums
    never carry between fields. The key carries the field width and the
    labels, and its prefix cannot start a canonical_signature, so the two
    kinds of key can share one dictionary.
    """
    if n._mu is None:
        out, inn = n._adjacency()
        width = 1 + n.reticulation_count
        labels = tuple(sorted(n.leaf_labels.values()))
        shift = {lab: i * width for i, lab in enumerate(labels)}
        mu = {v: 1 << shift[lab] for v, lab in n.leaf_labels.items()}
        left = {v: len(es) for v, es in out.items()}
        ready = list(mu)
        while ready:
            for e in inn[ready.pop()]:
                u = e.src
                left[u] -= 1
                if not left[u]:
                    mu[u] = sum(mu[f.dst] for f in out[u])
                    ready.append(u)
        n._mu = _mu_bytes(_mu_prefix(width, labels), list(mu.values()))
    return n._mu


def _mu_prefix(width, labels) -> bytes:
    """The part of a mu key fixed by the field width and the sorted labels."""
    return b"mu%d%r|" % (width, labels)


def _mu_bytes(prefix, packed) -> bytes:
    """The mu key of the list of every vertex's packed vector, which it
    sorts in place, after the prefix _mu_prefix formats."""
    packed.sort()
    return b"%s%r" % (prefix, packed)


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
    """Scratch copy of a network for the surgery of one _edit.

    It starts from shallow copies of the network's adjacency, tuples of
    Edge by vertex, and replaces a vertex's tuple on each edit instead of
    mutating it, so making one costs two dict copies and leaves the
    network untouched. Each edge it adds is named Edge(u, v, k), k counting
    up from the input's edge count: every new slot is above every input
    slot, so edges between one pair of vertices sort in creation order
    after the kept ones. Tracks, for every edge of the result, how it arose
    from the input: kept, merged from a suppressed chain, half of a
    subdivision, or brand new. That lets callers carry edge-keyed
    bookkeeping through an edit without re-deriving it.
    """

    def __init__(self, net: Network):
        out, inn = net._adjacency()
        self.root = net.root
        self.labels = net.leaf_labels
        self.out, self.inn = out.copy(), inn.copy()
        self.origin = {}  # the added edges; every other edge is kept
        self._next_v = max(net.vertices) + 1
        self._next_e = len(net.edges)

    def add_edge(self, u, v, origin=("new",)):
        e = Edge(u, v, self._next_e)
        self._next_e += 1
        self.origin[e] = origin
        self.out[u] += (e,)
        self.inn[v] += (e,)
        return e

    def delete_edge(self, e):
        """Remove an edge; returns its origin."""
        self.out[e.src] = _without(self.out[e.src], e)
        self.inn[e.dst] = _without(self.inn[e.dst], e)
        return self.origin.pop(e, None) or ("kept", e)

    def subdivide(self, e):
        """Split an edge with a fresh vertex; returns (vertex, upper, lower)."""
        origin = self.delete_edge(e)
        mid = self._next_v
        self._next_v += 1
        self.out[mid] = self.inn[mid] = ()
        upper = self.add_edge(e.src, mid, ("upper", origin))
        lower = self.add_edge(mid, e.dst, ("lower", origin))
        return mid, upper, lower

    def suppress(self, v):
        """Remove a (1,1) vertex, merging its two edges; returns the merged
        edge."""
        degree = (len(self.inn[v]), len(self.out[v]))
        if degree != (1, 1):
            raise MoveError("vertex %d has degree %r, cannot suppress" % (v, degree))
        (ein,) = self.inn[v]
        (eout,) = self.out[v]
        o_in = self.delete_edge(ein)
        o_out = self.delete_edge(eout)
        merged = self.add_edge(ein.src, eout.dst, ("merged", (o_in, o_out)))
        del self.out[v], self.inn[v]
        return merged

    def to_network(self):
        """Compact ids and freeze.

        Returns (network, vertex_map, edge_origin) where vertex_map sends the
        builder's vertex ids to the result's dense ids, and edge_origin keys
        every result edge by its provenance in the input network. vertex_map
        keeps the order of ids, so the edges, read in sorted order, come out
        sorted, each pair's slots dense in the order of the builder's.
        """
        vmap = {v: i for i, v in enumerate(sorted(self.out))}
        edges = []
        origin_of = {}
        pair = None
        slot = 0
        for e in sorted(e for es in self.out.values() for e in es):
            slot = slot + 1 if (e.src, e.dst) == pair else 0
            pair = (e.src, e.dst)
            f = Edge(vmap[e.src], vmap[e.dst], slot)
            edges.append(f)
            origin_of[f] = self.origin.get(e) or ("kept", e)
        labels = {vmap[v]: lab for v, lab in self.labels.items()}
        return Network(vmap.values(), edges, vmap[self.root], labels), vmap, origin_of


def _without(edges, e):
    """The tuple edges with e taken out."""
    i = edges.index(e)
    return edges[:i] + edges[i + 1:]


def _is_edge(out, e) -> bool:
    """Whether e is an edge of the graph with out-adjacency out."""
    return e in out.get(e.src, ())


def _edit(n: Network, kind, e: Edge, target: Edge = None):
    """The move of the given kind on n, frozen: the triple of
    _Builder.to_network.

    snpr.Move says what kind, edge and target name. Raises MoveError when
    the move is not legal on n. The builder lives only for this call; on
    tree-child n, _Keyer decides and keys a move without it.
    """
    out, inn = n._adjacency()
    if not _is_edge(out, e):
        raise MoveError("edge %r is not an edge of the network" % (e,))
    u, v = e.src, e.dst
    if kind == "minus" and len(inn[v]) != 2:
        raise MoveError("edge %r is not a reticulation edge" % (e,))
    if kind != "plus" and not (len(inn[u]) == 1 and len(out[u]) == 2):
        raise MoveError("source of %r is not a tree vertex" % (e,))
    b = _Builder(n)

    if kind == "plus":
        head_mid, upper, _ = b.subdivide(e)
        if target == e:
            target = upper
        elif not _is_edge(out, target):
            raise MoveError("edge %r is not an edge of the network" % (target,))
        elif target.src in n.reachable_from(v):
            raise MoveError("target %r is a descendant of the new "
                            "reticulation" % (target,))
        tail_mid, _, _ = b.subdivide(target)
        b.add_edge(tail_mid, head_mid)
    else:
        # minus and pm both delete e and suppress its tail
        b.delete_edge(e)
        merged = b.suppress(u)
        if kind == "minus":
            b.suppress(v)
        else:
            if target == e or not _is_edge(out, target):
                raise MoveError("edge %r is no longer present" % (target,))
            if not _is_edge(b.out, target):
                # one of u's two other edges, which the merged edge carries
                target = merged
            if target.src in n.reachable_from(v):
                raise MoveError("target %r is a descendant of the moved subtree"
                                % (target,))
            mid, _, _ = b.subdivide(target)
            b.add_edge(mid, v)
    return b.to_network()


def _plus_tails(n: Network, head: Edge) -> list:
    """The legal tail edges of a plus move with this head edge, sorted.

    A tail edge must not hang below the head, or the new edge would close a
    directed cycle. The head edge itself qualifies and names its upper half.
    """
    below = _below(n, head.dst)
    return [t for t in n.edges if t.src not in below]


# ---------------------------------------------------------------------------
# successors decided and keyed before any edit


_RETIC_CHANGE = {"minus": -1, "pm": 0, "plus": 1}


class _Keyer:
    """Decides and keys the results of the legal moves on one tree-child
    network n from tables read once off n, before any edit. A caller makes
    one per expansion and drops it after; nothing of it is stored on n.

    keeps_tree_child(kind, e, target) says whether the result is
    tree-child: every vertex with out-edges has a child of in-degree at
    most one. No move changes the in-degree of a vertex of n that it
    keeps, since each edge it deletes or subdivides into a kept vertex is
    replaced by exactly one edge into it. So only the new vertices and the
    vertices whose children change can fail:

    - minus on (u, v), u with parent p and other child c, v with other
      parent q and child w: p trades u for c, and q trades v for w. In n,
      c has in-degree one, since u needs such a child and v is a
      reticulation, and q has a child of in-degree one besides v. So a
      minus move always keeps tree-child.
    - pm on e = (u, v) into (a, b), u with parent p and other child c:
      the new vertex m has children b and v, a trades b for m, which has
      in-degree one, and p trades u for c. The target named by u's other
      out-edge (u, c) is the merged edge p -> c, so then a is p. The
      result is tree-child iff v or b is not a reticulation, and a is p
      or p has a child of in-degree one once u is replaced by c.
    - plus with head (x, y) and tail (a, b): the new head h is a
      reticulation with the one child y, the new tail t has children b
      and h, a trades b for t, which has in-degree one, and x trades y for
      h. A tail equal to the head names its upper half and gives t two
      edges into h. The result is tree-child iff the tail is not the head,
      neither y nor b is a reticulation, and x is a or has a child of
      in-degree one besides y.

    key(kind, e, target) gives the result's mu key and reticulation count
    r'. Its tables, built on the first call, are P(z, x), the number of
    paths from z to x for every vertex x and each of its ancestors z (x
    itself counting one), and, per field width w, mu_w(z): z's vector of
    path counts to the leaves packed at w bits per field as in _mu_key,
    with the key's fixed part at w, formatted once by _mu_prefix. Packing
    is linear, mu_w(z) being the sum over leaves l of P(z, l) << (i_l * w),
    so each integer identity between count vectors holds between their
    packings. The result is keyed at width r' + 1, by _mu_bytes, the one
    formatter of _mu_key too, so both give the same bytes.

    A move changes the paths from z to the leaves only through the edge it
    deletes and the edge it adds. The paths through a deleted edge (u, v)
    are a path from z to u, the edge, and a path from v down: P(z, u) mu(v)
    of them. The paths through the added edge run from z to its new tail,
    which subdivides (a, b), and on down from v (for plus, v is the head
    edge's y, below the new head). The paths from z to a are the same in n
    and in the result: a is not below v, so none of them uses (u, v), and
    those through a suppressed vertex keep their number through the merged
    edge. Nothing below v changes, so mu'(v) = mu(v). Hence, for every
    kept vertex z:

    - minus on (u, v): mu'(z) = mu(z) - P(z, u) mu(v); u and v go.
    - pm on (u, v) into (a, b): mu'(z) = mu(z) - P(z, u) mu(v) + P(z, a) mu(v).
      u goes and the new vertex gets mu'(b) + mu(v); b may be an ancestor
      of u, so it takes mu'(b), not mu(b). The merged target, named (u, c),
      subdivides p -> c for u's parent p, but P(z, u) = P(z, p) for every
      kept z, so a = u gives the same sums.
    - plus with head (x, y) and tail (a, b): mu'(z) = mu(z) + P(z, a) mu(y).
      The new head gets mu(y) and the new tail mu(b) + mu(y): b lies below
      a, so mu'(b) = mu(b). A tail equal to the head gives b = y, and
      2 mu(y) counts the tail's two edges into the head.

    No field carries: every field of mu'(z) is a path count of the result,
    at most 2^r', so it fits its r' + 1 bits, and by linearity the integer
    formula is exactly the packing of that vector, whatever the parent's
    counts take at this width. At a minus result's width r a parent count
    of 2^r overflows its field, and the subtraction brings every field back
    within it; for pm the subtraction comes before the addition, so every
    intermediate value is the packing of true path counts.
    """

    def __init__(self, n: Network):
        self._net = n
        self._out, self._inn = n._adjacency()
        self._retic = {v for v, es in self._inn.items() if len(es) == 2}
        self._paths = None

    def keeps_tree_child(self, kind, e: Edge, target: Edge = None) -> bool:
        """Whether the result of the legal move is tree-child."""
        if kind == "minus":
            return True
        retic, out = self._retic, self._out
        u, v = e.src, e.dst
        a, b = target.src, target.dst
        if kind == "plus":
            if target == e or v in retic or b in retic:
                return False
            return a == u or any(f.dst not in retic for f in out[u] if f != e)
        if v in retic and b in retic:
            return False
        p = self._inn[u][0].src
        if a in (u, p):  # a == u names the merged edge p -> c
            return True
        c = next(f.dst for f in out[u] if f != e)
        return any((c if f.dst == u else f.dst) not in retic for f in out[p])

    def _tables(self):
        n, out = self._net, self._out
        counts = {n.root: {n.root: 1}}
        left = {v: len(es) for v, es in self._inn.items()}
        order = [n.root]
        for x in order:  # parents first, so x's own counts are complete
            cx = counts[x]
            for e in out[x]:
                y = e.dst
                cy = counts.setdefault(y, {y: 1})
                for z, k in cx.items():
                    cy[z] = cy.get(z, 0) + k
                left[y] -= 1
                if not left[y]:
                    order.append(y)
        self._index = index = {v: i for i, v in enumerate(order)}
        self._paths = {x: [(index[z], k) for z, k in c.items()] for x, c in counts.items()}
        self._retics = len(self._retic)
        self._labels = tuple(sorted(n.taxa))
        self._packed = {}

    def _mu(self, width):
        """The key prefix at this width, and mu_width by vertex index in the
        topological order of _tables."""
        got = self._packed.get(width)
        if got is None:
            mu = [0] * len(self._index)
            leaf = {lab: v for v, lab in self._net.leaf_labels.items()}
            for i, lab in enumerate(self._labels):
                for j, k in self._paths[leaf[lab]]:
                    mu[j] += k << (i * width)
            got = self._packed[width] = (_mu_prefix(width, self._labels), mu)
        return got

    def key(self, kind, e: Edge, target: Edge = None):
        """(mu key, reticulation count) of the result of the legal move."""
        if self._paths is None:
            self._tables()
        retics = self._retics + _RETIC_CHANGE[kind]
        prefix, mu = self._mu(retics + 1)
        paths, index = self._paths, self._index
        u, v = e.src, e.dst
        moved = mu[index[v]]
        new = mu.copy()
        if kind != "plus":
            for i, k in paths[u]:
                new[i] -= k * moved
        if kind == "minus":
            del new[index[v]], new[index[u]]  # v comes after its parent u
        else:
            for i, k in paths[target.src]:
                new[i] += k * moved
            tail = new[index[target.dst]] + moved
            if kind == "pm":
                new[index[u]] = tail  # the new vertex takes u's place
            else:
                new += (moved, tail)
        return _mu_bytes(prefix, new), retics


def delete_reticulation_edge(n: Network, edge: Edge) -> Network:
    """Delete a reticulation edge and suppress the two degree-two vertices.

    The tail must be a tree vertex. On tree-child input the result is again
    tree-child. This is the "minus" move of snpr.
    """
    return _edit(n, "minus", Edge(*edge))[0]


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


def _insertion_tails(n: Network, head: Edge) -> list:
    """The tails of the plus pairs with this head edge, in insertion order:
    the head itself first, then the other tails of _plus_tails."""
    return [head] + [t for t in _plus_tails(n, head) if t != head]


def _reticulation_insertions(n: Network):
    """All legal plus (head, tail) pairs, lazily: heads in edge order, each
    with its _insertion_tails."""
    for head in n.edges:
        for tail in _insertion_tails(n, head):
            yield head, tail


def random_network(n_leaves, n_reticulations, seed=0, require_tree_child=False):
    """Random network by leaf attachment plus reticulation insertion.

    Seed contract: each insertion edits the first legal pair of one seeded
    shuffle of all plus pairs in the fixed order of _reticulation_insertions
    (heads in edge order, each head's own pair first, then its other tails
    in edge order). With require_tree_child a pair is legal when the result
    stays tree-child, decided before the candidate is edited. Raises when
    the requested count is unreachable.

    Cost per insertion: one random draw and one 8-byte index per pair, so
    time and memory in O(pairs). The shuffle permutes pair indices; the scan
    turns an index into its pair only when it reaches it, by a bisection on
    the per-head counts, and reads each head's tails at most once.
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
        heads, out = net.edges, net._adjacency()[0]
        # len(_plus_tails(net, h)) without building it: the edges out of no
        # vertex at or below h's end, h itself among them
        starts = list(itertools.accumulate(
            (len(heads) - sum(len(out[v]) for v in _below(net, h.dst)) for h in heads),
            initial=0))
        order = array("q", range(starts[-1]))
        rng.shuffle(order)  # the same draws and permutation as on a list of the pairs
        keeps = _Keyer(net).keeps_tree_child
        tails = {}
        for i in order:
            h = bisect.bisect_right(starts, i) - 1
            if h not in tails:
                tails[h] = _insertion_tails(net, heads[h])
            e1, e2 = heads[h], tails[h][i - starts[h]]
            if not require_tree_child or keeps("plus", e1, e2):
                net = _edit(net, "plus", e1, e2)[0]
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
            keeps = _Keyer(net).keeps_tree_child
            for e1, e2 in _reticulation_insertions(net):
                if keeps("plus", e1, e2):
                    succ = _edit(net, "plus", e1, e2)[0]
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
