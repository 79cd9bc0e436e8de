"""Drawing digraphs inside networks, and growing the drawings upward.

An Embedding maps each digraph vertex to a host vertex and each digraph
edge to a directed host path; the pieces may not touch each other except
at shared digraph-vertex images.  An Extension claims parent edges on
top of an embedding, one at a time, until no growth rule applies.  What
the host keeps to itself is the cut.

The second half of the module reshapes extensions: rerouting reticulation
edges out of the claimed set without changing the cut, and carrying a
whole extension across one rearrangement move of the host.
"""

import random
from typing import NamedTuple

from .errors import (ContractViolationError, EmbeddingError,
                     InvalidDigraphError, InvalidNetworkError, MoveError)
from .netcore import (Network, _RETIC_CHANGE, _flatten_origin, _leaf_clusters,
                      _taxa_mismatch, is_tree_child)
from .digraphcore import PhyloDigraph, digraph_signature, is_tree_child_digraph
from .snpr import apply_move_detailed


class Embedding:
    """One drawing of a digraph inside a host network.

    vertex_map sends digraph vertices to host vertices; edge_map sends
    each digraph edge to the directed host path realising it.  Interior
    vertices of those paths are private to their path.
    """

    __slots__ = ("digraph", "host", "vertex_map", "edge_map")

    def __init__(self, digraph, host, vertex_map, edge_map):
        self.digraph = digraph
        self.host = host
        self.vertex_map = dict(vertex_map)
        self.edge_map = {de: tuple(path) for de, path in edge_map.items()}

    def host_edges(self):
        got = set()
        for path in self.edge_map.values():
            got.update(path)
        return frozenset(got)

    def component_of_host(self):
        """Host vertex -> index of the digraph component occupying it."""
        owner = self.digraph.component_of()
        comp = {}
        for dv, hv in self.vertex_map.items():
            comp[hv] = owner[dv]
        for de, path in self.edge_map.items():
            idx = owner[de.src]
            for he in path[:-1]:
                comp[he.dst] = idx
        return comp

    def host_vertices(self):
        return frozenset(self.component_of_host())

    def __repr__(self):
        return "Embedding(%d components, %d host edges)" % (
            len(self.digraph.components), len(self.host_edges()))


def _same_embedding(a: Embedding, b: Embedding) -> bool:
    return a is b or (a.host == b.host and a.vertex_map == b.vertex_map
                      and a.edge_map == b.edge_map)


def embedding_violations(m: Embedding) -> list:
    """Everything wrong with an embedding, as human-readable strings."""
    d, n = m.digraph, m.host
    probs = []
    if d.taxa != n.taxa:
        probs.append("digraph taxa %r differ from host taxa %r"
                     % (sorted(d.taxa), sorted(n.taxa)))
    if set(m.vertex_map) != d.all_vertices():
        probs.append("vertex_map does not cover the digraph vertices exactly")
        return probs
    if set(m.edge_map) != set(d.all_edges()):
        probs.append("edge_map does not cover the digraph edges exactly")
        return probs
    images = {}
    for dv in sorted(m.vertex_map):
        hv = m.vertex_map[dv]
        if hv not in n.vertices:
            probs.append("image %r of %r is not a host vertex" % (hv, dv))
        elif hv in images:
            probs.append("host vertex %r is the image of two digraph vertices" % hv)
        images[hv] = dv
    for c in d.components:
        if c.rho is not None and m.vertex_map.get(c.rho) != n.root:
            probs.append("rho must map to the host root")
        for dv in sorted(c.leaf_labels):
            lab = c.leaf_labels[dv]
            try:
                want = n.leaf_of_label(lab)
            except KeyError:
                continue  # already reported as a taxa mismatch
            if m.vertex_map.get(dv) != want:
                probs.append("leaf %r must map to the host leaf labelled %r"
                             % (dv, lab))
    host_edges = set(n.edges)
    seen_edges = set()
    interiors = set()
    for de in sorted(m.edge_map):
        path = m.edge_map[de]
        if not path:
            probs.append("edge %r maps to an empty path" % (de,))
            continue
        if any(he not in host_edges for he in path):
            probs.append("path for %r leaves the host" % (de,))
            continue
        if path[0].src != m.vertex_map[de.src] or path[-1].dst != m.vertex_map[de.dst]:
            probs.append("path for %r does not join its endpoint images" % (de,))
        if any(a.dst != b.src for a, b in zip(path, path[1:])):
            probs.append("path for %r is not consecutive" % (de,))
        for he in path:
            if he in seen_edges:
                probs.append("host edge %r is used by two paths" % (he,))
            seen_edges.add(he)
        for he in path[:-1]:
            w = he.dst
            if w in images:
                probs.append("path for %r passes through an image vertex %d" % (de, w))
            elif w in interiors:
                probs.append("host vertex %d is interior to two paths" % w)
            interiors.add(w)
    return probs


# ---------------------------------------------------------------------------
# embedding search


def _leaf_depths(n: Network):
    # min edge count from each vertex down to a leaf; orders candidates
    depth = {v: 0 for v in n.leaves}
    frontier = list(depth)
    inn = n._adjacency()[1]
    while frontier:
        upper = []
        for v in frontier:
            for e in inn[v]:
                if e.src not in depth:
                    depth[e.src] = depth[v] + 1
                    upper.append(e.src)
        frontier = upper
    return depth


def _unchain(chain, forward):
    """The host path of a chain (edge, rest) that _Search._paths walked,
    last walked edge first, as a tuple of edges in downward order."""
    he, rest = chain
    if not rest:
        return (he,)
    walked = [he]
    while rest:
        he, rest = rest
        walked.append(he)
    # a downward walk ends at the bottom edge, an upward one at the top
    return tuple(reversed(walked)) if forward else tuple(walked)


class _Search:
    """Backtracking embedding search with global vertex and edge claims."""

    def __init__(self, d: PhyloDigraph, n: Network):
        self.d = d
        self.n = n
        self.depth = _leaf_depths(n)
        self.vmap = {}
        self.emap = {}
        self.used_v = set()
        self.used_e = set()
        self.order = []
        for c in d.components:
            if c.rho is not None:
                self.vmap[c.rho] = n.root
                self.used_v.add(n.root)
            for dv in sorted(c.leaf_labels):
                hv = n.leaf_of_label(c.leaf_labels[dv])
                self.vmap[dv] = hv
                self.used_v.add(hv)
        for c in d.components:
            known = {dv for dv in c.vertices if dv in self.vmap}
            pending = sorted(c.edges)
            while pending:
                for e in pending:
                    if e.src in known or e.dst in known:
                        break
                else:
                    raise ContractViolationError("digraph component is not connected")
                pending.remove(e)
                known.update((e.src, e.dst))
                self.order.append((c, e))

    def _paths(self, start, forward, accept):
        """Unclaimed host paths leaving start down- or upward, as (chain, end).

        A path is kept when accept takes its far end and is walked on
        while that end is unclaimed. Each is kept as the linked chain of
        its walk (see _unchain), so a walk costs time linear in its length
        however many paths it finds. The walk order is arbitrary, callers
        sort.
        """
        found = []
        stack = [(start, ())]
        adj = self.n._adjacency()[0 if forward else 1]
        while stack:
            x, chain = stack.pop()
            for he in adj[x]:
                if he in self.used_e:
                    continue
                w = he.dst if forward else he.src
                longer = (he, chain)
                if accept(w):
                    found.append((longer, w))
                if w not in self.used_v:
                    stack.append((w, longer))
        return found

    def _options(self, i):
        """How step i can be placed: the digraph vertex it places (None when
        both ends are placed), the direction of its walk, and its (chain,
        image) pairs in the order they are tried: nearest a leaf first,
        then by image, then by the path's edges."""
        c, de = self.order[i]
        ia = self.vmap.get(de.src)
        ib = self.vmap.get(de.dst)
        if ia is not None and ib is not None:
            # ib is claimed, so no path runs on past it
            dv, forward, accept = None, True, lambda w: w == ib
        else:
            forward = ia is not None
            dv = de.dst if forward else de.src
            # an image is unclaimed and has at least the degrees of dv
            c_out, c_in = c._adjacency()
            need_in, need_out = len(c_in[dv]), len(c_out[dv])
            out, inn = self.n._adjacency()

            def accept(w):
                return (w not in self.used_v and len(inn[w]) >= need_in
                        and len(out[w]) >= need_out)
        found = self._paths(ia if forward else ib, forward, accept)
        if len(found) > 1:
            depth = self.depth
            if len({w for _, w in found}) < len(found):
                # paths tied on their image are read out only here
                found.sort(key=lambda cw: (depth[cw[1]], cw[1], _unchain(cw[0], forward)))
            else:
                found.sort(key=lambda cw: (depth[cw[1]], cw[1]))
        return dv, forward, found

    def solve(self, limit=None):
        """Embeddings in depth-first order over the steps, each step trying
        its options in order; at most limit of them.

        The search keeps its own stack, one entry per step entered, so its
        depth is not bounded by the interpreter's recursion limit.
        """
        results = []
        vmap, emap, used_v, used_e = self.vmap, self.emap, self.used_v, self.used_e
        steps = []  # per entered step: [vertex, forward, options, index, path in place]
        while limit is None or len(results) < limit:
            if len(steps) == len(self.order):
                results.append(Embedding(self.d, self.n, dict(vmap), dict(emap)))
            else:
                steps.append([*self._options(len(steps)), -1, None])
            # move the deepest step that has an option left on to its next one
            while steps:
                step = steps[-1]
                dv, forward, options, k, path = step
                de = self.order[len(steps) - 1][1]
                if path is not None:
                    del emap[de]
                    used_e.difference_update(path)
                    for he in path[:-1]:
                        used_v.discard(he.dst)
                    if dv is not None:
                        used_v.discard(vmap.pop(dv))
                k = step[3] = k + 1
                if k < len(options):
                    chain, w = options[k]
                    path = step[4] = _unchain(chain, forward)
                    if dv is not None:
                        vmap[dv] = w
                        used_v.add(w)
                    emap[de] = path
                    used_e.update(path)
                    for he in path[:-1]:
                        used_v.add(he.dst)
                    break
                steps.pop()
            else:
                break
        return results


def _forced_chain(n: Network, v, y):
    """The host vertices above v, in climbing order, of the forced chain in
    n of a digraph edge whose lower end has the image v, a vertex with one
    in-edge, and whose upper end has the leaves y below it (bits of
    _leaf_clusters(n)); y is None when the upper end is rho or a
    reticulation, whose chain climbs to the root of n or the first
    reticulation. The last vertex is the chain's top.

    Chains. Take an edge (p, x) of a digraph d where every embedding sends
    x to one host vertex h, with one in-edge; a leaf x has its host leaf
    for h. Let Y be the leaves below p in d. The chain of (p, x) climbs
    from h: it starts with h's in-edge and goes on with the in-edge of
    each vertex it reaches while that vertex has one in-edge and its
    leaves do not cover Y. So it ends at the first vertex, its top, that
    covers Y or has another in-degree. When p is the root marker rho of
    its component, or a reticulation of d, the chain ignores Y: it climbs
    on to the root of n or to the first vertex with two in-edges.

    Every embedding routes the edge (p, x) of d through that chain. Proof:
    the image w of p lies above every leaf of Y, as p does in d, so w covers
    Y; and the edge (p, x) maps to a host path P from w down to h. The path
    ends with h's only in-edge. While the top v of the chain so far does
    not cover Y, v is not w, so the path runs on above v and enters v by an
    in-edge, which is v's only one when v has in-degree one. When p is rho,
    w is the root of n (every embedding pins rho there, see _Search); when
    p is a reticulation, w ends the paths of p's two in-edges, which share
    no edge, so w has two in-edges. Either way no vertex of in-degree one
    is w, and the path runs on above v whatever v covers.

    Private vertices. The inner vertices of the chain lie strictly between
    h and w on P, so they are inner vertices of P, which belong to P alone:
    no other path runs through them and no image sits on them. The top is w
    or an inner vertex of P. So each inner vertex is owned by the edge
    (p, x), each top by p, the image of a vertex by that vertex, and the
    root of n by rho. No host vertex has two owners in an embedding: a
    vertex owned by p is p's image or inner to the path of the out-edge of
    p whose chain it tops, so it is neither another vertex's image nor
    inner to any other path. Two chains that share an edge share
    its lower end, which is the top of neither; it is inner to both, or
    inner to one and the start of the other (a leaf is inner to no chain),
    so it has two owners as well. A chain that climbs to the root of n
    while p is not rho gives the root a second owner too.

    Forced images. Let p be a tree vertex of d whose two children have
    forced images and whose two chains end at the same top v. If w, the
    image of p, were not v, then v would be an inner vertex of both paths
    out of p; so every embedding sends p to v. The two chains enter v by
    different out-edges, since their lower ends would otherwise have two
    owners, so v is a tree vertex of n (whose root has one out-edge) with
    one in-edge, and the edge into p has a chain from v in turn. A walk
    that lists children before their parents decides each image before
    the parent's edge climbs from it.

    So when the chains of d's edges, claimed through _claim, give some
    host vertex two owners, n does not display d. The rule is only a
    necessary condition: when n displays d no owners clash. The split
    test of agreement applies it to the digraph an edge mask forms, before
    the digraph is built.
    """
    below = _leaf_clusters(n)[2]
    inn = n._adjacency()[1]
    chain = []
    while True:
        v = inn[v][0].src
        chain.append(v)
        if len(inn[v]) != 1 or y is not None and below[v] & y == y:
            return tuple(chain)


def _claim(owner, chain, inner, top):
    """Record in owner, a dict from host vertices to their owners, that the
    vertices of a chain of _forced_chain below its top belong to inner and
    its top to top; False when one of them already has another owner
    (proof in _forced_chain)."""
    for v in chain[:-1]:
        if v in owner:
            return False
        owner[v] = inner
    return owner.setdefault(chain[-1], top) == top


def _check_taxa(a, b):
    """Raise EmbeddingError, naming both sorted leaf sets, when a and b are
    on different leaf sets."""
    mismatch = _taxa_mismatch(a, b)
    if mismatch:
        raise EmbeddingError(mismatch)


def find_embedding(d: PhyloDigraph, n: Network):
    """First embedding of d in n in the search's order, or None when n does
    not display d."""
    _check_taxa(d, n)
    got = _Search(d, n).solve(limit=1)
    return got[0] if got else None


def enumerate_embeddings(d: PhyloDigraph, n: Network):
    """All embeddings of d in n, deduplicated by host edge set, sorted."""
    _check_taxa(d, n)
    seen = {}
    for m in _Search(d, n).solve():
        key = tuple(sorted(m.host_edges()))
        if key not in seen:
            seen[key] = m
    for key in sorted(seen):
        yield seen[key]


# ---------------------------------------------------------------------------
# extensions


class _PolicyFields(NamedTuple):
    mode: str = "by_id"
    seed: int = 0
    allow_e2: bool = True


class ExtensionPolicy(_PolicyFields):
    """How to pick among applicable growth steps.

    by_id takes the first candidate in (vertex, parent edge) order and is
    reproducible without a seed; seeded draws uniformly.  allow_e2 off
    restricts growth to in-degree-zero vertices, giving a root extension.
    """

    __slots__ = ()

    def __new__(cls, mode="by_id", seed=0, allow_e2=True):
        if mode not in ("by_id", "seeded"):
            raise ValueError("unknown policy mode %r" % (mode,))
        return super().__new__(cls, mode, seed, allow_e2)


class Extension:
    """An embedding plus the host edges claimed on top of it.

    added_edges is kept in an order that replays: each edge was claimable
    at its position.  The component owning each touched host vertex
    follows from that order.
    """

    __slots__ = ("embedding", "added_edges", "allow_e2")

    def __init__(self, embedding, added_edges, allow_e2=True):
        self.embedding = embedding
        self.added_edges = tuple(added_edges)
        self.allow_e2 = bool(allow_e2)

    def edges(self):
        return self.embedding.host_edges() | set(self.added_edges)

    def component_of_host(self):
        comp = self.embedding.component_of_host()
        for e in self.added_edges:
            if e.dst not in comp:
                raise ContractViolationError(
                    "added edge %r does not attach to the extension" % (e,))
            comp.setdefault(e.src, comp[e.dst])
        return comp

    def host_vertices(self):
        return frozenset(self.component_of_host())

    def __repr__(self):
        return "Extension(%d embedded + %d added edges%s)" % (
            len(self.embedding.host_edges()), len(self.added_edges),
            "" if self.allow_e2 else ", root")


def _growth_state(m: Embedding):
    comp = m.component_of_host()
    r_edges = set(m.host_edges())
    in_r, out_r = {}, {}
    for e in r_edges:
        in_r[e.dst] = in_r.get(e.dst, 0) + 1
        out_r[e.src] = out_r.get(e.src, 0) + 1
    return comp, r_edges, in_r, out_r


def _claim_edge(e, comp, r_edges, in_r, out_r):
    r_edges.add(e)
    comp[e.src] = comp[e.dst]
    in_r[e.dst] = in_r.get(e.dst, 0) + 1
    out_r[e.src] = out_r.get(e.src, 0) + 1


def _applicable(n, comp, in_r, out_r, allow_e2):
    """Host edges the growth rules could claim right now, in pick order.

    Rule one feeds a vertex with no claimed in-edge from a parent outside
    every component; rule two, when allowed, feeds a reticulation of the
    host sitting at degrees (1,1) in the claimed set.
    """
    cands = []
    for v in sorted(comp):
        vin = in_r.get(v, 0)
        if vin == 0:
            cands.extend(he for he in n.in_edges(v) if he.src not in comp)
        elif (allow_e2 and vin == 1 and out_r.get(v, 0) == 1
              and n.in_degree(v) == 2):
            # a claimed edge has its tail in comp, so this skips it too
            cands.extend(he for he in n.in_edges(v) if he.src not in comp)
    return cands


def extend(m: Embedding, n: Network, policy=None) -> Extension:
    """Grow an embedding until no growth rule applies."""
    if m.host is not n and m.host != n:
        raise ContractViolationError("embedding lives in a different host")
    policy = policy or ExtensionPolicy()
    rng = random.Random(policy.seed) if policy.mode == "seeded" else None
    comp, r_edges, in_r, out_r = _growth_state(m)
    added = []
    while True:
        cands = _applicable(n, comp, in_r, out_r, policy.allow_e2)
        if not cands:
            break
        e = rng.choice(cands) if rng else cands[0]
        _claim_edge(e, comp, r_edges, in_r, out_r)
        added.append(e)
    return Extension(m, added, allow_e2=policy.allow_e2)


def root_extend(m: Embedding, n: Network, policy=None) -> Extension:
    """extend with the reticulation growth rule switched off."""
    policy = policy or ExtensionPolicy()
    return extend(m, n, policy._replace(allow_e2=False))


def cut_size(n: Network, r: Extension) -> int:
    """Host edges the extension leaves out.

    For an extension grown with allow_e2 from an embedding of a digraph D,
    the cut is S(D) - 1 + r(n) - r(D), where S counts the in-degree-0
    vertices of D and r the reticulations (in-degree-2 vertices). Proof:
      1. Each claim covers one new host vertex: both growth rules claim an
         edge whose head is covered and whose tail is not, and the tail is
         then covered.
      2. Growth stops only once every vertex is covered. Suppose x is not.
         The leaves are covered (images of D's leaves), so some path from
         x reaches a covered vertex; on it lies an edge (x', y) with x'
         uncovered and y covered. If y has no claimed in-edge, rule one
         claims (x', y). Otherwise y's claimed in-edge comes from another
         parent, so y is a reticulation with one claimed in-edge, and
         neither the root (rho's image) nor a leaf. Every other covered
         vertex has a claimed out-edge: it is the image of a D vertex
         with out-edges, an interior vertex of a path, or the tail of a
         claim. With host out-degree one, y sits at claimed degrees (1,1)
         and rule two claims (x', y). So no fixpoint leaves a vertex
         uncovered.
      3. The occupied subgraph is a subdivision of D: images are distinct,
         each D edge is a path whose interior vertices are private, and no
         host edge lies on two paths. Each interior vertex adds one vertex
         and one edge, so |E| - |V| is the same for it as for D.
    Counting edges by in-degree, |E| - |V| is r(n) - 1 for the host and
    r(D) - S(D) for D (whose in-degrees are at most two). By 1 and 2 the
    claims number |V(n)| minus the occupied vertices, so the cut is
    |E(n)| - |V(n)| - (|E(D)| - |V(D)|) = S(D) - 1 + r(n) - r(D).

    Every component has a source and every reticulation of D has one of
    n as its image, so S(D) >= |components| and r(D) <= r(n): the cut on
    each side is at least |components| - 1.
    """
    if r.embedding.host is not n and r.embedding.host != n:
        raise ContractViolationError("extension lives in a different host")
    return len(n.edges) - len(r.edges())


def digraph_cut_size(n: Network, d: PhyloDigraph) -> int:
    """Cut size of the first extension found; the choices do not matter."""
    m = find_embedding(d, n)
    if m is None:
        raise EmbeddingError("the host does not display this digraph")
    return cut_size(n, extend(m, n))


def _order_added_edges(n, m, added, allow_e2):
    """Arrange an edge set into growth-rule order.

    Grabbing any currently claimable edge never wedges: applicability of
    the others is only ever enabled by a claim, except for a second
    in-edge of the same vertex, and those two commute.  Raises ValueError
    when no order exists.
    """
    comp, r_edges, in_r, out_r = _growth_state(m)
    remaining = set(added)
    order = []
    while remaining:
        claimable = set(_applicable(n, comp, in_r, out_r, allow_e2))
        claimable &= remaining
        if not claimable:
            raise ValueError("edges %r cannot arise from the growth rules"
                             % sorted(remaining))
        pick = min(claimable)
        _claim_edge(pick, comp, r_edges, in_r, out_r)
        remaining.discard(pick)
        order.append(pick)
    return order, comp, r_edges, in_r, out_r


def extension_violations(r: Extension) -> list:
    """Everything wrong with an extension, as human-readable strings."""
    probs = embedding_violations(r.embedding)
    n = r.embedding.host
    base = r.embedding.host_edges()
    added = r.added_edges
    if len(set(added)) != len(added):
        probs.append("added_edges repeats an edge")
    overlap = set(added) & base
    if overlap:
        probs.append("added edges %r already belong to the embedding"
                     % sorted(overlap))
    stray = sorted(set(added) - set(n.edges))
    if stray:
        probs.append("added edges %r are not host edges" % stray)
    if probs:
        return probs
    try:
        _, comp, r_edges, in_r, out_r = _order_added_edges(
            n, r.embedding, added, r.allow_e2)
    except ValueError as exc:
        probs.append(str(exc))
        return probs
    left = _applicable(n, comp, in_r, out_r, r.allow_e2)
    if left:
        probs.append("not a fixpoint: %r still claimable" % sorted(left)[:3])
    if r.allow_e2:
        missing = sorted(n.vertices - set(comp))
        if missing:
            probs.append("host vertices %r are not covered" % missing)
    out_m = {}
    for e in base:
        out_m[e.src] = out_m.get(e.src, 0) + 1
    for u in sorted(out_r):
        if out_r[u] == 2 and out_m.get(u, 0) != 2:
            probs.append("vertex %d branches in the extension"
                         " but not in the embedding" % u)
    # each added edge attaches a fresh vertex, so per component the
    # edge count may not gain on the vertex count
    k = len(r.embedding.digraph.components)
    m_comp = r.embedding.component_of_host()
    em, vm, er, vr = [0] * k, [0] * k, [0] * k, [0] * k
    for e in base:
        em[m_comp[e.dst]] += 1
    for i in m_comp.values():
        vm[i] += 1
    for e in r_edges:
        er[comp[e.dst]] += 1
    for i in comp.values():
        vr[i] += 1
    for i in range(k):
        if er[i] - vr[i] != em[i] - vm[i]:
            probs.append("component %d gains an underlying cycle" % i)
    return probs


# ---------------------------------------------------------------------------
# reshaping


def to_root_extension(n: Network, r: Extension) -> Extension:
    """Reroute claimed reticulation edges away, keeping the cut size.

    Each claimed reticulation edge outside the embedding is swapped for
    the other child edge of its tail.  Sound in tree-child hosts, where
    that tail is a tree vertex and the sibling edge is provably free.
    """
    if not is_tree_child(n):
        raise InvalidNetworkError(["to_root_extension needs a tree-child host"])
    if r.embedding.host is not n and r.embedding.host != n:
        raise ContractViolationError("extension lives in a different host")
    base = r.embedding.host_edges()
    r_edges = set(r.edges())
    before = len(r_edges)
    retics = set(n.reticulations())
    changed = False
    while True:
        outside = sorted(e for e in r_edges
                         if e.dst in retics and e not in base)
        if not outside:
            break
        e = outside[0]
        siblings = [f for f in n.out_edges(e.src) if f != e]
        if len(siblings) != 1 or siblings[0].dst in retics:
            raise ContractViolationError(
                "tail %d of %r is not a tree vertex with a free child"
                % (e.src, e))
        if siblings[0] in r_edges:
            raise ContractViolationError(
                "sibling edge %r is already claimed" % (siblings[0],))
        r_edges.discard(e)
        r_edges.add(siblings[0])
        changed = True
    if not changed and not r.allow_e2:
        return r
    try:
        order, _, _, _, _ = _order_added_edges(n, r.embedding,
                                               r_edges - base, False)
    except ValueError as exc:
        raise ContractViolationError("rerouting broke the extension: %s" % exc)
    out = Extension(r.embedding, order, allow_e2=False)
    probs = extension_violations(out)
    if probs:
        raise ContractViolationError("rerouting left violations: "
                                     + "; ".join(probs))
    if len(out.edges()) != before:
        raise ContractViolationError("rerouting changed the cut size")
    return out


def root_path(r: Extension, v) -> tuple:
    """Edges of the unique claimed chain running down to the image v.

    v must be the image of a component root: a digraph vertex of
    in-degree zero and out-degree zero or two.  The walk ends at the
    first vertex with no claimed in-edge; the result may be empty.
    """
    host = r.embedding.host
    owner = r.embedding.digraph.component_of()
    dv = None
    for cand in sorted(r.embedding.vertex_map):
        if r.embedding.vertex_map[cand] == v:
            dv = cand
            break
    if dv is not None:
        c = r.embedding.digraph.components[owner[dv]]
        if c.in_degree(dv) != 0 or c.out_degree(dv) not in (0, 2):
            dv = None
    if dv is None:
        raise EmbeddingError("host vertex %r is not a component root image" % (v,))
    r_edges = r.edges()
    path = []
    cur = v
    while True:
        ins = [e for e in host.in_edges(cur) if e in r_edges]
        if not ins:
            break
        if len(ins) > 1:
            raise EmbeddingError("two claimed edges enter %d;"
                                 " the chain above %r is not unique" % (cur, v))
        path.append(ins[0])
        cur = ins[0].src
    path.reverse()
    return tuple(path)


def path_extension(r: Extension, m: Embedding, p) -> frozenset:
    """Edges of p plus every claimed chain feeding a reticulation on p."""
    if not _same_embedding(r.embedding, m):
        raise EmbeddingError("the extension does not extend this embedding")
    p = tuple(p)
    if not p:
        raise EmbeddingError("the path is empty")
    base = m.host_edges()
    for e in p:
        if e not in base:
            raise EmbeddingError("path edge %r is not in the embedding" % (e,))
    if any(a.dst != b.src for a, b in zip(p, p[1:])):
        raise EmbeddingError("the path is not consecutive")
    if len(set(p)) != len(p):
        raise EmbeddingError("the path repeats an edge")
    host = m.host
    added = r.edges() - base
    result = set(p)
    verts = {e.src for e in p} | {e.dst for e in p}
    stack = [w for w in sorted(verts) if host.in_degree(w) == 2]
    while stack:
        x = stack.pop()
        for he in host.in_edges(x):
            if he in added and he not in result:
                result.add(he)
                stack.append(he.src)
    return frozenset(result)


# ---------------------------------------------------------------------------
# carrying an extension across a move

def _carried(origin, r_edges):
    # which post-move edges inherit membership from the claimed set
    kind = origin[0]
    if kind == "new":
        return False
    if kind == "kept":
        return origin[1] in r_edges
    if kind == "lower":
        # a subdivision here always re-attaches something; the lower
        # half is claimed whether or not the whole edge was
        return True
    if kind in ("upper", "merged"):
        return all(f in r_edges for f in _flatten_origin(origin))
    raise ContractViolationError("unknown edge origin %r" % (origin,))


def _edge_renaming(detail):
    """Old host edge -> its post-move edges, halves in path order."""
    named = {}
    for e2 in detail.network.edges:
        origin = detail.origin_of[e2]
        if origin[0] == "new":
            continue
        rank = 1 if origin[0] == "lower" else 0
        for old in _flatten_origin(origin):
            named.setdefault(old, []).append((rank, e2))
    return {old: [e2 for _, e2 in sorted(pairs)]
            for old, pairs in named.items()}


def transfer_extension(n: Network, d: PhyloDigraph, r: Extension, move):
    """Carry an extension across one move of its tree-child host.

    Returns the moved network and an extension of the same digraph in
    it.  The digraph is the same on both sides, so by the identity in
    cut_size the cut shifts by the host's change in reticulations: minus
    drops it by one, plus raises it by one, pm leaves it alone.
    """
    if not is_tree_child(n):
        raise InvalidNetworkError(["transfer_extension needs a tree-child host"])
    if not is_tree_child_digraph(d):
        raise InvalidDigraphError(["transfer_extension needs a tree-child digraph"])
    emb = r.embedding
    if emb.digraph is not d and digraph_signature(emb.digraph) != digraph_signature(d):
        raise ContractViolationError("extension does not belong to this digraph")
    if emb.host is not n and emb.host != n:
        raise ContractViolationError("extension lives in a different host")
    if not r.allow_e2:
        raise MoveError("transfer needs a full extension, not a root extension")
    r_edges = r.edges()
    retics = set(n.reticulations())
    if move.kind == "minus":
        if move.edge in r_edges:
            raise MoveError("the deleted edge lies in the extension")
    elif move.kind == "plus":
        if move.target == move.edge:
            raise MoveError("transfer needs two distinct edges")
        if move.edge.dst in retics or move.target.dst in retics:
            raise MoveError("both subdivided edges must have"
                            " non-reticulation heads")
    elif move.kind == "pm":
        if move.edge in r_edges:
            raise MoveError("the deleted edge lies in the extension")
        if move.edge.dst in retics:
            raise MoveError("the deleted edge must have a non-reticulation head")
        t = move.target
        if t == move.edge or t.src == move.edge.src or t.dst == move.edge.src:
            raise MoveError("the target edge must survive the suppression intact")
    else:
        raise MoveError("unknown move kind %r" % (move.kind,))
    before = cut_size(n, r)
    detail = apply_move_detailed(n, move)
    n2 = detail.network
    r2_edges = {e2 for e2 in n2.edges if _carried(detail.origin_of[e2], r_edges)}
    vmap2 = {}
    for dv in emb.vertex_map:
        hv = emb.vertex_map[dv]
        nv = detail.vertex_map.get(hv)
        if nv is None:
            raise ContractViolationError("image vertex %d was removed by the move" % hv)
        vmap2[dv] = nv
    renamed = _edge_renaming(detail)
    emap2 = {}
    for de, path in emb.edge_map.items():
        new_path = []
        for he in path:
            for e2 in renamed[he]:
                if not new_path or new_path[-1] != e2:
                    new_path.append(e2)
        emap2[de] = tuple(new_path)
    base2 = Embedding(d, n2, vmap2, emap2)
    try:
        order, _, _, _, _ = _order_added_edges(
            n2, base2, r2_edges - base2.host_edges(), True)
    except ValueError as exc:
        raise ContractViolationError("carried edges do not replay: %s" % exc)
    r2 = Extension(base2, order, allow_e2=True)
    probs = extension_violations(r2)
    if probs:
        raise ContractViolationError("transfer left violations: "
                                     + "; ".join(probs))
    delta = cut_size(n2, r2) - before
    if delta != _RETIC_CHANGE[move.kind]:
        raise ContractViolationError("cut size moved by %d, wanted %d"
                                     % (delta, _RETIC_CHANGE[move.kind]))
    return n2, r2
