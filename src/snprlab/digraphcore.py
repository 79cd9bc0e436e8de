"""Leaf-labelled digraphs obtained from networks by keeping a subgraph and
suppressing its degree-(1,1) vertices.

A component is one weakly connected piece; a full digraph is a collection of
components whose leaf label sets partition the taxon set, with exactly one
component carrying the root marker rho (possibly as an isolated vertex).
"""

from . import _canon
from .errors import InvalidDigraphError
from .netcore import (Edge, Network, _canon_input, _LabelledGraph, _normalize_edges,
                      _label_problems, _scan, _signature)

RHO_SINGLETON = "rho_singleton"
LEAF_SINGLETON = "leaf_singleton"
GENERAL = "general"


class LeafDigraph(_LabelledGraph):
    """One weakly connected component. Construct through validate_component."""

    __slots__ = ("rho", "case")

    def __init__(self, vertices, edges, leaf_labels, rho, case):
        super().__init__(vertices, edges, leaf_labels)
        self.rho = rho
        self.case = case

    _top = property(lambda self: self.rho)

    def __repr__(self):
        return "LeafDigraph(%s, %d vertices, %d edges)" % (
            self.case, len(self.vertices), len(self.edges))


def component_violations(vertices, edges, leaf_labels, rho) -> list:
    vertices = set(vertices)
    if not vertices:
        return ["component has no vertices"]
    if edges:  # most components are isolated leaves, with no edges to scan
        bad, slots, out, inn, acyclic = _scan(vertices, edges, "leaves the vertex set")
        if bad:
            return bad
    if rho is not None and rho not in vertices:
        return ["rho %r is not a vertex" % (rho,)]
    stray = set(leaf_labels) - vertices
    if stray:
        return ["labelled vertex %d is not a vertex" % v for v in stray]

    problems = _label_problems(vertices, leaf_labels)
    if rho is not None and rho in leaf_labels:
        problems.append("rho must not carry a leaf label")

    if not edges:
        if len(vertices) != 1:
            problems.append("edgeless component with %d vertices is not connected"
                            % len(vertices))
            return problems
        v = next(iter(vertices))
        if rho == v:
            return problems  # isolated rho
        if v in leaf_labels:
            return problems  # isolated labelled leaf
        problems.append("isolated vertex %d is neither rho nor labelled" % v)
        return problems

    # general case: a weakly connected DAG whose sinks are exactly the
    # labelled leaves, with at most one (0,1) vertex, and only if it is rho
    problems += slots
    for v in sorted(vertices):
        d = (inn[v], out[v])
        if v in leaf_labels:
            if d != (1, 0):
                problems.append("labelled vertex %d has degree %r" % (v, d))
        elif d == (0, 1):
            if rho != v:
                problems.append("vertex %d is a source with out-degree 1 but not rho"
                                % v)
        elif d not in ((0, 2), (1, 2), (2, 1)):
            problems.append("vertex %d has degree %r" % (v, d))
    if rho is not None and (inn[rho], out[rho]) != (0, 1):
        problems.append("rho %d has degree %r, expected (0, 1)"
                        % (rho, (inn[rho], out[rho])))
    if not acyclic:
        problems.append("component contains a directed cycle")

    # weak connectivity
    neigh = {v: set() for v in vertices}
    for e in edges:
        neigh[e.src].add(e.dst)
        neigh[e.dst].add(e.src)
    seen = set()
    stack = [next(iter(vertices))]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        stack.extend(neigh[v] - seen)
    if seen != vertices:
        problems.append("component is not weakly connected")
    return problems


def validate_component(edges, leaf_labels, rho=None, vertices=None,
                       allowed_taxa=None) -> LeafDigraph:
    edges = _normalize_edges(edges)
    leaf_labels = dict(leaf_labels)
    if vertices is None:
        vertices = {e.src for e in edges} | {e.dst for e in edges} | set(leaf_labels)
        if rho is not None:
            vertices.add(rho)
    problems = component_violations(vertices, edges, leaf_labels, rho)
    if allowed_taxa is not None:
        for lab in sorted(set(leaf_labels.values()) - set(allowed_taxa)):
            problems.append("label %r is outside the allowed taxa" % lab)
    if problems:
        raise InvalidDigraphError(problems)
    if not edges and rho is not None:
        case = RHO_SINGLETON
    elif not edges:
        case = LEAF_SINGLETON
    else:
        case = GENERAL
    return LeafDigraph(vertices, edges, leaf_labels, rho, case)


class PhyloDigraph:
    """A collection of components whose leaf sets partition the taxa.

    The component carrying rho always sits first.
    """

    __slots__ = ("components", "taxa", "_sig")

    def __init__(self, components, taxa):
        self.components = tuple(components)
        self.taxa = frozenset(taxa)
        self._sig = None

    @property
    def rho_component(self):
        return self.components[0]

    @property
    def leaf_labels(self):
        merged = {}
        for c in self.components:
            merged.update(c.leaf_labels)
        return merged

    def all_vertices(self):
        out = set()
        for c in self.components:
            out |= c.vertices
        return out

    def all_edges(self):
        out = []
        for c in self.components:
            out.extend(c.edges)
        return tuple(out)

    def component_of(self):
        owner = {}
        for i, c in enumerate(self.components):
            for v in c.vertices:
                owner[v] = i
        return owner

    def __repr__(self):
        return "PhyloDigraph(%d components, taxa=%s)" % (
            len(self.components), sorted(self.taxa))


def validate_digraph(components, taxa) -> PhyloDigraph:
    """Assemble validated components into a digraph on the given taxa."""
    components = list(components)
    taxa = frozenset(taxa)
    problems = []
    if not components:
        problems.append("digraph has no components")
        raise InvalidDigraphError(problems)
    with_rho = [c for c in components if c.rho is not None]
    if len(with_rho) != 1:
        problems.append("expected exactly one component with rho, found %d"
                        % len(with_rho))
    seen_vertices = set()
    for c in components:
        overlap = seen_vertices & c.vertices
        if overlap:
            problems.append("vertex ids %r appear in more than one component"
                            % sorted(overlap))
        seen_vertices |= c.vertices
    seen_taxa = {}
    for i, c in enumerate(components):
        for lab in c.taxa:
            if lab in seen_taxa:
                problems.append("taxon %r appears in more than one component" % lab)
            seen_taxa[lab] = i
    missing = taxa - set(seen_taxa)
    extra = set(seen_taxa) - taxa
    if missing:
        problems.append("taxa %r are missing" % sorted(missing))
    if extra:
        problems.append("taxa %r are not in the taxon set" % sorted(extra))
    if problems:
        raise InvalidDigraphError(problems)
    rho_first = with_rho + sorted(
        (c for c in components if c.rho is None),
        key=lambda c: (sorted(c.taxa), sorted(c.vertices)))
    return PhyloDigraph(rho_first, taxa)


def is_tree_child_digraph(d: PhyloDigraph) -> bool:
    """Every vertex with out-edges has a child of in-degree at most one."""
    for c in d.components:
        for v in c.vertices:
            kids = c.out_edges(v)
            if kids and not any(c.in_degree(e.dst) <= 1 for e in kids):
                return False
    return True


# ---------------------------------------------------------------------------
# quotient: subgraph -> components, suppressing (1,1) vertices


def _quotient_with_paths(vertices, edges, rho, leaf_labels):
    """Split into components and contract (1,1) chains.

    Returns (raw components, edge_paths) where each raw component is a
    (vertices, edges, labels, rho) tuple over surviving host ids and
    edge_paths maps each surviving digraph edge to its chain of host edges.
    Raises nothing; callers validate.
    """
    vertices = set(vertices)
    edges = list(edges)
    out = {v: [] for v in vertices}
    inn = {v: [] for v in vertices}
    for e in edges:
        out[e.src].append(e)
        inn[e.dst].append(e)

    interior = {v for v in vertices
                if len(inn[v]) == 1 and len(out[v]) == 1
                and v != rho and v not in leaf_labels}
    chains = []
    for e in edges:
        if e.src in interior:
            continue
        path = [e]
        while path[-1].dst in interior:
            path.append(out[path[-1].dst][0])
        chains.append(path)
    problems = []
    consumed = sum(len(p) for p in chains)
    if consumed != len(edges):
        # leftover edges can only form directed cycles through (1,1) vertices
        problems.append("subgraph has a directed cycle through degree-(1,1) vertices")

    survivors = vertices - interior
    raw_edges = {}  # (src, dst) -> list of paths
    for path in chains:
        raw_edges.setdefault((path[0].src, path[-1].dst), []).append(path)

    digraph_edges = []
    edge_paths = {}
    for (u, v), paths in sorted(raw_edges.items()):
        paths.sort(key=lambda p: p[0])
        for slot, path in enumerate(paths):
            e = Edge(u, v, slot)
            digraph_edges.append(e)
            edge_paths[e] = tuple(path)

    # weak components over survivors
    neigh = {v: set() for v in survivors}
    for e in digraph_edges:
        neigh[e.src].add(e.dst)
        neigh[e.dst].add(e.src)
    comp_of = {}
    for v in sorted(survivors):
        if v in comp_of:
            continue
        idx = len(set(comp_of.values()))
        stack = [v]
        while stack:
            x = stack.pop()
            if x in comp_of:
                continue
            comp_of[x] = idx
            stack.extend(neigh[x] - set(comp_of))

    raw = {}
    for v, idx in comp_of.items():
        raw.setdefault(idx, (set(), [], {}, [None]))
        raw[idx][0].add(v)
        if v in leaf_labels:
            raw[idx][2][v] = leaf_labels[v]
        if v == rho:
            raw[idx][3][0] = rho
    for e in digraph_edges:
        raw[comp_of[e.src]][1].append(e)
    components = [(vs, tuple(es), labs, r[0])
                  for vs, es, labs, r in (raw[i] for i in sorted(raw))]
    return components, edge_paths, problems


def quotient(vertices, edges, rho=None, leaf_labels=None) -> list:
    """Components of a host subgraph after suppressing its (1,1) vertices.

    leaf_labels may cover more vertices than the subgraph; it is restricted.
    rho is the host root id if the subgraph contains it. Raises
    InvalidDigraphError when any suppressed component is malformed, reporting
    every offending vertex.
    """
    vertices = set(vertices)
    leaf_labels = {v: lab for v, lab in (leaf_labels or {}).items() if v in vertices}
    if rho is not None and rho not in vertices:
        rho = None
    raw, _, problems = _quotient_with_paths(vertices, edges, rho, leaf_labels)
    components = []
    for vs, es, labs, r in raw:
        try:
            components.append(validate_component(es, labs, rho=r, vertices=vs))
        except InvalidDigraphError as exc:
            problems.extend(exc.violations)
    if problems:
        raise InvalidDigraphError(problems)
    return components


# ---------------------------------------------------------------------------
# convenience constructors and signatures


def singleton_digraph(n: Network) -> PhyloDigraph:
    """Isolated rho plus one isolated vertex per taxon; ids are fresh."""
    comps = [validate_component([], {}, rho=0, vertices={0})]
    for i, lab in enumerate(sorted(n.taxa), start=1):
        comps.append(validate_component([], {i: lab}, vertices={i}))
    return validate_digraph(comps, n.taxa)


def network_as_digraph(n: Network) -> PhyloDigraph:
    """The whole network read as a single-component digraph."""
    comp = validate_component(n.edges, n.leaf_labels, rho=n.root,
                              vertices=n.vertices)
    return validate_digraph([comp], n.taxa)


def digraph_signature(d: PhyloDigraph) -> bytes:
    """Label- and rho-anchored canonical form of the whole component collection."""
    if d._sig is None:
        d._sig = _signature(d.components, d.taxa)
    return d._sig


def digraph_isomorphic(d1: PhyloDigraph, d2: PhyloDigraph) -> bool:
    """Independent matcher route; cross-checks digraph_signature."""
    if d1.taxa != d2.taxa:
        return False
    labels = sorted(d1.taxa)
    return _canon.isomorphism_mapping(
        *_canon_input(d1.components, labels),
        *_canon_input(d2.components, labels)) is not None
