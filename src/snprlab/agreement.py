"""Shared digraphs of network pairs, the cut-count measure, and its bounds."""

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BudgetExceededError,
    ContractViolationError,
    InvalidDigraphError,
    InvalidNetworkError,
)
from .netcore import Network, _mu_key, _require_tree_child_pair, random_tree_child
from .digraphcore import (
    digraph_signature,
    is_tree_child_digraph,
    validate_component,
    validate_digraph,
    _quotient_with_paths,
)
from .embed import Embedding, _check_taxa, cut_size, extend, find_embedding
from .snpr import _edits, dtc


class AgreementWitness:
    """A digraph displayed by both hosts, with one extension on each side."""

    __slots__ = ("digraph", "embedding_n", "embedding_m",
                 "extension_n", "extension_m", "cut_n", "cut_m")

    def __init__(self, digraph, embedding_n, embedding_m,
                 extension_n, extension_m, cut_n, cut_m):
        self.digraph = digraph
        self.embedding_n = embedding_n
        self.embedding_m = embedding_m
        self.extension_n = extension_n
        self.extension_m = extension_m
        self.cut_n = cut_n
        self.cut_m = cut_m

    @property
    def total(self):
        return self.cut_n + self.cut_m

    def __repr__(self):
        return "<AgreementWitness cut %d+%d on %d taxa>" % (
            self.cut_n, self.cut_m, len(self.digraph.taxa))


@dataclass(frozen=True)
class BoundsReport:
    half_m: Fraction
    d: int
    m: int

    @property
    def holds(self) -> bool:
        return self.half_m <= self.d <= self.m


def candidate_from_edges(n: Network, edge_subset):
    """Read an edge subset of the host as a digraph, or nothing.

    The subgraph keeps every leaf and the root as vertices whether or not
    an edge of the subset touches them. Whenever collapsing its pass-through
    vertices yields well-formed components that assemble into a digraph on
    the host's taxa, the digraph comes back paired with the embedding that
    the subset itself witnesses.

    On a binary host the result is not None exactly when the subset passes
    the local rule stated in _distinct_candidates.
    """
    subset = set(edge_subset)
    stray = subset - set(n.edges)
    if stray:
        raise ContractViolationError(
            "edges %r are not edges of the host" % (sorted(stray),))
    vertices = {v for e in subset for v in (e.src, e.dst)}
    vertices |= set(n.leaves)
    vertices.add(n.root)
    labels = {v: lab for v, lab in n.leaf_labels.items() if v in vertices}

    raw, edge_paths, problems = _quotient_with_paths(
        vertices, subset, n.root, labels)
    if problems:
        return None
    try:
        d = validate_digraph([validate_component(es, labs, rho=r, vertices=vs)
                              for vs, es, labs, r in raw], n.taxa)
    except InvalidDigraphError:
        return None
    vmap = {v: v for v in d.all_vertices()}
    emap = {e: edge_paths[e] for e in d.all_edges()}
    return d, Embedding(d, n, vmap, emap)


def _local_checks(n: Network):
    """Per edge index, the vertex rules that become decidable with that edge.

    A tree vertex gives (True, in, out, out) and a reticulation gives
    (False, out, in, in), as edge indices, filed under the largest of its
    three indices. The root and the leaves have no rule.
    """
    index = {e: i for i, e in enumerate(n.edges)}
    checks = [[] for _ in n.edges]
    for v in n.vertices:
        ins = [index[e] for e in n.in_edges(v)]
        outs = [index[e] for e in n.out_edges(v)]
        if ins and outs:
            rule = (True, *ins, *outs) if len(outs) == 2 else (False, *outs, *ins)
            checks[max(rule[1:])].append(rule)
    return checks


def _valid_drops(n: Network):
    """Index tuples of dropped host edges whose kept rest passes the local rule.

    Fewest dropped edges first, then lexicographic. One depth-first walk per
    size decides the edges in order, dropping before keeping so that the
    tuples come out in lexicographic order, and abandons a branch once a
    fully decided vertex breaks the rule. The walk keeps its own stack, one
    entry per open branch, so the stream is lazy and its depth is not
    bounded by the interpreter's recursion limit.
    """
    checks = _local_checks(n)
    size = len(checks)

    def holds(i, dropped):
        for tree, x, y, z in checks[i]:
            kx, ky, kz = x not in dropped, y not in dropped, z not in dropped
            if tree:  # keeps 0, 2 or 3 of its edges
                if kx + ky + kz == 1:
                    return False
            elif kx != (ky or kz):  # keeps its out-edge iff an in-edge
                return False
        return True

    for k in range(size + 1):
        stack = [(0, ())]
        while stack:
            i, dropped = stack.pop()
            if i == size:
                yield dropped
                continue
            # keep is pushed first so that the drop branch is walked first
            if k - len(dropped) < size - i and holds(i, dropped):
                stack.append((i + 1, dropped))
            if len(dropped) < k and holds(i, dropped + (i,)):
                stack.append((i + 1, dropped + (i,)))


def _distinct_candidates(n: Network):
    """Candidate digraphs of n, one per isomorphism class, smallest cut first
    within each exclusion level.

    Only the edge subsets that pass a local rule are read, in the order of
    their dropped edge indices (fewest first, then lexicographic). On a
    binary host, candidate_from_edges accepts a subset exactly when
      - every tree vertex keeps 0, 2 or 3 of its edges, and
      - every reticulation keeps its out-edge exactly when it keeps at
        least one in-edge.
    Proof: component_violations rejects exactly the kept degree (0,1) at a
    vertex other than rho and (1,0) or (2,0) at an unlabelled vertex; of a
    tree vertex's kept pairs those are the ones with one edge, of a
    reticulation's those with in- and out-edges not kept together.
    Contracting (1,1) chains changes no degree of a surviving vertex, a
    subgraph of a DAG has no cycle, and the root, (0,0) or (0,1), and the
    leaves, (0,0) or (1,0), always pass. So the skipped subsets are exactly
    those candidate_from_edges would reject, and the stream is the one a
    read of all 2^|E| subsets in the same order gives.
    """
    edges = n.edges
    seen = set()
    for dropped in _valid_drops(n):
        gone = set(dropped)
        d, emb = candidate_from_edges(
            n, [e for i, e in enumerate(edges) if i not in gone])
        sig = digraph_signature(d)
        if sig in seen:
            continue
        seen.add(sig)
        yield d, emb


def _witness(d, emb_n, m: Network, emb_m=None):
    if emb_m is None:
        emb_m = find_embedding(d, m)
        if emb_m is None:
            return None
    n = emb_n.host
    rn = extend(emb_n, n)
    rm = extend(emb_m, m)
    return AgreementWitness(d, emb_n, emb_m, rn, rm,
                            cut_size(n, rn), cut_size(m, rm))


def enumerate_agreement_digraphs(n: Network, m: Network,
                                 tree_child_only: bool = True):
    """Every digraph displayed by both hosts, as a witness stream.

    Deterministic order; one witness per digraph isomorphism class.
    """
    _check_taxa(n, m)
    for d, emb in _distinct_candidates(n):
        if tree_child_only and not is_tree_child_digraph(d):
            continue
        w = _witness(d, emb, m)
        if w is not None:
            yield w


def _min_total_cut(n, m, floor=1, subset_budget=None):
    """Smallest total cut over the pair's shared tree-child digraphs.

    Returns (total, witness) for the first optimum in enumeration order.
    The search stops once the best total drops below floor; under the
    default floor of 1 that is a total of zero, which nothing improves.
    subset_budget caps how many distinct candidate digraphs of n are read.
    """
    best = None
    best_w = None
    examined = 0
    for d, emb in _distinct_candidates(n):
        examined += 1
        if subset_budget is not None and examined > subset_budget:
            raise BudgetExceededError(
                "stopped after %d candidate digraphs" % (examined - 1))
        if not is_tree_child_digraph(d):
            continue
        rn = extend(emb, n)
        cut_n = cut_size(n, rn)
        if best is not None and cut_n >= best:
            continue
        emb_m = find_embedding(d, m)
        if emb_m is None:
            continue
        rm = extend(emb_m, m)
        cut_m = cut_size(m, rm)
        total = cut_n + cut_m
        if best is None or total < best:
            best = total
            best_w = AgreementWitness(d, emb, emb_m, rn, rm, cut_n, cut_m)
            if best < floor:
                break
    return best, best_w


def mtc(n: Network, m: Network, subset_budget=None):
    """Minimum total cut over the pair's shared tree-child digraphs.

    Returns (count, witness). The witness is the first optimum in
    enumeration order; each side carries a grown extension certifying
    its cut. subset_budget caps how many distinct candidate digraphs of
    n (one per isomorphism class, tree-child or not) are read before
    giving up; the edge subsets behind them are not counted.
    """
    _require_tree_child_pair(n, m)
    _check_taxa(n, m)
    best, best_w = _min_total_cut(n, m, subset_budget=subset_budget)
    if best_w is None:
        # the all-singletons digraph is displayed by every network pair
        raise ContractViolationError("no shared digraph found")
    return best, best_w


def check_bounds(n: Network, m: Network, cap=None) -> BoundsReport:
    """Certify half-measure <= distance <= measure for one pair."""
    measure, _ = mtc(n, m)
    d, _ = dtc(n, m, reticulation_cap=cap, witness=False)
    return BoundsReport(half_m=Fraction(measure, 2), d=d, m=measure)


# ---------------------------------------------------------------------------
# independent tree-pair oracle, no digraph machinery involved


_RHO = "\x00root"  # taxa are printable names, so this cannot collide


def _partitions(items):
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in _partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [head]] + part[i + 1:]
        yield part + [[head]]


def _tree_maps(t: Network):
    parent = {}
    depth = {t.root: 0}
    order = [t.root]
    while order:
        v = order.pop()
        for e in t.out_edges(v):
            parent[e.dst] = v
            depth[e.dst] = depth[v] + 1
            order.append(e.dst)
    return parent, depth


def _block_span(t, parent, depth, block):
    """Vertices and suppressed shape of one block's spanning subtree."""
    leaves = {t.leaf_of_label(lab): lab for lab in block if lab != _RHO}
    anchored = _RHO in block
    if anchored:
        anchor = t.root
    else:
        cur = set(leaves)
        while len(cur) > 1:
            deepest = max(cur, key=lambda v: (depth[v], v))
            cur.discard(deepest)
            cur.add(parent[deepest])
        anchor = cur.pop()
    span = {anchor}
    kids = {}
    for lf in leaves:
        v = lf
        while v != anchor:
            p = parent[v]
            if v not in kids.setdefault(p, []):
                kids[p].append(v)
            if v in span:
                break
            span.add(v)
            v = p

    def shp(v):
        below = tuple(sorted(shp(w) for w in kids.get(v, ())))
        if v in leaves:
            return ("leaf", leaves[v])
        if len(below) == 1:
            return below[0]
        return ("node",) + below

    if anchored:
        return span, ("anchor",) + tuple(sorted(shp(w) for w in kids.get(anchor, ())))
    return span, shp(anchor)


def maf_rspr(t: Network, u: Network) -> int:
    """Prune-regraft distance between two trees by forest enumeration.

    Exhaustive over partitions of the taxa plus a root marker: a partition
    agrees when each part spans the same suppressed shape in both trees and
    the spanned regions are vertex-disjoint within each tree. The answer is
    the smallest agreeing part count minus one.
    """
    for net, side in ((t, "first"), (u, "second")):
        if net.reticulation_count:
            raise InvalidNetworkError(
                ["%s input has reticulations" % side])
    _check_taxa(t, u)
    maps_t = _tree_maps(t)
    maps_u = _tree_maps(u)
    labels = [_RHO] + sorted(t.taxa)

    best = None
    for part in _partitions(labels):
        if best is not None and len(part) >= best:
            continue
        ok = True
        for net, (parent, depth) in ((t, maps_t), (u, maps_u)):
            used = set()
            shapes = []
            for block in part:
                span, shape = _block_span(net, parent, depth, block)
                if used & span:
                    ok = False
                    break
                used |= span
                shapes.append(shape)
            if not ok:
                break
            if net is t:
                shapes_t = shapes
            elif shapes != shapes_t:
                ok = False
        if ok:
            best = len(part)
    return best - 1


def _leaf_tail_moves(n):
    """(Move, builder) for each tree-child pm move of n that moves a leaf."""
    return ((mv, b) for mv, b in _edits(n, kind="pm") if mv.edge.dst in n.leaves)


def gap_witness_search(n_leaves, r, budget, seed=0):
    """Hunt for a pair whose distance sits strictly below the measure.

    Walks random tree-child networks and their double leaf prune-regraft
    neighbours. Such a pair is at most two tail moves apart, so a measure
    of five or more already pins the distance: the halved measure pushes
    it above two, equal reticulation counts force it even, and the two
    moves bound it by four. The final report recomputes both numbers from
    scratch anyway. budget counts candidate pairs; nothing comes back
    once it runs out.
    """
    rng = random.Random(seed)
    left = budget
    while left > 0:
        base = random_tree_child(n_leaves, r, seed=rng.randrange(2 ** 30))
        seen = {_mu_key(base)}
        for mv1, b1 in _leaf_tail_moves(base):
            pruned = base.leaf_labels[mv1.edge.dst]
            s1 = b1.to_network()[0]
            for mv2, b2 in _leaf_tail_moves(s1):
                if s1.leaf_labels[mv2.edge.dst] == pruned:
                    continue
                sig = _mu_key(b2)
                if sig in seen:
                    continue
                seen.add(sig)
                s2 = b2.to_network()[0]
                if left <= 0:
                    return None
                left -= 1
                if _min_total_cut(base, s2, floor=5)[0] < 5:
                    continue
                report = check_bounds(base, s2)
                if report.holds and report.d < report.m:
                    return base, s2, report
    return None
