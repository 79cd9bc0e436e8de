"""Shared digraphs of network pairs, the cut-count measure, and its bounds."""

import random
from fractions import Fraction
from typing import NamedTuple

from .errors import (
    BudgetExceededError,
    ContractViolationError,
    EmbeddingError,
    InvalidDigraphError,
    InvalidNetworkError,
)
from .netcore import (Network, _leaf_clusters, _mu_key, _require_tree_child_pair,
                      _taxa_mismatch, random_tree_child)
from .digraphcore import (
    digraph_signature,
    is_tree_child_digraph,
    validate_component,
    validate_digraph,
    _component,
    _quotient_with_paths,
    _rho_first,
)
from .embed import (Embedding, _check_taxa, _claim, _forced_chain, extend,
                    find_embedding)
from .snpr import Move, _keyed, apply_move, dtc


class AgreementWitness:
    """A digraph displayed by both hosts, with one extension on each side.

    The witness holds the bit mask of the edge indices of n it drops and
    its cut in n; the cut in m is the cut in n plus r(m) - r(n) (see
    _min_total_cut). The digraph, its embeddings in n and m and their grown
    extensions are built together on first access and take the mask's
    place. Networks are immutable, so they are the parts an eager build
    would have made.
    """

    __slots__ = ("_n", "_m", "cut_n", "_state")

    def __init__(self, n, m, mask, cut_n):
        self._n = n
        self._m = m
        self.cut_n = cut_n
        self._state = mask

    def _built(self):
        if isinstance(self._state, int):
            n, m, mask = self._n, self._m, self._state
            d, emb_n = candidate_from_edges(n, _kept(n, mask))
            emb_m = find_embedding(d, m)
            self._state = (d, emb_n, emb_m, extend(emb_n, n), extend(emb_m, m))
        return self._state

    digraph = property(lambda self: self._built()[0])
    embedding_n = property(lambda self: self._built()[1])
    embedding_m = property(lambda self: self._built()[2])
    extension_n = property(lambda self: self._built()[3])
    extension_m = property(lambda self: self._built()[4])

    @property
    def cut_m(self):
        return self.cut_n + self._m.reticulation_count - self._n.reticulation_count

    @property
    def total(self):
        return self.cut_n + self.cut_m

    def __repr__(self):
        return "<AgreementWitness cut %d+%d on %d taxa>" % (
            self.cut_n, self.cut_m, len(self._n.taxa))


class BoundsReport(NamedTuple):
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
    the local rule stated in _valid_drops.
    """
    subset = set(edge_subset)
    stray = subset - set(n.edges)
    if stray:
        raise ContractViolationError(
            "edges %r are not edges of the host" % (sorted(stray),))
    raw, edge_paths, problems = _subset_quotient(n, subset)
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


def _subset_quotient(n: Network, subset):
    """_quotient_with_paths of the subgraph of n on subset, the root and
    the leaves."""
    vertices = {v for e in subset for v in (e.src, e.dst)}
    vertices |= set(n.leaves)
    vertices.add(n.root)
    return _quotient_with_paths(vertices, subset, n.root, n.leaf_labels)


def _valid_candidate(n: Network, mask):
    """The digraph that candidate_from_edges reads off a subset passing the
    local rule, without its embedding in n.

    The rule proves the subset accepted (see _valid_drops), so the
    quotient's components are assembled unchecked, in the order
    validate_digraph gives them.
    """
    raw, _, _ = _subset_quotient(n, _kept(n, mask))
    return _rho_first([_component(*parts) for parts in raw], n.taxa)


def _local_checks(n: Network):
    """Per edge index, the vertex rules that become decidable with that
    edge, and the edges below it of the edge's ends.

    Returns (checks, ends). A vertex other than the root and the leaves
    gives (edges, out): the bits of its three edge indices, and for a
    reticulation the bit of its out-edge (0 for a tree vertex). It is filed
    in checks under the largest of its three indices. ends holds, for edge
    i, one mask for each end of the edge: the bits of that end's edges with
    indices below i, or -1 when the end is the root or a leaf.
    """
    index = {e: i for i, e in enumerate(n.edges)}
    checks = [[] for _ in n.edges]
    mine = {}
    for v in n.vertices:
        ins = [index[e] for e in n.in_edges(v)]
        outs = [index[e] for e in n.out_edges(v)]
        if ins and outs:
            bits = mine[v] = sum(1 << i for i in ins + outs)
            out = 1 << outs[0] if len(ins) == 2 else 0
            checks[max(ins + outs)].append((bits, out))
    ends = [tuple(mine[v] & ((1 << i) - 1) if v in mine else -1 for v in e[:2])
            for i, e in enumerate(n.edges)]
    return checks, ends


def _valid_drops(n: Network, cap=None):
    """Dropped host edges whose kept rest passes the local rule, with the
    cut of the digraph that rest forms.

    Yields (mask, cut): the bit mask of the dropped edge indices, and the
    number of host edges that every grown extension of the subset's digraph
    in n leaves out. Fewest dropped edges first, then lexicographic in their
    indices. One depth-first walk per size decides the edges in order,
    dropping before keeping so that the subsets come out in that order, and
    abandons a branch once a fully decided vertex breaks the rule. The walk
    keeps its own stack, one entry per open branch, so the stream is lazy
    and its depth is not bounded by the interpreter's recursion limit.

    On a binary host, candidate_from_edges accepts a subset exactly when
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

    The cut is k - z for k dropped edges and z vertices other than the
    root and the leaves that keep none of their edges. The kept subgraph
    is a subdivision of the digraph and cut_size's proof gives the cut as
    |E| - |V| of the host minus that of the digraph; a subdivision has the
    digraph's |E| - |V|, and the kept subgraph has k edges and z vertices
    fewer than the host. The walk counts the inner vertices that keep one
    of the edges decided so far; z is the rest of them once all are decided.

    cap, when given, is a one-item list holding a cut that the caller may
    lower between items; only subsets that cut less are yielded, and the
    walk skips whole branches and sizes that hold no such subset:
      - In a branch at k dropped edges where c inner vertices keep a
        decided edge, the other inner - c are those emptied so far and
        those still open. A vertex that keeps an edge is never emptied, so
        every subset of the branch cuts at least k - (inner - c), and the
        branch is abandoned once inner - c <= k - cap[0].
      - Every subset of k dropped edges cuts at least ceil(k / 3): each
        emptied vertex has three edges, all dropped, and a dropped edge has
        two ends, so 3z <= 2k. Sizes come in increasing order, so the walk
        stops once ceil(k / 3) reaches cap[0].
    So the stream is the unbounded one less exactly the subsets that cut
    cap[0] or more, read at the time each would be yielded.
    """
    checks, ends = _local_checks(n)
    size = len(checks)
    inner = sum(map(len, checks))
    if cap is None:
        cap = [size + 1]  # no subset cuts more than size edges

    def breaks(rules, mask):
        """Whether a vertex of rules breaks its rule for the dropped edges in
        the bit mask.

        A tree vertex keeps 0, 2 or 3 of its edges, and a reticulation
        keeps its out-edge exactly when it keeps an in-edge: so dropping
        two edges breaks either, and dropping one breaks a reticulation
        exactly when it is the out-edge.
        """
        for bits, out in rules:
            gone = (mask & bits).bit_count()
            if gone == 2 or (gone == 1 and mask & out):
                return True
        return False

    for k in range(size + 1):
        if -(-k // 3) >= cap[0]:
            return
        stack = [(0, 0, 0, 0)]
        while stack:
            i, drops, mask, closed = stack.pop()
            if inner - closed <= k - cap[0]:
                continue
            if i == size:
                yield mask, k - inner + closed
                continue
            rules = checks[i]
            # keep is pushed first so that the drop branch is walked first
            if k - drops < size - i and not (rules and breaks(rules, mask)):
                # keeping edge i closes each end whose lower edges are dropped
                a, b = ends[i]
                stack.append((i + 1, drops, mask,
                              closed + (a & mask == a) + (b & mask == b)))
            if drops < k:
                mask_i = mask | 1 << i
                if not (rules and breaks(rules, mask_i)):
                    stack.append((i + 1, drops + 1, mask_i, closed))


def _kept(n: Network, mask):
    """The edges of n whose index bit is not set in mask."""
    return [e for i, e in enumerate(n.edges) if not mask >> i & 1]


def _split_test(n: Network, m: Network):
    """A display test for the kept edges of n that builds nothing.

    Returns splits_fit(mask), where mask holds the bits of the dropped
    edge indices of n. It is False only when m does not display the
    subset's digraph D, by one of two rules; find_embedding decides the
    rest. Both rules walk one plan of n's vertices in the order of n's
    leaf-cluster table, which lists each vertex after its children.

    Splits. Some vertex v of n keeps both of its out-edges, the leaves
    reachable through them over kept edges are Y1 and Y2, and no vertex of
    m has two children whose leaves, all those below each child, cover Y1
    and Y2 in either order. Then m does not display D. Proof: D suppresses
    only the vertices of the kept subgraph with one in- and one out-edge,
    so v is a vertex of D whose two out-edges reach exactly the leaves Y1
    and Y2. An embedding sends v to a vertex w of m and these two edges to
    host paths that share no edge, so they begin with the two out-edges of
    w (m is binary). Every digraph path from the head of such an edge to a
    leaf maps to a host path that continues the edge's path, so that leaf
    lies below the child of w the path enters.

    Forced chains. Every split fits, and the forced chains of D's edges in
    m give some vertex of m two owners; then m does not display D (proof in
    embed._forced_chain). A second pass over the same children-first
    plan reads D off the mask as the built digraph would give it, since D
    suppresses exactly the vertices that keep one in- and one out-edge.
    Such a vertex passes on the forced image, in m, that its kept child
    passes up; a leaf passes up its leaf in m. Any other vertex p that
    keeps an edge is the parent in D of each vertex its kept children pass
    up, with Y the leaves reachable from p over kept edges; each child's
    chain is climbed from its image and its vertices claimed, and when the
    two chains end at the same vertex of m, p passes that vertex up as its
    own forced image. The root of n, the one vertex of the plan with no
    in-edges, is rho in D and owns the root of m, and it and every vertex
    that keeps two in-edges, a reticulation of D, climb their chains with
    Y = None, to the root of m or the first reticulation. Each chain of
    (image, Y) is climbed by embed._forced_chain once per call of
    _split_test and claimed by embed._claim: its top is owned by p's index
    in the plan, and its other vertices by the complement (~j) of the index
    j of the child it climbs from, so that no two owners are equal. The
    tables this pass needs are built on the first subset whose splits fit.
    """
    bit, host_leaf, below = _leaf_clusters(m)  # n has the same taxa, so the same bits
    pairs = [(below[kids[0]], below[kids[1]])
             for kids in map(m.children, m.vertices) if len(kids) == 2]

    index = {e: i for i, e in enumerate(n.edges)}
    order = _leaf_clusters(n)[2]  # each vertex after its children
    at = {v: i for i, v in enumerate(order)}
    plan = [(bit.get(n.leaf_labels.get(v), 0),
             tuple((at[e.dst], 1 << index[e]) for e in n.out_edges(v)))
            for v in order]
    fits = {}
    chains = {}  # (image, Y) -> the vertices of m the chain climbs, top last
    tables = None

    def fit(y1, y2):
        ok = fits.get((y1, y2))
        if ok is None:
            ok = fits[y1, y2] = any(
                (y1 | p == p and y2 | q == q) or (y1 | q == q and y2 | p == p)
                for p, q in pairs)
        return ok

    def chains_clash(mask, reach):
        nonlocal tables
        if tables is None:
            tables = ({b: host_leaf[lab] for lab, b in bit.items()},
                      [sum(1 << index[e] for e in n.in_edges(v)) for v in order])
        image, in_bits = tables
        owner = {m.root: at[n.root]}
        up = []  # per vertex, the image it passes up and the index owning it, or None
        for i, ((leaf, outs), ins, y) in enumerate(zip(plan, in_bits, reach)):
            if leaf:
                up.append((image[leaf], i))
                continue
            kids = [c for c, e in outs if not mask & e]
            kept = (ins & ~mask).bit_count()
            if len(kids) == 1 and kept == 1:
                up.append(up[kids[0]])
                continue
            if not ins or kept == 2:
                y = None  # rho or a reticulation of D
            tops = []
            for c in kids:
                if up[c] is not None:
                    v, j = up[c]
                    chain = chains.get((v, y))
                    if chain is None:
                        chain = chains[v, y] = _forced_chain(m, v, y)
                    if not _claim(owner, chain, ~j, i):
                        return True
                    tops.append(chain[-1])
            up.append((tops[0], i) if len(tops) == 2 and tops[0] == tops[1] else None)
        return False

    def splits_fit(mask):
        reach = []
        for leaf, outs in plan:
            y = leaf
            for c, e in outs:
                if not mask & e:
                    y |= reach[c]
            if (len(outs) == 2 and not mask & (outs[0][1] | outs[1][1])
                    and not fit(reach[outs[0][0]], reach[outs[1][0]])):
                return False
            reach.append(y)
        return not chains_clash(mask, reach)

    return splits_fit


def enumerate_agreement_digraphs(n: Network, m: Network,
                                 tree_child_only: bool = True):
    """Every digraph displayed by both hosts, as a witness stream.

    Deterministic order; one witness per digraph isomorphism class. Being
    tree-child and being displayed by m are class properties, and the split
    test skips only subsets m does not display, so each witness holds the
    first subset of its class in the order of _valid_drops.
    """
    _check_taxa(n, m)
    splits_fit = _split_test(n, m)
    seen = set()
    for mask, cut in _valid_drops(n):
        if not splits_fit(mask):
            continue
        d = _valid_candidate(n, mask)
        if tree_child_only and not is_tree_child_digraph(d):
            continue
        if find_embedding(d, m) is None:
            continue
        sig = digraph_signature(d)
        if sig not in seen:
            seen.add(sig)
            yield AgreementWitness(n, m, mask, cut)


def _min_total_cut(n, m, floor=1, subset_budget=None):
    """Smallest total cut over the pair's shared tree-child digraphs.

    Returns (total, witness) for the first optimum in the order of
    _valid_drops. A digraph D cuts S(D) - 1 + r(h) - r(D) edges of either
    host h (see cut_size), so its cut in m is its cut in n plus r(m) - r(n),
    and its total is twice its cut in n plus r(m) - r(n). A subset beats the
    best so far exactly when its cut in n is below the best's, so the walk
    is capped at that cut: it skips those subsets unread, whole branches and
    sizes of them at a time (see _valid_drops).

    A subset that fails the split test of _split_test is not displayed by
    m, so it is skipped unbuilt as well: by a split that fits below no
    split of m, or by forced chains that give a vertex of m two owners (a
    chain climbs from a leaf or a forced image, the shared top of both
    child chains of a digraph vertex, and below rho or a reticulation it
    climbs to the root of m or the first reticulation; proof in
    embed._forced_chain). The test skips
    nothing that could become the best, and the stream order, the first
    optimum and its witness stay those of a loop without it.

    Each remaining subset is read once, with no isomorphism dedupe: a later
    copy of a class read earlier is tree-child and displayed by m exactly
    when that copy was, and if it was, its total equals the best or lies
    above it, so the cap skips it. Subsets pass the local rule, so
    _valid_candidate builds their digraphs unchecked.

    The search stops once the best total drops below floor; under the
    default floor of 1 that is a total of zero, which nothing improves.
    subset_budget caps how many candidate digraphs of n are built, one per
    subset read, isomorphic repeats included; subsets that the cap or the
    split test skips, by their splits or their forced chains, do not count.
    """
    shift = m.reticulation_count - n.reticulation_count
    splits_fit = _split_test(n, m)
    cap = [len(n.edges) + 1]  # lowered to the best cut found so far
    best = None
    best_w = None
    built = 0
    for mask, cut in _valid_drops(n, cap):
        if not splits_fit(mask):
            continue
        built += 1
        if subset_budget is not None and built > subset_budget:
            raise BudgetExceededError(
                "stopped after %d candidate digraphs" % (built - 1))
        d = _valid_candidate(n, mask)
        if not is_tree_child_digraph(d) or find_embedding(d, m) is None:
            continue
        cap[0] = cut
        best = 2 * cut + shift
        best_w = AgreementWitness(n, m, mask, cut)
        if best < floor:
            break
    return best, best_w


def mtc(n: Network, m: Network, subset_budget=None):
    """Minimum total cut over the pair's shared tree-child digraphs.

    Returns (count, witness). The witness is the first optimum in
    enumeration order; each side carries a grown extension certifying
    its cut, built on first access. subset_budget caps how many candidate
    digraphs of n (tree-child or not) are built before giving up: one per
    edge subset read, so isomorphic repeats count as well. An edge subset
    is skipped before its digraph is built, and is not counted, when its
    total cut, read off its size, cannot beat the best so far, when the
    leaves below one of its splits fit below no split of m, or when its
    forced chains in m give a vertex of m two owners. A chain is the run of
    edges above the image of a digraph vertex that every embedding routes
    the vertex's in-edge through: the image is a leaf's host leaf, or the
    shared top of the chains of both children of a tree vertex, which every
    embedding sends there. The chain climbs to the first vertex covering
    the leaves below the parent, or, when the parent is rho or a
    reticulation, to the root of m or the first reticulation. Its inner
    vertices belong to its edge and its top to the parent, and the root of
    m belongs to rho.
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


def _marked_tree(t: Network):
    """t with the root marker, as index arrays.

    Returns (parent, kids, index): vertex 0 is a new top vertex whose
    children are t's top tree vertex (2) and the marker leaf (1), so t's
    root edge is skipped. parent holds -1 at vertex 0, kids a pair of
    children at an inner vertex and None at a leaf, and index maps each
    label, the marker's included, to its leaf.
    """
    parent = [-1, 0, 0]
    kids = [(2, 1), None, None]
    index = {_RHO: 1}
    stack = [(t.children(t.root)[0], 2)]
    while stack:
        v, i = stack.pop()
        if v in t.leaf_labels:
            index[t.leaf_labels[v]] = i
            continue
        j = len(parent)
        kids[i] = (j, j + 1)
        parent += (i, i)
        kids += (None, None)
        stack += zip(t.children(v), (j, j + 1))
    return parent, kids, index


def _cut_above(parent, kids, x):
    """Cut the edge above x and suppress x's parent p, whose other child y
    takes p's place (as a component root when p was one). Marks p gone
    (-2) and returns y."""
    p = parent[x]
    parent[x] = -1
    a, b = kids[p]
    y = b if a == x else a
    g = parent[y] = parent[p]
    parent[p] = -2
    if g >= 0:
        a, b = kids[g]
        kids[g] = (y, b) if a == p else (a, y)
    return y


def _is_cherry(kids, p):
    pair = kids[p]
    return pair is not None and kids[pair[0]] is None and kids[pair[1]] is None


def _reduce_pair(par1, kids1, par2, kids2, twin):
    """Apply the two forced rules of maf_rspr in place; return the twins in
    F2 of a cherry of T1 that neither rule resolves, or None once T1 is a
    single leaf.

    twin maps each leaf of T1 to its leaf of F2. A leaf of T1 whose twin is
    a whole component of F2 leaves T1, and a cherry of T1 whose twins are
    siblings in F2 becomes one leaf in both, which leaves T1 in turn when
    it is a whole component. Neither rule changes which pairs of other
    leaves are siblings in F2, so a cherry once found unresolved stays so.
    """
    for v, p in enumerate(par1):
        if p >= 0 and kids1[v] is None:
            x = twin[v]
            if par2[x] == -1 and kids2[x] is None:
                _cut_above(par1, kids1, v)
                par1[v] = -2
    work = [v for v, p in enumerate(par1) if p != -2 and _is_cherry(kids1, v)]
    blocked = None
    while work:
        p = work.pop()
        a, c = kids1[p]
        x, z = twin[a], twin[c]
        q = par2[x]
        if q < 0 or q != par2[z]:
            if blocked is None:
                blocked = x, z
            continue
        kids1[p] = kids2[q] = None
        par1[a] = par1[c] = par2[x] = par2[z] = -2
        twin[p] = q
        if par2[q] == -1 and par1[p] >= 0:
            p = _cut_above(par1, kids1, p)
        g = par1[p]
        if g >= 0 and _is_cherry(kids1, g):
            work.append(g)
    return blocked


def _pendant_roots(parent, kids, x, z):
    """Roots of the subtrees that hang off the path between the leaves x
    and z, or None when x and z lie in different components."""
    above_x = set()
    w = x
    while w >= 0:
        above_x.add(w)
        w = parent[w]
    path = []
    w = z
    while w not in above_x:
        path.append(w)
        w = parent[w]
        if w < 0:
            return None
    top = w
    w = x
    while parent[w] != top:
        path.append(w)
        w = parent[w]
    roots = []
    for w in path:
        p = parent[w]
        if p != top:
            a, b = kids[p]
            roots.append(b if a == w else a)
    return roots


def maf_rspr(t: Network, u: Network, budget=None) -> int:
    """Rooted prune-regraft distance between two trees, by cherry branching.

    The distance is the size of a maximum agreement forest of the trees
    with a root marker rho hung beside each top tree vertex, less one
    (Bordewich & Semple, Ann. Comb. 8, 2005). The search is the
    fixed-parameter one of Whidden, Beiko & Zeh (SIAM J. Comput. 42, 2013)
    in its simple O(3^k n) form: T1, the first tree, is reduced while F2,
    a forest that starts as the second tree, is cut, and k, the number of
    cuts allowed, is deepened from 0 until a search within k succeeds.

    Two rules are forced, and _reduce_pair applies them first: a leaf of T1
    that is a whole component of F2 leaves T1, and a cherry of T1 whose
    two members are siblings in F2 becomes one leaf in both. When T1 is a
    single leaf, F2 is an agreement forest of k + 1 components. Otherwise
    the search branches on the first cherry (a, c) of T1 that neither rule
    resolves:
      - cut a from F2;
      - cut c from F2;
      - when a and c lie in one component of F2, cut every subtree that
        hangs off the a-c path in F2, at a cost of their count.

    Proof sketch. Take a maximum agreement forest F that F2 can still be cut
    to. If a and c lie in different components of F, one of them is a
    singleton: in T1 each reaches any other leaf through their common
    parent, and the components of F span vertex-disjoint subtrees of T1. If
    they lie in one component, that component has them as siblings in T1
    and so in F2 as well: none of its leaves lies in a subtree that hangs
    off the a-c path, and each such subtree is cut off the path in F.
    Every cut adds one component, so one of the three branches is a step
    towards F, and the first k that succeeds is the distance.

    budget caps the branch nodes: every state the search reduces counts
    one, the start of each deepening round included. Running out raises
    BudgetExceededError. The search keeps its own stack, so neither depth
    nor tree size meets the interpreter's recursion limit.
    """
    for net, side in ((t, "first"), (u, "second")):
        if net.reticulation_count:
            raise InvalidNetworkError(
                ["%s input has reticulations" % side])
    mismatch = _taxa_mismatch(t, u)
    if mismatch:
        raise EmbeddingError(mismatch)
    par1, kids1, index1 = _marked_tree(t)
    par2, kids2, index2 = _marked_tree(u)
    twin = [0] * len(par1)
    for lab, i in index1.items():
        twin[i] = index2[lab]
    start = (par1, kids1, par2, kids2, twin)
    nodes = 0
    k = 0
    while True:
        stack = [([s[:] for s in start], k)]
        while stack:
            state, left = stack.pop()
            nodes += 1
            if budget is not None and nodes > budget:
                raise BudgetExceededError("stopped after %d branch nodes" % budget)
            blocked = _reduce_pair(*state)
            if blocked is None:
                return k
            if not left:
                continue
            x, z = blocked
            cuts = [[z]]
            pendants = _pendant_roots(state[2], state[3], x, z)
            if pendants is not None and len(pendants) <= left:
                cuts.append(pendants)
            for cut in reversed(cuts):
                child = [s[:] for s in state]
                for w in cut:
                    _cut_above(child[2], child[3], w)
                stack.append((child, left - len(cut)))
            # cutting a is popped first, on the parent's own lists
            _cut_above(state[2], state[3], x)
            stack.append((state, left - 1))
        k += 1


def _leaf_tail_moves(n):
    """(Move, mu key) for each tree-child pm move of n that moves a leaf,
    keyed without an edit; of the stream's triples only those it yields
    become Moves."""
    leaves = n.leaves
    return ((Move._make(succ[:3]), succ[3]) for succ in _keyed(n, kind="pm")
            if succ[1].dst in leaves)


def gap_witness_search(n_leaves, r, budget, seed=0):
    """Hunt for a pair whose distance sits strictly below the measure.

    Walks random tree-child networks and their double leaf prune-regraft
    neighbours. Such a pair is at most two tail moves apart, so a measure
    of five or more already pins the distance: the halved measure pushes
    it above two, equal reticulation counts force it even, and the two
    moves bound it by four. The final report recomputes both numbers from
    scratch anyway. budget counts candidate pairs, a drawn network giving
    none counting as one; nothing comes back once it runs out.
    """
    rng = random.Random(seed)
    left = budget
    while left > 0:
        base = random_tree_child(n_leaves, r, seed=rng.randrange(2 ** 30))
        drawn = left
        seen = {_mu_key(base)}
        for mv1, _ in _leaf_tail_moves(base):
            pruned = base.leaf_labels[mv1.edge.dst]
            s1 = apply_move(base, mv1)
            for mv2, sig in _leaf_tail_moves(s1):
                if s1.leaf_labels[mv2.edge.dst] == pruned:
                    continue
                if sig in seen:
                    continue
                seen.add(sig)
                s2 = apply_move(s1, mv2)
                if left <= 0:
                    return None
                left -= 1
                if _min_total_cut(base, s2, floor=5)[0] < 5:
                    continue
                report = check_bounds(base, s2)
                if report.holds and report.d < report.m:
                    return base, s2, report
        if left == drawn:
            left -= 1
    return None
