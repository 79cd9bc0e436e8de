"""Canonical forms and isomorphism for leaf-anchored directed multigraphs.

Strategy
--------
* iterative in/out-neighbour refinement, seeded with caller-supplied vertex
  classes (leaf labels, root markers)
* individualisation with backtracking whenever refinement stalls on a
  non-trivial cell, keeping the lexicographically least encoding
* isomorphism is decided by a second, independent algorithm (joint refinement
  over the disjoint union plus backtracking matching) so that signature
  equality can be cross-checked against it
"""

from collections import Counter


def _neighbour_tables(vertices, edges):
    adj_in = {v: Counter() for v in vertices}
    adj_out = {v: Counter() for v in vertices}
    for u, v in edges:
        adj_out[u][v] += 1
        adj_in[v][u] += 1
    return adj_in, adj_out


def _refine(order, adj_in, adj_out, rank):
    """Refine vertex ranks until stable; ranks stay dense ints."""
    # neighbour lists with multiplicity, expanded once for every round
    ins = {v: list(adj_in[v].elements()) for v in order}
    outs = {v: list(adj_out[v].elements()) for v in order}
    n_classes = -1
    while True:
        at = rank.__getitem__
        keys = {v: (rank[v], tuple(sorted(map(at, ins[v]))), tuple(sorted(map(at, outs[v]))))
                for v in order}
        ordered = sorted(set(keys.values()))
        lookup = {k: i for i, k in enumerate(ordered)}
        rank = {v: lookup[keys[v]] for v in order}
        if len(ordered) == n_classes:
            return rank
        n_classes = len(ordered)


def _encode(order, edges, seed, rank):
    by_pos = sorted(order, key=lambda v: rank[v])
    seeds = tuple(seed.get(v, 0) for v in by_pos)
    arcs = tuple(sorted((rank[u], rank[v]) for u, v in edges))
    return repr((seeds, arcs)).encode()


def canonical_labelling(vertices, edges, seed=None):
    """Return (signature bytes, vertex -> canonical position).

    ``edges`` is an iterable of (u, v) pairs; parallel edges are encoded by
    repetition. ``seed`` maps vertices to small ints fixing classes the
    canonical form must respect. Two graphs get equal signatures exactly when
    a seed-preserving isomorphism exists between them.
    """
    order = sorted(vertices)
    edges = [(u, v) for u, v in edges]
    if not order:
        return repr(((), ())).encode(), {}
    seed = dict(seed) if seed else {}
    adj_in, adj_out = _neighbour_tables(order, edges)
    init_values = sorted({seed.get(v, 0) for v in order})
    smap = {s: i for i, s in enumerate(init_values)}
    start = {v: smap[seed.get(v, 0)] for v in order}

    best_enc = None
    best_rank = None

    stack = [start]
    while stack:
        rank = _refine(order, adj_in, adj_out, stack.pop())
        cells = {}
        for v in order:
            cells.setdefault(rank[v], []).append(v)
        target = None
        for r in sorted(cells):
            if len(cells[r]) > 1:
                target = cells[r]
                break
        if target is None:
            enc = _encode(order, edges, seed, rank)
            if best_enc is None or enc < best_enc:
                best_enc, best_rank = enc, rank
            continue
        for v in target:
            bumped = {u: 2 * rank[u] for u in order}
            bumped[v] -= 1
            stack.append(bumped)

    return best_enc, best_rank


def isomorphism_mapping(verts1, edges1, seed1, verts2, edges2, seed2):
    """Find a seed-preserving isomorphism as a dict, or return None.

    Deliberately a different algorithm from canonical_labelling: the two
    graphs are refined jointly over their disjoint union, then matched cell
    by cell with backtracking. Seeds of both graphs must use one shared value
    space.
    """
    verts1, verts2 = sorted(verts1), sorted(verts2)
    edges1 = [(u, v) for u, v in edges1]
    edges2 = [(u, v) for u, v in edges2]
    seed1 = dict(seed1) if seed1 else {}
    seed2 = dict(seed2) if seed2 else {}
    if len(verts1) != len(verts2) or len(edges1) != len(edges2):
        return None
    if sorted(seed1.get(v, 0) for v in verts1) != sorted(
        seed2.get(v, 0) for v in verts2
    ):
        return None

    order = [(0, v) for v in verts1] + [(1, v) for v in verts2]
    union_edges = [((0, u), (0, v)) for u, v in edges1] + [
        ((1, u), (1, v)) for u, v in edges2
    ]
    union_seed = {(0, v): seed1.get(v, 0) for v in verts1}
    union_seed.update({(1, v): seed2.get(v, 0) for v in verts2})

    adj_in, adj_out = _neighbour_tables(order, union_edges)
    init_values = sorted(set(union_seed.values()))
    smap = {s: i for i, s in enumerate(init_values)}
    rank = _refine(order, adj_in, adj_out, {v: smap[union_seed[v]] for v in order})

    cells = {}
    for tag, v in order:
        cells.setdefault(rank[(tag, v)], ([], []))[tag].append(v)
    for left, right in cells.values():
        if len(left) != len(right):
            return None

    in1, out1 = _neighbour_tables(verts1, edges1)
    in2, out2 = _neighbour_tables(verts2, edges2)

    cell_of1 = {v: rank[(0, v)] for v in verts1}
    cell_of2 = {v: rank[(1, v)] for v in verts2}
    # match from the most constrained cells first
    pending = sorted(verts1, key=lambda v: (len(cells[cell_of1[v]][0]), cell_of1[v], v))

    mapping = {}
    inverse = {}

    def agree(counts, other, to_other):
        return all(other[to_other[x]] == c for x, c in counts.items() if x in to_other)

    def consistent(v, w):
        # v and w have equal arc counts to and from every matched pair; a
        # pair can differ only where one side has an arc, so only the
        # matched neighbours of v and of w are read
        return (agree(out1[v], out2[w], mapping) and agree(in1[v], in2[w], mapping)
                and agree(out2[w], out1[v], inverse) and agree(in2[w], in1[v], inverse))

    # depth-first over pending: tried[i] counts the candidates depth i has
    # taken, so returning to a depth resumes after its last choice
    tried = [0] * len(pending)
    i = 0
    while 0 <= i < len(pending):
        v = pending[i]
        if v in mapping:
            del inverse[mapping.pop(v)]
        candidates = cells[cell_of1[v]][1]
        while tried[i] < len(candidates):
            w = candidates[tried[i]]
            tried[i] += 1
            if w not in inverse and consistent(v, w):
                mapping[v] = w
                inverse[w] = v
                break
        if v in mapping:
            i += 1
        else:
            tried[i] = 0
            i -= 1
    if i < 0:
        return None
    mapped = Counter((mapping[u], mapping[v]) for u, v in edges1)
    if mapped != Counter(edges2):
        return None
    return dict(mapping)
