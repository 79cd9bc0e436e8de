"""Embeddings, extensions, and the rewiring operations between them."""

import pytest

from snprlab import (
    ContractViolationError,
    Edge,
    EmbeddingError,
    Extension,
    ExtensionPolicy,
    InvalidNetworkError,
    Move,
    MoveError,
    cut_size,
    digraph_cut_size,
    digraph_isomorphic,
    embedding_violations,
    enumerate_embeddings,
    enumerate_tree_child,
    extend,
    extension_violations,
    find_embedding,
    isomorphic,
    is_tree_child,
    network_as_digraph,
    parse_enewick,
    path_extension,
    quotient,
    random_network,
    random_tree_child,
    root_extend,
    root_path,
    singleton_digraph,
    to_root_extension,
    transfer_extension,
    validate,
    validate_component,
    validate_digraph,
    write_extension_pnd,
)
from snprlab.agreement import _distinct_candidates


def cherry_digraph():
    # isolated rho, a cherry on {a, b}, and a lone c
    rho = validate_component([], {}, rho=20, vertices={20})
    cherry = validate_component([(21, 22), (21, 23)], {22: "a", 23: "b"})
    lone = validate_component([], {24: "c"}, vertices={24})
    return validate_digraph([rho, cherry, lone], {"a", "b", "c"})


def rho_tree_a_bc():
    # single component: rho above the tree (a,(b,c))
    comp = validate_component(
        [(10, 11), (11, 13), (11, 12), (12, 14), (12, 15)],
        {13: "a", 14: "b", 15: "c"},
        rho=10,
    )
    return validate_digraph([comp], {"a", "b", "c"})


def rho_tree_ab_c():
    # single component: rho above the tree ((a,b),c)
    comp = validate_component(
        [(10, 11), (11, 12), (11, 15), (12, 13), (12, 14)],
        {13: "a", 14: "b", 15: "c"},
        rho=10,
    )
    return validate_digraph([comp], {"a", "b", "c"})


def quotient_roundtrip(d, m):
    """Independent check: collapsing the embedded subgraph gives d back."""
    host = m.host
    labels = {host.leaf_of_label(lab): lab for lab in d.taxa}
    comps = quotient(m.host_vertices(), m.host_edges(), rho=host.root,
                     leaf_labels=labels)
    return digraph_isomorphic(validate_digraph(comps, d.taxa), d)


# ---------------------------------------------------------------- embeddings


def test_rho_tree_embeds_in_reticulated_host(retic_ab_c):
    m = find_embedding(rho_tree_a_bc(), retic_ab_c)
    assert m is not None
    assert embedding_violations(m) == []
    assert m.host_edges() == frozenset(
        [Edge(0, 1), Edge(1, 2), Edge(2, 4), Edge(1, 3),
         Edge(3, 6), Edge(6, 7), Edge(3, 5)]
    )
    assert len(m.host_edges()) == len(retic_ab_c.edges) - 1


def test_rho_tree_embedding_is_unique(retic_ab_c):
    found = list(enumerate_embeddings(rho_tree_a_bc(), retic_ab_c))
    assert len(found) == 1


def test_rho_tree_extension_is_already_closed(retic_ab_c):
    m = find_embedding(rho_tree_a_bc(), retic_ab_c)
    r = extend(m, retic_ab_c)
    assert r.added_edges == ()
    assert extension_violations(r) == []
    assert cut_size(retic_ab_c, r) == 1
    assert digraph_cut_size(retic_ab_c, rho_tree_a_bc()) == 1


def test_cherry_in_sibling_tree(triple_ab_c):
    d = cherry_digraph()
    m = find_embedding(d, triple_ab_c)
    assert m is not None
    assert m.host_edges() == frozenset([Edge(2, 3), Edge(2, 4)])
    r = extend(m, triple_ab_c)
    assert r.added_edges == (Edge(1, 2),)
    assert cut_size(triple_ab_c, r) == 2
    assert digraph_cut_size(triple_ab_c, d) == 2


def test_cherry_straddling_other_tree(triple_ac_b):
    # here the cherry has to reach through the host root's child
    d = cherry_digraph()
    m = find_embedding(d, triple_ac_b)
    assert m.host_edges() == frozenset([Edge(1, 2), Edge(2, 3), Edge(1, 5)])
    r = extend(m, triple_ac_b)
    assert r.added_edges == ()
    assert digraph_cut_size(triple_ac_b, d) == 2


def test_reticulated_digraph_absent_from_tree(retic_ab_c, triple_ab_c):
    d = network_as_digraph(retic_ab_c)
    assert find_embedding(d, triple_ab_c) is None
    with pytest.raises(EmbeddingError):
        digraph_cut_size(triple_ab_c, d)


def test_taxa_mismatch_is_an_error(parallel_one_leaf):
    with pytest.raises(EmbeddingError):
        find_embedding(cherry_digraph(), parallel_one_leaf)


def test_own_shape_covers_everything(triple_ab_c):
    d = rho_tree_ab_c()
    found = list(enumerate_embeddings(d, triple_ab_c))
    assert len(found) == 1
    assert digraph_cut_size(triple_ab_c, d) == 0


def test_whole_network_digraph_covers_everything(retic_ab_c, stack_sibling_host):
    for n in (retic_ab_c, stack_sibling_host):
        assert digraph_cut_size(n, network_as_digraph(n)) == 0


def test_singletons_embed_uniquely(triple_ab_c):
    d = singleton_digraph(triple_ab_c)
    found = list(enumerate_embeddings(d, triple_ab_c))
    assert len(found) == 1
    assert found[0].host_edges() == frozenset()
    assert digraph_cut_size(triple_ab_c, d) == 3


def test_quotient_recovers_the_digraph(triple_ab_c, triple_ac_b, retic_ab_c):
    pairs = [
        (cherry_digraph(), triple_ab_c),
        (cherry_digraph(), triple_ac_b),
        (cherry_digraph(), retic_ab_c),
        (rho_tree_a_bc(), retic_ab_c),
        (singleton_digraph(triple_ab_c), triple_ab_c),
        (network_as_digraph(retic_ab_c), retic_ab_c),
    ]
    for d, n in pairs:
        for m in enumerate_embeddings(d, n):
            assert embedding_violations(m) == []
            assert quotient_roundtrip(d, m)


def test_embedding_violations_catch_tampering(triple_ab_c):
    from snprlab.embed import Embedding

    d = cherry_digraph()
    good = find_embedding(d, triple_ab_c)
    # reroute one cherry leg onto the other's path
    emap = dict(good.edge_map)
    key = next(de for de in emap if de == Edge(21, 23))
    emap[key] = (Edge(2, 3),)
    bad = Embedding(d, triple_ab_c, dict(good.vertex_map), emap)
    assert embedding_violations(bad) != []


# ----------------------------------------------------------------- growth


def test_extend_rejects_a_foreign_host(triple_ab_c, triple_ac_b):
    m = find_embedding(cherry_digraph(), triple_ab_c)
    with pytest.raises(ContractViolationError):
        extend(m, triple_ac_b)


def test_parallel_edge_host_extension(parallel_one_leaf):
    n = parallel_one_leaf
    d = singleton_digraph(n)
    assert digraph_cut_size(n, d) == 2
    m = find_embedding(d, n)
    cuts = {cut_size(n, extend(m, n))}
    for seed in range(8):
        policy = ExtensionPolicy(mode="seeded", seed=seed)
        cuts.add(cut_size(n, extend(m, n, policy)))
    assert cuts == {2}


def test_stack_host_root_extension_routes(stack_sibling_host):
    n = stack_sibling_host
    assert not is_tree_child(n)
    d = singleton_digraph(n)
    m = find_embedding(d, n)

    # deterministic route: the reticulation edge (3,5) gets claimed at 5,
    # after which nothing can reach vertex 4
    a = root_extend(m, n)
    assert a.added_edges == (Edge(2, 6), Edge(1, 2), Edge(5, 7), Edge(3, 5))
    assert extension_violations(a) == []
    assert cut_size(n, a) == 5
    assert 4 not in a.component_of_host()

    # the other route claims (4,5) instead and then pulls in (3,4)
    b = Extension(m, [Edge(2, 6), Edge(1, 2), Edge(5, 7),
                      Edge(4, 5), Edge(3, 4)], allow_e2=False)
    assert extension_violations(b) == []
    assert cut_size(n, b) == 4

    # the two fixpoints disagree, witnessing the non-tree-child host
    assert {cut_size(n, a), cut_size(n, b)} == {4, 5}


def test_stack_host_seeded_routes_cover_both_cuts(stack_sibling_host):
    n = stack_sibling_host
    m = find_embedding(singleton_digraph(n), n)
    cuts = set()
    for seed in range(40):
        policy = ExtensionPolicy(mode="seeded", seed=seed, allow_e2=False)
        cuts.add(cut_size(n, extend(m, n, policy)))
    assert cuts == {4, 5}


def test_stack_host_full_extension_is_policy_free(stack_sibling_host):
    n = stack_sibling_host
    m = find_embedding(singleton_digraph(n), n)
    r = extend(m, n)
    assert r.added_edges == (
        Edge(2, 6), Edge(1, 2), Edge(5, 7), Edge(3, 5), Edge(4, 5))
    assert cut_size(n, r) == 4
    for seed in range(10):
        policy = ExtensionPolicy(mode="seeded", seed=seed)
        assert cut_size(n, extend(m, n, policy)) == 4


def test_short_route_reported_open_as_a_full_extension(stack_sibling_host):
    # route a above is a fine root extension but not a full fixpoint:
    # an in-1 reticulation step is still claimable and vertex 4 is uncovered
    n = stack_sibling_host
    m = find_embedding(singleton_digraph(n), n)
    a = Extension(m, [Edge(2, 6), Edge(1, 2), Edge(5, 7), Edge(3, 5)],
                  allow_e2=True)
    problems = extension_violations(a)
    assert any("fixpoint" in p for p in problems)
    assert any("not covered" in p for p in problems)


def test_extension_violations_catch_bad_added_edges(triple_ab_c):
    m = find_embedding(cherry_digraph(), triple_ab_c)
    stray = Extension(m, [Edge(0, 1)])
    assert extension_violations(stray) != []
    overlap = Extension(m, [Edge(2, 3)])
    assert extension_violations(overlap) != []
    dup = Extension(m, [Edge(1, 2), Edge(1, 2)])
    assert extension_violations(dup) != []


def cut_invariance_pairs(triple_ab_c, triple_ac_b, retic_ab_c, parallel_one_leaf):
    return [
        (cherry_digraph(), triple_ab_c),
        (cherry_digraph(), triple_ac_b),
        (cherry_digraph(), retic_ab_c),
        (rho_tree_a_bc(), retic_ab_c),
        (singleton_digraph(triple_ab_c), triple_ab_c),
        (singleton_digraph(parallel_one_leaf), parallel_one_leaf),
    ]


def test_cut_size_ignores_policy_and_embedding(
        triple_ab_c, triple_ac_b, retic_ab_c, parallel_one_leaf):
    pairs = cut_invariance_pairs(
        triple_ab_c, triple_ac_b, retic_ab_c, parallel_one_leaf)
    for d, n in pairs:
        cuts = set()
        for m in enumerate_embeddings(d, n):
            cuts.add(cut_size(n, extend(m, n)))
            for seed in range(8):
                policy = ExtensionPolicy(mode="seeded", seed=seed)
                cuts.add(cut_size(n, extend(m, n, policy)))
        assert len(cuts) == 1, (d.taxa, n, cuts)


def test_search_tries_tied_paths_in_edge_order():
    # two host paths reach the same image through a reticulation; the search
    # takes the one whose edge sequence sorts first
    E = Edge
    host = parse_enewick("((a,(b)#H1),(#H1,c));")  # root 0, reticulation 4
    d = validate_digraph([validate_component([(0, 1)], {1: "b"}, rho=0),
                          validate_component([], {2: "a"}, vertices={2}),
                          validate_component([], {3: "c"}, vertices={3})], host.taxa)
    assert find_embedding(d, host).edge_map[E(0, 1)] == (
        E(0, 1), E(1, 2), E(2, 4), E(4, 5))
    # the same with a cherry below the reticulation, whose top the search places
    host = parse_enewick("((a,((b,d))#H1),(#H1,c));")
    d = validate_digraph([validate_component([(0, 1), (1, 2), (1, 3)],
                                             {2: "b", 3: "d"}, rho=0),
                          validate_component([], {4: "a"}, vertices={4}),
                          validate_component([], {5: "c"}, vertices={5})], host.taxa)
    m = find_embedding(d, host)
    assert m.vertex_map[1] == 5
    assert m.edge_map[E(0, 1)] == (E(0, 1), E(1, 2), E(2, 4), E(4, 5))


def test_deep_host_embeds_and_extends():
    # a 1,200-leaf caterpillar: root 0, spine 1..L-1, leaf L+i-1 hangs off
    # spine vertex i and the deepest leaf 2L-1 off the last one
    size = 1200
    edges = [(0, 1)] + [(i, i + 1) for i in range(1, size - 1)]
    edges += [(i, size + i - 1) for i in range(1, size)] + [(size - 1, 2 * size - 1)]
    labels = {v: "t%d" % v for v in range(size, 2 * size)}
    deepest = 2 * size - 1
    # the same caterpillar below a reticulation 0 (((C)#H1,(#H1,x)); in
    # eNewick): two host paths from the root to any leaf share all but
    # their top edges, and the search compares them
    root, top, w, x = 2 * size, 2 * size + 1, 2 * size + 2, 2 * size + 3
    above = [(root, top), (top, 0), (top, w), (w, 0), (w, x)]
    hosts = [(validate(edges, labels, root=0), size, size - 1),
             (validate(above + edges, {**labels, x: "x"}, root=root), size + 2, size + 1)]
    for n, used, cut in hosts:
        comps = [validate_component([(n.root, deepest)], {deepest: labels[deepest]},
                                    rho=n.root)]
        comps += [validate_component([], {v: lab}, vertices={v})
                  for v, lab in n.leaf_labels.items() if v != deepest]
        d = validate_digraph(comps, n.taxa)
        m = find_embedding(d, n)
        assert m is not None
        assert len(m.host_edges()) == used
        assert cut_size(n, extend(m, n)) == cut
        # the whole host as one component: one search step per edge
        whole = find_embedding(network_as_digraph(n), n)
        assert whole is not None
        assert whole.host_edges() == frozenset(n.edges)


def random_corpus():
    nets = []
    for seed in range(6):
        nets.append(random_tree_child(4, 1, seed=seed))
        nets.append(random_tree_child(5, 2, seed=seed))
    return nets


def test_root_extension_cuts_agree_on_tree_child_hosts():
    for n in random_corpus():
        m = find_embedding(singleton_digraph(n), n)
        cuts = {cut_size(n, root_extend(m, n))}
        for seed in range(8):
            policy = ExtensionPolicy(mode="seeded", seed=seed, allow_e2=False)
            cuts.add(cut_size(n, root_extend(m, n, policy)))
        assert len(cuts) == 1, (n, cuts)


def test_full_extensions_cover_and_feed_every_vertex():
    for n in random_corpus():
        m = find_embedding(singleton_digraph(n), n)
        for policy in [None, ExtensionPolicy(mode="seeded", seed=3)]:
            r = extend(m, n, policy)
            assert extension_violations(r) == []
            comp = r.component_of_host()
            assert set(comp) == set(n.vertices)
            out_r = {v: 0 for v in n.vertices}
            for e in r.edges():
                out_r[e.src] += 1
            for v in n.vertices:
                if v == n.root or n.out_degree(v) == 0:
                    continue
                assert out_r[v] >= 1, (n, v)


def test_tree_vertices_keep_their_degrees(triple_ab_c, triple_ac_b, retic_ab_c,
                                          parallel_one_leaf):
    pairs = cut_invariance_pairs(
        triple_ab_c, triple_ac_b, retic_ab_c, parallel_one_leaf)
    for n in random_corpus():
        pairs.append((singleton_digraph(n), n))
    for d, n in pairs:
        m = find_embedding(d, n)
        r = extend(m, n)
        retics = set(n.reticulations())
        out_m = {v: 0 for v in n.vertices}
        for e in m.host_edges():
            out_m[e.src] += 1
        out_r = {v: 0 for v in n.vertices}
        for e in r.edges():
            out_r[e.src] += 1
        m_vertices = set(m.host_vertices())
        for v in n.vertices:
            if v in retics or n.out_degree(v) == 0 or v == n.root:
                continue
            if v in m_vertices:
                assert out_r[v] == out_m[v], (n, v)
            elif v in r.component_of_host():
                assert out_r[v] == 1, (n, v)


# ------------------------------------------------------------- rerouting


def test_to_root_extension_is_identity_when_settled(triple_ab_c):
    m = find_embedding(cherry_digraph(), triple_ab_c)
    r = root_extend(m, triple_ab_c)
    assert to_root_extension(triple_ab_c, r) is r


def test_to_root_extension_swaps_to_the_sibling(retic_ab_c):
    # a full extension that reached c's component through the reticulation
    d = cherry_digraph()
    m = find_embedding(d, retic_ab_c)
    assert m.host_edges() == frozenset([Edge(2, 4), Edge(2, 6), Edge(6, 7)])
    r = Extension(m, [Edge(3, 6), Edge(1, 3)], allow_e2=True)
    assert extension_violations(r) == []
    assert cut_size(retic_ab_c, r) == 3

    out = to_root_extension(retic_ab_c, r)
    assert not out.allow_e2
    assert extension_violations(out) == []
    assert cut_size(retic_ab_c, out) == 3
    assert set(out.added_edges) == {Edge(3, 5), Edge(1, 3)}
    retics = set(retic_ab_c.reticulations())
    base = m.host_edges()
    assert not [e for e in out.edges() if e.dst in retics and e not in base]


def test_to_root_extension_needs_a_tree_child_host(stack_sibling_host):
    n = stack_sibling_host
    m = find_embedding(singleton_digraph(n), n)
    r = extend(m, n)
    with pytest.raises(InvalidNetworkError):
        to_root_extension(n, r)


def test_to_root_extension_on_random_hosts():
    for n in random_corpus():
        m = find_embedding(singleton_digraph(n), n)
        for policy in [None, ExtensionPolicy(mode="seeded", seed=5)]:
            r = extend(m, n, policy)
            out = to_root_extension(n, r)
            assert extension_violations(out) == []
            assert cut_size(n, out) == cut_size(n, r)
            retics = set(n.reticulations())
            base = m.host_edges()
            assert not [e for e in out.edges()
                        if e.dst in retics and e not in base]


# ------------------------------------------------------------- root paths


def test_root_path_after_one_step(triple_ab_c):
    m = find_embedding(cherry_digraph(), triple_ab_c)
    r = extend(m, triple_ab_c)
    assert root_path(r, 2) == (Edge(1, 2),)
    assert root_path(r, 0) == ()
    assert root_path(r, 5) == ()


def test_root_path_when_nothing_was_added(triple_ac_b):
    m = find_embedding(cherry_digraph(), triple_ac_b)
    r = extend(m, triple_ac_b)
    assert root_path(r, 1) == ()
    assert root_path(r, 4) == ()


def test_root_path_rejects_non_root_images(triple_ab_c):
    m = find_embedding(cherry_digraph(), triple_ab_c)
    r = extend(m, triple_ab_c)
    # image of a labelled leaf inside the cherry has in-degree 1 there
    with pytest.raises(EmbeddingError):
        root_path(r, 3)
    with pytest.raises(EmbeddingError):
        root_path(r, 99)


def test_root_path_through_two_added_edges(stack_sibling_host):
    n = stack_sibling_host
    m = find_embedding(singleton_digraph(n), n)
    a = root_extend(m, n)
    assert root_path(a, 7) == (Edge(3, 5), Edge(5, 7))
    assert root_path(a, 6) == (Edge(1, 2), Edge(2, 6))
    # chain interiors carry one claimed edge in and one out
    in_r = {v: 0 for v in n.vertices}
    out_r = {v: 0 for v in n.vertices}
    for e in a.edges():
        in_r[e.dst] += 1
        out_r[e.src] += 1
    for e in root_path(a, 7)[:-1]:
        assert in_r[e.dst] == 1 and out_r[e.dst] == 1


def test_root_path_is_ambiguous_in_a_branching_extension(stack_sibling_host):
    n = stack_sibling_host
    m = find_embedding(singleton_digraph(n), n)
    r = extend(m, n)
    with pytest.raises(EmbeddingError):
        root_path(r, 7)


# --------------------------------------------------------- path extensions


def test_path_extension_without_reticulations(triple_ab_c):
    m = find_embedding(cherry_digraph(), triple_ab_c)
    r = extend(m, triple_ab_c)
    p = (Edge(2, 3),)
    assert path_extension(r, m, p) == frozenset(p)
    both = (Edge(2, 3),)
    assert path_extension(r, m, both) >= set(both)


def test_path_extension_pulls_in_the_feeding_chain(retic_ab_c):
    d = cherry_digraph()
    m = find_embedding(d, retic_ab_c)
    r = Extension(m, [Edge(3, 6), Edge(1, 3)], allow_e2=True)
    p = (Edge(2, 6), Edge(6, 7))
    got = path_extension(r, m, p)
    assert got == frozenset([Edge(2, 6), Edge(6, 7), Edge(3, 6), Edge(1, 3)])
    assert len(got) == len(p) + 2


def test_path_extension_input_checks(triple_ab_c, triple_ac_b):
    m = find_embedding(cherry_digraph(), triple_ab_c)
    r = extend(m, triple_ab_c)
    with pytest.raises(EmbeddingError):
        path_extension(r, m, ())
    with pytest.raises(EmbeddingError):
        path_extension(r, m, (Edge(1, 2),))  # added, not embedded
    with pytest.raises(EmbeddingError):
        path_extension(r, m, (Edge(2, 3), Edge(2, 4)))  # not consecutive
    other = find_embedding(cherry_digraph(), triple_ac_b)
    with pytest.raises(EmbeddingError):
        path_extension(r, other, (Edge(2, 3),))


# ---------------------------------------------------------------- transfer


def test_transfer_along_a_delete_move(retic_ab_c, triple_ab_c):
    n = retic_ab_c
    d = cherry_digraph()
    r = extend(find_embedding(d, n), n)
    assert cut_size(n, r) == 3
    assert Edge(3, 6) not in r.edges()

    n2, r2 = transfer_extension(n, d, r, Move("minus", Edge(3, 6)))
    assert isomorphic(n2, triple_ab_c)
    assert extension_violations(r2) == []
    assert cut_size(n2, r2) == 2
    assert digraph_cut_size(n2, d) == 2


def test_transfer_along_a_tail_move(retic_ab_c):
    n = retic_ab_c
    d = cherry_digraph()
    r = extend(find_embedding(d, n), n)
    mv = Move("pm", Edge(1, 3), target=Edge(2, 4))
    n2, r2 = transfer_extension(n, d, r, mv)
    assert extension_violations(r2) == []
    assert cut_size(n2, r2) == 3
    assert digraph_cut_size(n2, d) == 3
    assert len(n2.edges) == len(n.edges)


def test_transfer_along_an_add_move(triple_ab_c):
    n = triple_ab_c
    d = cherry_digraph()
    r = extend(find_embedding(d, n), n)
    assert cut_size(n, r) == 2
    mv = Move("plus", Edge(1, 5), target=Edge(0, 1))
    n2, r2 = transfer_extension(n, d, r, mv)
    assert n2.reticulation_count == 1
    assert extension_violations(r2) == []
    assert cut_size(n2, r2) == 3
    assert digraph_cut_size(n2, d) == 3


def test_transfer_preconditions(retic_ab_c, stack_sibling_host):
    n = retic_ab_c
    d = cherry_digraph()
    m = find_embedding(d, n)
    r = extend(m, n)

    with pytest.raises(MoveError):
        transfer_extension(n, d, r, Move("minus", Edge(2, 6)))  # claimed
    with pytest.raises(MoveError):
        transfer_extension(n, d, r, Move("pm", Edge(1, 2), target=Edge(3, 5)))
    with pytest.raises(MoveError):
        # target would be suppressed along with the moved edge's tail
        transfer_extension(n, d, r, Move("pm", Edge(1, 3), target=Edge(0, 1)))
    with pytest.raises(MoveError):
        transfer_extension(n, d, r, Move("pm", Edge(3, 6), target=Edge(2, 4)))
    with pytest.raises(MoveError):
        transfer_extension(n, d, r, Move("plus", Edge(1, 2), target=Edge(1, 2)))
    root = to_root_extension(n, r)
    with pytest.raises(MoveError):
        transfer_extension(n, d, root, Move("minus", Edge(3, 6)))

    s = stack_sibling_host
    ds = singleton_digraph(s)
    rs = extend(find_embedding(ds, s), s)
    with pytest.raises(InvalidNetworkError):
        transfer_extension(s, ds, rs, Move("minus", Edge(2, 4)))


def _first_minus_move(n, r):
    retics = set(n.reticulations())
    claimed = r.edges()
    for e in n.edges:
        if e.dst in retics and e not in claimed:
            return Move("minus", e)
    return None


def _first_pm_move(n, r):
    retics = set(n.reticulations())
    claimed = r.edges()
    for e in n.edges:
        if e.dst in retics or e in claimed:
            continue
        if not (n.in_degree(e.src) == 1 and n.out_degree(e.src) == 2):
            continue
        down = n.reachable_from(e.dst)
        for f in n.edges:
            if f == e or f.src == e.src or f.dst == e.src:
                continue
            if f.src in down:
                continue
            return Move("pm", e, target=f)
    return None


def _first_plus_move(n):
    retics = set(n.reticulations())
    for e1 in n.edges:
        if e1.dst in retics:
            continue
        down = n.reachable_from(e1.dst)
        for e2 in n.edges:
            if e2 == e1 or e2.dst in retics or e2.src in down:
                continue
            return Move("plus", e1, target=e2)
    return None


def test_transfer_deltas_on_random_hosts():
    deltas = {"minus": -1, "plus": 1, "pm": 0}
    seen = {"minus": 0, "plus": 0, "pm": 0}
    for n in random_corpus():
        d = singleton_digraph(n)
        r = extend(find_embedding(d, n), n)
        before = cut_size(n, r)
        moves = [_first_minus_move(n, r), _first_pm_move(n, r),
                 _first_plus_move(n)]
        for mv in moves:
            if mv is None:
                continue
            n2, r2 = transfer_extension(n, d, r, mv)
            assert extension_violations(r2) == []
            after = cut_size(n2, r2)
            assert after == before + deltas[mv.kind], (n, mv)
            # fresh search on the moved host must land on the same count
            assert digraph_cut_size(n2, d) == after, (n, mv)
            seen[mv.kind] += 1
    assert min(seen.values()) >= 6, seen


# ---------------------------------------------------------------- plumbing


def test_extension_pnd_annotations(triple_ab_c):
    r = extend(find_embedding(cherry_digraph(), triple_ab_c), triple_ab_c)
    doc = write_extension_pnd(r)
    assert doc.count("in:embedding") == 2
    assert doc.count("in:extension") == 1
    assert doc.count("cut") == 2


def test_policy_validation():
    with pytest.raises(ValueError):
        ExtensionPolicy(mode="greedy")


def _cut_identity_hosts():
    hosts = list(enumerate_tree_child(3, 2)) + list(enumerate_tree_child(4, 1))
    return hosts + [random_network(leaves, retics, seed=seed)
                    for leaves in (3, 4, 5) for retics in (1, 2) for seed in range(6)]


def test_cut_size_is_read_off_the_digraph():
    # the identity cut_size proves: S(D) - 1 + r(h) - r(D) for every grown
    # extension, S counting in-degree-0 vertices and r reticulations
    extensions = 0
    for h in _cut_identity_hosts():
        for i, (d, emb) in enumerate(_distinct_candidates(h)):
            indegrees = [c.in_degree(v) for c in d.components for v in c.vertices]
            want = (indegrees.count(0) - 1 + h.reticulation_count
                    - indegrees.count(2))
            for policy in (None, ExtensionPolicy(mode="seeded", seed=i)):
                assert cut_size(h, extend(emb, h, policy)) == want, (h, d)
                extensions += 1
    assert extensions == 53950
