"""Acceptance runs, one test per contract criterion.

Each test prints a single pass/fail line (bypassing capture) with the
scale it ran at and its elapsed time, then asserts the criterion.
"""

import random
import time

import pytest

from snprlab import (
    ExtensionPolicy,
    NeighborCache,
    apply_move,
    candidate_from_edges,
    canonical_signature,
    cut_size,
    digraph_cut_size,
    dtc,
    enumerate_embeddings,
    enumerate_moves,
    enumerate_tree_child,
    extend,
    extension_violations,
    gap_witness_search,
    is_tree_child,
    is_tree_child_digraph,
    isomorphic,
    maf_rspr,
    mtc,
    parse_enewick,
    parse_pnd,
    random_network,
    random_tree_child,
    root_extend,
    sequence_weight,
    to_root_extension,
    transfer_extension,
    write_enewick,
    write_pnd,
)
from snprlab.netcore import validate
from snprlab.snpr import MoveSequence, normalize_sequence


def _emit(capsys, num, label, ok, detail):
    line = "acceptance %02d %-34s %s  %s" % (num, label,
                                             "PASS" if ok else "FAIL", detail)
    with capsys.disabled():
        print("\n" + line, flush=True)
    assert ok, line


HOST_SIZES = [(3, 0), (3, 1), (4, 0), (4, 1), (4, 2), (4, 3), (5, 0),
              (5, 1), (5, 2), (5, 3), (6, 0), (6, 1), (6, 2), (6, 3)]


def _displayed_digraph(n, rng):
    # random edge subset, retried until the quotient is a valid digraph;
    # the full edge set always works, so this terminates
    edges = list(n.edges)
    for _ in range(12):
        mask = rng.getrandbits(len(edges))
        subset = [e for i, e in enumerate(edges) if mask >> i & 1]
        got = candidate_from_edges(n, subset)
        if got is not None:
            return got
    return candidate_from_edges(n, edges)


@pytest.fixture(scope="module")
def display_corpus():
    t0 = time.time()
    fixtures = []
    i = 0
    while len(fixtures) < 210:
        leaves, retics = HOST_SIZES[i % len(HOST_SIZES)]
        n = random_tree_child(leaves, retics, seed=2000 + i)
        d, emb = _displayed_digraph(n, random.Random(1000 + i))
        fixtures.append((n, d, emb))
        i += 1
    return fixtures, time.time() - t0


def test_criterion_01_extension_cut_invariance(display_corpus, capsys):
    fixtures, build = display_corpus
    t0 = time.time()
    for n, d, emb in fixtures:
        cuts = {digraph_cut_size(n, d)}
        cuts.add(cut_size(n, extend(emb, n)))
        for k in range(20):
            policy = ExtensionPolicy(mode="seeded", seed=k)
            cuts.add(cut_size(n, extend(emb, n, policy)))
        n_embs = 0
        for other in enumerate_embeddings(d, n):
            cuts.add(cut_size(n, extend(other, n)))
            n_embs += 1
        assert len(cuts) == 1, (write_enewick(n), sorted(cuts), n_embs)
    elapsed = time.time() - t0 + build
    _emit(capsys, 1, "extension cut invariance",
          len(fixtures) >= 200 and elapsed < 120,
          "%d fixtures, 21 policies + all embeddings, one cut each, %.1fs (target 120s)"
          % (len(fixtures), elapsed))


def test_criterion_02_root_extension_dichotomy(display_corpus, capsys):
    fixtures, _ = display_corpus
    t0 = time.time()
    for n, d, emb in fixtures:
        cuts = {cut_size(n, root_extend(emb, n))}
        for k in range(20):
            policy = ExtensionPolicy(mode="seeded", seed=k)
            cuts.add(cut_size(n, root_extend(emb, n, policy)))
        assert len(cuts) == 1, (write_enewick(n), sorted(cuts))

    # hunt for a non-tree-child host where two root extensions disagree
    hosts = [validate([(0, 1), (1, 2), (1, 3), (2, 4), (2, 6), (3, 4),
                       (3, 5), (4, 5), (5, 7)], {6: "a", 7: "b"})]
    for seed in range(30):
        h = random_network(3 + seed % 3, 1 + seed % 3, seed=seed,
                           require_tree_child=False)
        if not is_tree_child(h):
            hosts.append(h)
    witness = None
    for h in hosts:
        edges = list(h.edges)
        for mask in range(2 ** len(edges) if len(edges) <= 9 else 0):
            subset = [e for i, e in enumerate(edges) if mask >> i & 1]
            got = candidate_from_edges(h, subset)
            if got is None:
                continue
            d, emb = got
            cuts = set()
            for k in range(40):
                policy = ExtensionPolicy(mode="seeded", seed=k)
                cuts.add(cut_size(h, root_extend(emb, h, policy)))
                if len(cuts) >= 2:
                    witness = (h, sorted(cuts))
                    break
            if witness:
                break
        if witness:
            break
    elapsed = time.time() - t0
    _emit(capsys, 2, "root extension dichotomy",
          witness is not None,
          "%d tree-child fixtures agree; non-tree-child host with cuts %s, %.1fs"
          % (len(fixtures), witness and witness[1], elapsed))


def test_criterion_03_tree_specialization(capsys):
    t0 = time.time()
    trees4 = list(enumerate_tree_child(4, 0))
    assert len(trees4) == 15
    cache = NeighborCache()
    pairs4 = 0
    for a in trees4:
        for b in trees4:
            forest = maf_rspr(a, b)
            measure, _ = mtc(a, b)
            d, _ = dtc(a, b, reticulation_cap=1, witness=False, cache=cache)
            assert d == 2 * forest == measure, (write_enewick(a), write_enewick(b))
            pairs4 += 1

    trees5 = list(enumerate_tree_child(5, 0))
    rng = random.Random(0)
    cache5 = NeighborCache()
    pairs5 = 0
    for _ in range(200):
        a, b = rng.choice(trees5), rng.choice(trees5)
        forest = maf_rspr(a, b)
        measure, _ = mtc(a, b)
        d, _ = dtc(a, b, reticulation_cap=1, witness=False, cache=cache5)
        assert d == 2 * forest == measure, (write_enewick(a), write_enewick(b))
        pairs5 += 1
    elapsed = time.time() - t0
    _emit(capsys, 3, "tree pairs: forest = d/2 = m/2",
          pairs4 == 225 and pairs5 >= 200 and elapsed < 600,
          "all %d four-leaf pairs + %d five-leaf pairs, %.1fs (target 600s)"
          % (pairs4, pairs5, elapsed))


PAIR_SIZES = [(4, 0), (4, 1), (5, 0), (5, 1), (4, 2), (5, 2)]
_c4_stash = []


def _sample_pair(idx):
    leaves, retics = PAIR_SIZES[idx % len(PAIR_SIZES)]
    n = random_tree_child(leaves, retics, seed=5000 + idx)
    rng = random.Random(7000 + idx)
    if idx % 4 == 0 and retics <= 1:
        # independent draw; only at small sizes where the search stays cheap
        m = random_tree_child(leaves, retics, seed=6000 + idx)
    else:
        hops = 1 if retics >= 2 else rng.choice((1, 2))
        m = n
        for _ in range(hops):
            succs = list(enumerate_moves(m))
            m = rng.choice(succs)[1]
    return n, m


def test_criterion_04_bound_sandwich(capsys):
    t0 = time.time()
    cache = NeighborCache()
    pairs = [_sample_pair(i) for i in range(52)]
    for k in range(4):
        n = random_tree_child(4 + k % 2, k % 2, seed=8000 + k)
        pairs.append((n, parse_enewick(write_enewick(n))))
    iso_seen = non_iso_seen = 0
    for n, m in pairs:
        cap = max(n.reticulation_count, m.reticulation_count) + 1
        measure, w = mtc(n, m)
        # both hosts are tree-child, so root-only growth meets the same cuts
        for net, emb, cut in ((n, w.embedding_n, w.cut_n),
                              (m, w.embedding_m, w.cut_m)):
            assert cut_size(net, root_extend(emb, net)) == cut, write_enewick(net)
        d, seq = dtc(n, m, reticulation_cap=cap, witness=True, cache=cache)
        assert d <= measure <= 2 * d, (write_enewick(n), write_enewick(m), d, measure)
        same = isomorphic(n, m)
        assert (d == 0) == (measure == 0) == same
        iso_seen += same
        non_iso_seen += not same
        _c4_stash.append((n, m, d, seq))
    elapsed = time.time() - t0
    _emit(capsys, 4, "half-measure <= d <= measure",
          len(pairs) >= 50 and iso_seen >= 1 and non_iso_seen >= 40,
          "%d pairs (%d isomorphic), cap = max retics + 1, %.1fs"
          % (len(pairs), iso_seen, elapsed))


def test_criterion_05_transfer_deltas(capsys):
    t0 = time.time()
    expected = {"minus": -1, "plus": 1, "pm": 0}
    counts = {"minus": 0, "plus": 0, "pm": 0}
    i = 0
    while min(counts.values()) < 100 and i < 4000:
        leaves = 4 + i % 3
        retics = 1 + i % 3
        n = random_tree_child(leaves, retics, seed=9000 + i)
        rng = random.Random(9500 + i)
        got = _displayed_digraph(n, rng)
        i += 1
        if got is None:
            continue
        d, emb = got
        if not is_tree_child_digraph(d):
            continue
        ext = extend(emb, n, ExtensionPolicy(mode="seeded", seed=i))
        before = cut_size(n, ext)
        moves = list(enumerate_moves(n))
        rng.shuffle(moves)
        done = {"minus": 0, "plus": 0, "pm": 0}
        for mv, _succ in moves:
            if done[mv.kind] >= 2:
                continue
            try:
                n2, ext2 = transfer_extension(n, d, ext, mv)
            except Exception:
                continue
            after = cut_size(n2, ext2)
            assert after - before == expected[mv.kind], (mv, before, after)
            assert digraph_cut_size(n2, d) == after, mv
            assert extension_violations(ext2) == []
            counts[mv.kind] += 1
            done[mv.kind] += 1
    elapsed = time.time() - t0
    _emit(capsys, 5, "transfer cut deltas -1/+1/0",
          all(c >= 100 for c in counts.values()),
          "minus %d, plus %d, pm %d applications, recompute oracle agreed, %.1fs"
          % (counts["minus"], counts["plus"], counts["pm"], elapsed))


def test_criterion_06_root_extension_conversion(display_corpus, capsys):
    fixtures, _ = display_corpus
    t0 = time.time()
    for n, d, emb in fixtures:
        full = extend(emb, n)
        root = to_root_extension(n, full)
        assert root.allow_e2 is False
        assert extension_violations(root) == []
        assert cut_size(n, root) == cut_size(n, full), write_enewick(n)
    elapsed = time.time() - t0
    _emit(capsys, 6, "conversion to root extension",
          True, "%d fixtures, cut preserved, output valid, %.1fs"
          % (len(fixtures), elapsed))


def _replay(seq: MoveSequence):
    net = seq.start
    for mv in seq.moves:
        net = apply_move(net, mv)
    return net


def test_criterion_07_normal_form(capsys):
    assert _c4_stash, "criterion 4 must have produced witnesses"
    t0 = time.time()
    for n, m, d, seq in _c4_stash:
        norm = normalize_sequence(seq)
        assert sequence_weight(norm) == d, (d, sequence_weight(norm))
        kinds = [mv.kind for mv in norm.moves]
        assert (all(k == "minus" for k in kinds)
                or kinds[-1] in ("plus", "pm")), kinds
        assert isomorphic(norm.start, n)
        assert isomorphic(_replay(norm), m)
    elapsed = time.time() - t0
    _emit(capsys, 7, "witness normal form",
          True, "%d optimal sequences, weight preserved, shape checked, %.1fs"
          % (len(_c4_stash), elapsed))


def test_criterion_08_gap_witness(capsys):
    t0 = time.time()
    hit = gap_witness_search(6, 1, budget=3000, seed=0)
    ok = hit is not None
    detail = "no witness within budget"
    if ok:
        n, m, rep = hit
        ok = (rep.holds and rep.d < rep.m
              and len(n.taxa) <= 6 and len(m.taxa) <= 6
              and n.reticulation_count <= 2 and m.reticulation_count <= 2)
        detail = ("d %d < m %d at %d leaves, budget 3000, %.1fs"
                  % (rep.d, rep.m, len(n.taxa), time.time() - t0))
    _emit(capsys, 8, "distance below measure exists", ok, detail)


def test_criterion_09_reversibility(capsys):
    t0 = time.time()
    inverse_kind = {"minus": "plus", "plus": "minus", "pm": "pm"}
    samples = 0
    minus_seen = 0
    i = 0
    while samples < 1000:
        leaves = 3 + i % 4
        retics = i % 4 if i % 4 < leaves else 0
        net = random_tree_child(leaves, retics, seed=3000 + i)
        rng = random.Random(4000 + i)
        i += 1
        moves = list(enumerate_moves(net, tree_child_only=False))
        if not moves:
            continue
        # deletions are a sliver of the neighborhood; sample them separately
        # so the minus case reaches its own coverage floor
        deletions = [mw for mw in moves if mw[0].kind == "minus"]
        others = [mw for mw in moves if mw[0].kind != "minus"]
        chosen = (rng.sample(deletions, min(2, len(deletions)))
                  + rng.sample(others, min(3, len(others))))
        target = canonical_signature(net)
        for mv, succ in chosen:
            if mv.kind == "minus":
                assert is_tree_child(succ), (write_enewick(net), mv)
                minus_seen += 1
            want = inverse_kind[mv.kind]
            found = any(imv.kind == want and canonical_signature(back) == target
                        for imv, back in enumerate_moves(succ, tree_child_only=False))
            assert found, (write_enewick(net), mv)
            samples += 1
    elapsed = time.time() - t0
    _emit(capsys, 9, "move reversibility + minus stays",
          samples >= 1000 and minus_seen >= 100,
          "%d samples (%d minus), every move inverted, %.1fs"
          % (samples, minus_seen, elapsed))


MALFORMED = [
    "", ";", "();", "(a;", "a));", "((a,b),c)", "((a,b),c);x",
    "((a,a),b);", "(a,(b)#H1);", "((a,)b);", "((a,b)),c;", "(,a);",
    "((a,b),c)#;", "((a,b),#H1);",
    "pnd 2\n", "pnd 1\nvertex x\n", "pnd 1\nvertex 0\nroot 0\nedge 0 1\n",
    "pnd 1\nbogus 3\n", "pnd 1\nleaf 1\n",
]


def test_criterion_10_io_roundtrips(capsys):
    from snprlab import ParseError

    t0 = time.time()
    corpus = []
    i = 0
    while len(corpus) < 500:
        leaves, retics = HOST_SIZES[i % len(HOST_SIZES)]
        if i % 5 == 4:
            corpus.append(random_network(leaves, retics, seed=i,
                                         require_tree_child=False))
        else:
            corpus.append(random_tree_child(leaves, retics, seed=i))
        i += 1
    for n in corpus:
        text = write_enewick(n)
        back = parse_enewick(text)
        assert write_enewick(back) == text
        assert isomorphic(n, back)
        blob = write_pnd(n)
        again = parse_pnd(blob)
        assert write_pnd(again) == blob
        assert isomorphic(n, again)

    base = "((a,(b)#H1),(#H1,c));"
    fuzz = list(MALFORMED) + [base[:k] for k in range(1, len(base))]
    rejected = 0
    for bad in fuzz:
        try:
            (parse_pnd if bad.startswith("pnd") else parse_enewick)(bad)
        except ParseError as exc:
            assert "position" in str(exc), (bad, exc)
            rejected += 1
        else:
            raise AssertionError("parsed malformed input %r" % bad)
    elapsed = time.time() - t0
    _emit(capsys, 10, "round trips and fuzz rejection",
          len(corpus) == 500 and rejected == len(fuzz),
          "%d networks round-tripped twice, %d malformed inputs rejected, %.1fs"
          % (len(corpus), rejected, elapsed))
