"""Rearrangement moves on rooted binary networks and exact move distances.

Three move kinds operate on a network:

  "minus"  delete a reticulation edge (u,v), where u is a tree vertex,
           and suppress both resulting degree-two vertices; weight 1.
  "plus"   subdivide an edge with a fresh reticulation head, subdivide a
           second edge with a fresh tail, and join tail to head; weight 1.
  "pm"     delete an edge (u,v) whose source u is a tree vertex, suppress
           u, then reattach v underneath any surviving edge; weight 2
           (one deletion plus one addition).

The regraft/attachment target must not be a descendant of the moved
subtree's head, otherwise the added edge would close a directed cycle.

`dtc` computes the exact minimum total weight over move sequences whose
every intermediate network is tree-child, by bidirectional uniform-cost
search on mu keys (the multiset of per-vertex path counts to each leaf, a
complete invariant of tree-child networks). The wider space of all binary
networks is searched on canonical signatures.

One key rule: wherever the networks compared are known to be tree-child
and no output order depends on the key, the key is the mu key; elsewhere
it is canonical_signature. _key(tree_child_only) names it for the search
and the replay; normalize_sequence and agreement's gap search follow it,
and enforce_global_assumption, whose input need not be tree-child,
replays on canonical signatures.

Every move is drawn from one generator, _moves, as a plain (kind, edge,
target) triple, and the search and the replay read each successor's key
from one stream of such triples, _keyed. In tree-child space it decides
and keys each successor of a tree-child network from tables read once off
the parent (netcore._Keyer) and edits nothing; in the wider space it edits
each successor and keys it by canonical signature. In both spaces a key
the search has not seen is stored as its parent key and the triple, and
its Network is edited by netcore._edit only when the key is first
expanded. A Move is built only for a move that leaves the stream's
callers: enumerate_moves, which edits every successor it yields, and the
replay's picks.
"""

import heapq
import itertools
import json
from typing import NamedTuple, Optional

from .errors import (BudgetExceededError, ContractViolationError,
                     InvalidNetworkError, MoveError, ParseError)
from .netcore import (Edge, Network, _RETIC_CHANGE, _below, _edit, _Keyer, _mu_key,
                      _plus_tails, _require_tree_child_pair, canonical_signature,
                      is_tree_child)
from .phyloio import parse_pnd, write_pnd

WEIGHTS = {"minus": 1, "plus": 1, "pm": 2}

# kind of the move that undoes a move of the keyed kind
REVERSE_KIND = {"pm": "pm", "minus": "plus", "plus": "minus"}


def _as_edge(value) -> Edge:
    if isinstance(value, Edge):
        return value
    return Edge(*value)


class _MoveFields(NamedTuple):
    kind: str
    edge: Edge
    target: Optional[Edge] = None


class Move(_MoveFields):
    """One rearrangement step.

    kind    "minus", "plus", or "pm".
    edge    the deleted edge, or for "plus" the edge that receives the
            new reticulation head.
    target  for "pm" the regraft edge in the network after deletion and
            suppression (original edges of the input network serve as
            names; an edge merged away by the suppression is named by
            the out-edge of the suppressed vertex). For "plus" the edge
            that receives the new tail; naming the head edge itself
            means its upper half, which creates a parallel pair.
    """

    __slots__ = ()

    def __new__(cls, kind, edge, target=None):
        if kind not in WEIGHTS:
            raise MoveError("unknown move kind %r" % (kind,))
        edge = _as_edge(edge)
        if target is not None:
            target = _as_edge(target)
        if kind == "minus" and target is not None:
            raise MoveError("minus moves take no target edge")
        if kind in ("pm", "plus") and target is None:
            raise MoveError("%s moves need a target edge" % kind)
        return super().__new__(cls, kind, edge, target)


class ApplyResult(NamedTuple):
    """A move's outcome plus the bookkeeping needed to chase edges through it.

    vertex_map sends surviving pre-move vertex ids to post-move ids.
    origin_of keys every post-move edge by how it arose: ("kept", e),
    ("merged", (...)), ("upper"/"lower", ...) halves of a subdivision,
    or ("new",).
    """
    network: Network
    vertex_map: dict
    origin_of: dict


def apply_move_detailed(n: Network, move: Move) -> ApplyResult:
    return ApplyResult(*_edit(n, *move))


def apply_move(n: Network, move: Move) -> Network:
    return _edit(n, *move)[0]


def _moves(n: Network, kind=None):
    """Every legal move on n, or only those of the given kind, as a plain
    (kind, edge, target) triple.

    Order is deterministic: all minus moves, then pm, then plus, each
    block sorted by edge tuples. The blocks of other kinds are skipped
    whole. Each move is legal by construction, so a caller that hands a
    triple on as a Move builds it with Move._make, skipping Move's checks.
    """
    edges = sorted(n.edges)

    if kind in (None, "minus"):
        retics = set(n.reticulations())
        for e in edges:
            if e.dst in retics and n.in_degree(e.src) == 1 and n.out_degree(e.src) == 2:
                yield ("minus", e, None)

    if kind in (None, "pm"):
        for e in edges:
            u, v = e.src, e.dst
            if not (n.in_degree(u) == 1 and n.out_degree(u) == 2):
                continue
            parent_edge = n.in_edges(u)[0]
            other_child = next(f for f in n.out_edges(u) if f != e)
            blocked = _below(n, v)
            for t in edges:
                if t == e or t == parent_edge:
                    continue
                # the out-edge of u doubles as the name of the merged edge
                src_eff = parent_edge.src if t == other_child else t.src
                if src_eff in blocked:
                    continue
                yield ("pm", e, t)

    if kind in (None, "plus"):
        for e1 in edges:
            for e2 in _plus_tails(n, e1):
                yield ("plus", e1, e2)


def _edits(n: Network, tree_child_only: bool = True, kind=None):
    """(Move, successor) for every legal move on n, or only those of the
    given kind, in the order of _moves.

    With tree_child_only, results failing the tree-child condition are
    dropped: on a tree-child n each move is decided by _Keyer before it is
    edited, and on any other n each result is edited and checked with
    is_tree_child. Only the moves kept become Moves.
    """
    keeps = _Keyer(n).keeps_tree_child if tree_child_only and is_tree_child(n) else None
    for move in _moves(n, kind):
        if keeps and not keeps(*move):
            continue
        succ = _edit(n, *move)[0]
        if keeps or not tree_child_only or is_tree_child(succ):
            yield Move._make(move), succ


def _keyed(n: Network, tree_child_only: bool = True, kind=None):
    """(kind, edge, target, key, reticulation count) for every successor
    of n, or of the given kind, that _edits keeps, in the order of _moves;
    the key is _key(tree_child_only).

    The stream carries the plain triples of _moves: a caller builds a Move
    only for what it stores or hands on. In tree-child space, on a
    tree-child n, each move is decided and keyed from tables read once off
    n, and nothing is edited; otherwise each result is edited, checked
    with is_tree_child in tree-child space, and keyed by _key.
    """
    if tree_child_only and is_tree_child(n):
        keyer = _Keyer(n)
        keeps, key = keyer.keeps_tree_child, keyer.key
        for move in _moves(n, kind):
            if keeps(*move):
                yield move + key(*move)
        return
    key = _key(tree_child_only)
    retics = n.reticulation_count
    for move in _moves(n, kind):
        succ = _edit(n, *move)[0]
        if not tree_child_only or is_tree_child(succ):
            yield move + (key(succ), retics + _RETIC_CHANGE[move[0]])


def enumerate_moves(n: Network, tree_child_only: bool = True):
    """Yield every legal (Move, successor) pair exactly once.

    Order is deterministic: all minus moves, then pm, then plus, each
    block sorted by edge tuples. When tree_child_only is set, successors
    failing the tree-child condition are dropped (the moves themselves
    are still legal in the wider space); on a tree-child n they are
    decided before they are built.
    """
    return _edits(n, tree_child_only)


class MoveSequence:
    """A start network and the moves applied to it, in order."""

    __slots__ = ("start", "moves", "_networks")

    def __init__(self, start: Network, moves=()):
        self.start = start
        self.moves = tuple(moves)
        self._networks = None

    @property
    def networks(self):
        """All t+1 networks along the sequence, first is the start."""
        if self._networks is None:
            nets = [self.start]
            for mv in self.moves:
                nets.append(apply_move(nets[-1], mv))
            self._networks = nets
        return self._networks

    @property
    def end(self) -> Network:
        return self.networks[-1]

    def __len__(self):
        return len(self.moves)

    def __repr__(self):
        return "MoveSequence(%d moves, weight %d)" % (
            len(self.moves), sequence_weight(self))


def sequence_weight(s: MoveSequence) -> int:
    return sum(WEIGHTS[mv.kind] for mv in s.moves)


def moves_to_json(s: MoveSequence) -> str:
    records = []
    for mv in s.moves:
        rec = {"kind": mv.kind, "edge": list(mv.edge)}
        rec["target"] = list(mv.target) if mv.target is not None else None
        records.append(rec)
    doc = {"format": "snprlab-moves-1", "start": write_pnd(s.start),
           "moves": records}
    return json.dumps(doc, indent=1)


def _edge_of(value) -> Edge:
    if not (isinstance(value, list) and len(value) in (2, 3)
            and all(type(x) is int for x in value)):
        raise ParseError("edge %r is not a list of two or three ints" % (value,))
    return Edge(*value)


def moves_from_json(text: str) -> MoveSequence:
    """The sequence a moves_to_json document holds. Raises ParseError when
    text is not such a document, and MoveError when it names another
    format."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("not a JSON document: %s" % exc.msg, exc.pos) from None
    if not isinstance(doc, dict):
        raise ParseError("move document is not a JSON object")
    if doc.get("format") != "snprlab-moves-1":
        raise MoveError("unrecognised move document format %r"
                        % (doc.get("format"),))
    start, records = doc.get("start"), doc.get("moves")
    if not isinstance(start, str) or not isinstance(records, list):
        raise ParseError('move document needs a pnd string "start" and a list "moves"')
    moves = []
    for i, rec in enumerate(records):
        if not isinstance(rec, dict) or not isinstance(rec.get("kind"), str):
            raise ParseError("move %d is not an object with a kind" % i)
        target = rec.get("target")
        try:
            moves.append(Move(rec["kind"], _edge_of(rec.get("edge")),
                              _edge_of(target) if target is not None else None))
        except (ParseError, MoveError) as exc:
            raise ParseError("move %d: %s" % (i, exc)) from None
    try:
        start = parse_pnd(start)
    except ParseError as exc:
        raise ParseError("start: %s" % exc) from None
    return MoveSequence(start, moves)


def _key(tree_child_only: bool):
    """The signature a search compares networks by: the mu key in
    tree-child space, where it is complete, else the canonical signature."""
    return _mu_key if tree_child_only else canonical_signature


def _find_move_to(n: Network, kind: str, target_sig: bytes,
                  tree_child_only: bool = False):
    """First enumerated move of the given kind whose successor has the
    wanted signature under _key(tree_child_only). Enumeration order makes
    the pick deterministic. Moves of other kinds are skipped before any
    edit, and each move is keyed by _keyed, so in tree-child space only
    the match is edited and frozen."""
    for succ in _keyed(n, tree_child_only, kind):
        if succ[3] == target_sig:
            move = Move._make(succ[:3])
            return move, _edit(n, *move)[0]
    raise ContractViolationError(
        "no %s move reaches the required network; the rewrite guaranteed "
        "by the underlying theory was not found" % kind)


def _replay(current: Network, sigs, kinds, tree_child_only=False) -> list:
    """Moves of the given kinds from current through the networks of the
    given signatures under _key(tree_child_only), one move per kind;
    sigs[i] is the signature after the i-th move. Enumeration order makes
    each pick deterministic."""
    moves = []
    for sig, kind in zip(sigs, kinds):
        mv, current = _find_move_to(current, kind, sig, tree_child_only)
        moves.append(mv)
    return moves


def enforce_global_assumption(s: MoveSequence) -> MoveSequence:
    """Split every pm move that deletes a reticulation edge into a minus
    followed by a plus reaching the same network, preserving total weight.

    The networks of s need not be tree-child, so the rewrite compares
    canonical signatures."""
    i = 0
    while i < len(s.moves):
        mv, nets = s.moves[i], s.networks
        if mv.kind == "pm" and nets[i].in_degree(mv.edge.dst) == 2:
            minus = Move("minus", mv.edge)
            tail = _replay(apply_move(nets[i], minus),
                           [canonical_signature(n) for n in nets[i + 1:]],
                           ["plus"] + [m.kind for m in s.moves[i + 1:]], False)
            s = MoveSequence(s.start, list(s.moves[:i]) + [minus] + tail)
        i += 1
    return s


def _first_inversion(moves):
    for i in range(len(moves) - 1):
        if moves[i].kind in ("plus", "pm") and moves[i + 1].kind == "minus":
            return i
    return None


def normalize_sequence(s: MoveSequence) -> MoveSequence:
    """Push deletions to the front of a tree-child sequence.

    Repeatedly rewrites an adjacent (plus-or-pm, minus) pair: drop both
    when the flanking networks agree, collapse to a single move when one
    suffices, otherwise swap the pair to (minus, plus-or-pm). Endpoints
    are preserved up to isomorphism and the weight never increases. The
    fixpoint has every minus before every plus and pm.

    Raises ContractViolationError if no rewrite applies to a pair; on
    tree-child input satisfying the reticulation-deleting-pm ban (which
    this function first enforces) that would signal a bug, since the
    rewrites are guaranteed to exist.
    """
    for i, net in enumerate(s.networks):
        if not is_tree_child(net):
            raise MoveError("network %d in the sequence is not tree-child" % i)
    s = enforce_global_assumption(s)

    while True:
        i = _first_inversion(s.moves)
        if i is None:
            return s
        nets = s.networks
        first = s.moves[i]
        a, key_c = nets[i], _mu_key(nets[i + 2])
        if _mu_key(a) == key_c:
            pair, after = [], a
        else:
            # one move of the other kind, else a minus then one of first's
            single = "pm" if first.kind == "plus" else "minus"
            tries = itertools.chain([([], a, single)], (
                ([mv], succ, first.kind) for mv, succ in _edits(a, kind="minus")))
            for head, mid, kind in tries:
                try:
                    mv, after = _find_move_to(mid, kind, key_c, True)
                except ContractViolationError:
                    continue
                pair = head + [mv]
                break
            else:
                raise ContractViolationError(
                    "no rewrite applies to the move pair at position %d" % i)
        # the moves after the pair, re-expressed from whatever replaces it
        tail = _replay(after, [_mu_key(n) for n in nets[i + 3:]],
                       [mv.kind for mv in s.moves[i + 2:]], True)
        s = MoveSequence(s.start, list(s.moves[:i]) + pair + tail)


class NeighborCache:
    """Memo of move neighborhoods keyed by network signature.

    Holds one representative per signature, the first successor found
    with it, and, per (signature, filter mode), the successor signatures
    with move kind, weight, and reticulation count, as _keyed gives them:
    mu keys in tree-child space, read for a tree-child representative off
    tables that live only for the expansion, with no edit, and canonical
    signatures of edited successors in the wider space. In both spaces a
    new key is stored as (parent key, kind, edge, target), the move as
    _keyed's plain triple with no Move built, and representative() edits
    and freezes its Network from the parent's on first use, which the
    search makes only when it expands the key. Most keys a search meets
    are never expanded, so most are never frozen. The two kinds of key
    never collide, so one cache serves both modes. Entries ignore any
    reticulation cap so a cache can be shared between searches with
    different caps. Each key is held as one bytes object, shared by rep,
    the successor entries and the key a representative stores in its _mu
    or _sig slot.

    A key's successor order follows the vertex numbering of its
    representative, so sharing a cache between calls keeps every dtc weight
    but can change which of several optimal witnesses a later call returns.
    """

    def __init__(self):
        self.rep = {}
        self._succ = {}
        self._keys = {}  # each key of rep mapped to itself

    def representative(self, sig: bytes, net: Network = None) -> Network:
        got = self.rep.get(sig)
        if got is None:
            if net is None:
                raise KeyError("no representative known for signature")
            sig = self._keys.setdefault(sig, sig)
            got = self.rep[sig] = net
        if isinstance(got, tuple):
            # (parent key, kind, edge, target): the parent was expanded, so
            # its representative is frozen
            got = _edit(self.rep[got[0]], *got[1:])[0]
            sig = self._keys[sig]
            if sig.startswith(b"mu"):
                got._mu = sig
            else:
                got._sig = sig
            self.rep[sig] = got
        return got

    def successors(self, sig: bytes, tree_child_only: bool = True):
        key = (sig, tree_child_only)
        if key not in self._succ:
            seen = []
            n = self.representative(sig)
            keys = self._keys
            sig = keys[sig]
            for kind, edge, target, ssig, retics in _keyed(n, tree_child_only):
                ssig = keys.setdefault(ssig, ssig)
                if ssig not in self.rep:
                    self.rep[ssig] = (sig, kind, edge, target)
                seen.append((ssig, kind, WEIGHTS[kind], retics))
            self._succ[sig, tree_child_only] = tuple(seen)
        return self._succ[key]


def _check_dtc_inputs(n, m, reticulation_cap, tree_child_only):
    if tree_child_only:
        _require_tree_child_pair(n, m)
    if n.taxa != m.taxa:
        raise InvalidNetworkError(["networks are on different leaf sets"])
    floor = max(n.reticulation_count, m.reticulation_count)
    cap = reticulation_cap if reticulation_cap is not None else floor + 1
    if cap < floor:
        raise MoveError("reticulation cap %d is below the inputs' maximum %d"
                        % (cap, floor))
    return cap


def _bidirectional(sig_n, sig_m, cache, cap, budget, tree_child_only):
    """(weight, meeting key, parent maps) of a cheapest path between two
    distinct keys, by uniform-cost search from both ends at once.

    The two frontiers run over one undirected graph: every move reverses
    at the same weight, and both sides drop successors over the cap. Each
    step expands the side whose heap top is smaller, forward on a tie, so
    sig_n is expanded first. Each relaxation that reaches a key labelled by
    both sides prices a real walk, the sum of its two labels; best is the
    least such sum and meet its key, replaced only by a strictly smaller
    one. A settled key's label is its exact distance from its side's end,
    and best is at most the sum of any key's two final labels, since the
    check runs when the later of them is set.

    The search stops once tops[0] + tops[1] + 2 >= best, tops being the two
    heap minima; best is then optimal, for two reasons.

    Parity: minus and plus weigh 1 and change the reticulation count r by
    one, pm weighs 2 and keeps r, so every walk from n to m weighs
    r(n) - r(m) mod 2. best is a walk's weight, so a shorter path weighs at
    most best - 2.

    No shorter path: take a shortest path P of weight L <= best - 2. Let y
    be the first key of P not settled forward and u the last not settled
    backward; both exist, or m would hold a forward label (n a backward
    one) and best <= L. If u came before y, some key of P would be settled
    on both sides, or an edge of P would join a key settled forward to one
    settled backward, which the later of the two expansions relaxed with
    both labels exact; either way best <= L. So y comes no later than u.
    y is not n, and y's predecessor on P was expanded forward, so y is open
    with its exact label and tops[0] <= d(n, y); likewise u is m, open at
    0, or its successor on P was expanded backward, so tops[1] <= d(u, m).
    If y = u, then best <= d(n, y) + d(y, m) = L. Otherwise the part of P
    from y to u holds a move, which weighs at least 1, so
    L >= tops[0] + 1 + tops[1] >= best - 1, against L <= best - 2.

    Any later stop, such as the plain rule tops[0] + tops[1] >= best on the
    same cache, returns the same result: once best is optimal meet never
    changes, and each parent on the two chains from meet is a settled key,
    whose label, and so whose parent, is final.
    """
    dist = ({sig_n: 0}, {sig_m: 0})
    parent = ({sig_n: None}, {sig_m: None})
    heaps = ([(0, sig_n)], [(0, sig_m)])
    settled = (set(), set())
    best = None
    meet = None
    expansions = 0
    while heaps[0] and heaps[1]:
        tops = [h[0][0] for h in heaps]
        if best is not None and tops[0] + tops[1] + 2 >= best:
            break
        side = 0 if tops[0] <= tops[1] else 1
        other = 1 - side
        d, sig = heapq.heappop(heaps[side])
        if sig in settled[side]:
            continue
        settled[side].add(sig)
        if budget is not None and expansions >= budget:
            raise BudgetExceededError(
                "distance search exceeded the expansion budget (%d)" % budget)
        expansions += 1
        for ssig, kind, w, retics in cache.successors(sig, tree_child_only):
            if retics > cap:
                continue
            nd = d + w
            if nd < dist[side].get(ssig, nd + 1):
                dist[side][ssig] = nd
                parent[side][ssig] = (sig, kind)
                heapq.heappush(heaps[side], (nd, ssig))
            # any vertex with a finite label on both sides witnesses a
            # real path; track the cheapest such meeting
            there = dist[other].get(ssig)
            if there is not None:
                total = dist[side][ssig] + there
                if best is None or total < best:
                    best, meet = total, ssig
    if best is None:
        raise ContractViolationError(
            "bidirectional search ended without meeting; the move space "
            "at this reticulation cap should be connected")
    return best, meet, parent


def _chain(parent, sig):
    """Signatures and kinds from the source to sig, following parents."""
    sigs, kinds = [sig], []
    while parent[sig] is not None:
        sig, kind = parent[sig]
        sigs.append(sig)
        kinds.append(kind)
    sigs.reverse()
    kinds.reverse()
    return sigs, kinds


def dtc(n: Network, m: Network, reticulation_cap=None, *, budget=None,
        cache: NeighborCache = None, witness: bool = True,
        bidirectional=None, tree_child_only: bool = True):
    """Exact minimum weight of a tree-child move sequence from n to m.

    Every intermediate network is tree-child with at most
    `reticulation_cap` reticulations (default: one above the inputs'
    maximum). Returns (weight, sequence); the witness sequence ends at a
    network isomorphic to m and is None when witness is False. budget
    caps the number of signature expansions.

    The search always meets in the middle from both ends, and stops once
    the cheapest meeting found is provably optimal: when the two
    frontiers' smallest labels sum to at least its weight minus 2. Every
    move weighs at least 1, and every path between n and m weighs the
    difference of their reticulation counts mod 2; the proof is in
    _bidirectional. bidirectional is deprecated and ignored; it is
    accepted so existing callers keep working.

    A shared NeighborCache makes repeated calls over a corpus much cheaper
    and never changes a weight, but it may change the witness: equal-weight
    meetings are ranked in the successor order of each key's
    representative, the first copy of the key any earlier call met. On a
    fresh cache the witness depends on the arguments alone.

    tree_child_only=False searches the wider space of all valid binary
    networks under the cap. No published optimality claims attach to
    that mode; it exists for exploration.
    """
    cap = _check_dtc_inputs(n, m, reticulation_cap, tree_child_only)
    if cache is None:
        cache = NeighborCache()
    key = _key(tree_child_only)
    sig_n, sig_m = key(n), key(m)
    cache.representative(sig_n, n)
    cache.representative(sig_m, m)
    if sig_n == sig_m:
        return 0, (MoveSequence(n) if witness else None)

    weight, meet, parents = _bidirectional(sig_n, sig_m, cache, cap,
                                           budget, tree_child_only)
    if not witness:
        return weight, None
    sigs_f, kinds_f = _chain(parents[0], meet)
    sigs_b, kinds_b = _chain(parents[1], meet)
    # the backward half lists moves out of m; invert them to run m-ward
    sigs = sigs_f + sigs_b[-2::-1]
    kinds = kinds_f + [REVERSE_KIND[k] for k in reversed(kinds_b)]
    return weight, MoveSequence(n, _replay(n, sigs[1:], kinds, tree_child_only))
