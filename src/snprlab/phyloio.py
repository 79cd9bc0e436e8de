"""Reading and writing networks and digraphs.

Two formats are supported.

eNewick: nested parenthesis text terminated by ";". A reticulation appears
once as "(subtree)#Hk" and once more as a bare "#Hk" reference; the two
occurrences merge into a single vertex, which must end up with in-degree two.
A parallel pair is "((x)#H1,#H1)". No branch lengths, no internal labels.

pnd: a line-based format. "pnd 1" header, then "vertex ID", "leaf ID LABEL",
"root ID" and "edge FROM TO" lines in any order; "#" starts a comment.
Repeated edge lines express parallel edges. Digraph documents replace the
root line with per-component blocks introduced by "component" lines, each
optionally carrying "rho ID". Writers emit sorted lines, so writing and
re-parsing any value reproduces it field for field.
"""

import re

from .digraphcore import PhyloDigraph, validate_component, validate_digraph
from .errors import InvalidDigraphError, InvalidNetworkError, ParseError
from .netcore import Network, canonical_order, validate

_LABEL_RE = re.compile(r"[A-Za-z0-9_]")


class _Cursor:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self):
        ch = self.peek()
        self.pos += 1
        return ch

    def error(self, msg):
        raise ParseError(msg, self.pos)


def _parse_tag(cur):
    pos = cur.pos
    cur.take()  # '#'
    if cur.peek() != "H":
        cur.error("expected 'H' after '#'")
    cur.take()
    digits = ""
    while cur.peek().isdigit():
        digits += cur.take()
    if not digits:
        cur.error("expected digits after '#H'")
    return digits, pos


def _parse_node(cur):
    ch = cur.peek()
    if ch == "(":
        open_pos = cur.pos
        cur.take()
        children = [_parse_node(cur)]
        if cur.peek() == ",":
            cur.take()
            children.append(_parse_node(cur))
        if cur.peek() != ")":
            cur.error("expected ',' or ')'")
        cur.take()
        tag = None
        if cur.peek() == "#":
            tag = _parse_tag(cur)
        if len(children) == 1 and tag is None:
            cur.error("a single-child group must carry a #H tag")
        return ("inner", children, tag, open_pos)
    if ch == "#":
        tag, pos = _parse_tag(cur)
        return ("ref", tag, pos)
    if ch and _LABEL_RE.match(ch):
        pos = cur.pos
        label = ""
        while cur.peek() and _LABEL_RE.match(cur.peek()):
            label += cur.take()
        return ("leaf", label, pos)
    cur.error("expected a leaf label, '(' or '#H'")


def parse_enewick(text: str) -> Network:
    """Parse one eNewick string into a validated network.

    Raises ParseError for anything wrong; syntax problems carry the offending
    character position.
    """
    cur = _Cursor(text)
    while cur.peek() in " \t\r\n" and cur.peek():
        cur.take()
    top = _parse_node(cur)
    if cur.peek() != ";":
        cur.error("expected ';'")
    cur.take()
    while cur.peek() in " \t\r\n" and cur.peek():
        cur.take()
    if cur.peek():
        cur.error("unexpected text after ';'")

    edges = []
    labels = {}
    label_pos = {}
    tags = {}  # digits -> [vertex, defined, first_pos]
    counter = [0]

    def fresh():
        counter[0] += 1
        return counter[0]

    def tag_vertex(tag, pos):
        if tag not in tags:
            tags[tag] = [fresh(), False, pos]
        return tags[tag]

    def walk(node):
        kind = node[0]
        if kind == "leaf":
            _, label, pos = node
            if label in label_pos:
                raise ParseError("duplicate leaf label %r" % label, pos)
            label_pos[label] = pos
            v = fresh()
            labels[v] = label
            return v
        if kind == "ref":
            _, tag, pos = node
            return tag_vertex(tag, pos)[0]
        _, children, tag, pos = node
        if tag is not None:
            if len(children) != 1:
                raise ParseError("a #H-tagged group must have exactly one child", pos)
            entry = tag_vertex(tag[0], tag[1])
            if entry[1]:
                raise ParseError("tag #H%s is given a subtree twice" % tag[0], tag[1])
            entry[1] = True
            v = entry[0]
        else:
            v = fresh()
        for child in children:
            edges.append((v, walk(child)))
        return v

    root = 0
    edges.append((root, walk(top)))

    for tag, (v, defined, pos) in sorted(tags.items()):
        if not defined:
            raise ParseError("tag #H%s is never given a subtree" % tag, pos)
        uses = sum(1 for _, c in edges if c == v)
        if uses != 2:
            raise ParseError("tag #H%s used %d times as a child, expected 2"
                             % (tag, uses), pos)

    try:
        return validate(edges, labels, root=root)
    except InvalidNetworkError as exc:
        raise ParseError("text encodes an invalid network: "
                         + "; ".join(exc.violations)) from exc


def write_enewick(n: Network) -> str:
    """Canonical eNewick text: isomorphic networks print identically."""
    order = canonical_order(n)
    rank = {v: i for i, v in enumerate(order)}
    tags = {}

    def render(v):
        if n.out_degree(v) == 0:
            return n.leaf_labels[v]
        if n.in_degree(v) == 2:
            if v in tags:
                return "#H%d" % tags[v]
            tags[v] = len(tags) + 1
            child = n.children(v)[0]
            return "(%s)#H%d" % (render(child), tags[v])
        kids = sorted(n.children(v), key=rank.get)
        return "(" + ",".join(render(k) for k in kids) + ")"

    top = n.children(n.root)[0]
    return render(top) + ";"


# ---------------------------------------------------------------------------
# pnd


def _pnd_lines(text):
    """Significant (line_number, tokens) pairs, comments stripped."""
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((i, line.split()))
    return out


def _pnd_int(token, line_no, what):
    try:
        return int(token)
    except ValueError:
        raise ParseError("%s %r is not an integer" % (what, token), line_no) from None


def parse_pnd(text: str) -> Network:
    """Parse a pnd network document. Error positions are line numbers."""
    lines = _pnd_lines(text)
    if not lines or lines[0][1] != ["pnd", "1"]:
        raise ParseError("expected 'pnd 1' header", lines[0][0] if lines else 1)
    declared = set()
    labels = {}
    root = None
    edge_lines = []
    for line_no, tokens in lines[1:]:
        kind = tokens[0]
        if kind == "vertex" and len(tokens) == 2:
            v = _pnd_int(tokens[1], line_no, "vertex id")
            if v in declared:
                raise ParseError("vertex %d declared twice" % v, line_no)
            declared.add(v)
        elif kind == "leaf" and len(tokens) == 3:
            v = _pnd_int(tokens[1], line_no, "leaf id")
            if v in declared:
                raise ParseError("vertex %d declared twice" % v, line_no)
            declared.add(v)
            labels[v] = tokens[2]
        elif kind == "root" and len(tokens) == 2:
            if root is not None:
                raise ParseError("root declared twice", line_no)
            root = _pnd_int(tokens[1], line_no, "root id")
        elif kind == "edge" and len(tokens) == 3:
            u = _pnd_int(tokens[1], line_no, "edge endpoint")
            v = _pnd_int(tokens[2], line_no, "edge endpoint")
            edge_lines.append((line_no, u, v))
        else:
            raise ParseError("unrecognised line %r" % " ".join(tokens), line_no)
    if root is None:
        raise ParseError("missing root line")
    if root not in declared:
        raise ParseError("root %d is not declared" % root)
    for line_no, u, v in edge_lines:
        for x in (u, v):
            if x not in declared:
                raise ParseError("edge endpoint %d is not declared" % x, line_no)
    try:
        return validate([(u, v) for _, u, v in edge_lines], labels, root=root,
                        vertices=declared)
    except InvalidNetworkError as exc:
        raise ParseError("document encodes an invalid network: "
                         + "; ".join(exc.violations)) from exc


def write_pnd(n: Network) -> str:
    lines = ["pnd 1"]
    for v in sorted(n.vertices - set(n.leaf_labels)):
        lines.append("vertex %d" % v)
    for v in sorted(n.leaf_labels):
        lines.append("leaf %d %s" % (v, n.leaf_labels[v]))
    lines.append("root %d" % n.root)
    for e in sorted(n.edges):
        lines.append("edge %d %d" % (e.src, e.dst))
    return "\n".join(lines) + "\n"


def parse_digraph_pnd(text: str, taxa=None) -> PhyloDigraph:
    """Parse a pnd digraph document (component blocks, per-component rho)."""
    lines = _pnd_lines(text)
    if not lines or lines[0][1] != ["pnd", "1"]:
        raise ParseError("expected 'pnd 1' header", lines[0][0] if lines else 1)
    blocks = []
    current = None
    for line_no, tokens in lines[1:]:
        kind = tokens[0]
        if kind == "component" and len(tokens) == 1:
            current = {"declared": set(), "labels": {}, "rho": None, "edges": []}
            blocks.append(current)
            continue
        if current is None:
            raise ParseError("expected 'component'", line_no)
        if kind == "vertex" and len(tokens) == 2:
            v = _pnd_int(tokens[1], line_no, "vertex id")
            if v in current["declared"]:
                raise ParseError("vertex %d declared twice" % v, line_no)
            current["declared"].add(v)
        elif kind == "leaf" and len(tokens) == 3:
            v = _pnd_int(tokens[1], line_no, "leaf id")
            if v in current["declared"]:
                raise ParseError("vertex %d declared twice" % v, line_no)
            current["declared"].add(v)
            current["labels"][v] = tokens[2]
        elif kind == "rho" and len(tokens) == 2:
            if current["rho"] is not None:
                raise ParseError("rho declared twice in one component", line_no)
            v = _pnd_int(tokens[1], line_no, "rho id")
            current["declared"].add(v)
            current["rho"] = v
        elif kind == "edge" and len(tokens) == 3:
            u = _pnd_int(tokens[1], line_no, "edge endpoint")
            v = _pnd_int(tokens[2], line_no, "edge endpoint")
            for x in (u, v):
                if x not in current["declared"]:
                    raise ParseError("edge endpoint %d is not declared" % x, line_no)
            current["edges"].append((u, v))
        else:
            raise ParseError("unrecognised line %r" % " ".join(tokens), line_no)
    if not blocks:
        raise ParseError("document has no components")
    try:
        comps = [validate_component(blk["edges"], blk["labels"], rho=blk["rho"],
                                    vertices=blk["declared"]) for blk in blocks]
        if taxa is None:
            taxa = set()
            for c in comps:
                taxa |= c.taxa
        return validate_digraph(comps, taxa)
    except InvalidDigraphError as exc:
        raise ParseError("document encodes an invalid digraph: "
                         + "; ".join(exc.violations)) from exc


def write_digraph_pnd(d: PhyloDigraph) -> str:
    lines = ["pnd 1"]
    for comp in d.components:
        lines.append("component")
        plain = comp.vertices - set(comp.leaf_labels)
        if comp.rho is not None:
            plain = plain - {comp.rho}
        for v in sorted(plain):
            lines.append("vertex %d" % v)
        for v in sorted(comp.leaf_labels):
            lines.append("leaf %d %s" % (v, comp.leaf_labels[v]))
        if comp.rho is not None:
            lines.append("rho %d" % comp.rho)
        for e in sorted(comp.edges):
            lines.append("edge %d %d" % (e.src, e.dst))
    return "\n".join(lines) + "\n"


def write_extension_pnd(ext) -> str:
    """Host pnd document with per-edge annotations.

    Each edge line gains one word: in:embedding, in:extension, or cut.
    """
    host = ext.embedding.host
    embedded = set(ext.embedding.host_edges())
    added = set(ext.added_edges)
    lines = ["pnd 1"]
    for v in sorted(host.vertices - set(host.leaf_labels)):
        lines.append("vertex %d" % v)
    for v in sorted(host.leaf_labels):
        lines.append("leaf %d %s" % (v, host.leaf_labels[v]))
    lines.append("root %d" % host.root)
    for e in sorted(host.edges):
        if e in embedded:
            note = "in:embedding"
        elif e in added:
            note = "in:extension"
        else:
            note = "cut"
        lines.append("edge %d %d %s" % (e.src, e.dst, note))
    return "\n".join(lines) + "\n"


def write_witness_bundle(witness) -> str:
    """Agreement witness as three pnd blocks: both hosts annotated, then the digraph."""
    total = witness.cut_n + witness.cut_m
    parts = [
        "# agreement witness: cut %d + %d = %d" % (witness.cut_n, witness.cut_m, total),
        "begin network 1",
        write_extension_pnd(witness.extension_n).rstrip("\n"),
        "end",
        "begin network 2",
        write_extension_pnd(witness.extension_m).rstrip("\n"),
        "end",
        "begin digraph",
        write_digraph_pnd(witness.digraph).rstrip("\n"),
        "end",
    ]
    return "\n".join(parts) + "\n"
