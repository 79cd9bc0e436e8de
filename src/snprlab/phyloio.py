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

import itertools

from .digraphcore import PhyloDigraph, validate_component, validate_digraph
from .errors import InvalidDigraphError, InvalidNetworkError, ParseError
from .netcore import _LABEL_RE, Network, canonical_order, validate


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


def _parse_tree(cur):
    """The node tree of one eNewick string, read with an explicit stack.

    Nodes are ("leaf", label, pos), ("ref", tag, pos) and
    ("inner", children, tag or None, pos of "(").
    """
    groups = []  # open groups, innermost last: (children, pos of "(")
    while True:
        ch = cur.peek()
        if ch == "(":
            groups.append(([], cur.pos))
            cur.take()
            continue
        if ch == "#":
            tag, pos = _parse_tag(cur)
            node = ("ref", tag, pos)
        elif ch and _LABEL_RE.match(ch):
            pos = end = cur.pos
            while end < len(cur.text) and _LABEL_RE.match(cur.text[end]):
                end += 1
            cur.pos = end
            node = ("leaf", cur.text[pos:end], pos)
        else:
            cur.error("expected a leaf label, '(' or '#H'")
        # the node just read completes every group it closes
        while groups:
            children, open_pos = groups[-1]
            children.append(node)
            if len(children) == 1 and cur.peek() == ",":
                cur.take()
                break
            if cur.peek() != ")":
                cur.error("expected ',' or ')'")
            cur.take()
            tag = None
            if cur.peek() == "#":
                tag = _parse_tag(cur)
            if len(children) == 1 and tag is None:
                cur.error("a single-child group must carry a #H tag")
            groups.pop()
            node = ("inner", children, tag, open_pos)
        else:
            return node


def parse_enewick(text: str) -> Network:
    """Parse one eNewick string into a validated network.

    Raises ParseError for anything wrong; syntax problems carry the offending
    character position.
    """
    cur = _Cursor(text)
    while cur.peek() in " \t\r\n" and cur.peek():
        cur.take()
    top = _parse_tree(cur)
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
    fresh = itertools.count(1).__next__

    def tag_vertex(tag, pos):
        if tag not in tags:
            tags[tag] = [fresh(), False, pos]
        return tags[tag]

    # preorder, children left to right, so vertex ids follow the text
    root = 0
    stack = [(root, top)]
    while stack:
        parent, node = stack.pop()
        kind = node[0]
        if kind == "leaf":
            _, label, pos = node
            if label in label_pos:
                raise ParseError("duplicate leaf label %r" % label, pos)
            label_pos[label] = pos
            v = fresh()
            labels[v] = label
        elif kind == "ref":
            _, tag, pos = node
            v = tag_vertex(tag, pos)[0]
        else:
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
            for child in reversed(children):
                stack.append((v, child))
        edges.append((parent, v))

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
    parts = []
    # text pieces and vertices still to render, next one last
    todo = [";", n.children(n.root)[0]]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            parts.append(item)
        elif n.out_degree(item) == 0:
            parts.append(n.leaf_labels[item])
        elif n.in_degree(item) == 2:
            if item in tags:
                parts.append("#H%d" % tags[item])
            else:
                tags[item] = len(tags) + 1
                parts.append("(")
                todo += [")#H%d" % tags[item], n.children(item)[0]]
        else:
            kids = sorted(n.children(item), key=rank.get)
            parts.append("(")
            todo.append(")")
            for k in reversed(kids[1:]):
                todo += [k, ","]
            todo.append(kids[0])
    return "".join(parts)


# ---------------------------------------------------------------------------
# pnd


def _pnd_body(text):
    """Significant (line_number, tokens) pairs after the header, comments stripped."""
    lines = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append((i, line.split()))
    if not lines or lines[0][1] != ["pnd", "1"]:
        raise ParseError("expected 'pnd 1' header", lines[0][0] if lines else 1)
    return lines[1:]


def _pnd_int(token, line_no, what):
    try:
        return int(token)
    except ValueError:
        raise ParseError("%s %r is not an integer" % (what, token), line_no) from None


class _PndGraph:
    """The vertex, leaf and edge lines of one network or digraph component."""

    def __init__(self):
        self.declared = set()
        self.labels = {}
        self.edges = []  # (line number, tail, head)
        self.top = None  # the root or rho id

    def read(self, tokens, line_no):
        """Take a vertex, leaf or edge line; False for any other line."""
        kind = tokens[0]
        if kind == "edge" and len(tokens) == 3:
            self.edges.append((line_no, _pnd_int(tokens[1], line_no, "edge endpoint"),
                               _pnd_int(tokens[2], line_no, "edge endpoint")))
            return True
        if kind == "vertex" and len(tokens) == 2:
            v = _pnd_int(tokens[1], line_no, "vertex id")
        elif kind == "leaf" and len(tokens) == 3:
            v = _pnd_int(tokens[1], line_no, "leaf id")
        else:
            return False
        if v in self.declared:
            raise ParseError("vertex %d declared twice" % v, line_no)
        self.declared.add(v)
        if kind == "leaf":
            self.labels[v] = tokens[2]
        return True

    def check_endpoints(self, edges):
        for line_no, u, v in edges:
            for x in (u, v):
                if x not in self.declared:
                    raise ParseError("edge endpoint %d is not declared" % x, line_no)

    def pairs(self):
        return [(u, v) for _, u, v in self.edges]


def parse_pnd(text: str) -> Network:
    """Parse a pnd network document. Error positions are line numbers."""
    g = _PndGraph()
    for line_no, tokens in _pnd_body(text):
        if tokens[0] == "root" and len(tokens) == 2:
            if g.top is not None:
                raise ParseError("root declared twice", line_no)
            g.top = _pnd_int(tokens[1], line_no, "root id")
        elif not g.read(tokens, line_no):
            raise ParseError("unrecognised line %r" % " ".join(tokens), line_no)
    if g.top is None:
        raise ParseError("missing root line")
    if g.top not in g.declared:
        raise ParseError("root %d is not declared" % g.top)
    g.check_endpoints(g.edges)
    try:
        return validate(g.pairs(), g.labels, root=g.top, vertices=g.declared)
    except InvalidNetworkError as exc:
        raise ParseError("document encodes an invalid network: "
                         + "; ".join(exc.violations)) from exc


def _network_pnd_head(n: Network) -> list:
    """The header, vertex, leaf and root lines of a network's pnd document."""
    lines = ["pnd 1"]
    for v in sorted(n.vertices - set(n.leaf_labels)):
        lines.append("vertex %d" % v)
    for v in sorted(n.leaf_labels):
        lines.append("leaf %d %s" % (v, n.leaf_labels[v]))
    lines.append("root %d" % n.root)
    return lines


def write_pnd(n: Network) -> str:
    lines = _network_pnd_head(n)
    for e in sorted(n.edges):
        lines.append("edge %d %d" % (e.src, e.dst))
    return "\n".join(lines) + "\n"


def parse_digraph_pnd(text: str, taxa=None) -> PhyloDigraph:
    """Parse a pnd digraph document (component blocks, per-component rho)."""
    blocks = []
    for line_no, tokens in _pnd_body(text):
        kind = tokens[0]
        if kind == "component" and len(tokens) == 1:
            blocks.append(_PndGraph())
            continue
        if not blocks:
            raise ParseError("expected 'component'", line_no)
        g = blocks[-1]
        if kind == "rho" and len(tokens) == 2:
            if g.top is not None:
                raise ParseError("rho declared twice in one component", line_no)
            g.top = _pnd_int(tokens[1], line_no, "rho id")
            g.declared.add(g.top)
        elif not g.read(tokens, line_no):
            raise ParseError("unrecognised line %r" % " ".join(tokens), line_no)
        elif kind == "edge":
            g.check_endpoints(g.edges[-1:])
    if not blocks:
        raise ParseError("document has no components")
    try:
        comps = [validate_component(g.pairs(), g.labels, rho=g.top,
                                    vertices=g.declared) for g in blocks]
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
    lines = _network_pnd_head(host)
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
