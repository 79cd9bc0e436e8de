"""The package's import structure, read from the source with ast.

Every import sits at module level, and the relative imports between the
package's modules form an acyclic graph, so each module can be read and
loaded after the modules it uses.
"""

import ast
import pathlib

import snprlab

PACKAGE = pathlib.Path(snprlab.__file__).parent


def _trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _imported_modules(node):
    """Package modules a relative import statement names."""
    if not isinstance(node, ast.ImportFrom) or not node.level:
        return []
    if node.module:
        return [node.module.split(".")[0]]
    return [alias.name for alias in node.names]


def test_no_import_inside_a_function():
    found = []
    for name, tree in _trees().items():
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                found += ["%s.py:%d" % (name, node.lineno) for node in ast.walk(func)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []


def test_relative_imports_are_acyclic():
    trees = _trees()
    graph = {name: sorted({dep for node in ast.walk(tree)
                           for dep in _imported_modules(node) if dep in trees})
             for name, tree in trees.items()}
    assert "netcore" in graph["snpr"]  # the reader sees the imports
    # depth-first search; a module met again while still open closes a cycle
    state = {}

    def visit(name, path):
        state[name] = "open"
        for dep in graph[name]:
            assert state.get(dep) != "open", " -> ".join(path + [dep])
            if dep not in state:
                visit(dep, path + [dep])
        state[name] = "done"

    for name in graph:
        if name not in state:
            visit(name, [name])


def _names(tree):
    """Every identifier a module names: bare names, attributes and
    imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_only_netcore_names_the_builder():
    # the edit's scratch copy lives inside netcore._edit; every other
    # module edits through _edit or apply_move and gets a frozen Network
    trees = _trees()
    assert "_Builder" in set(_names(trees["netcore"]))
    assert [name for name, tree in trees.items()
            if name != "netcore" and "_Builder" in set(_names(tree))] == []


def test_search_and_replay_read_one_successor_stream():
    # the cache's expansion and the replay's move search read every key
    # from _keyed, in both spaces; neither runs a loop of its own over
    # edited successors or canonical signatures
    tree = _trees()["snpr"]
    cache = next(node for node in tree.body
                 if isinstance(node, ast.ClassDef) and node.name == "NeighborCache")
    functions = {node.name: node for node in tree.body + cache.body
                 if isinstance(node, ast.FunctionDef)}
    for name in ("successors", "_find_move_to"):
        names = set(_names(functions[name]))
        assert "_keyed" in names, name
        assert names.isdisjoint({"_edits", "canonical_signature"}), name


def test_only_the_expansion_writes_first_move_records():
    # a key's record (key, parent key, kind, edge, target) is written where
    # an expansion meets the key and nowhere else, and only the cache's
    # methods and the witness walk read the records
    tree = _trees()["snpr"]
    cache = next(node for node in tree.body
                 if isinstance(node, ast.ClassDef) and node.name == "NeighborCache")
    functions = [(name, node) for name, node in _functions(tree).items()
                 if node not in cache.body] + [
        ("NeighborCache." + node.name, node) for node in cache.body
        if isinstance(node, ast.FunctionDef)]
    assert sorted(name for name, f in functions if "_keys" in set(_names(f))) == [
        "NeighborCache.__init__", "NeighborCache.representative",
        "NeighborCache.successors", "_witness_moves"]
    assert sorted(module for module, other in _trees().items()
                  if "_keys" in set(_names(other))) == ["snpr"]
    writers = sorted(name for name, f in functions for node in ast.walk(f)
                     if isinstance(node, ast.Assign)
                     and any(isinstance(t, ast.Subscript) for t in node.targets)
                     and isinstance(node.value, ast.Tuple) and len(node.value.elts) >= 5)
    assert writers == ["NeighborCache.successors"] * 2


def test_dtc_replays_a_move_only_where_no_record_holds_it():
    # of the functions dtc calls, only the witness walk reaches
    # _find_move_to, in the branch taken when the hop's record does not
    # name its source or the walk does not stand on that source's frozen
    # representative (an identity test); _replay is not reached
    functions = _functions(_trees()["snpr"])
    reached, todo = set(), ["dtc"]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += [n for n in _names(functions[name]) if n in functions]
    assert "_replay" not in reached
    assert sorted(name for name in reached
                  if "_find_move_to" in set(_names(functions[name]))) == ["_witness_moves"]
    walk = functions["_witness_moves"]
    branch = next(node for node in ast.walk(walk) if isinstance(node, ast.If)
                  and any(isinstance(op, ast.Is) for cmp in ast.walk(node.test)
                          if isinstance(cmp, ast.Compare) for op in cmp.ops))
    assert "_find_move_to" not in set(_names(ast.Module(branch.body, [])))
    assert "_find_move_to" in set(_names(ast.Module(branch.orelse, [])))
    assert [name for name in _names(walk) if name == "_find_move_to"] == ["_find_move_to"]


def test_forest_oracle_stays_independent():
    # maf_rspr cross-checks the digraph measure on trees, so neither it nor
    # any module function it reaches names what agreement imports from
    # the digraph, embedding or move modules
    tree = _trees()["agreement"]
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level
                and node.module in ("digraphcore", "embed", "snpr")
                for alias in node.names}
    assert {"find_embedding", "dtc", "_component"} <= imported
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    reached, todo = set(), ["maf_rspr"]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += [n for n in _names(functions[name]) if n in functions]
    assert {"_marked_tree", "_reduce_pair", "_pendant_roots"} <= reached
    assert sorted((name, used) for name in reached
                  for used in _names(functions[name]) if used in imported) == []


def _functions(tree):
    """The module's functions by name, those of its classes included."""
    return {node.name: node for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)}


def test_embed_owns_the_display_decision():
    # embed's two searches decide display by the search alone, and the
    # forced-chain rule runs in one place, the split test's mask pass: no
    # function of the package runs it on a built digraph. The mask pass
    # climbs a chain through one helper of embed, which alone reads the
    # host's in-edges on the way up, from a leaf or a forced image, below
    # rho or a reticulation too, and claims its vertices through one
    # helper of embed as well
    trees = _trees()
    embed = _functions(trees["embed"])
    agreement = _functions(trees["agreement"])
    for retired in ("_forced_chains_clash", "_children_first"):
        assert sorted((module, name) for module, tree in trees.items()
                      for name, f in _functions(tree).items()
                      if retired in {name, *_names(f)}) == [], retired
    for name in ("find_embedding", "enumerate_embeddings"):
        names = set(_names(embed[name]))
        assert "_Search" in names, name
        assert names.isdisjoint({"_forced_chain", "_claim"}), name
    for helper in ("_forced_chain", "_claim"):
        assert helper in set(_names(agreement["_split_test"])), helper
    # the climb from a host vertex is defined once, in embed, and only the
    # split test's chain pass calls it
    assert sorted((module, name) for module, tree in trees.items()
                  for name in _functions(tree) if name == "_forced_chain") == [
        ("embed", "_forced_chain")]
    assert sorted((module, name) for module, tree in trees.items()
                  for name, f in _functions(tree).items()
                  if "_forced_chain" in set(_names(f))) == [
        ("agreement", "_split_test"), ("agreement", "chains_clash")]
    # the root and reticulation cases are one test of y against None,
    # inside the climb
    chain = embed["_forced_chain"]
    assert "_adjacency" in set(_names(chain))
    assert any(isinstance(node, ast.Compare) and isinstance(node.ops[0], ast.IsNot)
               and isinstance(node.comparators[0], ast.Constant)
               and node.comparators[0].value is None for node in ast.walk(chain))
    # no function of agreement reads m, the host the chains climb, upward
    upward = {"_adjacency", "in_edges", "in_degree", "parents"}
    assert sorted((name, node.attr) for name, f in agreement.items()
                  for node in ast.walk(f)
                  if isinstance(node, ast.Attribute) and node.attr in upward
                  and isinstance(node.value, ast.Name) and node.value.id == "m") == []
    assert [name for name, f in agreement.items() if "_adjacency" in set(_names(f))] == []


def test_every_private_function_has_a_caller_in_src():
    # a private function or class that nothing in the package names outside
    # its own body is dead code or an oracle kept for the tests, and
    # belongs in tests/
    trees = _trees()
    private = [(module, node) for module, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.endswith("__")]
    assert len(private) > 100  # the walk sees the package

    def named_outside(tree, skip):
        # the names of tree, the body of skip left out
        if tree is skip:
            return
        if isinstance(tree, ast.Name):
            yield tree.id
        elif isinstance(tree, ast.Attribute):
            yield tree.attr
        elif isinstance(tree, ast.alias):
            yield tree.name
        for child in ast.iter_child_nodes(tree):
            yield from named_outside(child, skip)

    assert sorted("%s.%s" % (module, node.name) for module, node in private
                  if not any(node.name in set(named_outside(tree, node))
                             for tree in trees.values())) == []


def test_measure_and_stream_read_one_subset_walk():
    # mtc's loop and the shared-digraph stream both read their subsets from
    # _valid_drops, so the capped walk is the only walk
    agreement = _functions(_trees()["agreement"])
    for name in ("_min_total_cut", "enumerate_agreement_digraphs"):
        assert "_valid_drops" in set(_names(agreement[name])), name


def test_stream_carries_triples_and_one_formatter_writes_mu_keys():
    # the keyed successor stream and the generator it reads build no Move;
    # every mu key, a whole network's or a successor's read off the keyer,
    # is written by netcore._mu_bytes after the per-width prefix, and only
    # _mu_prefix formats the b"mu" part, so both keep one byte format
    trees = _trees()
    snpr = _functions(trees["snpr"])
    for name in ("_moves", "_keyed"):
        assert set(_names(snpr[name])).isdisjoint({"Move", "_make"}), name
    netcore = trees["netcore"]
    keyer = next(node for node in netcore.body
                 if isinstance(node, ast.ClassDef) and node.name == "_Keyer")
    methods = {node.name: node for node in keyer.body if isinstance(node, ast.FunctionDef)}
    functions = _functions(netcore)
    for name, node in (("_mu_key", functions["_mu_key"]), ("_Keyer.key", methods["key"])):
        assert "_mu_bytes" in set(_names(node)), name
    for name, node in (("_mu_key", functions["_mu_key"]), ("_Keyer._mu", methods["_mu"])):
        assert "_mu_prefix" in set(_names(node)), name
    formats = sorted((module, name) for module, tree in trees.items()
                     for name, f in _functions(tree).items() for node in ast.walk(f)
                     if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
                     and isinstance(node.left, ast.Constant)
                     and isinstance(node.left.value, bytes)
                     and node.left.value.startswith(b"mu"))
    assert formats == [("netcore", "_mu_prefix")]
    assert sorted((module, name) for module, tree in trees.items()
                  for name, f in _functions(tree).items()
                  if name != "_mu_bytes" and "_mu_bytes" in set(_names(f))) == [
        ("netcore", "_mu_key"), ("netcore", "key")]
