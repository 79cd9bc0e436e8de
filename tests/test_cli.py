"""Golden tests for the command-line surface: exact bytes, exact exit codes."""

import ast
import inspect
import json
import pathlib
import subprocess
import sys
import textwrap
import time

import pytest

from snprlab import cli, random_tree_child, write_enewick
from snprlab.cli import _build_parser, main

TRIPLE_AB_C = "((a,b),c);"
TRIPLE_AC_B = "((a,c),b);"
RETIC_AB_C = "((a,(b)#H1),(#H1,c));"
TRIPLE_A_BC = "(a,(b,c));"
STACKED = "((((b)#H2)#H1,#H2),(#H1,a));"
GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        return str(p)
    return write


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_validate_counts(files, capsys):
    f = files("n.nwk", TRIPLE_AB_C)
    code, out, _ = run(capsys, "validate", f)
    assert code == 0
    assert out == "vertices\t6\nedges\t5\nleaves\t3\nreticulations\t0\n"


def test_validate_reports_file_and_position(files, capsys):
    f = files("bad.nwk", "((a,b),c;")
    code, out, err = run(capsys, "validate", f)
    assert code == 1
    assert out == ""
    assert "bad.nwk" in err and "position" in err


def test_tree_child_subcommand(files, capsys):
    good = files("good.nwk", RETIC_AB_C)
    code, out, _ = run(capsys, "tree-child", good)
    assert code == 0
    assert out.splitlines()[0] == "tree_child\ttrue"

    bad = files("bad.nwk", STACKED)
    code, out, _ = run(capsys, "tree-child", bad)
    assert code == 0
    assert out == ("tree_child\tfalse\nstacks\t1\n"
                   "sibling_reticulations\t1\nparallel_pairs\t0\n")


def test_iso_subcommand(files, capsys):
    a = files("a.nwk", TRIPLE_AB_C)
    b = files("b.nwk", TRIPLE_AC_B)
    assert run(capsys, "iso", a, a)[:2] == (0, "true\n")
    assert run(capsys, "iso", a, b)[:2] == (0, "false\n")


def test_neighbors_listing_is_deterministic(files, capsys):
    f = files("n.nwk", TRIPLE_AB_C)
    code, out, _ = run(capsys, "neighbors", f)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 24
    assert lines[0] == "pm\t1>2\t1>5\t((a,b),c);"
    again = run(capsys, "neighbors", f)[1]
    assert again == out


def test_neighbors_budget_counts_printed_successors(files, capsys, tmp_path):
    f = files("n.nwk", TRIPLE_AB_C)
    full = run(capsys, "neighbors", f)[1]
    code, out, err = run(capsys, "neighbors", f, "--budget", "5")
    assert code == 2
    assert out == "".join(full.splitlines(keepends=True)[:5])
    assert "stopped after the budget of 5 successors" in err
    assert run(capsys, "neighbors", f, "--budget", "0")[:2] == (2, "")
    # a budget that covers every successor changes nothing
    assert run(capsys, "neighbors", f, "--budget", "24")[:2] == (0, full)
    # the kept part goes where the full listing would
    dest = tmp_path / "out.txt"
    assert run(capsys, "neighbors", f, "--budget", "5", "--out", str(dest))[:2] == (2, "")
    assert dest.read_text(encoding="utf-8") == out


def test_budget_help_says_what_it_counts():
    sub = next(a for a in _build_parser()._actions if a.dest == "subcommand")
    helps = {name: a.help for name, p in sub.choices.items()
             for a in p._actions if a.dest == "budget"}
    assert "expansions" in helps["distance"]
    assert "candidate digraphs" in helps["mtc"]
    assert "candidate pairs" in helps["gap-search"]
    assert "successors" in helps["neighbors"]
    assert "branch nodes" in helps["maf"]
    assert set(helps) == {"distance", "mtc", "gap-search", "neighbors", "maf"}


def _args_read(function):
    tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "args"}


def test_each_subcommand_takes_only_what_it_reads():
    # a flag no handler reads would be accepted and silently do nothing
    assert _args_read(main) == {"handler", "out"}
    sub = next(a for a in _build_parser()._actions if a.dest == "subcommand")
    options = 0
    for name, p in sub.choices.items():
        dests = {a.dest for a in p._actions if a.dest != "help"}
        assert dests == _args_read(p.get_default("handler")) | {"out"}, name
        options += sum(1 for a in p._actions if a.option_strings and a.dest != "help")
    assert options == 39


@pytest.mark.parametrize("argv", [
    ["validate", "f.nwk", "--budget", "3"],
    ["mtc", "a.nwk", "b.nwk", "--no-tree-child-only"],
    ["gen", "--leaves", "3", "--format", "pnd"],
    ["bounds", "a.nwk", "b.nwk", "--budget", "5"],
])
def test_unread_flag_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    cap = capsys.readouterr()
    assert exc.value.code == 2
    assert cap.out == ""
    assert "unrecognized arguments" in cap.err


def test_distance_on_isomorphic_inputs(files, capsys):
    a = files("a.nwk", TRIPLE_AB_C)
    b = files("b.nwk", TRIPLE_AB_C)
    code, out, _ = run(capsys, "distance", a, b, "--cap", "2")
    assert code == 0
    first, rest = out.split("\n", 1)
    assert first == "0"
    assert json.loads(rest)["moves"] == []


def test_distance_with_witness(files, capsys):
    a = files("a.nwk", TRIPLE_AB_C)
    b = files("b.nwk", TRIPLE_AC_B)
    code, out, _ = run(capsys, "distance", a, b)
    assert code == 0
    first, rest = out.split("\n", 1)
    assert first == "2"
    assert [m["kind"] for m in json.loads(rest)["moves"]] == ["pm"]


def test_mtc_subcommand(files, capsys):
    a = files("a.nwk", TRIPLE_AB_C)
    b = files("b.nwk", TRIPLE_AC_B)
    code, out, _ = run(capsys, "mtc", a, b)
    assert code == 0
    assert out.splitlines()[0] == "2"
    assert "# agreement witness: cut 1 + 1 = 2" in out
    assert "begin digraph" in out


@pytest.mark.parametrize("first, second, golden", [
    ("((a,b),(c,d));", "((a,c),(b,d));", "mtc_four_leaf_trees.txt"),
    # the measure anchor pair of the benchmark: a 14-edge host
    ("(((((c)#H1,f),a),((#H1,b),e)),d);", "(((((c)#H1,f),a),((#H1,e),b)),d);",
     "mtc_anchor.txt"),
], ids=["four_leaf_trees", "anchor"])
def test_mtc_golden_witness(files, capsys, first, second, golden):
    # the value and the whole bundle pin the first optimum in enumeration order
    a = files("a.nwk", first)
    b = files("b.nwk", second)
    code, out, _ = run(capsys, "mtc", a, b)
    assert code == 0
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


def test_mtc_budget_exhaustion_exits_2(files, capsys):
    # random_tree_child(4, 1, seed=9) against seed=10 builds three candidates
    a = files("a.nwk", "(((((b)#H1,c),#H1),d),a);")
    b = files("b.nwk", "(((((d)#H1,a),#H1),c),b);")
    code, out, err = run(capsys, "mtc", a, b, "--budget", "2")
    assert code == 2
    assert out == ""
    assert "stopped after" in err


def test_bounds_golden_lines(files, capsys):
    a = files("a.nwk", TRIPLE_AB_C)
    b = files("b.nwk", TRIPLE_AC_B)
    assert run(capsys, "bounds", a, b)[1] == "1\t2\t2\ttrue\n"

    r = files("r.nwk", RETIC_AB_C)
    t = files("t.nwk", TRIPLE_A_BC)
    assert run(capsys, "bounds", r, t)[1] == "0.5\t1\t1\ttrue\n"
    assert run(capsys, "bounds", a, a)[1] == "0\t0\t0\ttrue\n"


def test_maf_subcommand(files, capsys):
    a = files("a.nwk", TRIPLE_AB_C)
    b = files("b.nwk", TRIPLE_AC_B)
    assert run(capsys, "maf", a, b)[:2] == (0, "1\n")
    r = files("r.nwk", RETIC_AB_C)
    code, _, err = run(capsys, "maf", a, r)
    assert code == 1
    assert "reticulations" in err


def test_maf_budget_exhaustion_exits_2(files, capsys):
    # a far 60-leaf pair: the budget stops the search at once, with one
    # error line and nothing on stdout
    a = files("a.nwk", write_enewick(random_tree_child(60, 0, seed=1)))
    b = files("b.nwk", write_enewick(random_tree_child(60, 0, seed=2)))
    start = time.process_time()
    code, out, err = run(capsys, "maf", a, b, "--budget", "50")
    assert time.process_time() - start < 1.0
    assert (code, out) == (2, "")
    assert err == "error: stopped after 50 branch nodes\n"
    assert run(capsys, "maf", a, a, "--budget", "1") == (0, "0\n", "")


def test_gen_is_seeded(files, capsys):
    one = run(capsys, "gen", "--leaves", "4", "--retics", "1",
              "--count", "3", "--seed", "7")[1]
    two = run(capsys, "gen", "--leaves", "4", "--retics", "1",
              "--count", "3", "--seed", "7")[1]
    other = run(capsys, "gen", "--leaves", "4", "--retics", "1",
                "--count", "3", "--seed", "8")[1]
    assert one == two
    assert one != other
    assert len(one.splitlines()) == 3


def test_enumerate_small_space(files, capsys):
    code, out, _ = run(capsys, "enumerate", "--leaves", "3", "--retics", "1")
    assert code == 0
    assert len(out.splitlines()) == 24
    code, _, err = run(capsys, "enumerate", "--leaves", "9")
    assert code == 1
    assert err


@pytest.mark.parametrize("argv, message", [
    (["enumerate", "--leaves", "0"], "need at least one leaf"),
    (["gen", "--leaves", "0"], "need at least one leaf"),
    (["gen", "--leaves", "2", "--retics", "-1"], "reticulation count cannot be negative"),
    (["gap-search", "--leaves", "0"], "need at least one leaf"),
])
def test_generator_sizes_are_input_errors(capsys, argv, message):
    assert run(capsys, *argv) == (1, "", "error: %s\n" % message)


def test_unreachable_reticulation_count_is_an_input_error(capsys):
    # two leaves carry at most one tree-child reticulation; running out of
    # insertions is bad input, not a spent budget
    code, out, err = run(capsys, "gen", "--leaves", "2", "--retics", "5")
    assert (code, out) == (1, "")
    assert err.startswith("error: no legal reticulation insertion")


@pytest.mark.parametrize("argv, flag", [
    (["neighbors", "n.nwk", "--budget", "-1"], "--budget"),
    (["distance", "a.nwk", "b.nwk", "--budget", "-1"], "--budget"),
    (["mtc", "a.nwk", "b.nwk", "--budget", "-3"], "--budget"),
    (["gap-search", "--leaves", "4", "--budget", "-5"], "--budget"),
    (["gen", "--leaves", "3", "--count", "-2"], "--count"),
])
def test_negative_count_is_a_usage_error(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    cap = capsys.readouterr()
    assert exc.value.code == 2
    assert cap.out == ""
    assert "argument %s: must not be negative" % flag in cap.err


def test_normalize_seq_roundtrip(files, tmp_path, capsys):
    a = files("a.nwk", TRIPLE_AB_C)
    b = files("b.nwk", TRIPLE_AC_B)
    wit = tmp_path / "wit.json"
    code, out, _ = run(capsys, "distance", a, b, "--out", str(wit))
    assert code == 0
    assert out == ""
    seq_file = tmp_path / "seq.json"
    seq_file.write_text(wit.read_text().split("\n", 1)[1], encoding="utf-8")
    code, out, _ = run(capsys, "normalize-seq", str(seq_file))
    assert code == 0
    assert json.loads(out)["format"] == "snprlab-moves-1"


BAD_MOVE_DOCUMENTS = {
    "enewick": TRIPLE_AB_C,
    "no_start": '{"format": "snprlab-moves-1"}',
    "not_an_object": "[1,2]",
    "short_edge": json.dumps({"format": "snprlab-moves-1",
                              "start": "pnd 1\nvertex 0\nleaf 1 a\nroot 0\nedge 0 1\n",
                              "moves": [{"kind": "pm", "edge": [0], "target": [0, 1]}]}),
}


@pytest.mark.parametrize("name", sorted(BAD_MOVE_DOCUMENTS))
def test_normalize_seq_rejects_what_is_not_a_move_document(files, capsys, name):
    f = files(name + ".json", BAD_MOVE_DOCUMENTS[name])
    code, out, err = run(capsys, "normalize-seq", f)
    assert code == 1
    assert out == ""
    assert err.startswith("error: %s: " % f)
    assert err.count("\n") == 1


def test_gap_search_budget_zero(capsys):
    code, out, _ = run(capsys, "gap-search", "--leaves", "4", "--retics", "1",
                       "--budget", "0")
    assert code == 0
    assert out == ""


def test_gap_search_ends_without_candidate_pairs(capsys):
    # a one-leaf tree has no two-leaf-move neighbour
    code, out, _ = run(capsys, "gap-search", "--leaves", "1", "--retics", "0",
                       "--budget", "3")
    assert code == 0
    assert out == ""


def test_budget_default_belongs_to_gap_search_alone(capsys, monkeypatch):
    parser = _build_parser()
    assert parser.parse_args(["mtc", "a", "b"]).budget is None
    assert parser.parse_args(["distance", "a", "b"]).budget is None
    budgets = []
    monkeypatch.setattr(cli, "gap_witness_search",
                        lambda leaves, r, budget, seed: budgets.append(budget))
    assert run(capsys, "gap-search", "--leaves", "4")[:2] == (0, "")
    assert run(capsys, "gap-search", "--leaves", "4", "--budget", "7")[:2] == (0, "")
    assert budgets == [200, 7]


def test_log_env_only_touches_stderr(files, capsys, monkeypatch):
    f = files("n.nwk", TRIPLE_AB_C)
    quiet = run(capsys, "neighbors", f)
    monkeypatch.setenv("SNPRLAB_LOG", "1")
    loud = run(capsys, "neighbors", f)
    assert loud[1] == quiet[1]
    assert "24 neighbors" in loud[2]
    assert quiet[2] == ""


def test_console_entry_point(files, tmp_path):
    a = tmp_path / "a.nwk"
    a.write_text(TRIPLE_AB_C, encoding="utf-8")
    b = tmp_path / "b.nwk"
    b.write_text(TRIPLE_AC_B, encoding="utf-8")
    for module in ("snprlab.cli", "snprlab"):
        proc = subprocess.run([sys.executable, "-m", module,
                               "bounds", str(a), str(b)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, (module, proc.stderr)
        assert proc.stdout == "1\t2\t2\ttrue\n", module


@pytest.mark.parametrize("command", ["distance", "mtc", "bounds", "maf"])
def test_leaf_set_mismatch_names_both_sets(files, capsys, command):
    # every two-network command rejects networks on different leaf sets
    # with one error line naming both sets, sorted, and prints nothing
    a = files("a.nwk", TRIPLE_AB_C)
    b = files("b.nwk", "((a,b),d);")
    assert run(capsys, command, a, b) == (
        1, "", "error: leaf sets differ: ['a', 'b', 'c'] vs ['a', 'b', 'd']\n")
