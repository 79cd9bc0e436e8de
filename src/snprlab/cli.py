"""Command-line surface for batch runs over network files.

Each subcommand parses its inputs, calls one library operation, and prints
a deterministic text report: identical flags and inputs give byte-identical
output. The SNPRLAB_LOG environment variable turns on stderr diagnostics
and never changes what is written to stdout or --out.
"""

import argparse
import contextlib
import os
import sys
from fractions import Fraction

from .errors import BudgetExceededError, SnprLabError
from .netcore import (
    enumerate_tree_child,
    isomorphic,
    random_network,
    random_tree_child,
    tree_child_report,
)
from .phyloio import parse_enewick, parse_pnd, write_enewick, write_witness_bundle
from .snpr import dtc, enumerate_moves, moves_from_json, moves_to_json, normalize_sequence
from .agreement import check_bounds, gap_witness_search, maf_rspr, mtc

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_BUDGET = 2


def _log(msg):
    if os.environ.get("SNPRLAB_LOG"):
        print("snprlab: %s" % msg, file=sys.stderr)


def _read(path, parse):
    """parse of the text of the file at path; every error names the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SnprLabError("%s: %s" % (path, exc.strerror or exc)) from exc
    try:
        return parse(text)
    except SnprLabError as exc:
        # parser messages carry the position; prepend the file
        raise SnprLabError("%s: %s" % (path, exc)) from exc


def _read_network(path, fmt):
    return _read(path, parse_pnd if fmt == "pnd" else parse_enewick)


def _edge_token(e):
    if e.slot:
        return "%d>%d~%d" % (e.src, e.dst, e.slot)
    return "%d>%d" % (e.src, e.dst)


def _fraction_token(fr):
    # bounds are halves; print "1" or "0.5", never "1/2"
    if isinstance(fr, Fraction) and fr.denominator != 1:
        return "%g" % float(fr)
    return "%d" % fr


def _bool_token(flag):
    return "true" if flag else "false"


# ---------------------------------------------------------------- handlers


def _cmd_validate(args):
    n = _read_network(args.file, args.format)
    lines = [
        "vertices\t%d" % len(n.vertices),
        "edges\t%d" % len(n.edges),
        "leaves\t%d" % len(n.leaves),
        "reticulations\t%d" % n.reticulation_count,
    ]
    return "\n".join(lines) + "\n"


def _cmd_tree_child(args):
    n = _read_network(args.file, args.format)
    rep = tree_child_report(n)
    lines = [
        "tree_child\t%s" % _bool_token(rep.is_tree_child),
        "stacks\t%d" % len(rep.stacks),
        "sibling_reticulations\t%d" % len(rep.sibling_reticulations),
        "parallel_pairs\t%d" % len(rep.parallel_pairs),
    ]
    return "\n".join(lines) + "\n"


def _cmd_iso(args):
    n = _read_network(args.file, args.format)
    m = _read_network(args.other, args.format)
    return _bool_token(isomorphic(n, m)) + "\n"


def _cmd_neighbors(args):
    """Reads the input now and returns the lines as a generator, so main
    writes each as it is made and memory does not grow with their count."""
    n = _read_network(args.file, args.format)
    moves = enumerate_moves(n, tree_child_only=args.tree_child_only)
    budget = args.budget

    def lines():
        count = 0
        for mv, succ in moves:
            if budget is not None and count >= budget:
                raise BudgetExceededError(
                    "stopped after the budget of %d successors; more remain" % budget)
            target = _edge_token(mv.target) if mv.target is not None else "-"
            yield "%s\t%s\t%s\t%s\n" % (mv.kind, _edge_token(mv.edge), target,
                                         write_enewick(succ))
            count += 1
        _log("%d neighbors" % count)

    return lines()


def _cmd_distance(args):
    n = _read_network(args.file, args.format)
    m = _read_network(args.other, args.format)
    weight, seq = dtc(n, m, reticulation_cap=args.cap, budget=args.budget,
                      tree_child_only=args.tree_child_only)
    return "%d\n%s\n" % (weight, moves_to_json(seq))


def _cmd_mtc(args):
    n = _read_network(args.file, args.format)
    m = _read_network(args.other, args.format)
    value, witness = mtc(n, m, subset_budget=args.budget)
    return "%d\n%s" % (value, write_witness_bundle(witness))


def _cmd_bounds(args):
    n = _read_network(args.file, args.format)
    m = _read_network(args.other, args.format)
    rep = check_bounds(n, m, cap=args.cap)
    return "%s\t%d\t%d\t%s\n" % (_fraction_token(rep.half_m), rep.d, rep.m,
                                 _bool_token(rep.holds))


def _cmd_maf(args):
    t = _read_network(args.file, args.format)
    u = _read_network(args.other, args.format)
    return "%d\n" % maf_rspr(t, u, budget=args.budget)


@contextlib.contextmanager
def _generator_sizes():
    """The generators reject impossible sizes with ValueError, and a
    reticulation count they cannot reach with BudgetExceededError; report
    both as bad input."""
    try:
        yield
    except (ValueError, BudgetExceededError) as exc:
        raise SnprLabError(str(exc)) from exc


def _cmd_gen(args):
    lines = []
    with _generator_sizes():
        for i in range(args.count):
            seed = args.seed + i
            if args.tree_child_only:
                n = random_tree_child(args.leaves, args.retics, seed=seed)
            else:
                n = random_network(args.leaves, args.retics, seed=seed)
            lines.append(write_enewick(n))
    return "".join(line + "\n" for line in lines)


def _cmd_enumerate(args):
    with _generator_sizes():
        nets = enumerate_tree_child(args.leaves, args.retics)
        return "".join(write_enewick(n) + "\n" for n in nets)


def _cmd_normalize_seq(args):
    return moves_to_json(normalize_sequence(_read(args.file, moves_from_json))) + "\n"


def _cmd_gap_search(args):
    with _generator_sizes():
        hit = gap_witness_search(args.leaves, args.retics, args.budget, seed=args.seed)
    if hit is None:
        _log("budget exhausted without a witness")
        return ""
    n, m, rep = hit
    return "%s\n%s\n%s\t%d\t%d\t%s\n" % (
        write_enewick(n), write_enewick(m),
        _fraction_token(rep.half_m), rep.d, rep.m, _bool_token(rep.holds))


# ------------------------------------------------------------------ parser


def _count(text):
    """An option value that counts something: an int of at least zero."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text) from None
    if value < 0:
        raise argparse.ArgumentTypeError("must not be negative: %r" % text)
    return value


# Every option once: flag -> add_argument keywords. Each subcommand takes only
# the options its handler reads, plus --out.
_OPTIONS = {
    "--format": dict(choices=("enewick", "pnd"), default="enewick",
                     help="input file format"),
    "--cap": dict(type=int, help="reticulation ceiling for distance searches"),
    "--tree-child-only": dict(action=argparse.BooleanOptionalAction, default=True,
                              help="stay inside tree-child space"),
    "--budget": dict(type=_count),
    "--leaves": dict(type=int, required=True),
    "--retics": dict(type=int, default=0),
    "--count": dict(type=_count, default=1),
    "--seed": dict(type=int, default=0, help="seed for any randomized behavior"),
    "--out": dict(metavar="PATH", help="write output to PATH instead of stdout"),
}


def _build_parser():
    top = argparse.ArgumentParser(
        prog="snprlab",
        description="tree-child networks, shared digraphs, and rearrangement distances")
    sub = top.add_subparsers(dest="subcommand", required=True)

    def add(name, handler, help_text, files, *flags, **own):
        """own updates the _OPTIONS keywords of a flag, keyed by its name."""
        p = sub.add_parser(name, help=help_text)
        for f in files:
            p.add_argument(f)
        for flag in flags + ("--out",):
            p.add_argument(flag, **{**_OPTIONS[flag], **own.get(flag[2:], {})})
        p.set_defaults(handler=handler)

    one, two = ("file",), ("file", "other")
    add("validate", _cmd_validate, "parse one network and print its counts", one,
        "--format")
    add("tree-child", _cmd_tree_child, "report the tree-child property", one, "--format")
    add("iso", _cmd_iso, "test two networks for isomorphism", two, "--format")
    add("neighbors", _cmd_neighbors, "list all one-move successors", one,
        "--format", "--tree-child-only", "--budget",
        budget=dict(help="print at most this many successors; exits with "
                         "status 2 when more remain"))
    add("distance", _cmd_distance, "exact rearrangement distance with witness", two,
        "--format", "--cap", "--tree-child-only", "--budget",
        budget=dict(help="cap on search expansions; exhaustion exits with status 2"))
    add("mtc", _cmd_mtc, "shared-digraph measure with witness bundle", two,
        "--format", "--budget",
        budget=dict(help="cap on candidate digraphs built, one per edge subset "
                         "read, isomorphic repeats included; subsets the cut "
                         "bound or the split test skips are not counted: "
                         "its splits, or its forced chains (from leaves and "
                         "forced images, climbing to the root below rho or "
                         "a reticulation) giving a vertex two owners; "
                         "exhaustion exits with status 2"))
    add("bounds", _cmd_bounds, "half-measure, distance, measure as TSV", two,
        "--format", "--cap")
    add("maf", _cmd_maf, "agreement-forest distance for trees", two,
        "--format", "--budget",
        budget=dict(help="cap on branch nodes of the cherry search, every "
                         "tree state it reduces counting one; exhaustion "
                         "exits with status 2"))
    add("gen", _cmd_gen, "generate random networks, one per line", (),
        "--leaves", "--retics", "--count", "--seed", "--tree-child-only")
    add("enumerate", _cmd_enumerate, "list all networks at a small size", (),
        "--leaves", "--retics")
    add("normalize-seq", _cmd_normalize_seq, "reorder a move sequence into normal form",
        one)
    add("gap-search", _cmd_gap_search, "hunt for a pair whose distance beats the lower bound",
        (), "--leaves", "--retics", "--seed", "--budget", retics=dict(default=1),
        budget=dict(default=200, help="candidate pairs to examine (default 200), "
                                      "a drawn network with none counting as one; "
                                      "prints nothing when they run out"))
    return top


def _write(output, fh):
    """Write a handler's output, a string or an iterator of strings made
    as they are written; returns the exit status. A budget that runs out
    while the iterator writes keeps what was written."""
    if isinstance(output, str):
        fh.write(output)
        return EXIT_OK
    try:
        for chunk in output:
            fh.write(chunk)
    except BudgetExceededError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        output = args.handler(args)
    except BudgetExceededError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_BUDGET
    except SnprLabError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INVALID
    if not args.out:
        return _write(output, sys.stdout)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            return _write(output, fh)
    except OSError as exc:
        print("error: %s: %s" % (args.out, exc.strerror or exc), file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
