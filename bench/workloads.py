"""The four workloads: seeded inputs, one verdict at a time, oracle checks.

A verdict is one pair's answer or one command-line run. Each workload
hands run.py one round: a list of items that is always timed whole. The
items of distance, measure and cli form a fixed panel, drawn once from
the pools in expected.json in blocks of 20 of fixed composition. The
run's seed orders the panel and renames the leaves of every pair, which
changes neither an answer nor the work behind it, so the seed changes
the inputs but not the cost of a run. A round of sweep is two passes
over its 225 pairs, each in its own seeded order, through one fresh
cache. Answers are checked only after the timed loop has ended.
"""

import os
import random
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import api
import pace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PANEL_SEED = 0    # draws the panel, the same in every run
LEAF = re.compile(r"(?<=[(,])([^(),;#:\s]+)(?=[),;:])")


class Outcome:
    """How one verdict ended: an answer, a documented defect, or a failure."""

    __slots__ = ("ok", "defect", "reason")

    def __init__(self, ok=True, defect=None, reason=None):
        self.ok = ok
        self.defect = defect
        self.reason = reason


OK = Outcome()


def fail(reason):
    return Outcome(ok=False, reason=reason)


def draw_blocks(rng, pools, composition, blocks):
    """Seeded blocks of fixed composition; within a stratum, an entry
    repeats only after every entry of that stratum has been drawn."""
    bags = {name: [] for name, _ in composition}
    out = []
    for _ in range(blocks):
        block = []
        for name, count in composition:
            for _ in range(count):
                if not bags[name]:
                    bags[name] = list(pools[name])
                    rng.shuffle(bags[name])
                block.append(bags[name].pop())
        rng.shuffle(block)
        out.append(block)
    return out


def renamer(text, rng):
    """A seeded renaming of the leaves named in an eNewick text, returned
    as a function from eNewick text to eNewick text."""
    names = sorted(set(LEAF.findall(text)))
    mapping = dict(zip(names, rng.sample(names, len(names))))
    return lambda t: LEAF.sub(lambda mo: mapping[mo.group(1)], t)


def renamed(e, rng):
    """A pool entry with the leaves of both networks renamed alike."""
    rename = renamer(e["n"] + e["m"], rng)
    return dict(e, n=rename(e["n"]), m=rename(e["m"]))


def by_stratum(entries, key=lambda e: e["stratum"], keep=lambda e: True):
    pools = {}
    for e in entries:
        if keep(e):
            pools.setdefault(key(e), []).append(e)
    return pools


def check_sandwich(d, m):
    if not m / 2 <= d <= m:
        return fail("sandwich m/2 <= d <= m broken: d=%d m=%d" % (d, m))
    return OK


def check_witness(n, m, d, seq, cap):
    """Replay a distance witness move by move; it must have weight d and
    end at a network isomorphic to m by an explicit vertex map."""
    current = n
    weight = 0
    for mv in api.sequence_moves(seq):
        current = api.apply(current, mv)
        weight += api.move_weight(mv)
        if api.counts(current)[3] > cap:
            return fail("witness exceeds the reticulation cap")
    if weight != d:
        return fail("witness weight %d, reported %d" % (weight, d))
    if api.iso_map(current, m) is None:
        return fail("witness does not end at the target")
    return OK


def retic_cap(n, m):
    return max(api.counts(n)[3], api.counts(m)[3]) + 1


class Workload:
    """Shared shape: setup() returns the round, verdict() times one item,
    check() judges its result afterwards."""

    composition = smoke_composition = ()
    blocks = 5

    def __init__(self, expected, seed, smoke, tracer):
        self.expected = expected
        self.seed = seed
        self.smoke = smoke
        self.tracer = tracer

    def new_pace(self):
        """The reference operation that gives this workload its unit."""
        return pace.Pace()

    def _panel(self, pools):
        """The fixed panel: blocks of fixed composition from the pools."""
        comp, blocks = ((self.smoke_composition, 1) if self.smoke
                        else (self.composition, self.blocks))
        return [e for block in draw_blocks(random.Random(PANEL_SEED), pools,
                                           comp, blocks) for e in block]

    def _pairs(self, entries):
        """The entries in this run's order, renamed and parsed."""
        rng = random.Random(self.seed)
        rng.shuffle(entries)
        pairs = [renamed(e, rng) for e in entries]
        return [(e, api.parse(e["n"]), api.parse(e["m"])) for e in pairs]

    def start_round(self):
        pass

    def finish(self):
        pass


# --------------------------------------------------------------- distance


class Distance(Workload):
    """dtc with a witness and a fresh NeighborCache per pair.

    Strata are leaves-reticulations-hops of the seeded walk, split by the
    distance the walk reached: search time depends mostly on the distance,
    so a fixed mix of distances fixes the shape of the time distribution.
    The roadmap's baseline pair (5 leaves, 1 reticulation, distance 4)
    opens every round.
    """

    composition = [("4-0-h1-d1", 2), ("4-0-h1-d2", 3), ("4-1-h1-d1", 2),
                   ("4-1-h1-d2", 3), ("5-0-h1-d1", 2), ("5-0-h1-d2", 3),
                   ("4-2-h1-d2", 2), ("5-1-h1-d2", 2), ("5-2-h1-d2", 1)]
    smoke_composition = [("4-0-h1-d1", 1), ("4-0-h1-d2", 1), ("4-1-h1-d1", 1)]

    def setup(self):
        pools = by_stratum(self.expected["distance"]["pool"],
                           key=lambda e: "%s-d%d" % (e["stratum"], e["d"]))
        pairs = self._pairs(self._panel(pools))
        if not self.smoke:
            # first in every round: its search grows the heap that the
            # other verdicts then reuse, wherever the seed would put it
            pairs[:0] = self._pairs([self.expected["distance"]["baseline"]])
        return pairs

    def verdict(self, item):
        _, n, m = item
        cache = api.new_cache()
        d, seq = api.distance(n, m, cache)
        if self.tracer:
            self.tracer.counts["snpr.signatures"] += api.cache_size(cache)
        return d, seq

    def check(self, item, result):
        e, n, m = item
        d, seq = result
        if d != e["d"]:
            return fail("distance %d, expected %d" % (d, e["d"]))
        got = check_sandwich(d, e["mtc"])
        if not got.ok:
            return got
        if "forest" in e and d != 2 * api.forest(n, m):
            return fail("tree pair: d != 2 * forest")
        return check_witness(n, m, d, seq, retic_cap(n, m))


# ---------------------------------------------------------------- measure


class Measure(Workload):
    """mtc on hosts of 7 to 12 edges, and a 14-edge host opening every round.

    Time grows with 2^edges and hardly varies within a stratum.
    Isomorphic pairs stop at the first zero cut, so they are left out.
    """

    composition = [("4-0-h0", 6), ("5-0-h0", 6), ("4-1-h1", 4), ("6-0-h0", 3),
                   ("5-1-h1", 1)]
    smoke_composition = [("4-0-h0", 2), ("4-1-h1", 1)]

    def setup(self):
        pools = by_stratum(self.expected["measure"]["pool"],
                           keep=lambda e: e["d"] > 0)
        pairs = self._pairs(self._panel(pools))
        if not self.smoke:
            # first in every round, like the distance baseline pair
            pairs[:0] = self._pairs([self.expected["measure"]["anchor"]])
        return pairs

    def verdict(self, item):
        _, n, m = item
        return api.measure(n, m)

    def check(self, item, result):
        e, n, m = item
        value, witness = result
        if value != e["mtc"]:
            return fail("measure %d, expected %d" % (value, e["mtc"]))
        if api.witness_total(witness) != value:
            return fail("witness cuts do not add up to the measure")
        if api.is_tree(n) and api.is_tree(m) and value != 2 * api.forest(n, m):
            return fail("tree pair: m != 2 * forest")
        return check_sandwich(e["d"], value)


# ------------------------------------------------------------------ sweep


class Sweep(Workload):
    """All ordered pairs of 4-leaf trees through one shared NeighborCache.

    Each verdict runs maf_rspr, mtc and dtc on one pair. A round is two
    passes over the 225 pairs, each in its own seeded order, through one
    fresh cache: the first pass fills it, the second runs on hits only.
    Renaming leaves would only permute the 225 pairs, so the seed orders.
    """

    cache = None

    def setup(self):
        trees = api.all_trees(4)
        rng = random.Random(self.seed)
        batch = []
        for _ in range(2):
            pairs = [(a, b) for a in trees for b in trees]
            rng.shuffle(pairs)
            batch.extend(pairs[:3] if self.smoke else pairs)
        return batch

    def start_round(self):
        self.finish()
        self.cache = api.new_cache()

    def verdict(self, item):
        a, b = item
        f = api.forest(a, b)
        m, _ = api.measure(a, b)
        d, _ = api.distance(a, b, self.cache, witness=False)
        return f, m, d

    def finish(self):
        if self.tracer and self.cache is not None:
            self.tracer.counts["snpr.signatures"] += api.cache_size(self.cache)
        self.cache = None

    def check(self, item, result):
        a, b = item
        f, m, d = result
        want = self.expected["sweep"]["forest"][api.tree_key(a) + "|"
                                                + api.tree_key(b)]
        if f != want:
            return fail("forest %d, expected %d" % (f, want))
        if not d == 2 * f == m:
            return fail("tree pair: d=%d, 2f=%d, m=%d differ" % (d, 2 * f, m))
        return OK


# -------------------------------------------------------------------- cli


def budget_defect(result, message):
    """The documented defect: the --budget default of 200, shared by every
    subcommand, stops the command with exit 2 though no budget was given."""
    code, _, err = result
    if code == api.EXIT_BUDGET and message in err:
        return Outcome(defect="exit 2 under the default --budget 200: %s"
                       % err.strip())
    return None


class Cli(Workload):
    """Command-line runs, one at a time, typed as a user would type them.

    Two 200-leaf networks, generated from fixed seeds at every set-up and
    renamed by the run's seed, feed validate, tree-child and iso;
    small pool pairs feed neighbors, distance, mtc and bounds. The mtc
    runs on 6-leaf trees stop under the default --budget; see README.md.
    Traced runs call snprlab.cli.main in-process instead of a subprocess.
    """

    # Per block the mtc budget exit (no answer, so slowest) and the two
    # distance runs (the default unidirectional search, over a second
    # each) are the slowest three; the 90th percentile of a panel of five
    # blocks is the middle of its ten distance runs.
    composition = [("validate", 2), ("tree-child", 2), ("iso-tree", 2),
                   ("iso-network", 1), ("iso-moved", 1), ("neighbors", 3),
                   ("distance", 2), ("mtc", 3), ("bounds", 3),
                   ("mtc-defect", 1)]
    smoke_composition = [("validate", 1), ("tree-child", 1), ("iso-tree", 1),
                         ("iso-moved", 1), ("neighbors", 1), ("distance", 1),
                         ("mtc", 1), ("bounds", 1)]
    large = [(200, 0), (200, 1)]
    smoke_large = [(20, 0), (10, 1)]

    def __init__(self, expected, seed, smoke, tracer, workdir):
        super().__init__(expected, seed, smoke, tracer)
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))

    def new_pace(self):
        return pace.StartupPace(self.workdir, self.env)

    def _file(self, name, text):
        with open(os.path.join(self.workdir, name), "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        return name

    def setup(self):
        rng = random.Random(self.seed)
        sizes = self.smoke_large if self.smoke else self.large
        nets = [api.generate(*size, i + 1) for i, size in enumerate(sizes)]
        texts = [api.write(net) for net in nets]
        # the first large network is a tree; one regraft changes its shape
        moved = api.write(self._moved(nets[0], random.Random(PANEL_SEED)))
        renames = [renamer(text, rng) for text in texts]
        large = []
        for i, (text, rename, size) in enumerate(zip(texts, renames, sizes)):
            text = rename(text)
            large.append((self._file("large%d.nwk" % i, text),
                          self._file("large%d-copy.nwk" % i, text), size))
        moved_file = self._file("large0-moved.nwk", renames[0](moved))

        dpool = self.expected["distance"]["pool"]
        mpool = self.expected["measure"]["pool"]
        cli_mtc = lambda e: e.get("cli_mtc", {}).get("exit")  # noqa: E731
        small = {
            # distance 2 in tree space: the default unidirectional search
            # settles a similar number of signatures on each such pair
            "distance": [e for e in dpool
                         if e["stratum"] == "4-0-h1" and e["d"] == 2],
            "neighbors": [e for e in dpool if "neighbors" in e],
            "bounds": [e for e in dpool if e["stratum"] in ("4-0-h1", "4-1-h1")],
            "mtc": [e for e in mpool if cli_mtc(e) == api.EXIT_OK],
            "mtc-defect": [e for e in mpool if cli_mtc(e) == api.EXIT_BUDGET],
        }
        pools = {name: [(name, e) for e in entries]
                 for name, entries in small.items()}
        pools["validate"] = [("validate", f, size) for f, _, size in large]
        pools["tree-child"] = [("tree-child", f, size) for f, _, size in large]
        pools["iso-tree"] = [("iso", large[0][0], large[0][1], True)]
        pools["iso-network"] = [("iso", large[1][0], large[1][1], True)]
        pools["iso-moved"] = [("iso", large[0][0], moved_file, False)]

        items = self._panel(pools)
        rng.shuffle(items)
        for i, item in enumerate(items):
            if isinstance(item[1], dict):
                name, e = item
                e = renamed(e, rng)
                a = self._file("p%d-a.nwk" % i, e["n"])
                b = self._file("p%d-b.nwk" % i, e["m"])
                items[i] = (("neighbors", a, e) if name == "neighbors" else
                            ("mtc" if name == "mtc-defect" else name, a, b, e))
        return items

    @staticmethod
    def _moved(tree, rng):
        """The tree after one prune-regraft move that changes its shape."""
        key = api.tree_key(tree)
        edges = sorted(tree.edges)
        for _ in range(1000):
            try:
                moved = api.apply(tree, api.pm_move(rng.choice(edges),
                                                    rng.choice(edges)))
            except api.SnprLabError:  # an illegal regraft; draw again
                continue
            if api.tree_key(moved) != key:
                return moved
        raise RuntimeError("no shape-changing move found")

    @staticmethod
    def argv(item):
        if item[0] in ("validate", "tree-child", "neighbors"):
            return [item[0], item[1]]
        return [item[0], item[1], item[2]]

    def verdict(self, item):
        argv = self.argv(item)
        if self.tracer:
            out, err = StringIO(), StringIO()
            cwd = os.getcwd()
            os.chdir(self.workdir)
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    code = api.cli_main(argv)
            finally:
                os.chdir(cwd)
            return code, out.getvalue(), err.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", api.CLI_MODULE] + argv, cwd=self.workdir,
            env=self.env, capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def startup_s(self, repeats=5):
        """Median wall time of one trivial command run as a subprocess."""
        name = self._file("startup.nwk", "((a,b),c);")
        times = []
        for _ in range(repeats):
            t = time.perf_counter()
            subprocess.run([sys.executable, "-m", api.CLI_MODULE, "validate",
                            name], cwd=self.workdir, env=self.env,
                           capture_output=True, timeout=60, check=True)
            times.append(time.perf_counter() - t)
        return sorted(times)[repeats // 2]

    def check(self, item, result):
        code, out, err = result
        cmd = item[0]
        if cmd in ("mtc", "distance"):
            defect = budget_defect(result, "stopped after" if cmd == "mtc"
                                   else "expansion budget")
            if defect:
                return defect
        if code != api.EXIT_OK:
            return fail("exit %d: %s" % (code, err.strip()))
        lines = out.splitlines()
        if cmd == "validate":
            leaves, retics = item[2]
            want = ["vertices\t%d" % (2 * leaves + 2 * retics),
                    "edges\t%d" % (2 * leaves - 1 + 3 * retics),
                    "leaves\t%d" % leaves, "reticulations\t%d" % retics]
            return OK if lines == want else fail("validate printed %r" % lines)
        if cmd == "tree-child":
            want = ["tree_child\ttrue", "stacks\t0", "sibling_reticulations\t0",
                    "parallel_pairs\t0"]
            return OK if lines == want else fail("tree-child printed %r" % lines)
        if cmd == "iso":
            want = ["true" if item[3] else "false"]
            return OK if lines == want else fail("iso printed %r" % lines)
        e = item[-1]
        if cmd == "neighbors":
            if len(lines) != e["neighbors"]:
                return fail("%d neighbours, expected %d"
                            % (len(lines), e["neighbors"]))
            if any(len(line.split("\t")) != 4 for line in lines):
                return fail("malformed neighbours line")
            return OK
        if cmd == "mtc":
            if lines[:1] != [str(e["mtc"])]:
                return fail("mtc printed %r, expected %d" % (lines[:1], e["mtc"]))
            return OK
        if cmd == "bounds":
            half = e["mtc"] / 2
            half = "%d" % half if half == int(half) else "%g" % half
            want = ["%s\t%d\t%d\ttrue" % (half, e["d"], e["mtc"])]
            return OK if lines == want else fail("bounds printed %r" % lines)
        # distance: the weight, then the witness as replayable move JSON
        if lines[:1] != [str(e["d"])]:
            return fail("distance printed %r, expected %d" % (lines[:1], e["d"]))
        seq = api.moves_from_json(out.split("\n", 1)[1])
        n, m = api.parse(e["n"]), api.parse(e["m"])
        if api.iso_map(seq.start, n) is None:
            return fail("witness does not start at the source")
        return check_witness(seq.start, m, e["d"], seq, retic_cap(n, m))
