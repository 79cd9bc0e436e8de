"""Regenerate bench/expected.json, the benchmark's input pools and answers.

    python3 bench/make_expected.py

Each pool entry is a network pair drawn once from a seeded generator, with
the answers the current library gives for it: the distance d, the measure
m, the forest count for tree pairs, and the command-line outcome where the
cli workload uses the pair. The benchmark draws a fixed panel from these
pools and renames its leaves with each run's seed, which changes no answer,
so every answer it computes has a stored value to match. Regenerating is
only needed when the pools themselves change; it takes about seven
minutes on two cores.
"""

import json
import os
import random
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import api  # noqa: E402

# (leaves, reticulations, hops of the seeded walk that makes the target)
DISTANCE_STRATA = [(4, 0, 1), (4, 1, 1), (4, 2, 1), (5, 0, 1), (5, 1, 1),
                   (5, 2, 1)]
# (leaves, reticulations, hops); hops 0 means an independent second tree
MEASURE_STRATA = [(4, 0, 0), (5, 0, 0), (6, 0, 0), (4, 1, 1), (5, 1, 1)]
PER_STRATUM = 30
# the pair the project's roadmap quotes: distance 4, bidirectional search
BASELINE = (5, 1, 1, 2)
# a 6-leaf host with 14 edges: 16,384 edge subsets read per measure
MEASURE_ANCHOR = (6, 1, 1)


def walk(n, rng, hops):
    m = n
    for _ in range(hops):
        m = rng.choice(api.moves(m))[1]
    return m


def cli_outcome(argv):
    """Exit status, first output line and seconds of one in-process command."""
    fd, path = tempfile.mkstemp(suffix=".txt")
    os.close(fd)
    try:
        t = time.perf_counter()
        code = api.cli_main(argv + ["--out", path])
        elapsed = time.perf_counter() - t
        with open(path, encoding="utf-8") as fh:
            first = fh.readline().rstrip("\n")
    finally:
        os.remove(path)
    return {"exit": code, "first": first if code == api.EXIT_OK else None,
            "s": round(elapsed, 4)}


def answer(n, m, need_distance=True):
    t = time.perf_counter()
    value, _ = api.measure(n, m)
    t_m = time.perf_counter() - t
    rec = {"n": api.write(n), "m": api.write(m), "mtc": value,
           "mtc_s": round(t_m, 4)}
    if api.is_tree(n) and api.is_tree(m):
        rec["forest"] = api.forest(n, m)
    if need_distance:
        t = time.perf_counter()
        d, _ = api.distance(n, m, api.new_cache(), witness=True)
        rec["d"] = d
        rec["dtc_s"] = round(time.perf_counter() - t, 4)
    else:
        rec["d"] = 2 * rec["forest"]
    assert value / 2 <= rec["d"] <= value, rec
    return rec


def with_files(rec, fn):
    with tempfile.TemporaryDirectory() as tmp:
        a, b = os.path.join(tmp, "a.nwk"), os.path.join(tmp, "b.nwk")
        for path, text in ((a, rec["n"]), (b, rec["m"])):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        return fn(a, b)


def distance_pool():
    pool = []
    for leaves, retics, hops in DISTANCE_STRATA:
        for i in range(PER_STRATUM):
            seed = 10000 * leaves + 1000 * retics + 100 * hops + i
            n = api.generate(leaves, retics, seed)
            m = walk(n, random.Random(seed), hops)
            rec = answer(n, m)
            if rec["d"] == 0:
                continue
            rec.update(stratum="%d-%d-h%d" % (leaves, retics, hops), seed=seed)
            if leaves == 4 and rec["d"] <= 2 and (retics == 0 or rec["d"] == 1):
                rec["cli_distance"] = with_files(
                    rec, lambda a, b: cli_outcome(["distance", a, b]))
            if leaves == 4 and retics <= 1 and hops == 1:
                rec["neighbors"] = len(api.moves(n))
            pool.append(rec)
            print(rec["stratum"], rec["d"], rec["mtc"], rec["dtc_s"],
                  rec["mtc_s"], flush=True)
    return pool


def measure_pool():
    pool = []
    for leaves, retics, hops in MEASURE_STRATA:
        for i in range(PER_STRATUM):
            seed = 20000 + 10000 * leaves + 1000 * retics + 100 * hops + i
            n = api.generate(leaves, retics, seed)
            if hops:
                m = walk(n, random.Random(seed), hops)
            else:
                m = api.generate(leaves, retics, seed + 50)
            rec = answer(n, m, need_distance=bool(retics))
            rec.update(stratum="%d-%d-h%d" % (leaves, retics, hops), seed=seed)
            if (leaves, retics) in ((4, 0), (4, 1), (5, 0), (6, 0)):
                rec["cli_mtc"] = with_files(
                    rec, lambda a, b: cli_outcome(["mtc", a, b]))
            pool.append(rec)
            print(rec["stratum"], rec["d"], rec["mtc"], rec["mtc_s"],
                  rec.get("cli_mtc"), flush=True)
    return pool


def sweep_forests():
    trees = api.all_trees(4)
    return {api.tree_key(a) + "|" + api.tree_key(b): api.forest(a, b)
            for a in trees for b in trees}


def main():
    leaves, retics, s1, s2 = BASELINE
    base = answer(api.generate(leaves, retics, s1),
                  api.generate(leaves, retics, s2))
    print("baseline", base, flush=True)
    leaves, retics, seed = MEASURE_ANCHOR
    n = api.generate(leaves, retics, seed)
    anchor = answer(n, walk(n, random.Random(seed), 1))
    print("anchor", anchor, flush=True)
    doc = {
        "about": "generated by bench/make_expected.py; see bench/README.md",
        "distance": {"baseline": base, "pool": distance_pool()},
        "measure": {"anchor": anchor, "pool": measure_pool()},
        "sweep": {"forest": sweep_forests()},
    }
    with open(os.path.join(HERE, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
