"""Spans around snprlab's public functions, recorded from outside src/.

A Tracer replaces each function listed in api.TRACED by a wrapper, under
every name an snprlab module binds it to, because that is where the calling
module looks it up. Each wrapped call records a span: a name, a start, an
end and the span that was open when it began. Spans stay in memory, in flat
arrays, and are written out once at the end. A span's self time is its
duration minus the time its child spans cover.

A generator (enumerate_moves) records one span per resumption, so the work
its consumer does between two items is not charged to it.
"""

import json
import os
import statistics
import sys
from array import array
from collections import Counter
from time import perf_counter

import api


def _layer(name):
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.names = []
        self.ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.calls = Counter()
        self.counts = Counter()
        self.enabled = False
        self._stack = [-1]
        self._patched = []

    # -- recording

    def _id(self, name):
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def _open(self, nid):
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, on_result=None):
        nid = self._id(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer.calls[nid] += 1
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_generator(self, name, fn):
        nid = self._id(name)
        tracer = self

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if not tracer.enabled:
                yield from gen
                return
            tracer.calls[nid] += 1
            try:
                while True:
                    idx = tracer._open(nid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(idx)
                    tracer.counts[name + ".yielded"] += 1
                    yield item
            finally:
                gen.close()

        wrapper.__wrapped__ = fn
        return wrapper

    def reset(self):
        """Forget every span and count; the wrappers stay installed."""
        for arr in (self.name, self.parent, self.start, self.end):
            del arr[:]
        self.calls.clear()
        self.counts.clear()

    # -- installing

    def _replace(self, original, replacement):
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "snprlab"
                                   or modname.startswith("snprlab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._patched.append((mod, attr, original))

    def install(self):
        """Wrap every function in api.TRACED, and the neighbour cache."""
        hooks = {
            "agreement.candidate_from_edges": self._count_result(
                "agreement.candidate_from_edges.valid"),
            "embed.find_embedding": self._count_result(
                "embed.find_embedding.found"),
        }
        for name, modname, attr in api.TRACED:
            original = getattr(sys.modules.get(modname), attr, None)
            if original is None:
                print("trace: %s.%s not found, not traced" % (modname, attr),
                      file=sys.stderr)
                continue
            if name in api.GENERATORS:
                wrapper = self.wrap_generator(name, original)
            else:
                wrapper = self.wrap(name, original, hooks.get(name))
            self._replace(original, wrapper)
        modname, attr = api.CACHE_CLASS
        base = getattr(sys.modules[modname], attr)
        succ = self.wrap("snpr.successors", base.successors)

        class TracedCache(base):
            def successors(self, sig, tree_child_only=True):
                return succ(self, sig, tree_child_only)

        self._replace(base, TracedCache)

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    def _count_result(self, key):
        def hook(result):
            self.counts[key] += result is not None
        return hook

    # -- reading

    def self_times(self):
        """Duration and self time of every span, as two arrays."""
        n = len(self.name)
        dur = array("d", (self.end[i] - self.start[i] for i in range(n)))
        own = array("d", dur)
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                own[p] -= dur[i]
        return dur, own

    def summary(self):
        """Per-name records (calls, self and inclusive seconds, durations),
        span counts per (name, parent name), the seconds of witness replay
        (enumerate_moves directly under dtc) and the number of neighbour
        cache misses (successors calls that enumerated moves)."""
        dur, own = self.self_times()
        by = {name: {"calls": self.calls[nid], "self_s": 0.0, "total_s": 0.0,
                     "durations": []}
              for name, nid in self.ids.items()}
        under = Counter()
        replay_s = 0.0
        missed = set()
        for i in range(len(self.name)):
            name = self.names[self.name[i]]
            rec = by[name]
            rec["self_s"] += own[i]
            rec["durations"].append(dur[i])
            p = self.parent[i]
            pname = self.names[self.name[p]] if p >= 0 else None
            under[(name, pname)] += 1
            if pname != name:
                rec["total_s"] += dur[i]
            if name == "snpr.enumerate_moves":
                if pname == "snpr.dtc":
                    replay_s += dur[i]
                elif pname == "snpr.successors":
                    missed.add(p)
        return by, under, replay_s, len(missed)

    def write(self, path):
        """Spans as JSON header plus four packed arrays."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": len(self.name),
                       "arrays": ["name:i", "parent:i", "start:d", "end:d"]},
                      fh)
        with open(path + ".bin", "wb") as fh:
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)


def unit(name):
    """The unit of a per-layer metric, read from its name."""
    leaf = name.rsplit(".", 1)[-1]
    if leaf in ("calls", "expansions", "signatures", "candidates_distinct",
                "spans", "lines"):
        return "count"
    if leaf.endswith("_us"):
        return "us"
    if leaf == "verdicts_per_ref":
        return "1/ref"
    if leaf.endswith("_ref"):
        return "ref"
    if leaf == "share" or leaf.endswith("_ratio"):
        return "ratio"
    return "s"


def _median_us(durations):
    return statistics.median(durations) * 1e6 if durations else 0.0


def layer_metrics(tracer, verdict_total_s):
    """The per-layer metric values the traced run reports."""
    by, under, replay_s, misses = tracer.summary()
    c = tracer.counts

    def get(name, key):
        rec = by.get(name)
        return rec[key] if rec else 0

    def ratio(num, den):
        return num / den if den else 0.0

    def p50_us(name):
        rec = by.get(name)
        return _median_us(rec["durations"]) if rec else 0.0

    layers = Counter()
    for name, rec in by.items():
        layers[_layer(name)] += rec["self_s"]
    traced = sum(layers.values())
    out = {
        "netcore.canonical_signature.calls": get("netcore.canonical_signature", "calls"),
        "netcore.canonical_signature.self_s": get("netcore.canonical_signature", "self_s"),
        "netcore.canonical_signature.p50_us": p50_us("netcore.canonical_signature"),
        "netcore.is_tree_child.calls": get("netcore.is_tree_child", "calls"),
        "netcore.is_tree_child.self_s": (get("netcore.is_tree_child", "self_s")
                                         + get("netcore.tree_child_report", "self_s")),
        "netcore.isomorphic.self_s": (get("netcore.isomorphic", "self_s")
                                      + get("netcore.isomorphism_map", "self_s")),
        "netcore.random_tree_child.self_s": get("netcore.random_tree_child", "self_s"),
        "snpr.expansions": get("snpr.successors", "calls"),
        "snpr.enumerate_moves.calls": get("snpr.enumerate_moves", "calls"),
        "snpr.enumerate_moves.self_s": get("snpr.enumerate_moves", "self_s"),
        "snpr.apply_move.calls": get("snpr.apply_move", "calls"),
        "snpr.apply_move.self_s": get("snpr.apply_move", "self_s"),
        "snpr.apply_move.p50_us": p50_us("snpr.apply_move"),
        "snpr.successor_keep_ratio": ratio(c["snpr.enumerate_moves.yielded"],
                                           get("snpr.apply_move", "calls")),
        "snpr.replay_s": replay_s,
        "snpr.cache_hit_ratio": ratio(get("snpr.successors", "calls")
                                      - misses,
                                      get("snpr.successors", "calls")),
        "snpr.signatures": c["snpr.signatures"],
        "snpr.dtc.self_s": get("snpr.dtc", "self_s") + get("snpr.successors", "self_s"),
        "agreement.candidate_from_edges.calls": get("agreement.candidate_from_edges", "calls"),
        "agreement.candidate_from_edges.self_s": get("agreement.candidate_from_edges", "self_s"),
        "agreement.candidate_from_edges.p50_us": p50_us("agreement.candidate_from_edges"),
        "agreement.candidate_from_edges.share": ratio(
            get("agreement.candidate_from_edges", "total_s"), verdict_total_s),
        "agreement.candidate_valid_ratio": ratio(
            c["agreement.candidate_from_edges.valid"],
            get("agreement.candidate_from_edges", "calls")),
        "agreement.candidates_distinct": under[("digraphcore.is_tree_child_digraph",
                                                "agreement.mtc")],
        "agreement.maf_rspr.self_s": get("agreement.maf_rspr", "self_s"),
        "agreement.mtc.self_s": get("agreement.mtc", "self_s"),
        "digraphcore.quotient_with_paths.self_s": get("digraphcore.quotient_with_paths", "self_s"),
        "digraphcore.component_violations.self_s": get("digraphcore.component_violations", "self_s"),
        "digraphcore.validate_digraph.self_s": get("digraphcore.validate_digraph", "self_s"),
        "digraphcore.digraph_signature.calls": get("digraphcore.digraph_signature", "calls"),
        "digraphcore.digraph_signature.self_s": get("digraphcore.digraph_signature", "self_s"),
        "embed.find_embedding.calls": get("embed.find_embedding", "calls"),
        "embed.find_embedding.self_s": get("embed.find_embedding", "self_s"),
        "embed.embedding_found_ratio": ratio(c["embed.find_embedding.found"],
                                             get("embed.find_embedding", "calls")),
        "embed.extend.calls": get("embed.extend", "calls"),
        "embed.extend.self_s": get("embed.extend", "self_s"),
        "embed.cut_size.self_s": get("embed.cut_size", "self_s"),
        "phyloio.parse_enewick.calls": get("phyloio.parse_enewick", "calls"),
        "phyloio.parse_enewick.self_s": get("phyloio.parse_enewick", "self_s"),
        "phyloio.write_enewick.self_s": get("phyloio.write_enewick", "self_s"),
        "phyloio.moves_to_json.self_s": get("phyloio.moves_to_json", "self_s"),
        "phyloio.write_witness_bundle.self_s": get("phyloio.write_witness_bundle", "self_s"),
        "trace.spans": len(tracer.name),
    }
    for layer in ("netcore", "snpr", "agreement", "digraphcore", "embed",
                  "phyloio", "cli"):
        out["layer.%s.share" % layer] = ratio(layers[layer], traced)
    return out
