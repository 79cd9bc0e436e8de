"""The machine's pace, sampled through a run with a fixed reference operation.

A shared host changes pace from minute to minute: the same snprlab call
can take 1.7 times as long a minute later, so seconds measured in one run
do not compare with seconds measured in the next. The timed loop therefore
runs a reference operation between verdicts, at most once every `every_s`
seconds, and the end-to-end timings are reported in units of its median
time in the same run ("ref"). The operation does the kind of work the
workload's verdicts do, so it slows down when they do, but it calls
nothing of snprlab: a change to the library moves the verdicts, not the
unit.
"""

import gc
import math
import random
import statistics
import subprocess
import sys
from time import perf_counter

WARMUP = 5         # samples taken and dropped before the timed loop


class Pace:
    """For verdicts that run in-process: dict, list, tuple and frozenset
    building, sorting and hashing on a small graph, as snprlab's own code
    does on networks."""

    every_s = 0.1

    def __init__(self):
        rng = random.Random(0)
        self.graph = {v: rng.sample(range(80), 4) for v in range(80)}
        self.samples = []
        self.total_s = 0.0
        self._last = -math.inf
        for _ in range(WARMUP):
            self._time()

    def reference(self):
        """Breadth-first search from every other vertex of a fixed random
        graph, keeping each distance table as a sorted tuple and a set."""
        g = self.graph
        out = []
        for src in range(0, len(g), 2):
            seen = {src: 0}
            queue = [src]
            for v in queue:
                for w in g[v]:
                    if w not in seen:
                        seen[w] = seen[v] + 1
                        queue.append(w)
            out.append(tuple(sorted((d, v) for v, d in seen.items())))
            out.append(frozenset(seen.items()))
        return hash(tuple(out))

    def _time(self):
        # the collector stays off so that a collection of the library's
        # heap is never charged to the unit
        gc.disable()
        try:
            t = perf_counter()
            self.reference()
            return perf_counter() - t
        finally:
            gc.enable()

    def tick(self):
        """Sample the pace if every_s has passed since the last sample."""
        if perf_counter() - self._last < self.every_s:
            return
        t = perf_counter()
        self.samples.append(self._time())
        self._last = perf_counter()
        self.total_s += self._last - t

    def ref_s(self):
        """The unit: the median time of the reference operation."""
        return statistics.median(self.samples)


class StartupPace(Pace):
    """For command-line verdicts, whose time is mostly process start-up:
    the start and exit of a bare python3 that imports nothing of snprlab."""

    every_s = 0.5

    def __init__(self, cwd, env):
        self.cwd = cwd
        self.env = env
        super().__init__()

    def reference(self):
        subprocess.run([sys.executable, "-c", "pass"], cwd=self.cwd,
                       env=self.env, capture_output=True, timeout=60,
                       check=True)
