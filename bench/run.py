"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload distance --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
./src. Workloads: distance, measure, sweep, cli (see README.md). With
--trace 0 the last line carries the end-to-end metrics, their timings in
units of a reference operation timed through the same run (pace.py);
with --trace 1 it carries the per-layer metrics of a run with every
layer wrapped. --smoke runs each item of a tiny version of the workload
once.

Exit status: 0 when every verdict checked out, 1 when any did not,
2 when the library could not be loaded from ./src.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
MIN_VERDICTS = 100   # so that at least ten verdicts lie beyond the p90
SETUP_REPEATS = 3    # set-up runs this often; its median is reported
CLI_COMMANDS = ("validate", "tree-child", "iso", "neighbors", "distance",
                "mtc", "bounds")


def load_library():
    """Import the benchmark modules, insisting that snprlab comes from ./src."""
    sys.path[:0] = [SRC, HERE]
    try:
        import api
    except ImportError as exc:
        problem = "cannot import snprlab from %s: %s" % (SRC, exc)
    else:
        where = os.path.realpath(api.snprlab.__file__)
        if where.startswith(os.path.realpath(SRC) + os.sep):
            import spans
            import workloads
            return api, spans, workloads
        problem = "snprlab was imported from %s, not from %s" % (where, SRC)
    print("bench: " + problem, file=sys.stderr)
    sys.exit(2)


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def src_lines():
    total = 0
    for dirpath, _, names in os.walk(os.path.join(SRC, "snprlab")):
        for name in names:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def time_rounds(wl, batch, seconds, floor, pace):
    """Time whole rounds of the batch: at least one and `floor` verdicts,
    then more while the next round is expected to end within `seconds`.
    The pace is sampled between verdicts; the wall time returned leaves
    those samples out."""
    results = []
    start = perf_counter()
    rounds = 0
    while True:
        wl.start_round()
        for item in batch:
            t = perf_counter()
            try:
                res, err = wl.verdict(item), None
            except Exception as exc:  # a failed verdict, judged below
                res, err = None, "%s: %s" % (type(exc).__name__, exc)
            results.append((item, res, err, perf_counter() - t))
            pace.tick()
        rounds += 1
        elapsed = perf_counter() - start
        if len(results) >= floor and elapsed * (rounds + 1) / rounds > seconds:
            break
    wl.finish()
    return results, perf_counter() - start - pace.total_s


def judge(wl, fail, results):
    outcomes = []
    for item, res, err, _ in results:
        if err is not None:
            outcomes.append(fail(err))
            continue
        try:
            outcomes.append(wl.check(item, res))
        except Exception as exc:  # a check that cannot even run fails
            outcomes.append(fail("check raised %s: %s"
                                 % (type(exc).__name__, exc)))
    return outcomes


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("distance", "measure", "sweep", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, each verdict once, for the tests")
    args = p.parse_args(argv)

    api, spans, workloads = load_library()
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    import_s = perf_counter() - T_START

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=args.workload + "-", dir=WORK)
    try:
        tracer = spans.Tracer() if args.trace else None
        if tracer:
            tracer.install()
        cls = {"distance": workloads.Distance, "measure": workloads.Measure,
               "sweep": workloads.Sweep, "cli": workloads.Cli}[args.workload]
        extra = (workdir,) if cls is workloads.Cli else ()
        wl = cls(expected, args.seed, args.smoke, tracer, *extra)

        if tracer:
            tracer.enabled = True
        setups = []
        for _ in range(1 if args.smoke else SETUP_REPEATS):
            t = perf_counter()
            batch = wl.setup()
            setups.append(perf_counter() - t)
        setup_s = import_s + statistics.median(setups)
        if tracer:
            by = tracer.summary()[0]
            rtc = by.get("netcore.random_tree_child")
            random_tree_child_s = rtc["self_s"] / len(setups) if rtc else 0.0
            tracer.reset()

        floor = len(batch) if args.smoke else MIN_VERDICTS
        ref = wl.new_pace()
        results, wall = time_rounds(wl, batch, args.seconds, floor, ref)
        ref_s = ref.ref_s()
        if tracer:
            tracer.enabled = False
        outcomes = judge(wl, workloads.fail, results)

        answered = sum(o.ok and o.defect is None for o in outcomes)
        failed = sum(not o.ok for o in outcomes)
        # a verdict without an answer misses every latency limit
        times = sorted(dt if o.ok and o.defect is None else math.inf
                       for (_, _, _, dt), o in zip(results, outcomes))
        p50, p90 = percentile(times, 0.5), percentile(times, 0.9)
        for (item, _, _, _), o in zip(results, outcomes):
            if o.defect:
                print("known defect: snprlab %s: %s"
                      % (" ".join(wl.argv(item)), o.defect))
            elif not o.ok:
                print("FAILED: %s" % o.reason)
        if math.isinf(p90):
            print("bench: more than a tenth of the verdicts have no answer",
                  file=sys.stderr)
            return 1
        print("bench: %d verdicts in %.2f s: p50 %.4f s, p90 %.4f s; unit "
              "ref %.6f s, the median of %d pace samples"
              % (len(results), wall, p50, p90, ref_s, len(ref.samples)),
              file=sys.stderr)

        if tracer:
            metrics = per_layer(args, spans, workloads, tracer, results, wall,
                                p50, answered, random_tree_child_s, workdir,
                                ref_s)
        else:
            who = resource.RUSAGE_CHILDREN if cls is workloads.Cli \
                else resource.RUSAGE_SELF
            metrics = {
                "verdict_p50_ref": (p50 / ref_s, "ref"),
                "verdict_p90_ref": (p90 / ref_s, "ref"),
                "verdicts_per_ref": (answered * ref_s / wall, "1/ref"),
                "answered_frac": (answered / len(results), "ratio"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0,
                                "MB"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def per_layer(args, spans, workloads, tracer, results, wall, p50, answered,
              random_tree_child_s, workdir, ref_s):
    values = spans.layer_metrics(tracer, sum(r[3] for r in results))
    tracer.write(os.path.join(WORK, "spans-%s" % args.workload))
    values["netcore.random_tree_child.self_s"] = random_tree_child_s
    values["cli.startup_s"] = workloads.Cli(None, 0, True, None,
                                            workdir).startup_s()
    by_cmd = {}
    if args.workload == "cli":
        for item, _, _, dt in results:
            by_cmd.setdefault(item[0], []).append(dt)
    for cmd in CLI_COMMANDS:
        dts = by_cmd.get(cmd)
        values["cli.%s.p50_s" % cmd] = statistics.median(dts) if dts else 0.0
    values["trace.verdict_p50_ref"] = p50 / ref_s
    values["trace.verdicts_per_ref"] = answered * ref_s / wall
    values["pace.ref_us"] = ref_s * 1e6
    values["src.lines"] = src_lines()
    return {name: (value, spans.unit(name)) for name, value in values.items()}


if __name__ == "__main__":
    sys.exit(main())
