"""Benchmark of the triplecover classifier, driven from outside the library.

One single-threaded process classifies the generated specs of one workload
in a closed loop (the next spec starts when the previous one returns), cycling
through them until every spec has run and a fixed number of seconds of calls
are timed.  It checks every answer exactly and prints the metrics.  Times are
scaled to a reference host speed measured between calls (see ``speed.py``).
Each spec counts once: it fails if any of its calls fails, and its time is the
median of its calls, so the counts and the mix of specs depend on the seed
alone.

    python3 bench/run.py --workload flag_smooth --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload torus_dense --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --smoke

Run it from the root of a source checkout; the library is imported from
``src``.  With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the first half of the specs run
untraced and then traced, and it holds the per-layer metrics.  ``--smoke``
runs one spec of every workload in both modes.
"""

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import types
from dataclasses import dataclass

import speed
import tracing
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
SETUP_REPEATS = 7

# Functions whose calls, self time and outermost total time are reported.
REPORTED = (
    "polyring.resultant", "polyring.gcd", "polyring.squarefree_decomposition",
    "polyring.repeated_part", "polyring.squarefree_part",
    "univar.interpolate", "univar.rational_roots",
    "polyparse.parse_poly", "polyparse.print_poly",
    "cover.branch_decomposition",
    "etamap.total_branch_locus", "etamap.is_smooth_cubic",
    "etamap.verify_discrim_lemma",
    "torus.check_conditions", "torus.total_branch_points",
    "classify.classify", "classify.cross_validate",
    "cli.run",
)


def load_library():
    """The library's modules by layer name (imports all of ``triplecover``)."""
    importlib.import_module("triplecover")
    return types.SimpleNamespace(**{
        layer: importlib.import_module("triplecover." + layer)
        for layer in tracing.LAYERS
    })


# ---------------------------------------------------------------------------
# Running specs


@dataclass
class Record:
    """One timed call.  ``problems`` lists every way the spec failed; ``wrong``
    marks a definite verdict that is wrong, as opposed to a refusal (an
    Indeterminate case, a could-not-check exit code or a raised exception)."""

    index: int
    seconds: float
    summary: object   # what traced and untraced runs must agree on
    problems: list
    wrong: bool = False
    scaled: float = 0.0   # seconds at the reference host speed


@dataclass
class SpecResult:
    """All calls of one spec: median scaled time and every problem seen."""

    seconds: float
    problems: list
    wrong: bool


def call(workload, tc, spec):
    """Time one call into the library; a raise is returned as the outcome."""
    start = time.perf_counter()
    try:
        outcome = workload.call(tc, spec)
    except Exception as exc:  # any raise is a failed spec, not a crash
        outcome = exc
    return time.perf_counter() - start, outcome


def judge(workload, tc, specs, index, seconds, outcome):
    """Check one answer, outside the timed call and outside any trace."""
    if isinstance(outcome, Exception):
        return Record(index, seconds, None,
                      ["raised %s: %s" % (type(outcome).__name__, outcome)])
    try:
        problems = workload.check(tc, specs[index], outcome)
        summary = workload.summary(outcome)
    except Exception as exc:  # a malformed answer fails its own check
        problems, summary = ["check raised %s: %s" % (type(exc).__name__, exc)], None
    wrong = bool(problems) and workload.definite(outcome)
    return Record(index, seconds, summary, problems, wrong)


def run_one(workload, tc, specs, index):
    return judge(workload, tc, specs, index, *call(workload, tc, specs[index]))


def run_traced(workload, tc, specs, indices, tracer):
    """Replay specs under the tracer, then check the answers with it removed.

    Returns the records and the number of bindings the tracer restored.
    """
    outcomes = []
    track = speed.Track()
    tracer.install()
    try:
        for index in indices:
            tracer.spec = index
            outcomes.append((index,) + call(workload, tc, specs[index]))
            tracer.fold()
            track.after_call()
    finally:
        restored = tracer.restore()
    track.finish()
    records = [judge(workload, tc, specs, *o) for o in outcomes]
    for record, factor in zip(records, track.factors()):
        record.scaled = record.seconds * factor
    return records, restored


def run_for(workload, tc, specs, budget):
    """Cycle through the specs until each has run once and ``budget``
    seconds of calls are timed; sets every record's scaled time."""
    records, timed = [], 0.0
    track = speed.Track()
    while len(records) < len(specs) or timed < budget:
        record = run_one(workload, tc, specs, len(records) % len(specs))
        track.after_call()
        records.append(record)
        timed += record.seconds
    track.finish()
    for record, factor in zip(records, track.factors()):
        record.scaled = record.seconds * factor
    return records, track


def spec_results(records):
    """One result per spec.  An answer that changes between calls of a spec
    (say, traced and untraced) is wrong."""
    calls = {}
    for r in records:
        calls.setdefault(r.index, []).append(r)
    results = {}
    for index, rs in sorted(calls.items()):
        problems = list(dict.fromkeys(p for r in rs for p in r.problems))
        wrong = any(r.wrong for r in rs)
        if any(r.summary != rs[0].summary for r in rs):
            problems.append("answer changed between calls")
            wrong = True
        results[index] = SpecResult(
            statistics.median(r.scaled for r in rs), problems, wrong)
    return results


def measure_setup(workload, seed):
    """Median scaled wall time of fresh interpreters that import and build
    inputs; the host speed is sliced just before and after each."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    times = []
    # The children inherit one CPU from this process, so the slices time the
    # CPU they run on; the host's CPUs can differ in load by a factor of 2.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        for _ in range(SETUP_REPEATS):
            before = speed.slice_seconds()
            start = time.perf_counter()
            # No timeout: with one, Popen polls the child with sleeps of up
            # to 50 ms, which would round the measurement to that step.
            subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
            elapsed = time.perf_counter() - start
            times.append(elapsed * speed.scale(before, speed.slice_seconds()))
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# The two modes


def end_to_end(workload, tc, specs, seed, seconds):
    setup_s = measure_setup(workload.name, seed)
    run_one(workload, tc, specs, 0)  # warm-up: first-call imports and caches
    gc.collect()
    records, track = run_for(workload, tc, specs, seconds)
    results = spec_results(records).values()
    times = [r.seconds for r in results]
    good = sum(1 for r in results if not r.problems)
    metrics = {
        "specs_per_s": (good / sum(times), "1/s"),
        "latency_p50_ms": (statistics.median(times) * 1000, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }
    notes = ["failed_frac %.6g (%d of %d specs)"
             % ((len(times) - good) / len(times), len(times) - good, len(times)),
             "%d calls, %.1f s of calls; the host ran the speed slice %.2f "
             "times slower than the reference; unscaled median call %.6g ms"
             % (len(records), sum(r.seconds for r in records), track.slowdown(),
                statistics.median(r.seconds for r in records) * 1000)]
    # The highest percentile with at least ten calls above it.
    latencies = sorted(r.scaled * 1000 for r in records)
    tail = int(100 * (1 - 10 / len(latencies)))
    if tail > 50:
        notes.append("latency p%d %.6g ms over %d calls" % (
            tail, statistics.quantiles(latencies, n=100)[tail - 1], len(latencies)))
    return records, [], metrics, notes


def traced(workload, tc, specs, seconds):
    # Half the specs, each run untraced and then traced, keeps the run near
    # ``seconds`` long.
    specs = specs[:(len(specs) + 1) // 2]
    run_one(workload, tc, specs, 0)
    gc.collect()
    plain, _ = run_for(workload, tc, specs, seconds / 2)
    tracer = tracing.Tracer()
    gc.collect()
    with_trace, restored = run_traced(
        workload, tc, specs, [r.index for r in plain], tracer)
    extra = ["binding left wrapped: %s" % b for b in tracer.unrestored()]
    n = len(with_trace)
    stats = tracer.stats
    metrics = {}
    for name in REPORTED:
        st = stats.get(name, tracing.Stat())
        metrics[name + ".calls"] = (st.calls / n, "calls/spec")
        metrics[name + ".self_s"] = (st.self_s / n, "s/spec")
        metrics[name + ".total_s"] = (st.total_s / n, "s/spec")
    resultant = stats.get("polyring.resultant", tracing.Stat())
    locus = stats.get("etamap.total_branch_locus", tracing.Stat())
    roots = stats.get("univar.rational_roots", tracing.Stat())
    metrics["polyring.resultant.max_out_degree"] = (resultant.value_max, "degree")
    metrics["etamap.total_branch_locus.resultants_per_call"] = (
        resultant.inside.get("etamap.total_branch_locus", 0) / locus.calls
        if locus.calls else 0.0, "calls/call")
    metrics["univar.rational_roots.roots_per_call"] = (
        roots.value_sum / roots.calls if roots.calls else 0.0, "roots/call")
    for name, count in tracer.counts.items():
        metrics[name + ".calls"] = (count / n, "calls/spec")
    for layer in tracing.LAYERS:
        self_s = sum(st.self_s for name, st in stats.items()
                     if name.startswith(layer + "."))
        metrics[layer + ".self_s"] = (self_s / n, "s/spec")
    untraced_s = sum(r.scaled for r in plain)
    traced_s = sum(r.scaled for r in with_trace)
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1, "frac")
    notes = ["%d bindings wrapped and restored, %d spans over %d specs"
             % (restored, tracer.span_count, n)]
    return plain + with_trace, extra, metrics, notes


def meta_problems():
    """Differences between the workload table in meta.json and the code."""
    with open(os.path.join(HERE, "meta.json")) as fh:
        meta = json.load(fh)["workloads"]
    return ["meta.json %s.%s differs from the code" % (w.name, key)
            for w in WORKLOADS.values()
            for key, value in (("why", w.why), ("spec_count", w.spec_count),
                               ("dimensions", list(w.dimensions)))
            if meta.get(w.name, {}).get(key) != value]


def smoke(tc, seed):
    """One spec per workload in both modes; returns the number of problems."""
    stale = meta_problems()
    for p in stale:
        print(p)
    bad = len(stale)
    for workload in WORKLOADS.values():
        specs = workload.build(tc, seed)[:1]
        plain = run_one(workload, tc, specs, 0)
        tracer = tracing.Tracer()
        (with_trace,), _ = run_traced(workload, tc, specs, [0], tracer)
        problems = plain.problems + with_trace.problems + tracer.unrestored()
        if plain.summary != with_trace.summary:
            problems.append("traced report differs from untraced")
        if not tracer.span_count:
            problems.append("no spans recorded")
        bad += len(problems)
        print("%-14s %s  untraced %.3f s, traced %.3f s, %d spans"
              % (workload.name, "ok" if not problems else "FAIL",
                 plain.seconds, with_trace.seconds, tracer.span_count))
        for p in problems:
            print("    " + p)
    return bad


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one spec per workload, untraced and traced")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "triplecover", "__init__.py")):
        print("error: no library source at %s; run from a source checkout"
              % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    tc = load_library()
    if args.smoke:
        return 1 if smoke(tc, args.seed) else 0
    workload = WORKLOADS[args.workload]
    specs = workload.build(tc, args.seed)
    if args.setup_only:
        return 0

    if args.trace:
        records, extra, metrics, notes = traced(workload, tc, specs, args.seconds)
    else:
        records, extra, metrics, notes = end_to_end(
            workload, tc, specs, args.seed, args.seconds)
    results = spec_results(records)
    failed = sum(1 for r in results.values() if r.problems) + len(extra)
    wrong = sum(1 for r in results.values() if r.wrong) + len(extra)

    print("workload %s, seed %d, %d specs built (%s); python %s, nproc %d"
          % (workload.name, args.seed, len(specs), "; ".join(workload.dimensions),
             platform.python_version(), os.cpu_count()))
    for note in notes:
        print(note)
    for index, r in results.items():
        for p in r.problems:
            print("FAILED spec %d (%s, %s): %s"
                  % (index, specs[index].kind,
                     "wrong answer" if r.wrong else "no answer", p))
    for p in extra:
        print("FAILED: %s" % p)
    for name, (value, unit) in metrics.items():
        print("%-52s %14.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
