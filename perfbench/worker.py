"""One timed pass over a workload's task list, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SIZE SEED BLOCK TRACE SPANS_PATH

The first thing it does is time `import mapforge.cli`, the set-up every CLI
call pays, so nothing the benchmark imports is counted in or out of it.
It prints one JSON object: timings, the calibration slices timed between
the tasks, per-task check results, the domain counters and, when TRACE is
1, the per-callable span totals (the spans themselves go to SPANS_PATH as
JSON lines).
"""

import sys
import time

_t0 = time.perf_counter()
import mapforge.cli  # noqa: E402
SETUP_S = time.perf_counter() - _t0

import hashlib  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
import types  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import mapforge  # noqa: E402
from mapforge import (bijections, branching, cli, geodesic,  # noqa: E402
                      observables, ortho_genus, planar_onecut, series_core,
                      string_eq, wick_fatgraphs)

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"


def modules():
    return types.SimpleNamespace(
        bijections=bijections, branching=branching, cli=cli,
        geodesic=geodesic, observables=observables, ortho_genus=ortho_genus,
        planar_onecut=planar_onecut, series_core=series_core,
        string_eq=string_eq, wick_fatgraphs=wick_fatgraphs)


def cache_totals():
    hits = misses = 0
    for value in vars(observables).values():
        info = getattr(value, "cache_info", None)
        if info is not None:
            ci = info()
            hits += ci.hits
            misses += ci.misses
    return hits, misses


def max_bits(text):
    """Bit length of the largest integer written in an exact output: the
    numerators and denominators that set the cost of Fraction arithmetic."""
    return max((int(tok).bit_length() for tok in re.findall(r"\d+", text)),
               default=0)


def install_tracing(mf, tracer, counters):
    """Wrap the traced callables, plus the counters read off values
    returned inside the solvers, which only a traced pass sees."""

    def hankel(args, dets):
        counters["ortho_genus.hankel_M"] = max(
            counters["ortho_genus.hankel_M"], len(dets))

    def pairings(args, avg):
        # the Gaussian average at N = 1 counts the pairings enumerated
        profile = args[0]
        if sum(v * m for v, m in profile.items()) > 0 and avg:
            counters["wick_fatgraphs.pairings"] += int(avg.subs(N=1))

    mods = vars(mf)
    tracer.install(mods)
    tracing.observe(mods.values(), ortho_genus.hankel_dets, hankel)
    tracing.observe(mods.values(), wick_fatgraphs.gaussian_trace_average,
                    pairings)


# nominal seconds of one calibration slice: the host speed the reported
# times are scaled to
REFERENCE_SLICE_S = 0.04


def calibration_slice():
    """Seconds taken by fixed pure-Python work that mapforge never touches:
    Fraction sums with growing denominators and dict updates, the mix the
    exact solvers run.  Timed before the first task and after each one, it
    tracks how fast the shared host runs while the tasks do."""
    start = time.perf_counter()
    for _ in range(20):
        acc = Fraction(0)
        table = {}
        for k in range(1, 400):
            acc += Fraction(1, k)
            key = (k % 7, acc.denominator % 11)
            table[key] = table.get(key, 0) + 1
    return time.perf_counter() - start


def exact_check(references, name):
    """Byte-for-byte comparison with the stored output; notes its digest."""
    def check(mf, text, counters):
        counters["series_core.max_coeff_bits"] = max(
            counters["series_core.max_coeff_bits"], max_bits(text))
        if name not in references:
            raise workloads.CheckFailed("no stored reference")
        if text != references[name]:
            raise workloads.CheckFailed(
                "output differs from the stored reference")
        return hashlib.sha256(text.encode()).hexdigest()
    return check


def run_tasks(mf, tasks, tracer, counters):
    """Run (name, task, check) triples; only the task itself is timed."""
    results = []
    slices = [calibration_slice()]
    for name, task, check in tasks:
        if tracer is not None:
            tracer.run = name
        entry = {"name": name, "ok": False, "error": None}
        start = time.perf_counter()
        try:
            out = task(mf)
            entry["seconds"] = time.perf_counter() - start
            if tracer is not None:
                tracer.run = None  # the check is not part of the workload
            entry["note"] = check(mf, out, counters)
            entry["ok"] = True
        except Exception as e:  # a failing task is counted, not fatal
            entry.setdefault("seconds", time.perf_counter() - start)
            entry["error"] = "%s: %s" % (type(e).__name__, e)
        results.append(entry)
        slices.append(calibration_slice())
    return results, slices


def main(argv):
    workload, size, seed, block, trace, spans_path = argv
    seed = int(seed)
    block = int(block)
    trace = trace == "1"
    src = Path(mapforge.__file__).resolve().parent
    mf = modules()
    counters = dict.fromkeys(workloads.COUNTERS, 0)
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        install_tracing(mf, tracer, counters)
    latencies = []
    if workload == "monte_carlo":
        tasks = workloads.monte_carlo(size, seed, block, latencies)
    else:
        references = json.loads(REFERENCES.read_text())[workload]
        tasks = [(name, task, exact_check(references, name))
                 for name, task in workloads.exact_tasks(workload, size)]
    cpu0 = time.process_time()
    results, slices = run_tasks(mf, workloads.seeded_order(tasks, seed),
                                tracer, counters)
    cpu_s = time.process_time() - cpu0
    hits, misses = cache_totals()
    counters["observables.cache_hits"] = hits
    counters["observables.cache_misses"] = misses
    if tracer is not None:
        tracer.write_jsonl(spans_path)
    import numpy
    import scipy
    wall_s = sum(r["seconds"] for r in results)
    speed = REFERENCE_SLICE_S / statistics.median(slices)
    out = {
        "mapforge": str(src),
        "setup_s": SETUP_S,
        "wall_s": wall_s,
        "wall_ref_s": wall_s * speed,
        "calibration_s": slices,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "tasks": results,
        "counters": counters,
        "latencies_ms": latencies,
        "trace": tracer.summary() if tracer is not None else None,
        "spans": len(tracer.spans) if tracer is not None else 0,
        "versions": {"numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    try:
        main(sys.argv[1:])
    except Exception:
        traceback.print_exc()
        sys.exit(1)
