"""mapforge benchmark: one workload, one seed, timed from outside.

    python3 perfbench/run.py --workload exact_rational --seed 1 \
        --seconds 40 --trace 0

Run it from the root of a source checkout; it needs no build.  The run is a
closed loop with one client: passes over the workload's task list run one
after another, each in a fresh interpreter (so the lru_caches in
`observables` start cold, as for every CLI call), as long as another pass
fits in --seconds.  Every pass checks its outputs (see workloads.py).

--trace 0 reports the end-to-end metrics, medians over the passes: the
set-up time (`import mapforge.cli`), the task-list wall time scaled to a
reference host speed, and the peak RSS.  On a shared host the raw wall time
of identical passes swings by a third with the load of other tenants; each
pass therefore also times a fixed calibration loop that mapforge never
touches (worker.calibration_slice) between its tasks, and wall_ref_s is the
raw wall time times REFERENCE_SLICE_S over the median slice time.  The raw
figure is reported too, as process.wall_s.

--trace 1 spends half the time on untraced passes and half on traced ones
and reports the per-layer metrics: call counts and self time per callable,
the domain counters, the import-time breakdown, the sampler latency
percentiles and the tracing overhead.

The last line of stdout is a JSON object with the keys correct, attempted,
failed and metrics.  The lines before it give the environment and every
metric by name with its unit.  A fuller record, with every pass, goes to
.perfbench_out/ in the checkout, with the spans of the workload's last
traced pass.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402

# the whole run must end within 180 s; a pass that would outlive this
# budget is killed and its tasks count as failed
RUN_BUDGET_S = 165.0

IMPORT_GROUPS = ("scipy", "numpy", "mapforge")


def git_sha(root):
    """HEAD of the checkout read from .git, or None outside a git tree."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest():
    """Identifies the code measured where a checkout has no git history."""
    h = hashlib.sha256()
    for path in sorted((SRC / "mapforge").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def environment():
    """Where the numbers come from; numpy and scipy versions are added
    from the passes, which import them."""
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "git_sha": git_sha(ROOT), "src_sha256": src_digest(),
            "loadavg_start": list(os.getloadavg())}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def run_pass(args, block, trace, deadline):
    """One fresh-interpreter pass; None if it crashed or ran out of time."""
    spans = OUT / ("%s.spans.jsonl" % args.workload)
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload, args.size,
           str(args.seed), str(block), "1" if trace else "0", str(spans)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        sys.stderr.write("pass %d timed out\n" % block)
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    result = json.loads(proc.stdout.splitlines()[-1])
    if Path(result["mapforge"]) != SRC / "mapforge":
        sys.exit("worker imported mapforge from %s, not from this checkout"
                 % result["mapforge"])
    result["trace_mode"] = trace
    return result


def import_breakdown(deadline, repeats=3):
    """Median self time per top-level package from -X importtime."""
    line = re.compile(r"import time:\s+(\d+)\s+\|\s+\d+\s+\|\s+(\S.*)$")
    samples = {g: [] for g in IMPORT_GROUPS}
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import mapforge.cli"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()), check=True)
        totals = dict.fromkeys(IMPORT_GROUPS, 0)
        for text in proc.stderr.splitlines():
            m = line.match(text)
            if m:
                top = m.group(2).strip().split(".")[0]
                if top in totals:
                    totals[top] += int(m.group(1))
        for g in IMPORT_GROUPS:
            samples[g].append(totals[g] / 1e6)
    return {g: statistics.median(v) for g, v in samples.items()}


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def task_count(args):
    if args.workload == "monte_carlo":
        return len(workloads.monte_carlo(args.size, args.seed, 0, []))
    return len(workloads.exact_tasks(args.workload, args.size))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=workloads.SIZES, default="full",
                    help="tiny is for the smoke test")
    args = ap.parse_args()

    if not (SRC / "mapforge" / "cli.py").is_file():
        sys.exit("no mapforge sources under %s: run from a source checkout"
                 % SRC)
    started = time.monotonic()
    deadline = started + RUN_BUDGET_S
    OUT.mkdir(exist_ok=True)
    env = environment()

    # compile the bytecode and warm the file cache outside the timed passes
    warm = subprocess.run([sys.executable, "-c", "import mapforge.cli"],
                          cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=120)
    if warm.returncode != 0:
        sys.stderr.write(warm.stderr)
        sys.exit("import mapforge.cli failed")

    passes = []
    crashed = 0
    phases = [(False, args.seconds)] if not args.trace else \
        [(False, args.seconds / 2), (True, args.seconds / 2)]
    for trace, budget in phases:
        begin = time.monotonic()
        last = 0.0  # the next pass is expected to take as long as the last
        while last == 0.0 or time.monotonic() - begin + last <= budget:
            if time.monotonic() >= deadline:
                break
            t0 = time.monotonic()
            result = run_pass(args, len(passes) + crashed, trace, deadline)
            last = time.monotonic() - t0
            if result is None:
                crashed += 1
            else:
                passes.append(result)
    imports = import_breakdown(deadline) if args.trace else None
    env["loadavg_end"] = list(os.getloadavg())

    plain_passes = [p for p in passes if not p["trace_mode"]]
    traced = [p for p in passes if p["trace_mode"]]
    if not plain_passes or (args.trace and not traced):
        sys.exit("no pass completed")
    env.update(passes[0]["versions"])

    attempted = task_count(args) * crashed + sum(len(p["tasks"])
                                                for p in passes)
    failed = task_count(args) * crashed + sum(
        1 for p in passes for t in p["tasks"] if not t["ok"])

    def med(key, group):
        return statistics.median(p[key] for p in group)

    wall = med("wall_ref_s", plain_passes)
    report = {  # name -> (value, unit)
        "setup_s": (med("setup_s", passes), "s"),
        "wall_ref_s": (wall, "s"),
        "peak_rss_mb": (med("peak_rss_mb", plain_passes), "MB"),
        "failed_frac": (failed / attempted, "ratio"),
        "process.wall_s": (med("wall_s", plain_passes), "s"),
        "process.calibration_ms": (1000 * statistics.median(
            x for p in passes for x in p["calibration_s"]), "ms"),
    }
    # sampler latency over every map of the untraced passes (monte_carlo)
    latencies = [x for p in plain_passes for x in p["latencies_ms"]]
    for q in (50, 95):
        report["bijections.sample_p%d_ms" % q] = (
            percentile(latencies, q) if latencies else 0.0, "ms")
    report["bijections.sample_count"] = (len(latencies), "count")
    if args.trace:
        for name in tracing.SPAN_NAMES:
            report[name + ".calls"] = (statistics.median(
                p["trace"][name]["calls"] for p in traced), "count")
            report[name + ".self_s"] = (statistics.median(
                p["trace"][name]["self_s"] for p in traced), "s")
        for name, unit in workloads.COUNTERS.items():
            report[name] = (traced[0]["counters"][name], unit)
        for group in IMPORT_GROUPS:
            report["cli.import.%s_s" % group] = (imports[group], "s")
        report["trace.overhead_frac"] = (med("wall_ref_s", traced) / wall,
                                         "ratio")
        report["process.cpu_s"] = (med("cpu_s", plain_passes), "s")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": report[m["name"]][0],
                           "unit": report[m["name"]][1]} for m in wanted}

    print("# env " + json.dumps(env, sort_keys=True))
    print("# %s seed %d: %d passes (%d traced), %d crashed, "
          "%d of %d tasks failed"
          % (args.workload, args.seed, len(passes), len(traced), crashed,
             failed, attempted))
    for p in passes:
        for t in p["tasks"]:
            if not t["ok"]:
                print("# FAILED %s: %s" % (t["name"], t["error"]))
    for name, (value, unit) in report.items():
        print("%-48s %.6g %s" % (name, value, unit))
    record = {"env": env, "args": vars(args), "report": report,
              "passes": passes, "crashed": crashed}
    (OUT / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
     ).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
