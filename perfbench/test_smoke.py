"""Smoke test of the benchmark itself, at tiny sizes; not part of Tier-1.

    python3 -m pytest -q perfbench/test_smoke.py

It checks that every metric named in BENCHMARK.json is reported with its
unit, that no task fails, that the domain counters repeat across two
traced runs, that traced and untraced exact outputs are byte-identical,
and that the benchmark refuses to run without the mapforge sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 1


def bench(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def measured(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    record = json.loads((run.OUT / ("%s-seed%d-trace%d.json"
                                    % (workload, SEED, trace))).read_text())
    return result, record


def digests(record, traced):
    """task name -> set of output digests over the traced or untraced
    passes of a run."""
    out = {}
    for p in record["passes"]:
        if p["trace_mode"] != traced:
            continue
        for t in p["tasks"]:
            # an exact task's note is the sha256 of its output
            out.setdefault(t["name"], set()).add(t.get("note"))
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload(workload):
    plain, plain_record = measured(workload, 0)
    first, first_record = measured(workload, 1)
    second, _ = measured(workload, 1)

    for result, spec in ((plain, SPEC["end_to_end"]),
                         (first, SPEC["per_layer"]),
                         (second, SPEC["per_layer"])):
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] > 0
        assert set(result["metrics"]) == {m["name"] for m in spec}
        for m in spec:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]

    for name in workloads.COUNTERS:
        assert first["metrics"][name] == second["metrics"][name], name
    for m in SPEC["per_layer"]:
        if m["name"].endswith(".calls"):
            assert (first["metrics"][m["name"]]
                    == second["metrics"][m["name"]]), m["name"]

    if workload != "monte_carlo":
        untraced = digests(plain_record, False)
        traced = digests(first_record, True)
        assert untraced == traced
        assert all(len(d) == 1 and None not in d for d in traced.values())


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("exact_rational", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
