"""Regenerate references.json, the exact outputs the benchmark checks.

    python3 perfbench/make_references.py

Run it only at a commit whose exact outputs are known to be right: every
later run of the benchmark must reproduce these texts byte for byte.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
import worker  # noqa: E402


def main():
    mf = worker.modules()
    refs = {}
    for workload in ("exact_rational", "exact_symbolic"):
        refs[workload] = {}
        for size in workloads.SIZES:
            for name, task in workloads.exact_tasks(workload, size):
                refs[workload][name] = task(mf)
    worker.REFERENCES.write_text(json.dumps(refs, sort_keys=True, indent=1)
                                 + "\n")


if __name__ == "__main__":
    main()
