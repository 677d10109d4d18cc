#!/usr/bin/env python3
"""Smoke check of the benchmark harness itself, on shrunken workloads.

    python3 perfbench/smoke.py

For every workload it makes one untraced and one traced measurement at
the sizes in ``workloads.TINY`` and checks that:

* every metric BENCHMARK.json names is emitted, with its unit, and no
  other;
* spans nest inside their parents with self time >= 0;
* the self times of a traced pass add up to its wall time;
* every request passed the correctness gate.

Exits 1 and lists the problems when any check fails.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    os.environ.pop("SHIFTBOUNDS_THREADS", None)
    sys.path.insert(0, str(run.SRC))
    problems = []
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
    try:
        for name, sizes in workloads.TINY.items():
            for trace, section in ((False, "end_to_end"), (True, "per_layer")):
                result = run.run_workload(name, 1, 0.0, trace, workdir, sizes)
                problems += [f"{name}: gate: {f}" for f in result.failures]
                problems += [f"{name}: trace: {c}" for c in result.trace_checks]
                wanted = {m["name"]: m["unit"] for m in spec[section]}
                for metric, unit in wanted.items():
                    if metric not in result.metrics:
                        problems.append(f"{name}: {metric} not emitted")
                    elif result.metrics[metric][1] != unit:
                        problems.append(
                            f"{name}: {metric} in {result.metrics[metric][1]}, expected {unit}")
                extra = sorted(set(result.metrics) - set(wanted))
                if extra:
                    problems.append(f"{name}: metrics missing from BENCHMARK.json: {extra}")
                print(f"{name} trace={int(trace)}: {len(result.metrics)} metrics, "
                      f"{result.attempted} requests")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(f"FAILED {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
