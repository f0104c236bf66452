"""Fast self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload at the tiny scale for one second, untraced and traced,
and fails unless each run exits 0, every job passes its check, and every
metric BENCHMARK.json declares is emitted and finite.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    problems: list[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            before = len(problems)
            done = subprocess.run(
                [
                    sys.executable, str(ROOT / "perfbench" / "run.py"),
                    "--workload", workload, "--seed", "3", "--seconds", "1",
                    "--trace", str(trace), "--scale", "tiny",
                ],
                cwd=ROOT, capture_output=True, text=True, timeout=180,
            )
            if done.returncode != 0:
                problems.append(f"{label}: exit {done.returncode}: {done.stderr.strip()}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{label}: {result['failed']} of {result['attempted']} jobs failed")
            declared = spec["per_layer" if trace else "end_to_end"]
            if set(result["metrics"]) != {m["name"] for m in declared}:
                problems.append(f"{label}: metric names differ from BENCHMARK.json")
            for metric in declared:
                value = result["metrics"].get(metric["name"], {}).get("value")
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{label}: {metric['name']} = {value!r}")
            print(f"{label}: {'ok' if len(problems) == before else 'FAILED'}", flush=True)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
