"""qrac benchmark: run one workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload search --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; `qrac` is imported from `src/`.
The workload runs in a fresh interpreter (`worker.py`) with every BLAS/OpenMP
pool pinned to one thread.  With `--trace 0` the end-to-end metrics are
reported, with `--trace 1` the per-layer ones.  The worker also times
`import qrac` in fresh interpreters between its passes (`setup_s`).

The last line of stdout is the result; the line before it is a record of the
commit, seed, versions and thread pins.  Both, and the traced run's spans,
are also written under `.perfbench_out/`.  Exit status is 0 when a result
was printed, including a result whose checks failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORK = ROOT / ".perfbench_work"

#: Every thread pool numpy or scipy might start is held to one thread.
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

#: A run must end within this many seconds, build included.
DEADLINE = 170.0

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = str(SOURCE)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(argv: list[str], timeout: float) -> tuple[int, str, str]:
    """Run the worker in its own process group; on timeout kill the whole group.

    The group also holds the import probes the worker starts, so none of them
    outlives the run.
    """
    worker = subprocess.Popen(
        argv, env=child_env(), cwd=ROOT, text=True, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        out, err = worker.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(worker.pid, signal.SIGKILL)
        worker.communicate()
        raise
    return worker.returncode, out, err


def commit() -> str:
    """HEAD of the checkout, or "unknown" when it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main() -> int:
    started = time.monotonic()
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description="Run one qrac benchmark workload.")
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="job sizes; 'tiny' is for the harness self-test")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SOURCE / "qrac" / "__init__.py").is_file():
        print(f"error: no qrac sources under {SOURCE}", file=sys.stderr)
        return 2

    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    OUT.mkdir(exist_ok=True)
    WORK.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = WORK / stem
    workdir.mkdir(exist_ok=True)
    spans = OUT / f"{stem}.spans.json"
    try:
        code, out, err = run_worker(
            [
                sys.executable, str(HERE / "worker.py"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--scale", args.scale, "--workdir", str(workdir),
                "--spans", str(spans),
            ],
            timeout=DEADLINE - (time.monotonic() - started),
        )
    except subprocess.TimeoutExpired as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for leftover in workdir.iterdir():
            leftover.unlink()
        workdir.rmdir()
    if code != 0:
        sys.stderr.write(err)
        print(f"error: worker exited {code}", file=sys.stderr)
        return 1
    measured = json.loads(out.strip().splitlines()[-1])

    values = measured["metrics"]
    if set(values) != set(declared):
        print(f"error: measured {sorted(values)}, declared {sorted(declared)}", file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}
    record = {
        "commit": commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        **measured["versions"],
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_pins": THREAD_PINS,
        "pass_seconds": measured["pass_seconds"],
        "traced_pass_seconds": measured.get("traced_pass_seconds", []),
        "setup_samples": measured.get("setup_samples", []),
        "failures": measured["failures"],
    }
    result = {
        "correct": measured["failed"] == 0,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": metrics,
    }
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump({"record": record, "result": result}, handle, indent=1)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
