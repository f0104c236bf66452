"""Run one workload in this process and print its measurements as one JSON line.

Started by `run.py` in a fresh interpreter whose BLAS/OpenMP pools are pinned
to one thread.  One client runs the job list as a closed loop: each job starts
when the previous one ends, and a pass is one run of the whole list.  Passes
repeat until `--seconds` have elapsed.  The inputs are built once from the
seed, before timing starts, and every pass replays them.

Untraced (`--trace 0`): `wall_s` is the time of one pass, from each job's
median over the passes.  `setup_s` is the median time a fresh interpreter
takes to `import qrac`; a few such interpreters are timed before the first
pass and after every pass, so the samples span the whole run rather than one
moment of it.  Traced (`--trace 1`): untraced and traced passes alternate,
the per-layer figures come from the spans of the traced ones, and
`trace.overhead_frac` compares the two pass times.  Spans are written to
`--spans` when the run ends.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from tracing import Patch, Tracer, layer_metrics
from workloads import SCALES, WORKLOADS, CheckFailed, Job


#: Fresh interpreters timed for `setup_s` before the first pass and after
#: every pass of an untraced run; the median over all of them is reported.
SETUP_PROBES_PER_GAP = 4

#: Seconds one import probe may take before the run is abandoned.
PROBE_TIMEOUT = 60.0

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import qrac; "
    "print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Time a fresh interpreter, in this process's environment, takes to import qrac."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT, check=True,
    )
    return float(done.stdout.strip())


@dataclass
class PassResult:
    seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    json_bytes: int = 0
    job_seconds: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)


def run_pass(jobs: list[Job], tracer: Tracer | None = None) -> PassResult:
    """One closed-loop pass; a failing job is counted and the pass goes on."""
    result = PassResult()
    start = time.perf_counter()
    for name, job in jobs:
        result.attempted += 1
        job_start = time.perf_counter()
        span = tracer.begin("harness", f"job.{name}") if tracer else None
        try:
            result.json_bytes += job()
        except CheckFailed as exc:
            result.failed += 1
            result.failures.append(f"{name}: {exc}")
        except Exception:  # a job that raises is a failure to count, not a crash
            result.failed += 1
            result.failures.append(f"{name}: {traceback.format_exc(limit=3)}")
        finally:
            if span is not None:
                tracer.end(span)
            result.job_seconds.append(time.perf_counter() - job_start)
    result.seconds = time.perf_counter() - start
    return result


def pass_seconds(passes: list[PassResult]) -> float:
    """Time of one pass: each job's median over the passes, summed.

    Taking the median job by job drops a slow spell that hits different jobs
    in different passes, which the median of whole passes would keep.
    """
    return sum(statistics.median(times) for times in zip(*(p.job_seconds for p in passes)))


def measure(jobs: list[Job], seconds: float, traced: bool) -> dict:
    plain: list[PassResult] = []
    with_trace: list[PassResult] = []
    setup: list[float] = []
    tracer = Tracer()
    start = time.perf_counter()
    if not traced:
        setup += [import_seconds() for _ in range(SETUP_PROBES_PER_GAP)]
    while True:
        plain.append(run_pass(jobs))
        if traced:
            with Patch(tracer):
                with_trace.append(run_pass(jobs, tracer))
        else:
            setup += [import_seconds() for _ in range(SETUP_PROBES_PER_GAP)]
        if time.perf_counter() - start >= seconds:
            break
    everything = plain + with_trace
    attempted = sum(p.attempted for p in everything)
    failed = sum(p.failed for p in everything)
    wall = pass_seconds(plain)
    out: dict = {
        "attempted": attempted,
        "failed": failed,
        "failures": [f for p in everything for f in p.failures][:20],
        "pass_seconds": [p.seconds for p in plain],
    }
    if traced:
        metrics = layer_metrics(tracer, len(with_trace), sum(p.json_bytes for p in with_trace))
        metrics["trace.overhead_frac"] = pass_seconds(with_trace) / wall - 1.0
        out["traced_pass_seconds"] = [p.seconds for p in with_trace]
        out["spans"] = tracer.export()
    else:
        out["setup_samples"] = setup
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(setup),
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "ok_frac": (attempted - failed) / attempted,
        }
    out["metrics"] = metrics
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, required=True, help="where a traced run writes its spans")
    args = parser.parse_args()

    jobs = WORKLOADS[args.workload](args.seed, SCALES[args.scale], args.workdir)
    out = measure(jobs, args.seconds, traced=bool(args.trace))
    spans = out.pop("spans", None)
    if spans is not None:
        with open(args.spans, "w", encoding="utf-8") as handle:
            json.dump(spans, handle)
    out["versions"] = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
