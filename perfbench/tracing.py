"""In-memory span tracer for the benchmark's traced run.

The tracer replaces selected public functions of `qrac` with wrappers that
record one span per call (name, layer, start, end, parent, attributes) and
restores the originals afterwards.  Nothing in `qrac` is edited: the
untraced run never installs a wrapper.  Self time of a span is its duration
minus the durations of its direct children; calls are strictly nested
because the workload runs on one thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import statistics
import time
from collections.abc import Callable
from dataclasses import dataclass, field


@dataclass(slots=True)
class Span:
    index: int
    parent: int | None
    layer: str
    name: str
    start: float
    end: float = math.nan
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; `export` hands them out when the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def begin(self, layer: str, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent, layer, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.index)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped != span.index:
            raise RuntimeError(f"span {span.name} closed out of order")

    def self_seconds(self) -> list[float]:
        """Self time of every span, indexed like `spans`."""
        own = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.seconds
        return own

    def export(self) -> list[dict]:
        own = self.self_seconds()
        return [
            {
                "index": s.index,
                "parent": s.parent,
                "layer": s.layer,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "self": own[s.index],
                "attrs": s.attrs,
            }
            for s in self.spans
        ]


# --- what gets wrapped -----------------------------------------------------
#
# Each describer maps the bound call arguments (and the result, when the call
# returned) to span attributes.  They run after the span has ended, so their
# cost lands in the caller's self time, not in the traced layer.


def _n_of_sequence(a: dict, _result) -> dict:
    return {"n": len(a["measurements"])}


def _n_of_code(a: dict, _result) -> dict:
    return {"n": a["code"].n}


def _optimize(a: dict, result) -> dict:
    attrs = {"n": a["n"]}
    if result is not None:
        traces = result[2].traces
        attrs["iterations"] = sum(t.iterations for t in traces)
        attrs["restarts"] = len(traces)
        attrs["converged"] = sum(1 for t in traces if t.converged)
    return attrs


def _simulate(a: dict, _result) -> dict:
    return {
        "n": a["code"].n,
        "trials": a["trials_per_input"],
        "randomize": a["randomize"],
    }


def _regions(a: dict, _result) -> dict:
    return {"k": len(a["arr"].normals)}


def _walk_mc(a: dict, _result) -> dict:
    return {"n": a["n"], "trials": a["trials"]}


def _lattice(a: dict, _result) -> dict:
    return {"n": a["x"] + a["y"] + a["z"]}


def _cli_main(a: dict, _result) -> dict:
    argv = list(a["argv"])
    attrs: dict = {"command": " ".join(argv[:2]) if argv[0] == "code" else argv[0]}
    if "--n" in argv:
        attrs["n"] = int(argv[argv.index("--n") + 1])
    return attrs


#: (module, function, layer, describer).  The same function object is
#: replaced wherever it is bound in `qrac`, its defining module and
#: `qrac.cli`, so calls made through the CLI and calls one library function
#: makes to another are both seen.
TARGETS: tuple[tuple[str, str, str, Callable[[dict, object], dict]], ...] = (
    ("qrac.optimizer", "optimize", "optimizer", _optimize),
    ("qrac.optimizer", "polish", "optimizer", _n_of_sequence),
    ("qrac.codes", "s_value", "codes", _n_of_sequence),
    ("qrac.codes", "optimal_code", "codes", _n_of_sequence),
    ("qrac.codes", "evaluate", "codes", _n_of_code),
    ("qrac.codes", "parallelogram_check", "codes", _n_of_sequence),
    ("qrac.constructions", "count_sphere_regions", "constructions", _regions),
    ("qrac.bounds", "best_axis_split", "bounds", lambda a, _r: {"n": a["n"]}),
    ("qrac.bounds", "random_walk_distance_mc", "bounds", _walk_mc),
    ("qrac.bounds", "lattice_walk_distance", "bounds", _lattice),
    ("qrac.sim", "simulate_code", "sim", _simulate),
    ("qrac.cli", "main", "cli", _cli_main),
)


def _wrapper(tracer: Tracer, layer: str, fn: Callable, describe: Callable) -> Callable:
    signature = inspect.signature(fn)
    name = f"{layer}.{fn.__name__}"

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.begin(layer, name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            span.attrs["error"] = type(exc).__name__
            raise
        finally:
            tracer.end(span)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            span.attrs.update(describe(bound.arguments, result))

    return traced


class Patch:
    """Context manager that installs the wrappers and always removes them."""

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> Patch:
        package = importlib.import_module("qrac")
        cli = importlib.import_module("qrac.cli")
        for module_name, attr, layer, describe in TARGETS:
            home = importlib.import_module(module_name)
            original = getattr(home, attr)
            traced = _wrapper(self._tracer, layer, original, describe)
            for namespace in {id(m): m for m in (package, home, cli)}.values():
                if getattr(namespace, attr, None) is original:
                    self._undo.append((namespace, attr, original))
                    setattr(namespace, attr, traced)
        return self

    def __exit__(self, *exc) -> None:
        for namespace, attr, original in reversed(self._undo):
            setattr(namespace, attr, original)
        self._undo.clear()


# --- per-layer metrics -------------------------------------------------------


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0.0 else 0.0


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def layer_metrics(tracer: Tracer, passes: int, json_bytes: int) -> dict[str, float]:
    """Per-layer figures, per traced pass, from the recorded spans.

    Times summed over calls are per pass; `*_us.nK` figures are the mean per
    call; rates divide work by the busy time of the calls that did it.  A
    layer the workload never calls reports 0 for every figure.
    """
    spans = tracer.spans
    own = tracer.self_seconds()

    def select(name: str, **attrs) -> list[Span]:
        # refused calls did none of the work their arguments ask for
        return [
            s
            for s in spans
            if s.name == name
            and "error" not in s.attrs
            and all(s.attrs.get(k) == v for k, v in attrs.items())
        ]

    def total(chosen: list[Span]) -> float:
        return sum(s.seconds for s in chosen)

    def busy(layer: str) -> float:
        return sum(own[s.index] for s in spans if s.layer == layer) / passes

    optimize_calls = select("optimizer.optimize")
    iterations = sum(s.attrs.get("iterations", 0) for s in optimize_calls)
    restarts = sum(s.attrs.get("restarts", 0) for s in optimize_calls)
    converged = sum(s.attrs.get("converged", 0) for s in optimize_calls)
    s_values = select("codes.s_value")
    regions = select("constructions.count_sphere_regions")
    walks = select("bounds.random_walk_distance_mc")

    first_child_n: dict[int, int] = {}
    for s in spans:
        if s.parent is not None and "n" in s.attrs:
            first_child_n.setdefault(s.parent, s.attrs["n"])

    def cli_self(command: str, n: int) -> float:
        # `code eval` names no n; the code it read is the n of its first call
        calls = [
            s
            for s in select("cli.main", command=command)
            if s.attrs.get("n", first_child_n.get(s.index)) == n
        ]
        return sum(own[s.index] for s in calls) / passes

    def cell_trials(randomize: bool) -> float:
        calls = select("sim.simulate_code", randomize=randomize)
        work = sum((1 << s.attrs["n"]) * s.attrs["n"] * s.attrs["trials"] for s in calls)
        return _rate(work, total(calls))

    return {
        "optimizer.busy_s": busy("optimizer"),
        "optimizer.optimize_s.n9": total(select("optimizer.optimize", n=9)) / passes,
        "optimizer.polish_s": total(select("optimizer.polish")) / passes,
        "optimizer.iterations": iterations / passes,
        "optimizer.us_per_iteration": 1e6 * _rate(total(optimize_calls), iterations),
        "optimizer.converged_frac": _rate(converged, restarts),
        "codes.busy_s": busy("codes"),
        "codes.s_value_us.n5": 1e6 * _mean([s.seconds for s in select("codes.s_value", n=5)]),
        "codes.s_value_us.n9": 1e6 * _mean([s.seconds for s in select("codes.s_value", n=9)]),
        "codes.s_value_us.n12": 1e6 * _mean([s.seconds for s in select("codes.s_value", n=12)]),
        "codes.patterns_per_s": _rate(sum(1 << s.attrs["n"] for s in s_values), total(s_values)),
        "codes.optimal_code_s.n18": total(select("codes.optimal_code", n=18)) / passes,
        "codes.evaluate_s.n18": total(select("codes.evaluate", n=18)) / passes,
        "cli.self_s": busy("cli"),
        "cli.code_eval_s.n16": cli_self("code eval", 16),
        "cli.optimize_s.n9": cli_self("optimize", 9),
        "cli.json_mb": json_bytes / passes / 1e6,
        "constructions.busy_s": busy("constructions"),
        "constructions.regions_s.k40": total(
            select("constructions.count_sphere_regions", k=40)
        ) / passes,
        "constructions.intersections_per_s": _rate(
            sum(s.attrs["k"] * (s.attrs["k"] - 1) for s in regions), total(regions)
        ),
        "bounds.busy_s": busy("bounds"),
        "bounds.best_axis_split_s.n60": total(select("bounds.best_axis_split", n=60)) / passes,
        "bounds.mc_steps_per_s": _rate(
            sum(s.attrs["n"] * s.attrs["trials"] for s in walks), total(walks)
        ),
        "sim.busy_s": busy("sim"),
        "sim.cell_trials_per_s.randomized": cell_trials(True),
        "sim.cell_trials_per_s.plain": cell_trials(False),
    }
