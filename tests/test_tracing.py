"""The benchmark's tracer still binds every traced function's arguments.

`perfbench/tracing.py` wraps public qrac functions and reads their arguments
by name (`measurements`, `code`, `arr`, `n`, ...) to label each span with a
size.  Renaming a parameter would break the traced benchmark run, so this
installs the tracer around one tiny call to each traced function.  The file
is read as text and executed, so nothing is written under `perfbench/`.
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import numpy as np

import qrac
import qrac.cli

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch) -> types.ModuleType:
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    monkeypatch.setitem(sys.modules, module.__name__, module)  # its dataclasses look it up
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def _call_every_target(capsys) -> None:
    axes = (qrac.Measurement(qrac.BlochVector(1.0, 0.0, 0.0)), qrac.BlochVector(0.0, 1.0, 0.0))
    code = qrac.optimal_code(axes)
    qrac.optimize(2, restarts=1)
    qrac.polish(np.eye(3))
    qrac.s_value(axes)
    qrac.evaluate(code)
    qrac.parallelogram_check(axes)
    qrac.count_sphere_regions(qrac.GreatCircleArrangement(np.eye(3)))
    qrac.best_axis_split(3)
    qrac.random_walk_distance_mc(2, 100, 0)
    qrac.lattice_walk_distance(1, 1, 0)
    qrac.simulate_code(code, 2, 0, randomize=True)
    assert qrac.cli.main(["optimize", "--n", "2", "--restarts", "1"]) == 0
    capsys.readouterr()


def test_every_traced_call_records_its_size(capsys, monkeypatch):
    tracing = _load_tracing(monkeypatch)
    tracer = tracing.Tracer()
    with tracing.Patch(tracer):
        _call_every_target(capsys)
    names = {span.name for span in tracer.spans}
    assert names == {f"{layer}.{attr}" for _, attr, layer, _ in tracing.TARGETS}
    for span in tracer.spans:
        assert "error" not in span.attrs, span.name
        assert "n" in span.attrs or "k" in span.attrs, span.name
    assert qrac.s_value.__module__ == "qrac.codes"  # the patch is undone
    assert not hasattr(qrac.s_value, "__wrapped__")
