"""Direction sets: every (n, 3) array-like of unit rows gives the same results.

The benchmark scripts pass tuples of `qrac.Measurement(BlochVector)`; the
library takes any array-like of unit rows.  Each entry point must give
identical results for four input forms, return read-only arrays, and refuse
malformed sets with ValueError.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import qrac
from qrac import optimizer
from qrac.bloch import UNIT_TOLERANCE, BlochVector, uniform_directions
from qrac.codes import QracCode
from qrac.constructions import CONSTRUCTIONS


def _sets() -> list[tuple[str, np.ndarray]]:
    rng = np.random.default_rng(11)
    sets = [(f"random{n}", uniform_directions(n, rng)) for n in range(1, 13)]
    return sets + [(name, c.measurements) for name, c in CONSTRUCTIONS.items()]


SETS = _sets()


def _forms(rows: np.ndarray) -> dict[str, object]:
    return {
        "measurements": tuple(qrac.Measurement(BlochVector.from_array(row)) for row in rows),
        "bloch_vectors": tuple(BlochVector.from_array(row) for row in rows),
        "lists": rows.tolist(),
        "array": np.array(rows),
    }


def _outcome(call):
    """A call's result, or the type and message of what it raised."""
    try:
        return call()
    except (ValueError, qrac.CostLimitError) as exc:
        return type(exc), str(exc)


def _same(a, b) -> bool:
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()
    if isinstance(a, QracCode):
        return _same((a.measurements, a.encodings), (b.measurements, b.encodings))
    return a == b


ENTRY_POINTS = {
    "s_value": qrac.s_value,
    "optimal_code": qrac.optimal_code,
    "parallelogram_check": qrac.parallelogram_check,
    "polish": qrac.polish,
    "count_sphere_regions": lambda ms: qrac.count_sphere_regions(qrac.GreatCircleArrangement(ms)),
}


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
@pytest.mark.parametrize(("name", "rows"), SETS, ids=[name for name, _ in SETS])
def test_every_input_form_gives_identical_results(entry, name, rows, monkeypatch):
    # short searches: polish must agree across input forms, not converge
    monkeypatch.setattr(optimizer, "MAX_ITERATIONS", 40)
    outcomes = {
        form: _outcome(lambda ms=ms: ENTRY_POINTS[entry](ms)) for form, ms in _forms(rows).items()
    }
    reference = outcomes.pop("array")
    for form, outcome in outcomes.items():
        assert _same(outcome, reference), (entry, name, form)


def test_named_sets_refused_where_expected():
    # the forms agree on refusals too: sym15 is too large to polish, and
    # qrac4 and qrac9 repeat an axis, so two of their circles coincide
    with pytest.raises(qrac.CostLimitError):
        qrac.polish(CONSTRUCTIONS["sym15"].measurements)
    for name in ("qrac4", "qrac9"):
        with pytest.raises(ValueError, match="coincide"):
            qrac.GreatCircleArrangement(CONSTRUCTIONS[name].measurements)


def test_returned_direction_sets_are_read_only_copies():
    rows = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    directions, _, _ = qrac.optimize(3, restarts=2)
    polished, _ = qrac.polish(rows)
    arrays = [
        directions,
        polished,
        qrac.optimal_code(rows).measurements,
        qrac.GreatCircleArrangement(rows).normals,
        qrac.known_construction("qrac3").measurements,
    ]
    for array in arrays:
        assert isinstance(array, np.ndarray) and array.dtype == float
        assert not array.flags.writeable
        assert not np.shares_memory(array, rows)
    rows[0] = -rows[0]  # the caller's array stays the caller's
    assert np.array_equal(polished, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


def test_bloch_vector_is_a_row():
    v = BlochVector.normalized(1.0, 2.0, 2.0)
    assert np.asarray(v).tobytes() == np.array([v.x, v.y, v.z]).tobytes()
    assert np.array((v, -v), dtype=np.float32).shape == (2, 3)
    assert qrac.Measurement(v) is v


UNIT = [1.0, 0.0, 0.0]
BAD_SETS = {
    "zero-rows": np.empty((0, 3)),
    "empty-list": [],
    "scalar": 1.0,
    "one-row-flat": UNIT,
    "two-columns": [[1.0, 0.0], [0.0, 1.0]],
    "four-columns": [[1.0, 0.0, 0.0, 0.0]],
    "three-axes": np.ones((1, 1, 3)),
    "ragged": [UNIT, [0.0, 1.0]],
    "long-row": [UNIT, [1.0 + 2.0 * UNIT_TOLERANCE, 0.0, 0.0]],
    "short-row": [UNIT, [0.0, 1.0 - 2.0 * UNIT_TOLERANCE, 0.0]],
    "zero-row": [UNIT, [0.0, 0.0, 0.0]],
    "nan": [UNIT, [math.nan, 0.0, 0.0]],
    "inf": [UNIT, [math.inf, 0.0, 0.0]],
    "minus-inf": [[-math.inf, 0.0, 0.0]],
}

CHECKED_ENTRY_POINTS = {
    **ENTRY_POINTS,
    "QracCode": lambda ms: QracCode(ms, np.tile(UNIT, (2, 1))),
}


@pytest.mark.parametrize("entry", list(CHECKED_ENTRY_POINTS))
@pytest.mark.parametrize("bad", list(BAD_SETS))
def test_malformed_direction_sets_are_refused(entry, bad):
    with pytest.raises(ValueError):
        CHECKED_ENTRY_POINTS[entry](BAD_SETS[bad])
