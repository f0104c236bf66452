"""Named measurement sets with known success probabilities, and their geometry.

Each named construction fixes the measurement directions; the encodings are
always derived as the normalized signed direction sums.  The geometry
helpers expose the polyhedra those encodings land on, count the regions the
measurement great circles cut the sphere into (all pairs of circles at
once, as arrays, with a sort-and-sweep vertex merge), and check the
algebraic equations satisfied by the encoding amplitudes.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .bloch import BlochVector, state_from_bloch
from .codes import (
    QracCode,
    _key_indices,
    _norm_sum_and_neutral,
    _norms,
    _unit_rows,
    optimal_code,
    probability_from_s_value,
)
from .errors import CostLimitError

#: Golden ratio; vertex coordinate of the icosahedral solids.
_TAU = (1.0 + math.sqrt(5.0)) / 2.0

#: Intersection points closer than this (chordal distance) are one vertex.
CLUSTER_TOLERANCE = 1e-9

#: Circles whose normals are parallel within this are considered coincident.
COINCIDENT_TOLERANCE = 1e-9

#: Hard guard on the circle count of an arrangement: k circles give k(k-1)
#: intersection points, each pass over them holding 24*k(k-1) bytes.
MAX_CIRCLES = 1000

#: Intersection points that round to the same cell of this side are one vertex.
_SNAP = 1e-12

#: Sort direction of the vertex sweep; its irrational slopes keep the
#: rational and golden-ratio coordinates of the named sets apart.
_SWEEP_AXIS = np.array([1.0, math.sqrt(2.0), math.pi]) / math.sqrt(3.0 + math.pi**2)

#: Residual tolerance factor for encoding_polynomial_check.
POLYNOMIAL_TOLERANCE = 1e-6


@dataclass(frozen=True, eq=False)
class NamedConstruction:
    """A named set of directions, read-only (n, 3), and its known average success probability.

    `expected_probability` is the closed-form value when one is known, or is
    computed from the directions at registration time.
    """

    name: str
    measurements: np.ndarray
    expected_probability: float

    @property
    def n(self) -> int:
        return len(self.measurements)


def _normalized(rows: Sequence[Sequence[float]]) -> np.ndarray:
    """Coordinate triples as read-only unit rows, each divided by its norm as BlochVector.normalized does."""
    table = np.array(rows, dtype=float)
    table /= _norms(table)[:, None]
    table.setflags(write=False)
    return table


#: The coordinate axes x, y and z.
_XYZ = ((1, 0, 0), (0, 1, 0), (0, 0, 1))

#: Pair representatives of the cuboctahedron's twelve vertices (six axes).
_CUBOCTAHEDRON_AXES = (
    (0, 1, 1),
    (0, -1, 1),
    (1, 0, 1),
    (1, 0, -1),
    (1, 1, 0),
    (-1, 1, 0),
)

#: Pair representatives of the icosahedron's twelve vertices (six axes),
#: chosen with the first nonzero coordinate positive.
_ICOSAHEDRON_AXES = (
    (0, _TAU, 1),
    (0, _TAU, -1),
    (1, 0, _TAU),
    (1, 0, -_TAU),
    (_TAU, 1, 0),
    (_TAU, -1, 0),
)

#: Pair representatives of the icosidodecahedron's thirty vertices.
_ICOSIDODECAHEDRON_AXES = _XYZ + (
    (1, _TAU, _TAU * _TAU),
    (_TAU * _TAU, 1, _TAU),
    (_TAU, _TAU * _TAU, 1),
    (1, _TAU, -_TAU * _TAU),
    (_TAU * _TAU, 1, -_TAU),
    (_TAU, _TAU * _TAU, -1),
    (1, -_TAU, _TAU * _TAU),
    (_TAU * _TAU, -1, _TAU),
    (_TAU, -_TAU * _TAU, 1),
    (1, -_TAU, -_TAU * _TAU),
    (_TAU * _TAU, -1, -_TAU),
    (_TAU, -_TAU * _TAU, -1),
)


def _registry() -> dict[str, NamedConstruction]:
    entries: list[tuple[str, tuple[tuple[float, float, float], ...], float | None]] = [
        ("qrac2", _XYZ[:2], 0.5 + 0.5 / math.sqrt(2.0)),
        ("qrac3", _XYZ, 0.5 + 0.5 / math.sqrt(3.0)),
        ("qrac4", _XYZ + _XYZ[2:], 0.5 + (1.0 + math.sqrt(3.0)) / (8.0 * math.sqrt(2.0))),
        (
            "qrac5",
            _XYZ + ((1, 1, 0), (-1, 1, 0)),
            0.5 + math.sqrt(2.0 * (5.0 + math.sqrt(17.0))) / 20.0,
        ),
        (
            "qrac6",
            _CUBOCTAHEDRON_AXES,
            0.5 + (2.0 + math.sqrt(3.0) + math.sqrt(15.0)) / (16.0 * math.sqrt(6.0)),
        ),
        (
            "qrac9",
            _XYZ * 3,
            0.5
            + (10.0 * math.sqrt(3.0) + 9.0 * math.sqrt(11.0) + 3.0 * math.sqrt(19.0))
            / 384.0,
        ),
        (
            "sym4",
            (
                (1, -1, -1),
                (-1, 1, -1),
                (-1, -1, 1),
                (1, 1, 1),
            ),
            0.5 + (2.0 + math.sqrt(3.0)) / 16.0,
        ),
        (
            "sym6",
            _ICOSAHEDRON_AXES,
            0.5
            + math.sqrt(5.0) / 32.0
            + math.sqrt(75.0 + 30.0 * math.sqrt(5.0)) / 96.0,
        ),
        ("sym9", _XYZ + _CUBOCTAHEDRON_AXES, None),
        ("sym15", _ICOSIDODECAHEDRON_AXES, None),
    ]
    registry: dict[str, NamedConstruction] = {}
    for name, axes, value in entries:
        dirs = _normalized(axes)
        if value is None:
            value = probability_from_s_value(_norm_sum_and_neutral(dirs)[0], len(dirs))
        registry[name] = NamedConstruction(name, dirs, value)
    return registry


CONSTRUCTIONS: dict[str, NamedConstruction] = _registry()


def construction_names() -> tuple[str, ...]:
    return tuple(CONSTRUCTIONS)


def known_construction(name: str) -> NamedConstruction:
    try:
        return CONSTRUCTIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown construction {name!r}; known names: {', '.join(CONSTRUCTIONS)}"
        ) from None


def known_code(name: str) -> QracCode:
    """Build the named construction as a full code with optimal encodings."""
    return optimal_code(known_construction(name).measurements)


def _signed_permutations(base: tuple[int, int, int]) -> list[tuple[float, float, float]]:
    """Every signed coordinate permutation of `base` once, in first-seen order; zeros stay +0.0."""
    rows = (
        (p[0] * a, p[1] * b, p[2] * c)
        for p in itertools.permutations(base)
        for c, b, a in itertools.product((1.0, -1.0), repeat=3)
    )
    return list(dict.fromkeys(rows))


def _with_antipodes(axes: Sequence[Sequence[float]]) -> np.ndarray:
    """Each axis followed by its antipode, as a (2m, 3) array."""
    rows = np.array(axes, dtype=float)
    return np.stack((rows, -rows), axis=1).reshape(-1, 3)


_POLYHEDRA: dict[str, np.ndarray] = {
    name: _normalized(rows)
    for name, rows in {
        "cube": _signed_permutations((1, 1, 1)),
        "octahedron": np.concatenate((np.eye(3), -np.eye(3))),
        "cuboctahedron": _with_antipodes(_CUBOCTAHEDRON_AXES),
        "truncated_octahedron": _signed_permutations((0, 1, 2)),
        "truncated_cube": _signed_permutations((1, 3, 3)),
        "small_rhombicuboctahedron": _signed_permutations((3, 1, 1)),
        "icosahedron": _with_antipodes(_ICOSAHEDRON_AXES),
        "icosidodecahedron": _with_antipodes(_ICOSIDODECAHEDRON_AXES),
    }.items()
}


def polyhedron_names() -> tuple[str, ...]:
    return tuple(_POLYHEDRA)


def polyhedron_vertices(name: str) -> np.ndarray:
    """Unit-normalized vertices of a named polyhedron, as a read-only (m, 3) array."""
    key = name.strip().lower().replace(" ", "_").replace("-", "_")
    try:
        return _POLYHEDRA[key]
    except KeyError:
        raise ValueError(
            f"unknown polyhedron {name!r}; known names: {', '.join(_POLYHEDRA)}"
        ) from None


@dataclass(frozen=True, eq=False)
class GreatCircleArrangement:
    """Great circles on the unit sphere, one per normal; antipodes identified.

    `normals` is a read-only (k, 3) array made from any array-like of unit rows.
    Building one checks every pair i < j of circles at once, so it is refused
    with CostLimitError above MAX_CIRCLES circles before any pair is formed;
    `_pairs` keeps the pairs, row-major, and the unit cross products of their normals.
    """

    normals: np.ndarray
    _pairs: tuple[np.ndarray, np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        normals = _unit_rows(self.normals, "circle normal")
        object.__setattr__(self, "normals", normals)
        k = len(normals)
        if k > MAX_CIRCLES:
            points = k * (k - 1)
            size = f"{points} intersection points ({24 * points} bytes as float64 3-vectors)"
            raise CostLimitError(f"{k} circles meet in {size}", "circles", k, MAX_CIRCLES)
        first, second = np.triu_indices(k, 1)
        cross = np.cross(normals[first], normals[second])
        lengths = _norms(cross)
        coincident = np.flatnonzero(lengths < COINCIDENT_TOLERANCE)
        if coincident.size:
            i, j = first[coincident[0]], second[coincident[0]]
            raise ValueError(f"circles {i + 1} and {j + 1} coincide (parallel normals)")
        object.__setattr__(self, "_pairs", (first, second, cross / lengths[:, None]))


def _cluster_labels(points: np.ndarray, tolerance: float) -> np.ndarray:
    """Labels merging points within chordal `tolerance`, transitively.

    Points are sorted by the projection of their _SNAP cell on _SWEEP_AXIS,
    and neighbours in one cell become one vertex outright: they lie closer
    than sqrt(3)*_SNAP, far inside `tolerance`.  This step keeps the sweep
    linear when many circles pass through one point.  The sweep then tests
    every pair of cell representatives whose cell projections lie within
    2*tolerance, at growing sort offsets until no such pair is left, and
    joins those closer than `tolerance`; the doubled window covers the
    distance from a point to its cell.  Points nearer than `tolerance`
    whose representatives are not (a margin of 2*sqrt(3)*_SNAP) are the
    only ones an all-pairs merge would join and this one would not.
    """
    cells = np.round(points / _SNAP)
    order = np.argsort(cells @ _SWEEP_AXIS, kind="stable")
    cells = cells[order]
    starts = np.flatnonzero(np.concatenate(([True], np.any(cells[1:] != cells[:-1], axis=1))))
    reps = points[order[starts]]
    projection = (cells[starts] @ _SWEEP_AXIS) * _SNAP
    parent = np.arange(len(reps))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for offset in range(1, len(reps)):
        near = np.flatnonzero(projection[offset:] - projection[:-offset] < 2.0 * tolerance)
        if not near.size:
            break
        close = _norms(reps[near] - reps[near + offset]) < tolerance
        for i in near[close].tolist():
            ri, rj = find(i), find(i + offset)
            if ri != rj:
                parent[ri] = rj
    while not np.array_equal(parent[parent], parent):
        parent = parent[parent]
    labels = np.empty(len(points), dtype=np.int64)
    labels[order] = np.repeat(parent, np.diff(np.append(starts, len(points))))
    return labels


def _distinct(values: np.ndarray) -> int:
    """Number of distinct integers; a sort is far faster than np.unique's hashing."""
    ordered = np.sort(values)
    return 1 + int(np.count_nonzero(ordered[1:] != ordered[:-1]))


def count_sphere_regions(arr: GreatCircleArrangement) -> int:
    """Number of regions the circles cut the sphere into, by Euler's formula.

    Vertices are clustered intersection points (so three or more circles
    through one point count it once); each circle contributes one edge per
    distinct vertex on it; regions = edges - vertices + 2.  A single circle
    has no intersections and cuts the sphere into two parts.  The k(k-1)
    intersection points are built and clustered as arrays, in
    O(k^2 log k) time and O(k^2) memory.
    """
    k = len(arr.normals)
    if k == 1:
        return 2
    first, second, unit = arr._pairs
    labels = _cluster_labels(np.concatenate((unit, -unit)), CLUSTER_TOLERANCE)
    vertices = _distinct(labels)
    # each point lies on the two circles of its pair; code (vertex, circle) as one int
    incidences = np.concatenate((labels * k + np.tile(first, 2), labels * k + np.tile(second, 2)))
    edges = _distinct(incidences)
    return edges - vertices + 2


def encoding_polynomial_check(name: str, poly: Sequence[int]) -> bool:
    """Check every encoding amplitude of a named code against a polynomial.

    `poly[d]` is the integer coefficient of the d-th power.  For each input
    string the code's encoding state contributes its amplitude on the second
    basis state; the check passes iff every such amplitude b satisfies
    |poly(b)| <= POLYNOMIAL_TOLERANCE * sum_d |poly[d]| * |b|^d.  The
    comparison is inclusive so that b = 0 (a pole encoding) passes exactly
    when the constant term vanishes: both sides are then zero.
    """
    if not poly or all(c == 0 for c in poly):
        raise ValueError("polynomial must have a nonzero coefficient")
    for row in known_code(name).encodings:
        b = state_from_bloch(BlochVector.from_array(row)).beta
        value = complex(poly[-1])
        scale = float(abs(poly[-1]))
        magnitude = abs(b)
        for coefficient in reversed(poly[:-1]):
            value = value * b + coefficient
            scale = scale * magnitude + abs(coefficient)
        if abs(value) > POLYNOMIAL_TOLERANCE * scale:
            return False
    return True


def classify_string(name: str, x: str) -> str:
    """Which polyhedron the optimal encoding of x lands on, for qrac6 or qrac9.

    x is the string as text, x1 leftmost (see codes.bit_text).  The answer is
    the candidate solid (cube, truncated octahedron or octahedron for qrac6;
    cube, truncated cube or small rhombicuboctahedron for qrac9) that has the
    encoding of x as a vertex within CLUSTER_TOLERANCE.
    """
    solids = {
        "qrac6": ("cube", "truncated_octahedron", "octahedron"),
        "qrac9": ("cube", "truncated_cube", "small_rhombicuboctahedron"),
    }.get(name)
    if solids is None:
        raise ValueError(f"classification is defined for qrac6 and qrac9, not {name!r}")
    code = known_code(name)
    point = code.encodings[_key_indices([x], code.n, f"{name} input")[0]]
    return next(s for s in solids if (_norms(_POLYHEDRA[s] - point) < CLUSTER_TOLERANCE).any())
