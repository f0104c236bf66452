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
from .classical import BitString
from .codes import QracCode, _encodings, _norm_sum_and_neutral, _unit_rows, probability_from_s_value
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


def _unit(x: float, y: float, z: float) -> BlochVector:
    return BlochVector.normalized(x, y, z)


_X = BlochVector(1.0, 0.0, 0.0)
_Y = BlochVector(0.0, 1.0, 0.0)
_Z = BlochVector(0.0, 0.0, 1.0)

#: Pair representatives of the cuboctahedron's twelve vertices (six axes).
_CUBOCTAHEDRON_AXES = (
    _unit(0.0, 1.0, 1.0),
    _unit(0.0, -1.0, 1.0),
    _unit(1.0, 0.0, 1.0),
    _unit(1.0, 0.0, -1.0),
    _unit(1.0, 1.0, 0.0),
    _unit(-1.0, 1.0, 0.0),
)

#: Pair representatives of the icosahedron's twelve vertices (six axes),
#: chosen with the first nonzero coordinate positive.
_ICOSAHEDRON_AXES = (
    _unit(0.0, _TAU, 1.0),
    _unit(0.0, _TAU, -1.0),
    _unit(1.0, 0.0, _TAU),
    _unit(1.0, 0.0, -_TAU),
    _unit(_TAU, 1.0, 0.0),
    _unit(_TAU, -1.0, 0.0),
)


def _icosidodecahedron_axes() -> tuple[BlochVector, ...]:
    """Pair representatives of the icosidodecahedron's thirty vertices."""
    axes = [_X, _Y, _Z]
    for s1 in (1.0, -1.0):
        for s2 in (1.0, -1.0):
            axes.append(_unit(1.0, s1 * _TAU, s2 * _TAU * _TAU))
            axes.append(_unit(_TAU * _TAU, s1 * 1.0, s2 * _TAU))
            axes.append(_unit(_TAU, s1 * _TAU * _TAU, s2 * 1.0))
    return tuple(axes)


def _registry() -> dict[str, NamedConstruction]:
    entries: list[tuple[str, tuple[BlochVector, ...], float | None]] = [
        ("qrac2", (_X, _Y), 0.5 + 0.5 / math.sqrt(2.0)),
        ("qrac3", (_X, _Y, _Z), 0.5 + 0.5 / math.sqrt(3.0)),
        ("qrac4", (_X, _Y, _Z, _Z), 0.5 + (1.0 + math.sqrt(3.0)) / (8.0 * math.sqrt(2.0))),
        (
            "qrac5",
            (_X, _Y, _Z, _unit(1.0, 1.0, 0.0), _unit(-1.0, 1.0, 0.0)),
            0.5 + math.sqrt(2.0 * (5.0 + math.sqrt(17.0))) / 20.0,
        ),
        (
            "qrac6",
            _CUBOCTAHEDRON_AXES,
            0.5 + (2.0 + math.sqrt(3.0) + math.sqrt(15.0)) / (16.0 * math.sqrt(6.0)),
        ),
        (
            "qrac9",
            (_X, _Y, _Z, _X, _Y, _Z, _X, _Y, _Z),
            0.5
            + (10.0 * math.sqrt(3.0) + 9.0 * math.sqrt(11.0) + 3.0 * math.sqrt(19.0))
            / 384.0,
        ),
        (
            "sym4",
            (
                _unit(1.0, -1.0, -1.0),
                _unit(-1.0, 1.0, -1.0),
                _unit(-1.0, -1.0, 1.0),
                _unit(1.0, 1.0, 1.0),
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
        ("sym9", (_X, _Y, _Z) + _CUBOCTAHEDRON_AXES, None),
        ("sym15", _icosidodecahedron_axes(), None),
    ]
    registry: dict[str, NamedConstruction] = {}
    for name, axes, value in entries:
        dirs = _unit_rows(axes)
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
    dirs = known_construction(name).measurements
    return QracCode(dirs, _encodings(dirs), _checked=True)


def _signed_permutations(base: tuple[float, float, float]) -> list[BlochVector]:
    """Every coordinate permutation of `base` with every sign choice, deduplicated."""
    seen: set[tuple[float, float, float]] = set()
    out: list[BlochVector] = []
    for perm in itertools.permutations(base):
        nonzero = [i for i, t in enumerate(perm) if t != 0.0]
        for signs in range(1 << len(nonzero)):
            coords = list(perm)
            for pos, axis in enumerate(nonzero):
                if (signs >> pos) & 1:
                    coords[axis] = -coords[axis]
            key = (coords[0], coords[1], coords[2])
            if key not in seen:
                seen.add(key)
                out.append(_unit(*key))
    return out


_POLYHEDRA: dict[str, tuple[BlochVector, ...]] = {
    "cube": tuple(_signed_permutations((1.0, 1.0, 1.0))),
    "octahedron": (_X, _Y, _Z, -_X, -_Y, -_Z),
    "cuboctahedron": tuple(v for axis in _CUBOCTAHEDRON_AXES for v in (axis, -axis)),
    "truncated_octahedron": tuple(_signed_permutations((0.0, 1.0, 2.0))),
    "truncated_cube": tuple(_signed_permutations((1.0, 3.0, 3.0))),
    "small_rhombicuboctahedron": tuple(_signed_permutations((3.0, 1.0, 1.0))),
    "icosahedron": tuple(v for axis in _ICOSAHEDRON_AXES for v in (axis, -axis)),
    "icosidodecahedron": tuple(
        v for axis in _icosidodecahedron_axes() for v in (axis, -axis)
    ),
}


def polyhedron_names() -> tuple[str, ...]:
    return tuple(_POLYHEDRA)


def polyhedron_vertices(name: str) -> tuple[BlochVector, ...]:
    """Unit-normalized vertices of a named polyhedron."""
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
        lengths = np.linalg.norm(cross, axis=1)
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
        close = np.linalg.norm(reps[near] - reps[near + offset], axis=1) < tolerance
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


#: Wildcard patterns over the six positions; "*" matches either bit.  Strings
#: with pair-difference count 1 or 2 match exactly one list.
_FLAT_PATTERNS = (
    "**1110",
    "**0001",
    "10**11",
    "01**00",
    "1110**",
    "0001**",
)
_AXIS_PATTERNS = (
    "**1101",
    "**0010",
    "01**11",
    "10**00",
    "1101**",
    "0010**",
)


def _matches(pattern: str, text: str) -> bool:
    return all(p in ("*", c) for p, c in zip(pattern, text))


def classify_string(name: str, x: BitString) -> str:
    """Which polyhedron the optimal encoding of x lands on, for qrac6 or qrac9.

    For qrac6 the measurements come in three pairs whose signed sums either
    reinforce (equal bits) or swap axis (differing bits); counting differing
    pairs and matching the cancellation patterns sorts the 64 strings onto
    the cube, the truncated octahedron, or the octahedron.  For qrac9 each
    coordinate axis carries three measurements, so each axis triple is either
    unanimous (component 3) or split (component 1); the number t of split
    triples sorts the 512 strings onto the cube (t in {0, 3}), the truncated
    cube (t = 1), or the small rhombicuboctahedron (t = 2).
    """
    if name == "qrac6":
        if len(x) != 6:
            raise ValueError(f"qrac6 strings have 6 bits, got {len(x)}")
        bits = x.bits
        differing = sum(abs(bits[2 * k] - bits[2 * k + 1]) for k in range(3))
        if differing in (0, 3):
            return "cube"
        if any(_matches(p, x.text) for p in _FLAT_PATTERNS):
            return "truncated_octahedron"
        if any(_matches(p, x.text) for p in _AXIS_PATTERNS):
            return "octahedron"
        raise ValueError(f"string {x.text!r} matches no classification pattern")
    if name == "qrac9":
        if len(x) != 9:
            raise ValueError(f"qrac9 strings have 9 bits, got {len(x)}")
        bits = x.bits
        split_triples = sum(
            0 if bits[axis] == bits[axis + 3] == bits[axis + 6] else 1
            for axis in range(3)
        )
        if split_triples in (0, 3):
            return "cube"
        if split_triples == 1:
            return "truncated_cube"
        return "small_rhombicuboctahedron"
    raise ValueError(f"classification is defined for qrac6 and qrac9, not {name!r}")
