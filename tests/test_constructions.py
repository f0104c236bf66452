"""Named measurement sets: averages, vertex figures, polynomials, regions."""

from __future__ import annotations

import math

import numpy as np
import pytest

from qrac.bloch import BlochVector, uniform_directions
from qrac.classical import BitString
from qrac.codes import evaluate, upper_bound
from qrac.constructions import (
    CLUSTER_TOLERANCE,
    CONSTRUCTIONS,
    MAX_CIRCLES,
    GreatCircleArrangement,
    _SWEEP_AXIS,
    _cluster_labels,
    classify_string,
    construction_names,
    count_sphere_regions,
    encoding_polynomial_check,
    known_code,
    known_construction,
    polyhedron_names,
    polyhedron_vertices,
)
from qrac.errors import CostLimitError

from helpers import reference_cluster_labels, reference_region_count, signed_direction_sum

SQRT2, SQRT3 = math.sqrt(2), math.sqrt(3)

CLOSED_FORMS = {
    "qrac2": 0.5 + 1 / (2 * SQRT2),
    "qrac3": 0.5 + 1 / (2 * SQRT3),
    "qrac4": 0.5 + (1 + SQRT3) / (8 * SQRT2),
    "qrac5": 0.5 + math.sqrt(2 * (5 + math.sqrt(17))) / 20,
    "qrac6": 0.5 + (2 + SQRT3 + math.sqrt(15)) / (16 * math.sqrt(6)),
    "qrac9": 0.5 + (10 * SQRT3 + 9 * math.sqrt(11) + 3 * math.sqrt(19)) / 384,
    "sym4": 0.5 + (2 + SQRT3) / 16,
    "sym6": 0.5 + math.sqrt(5) / 32 + math.sqrt(75 + 30 * math.sqrt(5)) / 96,
}


# ---------------------------------------------------------------- registry


def test_registry_contents():
    names = construction_names()
    assert names == (
        "qrac2",
        "qrac3",
        "qrac4",
        "qrac5",
        "qrac6",
        "qrac9",
        "sym4",
        "sym6",
        "sym9",
        "sym15",
    )
    assert set(CONSTRUCTIONS) == set(names)


def test_unknown_construction_raises():
    with pytest.raises(ValueError, match="qrac2"):
        known_construction("qrac7")


def test_expected_probabilities_match_closed_forms():
    for name, value in CLOSED_FORMS.items():
        construction = known_construction(name)
        assert construction.expected_probability == pytest.approx(value, abs=1e-12), name


def test_every_average_matches_expected_probability():
    for name in construction_names():
        construction = known_construction(name)
        report = evaluate(known_code(name))
        assert report.average == pytest.approx(
            construction.expected_probability, abs=1e-9
        ), name


def test_construction_sizes():
    sizes = {name: known_construction(name).n for name in construction_names()}
    assert sizes == {
        "qrac2": 2,
        "qrac3": 3,
        "qrac4": 4,
        "qrac5": 5,
        "qrac6": 6,
        "qrac9": 9,
        "sym4": 4,
        "sym6": 6,
        "sym9": 9,
        "sym15": 15,
    }


def test_measurement_directions_are_unit_and_distinct_where_expected():
    for name in ("qrac2", "qrac3", "qrac5", "qrac6", "sym4", "sym6", "sym9", "sym15"):
        dirs = known_construction(name).measurements
        for i, a in enumerate(dirs):
            assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)
            for b in dirs[i + 1 :]:
                assert abs(abs(float(a @ b)) - 1.0) > 1e-9  # no repeated axes


def test_sandwich_between_worst_case_and_upper_bound():
    for name in construction_names():
        report = evaluate(known_code(name))
        n = known_construction(name).n
        assert report.worst_case <= report.average + 1e-12
        assert report.average <= upper_bound(n) + 1e-12


def test_orthogonal_pairs_saturate_the_upper_bound():
    for name in ("qrac2", "qrac3"):
        report = evaluate(known_code(name))
        n = known_construction(name).n
        assert abs(report.average - upper_bound(n)) <= 1e-12
        assert abs(report.worst_case - upper_bound(n)) <= 1e-12


def test_symmetric_sets_trade_average_for_symmetry():
    # each sym variant sits strictly below its size-matched counterpart
    gap_6 = evaluate(known_code("qrac6")).average - evaluate(known_code("sym6")).average
    gap_9 = evaluate(known_code("qrac9")).average - evaluate(known_code("sym9")).average
    assert gap_6 > 1e-7
    assert gap_9 > 1e-7


def test_worst_case_values():
    worst = {name: evaluate(known_code(name)).worst_case for name in construction_names()}
    assert worst["qrac4"] == pytest.approx(0.5, abs=1e-12)
    assert worst["qrac6"] == pytest.approx(0.1464466, abs=1e-7)
    assert worst["sym6"] == pytest.approx(0.0, abs=1e-12)
    assert worst["sym4"] == pytest.approx(0.2113249, abs=1e-7)


def test_sym4_neutral_strings():
    report = evaluate(known_code("sym4"))
    texts = sorted(s.text for s in report.neutral_strings)
    assert texts == ["0000", "1111"]
    for name in ("qrac5", "qrac6", "qrac9", "sym6"):
        assert evaluate(known_code(name)).neutral_strings == ()


def test_sym4_encodings_match_hand_formulas():
    """Oracle for the tetrahedral set: explicit signed-axis / corner formulas.

    Strings with even weight parity map to octahedron vertices, odd parity to
    cube corners; the two all-equal strings cancel and are excluded.
    """
    code = known_code("sym4")
    for index in range(16):
        s = BitString.from_index(index, 4)
        x1, x2, x3, x4 = s.bits
        parity = x1 ^ x2 ^ x3 ^ x4
        if parity == 0:
            if len(set(s.bits)) == 1:
                continue  # neutral
            expected = (-1.0) ** x4 * np.array(
                [1 - abs(x1 - x4), 1 - abs(x2 - x4), 1 - abs(x3 - x4)], dtype=float
            )
        else:
            sign = (-1.0) ** (x1 * x2 + x3 * x4)
            expected = sign * np.array(
                [(-1.0) ** (x1 + x4), (-1.0) ** (x2 + x4), (-1.0) ** (x3 + x4)]
            ) / SQRT3
        assert code.encodings[index] == pytest.approx(expected, abs=1e-12), s.text


# ---------------------------------------------------------------- polyhedra


def test_polyhedron_vertex_counts():
    counts = {name: len(polyhedron_vertices(name)) for name in polyhedron_names()}
    assert counts == {
        "cube": 8,
        "octahedron": 6,
        "cuboctahedron": 12,
        "truncated_octahedron": 24,
        "truncated_cube": 24,
        "small_rhombicuboctahedron": 24,
        "icosahedron": 12,
        "icosidodecahedron": 30,
    }


def test_polyhedron_vertices_unit_and_distinct():
    for name in polyhedron_names():
        vertices = [np.asarray(v) for v in polyhedron_vertices(name)]
        for i, a in enumerate(vertices):
            assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)
            for b in vertices[i + 1 :]:
                assert np.linalg.norm(a - b) > 1e-9


def test_polyhedron_name_normalization():
    assert polyhedron_vertices("Truncated Octahedron") == polyhedron_vertices(
        "truncated_octahedron"
    )
    assert polyhedron_vertices("small-rhombicuboctahedron") == polyhedron_vertices(
        "small_rhombicuboctahedron"
    )
    with pytest.raises(ValueError):
        polyhedron_vertices("dodecahedron")


def test_truncated_cube_coordinates():
    # vertices are the normalized permutations of (±1, ±3, ±3)
    fields = {
        tuple(np.round(np.asarray(v) * math.sqrt(19), 6)) for v in polyhedron_vertices("truncated_cube")
    }
    assert (1.0, 3.0, 3.0) in fields and (-3.0, 1.0, -3.0) in fields


# ------------------------------------------------------------ classification


def _vertex_histogram(name: str) -> dict[str, dict[int, int]]:
    """Map each string's direction onto the classified polyhedron's vertices."""
    construction = known_construction(name)
    vertex_sets = {
        tag: np.array([np.asarray(v) for v in polyhedron_vertices(tag)])
        for tag in polyhedron_names()
    }
    histogram: dict[str, dict[int, int]] = {}
    for index in range(1 << construction.n):
        s = BitString.from_index(index, construction.n)
        tag = classify_string(name, s)
        v = signed_direction_sum(known_code(name).measurements, s)
        unit = v / np.linalg.norm(v)
        distances = np.linalg.norm(vertex_sets[tag] - unit, axis=1)
        hit = int(np.argmin(distances))
        assert distances[hit] < 1e-9, (name, s.text, tag)
        histogram.setdefault(tag, {}).setdefault(hit, 0)
        histogram[tag][hit] += 1
    return histogram


def test_classify_qrac6_counts_and_geometry():
    histogram = _vertex_histogram("qrac6")
    assert set(histogram) == {"cube", "truncated_octahedron", "octahedron"}
    assert sum(histogram["cube"].values()) == 16
    assert sum(histogram["truncated_octahedron"].values()) == 24
    assert sum(histogram["octahedron"].values()) == 24
    # every vertex of each solid is realized, with uniform multiplicity
    assert sorted(histogram["cube"].values()) == [2] * 8
    assert sorted(histogram["truncated_octahedron"].values()) == [1] * 24
    assert sorted(histogram["octahedron"].values()) == [4] * 6


def test_classify_qrac9_counts_and_geometry():
    histogram = _vertex_histogram("qrac9")
    assert sum(histogram["cube"].values()) == 224
    assert sum(histogram["truncated_cube"].values()) == 72
    assert sum(histogram["small_rhombicuboctahedron"].values()) == 216
    assert sorted(histogram["cube"].values()) == [28] * 8
    assert sorted(histogram["truncated_cube"].values()) == [3] * 24
    assert sorted(histogram["small_rhombicuboctahedron"].values()) == [9] * 24


def test_classify_examples():
    assert classify_string("qrac6", BitString.from_text("000000")) == "cube"
    assert classify_string("qrac6", BitString.from_text("001110")) == "truncated_octahedron"
    assert classify_string("qrac9", BitString.from_text("000000000")) == "cube"
    assert classify_string("qrac9", BitString.from_text("110000000")) == "small_rhombicuboctahedron"
    assert classify_string("qrac9", BitString.from_text("100000000")) == "truncated_cube"
    assert classify_string("qrac9", BitString.from_text("111111111")) == "cube"


def test_classify_validation():
    with pytest.raises(ValueError):
        classify_string("qrac5", BitString.from_text("00000"))
    with pytest.raises(ValueError):
        classify_string("qrac6", BitString.from_text("0000000"))


# ------------------------------------------------------------------ regions


def test_region_counts_for_named_sets():
    expected = {
        "qrac2": 4,
        "qrac3": 8,
        "sym4": 14,
        "qrac5": 16,
        "qrac6": 24,
        "sym6": 32,
        "sym9": 48,
        "sym15": 120,
    }
    for name, count in expected.items():
        normals = known_construction(name).measurements
        arrangement = GreatCircleArrangement(normals=normals)
        assert count_sphere_regions(arrangement) == count, name


def test_region_count_generic_position(rng):
    # k circles in general position split the sphere into k(k-1)+2 regions
    for k in range(1, 9):
        while True:
            rows = uniform_directions(k, rng)
            try:
                arrangement = GreatCircleArrangement(
                    normals=tuple(BlochVector.from_array(r) for r in rows)
                )
            except ValueError:
                continue  # resample on a coincidence
            break
        assert count_sphere_regions(arrangement) == k * (k - 1) + 2


def test_duplicate_normals_rejected():
    z = BlochVector(0.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="coincide"):
        GreatCircleArrangement(normals=(z, -z))
    with pytest.raises(ValueError):
        GreatCircleArrangement(normals=())


def test_first_coincident_pair_is_reported():
    x, y, z = BlochVector(1.0, 0.0, 0.0), BlochVector(0.0, 1.0, 0.0), BlochVector(0.0, 0.0, 1.0)
    # pairs are checked in the order (1,2), (1,3), ..., (2,3), ...; (2,4) comes after (1,5)
    with pytest.raises(ValueError, match="circles 1 and 5 coincide"):
        GreatCircleArrangement(normals=(x, y, z, -y, x))


def test_arrangement_cost_guard_states_points_and_bytes():
    k = MAX_CIRCLES + 1
    normals = tuple(BlochVector(1.0, 0.0, 0.0) for _ in range(k))  # refused before any check
    points = k * (k - 1)
    with pytest.raises(CostLimitError, match=f"{points} intersection points \\({24 * points} bytes"):
        GreatCircleArrangement(normals=normals)


def _arrangement(rows: np.ndarray) -> GreatCircleArrangement:
    return GreatCircleArrangement(normals=tuple(BlochVector.from_array(r) for r in rows))


def _coplanar(k: int, rng: np.random.Generator) -> np.ndarray:
    """k distinct normals in one random plane; every circle passes through its pole."""
    pole = uniform_directions(1, rng)[0]
    e1 = np.cross(pole, [1.0, 0.0, 0.0])
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(pole, e1)
    angles = np.pi * (np.arange(k) + rng.uniform(0.1, 0.9, k)) / k
    return np.outer(np.cos(angles), e1) + np.outer(np.sin(angles), e2)


def test_vertex_merge_matches_all_pairs_merge(rng):
    # clusters spread over many snap cells, chains that merge only transitively,
    # and near misses just outside the tolerance
    tol = CLUSTER_TOLERANCE
    groups = []
    for centre in uniform_directions(40, rng):
        size = int(rng.integers(1, 6))
        groups.append(centre + rng.uniform(-0.25 * tol, 0.25 * tol, (size, 3)))
    for centre in uniform_directions(10, rng):
        step = rng.choice([0.8, 1.5]) * tol * uniform_directions(1, rng)[0]
        groups.append(centre + np.arange(4)[:, None] * step)
    # in sweep order a, b, c: a is within tol of b and of c, b and c are 1.8*tol apart;
    # a far decoy sorts between a and c, so a-c is found only at sort offset 2
    u = _SWEEP_AXIS
    for centre in uniform_directions(10, rng):
        side = np.cross(u, centre)
        side /= np.linalg.norm(side)
        b = centre + 0.9 * tol * (0.1 * u + side)
        c = centre + 0.9 * tol * (0.2 * u - side)
        decoy = centre + 0.15 * tol * u + 0.5 * np.cross(u, side)
        groups.append(np.array([centre, b, c, decoy]))
    points = np.concatenate(groups)
    labels = _cluster_labels(points, tol).tolist()
    reference = reference_cluster_labels(points, tol)
    assert len(set(zip(labels, reference))) == len(set(labels)) == len(set(reference))
    assert len(set(labels)) < len(points)


def test_region_count_matches_reference_on_random_circles(rng):
    for k in range(1, 31):
        rows = uniform_directions(k, rng)
        assert count_sphere_regions(_arrangement(rows)) == reference_region_count(
            rows, CLUSTER_TOLERANCE
        ), k


def test_region_count_matches_reference_on_polyhedral_axes(rng):
    # axes of all the polyhedra together: many triple points, shared and not
    pool: list[np.ndarray] = []
    for name in polyhedron_names():
        for v in polyhedron_vertices(name):
            if all(np.linalg.norm(np.cross(np.asarray(v), a)) > 1e-6 for a in pool):
                pool.append(np.asarray(v))
    axes = np.array(pool)
    for _ in range(40):
        rows = axes[rng.choice(len(axes), size=int(rng.integers(2, 31)), replace=False)]
        assert count_sphere_regions(_arrangement(rows)) == reference_region_count(
            rows, CLUSTER_TOLERANCE
        )


def test_coplanar_circles_cut_the_sphere_into_2k_lunes(rng):
    for k in (2, 3, 7, 30):
        rows = _coplanar(k, rng)
        assert reference_region_count(rows, CLUSTER_TOLERANCE) == 2 * k
        assert count_sphere_regions(_arrangement(rows)) == 2 * k


def test_region_counts_for_two_hundred_circles(rng):
    k = 200
    assert count_sphere_regions(_arrangement(uniform_directions(k, rng))) == k * (k - 1) + 2
    assert count_sphere_regions(_arrangement(_coplanar(k, rng))) == 2 * k


# -------------------------------------------------------------- polynomials


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def poly_pow(p: list[int], k: int) -> list[int]:
    out = [1]
    for _ in range(k):
        out = poly_mul(out, p)
    return out


def poly_product(factors: list[tuple[list[int], int]]) -> list[int]:
    out = [1]
    for base, exponent in factors:
        out = poly_mul(out, poly_pow(base, exponent))
    return out


QRAC3_POLY = [1, 0, 0, 0, 24, 0, 0, 0, 36]
QRAC4_POLY = [1, 0, 0, 0, 128, 0, 0, 0, 1120, 0, 0, 0, 3072, 0, 0, 0, 2304]
QRAC5_POLY = (
    [1]
    + [0] * 7
    + [1600]
    + [0] * 7
    + [151432]
    + [0] * 7
    + [961792]
    + [0] * 7
    + [1336336]
)
SYM4_POLY = poly_product(
    [
        ([0, 1], 1),
        ([-1, 1], 1),
        ([-1, 0, 0, 0, 4], 1),
        (QRAC3_POLY, 1),
    ]
)
QRAC6_POLY = poly_product(
    [
        ([0, 0, 0, 0, 1], 1),  # beta^4
        ([-1, 1], 4),
        ([-1, 0, 0, 0, 4], 4),
        (QRAC3_POLY, 2),
        ([1, 0, 0, 0, -15, 0, 0, 0, 25], 1),
        ([1, 0, 0, 0, -360, 0, 0, 0, 400], 1),
        ([25, 0, 0, 0, 56, 0, 0, 0, 400], 1),
    ]
)
QRAC9_POLY = poly_product(
    [
        (QRAC3_POLY, 28),
        ([81, 0, 0, 0, 760, 0, 0, 0, 1444], 3),
        ([1, 0, 0, 0, 440, 0, 0, 0, 484], 9),
        (
            [15625, 0, 0, 0, -372400, 0, 0, 0, 26780424, 0, 0, 0, -21509824, 0, 0, 0, 52128400],
            3,
        ),
        (
            [15625, 0, 0, 0, -92400, 0, 0, 0, 1232264, 0, 0, 0, -1788864, 0, 0, 0, 5856400],
            9,
        ),
    ]
)

POLYNOMIALS = {
    "qrac3": QRAC3_POLY,
    "qrac4": QRAC4_POLY,
    "qrac5": QRAC5_POLY,
    "qrac6": QRAC6_POLY,
    "qrac9": QRAC9_POLY,
    "sym4": SYM4_POLY,
}


def test_polynomial_degrees():
    assert len(QRAC6_POLY) - 1 == 64
    assert len(QRAC9_POLY) - 1 == 512
    assert len(SYM4_POLY) - 1 == 14


def test_encoding_polynomials_vanish():
    for name in ("qrac3", "qrac4", "qrac5", "qrac6", "qrac9", "sym4"):
        assert encoding_polynomial_check(name, POLYNOMIALS[name]), name


def test_perturbed_polynomials_fail():
    # bump the constant term by its own magnitude (or 1 when it is zero) so
    # the change survives the float conversion of the huge coefficients
    for name in ("qrac3", "qrac4", "qrac5", "qrac6", "qrac9", "sym4"):
        poly = list(POLYNOMIALS[name])
        poly[0] += max(1, poly[0])
        assert not encoding_polynomial_check(name, poly), name
    bad = list(QRAC3_POLY)
    bad[0] = 2
    assert not encoding_polynomial_check("qrac3", bad)


def test_all_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        encoding_polynomial_check("qrac3", [0, 0, 0])


def test_measurement_basis_polynomial_qrac6():
    """The 12 basis states of the qrac6 axes satisfy their own minimal polynomial."""
    from qrac.bloch import state_from_bloch

    coeffs = [1, 0, 0, 0, -44, 0, 0, 0, -128, 0, 0, 0, 256]
    for row in known_construction("qrac6").measurements:
        m = BlochVector.from_array(row)
        for direction in (m, -m):
            beta = state_from_bloch(direction).beta
            value = 0j
            scale = 0.0
            for c in reversed(coeffs):
                value = value * beta + c
                scale = scale * abs(beta) + abs(c)
            assert abs(value) < 1e-9 * scale
