"""Code evaluation: signed sums, optimal encodings, exact averages."""

from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrac.bloch import BlochVector, uniform_directions
from qrac.classical import BitString, optimal_classical_probability
from qrac.codes import (
    MAX_EVALUATE,
    NEUTRAL_CUTOFF,
    NEUTRAL_FALLBACK,
    _CHUNK,
    CodeReport,
    QracCode,
    classical_comparison_scan,
    evaluate,
    optimal_code,
    optimal_encoding,
    parallelogram_check,
    s_value,
    sign_matrix,
    upper_bound,
)
from qrac.constructions import construction_names, known_code
from qrac.errors import CostLimitError
from helpers import random_measurements, reference_evaluate, signed_direction_sum

X = BlochVector(1.0, 0.0, 0.0)
Y = BlochVector(0.0, 1.0, 0.0)
Z = BlochVector(0.0, 0.0, 1.0)
XYZ = np.eye(3)  # the same three directions as rows


def test_sign_matrix_matches_bit_expansion():
    mat = sign_matrix(3)
    assert mat.shape == (8, 3)
    for index in range(8):
        for pos in range(3):
            bit = (index >> pos) & 1
            assert mat[index, pos] == (1.0 if bit == 0 else -1.0)


def test_sign_matrix_chunk_slicing():
    full = sign_matrix(4)
    assert np.array_equal(full[5:11], sign_matrix(4, start=5, stop=11))


def test_signed_direction_sum_examples():
    zero = BitString.from_text("0")
    assert signed_direction_sum(XYZ[2:], zero) == pytest.approx([0.0, 0.0, 1.0])
    v = signed_direction_sum(XYZ[:2], BitString.from_text("00"))
    assert v == pytest.approx([1.0, 1.0, 0.0])
    v = signed_direction_sum(XYZ[:2], BitString.from_text("10"))
    assert v == pytest.approx([-1.0, 1.0, 0.0])


def test_optimal_encoding_two_axes():
    enc = optimal_encoding((X, Y))
    assert enc[BitString.from_text("00").index] == pytest.approx(
        np.array([1.0, 1.0, 0.0]) / math.sqrt(2)
    )
    assert enc[BitString.from_text("11").index] == pytest.approx(
        np.array([-1.0, -1.0, 0.0]) / math.sqrt(2)
    )
    assert enc.shape == (4, 3)
    assert not enc.flags.writeable


def test_optimal_encoding_three_axes_hits_cube_corners():
    enc = optimal_encoding((X, Y, Z))
    for bits in itertools.product((0, 1), repeat=3):
        s = BitString(bits)
        expected = np.array([1.0 - 2 * b for b in bits]) / math.sqrt(3)
        assert enc[s.index] == pytest.approx(expected, abs=1e-12)


def test_neutral_string_gets_fallback_vector():
    # two antipodal measurement pairs cancel for half the strings
    ms = (X, X, Y, Y)
    neutrals = evaluate(optimal_code(ms)).neutral_strings
    assert BitString.from_text("0101") in neutrals
    enc = optimal_encoding(ms)
    assert np.array_equal(enc[BitString.from_text("0101").index], np.asarray(NEUTRAL_FALLBACK))


def test_s_value_single_measurement():
    assert s_value((Z,)) == pytest.approx(2.0)


def test_s_value_two_orthogonal_axes():
    assert s_value((X, Y)) == pytest.approx(4 * math.sqrt(2), abs=1e-12)


def test_s_value_cost_guard():
    ms = tuple(Z for _ in range(25))
    with pytest.raises(CostLimitError):
        s_value(ms)


def test_every_enumeration_shares_the_cost_guard():
    ms = tuple(Z for _ in range(25))
    for enumerate_patterns in (optimal_code, optimal_encoding):
        with pytest.raises(CostLimitError):
            enumerate_patterns(ms)
    with pytest.raises(CostLimitError):
        classical_comparison_scan([25], 1)


def test_evaluate_cost_guard_states_matrix_bytes(rng):
    n = MAX_EVALUATE + 1
    code = optimal_code(random_measurements(n, rng))
    with pytest.raises(CostLimitError, match=f"{8 * n * 2**n} bytes"):
        evaluate(code)


def test_s_value_cauchy_schwarz_cap(rng):
    # sum of 2^n vector norms is at most sqrt(n) * 2^n
    for _ in range(200):
        n = int(rng.integers(1, 11))
        ms = random_measurements(n, rng)
        assert s_value(ms) <= math.sqrt(n) * (1 << n) + 1e-9


def test_s_value_rotation_invariant(rng):
    from scipy.spatial.transform import Rotation

    for _ in range(20):
        n = int(rng.integers(2, 7))
        ms = random_measurements(n, rng)
        rot = Rotation.from_rotvec(rng.normal(size=3)).as_matrix()
        rotated = tuple(BlochVector.normalized(*(rot @ np.asarray(m))) for m in ms)
        assert s_value(rotated) == pytest.approx(s_value(ms), abs=1e-9)


def test_evaluate_two_orthogonal_axes_is_uniform():
    report = evaluate(optimal_code((X, Y)))
    expected = 0.5 + 1 / (2 * math.sqrt(2))
    assert report.average == pytest.approx(expected, abs=1e-12)
    assert report.worst_case == pytest.approx(expected, abs=1e-12)
    assert report.randomized_worst_case == report.average


def test_evaluate_three_orthogonal_axes():
    report = evaluate(optimal_code((X, Y, Z)))
    assert report.average == pytest.approx(0.5 + 1 / (2 * math.sqrt(3)), abs=1e-12)
    assert report.worst_case == pytest.approx(report.average, abs=1e-12)


def test_evaluate_repeated_axis():
    # all three bits stored along the same axis: majority rules, and the
    # out-voted position is answered wrongly with certainty
    report = evaluate(optimal_code((Z, Z, Z)))
    assert report.average == pytest.approx(0.75, abs=1e-12)
    assert report.worst_case == pytest.approx(0.0, abs=1e-12)


def test_report_accessors():
    report = evaluate(optimal_code((X, Y)))
    assert isinstance(report, CodeReport)
    assert report.per_input.shape == (4, 2)
    assert not report.per_input.flags.writeable
    assert report.average == pytest.approx(float(report.per_input.mean()), abs=1e-12)


def _scored_codes(rng):
    """The named constructions, then optimal and random-encoding codes for n = 1..18."""
    for name in construction_names():
        yield known_code(name)
    for n in range(1, MAX_EVALUATE + 1):
        code = optimal_code(random_measurements(n, rng))
        yield code
        yield QracCode(code.measurements, uniform_directions(1 << n, rng))


def test_evaluate_matches_dense_reference(rng):
    # the block sums, added as a tree, must give per_input.mean() exactly; the
    # top n span several _CHUNK-row blocks, so the tree is exercised
    assert (1 << MAX_EVALUATE) // _CHUNK == 4
    for code in _scored_codes(rng):
        per_input, average, worst_case, s, neutral = reference_evaluate(code)
        report = evaluate(code)
        assert report.average == average, code.n
        assert report.worst_case == worst_case, code.n
        assert report.s_value == s, code.n
        assert report.neutral_strings == neutral, code.n
        assert np.array_equal(report.per_input, per_input), code.n


def test_evaluate_never_holds_the_whole_table(rng):
    n = MAX_EVALUATE
    code = optimal_code(random_measurements(n, rng))
    tracemalloc.start()
    try:
        evaluate(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one (2^n, n) float64 table is 37.7 MB; the dense scoring peaked at 77.7 MB
    assert peak < 8 * n << n


def test_per_input_is_built_on_first_read_and_kept():
    report = evaluate(known_code("qrac3"))
    assert "per_input" not in vars(report)
    table = report.per_input
    assert table.shape == (8, 3)
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 0.0
    assert report.per_input is table


def test_average_matches_norm_sum_identity(rng):
    # average success = (1 + s/(n 2^n))/2 whenever encodings are optimal
    for _ in range(50):
        n = int(rng.integers(1, 9))
        ms = random_measurements(n, rng)
        report = evaluate(optimal_code(ms))
        predicted = 0.5 * (1.0 + s_value(ms) / (n * (1 << n)))
        assert report.average == pytest.approx(predicted, abs=1e-10)


def test_qrac_code_validation():
    enc = optimal_encoding((X, Y))
    with pytest.raises(ValueError, match="encodings must be 2 unit 3-vectors"):
        QracCode(measurements=XYZ[:1], encodings=enc)  # too many rows
    with pytest.raises(ValueError, match="encodings must be 8 unit 3-vectors"):
        QracCode(measurements=XYZ, encodings=enc)
    with pytest.raises(ValueError):
        QracCode(measurements=XYZ[:2], encodings=enc[:, :2])  # wrong width
    with pytest.raises(ValueError, match="need at least one measurement"):
        QracCode(measurements=XYZ[:0], encodings=enc[:1])
    with pytest.raises(ValueError, match="measurements must be 2 unit 3-vectors"):
        QracCode(measurements=XYZ[:2, :2], encodings=enc)  # wrong width
    for bad_row in ([1.0 + 1e-9, 0, 0], [0, 0, 0], [math.nan, 0, 0], [math.inf, 0, 0]):
        bad = enc.copy()
        bad[2] = bad_row
        with pytest.raises(ValueError, match="encodings must be"):
            QracCode(measurements=XYZ[:2], encodings=bad)
        bad = XYZ[:2].copy()
        bad[1] = bad_row
        with pytest.raises(ValueError, match="measurements must be"):
            QracCode(measurements=bad, encodings=enc)
    within = enc.copy()
    within[2] *= 1.0 + 5e-13  # inside UNIT_TOLERANCE
    assert np.array_equal(QracCode(measurements=XYZ[:2], encodings=within).encodings, within)
    within = XYZ[:2] * (1.0 + 5e-13)
    assert np.array_equal(QracCode(measurements=within, encodings=enc).measurements, within)


def test_code_copies_its_encodings_and_is_read_only():
    rows = np.array(optimal_encoding((X, Y)))
    dirs = XYZ[:2].copy()
    code = QracCode(measurements=dirs, encodings=rows)
    rows[0] = (0.0, 0.0, 1.0)
    dirs[0] = (0.0, 0.0, 1.0)
    assert np.array_equal(code.encodings, optimal_encoding((X, Y)))
    assert np.array_equal(code.measurements, XYZ[:2])
    for array in (code.encodings, code.measurements):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0, 0] = 1.0
    from_list = QracCode(measurements=dirs.tolist(), encodings=rows.tolist())
    assert np.array_equal(from_list.encodings, rows)
    assert np.array_equal(from_list.measurements, dirs)


def test_code_arrays_are_index_ordered():
    code = optimal_code((X, Y))
    arr = code.encodings
    assert arr.shape == (4, 3)
    for index in range(4):
        s = BitString.from_index(index, 2)
        expected = signed_direction_sum(XYZ[:2], s) / math.sqrt(2)
        assert arr[index] == pytest.approx(expected, abs=1e-15)


def test_upper_bound_values():
    assert upper_bound(1) == pytest.approx(1.0)
    assert upper_bound(2) == pytest.approx(0.5 + 1 / (2 * math.sqrt(2)))
    assert upper_bound(4) == pytest.approx(0.75)
    with pytest.raises(ValueError):
        upper_bound(0)


def test_every_average_respects_upper_bound(rng):
    for _ in range(100):
        n = int(rng.integers(1, 9))
        report = evaluate(optimal_code(random_measurements(n, rng)))
        assert report.worst_case <= report.average + 1e-12
        assert report.average <= upper_bound(n) + 1e-12


def test_optimal_encoding_beats_random_encodings(rng):
    # replacing the aligned encodings by random unit vectors can only lose
    for n in range(2, 7):
        code = optimal_code(random_measurements(n, rng))
        best = evaluate(code).average
        for _ in range(40):
            rows = uniform_directions(1 << n, rng)
            other = evaluate(QracCode(measurements=code.measurements, encodings=rows)).average
            assert other <= best + 1e-12


def test_parallelogram_identity(rng):
    assert parallelogram_check((Z,))
    for _ in range(50):
        n = int(rng.integers(1, 11))
        assert parallelogram_check(random_measurements(n, rng))


def test_parallelogram_cost_guard():
    ms = tuple(Z for _ in range(21))
    with pytest.raises(CostLimitError):
        parallelogram_check(ms)


def test_comparison_scan_finds_no_violations():
    violations = classical_comparison_scan(range(2, 5), sets_per_n=60, seed=11)
    assert violations == []


def test_comparison_scan_reports_tuples_shape():
    # scan output rows are (n, set index, quantum average, classical optimum)
    violations = classical_comparison_scan([2], sets_per_n=5, seed=0)
    for row in violations:
        assert len(row) == 4


def test_comparison_scan_classical_reference():
    assert float(optimal_classical_probability(3)) == 0.75


# ------------------------------------------- sign-pattern kernel equivalence


@st.composite
def direction_sets(draw) -> tuple[BlochVector, ...]:
    """1..10 directions: random, coordinate axes, repeats and antipodes of earlier ones.

    Repeats and antipodes make signed sums cancel, so neutral strings and
    their complements occur; axes put exact zeros into the sums.
    """
    n = draw(st.integers(min_value=1, max_value=10))
    fresh = uniform_directions(n, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    rows: list[np.ndarray] = []
    for i in range(n):
        kinds = ("fresh", "axis", "repeat", "antipode") if i else ("fresh", "axis")
        kind = draw(st.sampled_from(kinds))
        if kind == "fresh":
            rows.append(fresh[i])
        elif kind == "axis":
            rows.append(np.eye(3)[draw(st.integers(0, 2))])
        else:
            earlier = rows[draw(st.integers(0, i - 1))]
            rows.append(earlier if kind == "repeat" else -earlier)
    return tuple(BlochVector.from_array(row) for row in rows)


def _per_string_reference(ms):
    """Encodings, neutral strings and norm sum, one input string at a time."""
    n = len(ms)
    dirs = np.array([np.asarray(m) for m in ms])
    points, neutral, total = [], [], 0.0
    for index in range(1 << n):
        x = BitString.from_index(index, n)
        v = signed_direction_sum(dirs, x)
        norm = math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
        total += norm
        if norm < NEUTRAL_CUTOFF:
            neutral.append(x)
            points.append(np.asarray(NEUTRAL_FALLBACK))
        else:
            points.append(v / norm)
    return np.array(points), tuple(neutral), total


@settings(max_examples=150, deadline=None)
@given(ms=direction_sets())
def test_kernel_matches_per_string_reference(ms):
    points, neutral, total = _per_string_reference(ms)
    code = optimal_code(ms)
    assert code.encodings.tobytes() == points.tobytes()  # bit-equal, signed zeros too
    assert optimal_encoding(ms).tobytes() == points.tobytes()
    assert s_value(ms) == pytest.approx(total, rel=1e-12)
    report = evaluate(code)
    assert report.neutral_strings == neutral
    assert report.s_value == s_value(ms)
