"""Code evaluation: signed sums, optimal encodings, exact averages."""

from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrac import codes
from qrac.bloch import BlochVector, uniform_directions
from qrac.classical import optimal_classical_probability
from qrac.codes import (
    MAX_EVALUATE,
    MAX_SIGN_ENUMERATION,
    NEUTRAL_CUTOFF,
    NEUTRAL_FALLBACK,
    _CHUNK,
    CodeReport,
    QracCode,
    bit_text,
    classical_comparison_scan,
    evaluate,
    optimal_code,
    parallelogram_check,
    s_value,
    upper_bound,
)
from qrac.constructions import construction_names, known_code, known_construction
from qrac.errors import CostLimitError
from helpers import (
    random_measurements,
    reference_evaluate,
    reference_signed_sums,
    sign_matrix,
    signed_direction_sum,
)

X = BlochVector(1.0, 0.0, 0.0)
Y = BlochVector(0.0, 1.0, 0.0)
Z = BlochVector(0.0, 0.0, 1.0)
XYZ = np.eye(3)  # the same three directions as rows


def test_sign_matrix_matches_bit_expansion():
    for mat in (sign_matrix(3), codes._sign_rows(3, 8), codes._SEED_SIGNS[:8, :3]):
        assert mat.shape == (8, 3)
        for index in range(8):
            for pos in range(3):
                bit = (index >> pos) & 1
                assert mat[index, pos] == (1.0 if bit == 0 else -1.0)
    assert not codes._SEED_SIGNS.flags.writeable


def test_sign_matrix_chunk_slicing():
    full = sign_matrix(4)
    assert np.array_equal(full[5:11], sign_matrix(4, start=5, stop=11))
    assert np.array_equal(full[:11], codes._sign_rows(4, 11))
    assert np.array_equal(full[4::4], codes._sign_rows(4, 16, 4, 4))


def _kernel_direction_sets(rng, top):
    """Named sets, axis sets with signed zeros and cancellations, random sets at n = 1..top."""
    x, y, z = np.eye(3)
    for name in construction_names():
        yield known_construction(name).measurements
    yield from (np.eye(3), np.array([x, y, z] * 3), np.array([x, -x, y, -y, z, -z]))
    yield np.array([x, -x, y, -y, z, -z, x, y, -z, z])
    for n in range(1, top + 1):
        yield uniform_directions(n, rng)


def _assert_signed_sums_match_dense_product(dirs):
    half, seen = 1 << (len(dirs) - 1), 0
    for start, sums, norms in codes._signed_sums(dirs):
        reference = reference_signed_sums(dirs, start, start + len(norms))
        assert start == seen, len(dirs)
        assert sums.shape == (3, len(norms)), len(dirs)
        # signed zeros too
        assert np.ascontiguousarray(sums.T).tobytes() == reference.tobytes(), (len(dirs), start)
        assert norms.tobytes() == codes._norms(reference).tobytes(), (len(dirs), start)
        seen += len(norms)
    assert seen == half


def _assert_cells_match_dense_product(code):
    for start, block in codes._cell_probabilities(code):
        stop = start + len(block)
        dots = code.encodings[start:stop] @ code.measurements.T
        reference = 0.5 * (1.0 + sign_matrix(code.n, start, stop) * dots)
        np.clip(reference, 0.0, 1.0, out=reference)
        assert block.tobytes() == reference.tobytes(), (code.n, start)


def test_signed_sums_match_dense_product(rng):
    # the seed product, the doubling from bit 8 on and the high-bit adds of
    # n = 18's two blocks must sum every S_x in the dense product's order
    assert (1 << 17) // _CHUNK == 2 and codes._SEED_BITS == 8
    for dirs in _kernel_direction_sets(rng, MAX_EVALUATE):
        _assert_signed_sums_match_dense_product(dirs)


@pytest.mark.parametrize("chunk", [4, 16])
@pytest.mark.parametrize("seed_bits", [2, 8])
def test_small_blocks_reach_every_kernel_path(monkeypatch, rng, chunk, seed_bits):
    # small blocks and a short seed reach the doubling, the high-bit adds and
    # the per-cycle sign rows at small n
    monkeypatch.setattr(codes, "_CHUNK", chunk)
    monkeypatch.setattr(codes, "_SEED_BITS", seed_bits)
    for dirs in _kernel_direction_sets(rng, 9):
        _assert_signed_sums_match_dense_product(dirs)
        _assert_cells_match_dense_product(optimal_code(dirs))
        _assert_cells_match_dense_product(QracCode(dirs, uniform_directions(1 << len(dirs), rng)))
    # axis directions and +-axis encodings: every dot is exactly 0 or +-1, and the
    # signs make some zeros -0.0, so the folded 0.5 must give cells of exactly 0, 0.5 and 1
    axes = np.vstack([np.eye(3), -np.eye(3)])
    for n in (1, 3, 6, 9):
        code = QracCode(axes[rng.integers(6, size=n)], axes[rng.integers(6, size=1 << n)])
        _assert_cells_match_dense_product(code)
        assert set(np.unique(code.encodings @ code.measurements.T)) <= {-1.0, 0.0, 1.0}


def test_signed_direction_sum_examples():
    assert signed_direction_sum(XYZ[2:], "0") == pytest.approx([0.0, 0.0, 1.0])
    v = signed_direction_sum(XYZ[:2], "00")
    assert v == pytest.approx([1.0, 1.0, 0.0])
    v = signed_direction_sum(XYZ[:2], "10")
    assert v == pytest.approx([-1.0, 1.0, 0.0])


def test_optimal_encoding_two_axes():
    enc = optimal_code((X, Y)).encodings
    assert enc[0b00] == pytest.approx(np.array([1.0, 1.0, 0.0]) / math.sqrt(2))
    assert enc[0b11] == pytest.approx(np.array([-1.0, -1.0, 0.0]) / math.sqrt(2))
    assert enc.shape == (4, 3)
    assert not enc.flags.writeable


def test_optimal_encoding_three_axes_hits_cube_corners():
    enc = optimal_code((X, Y, Z)).encodings
    for bits in itertools.product((0, 1), repeat=3):
        index = bits[0] | bits[1] << 1 | bits[2] << 2  # x1 is bit 0
        expected = np.array([1.0 - 2 * b for b in bits]) / math.sqrt(3)
        assert enc[index] == pytest.approx(expected, abs=1e-12)


def test_neutral_string_gets_fallback_vector():
    # two antipodal measurement pairs cancel for half the strings
    ms = (X, X, Y, Y)
    neutrals = evaluate(optimal_code(ms)).neutral_strings
    assert "0101" in neutrals
    enc = optimal_code(ms).encodings
    assert np.array_equal(enc[0b1010], np.asarray(NEUTRAL_FALLBACK))  # x2, x4: bits 1, 3


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
    with pytest.raises(CostLimitError):
        optimal_code(ms)
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


def _random_rotation(rng: np.random.Generator) -> np.ndarray:
    """A uniform rotation: QR of a Gaussian 3x3, column signs fixed, det = +1."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.where(np.diag(r) < 0.0, -1.0, 1.0)
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def test_s_value_rotation_invariant(rng):
    for _ in range(20):
        n = int(rng.integers(2, 7))
        ms = random_measurements(n, rng)
        rot = _random_rotation(rng)
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


def test_n18_kernels_stay_within_measured_memory(rng):
    # tracemalloc peaks with the doubling and one scoring buffer: 6.0, 6.0,
    # 13.6 and 9.2 MiB; the dense sign table made them 20.6, 20.6, 28.1, 27.6
    dirs = uniform_directions(MAX_EVALUATE, rng)
    code = optimal_code(dirs)
    bounds = [
        (s_value, dirs, 8),
        (parallelogram_check, dirs, 8),
        (optimal_code, dirs, 16),
        (evaluate, code, 12),
    ]
    for kernel, argument, mib in bounds:
        tracemalloc.start()
        try:
            kernel(argument)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < mib << 20, (kernel.__name__, peak)


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
    enc = optimal_code((X, Y)).encodings
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
    rows = np.array(optimal_code((X, Y)).encodings)
    dirs = XYZ[:2].copy()
    code = QracCode(measurements=dirs, encodings=rows)
    rows[0] = (0.0, 0.0, 1.0)
    dirs[0] = (0.0, 0.0, 1.0)
    assert np.array_equal(code.encodings, optimal_code((X, Y)).encodings)
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
        expected = signed_direction_sum(XYZ[:2], bit_text(index, 2)) / math.sqrt(2)
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


def test_parallelogram_cost_guard(rng):
    # one kernel pass, as s_value: the kernel's guard is the only one
    assert parallelogram_check(uniform_directions(21, rng))
    ms = tuple(Z for _ in range(MAX_SIGN_ENUMERATION + 1))
    with pytest.raises(CostLimitError) as info:
        parallelogram_check(ms)
    assert str(info.value) == (
        "sign-pattern enumeration visits 2**(n-1) signed sums; n = 25 exceeds the limit 24"
    )


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
        x = bit_text(index, n)
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
    assert s_value(ms) == pytest.approx(total, rel=1e-12)
    report = evaluate(code)
    assert report.neutral_strings == neutral
    assert report.s_value == s_value(ms)
