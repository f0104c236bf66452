"""Command-line behaviors: output formats, exit codes, JSON round trips."""

from __future__ import annotations

import gc
import json
import math
import re

import numpy as np
import pytest

from qrac import cli
from qrac.bloch import BlochVector
from qrac.cli import (
    SCHEMA_VERSION,
    _circles_from_file,
    code_document,
    code_from_document,
    main,
)
from qrac.codes import QracCode, evaluate, optimal_code
from qrac.constructions import MAX_CIRCLES, construction_names, known_code, known_construction

from helpers import random_measurements, reference_json_unit_vector


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------- classical


def test_classical_exact(capsys):
    code, out, _ = run(capsys, "classical", "--n", "3", "--exact")
    assert code == 0
    assert out.strip() == "3/4"


def test_classical_exact_refuses_more_digits_than_int_to_str_allows(capsys):
    code, out, err = run(capsys, "classical", "--n", "20000", "--exact")
    assert code == 3
    assert out == ""
    assert "6020-digit denominator" in err
    code, out, _ = run(capsys, "classical", "--n", "14000", "--exact")  # 4213 digits: printed
    assert code == 0
    assert len(out.strip().split("/")[1]) == 4213


def test_classical_cost_guard_exit_code(capsys):
    code, out, err = run(capsys, "classical", "--n", "4000000")
    assert code == 3
    assert out == ""
    assert "bits; n = 4000000 exceeds the limit 1000000" in err


def test_classical_single_bit(capsys):
    code, out, _ = run(capsys, "classical", "--n", "1")
    assert code == 0
    fields = out.strip().split("\t")
    assert fields[0] == "1"
    assert fields[2] == "-" and fields[3] == "-"


def test_classical_table_row(capsys):
    code, out, _ = run(capsys, "classical", "--n", "4")
    assert code == 0
    fields = out.strip().split("\t")
    assert fields[0] == "0.6875"
    assert float(fields[2]) < 0.6875 < float(fields[3])


def test_classical_rejects_bad_n(capsys):
    code, _, err = run(capsys, "classical", "--n", "0")
    assert code == 2
    assert "error:" in err


# --------------------------------------------------------------------- bound


def test_bound_upper(capsys):
    code, out, _ = run(capsys, "bound", "--kind", "upper", "--n", "4")
    assert code == 0
    assert out.strip() == "0.75"


def test_bound_orthogonal(capsys):
    code, out, _ = run(capsys, "bound", "--kind", "orthogonal", "--n", "6")
    assert code == 0
    assert out.strip() == "0.686973 (2,2,2)"
    # the largest n the lattice walk's guard admits
    code, out, _ = run(capsys, "bound", "--kind", "orthogonal", "--n", "60")
    assert (code, out) == (0, "0.559596 (20,20,20)\n")


def test_bound_random_asymptotic(capsys):
    code, out, err = run(capsys, "bound", "--kind", "random-asymptotic", "--n", "3")
    assert code == 0
    assert out.strip() == "0.765962"
    assert "approximation" in err  # small-n caveat goes to stderr
    code, _, err = run(capsys, "bound", "--kind", "random-asymptotic", "--n", "5")
    assert code == 0
    assert err == ""
    # an invalid n is refused before the small-n note is printed
    code, out, err = run(capsys, "bound", "--kind", "random-asymptotic", "--n", "0")
    assert code == 2
    assert out == "" and err == "error: n must be at least 1, got 0\n"


def test_bound_validation_exit_code(capsys):
    code, _, err = run(capsys, "bound", "--kind", "orthogonal", "--n", "61")
    assert code == 3
    assert "error:" in err and "exceeds the limit 60" in err
    code, _, err = run(capsys, "bound", "--kind", "orthogonal", "--n", "0")
    assert code == 2
    assert err == "error: n must be at least 1, got 0\n"


# ---------------------------------------------------------------------- code


def test_code_show_qrac3(capsys):
    code, out, _ = run(capsys, "code", "show", "--name", "qrac3")
    assert code == 0
    assert "average: 0.788675" in out
    assert "worst_case: 0.788675" in out
    assert "neutral_strings: (none)" in out


def test_code_show_sym4(capsys):
    code, out, _ = run(capsys, "code", "show", "--name", "sym4")
    assert code == 0
    assert "average: 0.733253" in out
    assert out.splitlines()[-1] == "neutral_strings: 0000, 1111"  # as text, x1 leftmost


def test_code_show_unknown_name(capsys):
    code, _, _ = run(capsys, "code", "show", "--name", "qrac7")
    assert code == 2  # argparse choice failure


def test_code_round_trip_identical_report(capsys, tmp_path):
    for name in ("qrac5", "sym4"):  # sym4 has neutral strings
        path = tmp_path / f"{name}.json"
        code, show_out, _ = run(capsys, "code", "show", "--name", name, "--json", str(path))
        assert code == 0
        code, eval_out, _ = run(capsys, "code", "eval", "--json", str(path))
        assert code == 0
        assert eval_out == show_out


def test_round_trip_preserves_vectors_bitwise(tmp_path):
    original = known_code("qrac6")
    document = code_document(original, name="qrac6")
    rebuilt, metadata = code_from_document(json.loads(json.dumps(document)))
    assert metadata["name"] == "qrac6"
    assert np.array_equal(original.measurements, rebuilt.measurements)
    assert np.array_equal(original.encodings, rebuilt.encodings)
    before = evaluate(original)
    after = evaluate(rebuilt)
    assert before.average == after.average  # bitwise, not approx
    assert np.array_equal(before.per_input, after.per_input)


def test_document_schema_fields(tmp_path, capsys):
    path = tmp_path / "qrac2.json"
    run(capsys, "code", "show", "--name", "qrac2", "--json", str(path))
    document = json.loads(path.read_text())
    assert document["schema_version"] == SCHEMA_VERSION
    assert document["n"] == 2
    assert len(document["measurements"]) == 2
    assert list(document["encodings"]) == ["00", "10", "01", "11"]
    assert document["metadata"]["name"] == "qrac2"
    assert document["metadata"]["expected_probability"] == pytest.approx(
        known_construction("qrac2").expected_probability
    )


def test_eval_renormalizes_slightly_off_vectors(tmp_path, capsys):
    path = tmp_path / "code.json"
    document = code_document(known_code("qrac2"))
    document["measurements"][0] = [c * (1 + 5e-10) for c in document["measurements"][0]]
    path.write_text(json.dumps(document))
    code, out, _ = run(capsys, "code", "eval", "--json", str(path))
    assert code == 0
    assert "average: 0.853553" in out


def test_eval_rejects_far_from_unit_vectors(tmp_path, capsys):
    path = tmp_path / "code.json"
    document = code_document(known_code("qrac2"))
    document["measurements"][0] = [c * 1.001 for c in document["measurements"][0]]
    path.write_text(json.dumps(document))
    code, _, err = run(capsys, "code", "eval", "--json", str(path))
    assert code == 2
    assert "norm" in err


def test_eval_rejects_wrong_schema_version(tmp_path, capsys):
    path = tmp_path / "code.json"
    document = code_document(known_code("qrac2"))
    document["schema_version"] = 99
    path.write_text(json.dumps(document))
    code, _, err = run(capsys, "code", "eval", "--json", str(path))
    assert code == 2
    assert "schema_version" in err


def test_eval_rejects_boolean_schema_version(tmp_path, capsys):
    path = tmp_path / "code.json"
    document = code_document(known_code("qrac2"))
    for version in (True, 1.0):  # each equal to 1 in Python, so once accepted
        document["schema_version"] = version
        path.write_text(json.dumps(document))
        code, _, err = run(capsys, "code", "eval", "--json", str(path))
        assert code == 2
        assert f"unsupported schema_version {version}, expected 1" in err


def test_eval_rejects_boolean_n(tmp_path, capsys):
    # a valid one-bit document, except that n is the JSON literal true
    path = tmp_path / "code.json"
    document = code_document(optimal_code((BlochVector(0.0, 0.0, 1.0),)))
    document["n"] = True
    path.write_text(json.dumps(document))
    code, _, err = run(capsys, "code", "eval", "--json", str(path))
    assert code == 2
    assert "n must be a positive integer" in err


@pytest.mark.parametrize("metadata", [[], 0, False, "", [1], "x"])
def test_eval_rejects_non_object_metadata(tmp_path, capsys, metadata):
    # the falsy ones once loaded as {}
    path = tmp_path / "code.json"
    document = code_document(known_code("qrac2"), name="qrac2")
    document["metadata"] = metadata
    path.write_text(json.dumps(document))
    code, out, err = run(capsys, "code", "eval", "--json", str(path))
    assert (code, out) == (2, "")
    assert err == "error: metadata must be a JSON object\n"


@pytest.mark.parametrize("metadata", [None, "missing", {"name": None}])
def test_eval_reads_null_or_missing_metadata_as_none(tmp_path, capsys, metadata):
    path = tmp_path / "code.json"
    document = code_document(known_code("qrac2"))
    if metadata != "missing":
        document["metadata"] = metadata
    path.write_text(json.dumps(document))
    code, out, _ = run(capsys, "code", "eval", "--json", str(path))
    assert code == 0
    assert out.startswith("name: -\n")


@pytest.mark.parametrize("name", [0, ["a"], {"a": 1}, True, 1.5])
def test_eval_rejects_a_name_that_is_not_a_string(tmp_path, capsys, name):
    path = tmp_path / "code.json"
    document = code_document(known_code("qrac2"))
    document["metadata"] = {"name": name}
    path.write_text(json.dumps(document))
    code, out, err = run(capsys, "code", "eval", "--json", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: metadata name must be a string or null, got {name!r}\n"


#: Keys that are not 2-bit strings, among them three a careless array parse would take:
#: numpy "U" arrays drop a trailing NUL, int() reads a full-width digit, and a lone
#: surrogate makes a strict ASCII encode raise its own error instead of naming the key.
MALFORMED_KEYS = {
    "wrong-char": "0x",
    "short": "0",
    "long": "011",
    "empty": "",
    "full-width-digit": "\uff101",
    "trailing-nul": "01\x00",
    "lone-surrogate": "\ud800",
}


@pytest.mark.parametrize("key", list(MALFORMED_KEYS.values()), ids=list(MALFORMED_KEYS))
def test_eval_rejects_malformed_encoding_key(tmp_path, capsys, key):
    path = tmp_path / "code.json"
    document = code_document(known_code("qrac2"))
    document["encodings"][key] = document["encodings"].pop("11")
    path.write_text(json.dumps(document))
    code, out, err = run(capsys, "code", "eval", "--json", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: encoding key {key!r} is not a string of 2 bits\n"


def test_key_order_does_not_change_the_loaded_code():
    rng = np.random.default_rng(5)
    documents = [code_document(optimal_code(random_measurements(n, rng))) for n in range(1, 9)]
    documents += [code_document(known_code(name)) for name in construction_names()]
    for document in documents:
        canonical = code_from_document(document)[0].encodings.tobytes()
        keys = list(document["encodings"])
        shuffled = [keys[i] for i in rng.permutation(len(keys))]
        for order in (keys[::-1], shuffled):
            encodings = {key: document["encodings"][key] for key in order}
            code, _ = code_from_document(json.loads(json.dumps({**document, "encodings": encodings})))
            assert code.encodings.tobytes() == canonical, document["n"]


def test_encoding_rows_load_as_one_at_a_time(rng, tmp_path):
    # the array reader keeps, renormalizes and rejects rows exactly as the scalar rule does
    document = code_document(optimal_code(random_measurements(7, rng)))
    scales = (1 + 4e-13, 1 - 6e-10, 1 + 3e-11) * 5
    for key, scale in zip(list(document["encodings"])[::9], scales):
        document["encodings"][key] = [c * scale for c in document["encodings"][key]]
    document["measurements"] = [[c * s for c in row] for row, s in zip(document["measurements"], scales)]
    expected = np.empty((1 << 7, 3))
    for key, raw in document["encodings"].items():
        expected[int(key[::-1], 2)] = reference_json_unit_vector(raw)
    code, _ = code_from_document(json.loads(json.dumps(document)))
    assert np.array_equal(code.encodings, expected)
    measurements = [reference_json_unit_vector(raw) for raw in document["measurements"]]
    assert code.measurements.tobytes() == np.array(measurements).tobytes()
    # the loader skips QracCode's norm check: the rows it builds pass it, and are read-only
    assert QracCode(code.measurements, code.encodings).encodings.tobytes() == code.encodings.tobytes()
    assert not (code.measurements.flags.writeable or code.encodings.flags.writeable)
    # circle normals of any length are divided by it, as BlochVector.normalized divides one
    normals = (rng.standard_normal((40, 3)) * rng.uniform(1e-11, 1e3, (40, 1))).tolist()
    path = tmp_path / "circles.json"
    path.write_text(json.dumps(normals))
    expected = np.array([BlochVector.normalized(*row) for row in normals])
    assert _circles_from_file(str(path)).tobytes() == expected.tobytes()


def test_eval_names_the_first_bad_encoding(tmp_path, capsys):
    path = tmp_path / "code.json"
    document = code_document(known_code("qrac3"))
    document["encodings"]["110"] = [2.0, 0.0, 0.0]
    document["encodings"]["011"] = [0.0, 1.0]
    path.write_text(json.dumps(document))
    code, _, err = run(capsys, "code", "eval", "--json", str(path))
    assert code == 2
    assert "encoding '110': vector norm 2.0 is too far from 1" in err


def test_load_errors_keep_document_order(capsys, tmp_path):
    # keys and rows are checked in one pass: whichever bad entry comes first is named
    document = code_document(known_code("qrac3"))
    encodings = document["encodings"]
    encodings["010"] = [0.0, 0.0, 2.0]
    encodings["1x1"] = encodings.pop("111")
    with pytest.raises(ValueError, match="encoding '010': vector norm"):
        code_from_document(document)
    document["encodings"] = {"1x1": encodings.pop("1x1"), **encodings}
    with pytest.raises(ValueError, match="encoding key '1x1'"):
        code_from_document(document)
    # a norm too far from 1 and a row that is not a 3-vector: the first in the list is named
    far, far_error = [0.0, 0.0, 2.0], "vector norm 2.0 is too far from 1"
    for other in ([0.0, None, 1.0], [0.0, True, 1.0]):
        other_error = f"expected a 3-vector, got {other!r}"
        for first, second, error in ((far, other, far_error), (other, far, other_error)):
            document = code_document(known_code("qrac3"))
            document["measurements"][1:] = [first, second]
            with pytest.raises(ValueError, match=f"^measurement 2: {re.escape(error)}$"):
                code_from_document(document)
            document = code_document(known_code("qrac3"))
            document["encodings"].update({"100": first, "010": second})
            with pytest.raises(ValueError, match=f"^encoding '100': {re.escape(error)}$"):
                code_from_document(document)
    # the same for circles: a zero-length circle and one holding true
    path = tmp_path / "circles.json"
    zero, boolean = [0, 0, 0], [0, 0, True]
    for circles, error in (
        ([zero, boolean], "cannot normalize a vector of length 0.0"),
        ([boolean, zero], "expected a 3-vector, got [0, 0, True]"),
    ):
        path.write_text(json.dumps([[1, 0, 0], *circles]))
        assert run(capsys, "regions", "--circles", str(path)) == (2, "", f"error: circle 2: {error}\n")


def test_eval_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "code", "eval", "--json", str(tmp_path / "nope.json"))
    assert code == 2
    assert "error:" in err


def test_eval_malformed_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "code", "eval", "--json", str(path))
    assert code == 2


CIRCLES_SHAPE = "expected a JSON array of 3-vectors (or an object with a 'circles' array)"

#: JSON of a shape the loaders refuse before they read a row: (reader, document, error)
WRONG_SHAPES = {
    "document-not-object": ("code", [], "code document must be a JSON object"),
    "one-measurement-for-n-2": (
        "code",
        {"schema_version": SCHEMA_VERSION, "n": 2, "measurements": [[0, 0, 1]]},
        "expected 2 measurement vectors",
    ),
    "one-encoding-for-n-1": (
        "code",
        {
            "schema_version": SCHEMA_VERSION,
            "n": 1,
            "measurements": [[0, 0, 1]],
            "encodings": {"0": [0, 0, 1]},
        },
        "expected 2 encodings for n = 1",
    ),
    "circles-string": ("circles", "x", CIRCLES_SHAPE),
    "circles-empty": ("circles", [], CIRCLES_SHAPE),
    "circles-object-without-array": ("circles", {"circles": 3}, CIRCLES_SHAPE),
}


@pytest.mark.parametrize("shape", list(WRONG_SHAPES))
def test_wrong_json_shape_exits_2(capsys, tmp_path, shape):
    reader, document, error = WRONG_SHAPES[shape]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(document))
    argv = ("code", "eval", "--json") if reader == "code" else ("regions", "--circles")
    assert run(capsys, *argv, str(path)) == (2, "", f"error: {error}\n")


#: JSON coordinates the loaders refuse: null, a nested list and an int beyond float
#: range, which float() cannot take, and true and false, which it would take as 1.0 and
#: 0.0 ([0.0, false, 1.0] as a unit vector, so that only the type check refuses it).
BAD_COORDINATES = {
    "null": None, "nested-list": [1.0, 0.0], "huge-int": 10**400, "true": True, "false": False
}


@pytest.mark.parametrize("where", ["measurements", "encodings", "circles"])
@pytest.mark.parametrize("coordinate", list(BAD_COORDINATES))
def test_unconvertible_coordinate_exits_2(capsys, tmp_path, where, coordinate):
    bad = [0.0, BAD_COORDINATES[coordinate], 1.0]
    path = tmp_path / "input.json"
    if where == "circles":
        path.write_text(json.dumps([[1, 0, 0], bad, [0, 0, 1]]))
        argv, context = ("regions", "--circles", str(path)), "circle 2"
    else:
        document = code_document(known_code("qrac2"))
        if where == "measurements":
            document["measurements"][1], context = bad, "measurement 2"
        else:
            document["encodings"]["10"], context = bad, "encoding '10'"
        path.write_text(json.dumps(document))
        argv = ("code", "eval", "--json", str(path))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {context}: expected a 3-vector, got [0.0, ")


def test_string_coordinates_still_load():
    document = code_document(known_code("qrac2"))
    as_text = json.loads(json.dumps(document))
    as_text["measurements"] = [[repr(c) for c in row] for row in document["measurements"]]
    as_text["encodings"] = {k: [repr(c) for c in v] for k, v in document["encodings"].items()}
    code, _ = code_from_document(as_text)
    assert np.array_equal(code.measurements, known_code("qrac2").measurements)
    assert np.array_equal(code.encodings, known_code("qrac2").encodings)


# ------------------------------------------------------------------ optimize


def test_optimize_small_case(capsys):
    code, out, _ = run(capsys, "optimize", "--n", "2", "--restarts", "10", "--seed", "1")
    assert code == 0
    probability = float(out.splitlines()[0].split(":")[1])
    assert probability >= 0.85345
    assert "direction 1: theta=" in out
    assert "best_restart:" in out


def test_optimize_five_bits(capsys):
    code, out, _ = run(capsys, "optimize", "--n", "5", "--restarts", "50", "--seed", "1")
    assert code == 0
    probability = float(out.splitlines()[0].split(":")[1])
    assert probability >= 0.71347


def test_optimize_deterministic(capsys):
    _, first, _ = run(capsys, "optimize", "--n", "3", "--restarts", "5", "--seed", "2")
    _, second, _ = run(capsys, "optimize", "--n", "3", "--restarts", "5", "--seed", "2")
    assert first == second


def test_optimize_json_is_simulatable(capsys, tmp_path):
    path = tmp_path / "best.json"
    code, _, _ = run(
        capsys, "optimize", "--n", "2", "--restarts", "5", "--seed", "0", "--json", str(path)
    )
    assert code == 0
    document = json.loads(path.read_text())
    assert document["metadata"]["name"] == "optimized-n2"
    code, out, _ = run(capsys, "simulate", "--json", str(path), "--trials", "2000", "--seed", "1")
    assert code == 0
    assert "average:" in out


def test_optimize_cost_guard_exit_code(capsys):
    code, out, err = run(capsys, "optimize", "--n", "13", "--restarts", "1")
    assert (code, out) == (3, "")
    assert err == "error: each see-saw step costs O(n*2^n); n = 13 exceeds the limit 12\n"


def test_optimize_validation_exit_code(capsys):
    code, _, _ = run(capsys, "optimize", "--n", "1")
    assert code == 2
    # optimize refuses each count before numpy sees it, by the shared rule's text
    for flag, value, least in (("--restarts", "0", 1), ("--seed", "-1", 0)):
        code, out, err = run(capsys, "optimize", "--n", "3", flag, value)
        assert (code, out) == (2, "")
        assert err == f"error: {flag[2:]} must be at least {least}, got {value}\n"


# ------------------------------------------------------------------ simulate


def test_simulate_randomized_spread(capsys, tmp_path):
    path = tmp_path / "qrac2.json"
    run(capsys, "code", "show", "--name", "qrac2", "--json", str(path))
    code, out, _ = run(
        capsys,
        "simulate",
        "--json",
        str(path),
        "--trials",
        "100000",
        "--seed",
        "0",
        "--randomize",
    )
    assert code == 0
    lines = dict(line.split(": ") for line in out.strip().splitlines())
    assert lines["randomize"] == "on"
    assert float(lines["spread"]) < 0.01
    assert abs(float(lines["average"]) - 0.853553) < 0.01


def test_simulate_unrandomized_worst_case(capsys, tmp_path):
    path = tmp_path / "qrac4.json"
    run(capsys, "code", "show", "--name", "qrac4", "--json", str(path))
    code, out, _ = run(capsys, "simulate", "--json", str(path), "--trials", "20000", "--seed", "2")
    assert code == 0
    lines = dict(line.split(": ") for line in out.strip().splitlines())
    assert lines["randomize"] == "off"
    assert abs(float(lines["worst_case"]) - 0.5) < 4 * math.sqrt(0.25 / 20000)


def test_simulate_zero_trials_exit_code(capsys, tmp_path):
    path = tmp_path / "qrac2.json"
    run(capsys, "code", "show", "--name", "qrac2", "--json", str(path))
    code, _, err = run(capsys, "simulate", "--json", str(path), "--trials", "0")
    assert code == 2
    assert "error:" in err


def test_simulate_seed_out_of_range_exit_code(capsys, tmp_path):
    path = tmp_path / "qrac2.json"
    run(capsys, "code", "show", "--name", "qrac2", "--json", str(path))
    for seed in ("-1", "18446744073709551616"):
        code, out, err = run(capsys, "simulate", "--json", str(path), "--trials", "50", "--seed", seed)
        assert code == 2
        assert out == ""
        assert f"seed must lie in 0..2**64 - 1, got {seed}" in err


def test_simulate_cost_guard_exit_code(capsys, tmp_path):
    path = tmp_path / "qrac9.json"
    run(capsys, "code", "show", "--name", "qrac9", "--json", str(path))
    code, out, err = run(capsys, "simulate", "--json", str(path), "--trials", "30000")
    assert code == 3
    assert out == ""
    assert "2**9 * 9 * 30000 = 138240000 cell-trials" in err


def test_simulate_cell_guard_exit_code(capsys, tmp_path):
    # n = 17 is over the 2**20-cell guard at one trial (test_sim checks both modes)
    code = QracCode(np.tile([0.0, 0.0, 1.0], (17, 1)), np.tile([0.0, 0.0, 1.0], (1 << 17, 1)))
    path = tmp_path / "n17.json"
    path.write_text(json.dumps(code_document(code)))
    status, out, err = run(capsys, "simulate", "--json", str(path), "--trials", "1", "--randomize")
    assert status == 3
    assert out == ""
    assert "cells = 2228224 exceeds the limit 1048576" in err


# ------------------------------------------------------------------- regions


def test_regions_named(capsys):
    for name, expected in (("qrac3", "8"), ("sym6", "32"), ("sym15", "120")):
        code, out, _ = run(capsys, "regions", "--name", name)
        assert code == 0
        assert out.strip() == expected


def test_regions_named_builds_no_code_without_export(capsys, monkeypatch):
    # the encodings are needed only for the export's points
    def refuse(name):
        raise AssertionError(f"known_code({name!r}) called without --export")

    monkeypatch.setattr(cli, "known_code", refuse)
    assert run(capsys, "regions", "--name", "sym15") == (0, "120\n", "")


def test_regions_from_circles_file(capsys, tmp_path):
    path = tmp_path / "circles.json"
    path.write_text(json.dumps([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    code, out, _ = run(capsys, "regions", "--circles", str(path))
    assert code == 0
    assert out.strip() == "8"


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
def test_regions_rejects_non_finite_normals(capsys, tmp_path, bad):
    path = tmp_path / "circles.json"
    path.write_text(f"[[1, 0, 0], [0, {bad}, 1], [0, 0, 1]]")
    code, out, err = run(capsys, "regions", "--circles", str(path))
    assert code == 2
    assert out == ""
    assert "cannot normalize" in err


def test_regions_circle_lengths_end_where_the_square_overflows(capsys, tmp_path):
    # a normal's length is the root of its squares, so one longer than about
    # 1.34e154, whose square no float holds, reads as length inf and is refused
    path = tmp_path / "circles.json"
    refused = "error: circle 1: cannot normalize a vector of length inf\n"
    for length, expected in ((1e150, (0, "8\n", "")), (1e200, (2, "", refused))):
        path.write_text(json.dumps([[length, 0, 0], [0, 1, 0], [0, 0, 1]]))
        assert run(capsys, "regions", "--circles", str(path)) == expected


@pytest.mark.parametrize("name", construction_names())
def test_regions_export_reads_back_as_circles(capsys, tmp_path, name):
    # an --export file is a {"circles": [...]} object that --circles takes back
    path = tmp_path / "geometry.json"
    code, out, err = run(capsys, "regions", "--name", name, "--export", str(path))
    if code == 2:  # a set with a repeated axis has coinciding circles and no export
        assert "coincide" in err and not path.exists()
        return
    assert run(capsys, "regions", "--circles", str(path)) == (0, out, "")


def test_regions_duplicate_circles_rejected(capsys):
    # two bits of qrac4 share an axis, so its circles coincide
    code, _, err = run(capsys, "regions", "--name", "qrac4")
    assert code == 2
    assert "coincide" in err


def test_regions_export_geometry(capsys, tmp_path):
    out_path = tmp_path / "geometry.json"
    code, out, _ = run(capsys, "regions", "--name", "qrac3", "--export", str(out_path))
    assert code == 0
    assert out.strip() == "8"
    document = json.loads(out_path.read_text())
    assert document["schema_version"] == SCHEMA_VERSION
    assert len(document["circles"]) == 3
    kinds = {p["kind"] for p in document["points"]}
    assert kinds == {"measurement", "encoding"}
    assert len(document["points"]) == 3 + 8
    labels = [p["label"] for p in document["points"] if p["kind"] == "measurement"]
    assert labels == ["v1", "v2", "v3"]


def test_regions_cost_guard_exit_code(capsys, tmp_path):
    path = tmp_path / "circles.json"
    k = MAX_CIRCLES + 1
    path.write_text(json.dumps(np.random.default_rng(0).standard_normal((k, 3)).tolist()))
    code, out, err = run(capsys, "regions", "--circles", str(path))
    assert code == 3
    assert out == ""
    assert f"{k * (k - 1)} intersection points" in err


def test_regions_requires_a_source(capsys):
    code, _, _ = run(capsys, "regions")
    assert code == 2


# ------------------------------------------------------------------- general


def test_no_arguments_is_usage_error(capsys):
    code, _, _ = run(capsys)
    assert code == 2


def test_unknown_command_is_usage_error(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_calls_after_the_first_leave_no_cyclic_garbage(capsys):
    # main builds its parser once; building one per call left hundreds of
    # cyclic objects behind every call
    commands = (
        ["classical", "--n", "3"],
        ["bound", "--kind", "upper", "--n", "4"],
        ["code", "show", "--name", "qrac3"],
    )
    for argv in commands:
        assert main(argv) == 0
    gc.collect()
    gc.disable()
    try:
        for argv in commands * 3:
            assert main(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
    capsys.readouterr()
