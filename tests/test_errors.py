"""Every cost guard refuses through the one CostLimitError constructor."""

from __future__ import annotations

import pickle
import sys

import numpy as np
import pytest

from qrac.bloch import BlochVector
from qrac.bounds import (
    MAX_EXACT_WALK,
    MAX_LATTICE_WALK,
    MAX_WALK_STEPS,
    best_axis_split,
    lattice_walk_distance,
    orthogonal_lower_bound,
    random_walk_distance,
    random_walk_distance_mc,
)
from qrac.classical import (
    MAX_BRUTE_FORCE,
    MAX_CLASSICAL_N,
    MAX_COUNTING_M,
    MAX_MAJORITY_N,
    MAX_STRATEGY_N,
    PureClassicalStrategy,
    brute_force_optimal,
    counting_identity_check,
    majority_strategy_probability,
    optimal_classical_probability,
)
from qrac.cli import build_parser, main
from qrac.codes import (
    MAX_EVALUATE,
    MAX_SIGN_ENUMERATION,
    QracCode,
    evaluate,
    parallelogram_check,
    s_value,
)
from qrac.constructions import MAX_CIRCLES, GreatCircleArrangement, known_code
from qrac.errors import CostLimitError
from qrac.optimizer import MAX_OPTIMIZE_N, optimize
from qrac.sim import MAX_CELL_TRIALS, MAX_CELLS, simulate_code

NORTH = np.array([0.0, 0.0, 1.0])
Z = BlochVector(*NORTH)


def _cli_handler(*argv: str) -> None:
    args = build_parser().parse_args(argv)
    args.handler(args)


#: (guard, call above its limit, requested, limit)
GUARDS = [
    ("sign-enumeration", lambda: s_value((Z,) * 25), 25, MAX_SIGN_ENUMERATION),
    ("sign-enumeration-array", lambda: s_value(np.tile(NORTH, (25, 1))), 25, MAX_SIGN_ENUMERATION),
    (
        "evaluate",
        lambda: evaluate(QracCode(np.tile(NORTH, (19, 1)), np.tile(NORTH, (1 << 19, 1)))),
        19,
        MAX_EVALUATE,
    ),
    ("parallelogram", lambda: parallelogram_check((Z,) * 25), 25, MAX_SIGN_ENUMERATION),
    ("optimize", lambda: optimize(13, restarts=1), 13, MAX_OPTIMIZE_N),
    (
        "classical-exact",
        lambda: optimal_classical_probability(MAX_CLASSICAL_N + 1),
        MAX_CLASSICAL_N + 1,
        MAX_CLASSICAL_N,
    ),
    ("majority-sum", lambda: majority_strategy_probability(5001), 5001, MAX_MAJORITY_N),
    ("counting-identity", lambda: counting_identity_check(2001), 2001, MAX_COUNTING_M),
    ("brute-force", lambda: brute_force_optimal(5), 5, MAX_BRUTE_FORCE),
    ("lattice-walk", lambda: lattice_walk_distance(61, 0, 0), 61, MAX_LATTICE_WALK),
    ("orthogonal-bound", lambda: orthogonal_lower_bound(61), 61, MAX_LATTICE_WALK),
    ("best-axis-split", lambda: best_axis_split(61), 61, MAX_LATTICE_WALK),
    ("random-walk", lambda: random_walk_distance_mc(10**4, 10**8, 0), 10**12, MAX_WALK_STEPS),
    ("exact-walk", lambda: random_walk_distance(2001), 2001, MAX_EXACT_WALK),
    (
        "circles",
        lambda: GreatCircleArrangement((BlochVector(*NORTH),) * 1001),
        1001,
        MAX_CIRCLES,
    ),
    (
        "cell-trials",
        lambda: simulate_code(known_code("qrac9"), 30000, 0),
        (1 << 9) * 9 * 30000,
        MAX_CELL_TRIALS,
    ),
    (
        "cells",
        lambda: simulate_code(QracCode(np.tile(NORTH, (17, 1)), np.tile(NORTH, (1 << 17, 1))), 1, 0),
        (1 << 17) * 17,
        MAX_CELLS,
    ),
    (
        "cli-exact",
        lambda: _cli_handler("classical", "--n", "20000", "--exact"),
        6020,
        sys.get_int_max_str_digits(),
    ),
    ("strategy-table", lambda: PureClassicalStrategy.majority(19), 19, MAX_STRATEGY_N),
]


@pytest.mark.parametrize(
    ("call", "requested", "limit"), [g[1:] for g in GUARDS], ids=[g[0] for g in GUARDS]
)
def test_every_guard_builds_the_one_message(call, requested, limit):
    with pytest.raises(CostLimitError) as info:
        call()
    exc = info.value
    assert (exc.requested, exc.limit) == (requested, limit)
    assert requested > limit
    assert str(exc) == f"{exc.cost}; {exc.quantity} = {exc.requested} exceeds the limit {exc.limit}"


def test_reworded_messages_read_exactly():
    expected = {
        "lattice-walk": "lattice walk of 61 steps sums 31 terms with int64 weights up to 2**61; "
        "x + y + z = 61 exceeds the limit 60",
        "random-walk": "Monte Carlo walk of 10000 steps per trial over 100000000 trials; "
        "steps n * trials = 1000000000000 exceeds the limit 100000000",
        "exact-walk": "exact mean distance of a 2001-step walk sums integers of up to about "
        "23956 bits; n = 2001 exceeds the limit 2000",
        "circles": "1001 circles meet in 1001000 intersection points "
        "(24024000 bytes as float64 3-vectors); circles = 1001 exceeds the limit 1000",
        "cell-trials": "simulation runs 2**9 * 9 * 30000 = 138240000 cell-trials; "
        "cell-trials = 138240000 exceeds the limit 100000000",
        "cells": "simulation holds 17825792 bytes of tables for 2**17 * 17 cells; "
        "cells = 2228224 exceeds the limit 1048576",
        "cli-exact": "the exact fraction for n = 20000 has a 6020-digit denominator; "
        "printed digits = 6020 exceeds the limit 4300",
    }
    calls = {name: call for name, call, _, _ in GUARDS}
    for name, message in expected.items():
        with pytest.raises(CostLimitError) as info:
            calls[name]()
        assert str(info.value) == message


def test_cli_prints_the_message_and_exits_3(capsys):
    with pytest.raises(CostLimitError) as info:
        optimize(13, restarts=1)
    assert main(["optimize", "--n", "13", "--restarts", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {info.value}\n"


def test_refusal_survives_pickling():
    exc = CostLimitError("brute force enumerates 2**(2**n) tables", "n", 5, MAX_BRUTE_FORCE)
    copy = pickle.loads(pickle.dumps(exc))
    assert type(copy) is CostLimitError and str(copy) == str(exc)
    assert (copy.cost, copy.quantity, copy.requested, copy.limit) == (
        exc.cost, exc.quantity, exc.requested, exc.limit
    )
