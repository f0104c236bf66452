"""Every public count is read by one rule: an integer by operator.index, never a bool.

A bool or a float is a TypeError, the least invalid integer keeps its
ValueError text word for word, and a numpy integer is read as a Python int,
so it gives the plain int's result, types included, where 1 << n would
overflow int64.
"""

from __future__ import annotations

import dataclasses
import inspect

import numpy as np
import pytest

import qrac
from qrac import bounds, classical, codes
from qrac.bloch import uniform_directions
from qrac.bounds import (
    best_axis_split,
    lattice_walk_distance,
    orthogonal_lower_bound,
    random_lower_bound_asymptotic,
    random_walk_distance,
    random_walk_distance_mc,
)
from qrac.classical import (
    DECODER_IDENTITY,
    PureClassicalStrategy,
    brute_force_optimal,
    classical_asymptotic,
    classical_bounds,
    counting_identity_check,
    majority_strategy_probability,
    optimal_classical_probability,
)
from qrac.codes import classical_comparison_scan, upper_bound
from qrac.constructions import known_code
from qrac.errors import CostLimitError
from qrac.optimizer import optimize
from qrac.sim import simulate_code

QRAC2 = known_code("qrac2")

#: (site, parameter, call with the count in that parameter's place,
#:  least invalid integer, its ValueError text as a template of the value)
SITES = [
    ("PureClassicalStrategy", "n", lambda v: PureClassicalStrategy(v, (0, 1), (DECODER_IDENTITY,)),
     0, "n must be at least 1, got {value}"),
    ("PureClassicalStrategy.majority", "n", PureClassicalStrategy.majority,
     0, "n must be at least 1, got {value}"),
    ("optimal_classical_probability", "n", optimal_classical_probability,
     0, "n must be at least 1, got {value}"),
    ("majority_strategy_probability", "n", majority_strategy_probability,
     0, "n must be at least 1, got {value}"),
    ("counting_identity_check", "m", counting_identity_check, 0, "m must be at least 1, got {value}"),
    ("classical_asymptotic", "n", classical_asymptotic, 0, "n must be at least 1, got {value}"),
    ("classical_bounds", "n", classical_bounds, 1, "bounds need n >= 2, got {value}"),
    ("brute_force_optimal", "n", brute_force_optimal, 0, "n must be at least 1, got {value}"),
    ("upper_bound", "n", upper_bound, 0, "n must be at least 1, got {value}"),
    ("classical_comparison_scan", "ns", lambda v: classical_comparison_scan([v], 1),
     0, "n must be at least 1, got {value}"),
    ("classical_comparison_scan", "sets_per_n", lambda v: classical_comparison_scan([2], v),
     0, "sets_per_n must be at least 1, got {value}"),
    ("classical_comparison_scan", "seed", lambda v: classical_comparison_scan([2], 1, seed=v),
     -1, "seed must be at least 0, got {value}"),
    ("uniform_directions", "count", lambda v: uniform_directions(v, np.random.default_rng(0)),
     -1, "count must be at least 0, got {value}"),
    ("random_walk_distance_mc", "n", lambda v: random_walk_distance_mc(v, 10, 0),
     0, "n must be at least 1, got {value}"),
    ("random_walk_distance_mc", "trials", lambda v: random_walk_distance_mc(2, v, 0),
     0, "trials must be at least 1, got {value}"),
    ("random_walk_distance_mc", "seed", lambda v: random_walk_distance_mc(2, 10, v),
     -1, "seed must lie in 0..2**64 - 1, got {value}"),
    ("random_lower_bound_asymptotic", "n", random_lower_bound_asymptotic,
     0, "n must be at least 1, got {value}"),
    ("random_walk_distance", "n", random_walk_distance, 0, "n must be at least 1, got {value}"),
    ("lattice_walk_distance", "x", lambda v: lattice_walk_distance(v, 1, 1),
     -1, "step counts must be nonnegative, got ({value}, 1, 1)"),
    ("lattice_walk_distance", "y", lambda v: lattice_walk_distance(1, v, 1),
     -1, "step counts must be nonnegative, got (1, {value}, 1)"),
    ("lattice_walk_distance", "z", lambda v: lattice_walk_distance(1, 1, v),
     -1, "step counts must be nonnegative, got (1, 1, {value})"),
    ("orthogonal_lower_bound", "n", orthogonal_lower_bound, 0, "n must be at least 1, got {value}"),
    ("best_axis_split", "n", best_axis_split, 0, "n must be at least 1, got {value}"),
    ("optimize", "n", lambda v: optimize(v, restarts=1), 1, "n must be at least 2, got {value}"),
    ("optimize", "restarts", lambda v: optimize(2, restarts=v),
     0, "restarts must be at least 1, got {value}"),
    ("simulate_code", "trials_per_input", lambda v: simulate_code(QRAC2, v, 0),
     0, "trials_per_input must be at least 1, got {value}"),
    ("optimize", "seed", lambda v: optimize(2, restarts=1, seed=v),
     -1, "seed must be at least 0, got {value}"),
    ("simulate_code", "seed", lambda v: simulate_code(QRAC2, 1, v),
     -1, "seed must lie in 0..2**64 - 1, got {value}"),
]
SITE_IDS = [f"{site}-{parameter}" for site, parameter, *_ in SITES]

#: Public callables with a parameter of one of those names that is not a count.
NOT_COUNTS = {
    "BlochVector": "x, y, z are float coordinates",
    "BlochVector.normalized": "x, y, z are float coordinates",
    "WalkEstimate": "a result record that random_walk_distance_mc fills with checked counts",
    "bit_text": "a formatter, run once per document key on the n of a code; format() reads "
    "any integer",
    "probability_from_s_value": "a formula for the n of a direction set, which sign "
    "enumeration keeps at most 24, where n * 2**n fits int64",
}


@pytest.mark.parametrize(("site", "parameter", "call", "least", "message"), SITES, ids=SITE_IDS)
@pytest.mark.parametrize("value", [True, np.True_, 2.0], ids=["bool", "numpy-bool", "float"])
def test_a_bool_or_a_float_is_refused(site, parameter, call, least, message, value):
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        call(value)


@pytest.mark.parametrize(("site", "parameter", "call", "least", "message"), SITES, ids=SITE_IDS)
@pytest.mark.parametrize("integer", [int, np.int64], ids=["int", "numpy-int64"])
def test_the_least_invalid_integer_keeps_its_message(site, parameter, call, least, message, integer):
    with pytest.raises(ValueError) as info:
        call(integer(least))
    assert str(info.value) == message.format(value=integer(least))


def _typed(value):
    """`value` with the type of every part beside it, so == compares types too."""
    if dataclasses.is_dataclass(value):
        fields = dataclasses.fields(value)
        return type(value), tuple(_typed(getattr(value, f.name)) for f in fields)
    if isinstance(value, np.ndarray):
        return type(value), value.dtype.str, value.tolist()
    if isinstance(value, tuple | list):
        return type(value), tuple(_typed(part) for part in value)
    return type(value), value


def _outcome(call, *args):
    """The typed result of call(*args), or the type, text and typed attributes of its refusal."""
    try:
        return _typed(call(*args))
    except (ValueError, CostLimitError) as error:
        return type(error), str(error), _typed(sorted(vars(error).items()))


def _identity_strategy(n):
    """A strategy of two encode entries and n identity decoders: valid only for n = 1."""
    return PureClassicalStrategy(n, (0, 1), (DECODER_IDENTITY,) * n)


#: (name, call, plain-int arguments) of every site at counts where 1 << n
#: overflows int64, or at small counts where it cannot but the result holds them.
NUMPY_CASES = [
    *(
        (f"{call.__qualname__}-{n}", call, (n,))
        for call in (
            optimal_classical_probability,
            majority_strategy_probability,
            classical_asymptotic,
            classical_bounds,
            brute_force_optimal,
            PureClassicalStrategy.majority,
            upper_bound,
            random_lower_bound_asymptotic,
            random_walk_distance,
        )
        for n in (63, 64, 100)
    ),
    *((f"PureClassicalStrategy-{n}", _identity_strategy, (n,)) for n in (1, 63)),
    ("counting_identity_check-40", counting_identity_check, (40,)),
    ("best_axis_split-60", best_axis_split, (60,)),
    ("orthogonal_lower_bound-60", orthogonal_lower_bound, (60,)),
    ("lattice_walk_distance-60", lattice_walk_distance, (20, 21, 19)),
    ("classical_comparison_scan", lambda n, sets: classical_comparison_scan([n], sets, seed=3), (5, 2)),
    ("uniform_directions", lambda count: uniform_directions(count, np.random.default_rng(3)), (4,)),
    ("random_walk_distance_mc", lambda n, trials: random_walk_distance_mc(n, trials, 0), (3, 100)),
    ("simulate_code", lambda trials: simulate_code(QRAC2, trials, 0, randomize=True), (5,)),
    ("optimize", lambda n, restarts, seed: optimize(n, restarts=restarts, seed=seed), (3, 2, 1)),
    ("optimize-restarts", lambda restarts: optimize(3, restarts=restarts), (3,)),
]


@pytest.mark.parametrize(
    ("call", "args"), [case[1:] for case in NUMPY_CASES], ids=[case[0] for case in NUMPY_CASES]
)
def test_numpy_integers_give_the_plain_int_result(call, args):
    assert _outcome(call, *map(np.int64, args)) == _outcome(call, *args)


def _public_callables():
    """Qualified names of the public functions, constructors and methods in the modules checked."""
    found = {}
    for module, names in (
        (qrac, qrac.__all__),
        (classical, dir(classical)),
        (bounds, dir(bounds)),
        (codes, dir(codes)),
    ):
        for name in names:
            obj = getattr(module, name)
            if name.startswith("_") or not getattr(obj, "__module__", "").startswith("qrac"):
                continue
            if inspect.isfunction(obj):
                found[obj.__qualname__] = obj
            elif inspect.isclass(obj):
                found[obj.__qualname__] = obj
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", member)  # class and static methods
                    if not attr.startswith("_") and inspect.isfunction(member):
                        found[member.__qualname__] = member
    return found


def test_the_table_lists_every_public_count():
    counts = {"n", "ns", "m", "count", "trials", "trials_per_input", "sets_per_n", "restarts", "seed"}
    counts |= {"x", "y", "z"}
    with_counts = {
        (name, parameter)
        for name, obj in _public_callables().items()
        for parameter in inspect.signature(obj).parameters
        if parameter in counts and name not in NOT_COUNTS
    }
    assert with_counts == {(site, parameter) for site, parameter, *_ in SITES}
    assert set(NOT_COUNTS) <= set(_public_callables())
