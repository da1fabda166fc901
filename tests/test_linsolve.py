"""Exact sparse solving, against the full Gauss-Jordan oracle of ``conftest``."""

from fractions import Fraction

import pytest
from conftest import solve_linear_oracle
from hypothesis import example, given, settings, strategies as st

from danielewski.linsolve import solve_linear


def test_unique_solution():
    rows = [
        ({"a": Fraction(1), "b": Fraction(1)}, Fraction(3)),
        ({"a": Fraction(1), "b": Fraction(-1)}, Fraction(1)),
    ]
    sol = solve_linear(rows, ["a", "b"])
    assert sol == {"a": Fraction(2), "b": Fraction(1)}


def test_inconsistent_returns_none():
    rows = [
        ({"a": Fraction(1)}, Fraction(1)),
        ({"a": Fraction(1)}, Fraction(2)),
    ]
    assert solve_linear(rows, ["a"]) is None


def test_underdetermined_pins_free_unknowns_to_zero():
    rows = [({"a": Fraction(1), "b": Fraction(2)}, Fraction(4))]
    sol = solve_linear(rows, ["a", "b"])
    assert sol == {"a": Fraction(4), "b": Fraction(0)}
    # determinism: unknown order decides which unknown carries the value
    sol2 = solve_linear(rows, ["b", "a"])
    assert sol2 == {"b": Fraction(2), "a": Fraction(0)}


def test_exact_rational_elimination():
    rows = [
        ({"a": Fraction(1, 3), "b": Fraction(1, 7)}, Fraction(1)),
        ({"a": Fraction(2), "b": Fraction(-1, 2)}, Fraction(0)),
    ]
    sol = solve_linear(rows, ["a", "b"])
    a, b = sol["a"], sol["b"]
    assert Fraction(1, 3) * a + Fraction(1, 7) * b == 1
    assert 2 * a - Fraction(1, 2) * b == 0


# -- against the Gauss-Jordan oracle -------------------------------------------

UNKNOWNS = ("a", "b", "c", "d", "e", "f")
coefficient = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def sparse_systems(draw):
    """(rows, unknowns, the rows in another order).

    Base rows are sparse with rational entries.  Derived rows (a duplicate,
    or a combination of two base rows) keep the rank below the row count;
    a shifted right-hand side on one of them makes the system inconsistent.
    """
    unknowns = UNKNOWNS[: draw(st.integers(1, len(UNKNOWNS)))]
    entries = st.dictionaries(st.sampled_from(unknowns), coefficient, min_size=1, max_size=3)
    rows = draw(st.lists(st.tuples(entries, coefficient), max_size=len(unknowns)))
    base = list(rows)
    for _ in range(draw(st.integers(0, 4)) if base else 0):
        (c1, r1), (c2, r2) = draw(st.sampled_from(base)), draw(st.sampled_from(base))
        a, b = draw(coefficient), draw(st.sampled_from([0, 1, Fraction(-2, 3)]))
        coeffs = {k: a * c1.get(k, 0) + b * c2.get(k, 0) for k in set(c1) | set(c2)}
        rows.append((coeffs, a * r1 + b * r2 + draw(st.sampled_from([0] * 5 + [1]))))
    order = draw(st.permutations(range(len(rows))))
    return rows, unknowns, [rows[k] for k in order]


@given(sparse_systems())
@settings(max_examples=80, deadline=None)
@example(([({"a": 1, "b": 2}, 4)] * 2, ("a", "b"), [({"b": 2, "a": 1}, 4)] * 2))
@example(([({"a": 1}, 1), ({"a": 2}, 3)], ("a",), [({"a": 2}, 3), ({"a": 1}, 1)]))
@example(([({"a": 0, "b": 3}, 0), ({}, 0)], ("a", "b"), [({}, 0), ({"a": 0, "b": 3}, 0)]))
def test_solve_linear_matches_the_oracle(system):
    rows, unknowns, shuffled = system
    expected = solve_linear_oracle(rows, unknowns)
    assert solve_linear(rows, unknowns) == expected
    # row order only breaks pivot ties: the pinned solution cannot change
    assert solve_linear(shuffled, unknowns) == expected
    if expected is not None:
        for coeffs, rhs in rows:
            assert sum(v * expected[k] for k, v in coeffs.items()) == rhs


def test_undeclared_unknown_is_a_value_error():
    # the row could pivot on "a"
    with pytest.raises(ValueError, match="undeclared unknowns"):
        solve_linear([({"a": Fraction(1), "q": Fraction(2)}, Fraction(1))], ["a"])
    # an inconsistent row before it does not hide it
    rows = [({}, Fraction(1)), ({"q": Fraction(1)}, Fraction(0))]
    with pytest.raises(ValueError, match="undeclared unknowns"):
        solve_linear(rows, ["a"])
    # a zero entry names no unknown
    assert solve_linear([({"a": Fraction(2), "q": 0}, Fraction(1))], ["a"]) == {"a": Fraction(1, 2)}
