"""Arithmetic foundation: fixtures and randomized ring-axiom checks."""

import random
from fractions import Fraction

import pytest
from conftest import substitute_oracle
from hypothesis import example, given, settings, strategies as st

from danielewski.errors import ParseError, RingMismatchError
from danielewski.ratpoly import (
    LaurentPoly,
    MultiPoly,
    laurent_from_str,
    laurent_split,
    partial_derivative,
    poly_arith,
    poly_from_str,
    poly_to_laurent,
    substitute,
)

XYZ = ("x", "y", "z")


def p(text, ring=XYZ):
    return poly_from_str(text, ring)


def random_poly(rng, ring, max_degree=3, max_terms=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exp = tuple(rng.randint(0, max_degree) for _ in ring)
        terms[exp] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return MultiPoly(ring, terms)


def test_add_cancellation():
    assert poly_arith(p("x + y"), p("x - y"), "add") == p("2*x")


def test_difference_of_squares():
    assert poly_arith(p("y - 1"), p("y + 1"), "mul") == p("y^2 - 1")


def test_monomial_product():
    assert poly_arith(p("x^2*z"), p("x"), "mul") == p("x^3*z")


def test_ring_mismatch_rejected():
    with pytest.raises(RingMismatchError):
        poly_arith(p("x"), poly_from_str("x", ("x", "y")), "add")


def test_partial_derivative_power_rule():
    assert partial_derivative(p("x^3*z"), "x") == p("3*x^2*z")
    assert partial_derivative(p("y^2 - 1"), "y") == p("2*y")
    assert partial_derivative(p("x*z - y^2 + 1"), "z") == p("x")


def test_partial_derivative_unknown_variable():
    with pytest.raises(RingMismatchError):
        partial_derivative(p("x"), "t")


def test_substitute_deepens_defining_equation():
    f = p("x*z - y^2 + 1")
    image = substitute(f, {"z": p("x*z")})
    assert image == p("x^2*z - y^2 + 1")


def test_substitute_identity():
    f = p("y")
    assert substitute(f, {"y": p("y")}) == f


def test_substitute_translation():
    f = poly_from_str("x^2", ("x",))
    shifted = substitute(f, {"x": poly_from_str("x + 1", ("x",))})
    assert shifted == poly_from_str("x^2 + 2*x + 1", ("x",))


def test_substitute_respects_composition():
    rng = random.Random(20240)
    ring = ("x", "y")
    for _ in range(25):
        f = random_poly(rng, ring, max_degree=2, max_terms=3)
        sigma = {name: random_poly(rng, ring, max_degree=1, max_terms=2) for name in ring}
        tau = {name: random_poly(rng, ring, max_degree=1, max_terms=2) for name in ring}
        composed = {name: substitute(sigma[name], tau) for name in ring}
        assert substitute(substitute(f, sigma), tau) == substitute(f, composed)


def polys_in(ring, max_degree=2):
    exps = st.tuples(*[st.integers(0, max_degree)] * len(ring))
    coefficients = st.fractions(-3, 3, max_denominator=3)
    return st.dictionaries(exps, coefficients, max_size=4).map(lambda d: MultiPoly(ring, d))


# images in the source ring, in smaller and larger rings, in rings with new
# names, and constants in the empty ring
IMAGE_RINGS = [XYZ, ("y",), ("x", "t"), ("u", "z", "s"), ()]
assignments = st.dictionaries(st.sampled_from(XYZ), st.sampled_from(IMAGE_RINGS).flatmap(polys_in))


@settings(max_examples=80, deadline=None)
@given(polys_in(XYZ, 3), assignments)
@example(MultiPoly.zero(XYZ), {"x": p("y")})
@example(p("2*x*y + 3"), {})
@example(p("x*y - z"), {"x": MultiPoly.const((), 2), "y": MultiPoly.zero(("t",))})
@example(MultiPoly.const((), 5), {})
def test_substitute_matches_per_term_oracle(f, assignment):
    assert substitute(f, assignment) == substitute_oracle(f, assignment)


def test_ring_axioms_randomized():
    rng = random.Random(7)
    for _ in range(40):
        a = random_poly(rng, XYZ)
        b = random_poly(rng, XYZ)
        c = random_poly(rng, XYZ)
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_leibniz_rule_randomized():
    rng = random.Random(11)
    for _ in range(30):
        a = random_poly(rng, XYZ)
        b = random_poly(rng, XYZ)
        var = rng.choice(XYZ)
        lhs = partial_derivative(a * b, var)
        rhs = partial_derivative(a, var) * b + a * partial_derivative(b, var)
        assert lhs == rhs


def test_laurent_split_mixed():
    f = laurent_from_str("x^2 + 3 + 5*x^-1", "x")
    regular, principal = laurent_split(f)
    assert regular == laurent_from_str("x^2 + 3", "x")
    assert principal == laurent_from_str("5*x^-1", "x")
    assert regular + principal == f


def test_laurent_split_pure_principal():
    # 2*x^(-n-1) for n = 2 is its own principal part
    f = LaurentPoly.monomial("x", -3, 2)
    regular, principal = laurent_split(f)
    assert regular.is_zero()
    assert principal == f


def test_laurent_split_zero():
    zero = LaurentPoly.zero("x")
    regular, principal = laurent_split(zero)
    assert regular.is_zero() and principal.is_zero()


def test_laurent_split_idempotent_randomized():
    rng = random.Random(5)
    for _ in range(50):
        terms = {rng.randint(-4, 4): Fraction(rng.randint(-6, 6)) for _ in range(4)}
        f = LaurentPoly("x", terms)
        regular, principal = laurent_split(f)
        assert laurent_split(regular) == (regular, LaurentPoly.zero("x"))
        assert laurent_split(principal) == (LaurentPoly.zero("x"), principal)
        assert regular + principal == f


def test_laurent_times_poly():
    f = laurent_from_str("x^-2 + x^-1", "x")
    s = poly_from_str("x + 1", ("x",))
    assert f.times_poly(s) == laurent_from_str("x^-2 + 2*x^-1 + 1", "x")


def test_poly_to_laurent_recentering():
    s = poly_from_str("x^2", ("x",))
    shifted = poly_to_laurent(s, "x", 1)
    # x^2 = (x-1)^2 + 2(x-1) + 1
    assert shifted.terms == {2: Fraction(1), 1: Fraction(2), 0: Fraction(1)}
    assert shifted.center == 1


def test_poly_text_round_trip():
    rng = random.Random(13)
    for _ in range(40):
        f = random_poly(rng, XYZ)
        assert poly_from_str(str(f), XYZ) == f


def test_laurent_text_round_trip():
    rng = random.Random(17)
    for _ in range(40):
        terms = {rng.randint(-4, 4): Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(3)}
        f = LaurentPoly("x", terms)
        assert laurent_from_str(str(f), "x") == f


def test_laurent_text_nonzero_center():
    f = LaurentPoly("x", {-1: Fraction(2), 1: Fraction(1)}, center=Fraction(1, 2))
    text = str(f)
    assert "(x - 1/2)" in text
    assert laurent_from_str(text, "x", Fraction(1, 2)) == f


def test_parse_error_positions():
    with pytest.raises(ParseError):
        poly_from_str("x +", XYZ)
    with pytest.raises(ParseError):
        poly_from_str("q", XYZ)
    with pytest.raises(ParseError):
        poly_from_str("x^-1", XYZ)


def test_canonical_print_is_grevlex_descending():
    f = p("x*z - y^2 + 1")
    # grevlex with x > y > z puts y^2 ahead of x*z
    assert str(f) == "-y^2 + x*z + 1"
