"""Arithmetic foundation: fixtures and randomized ring-axiom checks."""

import random
import time
from fractions import Fraction

import pytest
from conftest import examples, substitute_oracle
from hypothesis import example, given, strategies as st

from danielewski.errors import ParseError, RingMismatchError
from danielewski.ideals import normal_form
from danielewski.ratpoly import (
    LaurentPoly,
    MultiPoly,
    fraction_str,
    laurent_from_str,
    laurent_split,
    partial_derivative,
    poly_arith,
    poly_from_str,
    poly_to_laurent,
    ring_embed,
    substitute,
)

XYZ = ("x", "y", "z")
PROPERTIES = examples(80)


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


@PROPERTIES
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


def test_poly_to_laurent_recentering():
    s = poly_from_str("x^2", ("x",))
    shifted = poly_to_laurent(s, "x", 1)
    # x^2 = (x-1)^2 + 2(x-1) + 1
    assert shifted.terms == {2: Fraction(1), 1: Fraction(2), 0: Fraction(1)}
    assert shifted.center == 1


@pytest.mark.parametrize("q", [Fraction(10**4300), Fraction(-(10**4300)), Fraction(1, 10**4300)])
def test_fraction_str_refuses_more_digits_than_the_parser_reads(q):
    with pytest.raises(ValueError, match="more than 4300 digits"):
        fraction_str(q)


def test_fraction_str_at_the_digit_limit():
    nines = 10**4300 - 1
    assert fraction_str(Fraction(-nines, nines - 1)) == f"-{nines}/{nines - 1}"


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


def test_constructor_validates_input():
    with pytest.raises(ValueError, match="arity"):
        MultiPoly(XYZ, {(1, 0): 1})
    with pytest.raises(ValueError, match="negative exponent"):
        MultiPoly(XYZ, {(1, -1, 0): 1})
    with pytest.raises(ValueError):
        MultiPoly(XYZ, {(1, "a", 0): 1})
    with pytest.raises(TypeError):
        MultiPoly(XYZ, {(1, 0, 0): 1.5})
    with pytest.raises(ValueError):
        MultiPoly(XYZ, {(1, 0, 0): "not a number"})
    f = MultiPoly(["x", "y", "z"], {(1.0, 0, 0): 2, (0, 1, 0): "1/2", (0, 0, 1): 0})
    assert f.ring == XYZ and f.terms == {(1, 0, 0): Fraction(2), (0, 1, 0): Fraction(1, 2)}
    assert all(type(e) is int for exp in f.terms for e in exp)


def test_repeated_monomials_merge_when_parsed():
    assert p("x + x") == MultiPoly(XYZ, {(1, 0, 0): 2})
    assert p("x - x") == MultiPoly(XYZ, {(1, 0, 0): 0}) == MultiPoly.zero(XYZ)
    assert p("x - x").terms == {}
    assert p("2*x*y - y*x + 1/2 - 1/2*y^0") == MultiPoly(XYZ, {(1, 1, 0): 1})
    rng = random.Random(3)
    for _ in range(30):
        chunks = [(rng.randint(-4, 4), rng.randint(1, 3), (rng.randint(0, 2), rng.randint(0, 1), 0))
                  for _ in range(rng.randint(1, 12))]
        text = " + ".join(f"{a}/{b}*x^{e[0]}*y^{e[1]}" for a, b, e in chunks).replace("+ -", "- ")
        expected: dict = {}
        for a, b, e in chunks:
            expected[e] = expected.get(e, 0) + Fraction(a, b)
        assert p(text) == MultiPoly(XYZ, expected)


def test_parse_is_linear_in_the_term_count():
    # adding each term to a growing polynomial took 2.3 s here
    text = " + ".join(f"{i}*x^{i}*y^{i % 7}" for i in range(1, 2001))
    start = time.perf_counter()
    f = poly_from_str(text, ("x", "y"))
    assert time.perf_counter() - start < 0.5
    assert len(f.terms) == 2000 and f.terms[(2000, 5)] == 2000


def assert_canonical(q):
    """``q`` is what the validating constructor makes of its own terms."""
    rebuilt = MultiPoly(q.ring, dict(q.terms))
    assert q == rebuilt and hash(q) == hash(rebuilt)
    assert type(q.ring) is tuple
    for exp, c in q.terms.items():
        assert type(c) is Fraction and c != 0
        assert type(exp) is tuple and len(exp) == len(q.ring)
        assert all(type(e) is int and e >= 0 for e in exp)


@PROPERTIES
@given(polys_in(XYZ, 3), polys_in(XYZ, 3), st.fractions(-3, 3, max_denominator=3),
       st.sampled_from(XYZ))
@example(p("x + 2*y"), p("x + 2*y"), Fraction(0), "x")
@example(p("x*y - 1/2"), p("-x*y + 1/2"), Fraction(1), "y")
@example(p("x + y"), p("x - y"), Fraction(2), "z")  # x*y cancels in the product
def test_results_built_without_checks_are_canonical(a, b, c, var):
    results = [a + b, a - b, a - a, a + (-a), b + a, -a, a * c, c * a, a * b, a * 2, a + 1,
               1 - a, a ** 2, ring_embed(a, ("t", "z", "y", "s", "x")),
               partial_derivative(a, var), partial_derivative(a * b, var),
               substitute(a, {var: b}), substitute(a * b, {var: a - b})]
    if not b.is_zero():
        results += [normal_form(a, [b]), normal_form(a * b, [b], "lex")]
    for q in results:
        assert_canonical(q)
