"""The packed division against textbook division.

The oracle is ``naive_division`` from ``conftest``, in plain ``MultiPoly``
arithmetic.  ``reduce_full`` and ``normal_form`` must match its quotients and
remainder term for term for any divisor list, Groebner basis or not, since
both take the largest term first and the first divisor that applies.
``substitute_reduced`` reduces while it substitutes, so it must match the
oracle's remainder of the per-term substitution (``substitute_oracle``)
modulo a Groebner basis, where the remainder is unique.
"""

from fractions import Fraction
from math import comb

from conftest import naive_division, substitute_oracle
from hypothesis import example, given, settings, strategies as st

from danielewski import ideals
from danielewski.ideals import (
    IdealPresentation,
    groebner_basis,
    leading_term,
    normal_form,
    reduce_full,
    substitute_reduced,
)
from danielewski.ratpoly import MultiPoly, poly_from_str

XYZ = ("x", "y", "z")
HALVES = [Fraction(k, 2) for k in range(-5, 6, 2)]
KERNEL = settings(max_examples=40, deadline=None)


def p(text, ring=XYZ):
    return poly_from_str(text, ring)


def polys(max_degree, max_terms, coefficients, min_terms=0):
    exps = st.tuples(*[st.integers(0, max_degree)] * 3).filter(lambda e: sum(e) <= max_degree)
    terms = st.dictionaries(exps, coefficients, min_size=min_terms, max_size=max_terms)
    return terms.map(lambda d: MultiPoly(XYZ, d))


small_ints = st.integers(-3, 3).filter(bool)
rational = st.fractions(-3, 3, max_denominator=3).filter(bool)
outer = polys(3, 4, rational)
dividends = polys(5, 8, rational)
images = st.fixed_dictionaries({v: polys(2, 3, small_ints) for v in XYZ})


def with_leading_coefficient(f: MultiPoly, lc: int, order: str = "grevlex") -> MultiPoly:
    lead, _ = leading_term(f, order)
    return MultiPoly(XYZ, {**f.terms, lead: Fraction(lc)})


def with_rational_tail(f: MultiPoly, lc: int, den: int, order: str = "grevlex") -> MultiPoly:
    lead, _ = leading_term(f, order)
    tail = {e: c / den for e, c in f.terms.items() if e != lead}
    return MultiPoly(XYZ, {**tail, lead: Fraction(lc)})


generators = polys(3, 4, small_ints, min_terms=2).filter(lambda f: not f.is_constant())


def assert_matches_oracle(g, imgs, basis, order="grevlex"):
    _, expected = naive_division(substitute_oracle(g, imgs), basis, order)
    assert substitute_reduced(g, imgs, basis, order) == expected


def assert_division_matches_oracle(f, divisors, order="grevlex"):
    quotients, remainder = naive_division(f, divisors, order)
    quots, rem = reduce_full(f, divisors, order)
    assert [MultiPoly(XYZ, q) for q in quots] == quotients
    assert rem == remainder
    assert normal_form(f, divisors, order) == remainder


@KERNEL
@given(outer, images, generators, st.sampled_from([1, -1]))
def test_integral_generator_with_unit_leading_coefficient(g, imgs, f, lc):
    assert_matches_oracle(g, imgs, [with_leading_coefficient(f, lc)])


@KERNEL
@given(outer, images, st.integers(1, 2), st.lists(st.sampled_from(HALVES), min_size=2,
                                                   max_size=3, unique=True))
def test_generator_with_half_integer_roots(g, imgs, n, roots):
    rhs = MultiPoly.const(XYZ, 1)
    for r in roots:
        rhs = rhs * (p("y") - MultiPoly.const(XYZ, r))
    f = p(f"x^{n}*z") - rhs
    assert any(c.denominator != 1 for c in f.terms.values())
    assert_matches_oracle(g, imgs, [f])


@KERNEL
@given(outer, images, generators, st.sampled_from([2, -2, 3]))
def test_generator_with_non_unit_leading_coefficient(g, imgs, f, lc):
    assert_matches_oracle(g, imgs, [with_leading_coefficient(f, lc)])


@KERNEL
@given(outer, images, generators, st.sampled_from([1, -1, 2]))
def test_lex_order(g, imgs, f, lc):
    assert_matches_oracle(g, imgs, [with_leading_coefficient(f, lc, "lex")], "lex")


@KERNEL
@given(outer, images, st.sampled_from([("x^2 - y", "y^2 - z"), ("x*z - y^2 + 1", "x - 1")]),
       st.sampled_from(["grevlex", "lex"]))
def test_two_element_reduced_groebner_basis(g, imgs, gens, order):
    basis = groebner_basis(IdealPresentation(XYZ, [p(t) for t in gens]), order).basis
    assert len(basis) == 2
    assert_matches_oracle(g, imgs, list(basis), order)


@KERNEL
@given(dividends, st.lists(generators, min_size=2, max_size=3), st.sampled_from([1, -1, 2]),
       st.sampled_from(["grevlex", "lex"]))
@example(p("x^2*y"), [p("x*y - 1"), p("x^2 - y")], 1, "grevlex")
@example(p("x^2*y"), [p("x^2 - y"), p("x*y - 1")], 1, "grevlex")
def test_divisor_list_that_is_not_a_groebner_basis(f, divisors, lc, order):
    # The examples give remainders x and y^2: the first applicable divisor wins.
    divisors = [with_leading_coefficient(divisors[0], lc, order)] + divisors[1:]
    assert_division_matches_oracle(f, divisors, order)


@KERNEL
@given(dividends, outer, images, generators, st.sampled_from([2, -3, 4, 6]),
       st.sampled_from([2, 3]), st.sampled_from(["grevlex", "lex"]))
def test_non_unit_leading_coefficient_with_rational_tail(f, g, imgs, gen, lc, den, order):
    # The integer leading coefficient rarely divides a term's coefficient,
    # so the division takes pseudo-steps.
    divisor = with_rational_tail(gen, lc, den, order)
    assert_division_matches_oracle(f, [divisor], order)
    assert_matches_oracle(g, imgs, [divisor], order)


def test_images_from_a_smaller_ring_are_embedded():
    g = p("x^2*y - z")
    imgs = {"x": p("y + 1", ("x", "y")), "y": p("x*y", ("x", "y")), "z": p("x", ("x",))}
    basis = [p("x*z - y^2 + 1")]
    _, expected = naive_division(p("y + 1") ** 2 * p("x*y") - p("x"), basis)
    assert substitute_reduced(g, imgs, basis) == expected


IDENTITY = {v: p(v) for v in XYZ}


def test_exponent_1500_does_not_recurse():
    basis = [p("x*z - y^2 + 1")]  # leading term y^2 in grevlex
    assert substitute_reduced(p("x^1500"), IDENTITY, basis) == p("x^1500")
    # y^1500 = (x z + 1)^750 modulo the generator
    expected = MultiPoly(XYZ, {(k, 0, k): comb(750, k) for k in range(751)})
    assert substitute_reduced(p("y^1500"), IDENTITY, basis) == expected


def test_exponent_wider_than_the_packed_field(monkeypatch):
    # Lex reduction by x - y^300 raises y-degrees past the bound taken from
    # the inputs (at most 502 here, so 9-bit fields plus a guard bit).  x^5
    # overflows while squaring; the image x*y^250 already reduces to y^550,
    # whose square would carry into the x field.  The guard bit must catch
    # both and the kernel rerun with wider fields.
    xy = ("x", "y")
    widths = []
    packed = ideals._substitute_packed

    def spy(*args):
        widths.append(args[-1])
        return packed(*args)

    monkeypatch.setattr(ideals, "_substitute_packed", spy)
    for g, image, expected in (("x^5", "x", "y^1500"), ("x^2", "x*y^250", "y^1100")):
        widths.clear()
        imgs = {"x": p(image, xy), "y": p("y", xy)}
        result = substitute_reduced(p(g, xy), imgs, [p("x - y^300", xy)], "lex")
        assert result == p(expected, xy)
        assert widths == [10, 20]
