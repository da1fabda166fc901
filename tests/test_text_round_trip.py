"""The text form reads back what it writes.

``MultiPoly`` and ``LaurentPoly`` print through one signed-sum writer and
parse through one sum reader; the ``(v ± a)`` base has one writer
(``LaurentPoly``, ``format_equation``) and one reader (``laurent_from_str``,
``parse_surface``).  Printing then parsing must give the value back.
"""

from fractions import Fraction

from conftest import examples
from hypothesis import example, given, strategies as st

from danielewski.fibration import Variant, format_equation
from danielewski.ratpoly import LaurentPoly, MultiPoly, laurent_from_str, poly_from_str
from danielewski.surfexpr import parse_surface

RING = ("x", "y", "z", "w")
TEXT = examples(100)

rationals = st.fractions(-50, 50, max_denominator=12)
exponents = st.tuples(*[st.integers(0, 4)] * len(RING))
polys = st.dictionaries(exponents, rationals, max_size=8).map(lambda d: MultiPoly(RING, d))
centers = st.fractions(-7, 7, max_denominator=6).filter(bool)
laurents = st.builds(
    LaurentPoly, st.just("x"), st.dictionaries(st.integers(-6, 6), rationals, max_size=6), centers
)
# distinct roots among 0, negatives and half-integers, multiplicities 1-3
members = st.lists(
    st.tuples(st.integers(-8, 8).map(lambda k: Fraction(k, 2)), st.integers(1, 3)),
    min_size=1, max_size=4, unique_by=lambda root: root[0],
)


@TEXT
@given(polys)
def test_multipoly_text_round_trip(p):
    assert poly_from_str(str(p), RING) == p


@TEXT
@given(laurents)
def test_laurent_text_round_trip_at_a_nonzero_center(g):
    assert g.center != 0
    assert laurent_from_str(str(g), g.variable, g.center) == g


@TEXT
@given(st.integers(1, 5), members, st.sampled_from(Variant))
@example(2, [(Fraction(0), 2), (Fraction(-3), 1), (Fraction(1, 2), 3)], Variant.SHIFTED)
def test_surface_equation_text_round_trip(n, roots, variant):
    text = format_equation(n, roots, variant)
    spec = parse_surface(text)
    assert (spec.n, spec.roots, spec.variant) == (n, tuple(roots), variant)
    assert spec.normalized() == text
