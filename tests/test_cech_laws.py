"""Laws of the push and of the principal-parts normal form, as properties.

A class lives on a line with one marked point of two or three reduced
branches, at 0 or at a nonzero location.  Pushing along multiplication by a
polynomial is a module action of Q[x] on H^1: pushing by s1 and then by s2
is pushing by s1 * s2, pushing by 1 changes nothing, and a push distributes
over the sum of classes.  ``class_normal_form`` strips regular parts, so it
is idempotent, also on raw data that carries coboundaries.
"""

from fractions import Fraction

from conftest import examples
from hypothesis import given, strategies as st

from danielewski.cech import add_classes, class_normal_form, h1_push
from danielewski.fibration import MarkedPoint, MultifoldCurve
from danielewski.ratpoly import LaurentPoly, MultiPoly

LAWS = examples(40)
LOCATIONS = [Fraction(0), Fraction(1), Fraction(-3, 2)]
coefficients = st.fractions(-4, 4, max_denominator=3)


def laurent(exponents, location):
    return st.dictionaries(exponents, coefficients, max_size=4).map(
        lambda terms: LaurentPoly("x", terms, location))


@st.composite
def raw_data(draw, location, branches, regular=False):
    """Transition data g_01, g_12 (and g_02 = g_01 + g_12 for three branches)
    at ``location``: pure principal parts, plus regular parts with
    ``regular``."""
    exponents = st.integers(-5, 3 if regular else -1)
    g01 = draw(laurent(exponents, location))
    if branches == 2:
        raw = {(location, (0, 1)): g01}
    else:
        g12 = draw(laurent(exponents, location))
        raw = {(location, (0, 1)): g01, (location, (1, 2)): g12,
               (location, (0, 2)): g01 + g12}
    return {key: g for key, g in raw.items() if not g.is_zero()}


@st.composite
def classes(draw, count=1, regular=False):
    """A curve at a drawn location and ``count`` classes on it."""
    location = draw(st.sampled_from(LOCATIONS))
    branches = draw(st.sampled_from([2, 3]))
    curve = MultifoldCurve("x", (MarkedPoint(location, tuple((f"b{i}", 1)
                                                             for i in range(branches))),))
    raws = [draw(raw_data(location, branches, regular)) for _ in range(count)]
    return curve, [class_normal_form(raw, curve) for raw in raws], raws


pushes = st.dictionaries(st.integers(0, 8), coefficients.filter(bool), min_size=1, max_size=4).map(
    lambda terms: MultiPoly(("x",), {(e,): c for e, c in terms.items()}))


@LAWS
@given(classes(), pushes, pushes)
def test_push_by_a_product_is_two_pushes(data, s1, s2):
    _, (c,), _ = data
    assert h1_push(h1_push(c, s1), s2) == h1_push(c, s1 * s2)


@LAWS
@given(classes())
def test_push_by_one_is_the_identity(data):
    _, (c,), _ = data
    assert h1_push(c, MultiPoly.const(("x",), 1)) == c


@LAWS
@given(classes(count=2), pushes)
def test_push_distributes_over_the_sum(data, s):
    _, (c1, c2), _ = data
    assert h1_push(add_classes(c1, c2), s) == add_classes(h1_push(c1, s), h1_push(c2, s))


@LAWS
@given(classes(regular=True))
def test_class_normal_form_is_idempotent(data):
    curve, (c,), (raw,) = data
    assert class_normal_form(c.parts, curve) == c
    assert all(g.is_principal() for g in c.parts.values())
    # the normal form keeps exactly the principal parts of the raw data
    assert c.parts == {key: g.principal_part() for key, g in raw.items()
                       if not g.principal_part().is_zero()}
