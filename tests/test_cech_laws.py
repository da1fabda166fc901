"""Laws of the push and of the principal-parts normal form, as properties.

A class lives on a line with one marked point of two or three reduced
branches, at 0 or at a nonzero location.  Pushing along multiplication by a
polynomial is a module action of Q[x] on H^1: pushing by s1 and then by s2
is pushing by s1 * s2, pushing by 1 changes nothing, and a push distributes
over the sum of classes.  ``class_normal_form`` strips regular parts, so it
is idempotent, also on raw data that carries coboundaries.

``orbit_equivalent`` decides equivalence under branch permutations,
scalings x -> lambda*x and global rescaling, for classes at one marked
point at 0 of two to four branches: a class is equivalent to each of its
transforms, the relation is symmetric, and the branch-by-branch search
agrees with trying every permutation in turn (``permutation_loop``).
"""

import itertools
from fractions import Fraction

from conftest import examples
from hypothesis import example, given, strategies as st

from danielewski.cech import (
    _scaling_system_solvable,
    add_classes,
    class_normal_form,
    h1_push,
    orbit_equivalent,
    transform_class,
)
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


# -- orbit equivalence ------------------------------------------------------

small = st.sampled_from([-2, -1, 1, 2])
nonzero = st.sampled_from([Fraction(1, 2), Fraction(-1), Fraction(2), Fraction(-3, 2)])


def origins(r):
    return MultifoldCurve("x", (MarkedPoint(Fraction(0), tuple((f"b{i}", 1) for i in range(r))),))


def class_from_base(curve, base):
    """The class with part g_0j = base[j - 1] from branch 0 to branch j, so
    g_ij = g_0j - g_0i."""
    g = [LaurentPoly.zero("x")] + base
    r = len(g)
    raw = {(Fraction(0), (i, j)): g[j] - g[i] for i in range(r) for j in range(i + 1, r)}
    return class_normal_form({k: v for k, v in raw.items() if not v.is_zero()}, curve)


@st.composite
def orbit_pairs(draw):
    """Two classes on a line with two to four origins: the second is a
    transform of the first, with one branch's part scaled or not, or
    unrelated.  A scaled part mostly keeps the supports and breaks the
    agreement of the ratios between pairs."""
    r = draw(st.integers(2, 4))
    curve = origins(r)
    parts = st.dictionaries(st.integers(-3, -1), small, max_size=2).map(
        lambda terms: LaurentPoly("x", terms))
    base = draw(st.lists(parts, min_size=r - 1, max_size=r - 1))
    c1 = class_from_base(curve, base)
    how = draw(st.sampled_from(["transform", "scaled", "unrelated"]))
    if how == "unrelated":
        base = draw(st.lists(parts, min_size=r - 1, max_size=r - 1))
    elif how == "scaled":
        j = draw(st.integers(0, r - 2))
        base = base[:j] + [base[j] * draw(nonzero)] + base[j + 1:]
    sigma = tuple(draw(st.permutations(range(r))))
    c2 = transform_class(class_from_base(curve, base), sigma, draw(nonzero), draw(nonzero))
    return c1, c2


def permutation_loop(c1, c2) -> bool:
    """The decision by every branch permutation in turn: the supports must
    match and the coefficient ratios agree per exponent, and then the scalars
    must solve.  The reference for the search of ``orbit_equivalent``."""
    if c1.is_zero() or c2.is_zero():
        return c1.is_zero() and c2.is_zero()
    r = len(c1.curve.marked_points[0].branches)
    support2 = {(pair, e): a for (_, pair), g in c2.parts.items() for e, a in g.terms.items()}
    for sigma in itertools.permutations(range(r)):
        moved = transform_class(c1, permutation=sigma)
        support1 = {(pair, e): a for (_, pair), g in moved.parts.items()
                    for e, a in g.terms.items()}
        if set(support1) != set(support2):
            continue
        ratios: dict = {}
        if all(ratios.setdefault(e, support2[(pair, e)] / a) == support2[(pair, e)] / a
               for (pair, e), a in support1.items()) and _scaling_system_solvable(ratios):
            return True
    return False


@LAWS
@given(orbit_pairs(), nonzero, nonzero, st.data())
def test_a_class_is_equivalent_to_its_transforms(pair, lam, s, data):
    c, _ = pair
    sigma = tuple(data.draw(st.permutations(range(len(c.curve.marked_points[0].branches)))))
    assert orbit_equivalent(c, transform_class(c, sigma, lam, s))


@LAWS
@given(orbit_pairs())
def test_orbit_equivalence_is_symmetric(pair):
    c1, c2 = pair
    assert orbit_equivalent(c1, c2) == orbit_equivalent(c2, c1)


def differences(a):
    """Parts g_ij = (a_j - a_i) x^-1 on a line with len(a) origins."""
    return class_from_base(origins(len(a)), [LaurentPoly("x", {-1: b - a[0]}) for b in a[1:]])


@LAWS
@given(orbit_pairs())
@example((differences([0, 1, 2]), differences([0, 1, 3])))  # same supports, ratios disagree
def test_orbit_search_agrees_with_every_permutation(pair):
    c1, c2 = pair
    assert orbit_equivalent(c1, c2) == permutation_loop(c1, c2)
