"""The packed division against textbook division.

The oracle is ``naive_division`` from ``conftest``, in plain ``MultiPoly``
arithmetic.  ``reduce_full`` and ``normal_form`` must match its quotients and
remainder term for term for any divisor list, Groebner basis or not, since
both take the largest term first and the first divisor that applies.
``substitute_reduced`` reduces while it substitutes, so it must match the
oracle's remainder of the per-term substitution (``substitute_oracle``)
modulo a Groebner basis, where the remainder is unique.  The kernel's
Kronecker product must equal its schoolbook product, and the division with
its heap floor the heap loop without one (``reference_reduce``).
"""

import contextlib
import heapq
from fractions import Fraction
from math import comb, gcd, inf

from conftest import naive_division, substitute_oracle
import pytest
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
from danielewski.ratpoly import MultiPoly, poly_from_str, substitute

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


# -- the products of the kernel ----------------------------------------------

# Fields of 6 bits hold exponents up to 31; the sum of two such exponents
# reaches the guard bit, which both products must set alike.
WIDTH = 6
TOP = (1 << (WIDTH - 1)) - 1
wide = st.integers(-(1 << 70), 1 << 70).filter(bool)
coefficients = wide | small_ints | st.sampled_from([(1 << 64) + 1, -(1 << 64) - 1])


@contextlib.contextmanager
def every_product_packed():
    """The kernel with every product of a nonempty ring packed, however small
    or sparse its operands."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ideals, "_KRONECKER_PAIRS", 1)
        mp.setattr(ideals, "_KRONECKER_SLOTS_PER_TERM", inf)
        yield


@st.composite
def packed_operands(draw):
    n = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, TOP)] * n)
    operand = st.dictionaries(exps, coefficients, min_size=1, max_size=12)
    return n, draw(operand), draw(operand)


@settings(max_examples=100, deadline=None)
@given(packed_operands(), st.sampled_from(["grevlex", "lex"]))
@example((1, {(TOP,): 1}, {(TOP,): -1}), "lex")
@example((2, {(TOP, 0): 3, (0, TOP): -5}, {(TOP, TOP): 1 << 70}), "grevlex")
@example((3, {(1, 2, 3): -(1 << 65)}, {(0, 0, 0): 7, (2, 0, 0): -1, (4, 0, 0): 1}), "lex")
def test_kronecker_product_equals_the_schoolbook_product(operands, order):
    n, a, b = operands
    packed = ideals._PackedDivision(n, order, WIDTH)
    ka = {packed.key(e): c for e, c in a.items()}
    kb = {packed.key(e): c for e, c in b.items()}
    expected = ideals._schoolbook_product(ka, kb, packed.one)
    with every_product_packed():
        for var in range(n):
            assert ideals._kronecker_product(ka, kb, packed, var) == expected


def test_products_past_the_field_set_the_guard_bit():
    packed = ideals._PackedDivision(2, "lex", WIDTH)
    a = {packed.key((TOP, i)): i + 1 for i in range(3)}
    with every_product_packed():
        product = ideals._kronecker_product(a, a, packed, 0)
    assert product == ideals._schoolbook_product(a, a, packed.one)
    assert product and all(k & packed.guard for k in product)


def test_overflow_in_a_kronecker_product_reruns_wider(monkeypatch):
    # Modulo x - y^300 in lex the image of x reduces to the 70 terms
    # y^300..y^369.  Its square has 4,900 term pairs, so it is a Kronecker
    # product, and its exponents up to 738 exceed the 10-bit fields sized from
    # the inputs: the guard bit must catch them and the kernel rerun wider.
    xy = ("x", "y")
    widths, kronecker = [], []
    packed, product = ideals._substitute_packed, ideals._kronecker_product

    def spy(*args):
        widths.append(args[-1])
        return packed(*args)

    def counted(*args):
        kronecker.append(args[-1])
        return product(*args)

    monkeypatch.setattr(ideals, "_substitute_packed", spy)
    monkeypatch.setattr(ideals, "_kronecker_product", counted)
    image = p(" + ".join(f"x*y^{i}" for i in range(70)), xy)
    result = substitute_reduced(p("x^2", xy), {"x": image, "y": p("y", xy)},
                                [p("x - y^300", xy)], "lex")
    assert result == p(" + ".join(f"y^{300 + i}" for i in range(70)), xy) ** 2
    assert widths == [10, 20]
    assert kronecker == [1, 1]  # packed along y, the highest exponent of the images


@KERNEL
@given(outer, images, generators, st.sampled_from(["grevlex", "lex"]))
def test_kernel_with_every_product_packed_matches_the_oracle(g, imgs, f, order):
    with every_product_packed():
        assert_matches_oracle(g, imgs, [with_leading_coefficient(f, 1, order)], order)


@pytest.mark.parametrize("f, assignment", [
    (p("x^2*y + 3", ("x", "y")), {"x": MultiPoly.const((), 2), "y": MultiPoly.const((), -5)}),
    (p("x^2*y + x*z"), {"x": MultiPoly.zero(("t",))}),
])
def test_empty_ring_and_zero_operands_take_the_schoolbook_path(f, assignment):
    # Even with every other product packed: the empty ring has no variable to
    # pack along, and a zero accumulator has no rows.
    with every_product_packed():
        assert substitute(f, assignment) == substitute_oracle(f, assignment)


def test_sparse_rows_take_the_schoolbook_path(monkeypatch):
    # Rows with the x-exponents 0, 1 and 1023 would pack 3 terms into 1,024
    # slots each; their integer products and unpacking cost hundreds of times
    # the 9,216 term pairs (17 s against 0.07 s for twice these rows).
    ring = ("x", "y", "s", "t")
    a = MultiPoly(ring, {(e, i, 0, 0): 1 for i in range(1024) for e in (0, 1, 1023)})
    b = MultiPoly(ring, {(e, 0, 0, 0): 1 for e in (0, 1, 1023)})
    schoolbook, pairs = ideals._schoolbook_product, []

    def counted(x, y, one):
        pairs.append(len(x) * len(y))
        return schoolbook(x, y, one)

    monkeypatch.setattr(ideals, "_schoolbook_product", counted)
    assert substitute(MultiPoly(("s", "t"), {(1, 1): 1}), {"s": a, "t": b}) == a * b
    assert max(pairs) == 3072 * 3


# -- the heap floor of the division -------------------------------------------


def reference_reduce(self, terms, den, quotients=None):
    """The heap division with every term on the heap: the reference for the
    floor of ``_PackedDivision.reduce``, which skips terms below the smallest
    leading key."""
    divisors, guard = self.divisors, self.guard
    heap = [-k for k in terms] if divisors else []
    heapq.heapify(heap)
    while heap:
        t = -heapq.heappop(heap)
        c = terms.get(t)
        if c is None:
            continue
        for lead, lc, tail, i in divisors:
            q = t - lead
            if q & guard:
                continue
            del terms[t]
            if lc != 1:
                if c % lc:
                    m = lc // gcd(c, lc)
                    for k in terms:
                        terms[k] *= m
                    c, den = c * m, den * m
                c //= lc
            if quotients is not None:
                quotients[i][q] = (c, den)
            for fk, fc in tail:
                s = q + fk
                old = terms.get(s)
                if old is None:
                    if s & guard:
                        raise ideals._FieldOverflow
                    terms[s] = c * fc
                    heapq.heappush(heap, -s)
                elif new := old + c * fc:
                    terms[s] = new
                else:
                    del terms[s]
            break
    common = den
    for v in terms.values():
        common = gcd(common, v)
        if common == 1:
            return terms, den
    return {k: v // common for k, v in terms.items()}, den // common


@KERNEL
@given(dividends, st.lists(generators, min_size=2, max_size=4), st.sampled_from([2, -3, 4, 6]),
       st.sampled_from([2, 3]))
def test_reduce_full_matches_the_heap_loop_without_a_floor(f, divisors, lc, den):
    # A non-unit leading coefficient over a rational tail forces pseudo-steps.
    divisors = [with_rational_tail(divisors[0], lc, den)] + divisors[1:]
    quotients, remainder = reduce_full(f, divisors)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ideals._PackedDivision, "reduce", reference_reduce)
        assert reduce_full(f, divisors) == (quotients, remainder)
