"""Buchberger's algorithm against sympy, and its cofactor witnesses.

``groebner_basis`` must equal ``sympy.groebner`` over Q, made monic, in the
same term order, on random small ideals: unit ideals and ideals whose
reductions outgrow the first packed width included.  ``ideal_member_witness``
must return cofactors with ``f == sum(cofactor_i * g_i) + remainder`` exactly,
and its remainder must be the normal form modulo the basis.
"""

from fractions import Fraction

import sympy
from conftest import examples
from hypothesis import example, given, strategies as st

from danielewski.ideals import (
    IdealPresentation,
    groebner_basis,
    ideal_member_witness,
    normal_form,
)
from danielewski.ratpoly import MultiPoly, poly_from_str

XYZ = ("x", "y", "z")
SYMBOLS = sympy.symbols(XYZ)
ORACLE = examples(60)

coefficients = st.one_of(st.integers(-6, 6), st.fractions(-3, 3, max_denominator=4)).filter(bool)


def polys(max_degree, max_terms, min_terms=1):
    exps = st.tuples(*[st.integers(0, max_degree)] * 3).filter(lambda e: sum(e) <= max_degree)
    terms = st.dictionaries(exps, coefficients, min_size=min_terms, max_size=max_terms)
    return terms.map(lambda d: MultiPoly(XYZ, d))


generator_lists = st.lists(polys(3, 3), min_size=1, max_size=3)
orders = st.sampled_from(["grevlex", "lex"])


def ps(*texts):
    return [poly_from_str(t, XYZ) for t in texts]


def sympy_basis(gens, order):
    exprs = [sympy.Poly.from_dict({e: sympy.Rational(c.numerator, c.denominator)
                                   for e, c in g.terms.items()}, *SYMBOLS).as_expr()
             for g in gens]
    basis = sympy.groebner(exprs, *SYMBOLS, order=order, domain="QQ")
    monic = [p.quo_ground(p.LC(order=order)) for p in basis.polys]
    return {frozenset((e, Fraction(int(c.p), int(c.q))) for e, c in p.terms()) for p in monic}


@ORACLE
@given(generator_lists, orders)
@example(ps("x*y - 1", "x"), "grevlex")  # unit ideal
@example(ps("2*x^2 - y", "3*x*y - 1", "y^2 - 1/2"), "lex")  # unit ideal through a reduction
@example(ps("x - y^2", "y - z^2"), "lex")  # x - z^4 outgrows the width of degree 2
@example(ps("x^2 - y", "y^2 - z", "z^2 - x"), "lex")  # z^8 - z
@example(ps("-x*y - 3/4*y", "1/2*y^2 - 3/4*z^2"), "grevlex")  # pseudo-steps in the reductions
@example(ps("-2*x*z - y*z", "6*x^2 - z"), "grevlex")
def test_groebner_basis_matches_sympy(gens, order):
    gb = groebner_basis(IdealPresentation(XYZ, gens), order)
    assert {frozenset(g.terms.items()) for g in gb.basis} == sympy_basis(gens, order)


@ORACLE
@given(st.lists(polys(2, 3), min_size=2, max_size=3), polys(2, 3), polys(3, 4, 0), orders)
@example(ps("-2*x*z - y*z", "6*x^2 - z"), *ps("y - 1", "x^3 + 1/3*y*z"), "grevlex")
def test_witness_cofactor_identity(gens, h, f, order):
    ideal_ = IdealPresentation(XYZ, gens)
    basis = groebner_basis(ideal_, order).basis
    for target in (f, f + h * gens[0], h * gens[-1]):
        member, cofactors, remainder = ideal_member_witness(target, ideal_, order)
        total = remainder
        for c, g in zip(cofactors, ideal_.generators):
            total = total + c * g
        assert total == target
        assert remainder == normal_form(target, basis, order)
        assert member == remainder.is_zero()

