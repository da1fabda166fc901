"""Round-trip claims against textbook division.

``round_trip_residual`` decides whether a composite minus a variable lies in
an ideal.  With one generator f that is monic in some variable v it divides
in lex order with v first, else in the requested order.  A single polynomial
is a Groebner basis under every order, so in both cases the residual must be
the oracle's unique remainder in that order: ``naive_division`` of the
per-term composite (``substitute_oracle``).  The images are built so that
the claim holds (images move by multiples of f), and an added polynomial
breaks it exactly when the oracle finds it outside (f).
"""

from conftest import examples, naive_division, substitute_oracle
from hypothesis import example, given, strategies as st

from danielewski import ideals
from danielewski.ideals import IdealPresentation, groebner_basis, round_trip_residual
from danielewski.ratpoly import MultiPoly, poly_from_str, ring_embed

XYZ = ("x", "y", "z")
CLAIMS = examples(40)


def p(text, ring=XYZ):
    return poly_from_str(text, ring)


def polys(max_degree, max_terms, coefficients, min_terms=0):
    exps = st.tuples(*[st.integers(0, max_degree)] * 3).filter(lambda e: sum(e) <= max_degree)
    terms = st.dictionaries(exps, coefficients, min_size=min_terms, max_size=max_terms)
    return terms.map(lambda d: MultiPoly(XYZ, d))


small_ints = st.integers(-3, 3).filter(bool)
rational = st.fractions(-2, 2, max_denominator=2).filter(bool)
# cylinder generators x^n z - P(y) (monic in y, and for n >= deg P not led by
# y^deg P in grevlex), random ones (monic in some variable or not), and ones
# monic in no variable
generators = st.one_of(
    st.sampled_from(["x*z - y^2 + 1", "x^3*z - y^2 + 1", "x^2*z - y^3 + y",
                     "2*x*z - 3*y^2 + 1/2*y"]).map(p),
    polys(3, 4, small_ints, min_terms=2).filter(lambda f: not f.is_constant()),
    st.sampled_from(["x*y + y*z", "x^2*y - x*y*z + z^2*x", "x*y*z - x - y - z"]).map(p),
)
shifts = st.fixed_dictionaries({v: polys(1, 2, small_ints) for v in XYZ})


def monic_variable(f):
    """The first variable whose top power in ``f`` is a lone pure power, else None."""
    for i, v in enumerate(f.ring):
        top = max(exp[i] for exp in f.terms)
        leading = [exp for exp in f.terms if exp[i] == top]
        if top and len(leading) == 1 and sum(leading[0]) == top:
            return v
    return None


def expected_residual(outer, inner, var, f, order):
    """The oracle's remainder of ``outer(inner) - var`` by ``f`` in f's order."""
    composite = substitute_oracle(outer, inner) - MultiPoly.var(XYZ, var)
    v = monic_variable(f)
    if v is None:
        return naive_division(composite, [f], order)[1]
    lex = (v,) + tuple(u for u in XYZ if u != v)
    _, remainder = naive_division(ring_embed(composite, lex), [ring_embed(f, lex)], "lex")
    return ring_embed(remainder, XYZ)


@CLAIMS
@given(generators, shifts, polys(1, 2, small_ints), polys(2, 3, rational),
       st.sampled_from(XYZ), st.sampled_from(["grevlex", "lex"]))
@example(p("x*z - y^2 + 1"), {v: p("x") for v in XYZ}, p("y"), p("0"), "z", "grevlex")
@example(p("x^3*z - y^2 + 1"), {v: p("z") for v in XYZ}, p("x"), p("y^2 + x"), "y", "grevlex")
@example(p("x*y + y*z"), {v: p("1") for v in XYZ}, p("z"), p("x"), "x", "grevlex")
def test_residual_is_the_remainder_in_the_generators_order(f, shift, b, extra, var, order):
    inner = {v: MultiPoly.var(XYZ, v) + shift[v] * f for v in XYZ}
    outer = MultiPoly.var(XYZ, var) + b * f + extra
    residual = round_trip_residual(outer, inner, var, [f], order)
    assert residual.ring == XYZ
    assert residual == expected_residual(outer, inner, var, f, order)
    # inner moves each variable by a multiple of f, so only ``extra`` can
    # break the claim, and it does exactly when it lies outside (f)
    assert residual.is_zero() == naive_division(extra, [f], order)[1].is_zero()


def test_elimination_variable():
    assert ideals._elimination_variable(p("x*z - y^2 + 1")) == "y"
    assert ideals._elimination_variable(p("x^3*z - 2*y^2 + 1")) == "y"
    assert ideals._elimination_variable(p("x - y^300")) == "x"
    assert ideals._elimination_variable(p("x*y + y*z")) is None
    assert ideals._elimination_variable(p("x*y - y")) is None
    assert ideals._elimination_variable(p("3")) is None


@CLAIMS
@given(polys(2, 3, small_ints), shifts, st.sampled_from(XYZ))
def test_multi_generator_basis_takes_the_groebner_path(outer, shift, var):
    basis = list(groebner_basis(IdealPresentation(XYZ, [p("x^2 - y"), p("y^2 - z")])).basis)
    assert len(basis) == 2
    inner = {v: MultiPoly.var(XYZ, v) + shift[v] for v in XYZ}
    composite = substitute_oracle(outer, inner) - MultiPoly.var(XYZ, var)
    _, expected = naive_division(composite, basis)
    assert round_trip_residual(outer, inner, var, basis) == expected
