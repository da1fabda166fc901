"""Round-trip claims against textbook division.

``round_trip_residual`` decides whether a composite minus a variable lies in
the ideal of one generator f.  It divides f as a polynomial in the first
variable v in which f is monic, so the residual must be the oracle's unique
remainder in lex order with v first (``monic_remainder``) of the per-term
composite (``substitute_oracle``).  The images are built so that the claim
holds (images move by multiples of f), and an added polynomial breaks it
exactly when the oracle finds it outside (f).  A generator monic in no
variable is refused.
"""

from conftest import examples, monic_remainder, monic_variable, substitute_oracle
import pytest
from hypothesis import example, given, strategies as st

from danielewski import ideals
from danielewski.ideals import round_trip_residual, substitute_reduced
from danielewski.ratpoly import MultiPoly, poly_from_str

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
# y^deg P in grevlex), ones monic in a variable of degree 1, and random ones
# monic in some variable
generators = st.one_of(
    st.sampled_from(["x*z - y^2 + 1", "x^3*z - y^2 + 1", "x^2*z - y^3 + y",
                     "2*x*z - 3*y^2 + 1/2*y", "x*z - y + 1", "x - y^3*z + 2"]).map(p),
    polys(3, 4, small_ints, min_terms=2).filter(lambda f: monic_variable(f) is not None),
)
shifts = st.fixed_dictionaries({v: polys(1, 2, small_ints) for v in XYZ})


@CLAIMS
@given(generators, shifts, polys(1, 2, small_ints), polys(2, 3, rational), st.sampled_from(XYZ))
@example(p("x*z - y^2 + 1"), {v: p("x") for v in XYZ}, p("y"), p("0"), "z")
@example(p("x^3*z - y^2 + 1"), {v: p("z") for v in XYZ}, p("x"), p("y^2 + x"), "y")
@example(p("x*z - y + 1"), {v: p("z") for v in XYZ}, p("x"), p("0"), "y")  # v itself divides
@example(p("x*z - y + 1"), {v: p("1") for v in XYZ}, p("z"), p("y"), "y")
def test_residual_is_the_remainder_in_the_generators_order(f, shift, b, extra, var):
    inner = {v: MultiPoly.var(XYZ, v) + shift[v] * f for v in XYZ}
    outer = MultiPoly.var(XYZ, var) + b * f + extra
    composite = substitute_oracle(outer, inner) - MultiPoly.var(XYZ, var)
    residual = round_trip_residual(outer, inner, var, f)
    assert residual.ring == XYZ
    assert residual == monic_remainder(composite, f)
    # inner moves each variable by a multiple of f, so only ``extra`` can
    # break the claim, and it does exactly when it lies outside (f)
    assert residual.is_zero() == monic_remainder(extra, f).is_zero()


def test_monic_lead_picks_the_first_monic_variable():
    assert ideals._monic_lead(p("x*z - y^2 + 1"))[:2] == (1, 2)
    assert ideals._monic_lead(p("x^3*z - 2*y^2 + 1"))[:2] == (1, 2)
    assert ideals._monic_lead(p("x - y^300"))[:2] == (0, 1)
    assert ideals._monic_lead(p("x*z - y + 1"))[:2] == (1, 1)


@pytest.mark.parametrize("text", ["x*y + y*z", "x*y - y", "x^2*y - x*y*z + z^2*x", "3"])
def test_generator_monic_in_no_variable_is_refused(text):
    f = p(text)
    assert monic_variable(f) is None
    with pytest.raises(ValueError, match="monic in no variable"):
        substitute_reduced(p("x"), {v: p(v) for v in XYZ}, f)
    with pytest.raises(ValueError, match="monic in no variable"):
        round_trip_residual(p("x"), {v: p(v) for v in XYZ}, "x", f)


@pytest.mark.parametrize("text, divides", [("x*z - y + 1", True), ("x*z - y^2 + 1", False)])
def test_one_kernel_call_per_round_trip(monkeypatch, text, divides):
    # The identity variable is reduced without the kernel: to y - f / c
    # when deg_y f = 1, and not at all otherwise.
    calls, kernel = [], ideals.substitute_reduced

    def spy(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(ideals, "substitute_reduced", spy)
    # y -> x*z + 1 is the identity modulo x*z - y + 1 only
    residual = round_trip_residual(p("y"), {"x": p("x"), "y": p("x*z + 1"), "z": p("z")}, "y", p(text))
    assert len(calls) == 1
    assert residual.is_zero() == divides
