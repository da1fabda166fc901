"""Surface-equation grammar: parsing, normalization, positioned errors."""

import itertools
from fractions import Fraction

import pytest

from danielewski.errors import ParseError, SingularInputError
from danielewski.fibration import Variant, is_smooth
from danielewski.ideals import jacobian_smooth
from danielewski.surfexpr import SurfaceSpec, parse_surface


def test_parse_intro_equation():
    spec = parse_surface("x^1 z = (y - 0)^1 (y - 1)^1")
    assert spec.n == 1
    assert spec.roots == ((Fraction(0), 1), (Fraction(1), 1))
    assert spec.variant is Variant.PLAIN


def test_parse_shifted_family():
    spec = parse_surface("x^2 z = (y - 1)^3 (y + 2)^2 - x")
    assert spec.n == 2
    assert spec.roots == ((Fraction(1), 3), (Fraction(-2), 2))
    assert spec.variant is Variant.SHIFTED


def test_non_monic_rejected():
    with pytest.raises(ParseError):
        parse_surface("x^1 z = 2 (y - 1)^1")


def test_shorthand_normalization():
    spec = parse_surface("x z = y (y - 1)")
    assert spec.n == 1
    assert spec.roots == ((Fraction(0), 1), (Fraction(1), 1))
    assert spec.normalized() == "x^1 z = y (y - 1)"


def test_explicit_unit_constant_allowed():
    spec = parse_surface("x z = 1 (y - 1)")
    assert spec.roots == ((Fraction(1), 1),)


def test_round_trip_idempotent():
    for text in [
        "x^1 z = (y - 1) (y + 1)",
        "x^3 z = y^1 (y - 1/2)^2 - x",
        "x z = y",
        "x^2 z = (y + 2/3)^4 - x",
    ]:
        once = parse_surface(text).normalized()
        assert parse_surface(once).normalized() == once


def test_rational_roots():
    spec = parse_surface("x z = (y - 1/2) (y + 3/4)")
    assert spec.roots == ((Fraction(1, 2), 1), (Fraction(-3, 4), 1))


def test_duplicate_roots_rejected():
    with pytest.raises(ParseError):
        parse_surface("x z = (y - 1) (y - 1)")


def test_zero_exponent_rejected():
    with pytest.raises(ParseError):
        parse_surface("x^0 z = (y - 1)")
    with pytest.raises(ParseError):
        parse_surface("x z = (y - 1)^0")


def test_malformed_trailing_term():
    with pytest.raises(ParseError):
        parse_surface("x z = (y - 1) - y")


def test_star_separators_accepted():
    spec = parse_surface("x^2*z = (y - 1)*(y + 1)")
    assert spec.n == 2
    assert len(spec.roots) == 2


def test_error_positions_reported():
    with pytest.raises(ParseError) as info:
        parse_surface("x z = (y - 1) (q - 2)")
    assert info.value.position == 15


def test_to_surface_builds_and_validates():
    surface = parse_surface("x z = (y - 1) (y + 1)").to_surface()
    assert surface.equation_str() == "x^1 z = (y - 1) (y + 1)"
    with pytest.raises(SingularInputError):
        parse_surface("x z = y^2").to_surface()


@pytest.mark.parametrize("text", [
    "x z = (y - 1) (y + 1)",
    "x^3 z = (y - 1/2) (y + 2)",
    "x z = (y - 1)^2 (y + 1)",
    "x^2 z = y^2",
    "x z = (y + 1) y - x",
    "x z = y^2 - x",
    "x^2 z = (y - 1)^3 - x",
    "x^3 z = (y + 1)^2 (y - 2)^2 - x",
])
def test_smoothness_read_off_the_roots_matches_the_jacobian_criterion(text):
    spec = parse_surface(text)
    assert is_smooth(spec.n, spec.roots, spec.variant) == jacobian_smooth(spec.polynomial())


def test_smoothness_rule_matches_the_jacobian_criterion_on_a_grid():
    """n = 1..4, both variants, 1-3 roots from {-3/2, 0, 1, 5/3} with
    multiplicities 1-3: 1,392 members."""
    values = (Fraction(-3, 2), Fraction(0), Fraction(1), Fraction(5, 3))
    checked = 0
    for n, variant, k in itertools.product(range(1, 5), Variant, range(1, 4)):
        for chosen in itertools.combinations(values, k):
            for mults in itertools.product(range(1, 4), repeat=k):
                spec = SurfaceSpec("", n, tuple(zip(chosen, mults)), variant)
                smooth = is_smooth(spec.n, spec.roots, spec.variant)
                assert smooth == jacobian_smooth(spec.polynomial()), spec.normalized()
                checked += 1
    assert checked == 1392
