"""Surface analyzer: construction, fiber decomposition, quotient dichotomy."""

import random
from fractions import Fraction

import pytest
from conftest import poly_from_roots_oracle

from danielewski.errors import SingularInputError
from danielewski.fibration import (
    CounterexampleCandidate,
    LineBundle,
    Variant,
    _poly_from_roots,
    build_surface,
    classify_cancellation,
    degenerate_fibers,
    relatively_connected_quotient,
)
from danielewski.ratpoly import poly_from_str

XYZ = ("x", "y", "z")


def test_plain_two_simple_roots():
    s = build_surface(1, [(0, 1), (1, 1)], Variant.PLAIN)
    assert s.defining_polynomial == poly_from_str("x*z - y^2 + y", XYZ)
    assert (s.n, s.roots, s.variant) == (1, ((0, 1), (1, 1)), Variant.PLAIN)


def test_shifted_with_multiplicities():
    s = build_surface(2, [(1, 3), (-2, 2)], Variant.SHIFTED)
    expected = poly_from_str("x^2*z", XYZ) - (
        poly_from_str("(0)", XYZ) if False else
        (poly_from_str("y - 1", XYZ) ** 3) * (poly_from_str("y + 2", XYZ) ** 2)
    ) + poly_from_str("x", XYZ)
    assert s.defining_polynomial == expected
    assert (s.n, s.roots, s.variant) == (2, ((1, 3), (-2, 2)), Variant.SHIFTED)


@pytest.mark.parametrize("roots, shifted, n", [
    ([(1, 1), (-1, 1)], False, 1),  # plain
    ([(0, 1), (2, 1), (-3, 1)], True, 3),  # shifted
    ([(1, 3), (-2, 2)], True, 2),  # repeated roots
    ([(Fraction(1, 2), 1), (Fraction(-3, 2), 2), (Fraction(2, 3), 1)], False, 2),  # rational
])
def test_poly_from_roots_matches_product_of_factors(roots, shifted, n):
    roots = [(Fraction(r), m) for r, m in roots]
    assert _poly_from_roots(roots, shifted, n) == poly_from_roots_oracle(roots, shifted, n)


def test_plain_repeated_root_rejected():
    with pytest.raises(SingularInputError):
        build_surface(1, [(0, 2)], Variant.PLAIN)


def test_shifted_repeated_root_needs_deep_exponent():
    # n = 1 with a repeated root is singular at (0, root, -1)
    with pytest.raises(SingularInputError):
        build_surface(1, [(0, 2)], Variant.SHIFTED)
    # n >= 2 is fine
    assert build_surface(2, [(0, 2)], Variant.SHIFTED).equation_str() == "x^2 z = y^2 - x"


def test_duplicate_roots_rejected():
    with pytest.raises(ValueError):
        build_surface(1, [(1, 1), (1, 1)], Variant.PLAIN)


def test_bad_exponent_rejected():
    with pytest.raises(ValueError):
        build_surface(0, [(0, 1)], Variant.PLAIN)


def test_fiber_two_reduced_components():
    s = build_surface(1, [(1, 1), (-1, 1)], Variant.PLAIN)
    (fiber,) = degenerate_fibers(s)
    assert fiber.base_point == 0
    assert fiber.components == (("y=1", 1), ("y=-1", 1))
    assert fiber.reduced and not fiber.irreducible
    assert fiber.degenerate


def test_fiber_with_multiplicities():
    s = build_surface(2, [(1, 3), (-2, 2)], Variant.SHIFTED)
    (fiber,) = degenerate_fibers(s)
    assert fiber.components == (("y=1", 3), ("y=-2", 2))
    assert not fiber.reduced and not fiber.irreducible


def test_fiber_single_simple_root_not_degenerate():
    s = build_surface(1, [(0, 1)], Variant.PLAIN)
    (fiber,) = degenerate_fibers(s)
    assert fiber.components == (("y=0", 1),)
    assert fiber.reduced and fiber.irreducible
    assert not fiber.degenerate


def test_fiber_round_trip_randomized():
    rng = random.Random(59)
    for _ in range(50):
        count = rng.randint(1, 4)
        roots = []
        values = rng.sample(range(-6, 7), count)
        shifted = rng.random() < 0.5
        for v in values:
            mult = rng.randint(1, 3) if shifted else 1
            roots.append((Fraction(v), mult))
        n = rng.randint(2, 4) if shifted else rng.randint(1, 4)
        s = build_surface(n, roots, Variant.SHIFTED if shifted else Variant.PLAIN)
        (fiber,) = degenerate_fibers(s)
        assert fiber.components == tuple((f"y={v}", m) for (v, m) in roots)


def test_quotient_double_origin():
    s = build_surface(1, [(1, 1), (-1, 1)], Variant.PLAIN)
    q = relatively_connected_quotient(s)
    assert len(q.marked_points) == 1
    pt = q.marked_points[0]
    assert pt.location == 0
    assert pt.branches == (("y=1", 1), ("y=-1", 1))
    assert q.is_scheme() and not q.equals_base()


def test_quotient_multiplicity_two_is_not_a_scheme():
    s = build_surface(2, [(0, 2)], Variant.SHIFTED)
    q = relatively_connected_quotient(s)
    assert len(q.marked_points) == 1
    assert q.marked_points[0].branches == (("y=0", 2),)
    assert not q.is_scheme()


def test_quotient_trivial_for_line_bundle():
    s = build_surface(1, [(0, 1)], Variant.PLAIN)
    q = relatively_connected_quotient(s)
    assert q.marked_points == ()
    assert q.equals_base() and q.is_scheme()


def test_quotient_dichotomy_randomized():
    """Base-only quotient iff the fiber over 0 is irreducible and reduced;
    scheme iff all multiplicities are 1."""
    rng = random.Random(61)
    for _ in range(40):
        count = rng.randint(1, 3)
        values = rng.sample(range(-5, 6), count)
        shifted = rng.random() < 0.5
        roots = [(Fraction(v), rng.randint(1, 3) if shifted else 1) for v in values]
        n = rng.randint(2, 3) if shifted else rng.randint(1, 3)
        s = build_surface(n, roots, Variant.SHIFTED if shifted else Variant.PLAIN)
        (fiber,) = degenerate_fibers(s)
        q = relatively_connected_quotient(s)
        assert q.equals_base() == (fiber.irreducible and fiber.reduced)
        assert q.is_scheme() == all(m == 1 for _, m in roots)
        classification = classify_cancellation(s)
        assert isinstance(classification, LineBundle) == (not q.marked_points)


def test_classify_line_bundle():
    s = build_surface(1, [(0, 1)], Variant.PLAIN)
    assert isinstance(classify_cancellation(s), LineBundle)


def test_classify_counterexample_candidate():
    s = build_surface(1, [(1, 1), (-1, 1)], Variant.PLAIN)
    result = classify_cancellation(s)
    assert isinstance(result, CounterexampleCandidate)
    assert len(result.curve.marked_points[0].branches) == 2


def test_classify_triple_origin():
    s = build_surface(3, [(1, 1), (-1, 1), (2, 1)], Variant.PLAIN)
    result = classify_cancellation(s)
    assert isinstance(result, CounterexampleCandidate)
    assert len(result.curve.marked_points[0].branches) == 3


def test_equation_round_trip_text():
    s = build_surface(2, [(1, 3), (-2, 2)], Variant.SHIFTED)
    assert s.equation_str() == "x^2 z = (y - 1)^3 (y + 2)^2 - x"
