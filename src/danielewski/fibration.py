"""Danielewski-type surfaces fibered over the affine line by x.

Models the two hypersurface families

    x^n z = P(y)        (plain fiber)
    x^n z = P(y) - x    (shifted fiber)

with P monic and given in factored form, decides smoothness from the roots
(``is_smooth``), computes the decomposition of the scheme-theoretic fiber
over x = 0, builds the smooth relatively connected quotient of the
fibration as combinatorial multifold-curve data (the affine line with
finitely many points replaced by several branch points, possibly
non-reduced), and classifies whether the fibration is a line bundle or a
cancellation counterexample candidate.

Both families are trivial A^1-bundles away from x = 0, so the only candidate
degenerate fiber sits over the origin; the analyzer hard-codes that locus.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .errors import SingularInputError
from .ideals import IdealPresentation
from .ratpoly import MultiPoly, _base_str, _product_str, as_fraction, fraction_str

SURFACE_RING = ("x", "y", "z")


class Variant(enum.Enum):
    """Which of the two hypersurface families a surface belongs to."""

    PLAIN = "plain"
    SHIFTED = "shifted"


@dataclass(frozen=True)
class DanielewskiSurface:
    """A member of one of the two families, with its derived presentation.

    ``presentation`` is the ideal of the surface in ``SURFACE_RING``, fibered
    by ``x``.  ``roots`` lists the distinct roots of P with multiplicities, in
    input order; that order fixes branch indices everywhere downstream.
    """

    n: int
    roots: tuple[tuple[Fraction, int], ...]
    variant: Variant
    presentation: IdealPresentation

    @property
    def defining_polynomial(self) -> MultiPoly:
        return self.presentation.generators[0]

    @property
    def simple_roots(self) -> bool:
        return all(m == 1 for _, m in self.roots)

    def root_values(self) -> tuple[Fraction, ...]:
        return tuple(r for r, _ in self.roots)

    def equation_str(self) -> str:
        return format_equation(self.n, self.roots, self.variant)


def format_equation(n: int, roots, variant: Variant) -> str:
    """Canonical factored text of a family member's defining equation."""
    rhs = _product_str([(_base_str("y", as_fraction(root)), mult) for root, mult in roots], " ")
    if variant is Variant.SHIFTED:
        rhs += " - x"
    return f"x^{n} z = {rhs}"


@dataclass(frozen=True)
class FiberDecomposition:
    """Component data of a scheme-theoretic fiber of the fibration."""

    base_point: Fraction
    components: tuple[tuple[str, int], ...]
    reduced: bool
    irreducible: bool

    @property
    def degenerate(self) -> bool:
        return not (self.reduced and self.irreducible)


@dataclass(frozen=True)
class MultifoldCurve:
    """The smooth relatively connected quotient, as combinatorial data.

    The base is the affine line with the named coordinate; each marked point
    replaces a point of the base by one branch per connected fiber component,
    carrying that component's multiplicity.  The curve is a scheme exactly
    when every branch is reduced, and equals the base exactly when every
    marked point is a single reduced branch.
    """

    base_variable: str = "x"
    marked_points: tuple["MarkedPoint", ...] = ()

    def is_scheme(self) -> bool:
        return all(m == 1 for pt in self.marked_points for _, m in pt.branches)

    def equals_base(self) -> bool:
        return all(
            len(pt.branches) == 1 and pt.branches[0][1] == 1 for pt in self.marked_points
        )

    def marked_point_at(self, location) -> "MarkedPoint":
        location = as_fraction(location)
        for pt in self.marked_points:
            if pt.location == location:
                return pt
        raise KeyError(f"no marked point at {location}")


@dataclass(frozen=True)
class MarkedPoint:
    location: Fraction
    branches: tuple[tuple[str, int], ...]  # (branch id, multiplicity)


def _poly_from_roots(roots, shifted: bool, n: int) -> MultiPoly:
    """``x^n z - P(y) [+ x]``, with P(y) expanded as a dense coefficient list.

    The list holds integer coefficients of ``den * P(y)``, lowest degree
    first; each root p/q multiplies it by ``q y - p`` and ``den`` by q.
    """
    p_of_y, den = [1], 1
    for root, mult in roots:
        p, q = root.numerator, root.denominator
        for _ in range(mult):
            p_of_y = [q * a - p * b for a, b in zip([0, *p_of_y], [*p_of_y, 0])]
            den *= q
    terms = {(0, k, 0): Fraction(-c, den) for k, c in enumerate(p_of_y)}
    terms[(n, 0, 1)] = Fraction(1)
    if shifted:
        terms[(1, 0, 0)] = Fraction(1)
    return MultiPoly(SURFACE_RING, terms)


def is_smooth(n: int, roots, variant: Variant) -> bool:
    """The Jacobian criterion for ``x^n z = P(y) [- x]``, solved by hand.

    ``d/dz = x^n`` vanishes only on ``x = 0``, where the surface is
    ``P(y) = 0`` and ``d/dy`` vanishes only at a repeated root of P.
    ``d/dx`` then vanishes too at some point, except on the shifted family
    with n >= 2, whose ``d/dx = n x^(n-1) z + 1`` is 1 there.  So a member
    is singular exactly when P has a repeated root and the member is plain,
    or shifted with n = 1.  ``ideals.jacobian_smooth`` is the general
    criterion; the tests check this rule against it.
    """
    simple = all(m == 1 for _, m in roots)
    return simple or (variant is Variant.SHIFTED and n >= 2)


def build_surface(n: int, roots: Iterable[tuple], variant: Variant) -> DanielewskiSurface:
    """Construct a family member; a singular one (``is_smooth``) is refused."""
    if not isinstance(n, int) or n < 1:
        raise ValueError("the exponent of x must be a positive integer")
    clean: list[tuple[Fraction, int]] = []
    for root, mult in roots:
        root = as_fraction(root)
        if not isinstance(mult, int) or mult < 1:
            raise ValueError(f"multiplicity of root {root} must be a positive integer")
        clean.append((root, mult))
    if not clean:
        raise ValueError("at least one root is required")
    values = [r for r, _ in clean]
    if len(set(values)) != len(values):
        raise ValueError(f"duplicate roots in {values}")
    shifted = variant is Variant.SHIFTED
    if not is_smooth(n, clean, variant):
        if not shifted:
            raise SingularInputError(
                "x^n z = P(y) with a repeated root of P is singular; "
                "multiple fibers on smooth surfaces need the shifted family"
            )
        f = _poly_from_roots(clean, shifted, n)
        raise SingularInputError(f"surface {f} fails the Jacobian criterion")
    presentation = IdealPresentation(SURFACE_RING, [_poly_from_roots(clean, shifted, n)])
    return DanielewskiSurface(n, tuple(clean), variant, presentation)


def degenerate_fibers(surface: DanielewskiSurface) -> list[FiberDecomposition]:
    """Fiber decomposition at the only candidate degenerate locus, x = 0.

    Over x = 0 both families degenerate to P(y) = 0 in the (y, z) plane: one
    affine-line component per root of P, with that root's multiplicity.
    Fibers over x != 0 are graphs over the y-line, hence irreducible and
    reduced; they are not listed.
    """
    components = tuple((f"y={fraction_str(r)}", m) for r, m in surface.roots)
    reduced = all(m == 1 for _, m in components)
    irreducible = len(components) == 1
    return [FiberDecomposition(Fraction(0), components, reduced, irreducible)]


def relatively_connected_quotient(surface: DanielewskiSurface) -> MultifoldCurve:
    """The smooth relatively connected quotient of the fibration.

    Each degenerate-fiber location is replaced by one branch per connected
    component, carrying the component's multiplicity; non-degenerate
    locations stay untouched.  The output depends only on the component and
    multiplicity data.
    """
    marked = []
    for fiber in degenerate_fibers(surface):
        if fiber.degenerate:
            marked.append(MarkedPoint(fiber.base_point, fiber.components))
    return MultifoldCurve("x", tuple(marked))


@dataclass(frozen=True)
class LineBundle:
    """Cancellation holds: the fibration is a line bundle over the base."""


@dataclass(frozen=True)
class CounterexampleCandidate:
    """Degenerate fibers exist; the quotient curve stages the cylinder trick."""

    curve: MultifoldCurve


Classification = Union[LineBundle, CounterexampleCandidate]


def classify_cancellation(surface: DanielewskiSurface) -> Classification:
    """Line bundle if no fiber degenerates, else a counterexample candidate.

    With no degenerate fibers the fibration is a Zariski locally trivial
    A^1-bundle over an affine base, hence a line bundle; otherwise the
    quotient curve is returned as the stage for the cylinder construction.
    """
    quotient = relatively_connected_quotient(surface)
    if not quotient.marked_points:
        return LineBundle()
    return CounterexampleCandidate(quotient)
