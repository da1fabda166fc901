"""Cech cohomology over multifold curves.

Additive-group torsors over the line with r origins are classified by
principal parts on chart overlaps: a class is stored as one pure principal
part per unordered branch pair at each marked point (the part for (j, i) is
minus the part for (i, j)), and regular parts are exactly the coboundaries
of the chart cover.  The module provides the normal form, the push maps
induced by multiplying the coefficient sheaf by a polynomial, pole-order
invariants and orbit equivalence under curve automorphisms, Picard groups,
classes of the hypersurface families, and the cyclic-group-equivariant model
that encodes multiple fibers through a ramified double (or m-fold) cover.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd
from typing import Mapping, Optional

from .errors import CocycleError, RingMismatchError, UnsupportedError
from .fibration import (
    DanielewskiSurface,
    MarkedPoint,
    MultifoldCurve,
    Variant,
    relatively_connected_quotient,
)
from .ratpoly import LaurentPoly, MultiPoly, as_fraction

PartKey = tuple[Fraction, tuple[int, int]]


class CechClass:
    """An H^1 class on a multifold curve, in principal-parts normal form.

    ``parts`` maps (marked point location, branch pair (i, j) with i < j) to
    a nonzero pure principal part expanded at that location.  The zero class
    stores nothing.
    """

    __slots__ = ("curve", "parts", "_hash")

    def __init__(self, curve: MultifoldCurve, parts: Mapping[PartKey, LaurentPoly]):
        _validate_parts(curve, parts, require_principal=True)
        _check_cocycle(curve, dict(parts))
        object.__setattr__(self, "curve", curve)
        object.__setattr__(self, "parts", dict(parts))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("CechClass is immutable")

    def is_zero(self) -> bool:
        return not self.parts

    def part(self, location, i: int, j: int) -> LaurentPoly:
        """The part for an ordered branch pair; antisymmetric in (i, j)."""
        location = as_fraction(location)
        if i == j:
            raise ValueError("branch pair must be distinct")
        if i < j:
            stored = self.parts.get((location, (i, j)))
            sign = 1
        else:
            stored = self.parts.get((location, (j, i)))
            sign = -1
        if stored is None:
            return LaurentPoly.zero(self.curve.base_variable, location)
        return stored if sign == 1 else -stored

    def sorted_items(self) -> list[tuple[PartKey, LaurentPoly]]:
        return sorted(self.parts.items(), key=lambda kv: kv[0])

    def __eq__(self, other):
        if not isinstance(other, CechClass):
            return NotImplemented
        return self.curve == other.curve and self.parts == other.parts

    def __hash__(self):
        if self._hash is None:
            items = tuple(self.sorted_items())
            object.__setattr__(self, "_hash", hash((self.curve, items)))
        return self._hash

    def __repr__(self):
        if self.is_zero():
            return "CechClass(0)"
        body = "; ".join(f"{loc},{pair}: {g}" for (loc, pair), g in self.sorted_items())
        return f"CechClass({body})"


def _validate_parts(curve: MultifoldCurve, parts, require_principal: bool):
    if not curve.is_scheme():
        raise UnsupportedError(
            "classes over non-reduced branches belong to the equivariant track"
        )
    for (location, pair), g in parts.items():
        point = curve.marked_point_at(location)  # KeyError if unmarked
        i, j = pair
        if not (0 <= i < j < len(point.branches)):
            raise ValueError(f"invalid branch pair {pair} at {location}")
        if not isinstance(g, LaurentPoly):
            raise TypeError("parts must be Laurent polynomials")
        if g.variable != curve.base_variable or g.center != location:
            raise RingMismatchError(
                f"part at {location} must expand in ({curve.base_variable} - {location})"
            )
        if require_principal and (g.is_zero() or not g.is_principal()):
            raise ValueError("stored parts must be nonzero pure principal parts")


def _check_cocycle(curve: MultifoldCurve, parts: dict):
    """Exact triple condition g_ik = g_ij + g_jk at every marked point."""
    by_location: dict[Fraction, dict[tuple[int, int], LaurentPoly]] = {}
    for (location, pair), g in parts.items():
        by_location.setdefault(location, {})[pair] = g
    for location, pairs in by_location.items():
        point = curve.marked_point_at(location)
        r = len(point.branches)
        zero = LaurentPoly.zero(curve.base_variable, location)

        def entry(i, j):
            if i < j:
                return pairs.get((i, j), zero)
            return -pairs.get((j, i), zero)

        for i, j, k in itertools.combinations(range(r), 3):
            if entry(i, k) != entry(i, j) + entry(j, k):
                raise CocycleError(
                    f"triple ({i},{j},{k}) at {location} violates g_ik = g_ij + g_jk"
                )


def zero_class(curve: MultifoldCurve) -> CechClass:
    return CechClass(curve, {})


def class_normal_form(raw: Mapping, curve: MultifoldCurve) -> CechClass:
    """Normalize raw transition data to the principal-parts representative.

    Raw entries may carry regular parts (they are coboundaries of the chart
    cover and die in the normal form) but must satisfy the cocycle condition
    exactly; pairs given as (j, i) with j > i are folded in with a sign.
    """
    folded: dict[PartKey, LaurentPoly] = {}
    for key, g in raw.items():
        location, (i, j) = key
        location = as_fraction(location)
        if i == j:
            raise ValueError("branch pair must be distinct")
        if i > j:
            i, j, g = j, i, -g
        k = (location, (i, j))
        if k in folded:
            raise ValueError(f"duplicate entry for pair {k}")
        folded[k] = g
    _validate_parts(curve, folded, require_principal=False)
    _check_cocycle(curve, folded)
    parts = {}
    for key, g in folded.items():
        principal = g.principal_part()
        if not principal.is_zero():
            parts[key] = principal
    return CechClass(curve, parts)


def add_classes(c1: CechClass, c2: CechClass) -> CechClass:
    if c1.curve != c2.curve:
        raise ValueError("classes live on different curves")
    keys = set(c1.parts) | set(c2.parts)
    parts = {}
    for key in keys:
        location, (i, j) = key
        total = c1.part(location, i, j) + c2.part(location, i, j)
        if not total.is_zero():
            parts[key] = total
    return CechClass(c1.curve, parts)


def scale_class(c: CechClass, scalar) -> CechClass:
    scalar = as_fraction(scalar)
    if scalar == 0:
        return zero_class(c.curve)
    return CechClass(c.curve, {k: g * scalar for k, g in c.parts.items()})


def h1_push(c: CechClass, s: MultiPoly) -> CechClass:
    """Push a class along multiplication of the coefficient sheaf by ``s``.

    Every part is multiplied by ``s`` (re-expanded at the part's location)
    and renormalized to its principal part.  Only the Taylor coefficients of
    ``s`` below the part's pole order reach the principal part, so only
    those are computed (``_taylor_head``).
    """
    if s.is_zero():
        raise ValueError("push polynomial must be nonzero")
    variable = c.curve.base_variable
    used = s.variables_used()
    if any(name != variable for name in used):
        raise RingMismatchError(f"push polynomial must involve only {variable!r}")
    index = s.ring.index(variable) if variable in s.ring else None
    powers = {(exp[index] if index is not None else 0): a for exp, a in s.terms.items()}
    parts = {}
    for key, g in c.parts.items():
        head = _taylor_head(powers, g.pole_order(), variable, g.center)
        pushed = (g * head).principal_part()
        if not pushed.is_zero():
            parts[key] = pushed
    return CechClass(c.curve, parts)


def _taylor_head(powers: Mapping[int, Fraction], count: int, variable: str, center) -> LaurentPoly:
    """The Taylor coefficients below ``count`` at ``center`` of the polynomial
    with coefficient ``powers[i]`` of ``variable^i``: the coefficient of
    (variable - center)^j is the sum of C(i, j) center^(i - j) powers[i]."""
    coefficients = [Fraction(0)] * count
    for i, a in powers.items():
        top = min(count - 1, i)
        power = center ** (i - top)
        for j in range(top, -1, -1):
            coefficients[j] += a * comb(i, j) * power
            power *= center
    return LaurentPoly(variable, dict(enumerate(coefficients)), center)


def divide_by_power(c: CechClass, k: int) -> CechClass:
    """The preimage class under H^1 of multiplication by x^k: poles deepen by k.

    Only defined for classes at location 0; pure principal parts stay pure
    principal under the shift.
    """
    if k < 0:
        raise ValueError("power must be non-negative")
    for location, _ in c.parts:
        if location != 0:
            raise UnsupportedError("pole deepening is implemented at location 0 only")
    return CechClass(c.curve, {key: g.shift_exponents(-k) for key, g in c.parts.items()})


def pole_profile(c: CechClass) -> tuple:
    """Multiset of (location, branch pair, pole order) over the stored parts."""
    profile = [
        (location, pair, g.pole_order()) for (location, pair), g in c.parts.items()
    ]
    return tuple(sorted(profile))


def _single_marked_point(c: CechClass) -> Optional[MarkedPoint]:
    points = c.curve.marked_points
    if len(points) == 0:
        return None
    if len(points) > 1:
        raise UnsupportedError("implemented for curves with a single marked point")
    return points[0]


def transform_class(
    c: CechClass,
    permutation: Optional[tuple[int, ...]] = None,
    base_scale=None,
    global_scale=None,
) -> CechClass:
    """Apply curve/class automorphisms: branch relabeling, x -> lambda*x, scaling.

    Requires a single marked point at 0 (the scaling must fix the point).
    """
    point = _single_marked_point(c)
    if point is None:
        return c
    if point.location != 0:
        raise UnsupportedError("automorphisms are implemented for a marked point at 0")
    r = len(point.branches)
    parts: dict[PartKey, LaurentPoly] = {}
    if permutation is None:
        permutation = tuple(range(r))
    if sorted(permutation) != list(range(r)):
        raise ValueError(f"{permutation} is not a permutation of 0..{r - 1}")
    inverse = [0] * r
    for i, img in enumerate(permutation):
        inverse[img] = i
    for k in range(r):
        for l in range(k + 1, r):
            g = c.part(Fraction(0), inverse[k], inverse[l])
            if not g.is_zero():
                parts[(Fraction(0), (k, l))] = g
    lam = as_fraction(base_scale) if base_scale is not None else None
    if lam is not None:
        if lam == 0:
            raise ValueError("base scaling must be nonzero")
        parts = {
            key: LaurentPoly(g.variable, {e: a * lam**e for e, a in g.terms.items()}, 0)
            for key, g in parts.items()
        }
    if global_scale is not None:
        s = as_fraction(global_scale)
        if s == 0:
            raise ValueError("global scaling must be nonzero")
        parts = {key: g * s for key, g in parts.items()}
    return CechClass(c.curve, parts)


def _scaling_system_solvable(ratios_by_exponent: dict[int, Fraction]) -> bool:
    """Decide existence of scalars s, lambda (over the algebraic closure) with
    s * lambda^e = q_e for the given exponent-to-ratio table.

    Eliminating s leaves lambda^(e - e0) = q_e / q_e0; the system is solvable
    over an algebraically closed field iff the ratios are compatible on the
    lattice of exponent relations, which is checkable in exact rational
    arithmetic via Bezout combinations.
    """
    exponents = sorted(ratios_by_exponent)
    e0 = exponents[0]
    q0 = ratios_by_exponent[e0]
    equations = []  # lambda^d = r
    for e in exponents[1:]:
        equations.append((e - e0, ratios_by_exponent[e] / q0))
    if not equations:
        return True
    d, r = equations[0]
    if d < 0:
        d, r = -d, r ** -1
    for d2, r2 in equations[1:]:
        if d2 < 0:
            d2, r2 = -d2, r2 ** -1
        g = gcd(d, d2)
        # extended gcd: g = u*d + v*d2
        u, v = _bezout(d, d2)
        r = (r ** u) * (r2 ** v)
        d = g
    for d_e, r_e in equations:
        if r ** (d_e // d) != r_e:
            return False
    return True


def _bezout(a: int, b: int) -> tuple[int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_s, old_t


def _part_exponents(c: CechClass) -> list:
    """Sorted multiset of the exponent sets of the stored parts."""
    return sorted(tuple(sorted(g.terms)) for g in c.parts.values())


def _ordered_parts(c: CechClass, r: int) -> list[list[dict]]:
    """The part of each ordered branch pair (i, j) at the one marked point,
    as ``table[i][j] = {exponent: coefficient}``, antisymmetric."""
    table: list[list[dict]] = [[{} for _ in range(r)] for _ in range(r)]
    for (_, (i, j)), g in c.parts.items():
        table[i][j] = dict(g.terms)
        table[j][i] = {e: -a for e, a in g.terms.items()}
    return table


def _matched(g1: dict, g2: dict, ratios: dict) -> bool:
    """Whether ``g2`` has the support of ``g1`` and its coefficient of each
    exponent e is ``ratios[e]`` times that of ``g1``; records the ratio of
    an exponent not in ``ratios`` yet."""
    if g1.keys() != g2.keys():
        return False
    return all(ratios.setdefault(e, g2[e] / a) == g2[e] / a for e, a in g1.items())


def orbit_equivalent(c1: CechClass, c2: CechClass) -> bool:
    """Equivalence modulo branch permutations, scalings x -> lambda*x fixing the
    marked point, and projectivization (global rescaling of the class).

    Decision: a branch map sigma is built one branch at a time, and a partial
    map is dropped at the first pair of mapped branches (j, i) whose part in
    ``c2`` at (sigma(j), sigma(i)) differs in support from the part of ``c1``
    at (j, i), or whose coefficient ratio at some exponent disagrees with the
    ratio already fixed there.  For each complete map the scalars are then
    solved exactly over the ratios.  Scaling existence is decided over the
    algebraic closure, so a False verdict means no automorphism in this
    (scaling-and-permutation) group works; the group is a lower bound for the
    full automorphism group of the curve.
    """
    if c1.curve != c2.curve:
        raise ValueError("classes live on different curves")
    point = _single_marked_point(c1)
    if point is None:
        return True  # both classes are zero on an unmarked base
    if point.location != 0:
        raise UnsupportedError("orbit equivalence is implemented at location 0 only")
    if c1.is_zero() or c2.is_zero():
        return c1.is_zero() and c2.is_zero()
    # the exponent sets of the parts are invariant under the whole group
    if _part_exponents(c1) != _part_exponents(c2):
        return False
    r = len(point.branches)
    parts1, parts2 = _ordered_parts(c1, r), _ordered_parts(c2, r)
    sigma: list[int] = []

    def extend(ratios: dict) -> bool:
        i = len(sigma)
        if i == r:
            return _scaling_system_solvable(ratios)
        for b in range(r):
            if b in sigma:
                continue
            fixed = dict(ratios)
            if all(_matched(parts1[j][i], parts2[a][b], fixed) for j, a in enumerate(sigma)):
                sigma.append(b)
                found = extend(fixed)
                sigma.pop()
                if found:
                    return True
        return False

    return extend({})


# -- Picard groups ------------------------------------------------------


@dataclass(frozen=True)
class PicGroup:
    """A finitely generated abelian group: free rank plus cyclic torsion."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __str__(self) -> str:
        pieces = []
        if self.free_rank == 1:
            pieces.append("Z")
        elif self.free_rank > 1:
            pieces.append(f"Z^{self.free_rank}")
        pieces.extend(f"Z_{m}" for m in self.torsion)
        return " + ".join(pieces) if pieces else "0"


def pic_group(curve: MultifoldCurve) -> PicGroup:
    """Picard group of a multifold curve, computed pointwise.

    A marked point with r reduced branches contributes a free factor of rank
    r - 1 (winding classes of unit cocycles: units on an overlap are
    lambda*x^k, and chart units are constants).  A single branch of
    multiplicity m contributes a cyclic factor of order m via linearization
    weights of the degree-m cover.
    """
    free_rank = 0
    torsion: list[int] = []
    for point in curve.marked_points:
        mults = [m for _, m in point.branches]
        if all(m == 1 for m in mults):
            free_rank += len(mults) - 1
        elif len(mults) == 1:
            torsion.append(mults[0])
        else:
            raise UnsupportedError(
                f"marked point at {point.location} mixes branches and multiplicities"
            )
    return PicGroup(free_rank, tuple(sorted(torsion)))


# -- unit (multiplicative) cocycles; oracle material for pic_group -------


@dataclass(frozen=True)
class UnitPart:
    """A unit lambda*(x - c)^k on a punctured overlap."""

    scalar: Fraction
    winding: int

    def inverse(self) -> "UnitPart":
        return UnitPart(1 / self.scalar, -self.winding)

    def __mul__(self, other: "UnitPart") -> "UnitPart":
        return UnitPart(self.scalar * other.scalar, self.winding + other.winding)


class UnitClass:
    """A multiplicative cocycle for the chart cover of a multifold curve."""

    __slots__ = ("curve", "parts")

    def __init__(self, curve: MultifoldCurve, parts: Mapping[PartKey, UnitPart]):
        if not curve.is_scheme():
            raise UnsupportedError("unit cocycles are implemented for scheme curves")
        folded: dict[PartKey, UnitPart] = {}
        for (location, (i, j)), u in parts.items():
            location = as_fraction(location)
            if u.scalar == 0:
                raise ValueError("unit scalar must be nonzero")
            if i == j:
                raise ValueError("branch pair must be distinct")
            if i > j:
                i, j, u = j, i, u.inverse()
            folded[(location, (i, j))] = u
        for (location, pair), _ in folded.items():
            point = curve.marked_point_at(location)
            if not (0 <= pair[0] < pair[1] < len(point.branches)):
                raise ValueError(f"invalid branch pair {pair}")
        # multiplicative cocycle condition on triples
        by_location: dict[Fraction, dict] = {}
        for (location, pair), u in folded.items():
            by_location.setdefault(location, {})[pair] = u
        for location, pairs in by_location.items():
            r = len(curve.marked_point_at(location).branches)

            def entry(i, j):
                if i < j:
                    return pairs.get((i, j), UnitPart(Fraction(1), 0))
                return pairs.get((j, i), UnitPart(Fraction(1), 0)).inverse()

            for i, j, k in itertools.combinations(range(r), 3):
                if entry(i, k) != entry(i, j) * entry(j, k):
                    raise CocycleError(f"unit triple ({i},{j},{k}) at {location} fails")
        object.__setattr__(self, "curve", curve)
        object.__setattr__(self, "parts", folded)

    def __setattr__(self, name, value):
        raise AttributeError("UnitClass is immutable")

    def part(self, location, i: int, j: int) -> UnitPart:
        location = as_fraction(location)
        if i < j:
            return self.parts.get((location, (i, j)), UnitPart(Fraction(1), 0))
        return self.parts.get((location, (j, i)), UnitPart(Fraction(1), 0)).inverse()


def unit_mul(u1: UnitClass, u2: UnitClass) -> UnitClass:
    if u1.curve != u2.curve:
        raise ValueError("unit classes live on different curves")
    keys = set(u1.parts) | set(u2.parts)
    parts = {}
    for location, pair in keys:
        parts[(location, pair)] = u1.part(location, *pair) * u2.part(location, *pair)
    return UnitClass(u1.curve, parts)


def unit_inverse(u: UnitClass) -> UnitClass:
    return UnitClass(u.curve, {key: p.inverse() for key, p in u.parts.items()})


def unit_is_coboundary(u: UnitClass) -> bool:
    """True iff the cocycle comes from chart units.

    Chart units on copies of the affine line are nonzero constants, so the
    coboundaries are exactly the winding-free cocycles (any constant scalar
    cocycle splits as a ratio of chart constants).
    """
    return all(p.winding == 0 for p in u.parts.values())


def unit_classes_equivalent(u1: UnitClass, u2: UnitClass) -> bool:
    return unit_is_coboundary(unit_mul(u1, unit_inverse(u2)))


# -- classes of the hypersurface families --------------------------------


def surface_class(surface: DanielewskiSurface) -> CechClass:
    """The torsor class of a plain-fiber surface with simple roots.

    On branch i the fiber coordinate is v_i = (y - y_i)/x^n = z / prod_{j != i}
    (y - y_j), globally y = y_i + x^n v_i, so on overlaps
    v_j - v_i = (y_i - y_j)/x^n; the class has parts (y_i - y_j) x^{-n}.
    """
    if surface.variant is not Variant.PLAIN:
        raise UnsupportedError("torsor classes are computed for the plain family only")
    if not surface.simple_roots:
        raise UnsupportedError("repeated roots need the equivariant track")
    curve = relatively_connected_quotient(surface)
    values = surface.root_values()
    if len(values) < 2:
        return zero_class(curve)
    parts = {}
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            parts[(Fraction(0), (i, j))] = LaurentPoly(
                "x", {-surface.n: values[i] - values[j]}, 0
            )
    return class_normal_form(parts, curve)


@dataclass(frozen=True)
class EquivariantClass:
    """Cover data for a multiplicity-m fiber: a class on the m-origin line
    over the cover coordinate, together with the linearization weight of the
    cyclic action rotating the branches.

    For m = 2 the root of unity is -1 and the cover class has rational
    coefficients; for m > 2 coefficients involve a primitive m-th root of
    unity and only the combinatorial support is stored (``symbolic_only``).
    """

    m: int
    weight: int
    cover_class: Optional[CechClass]
    symbolic_only: bool
    symbolic_support: Optional[tuple] = None

    def pole_order(self) -> int:
        if self.cover_class is not None:
            orders = {g.pole_order() for g in self.cover_class.parts.values()}
            return max(orders) if orders else 0
        return max(-e for (_, _, e, _) in self.symbolic_support)


def equivariant_cover_curve(m: int) -> MultifoldCurve:
    """The line with m origins in the cover coordinate y."""
    branches = tuple((f"u=eps^{i}" if m > 2 else ("u=1" if i == 0 else "u=-1"), 1) for i in range(m))
    return MultifoldCurve("y", (MarkedPoint(Fraction(0), branches),))


def equivariant_class(n: int, m: int) -> EquivariantClass:
    """The cover torsor of the multiplicity-m family member with exponent n.

    The degree-m cover of the surface x^n z = y^m - x is cut out by
    y^{(n-1)m} z = u^m - 1 over the m-origin line in y; chart transitions are
    (eps^i - eps^j) y^{-(n-1)m} and the branch rotation carries weight 1.
    """
    if not (isinstance(n, int) and n >= 2 and isinstance(m, int) and m >= 2):
        raise ValueError("the equivariant model needs integers n >= 2, m >= 2")
    k = (n - 1) * m
    if m == 2:
        curve = equivariant_cover_curve(2)
        parts = {(Fraction(0), (0, 1)): LaurentPoly("y", {-k: 2}, 0)}
        cover = class_normal_form(parts, curve)
        return EquivariantClass(m=2, weight=1, cover_class=cover, symbolic_only=False)
    support = tuple(
        (i, j, -k, f"eps^{i} - eps^{j}")
        for i in range(m)
        for j in range(i + 1, m)
    )
    return EquivariantClass(
        m=m, weight=1, cover_class=None, symbolic_only=True, symbolic_support=support
    )
