"""The constructive fiber-product trick for cylinders.

Given two plain-fiber surfaces with simple roots whose quotients are the same
line with r origins, the classes c and c' of the two torsors are both reached
by pole-clearing push maps from an auxiliary class c0 with deeper poles.  The
fiber product of either surface with the auxiliary torsor trivializes in two
ways (both total spaces are affine), and chaining the two trivializations on
each side produces an explicit polynomial isomorphism between the cylinders
over the two surfaces.  The four splittings behind them are posed by one
table, ``SPLITTINGS``, which the construction solves and ``jsonio`` writes
and replays.  Every emitted isomorphism is returned as a checked
certificate: well-definedness and the two round trips are verified by exact
division by each cylinder's one generator, with no Groebner basis, and every
splitting is re-verified by direct expansion.

Chart conventions: over the line with r origins every glued object carries
one chart per branch with local ring Q[x, <fiber coordinates>]; the pair
(i, j) transition adds the class part g_ij, a pure principal part of pole
order k, to each fiber coordinate.  Clearing that pole, x^k f_j =
x^k f_i + x^k g_ij is a polynomial, so a chart polynomial is written on
another chart by one ``substitute`` of its x-padded copy (see ``_across``),
and the re-expression on the cylinder is one reduced substitution modulo the
surface's generator.  One helper, ``_chart_embedding``, writes a surface's y
and z on a chart; it serves the re-expression check and the images of the
maps, whose terms are reduced modulo the generator (grevlex normal forms).
The construction is symmetric in the two surfaces, so the backward map is
the forward recipe run with the surfaces swapped.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .cech import CechClass, divide_by_power, orbit_equivalent, pole_profile, surface_class
from .errors import NoSplittingFound, NotComparable, UnsupportedError
from .fibration import DanielewskiSurface, LineBundle, MultifoldCurve, build_surface, classify_cancellation
from .ideals import (
    IdealPresentation,
    IsoCertificate,
    PolyMap,
    normal_form,
    substitute_reduced,
    verify_iso_certificate,
)
from .linsolve import solve_linear
from .ratpoly import Exponent, MultiPoly, grevlex_key, ring_embed, substitute

DEFAULT_SCHEDULE = (2, 4, 6, 8)
# the powers by which the auxiliary class deepens the shallower class, in the
# order the construction tries them
AUX_POWERS = (1, 2, 3)
CYLINDER_RING = ("x", "y", "z", "w")
# The four splittings of the fiber-product trick, in the order the
# construction solves them and a proof records them: the proof tag, the role
# (source, target or aux class) of the class whose torsor carries the charts,
# its fiber coordinate, and the role of the class split over those charts.
SPLITTINGS = (
    ("aux_over_source", "source", "v", "aux"),
    ("source_over_aux", "aux", "w", "source"),
    ("aux_over_target", "target", "u", "aux"),
    ("target_over_aux", "aux", "w", "target"),
)


# -- glued models ---------------------------------------------------------


@dataclass(frozen=True)
class FiberCoordinate:
    """One fiber coordinate per chart, glued by the parts of a class."""

    name: str
    transitions: CechClass


@dataclass(frozen=True)
class GluedModel:
    """Chart-and-transition presentation of a torsor (or fiber product).

    Chart i has coordinate ring Q[base, c_1, ..., c_k]; crossing from chart i
    to chart j adds the pair part of each coordinate's class.
    """

    curve: MultifoldCurve
    coordinates: tuple[FiberCoordinate, ...]

    @property
    def n_charts(self) -> int:
        if not self.curve.marked_points:
            return 1
        return len(self.curve.marked_points[0].branches)

    @property
    def chart_ring(self) -> tuple[str, ...]:
        return (self.curve.base_variable,) + tuple(c.name for c in self.coordinates)

    def transition_shifts(self, i: int, j: int) -> list[Optional[dict]]:
        """Laurent term dicts substituted into chart-j coordinates to express
        them in chart-i coordinates (f_j = f_i + g_ij)."""
        shifts: list[Optional[dict]] = []
        for coord in self.coordinates:
            g = coord.transitions.part(Fraction(0), i, j)
            shifts.append(dict(g.terms) if not g.is_zero() else None)
        return shifts

    def branch_pairs(self) -> list[tuple[int, int]]:
        return list(itertools.combinations(range(self.n_charts), 2))


def _cleared_transition(model: GluedModel, i: int, j: int, ring: tuple[str, ...]):
    """The (i, j) transition with its poles cleared, on the chart ring ``ring``.

    Fiber coordinate k satisfies f_j = f_i + g_k with g_k a pure principal
    part of pole order p_k, so x^p_k f_j = x^p_k f_i + x^p_k g_k is a
    polynomial.  Returns the orders p_k and these images of the f_k, which
    ``_across`` substitutes into an x-padded chart-j polynomial.
    """
    zero_fiber = (0,) * (len(ring) - 1)
    poles, images = [], {}
    for name, g in zip(ring[1:], model.transition_shifts(i, j)):
        pole = -min(g) if g else 0
        poles.append(pole)
        if g:
            unit = tuple(int(v == name) for v in ring[1:])
            cleared = {(e + pole, *zero_fiber): c for e, c in g.items()}
            images[name] = MultiPoly(ring, {(pole, *unit): 1, **cleared})
    return poles, images


def _clearance(p: MultiPoly, weights: Sequence[int]) -> int:
    """The largest sum_k weights_k * b_k over the terms x^a f^b of ``p``."""
    return max((sum(w * b for w, b in zip(weights, exp[1:])) for exp in p.terms), default=0)


def _pad_x(p: MultiPoly, weights: Sequence[int], clear: int) -> MultiPoly:
    """Each term x^a f^b of ``p`` times x^(clear - sum_k weights_k * b_k)."""
    return MultiPoly(p.ring, {
        (exp[0] + clear - sum(w * b for w, b in zip(weights, exp[1:])), *exp[1:]): c
        for exp, c in p.terms.items()
    })


def _across(model: GluedModel, h: MultiPoly, i: int, j: int, floor: int = 0):
    """(N, x^N h(x, f_i + g_ij)) for a chart-j polynomial h written on chart i.

    N is the least power of x, and at least ``floor``, that clears every pole.
    """
    poles, images = _cleared_transition(model, i, j, h.ring)
    clear = max(_clearance(h, poles), floor)
    return clear, substitute(_pad_x(h, poles, clear), images)


def _require_cylinder_curve(curve: MultifoldCurve) -> None:
    if not curve.is_scheme():
        raise UnsupportedError("chart models need reduced branches (scheme case)")
    if len(curve.marked_points) > 1:
        raise UnsupportedError("chart models support a single marked point")
    if curve.marked_points and curve.marked_points[0].location != 0:
        raise UnsupportedError("chart models expect the marked point at 0")


def torsor_to_glued(c: CechClass, coordinate: str = "v") -> GluedModel:
    """One chart per branch with the fiber coordinate glued by the class."""
    _require_cylinder_curve(c.curve)
    return GluedModel(c.curve, (FiberCoordinate(coordinate, c),))


def _chart_embedding(surface: DanielewskiSurface, chart: int, ring: tuple[str, ...]) -> dict:
    """The surface coordinates x, y, z on one chart, as polynomials in ``ring``.

    The first two variables of ``ring`` are the base x and the chart's fiber
    coordinate v.  On chart i: y = y_i + x^n v and
    z = v * prod_{j != i}(y_i - y_j + x^n v), expanded as a coefficient list
    in x^n v.  The composite maps of the cylinder construction substitute
    their fiber coordinate for v afterwards (see ``_embedded_images``).
    """
    values = surface.root_values()
    n, rest = surface.n, (0,) * (len(ring) - 2)
    factors = [Fraction(1)]  # prod_{j != i}(y_i - y_j + X), lowest power of X first
    for j, val in enumerate(values):
        if j != chart:
            d = values[chart] - val
            factors = [d * a + b for a, b in zip([*factors, 0], [0, *factors])]
    return {
        "x": MultiPoly.var(ring, ring[0]),
        "y": MultiPoly(ring, {(0, 0, *rest): values[chart], (n, 1, *rest): 1}),
        "z": MultiPoly(ring, {(n * k, k + 1, *rest): c for k, c in enumerate(factors)}),
    }


# -- the splitting solver --------------------------------------------------


@dataclass(frozen=True)
class Splitting:
    """Per-chart polynomials with h_j - h_i = g_ij across every overlap."""

    chart_ring: tuple[str, ...]
    per_chart: tuple[MultiPoly, ...]
    degree_bound: int


def _monomials_up_to(ring_size: int, bound: int) -> list[Exponent]:
    exps = [
        exp
        for exp in itertools.product(range(bound + 1), repeat=ring_size)
        if sum(exp) <= bound
    ]
    exps.sort(key=grevlex_key)
    return exps


def verify_splitting(model: GluedModel, pullback: CechClass, splitting: Splitting) -> bool:
    """Independent re-check of the defining identity by direct expansion.

    Both sides of h_j(x, f_i + g) - h_i = g_ij are multiplied by one power
    of x that clears every pole and compared as polynomials.
    """
    for i, j in model.branch_pairs():
        h_i = splitting.per_chart[i]
        g = pullback.part(Fraction(0), i, j)
        clear, on_i = _across(model, splitting.per_chart[j], i, j, g.pole_order())
        zero_fiber = (0,) * (len(h_i.ring) - 1)
        expected = _pad_x(h_i, (), clear) + MultiPoly(
            h_i.ring, {(e + clear, *zero_fiber): c for e, c in g.terms.items()}
        )
        if on_i != expected:
            return False
    return True


def splitting_solve(
    model: GluedModel,
    pullback: CechClass,
    schedule: Sequence[int] = DEFAULT_SCHEDULE,
) -> Splitting:
    """Find per-chart polynomials splitting the pulled-back class.

    The ansatz runs over all chart monomials of total degree at most the
    current bound; the overlap identities are linear in the unknown
    coefficients and are solved exactly by ``solve_linear``, raising the
    bound on failure.  Each pair's transition shifts, and the expansion of
    each monomial under them, are computed once for the whole schedule.
    The returned splitting is the canonical solution of the system (free
    coefficients pinned to zero, unknowns in chart-then-grevlex order, so
    it does not depend on how the rows are eliminated) and is re-verified
    by direct expansion.  Failure at every bound raises NoSplittingFound;
    that does not certify that no splitting exists.
    """
    if pullback.curve != model.curve:
        raise ValueError("pullback class lives on a different curve")
    n_charts = model.n_charts
    ring = model.chart_ring
    if n_charts == 1:
        if not pullback.is_zero():
            raise ValueError("nonzero class on a single-chart model cannot split")
        return Splitting(ring, (MultiPoly.zero(ring),), 0)
    zero_fiber = tuple(0 for _ in model.coordinates)
    pairs = model.branch_pairs()
    transitions = {pair: _cleared_transition(model, *pair, ring) for pair in pairs}
    powers: dict = {}  # (pair, b) -> prod_k (x^p_k f_k + x^p_k g_k)^(b_k)
    expansions: dict = {}  # (pair, chart-j monomial) -> its chart-i terms, Laurent in x

    def expand(pair, exp: Exponent) -> dict:
        if (pair, exp) not in expansions:
            poles, images = transitions[pair]
            fibers = exp[1:]
            if (pair, fibers) not in powers:
                powers[(pair, fibers)] = substitute(MultiPoly.monomial(ring, (0, *fibers)), images)
            shift = exp[0] - sum(p * b for p, b in zip(poles, fibers))
            expansions[(pair, exp)] = {
                (e[0] + shift, e[1:]): c for e, c in powers[(pair, fibers)].terms.items()
            }
        return expansions[(pair, exp)]

    for bound in schedule:
        monomials = _monomials_up_to(len(ring), bound)
        unknowns = [(chart, exp) for chart in range(n_charts) for exp in monomials]
        # one row per (pair, chart-i term): h_j shifted minus h_i equals g_ij
        rows: dict[tuple, list] = {}
        for pair in pairs:
            i, j = pair
            for exp in monomials:
                for key, coeff in expand(pair, exp).items():
                    rows.setdefault((pair, key), [{}, 0])[0][(j, exp)] = coeff
                rows.setdefault((pair, (exp[0], exp[1:])), [{}, 0])[0][(i, exp)] = -1
            for e, coeff in pullback.part(Fraction(0), i, j).terms.items():
                rows.setdefault((pair, (e, zero_fiber)), [{}, 0])[1] = coeff
        system = list(rows.values())
        solution = solve_linear(system, unknowns)
        if solution is None:
            continue
        per_chart = []
        for chart in range(n_charts):
            terms = {
                exp: solution[(chart, exp)]
                for exp in monomials
                if solution[(chart, exp)]
            }
            per_chart.append(MultiPoly(ring, terms))
        splitting = Splitting(ring, tuple(per_chart), bound)
        if not verify_splitting(model, pullback, splitting):
            raise RuntimeError("solver produced a splitting that fails re-verification")
        return splitting
    raise NoSplittingFound(schedule)


# -- re-expression in embedded coordinates ---------------------------------


def cylinder_presentation(surface: DanielewskiSurface) -> IdealPresentation:
    """The cylinder over a surface, embedded in A^4 with coordinate w."""
    f = ring_embed(surface.defining_polynomial, CYLINDER_RING)
    return IdealPresentation(CYLINDER_RING, [f])


def reexpress_on_cylinder(
    chart_exprs: Sequence[MultiPoly], surface: DanielewskiSurface
) -> MultiPoly:
    """Convert per-chart expressions of a global function into embedded form.

    Chart 0 writes the function F as a polynomial in (x, v, t) with
    v = (y - y_0)/x^n; clearing the denominator moves x^a v^b t^c to
    x^(a + n(d - b)) v^b t^c, with d the v-degree, so the padded expression
    is x^N F with N = n d.  One reduced substitution of v -> y - y_0,
    t -> w writes it in (x, y, z, w) modulo the generator f, divided as a
    polynomial in y, in which f is monic of degree deg P.  x^N times a
    remainder is a remainder, and remainders are unique: the result is x^N
    times the remainder of F.  F is regular on the surface iff every
    x-exponent of the result is at least N; lowering them by N and taking
    the grevlex normal form gives the function.  Agreement with every chart
    expression is then verified exactly (the charts are honest polynomial
    rings).
    """
    chart_ring = chart_exprs[0].ring
    base = chart_exprs[0]
    n = surface.n
    y0 = surface.root_values()[0]
    clear_power = _clearance(base, (n, 0))
    x, y, w = (MultiPoly.var(CYLINDER_RING, name) for name in ("x", "y", "w"))
    f = cylinder_presentation(surface).generators[0]
    images = dict(zip(chart_ring, (x, y - y0, w)))
    padded = substitute_reduced(_pad_x(base, (n, 0), clear_power), images, f)
    if any(exp[0] < clear_power for exp in padded.terms):
        raise RuntimeError("chart expression is not regular on the surface")
    lowered = {(exp[0] - clear_power, *exp[1:]): c for exp, c in padded.terms.items()}
    candidate = normal_form(MultiPoly(CYLINDER_RING, lowered), [f])
    t = MultiPoly.var(chart_ring, chart_ring[2])
    for chart, expr in enumerate(chart_exprs):
        if substitute(candidate, {**_chart_embedding(surface, chart, chart_ring), "w": t}) != expr:
            raise RuntimeError(f"re-expressed function disagrees on chart {chart}")
    return candidate


# -- the cylinder isomorphism ----------------------------------------------


@dataclass(frozen=True)
class CylinderConstruction:
    """Full record of one run of the fiber-product trick."""

    source: DanielewskiSurface
    target: DanielewskiSurface
    source_class: CechClass
    target_class: CechClass
    aux_class: CechClass
    aux_power: int
    splittings: dict[str, Splitting]  # by the tags of ``SPLITTINGS``, in table order
    certificate: IsoCertificate


def _transport(c: CechClass, curve: MultifoldCurve) -> CechClass:
    """Carry a class to a combinatorially equal curve (branch ids may differ),
    keeping its parts; ``CechClass`` refuses parts that are no class there."""
    return c if c.curve == curve else CechClass(curve, dict(c.parts))


def auxiliary_class(c_src: CechClass, c_tgt: CechClass, power: int) -> CechClass:
    """The auxiliary torsor's class: the shallower class (pole order n for
    x^n z = P(y); the source's on a tie), on the source curve, deepened by
    ``power``.  Its pole then sits between the two class poles (or just above
    both), which keeps all four splittings inside the degree schedule in
    either direction of the pair.  Any nonzero-part class works for the trick
    since its total space is affine.  Power 1 splits most pairs; for two
    roots, the depths (1, 5), (1, 6), (3, 5), (3, 6) and (4, 4), in either
    order, split only at power 2 or 3 within the default schedule.
    """
    depth = [max((g.pole_order() for g in c.parts.values()), default=0) for c in (c_src, c_tgt)]
    shallow = c_src if depth[0] <= depth[1] else _transport(c_tgt, c_src.curve)
    return divide_by_power(shallow, power)


def _chart_composites(splittings: tuple[Splitting, ...]):
    """Per-chart data of one direction: the two coordinates of the composite map.

    With the splittings in the order of ``SPLITTINGS``, p = aux split over
    the first surface, q = first-class split over the auxiliary torsor,
    p2 = aux split over the second surface and q2 = second-class split over
    the auxiliary torsor, chart i of the first cylinder,
    with ring Q[x, v, t], goes to (x, u, s) on the second, where
    w = t + p_i(x, v), u = v - q_i(x, w) + q2_i(x, w) and s = w - p2_i(x, u).
    The same recipe serves both directions: the backward map is the forward
    one with the surfaces swapped, that is with the splittings ordered
    (p2, q2, p, q).
    """
    p, q, p2, q2 = splittings
    ring = ("x", "v", "t")
    x, v, t = (MultiPoly.var(ring, name) for name in ring)

    def at(split: Splitting, i: int, fiber: MultiPoly) -> MultiPoly:
        return substitute(split.per_chart[i], dict(zip(split.chart_ring, (x, fiber))))

    us, ss = [], []
    for i in range(len(p.per_chart)):
        w_expr = t + at(p, i, v)
        u_expr = v - at(q, i, w_expr) + at(q2, i, w_expr)
        us.append(u_expr)
        ss.append(w_expr - at(p2, i, u_expr))
    return us, ss


def _embedded_images(
    splittings: tuple[Splitting, ...],
    source: DanielewskiSurface,
    target: DanielewskiSurface,
) -> dict:
    """Images of the target cylinder's (x, y, z, w) on the source cylinder.

    The composites of ``_chart_composites`` give (u, s) on each source
    chart.  The target's ``_chart_embedding`` on its own chart variables
    (x, v), with v replaced by u in one ``substitute``, turns u into y and
    z; s is w, and ``reexpress_on_cylinder`` writes each image in
    (x, y, z, w).
    """
    us, ss = _chart_composites(splittings)
    embeddings = [_chart_embedding(target, i, ("x", "v")) for i in range(len(us))]

    def image(name: str) -> MultiPoly:
        composed = [substitute(e[name], {"v": u}) for e, u in zip(embeddings, us)]
        return reexpress_on_cylinder(composed, source)

    return {
        "x": MultiPoly.var(CYLINDER_RING, "x"),
        "y": image("y"),
        "z": image("z"),
        "w": reexpress_on_cylinder(ss, source),
    }


def cylinder_construction(
    source: DanielewskiSurface,
    target: DanielewskiSurface,
    schedule: Sequence[int] = DEFAULT_SCHEDULE,
) -> CylinderConstruction:
    """Build and certify an isomorphism of cylinders over the two surfaces.

    The classes are those of ``surface_class``, whose curves are the
    quotient curves; they must have the same marked points and branch data.
    The rows of ``SPLITTINGS`` are solved in order against
    ``auxiliary_class`` at each power of ``AUX_POWERS`` in turn, until all
    four are found; if none splits, the last power's ``NoSplittingFound`` is
    raised.
    """
    try:
        c_src, c_tgt = surface_class(source), surface_class(target)
    except UnsupportedError as exc:
        raise UnsupportedError(f"cylinder construction needs torsor classes: {exc}")
    # location and branch count of each marked point: the curve up to branch ids
    shapes = [[(p.location, len(p.branches)) for p in c.curve.marked_points]
              for c in (c_src, c_tgt)]
    if len(shapes[0]) != len(shapes[1]):
        raise NotComparable("quotient curves have different marked points")
    if shapes[0] != shapes[1]:
        raise NotComparable("quotient curves have different branch data")
    classes = {"source": c_src, "target": c_tgt}
    for aux_power in AUX_POWERS:
        classes["aux"] = auxiliary_class(c_src, c_tgt, aux_power)
        try:
            splittings = {}
            for tag, charts, coordinate, split in SPLITTINGS:
                model = torsor_to_glued(classes[charts], coordinate)
                pullback = _transport(classes[split], model.curve)
                splittings[tag] = splitting_solve(model, pullback, schedule)
            break
        except NoSplittingFound:
            if aux_power == AUX_POWERS[-1]:
                raise
    # the backward map swaps the surfaces, so it takes the rows as (p2, q2, p, q)
    forward = tuple(splittings.values())
    forward_images = _embedded_images(forward, source, target)
    backward_images = _embedded_images(forward[2:] + forward[:2], target, source)

    src_pres = cylinder_presentation(source)
    tgt_pres = cylinder_presentation(target)
    certificate = verify_iso_certificate(PolyMap(src_pres, tgt_pres, forward_images),
                                         PolyMap(tgt_pres, src_pres, backward_images))
    if not certificate.is_valid():
        raise RuntimeError("cylinder isomorphism failed certificate verification")
    return CylinderConstruction(source=source, target=target, source_class=c_src,
                                target_class=c_tgt, aux_class=classes["aux"], aux_power=aux_power,
                                splittings=splittings, certificate=certificate)


def cylinder_iso(
    source: DanielewskiSurface,
    target: DanielewskiSurface,
    schedule: Sequence[int] = DEFAULT_SCHEDULE,
) -> IsoCertificate:
    """Certified isomorphism between the cylinders over two surfaces."""
    return cylinder_construction(source, target, schedule).certificate


# -- counterexample emission -------------------------------------------------


@dataclass(frozen=True)
class InvariantReport:
    """Torsor invariants separating the two surfaces, plus the caveat that
    non-isomorphism of the abstract surfaces additionally relies on the
    uniqueness of the affine-type fibration (established elsewhere)."""

    source_profile: tuple
    target_profile: tuple
    orbit_equivalent: bool
    caveat: str


@dataclass(frozen=True)
class CounterexamplePair:
    source: DanielewskiSurface
    partner: DanielewskiSurface
    construction: CylinderConstruction
    invariants: InvariantReport


CAVEAT = (
    "the torsor classes are inequivalent; non-isomorphism of the surfaces "
    "holds modulo uniqueness of the affine-type fibration on each"
)


def invariant_report(c_src: CechClass, c_tgt: CechClass) -> InvariantReport:
    """Pole profiles of the two classes and whether they are orbit-equivalent."""
    return InvariantReport(
        source_profile=pole_profile(c_src),
        target_profile=pole_profile(c_tgt),
        orbit_equivalent=orbit_equivalent(c_src, c_tgt),
        caveat=CAVEAT,
    )


def counterexample_pair(
    surface: DanielewskiSurface, schedule: Sequence[int] = DEFAULT_SCHEDULE
) -> CounterexamplePair:
    """Emit a partner surface with isomorphic cylinder but inequivalent class.

    Deepening the defining exponent multiplies the torsor class by 1/x, which
    changes every pole order; the cylinders stay isomorphic by the fiber
    product trick.  Line-bundle input is refused: cancellation holds there.
    """
    if isinstance(classify_cancellation(surface), LineBundle):
        raise ValueError(
            "the fibration is a line bundle over the base; cancellation holds "
            "and no counterexample partner exists"
        )
    partner = build_surface(surface.n + 1, surface.roots, surface.variant)
    construction = cylinder_construction(surface, partner, schedule)
    invariants = invariant_report(construction.source_class, construction.target_class)
    return CounterexamplePair(surface, partner, construction, invariants)
