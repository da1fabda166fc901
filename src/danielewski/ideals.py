"""Exact certificate engine for ideals in polynomial rings over Q.

Provides reduced Groebner bases (Buchberger's algorithm on ``reduce_full``),
ideal membership with explicit cofactor witnesses, the Jacobian smoothness
criterion for hypersurfaces in A^3, and verification of polynomial maps and
isomorphism certificates between affine varieties given by generators.  The
bases, membership and ``jacobian_smooth`` are the general reference,
computed on each call.  No CLI command reaches them: ``fibration.is_smooth``
decides smoothness, and the certificates divide by one generator (below).

Every multivariate division is ``reduce_full``, the textbook loop on
exponent tuples and ``Fraction`` coefficients: a heap pops the largest
remaining term, and the first divisor whose leading term divides it divides
it, or else it moves to the remainder.  ``normal_form`` is its
remainder; Buchberger's algorithm forms its S-polynomials in ``MultiPoly``
arithmetic and reduces each with ``reduce_full``.  On the CLI paths only the
two pullback claims of ``verify_iso_certificate`` and the grevlex normal form
of ``cylinder.reexpress_on_cylinder`` divide, each by one generator.

Substitution is the one packed kernel (``_substitute_rows``), nested Horner
on polynomials kept packed from the first product to the last.  Each
polynomial is split into rows by every variable but one, x, and each row
is one big integer: the row evaluated at x = 2^slot (Kronecker
substitution), so that CPython's integer multiply forms every row product.
The slot width comes from a bound on the final coefficients fixed before
the first product, so the decoding is exact, and the rows are decoded once,
at the end.

The kernel reduces modulo one generator f only, and in one way: f is
divided as a polynomial in the first variable v in which it is monic, its
top v-power a pure power c * v^r (``_monic_lead``; v = y for the cylinder
generators ``x^n z - P(y)``).  The kernel rewrites whole rows of v-degree at
least r while it substitutes.  The cylinders are principal, so a remainder
modulo f decides membership in the ideal, and the certificates compute no
basis: ``substitute_reduced`` and ``round_trip_residual`` take f itself.

Everything is computed over exact rationals; a membership verdict is an
unconditional identity ``f = sum(cofactor_i * generator_i)`` that third
parties can replay by plain polynomial arithmetic.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from typing import Iterable, Mapping, Optional, Sequence

from .errors import RingMismatchError
from .ratpoly import ORDER_KEYS, Exponent, MultiPoly, ring_embed, substitute

# -- monomial helpers -------------------------------------------------


def _divides(a: Exponent, b: Exponent) -> bool:
    return all(x <= y for x, y in zip(a, b))

def _quotient(b: Exponent, a: Exponent) -> Exponent:
    return tuple(y - x for x, y in zip(a, b))

def _lcm(a: Exponent, b: Exponent) -> Exponent:
    return tuple(max(x, y) for x, y in zip(a, b))


def leading_term(f: MultiPoly, order: str = "grevlex") -> tuple[Exponent, Fraction]:
    if f.is_zero():
        raise ValueError("zero polynomial has no leading term")
    key = ORDER_KEYS[order]
    exp = max(f.terms, key=key)
    return exp, f.terms[exp]


# -- division ----------------------------------------------------------


class _FieldOverflow(Exception):
    """A packed exponent outgrew its field; the substitution reruns with wider fields."""


# the order keys negated, so that a min-heap pops the largest term first
_NEGATED_KEYS = {
    "grevlex": lambda e: (-sum(e), e[::-1]),
    "lex": lambda e: tuple(-a for a in e),
}


def reduce_full(
    f: MultiPoly,
    basis: Sequence[MultiPoly],
    order: str = "grevlex",
) -> tuple[list[dict[Exponent, Fraction]], MultiPoly]:
    """Fully reduce ``f`` modulo ``basis``.

    Returns ``(quotients, remainder)`` with
    ``f == sum_i quotients[i] * basis[i] + remainder`` exactly and no term of
    the remainder divisible by any leading term of the basis.  The largest
    remaining term is divided by the first basis element whose leading term
    divides it, or moved to the remainder, so the output is deterministic for
    a fixed basis order.  A basis element from another ring raises
    ``RingMismatchError``.
    """
    if order not in ORDER_KEYS:
        raise ValueError(f"unknown term order {order!r}")
    for g in basis:
        if g.ring != f.ring:
            raise RingMismatchError(f"ring mismatch: {g.ring} vs {f.ring}")
    negated = _NEGATED_KEYS[order]
    divisors = []  # (leading exponent, leading coefficient, [(exponent, -coefficient)])
    for g in basis:
        lead, lc = leading_term(g, order)
        divisors.append((lead, lc, [(e, -c) for e, c in g.terms.items() if e != lead]))
    quotients: list[dict[Exponent, Fraction]] = [{} for _ in basis]
    terms, remainder = dict(f.terms), {}
    heap = [(negated(e), e) for e in terms]
    heapq.heapify(heap)
    while heap:
        t = heapq.heappop(heap)[1]
        c = terms.pop(t, None)
        if c is None:  # cancelled, or a second entry of a term already taken
            continue
        for (lead, lc, tail), quotient in zip(divisors, quotients):
            if _divides(lead, t):
                q, c = _quotient(t, lead), c / lc
                quotient[q] = c
                for e, a in tail:
                    s = tuple(map(operator.add, q, e))
                    old = terms.get(s)
                    if old is None:
                        terms[s] = c * a
                        heapq.heappush(heap, (negated(s), s))
                    elif new := old + c * a:
                        terms[s] = new
                    else:
                        del terms[s]
                break
        else:
            remainder[t] = c
    return quotients, MultiPoly._unchecked(f.ring, remainder)


def normal_form(f: MultiPoly, basis: Sequence[MultiPoly], order: str = "grevlex") -> MultiPoly:
    """The remainder of ``reduce_full``."""
    return reduce_full(f, basis, order)[1]


# -- presentations and bases -------------------------------------------


@dataclass(frozen=True)
class IdealPresentation:
    """An ideal in a named ring, given by a finite list of generators."""

    ring: tuple[str, ...]
    generators: tuple[MultiPoly, ...]

    def __init__(self, ring: Iterable[str], generators: Iterable[MultiPoly]):
        ring = tuple(ring)
        gens = tuple(generators)
        if not gens:
            raise ValueError("at least one generator is required")
        kept = []
        for g in gens:
            if g.ring != ring:
                raise RingMismatchError(f"generator ring {g.ring} does not match {ring}")
            if not g.is_zero():
                kept.append(g)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "generators", tuple(kept))


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis: monic, self-reduced, canonically sorted."""

    ring: tuple[str, ...]
    order: str
    basis: tuple[MultiPoly, ...]

    def is_unit_ideal(self) -> bool:
        return len(self.basis) == 1 and self.basis[0] == MultiPoly.const(self.ring, 1)

    def is_self_reduced(self) -> bool:
        for i, g in enumerate(self.basis):
            lexp, _ = leading_term(g, self.order)
            for j, h in enumerate(self.basis):
                if i == j:
                    continue
                if any(_divides(lexp, exp) for exp in h.terms):
                    return False
        return True


def _reduced_basis(gens, order, ring, trace: bool):
    """Buchberger's algorithm on ``reduce_full``: the reduced basis of ``gens``
    and, when tracing, each element's cofactor vector over ``gens``.

    Pairs are taken smallest lcm of their leading terms first, ties by
    index; a pair with coprime leading terms is skipped.  The nonzero
    remainder of each S-polynomial joins the basis, and a constant one ends
    the run.  The minimal basis (smallest leading terms first) then divides
    each element's tail: leading terms are pairwise non-divisible and no
    tail term is divisible by its own element's leading term, so one
    division each yields the reduced basis, returned monic by descending
    leading term.
    """
    if order not in ORDER_KEYS:
        raise ValueError(f"unknown term order {order!r}")
    key = ORDER_KEYS[order]
    basis: list[MultiPoly] = []
    leads: list[tuple[Exponent, Fraction]] = []
    vecs: list = []
    pairs: list = []  # a heap of (key of the lcm, i, j)

    def add(g: MultiPoly, vec) -> bool:
        """Append ``g`` and its pairs; True when it is a constant."""
        lead = leading_term(g, order)
        for i, (e, _) in enumerate(leads):
            if any(a and b for a, b in zip(e, lead[0])):
                heapq.heappush(pairs, (key(_lcm(e, lead[0])), i, len(basis)))
        basis.append(g)
        leads.append(lead)
        vecs.append(vec)
        return not any(lead[0])

    def minus(vec: list, quotients: list, indices: Sequence[int]) -> list:
        """``vec - sum_t quotients[t] * vecs[indices[t]]``."""
        for qd, t in zip(quotients, indices):
            if qd:
                q = MultiPoly(ring, qd)
                vec = [a - q * b for a, b in zip(vec, vecs[t])]
        return vec

    for k, g in enumerate(gens):
        unit = [MultiPoly.const(ring, int(i == k)) for i in range(len(gens))] if trace else None
        if add(g, unit):
            pairs.clear()
            break
    while pairs:
        _, i, j = heapq.heappop(pairs)
        (e_i, c_i), (e_j, c_j) = leads[i], leads[j]
        lcm_exp = _lcm(e_i, e_j)
        m_i = MultiPoly.monomial(ring, _quotient(lcm_exp, e_i), 1 / c_i)
        m_j = MultiPoly.monomial(ring, _quotient(lcm_exp, e_j), 1 / c_j)
        quotients, remainder = reduce_full(m_i * basis[i] - m_j * basis[j], basis, order)
        if remainder.is_zero():
            continue
        vec = None
        if trace:
            vec = minus([m_i * a - m_j * b for a, b in zip(vecs[i], vecs[j])],
                        quotients, range(len(basis)))
        if add(remainder, vec):
            break

    kept: list[int] = []
    for i in sorted(range(len(basis)), key=lambda i: key(leads[i][0])):
        if not any(_divides(leads[k][0], leads[i][0]) for k in kept):
            kept.append(i)
    minimal = [basis[i] for i in kept]
    polys, monic = [], []
    for i in kept:
        (e, c), g = leads[i], basis[i]
        quotients, rest = reduce_full(g - MultiPoly.monomial(ring, e, c), minimal, order)
        polys.append(MultiPoly.monomial(ring, e, 1) + rest * (1 / c))
        if trace:
            monic.append([v * (1 / c) for v in minus(vecs[i], quotients, kept)])
    return polys[::-1], monic[::-1]


def groebner_basis(ideal: IdealPresentation, order: str = "grevlex") -> GroebnerBasis:
    """Reduced Groebner basis; deterministic and generator-order independent."""
    polys, _ = _reduced_basis(ideal.generators, order, ideal.ring, trace=False)
    return GroebnerBasis(ideal.ring, order, tuple(polys))


def ideal_member(f: MultiPoly, ideal: IdealPresentation, order: str = "grevlex") -> bool:
    """True iff the normal form of ``f`` modulo the ideal is zero."""
    if f.ring != ideal.ring:
        raise RingMismatchError(f"ring mismatch: {f.ring} vs {ideal.ring}")
    return normal_form(f, groebner_basis(ideal, order).basis, order).is_zero()


def ideal_member_witness(
    f: MultiPoly, ideal: IdealPresentation, order: str = "grevlex"
) -> tuple[bool, tuple[MultiPoly, ...], MultiPoly]:
    """Membership with an explicit identity certificate.

    Returns ``(member, cofactors, remainder)`` satisfying
    ``f == sum(cofactors[i] * ideal.generators[i]) + remainder`` exactly; the
    verdict is ``remainder == 0``.
    """
    if f.ring != ideal.ring:
        raise RingMismatchError(f"ring mismatch: {f.ring} vs {ideal.ring}")
    basis, traces = _reduced_basis(ideal.generators, order, ideal.ring, trace=True)
    ring = ideal.ring
    if not basis:
        return f.is_zero(), tuple(), f
    quots, remainder = reduce_full(f, basis, order)
    cofactors = [MultiPoly.zero(ring) for _ in ideal.generators]
    for t, qd in enumerate(quots):
        if qd:
            q = MultiPoly(ring, qd)
            cofactors = [c + q * tr for c, tr in zip(cofactors, traces[t])]
    return remainder.is_zero(), tuple(cofactors), remainder


def substitute_reduced(g: MultiPoly, images: Mapping[str, MultiPoly],
                       f: Optional[MultiPoly] = None) -> MultiPoly:
    """``substitute(g, images)``, reduced modulo ``f`` when it is given.

    Without ``f`` this is the plain ``ratpoly.substitute``.  With ``f`` it is
    the remainder of the substitution divided by f as a polynomial in the
    first variable v of f's ring in which f is monic (``_monic_lead``): the
    one polynomial of v-degree below deg_v f that is congruent to it modulo
    f.  For ``x^n z - P(y)``, v = y.  The packed kernel (``_substitute_rows``)
    reduces while it substitutes, and the result lives in f's ring.  Key
    fields are sized from a degree bound of the inputs and double whenever a
    packed exponent overflows.
    """
    ring = f.ring if f is not None else next(iter(images.values())).ring
    used = {v: images[v] for i, v in enumerate(g.ring) if any(exp[i] for exp in g.terms)}
    used = {v: p if p.ring == ring else ring_embed(p, ring) for v, p in used.items()}
    monic = _monic_lead(f) if f is not None else None
    degrees = [max(map(sum, used[v].terms), default=0) if v in used else 0 for v in g.ring]
    bound = max([sum(map(operator.mul, exp, degrees)) for exp in g.terms]
                + [f.total_degree() if f is not None else 0, 1])
    width = bound.bit_length() + 1
    while True:
        try:
            return _substitute_rows(g, used, ring, monic, width)
        except _FieldOverflow:
            width *= 2


def _monic_lead(f: MultiPoly):
    """``(v, r, tail, s)`` for the first variable v (by index) of ``f.ring``
    in which ``f`` is monic: its top v-power is one pure power c * v^r, r >= 1.

    With v = V / s, f * s^r / c is V^r - tail: monic in V, with the integer
    ``tail`` ({exponent: int}, V-degrees below r) over the common
    denominator s of the monic tail's coefficients.  Raises ``ValueError``
    when ``f`` is monic in no variable.
    """
    n = len(f.ring)
    for v in range(n):
        r = max((exp[v] for exp in f.terms), default=0)
        lead = tuple(r if i == v else 0 for i in range(n))
        if r and lead in f.terms and not any(exp[v] == r for exp in f.terms if exp != lead):
            break
    else:
        raise ValueError(f"the generator {f} is monic in no variable of {f.ring}")
    c = f.terms[lead]
    if abs(c) == 1 and all(a.denominator == 1 for a in f.terms.values()):
        sign = -c.numerator
        return v, r, {e: sign * a.numerator for e, a in f.terms.items() if e != lead}, 1
    rest = {e: -a / c for e, a in f.terms.items() if e != lead}
    s = lcm(*(a.denominator for a in rest.values()))
    return v, r, {e: int(a * s ** (r - e[v])) for e, a in rest.items()}, s


_denominator = operator.attrgetter("denominator")


def _numerators(terms: Mapping, keys: list, v: Optional[int], s: int) -> tuple[dict, int]:
    """``(packed, d)``: the terms with v = V / s as integers over their least
    common denominator d, by packed key: one-slot segments."""
    if s == 1:
        d = lcm(*map(_denominator, terms.values()))
        return {sum(map(operator.mul, e, keys)): c.numerator * (d // c.denominator)
                for e, c in terms.items()}, d
    dens = {e: c.denominator * s ** e[v] for e, c in terms.items()}
    d = lcm(*dens.values())
    return {sum(map(operator.mul, e, keys)): c.numerator * (d // dens[e])
            for e, c in terms.items()}, d


def _substitute_rows(g: MultiPoly, images: dict, ring: tuple, monic, width: int) -> MultiPoly:
    """``substitute(g, images)`` in ``ring``, reduced modulo ``monic``
    (``_monic_lead``) when given: Horner on rows evaluated at x = 2^slot
    (``_Rows``), decoded once at the end.

    x is the variable other than v of highest exponent among the images.
    Keys pack each exponent in a ``width``-bit field with a guard bit, x
    lowest and v highest.  Every image becomes an integer numerator over one
    denominator, in V = s v when reducing, and each coefficient of ``g`` is
    scaled so that substituting the numerators gives the result times the
    least common denominator ``den`` of the terms.

    x -> 2^slot is a ring map and rows move whole, so each final segment is
    its true row at 2^slot, and its signed digits are the coefficients once
    every final numerator is below 2^(slot - 1) in size; intermediate slots
    may exceed that.  Without reduction the numerators are bounded by the
    norm of the scaled ``g`` at the images' norms.  Reduction is a ring map
    too, so the bound may reduce the images first.  ``growth[d]`` bounds the
    norm of the remainder of V^d times a monomial: 1 below r, else the
    tail's norms weighted by ``growth`` at the degrees one rewrite leaves.
    Each image's norm is taken after reduction, and each term of ``g``
    gains the largest ``growth`` up to the V-degree its product of reduced
    images can reach.
    """
    v, r, tail, s = monic or (None, 0, {}, 1)
    names, n = g.ring, len(ring)
    exps = [e for p in images.values() for e in p.terms]
    highest = list(map(max, *exps)) if len(exps) > 1 else list(exps[0]) if exps else [0] * n
    if monic:
        highest[v] = -1
    top = max(highest, default=-1)
    x = highest.index(top) if top >= 0 else None
    shifts, shift = [0] * n, 0 if x is None else width
    for i in range(n):
        if i != x and i != v:
            shifts[i], shift = shift, shift + width
    if monic:
        shifts[v] = shift
    keys = [1 << h for h in shifts]
    fieldmask = (1 << width) - 1

    # the images' numerators, denominators, norms and V-degrees, by position in g.ring
    packed, dens, norms, degrees = {}, [1] * len(names), [1] * len(names), {}
    for i, name in enumerate(names):
        if name in images:
            packed[name], dens[i] = _numerators(images[name].terms, keys, v, s)
            norms[i] = sum(map(abs, packed[name].values()))
            if monic:
                degrees[i] = (max(packed[name], default=0) >> shift) & fieldmask
    gterms = g.terms
    if dens.count(1) == len(dens):
        den = lcm(*map(_denominator, gterms.values()))
        coefficients = [(e, c.numerator * (den // c.denominator)) for e, c in gterms.items()]
    else:
        term_dens = [c.denominator * prod(map(pow, dens, e)) for e, c in gterms.items()]
        den = lcm(*term_dens)
        coefficients = [(e, c.numerator * (den // d)) for (e, c), d in zip(gterms.items(), term_dens)]
    tail_terms = _numerators(tail, keys, v, 1)[0]
    if monic:
        weights: dict = {}
        for e, c in tail.items():
            weights[e[v]] = weights.get(e[v], 0) + abs(c)
        caps = [0] * len(names)
        for i, d in degrees.items():
            caps[i] = min(d, r - 1)
        depths = [sum(map(operator.mul, e, caps)) for e in gterms]
        growth = [1] * r
        for k in range(r, max([*degrees.values(), *depths, 0]) + 1):
            growth.append(sum(w * growth[k - r + j] for j, w in weights.items()))
        envelope = list(itertools.accumulate(growth, max))
        for i, d in degrees.items():
            if d >= r:
                norms[i] = sum(growth[(k >> shift) & fieldmask] * abs(c)
                               for k, c in packed[names[i]].items())
        bound = sum(abs(a) * prod(map(pow, norms, e)) * envelope[depth]
                    for (e, a), depth in zip(coefficients, depths))
    else:
        bound = sum(abs(a) * prod(map(pow, norms, e)) for e, a in coefficients)
    slot = bound.bit_length() + 1

    xmask = fieldmask if x is not None else 0
    step = 0  # the gcd of the offsets of x-exponents within each row of each polynomial
    for terms in (tail_terms, *packed.values()):
        first: dict = {}
        for k in terms:
            step = gcd(step, k - first.setdefault(k | xmask, k))
    kernel = _Rows(slot, step or 1, xmask, sum(keys) << (width - 1), fieldmask, shift, r,
                   tail_terms, packed, names)
    result, _ = kernel.merge(*kernel.horner(coefficients, len(names) - 1)) if coefficients else ({}, 1)
    return kernel.decode(result, ring, shifts, x, den, v, s)


class _Rows:
    """Arithmetic on polynomials stored as rows evaluated at x = 2^slot.

    A polynomial is ``(rows, span)``.  ``rows`` maps the key of a segment
    (its monomial without x, plus its lowest x-exponent e0 in x's field) to
    one integer: the segment as a polynomial in x^step evaluated at 2^slot,
    so that slot i holds the coefficient of x^(e0 + i * step).  ``step`` is
    the gcd of the in-row x-offsets of the images and the tail, and ``span``
    bounds the length in slots of every segment.  A product is one integer
    multiply and one keyed add per pair of segments; reduction rewrites each
    row of V-degree at least r as the row times the tail, highest first.
    Segments of one row whose e0 agree modulo ``step`` are merged by
    shifting after each product and before decoding, where they may
    overlap, and where merging pads at most as many zero slots as it joins.
    Images and the tail start as one-slot segments, one per term.
    """

    __slots__ = ("slot", "step", "xmask", "guard", "fieldmask", "vshift", "r", "tail",
                 "tail_span", "images", "names", "powers")

    def __init__(self, slot, step, xmask, guard, fieldmask, vshift, r, tail, images, names):
        self.slot, self.step, self.xmask, self.guard = slot, step, xmask, guard
        self.fieldmask, self.vshift, self.r, self.names = fieldmask, vshift, r, names
        self.images, self.powers = images, {}
        tail, self.tail_span = self.merge(tail, 1)
        self.tail = [(k - (r << vshift), c) for k, c in tail.items()]

    def merge(self, terms: dict, span: int):
        """Merge the segments of each row and class modulo ``step`` that may
        overlap, or whose merge pads at most as many zero slots as it joins;
        drop zeros."""
        if len(terms) < 2:
            return ({} if 0 in terms.values() else terms), span
        step, xmask = self.step, self.xmask
        if step == 1:
            classes = [k | xmask for k in terms]
        else:
            classes = [k - (e0 := k & xmask) + e0 % step for k in terms]
        if len(set(classes)) == len(classes):
            if 0 in terms.values():
                return {k: c for k, c in terms.items() if c}, span
            return terms, span
        slot = self.slot
        out, reach, longest = {}, step * (span - 1), span
        last = start = end = value = None
        for c, k in sorted(zip(classes, terms)):
            if c == last and k - end <= step * ((end - start) // step + span + 2):
                value += terms[k] << (slot * ((k - start) // step))
                if k + reach > end:
                    end = k + reach
                continue
            if value:
                out[start] = value
                if (end - start) // step >= longest:
                    longest = (end - start) // step + 1
            last, start, end, value = c, k, k + reach, terms[k]
        if value:
            out[start] = value
            if (end - start) // step >= longest:
                longest = (end - start) // step + 1
        return out, longest

    def reduce(self, terms: dict, span: int) -> int:
        """Rewrite the rows of V-degree at least r in place, highest first;
        returns the bound on segment lengths afterwards, 0 if none was."""
        vshift, r, guard, tail = self.vshift, self.r, self.guard, self.tail
        top = (max(terms, default=0) >> vshift) & self.fieldmask
        if top < r:
            return 0
        for d in range(top, r - 1, -1):
            low = d << vshift
            for k in [k for k in terms if k >= low]:
                value = terms.pop(k)
                if k & guard:
                    raise _FieldOverflow
                if value:
                    for tk, tc in tail:
                        t = k + tk
                        terms[t] = terms.get(t, 0) + value * tc
            span += self.tail_span - 1
        if functools.reduce(operator.or_, terms, 0) & guard:
            raise _FieldOverflow
        return span

    def mul(self, a, b):
        (ta, sa), (tb, sb) = a, b
        if sa == 1 and len(ta) == 1 and 0 in ta:  # a constant: the rows of b, scaled
            c = ta[0]
            return {k: c * value for k, value in tb.items()}, sb
        out: dict = {}
        get = out.get
        for kb, vb in tb.items():
            for ka, va in ta.items():
                k = ka + kb
                out[k] = get(k, 0) + va * vb
        if functools.reduce(operator.or_, out, 0) & self.guard:
            raise _FieldOverflow
        span = sa + sb - 1
        if self.r and (reduced := self.reduce(out, span)):
            return self.merge(out, reduced)
        if (sa == 1 and len(ta) == 1) or (sb == 1 and len(tb) == 1):
            return out, span  # shifted copies of one operand's segments
        return self.merge(out, span)

    def decode(self, rows: dict, ring: tuple, shifts: list, x, den: int, v, s: int) -> MultiPoly:
        """The polynomial of merged ``rows`` over ``den``, with V = s v: each
        segment's signed digits, slot i at x-exponent e0 + i * step."""
        slot, step, fieldmask = self.slot, self.step, self.fieldmask
        digits, half = (1 << slot) - 1, 1 << (slot - 1)
        out: dict = {}
        for k, value in rows.items():
            exp = [(k >> h) & fieldmask for h in shifts]
            scale = s ** exp[v] if s != 1 else 1
            if -half <= value < half:  # a single slot
                out[tuple(exp)] = Fraction(value * scale, den) if den != 1 else Fraction(value * scale)
                continue
            i = k & fieldmask
            while value:
                c = value & digits
                if c >= half:
                    c -= digits + 1
                if c:
                    exp[x] = i
                    out[tuple(exp)] = Fraction(c * scale, den) if den != 1 else Fraction(c * scale)
                value = (value - c) >> slot
                i += step
        return MultiPoly._unchecked(ring, out)

    @staticmethod
    def add(a, b):
        """``a + b``, summed into the fresh product ``a``; merged at the next
        product."""
        (ta, sa), (tb, sb) = a, b
        get = ta.get
        for k, value in tb.items():
            ta[k] = get(k, 0) + value
        return ta, max(sa, sb)

    def power(self, name: str, e: int):
        powers = self.powers
        result = powers.get((name, e))
        if result is not None:
            return result
        base = powers.get((name, 1))
        if base is None:
            rows, span = self.merge(self.images[name], 1)
            reduced = self.r and self.reduce(rows, span)
            base = powers[(name, 1)] = self.merge(rows, reduced) if reduced else (rows, span)
            if e == 1:
                return base
        result, square, rest = None, base, e
        while rest:
            if rest & 1:
                result = square if result is None else self.mul(result, square)
            rest >>= 1
            square = self.mul(square, square) if rest else square
        powers[(name, e)] = result
        return result

    def horner(self, terms: list, level: int):
        """Nested Horner in the variables of g, last outermost."""
        if level < 0:
            return {0: terms[0][1]}, 1
        groups: dict[int, list] = {}
        for exp, c in terms:
            groups.setdefault(exp[level], []).append((exp, c))
        if len(groups) == 1 and 0 in groups:
            return self.horner(terms, level - 1)
        degrees = sorted(groups, reverse=True)
        name = self.names[level]
        acc = self.horner(groups[degrees[0]], level - 1)
        for hi, lo in zip(degrees, degrees[1:]):
            acc = self.add(self.mul(acc, self.power(name, hi - lo)), self.horner(groups[lo], level - 1))
        return self.mul(acc, self.power(name, degrees[-1])) if degrees[-1] else acc


def jacobian_smooth(f: MultiPoly) -> bool:
    """Smoothness of the hypersurface ``f = 0`` in A^3 by the Jacobian criterion.

    True iff 1 lies in the ideal generated by ``f`` and its three partials.
    Membership of 1 is invariant under field extension, so a ``True`` verdict
    certifies smoothness over any extension of Q.
    """
    if len(f.ring) != 3:
        raise ValueError(f"expected a polynomial in 3 variables, got ring {f.ring}")
    if f.is_constant():
        raise ValueError("surface equation must be nonconstant")
    from .ratpoly import partial_derivative

    gens = [f] + [partial_derivative(f, v) for v in f.ring]
    ideal = IdealPresentation(f.ring, [g for g in gens if not g.is_zero()])
    return groebner_basis(ideal).is_unit_ideal()


# -- polynomial maps and isomorphism certificates -----------------------


@dataclass(frozen=True, eq=False)
class PolyMap:
    """A morphism of presented affine varieties, written contravariantly.

    ``images`` sends each target-ring variable to a polynomial in the source
    ring; geometrically the map goes from the source variety to the target
    variety.  Well-definedness is a checked property (see verify_morphism),
    never an assumption.
    """

    source: IdealPresentation
    target: IdealPresentation
    images: Mapping[str, MultiPoly]

    def __post_init__(self):
        for name in self.target.ring:
            if name not in self.images:
                raise ValueError(f"no image for target variable {name!r}")
        for name, poly in self.images.items():
            if poly.ring != self.source.ring:
                raise RingMismatchError(
                    f"image of {name!r} lives in {poly.ring}, expected {self.source.ring}"
                )
        object.__setattr__(self, "images", dict(self.images))

    def pull_back(self, g: MultiPoly) -> MultiPoly:
        """Substitute the images into a polynomial of the target ring."""
        if g.ring != self.target.ring:
            raise RingMismatchError(f"ring mismatch: {g.ring} vs {self.target.ring}")
        result = substitute(g, dict(self.images))
        if result.ring != self.source.ring:
            # embeds e.g. constants; force the declared source ring
            from .ratpoly import ring_embed

            result = ring_embed(result, self.source.ring)
        return result

    def __eq__(self, other):
        if not isinstance(other, PolyMap):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and dict(self.images) == dict(other.images)
        )

    def __hash__(self):
        return hash((self.source, self.target, tuple(sorted(self.images.items()))))


def identity_map(presentation: IdealPresentation) -> PolyMap:
    images = {v: MultiPoly.var(presentation.ring, v) for v in presentation.ring}
    return PolyMap(presentation, presentation, images)


def verify_morphism(pmap: PolyMap, order: str = "grevlex") -> bool:
    """True iff every target generator pulls back into the source ideal."""
    return all(
        ideal_member(pmap.pull_back(g), pmap.source, order) for g in pmap.target.generators
    )


@dataclass(frozen=True)
class Claim:
    """One checked membership claim with its replayable witness.

    Every claim is a division by the one generator of its side.
    ``generator_pullback`` claims carry the claimed member and an exact
    cofactor identity ``polynomial == cofactors[0] * generator + residual``:
    the quotient and remainder of the member in grevlex.  ``round_trip``
    claims store the remainder of the composite minus the identity
    (``round_trip_residual``), divided as a polynomial in the variable the
    generator is monic in.  Replaying them needs only that division, never
    a basis computation.  A claim holds iff its residual is zero.
    """

    name: str
    ideal: str  # "source" or "target"
    kind: str  # "generator_pullback" or "round_trip"
    subject: str  # generator index or variable name
    polynomial: Optional[MultiPoly]  # claimed member (pullback claims only)
    residual: MultiPoly
    cofactors: Optional[tuple[MultiPoly, ...]]
    ok: bool


@dataclass(frozen=True, eq=False)
class IsoCertificate:
    """A pair of polynomial maps plus the claims that check them.

    The four flags are read off the claims: forward well-defined, backward
    well-defined, backward-after-forward is the identity modulo the source
    ideal, forward-after-backward is the identity modulo the target ideal.
    Each holds when its side has claims of its kind and all of them hold.
    Certificates are made by ``verify_iso_certificate``.
    """

    forward: PolyMap
    backward: PolyMap
    evidence: tuple[Claim, ...]

    def _holds(self, kind: str, side: str) -> bool:
        claims = [c for c in self.evidence if c.kind == kind and c.ideal == side]
        return bool(claims) and all(c.ok for c in claims)

    forward_well_defined = property(lambda self: self._holds("generator_pullback", "source"))
    backward_well_defined = property(lambda self: self._holds("generator_pullback", "target"))
    backward_forward_identity = property(lambda self: self._holds("round_trip", "source"))
    forward_backward_identity = property(lambda self: self._holds("round_trip", "target"))

    @property
    def flags(self) -> tuple:
        return (
            self.forward_well_defined,
            self.backward_well_defined,
            self.backward_forward_identity,
            self.forward_backward_identity,
        )

    def is_valid(self) -> bool:
        return all(self.flags)


def round_trip_residual(
    outer: MultiPoly, inner_images: Mapping[str, MultiPoly], var: str, f: MultiPoly
) -> MultiPoly:
    """Remainder of ``outer`` after ``inner_images``, minus ``var``, modulo ``f``.

    The composite is ``substitute_reduced(outer, inner_images, f)``, the
    remainder in the first variable v in which f is monic.  ``var`` is its
    own remainder unless it is v and deg_v f = 1; then it is v - f / c, c
    the coefficient of v in f.  The composite is the identity on ``var``
    modulo (f) iff the result is zero.  The result lives in f's ring.
    """
    identity = MultiPoly.var(f.ring, var)
    if f.degree_in(var) == 1 and f.ring[_monic_lead(f)[0]] == var:
        (exp,) = identity.terms
        identity = identity - f * (1 / f.terms[exp])
    return substitute_reduced(outer, inner_images, f) - identity


def verify_iso_certificate(forward: PolyMap, backward: PolyMap) -> IsoCertificate:
    """The certificate of two maps, with every membership claim checked.

    The maps must pair up: ``backward`` goes from the target of ``forward``
    to its source.  Both presentations must have one generator, and every
    claim divides by it: a pullback's cofactor and residual are its grevlex
    quotient and remainder, and a round trip is ``round_trip_residual``, so
    a generator monic in no variable raises ``ValueError``.  The composition
    checks require, for each source variable w, that substituting the
    forward images into backward.images[w] differs from w by a member of the
    source ideal (and symmetrically for the target).
    """
    if forward.source != backward.target or forward.target != backward.source:
        raise ValueError("forward and backward maps do not pair up structurally")
    if len(forward.source.generators) != 1 or len(forward.target.generators) != 1:
        raise ValueError("certificates need single-generator presentations")
    # each direction: the map, its inverse, its claim prefix, the side of its source
    directions = (
        (forward, backward, "forward", "source"),
        (backward, forward, "backward", "target"),
    )
    claims: list[Claim] = []
    for pmap, _, label, side in directions:
        f = pmap.source.generators[0]
        poly = pmap.pull_back(pmap.target.generators[0])
        (quotient,), residual = reduce_full(poly, [f])
        claims.append(Claim(f"{label}_well_defined[0]", side, "generator_pullback", "0", poly,
                            residual, (MultiPoly(f.ring, quotient),), residual.is_zero()))
    for pmap, inverse, _, side in directions:
        for var in pmap.source.ring:
            residual = round_trip_residual(inverse.images[var], pmap.images, var,
                                           pmap.source.generators[0])
            claims.append(Claim(f"round_trip_{side}[{var}]", side, "round_trip", var, None,
                                residual, None, residual.is_zero()))
    return IsoCertificate(forward=forward, backward=backward, evidence=tuple(claims))
