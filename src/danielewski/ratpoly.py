"""Exact sparse polynomial arithmetic over the rationals.

Two value types live here:

``MultiPoly``
    A multivariate polynomial over an ordered ring of named variables,
    stored as a map from exponent tuples to nonzero ``Fraction``
    coefficients.  The zero polynomial is the empty map.

``LaurentPoly``
    A univariate Laurent polynomial in powers of ``(x - c)`` for a rational
    expansion point ``c``, stored as a map from integer exponents to nonzero
    coefficients.  The strictly negative exponents form the principal part.

Both types are immutable after construction; all operations are pure and
return new values, so instances can be shared freely between threads.

``MultiPoly(ring, terms)`` is the boundary for data from outside the
library: it coerces the ring to a tuple and every exponent to an int tuple,
rejects arity mismatches and negative exponents, coerces coefficients to
``Fraction`` and drops zeros.  ``MultiPoly._unchecked(ring, terms)`` stores
the pair as given.  It is for results the library computes from polynomials
that already passed that boundary, whose terms are valid by construction:
``+``, ``-``, negation, scalar and polynomial ``*``, ``ring_embed``,
``partial_derivative``, the remainder of ``ideals.reduce_full`` and the
decode of the substitution kernel (``ideals._Rows.decode``).  Such a caller
must pass a tuple ring, a fresh dict it does not keep, int-tuple exponents
of the ring's arity and nonzero ``Fraction`` coefficients; each drops the
zeros that cancellation creates.  The sum reader builds its term dict in
one pass and goes through the public constructor once.

Terms are ordered by graded reverse lexicographic order on the declared
variable order.  The canonical text form (``sorted_terms`` order, ``^`` for
powers, explicit ``*``, rationals as ``p/q``) is the interchange format used
by the CLI and by JSON documents.  One writer, ``_sum_str``, prints the sums
of both types; it and ``fibration.format_equation`` write powers with
``_product_str`` and the base ``v`` / ``(v - c)`` with ``_base_str``.  One
reader, ``_read_sum``, takes the factor rule of ``poly_from_str`` or of
``laurent_from_str``; ``_read_base`` reads the base, also for ``parse_surface``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Mapping, Optional

from .errors import ParseError, RingMismatchError

Exponent = tuple[int, ...]


def as_fraction(value) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational number")


# Python 3.11+ converts no int of more decimal digits (sys.get_int_max_str_digits);
# the parser and ``fraction_str`` refuse them on every version.
MAX_DIGITS = 4300
_DIGIT_BOUND = 10**MAX_DIGITS  # the least integer of more than MAX_DIGITS digits


def fraction_str(q: Fraction) -> str:
    """Render a rational in the ``p/q`` interchange form (``p`` if integral);
    a part of more than ``MAX_DIGITS`` digits raises ``ValueError``."""
    q = as_fraction(q)
    num, den = q.numerator, q.denominator
    if abs(num) >= _DIGIT_BOUND or den >= _DIGIT_BOUND:
        raise ValueError(f"a computed number has more than {MAX_DIGITS} digits")
    if den == 1:
        return str(num)
    return f"{num}/{den}"


def grevlex_key(exp: Exponent):
    """Sort key realizing graded reverse lexicographic order (ascending)."""
    return (sum(exp), tuple(-e for e in reversed(exp)))


def lex_key(exp: Exponent):
    """Sort key realizing lexicographic order (ascending)."""
    return tuple(exp)


ORDER_KEYS = {"grevlex": grevlex_key, "lex": lex_key}


class MultiPoly:
    """Immutable sparse multivariate polynomial with rational coefficients."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: Iterable[str], terms: Mapping[Exponent, Fraction]):
        ring = tuple(ring)
        clean: dict[Exponent, Fraction] = {}
        for exp, coeff in terms.items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != len(ring):
                raise ValueError(f"exponent {exp} does not match ring arity {len(ring)}")
            if any(e < 0 for e in exp):
                raise ValueError(f"negative exponent in {exp}")
            coeff = as_fraction(coeff)
            if coeff != 0:
                clean[exp] = coeff
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def _unchecked(cls, ring: tuple[str, ...], terms: dict[Exponent, Fraction]) -> "MultiPoly":
        """Wrap valid terms without re-checking them (see the module docstring)."""
        self = object.__new__(cls)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_hash", None)
        return self

    @classmethod
    def zero(cls, ring: Iterable[str]) -> "MultiPoly":
        return cls(ring, {})

    @classmethod
    def const(cls, ring: Iterable[str], value) -> "MultiPoly":
        ring = tuple(ring)
        return cls(ring, {(0,) * len(ring): as_fraction(value)})

    @classmethod
    def var(cls, ring: Iterable[str], name: str) -> "MultiPoly":
        ring = tuple(ring)
        if name not in ring:
            raise RingMismatchError(f"variable {name!r} not in ring {ring}")
        exp = tuple(1 if v == name else 0 for v in ring)
        return cls(ring, {exp: Fraction(1)})

    @classmethod
    def monomial(cls, ring: Iterable[str], exp: Exponent, coeff=1) -> "MultiPoly":
        return cls(ring, {tuple(exp): as_fraction(coeff)})

    # -- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(exp) == 0 for exp in self.terms)

    def total_degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        if not self.terms:
            return -1
        return max(sum(exp) for exp in self.terms)

    def degree_in(self, name: str) -> int:
        idx = self.ring.index(name)
        if not self.terms:
            return -1
        return max(exp[idx] for exp in self.terms)

    def variables_used(self) -> tuple[str, ...]:
        used = [False] * len(self.ring)
        for exp in self.terms:
            for i, e in enumerate(exp):
                if e:
                    used[i] = True
        return tuple(v for v, u in zip(self.ring, used) if u)

    def sorted_terms(self, order: str = "grevlex") -> list[tuple[Exponent, Fraction]]:
        key = ORDER_KEYS[order]
        return sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=True)

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            if other.ring != self.ring:
                raise RingMismatchError(f"ring mismatch: {self.ring} vs {other.ring}")
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.const(self.ring, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return MultiPoly._unchecked(self.ring, _merged(self.terms, other.terms, False))

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._unchecked(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return MultiPoly._unchecked(self.ring, _merged(self.terms, other.terms, True))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = as_fraction(other)
            if c == 0:
                return MultiPoly.zero(self.ring)
            return MultiPoly._unchecked(self.ring, {e: co * c for e, co in self.terms.items()})
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[Exponent, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                old = out.get(exp)
                out[exp] = c1 * c2 if old is None else old + c1 * c2
        return MultiPoly._unchecked(self.ring, {e: c for e, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = MultiPoly.const(self.ring, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            items = tuple(sorted(self.terms.items(), key=lambda t: grevlex_key(t[0])))
            object.__setattr__(self, "_hash", hash((self.ring, items)))
        return self._hash

    # -- text form ----------------------------------------------------

    def __str__(self) -> str:
        return _sum_str(self.ring, self.sorted_terms())

    def __repr__(self) -> str:
        return f"MultiPoly({self.ring}, {self})"


def _merged(terms: dict, other: dict, negate: bool) -> dict:
    """``terms + other`` (``terms - other`` when negating), without zeros, in a fresh dict."""
    out = dict(terms)
    for exp, coeff in other.items():
        old = out.get(exp)
        if old is None:
            out[exp] = -coeff if negate else coeff
        elif total := old - coeff if negate else old + coeff:
            out[exp] = total
        else:
            del out[exp]
    return out


def ring_union(*rings: Iterable[str]) -> tuple[str, ...]:
    """Ordered union of variable lists, keeping first appearances."""
    seen: dict[str, None] = {}
    for ring in rings:
        for name in ring:
            seen.setdefault(name, None)
    return tuple(seen)


def ring_embed(f: MultiPoly, target_ring: Iterable[str]) -> MultiPoly:
    """Reinterpret ``f`` in a larger ring containing all its variables."""
    target_ring = tuple(target_ring)
    positions = []
    for name in f.ring:
        if name not in target_ring:
            raise RingMismatchError(f"variable {name!r} missing from target ring {target_ring}")
        positions.append(target_ring.index(name))
    out: dict[Exponent, Fraction] = {}
    for exp, coeff in f.terms.items():
        new = [0] * len(target_ring)
        for pos, e in zip(positions, exp):
            new[pos] = e
        out[tuple(new)] = coeff
    return MultiPoly._unchecked(target_ring, out)


def poly_arith(lhs: MultiPoly, rhs: MultiPoly, op: str) -> MultiPoly:
    """Exact ring operation; ``op`` is one of ``add``, ``sub``, ``mul``."""
    if lhs.ring != rhs.ring:
        raise RingMismatchError(f"ring mismatch: {lhs.ring} vs {rhs.ring}")
    if op == "add":
        return lhs + rhs
    if op == "sub":
        return lhs - rhs
    if op == "mul":
        return lhs * rhs
    raise ValueError(f"unknown operation {op!r}")


def partial_derivative(f: MultiPoly, name: str) -> MultiPoly:
    """Formal partial derivative with respect to a ring variable."""
    if name not in f.ring:
        raise RingMismatchError(f"variable {name!r} not in ring {f.ring}")
    idx = f.ring.index(name)
    out: dict[Exponent, Fraction] = {}
    for exp, coeff in f.terms.items():
        e = exp[idx]
        if e:  # lowering one exponent is injective on these terms, so none merge
            out[exp[:idx] + (e - 1,) + exp[idx + 1:]] = coeff * e
    return MultiPoly._unchecked(f.ring, out)


def substitute(f: MultiPoly, assignment: Mapping[str, MultiPoly]) -> MultiPoly:
    """Substitute polynomials for variables.

    Unassigned variables map to themselves.  The result lives in the ordered
    union of the image rings (source variables first, then new names in the
    order they appear in each image ring).  The expansion is the packed
    Horner kernel of ``ideals.substitute_reduced`` with no generator.
    """
    from .ideals import substitute_reduced

    for name in assignment:
        if name not in f.ring:
            raise RingMismatchError(f"assigned variable {name!r} not in ring {f.ring}")
    if not f.ring:
        return f
    target = ring_union(*(assignment[v].ring if v in assignment else (v,) for v in f.ring))
    images = {v: MultiPoly.var(target, v) for v in f.ring if v not in assignment}
    for v, image in assignment.items():
        images[v] = image if image.ring == target else ring_embed(image, target)
    return substitute_reduced(f, images)


class LaurentPoly:
    """Immutable Laurent polynomial in powers of ``(variable - center)``."""

    __slots__ = ("variable", "center", "terms", "_hash")

    def __init__(self, variable: str, terms: Mapping[int, Fraction], center=0):
        clean: dict[int, Fraction] = {}
        for exp, coeff in terms.items():
            coeff = as_fraction(coeff)
            if coeff != 0:
                clean[int(exp)] = coeff
        object.__setattr__(self, "variable", variable)
        object.__setattr__(self, "center", as_fraction(center))
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    @classmethod
    def zero(cls, variable: str, center=0) -> "LaurentPoly":
        return cls(variable, {}, center)

    @classmethod
    def monomial(cls, variable: str, exp: int, coeff=1, center=0) -> "LaurentPoly":
        return cls(variable, {exp: as_fraction(coeff)}, center)

    def is_zero(self) -> bool:
        return not self.terms

    def pole_order(self) -> int:
        """Order of the pole at the center (0 if regular there)."""
        if not self.terms:
            return 0
        return max(0, -min(self.terms))

    def _compatible(self, other: "LaurentPoly"):
        if self.variable != other.variable or self.center != other.center:
            raise RingMismatchError(
                f"Laurent mismatch: ({self.variable}, center {self.center}) vs "
                f"({other.variable}, center {other.center})"
            )

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly(self.variable, {0: as_fraction(other)}, self.center)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._compatible(other)
        return LaurentPoly(self.variable, _merged(self.terms, other.terms, False), self.center)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.variable, {e: -c for e, c in self.terms.items()}, self.center)

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, LaurentPoly)):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = as_fraction(other)
            return LaurentPoly(self.variable, {e: co * c for e, co in self.terms.items()}, self.center)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._compatible(other)
        out: dict[int, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                out[e1 + e2] = out.get(e1 + e2, Fraction(0)) + c1 * c2
        return LaurentPoly(self.variable, out, self.center)

    __rmul__ = __mul__

    def shift_exponents(self, k: int) -> "LaurentPoly":
        """Multiply by ``(variable - center)^k`` (k may be negative)."""
        return LaurentPoly(self.variable, {e + k: c for e, c in self.terms.items()}, self.center)

    def split(self) -> tuple["LaurentPoly", "LaurentPoly"]:
        """Decompose into (regular part, principal part)."""
        regular = {e: c for e, c in self.terms.items() if e >= 0}
        principal = {e: c for e, c in self.terms.items() if e < 0}
        return (
            LaurentPoly(self.variable, regular, self.center),
            LaurentPoly(self.variable, principal, self.center),
        )

    def principal_part(self) -> "LaurentPoly":
        return self.split()[1]

    def is_principal(self) -> bool:
        return all(e < 0 for e in self.terms)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return (
            self.variable == other.variable
            and self.center == other.center
            and self.terms == other.terms
        )

    def __hash__(self):
        if self._hash is None:
            items = tuple(sorted(self.terms.items()))
            object.__setattr__(self, "_hash", hash((self.variable, self.center, items)))
        return self._hash

    def __str__(self) -> str:
        terms = [((e,), self.terms[e]) for e in sorted(self.terms, reverse=True)]
        return _sum_str((_base_str(self.variable, self.center),), terms)

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"


def laurent_split(f: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """Split into (regular, principal); ``f == regular + principal`` exactly."""
    return f.split()


def poly_to_laurent(s: MultiPoly, variable: str, center=0) -> LaurentPoly:
    """Re-expand a univariate polynomial in powers of ``(variable - center)``.

    ``s`` must involve no variable other than ``variable``.
    """
    used = s.variables_used()
    if any(name != variable for name in used):
        raise RingMismatchError(f"polynomial uses {used}, expected only {variable!r}")
    center = as_fraction(center)
    idx = s.ring.index(variable) if variable in s.ring else None
    # Coefficient list in ascending powers of the variable.
    coeffs: dict[int, Fraction] = {}
    for exp, coeff in s.terms.items():
        e = exp[idx] if idx is not None else 0
        coeffs[e] = coeffs.get(e, Fraction(0)) + coeff
    if center == 0:
        return LaurentPoly(variable, coeffs, 0)
    # Taylor shift by repeated synthetic division by (x - center).
    degree = max(coeffs) if coeffs else 0
    work = [coeffs.get(i, Fraction(0)) for i in range(degree + 1)]
    shifted: list[Fraction] = []
    while work:
        d = len(work) - 1
        if d == 0:
            shifted.append(work[0])
            break
        quotient = [Fraction(0)] * d
        quotient[d - 1] = work[d]
        for i in range(d - 1, 0, -1):
            quotient[i - 1] = work[i] + center * quotient[i]
        shifted.append(work[0] + center * quotient[0])
        work = quotient
    return LaurentPoly(variable, {i: c for i, c in enumerate(shifted)}, center)


# -- text form ----------------------------------------------------------


def _product_str(factors: Iterable[tuple[str, int]], sep: str = "*") -> str:
    """Each ``(base, e)`` as ``base^e`` (``^1`` left out, e = 0 dropped), joined by ``sep``."""
    return sep.join([base if e == 1 else f"{base}^{e}" for base, e in factors if e])


def _base_str(variable: str, center) -> str:
    """The base ``variable`` (center 0) or ``(variable - c)`` with ``c`` the center."""
    if center == 0:
        return variable
    sign, size = ("-", center) if center > 0 else ("+", -center)
    return f"({variable} {sign} {fraction_str(size)})"


def _sum_str(bases: tuple[str, ...], terms: Iterable[tuple[Exponent, Fraction]]) -> str:
    """The text of a sum of ``(exponents, coefficient)`` terms in the given
    order, exponent k applying to ``bases[k]``; the empty sum is ``0``."""
    chunks: list[str] = []
    for exp, coeff in terms:
        mono = _product_str(zip(bases, exp))
        mag = abs(coeff)
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{fraction_str(mag)}*{mono}"
        else:
            body = fraction_str(mag)
        if not chunks:
            chunks.append(body if coeff > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(chunks) or "0"


# -- text parsing -----------------------------------------------------


# whitespace, an ASCII digit run, a word (a name if it starts with a letter or
# "_"), an operator, or any other character.  Digits are ASCII only:
# str.isdigit accepts "²", which int() refuses.  ``\s`` and ``\w`` are
# str.isspace and str.isalnum (or "_") on every code point.
_TOKEN = re.compile(r"(\s+)|([0-9]+)|(\w+)|([-+*/^()=])|(.)", re.S)


class _Tokens:
    def __init__(self, text: str):
        self.text, self.index = text, 0
        self.items: list[tuple[str, str, int]] = []
        items = self.items
        for match in _TOKEN.finditer(text):
            kind = match.lastindex
            if kind == 1:
                continue
            token, i = match.group(), match.start()
            if kind == 2:
                items.append(("int", token, i))
            elif kind == 4:
                items.append((token, token, i))
            elif kind == 3 and (token[0].isalpha() or token[0] == "_"):
                items.append(("name", token, i))
            else:
                raise ParseError(f"unexpected character {token[0]!r}", i)

    def peek(self):
        if self.index < len(self.items):
            return self.items[self.index]
        return ("end", "", len(self.text))

    def next(self):
        tok = self.peek()
        self.index += 1
        return tok

    def expect(self, kind: str):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok


def _parse_int(toks: _Tokens) -> tuple[int, int]:
    """The next token as a nonnegative int, with its position."""
    tok = toks.expect("int")
    if len(tok[1]) > MAX_DIGITS:
        raise ParseError(f"number of more than {MAX_DIGITS} digits", tok[2])
    return int(tok[1]), tok[2]


def _parse_unsigned_rational(toks: _Tokens) -> Fraction:
    value = Fraction(_parse_int(toks)[0])
    if toks.peek()[0] == "/":
        toks.next()
        den, position = _parse_int(toks)
        if den == 0:
            raise ParseError("zero denominator", position)
        value = value / den
    return value


def _parse_exponent(toks: _Tokens, allow_negative: bool) -> int:
    toks.expect("^")
    sign = 1
    if toks.peek()[0] == "-":
        if not allow_negative:
            raise ParseError("negative exponent not allowed here", toks.peek()[2])
        toks.next()
        sign = -1
    return sign * _parse_int(toks)[0]


def _read_base(toks: _Tokens, variable: str, center: Optional[Fraction] = None) -> Fraction:
    """The center of a bare ``variable`` (0) or of ``(variable - c)`` / ``(variable + c)``.

    With ``center`` given, a base at another point is an error.
    """
    tok = toks.next()
    bare = tok[0] == "name"
    name = tok if bare else toks.expect("name")
    if name[1] != variable:
        raise ParseError(f"unknown variable {name[1]!r}", name[2])
    if bare:
        if center:
            raise ParseError(f"bare {variable!r} but expansion center is {center}", tok[2])
        return Fraction(0)
    op = toks.next()
    if op[0] not in "+-":
        raise ParseError("expected '+' or '-' inside shifted base", op[2])
    value = _parse_unsigned_rational(toks)
    stated = -value if op[0] == "+" else value
    if center is not None and stated != center:
        raise ParseError(f"expansion point {stated} does not match {center}", op[2])
    toks.expect(")")
    return stated


def _read_sum(text: str, arity: int, read_factor, allow_negative: bool) -> dict:
    """The terms of a sum in the text form, as ``{exponent tuple: coefficient}``.

    Terms, joined by ``+`` or ``-`` (the first may carry a sign), are products
    of unsigned rationals and factors with an optional ``^e``, joined by ``*``;
    repeated monomials merge.  ``read_factor(toks)`` consumes one factor and
    returns the index of its exponent, or None, consuming nothing, when the
    next token starts no factor.
    """
    toks = _Tokens(text)
    terms: dict[Exponent, Fraction] = {}
    tok = toks.peek()
    sign = -1 if tok[0] == "-" else 1
    if tok[0] in "+-":
        toks.next()
    while True:
        coeff = Fraction(sign)
        exp = [0] * arity
        while True:
            tok = toks.peek()
            if tok[0] == "int":
                coeff *= _parse_unsigned_rational(toks)
            elif (index := read_factor(toks)) is not None:
                exp[index] += _parse_exponent(toks, allow_negative) if toks.peek()[0] == "^" else 1
            else:
                raise ParseError(f"expected a term, found {tok[1]!r}", tok[2])
            if toks.peek()[0] != "*":
                break
            toks.next()
        exp = tuple(exp)
        terms[exp] = terms.get(exp, 0) + coeff
        tok = toks.next()
        if tok[0] == "end":
            return terms
        if tok[0] not in "+-":
            raise ParseError(f"expected '+' or '-', found {tok[1]!r}", tok[2])
        sign = -1 if tok[0] == "-" else 1


def poly_from_str(text: str, ring: Iterable[str]) -> MultiPoly:
    """Parse the canonical text form of a polynomial in the given ring."""
    ring = tuple(ring)

    def ring_variable(toks: _Tokens) -> Optional[int]:
        tok = toks.peek()
        if tok[0] != "name":
            return None
        toks.next()
        if tok[1] not in ring:
            raise ParseError(f"unknown variable {tok[1]!r}", tok[2])
        return ring.index(tok[1])

    return MultiPoly(ring, _read_sum(text, len(ring), ring_variable, allow_negative=False))


def laurent_from_str(text: str, variable: str, center=0) -> LaurentPoly:
    """Parse a Laurent polynomial; exponents may be negative.

    The base symbol is either the bare variable (center 0) or the literal
    ``(variable - c)`` matching the given expansion point.
    """
    center = as_fraction(center)

    def base(toks: _Tokens) -> Optional[int]:
        if toks.peek()[0] not in ("name", "("):
            return None
        _read_base(toks, variable, center)
        return 0

    terms = _read_sum(text, 1, base, allow_negative=True)
    return LaurentPoly(variable, {e: c for (e,), c in terms.items()}, center)
