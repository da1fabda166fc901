"""Concrete syntax for the defining equations of the two surface families.

Grammar (whitespace and explicit ``*`` are optional between factors):

    x[^n] z = [1] factor ...  [- x]
    factor = y[^m] | (y - a)[^m] | (y + a)[^m]

with ``n, m`` positive integers and ``a`` a rational ``p`` or ``p/q``.  A
bare ``y`` factor means the root 0, so ``y (y - 1)`` normalizes to the same
surface as ``(y - 0)^1 (y - 1)^1``.  An explicit leading constant must be 1:
the right-hand side is monic by convention and anything else is rejected.
Errors carry the offending input position.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError
from .fibration import (
    DanielewskiSurface, Variant, _poly_from_roots, build_surface, format_equation,
)
from .ratpoly import MultiPoly, _parse_int, _parse_unsigned_rational, _Tokens


@dataclass(frozen=True)
class SurfaceSpec:
    """A parsed defining equation, before surface validation."""

    raw: str
    n: int
    roots: tuple[tuple[Fraction, int], ...]
    variant: Variant

    def normalized(self) -> str:
        return format_equation(self.n, self.roots, self.variant)

    def to_surface(self) -> DanielewskiSurface:
        return build_surface(self.n, list(self.roots), self.variant)

    def polynomial(self) -> MultiPoly:
        """The defining polynomial, without the smoothness check of ``to_surface``."""
        return _poly_from_roots(self.roots, self.variant is Variant.SHIFTED, self.n)


def _parse_positive_int(toks: _Tokens) -> int:
    value, position = _parse_int(toks)
    if value < 1:
        raise ParseError("exponent must be a positive integer", position)
    return value


def _skip_star(toks: _Tokens) -> None:
    if toks.peek()[0] == "*":
        toks.next()


def parse_surface(text: str) -> SurfaceSpec:
    """Parse a defining equation; raises ParseError with a position."""
    toks = _Tokens(text)
    tok = toks.expect("name")
    if tok[1] != "x":
        raise ParseError(f"expected 'x', found {tok[1]!r}", tok[2])
    n = 1
    if toks.peek()[0] == "^":
        toks.next()
        n = _parse_positive_int(toks)
    _skip_star(toks)
    tok = toks.expect("name")
    if tok[1] != "z":
        raise ParseError(f"expected 'z', found {tok[1]!r}", tok[2])
    toks.expect("=")

    roots: list[tuple[Fraction, int]] = []
    variant = Variant.PLAIN
    first_factor = True
    while True:
        tok = toks.peek()
        if tok[0] == "int" and first_factor:
            # explicit leading constant; only 1 keeps the product monic
            value = _parse_unsigned_rational(toks)
            if value != 1:
                raise ParseError(f"non-monic leading constant {value}", tok[2])
            _skip_star(toks)
            first_factor = False
            continue
        if tok[0] == "name":
            toks.next()
            if tok[1] != "y":
                raise ParseError(f"expected a factor in y, found {tok[1]!r}", tok[2])
            root = Fraction(0)
        elif tok[0] == "(":
            toks.next()
            name = toks.expect("name")
            if name[1] != "y":
                raise ParseError(f"expected 'y', found {name[1]!r}", name[2])
            op = toks.next()
            if op[0] not in "+-":
                raise ParseError("expected '+' or '-' inside factor", op[2])
            value = _parse_unsigned_rational(toks)
            root = -value if op[0] == "+" else value
            toks.expect(")")
        else:
            raise ParseError(f"expected a factor, found {tok[1]!r}", tok[2])
        mult = 1
        if toks.peek()[0] == "^":
            toks.next()
            mult = _parse_positive_int(toks)
        for seen, _ in roots:
            if seen == root:
                raise ParseError(f"duplicate root {seen}", tok[2])
        roots.append((root, mult))
        first_factor = False
        _skip_star(toks)
        tok = toks.peek()
        if tok[0] == "end":
            break
        if tok[0] == "-":
            toks.next()
            trailer = toks.expect("name")
            if trailer[1] != "x":
                raise ParseError(f"expected trailing 'x', found {trailer[1]!r}", trailer[2])
            end = toks.peek()
            if end[0] != "end":
                raise ParseError(f"unexpected input after '- x'", end[2])
            variant = Variant.SHIFTED
            break
        if tok[0] in ("name", "(", "int"):
            continue
        raise ParseError(f"unexpected token {tok[1]!r}", tok[2])
    if not roots:
        raise ParseError("at least one factor is required", len(text))
    return SurfaceSpec(text, n, tuple(roots), variant)
