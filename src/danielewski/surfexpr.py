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
from .ratpoly import MultiPoly, _parse_int, _parse_unsigned_rational, _read_base, _Tokens


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


def _power(toks: _Tokens) -> int:
    """An optional ``^k``, k a positive integer; 1 when there is none."""
    if toks.peek()[0] != "^":
        return 1
    toks.next()
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
    n = _power(toks)
    _skip_star(toks)
    tok = toks.expect("name")
    if tok[1] != "z":
        raise ParseError(f"expected 'z', found {tok[1]!r}", tok[2])
    toks.expect("=")

    tok = toks.peek()
    if tok[0] == "int":
        # explicit leading constant; only 1 keeps the product monic
        value = _parse_unsigned_rational(toks)
        if value != 1:
            raise ParseError(f"non-monic leading constant {value}", tok[2])
        _skip_star(toks)
    roots: list[tuple[Fraction, int]] = []
    variant = Variant.PLAIN
    while True:
        tok = toks.peek()
        if tok[0] == "name" and tok[1] != "y":
            raise ParseError(f"expected a factor in y, found {tok[1]!r}", tok[2])
        if tok[0] not in ("name", "("):
            raise ParseError(f"expected a factor, found {tok[1]!r}", tok[2])
        root = _read_base(toks, "y")
        mult = _power(toks)
        if any(seen == root for seen, _ in roots):
            raise ParseError(f"duplicate root {root}", tok[2])
        roots.append((root, mult))
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
                raise ParseError("unexpected input after '- x'", end[2])
            variant = Variant.SHIFTED
            break
        if tok[0] not in ("name", "(", "int"):
            raise ParseError(f"unexpected token {tok[1]!r}", tok[2])
    return SurfaceSpec(text, n, tuple(roots), variant)
