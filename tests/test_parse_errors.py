"""Every ``ParseError`` site of the three text readers: message and position.

``poly_from_str`` and ``laurent_from_str`` share one sum reader, and
``laurent_from_str`` and ``parse_surface`` share one ``(v ± a)`` base reader,
so an error raised by a shared piece reads the same from every caller.
"""

import pytest

from danielewski.errors import ParseError
from danielewski.ratpoly import laurent_from_str, poly_from_str
from danielewski.surfexpr import parse_surface

BIG = "1" + "0" * 4300  # 4301 digits

POLY = [
    ("x + $", "unexpected character '$'", 4),
    ("x ²", "unexpected character '²'", 2),
    ("x^", "expected 'int', found ''", 2),
    ("1/0*x", "zero denominator", 2),
    ("x^-1", "negative exponent not allowed here", 2),
    ("q + 1", "unknown variable 'q'", 0),
    ("x + * y", "expected a term, found '*'", 4),
    ("x y", "expected '+' or '-', found 'y'", 2),
    ("", "expected a term, found ''", 0),
    (BIG + "*x", "number of more than 4300 digits", 0),
    ("x^" + BIG, "number of more than 4300 digits", 2),
    ("x + (y)", "expected a term, found '('", 4),
    ("2*", "expected a term, found ''", 2),
    ("-", "expected a term, found ''", 1),
    ("x^2^3", "expected '+' or '-', found '^'", 3),
]

LAURENT = [  # (text, center, message, position)
    ("q^-1", 0, "unknown variable 'q'", 0),
    ("x^-1", 1, "bare 'x' but expansion center is 1", 0),
    ("(q - 1)^-1", 1, "unknown variable 'q'", 1),
    ("(x * 1)^-1", 1, "expected '+' or '-' inside shifted base", 3),
    ("(x - 2)^-1", 1, "expansion point 2 does not match 1", 3),
    ("(x + 1)^-1", 1, "expansion point -1 does not match 1", 3),
    ("(x - 1/2)^-1", 1, "expansion point 1/2 does not match 1", 3),
    ("(x - 1^-1", 1, "expected ')', found '^'", 6),
    ("(1 - x)", 1, "expected 'name', found '1'", 1),
    ("(x - 1/0)", 1, "zero denominator", 7),
    ("(x - y)", 1, "expected 'int', found 'y'", 5),
    ("(x)", 0, "expected '+' or '-' inside shifted base", 2),
    ("2*x^-", 0, "expected 'int', found ''", 5),
    ("x^-1 x", 0, "expected '+' or '-', found 'x'", 5),
    ("x^-1 + -", 0, "expected a term, found '-'", 7),
    ("x^-1 #", 0, "unexpected character '#'", 5),
    ("", 0, "expected a term, found ''", 0),
]

SURFACE = [
    ("", "expected 'name', found ''", 0),
    ("y z = y", "expected 'x', found 'y'", 0),
    ("x^0 z = y", "exponent must be a positive integer", 2),
    ("x^a z = y", "expected 'int', found 'a'", 2),
    ("x y = y", "expected 'z', found 'y'", 2),
    ("x z y", "expected '=', found 'y'", 4),
    ("x z = 2 y", "non-monic leading constant 2", 6),
    ("x z = q", "expected a factor in y, found 'q'", 6),
    # read by the base reader of laurent_from_str, and worded as there
    ("x z = (q - 1)", "unknown variable 'q'", 7),
    ("x z = (y * 1)", "expected '+' or '-' inside shifted base", 9),
    ("x z = (y - 1/0)", "zero denominator", 13),
    ("x z = (y - 1", "expected ')', found ''", 12),
    ("x z = (1 - y)", "expected 'name', found '1'", 7),
    ("x z = + y", "expected a factor, found '+'", 6),
    ("x z = y^0", "exponent must be a positive integer", 8),
    ("x z = y (y - 0)", "duplicate root 0", 8),
    ("x z = y^2 (y + 1/2) (y + 1/2)", "duplicate root -1/2", 20),
    ("x z = y - q", "expected trailing 'x', found 'q'", 10),
    ("x z = y - x y", "unexpected input after '- x'", 12),
    ("x z = y / 2", "unexpected token '/'", 8),
    ("x z =", "expected a factor, found ''", 5),
    ("x z = 1", "expected a factor, found ''", 7),
    ("x z = 1 * * y", "expected a factor, found '*'", 10),
    ("x z = y ²", "unexpected character '²'", 8),
    ("x z = (y - 1)^", "expected 'int', found ''", 14),
]


def raised(read, *args) -> tuple[str, int]:
    with pytest.raises(ParseError) as info:
        read(*args)
    return str(info.value), info.value.position


def expected(message, position) -> tuple[str, int]:
    return f"{message} (at position {position})", position


@pytest.mark.parametrize("text, message, position", POLY, ids=[repr(t[:12]) for t, _, _ in POLY])
def test_poly_from_str_errors(text, message, position):
    assert raised(poly_from_str, text, ("x", "y", "z")) == expected(message, position)


@pytest.mark.parametrize("text, center, message, position", LAURENT)
def test_laurent_from_str_errors(text, center, message, position):
    assert raised(laurent_from_str, text, "x", center) == expected(message, position)


@pytest.mark.parametrize("text, message, position", SURFACE)
def test_parse_surface_errors(text, message, position):
    assert raised(parse_surface, text) == expected(message, position)
