"""Exact sparse linear solving over the rationals.

Systems are given as rows ``(coefficients, rhs)`` where ``coefficients`` maps
unknown labels to rational entries.  Each row is put over its common
denominator and elimination runs fraction-free on integer rows: eliminating
an unknown from a row subtracts a multiple of the pivot row, with both
scaled by their gcd cofactors, and divides the result by its content.

Unknowns are eliminated in the given order.  The pivot row of an unknown is
the sparsest remaining row that holds it (the first one on ties).  The row
choice cannot change the outcome: an unknown gets a pivot exactly when its
column is independent of the columns of the unknowns before it, so the
pivot columns depend only on the unknown order.  With every free unknown
pinned to zero the solution on the pivot columns is unique, and back
substitution through the pivot rows returns it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Hashable, Iterable, Mapping, Optional, Sequence


def solve_linear(
    rows: Iterable[tuple[Mapping[Hashable, Fraction], Fraction]],
    unknowns: Sequence[Hashable],
) -> Optional[dict]:
    """Solve ``A x = b`` exactly; return a particular solution or None.

    Free unknowns are set to zero.  Returns ``None`` when the system is
    inconsistent, and raises ``ValueError`` when a row has a nonzero entry
    for a label outside ``unknowns``.  Rows are integer dicts keyed by column
    index, with the right-hand side in the column after the last unknown.
    """
    column = {u: k for k, u in enumerate(unknowns)}
    rhs_col = len(unknowns)
    work: list[dict] = []
    for coeffs, rhs in rows:
        entries = {k: v for k, v in coeffs.items() if v}
        if not entries.keys() <= column.keys():
            undeclared = sorted(repr(k) for k in entries if k not in column)
            raise ValueError(f"row mentions undeclared unknowns: {undeclared}")
        rhs = Fraction(rhs)
        den = lcm(rhs.denominator, *(v.denominator for v in entries.values()))
        row = {column[k]: v.numerator * (den // v.denominator) for k, v in entries.items()}
        if rhs:
            row[rhs_col] = rhs.numerator * (den // rhs.denominator)
        if row:
            work.append(_primitive(row))
    if any(row.keys() == {rhs_col} for row in work):
        return None

    pivots: list[tuple[int, dict]] = []
    for k in range(rhs_col):
        holders = [row for row in work if k in row]
        if not holders:
            continue
        pivot = min(holders, key=len)
        p = pivot[k]
        work = [row for row in work if k not in row]
        for row in holders:
            if row is pivot:
                continue
            r = row[k]
            g = gcd(p, r)
            a, b = p // g, r // g
            new = {c: a * v for c, v in row.items()}
            for c, v in pivot.items():
                val = new.get(c, 0) - b * v
                if val:
                    new[c] = val
                else:
                    del new[c]
            if new.keys() == {rhs_col}:
                return None
            if new:
                work.append(_primitive(new))
        pivots.append((k, pivot))

    values: dict[int, Fraction] = {}
    for k, row in reversed(pivots):
        acc = Fraction(row.get(rhs_col, 0))
        for c, v in row.items():
            if c in values:
                acc -= v * values[c]
        values[k] = acc / row[k]
    return {u: values.get(k, Fraction(0)) for u, k in column.items()}


def _primitive(row: dict) -> dict:
    content = gcd(*row.values())
    return row if content == 1 else {c: v // content for c, v in row.items()}
