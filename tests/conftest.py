import re
from collections import defaultdict

from hypothesis import settings

# ``pytest --hypothesis-profile=ci`` fuzzes the properties that use ``examples``
# with this many examples each.
CI_EXAMPLES = 500
settings.register_profile("ci", max_examples=CI_EXAMPLES)


def examples(count: int) -> settings:
    """Property settings: ``count`` examples and no deadline, or the loaded
    profile's examples when it asks for at least ``CI_EXAMPLES``."""
    loaded = settings.default.max_examples
    return settings(max_examples=loaded if loaded >= CI_EXAMPLES else count, deadline=None)


def naive_division(f, divisors, order="grevlex"):
    """Textbook multivariate division in plain ``MultiPoly`` arithmetic.

    The oracle for ``reduce_full``: takes the largest term left and
    divides it by the first divisor whose leading term divides it, or moves
    it to the remainder.  Returns ``(quotients, remainder)`` with
    ``f == sum(q * g for q, g in zip(quotients, divisors)) + remainder``.
    """
    from danielewski.ratpoly import ORDER_KEYS, MultiPoly

    key = ORDER_KEYS[order]
    leads = [max(g.terms, key=key) for g in divisors]
    quotients = [MultiPoly.zero(f.ring) for _ in divisors]
    remainder = MultiPoly.zero(f.ring)
    work = f
    while not work.is_zero():
        exp = max(work.terms, key=key)
        coeff = work.terms[exp]
        for i, (lead, g) in enumerate(zip(leads, divisors)):
            if all(a <= b for a, b in zip(lead, exp)):
                shift = tuple(b - a for a, b in zip(lead, exp))
                q = MultiPoly.monomial(f.ring, shift, coeff / g.terms[lead])
                quotients[i] = quotients[i] + q
                work = work - q * g
                break
        else:
            t = MultiPoly.monomial(f.ring, exp, coeff)
            remainder = remainder + t
            work = work - t
    return quotients, remainder


def monic_variable(f):
    """The first variable whose top power in ``f`` is a lone pure power, else None."""
    for i, v in enumerate(f.ring):
        top = max((exp[i] for exp in f.terms), default=0)
        leading = [exp for exp in f.terms if exp[i] == top]
        if top and len(leading) == 1 and sum(leading[0]) == top:
            return v
    return None


def monic_remainder(p, f):
    """The remainder of ``p`` modulo ``f`` as a polynomial in f's monic variable.

    The oracle for ``substitute_reduced`` with a generator: ``naive_division``
    in lex order with that variable v first, where f leads with its pure
    power c v^r, so the remainder is the one of v-degree below r.
    """
    from danielewski.ratpoly import ring_embed

    v = monic_variable(f)
    lex = (v,) + tuple(u for u in f.ring if u != v)
    _, remainder = naive_division(ring_embed(p, lex), [ring_embed(f, lex)], "lex")
    return ring_embed(remainder, f.ring)


def substitute_oracle(f, assignment):
    """Per-term substitution in plain ``MultiPoly`` arithmetic.

    The oracle for ``ratpoly.substitute``: expands each term of ``f`` as a
    product of cached image powers.  Unassigned variables map to themselves,
    and the result lives in the ordered union of the image rings.
    """
    from danielewski.errors import RingMismatchError
    from danielewski.ratpoly import MultiPoly, ring_embed, ring_union

    for name in assignment:
        if name not in f.ring:
            raise RingMismatchError(f"assigned variable {name!r} not in ring {f.ring}")
    target = ring_union(*(assignment[v].ring if v in assignment else (v,) for v in f.ring))
    images = {
        v: ring_embed(assignment[v], target) if v in assignment else MultiPoly.var(target, v)
        for v in f.ring
    }
    result = MultiPoly.zero(target)
    power_cache = {}
    for exp, coeff in f.terms.items():
        term = MultiPoly.const(target, coeff)
        for name, e in zip(f.ring, exp):
            if e == 0:
                continue
            if (name, e) not in power_cache:
                power_cache[(name, e)] = images[name] ** e
            term = term * power_cache[(name, e)]
        result = result + term
    return result


def solve_linear_oracle(rows, unknowns):
    """Full Gauss-Jordan elimination over ``Fraction``; the oracle for ``solve_linear``.

    Unknowns are taken in the given order, each pivoting on the first
    remaining row that holds it, and eliminated from every other row, earlier
    pivot rows included.  Returns the solution with free unknowns pinned to
    zero, or None for an inconsistent system.
    """
    from fractions import Fraction

    work = []
    for coeffs, rhs in rows:
        row = {k: Fraction(v) for k, v in coeffs.items() if v != 0}
        work.append((row, Fraction(rhs)))

    def eliminate(other, other_rhs, row, rhs, unknown):
        factor = other.get(unknown)
        if not factor:
            return other, other_rhs
        new = dict(other)
        for k, v in row.items():
            val = new.get(k, Fraction(0)) - factor * v
            if val:
                new[k] = val
            else:
                new.pop(k, None)
        return new, other_rhs - factor * rhs

    pivots = []
    for unknown in unknowns:
        pivot_idx = next((idx for idx, (row, _) in enumerate(work) if unknown in row), None)
        if pivot_idx is None:
            continue
        row, rhs = work.pop(pivot_idx)
        scale = row[unknown]
        row = {k: v / scale for k, v in row.items()}
        rhs = rhs / scale
        work = [eliminate(other, other_rhs, row, rhs, unknown) for other, other_rhs in work]
        pivots = [(name, eliminate(prow, prhs, row, rhs, unknown)) for name, (prow, prhs) in pivots]
        pivots.append((unknown, (row, rhs)))

    for row, rhs in work:
        if not row and rhs != 0:
            return None
        if row:
            raise ValueError(f"row mentions undeclared unknowns: {sorted(map(repr, row))}")

    solution = {u: Fraction(0) for u in unknowns}
    for unknown, (row, rhs) in pivots:
        solution[unknown] = rhs - sum(v * solution[k] for k, v in row.items() if k != unknown)
    return solution


def poly_from_roots_oracle(roots, shifted, n):
    """``x^n z - prod (y - root)^mult [+ x]`` as a product of ``MultiPoly`` factors."""
    from danielewski.ratpoly import MultiPoly

    ring = ("x", "y", "z")
    x, y, z = (MultiPoly.var(ring, v) for v in ring)
    p_of_y = MultiPoly.const(ring, 1)
    for root, mult in roots:
        p_of_y = p_of_y * (y - MultiPoly.const(ring, root)) ** mult
    f = x ** n * z - p_of_y
    return f + x if shifted else f


_results = defaultdict(lambda: {"passed": 0, "failed": 0})
_PATTERN = re.compile(r"test_acceptance\.py::test_(c\d\d)_([A-Za-z0-9_]+?)(?:\[.*)?$")


def pytest_runtest_logreport(report):
    if report.when == "call" or (report.when == "setup" and report.failed):
        match = _PATTERN.search(report.nodeid)
        if not match:
            return
        key = (match.group(1), match.group(2))
        if report.passed:
            _results[key]["passed"] += 1
        elif report.failed:
            _results[key]["failed"] += 1


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _results:
        return
    terminalreporter.section("acceptance criteria")
    for (code, name), counts in sorted(_results.items()):
        if counts["failed"]:
            line = f"  {code} {name}: FAIL ({counts['passed']} ok, {counts['failed']} failing)"
        else:
            line = f"  {code} {name}: PASS ({counts['passed']} ok)"
        terminalreporter.write_line(line)
