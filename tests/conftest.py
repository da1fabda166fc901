import re
from collections import defaultdict


def naive_division(f, divisors, order="grevlex"):
    """Textbook multivariate division in plain ``MultiPoly`` arithmetic.

    The oracle for the packed division: takes the largest term left and
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
