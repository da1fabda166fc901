"""Seeded operation sequences for the four benchmark workloads.

A workload is an endless sequence of *rounds*; a round is a short, fixed
mix of CLI operations.  Round ``k`` of seed ``s`` is drawn from its own
``random.Random`` stream, so the same seed always gives the same argv
lists, however many rounds a run reaches.

Each operation is a dict:

``kind``
    ``construct`` (``cylinder-iso`` / ``counterexample``), ``verify``,
    ``analyze``, ``refuse`` (a construction the program must refuse) or
    ``cocycle``.
``argv``
    the argument list handed to ``danielewski.cli.main``.  A ``verify``
    operation names the proof file written from the stdout of operation
    ``proof_of`` of the same round.
``expect``
    ``ok`` (exit 0 with a document on stdout), ``refuse`` (exit 1 with a
    message on stderr) or ``orbit`` (exit 0 or 1, matching the printed
    verdict).
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("flagship_deep", "rational_roots", "shallow_mix", "analyze_batch")


def _factor(root: Fraction, mult: int = 1) -> str:
    power = f"^{mult}" if mult > 1 else ""
    if root == 0:
        return f"y{power}"
    sign = "-" if root > 0 else "+"
    return f"(y {sign} {abs(root)}){power}"


def equation(n: int, roots, mults=None, shifted: bool = False) -> str:
    """``x^n z = prod (y - a)^m [- x]`` in the CLI's factored grammar."""
    mults = mults or [1] * len(roots)
    rhs = " ".join(_factor(Fraction(r), m) for r, m in zip(roots, mults))
    lhs = "x z" if n == 1 else f"x^{n} z"
    return f"{lhs} = {rhs}" + (" - x" if shifted else "")


def _construct(argv) -> dict:
    return {"kind": "construct", "argv": argv, "expect": "ok"}


def _with_verify(ops: list, proof_dir: str, tag: str) -> list:
    """Append a ``verify`` of every construction in ``ops``."""
    out = list(ops)
    for i, op in enumerate(ops):
        if op["kind"] == "construct":
            path = f"{proof_dir}/{tag}-{i}.json"
            out.append({"kind": "verify", "argv": ["verify", path], "expect": "ok",
                        "proof_of": i})
    return out


# -- flagship_deep ------------------------------------------------------------

# S_k: x^(k+1) z = (y - 1)(y + 1).  Only the depth-gap-2 pairs S0/S2 and S2/S0
# are drawn: both cost the same (about 4.7 s to construct and to verify on a
# 2-core EPYC), so every seed measures the same work.  S0/S3 and S1/S3 cost
# 20-30 % more, and other roots at this depth cost six times more.
_DEEP_PAIRS = ((0, 2), (2, 0))


def _flagship_round(rng: random.Random, k: int, first: int) -> list:
    a, b = _DEEP_PAIRS[(first + k) % 2]
    roots = [1, -1] if rng.random() < 0.5 else [-1, 1]
    return [_construct(["cylinder-iso", equation(a + 1, roots), equation(b + 1, roots)])]


# -- rational_roots -----------------------------------------------------------

# Non-integer roots keep the rational fallback of substitute_reduced busy.
# The cost of one counterexample depends on the root set: over the 3-subsets
# of {+-1/2, +-3/2, +-5/2} it falls in two clusters, near 1.55 s and 1.87 s
# (fresh interpreter, 2-core AMD EPYC).  A run holds only about five, so a
# free draw would let the seed, not the program, move the median.  Each run
# therefore walks the four sets of three consecutive half-integers, all in
# the lower cluster (1.51 s to 1.64 s), from a seed-drawn start and in a
# seed-drawn factor order.  Depth gaps of 2 or more with rational roots do not
# finish in minutes, so the partner is always x^2.
_RATIONAL_SETS = tuple(tuple(Fraction(2 * a + 1 + 2 * i, 2) for i in range(3))
                       for a in range(-3, 1))


def _rational_round(rng: random.Random, k: int, first: int) -> list:
    roots = list(_RATIONAL_SETS[(first + k) % len(_RATIONAL_SETS)])
    rng.shuffle(roots)
    return [_construct(["counterexample", equation(1, roots)])]


# -- shallow_mix --------------------------------------------------------------


def _int_roots(rng: random.Random, count: int) -> list:
    return rng.sample(range(-4, 5), count)


def _shallow_round(rng: random.Random) -> list:
    def gap_one_pair(n_roots: int, n: int) -> list:
        roots = _int_roots(rng, n_roots)
        pair = [equation(n, roots), equation(n + 1, roots)]
        if rng.random() < 0.5:
            pair.reverse()
        return ["cylinder-iso", *pair]

    # Two-root constructions take about 0.02-0.04 s and three-root ones
    # 0.2-0.6 s; with two two-root counterexamples in the middle, the median
    # construction lies inside a cluster rather than between two.
    ops = [
        _construct(gap_one_pair(2, rng.randint(1, 2))),
        _construct(gap_one_pair(2, rng.randint(1, 2))),
        _construct(gap_one_pair(3, 1)),
        _construct(["counterexample", equation(1, _int_roots(rng, 2))]),
        _construct(["counterexample", equation(1, _int_roots(rng, 2))]),
        _construct(["counterexample", equation(1, _int_roots(rng, 3))]),
    ]
    three = _int_roots(rng, 3)
    ops.append({"kind": "refuse", "expect": "refuse",
                "argv": ["cylinder-iso", equation(2, three), equation(3, three)]})
    ops.append({"kind": "refuse", "expect": "refuse",
                "argv": ["cylinder-iso", equation(1, _int_roots(rng, 2)),
                         equation(2, _int_roots(rng, 3))]})
    rng.shuffle(ops)
    return ops


# -- analyze_batch ------------------------------------------------------------

ANALYZE_PER_ROUND = 40


def singular(n: int, mults, shifted: bool) -> bool:
    """Jacobian criterion, solved by hand for these two families.

    A singular point needs x = 0 (from d/dz), P(y) = 0 and P'(y) = 0.  For the
    shifted family d/dx is n x^(n-1) z + 1, which vanishes at x = 0 only when
    n = 1.  So a member is singular exactly when P has a multiple root and it
    is plain, or shifted with n = 1.
    """
    return any(m > 1 for m in mults) and (not shifted or n == 1)


def _analyze_op(rng: random.Random) -> dict:
    n = rng.randint(1, 4)
    shifted = rng.random() < 0.5
    roots = sorted(rng.sample(range(-5, 6), rng.randint(1, 4)))
    mults = [rng.randint(1, 3) if shifted else 1 for _ in roots]
    return {"kind": "analyze", "argv": ["analyze", equation(n, roots, mults, shifted)],
            "expect": "refuse" if singular(n, mults, shifted) else "ok"}


def _laurent(rng: random.Random) -> str:
    # A leading minus sign would read as an option to the CLI's parser.
    return f"{rng.randint(1, 3)}*x^-{rng.randint(1, 4)}"


def _analyze_round(rng: random.Random) -> list:
    ops = [_analyze_op(rng) for _ in range(ANALYZE_PER_ROUND - 3)]
    ops.append({"kind": "cocycle", "expect": "ok",
                "argv": ["cocycle", "push", _laurent(rng), f"x^{rng.randint(0, 3)}"]})
    ops.append({"kind": "cocycle", "expect": "ok",
                "argv": ["cocycle", "profile", _laurent(rng)]})
    ops.append({"kind": "cocycle", "expect": "orbit",
                "argv": ["cocycle", "orbit", _laurent(rng), _laurent(rng)]})
    rng.shuffle(ops)
    return ops


# Rounds after which peak RSS is read: about half a run at the seed commit.
# A fixed amount of work keeps the process-wide caches, which grow with every
# new input, from making a faster program look larger.
RSS_ROUNDS = {"flagship_deep": 2, "rational_roots": 4, "shallow_mix": 6, "analyze_batch": 120}


def make_round(workload: str, seed: int, k: int, proof_dir: str) -> list:
    """Operations of round ``k`` of ``workload`` under ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}:{k}")
    first = random.Random(f"{workload}:{seed}").randrange(4)
    if workload == "flagship_deep":
        ops = _flagship_round(rng, k, first)
    elif workload == "rational_roots":
        ops = _rational_round(rng, k, first)
    elif workload == "shallow_mix":
        ops = _shallow_round(rng)
    else:
        return _analyze_round(rng)
    return _with_verify(ops, proof_dir, f"r{k}")
