"""Command-line frontend.

Subcommands: ``analyze`` (smoothness, fibers, quotient, cocycle class,
classification), ``cylinder-iso`` and ``counterexample`` (emit proof
objects), ``verify`` (replay a proof object), and ``cocycle push|profile|
orbit`` for direct cocycle arithmetic.

Exit codes: 0 success, 1 mathematical negative (failed verification,
inequivalent classes, singular input, refused construction), 2 usage or
syntax errors.  Output is deterministic: identical inputs produce
byte-identical reports.

``main`` parses with one parser per process, built by ``build_parser`` on
the first call, so repeated in-process calls do not rebuild the argparse
tree; ``build_parser`` itself returns a fresh parser on every call.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import jsonio
from .cech import class_normal_form, h1_push, orbit_equivalent, pole_profile
from .cylinder import DEFAULT_SCHEDULE, counterexample_pair, cylinder_construction
from .errors import (
    CocycleError,
    NoSplittingFound,
    NotComparable,
    ParseError,
    ProofFormatError,
    RingMismatchError,
    SingularInputError,
    UnsupportedError,
    UsageError,
)
from .fibration import MarkedPoint, MultifoldCurve
from .ratpoly import laurent_from_str, poly_from_str
from .surfexpr import parse_surface

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2


def _emit(doc: dict, out: str | None) -> None:
    text = jsonio.dumps(doc)
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _schedule(degree_bound: int | None):
    if degree_bound is None:
        return DEFAULT_SCHEDULE
    if degree_bound < 1:
        raise ParseError("degree bound must be positive", 0)
    return tuple(range(2, degree_bound, 2)) + (degree_bound,)


def _parse_class(text: str, branches: int):
    """A cocycle argument: inline Laurent text (two-branch pair (0,1) at 0)
    or @FILE pointing at class JSON.  Inline text other than 0 needs
    ``branches`` 2; a class on other branches is given as @FILE, for which
    ``branches`` is not read."""
    if text.startswith("@"):
        return jsonio.class_from_json(jsonio.read_json(text[1:]))
    if branches < 1:
        raise UsageError(f"--branches must be at least 1, not {branches}; give other "
                         "classes as @FILE")
    curve = MultifoldCurve(
        "x", (MarkedPoint(0, tuple((f"b{i}", 1) for i in range(branches))),)
    )
    g = laurent_from_str(text, "x")
    if branches != 2 and not g.is_zero():
        raise UsageError(f"inline text is a class on 2 branches, not --branches {branches}; "
                         "give the class as @FILE")
    raw = {} if g.is_zero() else {(0, (0, 1)): g}
    return class_normal_form(raw, curve)


def cmd_analyze(args) -> int:
    surface = parse_surface(args.equation).to_surface()
    _emit(jsonio.analysis_report(surface), args.out)
    return EXIT_OK


def cmd_cylinder_iso(args) -> int:
    source = parse_surface(args.source).to_surface()
    target = parse_surface(args.target).to_surface()
    construction = cylinder_construction(source, target, _schedule(args.degree_bound))
    _emit(jsonio.cylinder_proof(construction), args.out)
    return EXIT_OK


def cmd_counterexample(args) -> int:
    surface = parse_surface(args.equation).to_surface()
    pair = counterexample_pair(surface, _schedule(args.degree_bound))
    _emit(jsonio.counterexample_proof(pair), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    doc = jsonio.read_json(args.proof)
    ok, failures = jsonio.verify_proof(doc)
    _emit(
        {
            "schema": "danielewski.verify/1",
            "proof_kind": doc.get("kind"),
            "verified": ok,
            "failures": failures,
        },
        args.out,
    )
    return EXIT_OK if ok else EXIT_NEGATIVE


def cmd_cocycle_push(args) -> int:
    c = _parse_class(args.cocycle, args.branches)
    s = poly_from_str(args.polynomial, ("x",))
    pushed = h1_push(c, s)
    _emit(
        {
            "schema": jsonio.COCYCLE_SCHEMA,
            "operation": "push",
            "input": jsonio.class_to_json(c),
            "push_polynomial": str(s),
            "result": jsonio.class_to_json(pushed),
        },
        args.out,
    )
    return EXIT_OK


def cmd_cocycle_profile(args) -> int:
    c = _parse_class(args.cocycle, args.branches)
    _emit(
        {
            "schema": jsonio.COCYCLE_SCHEMA,
            "operation": "profile",
            "input": jsonio.class_to_json(c),
            "profile": jsonio.profile_to_json(pole_profile(c)),
        },
        args.out,
    )
    return EXIT_OK


def cmd_cocycle_orbit(args) -> int:
    c1 = _parse_class(args.first, args.branches)
    c2 = _parse_class(args.second, args.branches)
    if c1.curve != c2.curve:
        raise UsageError("the two classes live on different curves; give both on one curve")
    equivalent = orbit_equivalent(c1, c2)
    _emit(
        {
            "schema": jsonio.COCYCLE_SCHEMA,
            "operation": "orbit",
            "first": jsonio.class_to_json(c1),
            "second": jsonio.class_to_json(c2),
            "equivalent": equivalent,
        },
        args.out,
    )
    return EXIT_OK if equivalent else EXIT_NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="danielewski",
        description="Exact analysis and certified cylinder isomorphisms for "
        "Danielewski-type fibered surfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="smoothness, fibers, quotient, class, classification")
    p.add_argument("equation", help="defining equation, e.g. 'x^1 z = (y - 1) (y + 1)'")
    p.add_argument("--out", help="write the JSON report to a file")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("cylinder-iso", help="emit a certified cylinder isomorphism")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--out", help="write the proof object to a file")
    p.add_argument("--degree-bound", type=int, default=None, help="cap the splitting degree schedule")
    p.set_defaults(func=cmd_cylinder_iso)

    p = sub.add_parser("counterexample", help="emit a non-cancellation partner and proof")
    p.add_argument("equation")
    p.add_argument("--out", help="write the proof object to a file")
    p.add_argument("--degree-bound", type=int, default=None, help="cap the splitting degree schedule")
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("verify", help="replay a proof object without re-deriving it")
    p.add_argument("proof", help="path to a proof JSON file")
    p.add_argument("--out", help="write the verification report to a file")
    p.set_defaults(func=cmd_verify)

    cocycle = sub.add_parser("cocycle", help="direct cocycle operations")
    csub = cocycle.add_subparsers(dest="cocycle_command", required=True)

    p = csub.add_parser("push", help="push a class along multiplication by a polynomial")
    p.add_argument("cocycle", help="Laurent text like '2*x^-3', or @FILE with class JSON")
    p.add_argument("polynomial", help="polynomial in x, e.g. 'x^2'")
    p.add_argument("--branches", type=int, default=2)
    p.add_argument("--out")
    p.set_defaults(func=cmd_cocycle_push)

    p = csub.add_parser("profile", help="pole orders of a class")
    p.add_argument("cocycle")
    p.add_argument("--branches", type=int, default=2)
    p.add_argument("--out")
    p.set_defaults(func=cmd_cocycle_profile)

    p = csub.add_parser("orbit", help="equivalence under curve automorphisms")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--branches", type=int, default=2)
    p.add_argument("--out")
    p.set_defaults(func=cmd_cocycle_orbit)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (json.JSONDecodeError, FileNotFoundError, KeyError, ProofFormatError) as exc:
        print(f"input error: {exc!r}", file=sys.stderr)
        return EXIT_USAGE
    except (
        SingularInputError,
        UnsupportedError,
        NotComparable,
        NoSplittingFound,
        CocycleError,
        RingMismatchError,
        ValueError,
    ) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE


if __name__ == "__main__":
    sys.exit(main())
