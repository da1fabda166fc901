"""JSON interchange: analysis reports and replayable proof objects.

All rationals serialize as strings ``p/q`` and polynomials in their canonical
text form; documents are rendered with sorted keys so byte-identical output
for identical input is guaranteed.  Proof objects restrict presentations to a
single generator: division by one polynomial is canonical, so every recorded
claim can be replayed by plain polynomial arithmetic, with no basis
computation on the verifier's side.
"""

from __future__ import annotations

import json
import operator
import zlib
from fractions import Fraction
from math import lcm, prod
from pathlib import Path

from .cech import CechClass, equivariant_class, orbit_equivalent, pic_group, pole_profile
from .cech import surface_class
from .cylinder import (
    AUX_POWERS, CYLINDER_RING, CounterexamplePair, CylinderConstruction, FiberCoordinate,
    GluedModel, InvariantReport, Splitting, auxiliary_class, verify_splitting,
)
from .errors import ProofFormatError, UnsupportedError
from .fibration import (
    DanielewskiSurface,
    MarkedPoint,
    MultifoldCurve,
    Variant,
    classify_cancellation,
    degenerate_fibers,
    is_smooth,
    relatively_connected_quotient,
    LineBundle,
)
from .ideals import Claim, IdealPresentation, IsoCertificate, PolyMap, leading_term
from .ideals import round_trip_residual
from .ratpoly import (
    MAX_DIGITS, LaurentPoly, MultiPoly, as_fraction, fraction_str, poly_from_str, ring_embed,
    substitute,
)
from .surfexpr import parse_surface

REPORT_SCHEMA = "danielewski.report/1"
PROOF_SCHEMA = "danielewski.proof/1"
COCYCLE_SCHEMA = "danielewski.cocycle/1"
PROOF_KINDS = ("cylinder_iso", "counterexample")
# the flags of ``ideals.IsoCertificate``, as a proof records them
CERTIFICATE_FLAGS = ("forward_well_defined", "backward_well_defined",
                     "backward_forward_identity", "forward_backward_identity")
# The largest exponent ``verify`` reads in a proof polynomial.  Evaluating or
# expanding y^e costs work that grows with e, and certified maps stay far
# below this (S0/S4 images reach degree 25).
MAX_PROOF_EXPONENT = 2048


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _json_int(text: str) -> int:
    if len(text.lstrip("-")) > MAX_DIGITS:
        raise ProofFormatError(f"a JSON integer has more than {MAX_DIGITS} digits")
    return int(text)


def read_json(path: str):
    """The JSON document in a file, a proof or a class.  An integer of more
    than ``MAX_DIGITS`` digits raises ``ProofFormatError`` on every Python
    version (3.11 and later would raise ``ValueError``, 3.10 would read it)."""
    return json.loads(Path(path).read_text(encoding="utf-8"), parse_int=_json_int)


# -- primitive encoders -------------------------------------------------


def laurent_to_json(g: LaurentPoly) -> list:
    return [[e, fraction_str(c)] for e, c in sorted(g.terms.items(), reverse=True)]


def laurent_from_json(data, variable: str, center) -> LaurentPoly:
    return LaurentPoly(variable, {int(e): as_fraction(c) for e, c in data}, center)


def curve_to_json(curve: MultifoldCurve) -> dict:
    return {
        "base_variable": curve.base_variable,
        "marked_points": [
            {
                "location": fraction_str(pt.location),
                "branches": [{"id": b, "multiplicity": m} for b, m in pt.branches],
            }
            for pt in curve.marked_points
        ],
    }


def curve_from_json(data) -> MultifoldCurve:
    points = tuple(
        MarkedPoint(
            as_fraction(pt["location"]),
            tuple((b["id"], int(b["multiplicity"])) for b in pt["branches"]),
        )
        for pt in data["marked_points"]
    )
    return MultifoldCurve(data["base_variable"], points)


def class_to_json(c: CechClass) -> dict:
    parts = [
        {
            "location": fraction_str(location),
            "pair": list(pair),
            "terms": laurent_to_json(g),
        }
        for (location, pair), g in c.sorted_items()
    ]
    return {"curve": curve_to_json(c.curve), "parts": parts, "display": class_display(c)}


def class_from_json(data) -> CechClass:
    curve = curve_from_json(data["curve"])
    parts = {}
    for entry in data["parts"]:
        location = as_fraction(entry["location"])
        pair = tuple(int(i) for i in entry["pair"])
        parts[(location, pair)] = laurent_from_json(
            entry["terms"], curve.base_variable, location
        )
    return CechClass(curve, parts)


def class_display(c: CechClass) -> str:
    if c.is_zero():
        return "0"
    chunks = []
    for (location, pair), g in c.sorted_items():
        chunks.append(f"g_{pair[0]}{pair[1]}@{fraction_str(location)} = {g}")
    if len(chunks) == 1:
        return str(next(iter(c.parts.values())))
    return "; ".join(chunks)


def presentation_to_json(p: IdealPresentation) -> dict:
    return {"ring": list(p.ring), "generators": [str(g) for g in p.generators]}


def presentation_from_json(data) -> IdealPresentation:
    ring = tuple(data["ring"])
    gens = [_proof_poly(text, ring, "certificate generators") for text in data["generators"]]
    return IdealPresentation(ring, gens)


def map_to_json(m: PolyMap) -> dict:
    return {"images": {name: str(poly) for name, poly in sorted(m.images.items())}}


def claim_to_json(c: Claim) -> dict:
    doc = {
        "name": c.name,
        "ideal": c.ideal,
        "kind": c.kind,
        "subject": c.subject,
        "residual": str(c.residual),
        "ok": c.ok,
    }
    if c.polynomial is not None:
        doc["polynomial"] = str(c.polynomial)
    if c.cofactors is not None:
        doc["cofactors"] = [str(q) for q in c.cofactors]
    return doc


def certificate_to_json(cert: IsoCertificate) -> dict:
    return {
        "source": presentation_to_json(cert.forward.source),
        "target": presentation_to_json(cert.forward.target),
        "forward": map_to_json(cert.forward),
        "backward": map_to_json(cert.backward),
        "flags": {name: getattr(cert, name) for name in CERTIFICATE_FLAGS},
        "claims": [claim_to_json(c) for c in cert.evidence],
    }


def roots_to_json(roots) -> list:
    return [[fraction_str(r), m] for r, m in roots]


def profile_to_json(profile) -> list:
    """A pole profile (``cech.pole_profile``) as ``[location, pair, order]`` rows."""
    return [[fraction_str(loc), list(pair), order] for loc, pair, order in profile]


def surface_to_json(s: DanielewskiSurface) -> dict:
    # ``build_surface`` refuses every singular member
    return {
        "equation": s.equation_str(),
        "n": s.n,
        "variant": s.variant.value,
        "roots": roots_to_json(s.roots),
        "smooth": True,
    }


def splitting_to_json(s: Splitting) -> dict:
    return {
        "chart_ring": list(s.chart_ring),
        "degree_bound": s.degree_bound,
        "per_chart": [str(h) for h in s.per_chart],
    }


# -- analysis report -----------------------------------------------------


def _cocycle_section(surface: DanielewskiSurface) -> dict:
    if surface.variant is Variant.PLAIN and surface.simple_roots:
        c = surface_class(surface)
        return {"track": "scheme", **class_to_json(c)}
    if len(surface.roots) == 1 and surface.roots[0][1] >= 2 and surface.n >= 2:
        m = surface.roots[0][1]
        eq = equivariant_class(surface.n, m)
        section = {
            "track": "equivariant",
            "m": eq.m,
            "weight": eq.weight,
            "pole_order": eq.pole_order(),
            "symbolic_only": eq.symbolic_only,
        }
        if eq.cover_class is not None:
            section["cover"] = class_to_json(eq.cover_class)
        else:
            section["symbolic_support"] = [
                {"pair": [i, j], "exponent": e, "coefficient": tag}
                for (i, j, e, tag) in eq.symbolic_support
            ]
        return section
    return {"track": "unavailable", "reason": "no computational track for this family member"}


def analysis_report(surface: DanielewskiSurface) -> dict:
    fibers = degenerate_fibers(surface)
    quotient = relatively_connected_quotient(surface)
    classification = classify_cancellation(surface)
    try:
        picard = pic_group(quotient)
        picard_doc = {
            "free_rank": picard.free_rank,
            "torsion": list(picard.torsion),
            "display": str(picard),
        }
    except UnsupportedError:
        picard_doc = None
    return {
        "schema": REPORT_SCHEMA,
        "surface": surface_to_json(surface),
        "fibers": [
            {
                "location": fraction_str(f.base_point),
                "components": [
                    {"label": label, "multiplicity": m} for label, m in f.components
                ],
                "reduced": f.reduced,
                "irreducible": f.irreducible,
                "degenerate": f.degenerate,
            }
            for f in fibers
        ],
        "generic_fiber": {"reduced": True, "irreducible": True},
        "quotient": {
            **curve_to_json(quotient),
            "is_scheme": quotient.is_scheme(),
            "equals_base": quotient.equals_base(),
        },
        "picard_group": picard_doc,
        "cocycle": _cocycle_section(surface),
        "classification": (
            "line_bundle" if isinstance(classification, LineBundle) else "counterexample_candidate"
        ),
    }


# -- proof objects ----------------------------------------------------------


def construction_to_json(con: CylinderConstruction) -> dict:
    return {
        "source_class": class_to_json(con.source_class),
        "target_class": class_to_json(con.target_class),
        "aux_class": class_to_json(con.aux_class),
        "aux_power": con.aux_power,
        "splittings": {
            "aux_over_source": splitting_to_json(con.split_aux_over_source),
            "source_over_aux": splitting_to_json(con.split_source_over_aux),
            "aux_over_target": splitting_to_json(con.split_aux_over_target),
            "target_over_aux": splitting_to_json(con.split_target_over_aux),
        },
        "fiber_product": {
            "chart_ring": list(con.fiber_product.chart_ring),
            "coordinates": [
                {"name": f.name, "class": class_to_json(f.transitions)}
                for f in con.fiber_product.coordinates
            ],
        },
    }


def cylinder_proof(con: CylinderConstruction, kind: str = "cylinder_iso") -> dict:
    return {
        "schema": PROOF_SCHEMA,
        "kind": kind,
        "source_surface": surface_to_json(con.source),
        "target_surface": surface_to_json(con.target),
        "construction": construction_to_json(con),
        "certificate": certificate_to_json(con.certificate),
    }


def invariants_to_json(report: InvariantReport) -> dict:
    return {
        "source_profile": profile_to_json(report.source_profile),
        "target_profile": profile_to_json(report.target_profile),
        "orbit_equivalent": report.orbit_equivalent,
        "caveat": report.caveat,
    }


def counterexample_proof(pair: CounterexamplePair) -> dict:
    doc = cylinder_proof(pair.construction, kind="counterexample")
    doc["invariants"] = invariants_to_json(pair.invariants)
    return doc


# -- replay verification ------------------------------------------------------


_JSON_TYPES = {dict: "object", list: "array", str: "string", bool: "boolean", int: "integer"}
_SPLITTING_TAGS = ("aux_over_source", "source_over_aux", "aux_over_target", "target_over_aux")


def _field(obj: dict, key: str, kind: type, where: str, items: type | None = None):
    """``obj[key]`` if it has JSON type ``kind`` (an array of ``items``), else
    raise.  A JSON boolean is no integer, though ``bool`` subclasses ``int``."""
    if key not in obj:
        raise ProofFormatError(f"{where}: missing key {key!r}")
    value = obj[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)) or (
        items is not None and not all(isinstance(v, items) for v in value)
    ):
        of = f" of {_JSON_TYPES[items]}s" if items else ""
        raise ProofFormatError(f"{where}.{key} must be a JSON {_JSON_TYPES[kind]}{of}")
    return value


def _proof_poly(text: str, ring: tuple, where: str) -> MultiPoly:
    """A polynomial read from a proof, refused if an exponent exceeds ``MAX_PROOF_EXPONENT``."""
    p = poly_from_str(text, ring)
    if any(e > MAX_PROOF_EXPONENT for exp in p.terms for e in exp):
        raise ProofFormatError(f"{where}: an exponent exceeds {MAX_PROOF_EXPONENT}")
    return p


def _check_proof_shape(doc) -> dict:
    """The certificate of a proof document, after checking every key replay reads."""
    if not isinstance(doc, dict):
        raise ProofFormatError("a proof document must be a JSON object")
    kind = _field(doc, "kind", str, "proof")
    if kind not in PROOF_KINDS:
        raise ProofFormatError(f"proof.kind must be one of {PROOF_KINDS}, not {kind!r}")
    if kind == "counterexample":
        invariants = _field(doc, "invariants", dict, "proof")
        for key in ("source_profile", "target_profile"):
            _field(invariants, key, list, "proof.invariants")
        _field(invariants, "orbit_equivalent", bool, "proof.invariants")
    for key in ("source_surface", "target_surface"):
        _field(_field(doc, key, dict, "proof"), "equation", str, f"proof.{key}")
    cert = _field(doc, "certificate", dict, "proof")
    for side in ("source", "target"):
        pres = _field(cert, side, dict, "certificate")
        _field(pres, "ring", list, f"certificate.{side}", str)
        _field(pres, "generators", list, f"certificate.{side}", str)
    for side in ("forward", "backward"):
        images = _field(_field(cert, side, dict, "certificate"), "images", dict,
                        f"certificate.{side}")
        for name in images:
            _field(images, name, str, f"certificate.{side}.images")
    _field(cert, "flags", dict, "certificate")
    for i, claim in enumerate(_field(cert, "claims", list, "certificate", dict)):
        where = f"certificate.claims[{i}]"
        for key in ("name", "ideal", "kind", "subject", "residual"):
            _field(claim, key, str, where)
        _field(claim, "ok", bool, where)
        if claim["kind"] == "generator_pullback":
            _field(claim, "polynomial", str, where)
            _field(claim, "cofactors", list, where, str)
    construction = _field(doc, "construction", dict, "proof")
    _field(construction, "aux_power", int, "construction")
    splittings = _field(construction, "splittings", dict, "construction")
    for tag in _SPLITTING_TAGS:
        where = f"construction.splittings.{tag}"
        data = _field(splittings, tag, dict, "construction.splittings")
        _field(data, "chart_ring", list, where, str)
        _field(data, "per_chart", list, where, str)
        _field(data, "degree_bound", int, where)
    return cert


def verify_proof(doc: dict) -> tuple[bool, list[str]]:
    """Replay every exact identity recorded in a proof object.

    Needs only polynomial arithmetic and division by single stated
    generators; returns (ok, failure descriptions).  Any mismatch between
    recorded and recomputed data is reported, including tampered
    coefficients anywhere in the maps, claims, or splittings.  The claim set
    is derived here, not trusted: one ``generator_pullback`` per generator
    and one ``round_trip`` per ring variable on each side, none missing,
    repeated or extra.  An image with a term divisible by the grevlex leading
    term of its domain's generator is a failure, and no round trip (each
    composes both maps) is then expanded.  Each side's surface equation must
    rebuild the certified generator, be smooth (``fibration.is_smooth``, no
    basis), and give the recorded ``n``, ``variant`` and ``roots``; ``smooth``
    must be recorded as true.  A side's round trips divide by its generator
    as a polynomial in y, in which ``x^n z - P(y)`` is monic, so they are
    checked only when its equation rebuilt the generator.  The recorded
    ``source_class`` and ``target_class`` must be the classes of those
    equations (``_verify_construction``), and a counterexample's pole
    profiles and orbit verdict the ones they give (``_verify_invariants``).
    A document of the wrong shape raises ``ProofFormatError`` before any
    arithmetic: a ``kind`` other than ``cylinder_iso`` or ``counterexample``,
    a missing ``construction``, or a counterexample without ``invariants``.
    So does any polynomial of the proof with an exponent above
    ``MAX_PROOF_EXPONENT``, when it is read and before it is evaluated or
    substituted.
    """
    cert = _check_proof_shape(doc)
    failures: list[str] = []
    if doc.get("schema") != PROOF_SCHEMA:
        return False, [f"unsupported schema {doc.get('schema')!r}"]
    source = presentation_from_json(cert["source"])
    target = presentation_from_json(cert["target"])
    if len(source.generators) != 1 or len(target.generators) != 1:
        return False, ["replay requires single-generator presentations"]

    def parse_images(side, ring):
        return {name: _proof_poly(text, ring, f"certificate.{side}.images.{name}")
                for name, text in cert[side]["images"].items()}

    forward = parse_images("forward", source.ring)
    backward = parse_images("backward", target.ring)
    for name in target.ring:
        if name not in forward:
            failures.append(f"forward image missing for {name}")
    for name in source.ring:
        if name not in backward:
            failures.append(f"backward image missing for {name}")
    if failures:
        return False, failures

    presentations = {"source": source, "target": target}
    maps = {"source": forward, "target": backward}
    # certified images are normal forms; padding one by a multiple of the generator
    # would pass the probe and drive up the cost of the exact round trips
    unreduced = False
    for label, side in (("forward", "source"), ("backward", "target")):
        lead = leading_term(presentations[side].generators[0])[0]
        for name, image in sorted(maps[side].items()):
            if any(all(map(operator.ge, exp, lead)) for exp in image.terms):
                failures.append(f"{label} image of {name} is not reduced modulo the {side} generator")
                unreduced = True
    specs = {}
    for side, pres in presentations.items():
        surface = doc[f"{side}_surface"]
        spec = parse_surface(surface["equation"])
        generator = pres.generators[0]
        # compare degrees first, so a hostile equation is never expanded
        if max(spec.n + 1, sum(m for _, m in spec.roots)) != generator.total_degree() or (
            ring_embed(spec.polynomial(), CYLINDER_RING) != generator
        ):
            failures.append(f"{side}_surface: equation does not match the certified generator")
            continue
        specs[side] = spec
        expected = {"n": spec.n, "variant": spec.variant.value, "smooth": True,
                    "roots": roots_to_json(spec.roots)}
        failures.extend(f"{side}_surface: {key} does not match the equation"
                        for key, value in expected.items()
                        if json.dumps(surface.get(key)) != json.dumps(value))
        if not is_smooth(spec.n, spec.roots, spec.variant):
            failures.append(f"{side}_surface: the equation is singular")
    checksum = zlib.crc32(json.dumps(cert, sort_keys=True).encode())
    probes = {side: _probe_point(presentations[side].generators[0], maps[side],
                                 zlib.crc32(side.encode(), checksum))
              for side in specs}
    # one pullback per generator (there is one on each side), one round trip per variable
    required = {("generator_pullback", side, "0") for side in presentations}
    required |= {("round_trip", side, v) for side, pres in presentations.items() for v in pres.ring}
    seen: set = set()

    for claim_doc in cert["claims"]:
        name = claim_doc["name"]
        which = claim_doc["ideal"]
        identity = (claim_doc["kind"], which, claim_doc["subject"])
        if identity not in required:
            failures.append(f"{name}: unexpected claim {identity}")
            continue
        if identity in seen:
            failures.append(f"{name}: duplicate claim {identity}")
            continue
        seen.add(identity)
        other = "target" if which == "source" else "source"
        pres = presentations[which]
        ring = pres.ring
        residual = _proof_poly(claim_doc["residual"], ring, name)
        if not claim_doc["ok"] or not residual.is_zero():
            failures.append(f"{name}: claim recorded as failing")
            continue
        if claim_doc["kind"] == "generator_pullback":
            member = substitute(presentations[other].generators[0], maps[which])
            stated = _proof_poly(claim_doc["polynomial"], ring, name)
            if member != stated:
                failures.append(f"{name}: recorded pullback does not match the maps")
                continue
            rebuilt = residual
            for cof_text, gen in zip(claim_doc["cofactors"], pres.generators):
                rebuilt = rebuilt + _proof_poly(cof_text, ring, name) * gen
            if rebuilt != member:
                failures.append(f"{name}: cofactor identity fails")
        elif not unreduced and which in specs:  # both maps reduced, the generator rebuilt
            var = claim_doc["subject"]
            # a composite that misses the identity at a point of the surface certainly
            # fails, so the exact expansion, whose cost hostile images drive up, is skipped
            point, values = probes[which]
            if _evaluate(maps[other][var], values) != point[var] or (
                not round_trip_residual(maps[other][var], maps[which], var, pres.generators[0]).is_zero()
            ):
                failures.append(f"{name}: composite is not the identity modulo the ideal")
    failures.extend(f"missing {kind} claim on the {side} side for {subject}"
                    for kind, side, subject in sorted(required - seen))

    if not all(cert["flags"].get(name) is True for name in CERTIFICATE_FLAGS):
        failures.append("certificate flags are not all true")

    # building a surface computes no basis; a singular one has no class
    try:
        classes = {side: surface_class(spec.to_surface()) for side, spec in specs.items()}
        uncomputable = []
    except (UnsupportedError, ValueError) as exc:
        classes, uncomputable = {}, [f"invariants: not computable from the equations: {exc}"]
    failures.extend(_verify_construction(doc["construction"], classes))
    failures.extend(uncomputable)
    if doc["kind"] == "counterexample" and len(classes) == 2:
        failures.extend(_verify_invariants(doc["invariants"], classes["source"], classes["target"]))
    return not failures, failures


def _evaluate(p, point: dict) -> Fraction:
    """The value of ``p`` at a rational point given by variable name.

    Integer sums over one denominator: the coefficients' lcm times each
    coordinate's denominator to its top exponent in ``p``.
    """
    values = [point[name] for name in p.ring]
    tops = [max((exp[k] for exp in p.terms), default=0) for k in range(len(values))]
    scale = lcm(*(c.denominator for c in p.terms.values()))
    total = sum(
        c.numerator * (scale // c.denominator)
        * prod(v.numerator**e * v.denominator ** (t - e) for v, e, t in zip(values, exp, tops))
        for exp, c in p.terms.items()
    )
    return Fraction(total, scale * prod(v.denominator**t for v, t in zip(values, tops)))


def _probe_point(f: MultiPoly, images: dict, seed: int) -> tuple[dict, dict]:
    """A rational point of a cylinder and the values of ``images`` there.

    ``f`` is a generator rebuilt from a surface equation, ``x^n z - P(y) [+ x]``
    on ``CYLINDER_RING``.  x >= 1, y and w are drawn from the bits of ``seed``
    (a CRC-32 of the certificate and the side), and z solves the generator,
    linear in z with slope x^n != 0.  Every polynomial of the ideal vanishes
    at the point, so a composite that differs from a variable there is not
    the identity modulo the ideal.
    """
    point = {"x": Fraction(1 + seed % 64), "y": Fraction((seed >> 6) % 256 - 128),
             "z": Fraction(0), "w": Fraction((seed >> 14) % 256 - 128)}
    constant = _evaluate(f, point)
    slope = _evaluate(f, {**point, "z": Fraction(1)}) - constant
    point["z"] = -constant / slope
    return point, {name: _evaluate(image, point) for name, image in images.items()}


def _verify_invariants(recorded: dict, source: CechClass, target: CechClass) -> list[str]:
    """Recompute a counterexample's pole profiles and orbit verdict from the
    classes of its two equations.

    Classes on different quotient curves have no orbit verdict, which is a
    failure of its own; their profiles are still compared.  Orbit-equivalent
    classes are a failure even when recorded as such: the pair is then no
    counterexample.
    """
    same_curve = source.curve == target.curve
    expected = {"source_profile": profile_to_json(pole_profile(source)),
                "target_profile": profile_to_json(pole_profile(target))}
    if same_curve:
        expected["orbit_equivalent"] = orbit_equivalent(source, target)
    failures = [f"invariants: {key} does not match the classes of the equations"
                for key, value in expected.items() if json.dumps(recorded[key]) != json.dumps(value)]
    if not same_curve:
        failures.append("invariants: the two equations have different quotient curves")
    elif expected["orbit_equivalent"]:
        failures.append(
            "invariants: the classes are orbit-equivalent, so the pair is no counterexample"
        )
    return failures


def _verify_construction(construction: dict, classes: dict) -> list[str]:
    """Re-check the construction stored with the proof: ``source_class`` and
    ``target_class`` are the ``classes`` of the two equations (by side, for
    the sides computed), ``aux_power`` is one the construction tries,
    ``aux_class`` is ``cylinder.auxiliary_class`` of the recorded classes,
    ``fiber_product`` glues v by ``source_class`` and w by ``aux_class``, and
    each splitting identity holds, with one polynomial per chart of its
    class's curve, none above its degree bound."""
    try:
        c_src = class_from_json(construction["source_class"])
        c_tgt = class_from_json(construction["target_class"])
        c_aux = class_from_json(construction["aux_class"])
    except Exception as exc:  # malformed class data
        return [f"construction classes unreadable: {exc}"]
    failures = [f"construction: {side}_class is not the class of the {side} equation"
                for side, c in classes.items()
                if json.dumps(class_to_json(c), sort_keys=True)
                != json.dumps(construction[f"{side}_class"], sort_keys=True)]
    power = construction["aux_power"]
    if power not in AUX_POWERS:
        failures.append(f"construction: aux_power {power} is not one of {AUX_POWERS}")
    else:
        try:
            deepened = auxiliary_class(c_src, c_tgt, power) == c_aux
        except ValueError:  # the recorded classes lie on different curves
            deepened = False
        if not deepened:
            failures.append("construction: aux_class is not the shallower class deepened by aux_power")
    glued = {"chart_ring": ["x", "v", "w"], "coordinates": [
        {"name": "v", "class": construction["source_class"]},
        {"name": "w", "class": construction["aux_class"]}]}
    if json.dumps(construction.get("fiber_product"), sort_keys=True) != json.dumps(glued, sort_keys=True):
        failures.append("construction: fiber_product is not v over source_class and w over aux_class")

    def replay(tag: str, transitions: CechClass, pullback: CechClass):
        data = construction["splittings"][tag]
        ring = tuple(data["chart_ring"])
        per_chart = tuple(_proof_poly(text, ring, f"splitting {tag}") for text in data["per_chart"])
        splitting = Splitting(ring, per_chart, int(data["degree_bound"]))
        model = GluedModel(transitions.curve, (FiberCoordinate(ring[1], transitions),))
        if len(per_chart) != model.n_charts:
            failures.append(f"splitting {tag}: per_chart has {len(per_chart)} entries "
                            f"for {model.n_charts} charts")
            return
        if any(h.total_degree() > splitting.degree_bound for h in per_chart):
            failures.append(f"splitting {tag}: a per_chart polynomial exceeds the degree_bound")
        if pullback.curve != transitions.curve:
            pullback = CechClass(transitions.curve, dict(pullback.parts))
        if not verify_splitting(model, pullback, splitting):
            failures.append(f"splitting {tag}: identity fails on re-expansion")

    replay("aux_over_source", c_src, c_aux)
    replay("source_over_aux", c_aux, c_src)
    replay("aux_over_target", c_tgt, c_aux)
    replay("target_over_aux", c_aux, c_tgt)
    return failures
