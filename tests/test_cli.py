"""CLI subcommands: reports, proof emission, replay verification, exit codes."""

import copy
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import danielewski
from danielewski.cli import _schedule, build_parser, main
from danielewski.ratpoly import MAX_DIGITS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, (json.loads(out) if out else None), err


def test_analyze_danielewski(capsys):
    code, doc, _ = run_json(capsys, "analyze", "x^1 z = (y - 1)^1 (y + 1)^1")
    assert code == 0
    assert doc["schema"] == "danielewski.report/1"
    assert doc["surface"]["smooth"] is True
    fiber = doc["fibers"][0]
    assert fiber["degenerate"] and fiber["reduced"] and not fiber["irreducible"]
    assert [c["multiplicity"] for c in fiber["components"]] == [1, 1]
    assert len(doc["quotient"]["marked_points"][0]["branches"]) == 2
    assert doc["cocycle"]["track"] == "scheme"
    assert doc["cocycle"]["display"] == "2*x^-1"
    assert doc["classification"] == "counterexample_candidate"
    assert doc["picard_group"]["display"] == "Z"


def test_analyze_line_bundle(capsys):
    code, doc, _ = run_json(capsys, "analyze", "x z = y")
    assert code == 0
    assert doc["classification"] == "line_bundle"
    assert doc["quotient"]["equals_base"] is True
    assert doc["cocycle"]["display"] == "0"


def test_analyze_multiplicity_two(capsys):
    code, doc, _ = run_json(capsys, "analyze", "x^2 z = y^2 - x")
    assert code == 0
    assert doc["quotient"]["is_scheme"] is False
    assert doc["picard_group"]["display"] == "Z_2"
    assert doc["cocycle"]["track"] == "equivariant"
    assert doc["cocycle"]["m"] == 2 and doc["cocycle"]["weight"] == 1


def test_analyze_singular_input_is_mathematical_negative(capsys):
    code, out, err = run(capsys, "analyze", "x z = y^2")
    assert code == 1
    assert "refused" in err


def test_analyze_syntax_error_is_usage_error(capsys):
    code, out, err = run(capsys, "analyze", "x z = 2 (y - 1)")
    assert code == 2
    assert "syntax error" in err


@pytest.mark.parametrize("argv", [
    ["analyze", "x z = y^\u00b2 - 1"],
    ["analyze", "x^\u00b2 z = y - 1"],
    ["cocycle", "push", "x^-\u00b2", "x"],
])
def test_non_ascii_digit_is_a_syntax_error(capsys, argv):
    # "²" passes str.isdigit but not int(); the scanner reads ASCII digits only
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("syntax error: unexpected character '\u00b2'")


NINES = "9" * 5000


@pytest.mark.parametrize("argv, position", [
    (["cocycle", "push", "x^-1", f"{NINES} x^-1"], 0),
    (["cocycle", "push", "x^-1", f"x^{NINES}"], 2),
    (["analyze", f"x z = (y - 1)^{NINES} (y + 1)"], 14),
])
def test_digit_run_over_the_int_conversion_limit_is_a_syntax_error(capsys, argv, position):
    # Python 3.11+ int() refuses more than 4,300 digits; 3.10 would convert them
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"syntax error: number of more than 4300 digits (at position {position})\n"


def test_computed_number_over_the_digit_limit_is_refused(capsys):
    # the root difference 10^4300 of this class part has 4,301 digits
    code, out, err = run(capsys, "analyze", f"x z = (y - {'9' * 4300}) (y + 1)")
    assert (code, out) == (1, "")
    assert err == "refused: a computed number has more than 4300 digits\n"


def test_analyze_deterministic_output(capsys):
    _, out1, _ = run(capsys, "analyze", "x^1 z = (y - 1) (y + 1)")
    _, out2, _ = run(capsys, "analyze", "x^1 z = (y - 1) (y + 1)")
    assert out1 == out2


def test_cylinder_iso_and_verify_round_trip(tmp_path, capsys):
    proof_path = tmp_path / "proof.json"
    code, out, _ = run(
        capsys, "cylinder-iso", "x z = (y - 1) (y + 1)", "x^2 z = (y - 1) (y + 1)",
        "--out", str(proof_path),
    )
    assert code == 0
    doc = json.loads(proof_path.read_text())
    assert doc["kind"] == "cylinder_iso"
    flags = doc["certificate"]["flags"]
    assert all(flags.values())
    code, verdict, _ = run_json(capsys, "verify", str(proof_path))
    assert code == 0
    assert verdict["verified"] is True and verdict["failures"] == []


def test_one_root_pair_constructs_and_verifies(tmp_path, capsys):
    # P(y) = y - 1 has degree 1, so the variable y the round trips divide in is
    # itself divisible by the generator: the only such pair among the inputs.
    # The digest pins the proof bytes.
    code, proof, _ = run(capsys, "cylinder-iso", "x z = (y - 1)", "x^2 z = (y - 1)")
    assert code == 0
    assert hashlib.sha256(proof.encode()).hexdigest() == (
        "3683df38fd51d7ebc6baaa023a0c8650aa240aefb1e99ddf7cb4720f08ff6e4b")
    path = tmp_path / "proof.json"
    path.write_text(proof)
    code, verdict, _ = run_json(capsys, "verify", str(path))
    assert code == 0
    assert verdict["verified"] is True and verdict["failures"] == []


def test_verify_detects_tampering(tmp_path, capsys):
    proof_path = tmp_path / "proof.json"
    run(capsys, "cylinder-iso", "x z = (y - 1) (y + 1)", "x^2 z = (y - 1) (y + 1)",
        "--out", str(proof_path))
    original = json.loads(proof_path.read_text())

    def refused(edit, on_certificate=True):
        doc = copy.deepcopy(original)
        edit(doc["certificate"] if on_certificate else doc)
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(doc))
        code, verdict, _ = run_json(capsys, "verify", str(tampered))
        assert code == 1
        assert verdict["verified"] is False
        assert verdict["failures"]
        return verdict["failures"]

    def coefficient(cert):
        images = cert["forward"]["images"]
        images["w"] = images["w"].replace("1/2", "1/3")

    refused(coefficient)

    # A hostile image misses the identity at a point of the surface, so the
    # round trips it enters are refused before any exact expansion.
    def hostile(cert):
        cert["backward"]["images"]["y"] += " + y^400"

    start = time.perf_counter()
    failures = refused(hostile)
    assert time.perf_counter() - start < 1
    assert "round_trip_source[y]: composite is not the identity modulo the ideal" in failures

    # An image padded by a multiple of the generator agrees with the identity
    # everywhere, so it is refused as unreduced before any round trip is expanded.
    def padded(cert):
        cert["backward"]["images"]["y"] += " + x^2*z*y^60 - y^62 + y^60"

    start = time.perf_counter()
    failures = refused(padded)
    assert time.perf_counter() - start < 1
    assert failures == [
        "backward image of y is not reduced modulo the target generator",
        "backward_well_defined[0]: recorded pullback does not match the maps",
    ]

    # A stored splitting is re-expanded across the transitions.
    def splitting_constant(doc):
        doc["construction"]["splittings"]["aux_over_source"]["per_chart"][0] += " + 1"

    failures = refused(splitting_constant, on_certificate=False)
    assert failures == ["splitting aux_over_source: identity fails on re-expansion"]

    # A splitting holds one polynomial per chart, none above its degree bound.
    def aux_over_source(edit):
        return lambda doc: edit(doc["construction"]["splittings"]["aux_over_source"])

    failures = refused(aux_over_source(lambda s: s["per_chart"].pop()), on_certificate=False)
    assert failures == ["splitting aux_over_source: per_chart has 1 entries for 2 charts"]
    failures = refused(aux_over_source(lambda s: s["per_chart"].append("x^7")),
                       on_certificate=False)
    assert failures == ["splitting aux_over_source: per_chart has 3 entries for 2 charts"]
    failures = refused(aux_over_source(lambda s: s.update(degree_bound=-5)), on_certificate=False)
    assert failures == ["splitting aux_over_source: a per_chart polynomial exceeds the degree_bound"]

    # The auxiliary class is the shallower class deepened by a power the
    # construction tries, and the fiber product glues v by the source class
    # and w by the auxiliary class.
    def construction(edit):
        return lambda doc: edit(doc["construction"])

    failures = refused(construction(lambda c: c.update(aux_power=99)), on_certificate=False)
    assert failures == ["construction: aux_power 99 is not one of (1, 2, 3)"]
    failures = refused(construction(lambda c: c.update(aux_power=2)), on_certificate=False)
    assert failures == ["construction: aux_class is not the shallower class deepened by aux_power"]
    failures = refused(construction(lambda c: c["fiber_product"].update(chart_ring=["a", "b"])),
                       on_certificate=False)
    assert failures == ["construction: fiber_product is not v over source_class and w over aux_class"]

    # Here aux_class is target_class (2*x^-2), so w glued by target_class is
    # the recorded fiber product; v by target_class and w by source_class are not.
    for index, key in ((0, "target_class"), (1, "source_class")):
        def reglued(c):
            c["fiber_product"]["coordinates"][index]["class"] = c[key]

        failures = refused(construction(reglued), on_certificate=False)
        assert failures == [
            "construction: fiber_product is not v over source_class and w over aux_class"
        ]
    # a shallower target class on another curve cannot be carried to the source curve
    def target_on_three_branches(c):
        c["target_class"]["curve"]["marked_points"][0]["branches"].append(
            {"id": "y=5", "multiplicity": 1})
        c["target_class"]["parts"] = []

    failures = refused(construction(target_on_three_branches), on_certificate=False)
    assert failures == [
        "construction: target_class is not the class of the target equation",
        "construction: aux_class is not the shallower class deepened by aux_power",
        "splitting aux_over_target: per_chart has 2 entries for 3 charts",
        "splitting target_over_aux: identity fails on re-expansion",
    ]
    # A whole construction of another pair agrees with itself, but its classes
    # are not the ones of the two equations.
    other_path = tmp_path / "other.json"
    run(capsys, "cylinder-iso", "x z = (y - 3) (y + 5)", "x^2 z = (y - 3) (y + 5)",
        "--out", str(other_path))
    other = json.loads(other_path.read_text())["construction"]
    failures = refused(lambda doc: doc.update(construction=other), on_certificate=False)
    assert failures == [
        "construction: source_class is not the class of the source equation",
        "construction: target_class is not the class of the target equation",
    ]
    # an overstated degree bound is still a bound
    doc = copy.deepcopy(original)
    doc["construction"]["splittings"]["aux_over_source"]["degree_bound"] = 99
    overstated = tmp_path / "overstated.json"
    overstated.write_text(json.dumps(doc))
    code, verdict, _ = run_json(capsys, "verify", str(overstated))
    assert (code, verdict["failures"]) == (0, [])

    # An empty claim list proves nothing: every required claim is missing.
    failures = refused(lambda cert: cert.update(claims=[]))
    rings = original["certificate"]["source"]["ring"] + original["certificate"]["target"]["ring"]
    assert len(failures) == 2 + len(rings)
    assert all(f.startswith("missing ") for f in failures)

    # A wrong backward map cannot hide by dropping the round trips that expose it.
    def wrong_map_without_round_trips(cert):
        cert["backward"]["images"]["w"] = "w + 1"
        cert["claims"] = [c for c in cert["claims"] if c["kind"] != "round_trip"]

    failures = refused(wrong_map_without_round_trips)
    assert any(f.startswith("missing round_trip claim") for f in failures)

    failures = refused(lambda cert: cert["claims"].append(dict(cert["claims"][-1])))
    assert any("duplicate claim" in f for f in failures)

    def extra(cert):
        cert["claims"].append({**cert["claims"][-1], "name": "extra", "subject": "q"})

    failures = refused(extra)
    assert failures == ["extra: unexpected claim ('round_trip', 'target', 'q')"]

    # The surfaces named in the proof must be the ones the certificate is about.
    def other_surfaces(doc):
        doc["source_surface"]["equation"] = "x z = (y - 1) (y + 2)"
        doc["target_surface"]["equation"] = "x^5 z = (y - 7) (y + 1)"

    failures = refused(other_surfaces, on_certificate=False)
    assert failures == [
        "source_surface: equation does not match the certified generator",
        "target_surface: equation does not match the certified generator",
    ]
    failures = refused(
        lambda doc: doc["target_surface"].update(equation="x^2 z = (y - 1) (y + 1) - x"),
        on_certificate=False,
    )
    assert failures == ["target_surface: equation does not match the certified generator"]
    # a degree above the generator's is refused before P(y) is expanded
    failures = refused(
        lambda doc: doc["source_surface"].update(equation="x z = (y - 1)^100000 (y + 1)"),
        on_certificate=False,
    )
    assert failures == ["source_surface: equation does not match the certified generator"]

    # A generator monic in no variable cannot be divided as the round trips
    # divide; it does not rebuild its equation, so its side's round trips are
    # not expanded and the mismatch is the failure.
    failures = refused(lambda cert: cert["source"].update(generators=["x^5*y^5*z^5*w^5 + x*y"]))
    assert failures == [
        "source_surface: equation does not match the certified generator",
        "forward_well_defined[0]: cofactor identity fails",
        "backward_well_defined[0]: recorded pullback does not match the maps",
    ]

    # The other surface fields must be the ones the equation gives.
    for key, value in (("n", 7), ("roots", [["5", 1]]), ("smooth", False),
                       ("variant", "shifted"), ("n", True)):
        failures = refused(lambda doc: doc["source_surface"].update({key: value}),
                           on_certificate=False)
        assert failures == [f"source_surface: {key} does not match the equation"]

    # A singular surface is refused even when its equation is the generator.
    def singular(doc):
        doc["source_surface"]["equation"] = "x z = (y - 1)^2"
        doc["certificate"]["source"]["generators"] = ["x*z - y^2 + 2*y - 1"]

    failures = refused(singular, on_certificate=False)
    assert "source_surface: the equation is singular" in failures
    assert "source_surface: roots does not match the equation" in failures

    # A counterexample's invariants must be the ones its equations give.
    run(capsys, "counterexample", "x z = (y - 1) (y + 1)", "--out", str(proof_path))
    original = json.loads(proof_path.read_text())
    failures = refused(lambda doc: doc["invariants"].update(orbit_equivalent=True),
                       on_certificate=False)
    assert failures == ["invariants: orbit_equivalent does not match the classes of the equations"]
    failures = refused(lambda doc: doc["invariants"].update(source_profile=[["9", [0, 1], 5]]),
                       on_certificate=False)
    assert failures == ["invariants: source_profile does not match the classes of the equations"]
    bad = tmp_path / "no_invariants.json"
    bad.write_text(json.dumps({k: v for k, v in original.items() if k != "invariants"}))
    code, out, err = run(capsys, "verify", str(bad))
    assert (code, out) == (2, "") and "invariants" in err

    # Orbit-equivalent classes make no counterexample, however they are recorded.
    run(capsys, "cylinder-iso", "x z = (y - 1) (y + 1)", "x z = (y - 1) (y + 1)",
        "--out", str(proof_path))
    original = json.loads(proof_path.read_text())

    def claimed_counterexample(doc):
        doc["kind"] = "counterexample"
        doc["invariants"] = {"source_profile": [["0", [0, 1], 1]],
                             "target_profile": [["0", [0, 1], 1]], "orbit_equivalent": True}

    failures = refused(claimed_counterexample, on_certificate=False)
    assert failures == [
        "invariants: the classes are orbit-equivalent, so the pair is no counterexample"
    ]


def test_verify_malformed_proof_is_usage_error(tmp_path, capsys):
    proof_path = tmp_path / "proof.json"
    run(capsys, "cylinder-iso", "x z = (y - 1) (y + 1)", "x^2 z = (y - 1) (y + 1)",
        "--out", str(proof_path))
    original = json.loads(proof_path.read_text())

    def claims_hold_a_number(doc):
        doc["certificate"]["claims"] = [1]

    def claim_without_residual(doc):
        del doc["certificate"]["claims"][0]["residual"]

    def no_flags(doc):
        del doc["certificate"]["flags"]

    def certificate_is_a_list(doc):
        doc["certificate"] = []

    def images_are_a_string(doc):
        doc["certificate"]["forward"]["images"] = "w"

    def image_is_a_number(doc):
        doc["certificate"]["backward"]["images"]["x"] = 1

    def splitting_is_a_list(doc):
        doc["construction"]["splittings"]["aux_over_source"] = []

    def aux_power_is_a_string(doc):
        doc["construction"]["aux_power"] = "1"

    def aux_power_is_a_boolean(doc):  # bool subclasses int, but true is no integer
        doc["construction"]["aux_power"] = True

    def degree_bound_is_a_boolean(doc):
        doc["construction"]["splittings"]["aux_over_source"]["degree_bound"] = True

    def surface_without_equation(doc):
        del doc["target_surface"]["equation"]

    def no_construction(doc):
        del doc["construction"]

    def unknown_kind(doc):
        doc["kind"] = "anything at all"

    def no_kind(doc):
        del doc["kind"]

    def counterexample_without_invariants(doc):
        doc["kind"] = "counterexample"

    for edit in (claims_hold_a_number, claim_without_residual, no_flags, certificate_is_a_list,
                 images_are_a_string, image_is_a_number, splitting_is_a_list,
                 aux_power_is_a_string, aux_power_is_a_boolean, degree_bound_is_a_boolean,
                 surface_without_equation, no_construction,
                 unknown_kind, no_kind, counterexample_without_invariants):
        doc = copy.deepcopy(original)
        edit(doc)
        bad = tmp_path / f"{edit.__name__}.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", str(bad))
        assert (code, out) == (2, ""), edit.__name__
        assert err.startswith("input error:"), edit.__name__
    bad = tmp_path / "list.json"
    bad.write_text("[]")
    code, _, err = run(capsys, "verify", str(bad))
    assert code == 2 and err.startswith("input error:")


def test_a_json_integer_of_too_many_digits_is_an_input_error(tmp_path, capsys):
    """Python 3.11 and later convert no int of more than 4,300 digits, 3.10
    converts any; ``verify`` and a class given as @FILE refuse one on both."""
    proof_path = tmp_path / "proof.json"
    run(capsys, "counterexample", "x z = (y - 1) (y + 1)", "--out", str(proof_path))
    text = proof_path.read_text()
    assert text.count('"aux_power": 1,') == 1
    for digits, expected in ((MAX_DIGITS, 1), (MAX_DIGITS + 1, 2), (5001, 2)):
        proof_path.write_text(text.replace('"aux_power": 1,',
                                           '"aux_power": 1' + "0" * (digits - 1) + ","))
        code, out, err = run(capsys, "verify", str(proof_path))
        assert code == expected, digits
        if expected == 1:
            failure = f"construction: aux_power {10**(digits - 1)} is not one of (1, 2, 3)"
            assert json.loads(out)["failures"] == [failure]
        else:
            assert out == "" and f"more than {MAX_DIGITS} digits" in err

    code, out, _ = run(capsys, "cocycle", "profile", "2*x^-1")
    class_text = json.dumps(json.loads(out)["input"])
    assert class_text.count('"multiplicity": 1') == 2
    class_path = tmp_path / "class.json"
    class_path.write_text(class_text.replace('"multiplicity": 1', '"multiplicity": 1' + "0" * 5000))
    code, out, err = run(capsys, "cocycle", "profile", f"@{class_path}")
    assert (code, out) == (2, "") and f"more than {MAX_DIGITS} digits" in err


def test_verify_large_exponent_is_a_failure_not_a_traceback(tmp_path, capsys):
    proof_path = tmp_path / "proof.json"
    run(capsys, "cylinder-iso", "x z = (y - 1) (y + 1)", "x^2 z = (y - 1) (y + 1)",
        "--out", str(proof_path))
    doc = json.loads(proof_path.read_text())
    doc["certificate"]["backward"]["images"]["w"] += " + x^1500"
    proof_path.write_text(json.dumps(doc))
    code, verdict, _ = run_json(capsys, "verify", str(proof_path))
    assert code == 1
    assert "round_trip_source[w]: composite is not the identity modulo the ideal" in (
        verdict["failures"]
    )


@pytest.mark.parametrize("side, name, term", [
    ("backward", "y", "x^100000000"),
    ("forward", "y", "y^100000000"),
])
def test_verify_refuses_a_huge_exponent_at_once(tmp_path, capsys, side, name, term):
    proof_path = tmp_path / "proof.json"
    run(capsys, "cylinder-iso", "x z = (y - 1) (y + 1)", "x^2 z = (y - 1) (y + 1)",
        "--out", str(proof_path))
    doc = json.loads(proof_path.read_text())
    doc["certificate"][side]["images"][name] += f" + {term}"
    proof_path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", str(proof_path))
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert f"certificate.{side}.images.{name}: an exponent exceeds" in err


def test_verify_non_ascii_digit_in_a_residual_is_a_syntax_error(tmp_path, capsys):
    proof_path = tmp_path / "proof.json"
    run(capsys, "cylinder-iso", "x z = (y - 1) (y + 1)", "x^2 z = (y - 1) (y + 1)",
        "--out", str(proof_path))
    doc = json.loads(proof_path.read_text())
    doc["certificate"]["claims"][0]["residual"] = "y^\u00b2"
    proof_path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", str(proof_path))
    assert (code, out) == (2, "") and err.startswith("syntax error:")


def test_counterexample_pipeline(tmp_path, capsys):
    proof_path = tmp_path / "pair.json"
    code, _, _ = run(capsys, "counterexample", "x^1 z = y (y - 1)", "--out", str(proof_path))
    assert code == 0
    doc = json.loads(proof_path.read_text())
    assert doc["kind"] == "counterexample"
    assert doc["target_surface"]["equation"] == "x^2 z = y (y - 1)"
    assert doc["invariants"]["orbit_equivalent"] is False
    assert doc["invariants"]["source_profile"] != doc["invariants"]["target_profile"]
    code, verdict, _ = run_json(capsys, "verify", str(proof_path))
    assert code == 0 and verdict["verified"] is True


def test_counterexample_over_different_curves_is_reported(tmp_path, capsys):
    # The classes of the two equations lie on different quotient curves, so
    # there is no orbit verdict; that is one failure among the others of the
    # document, not a refusal of the whole report.
    proof_path = tmp_path / "pair.json"
    run(capsys, "counterexample", "x z = (y - 1) (y + 1)", "--out", str(proof_path))
    doc = json.loads(proof_path.read_text())
    doc["target_surface"]["equation"] = "x^2 z = (y - 1) (y + 2)"
    doc["certificate"]["target"]["generators"] = ["x^2*z - y^2 - y + 2"]
    proof_path.write_text(json.dumps(doc))
    code, verdict, err = run_json(capsys, "verify", str(proof_path))
    assert code == 1 and err == ""
    assert verdict["verified"] is False
    assert verdict["failures"] == [
        "target_surface: roots does not match the equation",
        "forward_well_defined[0]: recorded pullback does not match the maps",
        "backward_well_defined[0]: cofactor identity fails",
        "round_trip_target[y]: composite is not the identity modulo the ideal",
        "round_trip_target[z]: composite is not the identity modulo the ideal",
        "round_trip_target[w]: composite is not the identity modulo the ideal",
        "construction: target_class is not the class of the target equation",
        "invariants: the two equations have different quotient curves",
    ]


def test_counterexample_refuses_line_bundle(capsys):
    code, out, err = run(capsys, "counterexample", "x z = y")
    assert code == 1
    assert "line bundle" in err


def test_proof_output_deterministic(capsys):
    _, out1, _ = run(capsys, "cylinder-iso", "x z = (y - 1) (y + 1)", "x^2 z = (y - 1) (y + 1)")
    _, out2, _ = run(capsys, "cylinder-iso", "x z = (y - 1) (y + 1)", "x^2 z = (y - 1) (y + 1)")
    assert out1 == out2


def test_cocycle_push(capsys):
    code, doc, _ = run_json(capsys, "cocycle", "push", "2*x^-4", "x^3")
    assert code == 0
    assert doc["result"]["display"] == "2*x^-1"


def test_cocycle_profile(capsys):
    code, doc, _ = run_json(capsys, "cocycle", "profile", "2*x^-3")
    assert code == 0
    assert doc["profile"] == [["0", [0, 1], 3]]


def test_cocycle_orbit_exit_codes(capsys):
    code, doc, _ = run_json(capsys, "cocycle", "orbit", "2*x^-1", "3*x^-1")
    assert code == 0 and doc["equivalent"] is True
    code, doc, _ = run_json(capsys, "cocycle", "orbit", "2*x^-1", "2*x^-2")
    assert code == 1 and doc["equivalent"] is False


@pytest.mark.parametrize("argv", [
    ["profile", "2*x^-1", "--branches", "0"],
    ["push", "0", "x", "--branches", "-1"],
    ["profile", "2*x^-1", "--branches", "1"],
    ["orbit", "2*x^-1", "3*x^-1", "--branches", "3"],
])
def test_inline_class_off_two_branches_is_a_usage_error(capsys, argv):
    """An inline class lives on the pair (0, 1) of two branches; any other
    class is given as @FILE, and --branches below 1 makes no curve."""
    code, out, err = run(capsys, "cocycle", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage error:") and "@FILE" in err


def test_inline_zero_class_takes_any_branch_count(capsys):
    code, doc, _ = run_json(capsys, "cocycle", "profile", "0", "--branches", "3")
    assert code == 0 and doc["profile"] == []
    assert len(doc["input"]["curve"]["marked_points"][0]["branches"]) == 3


def test_cocycle_orbit_of_classes_on_different_curves_is_a_usage_error(tmp_path, capsys):
    code, out, _ = run(capsys, "cocycle", "profile", "0", "--branches", "3")
    path = tmp_path / "class.json"
    path.write_text(json.dumps(json.loads(out)["input"]))
    code, out, err = run(capsys, "cocycle", "orbit", f"@{path}", "3*x^-1")
    assert (code, out) == (2, "")
    assert err == "usage error: the two classes live on different curves; give both on one curve\n"


def test_cocycle_class_from_json_file(tmp_path, capsys):
    from danielewski.cech import class_normal_form
    from danielewski.fibration import MarkedPoint, MultifoldCurve
    from danielewski.jsonio import class_to_json, dumps
    from danielewski.ratpoly import laurent_from_str

    curve = MultifoldCurve("x", (MarkedPoint(0, (("b0", 1), ("b1", 1), ("b2", 1))),))
    raw = {
        (0, (0, 1)): laurent_from_str("x^-1", "x"),
        (0, (1, 2)): laurent_from_str("x^-1", "x"),
        (0, (0, 2)): laurent_from_str("2*x^-1", "x"),
    }
    c = class_normal_form(raw, curve)
    path = tmp_path / "class.json"
    path.write_text(dumps(class_to_json(c)))
    # --branches is not read for a class file
    for branches in ([], ["--branches", "0"]):
        code, doc, _ = run_json(capsys, "cocycle", "profile", f"@{path}", *branches)
        assert code == 0
        assert doc["profile"] == [["0", [0, 1], 1], ["0", [0, 2], 1], ["0", [1, 2], 1]]


def test_cylinder_not_comparable(capsys):
    code, _, err = run(capsys, "cylinder-iso", "x z = (y - 1) (y + 1)", "x z = y (y - 1) (y + 1)")
    assert code == 1
    assert "refused" in err


def test_missing_proof_file_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "/nonexistent/proof.json")
    assert code == 2


def _fresh(argv):
    """``(exit code, stdout, stderr)`` of one call in a new interpreter."""
    env = {**os.environ, "PYTHONPATH": str(Path(danielewski.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "danielewski", *argv], capture_output=True,
                          text=True, env=env)
    return done.returncode, done.stdout, done.stderr


def _in_process(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("calls", [
    [["cocycle", "push", "--branches", "3", "2*x^-4", "x"], ["cocycle", "push", "2*x^-4", "x"]],
    [["counterexample", "--degree-bound", "2", "x z = y (y - 1) (y - 2)"],
     ["counterexample", "x z = y (y - 1) (y - 2)"]],
    [["analyze", "x z = y", "--no-such-flag"], ["analyze", "x z = (y - 1) (y + 1)"]],
])
def test_reused_parser_matches_a_fresh_interpreter(capsys, calls):
    results = [_in_process(capsys, argv) for argv in calls]
    assert results == [_fresh(argv) for argv in calls]
    assert results[0] != results[1]


def test_degree_bound_schedule_ends_at_the_bound():
    assert _schedule(None) == (2, 4, 6, 8)
    assert _schedule(1) == (1,)
    assert _schedule(3) == (2, 3)
    assert _schedule(8) == (2, 4, 6, 8)
    assert _schedule(9) == (2, 4, 6, 8, 9)


def test_build_parser_returns_a_new_parser():
    assert build_parser() is not build_parser()
