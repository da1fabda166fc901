"""Groebner engine: fixtures from hand reductions plus randomized oracles."""

import random
from fractions import Fraction

import pytest
from conftest import monic_remainder, naive_division, substitute_oracle

from danielewski.errors import RingMismatchError
from danielewski.ideals import (
    IdealPresentation,
    IsoCertificate,
    PolyMap,
    groebner_basis,
    ideal_member,
    ideal_member_witness,
    identity_map,
    jacobian_smooth,
    normal_form,
    reduce_full,
    verify_iso_certificate,
    verify_morphism,
)
from danielewski.ratpoly import MultiPoly, poly_from_str

XYZ = ("x", "y", "z")


def p(text, ring=XYZ):
    return poly_from_str(text, ring)


def ideal(*texts, ring=XYZ):
    return IdealPresentation(ring, [poly_from_str(t, ring) for t in texts])


# -- Groebner fixtures ---------------------------------------------------


def test_already_a_basis():
    gb = groebner_basis(ideal("x", "y"))
    assert gb.basis == (p("x"), p("y"))


def test_unit_ideal_by_hand_reduction():
    # (x*z - y^2 + 1) - x*z gives -y^2 + 1; with y and x in the ideal, 1 follows.
    gb = groebner_basis(ideal("x*z - y^2 + 1", "z", "2*y", "x"))
    assert gb.is_unit_ideal()
    assert gb.basis == (MultiPoly.const(XYZ, 1),)


def test_univariate_gcd_shape():
    gb = groebner_basis(ideal("x^2 - 1", "x - 1", ring=("x",)))
    assert gb.basis == (poly_from_str("x - 1", ("x",)),)
    # membership both ways confirms the hand division
    one_var = IdealPresentation(("x",), [poly_from_str("x - 1", ("x",))])
    assert ideal_member(poly_from_str("x^2 - 1", ("x",)), one_var)


def test_basis_is_self_reduced():
    gb = groebner_basis(ideal("x*z - y^2 + 1", "x^2*z - y^2 + 1"))
    assert gb.is_self_reduced()


def test_lex_order_selectable():
    # under lex (x > y > z) the leading term of x - y^2 is x, so the normal
    # form of x rewrites into y^2; grevlex keeps y^2 as the leading term
    i = ideal("x - y^2")
    lex_gb = groebner_basis(i, order="lex")
    assert normal_form(p("x"), lex_gb.basis, order="lex") == p("y^2")
    grev_gb = groebner_basis(i, order="grevlex")
    assert normal_form(p("y^2"), grev_gb.basis) == p("x")


def test_permutation_invariance():
    rng = random.Random(23)
    gens = ["x*z - y^2 + 1", "x^2 - y*z", "y^3 - x"]
    reference = groebner_basis(ideal(*gens))
    for _ in range(6):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert groebner_basis(ideal(*shuffled)) == reference


def test_normal_form_idempotent_randomized():
    rng = random.Random(31)
    for _ in range(20):
        gens = []
        for _ in range(rng.randint(1, 3)):
            terms = {
                tuple(rng.randint(0, 2) for _ in XYZ): Fraction(rng.randint(-3, 3))
                for _ in range(rng.randint(1, 3))
            }
            g = MultiPoly(XYZ, terms)
            if not g.is_zero():
                gens.append(g)
        if not gens:
            continue
        gb = groebner_basis(IdealPresentation(XYZ, gens))
        if not gb.basis:
            continue
        f = MultiPoly(
            XYZ,
            {
                tuple(rng.randint(0, 3) for _ in XYZ): Fraction(rng.randint(-4, 4))
                for _ in range(4)
            },
        )
        once = normal_form(f, gb.basis)
        assert normal_form(once, gb.basis) == once


def test_division_identity_and_oracle_agreement():
    """Generators with pairwise coprime leading terms form a Groebner basis,
    so naive division and the engine must agree on membership."""
    rng = random.Random(41)
    for _ in range(60):
        # leading terms on disjoint variables are automatically coprime
        g1 = p("x^2") + MultiPoly(XYZ, {(0, rng.randint(0, 1), rng.randint(0, 1)): Fraction(rng.randint(-3, 3))})
        g2 = p("y^3") + MultiPoly(XYZ, {(0, 0, rng.randint(0, 2)): Fraction(rng.randint(-3, 3))})
        gens = [g1, g2]
        f = MultiPoly(
            XYZ,
            {
                tuple(rng.randint(0, 3) for _ in XYZ): Fraction(rng.randint(-4, 4))
                for _ in range(5)
            },
        )
        quots, rem = reduce_full(f, gens)
        rebuilt = rem
        for qd, g in zip(quots, gens):
            rebuilt = rebuilt + MultiPoly(XYZ, qd) * g
        assert rebuilt == f
        oracle_quots, oracle = naive_division(f, gens)
        assert [MultiPoly(XYZ, qd) for qd in quots] == oracle_quots
        assert rem == oracle
        engine = ideal_member(f, IdealPresentation(XYZ, gens))
        assert engine == oracle.is_zero()


# -- membership fixtures -------------------------------------------------


def test_member_generator():
    i = ideal("x^2*z - y^2 + 1")
    assert ideal_member(p("x^2*z - y^2 + 1"), i)


def test_member_after_elimination():
    i = ideal("x*z - y^2 + 1", "x")
    assert ideal_member(p("y^2 - 1"), i)


def test_nonmember_on_irreducible_surface():
    i = ideal("x*z - y^2 + 1")
    assert not ideal_member(p("y"), i)


def test_member_ring_mismatch():
    i = ideal("x*z - y^2 + 1")
    with pytest.raises(RingMismatchError):
        ideal_member(poly_from_str("x", ("x", "y")), i)


def test_division_ring_mismatch():
    # Zipped short, the exponents of x^2*y + y would divide by x*z - 1 as if
    # it were x - 1 and leave 2*y.
    f, divisor = p("x^2*y + y", ("x", "y")), p("x*z - 1")
    with pytest.raises(RingMismatchError):
        normal_form(f, [divisor])
    with pytest.raises(RingMismatchError):
        reduce_full(f, [divisor], "lex")


def test_membership_witness_is_replayable():
    i = ideal("x*z - y^2 + 1", "x")
    ok, cofactors, remainder = ideal_member_witness(p("y^2 - 1"), i)
    assert ok and remainder.is_zero()
    rebuilt = MultiPoly.zero(XYZ)
    for c, g in zip(cofactors, i.generators):
        rebuilt = rebuilt + c * g
    assert rebuilt == p("y^2 - 1")


def test_witness_for_nonmember_reports_remainder():
    i = ideal("x*z - y^2 + 1")
    ok, cofactors, remainder = ideal_member_witness(p("y"), i)
    assert not ok
    rebuilt = remainder
    for c, g in zip(cofactors, i.generators):
        rebuilt = rebuilt + c * g
    assert rebuilt == p("y")


# -- Jacobian criterion ---------------------------------------------------


def test_smooth_quadric():
    assert jacobian_smooth(p("x*z - y^2 + 1"))


def test_smooth_family_grid():
    # x^n z = y^m - x is smooth whenever n >= 2 (and for n = 1 iff m == 1)
    for n in range(2, 5):
        for m in range(1, 5):
            f = p(f"x^{n}*z - y^{m} + x")
            assert jacobian_smooth(f), (n, m)
    assert jacobian_smooth(p("x*z - y + x"))


def test_singular_edge_of_family():
    """For n = 1 and m >= 2 the surface x z = y^m - x has a singular point
    at (0, 0, -1): the equation and all three partials vanish there."""
    for m in range(2, 5):
        f = p(f"x*z - y^{m} + x")
        from danielewski.ratpoly import partial_derivative, substitute

        point = {
            "x": MultiPoly.const(XYZ, 0),
            "y": MultiPoly.const(XYZ, 0),
            "z": MultiPoly.const(XYZ, -1),
        }
        for g in [f] + [partial_derivative(f, v) for v in XYZ]:
            assert substitute(g, point).is_zero()
        assert not jacobian_smooth(f)


def test_singular_cone():
    assert not jacobian_smooth(p("x*z - y^2"))


def test_jacobian_arity_enforced():
    with pytest.raises(ValueError):
        jacobian_smooth(poly_from_str("x^2", ("x", "y")))


# -- morphisms -------------------------------------------------------------


def contraction_map(n):
    """(x, y, z) -> (x, y, x^n z) from x^(n+1) z = y^2 - 1 onto x z = y^2 - 1."""
    source = ideal(f"x^{n + 1}*z - y^2 + 1")
    target = ideal("x*z - y^2 + 1")
    images = {"x": p("x"), "y": p("y"), "z": p(f"x^{n}*z")}
    return PolyMap(source, target, images)


def test_contraction_is_morphism():
    for n in range(1, 5):
        assert verify_morphism(contraction_map(n))


def test_identity_is_morphism():
    i = ideal("x*z - y^2 + 1")
    assert verify_morphism(identity_map(i))


def test_inclusion_of_coordinates_is_not_a_morphism():
    source = ideal("x^2*z - y^2 + 1")
    target = ideal("x*z - y^2 + 1")
    images = {v: p(v) for v in XYZ}
    assert not verify_morphism(PolyMap(source, target, images))


# -- isomorphism certificates ----------------------------------------------


def test_identity_certificate():
    i = ideal("x*z - y^2 + 1")
    cert = verify_iso_certificate(identity_map(i), identity_map(i))
    assert cert.is_valid()
    assert cert.flags == (True, True, True, True)


def test_swap_certificate_on_symmetric_surface():
    i = ideal("x*z - y^2 + 1")
    swap = {"x": p("z"), "y": p("y"), "z": p("x")}
    fwd = PolyMap(i, i, swap)
    cert = verify_iso_certificate(fwd, fwd)
    assert cert.is_valid()


def test_non_inverse_pair_flagged():
    i = ideal("x*z - y^2 + 1")
    fwd = PolyMap(i, i, {"x": p("z"), "y": p("y"), "z": p("x")})
    cert = verify_iso_certificate(fwd, identity_map(i))
    assert cert.forward_well_defined and cert.backward_well_defined
    assert not cert.backward_forward_identity
    assert not cert.is_valid()


def test_certificate_refuses_maps_that_do_not_pair_up():
    i, j = ideal("x*z - y^2 + 1"), ideal("x^2*z - y^2 + 1")
    with pytest.raises(ValueError, match="do not pair up"):
        verify_iso_certificate(PolyMap(i, j, {v: p(v) for v in XYZ}), identity_map(i))


def test_flags_are_read_off_the_claims():
    """A certificate holds a flag only where it has claims and all of them hold."""
    i = ideal("x*z - y^2 + 1")
    checked = verify_iso_certificate(identity_map(i), identity_map(i))
    assert not IsoCertificate(checked.forward, checked.backward, ()).is_valid()
    assert IsoCertificate(checked.forward, checked.backward, ()).flags == (False,) * 4
    pullbacks = tuple(c for c in checked.evidence if c.kind == "generator_pullback")
    assert IsoCertificate(checked.forward, checked.backward, pullbacks).flags == (
        True, True, False, False)


def test_certificate_witnesses_replay():
    i = ideal("x*z - y^2 + 1")
    swap = PolyMap(i, i, {"x": p("z"), "y": p("y"), "z": p("x")})
    cert = verify_iso_certificate(swap, swap)
    assert cert.evidence
    for claim in cert.evidence:
        assert claim.ok and claim.residual.is_zero()
        if claim.kind == "generator_pullback":
            rebuilt = claim.residual
            for c, g in zip(claim.cofactors, i.generators):
                rebuilt = rebuilt + c * g
            assert rebuilt == claim.polynomial


def test_certificate_refuses_a_two_generator_presentation():
    i = ideal("x*z - y^2 + 1", "x")
    with pytest.raises(ValueError, match="single-generator"):
        verify_iso_certificate(identity_map(i), identity_map(i))


def test_certificate_refuses_a_generator_monic_in_no_variable():
    i = ideal("x^5*y^5*z^5 + x*y")
    with pytest.raises(ValueError, match="monic in no variable"):
        verify_iso_certificate(identity_map(i), identity_map(i))


def test_pullback_cofactor_is_the_quotient_by_the_generator():
    """The certificate divides by the generator; the traced basis of the same
    ideal gives the same cofactor and residual."""
    source, target = ideal("2*x^2*z - 2*y^2 + 2"), ideal("x*z - y^2 + 1")
    forward = PolyMap(source, target, {"x": p("x"), "y": p("y"), "z": p("x*z")})
    backward = PolyMap(target, source, {v: p(v) for v in XYZ})
    cert = verify_iso_certificate(forward, backward)
    claim = cert.evidence[0]
    assert claim.name == "forward_well_defined[0]" and claim.ok
    assert claim.cofactors == (p("1/2"),)
    assert ideal_member_witness(claim.polynomial, source) == (True, claim.cofactors, claim.residual)


def test_substitute_reduced_matches_plain_substitution():
    from danielewski.ideals import substitute_reduced

    (f,) = groebner_basis(ideal("x*z - y^2 + 1")).basis  # y^2 - x*z - 1, monic in y
    images = {"x": p("z"), "y": p("x*y - 1"), "z": p("x + z^2")}
    rng = random.Random(107)
    for _ in range(15):
        g = MultiPoly(
            XYZ,
            {
                tuple(rng.randint(0, 3) for _ in XYZ): Fraction(rng.randint(-4, 4))
                for _ in range(4)
            },
        )
        fast = substitute_reduced(g, images, f)
        slow = monic_remainder(substitute_oracle(g, images), f)
        assert fast == slow
