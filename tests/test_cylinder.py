"""Glued models, the splitting solver, and certified cylinder isomorphisms."""

import itertools
from fractions import Fraction
from math import prod

import pytest
from conftest import solve_linear_oracle
from hypothesis import given, settings, strategies as st

from danielewski import cylinder, ideals
from danielewski.cech import class_normal_form, divide_by_power, surface_class, zero_class
from danielewski.cylinder import (
    CYLINDER_RING,
    CylinderConstruction,
    GluedModel,
    Splitting,
    counterexample_pair,
    cylinder_construction,
    cylinder_iso,
    cylinder_presentation,
    reexpress_on_cylinder,
    splitting_solve,
    torsor_to_glued,
    verify_splitting,
    with_coordinate,
)
from danielewski.cli import main
from danielewski.errors import NoSplittingFound, NotComparable, UnsupportedError
from danielewski.fibration import MarkedPoint, MultifoldCurve, Variant, build_surface
from danielewski.ideals import normal_form
from danielewski.jsonio import cylinder_proof, verify_proof
from danielewski.ratpoly import LaurentPoly, MultiPoly, laurent_from_str, poly_from_str, substitute


def origins(r):
    branches = tuple((f"b{i}", 1) for i in range(r))
    return MultifoldCurve("x", (MarkedPoint(Fraction(0), branches),))


DOUBLE = origins(2)


def lp(text):
    return laurent_from_str(text, "x")


def single(curve, text):
    return class_normal_form({(0, (0, 1)): lp(text)}, curve)


def s_family(k):
    """x^(k+1) z = y^2 - 1."""
    return build_surface(k + 1, [(1, 1), (-1, 1)], Variant.PLAIN)


# -- glued models -----------------------------------------------------------


def test_torsor_to_glued_danielewski():
    model = torsor_to_glued(single(DOUBLE, "2*x^-1"))
    assert model.n_charts == 2
    assert model.chart_ring == ("x", "v")
    shifts = model.transition_shifts(0, 1)
    assert shifts == [{-1: Fraction(2)}]


def test_torsor_to_glued_trivial_class():
    model = torsor_to_glued(zero_class(DOUBLE))
    assert model.n_charts == 2
    assert model.transition_shifts(0, 1) == [None]


def test_torsor_to_glued_triple_origin():
    s = build_surface(2, [(1, 1), (-1, 1), (4, 1)], Variant.PLAIN)
    model = torsor_to_glued(surface_class(s))
    assert model.n_charts == 3
    assert model.branch_pairs() == [(0, 1), (0, 2), (1, 2)]
    # triple consistency is inherited from the class; transition data present
    assert model.transition_shifts(0, 2) == [{-2: Fraction(-3)}]


def chart_functions(s):
    """The torsor model of ``s`` and each chart's x, y and z (``_chart_embedding``)."""
    model = torsor_to_glued(surface_class(s))
    return model, [cylinder._chart_embedding(s, i, model.chart_ring)
                   for i in range(model.n_charts)]


def agree_across_transitions(model, charts):
    """Every chart-j polynomial, written on chart i by ``_across``, is the chart-i one."""
    for i, j in model.branch_pairs():
        clear, on_i = cylinder._across(model, charts[j], i, j)
        if on_i != cylinder._pad_x(charts[i], (), clear):
            return False
    return True


def assert_global_functions_of(s, model, charts):
    """The equation vanishes on every chart, and x, y, z glue across the transitions."""
    for embedding in charts:
        assert substitute(s.defining_polynomial, embedding).is_zero()
    for name in ("x", "y", "z"):
        assert agree_across_transitions(model, [e[name] for e in charts])


def test_chart_embedding_s0():
    s = s_family(0)
    model, charts = chart_functions(s)
    ring = model.chart_ring
    assert charts[0]["y"] == poly_from_str("x*v + 1", ring)
    assert charts[1]["y"] == poly_from_str("x*v - 1", ring)
    assert charts[0]["z"] == poly_from_str("x*v^2 + 2*v", ring)
    assert charts[1]["z"] == poly_from_str("x*v^2 - 2*v", ring)
    assert_global_functions_of(s, model, charts)


def test_chart_embedding_s1():
    s = s_family(1)
    model, charts = chart_functions(s)
    ring = model.chart_ring
    assert charts[0]["y"] == poly_from_str("x^2*v + 1", ring)
    assert charts[1]["y"] == poly_from_str("x^2*v - 1", ring)
    assert charts[0]["z"] == poly_from_str("x^2*v^2 + 2*v", ring)
    assert charts[1]["z"] == poly_from_str("x^2*v^2 - 2*v", ring)
    assert_global_functions_of(s, model, charts)


def test_fiber_product_transitions_consistent():
    s = s_family(0)
    c = surface_class(s)
    model = with_coordinate(torsor_to_glued(c, "v"), "w", divide_by_power(c, 1))
    assert model.chart_ring == ("x", "v", "w")
    assert model.transition_shifts(0, 1) == [{-1: Fraction(2)}, {-2: Fraction(2)}]


# -- splitting solver --------------------------------------------------------


def test_split_base_only_chart_fails():
    """A nonzero class cannot split with chart functions of x alone."""
    curve = DOUBLE
    model = torsor_to_glued(zero_class(curve), "v")
    # strip the fiber coordinate: model with zero coordinates simulates the
    # bare chart cover of the curve
    from danielewski.cylinder import GluedModel

    bare = GluedModel(curve, ())
    with pytest.raises(NoSplittingFound) as info:
        splitting_solve(bare, single(curve, "2*x^-1"))
    assert info.value.bounds == (2, 4, 6, 8)


def test_split_over_surface_charts_found_at_bound_four():
    s = s_family(0)
    c = surface_class(s)
    model = torsor_to_glued(c, "v")
    pullback = divide_by_power(c, 1)  # 2*x^-2
    splitting = splitting_solve(model, pullback)
    assert splitting.degree_bound == 4
    assert verify_splitting(model, pullback, splitting)


def test_split_reference_solution_verifies():
    """The hand solution h1 = 3/2 v^2 - 1/2 x v^3 with h0 its regular part
    after v -> v + 2/x splits 2 x^-2 over the charts of x z = y^2 - 1."""
    s = s_family(0)
    c = surface_class(s)
    model = torsor_to_glued(c, "v")
    ring = model.chart_ring
    h1 = poly_from_str("3/2*v^2 - 1/2*x*v^3", ring)
    h0 = poly_from_str("-3/2*v^2 - 1/2*x*v^3", ring)
    reference = Splitting(ring, (h0, h1), 4)
    assert verify_splitting(model, divide_by_power(c, 1), reference)


def tampered(splitting, chart=0):
    """The splitting with one coefficient of one chart polynomial changed."""
    per_chart = list(splitting.per_chart)
    h = per_chart[chart]
    exp, coeff = next(iter(h.terms.items()))
    per_chart[chart] = MultiPoly(h.ring, {**h.terms, exp: coeff + 1})
    return Splitting(splitting.chart_ring, tuple(per_chart), splitting.degree_bound)


TWO_TERM = single(DOUBLE, "x^-2 + 3*x^-1")


@pytest.mark.parametrize("model, pullback", [
    (torsor_to_glued(TWO_TERM, "v"), divide_by_power(TWO_TERM, 1)),
    (with_coordinate(torsor_to_glued(TWO_TERM, "v"), "w", divide_by_power(TWO_TERM, 1)),
     divide_by_power(TWO_TERM, 2)),
])
def test_verify_splitting_rejects_one_changed_coefficient(model, pullback):
    splitting = splitting_solve(model, pullback)
    assert verify_splitting(model, pullback, splitting)
    for chart in range(model.n_charts):
        assert not verify_splitting(model, pullback, tampered(splitting, chart))


def test_a_changed_chart_function_disagrees_across_transitions():
    model, charts = chart_functions(s_family(0))
    x = [e["x"] for e in charts]
    for changed in (x[0] + 1, MultiPoly.var(model.chart_ring, "x") * x[1]):
        assert not agree_across_transitions(model, [x[0], changed])


part_terms = st.dictionaries(st.integers(-3, -1),
                             st.fractions(-4, 4, max_denominator=3).filter(bool),
                             min_size=2, max_size=2)
chart_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
    st.fractions(-5, 5, max_denominator=4).filter(bool), max_size=5,
)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3]), st.lists(part_terms, min_size=4, max_size=4), chart_polys,
       st.data())
def test_writing_across_a_transition_and_back_is_the_identity(r, potentials, terms, data):
    """Parts g_ij = a_j - a_i of two-term potentials glue v and w; a chart-j
    polynomial written on chart i and then back on chart j is unchanged, up
    to the two clearing powers of x.  On chart i it takes the value of
    x^N h(x, v + g_v(x), w + g_w(x)) at a rational point."""
    curve = origins(r)
    pots = [LaurentPoly("x", p) for p in potentials]
    classes = []
    for shift in (0, 1):
        parts = {(0, (i, j)): pots[j + shift] - pots[i + shift]
                 for i, j in itertools.combinations(range(r), 2)}
        classes.append(class_normal_form({k: g for k, g in parts.items() if not g.is_zero()},
                                         curve))
    model = with_coordinate(torsor_to_glued(classes[0], "v"), "w", classes[1])
    h = MultiPoly(model.chart_ring, terms)
    i, j = data.draw(st.sampled_from(model.branch_pairs()))
    there, on_i = cylinder._across(model, h, i, j)
    back, on_j = cylinder._across(model, on_i, j, i)
    assert on_j == cylinder._pad_x(h, (), there + back)

    x, v, w = Fraction(2, 3), Fraction(5), Fraction(-1, 2)
    g_v, g_w = (sum(c * x**e for e, c in cls.part(0, i, j).terms.items()) for cls in classes)
    assert value_at(on_i, (x, v, w)) == x**there * value_at(h, (x, v + g_v, w + g_w))


def value_at(p, point):
    return sum(c * prod(a**e for a, e in zip(point, exp)) for exp, c in p.terms.items())


def test_split_zero_class_is_zero():
    s = s_family(0)
    model = torsor_to_glued(surface_class(s), "v")
    splitting = splitting_solve(model, zero_class(model.curve))
    assert all(h.is_zero() for h in splitting.per_chart)


def test_split_linear_cases():
    # a class with pole at most the transition pole splits linearly
    s = s_family(1)  # transitions 2*x^-2
    c = surface_class(s)
    model = torsor_to_glued(c, "w")
    shallow = single(c.curve, "2*x^-1")
    splitting = splitting_solve(model, shallow)
    assert splitting.degree_bound == 2
    assert verify_splitting(model, shallow, splitting)


def test_split_triple_origin():
    s = build_surface(1, [(0, 1), (1, 1), (3, 1)], Variant.PLAIN)
    c = surface_class(s)
    model = torsor_to_glued(c, "v")
    pullback = divide_by_power(c, 1)
    splitting = splitting_solve(model, pullback)
    assert verify_splitting(model, pullback, splitting)


# The fraction-free solver against the Gauss-Jordan oracle: the pinned
# solution, and so the splitting, cannot depend on how rows are eliminated.
ORACLE_ROOTS = {
    2: (Fraction(1, 2), Fraction(-3, 2)),
    3: (Fraction(-1, 2), Fraction(1, 2), Fraction(3, 2)),
    4: (0, 1, Fraction(-1, 2), 3),
}


def splitting_or_refusal(model, pullback):
    try:
        return splitting_solve(model, pullback)
    except NoSplittingFound as exc:
        return exc.bounds


@pytest.mark.parametrize("power", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("r", sorted(ORACLE_ROOTS))
def test_splitting_matches_the_oracle_solver(r, n, power, monkeypatch):
    c = surface_class(build_surface(n, [(root, 1) for root in ORACLE_ROOTS[r]], Variant.PLAIN))
    c_aux = divide_by_power(c, power)
    problems = [(torsor_to_glued(c, "v"), c_aux), (torsor_to_glued(c_aux, "w"), c)]
    found = [splitting_or_refusal(*problem) for problem in problems]
    monkeypatch.setattr(cylinder, "solve_linear", solve_linear_oracle)
    assert [splitting_or_refusal(*problem) for problem in problems] == found


@pytest.mark.parametrize("depths", [(2, 3), (1, 3)])
def test_three_root_refusal_matches_the_oracle_solver(depths, monkeypatch):
    roots = [(0, 1), (1, 1), (2, 1)]
    pair = [build_surface(n, roots, Variant.PLAIN) for n in depths]
    with pytest.raises(NoSplittingFound) as fast:
        cylinder_construction(*pair)
    monkeypatch.setattr(cylinder, "solve_linear", solve_linear_oracle)
    with pytest.raises(NoSplittingFound) as oracle:
        cylinder_construction(*pair)
    assert str(oracle.value) == str(fast.value)


# -- re-expression ------------------------------------------------------------


def test_reexpress_global_functions():
    """Chart expressions of y, z and the cylinder coordinate re-embed exactly."""
    s = s_family(0)
    chart_ring = ("x", "v", "t")
    x = MultiPoly.var(chart_ring, "x")
    v = MultiPoly.var(chart_ring, "v")
    t = MultiPoly.var(chart_ring, "t")
    y_ch = [1 + x * v, -1 + x * v]
    z_ch = [v * (2 + x * v), v * (x * v - 2)]
    w_ch = [t, t]
    assert reexpress_on_cylinder(y_ch, s) == poly_from_str("y", CYLINDER_RING)
    assert reexpress_on_cylinder(z_ch, s) == poly_from_str("z", CYLINDER_RING)
    assert reexpress_on_cylinder(w_ch, s) == poly_from_str("w", CYLINDER_RING)


def test_reexpress_detects_non_global_data():
    s = s_family(0)
    chart_ring = ("x", "v", "t")
    v = MultiPoly.var(chart_ring, "v")
    with pytest.raises(RuntimeError):
        reexpress_on_cylinder([v, v], s)  # v alone is not global
    # on S1 (x^2 z = y^2 - 1) chart 0 has y = 1 + x^2 v: v and x v have poles
    s1 = s_family(1)
    x = MultiPoly.var(chart_ring, "x")
    for expr in (v, x * v):
        with pytest.raises(RuntimeError, match="not regular on the surface"):
            reexpress_on_cylinder([expr, expr], s1)
    # x^2 v = y - 1, which is x^2 v' - 2 on chart 1 (y = -1 + x^2 v')
    assert reexpress_on_cylinder([x**2 * v, x**2 * v - 2], s1) == poly_from_str(
        "y - 1", CYLINDER_RING)


half_integers = st.integers(-6, 6).map(lambda k: Fraction(k, 2))
cylinder_polys = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * 4).filter(lambda e: sum(e) <= 3),
    st.fractions(-3, 3, max_denominator=2).filter(bool), max_size=4,
).map(lambda terms: MultiPoly(CYLINDER_RING, terms))


@settings(max_examples=40, deadline=None)
@given(cylinder_polys, st.integers(1, 3),
       st.lists(st.one_of(st.integers(-3, 3).map(Fraction), half_integers),
                min_size=2, max_size=3, unique=True))
def test_reexpress_inverts_the_chart_embeddings(F, n, roots):
    """A polynomial written on every chart re-expresses to its normal form."""
    s = build_surface(n, [(root, 1) for root in roots], Variant.PLAIN)
    chart_ring = ("x", "v", "t")
    t = MultiPoly.var(chart_ring, "t")
    charts = [
        substitute(F, {**cylinder._chart_embedding(s, i, chart_ring), "w": t})
        for i in range(len(roots))
    ]
    f = cylinder_presentation(s).generators[0]
    assert reexpress_on_cylinder(charts, s) == normal_form(F, [f])


# -- cylinder isomorphisms -----------------------------------------------------


def test_cylinder_iso_danielewski_pair():
    cert = cylinder_iso(s_family(0), s_family(1))
    assert cert.flags == (True, True, True, True)
    # the classical contraction shape: x stays, w-image is affine in w
    assert cert.forward.images["x"] == poly_from_str("x", CYLINDER_RING)


def test_construction_and_replay_compute_no_groebner_basis(monkeypatch):
    """Once the surfaces are built, constructing and replaying a proof only
    divides by each cylinder's generator."""
    source, target = s_family(0), s_family(1)

    def no_basis(*args, **kwargs):
        raise AssertionError("a Groebner basis was computed")

    monkeypatch.setattr(ideals, "_reduced_basis", no_basis)
    con = cylinder_construction(source, target)
    assert con.certificate.is_valid()
    assert verify_proof(cylinder_proof(con)) == (True, [])


def test_no_cli_command_computes_a_groebner_basis(monkeypatch, tmp_path, capsys):
    """Smoothness is read off the roots, so no command reaches a basis,
    on smooth input or on singular input."""

    def no_basis(*args, **kwargs):
        raise AssertionError("a Groebner basis was computed")

    monkeypatch.setattr(ideals, "_reduced_basis", no_basis)
    proof = str(tmp_path / "proof.json")
    for argv in (
        ["analyze", "x^2 z = (y - 1)^2 (y + 1) - x"],
        ["cylinder-iso", "x z = (y - 1) (y + 1)", "x^2 z = (y - 1) (y + 1)", "--out", proof],
        ["verify", proof],
        ["counterexample", "x z = (y - 1) (y + 1)"],
    ):
        assert main(argv) == 0, argv
    capsys.readouterr()
    assert main(["analyze", "x z = y^2 - x"]) == 1
    assert capsys.readouterr() == (
        "", "refused: surface -y^2 + x*z + x fails the Jacobian criterion\n"
    )


def test_cylinder_iso_same_surface_is_identity():
    cert = cylinder_iso(s_family(0), s_family(0))
    for name in CYLINDER_RING:
        assert cert.forward.images[name] == poly_from_str(name, CYLINDER_RING)
        assert cert.backward.images[name] == poly_from_str(name, CYLINDER_RING)
    assert cert.is_valid()


def test_cylinder_iso_symmetry_both_directions():
    a, b = s_family(0), s_family(1)
    assert cylinder_iso(a, b).is_valid()
    assert cylinder_iso(b, a).is_valid()


@pytest.mark.parametrize("n, roots", [
    (1, [(1, 1), (-1, 1)]),
    (1, [(0, 1), (1, 1), (2, 1)]),
    (2, [(Fraction(-1, 2), 1), (Fraction(1, 2), 1)]),
])
def test_swapping_the_surfaces_swaps_the_maps(n, roots):
    # the backward map is the forward recipe with the two surfaces swapped
    shallow = build_surface(n, roots, Variant.PLAIN)
    deep = build_surface(n + 1, roots, Variant.PLAIN)
    there, back = cylinder_iso(shallow, deep), cylinder_iso(deep, shallow)
    assert there.forward.images == back.backward.images
    assert there.backward.images == back.forward.images


def test_cylinder_iso_different_roots_same_branch_count():
    a = build_surface(1, [(0, 1), (1, 1)], Variant.PLAIN)
    b = build_surface(2, [(1, 1), (-1, 1)], Variant.PLAIN)
    assert cylinder_iso(a, b).is_valid()


def test_cylinder_iso_not_comparable():
    a = build_surface(1, [(0, 1), (1, 1)], Variant.PLAIN)
    b = build_surface(1, [(0, 1), (1, 1), (2, 1)], Variant.PLAIN)
    with pytest.raises(NotComparable):
        cylinder_iso(a, b)


def test_cylinder_iso_rejects_equivariant_track():
    a = build_surface(2, [(0, 2)], Variant.SHIFTED)
    b = build_surface(3, [(0, 2)], Variant.SHIFTED)
    with pytest.raises(UnsupportedError):
        cylinder_iso(a, b)


def test_construction_record_contents():
    con = cylinder_construction(s_family(0), s_family(1))
    assert isinstance(con, CylinderConstruction)
    assert con.source_class.part(0, 0, 1) == lp("2*x^-1")
    assert con.target_class.part(0, 0, 1) == lp("2*x^-2")
    assert con.aux_class.part(0, 0, 1) == lp("2*x^-2")
    assert con.aux_power == 1
    assert con.fiber_product.chart_ring == ("x", "v", "w")
    # every stored splitting satisfies its identity (re-verified independently)
    model_src = torsor_to_glued(con.source_class, "v")
    assert verify_splitting(model_src, con.aux_class, con.split_aux_over_source)


# Two-root depth pairs (n_source, n_target) that the degree schedule splits
# only with the auxiliary class deepened by ``power`` > 1, whatever the
# roots: the construction's retry over ``AUX_POWERS`` is the one route that
# certifies them.
DEEPER_ONLY = [((1, 5), 2), ((5, 3), 2), ((3, 6), 3), ((4, 4), 3)]


@pytest.mark.parametrize("depths, power", DEEPER_ONLY)
def test_pairs_only_a_deeper_auxiliary_class_splits_construct_and_verify(depths, power):
    pair = [build_surface(n, [(1, 1), (-1, 1)], Variant.PLAIN) for n in depths]
    con = cylinder_construction(*pair)
    assert con.aux_power == power
    assert con.aux_class == cylinder.auxiliary_class(con.source_class, con.target_class, power)
    doc = cylinder_proof(con)
    assert doc["construction"]["aux_power"] == power
    assert verify_proof(doc) == (True, [])


def test_a_construction_computes_each_class_once(monkeypatch):
    computed = []

    def counted(surface):
        computed.append(surface)
        return surface_class(surface)

    monkeypatch.setattr(cylinder, "surface_class", counted)
    source, target = s_family(0), s_family(1)
    cylinder_construction(source, target)
    assert computed == [source, target]


def test_rational_roots_pair():
    a = build_surface(1, [(Fraction(1, 2), 1), (Fraction(-3, 2), 1)], Variant.PLAIN)
    b = build_surface(2, [(Fraction(1, 2), 1), (Fraction(-3, 2), 1)], Variant.PLAIN)
    assert cylinder_iso(a, b).is_valid()


# -- counterexample pipeline ----------------------------------------------------


def test_counterexample_danielewski():
    s = build_surface(1, [(1, 1), (-1, 1)], Variant.PLAIN)
    pair = counterexample_pair(s)
    assert pair.partner.n == 2 and pair.partner.roots == s.roots
    assert pair.construction.certificate.is_valid()
    assert pair.invariants.source_profile == ((Fraction(0), (0, 1), 1),)
    assert pair.invariants.target_profile == ((Fraction(0), (0, 1), 2),)
    assert pair.invariants.orbit_equivalent is False
    assert "uniqueness" in pair.invariants.caveat


def test_counterexample_original_equation():
    s = build_surface(1, [(0, 1), (1, 1)], Variant.PLAIN)
    pair = counterexample_pair(s)
    assert pair.partner.equation_str() == "x^2 z = y (y - 1)"
    assert pair.construction.certificate.is_valid()


def test_counterexample_refuses_line_bundle():
    s = build_surface(1, [(0, 1)], Variant.PLAIN)
    with pytest.raises(ValueError, match="line bundle"):
        counterexample_pair(s)


def test_cylinder_presentation_embeds_surface():
    s = s_family(0)
    pres = cylinder_presentation(s)
    assert pres.ring == CYLINDER_RING
    assert pres.generators == (poly_from_str("x*z - y^2 + 1", CYLINDER_RING),)
