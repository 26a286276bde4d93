"""Graded elements and the l1, l2, l3 structure maps."""

import pytest
from hypothesis import example, given, settings, strategies as st

import jetcalc.poisson
import jetcalc.shlie
from jetcalc import (
    BundleSpec,
    ChartMismatch,
    CheckReport,
    DegreeError,
    GradedElement,
    HorizontalForm,
    NotExact,
    OmegaSpec,
    Poly,
    Unsupported,
    check_shlie_relations,
    d_h,
    jacobiator,
    l1,
    l2,
    l3,
    parse_expr,
    total_derivative,
)

import helpers


def omega_from(ctx, rows):
    return OmegaSpec(ctx, tuple(tuple(parse_expr(s, ctx) for s in row) for row in rows))


def _standard_omegas(dims):
    """The constant, the affine (1 + u1^2) and the so(3) structure matrix over
    a base with the given directions."""
    plane, space = BundleSpec(dims, ("u1", "u2")), BundleSpec(dims, ("u1", "u2", "u3"))
    return (omega_from(plane, (("0", "1"), ("-1", "0"))),
            omega_from(plane, (("0", "1 + u1^2"), ("-1 - u1^2", "0"))),
            omega_from(space, (("0", "u3", "-u2"), ("-u3", "0", "u1"), ("u2", "-u1", "0"))))


LINE_OMEGAS, PLANE_OMEGAS = _standard_omegas(("x",)), _standard_omegas(("x", "y"))


def _triple(omega, *texts):
    return (omega,) + tuple(parse_expr(text, omega.ctx) for text in texts)


# A structure matrix over a 1- or 2-D base and three densities over its chart.
jacobiator_inputs = st.sampled_from(LINE_OMEGAS + PLANE_OMEGAS).flatmap(
    lambda omega: st.tuples(st.just(omega), *(helpers.densities(omega.ctx, 2) for _ in range(3))))


class TestGradedElement:
    def test_density_and_zero(self, ctx1):
        e = GradedElement.density(parse_expr("u1", ctx1))
        assert e.degree == 0
        assert e.form.degree == 1
        z = GradedElement.zero(ctx1, 1)
        assert z.is_zero and z.form.degree == 0

    def test_degree_bounds(self, ctx1):
        with pytest.raises(DegreeError):
            GradedElement(2, HorizontalForm.scalar(parse_expr("u1", ctx1)))
        with pytest.raises(DegreeError):
            GradedElement(-1, HorizontalForm.density(parse_expr("u1", ctx1)))

    def test_degree_form_mismatch(self, ctx1):
        with pytest.raises(DegreeError):
            GradedElement(0, HorizontalForm.scalar(parse_expr("u1", ctx1)))
        with pytest.raises(DegreeError):
            GradedElement(1, HorizontalForm.density(parse_expr("u1", ctx1)))


class TestL1:
    def test_is_horizontal_differential(self, ctx1):
        g = parse_expr("u1^2", ctx1)
        e = GradedElement(1, HorizontalForm.scalar(g))
        out = l1(e)
        assert out.degree == 0
        assert out.form.density_coefficient() == total_derivative(g, 0)

    def test_undefined_on_densities(self, ctx1):
        with pytest.raises(DegreeError):
            l1(GradedElement.density(parse_expr("u1", ctx1)))

    def test_nilpotent_two_dim(self, ctx2):
        rng = helpers.seeded(501)
        for _ in range(25):
            e = GradedElement(2, HorizontalForm.scalar(helpers.random_poly(rng, ctx2)))
            assert l1(l1(e)).is_zero


class TestL2:
    def test_density_case(self, ctx1, omega_std):
        p = GradedElement.density(parse_expr("1/2*u1^2", ctx1))
        q = GradedElement.density(parse_expr("1/2*u2^2", ctx1))
        out = l2(p, q, omega_std)
        assert out.degree == 0
        assert out.form.density_coefficient() == parse_expr("u1*u2", ctx1)

    def test_vanishes_on_positive_degree(self, ctx1, omega_std):
        p = GradedElement.density(parse_expr("u1", ctx1))
        g = GradedElement(1, HorizontalForm.scalar(parse_expr("u2", ctx1)))
        assert l2(p, g, omega_std).is_zero
        assert l2(p, g, omega_std).degree == 1
        assert l2(g, p, omega_std).is_zero

    def test_degree_overflow(self, ctx1, omega_std):
        g = GradedElement(1, HorizontalForm.scalar(parse_expr("u1", ctx1)))
        h = GradedElement(1, HorizontalForm.scalar(parse_expr("u2", ctx1)))
        with pytest.raises(DegreeError):
            l2(g, h, omega_std)

    def test_second_relation_seeded(self, ctx1, omega_std):
        # l2(f, l1 g) = 0 because the Euler operator kills total derivatives
        rng = helpers.seeded(502)
        for _ in range(50):
            f = GradedElement.density(helpers.random_poly(rng, ctx1))
            g = GradedElement(1, HorizontalForm.scalar(helpers.random_poly(rng, ctx1)))
            assert l2(f, l1(g), omega_std).is_zero


class TestL3:
    def test_golden(self, ctx1, omega_std):
        out = l3(
            parse_expr("u1*u2_x", ctx1),
            parse_expr("u1*u2", ctx1),
            parse_expr("u1^2", ctx1),
            omega_std)
        assert out.degree == 1
        assert out.form.scalar_coefficient() == parse_expr("-2*u1^2", ctx1)

    def test_closes_third_relation_seeded(self, ctx1, omega_std):
        rng = helpers.seeded(503)
        for _ in range(50):
            p = helpers.random_poly(rng, ctx1, max_degree=3)
            q = helpers.random_poly(rng, ctx1, max_degree=3)
            r = helpers.random_poly(rng, ctx1, max_degree=3)
            jac = jacobiator(p, q, r, omega_std)
            correction = d_h(l3(p, q, r, omega_std).form).density_coefficient()
            assert (jac + correction).is_zero

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(jacobiator_inputs)
    # Degree bounds 2 deg omega + deg p + deg q + deg r of 7, 8, 15 and 16,
    # at and just past the top of a slot width.
    @example(_triple(LINE_OMEGAS[0], "u1^2*u2_x", "u1*u2_x", "u2^2"))
    @example(_triple(LINE_OMEGAS[2], "u1*u2_x*u3", "u3*u1_x", "u2"))
    @example(_triple(LINE_OMEGAS[1], "u1^3*u2_xx^2", "u1*u2_x^3", "u2_x*u1"))
    @example(_triple(PLANE_OMEGAS[2], "u1_x*u2_y^3*u3", "u3^2*u1_xy^2*u2", "u2_y*u1^3"))
    def test_jacobiator_matches_nested_reference(self, drawn):
        # Over a 1-D base the corrector closes the third relation as well.
        omega, p, q, r = drawn
        jac = jacobiator(p, q, r, omega)
        assert jac == helpers.reference_jacobiator(p, q, r, omega)
        if omega.ctx.n == 1:
            assert (jac + d_h(l3(p, q, r, omega).form).density_coefficient()).is_zero

    def test_two_dim_unsupported(self, ctx2):
        omega = omega_from(ctx2, (("0", "1"), ("-1", "0")))
        u = parse_expr("u1", ctx2)
        with pytest.raises(Unsupported, match="l3 is implemented over a one-dimensional base"):
            l3(u, u, u, omega)

    def test_non_poisson_omega_not_exact(self, ctx3):
        omega = omega_from(ctx3, (("0", "u1", "0"), ("-u1", "0", "u2"), ("0", "-u2", "0")))
        with pytest.raises(NotExact):
            l3(parse_expr("u1", ctx3), parse_expr("u2", ctx3),
               parse_expr("u3", ctx3), omega)


class TestCheckRelations:
    def test_passes_on_samples(self, ctx1, omega_std):
        rng = helpers.seeded(504)
        triples = [tuple(helpers.random_poly(rng, ctx1) for _ in range(3))
                   for _ in range(10)]
        pairs = [tuple(helpers.random_poly(rng, ctx1) for _ in range(2))
                 for _ in range(10)]
        report = check_shlie_relations(omega_std, triples=triples, pairs=pairs)
        assert report.passed
        assert report.residuals == ()

    def test_accepts_explicit_forms_in_pairs(self, ctx1, omega_std):
        f = parse_expr("u1^2", ctx1)
        g = HorizontalForm.scalar(parse_expr("u1*u2", ctx1))
        report = check_shlie_relations(omega_std, pairs=[(f, g)])
        assert report.passed

    def test_arguments_fail_in_order(self, ctx1, ctx3, omega_std):
        # Each pair is checked (l1 of g, then the charts of f and D_x g)
        # before the next, and all before the layout is sized, so the first
        # bad pair decides the error.
        u = parse_expr("u1", ctx1)
        foreign = parse_expr("u1", ctx3)
        one_form = HorizontalForm.density(u)
        with pytest.raises(ChartMismatch, match="density over a different chart than omega"):
            check_shlie_relations(omega_std, pairs=[(foreign, u), (u, one_form)])
        with pytest.raises(DegreeError, match="needs a 0-form, got a 1-form"):
            check_shlie_relations(omega_std, pairs=[(u, one_form), (foreign, u)])
        with pytest.raises(ChartMismatch):
            check_shlie_relations(omega_std, triples=[(u, u, foreign)], pairs=[(u, u)])

    def test_one_jacobiator_per_triple(self, ctx1, omega_std, monkeypatch):
        # The check builds each Jacobiator from packed Euler vectors of its
        # densities and of the inner brackets: one packed fold each.
        jacobiators, eulers = [], []
        jac, fold = jetcalc.shlie._jacobiator, jetcalc.poisson._euler
        monkeypatch.setattr(jetcalc.shlie, "_jacobiator",
                            lambda *args: jacobiators.append(args) or jac(*args))
        monkeypatch.setattr(jetcalc.poisson, "_euler",
                            lambda layout, terms: eulers.append(terms) or fold(layout, terms))
        rng = helpers.seeded(505)
        triples = [tuple(helpers.random_poly(rng, ctx1) for _ in range(3)) for _ in range(4)]
        assert check_shlie_relations(omega_std, triples=triples).passed
        assert len(jacobiators) == 4
        assert len(eulers) == 6 * 4

    def test_each_density_once_per_call(self, ctx1, omega_std, monkeypatch):
        # The arguments of `check shlie P1 P2 P3`: the distinct densities are
        # p, q, r, D_x q, D_x r and the three inner brackets, 8 of the 12
        # packed folds that separate l2 and Jacobiator calls make.
        eulers = []
        fold = jetcalc.poisson._euler
        monkeypatch.setattr(jetcalc.poisson, "_euler",
                            lambda layout, terms: eulers.append(terms) or fold(layout, terms))
        rng = helpers.seeded(506)
        p, q, r = (helpers.random_poly(rng, ctx1) for _ in range(3))
        pairs = [(p, q), (p, r), (q, r)]
        report = check_shlie_relations(omega_std, triples=[(p, q, r)], pairs=pairs)
        assert len(eulers) == 8
        monkeypatch.undo()
        expected = [(f"pair[{k}]", l2(GradedElement.density(f),
                                      l1(GradedElement(1, HorizontalForm.scalar(g))),
                                      omega_std).form.density_coefficient())
                    for k, (f, g) in enumerate(pairs)]
        jac = jacobiator(p, q, r, omega_std)
        expected.append(("triple[0]", jac + d_h(l3(p, q, r, omega_std).form)
                         .density_coefficient()))
        assert report == CheckReport.of(expected)

    def test_two_dim_unsupported(self, ctx2, monkeypatch):
        # The base dimension is rejected before any Jacobiator is computed.
        jacobiators = []
        jac = jetcalc.shlie._jacobiator
        monkeypatch.setattr(jetcalc.shlie, "_jacobiator",
                            lambda *args: jacobiators.append(args) or jac(*args))
        omega = omega_from(ctx2, (("0", "1"), ("-1", "0")))
        u = parse_expr("u1", ctx2)
        with pytest.raises(Unsupported, match="l3 is implemented over a one-dimensional base"):
            check_shlie_relations(omega, triples=[(u, u, u)])
        assert jacobiators == []

    def test_not_exact_propagates(self, ctx3):
        omega = omega_from(ctx3, (("0", "u1", "0"), ("-u1", "0", "u2"), ("0", "-u2", "0")))
        triple = (parse_expr("u1", ctx3), parse_expr("u2", ctx3), parse_expr("u3", ctx3))
        with pytest.raises(NotExact):
            check_shlie_relations(omega, triples=[triple])
