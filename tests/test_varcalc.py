"""Total derivatives, horizontal forms, Euler operators, inversion."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import jetcalc.kernel

from jetcalc import (
    BundleSpec,
    DegreeError,
    HorizontalForm,
    MultiIndex,
    NotExact,
    Poly,
    Unsupported,
    d_h,
    euler,
    homotopy_s,
    invert_total_derivative,
    is_divergence,
    iterated_total_derivative,
    parse_expr,
    total_derivative,
)

import helpers


class TestTotalDerivative:
    def test_product_golden(self, ctx1):
        p = parse_expr("u1*u2", ctx1)
        assert total_derivative(p, 0) == parse_expr("u1*u2_x + u1_x*u2", ctx1)

    def test_direction_by_name(self, ctx2):
        p = parse_expr("u1", ctx2)
        assert total_derivative(p, "y") == total_derivative(p, 1)

    def test_base_dependence(self, ctx1):
        assert total_derivative(parse_expr("x", ctx1), 0) == 1
        p = parse_expr("x^2*u1", ctx1)
        assert total_derivative(p, 0) == parse_expr("2*x*u1 + x^2*u1_x", ctx1)

    def test_params_are_constants(self):
        from jetcalc import BundleSpec
        ctx = BundleSpec(("x",), ("u1",), params=("c",))
        assert total_derivative(parse_expr("c", ctx), 0).is_zero
        assert total_derivative(parse_expr("c*u1", ctx), 0) == parse_expr("c*u1_x", ctx)

    def test_leibniz_seeded(self, ctx2):
        rng = helpers.seeded(301)
        for i in range(100):
            p = helpers.random_poly(rng, ctx2)
            q = helpers.random_poly(rng, ctx2)
            d = i % 2
            lhs = total_derivative(p * q, d)
            assert lhs == p * total_derivative(q, d) + total_derivative(p, d) * q

    def test_directions_commute(self, ctx2):
        rng = helpers.seeded(302)
        for _ in range(50):
            p = helpers.random_poly(rng, ctx2)
            dxdy = total_derivative(total_derivative(p, 0), 1)
            dydx = total_derivative(total_derivative(p, 1), 0)
            assert dxdy == dydx

    def test_iterated(self, ctx2):
        p = parse_expr("u1^2", ctx2)
        assert iterated_total_derivative(p, MultiIndex((0, 1))) == \
            total_derivative(total_derivative(p, 0), 1)
        assert iterated_total_derivative(p, MultiIndex(())) == p

    def test_order_grows_by_one(self, ctx1):
        rng = helpers.seeded(303)
        for _ in range(50):
            p = helpers.random_poly(rng, ctx1)
            if p.max_order() == 0 and not any(g.is_jet for g in p.generators()):
                continue
            assert total_derivative(p, 0).max_order() <= p.max_order() + 1


class TestHorizontalForm:
    def test_scalar_density_zero(self, ctx2):
        p = parse_expr("u1", ctx2)
        s = HorizontalForm.scalar(p)
        assert s.degree == 0 and s.scalar_coefficient() == p
        d = HorizontalForm.density(p)
        assert d.degree == 2 and d.density_coefficient() == p
        assert HorizontalForm.zero(ctx2, 1).is_zero

    def test_missing_coefficient_is_zero(self, ctx2):
        form = HorizontalForm(ctx2, 1, {(0,): parse_expr("u1", ctx2)})
        assert form.coefficient((1,)).is_zero

    def test_zero_coefficients_dropped(self, ctx2):
        form = HorizontalForm(ctx2, 1, {(0,): Poly.zero(ctx2), (1,): Poly.zero(ctx2)})
        assert form.is_zero
        assert form == HorizontalForm.zero(ctx2, 1)

    def test_index_validation(self, ctx2):
        p = parse_expr("u1", ctx2)
        with pytest.raises(ValueError):
            HorizontalForm(ctx2, 2, {(1, 0): p})
        with pytest.raises(ValueError):
            HorizontalForm(ctx2, 2, {(0, 0): p})
        with pytest.raises(DegreeError):
            HorizontalForm(ctx2, 1, {(0, 1): p})
        with pytest.raises(DegreeError):
            HorizontalForm(ctx2, 3, {})

    def test_arithmetic(self, ctx2):
        p = parse_expr("u1", ctx2)
        q = parse_expr("u2", ctx2)
        a = HorizontalForm(ctx2, 1, {(0,): p})
        b = HorizontalForm(ctx2, 1, {(0,): q, (1,): p})
        assert (a + b).coefficient((0,)) == p + q
        assert (a - a).is_zero
        assert (a * 2).coefficient((0,)) == 2 * p
        assert 2 * a == a * 2
        with pytest.raises(DegreeError):
            a + HorizontalForm.scalar(p)

    def test_difference_is_the_sum_with_the_negation(self, ctx1, ctx2):
        p, q = parse_expr("u1", ctx2), parse_expr("1/2*u2 - u1_y", ctx2)
        a = HorizontalForm(ctx2, 1, {(0,): p})
        b = HorizontalForm(ctx2, 1, {(0,): q, (1,): p})
        f, g = parse_expr("u1*u2_x", ctx1), parse_expr("u1*u2_x - 3*u1^2", ctx1)
        pairs = [(a, b), (b, a), (a, a), (a, HorizontalForm.zero(ctx2, 1)),
                 (HorizontalForm.density(p), HorizontalForm.density(q)),
                 (HorizontalForm.scalar(f), HorizontalForm.scalar(g)),
                 (HorizontalForm.density(g), HorizontalForm.density(f))]
        for x, y in pairs:
            assert x - y == x + y * -1

    def test_difference_makes_no_products(self, ctx2, monkeypatch):
        p, q = parse_expr("u1", ctx2), parse_expr("1/2*u2 - u1_y", ctx2)
        a = HorizontalForm(ctx2, 1, {(0,): p})
        b = HorizontalForm(ctx2, 1, {(0,): q, (1,): p})
        calls = []
        mul = Poly.__mul__
        monkeypatch.setattr(Poly, "__mul__", lambda *args: calls.append(args) or mul(*args))
        assert (a - b).coefficient((1,)) == -p
        assert calls == []
        b * -1  # the negation that a subtraction by a + b * -1 would make
        assert len(calls) == len(b.coeffs) == 2

    def test_wrong_degree_accessors(self, ctx2):
        p = parse_expr("u1", ctx2)
        with pytest.raises(DegreeError):
            HorizontalForm.scalar(p).density_coefficient()
        with pytest.raises(DegreeError):
            HorizontalForm.density(p).scalar_coefficient()


class TestHorizontalDifferential:
    def test_scalar_golden_one_dim(self, ctx1):
        out = d_h(HorizontalForm.scalar(parse_expr("u1*u2", ctx1)))
        assert out.density_coefficient() == parse_expr("u1*u2_x + u1_x*u2", ctx1)

    def test_one_form_insertion_sign(self, ctx2):
        out = d_h(HorizontalForm(ctx2, 1, {(0,): parse_expr("u1", ctx2)}))
        assert out.coefficient((0, 1)) == parse_expr("-u1_y", ctx2)
        out2 = d_h(HorizontalForm(ctx2, 1, {(1,): parse_expr("u1", ctx2)}))
        assert out2.coefficient((0, 1)) == parse_expr("u1_x", ctx2)

    def test_top_degree_rejected(self, ctx1):
        with pytest.raises(DegreeError):
            d_h(HorizontalForm.density(parse_expr("u1", ctx1)))

    def test_dh_squared_zero_seeded(self, ctx2):
        rng = helpers.seeded(304)
        for _ in range(100):
            f = HorizontalForm.scalar(helpers.random_poly(rng, ctx2))
            assert d_h(d_h(f)).is_zero

    def test_dh_squared_zero_on_random_one_forms(self, ctx2):
        # n = 2 only admits d_h twice starting from degree 0, so build
        # degree-0 forms from pairs and check both component orders instead
        rng = helpers.seeded(305)
        for _ in range(100):
            p = helpers.random_poly(rng, ctx2)
            q = helpers.random_poly(rng, ctx2)
            form = HorizontalForm(ctx2, 0, {(): p * q})
            assert d_h(d_h(form)).is_zero


class TestEuler:
    def test_goldens(self, ctx1):
        e = euler(parse_expr("u1*u2_x", ctx1))
        assert e == (parse_expr("u2_x", ctx1), parse_expr("-u1_x", ctx1))
        e2 = euler(parse_expr("1/2*u1_x^2 + 1/2*u2_x^2", ctx1))
        assert e2 == (parse_expr("-u1_xx", ctx1), parse_expr("-u2_xx", ctx1))
        e3 = euler(parse_expr("x*u1", ctx1))
        assert e3 == (parse_expr("x", ctx1), Poly.zero(ctx1))

    def test_two_dim_golden(self, ctx2):
        e = euler(parse_expr("u1_x*u1_y", ctx2))
        assert e == (parse_expr("-2*u1_xy", ctx2), Poly.zero(ctx2))

    def test_kills_total_derivatives(self, ctx1):
        rng = helpers.seeded(306)
        for _ in range(100):
            g = helpers.random_poly(rng, ctx1)
            assert all(c.is_zero for c in euler(total_derivative(g, 0)))

    def test_kills_divergences_two_dim(self, ctx2):
        rng = helpers.seeded(307)
        for _ in range(50):
            f = helpers.random_poly(rng, ctx2)
            g = helpers.random_poly(rng, ctx2)
            div = total_derivative(f, 0) + total_derivative(g, 1)
            assert all(c.is_zero for c in euler(div))

    def test_order_bound(self, ctx1):
        rng = helpers.seeded(308)
        for _ in range(50):
            p = helpers.random_poly(rng, ctx1)
            bound = 2 * p.max_order()
            assert all(c.max_order() <= bound for c in euler(p))

    def test_one_total_derivative_per_prefix(self, ctx2, monkeypatch):
        # The nonempty prefixes of xxy, xy and yy are xxy, xx, x, xy, yy and y;
        # each costs one D along its last direction.  The packed fold applies
        # D_j through its layout's lift table, one `derive_into` call per
        # prefix, with the direction j as an argument.
        calls = []
        derive = jetcalc.kernel._Layout.derive_into

        def counting(layout, out, terms, j, scale):
            calls.append([j])
            return derive(layout, out, terms, j, scale)

        monkeypatch.setattr(jetcalc.kernel._Layout, "derive_into", counting)
        p = parse_expr("u1_xxy*u2 + u1_xy^2 + u2*u1_yy", ctx2)
        assert euler(p) == helpers.reference_euler(p)
        assert sorted(calls) == [[0], [0], [1], [1], [1], [1]]

    def test_is_divergence(self, ctx1):
        assert is_divergence(parse_expr("u1_x", ctx1))
        assert is_divergence(parse_expr("u1*u2_x + u1_x*u2", ctx1))
        assert not is_divergence(parse_expr("u1", ctx1))
        assert not is_divergence(parse_expr("u1*u2_x", ctx1))


CHARTS = tuple(BundleSpec(dims, ("u1", "u2"), ("k",))
               for dims in (("x",), ("x", "y"), ("x", "y", "z")))
CTX2, CTX3 = CHARTS[1], CHARTS[2]


# A 1-, 2- or 3-D base, jets up to order 4, mixed indices such as u1_xy.
densities = st.sampled_from(CHARTS).flatmap(
    lambda ctx: helpers.densities(ctx, 4, include_params=True))


class TestDefinitionalForms:
    """The one-walk total derivative and the nested Euler operator against
    their definitional forms in `helpers`."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(densities)
    @example(parse_expr("u1_x*u1_y + k*u1^2*u1_xy", CTX2))
    @example(parse_expr("x*y*u1_xyz*u2_xx + u1_zz*u2_yyz^2 + z*k", CTX3))
    def test_total_derivative(self, p):
        for i in range(p.ctx.n):
            assert total_derivative(p, i) == helpers.reference_total_derivative(p, i)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(densities)
    @example(parse_expr("u1_x*u1_y + k*u1^2*u1_xy", CTX2))
    @example(parse_expr("u1_xxyy*u2 + u1_xy*u1_yy*u2_xyyy + u2_xyz*u1_xyz", CTX3))
    def test_euler(self, p):
        assert euler(p) == helpers.reference_euler(p)

    @pytest.mark.parametrize("text, chart", [
        ("u1^6*u2_x", CHARTS[0]), ("u1^7 + u1^6*u2_x", CHARTS[0]),
        ("u1^7*u2_x", CHARTS[0]), ("(u1*u2_x)^8", CHARTS[0]),
        ("u1_x^8 + u1^7*u2_x", CHARTS[0]), ("u2_xx^15 + k*u1^7*u1_x^7", CHARTS[0]),
        ("u2_xx^16", CHARTS[0]), ("u1_xy^7 + x*y*u2_y^8", CTX2)])
    def test_euler_at_slot_width_edge(self, text, chart):
        # deg P bounds the packed fold: degrees 7 and 15 give slots of width
        # 3 and 4, which u1^7 and u2_xx^15 fill; 8 and 16 need one bit more,
        # which u1_x^8 and u2_xx^16 fill.
        p = parse_expr(text, chart)
        assert euler(p) == helpers.reference_euler(p)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(helpers.densities(CTX3, 3, include_params=True),
           helpers.densities(CTX3, 3, include_params=True),
           st.integers(1, 12), st.integers(1, 12))
    @example(parse_expr("1/2*u1_xy*u2_z + x*u1_xyz^2", CTX3),
             parse_expr("2/3*y*u2_xz*u1_yy + u1_zz", CTX3), 5, 7)
    def test_euler_three_dim_mixed_denominators(self, p, q, a, b):
        # The fold keeps one denominator per component map: a sum over
        # coprime denominators is reduced once, at the end.
        density = p * Fraction(1, a) + q * Fraction(1, b)
        assert euler(density) == helpers.reference_euler(density)


class TestInvertTotalDerivative:
    def test_goldens(self, ctx1):
        assert invert_total_derivative(parse_expr("4*u1*u1_x", ctx1)) == \
            parse_expr("2*u1^2", ctx1)
        assert invert_total_derivative(parse_expr("u1_xx", ctx1)) == \
            parse_expr("u1_x", ctx1)
        assert invert_total_derivative(parse_expr("u1 + x*u1_x", ctx1)) == \
            parse_expr("x*u1", ctx1)
        assert invert_total_derivative(parse_expr("x^2", ctx1)) == \
            parse_expr("1/3*x^3", ctx1)
        assert invert_total_derivative(Poly.zero(ctx1)).is_zero
        assert invert_total_derivative(Poly.const(ctx1, 5)) == parse_expr("5*x", ctx1)

    def test_exact_antiderivative(self, ctx1):
        # Dividing an int coefficient by the new exponent must stay exact.
        cubic = invert_total_derivative(parse_expr("x^2", ctx1))
        assert cubic == parse_expr("1/3*x^3", ctx1)
        assert str(cubic) == "1/3*x^3"
        g = parse_expr("u1^3*u1_x", ctx1)
        again = invert_total_derivative(total_derivative(g, 0))
        assert again == g
        for p in (cubic, again):
            helpers.assert_normal_coefficients(p)

    def test_mixed_fiber_golden(self, ctx1):
        # both fibers feed the same order; the sweep must not double count
        h = total_derivative(parse_expr("u1*u2", ctx1), 0)
        assert invert_total_derivative(h) == parse_expr("u1*u2", ctx1)

    def test_round_trip_seeded(self, ctx1):
        rng = helpers.seeded(309)
        for _ in range(100):
            g = helpers.random_poly(rng, ctx1)
            h = total_derivative(g, 0)
            assert total_derivative(invert_total_derivative(h), 0) == h

    def test_normal_form_seeded(self, ctx1):
        rng = helpers.seeded(310)
        for _ in range(100):
            g = helpers.random_poly(rng, ctx1)
            g0 = g - Poly.const(ctx1, g.constant_term())
            assert invert_total_derivative(total_derivative(g, 0)) == g0

    def test_not_exact(self, ctx1):
        for text in ("u1", "u1_x*u2_x", "u1*u2_x", "u1_x^2"):
            with pytest.raises(NotExact):
                invert_total_derivative(parse_expr(text, ctx1))

    def test_two_dim_unsupported(self, ctx2):
        with pytest.raises(Unsupported):
            invert_total_derivative(parse_expr("u1_x", ctx2))

    @pytest.mark.parametrize("text, expected", [
        ("x^7", "1/8*x^8"), ("x^15", "1/16*x^16"),
        ("1/3*u1_x*u1^6 + x^3", "1/21*u1^7 + 1/4*x^4"),
        ("k*u1_x*u2 + k*u1*u2_x + 2*k*x", "k*u1*u2 + k*x^2")])
    def test_packed_peel_goldens(self, text, expected):
        # The layout is bounded by deg h + 1: only the last antiderivative in
        # x reaches it, so x^7 and x^15 need widths 4 and 5, not 3 and 4.
        # A declared param is a constant of D_x.
        h = parse_expr(text, CHARTS[0])
        assert invert_total_derivative(h) == parse_expr(expected, CHARTS[0])

    @pytest.mark.parametrize("text, message", [
        ("u1_x*u2_x", "not affine-linear in jet coordinates of order 1"),
        ("u1_x^2", "not affine-linear in jet coordinates of order 1"),
        ("u1*u2_x", "integrability failure at jet order 1"),
        ("u1", "terminal remainder still depends on fiber coordinates")])
    def test_not_exact_message(self, ctx1, text, message):
        with pytest.raises(NotExact) as info:
            invert_total_derivative(parse_expr(text, ctx1))
        assert str(info.value) == message

    # Single terms that are not total derivatives: each has a nonzero Euler
    # component.
    NEAR_MISSES = ("u1", "x*u2", "u1*u2_x", "u1_x^2", "u1^2*u2_xx", "u1_xx^2*u2", "x*u1_x^2")

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(helpers.densities(CHARTS[0], 3, include_params=True),
           st.sampled_from(NEAR_MISSES), st.builds(Fraction, st.integers(-9, 9).filter(bool),
                                                   st.integers(1, 6)))
    @example(parse_expr("u1*u2_x", CHARTS[0]), "u1*u2_x", Fraction(-1))
    def test_near_miss_not_exact(self, s, text, c):
        """D_x S plus one term that is not a divergence has no preimage."""
        h = total_derivative(s, 0) + parse_expr(text, s.ctx) * c
        assert not is_divergence(h)
        with pytest.raises(NotExact):
            invert_total_derivative(h)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(("exact", "perturbed", "random")))
    def test_matches_reference_peel(self, ctx1, seed, kind):
        """Same result, or NotExact with the same message, as the peel that
        tests every monomial for affine-linearity before stripping."""
        rng = helpers.seeded(seed)
        scale = Fraction(rng.randint(1, 5), rng.randint(1, 6))
        p = helpers.random_poly(rng, ctx1, max_order=2, max_terms=4) * scale
        h = {"exact": lambda: total_derivative(p, 0),
             "perturbed": lambda: total_derivative(p, 0) + helpers.random_poly(rng, ctx1),
             "random": lambda: p}[kind]()

        def outcome(invert):
            try:
                return invert(h)
            except NotExact as exc:
                return str(exc)

        assert outcome(invert_total_derivative) == \
            outcome(helpers.reference_invert_total_derivative)


class TestHomotopy:
    def test_golden(self, ctx1):
        out = homotopy_s(HorizontalForm.density(parse_expr("4*u1*u1_x", ctx1)))
        assert out.scalar_coefficient() == parse_expr("-2*u1^2", ctx1)

    def test_splits_dh_seeded(self, ctx1):
        rng = helpers.seeded(311)
        for _ in range(100):
            g = helpers.random_poly(rng, ctx1)
            g = g - Poly.const(ctx1, g.constant_term())
            form = HorizontalForm.scalar(g)
            recovered = homotopy_s(d_h(form)) * -1
            assert recovered == form

    def test_dh_after_s_seeded(self, ctx1):
        rng = helpers.seeded(312)
        for _ in range(50):
            g = helpers.random_poly(rng, ctx1)
            w = d_h(HorizontalForm.scalar(g))
            assert d_h(homotopy_s(w)) == w * -1

    def test_degree_and_base_errors(self, ctx1, ctx2):
        with pytest.raises(DegreeError):
            homotopy_s(HorizontalForm.scalar(parse_expr("u1", ctx1)))
        with pytest.raises(Unsupported):
            homotopy_s(HorizontalForm.density(parse_expr("u1", ctx2)))

    def test_not_exact_propagates(self, ctx1):
        with pytest.raises(NotExact):
            homotopy_s(HorizontalForm.density(parse_expr("u1", ctx1)))
