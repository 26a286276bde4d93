"""The generated two-dimensional field theory and its symmetries."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

import jetcalc.sigma
from jetcalc import (
    Automorphism,
    NonSkew,
    NotOrthogonal,
    Poly,
    SigmaModelSpec,
    build_sigma,
    check_covariance,
    check_lagrangian_invariance,
    check_poisson_tensor,
    contracted_curvature,
    covariant_derivative,
    euler,
    ikeda_lagrangian,
    is_divergence,
    jacobiator,
    orthogonal_action,
    parse_expr,
    pullback,
    render_expr,
    sigma_bundle,
    sigma_euler_check,
)
from jetcalc.sigma import FACTOR_NOTE

import helpers

SO3_ROWS = (("0", "u3", "-u2"), ("-u3", "0", "u1"), ("u2", "-u1", "0"))
SYMPLECTIC_ROWS = (("0", "1"), ("-1", "0"))
ROT_2D = ((Fraction(3, 5), Fraction(4, 5)), (Fraction(-4, 5), Fraction(3, 5)))
ROT_3D = ((Fraction(3, 5), Fraction(4, 5), 0), (Fraction(-4, 5), Fraction(3, 5), 0), (0, 0, 1))


@pytest.fixture(scope="module")
def spec1():
    return SigmaModelSpec.from_strings(1, (("0",),))


@pytest.fixture(scope="module")
def spec2():
    return SigmaModelSpec.from_strings(2, SYMPLECTIC_ROWS)


@pytest.fixture(scope="module")
def spec3():
    return SigmaModelSpec.from_strings(3, SO3_ROWS)


class TestSigmaBundle:
    def test_chart_layout(self):
        ctx = sigma_bundle(2)
        assert ctx.base_dims == ("x0", "x1")
        assert ctx.fibers == ("u1", "u2", "w10", "w20", "w11", "w21")

    def test_requires_a_field(self):
        with pytest.raises(ValueError):
            sigma_bundle(0)


class TestSigmaModelSpec:
    def test_from_strings(self, spec3):
        ctx = spec3.bundle
        assert spec3.w[0][1] == parse_expr("u3", ctx)
        assert spec3.w[1][0] == parse_expr("-u3", ctx)

    def test_rejects_non_skew(self):
        # the block structure matrix proves skewness, and names its fibers
        with pytest.raises(NonSkew, match=r"^omega\[u1,u2\] != -omega\[u2,u1\]$"):
            SigmaModelSpec.from_strings(2, (("0", "1"), ("1", "0")))
        with pytest.raises(NonSkew, match=r"^omega\[u2,u2\] != -omega\[u2,u2\]$"):
            SigmaModelSpec.from_strings(2, (("0", "0"), ("0", "u1")))

    def test_omega_is_held_by_the_spec(self, spec3):
        assert build_sigma(spec3) == (spec3.bundle, spec3.omega)
        assert build_sigma(spec3)[1] is spec3.omega
        # equality and hashing read n_fields, w and bundle
        again = SigmaModelSpec(3, spec3.w, spec3.bundle)
        assert again == spec3 and hash(again) == hash(spec3)

    def test_rejects_entries_outside_fields(self):
        with pytest.raises(ValueError):
            SigmaModelSpec.from_strings(2, (("0", "w10"), ("-w10", "0")))
        with pytest.raises(ValueError):
            SigmaModelSpec.from_strings(2, (("0", "u1_x0"), ("-u1_x0", "0")))
        with pytest.raises(ValueError):
            SigmaModelSpec.from_strings(2, (("0", "x0"), ("-x0", "0")))
        # before skewness, which W also breaks here
        with pytest.raises(ValueError, match="in the fields alone$"):
            SigmaModelSpec.from_strings(2, (("0", "1"), ("1", "w10")))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            SigmaModelSpec.from_strings(2, (("0",),))

    def test_rejects_mismatched_bundle(self, spec2):
        with pytest.raises(ValueError):
            SigmaModelSpec(3, spec2.w, spec2.bundle)


class TestLagrangian:
    def test_one_field_golden(self, spec1):
        assert render_expr(ikeda_lagrangian(spec1)) == "-u1_x0*w11 + u1_x1*w10"

    def test_expansion_identity(self, spec2, spec3):
        # independent expansion: eps^{mu nu} w^A_mu u_{A,nu}
        #                        + 1/2 eps^{mu nu} W_AB w^A_mu w^B_nu
        for spec in (spec2, spec3):
            ctx = spec.bundle
            N = spec.n_fields
            expanded = Poly.zero(ctx)
            for mu, nu, eps in ((0, 1, 1), (1, 0, -1)):
                for A in range(N):
                    w_mu = parse_expr(f"w{A + 1}{mu}", ctx)
                    u_jet = parse_expr(f"u{A + 1}_x{nu}", ctx)
                    expanded = expanded + w_mu * u_jet * eps
                    for B in range(N):
                        w_nu = parse_expr(f"w{B + 1}{nu}", ctx)
                        expanded = expanded + \
                            spec.w[A][B] * w_mu * w_nu * eps * Fraction(1, 2)
            assert ikeda_lagrangian(spec) == expanded

    def test_covariant_derivative_golden(self, spec3):
        ctx = spec3.bundle
        assert covariant_derivative(spec3, 0, 1) == \
            parse_expr("u1_x1 + u3*w21 - u2*w31", ctx)


class TestEulerCheck:
    def test_w_equations_exact(self, spec1, spec2, spec3):
        for spec in (spec1, spec2, spec3):
            report = sigma_euler_check(spec)
            assert report.passed
            assert dict(report.results)["w_block"] == "exact"
            assert report.residuals == ()

    def test_u_equations_are_half_curvature(self, spec1, spec2, spec3):
        for spec in (spec1, spec2, spec3):
            report = sigma_euler_check(spec)
            results = dict(report.results)
            assert results["u_block_vs_half_curvature"] == "exact"
            assert report.residuals == ()
            assert results["u_block_vs_displayed_curvature"] == "factor 2 off"
        assert "factor of 2" in FACTOR_NOTE

    def test_half_curvature_directly(self, spec3):
        components = euler(ikeda_lagrangian(spec3))
        for A in range(3):
            assert components[A] * 2 == contracted_curvature(spec3, A)

    def test_doubled_curvature_report(self, spec1, spec3, monkeypatch):
        # a wrong curvature fails the u-block with each component's residual
        curvature = jetcalc.sigma.contracted_curvature
        monkeypatch.setattr(jetcalc.sigma, "contracted_curvature",
                            lambda spec, A: curvature(spec, A) * 2)
        results = (("w_block", "exact"), ("u_block_vs_half_curvature", "mismatch"),
                   ("u_block_vs_displayed_curvature", "factor 2 off"))
        for spec, residuals in (
                (spec1, [("E[u1]", "w10_x1 - w11_x0")]),
                (spec3, [("E[u1]", "-w20*w31 + w30*w21 + w10_x1 - w11_x0"),
                         ("E[u2]", "w10*w31 - w30*w11 + w20_x1 - w21_x0"),
                         ("E[u3]", "-w10*w21 + w20*w11 + w30_x1 - w31_x0")])):
            report = sigma_euler_check(spec)
            assert not report.passed
            assert report.results == results
            assert [(where, str(p)) for where, p in report.residuals] == residuals

    def test_one_field_components(self, spec1):
        ctx = spec1.bundle
        components = euler(ikeda_lagrangian(spec1))
        assert components[0] == parse_expr("w11_x0 - w10_x1", ctx)
        # w^1_0 pairs with eps^{0 1} = +1 and the x1 derivative of the field
        assert components[1] == parse_expr("u1_x1", ctx)
        assert components[2] == parse_expr("-u1_x0", ctx)


class TestOrthogonalAction:
    def test_rejects_non_orthogonal(self, spec2):
        with pytest.raises(NotOrthogonal):
            orthogonal_action(spec2, ((2, 0), (0, 1)))
        with pytest.raises(NotOrthogonal):
            orthogonal_action(spec2, ((1, 1), (0, 1)))

    def test_rejects_floats(self, spec2):
        with pytest.raises(TypeError):
            orthogonal_action(spec2, ((0.6, 0.8), (-0.8, 0.6)))

    def test_rejects_wrong_size(self, spec2):
        with pytest.raises(ValueError):
            orthogonal_action(spec2, ((1,),))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(helpers.orthogonal_matrices())
    def test_matches_fraction_loop(self, matrix):
        # the pullback proof rejects exactly the matrices the N^3 loop rejects,
        # at the same entry, and every map it returns is a valid automorphism
        spec = SigmaModelSpec.from_strings(len(matrix), [["0"] * len(matrix)] * len(matrix))
        message = helpers.reference_orthogonality(matrix)
        if message is not None:
            with pytest.raises(NotOrthogonal) as info:
                orthogonal_action(spec, matrix)
            assert str(info.value) == message
            return
        auto = orthogonal_action(spec, matrix)
        Automorphism(spec.bundle, auto.psi, auto.psi_inv)

    def test_no_second_validation(self, spec3, monkeypatch):
        calls = []
        validate = Automorphism.__post_init__
        monkeypatch.setattr(Automorphism, "__post_init__",
                            lambda auto: calls.append(auto) or validate(auto))
        orthogonal_action(spec3, ROT_3D)
        assert calls == []

    def test_action_on_fields(self, spec2):
        ctx = spec2.bundle
        auto = orthogonal_action(spec2, ROT_2D)
        # u_B -> sum_A M[A][B] u_A
        assert auto.psi[0] == parse_expr("3/5*u1 - 4/5*u2", ctx)
        assert auto.psi[1] == parse_expr("4/5*u1 + 3/5*u2", ctx)
        # covector fields move with the same column weights
        assert auto.psi[2] == parse_expr("3/5*w10 - 4/5*w20", ctx)

    def test_lagrangian_invariance(self, spec1, spec2, spec3):
        assert check_lagrangian_invariance(spec2, ROT_2D)
        assert check_lagrangian_invariance(spec3, ROT_3D)
        assert check_lagrangian_invariance(spec1, ((-1,),))

    def test_reflection_breaks_invariance(self, spec2, spec3):
        assert not check_lagrangian_invariance(spec2, ((1, 0), (0, -1)))
        assert not check_lagrangian_invariance(spec3, ((1, 0, 0), (0, -1, 0), (0, 0, 1)))

    def test_invariance_equals_pullback_fixed_point(self, spec3):
        auto = orthogonal_action(spec3, ROT_3D)
        lagrangian = ikeda_lagrangian(spec3)
        assert pullback(lagrangian, auto) == lagrangian


class TestBlockStructure:
    def test_block_layout(self, spec3):
        ctx, omega = build_sigma(spec3)
        assert ctx == spec3.bundle
        u3 = parse_expr("u3", ctx)
        assert omega.entry(0, 1) == u3          # u block
        assert omega.entry(3, 4) == u3          # w_0 block
        assert omega.entry(6, 7) == u3          # w_1 block
        assert omega.entry(0, 3).is_zero        # u cross w_0
        assert omega.entry(3, 6).is_zero        # w_0 cross w_1

    def test_covariance_under_rotation(self, spec3):
        _, omega = build_sigma(spec3)
        assert check_covariance(omega, orthogonal_action(spec3, ROT_3D)).passed

    def test_covariance_fails_for_reflection(self, spec3):
        _, omega = build_sigma(spec3)
        reflect = ((1, 0, 0), (0, -1, 0), (0, 0, 1))
        assert not check_covariance(omega, orthogonal_action(spec3, reflect)).passed

    def test_constant_w_block_is_poisson(self, spec2):
        _, omega = build_sigma(spec2)
        assert check_poisson_tensor(omega).passed

    def test_so3_block_fails_jacobi(self, spec3):
        ctx, omega = build_sigma(spec3)
        report = check_poisson_tensor(omega)
        assert not report.passed
        assert dict(report.residuals)["(u1,w10,w20)"] == parse_expr("-u2", ctx)

    def test_so3_block_jacobiator_not_exact(self, spec3):
        ctx, omega = build_sigma(spec3)
        out = jacobiator(parse_expr("w10", ctx), parse_expr("w20", ctx),
                         parse_expr("u1", ctx), omega)
        assert out == parse_expr("u2", ctx)
        assert not is_divergence(out)

    def test_constant_w_block_jacobiator_exact(self, spec2):
        ctx, omega = build_sigma(spec2)
        out = jacobiator(parse_expr("w10", ctx), parse_expr("w20", ctx),
                         parse_expr("u1", ctx), omega)
        assert is_divergence(out)
