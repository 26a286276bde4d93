"""End-to-end acceptance checks, one test per headline guarantee.

Each test prints a single ``ACCEPTANCE <nn> <name>: PASS`` line when it
succeeds; the terminal summary hook in conftest repeats one line per
criterion whether it passed or failed.
"""

from fractions import Fraction

from jetcalc import (
    Automorphism,
    HorizontalForm,
    Poly,
    SigmaModelSpec,
    build_sigma,
    check_canonical_density,
    check_covariance,
    check_el_transform,
    check_invariance,
    check_invariant_closure,
    check_lagrangian_invariance,
    check_poisson_tensor,
    check_pullback_dh_commute,
    d_h,
    euler,
    group_average,
    homotopy_s,
    invert_total_derivative,
    jacobiator,
    l2_density,
    l3,
    orthogonal_action,
    parse_expr,
    render_expr,
    sigma_euler_check,
    total_derivative,
)
from jetcalc.sigma import FACTOR_NOTE

import helpers

SO3_ROWS = (("0", "u3", "-u2"), ("-u3", "0", "u1"), ("u2", "-u1", "0"))
ROT3 = (
    (Fraction(3, 5), Fraction(4, 5), Fraction(0)),
    (Fraction(-4, 5), Fraction(3, 5), Fraction(0)),
    (Fraction(0), Fraction(0), Fraction(1)),
)


def _report(number, label):
    print(f"ACCEPTANCE {number:02d} {label}: PASS")


def test_criterion_01_golden_pipeline(ctx1, omega_std):
    p1 = parse_expr("u1*u2_x", ctx1)
    p2 = parse_expr("u1*u2", ctx1)
    p3 = parse_expr("u1^2", ctx1)

    jac = jacobiator(p1, p2, p3, omega_std)
    assert render_expr(jac) == "4*u1*u1_x"

    corrector = l3(p1, p2, p3, omega_std)
    assert corrector.degree == 1
    assert render_expr(corrector.form.scalar_coefficient()) == "-2*u1^2"

    # The corrector repairs the Jacobi defect exactly.
    assert (jac + d_h(corrector.form).density_coefficient()).is_zero
    _report(1, "golden-pipeline")


def test_criterion_02_golden_bracket(ctx1, omega_std, c4):
    h1 = parse_expr("1/2*u1^2 + 1/2*u2^2", ctx1)
    h2 = parse_expr("1/2*u1_x^2 + 1/2*u2_x^2", ctx1)
    density = l2_density(h1, h2, omega_std)
    assert render_expr(density) == "-u1*u2_xx + u1_xx*u2"
    assert check_invariance(HorizontalForm.density(density), c4)
    _report(2, "golden-bracket")


def test_criterion_03_shlie_relations(ctx1, omega_std):
    rng = helpers.seeded(9103)
    for _ in range(100):
        p = helpers.random_poly(rng, ctx1, max_order=2, max_degree=3)
        q = helpers.random_poly(rng, ctx1, max_order=2, max_degree=3)
        r = helpers.random_poly(rng, ctx1, max_order=2, max_degree=3)
        jac = jacobiator(p, q, r, omega_std)
        corrector = l3(p, q, r, omega_std)
        assert (jac + d_h(corrector.form).density_coefficient()).is_zero

        g = helpers.random_poly(rng, ctx1, max_order=2, max_degree=3)
        assert l2_density(p, total_derivative(g, 0), omega_std).is_zero
    _report(3, "shlie-relations")


def test_criterion_04_null_lagrangians(ctx1, ctx2):
    rng = helpers.seeded(9104)
    for _ in range(200):
        g = helpers.random_poly(rng, ctx1)
        assert all(component.is_zero for component in euler(total_derivative(g, 0)))

    for _ in range(200):
        g = helpers.random_poly(rng, ctx2)
        assert d_h(d_h(HorizontalForm.scalar(g))).is_zero

    for _ in range(200):
        g = helpers.random_poly(rng, ctx1)
        h = total_derivative(g, 0)
        assert total_derivative(invert_total_derivative(h), 0) == h

    for _ in range(200):
        g = helpers.random_poly(rng, ctx1)
        g = g - Poly.const(ctx1, g.constant_term())
        form = HorizontalForm.scalar(g)
        assert homotopy_s(d_h(form)) * -1 == form
    _report(4, "null-lagrangians")


def test_criterion_05_covariance_canonicity(ctx1, omega_std, rot90):
    rot35 = helpers.rotation(ctx1, 0, 1, Fraction(3, 5), Fraction(4, 5))
    for auto in (rot90, rot35):
        assert check_covariance(omega_std, auto).passed

    rng = helpers.seeded(9105)
    for _ in range(50):
        p = helpers.random_poly(rng, ctx1)
        q = helpers.random_poly(rng, ctx1)
        assert check_canonical_density(omega_std, rot90, p, q)
        assert check_canonical_density(omega_std, rot35, p, q)

    scale = Automorphism(
        ctx1,
        (parse_expr("2*u1", ctx1), parse_expr("u2", ctx1)),
        (parse_expr("1/2*u1", ctx1), parse_expr("u2", ctx1)),
    )
    report = check_covariance(omega_std, scale)
    assert not report.passed
    assert report.residuals == (
        ("omega[u1,u2]", Poly.const(ctx1, -1)),
        ("omega[u2,u1]", Poly.const(ctx1, 1)),
    )
    assert not check_canonical_density(
        omega_std, scale, parse_expr("u1^2", ctx1), parse_expr("u2^2", ctx1))
    _report(5, "covariance-canonicity")


def test_criterion_06_el_transform(ctx1):
    rng = helpers.seeded(9106)
    for _ in range(100):
        p = helpers.random_poly(rng, ctx1)
        auto = helpers.random_automorphism(rng, ctx1)
        assert check_el_transform(auto, p)
    _report(6, "el-transform")


def test_criterion_07_pullback_commutation(ctx1, ctx2):
    rng = helpers.seeded(9107)
    for _ in range(60):
        form = HorizontalForm.scalar(helpers.random_poly(rng, ctx1))
        auto = helpers.random_automorphism(rng, ctx1, x_dependent=True)
        assert check_pullback_dh_commute(form, auto)

    for _ in range(40):
        auto = helpers.random_automorphism(rng, ctx2, x_dependent=True)
        scalar = HorizontalForm.scalar(helpers.random_poly(rng, ctx2))
        assert check_pullback_dh_commute(scalar, auto)
        one_form = HorizontalForm(ctx2, 1, {
            (0,): helpers.random_poly(rng, ctx2),
            (1,): helpers.random_poly(rng, ctx2),
        })
        assert check_pullback_dh_commute(one_form, auto)

    # A map whose fiber entries depend on the base point.
    shear = helpers.shear(ctx1, 0, parse_expr("x^2", ctx1))
    assert check_pullback_dh_commute(
        HorizontalForm.scalar(parse_expr("u1*u2_x", ctx1)), shear)
    _report(7, "pullback-commutation")


def test_criterion_08_averaging_reduction(ctx1, omega_std, c4):
    averaged = group_average(HorizontalForm.density(parse_expr("u1^2", ctx1)), c4)
    assert averaged == HorizontalForm.density(parse_expr("1/2*u1^2 + 1/2*u2^2", ctx1))

    rng = helpers.seeded(9108)
    for _ in range(25):
        form = HorizontalForm.density(helpers.random_poly(rng, ctx1))
        avg = group_average(form, c4)
        assert group_average(avg, c4) == avg
        assert check_invariance(avg, c4)

        scalar = HorizontalForm.scalar(helpers.random_poly(rng, ctx1))
        assert d_h(group_average(scalar, c4)) == group_average(d_h(scalar), c4)

    for _ in range(50):
        alpha = group_average(HorizontalForm.density(helpers.random_poly(rng, ctx1)), c4)
        beta = group_average(HorizontalForm.density(helpers.random_poly(rng, ctx1)), c4)
        assert check_invariant_closure(alpha, beta, c4, omega_std)
    _report(8, "averaging-reduction")


def test_criterion_09_sigma_model():
    specs = {
        1: SigmaModelSpec.from_strings(1, (("0",),)),
        2: SigmaModelSpec.from_strings(2, (("0", "1"), ("-1", "0"))),
        3: SigmaModelSpec.from_strings(3, SO3_ROWS),
    }
    for spec in specs.values():
        report = sigma_euler_check(spec)
        assert report.results == (("w_block", "exact"),
                                  ("u_block_vs_half_curvature", "exact"),
                                  ("u_block_vs_displayed_curvature", "factor 2 off"))
    assert "factor of 2" in FACTOR_NOTE

    spec3 = specs[3]
    _, block = build_sigma(spec3)
    action = orthogonal_action(spec3, ROT3)
    assert check_covariance(block, action).passed
    assert check_lagrangian_invariance(spec3, ROT3)
    _report(9, "sigma-model")


def test_criterion_10_jacobi_failure_detection():
    spec3 = SigmaModelSpec.from_strings(3, SO3_ROWS)
    ctx, block = build_sigma(spec3)
    w10 = parse_expr("w10", ctx)
    w20 = parse_expr("w20", ctx)
    u1 = parse_expr("u1", ctx)

    # Direct test: the Jacobi defect of this triple is not a divergence.
    defect = jacobiator(w10, w20, u1, block)
    assert defect == parse_expr("u2", ctx)
    assert any(not component.is_zero for component in euler(defect))

    # Full-matrix cyclic check: the surviving cross term is reported.
    report = check_poisson_tensor(block)
    assert not report.passed
    assert dict(report.residuals)["(u1,w10,w20)"] == parse_expr("-u2", ctx)

    # A constant structure matrix passes both tests.
    spec2 = SigmaModelSpec.from_strings(2, (("0", "1"), ("-1", "0")))
    ctx2s, block2 = build_sigma(spec2)
    assert check_poisson_tensor(block2).passed
    constant_defect = jacobiator(
        parse_expr("w10", ctx2s), parse_expr("w20", ctx2s),
        parse_expr("u1", ctx2s), block2)
    assert all(component.is_zero for component in euler(constant_defect))
    _report(10, "jacobi-failure-detection")
