"""Automorphisms, pullbacks, covariance, averaging and invariance checks."""

from fractions import Fraction
import gc
import weakref

from hypothesis import given, settings, strategies as st
import pytest

import jetcalc.symmetry
from jetcalc import (
    Automorphism,
    CheckReport,
    FiniteGroupAction,
    Generator,
    HorizontalForm,
    InvalidGroup,
    JetcalcError,
    MultiIndex,
    OmegaSpec,
    Poly,
    PreconditionFailed,
    check_canonical_density,
    check_covariance,
    check_el_transform,
    check_invariance,
    check_invariant_closure,
    check_pullback_dh_commute,
    d_h,
    euler,
    group_average,
    l2_density,
    parse_expr,
    pullback,
    pullback_form,
)

import helpers


def scale_map(ctx, factor=2):
    """u1 gets scaled; breaks covariance of the constant skew matrix."""
    psi = helpers.fiber_coordinates(ctx)
    psi_inv = helpers.fiber_coordinates(ctx)
    psi[0] = psi[0] * factor
    psi_inv[0] = psi_inv[0] * Fraction(1, factor)
    return Automorphism(ctx, tuple(psi), tuple(psi_inv))


def reflection(ctx):
    """u2 flips sign; an involution that breaks covariance."""
    psi = helpers.fiber_coordinates(ctx)
    psi[1] = -psi[1]
    return Automorphism(ctx, tuple(psi), tuple(psi))


class TestAutomorphism:
    def test_identity(self, ctx1):
        ident = Automorphism.identity(ctx1)
        assert ident.is_identity
        assert pullback(parse_expr("u1*u2_x", ctx1), ident) == parse_expr("u1*u2_x", ctx1)

    def test_wrong_length_rejected(self, ctx1):
        u1 = Poly.generator(ctx1, Generator.jet(0))
        with pytest.raises(ValueError):
            Automorphism(ctx1, (u1,), (u1,))

    def test_jet_entries_rejected(self, ctx1):
        u1x = parse_expr("u1_x", ctx1)
        u2 = parse_expr("u2", ctx1)
        with pytest.raises(ValueError):
            Automorphism(ctx1, (u1x, u2), (u1x, u2))

    def test_bad_inverse_rejected(self, ctx1):
        u1 = parse_expr("u1", ctx1)
        u2 = parse_expr("u2", ctx1)
        with pytest.raises(ValueError):
            Automorphism(ctx1, (u1 * 2, u2), (u1 * 2, u2))

    def test_inverse_and_compose(self, ctx1, rot90):
        shift = helpers.shear(ctx1, 0, Poly.const(ctx1, 1))
        after = shift.compose(rot90)
        # fibers run through the rotation first, then the shift
        assert after.psi[0] == parse_expr("u2 + 1", ctx1)
        assert rot90.compose(shift).psi[0] == parse_expr("u2", ctx1)
        assert after.compose(after.inverse()).is_identity

    def test_inverse_is_a_swap(self, ctx1):
        shift = helpers.shear(ctx1, 0, parse_expr("x*u2^2", ctx1))
        inverse = shift.inverse()
        assert (inverse.psi, inverse.psi_inv) == (shift.psi_inv, shift.psi)
        assert inverse.inverse() == shift
        twice = shift.compose(shift)
        assert twice.inverse().inverse() == twice
        # equality and hashing compare the fields
        rebuilt = Automorphism(ctx1, shift.psi_inv, shift.psi)
        assert inverse == rebuilt and hash(inverse) == hash(rebuilt)
        assert inverse == shift.inverse() and hash(inverse) == hash(shift.inverse())
        assert inverse != shift

    def test_inverse_pair_is_no_reference_cycle(self, ctx1):
        shift = helpers.shear(ctx1, 0, parse_expr("x*u2^2", ctx1))
        inverse = shift.inverse()
        twice = shift.compose(shift)
        psi = shift.psi
        alive = weakref.ref(shift)
        gc.disable()
        try:
            del shift
            assert alive() is None  # freed by reference counting alone
        finally:
            gc.enable()
        assert inverse.inverse().psi == psi
        assert twice.compose(inverse).psi == psi

    def test_compose_takes_no_total_derivative(self, ctx1, rot90, monkeypatch):
        # composition pulls back order-zero fiber maps only
        indices = []
        original = jetcalc.symmetry.iterated_total_derivative
        monkeypatch.setattr(jetcalc.symmetry, "iterated_total_derivative",
                            lambda p, index: indices.append(index) or original(p, index))
        shift = helpers.shear(ctx1, 0, parse_expr("x*u2^2", ctx1))
        first = shift.compose(rot90)
        assert first.compose(first.inverse()).is_identity
        assert indices and all(not index for index in indices)

    def test_prolong_golden(self, ctx1, rot90):
        assert rot90.prolong(0, MultiIndex((0,))) == parse_expr("u2_x", ctx1)
        bent = helpers.shear(ctx1, 0, parse_expr("x^2", ctx1))
        assert bent.prolong(0, MultiIndex((0,))) == parse_expr("u1_x + 2*x", ctx1)
        assert bent.prolong(0, MultiIndex((0, 0))) == parse_expr("u1_xx + 2", ctx1)


class TestPullback:
    def test_golden(self, ctx1, rot90):
        assert pullback(parse_expr("u1_x*u2", ctx1), rot90) == \
            parse_expr("-u1*u2_x", ctx1)

    def test_respects_products_and_sums(self, ctx1):
        rng = helpers.seeded(601)
        for _ in range(50):
            a = helpers.random_automorphism(rng, ctx1)
            p = helpers.random_poly(rng, ctx1)
            q = helpers.random_poly(rng, ctx1)
            assert pullback(p * q, a) == pullback(p, a) * pullback(q, a)
            assert pullback(p + q, a) == pullback(p, a) + pullback(q, a)

    def test_contravariant_composition(self, ctx1):
        rng = helpers.seeded(602)
        for _ in range(25):
            a = helpers.random_automorphism(rng, ctx1)
            b = helpers.random_automorphism(rng, ctx1)
            p = helpers.random_poly(rng, ctx1)
            assert pullback(p, a.compose(b)) == pullback(pullback(p, a), b)

    def test_inverse_round_trip(self, ctx2):
        rng = helpers.seeded(603)
        for _ in range(25):
            a = helpers.random_automorphism(rng, ctx2)
            p = helpers.random_poly(rng, ctx2)
            assert pullback(pullback(p, a), a.inverse()) == p

    def test_commutes_with_dh(self, ctx1, ctx2):
        rng = helpers.seeded(604)
        for i in range(100):
            ctx = ctx1 if i % 2 == 0 else ctx2
            a = helpers.random_automorphism(rng, ctx)
            if i % 4 == 3:
                form = HorizontalForm(ctx, 1, {
                    (0,): helpers.random_poly(rng, ctx),
                    (1,): helpers.random_poly(rng, ctx)})
            else:
                form = HorizontalForm.scalar(helpers.random_poly(rng, ctx))
            assert check_pullback_dh_commute(form, a)

    def test_commutes_with_dh_x_dependent_golden(self, ctx1):
        bent = helpers.shear(ctx1, 0, parse_expr("x^2", ctx1))
        form = HorizontalForm.scalar(parse_expr("u1^2", ctx1))
        assert check_pullback_dh_commute(form, bent)

    def test_broken_prolongation_reports_residuals(self, ctx1, ctx2, monkeypatch):
        """A prolongation off by one on every derived jet breaks both
        chain-rule checks; each names the failing component."""
        original = jetcalc.symmetry.iterated_total_derivative
        monkeypatch.setattr(jetcalc.symmetry, "iterated_total_derivative",
                            lambda p, index: original(p, index) + (1 if index else 0))
        form = HorizontalForm(ctx2, 1, {(0,): parse_expr("u1", ctx2)})
        report = check_pullback_dh_commute(form, helpers.rot90(ctx2))
        assert report == CheckReport(False, (("dx^dy", Poly.const(ctx2, -1)),))
        report = check_el_transform(helpers.rot90(ctx1), parse_expr("1/2*u1_x^2", ctx1))
        assert report == CheckReport(False, (("E[u2]", Poly.const(ctx1, 1)),))


class TestCovariance:
    def test_rotations_pass(self, ctx1, omega_std, rot90):
        assert check_covariance(omega_std, rot90).passed
        tilted = helpers.rotation(ctx1, 0, 1, Fraction(3, 5), Fraction(4, 5))
        assert check_covariance(omega_std, tilted).passed

    def test_area_preserving_shears_pass(self, ctx1, omega_std):
        rng = helpers.seeded(605)
        for _ in range(25):
            a = helpers.random_automorphism(rng, ctx1)
            assert check_covariance(omega_std, a).passed

    def test_scaling_fails_with_residual(self, ctx1, omega_std):
        report = check_covariance(omega_std, scale_map(ctx1))
        assert not report.passed
        assert report.residuals == (("omega[u1,u2]", Poly.const(ctx1, -1)),
                                    ("omega[u2,u1]", Poly.const(ctx1, 1)))

    def test_chart_mismatch(self, ctx2, omega_std):
        with pytest.raises(ValueError):
            check_covariance(omega_std, Automorphism.identity(ctx2))


class TestCanonicalDensity:
    def test_rotation_pairs_pass(self, ctx1, omega_std):
        rng = helpers.seeded(606)
        for _ in range(50):
            a = helpers.random_automorphism(rng, ctx1)
            p = helpers.random_poly(rng, ctx1)
            q = helpers.random_poly(rng, ctx1)
            assert check_canonical_density(omega_std, a, p, q)

    def test_scaling_fails(self, ctx1, omega_std):
        scale = scale_map(ctx1)
        p = parse_expr("u1^2", ctx1)
        q = parse_expr("u2^2", ctx1)
        report = check_canonical_density(omega_std, scale, p, q)
        assert not report.passed
        assert report.residuals == (("E[u1]", parse_expr("8*u2", ctx1)),
                                    ("E[u2]", parse_expr("8*u1", ctx1)))
        moved = l2_density(pullback(p, scale), pullback(q, scale), omega_std)
        defect = moved - pullback(l2_density(p, q, omega_std), scale)
        assert euler(defect) == (parse_expr("8*u2", ctx1), parse_expr("8*u1", ctx1))


class TestEulerTransform:
    def test_rotation_golden(self, ctx1, rot90):
        p = parse_expr("u1^2", ctx1)
        lhs = euler(pullback(p, rot90))
        assert lhs == (Poly.zero(ctx1), parse_expr("2*u2", ctx1))
        assert check_el_transform(rot90, p)

    def test_seeded(self, ctx1, ctx2):
        rng = helpers.seeded(607)
        for i in range(100):
            ctx = ctx1 if i % 2 == 0 else ctx2
            a = helpers.random_automorphism(rng, ctx)
            p = helpers.random_poly(rng, ctx)
            assert check_el_transform(a, p)


class TestFiniteGroupAction:
    def test_generated_c4(self, c4, rot90):
        assert c4.order == 4
        assert any(g == rot90.compose(rot90) for g in c4.elements)

    def test_validation(self, ctx1, rot90):
        ident = Automorphism.identity(ctx1)
        with pytest.raises(ValueError):
            FiniteGroupAction(())
        with pytest.raises(ValueError):
            FiniteGroupAction((ident, ident))
        with pytest.raises(ValueError):
            # closed under composition only with the half turn included
            FiniteGroupAction((ident, rot90))
        half = rot90.compose(rot90)
        with pytest.raises(ValueError):
            FiniteGroupAction((half, rot90))  # identity missing

    def test_generation_cap(self, ctx1):
        drift = helpers.shear(ctx1, 0, parse_expr("x", ctx1))
        with pytest.raises(ValueError):
            FiniteGroupAction.generated_by(drift, max_order=8)

    def test_two_element_group(self, ctx1):
        group = FiniteGroupAction.generated_by(reflection(ctx1))
        assert group.order == 2

    def test_errors_are_typed(self, ctx1, rot90):
        ident = Automorphism.identity(ctx1)
        drift = helpers.shear(ctx1, 0, parse_expr("x", ctx1))
        cases = [
            (lambda: FiniteGroupAction(()), "a group action needs at least the identity"),
            (lambda: FiniteGroupAction((ident, ident)), "duplicate group element"),
            (lambda: FiniteGroupAction((rot90,)), "the identity automorphism must be listed"),
            (lambda: FiniteGroupAction((ident, rot90)),
             "the listed elements are not closed under composition"),
            (lambda: FiniteGroupAction.generated_by(), "at least one generator is required"),
            (lambda: FiniteGroupAction.generated_by(drift, max_order=8),
             "group generation exceeded 8 elements"),
        ]
        for build, message in cases:
            with pytest.raises(InvalidGroup, match=f"^{message}$") as err:
                build()
            assert isinstance(err.value, JetcalcError)
            assert isinstance(err.value, ValueError)

    def test_generated_by_keeps_generators(self, ctx1, rot90, monkeypatch):
        ident = Automorphism.identity(ctx1)
        calls = []
        compose = Automorphism.compose
        monkeypatch.setattr(Automorphism, "compose",
                            lambda g, h: calls.append((g, h)) or compose(g, h))
        group = FiniteGroupAction.generated_by(ident, rot90, ident, rot90)
        assert group._generators == (rot90,)
        assert calls == [(rot90, g) for g in group.elements[1:]]
        assert group.elements == FiniteGroupAction.generated_by(rot90).elements
        assert FiniteGroupAction.generated_by(ident).elements == (ident,)
        assert FiniteGroupAction.generated_by(ident)._generators == ()

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(st.permutations(range(8)))
    def test_listed_d4_in_any_order(self, ctx1, rot90, order):
        d4 = FiniteGroupAction.generated_by(rot90, reflection(ctx1))
        listed = tuple(d4.elements[k] for k in order)
        calls = []
        compose = Automorphism.compose
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Automorphism, "compose",
                          lambda g, h: calls.append((g, h)) or compose(g, h))
            group = FiniteGroupAction(listed)
        generators = group._generators
        assert generators == tuple(g for g in listed if g in generators)
        assert not any(g.is_identity for g in generators)
        # each generator outside the group of the earlier ones at least doubles it
        assert 1 <= len(generators) <= 3
        assert len(calls) <= (d4.order - 1) * len(generators)
        assert set(FiniteGroupAction.generated_by(*generators).elements) == set(listed)


class TestReferenceForms:
    """Composition and generation against the direct substitution and the
    breadth-first loop of `helpers`."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_compose(self, ctx1, ctx2, seed, two_directions):
        rng = helpers.seeded(seed)
        ctx = ctx2 if two_directions else ctx1
        g = helpers.random_automorphism(rng, ctx)
        h = helpers.random_automorphism(rng, ctx)
        composed = g.compose(h)
        assert (composed.psi, composed.psi_inv) == helpers.reference_compose(g, h)

    def test_generated_by_order_d4(self, ctx1, rot90):
        for generators in ((rot90, reflection(ctx1)), (reflection(ctx1), rot90)):
            group = FiniteGroupAction.generated_by(*generators)
            assert group.elements == helpers.reference_generated_by(*generators)

    def test_generated_by_order_three_generators(self, ctx3):
        """Quarter turns in two planes and a reflection: the 48 signed
        permutations of three fibers."""
        images = tuple(helpers.fiber_coordinates(ctx3)[:2]) + (parse_expr("-u3", ctx3),)
        flip = Automorphism(ctx3, images, images)
        generators = (helpers.rot90(ctx3, 0, 1), helpers.rot90(ctx3, 1, 2), flip)
        group = FiniteGroupAction.generated_by(*generators)
        assert group.order == 48
        assert group.elements == helpers.reference_generated_by(*generators)


def assert_passes_validation(auto):
    checked = Automorphism(auto.ctx, auto.psi, auto.psi_inv)
    assert checked == auto
    assert hash(checked) == hash(auto)


class TestTrustedAlgebra:
    """`compose`, `inverse` and `generated_by` skip validation, so their
    results must pass the validating constructors unchanged."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_compose_and_inverse(self, ctx1, ctx2, seed, two_directions):
        rng = helpers.seeded(seed)
        ctx = ctx2 if two_directions else ctx1
        a = helpers.random_automorphism(rng, ctx)
        b = helpers.random_automorphism(rng, ctx)
        for auto in (a.compose(b), a.inverse(), a.compose(b).inverse()):
            assert_passes_validation(auto)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_generated_group(self, ctx1, rot90, seed, with_reflection):
        # h stays affine in the fibers: conjugating by a map quadratic in u
        # makes the intermediate polynomials of the group's compositions swell
        rng = helpers.seeded(seed)
        offset = helpers.random_poly(rng, ctx1, max_degree=2, max_terms=2,
                                     pool=[Generator.base(0)])
        shift = helpers.shear(ctx1, 0, offset + parse_expr("u2", ctx1) * rng.randint(-2, 2))
        h = helpers.random_linear_automorphism(rng, ctx1).compose(shift)
        generators = (rot90, reflection(ctx1)) if with_reflection else (rot90,)
        conjugated = [h.compose(g).compose(h.inverse()) for g in generators]
        group = FiniteGroupAction.generated_by(*conjugated)
        assert group.order == (8 if with_reflection else 4)
        checked = FiniteGroupAction(group.elements)
        assert checked == group
        assert set(checked.elements) == set(group.elements)
        for g in group.elements:
            assert_passes_validation(g)

    def test_two_generator_order(self, ctx1, rot90):
        """Identity first, then breadth first: each element composed with
        each generator in the order given."""
        group = FiniteGroupAction.generated_by(rot90, reflection(ctx1))
        expected = [("u1", "u2"), ("u2", "-u1"), ("u1", "-u2"), ("-u1", "-u2"),
                    ("u2", "u1"), ("-u2", "-u1"), ("-u2", "u1"), ("-u1", "u2")]
        assert [g.psi for g in group.elements] == [
            tuple(parse_expr(e, ctx1) for e in images) for images in expected]
        assert FiniteGroupAction(group.elements) == group


class TestAveraging:
    def test_golden(self, ctx1, c4):
        avg = group_average(HorizontalForm.scalar(parse_expr("u1^2", ctx1)), c4)
        assert avg.scalar_coefficient() == parse_expr("1/2*u1^2 + 1/2*u2^2", ctx1)

    def test_odd_orbit_cancels(self, ctx1, c4):
        avg = group_average(HorizontalForm.scalar(parse_expr("u1", ctx1)), c4)
        assert avg.is_zero

    def test_base_fixed(self, ctx1, c4):
        form = HorizontalForm.scalar(parse_expr("x", ctx1))
        assert group_average(form, c4) == form

    def test_projection_properties_seeded(self, ctx1, c4):
        rng = helpers.seeded(608)
        for _ in range(25):
            form = HorizontalForm.density(helpers.random_poly(rng, ctx1))
            avg = group_average(form, c4)
            assert group_average(avg, c4) == avg
            assert check_invariance(avg, c4)

    def test_commutes_with_dh_seeded(self, ctx1, c4):
        rng = helpers.seeded(609)
        for _ in range(25):
            form = HorizontalForm.scalar(helpers.random_poly(rng, ctx1))
            assert group_average(d_h(form), c4) == d_h(group_average(form, c4))

    def test_invariance_pullback_count(self, ctx1, c4, monkeypatch):
        """The generator's pullback is reused when the element scan runs."""
        calls = []
        pullback_form = jetcalc.symmetry.pullback_form
        monkeypatch.setattr(jetcalc.symmetry, "pullback_form",
                            lambda form, g: calls.append(g) or pullback_form(form, g))
        assert not check_invariance(HorizontalForm.density(parse_expr("u1^2", ctx1)), c4)
        assert len(calls) == c4.order == 4
        calls.clear()
        assert check_invariance(HorizontalForm.density(parse_expr("u1^2 + u2^2", ctx1)), c4)
        assert len(calls) == 1

    def test_invariance_check(self, ctx1, c4):
        good = HorizontalForm.scalar(parse_expr("1/2*u1^2 + 1/2*u2^2", ctx1))
        assert check_invariance(good, c4)
        assert not check_invariance(HorizontalForm.scalar(parse_expr("u1^2", ctx1)), c4)
        # c4 lists the identity, the quarter turn, the half turn, the three-quarter turn
        moved = parse_expr("-u1^2 + u2^2", ctx1)
        report = check_invariance(HorizontalForm.density(parse_expr("u1^2", ctx1)), c4)
        assert report.residuals == (("element[1]", moved), ("element[3]", moved))


class TestInvariantClosure:
    def test_golden_pair(self, ctx1, c4, omega_std):
        alpha = HorizontalForm.density(parse_expr("1/2*u1^2 + 1/2*u2^2", ctx1))
        beta = HorizontalForm.density(parse_expr("1/2*u1_x^2 + 1/2*u2_x^2", ctx1))
        assert check_invariant_closure(alpha, beta, c4, omega_std)

    def test_averaged_pairs_close(self, ctx1, c4, omega_std):
        rng = helpers.seeded(610)
        for _ in range(10):
            alpha = group_average(HorizontalForm.density(helpers.random_poly(rng, ctx1)), c4)
            beta = group_average(HorizontalForm.density(helpers.random_poly(rng, ctx1)), c4)
            assert check_invariant_closure(alpha, beta, c4, omega_std)

    def test_requires_invariant_inputs(self, ctx1, c4, omega_std):
        alpha = HorizontalForm.density(parse_expr("u1^2", ctx1))
        beta = HorizontalForm.density(parse_expr("1/2*u1^2 + 1/2*u2^2", ctx1))
        with pytest.raises(PreconditionFailed):
            check_invariant_closure(alpha, beta, c4, omega_std)
        with pytest.raises(PreconditionFailed):
            check_invariant_closure(beta, alpha, c4, omega_std)

    def test_requires_top_degree(self, ctx1, c4, omega_std):
        scalar = HorizontalForm.scalar(parse_expr("u1^2 + u2^2", ctx1))
        with pytest.raises(PreconditionFailed):
            check_invariant_closure(scalar, scalar, c4, omega_std)

    def test_requires_covariant_omega(self, ctx1, omega_std):
        group = FiniteGroupAction.generated_by(reflection(ctx1))
        alpha = HorizontalForm.density(parse_expr("u1^2", ctx1))
        beta = HorizontalForm.density(parse_expr("u2^2", ctx1))
        with pytest.raises(PreconditionFailed):
            check_invariant_closure(alpha, beta, group, omega_std)


def oracle_group(rng, ctx, name, listed, conjugated):
    """C2 (the u2 reflection), C4 (the quarter turn) or D4 (both), either
    as `generated_by` returns it or listed in a shuffled order, optionally
    conjugated by a seeded shear."""
    generators = {"C2": (reflection(ctx),), "C4": (helpers.rot90(ctx),),
                  "D4": (helpers.rot90(ctx), reflection(ctx))}[name]
    if conjugated:
        # h is affine in the fibers: a shear quadratic in u makes the group's
        # elements quartic, and pulling averaged densities back under them
        # swells to seconds per example
        h = helpers.random_shear(rng, ctx, rng.randrange(ctx.m), max_degree=1)
        generators = tuple(h.compose(g).compose(h.inverse()) for g in generators)
    group = FiniteGroupAction.generated_by(*generators)
    if listed:
        elements = list(group.elements)
        rng.shuffle(elements)
        group = FiniteGroupAction(tuple(elements))
    return group


def oracle_density(rng, ctx, group, kind):
    """A random density, averaged over the group ("group"), over the cyclic
    subgroup of one random element ("subgroup"), or not at all ("random")."""
    form = HorizontalForm.density(helpers.random_poly(rng, ctx, max_order=1))
    if kind == "subgroup":
        return group_average(form, FiniteGroupAction.generated_by(rng.choice(group.elements)))
    return group_average(form, group) if kind == "group" else form


def closure_outcome(check, *args):
    try:
        return check(*args)
    except PreconditionFailed as exc:
        return str(exc)


GROUP_NAMES = st.sampled_from(("C2", "C4", "D4"))
DENSITY_KINDS = st.sampled_from(("random", "subgroup", "group"))


class TestGeneratorOracle:
    """The group checks act on generators only; the per-element scan of
    `helpers` is the reference, verdicts and residuals included."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), GROUP_NAMES, st.booleans(), st.booleans(), DENSITY_KINDS)
    def test_check_invariance(self, ctx1, seed, name, listed, conjugated, kind):
        rng = helpers.seeded(seed)
        group = oracle_group(rng, ctx1, name, listed, conjugated)
        form = oracle_density(rng, ctx1, group, kind)
        expected = helpers.reference_check_invariance(form, group)
        assert check_invariance(form, group) == expected
        if kind == "group":
            assert expected

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), GROUP_NAMES, st.booleans(), st.booleans(),
           DENSITY_KINDS, DENSITY_KINDS, st.booleans())
    def test_check_invariant_closure(self, ctx1, omega_std, seed, name, listed, conjugated,
                                     alpha_kind, beta_kind, scaled_omega):
        rng = helpers.seeded(seed)
        group = oracle_group(rng, ctx1, name, listed, conjugated)
        omega = omega_std
        if scaled_omega:
            u1 = parse_expr("u1", ctx1)
            omega = OmegaSpec(ctx1, tuple(tuple(e * u1 for e in row) for row in omega.entries))
        alpha = oracle_density(rng, ctx1, group, alpha_kind)
        beta = oracle_density(rng, ctx1, group, beta_kind)
        assert (closure_outcome(check_invariant_closure, alpha, beta, group, omega)
                == closure_outcome(helpers.reference_check_invariant_closure,
                                   alpha, beta, group, omega))
