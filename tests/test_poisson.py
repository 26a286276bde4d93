"""Structure matrices, bracket densities, Jacobi checks."""

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import example, given, settings, strategies as st

import jetcalc.poisson
from jetcalc import (
    Automorphism,
    BundleSpec,
    ChartMismatch,
    DegreeError,
    EntryNotOrderZero,
    FiniteGroupAction,
    FunctionalClass,
    Generator,
    HorizontalForm,
    JetcalcError,
    MissingDeclaration,
    ModelFile,
    Monomial,
    NonSkew,
    OmegaSpec,
    Poly,
    bracket,
    check_covariance,
    check_poisson_tensor,
    cyclic_sum,
    is_divergence,
    jacobiator,
    l2_density,
    parse_expr,
    pullback,
    total_derivative,
)
from jetcalc.sigma import SigmaModelSpec, build_sigma, sigma_bundle

import helpers


def omega_from(ctx, rows):
    return OmegaSpec(ctx, tuple(tuple(parse_expr(s, ctx) for s in row) for row in rows))


@pytest.fixture(scope="module")
def omega_affine(ctx1):
    """Skew matrix with a non-constant order-zero entry."""
    return omega_from(ctx1, (("0", "1 + u1^2"), ("-1 - u1^2", "0")))


@pytest.fixture(scope="module")
def omega_bad_jacobi(ctx3):
    """Skew and order zero, but the cyclic condition fails."""
    return omega_from(ctx3, (("0", "u1", "0"), ("-u1", "0", "u2"), ("0", "-u2", "0")))


class TestOmegaSpec:
    def test_shape_validation(self, ctx1):
        one = Poly.const(ctx1, 1)
        with pytest.raises(ValueError):
            OmegaSpec(ctx1, ((one,),))
        with pytest.raises(ValueError):
            OmegaSpec(ctx1, ((one, one), (one,)))

    def test_chart_validation(self, ctx1, ctx2):
        z1, z2 = Poly.zero(ctx1), Poly.zero(ctx2)
        with pytest.raises(ValueError):
            OmegaSpec(ctx1, ((z1, z1), (z2, z1)))

    def test_errors_are_typed(self, ctx1, ctx2, omega_std):
        # the user-caused errors are JetcalcErrors that stay ValueErrors; an
        # operand over another chart raises ChartMismatch at every site
        one, other = Poly.const(ctx1, 1), parse_expr("u1", ctx2)
        here, there = Automorphism.identity(ctx1), Automorphism.identity(ctx2)
        form = HorizontalForm.scalar(one)
        sigma1 = sigma_bundle(1)
        calls = [lambda: OmegaSpec(ctx1, ((one,),)),
                 lambda: OmegaSpec(ctx1, ((one, one), (other, one))),
                 lambda: l2_density(other, other, omega_std),
                 lambda: jacobiator(other, other, other, omega_std),
                 lambda: Poly.sum(ctx1, (one, other)),
                 lambda: one * other,
                 lambda: one.substitute({Generator.jet(0): other}),
                 lambda: HorizontalForm(ctx1, 0, {(): other}),
                 lambda: form + HorizontalForm.scalar(other),
                 lambda: Automorphism(ctx1, here.psi, (one, other)),
                 lambda: here.compose(there),
                 lambda: pullback(other, here),
                 lambda: check_covariance(omega_std, there),
                 lambda: FiniteGroupAction((here, there)),
                 lambda: SigmaModelSpec(1, ((Poly.zero(ctx1),),), ctx1),
                 lambda: SigmaModelSpec(1, ((Poly.zero(ctx1),),), sigma1),
                 ModelFile(ctx1).require_omega, ModelFile(ctx1).require_sigma]
        messages = ["omega must be 2x2 to match the fibers", "omega entry over a different chart",
                    "density over a different chart than omega",
                    "density over a different chart than omega",
                    "polynomials over different bundle charts",
                    "polynomials over different bundle charts",
                    "replacement polynomial over a different chart",
                    "coefficient over a different chart",
                    "cannot add forms of different degree or chart",
                    "psi_inv entry over a different chart", "automorphisms over different charts",
                    "polynomial over a different chart", "automorphism over a different chart",
                    "group elements over different charts",
                    "bundle does not match the generated sigma chart",
                    "structure entry over a different chart",
                    "the model declares no structure matrix (omega)",
                    "the model declares no sigma block"]
        for call, error, message in zip(calls, [ChartMismatch] * 16 + [MissingDeclaration] * 2,
                                        messages, strict=True):
            with pytest.raises(error) as info:
                call()
            assert str(info.value) == message
            assert isinstance(info.value, JetcalcError) and isinstance(info.value, ValueError)
        # a degree mismatch over one chart stays a DegreeError
        with pytest.raises(DegreeError, match="^cannot add forms of different degree or chart$"):
            form + HorizontalForm.density(one)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(helpers.near_skew_omegas())
    def test_validate_matches_row_major_reference(self, drawn):
        # the upper triangle alone finds the first failure of a full pass
        ctx, rows = drawn

        def outcome(build):
            try:
                build(ctx, rows)
            except (NonSkew, EntryNotOrderZero) as error:
                return type(error), str(error)
            return None

        assert outcome(OmegaSpec) == outcome(helpers.reference_validate_omega)

    def test_validate_accepts_standard(self, omega_std, omega_so3, omega_affine):
        for omega in (omega_std, omega_so3, omega_affine):
            assert OmegaSpec(omega.ctx, omega.entries) == omega

    def test_validate_rejects_non_skew(self, ctx1):
        with pytest.raises(NonSkew, match=r"^omega\[u1,u2\] != -omega\[u2,u1\]$"):
            omega_from(ctx1, (("0", "1"), ("1", "0")))
        with pytest.raises(NonSkew, match=r"^omega\[u1,u1\] != -omega\[u1,u1\]$"):
            omega_from(ctx1, (("u1", "0"), ("0", "0")))

    def test_validate_rejects_jet_entries(self, ctx1):
        with pytest.raises(EntryNotOrderZero, match=r"^omega\[u1,u2\] depends on u1_x$"):
            omega_from(ctx1, (("0", "u1_x"), ("-u1_x", "0")))

    def test_validate_rejects_base_entries(self, ctx1):
        with pytest.raises(EntryNotOrderZero, match=r"^omega\[u1,u2\] depends on x$"):
            omega_from(ctx1, (("0", "x"), ("-x", "0")))


class TestPoissonCheck:
    def test_constant_passes(self, omega_std):
        assert check_poisson_tensor(omega_std).passed

    def test_two_fibers_always_pass(self, omega_affine):
        # on two fibers every skew matrix satisfies the cyclic condition
        assert check_poisson_tensor(omega_affine).passed

    def test_so3_passes(self, omega_so3):
        assert check_poisson_tensor(omega_so3).passed

    def test_failing_matrix_reported(self, ctx3, omega_bad_jacobi):
        report = check_poisson_tensor(omega_bad_jacobi)
        assert not report.passed
        (location, residual) = report.residuals[0]
        assert location == "(u1,u2,u3)"
        assert residual == parse_expr("u1", ctx3)

    def test_increasing_triples_decide(self, omega_so3, omega_bad_jacobi):
        # cross-check the a < b < c restriction against all ordered triples
        for omega in (omega_so3, omega_bad_jacobi):
            m = omega.ctx.m
            all_vanish = all(
                cyclic_sum(omega, a, b, c).is_zero
                for a in range(m) for b in range(m) for c in range(m))
            assert all_vanish == check_poisson_tensor(omega).passed

    def test_inadmissible_matrix_raises(self, ctx3):
        # the scan reads the upper triangle only and relies on skewness, which
        # OmegaSpec proves at construction; this matrix's upper triangle is zero
        z, u1, u2, u3 = (parse_expr(t, ctx3) for t in ("0", "u1", "u2", "u3"))
        with pytest.raises(NonSkew, match=r"^omega\[u1,u2\] != -omega\[u2,u1\]$"):
            check_poisson_tensor(OmegaSpec(ctx3, ((z, z, z), (u3, z, z), (u2, u1, z))))
        with pytest.raises(EntryNotOrderZero, match=r"^omega\[u1,u2\] depends on u3_x$"):
            check_poisson_tensor(omega_from(ctx3, (("0", "u3_x", "0"), ("-u3_x", "0", "0"),
                                                   ("0", "0", "0"))))

    def test_cyclic_sum_total_antisymmetry(self, omega_so3, omega_bad_jacobi):
        sign = {p: 1 for p in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]}
        sign.update({p: -1 for p in [(0, 2, 1), (2, 1, 0), (1, 0, 2)]})
        for omega in (omega_so3, omega_bad_jacobi):
            base = cyclic_sum(omega, 0, 1, 2)
            for perm in permutations((0, 1, 2)):
                assert cyclic_sum(omega, *perm) == base * sign[perm]


def dense_cyclic_sum(omega, a, b, c):
    """The cyclic condition summed over every fiber d, zeros included: the
    oracle for the sparse `cyclic_sum`."""
    ctx = omega.ctx
    total = Poly.zero(ctx)
    for d in range(ctx.m):
        du = Generator.jet(d)
        total = total + omega.entry(c, d) * omega.entry(a, b).partial(du)
        total = total + omega.entry(a, d) * omega.entry(b, c).partial(du)
        total = total + omega.entry(b, d) * omega.entry(c, a).partial(du)
    return total


@st.composite
def entry_polys(draw, ctx, gens):
    """Zero, constant, affine or quadratic in `gens`, with small coefficients."""
    terms = []
    for _ in range(draw(st.integers(0, 3))):
        degree = draw(st.integers(0, 2))
        mono = Monomial((draw(st.sampled_from(gens)), 1) for _ in range(degree))
        terms.append((mono, draw(st.sampled_from((-2, -1, 1, 2, Fraction(1, 2))))))
    return Poly.from_terms(ctx, terms)


def skew_rows(ctx, size, upper):
    """A size x size skew matrix from its entries above the diagonal."""
    zero = Poly.zero(ctx)
    rows = [[zero] * size for _ in range(size)]
    for (a, b), entry in upper.items():
        rows[a][b], rows[b][a] = entry, -entry
    return tuple(tuple(row) for row in rows)


@st.composite
def generic_omegas(draw):
    """Dense skew matrices over 3 to 5 fibers; entries may use a parameter."""
    m = draw(st.integers(3, 5))
    ctx = BundleSpec(("x",), tuple(f"u{a + 1}" for a in range(m)), ("k",))
    gens = [Generator.jet(a) for a in range(m)] + [Generator.param(0)]
    upper = {(a, b): draw(entry_polys(ctx, gens)) for a in range(m) for b in range(a + 1, m)}
    return OmegaSpec(ctx, skew_rows(ctx, m, upper))


@st.composite
def sigma_omegas(draw):
    """Block-diagonal sigma structures generated from a 2x2 or 3x3 W."""
    n = draw(st.integers(2, 3))
    ctx = sigma_bundle(n)
    gens = [Generator.jet(a) for a in range(n)]
    upper = {(a, b): draw(entry_polys(ctx, gens)) for a in range(n) for b in range(a + 1, n)}
    return build_sigma(SigmaModelSpec(n, skew_rows(ctx, n, upper), ctx))[1]


def _so3_sigma():
    return build_sigma(SigmaModelSpec.from_strings(
        3, (("0", "u3", "-u2"), ("-u3", "0", "u1"), ("u2", "-u1", "0"))))[1]


def _block_sigma():
    """The sigma structure of a 10-field W made of two so(3) blocks and two
    constant 2x2 blocks: 30 fibers, the size of the largest benchmark model."""
    w = [["0"] * 10 for _ in range(10)]
    for at, scale in ((0, 1), (3, 2)):
        u = [f"u{at + k + 1}" for k in range(3)]
        for (a, b), entry in zip(((0, 1), (1, 2), (2, 0)), (u[2], u[0], u[1])):
            w[at + a][at + b], w[at + b][at + a] = f"{scale}*{entry}", f"-{scale}*{entry}"
    for at, scale in ((6, 3), (8, -1)):
        w[at][at + 1], w[at + 1][at] = str(scale), str(-scale)
    return build_sigma(SigmaModelSpec.from_strings(10, tuple(map(tuple, w))))[1]


@st.composite
def block_omegas(draw):
    """Block-diagonal skew matrices over 6 to 12 fibers, up to relabelling.

    A 3x3 block is an so(3) block (Poisson) or a chain u_i, u_j on two of its
    entries (not Poisson); a 2x2 block is a constant, or a multiple of any
    fiber of the matrix, which couples the block to another one.
    """
    sizes = []
    while sum(sizes) < 6:
        sizes.append(draw(st.sampled_from((2, 3))))
    sizes += draw(st.lists(st.sampled_from((2, 3)), max_size=(12 - sum(sizes)) // 3))
    m = sum(sizes)
    ctx = BundleSpec(("x",), tuple(f"u{a + 1}" for a in range(m)))
    label = draw(st.permutations(range(m)))
    scale = st.sampled_from((-2, -1, 1, 3, Fraction(1, 2)))
    u = [Poly.generator(ctx, Generator.jet(a)) for a in range(m)]
    upper, at = {}, 0
    for size in sizes:
        i, j, *k = sorted(label[at:at + size])
        c = draw(scale)
        if size == 2:
            upper[i, j] = (Poly.const(ctx, c) if draw(st.booleans())
                           else u[draw(st.integers(0, m - 1))] * c)
        elif draw(st.booleans()):
            upper.update({(i, j): u[k[0]] * c, (j, k[0]): u[i] * c, (i, k[0]): u[j] * -c})
        else:
            upper.update({(i, j): u[i] * c, (j, k[0]): u[j] * c})
        at += size
    return OmegaSpec(ctx, skew_rows(ctx, m, upper))


def dense_residuals(omega):
    """The failing triples of every a < b < c, each summed over every d."""
    fibers = omega.ctx.fibers
    return tuple((f"({fibers[a]},{fibers[b]},{fibers[c]})", total)
                 for a in range(omega.ctx.m) for b in range(a + 1, omega.ctx.m)
                 for c in range(b + 1, omega.ctx.m)
                 for total in [dense_cyclic_sum(omega, a, b, c)] if total)


class TestCyclicSumOracle:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.one_of(generic_omegas(), sigma_omegas()))
    @example(_so3_sigma())
    def test_matches_dense_formula(self, omega):
        m = omega.ctx.m
        fibers = omega.ctx.fibers
        expected_failures = []
        for a in range(m):
            for b in range(m):
                for c in range(m):
                    expected = dense_cyclic_sum(omega, a, b, c)
                    assert cyclic_sum(omega, a, b, c) == expected
                    if a < b < c and not expected.is_zero:
                        expected_failures.append(
                            (f"({fibers[a]},{fibers[b]},{fibers[c]})", expected))
        report = check_poisson_tensor(omega)
        assert report.residuals == tuple(expected_failures)
        assert report.passed == (not expected_failures)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(block_omegas())
    @example(_block_sigma())
    def test_sparse_matches_dense_triples(self, omega):
        report = check_poisson_tensor(omega)
        assert report.residuals == dense_residuals(omega)

    def test_visits_only_support_triples(self, monkeypatch):
        omega = _block_sigma()
        triples = []
        cyclic = jetcalc.poisson.cyclic_sum
        monkeypatch.setattr(jetcalc.poisson, "cyclic_sum",
                            lambda omega, *abc: triples.append(abc) or cyclic(omega, *abc))
        report = check_poisson_tensor(omega)
        assert len(triples) < 200            # of C(30, 3) = 4,060
        assert triples == sorted(triples)
        assert not report.passed


class TestBracketDensity:
    def test_golden(self, ctx1, omega_std):
        p = parse_expr("1/2*u1^2 + 1/2*u2^2", ctx1)
        q = parse_expr("1/2*u1_x^2 + 1/2*u2_x^2", ctx1)
        assert l2_density(p, q, omega_std) == parse_expr("-u1*u2_xx + u1_xx*u2", ctx1)

    def test_simple_golden(self, ctx1, omega_std):
        p = parse_expr("1/2*u1^2", ctx1)
        q = parse_expr("1/2*u2^2", ctx1)
        assert l2_density(p, q, omega_std) == parse_expr("u1*u2", ctx1)

    def test_chart_mismatch(self, ctx1, ctx2, omega_std):
        with pytest.raises(ValueError):
            l2_density(parse_expr("u1", ctx2), parse_expr("u2", ctx2), omega_std)

    def test_bilinear_and_skew_seeded(self, ctx1, omega_std, omega_affine):
        rng = helpers.seeded(401)
        for i in range(100):
            omega = omega_std if i % 2 == 0 else omega_affine
            p = helpers.random_poly(rng, ctx1)
            q = helpers.random_poly(rng, ctx1)
            r = helpers.random_poly(rng, ctx1)
            assert l2_density(p + q, r, omega) == \
                l2_density(p, r, omega) + l2_density(q, r, omega)
            c = Fraction(rng.randint(-3, 3))
            assert l2_density(p * c, q, omega) == l2_density(p, q, omega) * c
            assert l2_density(p, q, omega) == -l2_density(q, p, omega)

    def test_representative_independence(self, ctx1, omega_std):
        rng = helpers.seeded(402)
        for _ in range(50):
            p = helpers.random_poly(rng, ctx1)
            q = helpers.random_poly(rng, ctx1)
            h = helpers.random_poly(rng, ctx1)
            shifted = p + total_derivative(h, 0)
            assert l2_density(shifted, q, omega_std) == l2_density(p, q, omega_std)


class TestFunctionalClass:
    def test_equality_mod_divergence(self, ctx1):
        a = FunctionalClass(parse_expr("u1*u2_x", ctx1))
        b = FunctionalClass(parse_expr("-u1_x*u2", ctx1))
        assert a == b
        assert FunctionalClass(parse_expr("u1", ctx1)) != b

    def test_bracket_golden(self, ctx1, omega_std):
        p = FunctionalClass(parse_expr("1/2*u1^2", ctx1))
        q = FunctionalClass(parse_expr("1/2*u2^2", ctx1))
        assert bracket(p, q, omega_std) == FunctionalClass(parse_expr("u1*u2", ctx1))

    def test_bracket_skew_on_classes(self, ctx1, omega_std):
        rng = helpers.seeded(403)
        for _ in range(25):
            p = FunctionalClass(helpers.random_poly(rng, ctx1))
            q = FunctionalClass(helpers.random_poly(rng, ctx1))
            lhs = bracket(p, q, omega_std)
            rhs = FunctionalClass(-bracket(q, p, omega_std).density)
            assert lhs == rhs


    def test_class_ignores_total_derivatives(self, ctx1):
        rng = helpers.seeded(381)
        for _ in range(10):
            p, g = helpers.random_poly(rng, ctx1), helpers.random_poly(rng, ctx1)
            assert FunctionalClass(p) == FunctionalClass(p + total_derivative(g, 0))
        # u1*u2 is no divergence: its Euler components are u2 and u1
        assert FunctionalClass(parse_expr("u1^2*u2_x", ctx1)) != FunctionalClass(
            parse_expr("u1^2*u2_x + u1*u2", ctx1))

    def test_bracket_jacobi_on_classes(self, ctx3, omega_so3):
        # so(3) is a Poisson tensor: the cyclic sum of nested brackets is the
        # zero class, while none of the nested brackets is
        f, g, h = (FunctionalClass(parse_expr(text, ctx3))
                   for text in ("u1*u2_x + u3^2", "u2*u3_x", "u1^2*u3"))
        cyclic = [bracket(bracket(x, y, omega_so3), z, omega_so3)
                  for x, y, z in ((f, g, h), (g, h, f), (h, f, g))]
        total = FunctionalClass(Poly.sum(ctx3, (c.density for c in cyclic)))
        assert total == FunctionalClass(Poly.zero(ctx3))
        assert not all(c == FunctionalClass(Poly.zero(ctx3)) for c in cyclic)

class TestJacobiator:
    def test_golden(self, ctx1, omega_std):
        out = jacobiator(
            parse_expr("u1*u2_x", ctx1),
            parse_expr("u1*u2", ctx1),
            parse_expr("u1^2", ctx1),
            omega_std)
        assert out == parse_expr("4*u1*u1_x", ctx1)

    def test_divergence_for_poisson_omegas(self, ctx1, omega_std, omega_affine):
        rng = helpers.seeded(404)
        for i in range(100):
            omega = omega_std if i % 2 == 0 else omega_affine
            p = helpers.random_poly(rng, ctx1, max_degree=3)
            q = helpers.random_poly(rng, ctx1, max_degree=3)
            r = helpers.random_poly(rng, ctx1, max_degree=3)
            assert is_divergence(jacobiator(p, q, r, omega))

    def test_divergence_for_so3(self, ctx3, omega_so3):
        rng = helpers.seeded(405)
        for _ in range(25):
            p = helpers.random_poly(rng, ctx3, max_degree=2, max_terms=2)
            q = helpers.random_poly(rng, ctx3, max_degree=2, max_terms=2)
            r = helpers.random_poly(rng, ctx3, max_degree=2, max_terms=2)
            assert is_divergence(jacobiator(p, q, r, omega_so3))

    def test_chart_mismatch(self, ctx1, ctx2, omega_std):
        u1, other = parse_expr("u1", ctx1), parse_expr("u1", ctx2)
        for args in ((other, u1, u1), (u1, other, u1), (u1, u1, other)):
            with pytest.raises(ValueError, match="density over a different chart than omega"):
                jacobiator(*args, omega_std)

    def test_each_euler_component_once(self, ctx1, omega_std, monkeypatch):
        # The packed fold runs once per density and once per inner bracket.
        calls = []
        fold = jetcalc.poisson._euler
        monkeypatch.setattr(jetcalc.poisson, "_euler",
                            lambda layout, terms: calls.append(terms) or fold(layout, terms))
        p, q, r = (parse_expr(s, ctx1) for s in ("u1*u2_x", "u1*u2", "u1^2"))
        assert jacobiator(p, q, r, omega_std) == parse_expr("4*u1*u1_x", ctx1)
        assert len(calls) == 6

    def test_non_poisson_breaks_jacobi(self, ctx3, omega_bad_jacobi):
        out = jacobiator(
            parse_expr("u1", ctx3),
            parse_expr("u2", ctx3),
            parse_expr("u3", ctx3),
            omega_bad_jacobi)
        assert out == parse_expr("-u1", ctx3)
        assert not is_divergence(out)
