"""Core term-order, multi-index and polynomial arithmetic tests."""

import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jetcalc import kernel
from jetcalc import (
    Automorphism,
    BundleSpec,
    CheckReport,
    Generator,
    HorizontalForm,
    Monomial,
    MultiIndex,
    Poly,
    SigmaModelSpec,
    UnknownName,
    build_sigma,
    check_canonical_density,
    check_covariance,
    check_el_transform,
    check_invariance,
    check_invariant_closure,
    check_lagrangian_invariance,
    check_poisson_tensor,
    check_pullback_dh_commute,
    check_shlie_relations,
    parse_expr,
    sigma_euler_check,
)

import helpers


def gen_u(ctx, a, *entries):
    return Generator.jet(a, MultiIndex(entries))


class TestBundleSpec:
    def test_basic_shape(self, ctx2):
        assert ctx2.n == 2
        assert ctx2.m == 2
        assert ctx2.base_dims == ("x", "y")
        assert ctx2.fibers == ("u1", "u2")

    def test_requires_base_and_fiber(self):
        with pytest.raises(ValueError):
            BundleSpec((), ("u1",))
        with pytest.raises(ValueError):
            BundleSpec(("x",), ())

    def test_rejects_bad_identifiers(self):
        with pytest.raises(ValueError):
            BundleSpec(("x",), ("u_1",))
        with pytest.raises(ValueError):
            BundleSpec(("1x",), ("u1",))
        with pytest.raises(ValueError):
            BundleSpec(("x",), ("u1",), params=("a b",))

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError):
            BundleSpec(("x", "x"), ("u1",))
        with pytest.raises(ValueError):
            BundleSpec(("x",), ("u1", "u1"))
        with pytest.raises(ValueError):
            BundleSpec(("x",), ("x",))

    def test_rejects_prefix_overlapping_directions(self):
        # jet suffixes are decoded greedily, so one direction name must not
        # be a prefix of another
        with pytest.raises(ValueError):
            BundleSpec(("x", "xy"), ("u1",))

    def test_resolve(self, ctx1, ctx2):
        assert ctx1.resolve("x") == Generator.base(0)
        assert ctx1.resolve("u2") == gen_u(ctx1, 1)
        with pytest.raises(UnknownName):
            ctx1.resolve("v")
        # jet names: the suffix word is a multiset over the directions
        u1_xy = Generator.jet(0, MultiIndex((0, 1)))
        assert ctx2.resolve("u1_yx") == ctx2.resolve("u1_xy") == u1_xy
        assert ctx2.resolve(u1_xy.name(ctx2)) == u1_xy
        for name in ("u1_", "u1_xz", "x_x", "v_x"):
            with pytest.raises(UnknownName) as err:
                ctx2.resolve(name)
            assert (err.value.name, err.value.position) == (name, None)

    def test_resolve_param(self):
        ctx = BundleSpec(("x",), ("u1",), params=("c",))
        assert ctx.resolve("c") == Generator.param(0)

    def test_direction_and_fiber_index(self, ctx2):
        assert ctx2.direction_index("y") == 1
        assert ctx2.fiber_index("u1") == 0
        with pytest.raises(UnknownName):
            ctx2.direction_index("u1")
        with pytest.raises(UnknownName):
            ctx2.fiber_index("x")

    def test_split_suffix_greedy(self, ctx2):
        assert ctx2.split_suffix("xxy") == (0, 0, 1)
        # raw reading order; MultiIndex sorts it afterwards
        assert ctx2.split_suffix("yx") == (1, 0)
        assert MultiIndex(ctx2.split_suffix("yx")) == MultiIndex((0, 1))
        with pytest.raises(UnknownName):
            ctx2.split_suffix("xz")


class TestMultiIndex:
    def test_entries_are_sorted(self):
        assert MultiIndex((1, 0)).entries == (0, 1)
        assert MultiIndex((1, 0)) == MultiIndex((0, 1))
        assert hash(MultiIndex((1, 0))) == hash(MultiIndex((0, 1)))

    def test_order(self):
        assert MultiIndex(()).order == 0
        assert MultiIndex((0, 0, 1)).order == 3

    def test_extended(self):
        assert MultiIndex((1,)).extended(0) == MultiIndex((0, 1))

    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            MultiIndex((-1,))
        with pytest.raises(ValueError):
            MultiIndex(("x",))


class TestGeneratorOrder:
    def test_kind_precedence(self, ctx1):
        base = Generator.base(0)
        jet = gen_u(ctx1, 0)
        ctx = BundleSpec(("x",), ("u1",), params=("c",))
        param = Generator.param(0)
        assert base < jet < param
        assert ctx.resolve("c") == param

    def test_jet_ordering(self, ctx1):
        u1 = gen_u(ctx1, 0)
        u1x = gen_u(ctx1, 0, 0)
        u1xx = gen_u(ctx1, 0, 0, 0)
        u2 = gen_u(ctx1, 1)
        assert u1 < u1x < u1xx
        assert u1xx < u2

    def test_mixed_index_ordering(self, ctx2):
        u1xx = gen_u(ctx2, 0, 0, 0)
        u1xy = gen_u(ctx2, 0, 0, 1)
        u1yy = gen_u(ctx2, 0, 1, 1)
        assert u1xx < u1xy < u1yy

    def test_names(self, ctx2):
        assert gen_u(ctx2, 0, 0, 1).name(ctx2) == "u1_xy"
        assert gen_u(ctx2, 1).name(ctx2) == "u2"
        assert Generator.base(1).name(ctx2) == "y"

    def test_symmetric_jet_generators_coincide(self, ctx2):
        assert gen_u(ctx2, 0, 1, 0) == gen_u(ctx2, 0, 0, 1)

    def test_order_over_whole_pool(self):
        ctx = BundleSpec(("x", "y"), ("u1", "u2"), params=("c",))
        pool = helpers.generator_pool(ctx, 3, include_params=True)
        random.Random(9).shuffle(pool)
        ordered = sorted(pool, key=lambda g: (g.kind, g.pos, g.index.order, g.index.entries))
        assert sorted(pool) == ordered
        assert len(set(pool)) == len(pool)
        powers = [(g, k % 3 + 1) for k, g in enumerate(pool)]
        assert Monomial(powers) == Monomial(sorted(powers))
        assert Monomial(powers).powers == tuple(sorted(powers))

    def test_copy_and_pickle_round_trip(self, ctx2):
        g = gen_u(ctx2, 1, 1, 0)
        for clone in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
            assert clone(g) == g and clone(g).index == g.index
            assert type(clone(g)) is Generator and type(clone(g).index) is MultiIndex


class TestMonomial:
    def test_merges_repeated_generators(self, ctx1):
        g = gen_u(ctx1, 0)
        m = Monomial([(g, 1), (g, 2)])
        assert m.exponent(g) == 3
        assert m.degree == 3

    def test_drops_zero_exponents(self, ctx1):
        g = gen_u(ctx1, 0)
        assert Monomial([(g, 0)]).is_unit

    def test_rejects_negative_exponent(self, ctx1):
        with pytest.raises(ValueError):
            Monomial([(gen_u(ctx1, 0), -1)])

    def test_sort_key_orders_by_degree_first(self, ctx1):
        u1 = gen_u(ctx1, 0)
        u2 = gen_u(ctx1, 1)
        cubic = Monomial([(u1, 3)])
        quad = Monomial([(u2, 2)])
        assert cubic.sort_key() < quad.sort_key()


class TestPolyAlgebra:
    def test_zero_and_const(self, ctx1):
        assert Poly.zero(ctx1).is_zero
        assert Poly.const(ctx1, 0).is_zero
        assert Poly.const(ctx1, Fraction(2, 3)).constant_term() == Fraction(2, 3)

    def test_scalar_coercion(self, ctx1):
        u1 = Poly.generator(ctx1, gen_u(ctx1, 0))
        assert u1 + 1 - 1 == u1
        assert 2 * u1 == u1 + u1
        assert u1 - u1 == 0
        assert (u1 + 1) * (u1 - 1) == u1 * u1 - 1

    def test_float_rejected(self, ctx1):
        u1 = Poly.generator(ctx1, gen_u(ctx1, 0))
        with pytest.raises(TypeError):
            Poly.const(ctx1, 0.5)
        with pytest.raises(TypeError):
            u1 * 0.5
        with pytest.raises(TypeError):
            u1 + 0.5

    def test_bool_stored_as_int(self, ctx1):
        # A stored True would render as the text "True".
        g = gen_u(ctx1, 0)
        u1 = Poly.generator(ctx1, g)
        mono = Monomial([(g, 1)])
        assert type(Poly.const(ctx1, True).constant_term()) is int
        for p in (u1 * True, Poly.from_terms(ctx1, [(mono, True)])):
            assert p.coefficient(mono) == 1
            assert type(p.coefficient(mono)) is int
        assert str(u1 * True) == "u1"

    def test_power(self, ctx1):
        u1 = Poly.generator(ctx1, gen_u(ctx1, 0))
        assert (u1 + 1) ** 2 == u1 * u1 + 2 * u1 + 1
        assert (u1 + 1) ** 0 == 1
        with pytest.raises(ValueError):
            (u1 + 1) ** -1

    def test_power_is_repeated_product(self, ctx2):
        rng = helpers.seeded(12)
        for _ in range(5):
            p = helpers.random_poly(rng, ctx2, max_degree=2)
            product = Poly.const(ctx2, 1)
            for n in range(13):
                assert p ** n == product
                product = product * p
        assert Poly.zero(ctx2) ** 0 == 1
        assert Poly.zero(ctx2) ** 3 == 0

    def test_cross_chart_arithmetic_rejected(self, ctx1, ctx2):
        with pytest.raises(ValueError):
            Poly.const(ctx1, 1) + Poly.const(ctx2, 1)

    def test_sum_of_no_parts_is_zero(self, ctx1):
        assert Poly.sum(ctx1, ()).is_zero
        assert Poly.sum(ctx1, iter(())) == Poly.zero(ctx1)

    def test_sum_of_cancelling_parts_is_zero(self, ctx1):
        u1 = Poly.generator(ctx1, gen_u(ctx1, 0))
        u2 = Poly.generator(ctx1, gen_u(ctx1, 1))
        assert Poly.sum(ctx1, (u1 + u2, -u1, u1 * u2, -u2, -(u1 * u2))).is_zero
        assert Poly.sum(ctx1, [u1 + u2, -u1]) == u2

    def test_sum_rejects_other_chart(self, ctx1, ctx2):
        parts = (Poly.const(ctx1, 1), Poly.const(ctx2, 1))
        for ctx in (ctx1, ctx2):
            with pytest.raises(ValueError, match="polynomials over different bundle charts"):
                Poly.sum(ctx, parts)
        with pytest.raises(ValueError, match="polynomials over different bundle charts"):
            Poly.sum(ctx2, (Poly.zero(ctx1),))

    def test_seeded_ring_axioms(self, ctx2):
        rng = helpers.seeded(2024)
        for _ in range(200):
            p = helpers.random_poly(rng, ctx2)
            q = helpers.random_poly(rng, ctx2)
            r = helpers.random_poly(rng, ctx2)
            assert p + q == q + p
            assert p * q == q * p
            assert (p + q) + r == p + (q + r)
            assert (p * q) * r == p * (q * r)
            assert p * (q + r) == p * q + p * r
            assert p + (-1) * p == 0

    def test_equal_polys_share_hash(self, ctx1):
        rng = helpers.seeded(5)
        for _ in range(50):
            p = helpers.random_poly(rng, ctx1)
            q = helpers.random_poly(rng, ctx1)
            lhs = p + q
            rhs = q + p
            assert hash(lhs) == hash(rhs)
            assert len({lhs, rhs}) == 1

    @pytest.mark.parametrize("den", [2, 3, 5, 13, 25])
    def test_one_value_by_different_routes(self, ctx2, den):
        # Each coefficient is stored over a denominator shared by the whole
        # polynomial; only its reduced form makes these routes agree.
        rng = helpers.seeded(den)
        for _ in range(20):
            c = Fraction(rng.choice((1, 2, 3, 4, 6, 7, 12)), den)
            p = helpers.random_poly(rng, ctx2) * c
            d = rng.choice((2, 3, 5, 13, 25))
            q = helpers.random_poly(rng, ctx2) * Fraction(rng.randint(1, 9), d)
            parts = [p, q, -p * 2, q * c, helpers.random_poly(rng, ctx2), p * Fraction(3, 2)]
            shuffled = rng.sample(parts, len(parts))
            for got, want in (
                ((p * c) * (1 / c), p),
                ((p + q) - q, p),
                (p * c - c * p, Poly.zero(ctx2)),
                (Poly.sum(ctx2, shuffled), Poly.sum(ctx2, parts)),
                (Poly.sum(ctx2, shuffled), p + q - 2 * p + c * q + parts[4] + Fraction(3, 2) * p),
            ):
                helpers.assert_normal_coefficients(got)
                assert got == want
                assert hash(got) == hash(want)


class TestPolyQueries:
    def test_coefficient_and_terms(self, ctx1):
        u1 = gen_u(ctx1, 0)
        p = Poly.generator(ctx1, u1) * 3 + 2
        assert p.coefficient(Monomial([(u1, 1)])) == 3
        assert p.coefficient(Monomial([])) == 2
        assert p.coefficient(Monomial([(u1, 2)])) == 0

    def test_generators_and_orders(self, ctx1):
        p = Poly.generator(ctx1, gen_u(ctx1, 0, 0, 0)) + Poly.generator(ctx1, Generator.base(0))
        assert p.max_order() == 2
        assert gen_u(ctx1, 0, 0, 0) in p.generators()
        assert p.total_degree() == 1

    def test_partial_golden(self, ctx1):
        u1 = Poly.generator(ctx1, gen_u(ctx1, 0))
        u2 = Poly.generator(ctx1, gen_u(ctx1, 1))
        p = u1 * u1 * u2
        assert p.partial(gen_u(ctx1, 0)) == 2 * u1 * u2
        assert p.partial(gen_u(ctx1, 1)) == u1 * u1
        assert p.partial(gen_u(ctx1, 0, 0)).is_zero

    def test_partial_drops_a_vanishing_factor(self, ctx1):
        x, u1, u2x = Generator.base(0), gen_u(ctx1, 0), gen_u(ctx1, 1, 0)
        p = Poly.from_terms(ctx1, [(Monomial([(x, 1), (u1, 1), (u2x, 1)]), 3)])
        [(mono, coeff)] = p.partial(u1).items()
        assert mono.powers == ((x, 1), (u2x, 1))
        assert coeff == 3

    def test_partials_commute(self, ctx2):
        rng = helpers.seeded(77)
        pool = helpers.generator_pool(ctx2, 2)
        for _ in range(100):
            p = helpers.random_poly(rng, ctx2, pool=pool)
            g1 = rng.choice(pool)
            g2 = rng.choice(pool)
            assert p.partial(g1).partial(g2) == p.partial(g2).partial(g1)

    def test_antiderivative_golden(self, ctx1):
        p = parse_expr("2/3*x^2*u1 + u1^3*u2 + 4*u2", ctx1)
        assert p.antiderivative(gen_u(ctx1, 0)) == parse_expr(
            "1/3*x^2*u1^2 + 1/4*u1^4*u2 + 4*u1*u2", ctx1)
        assert Poly.zero(ctx1).antiderivative(Generator.base(0)).is_zero
        with pytest.raises(UnknownName):
            p.antiderivative(Generator.base(1))

    def test_antiderivative_inverts_partial(self, ctx2):
        rng = helpers.seeded(78)
        pool = helpers.generator_pool(ctx2, 2)
        for _ in range(100):
            p = helpers.random_poly(rng, ctx2, pool=pool) * Fraction(rng.randint(1, 9),
                                                                      rng.randint(1, 9))
            g = rng.choice(pool)
            integral = p.antiderivative(g)
            helpers.assert_normal_coefficients(integral)
            assert integral.partial(g) == p
            assert integral.coefficient(Monomial()) == 0

    def test_substitute_golden(self, ctx1):
        u1g = gen_u(ctx1, 0)
        u1 = Poly.generator(ctx1, u1g)
        u2 = Poly.generator(ctx1, gen_u(ctx1, 1))
        p = u1 * u1 + u1 * u2
        assert p.substitute({u1g: u2}) == u2 * u2 + u2 * u2

    def test_substitute_keeps_fixed_factors(self, ctx1):
        x = Poly.generator(ctx1, Generator.base(0))
        u1g = gen_u(ctx1, 0)
        u1 = Poly.generator(ctx1, u1g)
        u2 = Poly.generator(ctx1, gen_u(ctx1, 1))
        u2x = Poly.generator(ctx1, gen_u(ctx1, 1, 0))
        p = x * u1 ** 2 * u2x
        assert str(p.substitute({u1g: u1 + u2})) == (
            "x*u1^2*u2_x + 2*x*u1*u2*u2_x + x*u2^2*u2_x")

    def test_substitute_rejects_other_chart(self, ctx1, ctx2):
        p = Poly.generator(ctx1, gen_u(ctx1, 0))
        with pytest.raises(ValueError):
            p.substitute({gen_u(ctx1, 0): Poly.const(ctx2, 1)})

    def test_substitute_then_evaluate_matches_direct(self, ctx1):
        # compare substitution against direct evaluation on small integers
        rng = helpers.seeded(31)
        u1g, u2g = gen_u(ctx1, 0), gen_u(ctx1, 1)
        for _ in range(50):
            p = helpers.random_poly(rng, ctx1, max_order=0, include_base=False)
            a = Poly.const(ctx1, rng.randint(-3, 3))
            b = Poly.const(ctx1, rng.randint(-3, 3))
            value = p.substitute({u1g: a, u2g: b})
            expected = sum(
                (coeff * a.constant_term() ** mono.exponent(u1g)
                 * b.constant_term() ** mono.exponent(u2g)
                 for mono, coeff in p.items()),
                start=Fraction(0),
            )
            assert value == Poly.const(ctx1, expected)


PACKED_CTX = BundleSpec(("x", "y"), ("u1", "u2"), ("k",))
PACKED_POOL = helpers.generator_pool(PACKED_CTX, 2, include_params=True)


def packed_polys(max_terms):
    monomials = st.lists(st.tuples(st.sampled_from(PACKED_POOL), st.integers(1, 3)),
                         max_size=4).map(Monomial)
    coefficients = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 6))
    return st.lists(st.tuples(monomials, coefficients), max_size=max_terms).map(
        lambda items: Poly.from_terms(PACKED_CTX, items))


class TestPackedExponents:
    """`substitute` and `**` expand in packed exponents; the merge-product
    forms kept in `helpers` are the reference, and results must also be
    canonical."""

    CTX = PACKED_CTX
    X, U1, U2, K = Generator.base(0), Generator.jet(0), Generator.jet(1), Generator.param(0)

    def gen(self, g):
        return Poly.generator(self.CTX, g)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(packed_polys(4), st.dictionaries(st.sampled_from(PACKED_POOL), packed_polys(3),
                                            max_size=3))
    def test_substitute_matches_reference(self, p, mapping):
        result = p.substitute(mapping)
        helpers.assert_canonical(result)
        assert result == helpers.reference_substitute(p, mapping)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(packed_polys(3), st.integers(0, 10))
    def test_power_matches_reference(self, p, n):
        result = p ** n
        helpers.assert_canonical(result)
        assert result == helpers.reference_pow(p, n)

    @pytest.mark.parametrize("n", [7, 8, 15, 16])
    def test_degree_bound_at_slot_edge(self, n):
        """A degree bound of 2^w - 1 fills a slot of width w; 2^w needs one
        bit more.  Every case puts the bound in the top and in a lower slot."""
        assert kernel._layout((), n)[2] == n.bit_length()
        x, u1, u2, k = map(self.gen, (self.X, self.U1, self.U2, self.K))
        for p in (x + u1 + u2 + k, x - 2 * u2, Fraction(1, 3) * u1 * u2 + k):
            result = p ** n
            helpers.assert_canonical(result)
            assert result == helpers.reference_pow(p, n)
        # the fixed degree and the replaced degree together reach n
        head = x ** (n // 2) * k
        for rep in (u2 + x, u1 - k, Fraction(1, 2) * u2 * u2):
            p = head * u1 ** (n - n // 2 - 1) + u2 * x
            result = p.substitute({self.U1: rep})
            helpers.assert_canonical(result)
            assert result == helpers.reference_substitute(p, {self.U1: rep})

    def test_huge_exponent(self):
        x, u1, u2 = map(self.gen, (self.X, self.U1, self.U2))
        big = 2 ** 20
        power = Poly.from_terms(self.CTX, [(Monomial([(self.U1, big)]), 1)])
        assert u1 ** big == power
        assert (-u1) ** big == power
        assert (u1 * x) ** big == Poly.from_terms(
            self.CTX, [(Monomial([(self.X, big), (self.U1, big)]), 1)])
        assert power.substitute({self.U1: -u2}) == u2 ** big
        assert u1.substitute({self.U1: u2 ** big}) == u2 ** big
        assert (power * x).substitute({self.U1: u2, self.U2: u1}) == u2 ** big * x

    def test_zero_and_constant_replacements(self):
        x, u1, u2 = map(self.gen, (self.X, self.U1, self.U2))
        p = u1 ** 2 * u2 + x * u1 + 3
        assert p.substitute({self.U1: Poly.zero(self.CTX)}) == 3
        assert p.substitute({self.U1: Poly.const(self.CTX, Fraction(1, 2))}) == (
            Fraction(1, 4) * u2 + Fraction(1, 2) * x + 3)
        assert p.substitute({self.U1: Poly.zero(self.CTX), self.U2: u1}) == 3
        assert Poly.zero(self.CTX).substitute({self.U1: u2}) == 0
        assert Poly.zero(self.CTX) ** 0 == 1
        assert Poly.zero(self.CTX) ** 5 == 0
        assert Poly.const(self.CTX, Fraction(-2, 3)) ** 3 == Fraction(-8, 27)

    def test_swap_is_simultaneous(self):
        u1, u2 = self.gen(self.U1), self.gen(self.U2)
        p = u1 ** 3 * u2 + 2 * u1 - u2 ** 2
        swapped = p.substitute({self.U1: u2, self.U2: u1})
        assert swapped == u2 ** 3 * u1 + 2 * u2 - u1 ** 2
        assert swapped.substitute({self.U1: u2, self.U2: u1}) == p
        rotated = p.substitute({self.U1: u1 + u2, self.U2: u1 - u2})
        assert rotated == (u1 + u2) ** 3 * (u1 - u2) + 2 * (u1 + u2) - (u1 - u2) ** 2

    def test_parameters_and_base_coordinates_stay_fixed(self):
        x, u1, u2, k = map(self.gen, (self.X, self.U1, self.U2, self.K))
        u1_x = self.gen(Generator.jet(0, MultiIndex((0,))))
        p = k * x * u1 ** 2 * u1_x + k ** 2
        result = p.substitute({self.U1: x * u2 + k})
        assert result == k * x * (x * u2 + k) ** 2 * u1_x + k ** 2
        assert str(result) == "x^3*u1_x*u2^2*k + 2*x^2*u1_x*u2*k^2 + x*u1_x*k^3 + k^2"

    def test_errors(self, ctx2):
        u1 = self.gen(self.U1)
        for exponent in (-1, Fraction(1, 2), 1.0):
            with pytest.raises(ValueError, match="^exponent must be a non-negative integer$"):
                u1 ** exponent
        with pytest.raises(UnknownName, match=r"^unknown name 'Jet\(5\)'$"):
            u1.substitute({Generator.jet(5): u1})
        with pytest.raises(ValueError, match="^replacement polynomial over a different chart$"):
            u1.substitute({self.U1: Poly.const(ctx2, 1)})

    def test_no_merge_products(self, monkeypatch):
        """`substitute` and `**` multiply packed keys; only `p * q` merges."""
        u1, u2, x = self.gen(self.U1), self.gen(self.U2), self.gen(self.X)
        p = (u1 + u2 + x) ** 2 * u2 + Fraction(1, 3) * u1 * x
        mapping = {self.U1: u1 + Fraction(3, 5) * u2, self.U2: u1 * u2 - x}
        calls = []

        def counted(name, fn):
            return lambda *args: calls.append(name) or fn(*args)

        monkeypatch.setattr(Monomial, "times", counted("times", Monomial.times))
        for name in ("__mul__", "__rmul__"):
            monkeypatch.setattr(Poly, name, counted("mul", getattr(Poly, name)))
        p.substitute(mapping)
        p ** 4
        assert calls == []
        p * u2
        assert calls.count("mul") == 1 and calls.count("times") == len(p.sorted_terms())


class TestCheckReport:
    def test_truth_is_the_verdict(self, ctx1):
        residual = (("here", Poly.const(ctx1, 1)),)
        assert CheckReport(True) and not CheckReport(False, residual)
        assert CheckReport(False).residuals == () and CheckReport(True).results == ()
        with pytest.raises(AttributeError):
            CheckReport(True).passed = False
        # `of` keeps the nonzero residuals, in order, and passes iff none is kept
        zero, one = Poly.zero(ctx1), Poly.const(ctx1, 1)
        u1 = Poly.generator(ctx1, Generator.jet(0))
        report = CheckReport.of([("a", zero), ("b", u1), ("c", zero), ("d", one)])
        assert report == CheckReport(False, (("b", u1), ("d", one)))
        assert CheckReport.of(iter([("a", zero)])) == CheckReport(True)
        assert CheckReport.of(()) == CheckReport(True)
        results = (("block", "exact"),)
        assert CheckReport.of((), results) == CheckReport(True, (), results)
        assert CheckReport.of([("d", one)], results) == CheckReport(False, (("d", one),), results)

    def test_every_check_returns_one(self, ctx1, omega_std, rot90, c4):
        scale = Automorphism(ctx1, (parse_expr("2*u1", ctx1), parse_expr("u2", ctx1)),
                             (parse_expr("1/2*u1", ctx1), parse_expr("u2", ctx1)))
        p, q = parse_expr("u1^2", ctx1), parse_expr("u2^2", ctx1)
        invariant = HorizontalForm.density(p + q)
        so3 = SigmaModelSpec.from_strings(
            3, (("0", "u3", "-u2"), ("-u3", "0", "u1"), ("u2", "-u1", "0")))
        rotation = ((Fraction(3, 5), Fraction(4, 5), 0), (Fraction(-4, 5), Fraction(3, 5), 0),
                    (0, 0, 1))
        reports = {
            "poisson": check_poisson_tensor(omega_std),
            "poisson so3 sigma": check_poisson_tensor(build_sigma(so3)[1]),
            "covariance": check_covariance(omega_std, rot90),
            "covariance scaled": check_covariance(omega_std, scale),
            "canonical": check_canonical_density(omega_std, rot90, p, q),
            "canonical scaled": check_canonical_density(omega_std, scale, p, q),
            "invariance": check_invariance(invariant, c4),
            "invariance u1^2": check_invariance(HorizontalForm.density(p), c4),
            "closure": check_invariant_closure(invariant, invariant, c4, omega_std),
            "shlie": check_shlie_relations(omega_std, triples=[(p, q, p)], pairs=[(p, q)]),
            "el-transform": check_el_transform(scale, p * q),
            "commute": check_pullback_dh_commute(HorizontalForm.scalar(p), scale),
            "sigma-euler": sigma_euler_check(so3),
            "sigma-invariance": check_lagrangian_invariance(so3, rotation),
            "sigma-invariance reflected": check_lagrangian_invariance(
                so3, ((1, 0, 0), (0, -1, 0), (0, 0, 1))),
        }
        # the failing checks, and whether each names residuals
        failing = {"poisson so3 sigma": True, "covariance scaled": True,
                   "canonical scaled": True, "invariance u1^2": True,
                   "sigma-invariance reflected": False}
        for name, report in reports.items():
            assert isinstance(report, CheckReport), name
            assert bool(report) is report.passed, name
            assert report.passed == (name not in failing), name
            assert bool(report.residuals) == failing.get(name, False), name
            if not name.startswith("sigma-invariance"):
                assert report.passed == (not report.residuals), name
                assert all(not residual.is_zero for _, residual in report.residuals), name
