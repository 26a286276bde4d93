"""Seeded random generators and hypothesis strategies shared by the
property-based suites, and the definitional forms of the calculus layer.

Everything here is deterministic given the Random instance passed in, so
failures reproduce exactly.  Coefficients stay small rationals and term
budgets stay low to keep expression swell bounded.
"""

from fractions import Fraction
from itertools import combinations_with_replacement
import random

from hypothesis import strategies as st

from jetcalc import (
    Automorphism,
    BundleSpec,
    Generator,
    Monomial,
    MultiIndex,
    Poly,
)

# Rational points on the unit circle, used to build exactly invertible
# rotations.  (cos, sin) pairs.
PYTHAGOREAN = (
    (Fraction(3, 5), Fraction(4, 5)),
    (Fraction(5, 13), Fraction(12, 13)),
    (Fraction(8, 17), Fraction(15, 17)),
    (Fraction(0), Fraction(1)),
)


def generator_pool(ctx, max_order, include_base=True, include_params=False):
    """All generators of jet order at most max_order, plus optionally base
    coordinates and parameters."""
    pool = []
    if include_base:
        pool.extend(Generator.base(i) for i in range(ctx.n))
    if include_params:
        pool.extend(Generator.param(i) for i in range(len(ctx.params)))
    for a in range(ctx.m):
        for k in range(max_order + 1):
            for entries in combinations_with_replacement(range(ctx.n), k):
                pool.append(Generator.jet(a, MultiIndex(entries)))
    return pool


def random_poly(rng, ctx, max_order=2, max_degree=3, max_terms=3,
                include_base=True, coeff_bound=3, pool=None):
    """A random polynomial with small integer coefficients.

    Terms can cancel, so the zero polynomial is a possible (and valid)
    sample.
    """
    if pool is None:
        pool = generator_pool(ctx, max_order, include_base=include_base)
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        degree = rng.randint(0, max_degree)
        gens = [rng.choice(pool) for _ in range(degree)]
        coeff = rng.choice([c for c in range(-coeff_bound, coeff_bound + 1) if c])
        terms.append((Monomial((g, 1) for g in gens), Fraction(coeff)))
    return Poly.from_terms(ctx, terms)


def densities(ctx, max_order, include_params=False):
    """Hypothesis strategy: up to four terms, each a small rational times at
    most three powers (exponent 1 or 2) of generators of jet order at most
    max_order."""
    pool = generator_pool(ctx, max_order, include_params=include_params)
    monomials = st.lists(st.tuples(st.sampled_from(pool), st.integers(1, 2)),
                         max_size=3).map(Monomial)
    coefficients = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 6))
    return st.lists(st.tuples(monomials, coefficients), max_size=4).map(
        lambda items: Poly.from_terms(ctx, items))


def fiber_coordinates(ctx):
    return [Poly.generator(ctx, Generator.jet(c, MultiIndex(()))) for c in range(ctx.m)]


def rotation(ctx, a, b, cos, sin):
    """Rotation in the (fiber a, fiber b) plane with exact rational inverse."""
    ua, ub = fiber_coordinates(ctx)[a], fiber_coordinates(ctx)[b]
    psi = fiber_coordinates(ctx)
    psi_inv = fiber_coordinates(ctx)
    psi[a] = ua * cos + ub * sin
    psi[b] = ua * (-sin) + ub * cos
    psi_inv[a] = ua * cos - ub * sin
    psi_inv[b] = ua * sin + ub * cos
    return Automorphism(ctx, tuple(psi), tuple(psi_inv))


def rot90(ctx, a=0, b=1):
    return rotation(ctx, a, b, Fraction(0), Fraction(1))


def shear(ctx, target, offset):
    """u_target gets offset added, where offset must not involve u_target.

    Such a map is exactly invertible by subtracting the same offset.
    """
    psi = fiber_coordinates(ctx)
    psi_inv = fiber_coordinates(ctx)
    psi[target] = psi[target] + offset
    psi_inv[target] = psi_inv[target] - offset
    return Automorphism(ctx, tuple(psi), tuple(psi_inv))


def random_shear(rng, ctx, target, x_dependent=True):
    pool = []
    if x_dependent:
        pool.extend(Generator.base(i) for i in range(ctx.n))
    for c in range(ctx.m):
        if c != target:
            pool.append(Generator.jet(c, MultiIndex(())))
    if not pool:
        return shear(ctx, target, Poly.const(ctx, rng.randint(1, 3)))
    offset = random_poly(rng, ctx, max_degree=2, max_terms=2, pool=pool)
    return shear(ctx, target, offset)


def random_automorphism(rng, ctx, max_pieces=2, x_dependent=True):
    """Composition of rotations and shears, so the inverse stays polynomial."""
    auto = Automorphism.identity(ctx)
    for _ in range(rng.randint(1, max_pieces)):
        if ctx.m >= 2 and rng.random() < 0.5:
            a = rng.randrange(ctx.m)
            b = rng.choice([c for c in range(ctx.m) if c != a])
            cos, sin = rng.choice(PYTHAGOREAN)
            piece = rotation(ctx, a, b, cos, sin)
        else:
            piece = random_shear(rng, ctx, rng.randrange(ctx.m),
                                 x_dependent=x_dependent)
        auto = piece.compose(auto)
    return auto


def random_linear_automorphism(rng, ctx, max_pieces=2):
    """Fiber-linear automorphism (rotations only), useful where the
    transformation must preserve a constant coefficient matrix."""
    auto = Automorphism.identity(ctx)
    for _ in range(rng.randint(1, max_pieces)):
        a = rng.randrange(ctx.m)
        b = rng.choice([c for c in range(ctx.m) if c != a])
        cos, sin = rng.choice(PYTHAGOREAN)
        auto = rotation(ctx, a, b, cos, sin).compose(auto)
    return auto


def reference_total_derivative(p, i):
    """D_i by its definition: dp/dx^i plus, for every jet coordinate u^a_J
    of p, the product u^a_{J+i} * dp/du^a_J."""
    parts = [p.partial(Generator.base(i))]
    for g in p.generators():
        if g.is_jet:
            lifted = Generator.jet(g.pos, g.index.extended(i))
            parts.append(p.partial(g) * Poly.generator(p.ctx, lifted))
    return Poly.sum(p.ctx, parts)


def reference_euler(p):
    """E_a by its definition: the sum over the jet coordinates u^a_I of p of
    (-1)^|I| D_I dP/du^a_I, with each D_I applied from scratch."""
    parts = [[] for _ in range(p.ctx.m)]
    for g in p.generators():
        if g.is_jet:
            term = p.partial(g)
            for i in g.index:
                term = reference_total_derivative(term, i)
            parts[g.pos].append(-term if g.order % 2 else term)
    return tuple(Poly.sum(p.ctx, fiber) for fiber in parts)


def assert_normal_coefficients(p):
    """Every stored coefficient of p is nonzero and in its stored form: an
    `int` (never a bool) or a `Fraction` that is not integral."""
    for _, c in p.items():
        assert c
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)


def seeded(seed):
    return random.Random(seed)
