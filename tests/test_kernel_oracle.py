"""Kernel arithmetic against sympy as an independent oracle.

Random polynomials with rational coefficients over a chart with two base
directions, two fibers and a parameter are summed, multiplied, scaled,
powered, differentiated and substituted by jetcalc and by sympy; the results
must agree exactly.  Every result is also checked to be in canonical form:
each coefficient reads as an `int` or a non-integral `Fraction`, and the
result equals its rebuild from those terms, so its shared denominator is
reduced.  The `@example`s pin the cases where fractions cancel to integers,
fully or in part, where parts have coprime denominators, and where a
substitution multiplies out over several denominators.  The monomial fast
paths are compared with the validating constructor.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from jetcalc import BundleSpec, Generator, Monomial, MultiIndex, Poly

import helpers

sympy = pytest.importorskip("sympy")

CTX = BundleSpec(("x", "y"), ("u1", "u2"), ("k",))
POOL = helpers.generator_pool(CTX, 2, include_params=True)
SYMBOLS = {g: sympy.Symbol(g.name(CTX)) for g in POOL}
U1, U2 = Generator.jet(0), Generator.jet(1)
U1X = Generator.jet(0, MultiIndex((0,)))
K = Generator.param(0)
HALF = Fraction(1, 2)

ORACLE = settings(max_examples=60, deadline=None, derandomize=True)

generators = st.sampled_from(POOL)
coefficients = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 6))
monomials = st.lists(st.tuples(generators, st.integers(1, 3)), max_size=4).map(Monomial)


def polys(max_terms=4):
    return st.lists(st.tuples(monomials, coefficients), max_size=max_terms).map(
        lambda items: Poly.from_terms(CTX, items))


def poly(*terms):
    """The polynomial sum of c * g^e over the (c, g, e) triples given."""
    return Poly.from_terms(CTX, [(Monomial([(g, e)]), c) for c, g, e in terms])


def to_sympy(p: Poly):
    return sympy.Add(*(
        sympy.Rational(c.numerator, c.denominator)
        * sympy.Mul(*(SYMBOLS[g] ** e for g, e in mono.powers))
        for mono, c in p.items()))


def assert_agrees(p: Poly, expected):
    """p is canonical and equals the sympy expression `expected`."""
    helpers.assert_normal_coefficients(p)
    for mono, _ in p.items():
        assert mono.powers == Monomial(mono.powers).powers
    assert sympy.expand(to_sympy(p) - expected) == 0


class TestKernelOracle:
    @ORACLE
    @given(polys(), polys())
    @example(poly((HALF, U1, 1)), poly((2, U2, 1)))
    @example(poly((HALF, U1, 1), (HALF, U2, 1)), Poly.const(CTX, 2))  # cancels fully
    @example(poly((Fraction(1, 6), U1, 1), (Fraction(1, 4), U2, 1)),
             poly((2, U1, 1)))  # 1/12 * 2 cancels to 1/6
    def test_product(self, p, q):
        assert_agrees(p * q, sympy.expand(to_sympy(p) * to_sympy(q)))

    @ORACLE
    @given(st.lists(polys(), max_size=6))
    @example([poly((HALF, U1, 1)), poly((HALF, U1, 1))])
    @example([poly((HALF, U1, 1)), poly((Fraction(1, 3), U1, 1), (Fraction(2, 5), U2, 1)),
              poly((Fraction(-5, 6), U1, 1), (Fraction(1, 7), K, 1))])  # coprime denominators
    def test_sum(self, parts):
        assert_agrees(Poly.sum(CTX, parts), sympy.Add(*map(to_sympy, parts)))

    @ORACLE
    @given(polys(), coefficients)
    @example(poly((Fraction(3, 2), U1, 1)), Fraction(2, 3))
    @example(poly((HALF, U1, 1), (HALF, U2, 1)), Fraction(2))
    def test_scalar_product(self, p, c):
        scale = sympy.Rational(c.numerator, c.denominator)
        assert_agrees(p * c, sympy.expand(to_sympy(p) * scale))

    @ORACLE
    @given(polys(max_terms=3), st.integers(0, 8))
    def test_power(self, p, n):
        assert_agrees(p ** n, sympy.expand(to_sympy(p) ** n))

    @ORACLE
    @given(polys(), generators)
    @example(poly((HALF, U1, 2)), U1)
    def test_partial(self, p, g):
        assert_agrees(p.partial(g), sympy.diff(to_sympy(p), SYMBOLS[g]))

    @ORACLE
    @given(polys(), st.dictionaries(generators, monomials, max_size=3))
    @example(poly((HALF, U1, 2)), {U1: Monomial([(U2, 1)])})
    def test_derivation(self, p, images):
        expected = sympy.Add(*(
            sympy.diff(to_sympy(p), SYMBOLS[g]) * to_sympy(Poly.from_terms(CTX, [(m, 1)]))
            for g, m in images.items()))
        assert_agrees(p.derivation(images.get), sympy.expand(expected))

    @ORACLE
    @given(polys(), st.dictionaries(generators, polys(max_terms=3), max_size=3))
    @example(  # a swap: each replacement mentions the other replaced generator
        Poly.from_terms(CTX, [(Monomial([(U1, 2), (U2, 1), (U1X, 1)]), 3)]),
        {U1: Poly.generator(CTX, U2), U2: Poly.generator(CTX, U1) + 1},
    )
    @example(poly((HALF, U1, 2)), {U1: poly((2, U2, 1))})
    @example(  # two Pythagorean rotations: products over 25, 65 and 13
        Poly.from_terms(CTX, [(Monomial([(U1, 2)]), 1), (Monomial([(U1, 1), (U2, 1)]), 2),
                              (Monomial([(U2, 1), (K, 1)]), HALF), (Monomial([(K, 1)]), 3)]),
        {U1: poly((Fraction(3, 5), U1, 1), (Fraction(4, 5), U2, 1)),
         U2: poly((Fraction(5, 13), U1, 1), (Fraction(-12, 13), U2, 1))},
    )
    def test_substitute(self, p, mapping):
        expected = to_sympy(p).subs(
            {SYMBOLS[g]: to_sympy(q) for g, q in mapping.items()}, simultaneous=True)
        assert_agrees(p.substitute(mapping), sympy.expand(expected))


class TestMonomialFastPaths:
    @ORACLE
    @given(monomials, monomials)
    def test_times_matches_constructor(self, m1, m2):
        merged = m1.times(m2)
        expected = Monomial(m1.powers + m2.powers)
        assert merged == expected
        assert merged.powers == expected.powers
        assert hash(merged) == hash(expected)

    @ORACLE
    @given(monomials, generators, st.integers(0, 3))
    def test_with_exponent_matches_constructor(self, m, g, e):
        spliced = m.with_exponent(g, e)
        expected = Monomial([(h, k) for h, k in m.powers if h != g] + [(g, e)])
        assert spliced == expected
        assert spliced.powers == expected.powers
        assert hash(spliced) == hash(expected)

    def test_with_exponent_rejects_negative(self):
        with pytest.raises(ValueError):
            Monomial([(U1, 1)]).with_exponent(U1, -1)
