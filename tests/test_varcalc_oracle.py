"""The calculus layer against sympy as an independent oracle.

Random polynomial densities over a one-dimensional base, in two fibers with
jets up to order 3, are differentiated by jetcalc and by sympy, where each jet
coordinate u^a_k is the k-th derivative of a function u_a(x).  The total
derivative must agree with `diff` and the Euler components with
`euler_equations`, exactly.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from jetcalc import BundleSpec, Generator, Monomial, Poly, euler, parse_expr, total_derivative

import helpers

sympy = pytest.importorskip("sympy")
from sympy.calculus.euler import euler_equations  # noqa: E402

CTX = BundleSpec(("x",), ("u1", "u2"))
X = sympy.Symbol("x")
FIELDS = tuple(sympy.Function(f)(X) for f in CTX.fibers)
MARKERS = sympy.symbols("t1 t2")

ORACLE = settings(max_examples=60, deadline=None, derandomize=True)
# sympy's euler_equations takes about a tenth of a second per density.
EULER_ORACLE = settings(ORACLE, max_examples=30)

coefficients = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 6))
monomials = st.lists(
    st.tuples(st.sampled_from(helpers.generator_pool(CTX, 3)), st.integers(1, 2)),
    max_size=3).map(Monomial)
densities = st.lists(st.tuples(monomials, coefficients), max_size=4).map(
    lambda items: Poly.from_terms(CTX, items))


def to_sympy(p: Poly):
    def factor(g: Generator):
        if g.is_base:
            return X
        return FIELDS[g.pos].diff(X, g.order) if g.order else FIELDS[g.pos]

    return sympy.Add(*(
        sympy.Rational(c.numerator, c.denominator)
        * sympy.Mul(*(factor(g) ** e for g, e in mono.powers))
        for mono, c in p.items()))


def sympy_euler(p: Poly) -> list:
    """sympy's Euler-Lagrange expression for each field.  A term t_a*u_a,
    with t_a a fresh symbol, keeps each equation from evaluating to a bare
    truth value (sympy drops those); t_a is subtracted again."""
    lagrangian = to_sympy(p) + sum(t * f for t, f in zip(MARKERS, FIELDS))
    equations = euler_equations(lagrangian, FIELDS, X)
    return [eq.lhs - eq.rhs - t for eq, t in zip(equations, MARKERS, strict=True)]


class TestCalculusOracle:
    @ORACLE
    @given(densities)
    def test_total_derivative(self, p):
        expected = sympy.diff(to_sympy(p), X)
        assert sympy.expand(to_sympy(total_derivative(p, 0)) - expected) == 0

    @EULER_ORACLE
    @given(densities)
    @example(parse_expr("u1*u2_x", CTX))
    @example(parse_expr("3*u1 + x^2", CTX))
    def test_euler(self, p):
        for component, expected in zip(euler(p), sympy_euler(p), strict=True):
            assert sympy.expand(to_sympy(component) - expected) == 0

    def test_worked_example(self):
        p = parse_expr("u1*u2_x", CTX)
        assert euler(p) == (parse_expr("u2_x", CTX), parse_expr("-u1_x", CTX))
        assert sympy_euler(p) == [FIELDS[1].diff(X), -FIELDS[0].diff(X)]
