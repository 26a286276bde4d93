"""The calculus layer against sympy as an independent oracle.

Random polynomial densities in two fibers with jets up to order 3, over a
one-dimensional base (x) and a two-dimensional one (x, y), are differentiated
by jetcalc and by sympy, where each jet coordinate u^a_I is the derivative
`Derivative(u_a, *I)` of a function u_a of the base coordinates.  The total
derivatives must agree with `diff` and the Euler components with
`euler_equations`, exactly.  Over two directions sympy treats a mixed
derivative such as u_xy as one variable, which is the jetcalc convention.
"""

import pytest
from hypothesis import example, given, settings

from jetcalc import BundleSpec, Generator, Poly, euler, parse_expr, total_derivative

import helpers

sympy = pytest.importorskip("sympy")
from sympy.calculus.euler import euler_equations  # noqa: E402

CTX = BundleSpec(("x",), ("u1", "u2"))
CTX2 = BundleSpec(("x", "y"), ("u1", "u2"))
MARKERS = sympy.symbols("t1 t2")

ORACLE = settings(max_examples=60, deadline=None, derandomize=True)
# sympy's euler_equations takes about a tenth of a second per density.
EULER_ORACLE = settings(ORACLE, max_examples=30)


def coordinates(ctx):
    return tuple(sympy.Symbol(d) for d in ctx.base_dims)


def fields(ctx):
    return tuple(sympy.Function(f)(*coordinates(ctx)) for f in ctx.fibers)


def to_sympy(p: Poly):
    coords, funcs = coordinates(p.ctx), fields(p.ctx)

    def factor(g: Generator):
        if g.is_base:
            return coords[g.pos]
        return funcs[g.pos].diff(*(coords[i] for i in g.index)) if g.order else funcs[g.pos]

    return sympy.Add(*(
        sympy.Rational(c.numerator, c.denominator)
        * sympy.Mul(*(factor(g) ** e for g, e in mono.powers))
        for mono, c in p.items()))


def sympy_euler(p: Poly) -> list:
    """sympy's Euler-Lagrange expression for each field.  A term t_a*u_a,
    with t_a a fresh symbol, keeps each equation from evaluating to a bare
    truth value (sympy drops those); t_a is subtracted again."""
    funcs = fields(p.ctx)
    lagrangian = to_sympy(p) + sum(t * f for t, f in zip(MARKERS, funcs))
    equations = euler_equations(lagrangian, funcs, coordinates(p.ctx))
    return [eq.lhs - eq.rhs - t for eq, t in zip(equations, MARKERS, strict=True)]


def assert_euler_agrees(p: Poly):
    for component, expected in zip(euler(p), sympy_euler(p), strict=True):
        helpers.assert_normal_coefficients(component)
        assert sympy.expand(to_sympy(component) - expected) == 0


class TestCalculusOracle:
    @ORACLE
    @given(helpers.densities(CTX, 3))
    def test_total_derivative(self, p):
        (x,) = coordinates(CTX)
        expected = sympy.diff(to_sympy(p), x)
        result = total_derivative(p, 0)
        helpers.assert_normal_coefficients(result)
        assert sympy.expand(to_sympy(result) - expected) == 0

    @EULER_ORACLE
    @given(helpers.densities(CTX, 3))
    @example(parse_expr("u1*u2_x", CTX))
    @example(parse_expr("3*u1 + x^2", CTX))
    def test_euler(self, p):
        assert_euler_agrees(p)

    def test_worked_example(self):
        p = parse_expr("u1*u2_x", CTX)
        (x,) = coordinates(CTX)
        u1, u2 = fields(CTX)
        assert euler(p) == (parse_expr("u2_x", CTX), parse_expr("-u1_x", CTX))
        assert sympy_euler(p) == [u2.diff(x), -u1.diff(x)]


class TestTwoDimensionalOracle:
    @ORACLE
    @given(helpers.densities(CTX2, 3))
    def test_total_derivative(self, p):
        for i, coord in enumerate(coordinates(CTX2)):
            expected = sympy.diff(to_sympy(p), coord)
            result = total_derivative(p, i)
            helpers.assert_normal_coefficients(result)
            assert sympy.expand(to_sympy(result) - expected) == 0

    @EULER_ORACLE
    @given(helpers.densities(CTX2, 3))
    @example(parse_expr("u1_x*u1_y + u1^2*u1_xy", CTX2))
    @example(parse_expr("x*u1_xxy*u2_yy + y*u2*u1_xyy", CTX2))
    def test_euler(self, p):
        assert_euler_agrees(p)

    def test_worked_example(self):
        p = parse_expr("u1_x*u1_y + u1^2*u1_xy", CTX2)
        assert euler(p) == (parse_expr("4*u1*u1_xy + 2*u1_x*u1_y - 2*u1_xy", CTX2),
                            Poly.zero(CTX2))
        assert_euler_agrees(p)
