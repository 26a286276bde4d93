"""Expression parsing and rendering: goldens, errors, round trips."""

from fractions import Fraction

from hypothesis import example, given, settings, strategies as st
import pytest

from jetcalc import (
    BundleSpec,
    Generator,
    Monomial,
    MultiIndex,
    ParseError,
    Poly,
    UnknownName,
    parse_expr,
    render_expr,
)
from jetcalc.dsl import MAX_NESTING

import helpers

# Names of every kind over (x, y) with fibers u1, u2 and the parameter c, jet
# names with their suffix in either order, and a few that resolve to nothing.
_ATOMS = ("u1", "u2", "x", "y", "c", "u1_x", "u2_yx", "u1_xy", "u2_xx", "u2", "u1",
          "0", "1", "2", "7", "12", "3/5", "2/4", "5/3", "u3", "x_x", "u1_z", "1/0")
_POWERS = ("^1", "^2", "^3", "^2", " ^ 2", "^0", "^x")
_JOINS = (" + ", " - ", "*", " * ", "-", "+", "*-", " - -")


def _extend(inner):
    return st.one_of(
        st.tuples(st.sampled_from(("-", "--", "- -", "---")), inner).map("".join),
        st.tuples(inner, st.sampled_from(_POWERS)).map("".join),
        inner.map(lambda text: f"({text})"),
        st.lists(inner, min_size=2, max_size=3).flatmap(
            lambda parts: st.sampled_from(_JOINS).map(lambda op: op.join(parts))),
    )


@st.composite
def expression_texts(draw):
    """Texts of the expression language: nested parentheses, chains of unary
    minus, rationals and powers of numbers, names and jet names.  Half are
    then made malformed, mostly: one character is inserted or deleted, or
    the text is cut short."""
    text = draw(st.recursive(st.sampled_from(_ATOMS), _extend, max_leaves=12))
    edit = draw(st.sampled_from(("none", "none", "none", "insert", "delete", "cut")))
    k = draw(st.integers(0, len(text)))
    if edit == "insert":
        text = text[:k] + draw(st.sampled_from("()+-*/^ \t$.\u0663_a1")) + text[k:]
    elif edit == "delete":
        text = text[:k] + text[k + 1:]
    elif edit == "cut":
        text = text[:k]
    return text


class TestParse:
    def test_jet_names(self, ctx2):
        p = parse_expr("u1_xy", ctx2)
        q = Poly.generator(ctx2, Generator.jet(0, MultiIndex((0, 1))))
        assert p == q
        # the suffix is a multiset of directions
        assert parse_expr("u1_yx", ctx2) == q

    def test_rationals(self, ctx1):
        assert parse_expr("3/5", ctx1) == Poly.const(ctx1, Fraction(3, 5))
        assert parse_expr("-2/4", ctx1) == Poly.const(ctx1, Fraction(-1, 2))
        assert parse_expr("7", ctx1) == 7

    def test_precedence(self, ctx1):
        u1 = parse_expr("u1", ctx1)
        u2 = parse_expr("u2", ctx1)
        assert parse_expr("u1 + u2*u1", ctx1) == u1 + u2 * u1
        assert parse_expr("-u1^2", ctx1) == -(u1 * u1)
        assert parse_expr("(u1 + u2)^2", ctx1) == u1 * u1 + 2 * u1 * u2 + u2 * u2
        assert parse_expr("u1 - u2 - u1", ctx1) == -u2

    def test_whitespace_insignificant(self, ctx1):
        assert parse_expr(" u1 *u2 ", ctx1) == parse_expr("u1*u2", ctx1)

    def test_params(self):
        ctx = BundleSpec(("x",), ("u1",), params=("c",))
        p = parse_expr("c*u1_x", ctx)
        assert p.partial(Generator.param(0)) == parse_expr("u1_x", ctx)


class TestParseErrors:
    def test_trailing_operator(self, ctx1):
        with pytest.raises(ParseError) as err:
            parse_expr("u1 +", ctx1)
        assert err.value.position == 4

    def test_unclosed_paren(self, ctx1):
        with pytest.raises(ParseError) as err:
            parse_expr("(u1", ctx1)
        assert err.value.position == 3

    def test_bad_character(self, ctx1):
        with pytest.raises(ParseError) as err:
            parse_expr("u1 $ 2", ctx1)
        assert err.value.position == 3

    @pytest.mark.parametrize("text, position", [("\u0661\u0662*u1", 0), ("u1^\u0663", 3)])
    def test_non_ascii_digit(self, ctx1, text, position):
        # Only ASCII digits are numbers: Arabic-Indic twelve and three are not.
        with pytest.raises(ParseError) as err:
            parse_expr(text, ctx1)
        assert err.value.message == f"unexpected character {text[position]!r}"
        assert err.value.position == position

    def test_zero_exponent_rejected(self, ctx1):
        with pytest.raises(ParseError):
            parse_expr("u1^0", ctx1)

    def test_zero_denominator_rejected(self, ctx1):
        with pytest.raises(ParseError):
            parse_expr("2/0", ctx1)

    def test_adjacent_primaries_rejected(self, ctx1):
        with pytest.raises(ParseError) as err:
            parse_expr("u1 u2", ctx1)
        assert err.value.position == 3

    def test_double_star_rejected(self, ctx1):
        with pytest.raises(ParseError):
            parse_expr("u1 ** 2", ctx1)

    @pytest.mark.parametrize("text, error, position", [
        ("u1 $ 2", ParseError, 3), ("u1 +", ParseError, 4), ("(u1", ParseError, 3),
        ("u1 u2", ParseError, 3), ("u1 + zz", UnknownName, 5), ("", ParseError, 0)])
    def test_offset_shifts_every_position(self, ctx1, text, error, position):
        # `offset` places the text in its source, such as a model file
        with pytest.raises(error) as err:
            parse_expr(text, ctx1, 40)
        assert err.value.position == 40 + position
        assert parse_expr("u1*u2", ctx1, 40) == parse_expr("u1*u2", ctx1)

    def test_nesting_bound(self, ctx1):
        u1 = parse_expr("u1", ctx1)
        deepest = "(" * MAX_NESTING + "u1" + ")" * MAX_NESTING
        assert parse_expr(deepest, ctx1) == u1
        for depth in (MAX_NESTING + 1, 1200):
            with pytest.raises(ParseError) as err:
                parse_expr("(" * depth + "u1" + ")" * depth, ctx1)
            assert err.value.position == MAX_NESTING


class TestReferenceParser:
    """The parser against `helpers.reference_parse_expr`, the recursive
    descent that builds every atom as a `Poly` and multiplies, powers and
    negates it with `Poly` arithmetic."""

    CHART = BundleSpec(("x", "y"), ("u1", "u2"), params=("c",))

    @staticmethod
    def outcome(parse, text, ctx):
        try:
            p = parse(text, ctx, 7)
        except (ParseError, UnknownName) as exc:
            return type(exc), str(exc), exc.position
        # the term map in the order that summing term by term builds
        return p, list(p._terms)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(expression_texts())
    @example("(" * MAX_NESTING + "u1" + ")" * MAX_NESTING)
    @example("(" * (MAX_NESTING + 1) + "u1" + ")" * (MAX_NESTING + 1))
    @example("-" * 3001 + "u1^2*" + "-" * 4 + "3/4^2")
    @example("u2*(u1 + x)^2*c - 2*(x - u1) + u1*u1^3 + (u2)*u1_yx - 3 + 1/2^3")
    @example("u1 - u1 + (u2 + u1) - u1 + 0*(u1 + 1) + (-2)^3 - (u1)^1")
    @example("1/3*(2*u1)^40 - (3/7*u2)^40 + 5^40 + 10/4")
    def test_equal_poly_or_equal_error(self, text):
        assert (self.outcome(parse_expr, text, self.CHART)
                == self.outcome(helpers.reference_parse_expr, text, self.CHART))


class TestUnaryMinus:
    def test_long_runs(self, ctx1):
        u1 = parse_expr("u1", ctx1)
        assert parse_expr("-" * 3000 + "u1", ctx1) == u1
        assert parse_expr("-" * 3001 + "u1", ctx1) == -u1
        assert parse_expr("2 * " + "-" * 5 + "u1", ctx1) == u1 * -2

    def test_binds_looser_than_power(self, ctx1):
        assert parse_expr("-u1^2", ctx1) == -parse_expr("u1^2", ctx1)
        assert parse_expr("--u1^2", ctx1) == parse_expr("u1^2", ctx1)
        assert parse_expr("(-u1)^3", ctx1) == -parse_expr("u1^3", ctx1)


class TestUnknownNames:
    def test_undeclared_identifier(self, ctx1):
        with pytest.raises(UnknownName) as err:
            parse_expr("3/5 * x^2 + u3", ctx1)
        assert err.value.name == "u3"
        assert err.value.position == 12

    def test_unknown_direction_suffix(self, ctx1):
        with pytest.raises(UnknownName):
            parse_expr("u1_z", ctx1)

    def test_suffix_on_non_fiber(self, ctx2):
        with pytest.raises(UnknownName):
            parse_expr("x_x", ctx2)

    def test_empty_suffix(self, ctx1):
        with pytest.raises(UnknownName):
            parse_expr("u1_", ctx1)


class TestRender:
    def test_golden_ordering(self, ctx1):
        p = parse_expr("u2*u1_x + u1*u2_x", ctx1)
        assert render_expr(p) == "u1*u2_x + u1_x*u2"

    def test_descending_degree(self, ctx1):
        p = parse_expr("u1 + 1 + u1^2", ctx1)
        assert render_expr(p) == "u1^2 + u1 + 1"

    def test_base_before_fiber(self, ctx1):
        assert render_expr(parse_expr("u1*x^2", ctx1)) == "x^2*u1"

    def test_signs_and_units(self, ctx1):
        assert render_expr(parse_expr("-u1 + u2", ctx1)) == "-u1 + u2"
        assert render_expr(parse_expr("u1 - u2", ctx1)) == "u1 - u2"
        assert render_expr(parse_expr("2 - 2", ctx1)) == "0"
        assert render_expr(parse_expr("-2/3", ctx1)) == "-2/3"
        assert render_expr(parse_expr("1/2*u1^2 + 1/2*u2^2", ctx1)) == "1/2*u1^2 + 1/2*u2^2"

    def test_coefficient_one_omitted(self, ctx1):
        assert render_expr(parse_expr("1*u1", ctx1)) == "u1"
        assert render_expr(parse_expr("-1*u1*u2", ctx1)) == "-u1*u2"


class TestRoundTrip:
    def test_seeded_round_trips(self, ctx1, ctx2):
        param_ctx = BundleSpec(("x",), ("u1", "u2"), params=("c", "k"))
        rng = helpers.seeded(4242)
        charts = [ctx1, ctx2, param_ctx]
        for i in range(200):
            ctx = charts[i % len(charts)]
            pool = helpers.generator_pool(ctx, 2, include_params=bool(ctx.params))
            p = helpers.random_poly(rng, ctx, max_degree=4, max_terms=4, pool=pool)
            # non-integer coefficients too
            p = p * Fraction(1, rng.choice([1, 2, 3, 5]))
            text = render_expr(p)
            assert parse_expr(text, ctx) == p

    def test_numbers_of_any_length(self, ctx2):
        # past the interpreter's 4,300-digit limit on int/str conversion
        p = parse_expr("1/3*(2*u1)^15000 - (3/7*u2)^15000 + 5^15000", ctx2)
        assert p.coefficient(Monomial(((Generator.jet(1), 15000),))) == -Fraction(3, 7) ** 15000
        assert parse_expr(render_expr(p), ctx2) == p
        exponent = "1" + "0" * 4400
        assert render_expr(parse_expr(f"u1^{exponent}*u2", ctx2)) == f"u1^{exponent}*u2"

    def test_render_is_canonical(self, ctx1):
        rng = helpers.seeded(17)
        for _ in range(50):
            p = helpers.random_poly(rng, ctx1)
            q = helpers.random_poly(rng, ctx1)
            assert render_expr(p + q - q) == render_expr(p)
