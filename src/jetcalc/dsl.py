"""Text format for polynomials: a small expression language and its renderer.

Grammar (whitespace insignificant)::

    expr     := term (("+" | "-") term)*
    term     := factor ("*" factor)*
    factor   := "-" factor | primary ("^" posint)?
    primary  := rational | name | "(" expr ")"     (at most MAX_NESTING deep)
    rational := int ("/" posint)?

Names resolve through :meth:`~jetcalc.kernel.BundleSpec.resolve`, which owns
the naming scheme: a bare identifier is a base direction, a fiber (its
order-zero jet) or a parameter; a fiber name followed by ``_`` and a word over
direction names is a jet coordinate, e.g. ``u1_xy``.  The suffix word is a
multiset, so ``u1_yx`` parses to the same generator as ``u1_xy``.

Rendering is the exact inverse on canonical forms: terms in descending
graded-lex order, factors sorted by the generator order, rational
coefficients as ``3`` or ``3/5``, so ``parse_expr(render_expr(p)) == p``.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .kernel import BundleSpec, JetcalcError, Monomial, Poly, UnknownName


class ParseError(JetcalcError):
    """Syntax error in the expression language, with a character position."""

    def __init__(self, message: str, position: int):
        self.message = message
        self.position = position
        super().__init__(f"{message} (at position {position})")


_TOKEN = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<num>[0-9]+)"
    r"|(?P<name>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()])"
)


def _tokenize(text: str, offset: int) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", offset + pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), offset + pos))
        pos = m.end()
    tokens.append(("end", "", offset + len(text)))
    return tokens


def _exact(convert, value):
    """convert(value), for int or str, in full past the interpreter's limit on
    int/str digits: through `decimal`, which is exact and has none."""
    try:
        return convert(value)
    except ValueError:
        from decimal import Decimal
        if isinstance(value, Fraction):
            return f"{_exact(str, value.numerator)}/{_exact(str, value.denominator)}"
        return convert(Decimal(value))


# Each nesting level costs four Python frames (expr, term, factor, primary),
# so this bound keeps the recursive descent far below the interpreter's limit.
MAX_NESTING = 100


class _Parser:
    """Recursive descent over the grammar above.  `offset` is the position of
    `text` in its source: the tokenizer adds it to every token's position, so
    every ParseError and UnknownName is absolute where it is raised."""

    def __init__(self, text: str, ctx: BundleSpec, offset: int):
        self.tokens = _tokenize(text, offset)
        self.ctx = ctx
        self.i = 0
        self.depth = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}", pos)
        self.advance()

    def parse(self) -> Poly:
        p = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {text!r}", pos)
        return p

    def expr(self) -> Poly:
        parts = [self.term()]
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                q = self.term()
                parts.append(q if text == "+" else -q)
            else:
                return Poly.sum(self.ctx, parts)

    def term(self) -> Poly:
        p = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text == "*":
                self.advance()
                p = p * self.factor()
            else:
                return p

    def factor(self) -> Poly:
        negate = False
        while self.peek()[:2] == ("op", "-"):
            self.advance()
            negate = not negate
        p = self.primary()
        if self.peek()[:2] == ("op", "^"):
            self.advance()
            p = p ** self.posint()
        return -p if negate else p

    def posint(self) -> int:
        kind, text, pos = self.peek()
        value = _exact(int, text) if kind == "num" else 0
        if value < 1:
            raise ParseError("expected a positive integer", pos)
        self.advance()
        return value

    def primary(self) -> Poly:
        kind, text, pos = self.advance()
        if kind == "num":
            value = _exact(int, text)
            k, t, _ = self.peek()
            if k == "op" and t == "/":
                self.advance()
                value = Fraction(value, self.posint())
            return Poly.const(self.ctx, value)
        if kind == "name":
            try:
                g = self.ctx.resolve(text)
            except UnknownName:
                raise UnknownName(text, pos) from None
            return Poly.generator(self.ctx, g)
        if kind == "op" and text == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", pos)
            self.depth += 1
            p = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return p
        raise ParseError(f"unexpected {text!r}" if text else "unexpected end of input", pos)


def parse_expr(text: str, ctx: BundleSpec, offset: int = 0) -> Poly:
    """Parse an expression over the chart's names into a canonical Poly.
    `offset` is the position of `text` in its source, such as a model file:
    a ParseError or UnknownName reports its position from there."""
    return _Parser(text, ctx, offset).parse()


def _render_monomial(mono: Monomial, ctx: BundleSpec) -> str:
    parts = []
    for g, e in mono.powers:
        name = g.name(ctx)
        parts.append(name if e == 1 else f"{name}^{_exact(str, e)}")
    return "*".join(parts)


def render_expr(p: Poly) -> str:
    """Render a Poly to its canonical text form (deterministic, reparseable)."""
    if p.is_zero:
        return "0"
    pieces: list[str] = []
    for mono, coeff in p.sorted_terms():
        sign = "-" if coeff < 0 else "+"
        mag = -coeff if coeff < 0 else coeff
        if mono.is_unit:
            body = _exact(str, mag)
        elif mag == 1:
            body = _render_monomial(mono, p.ctx)
        else:
            body = f"{_exact(str, mag)}*{_render_monomial(mono, p.ctx)}"
        if not pieces:
            pieces.append(body if sign == "+" else "-" + body)
        else:
            pieces.append(f" {sign} {body}")
    return "".join(pieces)
