"""Text format for polynomials: a small expression language and its renderer.

Grammar (whitespace insignificant)::

    expr     := term (("+" | "-") term)*
    term     := factor ("*" factor)*
    factor   := "-" factor | primary ("^" posint)?
    primary  := rational | name | "(" expr ")"     (at most MAX_NESTING deep)
    rational := int ("/" posint)?

Names resolve against a :class:`~jetcalc.kernel.BundleSpec`: a bare identifier
is a base direction, a fiber (its order-zero jet) or a parameter; a fiber name
followed by ``_`` and a word over direction names is a jet coordinate, e.g.
``u1_xy``.  The suffix word is a multiset, so ``u1_yx`` parses to the same
generator as ``u1_xy``.

Rendering is the exact inverse on canonical forms: terms in descending
graded-lex order, factors sorted by the generator order, rational
coefficients as ``3`` or ``3/5``, so ``parse_expr(render_expr(p)) == p``.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .kernel import (
    BundleSpec,
    Generator,
    JetcalcError,
    Monomial,
    MultiIndex,
    Poly,
    UnknownName,
)


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


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


def _resolve_name(name: str, pos: int, ctx: BundleSpec) -> Generator:
    if "_" not in name:
        try:
            return ctx.resolve(name)
        except UnknownName:
            raise UnknownName(name, pos) from None
    stem, _, suffix = name.partition("_")
    if stem not in ctx.fibers or not suffix:
        raise UnknownName(name, pos)
    try:
        entries = ctx.split_suffix(suffix)
    except UnknownName:
        raise UnknownName(name, pos) from None
    return Generator.jet(ctx.fiber_index(stem), MultiIndex(entries))


# Each nesting level costs four Python frames (expr, term, factor, primary),
# so this bound keeps the recursive descent far below the interpreter's limit.
MAX_NESTING = 100


class _Parser:
    def __init__(self, text: str, ctx: BundleSpec):
        self.tokens = _tokenize(text)
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
        if kind != "num" or int(text) < 1:
            raise ParseError("expected a positive integer", pos)
        self.advance()
        return int(text)

    def primary(self) -> Poly:
        kind, text, pos = self.advance()
        if kind == "num":
            value = int(text)
            k, t, _ = self.peek()
            if k == "op" and t == "/":
                self.advance()
                value = Fraction(int(text), self.posint())
            return Poly.const(self.ctx, value)
        if kind == "name":
            g = _resolve_name(text, pos, self.ctx)
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


def parse_expr(text: str, ctx: BundleSpec) -> Poly:
    """Parse an expression over the chart's names into a canonical Poly."""
    return _Parser(text, ctx).parse()


def _render_monomial(mono: Monomial, ctx: BundleSpec) -> str:
    parts = []
    for g, e in mono.powers:
        name = g.name(ctx)
        parts.append(name if e == 1 else f"{name}^{e}")
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
            body = str(mag)
        elif mag == 1:
            body = _render_monomial(mono, p.ctx)
        else:
            body = f"{mag}*{_render_monomial(mono, p.ctx)}"
        if not pieces:
            pieces.append(body if sign == "+" else "-" + body)
        else:
            pieces.append(f" {sign} {body}")
    return "".join(pieces)
