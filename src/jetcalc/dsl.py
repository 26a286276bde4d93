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

from .kernel import BundleSpec, Generator, JetcalcError, Monomial, Poly, Scalar, UnknownName


class ParseError(JetcalcError):
    """Syntax error in the expression language, with a character position."""

    def __init__(self, message: str, position: int):
        self.message = message
        self.position = position
        super().__init__(f"{message} (at position {position})")


# One match per token, leading whitespace skipped; `bad` catches any other
# character, so one pass finds every token and the first bad character.
_TOKEN = re.compile(r"\s*(?:(?P<num>[0-9]+)|(?P<name>[A-Za-z][A-Za-z0-9_]*)"
                    r"|(?P<op>[-+*/^()])|(?P<bad>\S))")


def _tokenize(text: str, offset: int) -> list[tuple[str, str, int]]:
    """(kind, text, position) per token, then ("end", "", end position); an
    operator's kind is the operator itself."""
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        word = m.group(kind)
        if kind == "bad":
            raise ParseError(f"unexpected character {word!r}", offset + m.start(kind))
        tokens.append((word if kind == "op" else kind, word, offset + m.start(kind)))
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


# Each nesting level costs two Python frames (expr, term), so this bound
# keeps the recursive descent far below the interpreter's limit.
MAX_NESTING = 100


class _Parser:
    """Recursive descent over the grammar above.  `offset` is the position of
    `text` in its source: the tokenizer adds it to every token's position, so
    every ParseError and UnknownName is absolute where it is raised.

    `term` folds a product of atoms (numbers and names, each with an optional
    power and any number of unary minuses) into one coefficient and one
    monomial; only parenthesised factors go through `Poly` `*` and `**`.
    `expr` gathers each run of atom terms into one `Poly.from_terms` and sums
    the runs and the other terms with one `Poly.sum`, in their order in the
    text, so the term map has the order that summing term by term gives."""

    def __init__(self, text: str, ctx: BundleSpec, offset: int):
        self.tokens = _tokenize(text, offset)
        self.ctx = ctx
        self.i = 0
        self.depth = 0

    def parse(self) -> Poly:
        p = self.expr()
        kind, text, pos = self.tokens[self.i]
        if kind != "end":
            raise ParseError(f"unexpected {text!r}", pos)
        return p

    def expr(self) -> Poly:
        ctx = self.ctx
        parts: list[Poly] = []
        run: list[tuple[Monomial, Scalar]] = []
        negate = False
        while True:
            t = self.term(negate)
            if isinstance(t, Poly):
                if run:
                    parts.append(Poly.from_terms(ctx, run))
                    run = []
                parts.append(t)
            else:
                run.append(t)
            kind = self.tokens[self.i][0]
            if kind != "+" and kind != "-":
                break
            self.i += 1
            negate = kind == "-"
        if run:
            parts.append(Poly.from_terms(ctx, run))
        return parts[0] if len(parts) == 1 else Poly.sum(ctx, parts)

    def term(self, negate: bool) -> Poly | tuple[Monomial, Scalar]:
        """A product of factors, negated if `negate`: a (monomial,
        coefficient) pair while every factor is an atom, else a Poly."""
        tokens = self.tokens
        num, den = (-1 if negate else 1), 1
        powers: dict[Generator, int] = {}
        product = None          # of the parenthesised factors
        while True:
            kind, text, pos = tokens[self.i]
            self.i += 1
            while kind == "-":
                num = -num
                kind, text, pos = tokens[self.i]
                self.i += 1
            if kind == "num":
                value, below = _exact(int, text), 1
                if tokens[self.i][0] == "/":
                    self.i += 1
                    below = self.posint()
                e = self.exponent()
                num *= value ** e
                den *= below ** e
            elif kind == "name":
                try:
                    g = self.ctx.resolve(text)
                except UnknownName:
                    raise UnknownName(text, pos) from None
                powers[g] = powers.get(g, 0) + self.exponent()
            elif kind == "(":
                if self.depth == MAX_NESTING:
                    raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", pos)
                self.depth += 1
                p = self.expr()
                if tokens[self.i][0] != ")":
                    raise ParseError("expected ')'", tokens[self.i][2])
                self.i += 1
                self.depth -= 1
                e = self.exponent()
                p = p ** e if e > 1 else p
                product = p if product is None else product * p
            else:
                raise ParseError(f"unexpected {text!r}" if text else "unexpected end of input",
                                 pos)
            if tokens[self.i][0] != "*":
                break
            self.i += 1
        mono = Monomial._canonical(tuple(sorted(powers.items())))
        coeff = num if den == 1 else Fraction(num, den)
        if product is None:
            return mono, coeff
        if powers or coeff != 1:
            product = product * Poly.from_terms(self.ctx, ((mono, coeff),))
        return product

    def exponent(self) -> int:
        """The power after a "^", or 1 if none follows."""
        if self.tokens[self.i][0] != "^":
            return 1
        self.i += 1
        return self.posint()

    def posint(self) -> int:
        kind, text, pos = self.tokens[self.i]
        value = _exact(int, text) if kind == "num" else 0
        if value < 1:
            raise ParseError("expected a positive integer", pos)
        self.i += 1
        return value


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
