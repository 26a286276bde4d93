"""Seeded random generators and hypothesis strategies shared by the
property-based suites, and the definitional forms of the calculus layer.

Everything here is deterministic given the Random instance passed in, so
failures reproduce exactly.  Coefficients stay small rationals and term
budgets stay low to keep expression swell bounded.
"""

from fractions import Fraction
from itertools import combinations_with_replacement
import random
import re

from hypothesis import strategies as st

from jetcalc import kernel
from jetcalc.dsl import MAX_NESTING, _exact
from jetcalc import (
    Automorphism,
    BundleSpec,
    CheckReport,
    EntryNotOrderZero,
    Generator,
    HorizontalForm,
    Monomial,
    MultiIndex,
    NonSkew,
    NotExact,
    ParseError,
    Poly,
    PreconditionFailed,
    UnknownName,
    check_covariance,
    l2_density,
    pullback,
    pullback_form,
    total_derivative,
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


def random_shear(rng, ctx, target, x_dependent=True, max_degree=2):
    pool = []
    if x_dependent:
        pool.extend(Generator.base(i) for i in range(ctx.n))
    for c in range(ctx.m):
        if c != target:
            pool.append(Generator.jet(c, MultiIndex(())))
    if not pool:
        return shear(ctx, target, Poly.const(ctx, rng.randint(1, 3)))
    offset = random_poly(rng, ctx, max_degree=max_degree, max_terms=2, pool=pool)
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


def reference_l2(p, q, omega):
    """The bracket density by its definition, from `reference_euler` and
    `Poly` products: the sum of omega^{ab} E_a(p) E_b(q)."""
    ep, eq = reference_euler(p), reference_euler(q)
    m = omega.ctx.m
    return Poly.sum(omega.ctx, (omega.entry(a, b) * ep[a] * eq[b]
                                for a in range(m) for b in range(m)))


def reference_jacobiator(p, q, r, omega):
    """The Jacobiator as nested brackets with the (2,1)-unshuffle signs:
    l2(l2(p,q), r) - l2(l2(p,r), q) + l2(l2(q,r), p)."""
    return (reference_l2(reference_l2(p, q, omega), r, omega)
            - reference_l2(reference_l2(p, r, omega), q, omega)
            + reference_l2(reference_l2(q, r, omega), p, omega))


def reference_automorphism_error(ctx, psi, psi_inv):
    """The message of the two-sided inverse check fiber by fiber, right
    inverse first, or None when both sides hold on every fiber."""
    forward = Automorphism._trusted(ctx, psi, psi_inv)
    inverse = forward.inverse()
    for a in range(ctx.m):
        u_a = Poly.generator(ctx, Generator.jet(a))
        if pullback(psi[a], inverse) != u_a:
            return f"psi_inv is not a right inverse on fiber {ctx.fibers[a]}"
        if pullback(psi_inv[a], forward) != u_a:
            return f"psi_inv is not a left inverse on fiber {ctx.fibers[a]}"
    return None


def reference_check_invariance(form, group):
    """Invariance by its definition: pull the form back under every element
    and report each element that moves it at `element[k]`, with each nonzero
    coefficient of the pullback minus the form."""
    residuals = []
    for k, g in enumerate(group.elements):
        moved = pullback_form(form, g)
        if moved != form:
            residuals.extend((f"element[{k}]", poly) for _, poly in (moved - form).coeffs)
    return CheckReport(not residuals, tuple(residuals))


def reference_check_invariant_closure(alpha, beta, group, omega):
    """The invariant-closure check with every precondition tested on every
    group element."""
    if alpha.degree != omega.ctx.n or beta.degree != omega.ctx.n:
        raise PreconditionFailed("closure check expects top-degree forms")
    if not reference_check_invariance(alpha, group):
        raise PreconditionFailed("alpha is not invariant under the group")
    if not reference_check_invariance(beta, group):
        raise PreconditionFailed("beta is not invariant under the group")
    for g in group.elements:
        if not check_covariance(omega, g):
            raise PreconditionFailed("omega is not covariant under every group element")
    density = l2_density(alpha.density_coefficient(), beta.density_coefficient(), omega)
    return reference_check_invariance(HorizontalForm.density(density), group)


def reference_compose(g, h):
    """g after h by substituting fiber maps directly: psi is g's with every
    u^b replaced by h's psi^b, psi_inv is h's with every u^b replaced by g's
    psi_inv^b."""
    through = {Generator.jet(b): h.psi[b] for b in range(g.ctx.m)}
    back = {Generator.jet(b): g.psi_inv[b] for b in range(g.ctx.m)}
    return (tuple(p.substitute(through) for p in g.psi),
            tuple(p.substitute(back) for p in h.psi_inv))


def reference_generated_by(*generators):
    """The elements of the group the generators generate, identity first,
    then breadth first: each element x in turn composed with every generator
    g, in the order given, g after x appended when new."""
    identity = Automorphism.identity(generators[0].ctx)
    generators = tuple(dict.fromkeys(g for g in generators if g != identity))
    elements = [identity]
    members = {identity}
    for x in elements:
        for g in generators:
            y = g.compose(x) if x is not identity else g
            if y not in members:
                elements.append(y)
                members.add(y)
    return tuple(elements)


def reference_blank_comments(text):
    """Every character from a `#` up to the end of its line becomes a space;
    newlines and everything outside comments stay."""
    out = []
    in_comment = False
    for ch in text:
        if ch == "#":
            in_comment = True
        if ch == "\n":
            in_comment = False
        out.append(" " if in_comment else ch)
    return "".join(out)


def reference_invert_total_derivative(h):
    """D_x^{-1} by peeling the top jet order k: first every monomial is
    tested for degree at most 1 in the order-k coordinates, then the
    coefficient of each u^a_k is antidifferentiated in u^a_{k-1} and its
    total derivative stripped."""
    ctx = h.ctx
    pieces = []
    current = h
    while not current.is_zero:
        k = current.max_order()
        if k == 0:
            if any(g.is_jet for g in current.generators()):
                raise NotExact("terminal remainder still depends on fiber coordinates")
            pieces.append(current.antiderivative(Generator.base(0)))
            break
        for mono, _ in current.items():
            top_degree = sum(e for g, e in mono.powers if g.is_jet and g.order == k)
            if top_degree > 1:
                raise NotExact(f"not affine-linear in jet coordinates of order {k}")
        for a in range(ctx.m):
            top = Generator.jet(a, MultiIndex((0,) * k))
            coeff = current.partial(top)
            if coeff.is_zero:
                continue
            piece = coeff.antiderivative(Generator.jet(a, MultiIndex((0,) * (k - 1))))
            pieces.append(piece)
            current = current - total_derivative(piece, 0)
        if not current.is_zero and current.max_order() >= k:
            raise NotExact(f"integrability failure at jet order {k}")
    result = Poly.sum(ctx, pieces)
    return result - Poly.const(ctx, result.constant_term())


def reference_pow(p, exponent):
    """p ** exponent by binary powering over merge products (`Poly.__mul__`),
    as `**` computed before packed exponents."""
    if not isinstance(exponent, int) or exponent < 0:
        raise ValueError("exponent must be a non-negative integer")
    out = one = Poly.const(p.ctx, 1)
    square = p
    while exponent:
        if exponent & 1:
            out = square if out is one else out * square
        exponent >>= 1
        if exponent:
            square = square * square
    return out


def reference_substitute(p, mapping):
    """`Poly.substitute` by per-pair monomial merges: each term's replaced
    factors are multiplied as polynomials, the fixed factors merged into
    every product monomial with `Monomial.times`, and the products
    accumulated over the least common denominator of the factors so far."""
    ctx = p.ctx
    for g, q in mapping.items():
        if not g.declared_in(ctx):
            raise UnknownName(repr(g))
        if q.ctx != ctx:
            raise ValueError("replacement polynomial over a different chart")
    power_cache = {}
    one = Poly.const(ctx, 1)
    terms = {}
    den = 1
    for mono, c in p._terms.items():
        fixed = []
        replaced = one
        for g, e in mono.powers:
            rep = mapping.get(g)
            if rep is None:
                fixed.append((g, e))
                continue
            powered = power_cache.get((g, e))
            if powered is None:
                powered = power_cache[g, e] = reference_pow(rep, e)
            replaced = powered if replaced is one else replaced * powered
        head = Monomial._canonical(tuple(fixed))
        if replaced._den != den:
            den, scale = kernel._common_den(terms, den, replaced._den)
            c *= scale
        for m, k in replaced._terms.items():
            kernel._accumulate(terms, head.times(m), c * k)
    return Poly._reduced(ctx, terms, p._den * den)


def reference_orthogonality(matrix):
    """The NotOrthogonal message of the first (i, j), row-major, with
    (M M^T)[i][j] off the identity, by the N^3 `Fraction` loop over the
    entries, or None when M is orthogonal."""
    n = len(matrix)
    m = [[Fraction(cell) for cell in row] for row in matrix]
    for i in range(n):
        for j in range(n):
            dot = sum((m[i][k] * m[j][k] for k in range(n)), Fraction(0))
            if dot != (1 if i == j else 0):
                return f"(M M^T)[{i + 1},{j + 1}] = {dot}"
    return None


def reference_validate_omega(ctx, entries):
    """The admissibility proof of `OmegaSpec` over every ordered pair (a, b),
    row-major."""
    fibers = ctx.fibers
    for a in range(ctx.m):
        for b in range(ctx.m):
            if entries[a][b] != -entries[b][a]:
                raise NonSkew(f"omega[{fibers[a]},{fibers[b]}] != -omega[{fibers[b]},{fibers[a]}]")
            for g in entries[a][b].generators():
                if g.is_base or (g.is_jet and g.order > 0):
                    raise EntryNotOrderZero(
                        f"omega[{fibers[a]},{fibers[b]}] depends on {g.name(ctx)}")


_REFERENCE_TOKEN = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<num>[0-9]+)"
    r"|(?P<name>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()])"
)


class _ReferenceParser:
    """`parse_expr` as the recursive descent over `Poly` arithmetic: a
    tokenizer that matches token by token, four frames per nesting level
    (expr, term, factor, primary), a `Poly` for every atom, and every
    product, power and unary minus computed by `*`, `**` and negation."""

    def __init__(self, text, ctx, offset):
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _REFERENCE_TOKEN.match(text, pos)
            if m is None:
                raise ParseError(f"unexpected character {text[pos]!r}", offset + pos)
            if m.lastgroup != "ws":
                self.tokens.append((m.lastgroup, m.group(), offset + pos))
            pos = m.end()
        self.tokens.append(("end", "", offset + len(text)))
        self.ctx = ctx
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}", pos)
        self.advance()

    def parse(self):
        p = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {text!r}", pos)
        return p

    def expr(self):
        parts = [self.term()]
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                q = self.term()
                parts.append(q if text == "+" else -q)
            else:
                return Poly.sum(self.ctx, parts)

    def term(self):
        p = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text == "*":
                self.advance()
                p = p * self.factor()
            else:
                return p

    def factor(self):
        negate = False
        while self.peek()[:2] == ("op", "-"):
            self.advance()
            negate = not negate
        p = self.primary()
        if self.peek()[:2] == ("op", "^"):
            self.advance()
            p = p ** self.posint()
        return -p if negate else p

    def posint(self):
        kind, text, pos = self.peek()
        value = _exact(int, text) if kind == "num" else 0
        if value < 1:
            raise ParseError("expected a positive integer", pos)
        self.advance()
        return value

    def primary(self):
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


def reference_parse_expr(text, ctx, offset=0):
    """`parse_expr` by the reference recursive descent over `Poly` arithmetic."""
    return _ReferenceParser(text, ctx, offset).parse()


@st.composite
def orthogonal_matrices(draw, max_size=4):
    """Exactly orthogonal rational matrices: a signed permutation matrix
    times up to three Pythagorean rotations in coordinate planes.  With
    probability one half one entry is then moved by a small rational, which
    mostly, not always, breaks orthogonality."""
    n = draw(st.integers(1, max_size))
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    matrix = [[Fraction(signs[i]) if j == perm[i] else Fraction(0) for j in range(n)]
              for i in range(n)]
    for _ in range(draw(st.integers(0, 3)) if n > 1 else 0):
        a, b = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        cos, sin = draw(st.sampled_from(PYTHAGOREAN))
        for row in matrix:
            row[a], row[b] = cos * row[a] - sin * row[b], sin * row[a] + cos * row[b]
    if draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        step = draw(st.sampled_from((1, -1, Fraction(1, 2), Fraction(-4, 5), Fraction(1, 25))))
        matrix[i][j] += step if draw(st.booleans()) else -2 * matrix[i][j]
    return matrix


@st.composite
def near_skew_omegas(draw):
    """A chart on 2 to 4 fibers and the rows of a skew structure matrix over
    it with order-zero entries, with at most one defect at a drawn (a, b),
    possibly diagonal: entry (a, b) alone gains a constant or a fiber, which
    breaks skewness, or it gains x or a first jet, and entry (b, a) the
    opposite term or none."""
    m = draw(st.integers(2, 4))
    ctx = BundleSpec(("x",), tuple(f"u{a + 1}" for a in range(m)))
    pool = [Poly.const(ctx, 1)] + [Poly.generator(ctx, Generator.jet(a)) for a in range(m)]
    entries = [[Poly.zero(ctx)] * m for _ in range(m)]
    for a in range(m):
        for b in range(a + 1, m):
            entry = Poly.sum(ctx, (draw(st.sampled_from(pool)) * draw(st.integers(-2, 2))
                                   for _ in range(draw(st.integers(0, 2)))))
            entries[a][b], entries[b][a] = entry, -entry
    a, b = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
    defect = draw(st.sampled_from(("none", "skew", "base", "jet")))
    if defect == "skew":
        entries[a][b] = entries[a][b] + draw(st.sampled_from(pool))
    elif defect != "none":
        term = (Poly.generator(ctx, Generator.base(0)) if defect == "base" else
                Poly.generator(ctx, Generator.jet(draw(st.integers(0, m - 1)),
                                                  MultiIndex((0,)))))
        entries[a][b] = entries[a][b] + term
        if draw(st.booleans()):
            entries[b][a] = entries[b][a] - term
    return ctx, tuple(tuple(row) for row in entries)


@st.composite
def near_inverse_pairs(draw):
    """A chart on 1 to 3 fibers over (x) and the fiber maps (psi, psi_inv)
    of a random automorphism, with up to two defects: an entry of either
    map gains a small multiple of 1, x, a fiber or a squared fiber, or is
    scaled by 2, -1 or 1/2.  A defect mostly, not always, breaks the
    inverse."""
    m = draw(st.integers(1, 3))
    ctx = BundleSpec(("x",), tuple(f"u{a + 1}" for a in range(m)))
    auto = random_automorphism(seeded(draw(st.integers(0, 2 ** 16))), ctx)
    maps = [list(auto.psi), list(auto.psi_inv)]
    coords = fiber_coordinates(ctx)
    pool = [Poly.const(ctx, 1), Poly.generator(ctx, Generator.base(0))] + coords + [
        u * u for u in coords]
    for _ in range(draw(st.integers(0, 2))):
        side, a = maps[draw(st.integers(0, 1))], draw(st.integers(0, m - 1))
        factor = draw(st.sampled_from((2, -1, Fraction(1, 2))))
        if draw(st.booleans()):
            side[a] = side[a] + draw(st.sampled_from(pool)) * factor
        else:
            side[a] = side[a] * factor
    return ctx, tuple(maps[0]), tuple(maps[1])


def assert_canonical(p):
    """`assert_normal_coefficients`, and every power tuple of p is the one
    the validating `Monomial` constructor builds: sorted, merged, no zero
    exponent."""
    assert_normal_coefficients(p)
    for mono, _ in p.items():
        assert mono.powers == Monomial(mono.powers).powers


def assert_normal_coefficients(p):
    """Every coefficient of p is nonzero and in its public form, an `int`
    (never a bool) or a `Fraction` that is not integral, and p equals, hash
    included, its rebuild from those terms, so its stored form is reduced."""
    for _, c in p.items():
        assert c
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)
    rebuilt = Poly.from_terms(p.ctx, p.items())
    assert p == rebuilt
    assert hash(p) == hash(rebuilt)


def seeded(seed):
    return random.Random(seed)
