"""Total derivatives, horizontal forms, and the Euler-Lagrange operator.

The total derivative along the i-th base direction acts on a polynomial in
jet coordinates as

    D_i p = dp/dx^i + sum over fibers a and multi-indices J of
            u^a_{J+i} * dp/du^a_J,

the horizontal differential wedges it with dx^i, and the Euler-Lagrange
operator of a density P is

    E_a(P) = sum over distinct sorted multi-indices I of
             (-1)^|I| D_I (dP/du^a_I).

D_i is a derivation, so it is applied in one walk over the terms
(`Poly.derivation`): each power g^e contributes e * g^(e-1) times the image of
g, which is 1 for x^i and the lifted coordinate u^a_{J+i} for u^a_J.  The
Euler sum is evaluated in nested (Horner) form over the trie of occurring
multi-indices: with

    T(I) = dP/du^a_I - sum over j >= last(I) of D_j T(I+j),

E_a(P) = T(()), so each occurring nonempty prefix costs one total derivative
instead of one per multi-index it prefixes.

A polynomial density over a one-dimensional base is a total derivative if and
only if all its Euler components vanish; `invert_total_derivative` produces
the preimage in that case by peeling one jet order at a time.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .kernel import UNIT, BundleSpec, Generator, JetcalcError, Monomial, MultiIndex, Poly


class DegreeError(JetcalcError):
    """A horizontal form of the wrong degree for the requested operation."""


class NotExact(JetcalcError):
    """The input is not a total derivative (or not exact), so no preimage exists."""


class Unsupported(JetcalcError):
    """Operation restricted to a smaller base dimension than the one supplied."""


def _direction(ctx: BundleSpec, direction: int | str) -> int:
    if isinstance(direction, str):
        return ctx.direction_index(direction)
    if not 0 <= direction < ctx.n:
        raise ValueError(f"direction {direction} out of range")
    return direction


def total_derivative(p: Poly, direction: int | str) -> Poly:
    """Apply the total derivative D_i, raising each jet order by one.

    D_i is the derivation sending x^i to 1 and u^a_J to u^a_{J+i}; it is
    applied in one walk over the terms, with each lifted jet coordinate
    built once per call.
    """
    i = _direction(p.ctx, direction)
    lifts: dict[Generator, Monomial] = {Generator.base(i): UNIT}

    def image(g: Generator) -> Monomial | None:
        m = lifts.get(g)
        if m is None and g.is_jet:
            m = lifts[g] = Monomial(((Generator.jet(g.pos, g.index.extended(i)), 1),))
        return m

    return p.derivation(image)


def iterated_total_derivative(p: Poly, index: MultiIndex) -> Poly:
    """Apply D_I, one direction at a time (total derivatives commute)."""
    out = p
    for i in index:
        out = total_derivative(out, i)
    return out


class HorizontalForm:
    """A horizontal k-form: polynomial coefficients on increasing dx-tuples.

    Stored canonically as a sorted tuple of (increasing index tuple, nonzero
    Poly) pairs; degree 0 uses the empty tuple as its single key.
    """

    __slots__ = ("ctx", "degree", "coeffs", "_lookup")

    def __init__(self, ctx: BundleSpec, degree: int,
                 coeffs: Mapping[tuple[int, ...], Poly] | Iterable[tuple[tuple[int, ...], Poly]] = ()):
        if not 0 <= degree <= ctx.n:
            raise DegreeError(f"form degree {degree} outside 0..{ctx.n}")
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        lookup: dict[tuple[int, ...], Poly] = {}
        for idx, poly in items:
            idx = tuple(idx)
            if len(idx) != degree:
                raise DegreeError(f"index tuple {idx} has wrong length for degree {degree}")
            if list(idx) != sorted(set(idx)):
                raise ValueError(f"index tuple {idx} must be strictly increasing")
            if any(not 0 <= i < ctx.n for i in idx):
                raise ValueError(f"index tuple {idx} out of range")
            if poly.ctx != ctx:
                raise ValueError("coefficient over a different chart")
            if poly.is_zero:
                continue
            if idx in lookup:
                raise ValueError(f"duplicate index tuple {idx}")
            lookup[idx] = poly
        self.ctx = ctx
        self.degree = degree
        self.coeffs = tuple(sorted(lookup.items()))
        self._lookup = lookup

    @classmethod
    def scalar(cls, poly: Poly) -> "HorizontalForm":
        return cls(poly.ctx, 0, {(): poly})

    @classmethod
    def density(cls, poly: Poly) -> "HorizontalForm":
        """The top-degree form poly * dx^1 ^ ... ^ dx^n."""
        return cls(poly.ctx, poly.ctx.n, {tuple(range(poly.ctx.n)): poly})

    @classmethod
    def zero(cls, ctx: BundleSpec, degree: int) -> "HorizontalForm":
        return cls(ctx, degree)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, idx: tuple[int, ...]) -> Poly:
        return self._lookup.get(tuple(idx), Poly.zero(self.ctx))

    def density_coefficient(self) -> Poly:
        if self.degree != self.ctx.n:
            raise DegreeError("not a top-degree form")
        return self.coefficient(tuple(range(self.ctx.n)))

    def scalar_coefficient(self) -> Poly:
        if self.degree != 0:
            raise DegreeError("not a degree-zero form")
        return self.coefficient(())

    def map_coefficients(self, fn) -> "HorizontalForm":
        return HorizontalForm(self.ctx, self.degree,
                              [(idx, fn(poly)) for idx, poly in self.coeffs])

    def __add__(self, other: "HorizontalForm") -> "HorizontalForm":
        if not isinstance(other, HorizontalForm):
            return NotImplemented
        if self.ctx != other.ctx or self.degree != other.degree:
            raise DegreeError("cannot add forms of different degree or chart")
        keys = set(self._lookup) | set(other._lookup)
        return HorizontalForm(
            self.ctx, self.degree,
            [(idx, self.coefficient(idx) + other.coefficient(idx)) for idx in keys])

    def __sub__(self, other: "HorizontalForm") -> "HorizontalForm":
        return self + other * -1

    def __mul__(self, scalar) -> "HorizontalForm":
        return self.map_coefficients(lambda p: p * scalar)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (isinstance(other, HorizontalForm) and self.ctx == other.ctx
                and self.degree == other.degree and self.coeffs == other.coeffs)

    def __repr__(self) -> str:
        if self.is_zero:
            return f"HorizontalForm(degree={self.degree}, 0)"
        body = ", ".join(
            f"{'^'.join('d' + self.ctx.base_dims[i] for i in idx) or '1'}: {poly}"
            for idx, poly in self.coeffs)
        return f"HorizontalForm(degree={self.degree}, {body})"


def d_h(form: HorizontalForm) -> HorizontalForm:
    """Horizontal differential: d_h(a dx^I) = D_i(a) dx^i ^ dx^I."""
    ctx = form.ctx
    if form.degree >= ctx.n:
        raise DegreeError("d_h on a top-degree form")
    parts: dict[tuple[int, ...], list[Poly]] = {}
    for idx, poly in form.coeffs:
        for i in range(ctx.n):
            if i in idx:
                continue
            insert_at = sum(1 for j in idx if j < i)
            sign = -1 if insert_at % 2 else 1
            key = tuple(sorted(idx + (i,)))
            parts.setdefault(key, []).append(total_derivative(poly, i) * sign)
    return HorizontalForm(ctx, form.degree + 1,
                          {key: Poly.sum(ctx, terms) for key, terms in parts.items()})


def euler(p: Poly) -> tuple[Poly, ...]:
    """All Euler-Lagrange components of a density, one per fiber.

    The signed sum over multi-indices is evaluated in nested (Horner) form.
    With T(I) = dP/du^a_I - sum over j >= last(I) of D_j T(I+j), the
    component is E_a = T(()).  Each sorted multi-index I is reached from ()
    along exactly one path, appending entries in increasing order, so the
    sign is (-1)^|I| as in the definition, and each occurring nonempty
    prefix costs one total derivative.
    """
    ctx = p.ctx
    buckets: list[dict[tuple[int, ...], list[Poly]]] = [{} for _ in range(ctx.m)]
    for g in p.generators():
        if g.is_jet:
            buckets[g.pos][g.index] = [p.partial(g)]
    components = []
    for bucket in buckets:
        for k in range(max(map(len, bucket), default=0), 0, -1):
            for index in [index for index in bucket if len(index) == k]:
                t = Poly.sum(ctx, bucket.pop(index))
                if t:
                    bucket.setdefault(index[:-1], []).append(-total_derivative(t, index[-1]))
        components.append(Poly.sum(ctx, bucket.get((), ())))
    return tuple(components)


def is_divergence(p: Poly) -> bool:
    """True when every Euler component of the density vanishes."""
    return all(component.is_zero for component in euler(p))


def _antiderivative(p: Poly, g: Generator) -> Poly:
    """Antidifferentiate with respect to one generator, no integration constant."""
    ctx = p.ctx
    terms = []
    for mono, coeff in p.items():
        e = mono.exponent(g)
        terms.append((mono.with_exponent(g, e + 1), Fraction(coeff, e + 1)))
    return Poly.from_terms(ctx, terms)


def invert_total_derivative(h: Poly) -> Poly:
    """Produce g with D_x g = h over a one-dimensional base, if possible.

    Peels the top jet order k: an exact h is affine-linear in the order-k
    coordinates, and the coefficient of u^a_k is dg/du^a_{k-1}, which is
    antidifferentiated and stripped one fiber at a time.  The terminal
    remainder must be a polynomial in x alone.  The result is normalised to
    zero constant term.  Raises NotExact when any stage fails.
    """
    ctx = h.ctx
    if ctx.n != 1:
        raise Unsupported("invert_total_derivative requires a one-dimensional base")
    pieces = []
    current = h
    while not current.is_zero:
        k = current.max_order()
        if k == 0:
            if any(g.is_jet for g in current.generators()):
                raise NotExact("terminal remainder still depends on fiber coordinates")
            pieces.append(_antiderivative(current, Generator.base(0)))
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
            piece = _antiderivative(coeff, Generator.jet(a, MultiIndex((0,) * (k - 1))))
            pieces.append(piece)
            current = current - total_derivative(piece, 0)
        if not current.is_zero and current.max_order() >= k:
            raise NotExact(f"integrability failure at jet order {k}")
    result = Poly.sum(ctx, pieces)
    return result - Poly.const(ctx, result.constant_term())


def homotopy_s(form: HorizontalForm) -> HorizontalForm:
    """Chain homotopy on exact top-degree forms over a one-dimensional base.

    s(h dx) = -g where D_x g = h, so that -(s(d_h f)) = f on zero-constant f
    and d_h(s(w)) = -w on exact w.  Raises NotExact when h has no preimage.
    """
    ctx = form.ctx
    if ctx.n != 1:
        raise Unsupported("the homotopy is implemented for a one-dimensional base")
    if form.degree != 1:
        raise DegreeError("the homotopy acts on top-degree forms")
    g = invert_total_derivative(form.density_coefficient())
    return HorizontalForm.scalar(-g)
