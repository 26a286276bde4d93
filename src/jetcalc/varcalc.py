"""Total derivatives, horizontal forms, and the Euler-Lagrange operator.

The total derivative along the i-th base direction acts on a polynomial in
jet coordinates as

    D_i p = dp/dx^i + sum over fibers a and multi-indices J of
            u^a_{J+i} * dp/du^a_J,

the horizontal differential wedges it with dx^i, and the Euler-Lagrange
operator of a density P is

    E_a(P) = sum over distinct sorted multi-indices I of
             (-1)^|I| D_I (dP/du^a_I).

D_i is a derivation, so it is applied in one walk over the packed terms of a
kernel `_Layout` (`_Layout.derive_into`): each power g^e contributes
e * g^(e-1) times the image of g, which is 1 for x^i and the lifted
coordinate u^a_{J+i} for u^a_J.  The Euler sum is evaluated in nested
(Horner) form over the trie of occurring multi-indices: with

    T(I) = dP/du^a_I - sum over j >= last(I) of D_j T(I+j),

E_a(P) = T(()), so each occurring nonempty prefix costs one total derivative
instead of one per multi-index it prefixes.  The fold (`_euler`) runs in
packed exponents: every T(I) is a map from integer keys of a kernel
`_Layout` to integer numerators over P's denominator, and D_j adds to each
key what the layout's lift table gives for its generators.  `euler` unpacks
and reduces each component once; the bracket pairings and the Jacobiator
(`poisson`) keep the components packed in their own layout.

A polynomial density over a one-dimensional base is a total derivative if and
only if all its Euler components vanish; the preimage in that case is found
by peeling one jet order at a time.  The peel (`_peel`) runs in packed
exponents as well: the remainder is one map from keys to integer numerators
over a running common denominator, and each D_x(piece) is subtracted from
it in place.  `invert_total_derivative` packs h once, in a layout bounded by
deg h + 1, and unpacks g once; `shlie.l3` peels the Jacobiator in the
Jacobiator's own layout, which has room to spare.
"""

from __future__ import annotations

import operator
from math import lcm
from typing import Iterable, Mapping

from .kernel import (_JET, BundleSpec, Generator, JetcalcError, MultiIndex, Poly, _common_den,
                     _Layout, _same_chart)


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
    applied in one walk over the packed terms (`_Layout.derive_into`), in a
    layout bounded by deg p, since a derivation never raises the degree.
    """
    layout = _Layout(p.ctx, p.total_degree())
    out: dict[int, int] = {}
    layout.derive_into(out, layout.pack(p._terms), _direction(p.ctx, direction), 1)
    return layout.unpack(out, p._den)


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
            _same_chart(ctx, poly.ctx, "coefficient over a different chart")
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

    def _combine(self, other, op) -> "HorizontalForm":
        if not isinstance(other, HorizontalForm):
            return NotImplemented
        _same_chart(self.ctx, other.ctx, "cannot add forms of different degree or chart")
        if self.degree != other.degree:
            raise DegreeError("cannot add forms of different degree or chart")
        keys = set(self._lookup) | set(other._lookup)
        return HorizontalForm(
            self.ctx, self.degree,
            [(idx, op(self.coefficient(idx), other.coefficient(idx))) for idx in keys])

    def __add__(self, other: "HorizontalForm") -> "HorizontalForm":
        return self._combine(other, operator.add)

    def __sub__(self, other: "HorizontalForm") -> "HorizontalForm":
        return self._combine(other, operator.sub)

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


def _euler(layout: _Layout, terms: dict[int, int]) -> list[dict[int, int]]:
    """The Euler components of a packed density, one packed map per fiber,
    as numerators over the density's own denominator.

    The signed sum over multi-indices is evaluated in nested (Horner) form.
    With T(I) = dP/du^a_I - sum over j >= last(I) of D_j T(I+j), the
    component is E_a = T(()).  Each sorted multi-index I is reached from ()
    along exactly one path, appending entries in increasing order, so the
    sign is (-1)^|I| as in the definition, and each occurring nonempty
    prefix costs one D_j, subtracted in place from the map of its parent.
    One walk over the keys collects every dP/du^a_I.  A partial lowers the
    degree and a total derivative never raises it, so every T(I) respects
    any bound that P does, and the layout stays exact.
    """
    factors = layout.factors
    buckets: list[dict[tuple[int, ...], dict[int, int]]] = [{} for _ in range(layout.ctx.m)]
    for key, c in terms.items():
        for g, s, e in factors(key):
            if g.kind == _JET:
                buckets[g.pos].setdefault(g.index, {})[key - (1 << s)] = c * e
    components = []
    for bucket in buckets:
        for k in range(max(map(len, bucket), default=0), 0, -1):
            for index in [index for index in bucket if len(index) == k]:
                t = bucket.pop(index)
                if t:
                    layout.derive_into(bucket.setdefault(index[:-1], {}), t, index[-1], -1)
        components.append(bucket.get((), {}))
    return components


def euler(p: Poly) -> tuple[Poly, ...]:
    """All Euler-Lagrange components of a density, one per fiber: the packed
    fold `_euler` in a layout bounded by deg P, each component unpacked and
    reduced once."""
    layout = _Layout(p.ctx, p.total_degree())
    return tuple(layout.unpack(t, p._den) for t in _euler(layout, layout.pack(p._terms)))


def is_divergence(p: Poly) -> bool:
    """True when every Euler component of the density vanishes; the packed
    components are tested, and none is unpacked."""
    layout = _Layout(p.ctx, p.total_degree())
    return not any(_euler(layout, layout.pack(p._terms)))


def _occurring(layout: _Layout, terms: dict[int, int]) -> list[Generator]:
    """The generators of a packed map: the nonzero slots of its keys' union."""
    occupied = 0
    for key in terms:
        occupied |= key
    return [g for g, _, _ in layout.factors(occupied)]


def _antiderivative(layout: _Layout, terms: dict[int, int], den: int,
                    g: Generator) -> tuple[dict[int, int], int]:
    """The antiderivative in g of packed numerators over `den`, with no
    constant of integration, over den * lcm(e + 1), as `Poly.antiderivative`."""
    s, mask = layout.slot(g), layout.mask
    common = 1
    for key in terms:
        common = lcm(common, (key >> s & mask) + 1)
    one = 1 << s
    return {key + one: c * (common // ((key >> s & mask) + 1))
            for key, c in terms.items()}, den * common


def _peel(layout: _Layout, terms: dict[int, int], den: int) -> tuple[dict[int, int], int]:
    """The packed numerators, and their denominator, of the g with D_x g = h
    and zero constant term, for the packed numerators `terms` of h over
    `den` in a layout over a one-dimensional base.  `terms` is the running
    remainder and is consumed.

    Peels the top jet order k: an exact h is affine-linear in the order-k
    coordinates, and the coefficient of u^a_k is dg/du^a_{k-1}, which is
    antidifferentiated and stripped one fiber at a time, D_x(piece) being
    subtracted from the remainder in place.  The terminal remainder must be
    a polynomial in x alone, and its antiderivative in x is the last piece.
    The pieces are summed over their least common denominator, where a
    numerator may cancel to zero (`_Layout.unpack` drops it), and key 0 is
    dropped.  Raises NotExact when any stage fails.  The layout must bound
    deg h + 1 (`_Layout`).
    """
    mask = layout.mask
    out: dict[int, int] = {}
    out_den = 1

    def add(piece: dict[int, int], piece_den: int) -> None:
        nonlocal out_den
        out_den, scale = _common_den(out, out_den, piece_den)
        for key, c in piece.items():
            out[key] = out.get(key, 0) + c * scale

    while terms:
        gens = _occurring(layout, terms)
        k = max((g.order for g in gens), default=0)
        if k == 0:
            if any(g.kind == _JET for g in gens):
                raise NotExact("terminal remainder still depends on fiber coordinates")
            add(*_antiderivative(layout, terms, den, Generator.base(0)))
            break
        for a in range(layout.ctx.m):
            s = layout.shift.get(Generator.jet(a, MultiIndex((0,) * k)))
            if s is None:
                continue
            coeff = {key - (1 << s): c * e for key, c in terms.items() if (e := key >> s & mask)}
            if not coeff:
                continue
            # Stripping D(piece) adds only terms affine in order k, so a
            # non-affine term is still here when its first fiber comes up.
            if any(g.order == k for g in _occurring(layout, coeff)):
                raise NotExact(f"not affine-linear in jet coordinates of order {k}")
            piece, piece_den = _antiderivative(layout, coeff, den,
                                               Generator.jet(a, MultiIndex((0,) * (k - 1))))
            add(piece, piece_den)
            den, scale = _common_den(terms, den, piece_den)
            layout.derive_into(terms, piece, 0, -scale)
        if terms and any(g.order >= k for g in _occurring(layout, terms)):
            raise NotExact(f"integrability failure at jet order {k}")
    out.pop(0, None)
    return out, out_den


def invert_total_derivative(h: Poly) -> Poly:
    """Produce g with D_x g = h over a one-dimensional base, if possible.

    h is packed once into a layout bounded by deg h + 1, peeled (`_peel`),
    and g unpacked once; g has zero constant term.  Raises NotExact when h
    is not a total derivative.
    """
    if h.ctx.n != 1:
        raise Unsupported("invert_total_derivative requires a one-dimensional base")
    layout = _Layout(h.ctx, h.total_degree() + 1)
    return layout.unpack(*_peel(layout, layout.pack(h._terms), h._den))


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
