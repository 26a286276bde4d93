"""Fiberwise Poisson structures and the induced bracket on densities.

An admissible structure matrix omega is skew, and each entry depends on the
order-zero fiber coordinates (and parameters) only.  It is a Poisson tensor
when for all fibers a, b, c

    sum_d [ omega^{cd} d(omega^{ab})/du^d
          + omega^{ad} d(omega^{bc})/du^d
          + omega^{bd} d(omega^{ca})/du^d ] = 0.

The induced bracket density of two Lagrangian densities P and Q is

    l2(P, Q) = sum_{a,b} omega^{ab} E_a(P) E_b(Q),

which represents the Poisson bracket of the corresponding functionals up to a
total divergence.  The Jacobiator below combines nested brackets with the
(2,1)-unshuffle signs (+, -, +); for a Poisson tensor it is always a
divergence, which is the exactness that the sh-Lie correction l3 inverts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .kernel import (BundleSpec, ChartMismatch, CheckReport, JetcalcError, Poly, _common_den,
                     _Layout, _same_chart)
from .varcalc import _euler, is_divergence


class NonSkew(JetcalcError):
    """The structure matrix is not skew-symmetric."""


class EntryNotOrderZero(JetcalcError):
    """A structure matrix entry depends on base coordinates or higher jets."""


@dataclass(frozen=True)
class OmegaSpec:
    """An admissible structure matrix: m x m polynomial entries over one
    chart, skew, and of order zero in the fibers.

    Construction is the one proof of admissibility.  It checks the shape
    (ChartMismatch), each entry's chart, and then skewness and order-zero
    fiber dependence once per pair (a, b), a <= b: a skew pair's entries
    have the same generators, so the first failure is that of a pass over
    every ordered pair.  A pair of zero entries cannot fail and is skipped.
    A failure raises NonSkew or EntryNotOrderZero, so every `OmegaSpec` in
    hand is admissible.  `degree`, the largest total degree of an entry, is
    computed once here for the layouts of the brackets, over the nonzero
    pairs only (a skew pair's entries have the same degree); it is not
    compared, hashed or printed."""

    ctx: BundleSpec
    entries: tuple[tuple[Poly, ...], ...]
    degree: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ctx, entries = self.ctx, self.entries
        m, fibers = ctx.m, ctx.fibers
        if len(entries) != m or any(len(row) != m for row in entries):
            raise ChartMismatch(f"omega must be {m}x{m} to match the fibers")
        for row in entries:
            for entry in row:
                _same_chart(ctx, entry.ctx, "omega entry over a different chart")
        degree = 0
        for a, row in enumerate(entries):
            for b in range(a, m):
                upper, lower = row[b], entries[b][a]
                if not upper and not lower:
                    continue
                x, y = fibers[a], fibers[b]
                if upper != -lower:
                    raise NonSkew(f"omega[{x},{y}] != -omega[{y},{x}]")
                for g in upper.generators():
                    if g.is_base or (g.is_jet and g.order > 0):
                        raise EntryNotOrderZero(f"omega[{x},{y}] depends on {g.name(ctx)}")
                degree = max(degree, upper.total_degree())
        object.__setattr__(self, "degree", degree)

    def entry(self, a: int, b: int) -> Poly:
        return self.entries[a][b]


def cyclic_sum(omega: OmegaSpec, a: int, b: int, c: int) -> Poly:
    """The cyclic sum at (a, b, c), over only the nonzero summands
    omega^{zd} d(omega^{xy})/du^d: the u^d that omega^{xy} contains."""
    return Poly.sum(omega.ctx, (omega.entry(z, g.pos) * omega.entry(x, y).partial(g)
                                for x, y, z in ((a, b, c), (b, c, a), (c, a, b))
                                for g in omega.entry(x, y).generators()
                                if g.is_jet and not g.order and omega.entry(z, g.pos)))


def check_poisson_tensor(omega: OmegaSpec) -> CheckReport:
    """Verify the cyclic condition on every fiber triple a < b < c.

    Each failing triple is reported at `(a,b,c)` with its cyclic sum, in
    increasing order.  An `OmegaSpec` is skew by construction, so the cyclic
    sum is totally antisymmetric in (a, b, c) and vanishes on repeated
    indices, and these triples decide the condition.  A summand
    omega^{zd} d(omega^{xy})/du^d vanishes unless omega^{zd} is nonzero and
    omega^{xy} contains u^d, so one pass over the upper triangle finds the
    only triples {x, y, z} that can fail; every other triple has only zero
    summands and is skipped.
    """
    m, fibers = omega.ctx.m, omega.ctx.fibers
    containing = [[] for _ in range(m)]     # d -> the pairs x < y with u^d in omega^{xy}
    rows = [[] for _ in range(m)]           # d -> the z with omega^{zd} != 0
    for x in range(m):
        for y in range(x + 1, m):
            entry = omega.entry(x, y)
            if entry:
                rows[x].append(y)
                rows[y].append(x)
            for g in entry.generators():
                if g.is_jet and not g.order:
                    containing[g.pos].append((x, y))
    triples = {tuple(sorted((x, y, z))) for d in range(m) for x, y in containing[d]
               for z in rows[d] if z != x and z != y}
    return CheckReport.of((f"({fibers[a]},{fibers[b]},{fibers[c]})", cyclic_sum(omega, a, b, c))
                          for a, b, c in sorted(triples))


# Packed operands of one `_Layout`: a vector holds one numerator map per
# fiber, and omega its nonzero entries as (a, b, map); each is over one
# denominator.
_Vector = tuple[list[dict[int, int]], int]
_Omega = tuple[list[tuple[int, int, dict[int, int]]], int]


def _same_charts(omega: OmegaSpec, densities: Iterable[Poly]) -> None:
    """Raise ChartMismatch at the first density over another chart than omega."""
    for density in densities:
        _same_chart(omega.ctx, density.ctx, "density over a different chart than omega")


def _packed_omega(layout: _Layout, omega: OmegaSpec) -> _Omega:
    """omega's nonzero entries as (a, b, packed map), over their least common
    denominator; the zero entries are not packed."""
    support = [(a, b, entry) for a, row in enumerate(omega.entries)
               for b, entry in enumerate(row) if entry]
    maps, den = layout.pack_over(entry for _, _, entry in support)
    return [(a, b, w) for (a, b, _), w in zip(support, maps)], den


def _euler_vector(layout: _Layout, density: Poly) -> _Vector:
    """The packed Euler components of a density, over its denominator."""
    return _euler(layout, layout.pack(density._terms)), density._den


def _pairing(omega: _Omega, pairs: Iterable[tuple[_Vector, _Vector]]) -> tuple[dict[int, int], int]:
    """The sum over `pairs` (x, y) of omega^{ab} x[a] y[b], for a packed
    omega and packed vectors of one layout, as one packed map without zero
    numerators and its denominator.  Multiplying two monomials is adding
    their keys; the running sum is kept over the least common denominator of
    the pairs so far, as in `Poly.sum`."""
    entries, dw = omega
    out: dict[int, int] = {}
    get = out.get
    den = 1
    for (xs, dx), (ys, dy) in pairs:
        den, scale = _common_den(out, den, dw * dx * dy)
        for a, b, w in entries:
            x, y = xs[a], ys[b]
            if not x or not y:
                continue
            y = tuple(y.items())
            for k1, c1 in _Layout.mul(w, x).items():
                c1 *= scale
                for k2, c2 in y:
                    k = k1 + k2
                    out[k] = get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}, den


def l2_density(p: Poly, q: Poly, omega: OmegaSpec) -> Poly:
    """Bracket density omega^{ab} E_a(p) E_b(q), paired in one layout bounded
    by deg omega + deg p + deg q."""
    _same_charts(omega, (p, q))
    layout = _Layout(omega.ctx, omega.degree + p.total_degree() + q.total_degree())
    pairs = ((_euler_vector(layout, p), _euler_vector(layout, q)),)
    return layout.unpack(*_pairing(_packed_omega(layout, omega), pairs))


@dataclass
class FunctionalClass:
    """A density modulo total divergences; equality compares Euler components."""

    density: Poly

    def __eq__(self, other) -> bool:
        if not isinstance(other, FunctionalClass):
            return NotImplemented
        return is_divergence(self.density - other.density)


def bracket(p: FunctionalClass, q: FunctionalClass, omega: OmegaSpec) -> FunctionalClass:
    """Poisson bracket of two functional classes."""
    return FunctionalClass(l2_density(p.density, q.density, omega))


def _jacobiator_bound(omega: OmegaSpec, p: Poly, q: Poly, r: Poly) -> int:
    """A degree bound for the Jacobiator's layout: 2 deg omega + deg p +
    deg q + deg r.  An inner bracket has degree at most deg omega + deg p +
    deg q - 2, and the Jacobiator at most 4 less than the bound."""
    return 2 * omega.degree + p.total_degree() + q.total_degree() + r.total_degree()


def jacobiator(p: Poly, q: Poly, r: Poly, omega: OmegaSpec) -> Poly:
    """Nested-bracket density with (2,1)-unshuffle signs:

    l2(l2(p,q), r) - l2(l2(p,r), q) + l2(l2(q,r), p),

    computed in one layout (`_packed_jacobiator`) and unpacked once.
    """
    layout, terms, den = _packed_jacobiator(p, q, r, omega)
    return layout.unpack(terms, den)


def _packed_jacobiator(p: Poly, q: Poly, r: Poly,
                       omega: OmegaSpec) -> tuple[_Layout, dict[int, int], int]:
    """The Jacobiator's layout, bounded by `_jacobiator_bound`, and its
    packed numerators and denominator there (`_jacobiator`)."""
    _same_charts(omega, (p, q, r))
    layout = _Layout(omega.ctx, _jacobiator_bound(omega, p, q, r))
    return layout, *_jacobiator(layout, _packed_omega(layout, omega),
                                *(_euler_vector(layout, density) for density in (p, q, r)))


def _jacobiator(layout: _Layout, omega: _Omega, ep: _Vector, eq: _Vector,
                er: _Vector) -> tuple[dict[int, int], int]:
    """The Jacobiator from the packed Euler vectors of its three densities,
    as packed numerators without zeros and their denominator.

    Everything stays packed in `layout`: the three inner brackets, their
    three Euler vectors and the outer pairings, each a sum of products by
    key addition.  omega is skew, so -l2(l2(p,r), q) is l2(q, l2(p,r)), and
    the outer brackets are one signless sum of pairings.
    """
    pq, pr, qr = ((_euler(layout, t), den) for t, den in
                  (_pairing(omega, ((x, y),)) for x, y in ((ep, eq), (ep, er), (eq, er))))
    return _pairing(omega, ((pq, er), (eq, pr), (qr, ep)))
