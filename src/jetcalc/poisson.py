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

from dataclasses import dataclass

from .kernel import BundleSpec, ChartMismatch, CheckReport, JetcalcError, Poly, _same_chart
from .varcalc import euler, is_divergence


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
    hand is admissible."""

    ctx: BundleSpec
    entries: tuple[tuple[Poly, ...], ...]

    def __post_init__(self):
        ctx, entries = self.ctx, self.entries
        m, fibers = ctx.m, ctx.fibers
        if len(entries) != m or any(len(row) != m for row in entries):
            raise ChartMismatch(f"omega must be {m}x{m} to match the fibers")
        for row in entries:
            for entry in row:
                _same_chart(ctx, entry.ctx, "omega entry over a different chart")
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


def _pairing(ep: tuple[Poly, ...], eq: tuple[Poly, ...], omega: OmegaSpec) -> Poly:
    """omega^{ab} ep[a] eq[b] on two tuples of Euler components."""
    m = omega.ctx.m
    return Poly.sum(omega.ctx, (omega.entry(a, b) * ep[a] * eq[b]
                                for a in range(m) if ep[a]
                                for b in range(m) if omega.entry(a, b) and eq[b]))


def l2_density(p: Poly, q: Poly, omega: OmegaSpec) -> Poly:
    """Bracket density omega^{ab} E_a(p) E_b(q)."""
    for density in (p, q):
        _same_chart(omega.ctx, density.ctx, "density over a different chart than omega")
    return _pairing(euler(p), euler(q), omega)


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


def jacobiator(p: Poly, q: Poly, r: Poly, omega: OmegaSpec) -> Poly:
    """Nested-bracket density with (2,1)-unshuffle signs:

    l2(l2(p,q), r) - l2(l2(p,r), q) + l2(l2(q,r), p).

    Each Euler component is computed once: those of p, q and r, and those
    of the three inner brackets, six `euler` calls in all.
    """
    for density in (p, q, r):
        _same_chart(omega.ctx, density.ctx, "density over a different chart than omega")
    return _jacobiator(euler(p), euler(q), euler(r), omega)


def _jacobiator(ep: tuple[Poly, ...], eq: tuple[Poly, ...], er: tuple[Poly, ...],
                omega: OmegaSpec) -> Poly:
    """The Jacobiator from the Euler components of its three densities."""
    pq, pr, qr = (euler(_pairing(x, y, omega)) for x, y in ((ep, eq), (ep, er), (eq, er)))
    return Poly.sum(omega.ctx, (_pairing(pq, er, omega), -_pairing(pr, eq, omega),
                                _pairing(qr, ep, omega)))
