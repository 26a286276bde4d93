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

from .kernel import BundleSpec, CheckReport, JetcalcError, Poly
from .varcalc import euler, is_divergence


class NonSkew(JetcalcError):
    """The structure matrix is not skew-symmetric."""


class EntryNotOrderZero(JetcalcError):
    """A structure matrix entry depends on base coordinates or higher jets."""


@dataclass(frozen=True)
class OmegaSpec:
    """A fiberwise structure matrix: m x m polynomial entries over one chart."""

    ctx: BundleSpec
    entries: tuple[tuple[Poly, ...], ...]

    def __post_init__(self):
        m = self.ctx.m
        if len(self.entries) != m or any(len(row) != m for row in self.entries):
            raise ValueError(f"omega must be {m}x{m} to match the fibers")
        for row in self.entries:
            for entry in row:
                if entry.ctx != self.ctx:
                    raise ValueError("omega entry over a different chart")

    def entry(self, a: int, b: int) -> Poly:
        return self.entries[a][b]


def validate_omega(omega: OmegaSpec) -> None:
    """Check skewness and order-zero fiber dependence of every entry."""
    m = omega.ctx.m
    for a in range(m):
        for b in range(m):
            if omega.entry(a, b) != -omega.entry(b, a):
                names = (omega.ctx.fibers[a], omega.ctx.fibers[b])
                raise NonSkew(f"omega[{names[0]},{names[1]}] != -omega[{names[1]},{names[0]}]")
            for g in omega.entry(a, b).generators():
                if g.is_base or (g.is_jet and g.order > 0):
                    raise EntryNotOrderZero(
                        f"omega[{omega.ctx.fibers[a]},{omega.ctx.fibers[b]}] depends on "
                        f"{g.name(omega.ctx)}")


def cyclic_sum(omega: OmegaSpec, a: int, b: int, c: int) -> Poly:
    """The cyclic sum at (a, b, c), over only the nonzero summands
    omega^{zd} d(omega^{xy})/du^d: the u^d that omega^{xy} contains."""
    return Poly.sum(omega.ctx, (omega.entry(z, g.pos) * omega.entry(x, y).partial(g)
                                for x, y, z in ((a, b, c), (b, c, a), (c, a, b))
                                for g in omega.entry(x, y).generators()
                                if g.is_jet and not g.order and omega.entry(z, g.pos)))


def check_poisson_tensor(omega: OmegaSpec) -> CheckReport:
    """Verify the cyclic condition on every fiber triple a < b < c.

    Each failing triple is reported at `(a,b,c)` with its cyclic sum.  The
    cyclic sum is totally antisymmetric in (a, b, c) for a skew matrix and
    vanishes identically on repeated indices, so the strictly increasing
    triples decide the condition.
    """
    ctx = omega.ctx
    residuals = []
    for a in range(ctx.m):
        for b in range(a + 1, ctx.m):
            for c in range(b + 1, ctx.m):
                residual = cyclic_sum(omega, a, b, c)
                if not residual.is_zero:
                    residuals.append((f"({ctx.fibers[a]},{ctx.fibers[b]},{ctx.fibers[c]})",
                                      residual))
    return CheckReport(not residuals, tuple(residuals))


def _pairing(ep: tuple[Poly, ...], eq: tuple[Poly, ...], omega: OmegaSpec) -> Poly:
    """omega^{ab} ep[a] eq[b] on two tuples of Euler components."""
    m = omega.ctx.m
    return Poly.sum(omega.ctx, (omega.entry(a, b) * ep[a] * eq[b]
                                for a in range(m) if ep[a]
                                for b in range(m) if omega.entry(a, b) and eq[b]))


def l2_density(p: Poly, q: Poly, omega: OmegaSpec) -> Poly:
    """Bracket density omega^{ab} E_a(p) E_b(q)."""
    if p.ctx != omega.ctx or q.ctx != omega.ctx:
        raise ValueError("density over a different chart than omega")
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
    if any(d.ctx != omega.ctx for d in (p, q, r)):
        raise ValueError("density over a different chart than omega")
    ep, eq, er = euler(p), euler(q), euler(r)
    pq, pr, qr = (euler(_pairing(x, y, omega)) for x, y in ((ep, eq), (ep, er), (eq, er)))
    return Poly.sum(omega.ctx, (_pairing(pq, er, omega), -_pairing(pr, eq, omega),
                                _pairing(qr, ep, omega)))
