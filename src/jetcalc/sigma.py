"""First-order covariant field theory on a two-dimensional base.

Given N scalar fields u_1..u_N and a skew N x N structure matrix W whose
entries are polynomials in the u's, the generated bundle carries the fields
together with auxiliary covector fields w^A_mu (mu in {0, 1}), ordered
(u_1..u_N, w^1_0..w^N_0, w^1_1..w^N_1).  The first-order Lagrangian density
is

    L = eps^{mu nu} [ w^A_mu (u_{A,nu} + W_{AB} w^B_nu)
                      - 1/2 W_{AB} w^A_mu w^B_nu ],

with eps^{01} = +1.  Its Euler components in the w-block reproduce the
covariant derivative eps^{mu nu}(u_{A,nu} + W_{AB} w^B_nu) exactly, and in
the u-block equal one half of the contracted curvature

    eps^{mu nu} R^A_{mu nu},
    R^A_{mu nu} = d_mu w^A_nu - d_nu w^A_mu + (dW_{BC}/du_A) w^B_mu w^C_nu.

The factor of one half relative to the curvature formula as usually displayed
is deliberate and is flagged in the Euler report rather than absorbed.

The fiberwise structure on the generated bundle is block diagonal with W in
the u-block and in each w_mu-block; an exactly orthogonal rational matrix M
acts by u_B -> M^A_B u_A and w^D_mu -> (M^{-1})^D_A w^A_mu.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .dsl import parse_expr
from .kernel import (BundleSpec, ChartMismatch, CheckReport, Generator, JetcalcError, Monomial,
                     MultiIndex, Poly, _same_chart)
from .poisson import OmegaSpec
from .symmetry import Automorphism, pullback
from .varcalc import euler

_EPS = ((0, 1, 1), (1, 0, -1))

FACTOR_NOTE = ("u-block Euler components equal 1/2 of the contracted curvature; "
               "the curvature formula as usually displayed is off by a factor of 2")


class NotOrthogonal(JetcalcError):
    """The supplied matrix is not exactly orthogonal."""


def _sigma_names(n_fields: int) -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]:
    """Base, fiber and parameter names of the chart for N fields."""
    if n_fields < 1:
        raise ValueError("at least one field is required")
    fibers = (tuple(f"u{A}" for A in range(1, n_fields + 1))
              + tuple(f"w{A}{mu}" for mu in "01" for A in range(1, n_fields + 1)))
    return ("x0", "x1"), fibers, ()


def sigma_bundle(n_fields: int) -> BundleSpec:
    """The chart for N fields over base (x0, x1): fibers u*, w*0, w*1."""
    return BundleSpec(*_sigma_names(n_fields))


def _w_pos(n_fields: int, A: int, mu: int) -> int:
    return n_fields + mu * n_fields + A


@dataclass(frozen=True)
class SigmaModelSpec:
    """N fields with a skew structure matrix in the fields alone.

    `bundle` must be the chart of `sigma_bundle(n_fields)`.  Its names are
    compared with the ones `sigma_bundle` would give it, so checking a chart
    does not build a second one.  W must be N x N over that chart, with
    entries in the fields alone.  `omega` is the chart's block-diagonal
    structure matrix, built once here: W in the u-block and in each
    w_mu-block, every cross block zero.  Building it is the one proof that
    W is skew, so a non-skew W raises NonSkew at its first pair of fibers.
    Equality and hashing read the three given fields only.
    """

    n_fields: int
    w: tuple[tuple[Poly, ...], ...]
    bundle: BundleSpec
    omega: OmegaSpec = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        N = self.n_fields
        ctx = self.bundle
        if (ctx.base_dims, ctx.fibers, ctx.params) != _sigma_names(N):
            raise ChartMismatch("bundle does not match the generated sigma chart")
        if len(self.w) != N or any(len(row) != N for row in self.w):
            raise ValueError(f"structure matrix must be {N}x{N}")
        for row in self.w:
            for entry in row:
                _same_chart(ctx, entry.ctx, "structure entry over a different chart")
                for g in entry.generators():
                    if not (g.is_jet and g.order == 0 and g.pos < N):
                        raise ValueError(
                            "structure entries must be polynomials in the fields alone")
        zero = Poly.zero(ctx)
        entries = [[zero] * ctx.m for _ in range(ctx.m)]
        for block in range(3):      # u, then w_0 and w_1, as `_w_pos` orders them
            for A, row in enumerate(self.w):
                entries[block * N + A][block * N:(block + 1) * N] = row
        object.__setattr__(self, "omega", OmegaSpec(ctx, tuple(map(tuple, entries))))

    @classmethod
    def from_strings(cls, n_fields: int, rows: Sequence[Sequence[str]]) -> "SigmaModelSpec":
        bundle = sigma_bundle(n_fields)
        w = tuple(tuple(parse_expr(text, bundle) for text in row) for row in rows)
        return cls(n_fields, w, bundle)


def build_sigma(spec: SigmaModelSpec) -> tuple[BundleSpec, OmegaSpec]:
    """The generated chart and its block-diagonal fiberwise structure, both
    held by the spec."""
    return spec.bundle, spec.omega


def _w_gen(spec: SigmaModelSpec, A: int, mu: int) -> Poly:
    return Poly.generator(spec.bundle, Generator.jet(_w_pos(spec.n_fields, A, mu)))


def _u_jet(spec: SigmaModelSpec, A: int, direction: int) -> Poly:
    return Poly.generator(spec.bundle, Generator.jet(A, MultiIndex((direction,))))


def ikeda_lagrangian(spec: SigmaModelSpec) -> Poly:
    """The first-order Lagrangian density in its defining combination."""
    half = Fraction(1, 2)
    parts = []
    for mu, nu, eps in _EPS:
        for A in range(spec.n_fields):
            w_A_mu = _w_gen(spec, A, mu)
            quadratic = Poly.sum(spec.bundle, (entry * w_A_mu * _w_gen(spec, B, nu)
                                               for B, entry in enumerate(spec.w[A]) if entry))
            parts.append((w_A_mu * covariant_derivative(spec, A, nu) - half * quadratic) * eps)
    return Poly.sum(spec.bundle, parts)


def covariant_derivative(spec: SigmaModelSpec, A: int, direction: int) -> Poly:
    """u_{A,nu} + W_{AB} w^B_nu."""
    return Poly.sum(spec.bundle, (_u_jet(spec, A, direction),
                                  *(entry * _w_gen(spec, B, direction)
                                    for B, entry in enumerate(spec.w[A]) if entry)))


def contracted_curvature(spec: SigmaModelSpec, A: int) -> Poly:
    """eps^{mu nu} R^A_{mu nu} with R as usually displayed."""
    ctx = spec.bundle
    N = spec.n_fields
    u_A = Generator.jet(A)
    slopes = [(B, C, spec.w[B][C].partial(u_A)) for B in range(N) for C in range(N)]
    parts = []
    for mu, nu, eps in _EPS:
        d_mu_w_nu = Poly.generator(
            ctx, Generator.jet(_w_pos(N, A, nu), MultiIndex((mu,))))
        d_nu_w_mu = Poly.generator(
            ctx, Generator.jet(_w_pos(N, A, mu), MultiIndex((nu,))))
        parts.append((d_mu_w_nu - d_nu_w_mu) * eps)
        parts.extend(slope * _w_gen(spec, B, mu) * _w_gen(spec, C, nu) * eps
                     for B, C, slope in slopes if slope)
    return Poly.sum(ctx, parts)


def sigma_euler_check(spec: SigmaModelSpec) -> CheckReport:
    """Compare Euler components of the Lagrangian with the field equations.

    The w-block must equal eps^{mu nu}(u_{A,nu} + W_{AB} w^B_nu) exactly.  The
    u-block must equal one half of the contracted curvature; the report also
    records whether it matches the unhalved (displayed) curvature, which it
    does not for any nondegenerate model (see FACTOR_NOTE).  The results are
    `w_block`, `u_block_vs_half_curvature` and `u_block_vs_displayed_curvature`;
    each mismatching component is a residual at `E[fiber]`, actual minus
    expected, the w-block first.
    """
    fibers = spec.bundle.fibers
    N = spec.n_fields
    components = euler(ikeda_lagrangian(spec))
    half = Fraction(1, 2)
    w_block = CheckReport.of(
        (f"E[{fibers[_w_pos(N, A, mu)]}]",
         components[_w_pos(N, A, mu)] - covariant_derivative(spec, A, nu) * eps)
        for mu, nu, eps in _EPS for A in range(N))
    curvatures = [contracted_curvature(spec, A) for A in range(N)]
    u_block = CheckReport.of((f"E[{fibers[A]}]", components[A] - curvature * half)
                             for A, curvature in enumerate(curvatures))
    displayed = all(components[A] == curvature for A, curvature in enumerate(curvatures))
    results = (
        ("w_block", "exact" if w_block else "mismatch"),
        ("u_block_vs_half_curvature", "exact" if u_block else "mismatch"),
        ("u_block_vs_displayed_curvature", "match" if displayed else "factor 2 off"),
    )
    return CheckReport.of(w_block.residuals + u_block.residuals, results)


def _as_rational_matrix(matrix: Sequence[Sequence], size: int) -> tuple[tuple[Fraction, ...], ...]:
    if len(matrix) != size or any(len(row) != size for row in matrix):
        raise ValueError(f"matrix must be {size}x{size}")
    out = []
    for row in matrix:
        cells = []
        for cell in row:
            if isinstance(cell, float):
                raise TypeError("exact rational matrix entries required")
            cells.append(Fraction(cell))
        out.append(tuple(cells))
    return tuple(out)


def orthogonal_action(spec: SigmaModelSpec, matrix: Sequence[Sequence]) -> Automorphism:
    """The bundle automorphism of an exactly orthogonal matrix M.

    Fields transform by u_B -> sum_A M[A][B] u_A and the covector fields by
    the inverse matrix, w^D_mu -> sum_A M[A][D] w^A_mu (inverse = transpose).
    Raises NotOrthogonal at the first (i, j) unless M M^T is exactly the
    identity, read off the u-block: pulled back by the map, row i of the
    inverse is sum_j (M M^T)[i][j] u_j.  That one proof, with M square and
    the same in every block, makes the validation of `Automorphism` moot.
    """
    N = spec.n_fields
    M = _as_rational_matrix(matrix, N)
    ctx = spec.bundle
    blocks = [[Poly.generator(ctx, Generator.jet(A)) for A in range(N)]] + [
        [_w_gen(spec, A, mu) for A in range(N)] for mu in (0, 1)]

    def image(weight) -> tuple[Poly, ...]:
        return tuple(Poly.sum(ctx, (gens[A] * weight(A, B) for A in range(N) if weight(A, B)))
                     for gens in blocks for B in range(N))

    auto = Automorphism._trusted(ctx, image(lambda A, B: M[A][B]), image(lambda A, B: M[B][A]))
    fields = [Monomial(((Generator.jet(j), 1),)) for j in range(N)]
    for i in range(N):
        row = pullback(auto.psi_inv[i], auto)
        for j, u_j in enumerate(fields):
            dot = row.coefficient(u_j)
            if dot != (1 if i == j else 0):
                raise NotOrthogonal(f"(M M^T)[{i + 1},{j + 1}] = {dot}")
    return auto


def check_lagrangian_invariance(spec: SigmaModelSpec,
                                matrix: Sequence[Sequence]) -> CheckReport:
    """Is the Lagrangian density fixed by the orthogonal action of M?

    The one check with a bare verdict and no residuals: its failing output is
    in the `models` benchmark's golden digest, which only a benchmark change
    may alter.
    """
    auto = orthogonal_action(spec, matrix)
    lagrangian = ikeda_lagrangian(spec)
    return CheckReport(pullback(lagrangian, auto) == lagrangian)
