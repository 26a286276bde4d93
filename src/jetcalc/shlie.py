"""Strong homotopy Lie structure on horizontal forms graded by codegree.

A graded element of degree i is a horizontal form of degree n - i, so degree 0
elements are densities and degree n elements are functions.  The structure
maps implemented here are

    l1 = the horizontal differential (degree i -> i - 1),
    l2 = the bracket density on two degree-0 elements, zero whenever any
         argument has positive degree,
    l3 = the homotopy correction on three densities over a one-dimensional
         base: the image of the Jacobiator under the chain homotopy s.

With these conventions the degree-0 part of the third structure relation is
the identity  jacobiator(p, q, r) + d_h(l3(p, q, r)) = 0, and the second
relation collapses to  l2(f, l1 g) = 0  for degree-0 f and degree-1 g.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .kernel import CheckReport, Poly, _Layout
from .poisson import (OmegaSpec, _euler_vector, _jacobiator, _jacobiator_bound,
                      _packed_jacobiator, _packed_omega, _pairing, _same_charts, _Vector,
                      l2_density)
from .varcalc import DegreeError, HorizontalForm, Unsupported, _peel, d_h


@dataclass(frozen=True)
class GradedElement:
    """A homogeneous element: degree i carried by a horizontal (n-i)-form."""

    degree: int
    form: HorizontalForm

    def __post_init__(self):
        n = self.form.ctx.n
        if not 0 <= self.degree <= n:
            raise DegreeError(f"graded degree {self.degree} outside 0..{n}")
        if self.form.degree != n - self.degree:
            raise DegreeError(
                f"degree-{self.degree} element needs a {n - self.degree}-form, "
                f"got a {self.form.degree}-form")

    @classmethod
    def density(cls, poly: Poly) -> "GradedElement":
        return cls(0, HorizontalForm.density(poly))

    @classmethod
    def zero(cls, ctx, degree: int) -> "GradedElement":
        return cls(degree, HorizontalForm.zero(ctx, ctx.n - degree))

    @property
    def is_zero(self) -> bool:
        return self.form.is_zero


def l1(element: GradedElement) -> GradedElement:
    """First structure map: the horizontal differential, lowering degree."""
    if element.degree == 0:
        raise DegreeError("l1 is undefined on degree-0 elements")
    return GradedElement(element.degree - 1, d_h(element.form))


def l2(e1: GradedElement, e2: GradedElement, omega: OmegaSpec) -> GradedElement:
    """Second structure map: bracket density in degree (0, 0), zero otherwise."""
    ctx = omega.ctx
    if e1.degree == 0 and e2.degree == 0:
        density = l2_density(e1.form.density_coefficient(),
                             e2.form.density_coefficient(), omega)
        return GradedElement.density(density)
    degree = e1.degree + e2.degree
    if degree > ctx.n:
        raise DegreeError(f"no nonzero elements in degree {degree} over an {ctx.n}-dim base")
    return GradedElement.zero(ctx, degree)


def l3(p: Poly, q: Poly, r: Poly, omega: OmegaSpec) -> GradedElement:
    """Third structure map on three densities: s applied to the Jacobiator.

    Only available over a one-dimensional base; raises NotExact when the
    Jacobiator is not a total derivative (omega failing the Jacobi identity).
    The Jacobiator is computed once, from one Euler computation per density
    and per inner bracket, and peeled (`varcalc._peel`) packed, in its own
    layout, whose bound exceeds the Jacobiator's degree by at least 4 and so
    covers the peel.  Only s(J) = -g is unpacked.
    """
    if omega.ctx.n != 1:
        raise Unsupported("l3 is implemented over a one-dimensional base")
    return GradedElement(1, _homotopy(*_packed_jacobiator(p, q, r, omega)))


def _homotopy(layout: _Layout, terms: dict[int, int], den: int) -> HorizontalForm:
    """s(J dx) = -g, where D_x g = J, for the packed numerators of J over
    `den` (consumed): `homotopy_s` with J peeled in its own layout and only
    -g unpacked."""
    g, den = _peel(layout, terms, den)
    return HorizontalForm.scalar(layout.unpack({key: -c for key, c in g.items()}, den))


def check_shlie_relations(omega: OmegaSpec,
                          triples: Sequence[tuple[Poly, Poly, Poly]] = (),
                          pairs: Sequence[tuple[Poly, Poly]] = ()) -> CheckReport:
    """Check the low-degree structure relations on concrete samples.

    For each pair (f, g): l2 of the density f against d_h of the degree-1
    element carried by g must vanish.  For each triple (p, q, r) over a
    one-dimensional base: the Jacobiator plus d_h of l3 must vanish.  Nonzero
    residuals are reported at `pair[k]` and `triple[k]`.  The call runs in
    one packed layout, bounded as the largest of its brackets and
    Jacobiators: each distinct density's Euler components are computed once
    per call and kept packed, each triple's Jacobiator once, and l3 is that
    Jacobiator peeled packed in the same layout, as in `l3`.
    """
    if triples and omega.ctx.n != 1:
        raise Unsupported("l3 is implemented over a one-dimensional base")
    brackets = []
    for f, g in pairs:
        form = g if isinstance(g, HorizontalForm) else HorizontalForm.scalar(g)
        brackets.append((f, l1(GradedElement(1, form)).form.density_coefficient()))
        _same_charts(omega, brackets[-1])
    for triple in triples:
        _same_charts(omega, triple)
    degree = omega.degree
    layout = _Layout(omega.ctx, max([degree + f.total_degree() + dg.total_degree()
                                     for f, dg in brackets]
                                    + [_jacobiator_bound(omega, *triple) for triple in triples],
                                    default=degree))
    packed_omega = _packed_omega(layout, omega)
    components: dict[Poly, _Vector] = {}

    def euler_once(density: Poly) -> _Vector:
        vector = components.get(density)
        if vector is None:
            vector = components[density] = _euler_vector(layout, density)
        return vector

    residuals: list[tuple[str, Poly]] = []
    for k, (f, dg) in enumerate(brackets):
        residuals.append((f"pair[{k}]", layout.unpack(
            *_pairing(packed_omega, ((euler_once(f), euler_once(dg)),)))))
    for k, (p, q, r) in enumerate(triples):
        terms, den = _jacobiator(layout, packed_omega, *map(euler_once, (p, q, r)))
        jac = layout.unpack(terms, den)
        correction = d_h(_homotopy(layout, terms, den)).density_coefficient()
        residuals.append((f"triple[{k}]", jac + correction))
    return CheckReport.of(residuals)
