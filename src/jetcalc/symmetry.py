"""Bundle automorphisms over the identity base map, and the induced checks.

An automorphism here fixes every base coordinate and moves fiber coordinates
by polynomial maps psi^a(x, u) with an explicit polynomial inverse.  Its
prolongation to jet coordinates sends u^a_I to D_I(psi^a), so pulling back a
polynomial substitutes prolonged expressions for every jet generator.  The
base volume is preserved (unit Jacobian), hence densities pull back by plain
composition.

The checks packaged here verify, on concrete inputs, the structural facts the
rest of the package relies on: pullback commutes with the horizontal
differential; a structure matrix transforms covariantly; the bracket density
of a covariant structure is natural up to exact terms; Euler components
transform with the Jacobian of the fiber map; and averaging over a finite
group projects onto invariant forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .kernel import BundleSpec, CheckReport, Generator, JetcalcError, MultiIndex, Poly
from .poisson import OmegaSpec, l2_density
from .varcalc import HorizontalForm, d_h, euler, iterated_total_derivative


class PreconditionFailed(JetcalcError):
    """A documented precondition of a compound check does not hold."""


def _check_fiber_map(ctx: BundleSpec, polys: tuple[Poly, ...], label: str):
    if len(polys) != ctx.m:
        raise ValueError(f"{label} must give one polynomial per fiber")
    for p in polys:
        if p.ctx != ctx:
            raise ValueError(f"{label} entry over a different chart")
        for g in p.generators():
            if g.is_jet and g.order > 0:
                raise ValueError(
                    f"{label} entry depends on jet coordinate {g.name(ctx)}; "
                    "fiber maps may use base coordinates, fibers and parameters only")


@dataclass(frozen=True)
class Automorphism:
    """A fiber map with explicit inverse over the identity base map.

    `Automorphism(ctx, psi, psi_inv)` validates both directions by polynomial
    composition: psi(psi_inv) and psi_inv(psi) must be the identity on every
    fiber.  The results of `identity`, `compose` and `inverse` are valid by
    construction and are not re-checked.
    """

    ctx: BundleSpec
    psi: tuple[Poly, ...]
    psi_inv: tuple[Poly, ...]

    def __post_init__(self):
        ctx = self.ctx
        _check_fiber_map(ctx, self.psi, "psi")
        _check_fiber_map(ctx, self.psi_inv, "psi_inv")
        forward = {Generator.jet(b): self.psi[b] for b in range(ctx.m)}
        backward = {Generator.jet(b): self.psi_inv[b] for b in range(ctx.m)}
        for a in range(ctx.m):
            u_a = Poly.generator(ctx, Generator.jet(a))
            if self.psi[a].substitute(backward) != u_a:
                raise ValueError(f"psi_inv is not a right inverse on fiber {ctx.fibers[a]}")
            if self.psi_inv[a].substitute(forward) != u_a:
                raise ValueError(f"psi_inv is not a left inverse on fiber {ctx.fibers[a]}")
        object.__setattr__(self, "_prolong_cache", {})

    @classmethod
    def _trusted(cls, ctx: BundleSpec, psi: tuple[Poly, ...],
                 psi_inv: tuple[Poly, ...]) -> "Automorphism":
        """Wrap fiber maps that are inverse to each other by construction,
        without re-validating them."""
        auto = object.__new__(cls)
        object.__setattr__(auto, "ctx", ctx)
        object.__setattr__(auto, "psi", psi)
        object.__setattr__(auto, "psi_inv", psi_inv)
        object.__setattr__(auto, "_prolong_cache", {})
        return auto

    @classmethod
    def identity(cls, ctx: BundleSpec) -> "Automorphism":
        coords = tuple(Poly.generator(ctx, Generator.jet(a)) for a in range(ctx.m))
        return cls._trusted(ctx, coords, coords)

    @property
    def is_identity(self) -> bool:
        return self == Automorphism.identity(self.ctx)

    def inverse(self) -> "Automorphism":
        return Automorphism._trusted(self.ctx, self.psi_inv, self.psi)

    def compose(self, other: "Automorphism") -> "Automorphism":
        """self after other: fibers map through other first, then self."""
        if self.ctx != other.ctx:
            raise ValueError("automorphisms over different charts")
        ctx = self.ctx
        through = {Generator.jet(b): other.psi[b] for b in range(ctx.m)}
        back = {Generator.jet(b): self.psi_inv[b] for b in range(ctx.m)}
        psi = tuple(p.substitute(through) for p in self.psi)
        psi_inv = tuple(p.substitute(back) for p in other.psi_inv)
        return Automorphism._trusted(ctx, psi, psi_inv)

    def prolong(self, a: int, index: MultiIndex) -> Poly:
        """Prolonged jet coordinate: u^a_I composed with the map is D_I(psi^a)."""
        key = (a, index)
        cached = self._prolong_cache.get(key)
        if cached is None:
            cached = iterated_total_derivative(self.psi[a], index)
            self._prolong_cache[key] = cached
        return cached


def pullback(p: Poly, auto: Automorphism) -> Poly:
    """Compose a polynomial with the prolonged automorphism."""
    if p.ctx != auto.ctx:
        raise ValueError("polynomial over a different chart")
    mapping = {}
    for g in p.generators():
        if g.is_jet:
            mapping[g] = auto.prolong(g.pos, g.index)
    return p.substitute(mapping)


def pullback_form(form: HorizontalForm, auto: Automorphism) -> HorizontalForm:
    """Pull back coefficientwise; the base map is the identity with unit volume."""
    return form.map_coefficients(lambda p: pullback(p, auto))


def check_pullback_dh_commute(form: HorizontalForm, auto: Automorphism) -> CheckReport:
    """Does pullback of this form commute with the horizontal differential?"""
    return CheckReport(pullback_form(d_h(form), auto) == d_h(pullback_form(form, auto)))


def check_covariance(omega: OmegaSpec, auto: Automorphism) -> CheckReport:
    """Does omega transform as a fiberwise bivector under the automorphism?

    For every pair (a, b) the residual

        omega^{ab}(psi(u)) - sum_{c,d} omega^{cd} dpsi^a/du^c dpsi^b/du^d

    must vanish; failing pairs are reported at `omega[a,b]` with their
    residuals.
    """
    ctx = omega.ctx
    if auto.ctx != ctx:
        raise ValueError("automorphism over a different chart")
    m = ctx.m
    substitution = {Generator.jet(c): auto.psi[c] for c in range(m)}
    jacobian = [[auto.psi[a].partial(Generator.jet(c)) for c in range(m)] for a in range(m)]
    residuals = []
    for a in range(m):
        for b in range(m):
            transported = Poly.sum(ctx, (omega.entry(c, d) * jacobian[a][c] * jacobian[b][d]
                                         for c in range(m) if jacobian[a][c]
                                         for d in range(m)
                                         if omega.entry(c, d) and jacobian[b][d]))
            residual = omega.entry(a, b).substitute(substitution) - transported
            if not residual.is_zero:
                residuals.append((f"omega[{ctx.fibers[a]},{ctx.fibers[b]}]", residual))
    return CheckReport(not residuals, tuple(residuals))


def check_canonical_density(omega: OmegaSpec, auto: Automorphism, p: Poly,
                            q: Poly) -> CheckReport:
    """Is the bracket density natural under pullback, up to a divergence?

    The defect l2(pullback p, pullback q) - pullback l2(p, q) must be a
    divergence; each nonzero Euler component of it is reported at `E[fiber]`.
    """
    moved = l2_density(pullback(p, auto), pullback(q, auto), omega)
    defect = euler(moved - pullback(l2_density(p, q, omega), auto))
    residuals = tuple((f"E[{fiber}]", component)
                      for fiber, component in zip(omega.ctx.fibers, defect)
                      if not component.is_zero)
    return CheckReport(not residuals, residuals)


def check_el_transform(auto: Automorphism, p: Poly) -> CheckReport:
    """Do Euler components transform with the Jacobian of the fiber map?

    Checks E_a(pullback p) = sum_c dpsi^c/du^a * pullback(E_c(p)) for every a.
    """
    ctx = auto.ctx
    lhs = euler(pullback(p, auto))
    moved_parts = [pullback(part, auto) for part in euler(p)]
    for a in range(ctx.m):
        factors = (psi_c.partial(Generator.jet(a)) for psi_c in auto.psi)
        rhs = Poly.sum(ctx, (factor * moved for factor, moved in zip(factors, moved_parts)
                             if factor and moved))
        if lhs[a] != rhs:
            return CheckReport(False)
    return CheckReport(True)


@dataclass(frozen=True)
class FiniteGroupAction:
    """A finite set of automorphisms, closed under composition and inverse.

    `FiniteGroupAction(elements)` validates its elements: no duplicates, the
    identity listed, and every composite listed.  Inverses need no check of
    their own: for each listed g, h -> g after h is injective on the finite
    listed set (g is invertible) and stays in it, so it reaches the identity
    and g's inverse is listed.  The group that `generated_by` returns is valid
    by construction and is not re-checked.
    """

    elements: tuple[Automorphism, ...]

    def __post_init__(self):
        if not self.elements:
            raise ValueError("a group action needs at least the identity")
        ctx = self.elements[0].ctx
        for g in self.elements:
            if g.ctx != ctx:
                raise ValueError("group elements over different charts")
        members = set(self.elements)
        if len(members) != len(self.elements):
            raise ValueError("duplicate group element")
        if Automorphism.identity(ctx) not in members:
            raise ValueError("the identity automorphism must be listed")
        for g in self.elements:
            for h in self.elements:
                if g.compose(h) not in members:
                    raise ValueError("the listed elements are not closed under composition")

    @property
    def ctx(self) -> BundleSpec:
        return self.elements[0].ctx

    @property
    def order(self) -> int:
        return len(self.elements)

    @classmethod
    def generated_by(cls, *generators: Automorphism, max_order: int = 512) -> "FiniteGroupAction":
        """Close a generating set under composition (bounded search).

        The elements are listed identity first, then in breadth-first order of
        discovery: each listed element x, in turn, is composed with every
        generator g, in the order given, and g after x is appended when new.
        One generator thus gives id, g, g^2, ...  A finite set of bijections
        closed under composition holds every inverse (g^k = id for some k),
        so the result is a group without further checks.
        """
        if not generators:
            raise ValueError("at least one generator is required")
        identity = Automorphism.identity(generators[0].ctx)
        elements = [identity]
        members = {identity}
        for x in elements:
            for g in generators:
                y = g.compose(x)
                if y in members:
                    continue
                elements.append(y)
                members.add(y)
                if len(elements) > max_order:
                    raise ValueError(f"group generation exceeded {max_order} elements")
        group = object.__new__(cls)
        object.__setattr__(group, "elements", tuple(elements))
        return group


def group_average(form: HorizontalForm, group: FiniteGroupAction) -> HorizontalForm:
    """Average the pullbacks over the group: the invariance projection."""
    scale = Fraction(1, group.order)
    return HorizontalForm(form.ctx, form.degree, [
        (idx, Poly.sum(form.ctx, (pullback(poly, g) for g in group.elements)) * scale)
        for idx, poly in form.coeffs])


def check_invariance(form: HorizontalForm, group: FiniteGroupAction) -> CheckReport:
    """Is the form fixed by every group element?

    Each element that moves the form is reported at `element[k]`, k its
    position in the group, with each nonzero coefficient of the pullback
    minus the form.
    """
    residuals = []
    for k, g in enumerate(group.elements):
        moved = pullback_form(form, g)
        if moved != form:
            residuals.extend((f"element[{k}]", poly) for _, poly in (moved - form).coeffs)
    return CheckReport(not residuals, tuple(residuals))


def check_invariant_closure(alpha: HorizontalForm, beta: HorizontalForm,
                            group: FiniteGroupAction, omega: OmegaSpec) -> CheckReport:
    """Is the bracket density of two invariant densities again invariant?

    Preconditions (raising PreconditionFailed otherwise): alpha and beta are
    invariant top-degree forms and omega is covariant under every element.
    """
    ctx = omega.ctx
    if alpha.degree != ctx.n or beta.degree != ctx.n:
        raise PreconditionFailed("closure check expects top-degree forms")
    if not check_invariance(alpha, group):
        raise PreconditionFailed("alpha is not invariant under the group")
    if not check_invariance(beta, group):
        raise PreconditionFailed("beta is not invariant under the group")
    for g in group.elements:
        if not check_covariance(omega, g).passed:
            raise PreconditionFailed("omega is not covariant under every group element")
    density = l2_density(alpha.density_coefficient(), beta.density_coefficient(), omega)
    return CheckReport(check_invariance(HorizontalForm.density(density), group).passed)
