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
from typing import Callable, Iterator, Sequence

from .kernel import (BundleSpec, CheckReport, Generator, JetcalcError, MultiIndex, Poly,
                     _Layout, _same_chart)
from .poisson import OmegaSpec, _packed_omega, _pairing, l2_density
from .varcalc import HorizontalForm, d_h, euler, iterated_total_derivative


class PreconditionFailed(JetcalcError):
    """A documented precondition of a compound check does not hold."""


def _check_fiber_map(ctx: BundleSpec, polys: tuple[Poly, ...], label: str):
    if len(polys) != ctx.m:
        raise ValueError(f"{label} must give one polynomial per fiber")
    for p in polys:
        _same_chart(ctx, p.ctx, f"{label} entry over a different chart")
        for g in p.generators():
            if g.is_jet and g.order > 0:
                raise ValueError(
                    f"{label} entry depends on jet coordinate {g.name(ctx)}; "
                    "fiber maps may use base coordinates, fibers and parameters only")


@dataclass(frozen=True)
class Automorphism:
    """A fiber map with explicit inverse over the identity base map.

    `Automorphism(ctx, psi, psi_inv)` validates the pair by pullback: each
    psi^a pulled back by the inverse must give u^a again, one pullback per
    fiber.  That is enough.  If F after G is the identity, for polynomial
    self-maps F = psi and G = psi_inv of affine space over the complex
    numbers (x and the parameters held fixed), then G is injective, and an
    injective polynomial self-map is bijective (Ax-Grothendieck: Ax, Ann.
    of Math. 88, 1968), so G after F is the identity as well.  Only when
    that first pass fails are the two sides checked fiber by fiber, right
    inverse first, so the first failure is still named as `right` or `left
    inverse on fiber ...`.  The results of `identity`, `compose`,
    `inverse` and `sigma.orthogonal_action` are valid by construction or by
    their own proof and are not re-checked.  `inverse` swaps the two fiber
    maps, so its inverse equals this automorphism again.  Equality and
    hashing read the three fields only.
    """

    ctx: BundleSpec
    psi: tuple[Poly, ...]
    psi_inv: tuple[Poly, ...]

    def __post_init__(self):
        ctx = self.ctx
        _check_fiber_map(ctx, self.psi, "psi")
        _check_fiber_map(ctx, self.psi_inv, "psi_inv")
        object.__setattr__(self, "_prolong_cache", {})
        inverse = self.inverse()
        coords = [Poly.generator(ctx, Generator.jet(a)) for a in range(ctx.m)]
        right = [pullback(psi_a, inverse) == u_a for psi_a, u_a in zip(self.psi, coords)]
        if all(right):
            return
        for a, u_a in enumerate(coords):
            if not right[a]:
                raise ValueError(f"psi_inv is not a right inverse on fiber {ctx.fibers[a]}")
            if pullback(self.psi_inv[a], self) != u_a:
                raise ValueError(f"psi_inv is not a left inverse on fiber {ctx.fibers[a]}")

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
        """self after other: fibers map through other first, then self.  Both
        directions are pullbacks, as (g after h)^* = h^* g^*."""
        _same_chart(self.ctx, other.ctx, "automorphisms over different charts")
        inverse = self.inverse()
        return Automorphism._trusted(self.ctx, tuple(pullback(p, other) for p in self.psi),
                                     tuple(pullback(p, inverse) for p in other.psi_inv))

    def prolong(self, a: int, index: MultiIndex) -> Poly:
        """Prolonged jet coordinate: u^a_I composed with the map is D_I(psi^a)."""
        key = (a, index)
        cached = self._prolong_cache.get(key)
        if cached is None:
            cached = iterated_total_derivative(self.psi[a], index)
            self._prolong_cache[key] = cached
        return cached


def pullback(p: Poly, auto: Automorphism) -> Poly:
    """Compose a polynomial with the prolonged automorphism: the one place a
    fiber map becomes a substitution, for composition and validation too."""
    _same_chart(auto.ctx, p.ctx, "polynomial over a different chart")
    mapping = {}
    for g in p.generators():
        if g.is_jet:
            mapping[g] = auto.prolong(g.pos, g.index)
    return p.substitute(mapping)


def pullback_form(form: HorizontalForm, auto: Automorphism) -> HorizontalForm:
    """Pull back coefficientwise; the base map is the identity with unit volume."""
    return form.map_coefficients(lambda p: pullback(p, auto))


def check_pullback_dh_commute(form: HorizontalForm, auto: Automorphism) -> CheckReport:
    """Does pullback of this form commute with the horizontal differential?

    Each nonzero coefficient of pullback(d_h form) - d_h(pullback form) is
    reported at its dx-word, such as `dx` or `dx^dy`.
    """
    defect = pullback_form(d_h(form), auto) - d_h(pullback_form(form, auto))
    dims = form.ctx.base_dims
    return CheckReport.of(("^".join(f"d{dims[i]}" for i in idx), poly)
                          for idx, poly in defect.coeffs)


def _jacobian(auto: Automorphism) -> tuple[tuple[Poly, ...], ...]:
    """The fiber Jacobian: row a holds dpsi^a/du^c for every fiber c."""
    fibers = [Generator.jet(c) for c in range(auto.ctx.m)]
    return tuple(tuple(psi_a.partial(g) for g in fibers) for psi_a in auto.psi)


def check_covariance(omega: OmegaSpec, auto: Automorphism) -> CheckReport:
    """Does omega transform as a fiberwise bivector under the automorphism?

    For every pair (a, b) the residual

        omega^{ab}(psi(u)) - sum_{c,d} omega^{cd} dpsi^a/du^c dpsi^b/du^d

    must vanish; failing pairs are reported at `omega[a,b]` with their
    residuals.  The sum is the bracket density's pairing of Jacobian rows,
    in one layout bounded by deg omega + twice the largest degree of a
    Jacobian entry.
    """
    ctx = omega.ctx
    _same_chart(ctx, auto.ctx, "automorphism over a different chart")
    jacobian = _jacobian(auto)
    layout = _Layout(ctx, omega.degree + 2 * max(d.total_degree() for row in jacobian
                                                 for d in row))
    packed_omega = _packed_omega(layout, omega)
    rows = [layout.pack_over(row) for row in jacobian]
    return CheckReport.of(
        (f"omega[{ctx.fibers[a]},{ctx.fibers[b]}]",
         pullback(omega.entry(a, b), auto)
         - layout.unpack(*_pairing(packed_omega, ((rows[a], rows[b]),))))
        for a in range(ctx.m) for b in range(ctx.m))


def check_canonical_density(omega: OmegaSpec, auto: Automorphism, p: Poly,
                            q: Poly) -> CheckReport:
    """Is the bracket density natural under pullback, up to a divergence?

    The defect l2(pullback p, pullback q) - pullback l2(p, q) must be a
    divergence; each nonzero Euler component of it is reported at `E[fiber]`.
    """
    moved = l2_density(pullback(p, auto), pullback(q, auto), omega)
    defect = euler(moved - pullback(l2_density(p, q, omega), auto))
    return CheckReport.of((f"E[{fiber}]", component)
                          for fiber, component in zip(omega.ctx.fibers, defect))


def check_el_transform(auto: Automorphism, p: Poly) -> CheckReport:
    """Do Euler components transform with the Jacobian of the fiber map?

    Checks E_a(pullback p) = sum_c dpsi^c/du^a * pullback(E_c(p)) for every a;
    each failing component is reported at `E[fiber]` with lhs - rhs.
    """
    ctx = auto.ctx
    lhs = euler(pullback(p, auto))
    moved_parts = [pullback(part, auto) for part in euler(p)]
    jacobian = _jacobian(auto)
    return CheckReport.of(
        (f"E[{ctx.fibers[a]}]",
         lhs[a] - Poly.sum(ctx, (row[a] * moved for row, moved in zip(jacobian, moved_parts)
                                 if row[a] and moved)))
        for a in range(ctx.m))


class InvalidGroup(JetcalcError, ValueError):
    """A listed set of automorphisms is not a group, or generating one
    exceeds its bound."""


def _closure(reached: list, seen: set, generators: Sequence, old: int,
             after: Callable) -> Iterator:
    """Close `reached` (identity first, mirrored by the set `seen`) under left
    composition by the generators, breadth first: each x in turn meets each g
    in order, and g after x, `after(g, x)` (g itself after the identity), is
    appended when new.  Elements before index `old` are closed under all
    generators but the newest, so they meet only that one.  Each new element
    is yielded before it is appended, so the caller rejects it by raising;
    a None from `after` is always new."""
    newest = generators[-1:]
    for i, x in enumerate(reached):
        for g in (generators if i >= old else newest):
            y = after(g, x) if i else g
            if y not in seen:
                yield y
                reached.append(y)
                seen.add(y)


@dataclass(frozen=True)
class FiniteGroupAction:
    """A finite set of automorphisms, closed under composition and inverse.

    The group keeps a generating set, and the group checks act on it only.
    This is exact: every element is a composite of the generators (in a
    finite group an inverse is a positive power), and invariance of a form,
    like covariance of a structure, is closed under composition, since
    pullback is contravariant and prolongation a homomorphism.

    `FiniteGroupAction(elements)` validates its elements: no duplicates, the
    identity listed, and every composite listed.  Each element not yet
    reached, in listing order, becomes a generator, and the closure loop of
    `generated_by` closes the reached set under it, looking every new
    composite up among the listed elements; at the end every element is
    reached.  That costs at most |G| - 1 composites per generator.
    A composite is looked up by its forward map alone, the pullbacks of g's
    psi by x, never composing the inverses: every listed element is a
    bijection with a proven inverse, and a bijection has one inverse, so
    g after x is listed exactly when its forward map is that of a listed
    element, and then it is that element.  Inverses need no check of their
    own: for each listed g, h -> g after h is injective on the finite listed
    set and stays in it, so it reaches the identity.  The result of
    `generated_by` is not re-checked.  Equality and hashing read `elements`
    only.
    """

    elements: tuple[Automorphism, ...]

    def __post_init__(self):
        if not self.elements:
            raise InvalidGroup("a group action needs at least the identity")
        ctx = self.elements[0].ctx
        for g in self.elements:
            _same_chart(ctx, g.ctx, "group elements over different charts")
        members = set(self.elements)
        if len(members) != len(self.elements):
            raise InvalidGroup("duplicate group element")
        identity = Automorphism.identity(ctx)
        if identity not in members:
            raise InvalidGroup("the identity automorphism must be listed")
        listed = {g.psi: g for g in self.elements}

        def after(g: Automorphism, x: Automorphism) -> Automorphism | None:
            return listed.get(tuple(pullback(p, x) for p in g.psi))

        generators = []
        reached = [identity]
        seen = {identity}
        for g in self.elements:
            if g in seen:
                continue
            generators.append(g)
            for y in _closure(reached, seen, generators, len(reached), after):
                if y is None:
                    raise InvalidGroup("the listed elements are not closed under composition")
        object.__setattr__(self, "_generators", tuple(generators))

    @property
    def ctx(self) -> BundleSpec:
        return self.elements[0].ctx

    @property
    def order(self) -> int:
        return len(self.elements)

    @classmethod
    def generated_by(cls, *generators: Automorphism, max_order: int = 512) -> "FiniteGroupAction":
        """Close a generating set under composition (bounded search).

        The elements are listed identity first, then in the breadth-first
        order of the closure loop that also validates listed groups: each
        element x in turn is composed with every generator g, in the order
        given, and g after x is appended when new.  One generator gives id,
        g, g^2, ...  A finite set of bijections closed under composition
        holds every inverse, so the result is a group without further
        checks.  The group keeps the generators, less the identity and
        repeats; they generate every element, so checks on them are exact.
        """
        if not generators:
            raise InvalidGroup("at least one generator is required")
        identity = Automorphism.identity(generators[0].ctx)
        generators = tuple(dict.fromkeys(g for g in generators if g != identity))
        elements = [identity]
        for _ in _closure(elements, {identity}, generators, 0, Automorphism.compose):
            if len(elements) >= max_order:
                raise InvalidGroup(f"group generation exceeded {max_order} elements")
        group = object.__new__(cls)
        object.__setattr__(group, "elements", tuple(elements))
        object.__setattr__(group, "_generators", generators)
        return group


def group_average(form: HorizontalForm, group: FiniteGroupAction) -> HorizontalForm:
    """Average the pullbacks over the group: the invariance projection."""
    scale = Fraction(1, group.order)
    return HorizontalForm(form.ctx, form.degree, [
        (idx, Poly.sum(form.ctx, (pullback(poly, g) for g in group.elements)) * scale)
        for idx, poly in form.coeffs])


def check_invariance(form: HorizontalForm, group: FiniteGroupAction) -> CheckReport:
    """Is the form fixed by every group element?

    The generators decide: a form fixed by g and by h is fixed by g after h,
    because pullback is contravariant, and the generators generate every
    element of the finite group.  When one of them moves the form, every
    element that moves it is reported at `element[k]`, k its position in
    the group, with each nonzero coefficient of the pullback minus the form.
    The generators' pullbacks are reused there, so a failing check makes
    one pullback per element.
    """
    moved_by = {g: pullback_form(form, g) for g in group._generators}
    if all(moved == form for moved in moved_by.values()):
        return CheckReport.of(())
    images = (moved_by[g] if g in moved_by else pullback_form(form, g) for g in group.elements)
    return CheckReport.of((f"element[{k}]", poly) for k, moved in enumerate(images)
                          if moved != form for _, poly in (moved - form).coeffs)


def check_invariant_closure(alpha: HorizontalForm, beta: HorizontalForm,
                            group: FiniteGroupAction, omega: OmegaSpec) -> CheckReport:
    """Is the bracket density of two invariant densities again invariant?

    Preconditions (raising PreconditionFailed otherwise): alpha and beta are
    invariant top-degree forms and omega is covariant under every element.
    Covariance is checked on the group's generators: by the chain rule, a
    structure covariant under g and under h is covariant under g after h,
    and the generators generate every element.  The report is that of
    `check_invariance` on the bracket density, with its `element[k]`
    residuals.
    """
    ctx = omega.ctx
    if alpha.degree != ctx.n or beta.degree != ctx.n:
        raise PreconditionFailed("closure check expects top-degree forms")
    if not check_invariance(alpha, group):
        raise PreconditionFailed("alpha is not invariant under the group")
    if not check_invariance(beta, group):
        raise PreconditionFailed("beta is not invariant under the group")
    for g in group._generators:
        if not check_covariance(omega, g).passed:
            raise PreconditionFailed("omega is not covariant under every group element")
    density = l2_density(alpha.density_coefficient(), beta.density_coefficient(), omega)
    return check_invariance(HorizontalForm.density(density), group)
