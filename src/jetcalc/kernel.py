"""Exact expression kernel for calculus on jet bundles of trivial vector bundles.

Everything downstream works with :class:`Poly`: a sparse multivariate
polynomial with arbitrary-precision rational coefficients in three kinds of
generators, namely base coordinates x^i, jet coordinates u^a_I (where I is a
symmetric multi-index over base directions, so u^a_yx and u^a_xy are the same
generator) and free parameters.  Polynomials are kept in canonical form: no
zero coefficients, no zero exponents, factors sorted by a fixed total order on
generators.  Structural equality of the canonical form therefore decides
mathematical equality, and there is no floating point anywhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union


class JetcalcError(Exception):
    """Base class for every error raised by this package."""


class UnknownName(JetcalcError):
    """An identifier that is not declared in the bundle."""

    def __init__(self, name: str, position: int | None = None):
        self.name = name
        self.position = position
        where = f" at position {position}" if position is not None else ""
        super().__init__(f"unknown name {name!r}{where}")


_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9]*\Z")

Scalar = Union[int, Fraction]


def _as_fraction(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"exact rational coefficient required, got {type(value).__name__}")


@dataclass(frozen=True)
class BundleSpec:
    """Coordinate chart of a trivial bundle: base directions, fibers, parameters.

    Names must be bare identifiers without underscores (the underscore is
    reserved for jet suffixes such as ``u1_xy``) and the direction names must
    be prefix-free so that a suffix word decomposes uniquely.
    """

    base_dims: tuple[str, ...]
    fibers: tuple[str, ...]
    params: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.base_dims:
            raise ValueError("at least one base direction is required")
        if not self.fibers:
            raise ValueError("at least one fiber is required")
        names = list(self.base_dims) + list(self.fibers) + list(self.params)
        for name in names:
            if not _IDENT.match(name):
                raise ValueError(
                    f"bad name {name!r}: names are letters and digits, starting "
                    "with a letter (underscore is reserved for jet suffixes)"
                )
        if len(set(names)) != len(names):
            raise ValueError("base, fiber and parameter names must be distinct")
        for d1 in self.base_dims:
            for d2 in self.base_dims:
                if d1 != d2 and d2.startswith(d1):
                    raise ValueError(
                        f"direction names must be prefix-free: {d1!r} prefixes {d2!r}"
                    )
        object.__setattr__(self, "_dir_pos", {d: i for i, d in enumerate(self.base_dims)})
        object.__setattr__(self, "_fiber_pos", {f: a for a, f in enumerate(self.fibers)})
        object.__setattr__(self, "_param_pos", {p: i for i, p in enumerate(self.params)})

    @property
    def n(self) -> int:
        return len(self.base_dims)

    @property
    def m(self) -> int:
        return len(self.fibers)

    def direction_index(self, name: str) -> int:
        try:
            return self._dir_pos[name]
        except KeyError:
            raise UnknownName(name) from None

    def fiber_index(self, name: str) -> int:
        try:
            return self._fiber_pos[name]
        except KeyError:
            raise UnknownName(name) from None

    def resolve(self, name: str) -> "Generator":
        """Map a bare identifier to its generator, or raise UnknownName."""
        if name in self._dir_pos:
            return Generator.base(self._dir_pos[name])
        if name in self._fiber_pos:
            return Generator.jet(self._fiber_pos[name], EMPTY_INDEX)
        if name in self._param_pos:
            return Generator.param(self._param_pos[name])
        raise UnknownName(name)

    def split_suffix(self, word: str) -> tuple[int, ...]:
        """Decompose a jet suffix word into direction positions (greedy decode)."""
        out: list[int] = []
        rest = word
        while rest:
            for d, i in self._dir_pos.items():
                if rest.startswith(d):
                    out.append(i)
                    rest = rest[len(d):]
                    break
            else:
                raise UnknownName(word)
        return tuple(out)


class MultiIndex:
    """Symmetric multi-index: a sorted multiset of base-direction positions."""

    __slots__ = ("entries", "_hash")

    def __init__(self, entries: Iterable[int] = ()):
        ent = tuple(sorted(entries))
        for i in ent:
            if not isinstance(i, int) or i < 0:
                raise ValueError(f"bad multi-index entry {i!r}")
        self.entries = ent
        self._hash = hash(ent)

    @property
    def order(self) -> int:
        return len(self.entries)

    def extended(self, i: int) -> "MultiIndex":
        return MultiIndex(self.entries + (i,))

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, MultiIndex) and self.entries == other.entries

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"MultiIndex{self.entries}"


EMPTY_INDEX = MultiIndex()

_BASE, _JET, _PARAM = 0, 1, 2


class Generator:
    """A base coordinate x^i, a jet coordinate u^a_I, or a free parameter.

    Generators carry a fixed total order used for canonical forms: base
    coordinates by position, then jet coordinates by (fiber position, |I|,
    lexicographic sorted I), then parameters by position.
    """

    __slots__ = ("kind", "pos", "index", "_key", "_hash")

    def __init__(self, kind: int, pos: int, index: MultiIndex = EMPTY_INDEX):
        self.kind = kind
        self.pos = pos
        self.index = index
        self._key = (kind, pos, index.order, index.entries)
        self._hash = hash(self._key)

    @classmethod
    def base(cls, i: int) -> "Generator":
        return cls(_BASE, i)

    @classmethod
    def jet(cls, a: int, index: MultiIndex = EMPTY_INDEX) -> "Generator":
        return cls(_JET, a, index)

    @classmethod
    def param(cls, p: int) -> "Generator":
        return cls(_PARAM, p)

    @property
    def is_base(self) -> bool:
        return self.kind == _BASE

    @property
    def is_jet(self) -> bool:
        return self.kind == _JET

    @property
    def is_param(self) -> bool:
        return self.kind == _PARAM

    @property
    def order(self) -> int:
        """Jet order |I| (zero for base coordinates and parameters)."""
        return self.index.order

    def name(self, ctx: BundleSpec) -> str:
        if self.kind == _BASE:
            return ctx.base_dims[self.pos]
        if self.kind == _PARAM:
            return ctx.params[self.pos]
        stem = ctx.fibers[self.pos]
        if self.index.order == 0:
            return stem
        return stem + "_" + "".join(ctx.base_dims[i] for i in self.index)

    def declared_in(self, ctx: BundleSpec) -> bool:
        if self.kind == _BASE:
            return 0 <= self.pos < ctx.n
        if self.kind == _PARAM:
            return 0 <= self.pos < len(ctx.params)
        return 0 <= self.pos < ctx.m and all(0 <= i < ctx.n for i in self.index)

    def __eq__(self, other) -> bool:
        return isinstance(other, Generator) and self._key == other._key

    def __lt__(self, other: "Generator") -> bool:
        return self._key < other._key

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        tag = ("Base", "Jet", "Param")[self.kind]
        if self.kind == _JET and self.index.order:
            return f"{tag}({self.pos}, {self.index.entries})"
        return f"{tag}({self.pos})"


class Monomial:
    """A product of generators with positive integer exponents."""

    __slots__ = ("powers", "_hash")

    def __init__(self, powers: Iterable[tuple[Generator, int]] = ()):
        merged: dict[Generator, int] = {}
        for g, e in powers:
            if e < 0:
                raise ValueError("negative exponent")
            if e:
                merged[g] = merged.get(g, 0) + e
        self.powers = tuple(sorted(merged.items(), key=lambda p: p[0]._key))
        self._hash = hash(self.powers)

    @classmethod
    def _canonical(cls, powers: tuple[tuple[Generator, int], ...]) -> "Monomial":
        """Wrap a power tuple that is already sorted by generator key, merged
        and free of zero exponents, without re-validating it."""
        mono = object.__new__(cls)
        mono.powers = powers
        mono._hash = hash(powers)
        return mono

    @property
    def degree(self) -> int:
        return sum(e for _, e in self.powers)

    @property
    def is_unit(self) -> bool:
        return not self.powers

    def exponent(self, g: Generator) -> int:
        key = g._key
        for h, e in self.powers:
            if h._key == key:
                return e
        return 0

    def generators(self) -> Iterator[Generator]:
        return (g for g, _ in self.powers)

    def times(self, other: "Monomial") -> "Monomial":
        a, b = self.powers, other.powers
        if not b:
            return self
        if not a:
            return other
        # Both factors are sorted: one merge by generator key keeps them so.
        out = []
        i = j = 0
        while i < len(a) and j < len(b):
            g, e = a[i]
            h, f = b[j]
            if g._key < h._key:
                out.append(a[i])
                i += 1
            elif h._key < g._key:
                out.append(b[j])
                j += 1
            else:
                out.append((g, e + f))
                i += 1
                j += 1
        return Monomial._canonical(tuple(out) + a[i:] + b[j:])

    def with_exponent(self, g: Generator, e: int) -> "Monomial":
        if e < 0:
            raise ValueError("negative exponent")
        key, powers = g._key, self.powers
        i = 0
        while i < len(powers) and powers[i][0]._key < key:
            i += 1
        rest = i + 1 if i < len(powers) and powers[i][0]._key == key else i
        middle = ((g, e),) if e else ()
        return Monomial._canonical(powers[:i] + middle + powers[rest:])

    def sort_key(self):
        """Key whose ascending order is descending graded-lex on monomials."""
        return (-self.degree, tuple((g._key, -e) for g, e in self.powers))

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self.powers == other.powers

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if not self.powers:
            return "Monomial(1)"
        return "Monomial(" + "*".join(f"{g!r}^{e}" for g, e in self.powers) + ")"


UNIT = Monomial()


def _accumulate(terms: dict[Monomial, Fraction], mono: Monomial, c: Fraction):
    """Add c to the coefficient of mono in terms, dropping it if it cancels."""
    s = terms.get(mono)
    s = c if s is None else s + c
    if s:
        terms[mono] = s
    else:
        terms.pop(mono, None)


class Poly:
    """Canonical sparse polynomial over the generators of one bundle chart.

    Immutable.  Supports +, -, * (with Poly, int or Fraction) and ** with a
    non-negative integer.  Equality is structural equality of the canonical
    term map, which coincides with mathematical equality.
    """

    __slots__ = ("ctx", "_terms", "_hash")

    def __init__(self, ctx: BundleSpec, terms: Mapping[Monomial, Fraction]):
        self.ctx = ctx
        self._terms = dict(terms)
        self._hash = None

    @classmethod
    def _make(cls, ctx: BundleSpec, terms: dict[Monomial, Fraction]) -> "Poly":
        return cls(ctx, {m: c for m, c in terms.items() if c})

    @classmethod
    def zero(cls, ctx: BundleSpec) -> "Poly":
        return cls(ctx, {})

    @classmethod
    def const(cls, ctx: BundleSpec, value: Scalar) -> "Poly":
        c = _as_fraction(value)
        return cls(ctx, {UNIT: c} if c else {})

    @classmethod
    def generator(cls, ctx: BundleSpec, g: Generator) -> "Poly":
        if not g.declared_in(ctx):
            raise UnknownName(repr(g))
        return cls(ctx, {Monomial(((g, 1),)): Fraction(1)})

    @classmethod
    def from_terms(cls, ctx: BundleSpec, items: Iterable[tuple[Monomial, Scalar]]) -> "Poly":
        terms: dict[Monomial, Fraction] = {}
        for mono, coeff in items:
            _accumulate(terms, mono, _as_fraction(coeff))
        return cls(ctx, terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def items(self) -> Iterator[tuple[Monomial, Fraction]]:
        return iter(self._terms.items())

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in descending graded-lex order (the rendering order)."""
        return sorted(self._terms.items(), key=lambda t: t[0].sort_key())

    def coefficient(self, mono: Monomial) -> Fraction:
        return self._terms.get(mono, Fraction(0))

    def constant_term(self) -> Fraction:
        return self._terms.get(UNIT, Fraction(0))

    def generators(self) -> set[Generator]:
        out: set[Generator] = set()
        for mono in self._terms:
            out.update(mono.generators())
        return out

    def max_order(self) -> int:
        """Largest jet order |I| occurring in the polynomial (0 if none)."""
        k = 0
        for mono in self._terms:
            for g in mono.generators():
                if g.is_jet and g.index.order > k:
                    k = g.index.order
        return k

    def total_degree(self) -> int:
        return max((m.degree for m in self._terms), default=0)

    def _check_ctx(self, other: "Poly"):
        if self.ctx != other.ctx:
            raise ValueError("polynomials over different bundle charts")

    def __add__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.ctx, other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_ctx(other)
        terms = dict(self._terms)
        for mono, c in other._terms.items():
            _accumulate(terms, mono, c)
        return Poly(self.ctx, terms)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(self.ctx, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.ctx, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.__add__(other.__neg__())

    def __rsub__(self, other) -> "Poly":
        return (-self).__add__(other)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if not c:
                return Poly.zero(self.ctx)
            return Poly(self.ctx, {m: k * c for m, k in self._terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_ctx(other)
        terms: dict[Monomial, Fraction] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                _accumulate(terms, m1.times(m2), c1 * c2)
        return Poly(self.ctx, terms)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        out = one = Poly.const(self.ctx, 1)
        square = self
        while exponent:
            if exponent & 1:
                out = square if out is one else out * square
            exponent >>= 1
            if exponent:
                square = square * square
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.ctx, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ctx == other.ctx and self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            items = tuple(sorted(self._terms.items(), key=lambda t: t[0].sort_key()))
            self._hash = hash((self.ctx, items))
        return self._hash

    def partial(self, g: Generator) -> "Poly":
        """Partial derivative with respect to one generator."""
        if not g.declared_in(self.ctx):
            raise UnknownName(repr(g))
        terms: dict[Monomial, Fraction] = {}
        for mono, c in self._terms.items():
            e = mono.exponent(g)
            if not e:
                continue
            _accumulate(terms, mono.with_exponent(g, e - 1), c * e)
        return Poly(self.ctx, terms)

    def substitute(self, mapping: Mapping[Generator, "Poly"]) -> "Poly":
        """Simultaneously replace generators by polynomials.

        Generators absent from the mapping are left fixed.  The substitution
        is simultaneous: replacement polynomials are never re-substituted.
        """
        for g, q in mapping.items():
            if not g.declared_in(self.ctx):
                raise UnknownName(repr(g))
            if q.ctx != self.ctx:
                raise ValueError("replacement polynomial over a different chart")
        power_cache: dict[tuple[Generator, int], Poly] = {}
        one = Poly.const(self.ctx, 1)
        terms: dict[Monomial, Fraction] = {}
        for mono, c in self._terms.items():
            fixed = []
            replaced = one
            for g, e in mono.powers:
                rep = mapping.get(g)
                if rep is None:
                    fixed.append((g, e))
                    continue
                key = (g, e)
                powered = power_cache.get(key)
                if powered is None:
                    powered = rep ** e
                    power_cache[key] = powered
                replaced = powered if replaced is one else replaced * powered
            # A subsequence of a canonical power tuple is canonical.
            head = Monomial._canonical(tuple(fixed))
            for m, k in replaced._terms.items():
                _accumulate(terms, head.times(m), c * k)
        return Poly(self.ctx, terms)

    def __str__(self) -> str:
        from .dsl import render_expr

        return render_expr(self)

    def __repr__(self) -> str:
        return f"Poly({self})"
