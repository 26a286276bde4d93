"""Exact expression kernel for calculus on jet bundles of trivial vector bundles.

Everything downstream works with :class:`Poly`: a sparse multivariate
polynomial with exact rational coefficients in three kinds of generators,
namely base coordinates x^i, jet coordinates u^a_I (where I is a symmetric
multi-index over base directions, so u^a_yx and u^a_xy are the same
generator) and free parameters.  A generator is the tuple (kind, pos, order,
index), and tuple order is the canonical order.  Polynomials are kept in
canonical form: no zero coefficients, no zero exponents, factors sorted by
generator, and the coefficients stored as integer numerators over one positive
denominator per polynomial, reduced so that it and the numerators have no
common factor (the zero polynomial has denominator 1).  The arithmetic loops
therefore see only integers.  A `Poly` owns the term map it was built from.
Structural equality decides mathematical equality, and there is no floating
point.  At the public boundary a coefficient is a `Scalar`: an `int` while it
is integral and a reduced `Fraction` only when it is not.
"""

from __future__ import annotations

import re
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Iterator, Mapping, Union


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


def _ratio(value: Scalar) -> tuple[int, int]:
    """Numerator and positive denominator, in lowest terms, of an exact
    rational (a `bool` reads as an `int`).  Raises TypeError on anything
    else, a float in particular."""
    if isinstance(value, int):
        return int(value), 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    raise TypeError(f"exact rational coefficient required, got {type(value).__name__}")


def _scalar(numerator: int, den: int) -> Scalar:
    """The public form of numerator/den: an `int` while it is integral, a
    reduced `Fraction` only when it is not."""
    if den == 1:
        return numerator
    q, r = divmod(numerator, den)
    return Fraction(numerator, den) if r else q


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


class MultiIndex(tuple):
    """Symmetric multi-index: a sorted multiset of base-direction positions."""

    __slots__ = ()

    def __new__(cls, entries: Iterable[int] = ()):
        ent = sorted(entries)
        for i in ent:
            if not isinstance(i, int) or i < 0:
                raise ValueError(f"bad multi-index entry {i!r}")
        return super().__new__(cls, ent)

    @property
    def order(self) -> int:
        return len(self)

    @property
    def entries(self) -> tuple[int, ...]:
        return tuple(self)

    def extended(self, i: int) -> "MultiIndex":
        return MultiIndex(self + (i,))

    def __repr__(self) -> str:
        return f"MultiIndex{self.entries}"


EMPTY_INDEX = MultiIndex()

_BASE, _JET, _PARAM = 0, 1, 2


class Generator(namedtuple("Generator", "kind pos order index")):
    """A base coordinate x^i, a jet coordinate u^a_I, or a free parameter.

    The tuple (kind, pos, order = |I|, index), whose tuple order is the
    canonical order: base coordinates by position, then jet coordinates by
    (fiber position, |I|, lexicographic sorted I), then parameters by position.
    """

    __slots__ = ()

    def __new__(cls, kind: int, pos: int, index: MultiIndex = EMPTY_INDEX):
        return super().__new__(cls, kind, pos, len(index), index)

    def __getnewargs__(self):
        return self.kind, self.pos, self.index

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

    def name(self, ctx: BundleSpec) -> str:
        if self.kind == _BASE:
            return ctx.base_dims[self.pos]
        if self.kind == _PARAM:
            return ctx.params[self.pos]
        stem = ctx.fibers[self.pos]
        if self.order == 0:
            return stem
        return stem + "_" + "".join(ctx.base_dims[i] for i in self.index)

    def declared_in(self, ctx: BundleSpec) -> bool:
        if self.kind == _BASE:
            return 0 <= self.pos < ctx.n
        if self.kind == _PARAM:
            return 0 <= self.pos < len(ctx.params)
        return 0 <= self.pos < ctx.m and all(0 <= i < ctx.n for i in self.index)

    def __repr__(self) -> str:
        tag = ("Base", "Jet", "Param")[self.kind]
        if self.kind == _JET and self.order:
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
        self.powers = tuple(sorted(merged.items()))
        self._hash = hash(self.powers)

    @classmethod
    def _canonical(cls, powers: tuple[tuple[Generator, int], ...]) -> "Monomial":
        """Wrap a power tuple that is already sorted by generator, merged
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
        for h, e in self.powers:
            if h == g:
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
        # Both factors are sorted: one merge by generator keeps them so.
        out = []
        i = j = 0
        while i < len(a) and j < len(b):
            g, e = a[i]
            h, f = b[j]
            if g < h:
                out.append(a[i])
                i += 1
            elif h < g:
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
        powers = self.powers
        i = 0
        while i < len(powers) and powers[i][0] < g:
            i += 1
        rest = i + 1 if i < len(powers) and powers[i][0] == g else i
        middle = ((g, e),) if e else ()
        return Monomial._canonical(powers[:i] + middle + powers[rest:])

    def sort_key(self):
        """Key whose ascending order is descending graded-lex on monomials."""
        return (-self.degree, tuple((g, -e) for g, e in self.powers))

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self.powers == other.powers

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if not self.powers:
            return "Monomial(1)"
        return "Monomial(" + "*".join(f"{g!r}^{e}" for g, e in self.powers) + ")"


UNIT = Monomial()


def _accumulate(terms: dict[Monomial, int], mono: Monomial, c: int):
    """Add the integer numerator c to that of mono in terms, dropping the
    term if it cancels.  All numerators of one map share one denominator,
    so this, the kernel's innermost loop, adds only integers."""
    s = terms.get(mono)
    if s is not None:
        c += s
    if c:
        terms[mono] = c
    else:
        terms.pop(mono, None)


def _common_den(terms: dict[Monomial, int], den: int, other: int) -> tuple[int, int]:
    """Bring the numerators `terms` over `den` and a part over `other` to
    their least common denominator: rescale `terms` in place, and return
    that denominator and the factor for the part's numerators."""
    common = lcm(den, other)
    if common != den:
        grow = common // den
        for mono in terms:
            terms[mono] *= grow
    return common, common // other


class Poly:
    """Canonical sparse polynomial over the generators of one bundle chart.

    Immutable.  Supports +, -, * (with Poly, int or Fraction) and ** with a
    non-negative integer.  Coefficients are exact rationals, stored as
    integer numerators over one positive denominator `_den` that is reduced
    (`gcd(_den, *numerators) == 1`, and the zero polynomial has `_den == 1`),
    so each product, partial or sum reduces once, by one gcd, at its end.
    The public `Scalar` contract is unchanged: the queries `items`,
    `sorted_terms`, `coefficient` and `constant_term` return an `int` while a
    coefficient is integral and a reduced `Fraction` only when it is not, and
    an absent term reads `0`.  A float is rejected with TypeError.  Equality
    is structural equality of the reduced form, which coincides with
    mathematical equality.  The constructor is the kernel's and owns,
    uncopied, the fresh reduced term map it is given; build with `zero`,
    `const`, `generator`, `from_terms` or `sum`.
    """

    __slots__ = ("ctx", "_terms", "_den", "_hash")

    def __init__(self, ctx: BundleSpec, terms: dict[Monomial, int], den: int = 1):
        self.ctx = ctx
        self._terms = terms
        self._den = den
        self._hash = None

    @classmethod
    def _reduced(cls, ctx: BundleSpec, terms: dict[Monomial, int], den: int) -> "Poly":
        """The polynomial of the numerators `terms` over `den` > 0, brought to
        lowest terms, in place, by one gcd.

        The gcd is folded over the numerators and stops at the first 1.
        `gcd(den, *numerators)` would build an argument tuple per result, and
        the tuples it leaves on the interpreter's free lists raise the peak
        memory of long runs.
        """
        if den != 1:
            g = den
            for c in terms.values():
                g = gcd(g, c)
                if g == 1:
                    break
            if g != 1:
                den //= g
                for mono in terms:
                    terms[mono] //= g
        return cls(ctx, terms, den)

    @classmethod
    def zero(cls, ctx: BundleSpec) -> "Poly":
        return cls(ctx, {})

    @classmethod
    def const(cls, ctx: BundleSpec, value: Scalar) -> "Poly":
        c, den = _ratio(value)
        return cls(ctx, {UNIT: c}, den) if c else cls(ctx, {})

    @classmethod
    def generator(cls, ctx: BundleSpec, g: Generator) -> "Poly":
        if not g.declared_in(ctx):
            raise UnknownName(repr(g))
        return cls(ctx, {Monomial(((g, 1),)): 1})

    @classmethod
    def sum(cls, ctx: BundleSpec, parts: Iterable["Poly"]) -> "Poly":
        """The sum of polynomials over `ctx`, accumulated into one term map.

        The first part's terms are copied once and every other term is folded
        in once, instead of building a partial sum per part; `a + b` is the
        two-part case.  Parts stream: the running sum is kept over the least
        common denominator of the parts so far, and each part is scaled by
        that denominator over its own, so parts that are all integral fold
        with no scaling.  Raises ValueError on a part over another chart.
        """
        terms: dict[Monomial, int] = {}
        den = 1
        for part in parts:
            if part.ctx is not ctx and part.ctx != ctx:
                raise ValueError("polynomials over different bundle charts")
            scale = 1
            if part._den != den:
                den, scale = _common_den(terms, den, part._den)
            if scale == 1 and not terms:
                terms = dict(part._terms)
            elif scale == 1:
                for mono, c in part._terms.items():
                    _accumulate(terms, mono, c)
            else:
                for mono, c in part._terms.items():
                    _accumulate(terms, mono, c * scale)
        return cls._reduced(ctx, terms, den)

    @classmethod
    def from_terms(cls, ctx: BundleSpec, items: Iterable[tuple[Monomial, Scalar]]) -> "Poly":
        terms: dict[Monomial, int] = {}
        den = 1
        for mono, coeff in items:
            c, d = _ratio(coeff)
            if d != den:
                den, scale = _common_den(terms, den, d)
                c *= scale
            _accumulate(terms, mono, c)
        return cls._reduced(ctx, terms, den)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def items(self) -> Iterator[tuple[Monomial, Scalar]]:
        den = self._den
        if den == 1:
            return iter(self._terms.items())
        return ((mono, _scalar(c, den)) for mono, c in self._terms.items())

    def sorted_terms(self) -> list[tuple[Monomial, Scalar]]:
        """Terms in descending graded-lex order (the rendering order)."""
        return sorted(self.items(), key=lambda t: t[0].sort_key())

    def coefficient(self, mono: Monomial) -> Scalar:
        return _scalar(self._terms.get(mono, 0), self._den)

    def constant_term(self) -> Scalar:
        return self.coefficient(UNIT)

    def generators(self) -> set[Generator]:
        out: set[Generator] = set()
        for mono in self._terms:
            out.update(mono.generators())
        return out

    def max_order(self) -> int:
        """Largest jet order |I| occurring in the polynomial (0 if none)."""
        return max((g.order for mono in self._terms for g, _ in mono.powers), default=0)

    def total_degree(self) -> int:
        return max((m.degree for m in self._terms), default=0)

    def _check_ctx(self, other: "Poly"):
        if self.ctx != other.ctx:
            raise ValueError("polynomials over different bundle charts")

    def __add__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Poly.const(self.ctx, other)
        return Poly.sum(self.ctx, (self, other))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(self.ctx, {m: -c for m, c in self._terms.items()}, self._den)

    def __sub__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Poly.const(self.ctx, other)
        return self.__add__(other.__neg__())

    def __rsub__(self, other) -> "Poly":
        return (-self).__add__(other)

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            c, den = _ratio(other)
            if not c:
                return Poly.zero(self.ctx)
            return Poly._reduced(self.ctx, {m: k * c for m, k in self._terms.items()},
                                 self._den * den)
        self._check_ctx(other)
        terms: dict[Monomial, int] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                _accumulate(terms, m1.times(m2), c1 * c2)
        return Poly._reduced(self.ctx, terms, self._den * other._den)

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
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Poly.const(self.ctx, other)
        return (self.ctx == other.ctx and self._den == other._den
                and self._terms == other._terms)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.ctx, self._den, frozenset(self._terms.items())))
        return self._hash

    def partial(self, g: Generator) -> "Poly":
        """Partial derivative with respect to one generator."""
        if not g.declared_in(self.ctx):
            raise UnknownName(repr(g))
        terms: dict[Monomial, int] = {}
        for mono, c in self._terms.items():
            e = mono.exponent(g)
            if not e:
                continue
            _accumulate(terms, mono.with_exponent(g, e - 1), c * e)
        return Poly._reduced(self.ctx, terms, self._den)

    def antiderivative(self, g: Generator) -> "Poly":
        """Antiderivative with respect to one generator, with no constant of
        integration: g^e becomes g^(e+1)/(e+1).  Each numerator is scaled to
        the common denominator `_den * lcm(e+1)`, and the result is reduced
        once; raising one exponent keeps distinct monomials distinct.  The
        lcm is folded, as the gcd in `_reduced`, so that no argument tuple
        is built per call."""
        if not g.declared_in(self.ctx):
            raise UnknownName(repr(g))
        common = 1
        for mono in self._terms:
            common = lcm(common, mono.exponent(g) + 1)
        terms: dict[Monomial, int] = {}
        for mono, c in self._terms.items():
            k = mono.exponent(g) + 1
            terms[mono.with_exponent(g, k)] = c * (common // k)
        return Poly._reduced(self.ctx, terms, self._den * common)

    def derivation(self, image: Callable[[Generator], Monomial | None]) -> "Poly":
        """Apply the derivation sending each generator g to the monomial
        image(g), or to zero when image(g) is None, in one pass over the
        terms: each power g^e contributes e * g^(e-1) * image(g)."""
        terms: dict[Monomial, int] = {}
        for mono, c in self._terms.items():
            for g, e in mono.powers:
                m = image(g)
                if m is not None:
                    _accumulate(terms, mono.with_exponent(g, e - 1).times(m), c * e)
        return Poly._reduced(self.ctx, terms, self._den)

    def substitute(self, mapping: Mapping[Generator, "Poly"]) -> "Poly":
        """Simultaneously replace generators by polynomials.

        Generators absent from the mapping are left fixed.  The substitution
        is simultaneous: replacement polynomials are never re-substituted.
        The per-term products accumulate in one integer map over the least
        common denominator of the replaced factors so far, as in `sum`.
        """
        for g, q in mapping.items():
            if not g.declared_in(self.ctx):
                raise UnknownName(repr(g))
            if q.ctx != self.ctx:
                raise ValueError("replacement polynomial over a different chart")
        power_cache: dict[tuple[Generator, int], Poly] = {}
        one = Poly.const(self.ctx, 1)
        terms: dict[Monomial, int] = {}
        den = 1
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
            if replaced._den != den:
                den, scale = _common_den(terms, den, replaced._den)
                c *= scale
            for m, k in replaced._terms.items():
                _accumulate(terms, head.times(m), c * k)
        return Poly._reduced(self.ctx, terms, self._den * den)

    def __str__(self) -> str:
        from .dsl import render_expr

        return render_expr(self)

    def __repr__(self) -> str:
        return f"Poly({self})"


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a check, in the shape the command line prints.

    `residuals` pairs each failing location with its exact residual, and
    `results` pairs names with verdict words.  A report is true when the
    check passed.
    """

    passed: bool
    residuals: tuple[tuple[str, Poly], ...] = ()
    results: tuple[tuple[str, str], ...] = ()

    def __bool__(self) -> bool:
        return self.passed
