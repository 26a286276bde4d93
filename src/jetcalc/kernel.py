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


class ChartMismatch(JetcalcError, ValueError):
    """An operand over another chart than the one it meets, or a misshapen omega."""


def _same_chart(ctx: BundleSpec, other: BundleSpec, message: str) -> None:
    """Raise ChartMismatch(message) unless `other` is `ctx`, identity first."""
    if other is not ctx and other != ctx:
        raise ChartMismatch(message)


class UnknownName(JetcalcError):
    """An identifier that is not declared in the bundle."""

    def __init__(self, name: str, position: int | None = None):
        self.name = name
        self.position = position
        where = f" at position {position}" if position is not None else ""
        super().__init__(f"unknown name {name!r}{where}")


# A declared name; model files build their statement patterns from it.
_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9]*")

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
            if not _IDENT.fullmatch(name):
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
        """Map a name to its generator, or raise UnknownName: a base direction,
        a fiber (its order-zero jet), a parameter, or a fiber name, ``_`` and a
        word over the directions decoded by `split_suffix`, e.g. ``u1_xy``
        (or ``u1_yx``, the same generator).  The inverse of `Generator.name`."""
        if name in self._dir_pos:
            return Generator.base(self._dir_pos[name])
        if name in self._fiber_pos:
            return Generator.jet(self._fiber_pos[name], EMPTY_INDEX)
        if name in self._param_pos:
            return Generator.param(self._param_pos[name])
        stem, _, word = name.partition("_")
        if stem in self._fiber_pos and word:
            try:
                return Generator.jet(self._fiber_pos[stem], MultiIndex(self.split_suffix(word)))
            except UnknownName:
                pass
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


def _max_order(terms: Iterable[Monomial]) -> int:
    """Largest jet order |I| occurring in a term map (0 if none)."""
    return max((g.order for mono in terms for g, _ in mono.powers), default=0)


def _lowered(powers: tuple, i: int, g: Generator, e: int) -> Monomial:
    """`powers` with g^e, held at index i by the walk, lowered by one."""
    middle = ((g, e - 1),) if e > 1 else ()
    return Monomial._canonical(powers[:i] + middle + powers[i + 1:])


def _derive_into(out: dict, terms: dict, image: Callable[[Generator], Monomial | None],
                 scale: int) -> dict[Monomial, int]:
    """Add to `out`, and return, `scale` times the derivation g -> image(g)
    (zero where None) of `terms`: g^e gives e * g^(e-1) * image(g)."""
    for mono, c in terms.items():
        powers = mono.powers
        c *= scale
        for i, (g, e) in enumerate(powers):
            m = image(g)
            if m is not None:
                _accumulate(out, _lowered(powers, i, g, e).times(m), c * e)
    return out


# Packed exponents (Monagan and Pearce, CASC 2007): a monomial over a sorted
# tuple of generators is one integer, generator i holding its exponent in
# bits [i*w, (i+1)*w).  When no monomial of a computation, intermediate or
# final, has degree above `bound` < 2^w, no slot carries: multiplying two
# monomials is adding their keys, and distinct keys are distinct monomials.


def _profile(terms: Iterable[Monomial]) -> tuple[set[Generator], int]:
    """The generators and the total degree of a term map, in one pass."""
    gens: set[Generator] = set()
    degree = 0
    for mono in terms:
        d = 0
        for g, e in mono.powers:
            gens.add(g)
            d += e
        if d > degree:
            degree = d
    return gens, degree


def _layout(gens: Iterable[Generator],
            bound: int) -> tuple[tuple[Generator, ...], dict[Generator, int], int]:
    """The generators in canonical order, the bit offset of each one's slot,
    and the slot width w, the least with every degree up to `bound` below
    2^w."""
    order = tuple(sorted(gens))
    width = bound.bit_length()
    return order, {g: i * width for i, g in enumerate(order)}, width


def _pack(terms: dict[Monomial, int], shift: dict[Generator, int]) -> dict[int, int]:
    """The term map with each monomial replaced by its packed key."""
    packed = {}
    for mono, c in terms.items():
        key = 0
        for g, e in mono.powers:
            key += e << shift[g]
        packed[key] = c
    return packed


def _unpack(ctx: BundleSpec, packed: dict[int, int], order: tuple[Generator, ...],
            width: int, den: int) -> "Poly":
    """The polynomial of the packed numerators over `den`, reduced once;
    zero numerators are dropped.  Slots are read from the lowest, so each
    power tuple comes out sorted."""
    mask = (1 << width) - 1
    terms: dict[Monomial, int] = {}
    for key, c in packed.items():
        if not c:
            continue
        powers = []
        for g in order:
            if not key:
                break
            e = key & mask
            if e:
                powers.append((g, e))
            key >>= width
        terms[Monomial._canonical(tuple(powers))] = c
    return Poly._reduced(ctx, terms, den)


def _pmul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """The product of two packed numerator maps, without zero terms."""
    out: dict[int, int] = {}
    get = out.get
    pairs = tuple(b.items())
    for k1, c1 in a.items():
        for k2, c2 in pairs:
            k = k1 + k2
            out[k] = get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def _ppow(a: dict[int, int], exponent: int) -> dict[int, int]:
    """a ** exponent, for exponent >= 1, by binary powering.  Squares stop at
    the top bit of the exponent, so no factor has higher degree than the
    result."""
    out = None
    while True:
        if exponent & 1:
            out = a if out is None else _pmul(out, a)
        exponent >>= 1
        if not exponent:
            return out
        a = _pmul(a, a)


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
        with no scaling.  Raises ChartMismatch on a part over another chart.
        """
        terms: dict[Monomial, int] = {}
        den = 1
        for part in parts:
            _same_chart(ctx, part.ctx, "polynomials over different bundle charts")
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
        return _max_order(self._terms)

    def total_degree(self) -> int:
        return max((m.degree for m in self._terms), default=0)

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
        """The product, by merging the sorted factor tuples of each term pair
        (`Monomial.times`).  `substitute` and `**` multiply in packed
        exponents instead; a single product here is mostly small (1 to 32
        term pairs in the `jacobi` benchmark), so a per-call packing layout
        costs more than it saves: packed, that benchmark ran 162 tasks/s
        against 187 merged (medians of six runs)."""
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            c, den = _ratio(other)
            if not c:
                return Poly.zero(self.ctx)
            return Poly._reduced(self.ctx, {m: k * c for m, k in self._terms.items()},
                                 self._den * den)
        _same_chart(self.ctx, other.ctx, "polynomials over different bundle charts")
        terms: dict[Monomial, int] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                _accumulate(terms, m1.times(m2), c1 * c2)
        return Poly._reduced(self.ctx, terms, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly":
        """Binary powering in packed exponents, with slots wide enough for
        degree exponent * total_degree.  The numerators are those of the
        power over `_den ** exponent`, which `_reduced` brings to lowest
        terms."""
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        if not exponent:
            return Poly.const(self.ctx, 1)
        gens, degree = _profile(self._terms)
        order, shift, width = _layout(gens, exponent * degree)
        return _unpack(self.ctx, _ppow(_pack(self._terms, shift), exponent), order, width,
                       self._den ** exponent)

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
        return self.derivation({g: UNIT}.get)

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
        image(g), or to zero where that is None (`_derive_into`)."""
        return Poly._reduced(self.ctx, _derive_into({}, self._terms, image, 1), self._den)

    def substitute(self, mapping: Mapping[Generator, "Poly"]) -> "Poly":
        """Simultaneously replace generators by polynomials.

        Generators absent from the mapping are left fixed.  The substitution
        is simultaneous: replacement polynomials are never re-substituted.

        The expansion runs in packed exponents.  The layout holds the fixed
        generators and those of every replacement in use, with slots wide
        enough for the largest degree a term can reach, the sum of e *
        deg(replacement) and of its fixed exponents; every power and partial
        product of a term has at most that degree, so the packing is exact.
        Each replacement is packed once and each power g^e computed once per
        call.  The per-term products accumulate in one integer map over the
        least common denominator of the replaced factors so far, as in `sum`,
        and each distinct output monomial is unpacked once at the end.
        """
        ctx = self.ctx
        for g, q in mapping.items():
            if not g.declared_in(ctx):
                raise UnknownName(repr(g))
            _same_chart(ctx, q.ctx, "replacement polynomial over a different chart")
        profiles: dict[Generator, tuple[set[Generator], int]] = {}
        gens: set[Generator] = set()
        bound = 0
        for mono in self._terms:
            degree = 0
            for g, e in mono.powers:
                rep = mapping.get(g)
                if rep is None:
                    gens.add(g)
                    degree += e
                    continue
                profile = profiles.get(g)
                if profile is None:
                    profile = profiles[g] = _profile(rep._terms)
                    gens |= profile[0]
                degree += e * profile[1]
            if degree > bound:
                bound = degree
        order, shift, width = _layout(gens, bound)
        packed = {g: (_pack(mapping[g]._terms, shift), mapping[g]._den) for g in profiles}
        powers: dict[tuple[Generator, int], tuple[dict[int, int], int]] = {}
        terms: dict[int, int] = {}
        get = terms.get
        den = 1
        for mono, c in self._terms.items():
            head = 0
            replaced = None
            replaced_den = 1
            for g, e in mono.powers:
                rep = packed.get(g)
                if rep is None:
                    head += e << shift[g]
                    continue
                powered = powers.get((g, e))
                if powered is None:
                    powered = powers[g, e] = (_ppow(rep[0], e), rep[1] ** e)
                replaced = powered[0] if replaced is None else _pmul(replaced, powered[0])
                replaced_den *= powered[1]
            if replaced is None:
                replaced = {0: 1}
            if replaced_den != den:
                den, scale = _common_den(terms, den, replaced_den)
                c *= scale
            for k, v in replaced.items():
                k += head
                terms[k] = get(k, 0) + c * v
        return _unpack(ctx, terms, order, width, self._den * den)

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
    check passed.  A check passes iff it reports no nonzero residual: checks
    list their (location, residual) pairs and build the report with `of`.
    """

    passed: bool
    residuals: tuple[tuple[str, Poly], ...] = ()
    results: tuple[tuple[str, str], ...] = ()

    @classmethod
    def of(cls, residuals: Iterable[tuple[str, Poly]],
           results: tuple[tuple[str, str], ...] = ()) -> "CheckReport":
        """Keep the nonzero residuals, in order; the check passed iff none is."""
        kept = tuple((where, residual) for where, residual in residuals if residual)
        return cls(not kept, kept, results)

    def __bool__(self) -> bool:
        return self.passed
