"""Model files: declarations binding a chart to named objects for the CLI.

Format, one statement per line (';' also separates statements at top level,
'#' starts a comment, and newlines inside brackets or braces do not split)::

    bundle { base = [x]; fibers = [u1, u2]; params = [] }
    omega = [[0, 1], [-1, 0]]
    let P1 = u1 * u2_x
    auto Rot90 { u1 -> u2, u2 -> -u1 inv { u1 -> -u2, u2 -> u1 } }
    group C4 = [Id, Rot90, Rot180, Rot270]
    sigma { n = 2; w = [[0, u1], [-u1, 0]] }

A model declares its chart either with ``bundle`` (any base and fibers, plus
an optional ``omega``) or with ``sigma`` (which generates the two-dimensional
chart and the block structure matrix itself), never both.  Statements are
processed in order: the chart declaration comes first, definitions may then
use its names, and a ``group`` lists previously declared automorphisms.  A
``bundle`` or ``sigma`` block names each key once.  An automorphism's inverse
is the last ``inv { ... }`` block in its body, so ``inv`` may also be a chart
name.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Callable

from .dsl import ParseError, parse_expr
from .kernel import _IDENT, BundleSpec, JetcalcError, Poly, Scalar, UnknownName
from .poisson import OmegaSpec
from .sigma import SigmaModelSpec, sigma_bundle
from .symmetry import Automorphism, FiniteGroupAction

_OPEN = "([{"
_CLOSE = ")]}"


def _blank_comments(text: str) -> str:
    return re.sub(r"#[^\n]*", lambda m: " " * len(m.group()), text)


# The characters `_split_top` visits, one class per separator set in use.
_SPECIALS = {separators: re.compile("[" + re.escape(_OPEN + _CLOSE + separators) + "]")
             for separators in (",", ";\n")}


def _split_top(text: str, offset: int, separators: str) -> list[tuple[str, int]]:
    """Split at top-level separator characters, tracking bracket depth.

    Each piece comes back stripped, with the offset of its first character.
    """
    pieces = []
    depth = 0
    start = 0
    for m in _SPECIALS[separators].finditer(text):
        k, ch = m.start(), m.group()
        if ch in _OPEN:
            depth += 1
        elif ch in _CLOSE:
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced bracket", offset + k)
        elif depth == 0 and ch in separators:
            pieces.append(_strip(text[start:k], offset + start))
            start = k + 1
    if depth != 0:
        raise ParseError("unbalanced bracket", offset + len(text))
    pieces.append(_strip(text[start:], offset + start))
    return pieces


def _strip(piece: str, offset: int) -> tuple[str, int]:
    stripped = piece.lstrip()
    return stripped.rstrip(), offset + len(piece) - len(stripped)


def _unbracket(text: str, offset: int) -> tuple[str, int]:
    text, offset = _strip(text, offset)
    if not text.startswith("[") or not text.endswith("]"):
        raise ParseError("expected [...]", offset)
    return text[1:-1], offset + 1


def _parse_name_list(text: str, offset: int) -> list[tuple[str, int]]:
    """The names of ``[a, b, ...]``, each with its offset in the source."""
    inner, inner_off = _unbracket(text, offset)
    if not inner.strip():
        return []
    names = _split_top(inner, inner_off, ",")
    for name, off in names:
        if not _IDENT.fullmatch(name):
            raise ParseError(f"expected a name, got {name!r}", off)
    return names


def _read_block(text: str, offset: int, head: str, readers: dict[str, Callable[[str, int], Any]],
                message: str) -> tuple[dict[str, Any], dict[str, int]]:
    """Read ``head { key = value; ... }``, naming each key at most once.

    Each value goes to its key's reader, with the value's offset, as soon as
    its piece is reached.  Returns the values read and each key's offset; an
    unknown key raises `message`.
    """
    m = re.match(head + r"\s*\{(.*)\}\Z", text, re.DOTALL)
    if m is None:
        raise ParseError(f"expected {head} {{ ... }}", offset)
    values: dict[str, Any] = {}
    where: dict[str, int] = {}
    for piece, off in _split_top(m.group(1), offset + m.start(1), ";\n"):
        if not piece:
            continue
        key, eq, value = piece.partition("=")
        key = key.rstrip()
        if not eq or key not in readers:
            raise ParseError(message, off)
        if key in values:
            raise ParseError(f"duplicate {key!r}", off)
        values[key] = readers[key](value, off + piece.index("=") + 1)
        where[key] = off
    return values, where


def _parse_matrix(text: str, offset: int,
                  read_cell: Callable[[str, int], Any]) -> tuple[tuple[Any, ...], ...]:
    """The rows of ``[[a, b], [c, d]]``, each cell read by `read_cell(cell,
    its offset)`."""
    inner, inner_off = _unbracket(text, offset)
    rows = []
    for row_text, row_off in _split_top(inner, inner_off, ","):
        row_inner, cell_off = _unbracket(row_text, row_off)
        row = []
        for cell, off in _split_top(row_inner, cell_off, ","):
            if not cell:
                raise ParseError("empty matrix entry", off)
            row.append(read_cell(cell, off))
        rows.append(tuple(row))
    return tuple(rows)


def _checked(offset: int, build: Callable, *args, prefix: str = ""):
    """build(*args), a ValueError from it reported as a ParseError at the
    statement's `offset`, its message behind `prefix`."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ParseError(f"{prefix}{exc}", offset) from None


class MissingDeclaration(JetcalcError, ValueError):
    """A command needs a structure matrix or sigma block the model lacks."""


@dataclass
class ModelFile:
    """A parsed model: the chart plus every named object declared in the file."""

    bundle: BundleSpec
    omega: OmegaSpec | None = None
    definitions: dict[str, Poly] = field(default_factory=dict)
    automorphisms: dict[str, Automorphism] = field(default_factory=dict)
    groups: dict[str, FiniteGroupAction] = field(default_factory=dict)
    sigma: SigmaModelSpec | None = None

    def resolve_density(self, name_or_expr: str) -> Poly:
        """A `let` name, or failing that an inline expression over the chart."""
        if name_or_expr in self.definitions:
            return self.definitions[name_or_expr]
        return parse_expr(name_or_expr, self.bundle)

    def resolve_matrix(self, text: str) -> tuple[tuple[Scalar, ...], ...]:
        """A matrix literal, such as ``[[3/5, 4/5], [-4/5, 3/5]]``, read as a
        model-file matrix over the chart whose every entry is a constant."""
        def rational(cell: str, offset: int) -> Scalar:
            entry = parse_expr(cell, self.bundle, offset)
            if entry.generators():
                raise ParseError(f"expected a rational number, got {cell!r}", offset)
            return entry.constant_term()
        return _parse_matrix(text, 0, rational)

    def get_automorphism(self, name: str) -> Automorphism:
        try:
            return self.automorphisms[name]
        except KeyError:
            raise UnknownName(name) from None

    def get_group(self, name: str) -> FiniteGroupAction:
        try:
            return self.groups[name]
        except KeyError:
            raise UnknownName(name) from None

    def require_omega(self) -> OmegaSpec:
        if self.omega is None:
            raise MissingDeclaration("the model declares no structure matrix (omega)")
        return self.omega

    def require_sigma(self) -> SigmaModelSpec:
        if self.sigma is None:
            raise MissingDeclaration("the model declares no sigma block")
        return self.sigma


class _ModelParser:
    def __init__(self, text: str):
        self.text = _blank_comments(text)
        self.model: ModelFile | None = None
        self.parsed: dict[str, Poly] = {}

    def expr(self, text: str, offset: int, ctx: BundleSpec) -> Poly:
        """parse_expr(text, ctx, offset), parsed once per distinct text of the
        file.  This is exact: a file has one chart (a second chart statement
        is an error, and so is anything before the first), a parse's result
        does not depend on the offset, and a Poly is immutable.  A failed
        parse raises and stores nothing, so its position is always its own."""
        p = self.parsed.get(text)
        if p is None:
            p = self.parsed[text] = parse_expr(text, ctx, offset)
        return p

    def parse(self) -> ModelFile:
        for statement, offset in _split_top(self.text, 0, ";\n"):
            if statement:
                self.statement(statement, offset)
        if self.model is None:
            raise ParseError("the model declares no chart (bundle or sigma)", 0)
        return self.model

    def require_chart(self, offset: int) -> ModelFile:
        if self.model is None:
            raise ParseError("the chart (bundle or sigma) must be declared first", offset)
        return self.model

    def require_fresh(self, name: str, offset: int) -> ModelFile:
        """The model, once `name` is known to name nothing in it yet."""
        model = self.require_chart(offset)
        ctx = model.bundle
        if (name in model.definitions or name in model.automorphisms or name in model.groups
                or name in ctx.base_dims + ctx.fibers + ctx.params):
            raise ParseError(f"the name {name!r} is already in use", offset)
        return model

    def statement(self, text: str, offset: int):
        head = text.split(None, 1)[0].split("{", 1)[0].split("=", 1)[0]
        handler = getattr(self, "stmt_" + head, None)
        if handler is None:
            raise ParseError(f"unknown statement {head!r}", offset)
        handler(text, offset)

    def stmt_bundle(self, text: str, offset: int):
        if self.model is not None:
            raise ParseError("the chart is already declared", offset)
        names, _ = _read_block(text, offset, "bundle",
                               dict.fromkeys(("base", "fibers", "params"), _parse_name_list),
                               "expected base/fibers/params = [...]")
        if "base" not in names or "fibers" not in names:
            raise ParseError("bundle needs both base and fibers", offset)
        base, fibers, params = (tuple(name for name, _ in names.get(key, ()))
                                for key in ("base", "fibers", "params"))
        self.model = ModelFile(_checked(offset, BundleSpec, base, fibers, params))

    def stmt_omega(self, text: str, offset: int):
        model = self.require_chart(offset)
        if model.omega is not None:
            raise ParseError("omega is already declared", offset)
        _, eq, value = text.partition("=")
        if not eq:
            raise ParseError("expected omega = [[...], ...]", offset)
        matrix = _parse_matrix(value, offset + text.index("=") + 1,
                               lambda cell, at: self.expr(cell, at, model.bundle))
        model.omega = _checked(offset, OmegaSpec, model.bundle, matrix)

    def stmt_let(self, text: str, offset: int):
        m = re.match(r"let\s+(" + _IDENT.pattern + r")\s*=\s*(.*)\Z", text, re.DOTALL)
        if m is None:
            raise ParseError("expected let NAME = expression", offset)
        name = m.group(1)
        model = self.require_fresh(name, offset)
        model.definitions[name] = self.expr(m.group(2), offset + m.start(2), model.bundle)

    def stmt_auto(self, text: str, offset: int):
        m = re.match(r"auto\s+(" + _IDENT.pattern + r")\s*\{(.*)\}\Z", text, re.DOTALL)
        if m is None:
            raise ParseError("expected auto NAME { ... }", offset)
        name = m.group(1)
        model = self.require_fresh(name, offset)
        inner_off = offset + m.start(2)
        split = re.match(r"(.*)(?<![A-Za-z0-9])inv\s*\{(.*)\}\s*\Z", m.group(2), re.DOTALL)
        if split is None:
            raise ParseError("an automorphism needs an inv { ... } block", inner_off)
        psi = self._parse_mappings(split.group(1), inner_off, model.bundle)
        psi_inv = self._parse_mappings(split.group(2), inner_off + split.start(2), model.bundle)
        model.automorphisms[name] = _checked(offset, Automorphism, model.bundle, psi, psi_inv,
                                             prefix=f"invalid automorphism {name!r}: ")

    def _parse_mappings(self, text: str, offset: int, ctx: BundleSpec) -> tuple[Poly, ...]:
        images: dict[int, Poly] = {}
        for piece, off in _split_top(text, offset, ","):
            if not piece:
                continue
            fiber, arrow, value = piece.partition("->")
            if not arrow:
                raise ParseError("expected fiber -> expression", off)
            fiber = fiber.rstrip()
            if fiber not in ctx.fibers:
                raise UnknownName(fiber, off)
            a = ctx.fiber_index(fiber)
            if a in images:
                raise ParseError(f"duplicate mapping for {fiber!r}", off)
            images[a] = self.expr(value, off + piece.index("->") + 2, ctx)
        missing = [ctx.fibers[a] for a in range(ctx.m) if a not in images]
        if missing:
            raise ParseError(f"missing mappings for {', '.join(missing)}", offset)
        return tuple(images[a] for a in range(ctx.m))

    def stmt_group(self, text: str, offset: int):
        m = re.match(r"group\s+(" + _IDENT.pattern + r")\s*=\s*(\[.*\])\Z", text, re.DOTALL)
        if m is None:
            raise ParseError("expected group NAME = [autoA, ...]", offset)
        name = m.group(1)
        model = self.require_fresh(name, offset)
        members = []
        for member, at in _parse_name_list(m.group(2), offset + m.start(2)):
            if member not in model.automorphisms:
                raise UnknownName(member, at)
            members.append(model.automorphisms[member])
        model.groups[name] = _checked(offset, FiniteGroupAction, tuple(members),
                                      prefix=f"invalid group {name!r}: ")

    def stmt_sigma(self, text: str, offset: int):
        if self.model is not None:
            raise ParseError("a sigma model declares its own chart; "
                             "drop the separate bundle statement", offset)
        raw, where = _read_block(text, offset, "sigma",
                                 dict.fromkeys("nw", lambda value, at: (value, at)),
                                 "expected n = ... or w = [[...], ...]")
        if raw.keys() != {"n", "w"}:
            raise ParseError("sigma needs both n and w", offset)
        n_text = raw["n"][0].strip()
        if not re.fullmatch(r"[0-9]+", n_text) or int(n_text) < 1:
            raise ParseError("n must be a positive integer", where["n"])
        n_fields = int(n_text)
        chart = sigma_bundle(n_fields)
        matrix = _parse_matrix(*raw["w"], lambda cell, at: self.expr(cell, at, chart))
        spec = _checked(offset, SigmaModelSpec, n_fields, matrix, chart)
        self.model = ModelFile(chart, spec.omega, sigma=spec)


def parse_model(text: str) -> ModelFile:
    """Parse model text into its declared objects (see the module docstring)."""
    return _ModelParser(text).parse()


def load_model(path: str) -> ModelFile:
    """Parse a model file; positions count from after a byte-order mark."""
    with open(path, "r", encoding="utf-8-sig") as handle:
        return parse_model(handle.read())
