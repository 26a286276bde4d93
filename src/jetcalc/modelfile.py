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
use its names, and a ``group`` lists previously declared automorphisms.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .dsl import ParseError, parse_expr
from .kernel import BundleSpec, Poly, UnknownName
from .poisson import OmegaSpec, validate_omega
from .sigma import SigmaModelSpec, build_sigma, sigma_bundle
from .symmetry import Automorphism, FiniteGroupAction

_OPEN = "([{"
_CLOSE = ")]}"
_NAME = re.compile(r"[A-Za-z][A-Za-z0-9]*\Z")


def _blank_comments(text: str) -> str:
    out = []
    in_comment = False
    for ch in text:
        if ch == "#":
            in_comment = True
        if ch == "\n":
            in_comment = False
        out.append(" " if in_comment else ch)
    return "".join(out)


def _split_top(text: str, offset: int, separators: str) -> list[tuple[str, int]]:
    """Split at top-level separator characters, tracking bracket depth."""
    pieces = []
    depth = 0
    start = 0
    for k, ch in enumerate(text):
        if ch in _OPEN:
            depth += 1
        elif ch in _CLOSE:
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced bracket", offset + k)
        elif depth == 0 and ch in separators:
            pieces.append((text[start:k], offset + start))
            start = k + 1
    if depth != 0:
        raise ParseError("unbalanced bracket", offset + len(text))
    pieces.append((text[start:], offset + start))
    return pieces


def _strip(piece: str, offset: int) -> tuple[str, int]:
    stripped = piece.lstrip()
    return stripped.rstrip(), offset + len(piece) - len(stripped)


def _unbracket(text: str, offset: int, open_ch: str = "[", close_ch: str = "]") -> tuple[str, int]:
    text, offset = _strip(text, offset)
    if not text.startswith(open_ch) or not text.endswith(close_ch):
        raise ParseError(f"expected {open_ch}...{close_ch}", offset)
    return text[1:-1], offset + 1


def _parse_name_list(text: str, offset: int) -> list[str]:
    inner, inner_off = _unbracket(text, offset)
    if not inner.strip():
        return []
    names = []
    for piece, off in _split_top(inner, inner_off, ","):
        name, off = _strip(piece, off)
        if not _NAME.match(name):
            raise ParseError(f"expected a name, got {name!r}", off)
        names.append(name)
    return names


def _parse_expr_at(text: str, offset: int, ctx: BundleSpec) -> Poly:
    try:
        return parse_expr(text, ctx)
    except ParseError as exc:
        raise ParseError(exc.message, offset + exc.position) from None
    except UnknownName as exc:
        raise UnknownName(exc.name, offset + (exc.position or 0)) from None


def _parse_matrix(text: str, offset: int, ctx: BundleSpec) -> tuple[tuple[Poly, ...], ...]:
    inner, inner_off = _unbracket(text, offset)
    rows = []
    for row_text, row_off in _split_top(inner, inner_off, ","):
        row_text, row_off = _strip(row_text, row_off)
        row_inner, cell_off = _unbracket(row_text, row_off)
        row = []
        for cell, off in _split_top(row_inner, cell_off, ","):
            cell, off = _strip(cell, off)
            if not cell:
                raise ParseError("empty matrix entry", off)
            row.append(_parse_expr_at(cell, off, ctx))
        rows.append(tuple(row))
    return tuple(rows)


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
            raise ValueError("the model declares no structure matrix (omega)")
        return self.omega

    def require_sigma(self) -> SigmaModelSpec:
        if self.sigma is None:
            raise ValueError("the model declares no sigma block")
        return self.sigma


class _ModelParser:
    def __init__(self, text: str):
        self.text = _blank_comments(text)
        self.bundle: BundleSpec | None = None
        self.omega_raw: tuple[str, int] | None = None
        self.omega: OmegaSpec | None = None
        self.definitions: dict[str, Poly] = {}
        self.automorphisms: dict[str, Automorphism] = {}
        self.groups: dict[str, FiniteGroupAction] = {}
        self.sigma: SigmaModelSpec | None = None

    def parse(self) -> ModelFile:
        for piece, offset in _split_top(self.text, 0, ";\n"):
            statement, offset = _strip(piece, offset)
            if statement:
                self.statement(statement, offset)
        if self.bundle is None:
            raise ParseError("the model declares no chart (bundle or sigma)", 0)
        return ModelFile(
            bundle=self.bundle,
            omega=self.omega,
            definitions=self.definitions,
            automorphisms=self.automorphisms,
            groups=self.groups,
            sigma=self.sigma,
        )

    def require_chart(self, offset: int) -> BundleSpec:
        if self.bundle is None:
            raise ParseError("the chart (bundle or sigma) must be declared first", offset)
        return self.bundle

    def check_fresh(self, name: str, offset: int):
        taken = (name in self.definitions or name in self.automorphisms
                 or name in self.groups)
        if self.bundle is not None:
            taken = taken or name in (self.bundle.base_dims + self.bundle.fibers
                                      + self.bundle.params)
        if taken:
            raise ParseError(f"the name {name!r} is already in use", offset)

    def statement(self, text: str, offset: int):
        head = text.split(None, 1)[0].split("{", 1)[0].split("=", 1)[0]
        handler = getattr(self, "stmt_" + head, None)
        if handler is None:
            raise ParseError(f"unknown statement {head!r}", offset)
        handler(text, offset)

    def stmt_bundle(self, text: str, offset: int):
        if self.bundle is not None:
            raise ParseError("the chart is already declared", offset)
        m = re.match(r"bundle\s*\{(.*)\}\Z", text, re.DOTALL)
        if m is None:
            raise ParseError("expected bundle { ... }", offset)
        inner_off = offset + m.start(1)
        fields = {"base": None, "fibers": None, "params": None}
        for piece, off in _split_top(m.group(1), inner_off, ";\n"):
            piece, off = _strip(piece, off)
            if not piece:
                continue
            key, eq, value = piece.partition("=")
            key = key.strip()
            if not eq or key not in fields:
                raise ParseError("expected base/fibers/params = [...]", off)
            if fields[key] is not None:
                raise ParseError(f"duplicate {key!r}", off)
            fields[key] = _parse_name_list(value, off + piece.index("=") + 1)
        if fields["base"] is None or fields["fibers"] is None:
            raise ParseError("bundle needs both base and fibers", offset)
        try:
            self.bundle = BundleSpec(tuple(fields["base"]), tuple(fields["fibers"]),
                                     tuple(fields["params"] or ()))
        except ValueError as exc:
            raise ParseError(str(exc), offset) from None

    def stmt_omega(self, text: str, offset: int):
        if self.omega is not None:
            raise ParseError("omega is already declared", offset)
        if self.sigma is not None:
            raise ParseError("a sigma model declares its own omega", offset)
        ctx = self.require_chart(offset)
        _, eq, value = text.partition("=")
        if not eq:
            raise ParseError("expected omega = [[...], ...]", offset)
        matrix = _parse_matrix(value, offset + text.index("=") + 1, ctx)
        try:
            omega = OmegaSpec(ctx, matrix)
        except ValueError as exc:
            raise ParseError(str(exc), offset) from None
        validate_omega(omega)
        self.omega = omega

    def stmt_let(self, text: str, offset: int):
        m = re.match(r"let\s+([A-Za-z][A-Za-z0-9]*)\s*=\s*(.*)\Z", text, re.DOTALL)
        if m is None:
            raise ParseError("expected let NAME = expression", offset)
        ctx = self.require_chart(offset)
        name = m.group(1)
        self.check_fresh(name, offset)
        self.definitions[name] = _parse_expr_at(m.group(2), offset + m.start(2), ctx)

    def stmt_auto(self, text: str, offset: int):
        m = re.match(r"auto\s+([A-Za-z][A-Za-z0-9]*)\s*\{(.*)\}\Z", text, re.DOTALL)
        if m is None:
            raise ParseError("expected auto NAME { ... }", offset)
        ctx = self.require_chart(offset)
        name = m.group(1)
        self.check_fresh(name, offset)
        inner, inner_off = m.group(2), offset + m.start(2)
        split_at = self._find_inv(inner)
        if split_at is None:
            raise ParseError("an automorphism needs an inv { ... } block", inner_off)
        forward_text = inner[:split_at]
        inv_text, inv_off = _strip(inner[split_at + 3:], inner_off + split_at + 3)
        inv_m = re.match(r"\{(.*)\}\Z", inv_text, re.DOTALL)
        if inv_m is None:
            raise ParseError("expected inv { ... }", inv_off)
        psi = self._parse_mappings(forward_text, inner_off, ctx)
        psi_inv = self._parse_mappings(inv_m.group(1), inv_off + inv_m.start(1), ctx)
        try:
            self.automorphisms[name] = Automorphism(ctx, psi, psi_inv)
        except ValueError as exc:
            raise ParseError(f"invalid automorphism {name!r}: {exc}", offset) from None

    @staticmethod
    def _find_inv(text: str) -> int | None:
        depth = 0
        for k, ch in enumerate(text):
            if ch in _OPEN:
                depth += 1
            elif ch in _CLOSE:
                depth -= 1
            elif depth == 0 and text[k:k + 3] == "inv":
                before = text[k - 1] if k else " "
                after = text[k + 3] if k + 3 < len(text) else " "
                if not before.isalnum() and not after.isalnum():
                    return k
        return None

    def _parse_mappings(self, text: str, offset: int, ctx: BundleSpec) -> tuple[Poly, ...]:
        images: dict[int, Poly] = {}
        for piece, off in _split_top(text, offset, ","):
            piece, off = _strip(piece, off)
            if not piece:
                continue
            target, arrow, value = piece.partition("->")
            if not arrow:
                raise ParseError("expected fiber -> expression", off)
            fiber = target.strip()
            if fiber not in ctx.fibers:
                raise UnknownName(fiber, off)
            a = ctx.fiber_index(fiber)
            if a in images:
                raise ParseError(f"duplicate mapping for {fiber!r}", off)
            images[a] = _parse_expr_at(value, off + piece.index("->") + 2, ctx)
        missing = [ctx.fibers[a] for a in range(ctx.m) if a not in images]
        if missing:
            raise ParseError(f"missing mappings for {', '.join(missing)}", offset)
        return tuple(images[a] for a in range(ctx.m))

    def stmt_group(self, text: str, offset: int):
        m = re.match(r"group\s+([A-Za-z][A-Za-z0-9]*)\s*=\s*(\[.*\])\Z", text, re.DOTALL)
        if m is None:
            raise ParseError("expected group NAME = [autoA, ...]", offset)
        self.require_chart(offset)
        name = m.group(1)
        self.check_fresh(name, offset)
        members = []
        for member in _parse_name_list(m.group(2), offset + m.start(2)):
            if member not in self.automorphisms:
                raise UnknownName(member, offset)
            members.append(self.automorphisms[member])
        try:
            self.groups[name] = FiniteGroupAction(tuple(members))
        except ValueError as exc:
            raise ParseError(f"invalid group {name!r}: {exc}", offset) from None

    def stmt_sigma(self, text: str, offset: int):
        if self.bundle is not None:
            raise ParseError("a sigma model declares its own chart; "
                             "drop the separate bundle statement", offset)
        m = re.match(r"sigma\s*\{(.*)\}\Z", text, re.DOTALL)
        if m is None:
            raise ParseError("expected sigma { ... }", offset)
        inner_off = offset + m.start(1)
        n_text = w_text = None
        n_off = w_off = 0
        for piece, off in _split_top(m.group(1), inner_off, ";\n"):
            piece, off = _strip(piece, off)
            if not piece:
                continue
            key, eq, value = piece.partition("=")
            key = key.strip()
            if not eq or key not in ("n", "w"):
                raise ParseError("expected n = ... or w = [[...], ...]", off)
            if key == "n":
                if n_text is not None:
                    raise ParseError("duplicate n", off)
                n_text, n_off = value.strip(), off
            else:
                if w_text is not None:
                    raise ParseError("duplicate w", off)
                w_text, w_off = value, off + piece.index("=") + 1
        if n_text is None or w_text is None:
            raise ParseError("sigma needs both n and w", offset)
        if not n_text.isdigit() or int(n_text) < 1:
            raise ParseError("n must be a positive integer", n_off)
        n_fields = int(n_text)
        chart = sigma_bundle(n_fields)
        matrix = _parse_matrix(w_text, w_off, chart)
        try:
            spec = SigmaModelSpec(n_fields, matrix, chart)
        except ValueError as exc:
            raise ParseError(str(exc), offset) from None
        self.sigma = spec
        self.bundle, self.omega = build_sigma(spec)


def parse_model(text: str) -> ModelFile:
    """Parse model text into its declared objects (see the module docstring)."""
    return _ModelParser(text).parse()


def load_model(path: str) -> ModelFile:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_model(handle.read())
