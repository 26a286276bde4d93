"""Command line front end.

Every subcommand reads a model file and prints deterministic text, or a JSON
object with the fixed shape

    {"command": ..., "pass": ..., "results": [{"name", "expression"}, ...],
     "residuals": [{"location", "expression"}, ...]}

when --json is given.  Exit status: 0 on success or a passing check, 1 when a
check fails (or an inversion has no preimage), 2 on parse or validation
errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .dsl import ParseError, render_expr
from .kernel import UnknownName
from .modelfile import load_model
from .poisson import EntryNotOrderZero, NonSkew, check_poisson_tensor, jacobiator, l2_density
from .shlie import check_shlie_relations, l3
from .sigma import NotOrthogonal, check_lagrangian_invariance, sigma_euler_check
from .symmetry import (PreconditionFailed, check_canonical_density,
                       check_covariance, check_el_transform,
                       check_invariant_closure, check_pullback_dh_commute,
                       group_average, pullback_form)
from .varcalc import (DegreeError, HorizontalForm, NotExact, Unsupported, d_h,
                      euler, invert_total_derivative, total_derivative)


class _Outcome:
    """What one subcommand produced, before rendering as text or JSON.

    Style "bare" prints result expressions alone, "named" prints them as
    `name = expression` lines, and "check" prints a pass/fail verdict first.
    Residual lines always follow as `location: expression`.
    """

    def __init__(self, command: str, style: str = "check"):
        self.command = command
        self.style = style
        self.passed = True
        self.results: list[tuple[str, str]] = []
        self.residuals: list[tuple[str, str]] = []

    def result(self, name: str, expression: str):
        self.results.append((name, expression))

    def residual(self, location: str, expression: str):
        self.residuals.append((location, expression))

    def fail(self):
        self.passed = False

    @property
    def exit_code(self) -> int:
        return 0 if self.passed else 1

    def render(self, as_json: bool) -> str:
        if as_json:
            payload = {
                "command": self.command,
                "pass": self.passed,
                "results": [{"name": n, "expression": e} for n, e in self.results],
                "residuals": [{"location": l, "expression": e} for l, e in self.residuals],
            }
            return json.dumps(payload) + "\n"
        lines = []
        if self.style == "check":
            lines.append("pass" if self.passed else "fail")
        for name, expression in self.results:
            lines.append(expression if self.style == "bare" else f"{name} = {expression}")
        for location, expression in self.residuals:
            lines.append(f"{location}: {expression}")
        return "".join(line + "\n" for line in lines)


def _expression_outcome(command: str, expressions: list[tuple[str, str]],
                        named: bool = False) -> _Outcome:
    out = _Outcome(command, style="named" if named else "bare")
    for name, text in expressions:
        out.result(name, text)
    return out


def _check_outcome(command: str, passed: bool) -> _Outcome:
    out = _Outcome(command, style="check")
    if not passed:
        out.fail()
    return out


def _rational_matrix(text: str) -> list[list[Fraction]]:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError("expected a bracketed matrix like [[3/5, 4/5], [-4/5, 3/5]]", 0)
    rows = []
    for row_text in _split_bracket_list(text[1:-1]):
        row_text = row_text.strip()
        if not (row_text.startswith("[") and row_text.endswith("]")):
            raise ParseError(f"expected a bracketed row, got {row_text!r}", 0)
        row = []
        for cell in _split_bracket_list(row_text[1:-1]):
            try:
                row.append(Fraction(cell.strip()))
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"expected a rational number, got {cell.strip()!r}", 0) from None
        rows.append(row)
    return rows


def _split_bracket_list(text: str) -> list[str]:
    pieces = []
    depth = 0
    start = 0
    for k, ch in enumerate(text):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        elif ch == "," and depth == 0:
            pieces.append(text[start:k])
            start = k + 1
    pieces.append(text[start:])
    return [p for p in pieces if p.strip()]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jetcalc",
        description="Exact variational calculus on jet bundles: Euler-Lagrange "
                    "operators, bracket densities, homotopy corrections and "
                    "symmetry checks over model files.")
    parser.add_argument("--json", action="store_true", help="emit the JSON report shape")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name, *fields, help=None):
        p = sub.add_parser(name, help=help)
        for f in fields:
            p.add_argument(f)
        return p

    add("euler", "model", "density", help="Euler components of a density")
    add("dh", "model", "expr", help="horizontal differential of a function")
    add("td", "model", "direction", "expr", help="total derivative along a direction")
    add("l2", "model", "p", "q", help="bracket density of two densities")
    add("l3", "model", "p", "q", "r", help="homotopy correction of three densities")
    add("jacobiator", "model", "p", "q", "r", help="nested-bracket density")
    add("invert-dx", "model", "expr", help="preimage under the total derivative")
    add("average", "model", "group", "expr", help="group average of a density")

    check = sub.add_parser("check", help="verify a structural property")
    kinds = check.add_subparsers(dest="kind", required=True, metavar="kind")

    def add_check(name, *fields, help=None):
        p = kinds.add_parser(name, help=help)
        for f in fields:
            p.add_argument(f)
        return p

    add_check("poisson", "model", help="pointwise Jacobi condition on omega")
    add_check("covariance", "model", "auto", help="omega transforms as a bivector")
    add_check("canonical", "model", "auto", "p", "q",
              help="bracket density natural up to divergence")
    add_check("invariance", "model", "group", "expr", help="density fixed by a group")
    add_check("closure", "model", "group", "p", "q",
              help="bracket of invariant densities is invariant")
    add_check("shlie", "model", "p", "q", "r", help="low-degree structure relations")
    add_check("el-transform", "model", "auto", "p",
              help="Euler components transform with the fiber Jacobian")
    add_check("commute", "model", "auto", "expr",
              help="pullback commutes with the horizontal differential")
    add_check("sigma-euler", "model", help="sigma field equations in closed form")
    add_check("sigma-invariance", "model", "matrix",
              help="Lagrangian fixed by an orthogonal matrix action")
    return parser


def _run_command(args) -> _Outcome:
    model = load_model(args.model)
    ctx = model.bundle
    command = args.command if args.command != "check" else f"check {args.kind}"

    if args.command == "euler":
        density = model.resolve_density(args.density)
        components = euler(density)
        return _expression_outcome(command, [
            (f"E[{ctx.fibers[a]}]", render_expr(components[a])) for a in range(ctx.m)
        ], named=True)

    if args.command == "dh":
        scalar = model.resolve_density(args.expr)
        form = d_h(HorizontalForm.scalar(scalar))
        rows = [(f"d{ctx.base_dims[i]}", render_expr(form.coefficient((i,))))
                for i in range(ctx.n)]
        return _expression_outcome(command, rows, named=True)

    if args.command == "td":
        direction = ctx.direction_index(args.direction)
        result = total_derivative(model.resolve_density(args.expr), direction)
        return _expression_outcome(command, [("", render_expr(result))])

    if args.command == "l2":
        omega = model.require_omega()
        density = l2_density(model.resolve_density(args.p),
                             model.resolve_density(args.q), omega)
        return _expression_outcome(command, [("", render_expr(density))])

    if args.command == "l3":
        omega = model.require_omega()
        element = l3(model.resolve_density(args.p), model.resolve_density(args.q),
                     model.resolve_density(args.r), omega)
        return _expression_outcome(command, [
            ("", render_expr(element.form.scalar_coefficient()))])

    if args.command == "jacobiator":
        omega = model.require_omega()
        density = jacobiator(model.resolve_density(args.p), model.resolve_density(args.q),
                             model.resolve_density(args.r), omega)
        return _expression_outcome(command, [("", render_expr(density))])

    if args.command == "invert-dx":
        preimage = invert_total_derivative(model.resolve_density(args.expr))
        return _expression_outcome(command, [("", render_expr(preimage))])

    if args.command == "average":
        group = model.get_group(args.group)
        averaged = group_average(
            HorizontalForm.density(model.resolve_density(args.expr)), group)
        return _expression_outcome(command, [
            ("", render_expr(averaged.density_coefficient()))])

    if args.kind == "poisson":
        omega = model.require_omega()
        report = check_poisson_tensor(omega)
        out = _check_outcome(command, report.passed)
        for a, b, c, residual in report.failures:
            out.residual(f"({a},{b},{c})", render_expr(residual))
        return out

    if args.kind == "covariance":
        omega = model.require_omega()
        report = check_covariance(omega, model.get_automorphism(args.auto))
        out = _check_outcome(command, report.passed)
        for a, b, residual in report.failures:
            out.residual(f"omega[{a},{b}]", render_expr(residual))
        return out

    if args.kind == "canonical":
        omega = model.require_omega()
        auto = model.get_automorphism(args.auto)
        p = model.resolve_density(args.p)
        q = model.resolve_density(args.q)
        passed = check_canonical_density(omega, auto, p, q)
        out = _check_outcome(command, passed)
        if not passed:
            from .symmetry import pullback

            defect = l2_density(pullback(p, auto), pullback(q, auto), omega) \
                - pullback(l2_density(p, q, omega), auto)
            for a, component in enumerate(euler(defect)):
                if not component.is_zero:
                    out.residual(f"E[{ctx.fibers[a]}]", render_expr(component))
        return out

    if args.kind == "invariance":
        group = model.get_group(args.group)
        form = HorizontalForm.density(model.resolve_density(args.expr))
        out = _check_outcome(command, True)
        for k, g in enumerate(group.elements):
            moved = pullback_form(form, g)
            if moved != form:
                out.fail()
                defect = moved.density_coefficient() - form.density_coefficient()
                out.residual(f"element[{k}]", render_expr(defect))
        return out

    if args.kind == "closure":
        omega = model.require_omega()
        group = model.get_group(args.group)
        alpha = HorizontalForm.density(model.resolve_density(args.p))
        beta = HorizontalForm.density(model.resolve_density(args.q))
        return _check_outcome(command, check_invariant_closure(alpha, beta, group, omega))

    if args.kind == "shlie":
        omega = model.require_omega()
        p = model.resolve_density(args.p)
        q = model.resolve_density(args.q)
        r = model.resolve_density(args.r)
        report = check_shlie_relations(omega, triples=[(p, q, r)],
                                       pairs=[(p, q), (p, r), (q, r)])
        out = _check_outcome(command, report.passed)
        for location, expression in report.violations:
            out.residual(location, expression)
        return out

    if args.kind == "el-transform":
        auto = model.get_automorphism(args.auto)
        return _check_outcome(command,
                              check_el_transform(auto, model.resolve_density(args.p)))

    if args.kind == "commute":
        auto = model.get_automorphism(args.auto)
        form = HorizontalForm.scalar(model.resolve_density(args.expr))
        return _check_outcome(command, check_pullback_dh_commute(form, auto))

    if args.kind == "sigma-euler":
        report = sigma_euler_check(model.require_sigma())
        out = _check_outcome(command, report.passed)
        out.result("w_block", "exact" if report.w_block_exact else "mismatch")
        out.result("u_block_vs_half_curvature",
                   "exact" if report.u_block_matches_half_curvature else "mismatch")
        out.result("u_block_vs_displayed_curvature",
                   "match" if report.u_block_matches_displayed_curvature else "factor 2 off")
        for name, residual in report.w_residuals + report.u_residuals:
            out.residual(f"E[{name}]", render_expr(residual))
        return out

    if args.kind == "sigma-invariance":
        spec = model.require_sigma()
        matrix = _rational_matrix(args.matrix)
        return _check_outcome(command, check_lagrangian_invariance(spec, matrix))

    raise ValueError(f"unhandled command {command!r}")


_VALIDATION_ERRORS = (ParseError, UnknownName, NonSkew, EntryNotOrderZero,
                      NotOrthogonal, DegreeError, Unsupported, PreconditionFailed,
                      ValueError, OSError)


def run(argv: list[str]) -> int:
    """Parse arguments, execute one subcommand, print its report."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    command = args.command if args.command != "check" else f"check {getattr(args, 'kind', '')}"
    try:
        outcome = _run_command(args)
    except NotExact as exc:
        return _emit_error(command, str(exc), args.json, 1)
    except _VALIDATION_ERRORS as exc:
        return _emit_error(command, str(exc), args.json, 2)
    _write_stdout(outcome.render(args.json))
    return outcome.exit_code


def _emit_error(command: str, message: str, as_json: bool, code: int) -> int:
    if as_json:
        out = _check_outcome(command, False)
        out.residual("error", message)
        _write_stdout(out.render(as_json))
    else:
        print(f"error: {message}", file=sys.stderr)
    return code


def _write_stdout(text: str = "") -> None:
    """Write and flush stdout; if the reader closed the pipe early, point stdout
    at os.devnull so the exit flush stays quiet and the exit status stands."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def main() -> None:
    code = run(sys.argv[1:])
    _write_stdout()  # argparse's --help text is still buffered
    sys.exit(code)


if __name__ == "__main__":
    main()
