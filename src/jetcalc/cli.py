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
import functools
import json
import os
import sys
from fractions import Fraction

from .dsl import ParseError, render_expr
from .kernel import CheckReport, UnknownName
from .modelfile import _split_top, _strip, load_model
from .poisson import EntryNotOrderZero, NonSkew, check_poisson_tensor, jacobiator, l2_density
from .shlie import check_shlie_relations, l3
from .sigma import NotOrthogonal, check_lagrangian_invariance, sigma_euler_check
from .symmetry import (PreconditionFailed, check_canonical_density,
                       check_covariance, check_el_transform, check_invariance,
                       check_invariant_closure, check_pullback_dh_commute,
                       group_average)
from .varcalc import (DegreeError, HorizontalForm, NotExact, Unsupported, d_h,
                      euler, invert_total_derivative, total_derivative)


def _rational_matrix(text: str) -> list[list[Fraction]]:
    text, offset = _strip(text, 0)
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError("expected a bracketed matrix like [[3/5, 4/5], [-4/5, 3/5]]", offset)
    rows = []
    for row_text, row_offset in _split_top(text[1:-1], offset + 1, ","):
        if not row_text:
            continue
        if not (row_text.startswith("[") and row_text.endswith("]")):
            raise ParseError(f"expected a bracketed row, got {row_text!r}", row_offset)
        row = []
        for cell, cell_offset in _split_top(row_text[1:-1], row_offset + 1, ","):
            if not cell:
                continue
            try:
                row.append(Fraction(cell))
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"expected a rational number, got {cell!r}", cell_offset) from None
        rows.append(row)
    return rows


def _values(*rows) -> CheckReport:
    """The report of an expression command: its (name, Poly) rows, rendered."""
    return CheckReport(True, results=tuple((name, render_expr(p)) for name, p in rows))


def _euler(model, args) -> CheckReport:
    components = euler(model.resolve_density(args.density))
    return _values(*((f"E[{fiber}]", c) for fiber, c in zip(model.bundle.fibers, components)))


def _dh(model, args) -> CheckReport:
    ctx = model.bundle
    form = d_h(HorizontalForm.scalar(model.resolve_density(args.expr)))
    return _values(*((f"d{ctx.base_dims[i]}", form.coefficient((i,))) for i in range(ctx.n)))


def _td(model, args) -> CheckReport:
    direction = model.bundle.direction_index(args.direction)
    return _values(("", total_derivative(model.resolve_density(args.expr), direction)))


def _l2(model, args) -> CheckReport:
    omega, resolve = model.require_omega(), model.resolve_density
    return _values(("", l2_density(resolve(args.p), resolve(args.q), omega)))


def _l3(model, args) -> CheckReport:
    omega, resolve = model.require_omega(), model.resolve_density
    element = l3(resolve(args.p), resolve(args.q), resolve(args.r), omega)
    return _values(("", element.form.scalar_coefficient()))


def _jacobiator(model, args) -> CheckReport:
    omega, resolve = model.require_omega(), model.resolve_density
    return _values(("", jacobiator(resolve(args.p), resolve(args.q), resolve(args.r), omega)))


def _average(model, args) -> CheckReport:
    group = model.get_group(args.group)
    averaged = group_average(HorizontalForm.density(model.resolve_density(args.expr)), group)
    return _values(("", averaged.density_coefficient()))


def _canonical(model, args) -> CheckReport:
    omega, auto = model.require_omega(), model.get_automorphism(args.auto)
    p, q = model.resolve_density(args.p), model.resolve_density(args.q)
    return check_canonical_density(omega, auto, p, q)


def _invariance(model, args) -> CheckReport:
    group = model.get_group(args.group)
    return check_invariance(HorizontalForm.density(model.resolve_density(args.expr)), group)


def _closure(model, args) -> CheckReport:
    omega, group = model.require_omega(), model.get_group(args.group)
    alpha = HorizontalForm.density(model.resolve_density(args.p))
    beta = HorizontalForm.density(model.resolve_density(args.q))
    return check_invariant_closure(alpha, beta, group, omega)


def _shlie(model, args) -> CheckReport:
    omega, resolve = model.require_omega(), model.resolve_density
    p, q, r = resolve(args.p), resolve(args.q), resolve(args.r)
    return check_shlie_relations(omega, triples=[(p, q, r)], pairs=[(p, q), (p, r), (q, r)])


def _commute(model, args) -> CheckReport:
    auto = model.get_automorphism(args.auto)
    form = HorizontalForm.scalar(model.resolve_density(args.expr))
    return check_pullback_dh_commute(form, auto)


# Every command: its arguments after the model file, its help, its output
# style and its handler, which takes the loaded model and the parsed
# arguments; "check NAME" is the subcommand NAME of `check`.  Style "bare"
# prints result expressions alone, "named" prints them as `name = expression`
# lines, and "check" prints a pass/fail verdict first.  Residual lines always
# follow as `location: expression`.  Handlers look up omega or sigma first and
# then their arguments in order, which decides the error reported first.
_COMMANDS = {
    "euler": (("density",), "Euler components of a density", "named", _euler),
    "dh": (("expr",), "horizontal differential of a function", "named", _dh),
    "td": (("direction", "expr"), "total derivative along a direction", "bare", _td),
    "l2": (("p", "q"), "bracket density of two densities", "bare", _l2),
    "l3": (("p", "q", "r"), "homotopy correction of three densities", "bare", _l3),
    "jacobiator": (("p", "q", "r"), "nested-bracket density", "bare", _jacobiator),
    "invert-dx": (("expr",), "preimage under the total derivative", "bare",
                  lambda model, args: _values(
                      ("", invert_total_derivative(model.resolve_density(args.expr))))),
    "average": (("group", "expr"), "group average of a density", "bare", _average),
    "check poisson": ((), "pointwise Jacobi condition on omega", "check",
                      lambda model, args: check_poisson_tensor(model.require_omega())),
    "check covariance": (("auto",), "omega transforms as a bivector", "check",
                         lambda model, args: check_covariance(
                             model.require_omega(), model.get_automorphism(args.auto))),
    "check canonical": (("auto", "p", "q"), "bracket density natural up to divergence",
                        "check", _canonical),
    "check invariance": (("group", "expr"), "density fixed by a group", "check", _invariance),
    "check closure": (("group", "p", "q"), "bracket of invariant densities is invariant",
                      "check", _closure),
    "check shlie": (("p", "q", "r"), "low-degree structure relations", "check", _shlie),
    "check el-transform": (("auto", "p"), "Euler components transform with the fiber Jacobian",
                           "check", lambda model, args: check_el_transform(
                               model.get_automorphism(args.auto),
                               model.resolve_density(args.p))),
    "check commute": (("auto", "expr"), "pullback commutes with the horizontal differential",
                      "check", _commute),
    "check sigma-euler": ((), "sigma field equations in closed form", "check",
                          lambda model, args: sigma_euler_check(model.require_sigma())),
    "check sigma-invariance": (("matrix",), "Lagrangian fixed by an orthogonal matrix action",
                               "check", lambda model, args: check_lagrangian_invariance(
                                   model.require_sigma(), _rational_matrix(args.matrix))),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser for every command in the table, built on first use."""
    parser = argparse.ArgumentParser(
        prog="jetcalc",
        description="Exact variational calculus on jet bundles: Euler-Lagrange "
                    "operators, bracket densities, homotopy corrections and "
                    "symmetry checks over model files.")
    parser.add_argument("--json", action="store_true", help="emit the JSON report shape")
    groups = {"": parser.add_subparsers(dest="command", required=True, metavar="command")}
    for name, (fields, summary, _, _) in _COMMANDS.items():
        group, _, leaf = name.rpartition(" ")
        if group not in groups:
            check = groups[""].add_parser(group, help="verify a structural property")
            groups[group] = check.add_subparsers(dest="kind", required=True, metavar="kind")
        command = groups[group].add_parser(leaf, help=summary)
        for field in ("model", *fields):
            command.add_argument(field)
    return parser


def _render(command: str, style: str, passed: bool, results, residuals,
            as_json: bool) -> str:
    """Text in the command's style, or the fixed JSON shape.  Result
    expressions are text; residual expressions are printed by str()."""
    if as_json:
        return json.dumps({
            "command": command,
            "pass": passed,
            "results": [{"name": n, "expression": e} for n, e in results],
            "residuals": [{"location": loc, "expression": str(e)} for loc, e in residuals],
        }) + "\n"
    lines = ["pass" if passed else "fail"] if style == "check" else []
    lines += [e if style == "bare" else f"{n} = {e}" for n, e in results]
    lines += [f"{loc}: {e}" for loc, e in residuals]
    return "".join(line + "\n" for line in lines)


_VALIDATION_ERRORS = (ParseError, UnknownName, NonSkew, EntryNotOrderZero,
                      NotOrthogonal, DegreeError, Unsupported, PreconditionFailed,
                      ValueError, OSError)


def run(argv: list[str]) -> int:
    """Parse arguments, execute one subcommand, print its report."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    command = args.command if args.command != "check" else f"check {args.kind}"
    _, _, style, handler = _COMMANDS[command]
    try:
        report = handler(load_model(args.model), args)
    except NotExact as exc:
        return _emit_error(command, str(exc), args.json, 1)
    except _VALIDATION_ERRORS as exc:
        return _emit_error(command, str(exc), args.json, 2)
    _write_stdout(_render(command, style, report.passed, report.results, report.residuals,
                          args.json))
    return 0 if report.passed else 1


def _emit_error(command: str, message: str, as_json: bool, code: int) -> int:
    if as_json:
        _write_stdout(_render(command, "check", False, (), [("error", message)], True))
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
