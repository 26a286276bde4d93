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

from .dsl import render_expr
from .kernel import CheckReport, JetcalcError
from .modelfile import load_model
from .poisson import check_poisson_tensor, jacobiator, l2_density
from .shlie import check_shlie_relations, l3
from .sigma import check_lagrangian_invariance, sigma_euler_check
from .symmetry import (check_canonical_density, check_covariance, check_el_transform,
                       check_invariance, check_invariant_closure, check_pullback_dh_commute,
                       group_average)
from .varcalc import (HorizontalForm, NotExact, d_h, euler, invert_total_derivative,
                      total_derivative)


def _resolve(model, field: str, args):
    """The value of one field of a command row: see `_COMMANDS`."""
    if field in ("omega", "sigma"):
        return getattr(model, f"require_{field}")()
    text = getattr(args, field)
    if field == "auto":
        return model.get_automorphism(text)
    if field == "group":
        return model.get_group(text)
    if field == "direction":
        return model.bundle.direction_index(text)
    if field == "matrix":
        return model.resolve_matrix(text)
    return model.resolve_density(text)


def _dh(f):
    form = d_h(HorizontalForm.scalar(f))
    return [(f"d{dim}", form.coefficient((i,))) for i, dim in enumerate(f.ctx.base_dims)]


# Every command is one row: its fields, its help, its output style and the
# function called with the fields' values in order; "check NAME" is the
# subcommand NAME of `check`.  Each field after the model file is one argument,
# resolved by its name: `auto` names an automorphism, `group` a group,
# `direction` a base direction and `matrix` is a matrix of constants read as a
# model-file matrix; any other field (`p`, `q`, `r`, `expr`, `density`) is a
# density, a `let` name or an inline expression.  The fields `omega` and
# `sigma` are not arguments: they take the model's structure matrix or sigma
# block, and stand first, so a model without one is reported before any
# argument is looked up.  Fields are resolved in order, which decides the
# error reported first.
# Style "check" functions return a CheckReport, printed as a pass/fail verdict
# first; the others return (name, Poly) rows, printed as `name = expression`
# lines ("named") or as expressions alone ("bare").  Residual lines always
# follow as `location: expression`.
_COMMANDS = {
    "euler": (("density",), "Euler components of a density", "named",
              lambda p: [(f"E[{fiber}]", c) for fiber, c in zip(p.ctx.fibers, euler(p))]),
    "dh": (("expr",), "horizontal differential of a function", "named", _dh),
    "td": (("direction", "expr"), "total derivative along a direction", "bare",
           lambda i, f: [("", total_derivative(f, i))]),
    "l2": (("omega", "p", "q"), "bracket density of two densities", "bare",
           lambda omega, p, q: [("", l2_density(p, q, omega))]),
    "l3": (("omega", "p", "q", "r"), "homotopy correction of three densities", "bare",
           lambda omega, p, q, r: [("", l3(p, q, r, omega).form.scalar_coefficient())]),
    "jacobiator": (("omega", "p", "q", "r"), "nested-bracket density", "bare",
                   lambda omega, p, q, r: [("", jacobiator(p, q, r, omega))]),
    "invert-dx": (("expr",), "preimage under the total derivative", "bare",
                  lambda f: [("", invert_total_derivative(f))]),
    "average": (("group", "expr"), "group average of a density", "bare",
                lambda group, f: [("", group_average(HorizontalForm.density(f), group)
                                   .density_coefficient())]),
    "check poisson": (("omega",), "pointwise Jacobi condition on omega", "check",
                      check_poisson_tensor),
    "check covariance": (("omega", "auto"), "omega transforms as a bivector", "check",
                         check_covariance),
    "check canonical": (("omega", "auto", "p", "q"),
                        "bracket density natural up to divergence", "check",
                        check_canonical_density),
    "check invariance": (("group", "expr"), "density fixed by a group", "check",
                         lambda group, f: check_invariance(HorizontalForm.density(f), group)),
    "check closure": (("omega", "group", "p", "q"),
                      "bracket of invariant densities is invariant", "check",
                      lambda omega, group, p, q: check_invariant_closure(
                          HorizontalForm.density(p), HorizontalForm.density(q), group, omega)),
    "check shlie": (("omega", "p", "q", "r"), "low-degree structure relations", "check",
                    lambda omega, p, q, r: check_shlie_relations(
                        omega, triples=[(p, q, r)], pairs=[(p, q), (p, r), (q, r)])),
    "check el-transform": (("auto", "p"), "Euler components transform with the fiber Jacobian",
                           "check", check_el_transform),
    "check commute": (("auto", "expr"), "pullback commutes with the horizontal differential",
                      "check", lambda auto, f: check_pullback_dh_commute(
                          HorizontalForm.scalar(f), auto)),
    "check sigma-euler": (("sigma",), "sigma field equations in closed form", "check",
                          sigma_euler_check),
    "check sigma-invariance": (("sigma", "matrix"),
                               "Lagrangian fixed by an orthogonal matrix action", "check",
                               check_lagrangian_invariance),
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
            if field not in ("omega", "sigma"):
                command.add_argument(field)
    return parser


def _positional(argv: list[str]) -> list[str]:
    """argv with "--" after the command words (`euler`, `check poisson`), so
    that argparse reads every later argument as a positional one: a density
    such as -u1*u2_x would otherwise read as an unknown option.  A --json
    anywhere moves to the front, where the parser knows it, and a -h or
    --help after the command words moves ahead of the "--"; both keep their
    meaning.  An argv that already holds "--" is left as it is."""
    if "--" in argv:
        return argv
    front = [arg for arg in argv if arg == "--json"]
    argv = [arg for arg in argv if arg != "--json"]
    words = [k for k, arg in enumerate(argv) if not arg.startswith("-")]
    if not words:
        return front + argv
    groups = {name.partition(" ")[0] for name in _COMMANDS if " " in name}
    end = (words[1] if argv[words[0]] in groups and len(words) > 1 else words[0]) + 1
    rest = argv[end:]
    return (front + argv[:end] + [arg for arg in rest if arg in ("-h", "--help")] + ["--"]
            + [arg for arg in rest if arg not in ("-h", "--help")])


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


_VALIDATION_ERRORS = (JetcalcError, ValueError, OSError)


def run(argv: list[str]) -> int:
    """Parse arguments, execute one subcommand, print its report."""
    try:
        args = _parser().parse_args(_positional(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    command = args.command if args.command != "check" else f"check {args.kind}"
    fields, _, style, function = _COMMANDS[command]
    # Call a library function through the name imported here, as a call by
    # name would, so that rebinding that name (tracing, patching) reaches it.
    function = globals().get(function.__name__, function)
    try:
        model = load_model(args.model)
        report = function(*(_resolve(model, field, args) for field in fields))
        if style != "check":
            report = CheckReport(True, results=tuple((name, render_expr(p)) for name, p in report))
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
