"""Command line behaviour: outputs, JSON shape, exit codes."""

import json
import subprocess
import sys
import textwrap

import pytest

import jetcalc.cli
import jetcalc.symmetry
from jetcalc import Generator, HorizontalForm, JetcalcError, Poly
from jetcalc.cli import run

STD_MODEL = textwrap.dedent("""\
    bundle { base = [x]; fibers = [u1, u2] }
    omega = [[0, 1], [-1, 0]]
    let P1 = u1*u2_x
    let P2 = u1*u2
    let P3 = u1^2
    let H1 = 1/2*u1^2 + 1/2*u2^2
    let H2 = 1/2*u1_x^2 + 1/2*u2_x^2
    auto Id { u1 -> u1, u2 -> u2 inv { u1 -> u1, u2 -> u2 } }
    auto Rot90 { u1 -> u2, u2 -> -u1 inv { u1 -> -u2, u2 -> u1 } }
    auto Rot180 { u1 -> -u1, u2 -> -u2 inv { u1 -> -u1, u2 -> -u2 } }
    auto Rot270 { u1 -> -u2, u2 -> u1 inv { u1 -> u2, u2 -> -u1 } }
    auto Scale2 { u1 -> 2*u1, u2 -> u2 inv { u1 -> 1/2*u1, u2 -> u2 } }
    group C4 = [Id, Rot90, Rot180, Rot270]
""")

PLANE_MODEL = textwrap.dedent("""\
    bundle { base = [x, y]; fibers = [u1, u2] }
""")

BAD_JACOBI_MODEL = textwrap.dedent("""\
    bundle { base = [x]; fibers = [u1, u2, u3] }
    omega = [[0, u1, 0], [-u1, 0, u2], [0, -u2, 0]]
""")

SIGMA_MODEL = textwrap.dedent("""\
    sigma { n = 3; w = [[0, u3, -u2], [-u3, 0, u1], [u2, -u1, 0]] }
""")

SIGMA_RESIDUALS = (
    ("(u1,w10,w20)", "-u2"), ("(u1,w10,w30)", "-u3"), ("(u1,w11,w21)", "-u2"),
    ("(u1,w11,w31)", "-u3"), ("(u2,w10,w20)", "u1"), ("(u2,w20,w30)", "-u3"),
    ("(u2,w11,w21)", "u1"), ("(u2,w21,w31)", "-u3"), ("(u3,w10,w30)", "u1"),
    ("(u3,w20,w30)", "u2"), ("(u3,w11,w31)", "u1"), ("(u3,w21,w31)", "u2"),
)

ROT3 = "[[3/5, 4/5, 0], [-4/5, 3/5, 0], [0, 0, 1]]"
REFLECT3 = "[[1, 0, 0], [0, -1, 0], [0, 0, 1]]"


# Exact output of every command on the fixtures above: argv (model files by
# fixture name), exit code, text stdout, and the results and residuals of the
# --json payload.
GOLDENS = [
    (("euler", "std", "P1"), 0, "E[u1] = u2_x\nE[u2] = -u1_x\n",
     [("E[u1]", "u2_x"), ("E[u2]", "-u1_x")], []),
    (("dh", "plane", "u1*u2"), 0, "dx = u1*u2_x + u1_x*u2\ndy = u1*u2_y + u1_y*u2\n",
     [("dx", "u1*u2_x + u1_x*u2"), ("dy", "u1*u2_y + u1_y*u2")], []),
    (("td", "std", "x", "u1*u2"), 0, "u1*u2_x + u1_x*u2\n", [("", "u1*u2_x + u1_x*u2")], []),
    (("l2", "std", "H1", "H2"), 0, "-u1*u2_xx + u1_xx*u2\n", [("", "-u1*u2_xx + u1_xx*u2")], []),
    (("l3", "std", "P1", "P2", "P3"), 0, "-2*u1^2\n", [("", "-2*u1^2")], []),
    (("jacobiator", "std", "P1", "P2", "P3"), 0, "4*u1*u1_x\n", [("", "4*u1*u1_x")], []),
    (("invert-dx", "std", "4*u1*u1_x"), 0, "2*u1^2\n", [("", "2*u1^2")], []),
    (("invert-dx", "std", "u2"), 1, "", [],
     [("error", "terminal remainder still depends on fiber coordinates")]),
    (("average", "std", "C4", "u1^2"), 0, "1/2*u1^2 + 1/2*u2^2\n",
     [("", "1/2*u1^2 + 1/2*u2^2")], []),
    (("check", "poisson", "std"), 0, "pass\n", [], []),
    (("check", "poisson", "badjac"), 1, "fail\n(u1,u2,u3): u1\n", [], [("(u1,u2,u3)", "u1")]),
    (("check", "covariance", "std", "Rot90"), 0, "pass\n", [], []),
    (("check", "covariance", "std", "Scale2"), 1, "fail\nomega[u1,u2]: -1\nomega[u2,u1]: 1\n",
     [], [("omega[u1,u2]", "-1"), ("omega[u2,u1]", "1")]),
    (("check", "canonical", "std", "Rot90", "P1", "P2"), 0, "pass\n", [], []),
    (("check", "canonical", "std", "Scale2", "u1^2", "u2^2"), 1,
     "fail\nE[u1]: 8*u2\nE[u2]: 8*u1\n", [], [("E[u1]", "8*u2"), ("E[u2]", "8*u1")]),
    (("check", "invariance", "std", "C4", "H1"), 0, "pass\n", [], []),
    (("check", "invariance", "std", "C4", "u1^2"), 1,
     "fail\nelement[1]: -u1^2 + u2^2\nelement[3]: -u1^2 + u2^2\n",
     [], [("element[1]", "-u1^2 + u2^2"), ("element[3]", "-u1^2 + u2^2")]),
    (("check", "closure", "std", "C4", "H1", "H2"), 0, "pass\n", [], []),
    (("check", "shlie", "std", "P1", "P2", "P3"), 0, "pass\n", [], []),
    (("check", "el-transform", "std", "Rot90", "P3"), 0, "pass\n", [], []),
    (("check", "commute", "std", "Rot270", "P1"), 0, "pass\n", [], []),
    (("check", "sigma-euler", "sigma"), 0,
     "pass\nw_block = exact\nu_block_vs_half_curvature = exact\n"
     "u_block_vs_displayed_curvature = factor 2 off\n",
     [("w_block", "exact"), ("u_block_vs_half_curvature", "exact"),
      ("u_block_vs_displayed_curvature", "factor 2 off")], []),
    (("check", "sigma-invariance", "sigma", ROT3), 0, "pass\n", [], []),
    (("check", "sigma-invariance", "sigma", REFLECT3), 1, "fail\n", [], []),
]

MAIN_HELP = """\
usage: jetcalc [-h] [--json] command ...

Exact variational calculus on jet bundles: Euler-Lagrange operators, bracket
densities, homotopy corrections and symmetry checks over model files.

positional arguments:
  command
    euler     Euler components of a density
    dh        horizontal differential of a function
    td        total derivative along a direction
    l2        bracket density of two densities
    l3        homotopy correction of three densities
    jacobiator
              nested-bracket density
    invert-dx
              preimage under the total derivative
    average   group average of a density
    check     verify a structural property

options:
  -h, --help  show this help message and exit
  --json      emit the JSON report shape
"""

CHECK_HELP = """\
usage: jetcalc check [-h] kind ...

positional arguments:
  kind
    poisson         pointwise Jacobi condition on omega
    covariance      omega transforms as a bivector
    canonical       bracket density natural up to divergence
    invariance      density fixed by a group
    closure         bracket of invariant densities is invariant
    shlie           low-degree structure relations
    el-transform    Euler components transform with the fiber Jacobian
    commute         pullback commutes with the horizontal differential
    sigma-euler     sigma field equations in closed form
    sigma-invariance
                    Lagrangian fixed by an orthogonal matrix action

options:
  -h, --help        show this help message and exit
"""

CANONICAL_HELP = """\
usage: jetcalc check canonical [-h] model auto p q

positional arguments:
  model
  auto
  p
  q

options:
  -h, --help  show this help message and exit
"""


@pytest.fixture(scope="module")
def models(tmp_path_factory):
    root = tmp_path_factory.mktemp("models")
    paths = {}
    for name, text in (("std", STD_MODEL), ("plane", PLANE_MODEL),
                       ("badjac", BAD_JACOBI_MODEL), ("sigma", SIGMA_MODEL)):
        path = root / f"{name}.jet"
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)
    return paths


@pytest.fixture
def invoke(capsys):
    def call(*argv):
        code = run(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return call


class TestExpressionCommands:
    def test_euler(self, invoke, models):
        code, out, _ = invoke("euler", models["std"], "P1")
        assert code == 0
        assert out == "E[u1] = u2_x\nE[u2] = -u1_x\n"

    def test_euler_inline_expression(self, invoke, models):
        code, out, _ = invoke("euler", models["std"], "1/2*u1_x^2")
        assert code == 0
        assert out == "E[u1] = -u1_xx\nE[u2] = 0\n"

    def test_dh(self, invoke, models):
        code, out, _ = invoke("dh", models["plane"], "u1*u2")
        assert code == 0
        assert out == ("dx = u1*u2_x + u1_x*u2\n"
                       "dy = u1*u2_y + u1_y*u2\n")

    def test_td(self, invoke, models):
        code, out, _ = invoke("td", models["std"], "x", "u1*u2")
        assert code == 0
        assert out == "u1*u2_x + u1_x*u2\n"

    def test_l2_golden(self, invoke, models):
        code, out, _ = invoke("l2", models["std"], "H1", "H2")
        assert code == 0
        assert out == "-u1*u2_xx + u1_xx*u2\n"

    def test_jacobiator_golden(self, invoke, models):
        code, out, _ = invoke("jacobiator", models["std"], "P1", "P2", "P3")
        assert code == 0
        assert out == "4*u1*u1_x\n"

    def test_l3_golden(self, invoke, models):
        code, out, _ = invoke("l3", models["std"], "P1", "P2", "P3")
        assert code == 0
        assert out == "-2*u1^2\n"

    def test_invert_dx(self, invoke, models):
        code, out, _ = invoke("invert-dx", models["std"], "4*u1*u1_x")
        assert code == 0
        assert out == "2*u1^2\n"

    def test_invert_dx_not_exact(self, invoke, models):
        code, out, err = invoke("invert-dx", models["std"], "u2")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")

    def test_average_golden(self, invoke, models):
        code, out, _ = invoke("average", models["std"], "C4", "u1^2")
        assert code == 0
        assert out == "1/2*u1^2 + 1/2*u2^2\n"

    def test_deterministic_output(self, invoke, models):
        first = invoke("euler", models["std"], "P1")
        second = invoke("euler", models["std"], "P1")
        assert first == second


class TestChecks:
    def test_poisson_pass(self, invoke, models):
        code, out, _ = invoke("check", "poisson", models["std"])
        assert (code, out) == (0, "pass\n")

    def test_poisson_fail_residuals(self, invoke, models):
        code, out, _ = invoke("check", "poisson", models["badjac"])
        assert code == 1
        assert out == "fail\n(u1,u2,u3): u1\n"

    def test_poisson_sigma_residuals(self, invoke, models):
        code, out, _ = invoke("check", "poisson", models["sigma"])
        assert code == 1
        assert out == "fail\n" + "".join(f"{loc}: {expr}\n" for loc, expr in SIGMA_RESIDUALS)
        code, out, _ = invoke("--json", "check", "poisson", models["sigma"])
        assert code == 1
        assert out == json.dumps({
            "command": "check poisson",
            "pass": False,
            "results": [],
            "residuals": [{"location": loc, "expression": expr}
                          for loc, expr in SIGMA_RESIDUALS],
        }) + "\n"
        # the thread-pool option is gone; argparse reads it as a usage error
        assert invoke("--jobs", "4", "check", "poisson", models["sigma"])[0] == 2

    def test_covariance(self, invoke, models):
        assert invoke("check", "covariance", models["std"], "Rot90")[:2] == (0, "pass\n")
        code, out, _ = invoke("check", "covariance", models["std"], "Scale2")
        assert code == 1
        assert out == "fail\nomega[u1,u2]: -1\nomega[u2,u1]: 1\n"

    def test_canonical(self, invoke, models):
        code, out, _ = invoke("check", "canonical", models["std"], "Rot90", "P1", "P2")
        assert (code, out) == (0, "pass\n")
        code, out, _ = invoke("check", "canonical", models["std"], "Scale2", "u1^2", "u2^2")
        assert code == 1
        assert out == "fail\nE[u1]: 8*u2\nE[u2]: 8*u1\n"

    def test_invariance(self, invoke, models):
        assert invoke("check", "invariance", models["std"], "C4", "H1")[:2] == (0, "pass\n")
        code, out, _ = invoke("check", "invariance", models["std"], "C4", "u1^2")
        assert code == 1
        assert out.startswith("fail\n")
        assert "element[" in out

    def test_closure(self, invoke, models):
        code, out, _ = invoke("check", "closure", models["std"], "C4", "H1", "H2")
        assert (code, out) == (0, "pass\n")

    def test_closure_precondition(self, invoke, models):
        code, _, err = invoke("check", "closure", models["std"], "C4", "P3", "H1")
        assert code == 2
        assert "invariant" in err

    def test_shlie(self, invoke, models):
        code, out, _ = invoke("check", "shlie", models["std"], "P1", "P2", "P3")
        assert (code, out) == (0, "pass\n")

    def test_el_transform(self, invoke, models):
        code, out, _ = invoke("check", "el-transform", models["std"], "Rot90", "P3")
        assert (code, out) == (0, "pass\n")

    def test_commute(self, invoke, models):
        code, out, _ = invoke("check", "commute", models["std"], "Rot270", "P1")
        assert (code, out) == (0, "pass\n")

    # These checks pass on every valid automorphism (they are theorems), so
    # each failure is provoked by breaking one operator the check relies on.
    @pytest.mark.parametrize("argv, name, broken, residuals", [
        (("el-transform", "Rot90", "P3"), "euler",
         lambda euler: lambda p: euler(p)[::-1], [("E[u1]", "4*u2")]),
        (("commute", "Rot270", "P1"), "d_h",
         lambda d_h: lambda form: d_h(form) + HorizontalForm(
             form.ctx, form.degree + 1, {(0,): Poly.generator(form.ctx, Generator.jet(0))}),
         [("dx", "-u1 - u2")]),
        (("closure", "C4", "H1", "H2"), "l2_density",
         lambda l2: lambda p, q, omega: l2(p, q, omega) + Poly.generator(p.ctx, Generator.jet(0)) ** 2,
         [("element[1]", "-u1^2 + u2^2"), ("element[3]", "-u1^2 + u2^2")]),
    ])
    def test_failure_residuals(self, invoke, models, monkeypatch, argv, name, broken, residuals):
        monkeypatch.setattr(jetcalc.symmetry, name, broken(getattr(jetcalc.symmetry, name)))
        kind, auto, *densities = argv
        argv = ("check", kind, models["std"], auto, *densities)
        text = "fail\n" + "".join(f"{loc}: {e}\n" for loc, e in residuals)
        assert invoke(*argv) == (1, text, "")
        code, out, _ = invoke("--json", *argv)
        assert code == 1
        assert json.loads(out) == {
            "command": f"check {kind}", "pass": False, "results": [],
            "residuals": [{"location": loc, "expression": e} for loc, e in residuals]}

    def test_sigma_euler(self, invoke, models):
        code, out, _ = invoke("check", "sigma-euler", models["sigma"])
        assert code == 0
        assert out == ("pass\n"
                       "w_block = exact\n"
                       "u_block_vs_half_curvature = exact\n"
                       "u_block_vs_displayed_curvature = factor 2 off\n")

    def test_sigma_euler_requires_sigma(self, invoke, models):
        code, _, err = invoke("check", "sigma-euler", models["std"])
        assert code == 2
        assert "sigma" in err

    def test_sigma_invariance(self, invoke, models):
        assert invoke("check", "sigma-invariance", models["sigma"], ROT3)[0] == 0
        assert invoke("check", "sigma-invariance", models["sigma"], REFLECT3)[0] == 1

    def test_sigma_invariance_validation(self, invoke, models):
        code, _, err = invoke("check", "sigma-invariance", models["sigma"],
                              "[[2, 0, 0], [0, 1, 0], [0, 0, 1]]")
        assert code == 2
        assert "M M^T" in err
        assert invoke("check", "sigma-invariance", models["sigma"], "nonsense")[0] == 2

    @pytest.mark.parametrize("matrix, message", [
        ("nonsense", "expected a bracketed matrix like [[3/5, 4/5], [-4/5, 3/5]]"
                     " (at position 0)"),
        ("[[1, 0, 0], 0, [0, 0, 1]]", "expected a bracketed row, got '0' (at position 12)"),
        ("[[1, 0, 0], [0, a, 0], [0, 0, 1]]",
         "expected a rational number, got 'a' (at position 16)"),
        ("[[1, 0, 0], [0, 1, 0], [0, 0, 1/0]]",
         "expected a rational number, got '1/0' (at position 30)"),
        ("[[1, 0, 0], [0, 1, x], [0, 0, 1]]",
         "expected a rational number, got 'x' (at position 19)"),
        ("[[1, 0, 0], [0, 1, 0]], [0, 0, 1]]", "unbalanced bracket (at position 21)"),
        ("[[\u0661, 0, 0], [0, 1, 0], [0, 0, 1]]",
         "expected a rational number, got '\u0661' (at position 2)"),
    ])
    def test_sigma_invariance_matrix_syntax(self, invoke, models, matrix, message):
        assert invoke("check", "sigma-invariance", models["sigma"], matrix) == (
            2, "", f"error: {message}\n")

    def test_sigma_invariance_matrix_tolerates_blanks(self, invoke, models):
        identity = " [[1, 0, 0], [ 0, 1, 0 ], [0, 0, 1],] "
        assert invoke("check", "sigma-invariance", models["sigma"], identity) == (0, "pass\n", "")


class TestJson:
    def test_shape_and_key_order(self, invoke, models):
        code, out, _ = invoke("--json", "euler", models["std"], "P1")
        assert code == 0
        payload = json.loads(out)
        assert list(payload.keys()) == ["command", "pass", "results", "residuals"]
        assert payload["command"] == "euler"
        assert payload["pass"] is True
        assert payload["results"][0] == {"name": "E[u1]", "expression": "u2_x"}
        assert payload["residuals"] == []

    def test_check_failure_payload(self, invoke, models):
        code, out, _ = invoke("--json", "check", "poisson", models["badjac"])
        assert code == 1
        payload = json.loads(out)
        assert payload["command"] == "check poisson"
        assert payload["pass"] is False
        assert payload["residuals"] == [{"location": "(u1,u2,u3)", "expression": "u1"}]

    def test_not_exact_payload(self, invoke, models):
        code, out, _ = invoke("--json", "invert-dx", models["std"], "u2")
        assert code == 1
        payload = json.loads(out)
        assert payload["pass"] is False
        assert payload["residuals"][0]["location"] == "error"

    def test_validation_error_payload(self, invoke, models):
        code, out, _ = invoke("--json", "euler", models["std"], "u9")
        assert code == 2
        payload = json.loads(out)
        assert payload["pass"] is False
        assert "u9" in payload["residuals"][0]["expression"]

    def test_any_library_error_exits_two(self, invoke, models, monkeypatch):
        class Refused(JetcalcError):
            pass

        def refuse(*args):
            raise Refused("refused by the library")

        monkeypatch.setattr(jetcalc.cli, "euler", refuse)
        assert invoke("euler", models["std"], "P1") == (2, "", "error: refused by the library\n")
        code, out, err = invoke("--json", "euler", models["std"], "P1")
        assert (code, err) == (2, "")
        assert json.loads(out) == {
            "command": "euler", "pass": False, "results": [],
            "residuals": [{"location": "error", "expression": "refused by the library"}]}



def _golden_id(case):
    return "-".join(case[0][:2]) + ("-fail" if case[1] else "")


class TestGoldens:
    @pytest.mark.parametrize("argv, code, text, results, residuals", GOLDENS,
                             ids=[_golden_id(case) for case in GOLDENS])
    def test_text_and_json(self, invoke, models, argv, code, text, results, residuals):
        argv = [models.get(arg, arg) for arg in argv]
        assert invoke(*argv)[:2] == (code, text)
        command = argv[0] if argv[0] != "check" else f"check {argv[1]}"
        payload = {
            "command": command,
            "pass": code == 0,
            "results": [{"name": n, "expression": e} for n, e in results],
            "residuals": [{"location": loc, "expression": e} for loc, e in residuals],
        }
        assert invoke("--json", *argv)[:2] == (code, json.dumps(payload) + "\n")

    @pytest.mark.parametrize("argv, text", [(["--help"], MAIN_HELP),
                                            (["check", "--help"], CHECK_HELP),
                                            (["check", "canonical", "--help"],
                                             CANONICAL_HELP)])
    def test_help(self, invoke, monkeypatch, argv, text):
        monkeypatch.setenv("COLUMNS", "80")
        assert invoke(*argv)[:2] == (0, text)

class TestExitCodes:
    def test_missing_model_file(self, invoke, tmp_path):
        code, _, err = invoke("euler", str(tmp_path / "absent.jet"), "u1")
        assert code == 2
        assert err.startswith("error: ")

    def test_unknown_name_in_expression(self, invoke, models):
        assert invoke("euler", models["std"], "u9")[0] == 2

    def test_unknown_automorphism(self, invoke, models):
        assert invoke("check", "covariance", models["std"], "Zzz")[0] == 2

    def test_model_without_omega(self, invoke, models):
        assert invoke("l2", models["plane"], "u1", "u2")[0] == 2

    @pytest.mark.parametrize("argv, message", [
        # the model's omega or sigma is looked up before any argument
        (("l2", "plane", "u9", "u1"), "the model declares no structure matrix (omega)"),
        (("check", "sigma-invariance", "std", "nonsense"), "the model declares no sigma block"),
        # then the arguments, in order
        (("check", "closure", "std", "Zzz", "u9", "u1"), "unknown name 'Zzz'"),
    ])
    def test_lookup_order(self, invoke, models, argv, message):
        argv = [models.get(arg, arg) for arg in argv]
        assert invoke(*argv) == (2, "", f"error: {message}\n")

    def test_argparse_errors(self, invoke, capsys):
        assert run([]) == 2
        capsys.readouterr()
        assert run(["frobnicate"]) == 2
        capsys.readouterr()
        assert run(["check"]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, invoke):
        assert invoke("--help")[0] == 0

    def test_usage_error_leaves_later_runs_intact(self, invoke, models):
        calls = [("--json", "check", "canonical", models["std"], "Scale2", "u1^2", "u2^2"),
                 ("euler", models["std"], "P1")]
        assert invoke("check", "canonical", models["std"], "Scale2")[0] == 2
        assert invoke("--json", "frobnicate")[0] == 2
        for argv in calls:
            fresh = subprocess.run([sys.executable, "-m", "jetcalc.cli", *argv],
                                   capture_output=True, text=True)
            assert invoke(*argv) == (fresh.returncode, fresh.stdout, fresh.stderr)

    def test_long_unary_minus_run(self, invoke, tmp_path):
        path = tmp_path / "minus.jet"
        path.write_text(PLANE_MODEL + "let P = " + "-" * 3000 + "u1*u2\n", encoding="utf-8")
        code, out, _ = invoke("euler", str(path), "P")
        assert (code, out) == (0, "E[u1] = u2\nE[u2] = u1\n")

    def test_deep_parentheses_rejected(self, invoke, models):
        code, out, err = invoke("euler", models["std"], "(" * 1200 + "u1" + ")" * 1200)
        assert (code, out) == (2, "")
        assert err.startswith("error: parentheses nested deeper than")


class TestEntryPoint:
    def test_installed_script(self, models):
        proc = subprocess.run(
            [sys.executable, "-m", "jetcalc.cli", "euler", models["std"], "P1"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == "E[u1] = u2_x\nE[u2] = -u1_x\n"

    def test_huge_exponent(self, models):
        proc = subprocess.run(
            [sys.executable, "-m", "jetcalc.cli", "euler", models["std"], "u1^3000000*u2_x"],
            capture_output=True, text=True, timeout=10)
        assert proc.returncode == 0
        assert proc.stdout == ("E[u1] = 3000000*u1^2999999*u2_x\n"
                               "E[u2] = -3000000*u1^2999999*u1_x\n")

    def test_reader_closing_pipe_early(self, tmp_path):
        # E[u2] is one line of about 200 kB, far more than a pipe buffers, so
        # the writer is still writing when the reader goes away
        terms = " + ".join(f"{10**2000}*u2^{k}" for k in range(1, 100))
        path = tmp_path / "long.jet"
        path.write_text(PLANE_MODEL + f"let L = {terms}\n", encoding="utf-8")
        proc = subprocess.Popen(
            [sys.executable, "-m", "jetcalc.cli", "euler", str(path), "L"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline() == b"E[u1] = 0\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 0
        assert err == b""
