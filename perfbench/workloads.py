"""The three seeded workloads of the jetcalc benchmark.

Every workload is a closed loop with one client.  The harness (`run.py`)
asks a workload for the input of task i (`make_input`, untimed), runs the
task through jetcalc's public API (`run`, timed) and checks what came back
(`check`, untimed).  The input of task i depends only on the workload seed and
i, so two programs given the same seed see the same inputs no matter how fast
they are.

Tasks come in rounds of `round_size` with a fixed mix of shapes; the seed
chooses fibers, coefficients and names, never the mix.  The harness stops only
at a round boundary, so every run measures the same mix.

* `jacobi`: the paper's central computation.  A seeded triple of 1-D
  densities under a constant, an affine (1 + u1^2) or an so(3) structure
  matrix; the task computes the Jacobiator, tests it is a divergence, builds
  the corrector l3 and tests jacobiator + d_h(l3) == 0.  Kernel products,
  sums and partials and varcalc do the work; no substitution, parsing or CLI.
* `models`: one seeded CLI command per task, run in-process through
  `jetcalc.cli.run(argv)` on model files generated at set-up, so the model is
  parsed and validated on every task as a CLI user pays it.  `--jobs` is never
  passed.  The tail is `check poisson` on block-diagonal sigma models.
* `symmetry`: seeded Pythagorean rotations composed with shears of several
  sizes on 1-D and 2-D bases, a finite group generated by a conjugated
  quarter turn, group averaging and the symmetry checks.  The kernel works
  through substitution, powers and composition instead of products and
  partials.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import jetcalc as jc
import jetcalc.cli
from jetcalc import (Automorphism, BundleSpec, FiniteGroupAction, Generator,
                     HorizontalForm, Monomial, MultiIndex, OmegaSpec, Poly)

DEFAULT_SEED = 1

# Rational points on the unit circle: exactly invertible rotations.
PYTHAGOREAN = ((Fraction(3, 5), Fraction(4, 5)), (Fraction(5, 13), Fraction(12, 13)),
               (Fraction(8, 17), Fraction(15, 17)), (Fraction(7, 25), Fraction(24, 25)))
COEFFS = (-3, -2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-3, 2))


@dataclass
class Outcome:
    """What a task produced, as the checks saw it."""

    text: str                       # rendered output; goldens and the digest use it
    code: int                       # exit code (library workloads: 0 when every identity held)
    problems: list[str] = field(default_factory=list)
    polys: list[Poly] = field(default_factory=list)   # outputs, for the size counts


def task_rng(workload: str, seed: int, i: int) -> random.Random:
    return random.Random(f"jetcalc-bench:{workload}:{seed}:{i}")


def render(p: Poly) -> str:
    return jc.render_expr(p)


# ---------------------------------------------------------------------------
# Density shapes.  A shape is a list of terms; a term lists its factors: an
# int k is a jet coordinate of order k on a seeded fiber and direction word,
# "x" a seeded base coordinate.  Only coefficients and fiber choices vary.

def density(rng: random.Random, ctx: BundleSpec, shape, fibers=None) -> Poly:
    fibers = range(ctx.m) if fibers is None else fibers
    terms = []
    for factors in shape:
        powers = []
        for f in factors:
            if f == "x":
                powers.append((Generator.base(rng.randrange(ctx.n)), 1))
            else:
                index = MultiIndex(rng.randrange(ctx.n) for _ in range(f))
                powers.append((Generator.jet(rng.choice(fibers), index), 1))
        terms.append((Monomial(powers), rng.choice(COEFFS)))
    return Poly.from_terms(ctx, terms)


def density_text(rng: random.Random, fibers, shape) -> str:
    """The same shapes as DSL text over base [x], for model files."""
    pieces = []
    for factors in shape:
        names = ["x" if f == "x" else rng.choice(fibers) + ("_" + "x" * f if f else "")
                 for f in factors]
        c = rng.choice(COEFFS)
        sign = "-" if c < 0 else "+"
        pieces.append(f"{sign} {abs(c)}*{'*'.join(names)}")
    return " ".join(pieces).lstrip("+ ")


def _coords(ctx: BundleSpec) -> list[Poly]:
    return [Poly.generator(ctx, Generator.jet(a)) for a in range(ctx.m)]


def rotation_maps(ctx: BundleSpec, cos, sin) -> tuple[tuple[Poly, ...], tuple[Poly, ...]]:
    """psi and psi_inv of a rotation in the (u1, u2) plane."""
    u = _coords(ctx)
    psi, inv = list(u), list(u)
    psi[0], psi[1] = u[0] * cos + u[1] * sin, u[0] * (-sin) + u[1] * cos
    inv[0], inv[1] = u[0] * cos - u[1] * sin, u[0] * sin + u[1] * cos
    return tuple(psi), tuple(inv)


def shear_maps(ctx: BundleSpec, target: int, offset: Poly):
    u = _coords(ctx)
    psi, inv = list(u), list(u)
    psi[target] = u[target] + offset
    inv[target] = u[target] - offset
    return tuple(psi), tuple(inv)


def constant_omega(ctx: BundleSpec) -> OmegaSpec:
    zero, one = Poly.zero(ctx), Poly.const(ctx, 1)
    return OmegaSpec(ctx, ((zero, one), (-one, zero)))


# ---------------------------------------------------------------------------

class Jacobi:
    name = "jacobi"
    round_size = 3
    min_tasks = 300
    trace_tasks = 90
    golden_tasks = 3000

    # (structure matrix, shapes of p, q, r), one task each per round.
    SHAPES = (
        ("constant", ([(0, 1, 1), (0, 2), ("x", 0, 0)], [(0, 0, 1), (1, 1), (0,)],
                      [(0, 2), (0, 0, 0)])),
        ("affine", ([(0, 1), (0, 0), (1,)], [(0, 0, 1), (1,)], [(1, 1), (0, 0)])),
        ("so3", ([(0, 1), (0, 0), (0,)], [(0, 0, 1), (1,)], [(0, 1), (0, 0)])),
    )

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        plane = BundleSpec(("x",), ("u1", "u2"))
        space = BundleSpec(("x",), ("u1", "u2", "u3"))
        zero = Poly.zero(plane)
        u1 = Poly.generator(plane, Generator.jet(0))
        bump = Poly.const(plane, 1) + u1 * u1
        v = _coords(space)
        z3 = Poly.zero(space)
        self.omegas = {
            "constant": constant_omega(plane),
            "affine": OmegaSpec(plane, ((zero, bump), (-bump, zero))),
            "so3": OmegaSpec(space, ((z3, v[2], -v[1]), (-v[2], z3, v[0]),
                                     (v[1], -v[0], z3))),
        }

    def make_input(self, i: int):
        rng = task_rng(self.name, self.seed, i)
        key, shapes = self.SHAPES[i % self.round_size]
        omega = self.omegas[key]
        return tuple(density(rng, omega.ctx, s) for s in shapes) + (omega,)

    @staticmethod
    def run(inp):
        p, q, r, omega = inp
        jac = jc.jacobiator(p, q, r, omega)
        divergence = jc.is_divergence(jac)
        corrector = jc.l3(p, q, r, omega)
        residual = jac + jc.d_h(corrector.form).density_coefficient()
        return jac, corrector.form.scalar_coefficient(), divergence, residual.is_zero

    def check(self, inp, result) -> Outcome:
        jac, corrector, divergence, closed = result
        out = Outcome(f"jacobiator = {render(jac)}\nl3 = {render(corrector)}", 0,
                      polys=[jac, corrector])
        if not divergence:
            out.problems.append("the Jacobiator is not a divergence")
        if not closed:
            out.problems.append("jacobiator + d_h(l3) != 0")
        out.code = 1 if out.problems else 0
        return out


# ---------------------------------------------------------------------------

SIGMA_BLOCKS = {10: (3, 3, 2, 2), 7: (3, 2, 2), 5: (3, 2), 4: (2, 2)}


def sigma_text(rng: random.Random, n: int) -> str:
    """A sigma model whose W is a direct sum of so(3) and constant 2x2 blocks."""
    w = [["0"] * n for _ in range(n)]

    def put(a, b, text):
        w[a][b] = text
        w[b][a] = text[1:] if text.startswith("-") else "-" + text

    at = 0
    for size in SIGMA_BLOCKS[n]:
        scale = rng.choice((1, 2, 3))
        if size == 3:
            u = [f"u{at + k + 1}" for k in range(3)]
            put(at, at + 1, f"{scale}*{u[2]}")
            put(at + 1, at + 2, f"{scale}*{u[0]}")
            put(at + 2, at, f"{scale}*{u[1]}")
        else:
            put(at, at + 1, str(scale))
        at += size
    rows = ", ".join("[" + ", ".join(row) + "]" for row in w)
    return f"sigma {{ n = {n}; w = [{rows}] }}\n"


def plane_matrix(n: int, cells) -> str:
    """The n x n identity with cells of the last (constant 2x2) block replaced."""
    at = n - 2                     # every sigma size ends with a constant 2x2 block
    m = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
    for (i, j), value in cells.items():
        m[at + i][at + j] = str(value)
    return "[" + ", ".join("[" + ", ".join(row) + "]" for row in m) + "]"


@dataclass
class Command:
    argv: list[str]
    expected: int
    kind: str                        # which identity the check applies
    model: str
    args: tuple = ()


class Models:
    """Sixteen CLI commands per round on seeded model files.

    Slots 11 to 13 run `check poisson` on sigma models with 10, 7 and 5
    fields, where almost every multiplication has a zero operand.  They are
    the three heaviest commands of a round, so task_p90_ms falls among the
    7-field checks.
    """

    name = "models"
    round_size = 16
    min_tasks = 112                # seven rounds, so task_p90_ms has ten samples beyond it
    trace_tasks = 32
    golden_tasks = 400

    AUTOS = """\
auto Id { u1 -> u1, u2 -> u2 inv { u1 -> u1, u2 -> u2 } }
auto Rot90 { u1 -> u2, u2 -> -u1 inv { u1 -> -u2, u2 -> u1 } }
auto Rot180 { u1 -> -u1, u2 -> -u2 inv { u1 -> -u1, u2 -> -u2 } }
auto Rot270 { u1 -> -u2, u2 -> u1 inv { u1 -> u2, u2 -> -u1 } }
group C4 = [Id, Rot90, Rot180, Rot270]
"""
    LETS = 6
    SHAPE = [(0, 1), (0, 0), ("x", 1)]
    SHAPE_AFFINE = [(0, 1), (0, 0, 1), (0, 0)]
    SHAPE_SO3 = [(0, 1), (0, 0), (0,)]

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        workdir.mkdir(parents=True, exist_ok=True)
        rng = random.Random(f"jetcalc-bench:models:{seed}:files")
        texts = {}
        two = ["u1", "u2"]
        c, s = rng.choice(PYTHAGOREAN)
        shear = rng.choice((1, 2, 3))
        lets = "".join(f"let P{j} = {density_text(rng, two, self.SHAPE)}\n"
                       for j in range(self.LETS))
        invariants = "".join(
            f"let I{j} = {rng.choice(COEFFS)}*(u1^2 + u2^2) + {rng.choice(COEFFS)}"
            f"*(u1*u2_x - u1_x*u2) + {rng.choice(COEFFS)}*(u1_x^2 + u2_x^2)^2\n"
            for j in range(2))
        texts["std"] = (
            "bundle { base = [x]; fibers = [u1, u2] }\nomega = [[0, 1], [-1, 0]]\n"
            + lets + invariants + self.AUTOS
            + f"auto R {{ u1 -> {c}*u1 + {s}*u2, u2 -> -{s}*u1 + {c}*u2 "
              f"inv {{ u1 -> {c}*u1 - {s}*u2, u2 -> {s}*u1 + {c}*u2 }} }}\n"
            + f"auto S {{ u1 -> u1 + {shear}*u2^2, u2 -> u2 "
              f"inv {{ u1 -> u1 - {shear}*u2^2, u2 -> u2 }} }}\n")
        texts["affine"] = (
            "bundle { base = [x]; fibers = [u1, u2] }\n"
            "omega = [[0, 1 + u1^2], [-1 - u1^2, 0]]\n"
            + "".join(f"let P{j} = {density_text(rng, two, self.SHAPE_AFFINE)}\n"
                      for j in range(self.LETS))
            + self.AUTOS)
        three = ["u1", "u2", "u3"]
        scale = rng.choice((1, 2))
        texts["so3"] = (
            "bundle { base = [x]; fibers = [u1, u2, u3] }\n"
            f"omega = [[0, {scale}*u3, -{scale}*u2], [-{scale}*u3, 0, {scale}*u1], "
            f"[{scale}*u2, -{scale}*u1, 0]]\n"
            + "".join(f"let P{j} = {density_text(rng, three, self.SHAPE_SO3)}\n"
                      for j in range(self.LETS))
            + "auto Id { u1 -> u1, u2 -> u2, u3 -> u3 inv { u1 -> u1, u2 -> u2, u3 -> u3 } }\n"
            "auto Cyc { u1 -> u2, u2 -> u3, u3 -> u1 inv { u1 -> u3, u2 -> u1, u3 -> u2 } }\n"
            "auto Cyc2 { u1 -> u3, u2 -> u1, u3 -> u2 inv { u1 -> u2, u2 -> u3, u3 -> u1 } }\n"
            "group C3 = [Id, Cyc, Cyc2]\n")
        for n in SIGMA_BLOCKS:
            texts[f"sigma{n}"] = sigma_text(rng, n)
        self.paths = {}
        for name, text in texts.items():
            path = workdir / f"{name}.jet"
            path.write_text(text, encoding="utf-8")
            self.paths[name] = str(path)
        self._models = {}

    def _model(self, name: str):
        if name not in self._models:
            self._models[name] = jc.load_model(self.paths[name])
        return self._models[name]

    def make_input(self, i: int) -> Command:
        rng = task_rng(self.name, self.seed, i)
        slot, rnd = i % self.round_size, i // self.round_size
        lets = [f"P{k}" for k in rng.sample(range(self.LETS), 3)]
        path = self.paths
        if slot == 0:
            cmd = Command(["euler", path["std"], lets[0]], 0, "euler", "std")
        elif slot == 1:
            cmd = Command(["l2", path["std"], lets[0], lets[1]], 0, "l2", "std", tuple(lets[:2]))
        elif slot == 2:
            cmd = Command(["l3", path["affine"], *lets], 0, "l3", "affine", tuple(lets))
        elif slot == 3:
            cmd = Command(["jacobiator", path["affine"], *lets], 0, "jacobiator", "affine")
        elif slot == 4:
            std = self._model("std")
            g = density(rng, std.bundle, [(0, 1), (0, 0, 1), ("x", 0)])
            g = g - Poly.const(std.bundle, g.constant_term())
            exact = jc.total_derivative(g, 0)
            cmd = Command(["invert-dx", path["std"], render(exact)], 0, "invert-dx", "std",
                          (render(g),))
        elif slot == 5:
            cmd = Command(["average", path["std"], "C4", lets[0]], 0, "average", "std", ("C4",))
        elif slot == 6:
            auto = ("R", "S")[rnd % 2]
            cmd = Command(["check", "canonical", path["std"], auto, lets[0], lets[1]], 0,
                          "check", "std")
        elif slot == 7:
            cmd = Command(["check", "closure", path["std"], "C4", "I0", "I1"], 0, "check", "std")
        elif slot == 8:
            cmd = Command(["check", "shlie", path["so3"], *lets], 0, "check", "so3")
        elif slot == 9:
            model, auto, code = (("so3", "Cyc", 0), ("affine", "Rot90", 1))[rnd % 2]
            cmd = Command(["check", "covariance", path[model], auto], code, "check", model)
        elif slot == 10:
            model = ("so3", "affine")[rnd % 2]
            cmd = Command(["check", "poisson", path[model]], 0, "check", model)
        elif slot in (11, 12, 13):
            model = f"sigma{(10, 7, 5)[slot - 11]}"
            cmd = Command(["check", "poisson", path[model]], 1, "check", model)
        elif slot == 14:
            model = f"sigma{(4, 5, 7, 10)[rnd % 4]}"
            cmd = Command(["check", "sigma-euler", path[model]], 0, "check", model)
        else:
            n = (4, 5, 7, 10)[rnd % 4]
            c, s = rng.choice(PYTHAGOREAN)
            if rnd % 2:
                matrix, code = plane_matrix(n, {(0, 0): -1}), 1
            else:
                matrix, code = plane_matrix(n, {(0, 0): c, (0, 1): s, (1, 0): -s,
                                                (1, 1): c}), 0
            cmd = Command(["check", "sigma-invariance", path[f"sigma{n}"], matrix], code,
                          "check", f"sigma{n}")
        if rnd % 2:
            cmd.argv.insert(0, "--json")
        return cmd

    @staticmethod
    def run(cmd: Command):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = jc.cli.run(cmd.argv)
        return code, out.getvalue(), err.getvalue()

    def check(self, cmd: Command, result) -> Outcome:
        code, stdout, stderr = result
        out = Outcome(stdout, code)
        if code != cmd.expected:
            out.problems.append(f"exit code {code}, expected {cmd.expected}: {stderr.strip()}")
            return out
        model = self._model(cmd.model)
        ctx = model.bundle
        check_style = cmd.kind == "check"
        if cmd.argv[0] == "--json":
            payload = json.loads(stdout)
            if list(payload) != ["command", "pass", "results", "residuals"]:
                out.problems.append(f"JSON keys {list(payload)}")
                return out
            passed = payload["pass"]
            results = [r["expression"] for r in payload["results"]]
            residuals = [r["expression"] for r in payload["residuals"]]
        else:
            lines = stdout.splitlines()
            passed = True
            if check_style:
                passed = lines[0] == "pass"
                if lines[0] not in ("pass", "fail"):
                    out.problems.append(f"verdict line {lines[0]!r}")
                lines = lines[1:]
            results = [ln.split(" = ", 1)[1] if " = " in ln else ln
                       for ln in lines if ": " not in ln]
            residuals = [ln.split(": ", 1)[1] for ln in lines if ": " in ln]
        if passed != (code == 0):
            out.problems.append(f"verdict {passed} disagrees with exit code {code}")
        if passed and residuals:
            out.problems.append("a passing check reported residuals")
        if cmd.expected and check_style and not residuals and "poisson" in cmd.argv:
            out.problems.append("a failing Jacobi check reported no residual")
        expressions = residuals if check_style else results
        for text in expressions:
            p = jc.parse_expr(text, ctx)
            if render(p) != text:
                out.problems.append(f"non-canonical output {text!r}")
            out.polys.append(p)
        self._identities(cmd, model, out)
        return out

    @staticmethod
    def _identities(cmd: Command, model, out: Outcome):
        """Exact identities each expression command's output must satisfy."""
        if cmd.kind == "check":
            return
        values, d = out.polys, model.definitions
        if cmd.kind == "euler":
            if len(values) != model.bundle.m:
                out.problems.append(f"{len(values)} Euler components")
        elif cmd.kind == "l2":
            p, q = (d[name] for name in cmd.args)
            if values[0] != -jc.l2_density(q, p, model.omega):
                out.problems.append("l2 is not skew")
        elif cmd.kind == "l3":
            p, q, r = (d[name] for name in cmd.args)
            jac = jc.jacobiator(p, q, r, model.omega)
            if jac + jc.total_derivative(values[0], 0) != 0:
                out.problems.append("jacobiator + d_h(l3) != 0")
        elif cmd.kind == "jacobiator":
            if not jc.is_divergence(values[0]):
                out.problems.append("the Jacobiator is not a divergence")
        elif cmd.kind == "invert-dx":
            if render(values[0]) != cmd.args[0]:
                out.problems.append("invert-dx did not return the seeded preimage")
        elif cmd.kind == "average":
            group = model.get_group(cmd.args[0])
            if not jc.check_invariance(HorizontalForm.density(values[0]), group):
                out.problems.append("the group average is not invariant")


# ---------------------------------------------------------------------------

@dataclass
class SymmetryInput:
    ctx: BundleSpec
    rotation: tuple
    shear: tuple
    quarter: tuple
    omega: OmegaSpec
    averaged: Poly
    transformed: Poly
    function: Poly


class Symmetry:
    name = "symmetry"
    min_tasks = 200
    trace_tasks = 40
    golden_tasks = 1000

    # Slot k of a round runs on chart k % 2 with the shear offset (a density in
    # the other fiber) and averaged density of SLOTS[k // 2].  The ten pairs
    # spread task cost evenly from about 1x to 5x, so that no percentile falls
    # in a gap between groups of slots.
    OFFSETS = ([(0,)], [("x", 0)], [(0,), ("x", 0)], [("x", "x", 0)], [(0, 0)], [("x", 0, 0)])
    AVERAGED = ([(0, 0), (1, 0)], [(0, 0), (1, 0), ("x", 0)], [(0, 0, 0), (1, 1), ("x", 0)],
                [(0, 0), (1, 0, 0), ("x", 1), (0,)], [(0, 0, 0, 0), (1, 1, 0), ("x", 1, 0)])
    SLOTS = ((0, 0), (0, 4), (1, 0), (3, 2), (3, 1), (2, 1), (4, 0), (5, 0), (5, 3), (4, 4))
    round_size = 2 * len(SLOTS)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.charts = (BundleSpec(("x",), ("u1", "u2")), BundleSpec(("x", "y"), ("u1", "u2")))
        self.omegas = tuple(constant_omega(ctx) for ctx in self.charts)
        self.quarters = tuple(rotation_maps(ctx, 0, 1) for ctx in self.charts)

    def make_input(self, i: int) -> SymmetryInput:
        rng = task_rng(self.name, self.seed, i)
        k = i % self.round_size
        ctx = self.charts[k % 2]
        cos, sin = rng.choice(PYTHAGOREAN)
        target = rng.randrange(2)
        offset_shape, averaged_shape = self.SLOTS[k // 2]
        offset = density(rng, ctx, self.OFFSETS[offset_shape], fibers=[1 - target])
        return SymmetryInput(
            ctx=ctx,
            rotation=rotation_maps(ctx, cos, sin),
            shear=shear_maps(ctx, target, offset),
            quarter=self.quarters[k % 2],
            omega=self.omegas[k % 2],
            averaged=density(rng, ctx, self.AVERAGED[averaged_shape]),
            transformed=density(rng, ctx, [(0, 1), (0, 0)]),
            function=density(rng, ctx, [(0, 1), (0,)]),
        )

    @staticmethod
    def run(inp: SymmetryInput):
        ctx = inp.ctx
        rotation = Automorphism(ctx, *inp.rotation)
        shear = Automorphism(ctx, *inp.shear)
        auto = shear.compose(rotation)
        quarter = Automorphism(ctx, *inp.quarter)
        group = FiniteGroupAction.generated_by(shear.compose(quarter).compose(shear.inverse()))
        average = jc.group_average(HorizontalForm.density(inp.averaged), group)
        return (group.order, auto, average.density_coefficient(),
                jc.check_invariance(average, group),
                jc.check_el_transform(auto, inp.transformed),
                jc.check_pullback_dh_commute(HorizontalForm.scalar(inp.function), auto),
                jc.check_covariance(inp.omega, rotation).passed)

    def check(self, inp, result) -> Outcome:
        order, auto, average, invariant, el, commute, covariant = result
        text = (f"order = {order}\nauto = {', '.join(render(p) for p in auto.psi)}\n"
                f"average = {render(average)}")
        out = Outcome(text, 0, polys=[average, *auto.psi])
        for ok, what in ((order == 4, f"the conjugated quarter turn has order {order}, not 4"),
                         (invariant, "the group average is not invariant"),
                         (el, "Euler components do not transform with the Jacobian"),
                         (commute, "pullback does not commute with d_h"),
                         (covariant, "the constant structure is not rotation covariant")):
            if not ok:
                out.problems.append(what)
        out.code = 1 if out.problems else 0
        return out


WORKLOADS = {w.name: w for w in (Jacobi, Models, Symmetry)}
