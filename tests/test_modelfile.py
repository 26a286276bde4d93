"""Model file parsing: declarations, errors, positions."""

import textwrap

import pytest

from jetcalc import (
    BundleSpec,
    NonSkew,
    ParseError,
    UnknownName,
    load_model,
    parse_model,
    parse_expr,
    sigma_bundle,
)
from jetcalc.cli import run


FULL_MODEL = textwrap.dedent("""\
    # a chart with two fibers over one base direction
    bundle { base = [x]; fibers = [u1, u2]; params = [] }
    omega = [[0, 1],
             [-1, 0]]

    let P1 = u1 * u2_x      # quadratic density
    let P2 = 1/2*u1^2 + 1/2*u2^2

    auto Rot90  { u1 -> u2,  u2 -> -u1 inv { u1 -> -u2, u2 -> u1 } }
    auto Rot180 { u1 -> -u1, u2 -> -u2 inv { u1 -> -u1, u2 -> -u2 } }
    auto Rot270 { u1 -> -u2, u2 -> u1 inv { u1 -> u2,  u2 -> -u1 } }
    auto Id     { u1 -> u1,  u2 -> u2 inv { u1 -> u1,  u2 -> u2 } }
    group C4 = [Id, Rot90, Rot180, Rot270]
""")


class TestFullModel:
    def test_parse(self):
        model = parse_model(FULL_MODEL)
        ctx = model.bundle
        assert ctx == BundleSpec(("x",), ("u1", "u2"))
        assert model.require_omega().entry(0, 1) == parse_expr("1", ctx)
        assert model.definitions["P1"] == parse_expr("u1*u2_x", ctx)
        assert model.get_group("C4").order == 4
        rot = model.get_automorphism("Rot90")
        assert rot.psi[0] == parse_expr("u2", ctx)

    def test_resolve_density(self):
        model = parse_model(FULL_MODEL)
        ctx = model.bundle
        assert model.resolve_density("P1") == parse_expr("u1*u2_x", ctx)
        assert model.resolve_density("u1^3") == parse_expr("u1^3", ctx)
        with pytest.raises(UnknownName):
            model.resolve_density("P9")

    def test_lookup_errors(self):
        model = parse_model(FULL_MODEL)
        with pytest.raises(UnknownName):
            model.get_automorphism("Nope")
        with pytest.raises(UnknownName):
            model.get_group("Nope")
        with pytest.raises(ValueError):
            parse_model("bundle { base = [x]; fibers = [u1] }").require_omega()
        with pytest.raises(ValueError):
            model.require_sigma()

    def test_load_model(self, tmp_path):
        path = tmp_path / "model.jet"
        path.write_text(FULL_MODEL, encoding="utf-8")
        assert load_model(str(path)).get_group("C4").order == 4


class TestStatementSyntax:
    def test_semicolon_separation(self):
        model = parse_model("bundle { base = [x]; fibers = [u1] }; let P = u1^2")
        assert "P" in model.definitions

    def test_comments_preserve_positions(self):
        text = "bundle { base = [x]; fibers = [u1] } # chart\nlet P = zz"
        with pytest.raises(UnknownName) as err:
            parse_model(text)
        assert err.value.position == text.index("zz")

    def test_expression_error_position(self):
        text = "bundle { base = [x]; fibers = [u1] }\nlet P = u1 + "
        with pytest.raises(ParseError) as err:
            parse_model(text)
        # absolute position just past the dangling operator
        assert err.value.position == len(text.rstrip()) == 49
        assert err.value.message == "unexpected end of input"
        assert str(err.value) == "unexpected end of input (at position 49)"

    def test_unknown_statement(self):
        with pytest.raises(ParseError):
            parse_model("definitely not a statement")

    def test_chart_must_come_first(self):
        with pytest.raises(ParseError):
            parse_model("let P = u1")
        with pytest.raises(ParseError):
            parse_model("omega = [[0]]")

    def test_chart_required(self):
        with pytest.raises(ParseError):
            parse_model("# only comments\n")

    def test_duplicate_declarations(self):
        base = "bundle { base = [x]; fibers = [u1] }\n"
        with pytest.raises(ParseError):
            parse_model(base + "bundle { base = [y]; fibers = [u2] }")
        with pytest.raises(ParseError):
            parse_model(base + "let P = u1\nlet P = u1^2")
        with pytest.raises(ParseError):
            parse_model(base + "let P = u1\nauto P { u1 -> u1 inv { u1 -> u1 } }")

    def test_unbalanced_brackets(self):
        with pytest.raises(ParseError):
            parse_model("bundle { base = [x]; fibers = [u1] ")

    def test_bad_bundle_contents(self):
        with pytest.raises(ParseError):
            parse_model("bundle { base = [x] }")
        with pytest.raises(ParseError):
            parse_model("bundle { base = [x]; fibers = [u1]; rank = [2] }")
        with pytest.raises(ParseError):
            parse_model("bundle { base = [x, x]; fibers = [u1] }")


class TestOmegaStatement:
    def test_non_skew_rejected(self):
        with pytest.raises(NonSkew):
            parse_model("bundle { base = [x]; fibers = [u1, u2] }\n"
                        "omega = [[0, 1], [1, 0]]")

    def test_wrong_shape_rejected(self):
        with pytest.raises(ParseError):
            parse_model("bundle { base = [x]; fibers = [u1, u2] }\n"
                        "omega = [[0, 1]]")

    def test_duplicate_omega(self):
        with pytest.raises(ParseError):
            parse_model("bundle { base = [x]; fibers = [u1, u2] }\n"
                        "omega = [[0, 1], [-1, 0]]\n"
                        "omega = [[0, 1], [-1, 0]]")


class TestAutoStatement:
    BASE = "bundle { base = [x]; fibers = [u1, u2] }\n"

    def test_missing_inv(self):
        with pytest.raises(ParseError):
            parse_model(self.BASE + "auto A { u1 -> u2, u2 -> -u1 }")

    def test_missing_fiber_mapping(self):
        with pytest.raises(ParseError):
            parse_model(self.BASE + "auto A { u1 -> u2 inv { u1 -> u2, u2 -> u1 } }")

    def test_duplicate_mapping(self):
        with pytest.raises(ParseError):
            parse_model(self.BASE +
                        "auto A { u1 -> u2, u1 -> u1, u2 -> u1 "
                        "inv { u1 -> u2, u2 -> u1 } }")

    def test_unknown_fiber(self):
        with pytest.raises(UnknownName):
            parse_model(self.BASE +
                        "auto A { u1 -> u2, u2 -> u1, u3 -> u3 "
                        "inv { u1 -> u2, u2 -> u1 } }")

    def test_wrong_inverse(self):
        with pytest.raises(ParseError):
            parse_model(self.BASE +
                        "auto A { u1 -> 2*u1, u2 -> u2 inv { u1 -> u1, u2 -> u2 } }")


class TestGroupStatement:
    def test_member_must_exist(self):
        with pytest.raises(UnknownName):
            parse_model("bundle { base = [x]; fibers = [u1] }\n"
                        "group G = [Missing]")

    @pytest.mark.parametrize("statement, message", [
        pytest.param("group G = [Id, Rot180, Rot180]",
                     "invalid group 'G': duplicate group element", id="duplicate"),
        pytest.param("group G = [Rot180]",
                     "invalid group 'G': the identity automorphism must be listed",
                     id="no-identity"),
        pytest.param("group G = [Id, Rot90]",
                     "invalid group 'G': the listed elements are not closed under composition",
                     id="not-closed"),
        pytest.param("auto Bad { u1 -> 2*u1, u2 -> u2 inv { u1 -> 2*u1, u2 -> u2 } }",
                     "invalid automorphism 'Bad': psi_inv is not a right inverse on fiber u1",
                     id="bad-inverse"),
    ])
    def test_invalid_group_wrapped(self, statement, message, tmp_path, capsys):
        text = ("bundle { base = [x]; fibers = [u1, u2] }\n"
                "auto Id { u1 -> u1, u2 -> u2 inv { u1 -> u1, u2 -> u2 } }\n"
                "auto Rot90 { u1 -> u2, u2 -> -u1 inv { u1 -> -u2, u2 -> u1 } }\n"
                "auto Rot180 { u1 -> -u1, u2 -> -u2 inv { u1 -> -u1, u2 -> -u2 } }\n"
                + statement)
        with pytest.raises(ParseError) as err:
            parse_model(text)
        assert str(err.value) == f"{message} (at position 228)"
        path = tmp_path / "invalid.jet"
        path.write_text(text + "\n", encoding="utf-8")
        assert run(["euler", str(path), "u1"]) == 2
        assert capsys.readouterr().err == f"error: {message} (at position 228)\n"


class TestSigmaStatement:
    def test_generates_chart_and_omega(self):
        model = parse_model("sigma { n = 2; w = [[0, u1], [-u1, 0]] }")
        assert model.bundle == sigma_bundle(2)
        spec = model.require_sigma()
        assert spec.n_fields == 2
        omega = model.require_omega()
        assert omega.entry(0, 1) == parse_expr("u1", model.bundle)
        assert omega.entry(2, 3) == parse_expr("u1", model.bundle)

    def test_key_order_free(self):
        model = parse_model("sigma { w = [[0, 1], [-1, 0]]; n = 2 }")
        assert model.require_sigma().n_fields == 2

    def test_needs_both_keys(self):
        with pytest.raises(ParseError):
            parse_model("sigma { n = 2 }")
        with pytest.raises(ParseError):
            parse_model("sigma { w = [[0]] }")

    def test_n_must_be_positive_integer(self):
        with pytest.raises(ParseError):
            parse_model("sigma { n = 0; w = [[0]] }")
        with pytest.raises(ParseError):
            parse_model("sigma { n = two; w = [[0]] }")

    def test_conflicts_with_bundle(self):
        with pytest.raises(ParseError):
            parse_model("bundle { base = [x]; fibers = [u1] }\n"
                        "sigma { n = 1; w = [[0]] }")
        with pytest.raises(ParseError):
            parse_model("sigma { n = 1; w = [[0]] }\n"
                        "bundle { base = [x]; fibers = [u1] }")
        with pytest.raises(ParseError):
            parse_model("sigma { n = 1; w = [[0]] }\n"
                        "omega = [[0]]")

    def test_lets_may_use_generated_names(self):
        model = parse_model("sigma { n = 1; w = [[0]] }\nlet P = w10*u1_x1")
        assert "P" in model.definitions
