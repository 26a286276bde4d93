"""Model file parsing: declarations, errors, positions."""

from fractions import Fraction
import textwrap

from hypothesis import given, settings, strategies as st
import pytest

import jetcalc.modelfile
import jetcalc.symmetry
from jetcalc import (
    Automorphism,
    BundleSpec,
    FiniteGroupAction,
    NonSkew,
    ParseError,
    UnknownName,
    load_model,
    parse_model,
    parse_expr,
    sigma_bundle,
)
from jetcalc.cli import run
from jetcalc.modelfile import _blank_comments

import helpers


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

    def test_resolve_matrix(self):
        model = parse_model(FULL_MODEL)
        assert model.resolve_matrix("[[3/5, 4/5], [-4/5, 3/5]]") == (
            (Fraction(3, 5), Fraction(4, 5)), (Fraction(-4, 5), Fraction(3, 5)))
        # an entry is any constant expression over the chart
        assert model.resolve_matrix("[[2*3/4 - 1, u1 - u1]]") == ((Fraction(1, 2), 0),)
        with pytest.raises(ParseError) as err:
            model.resolve_matrix("[[1, 0], [0, u1_x]]")
        assert str(err.value) == "expected a rational number, got 'u1_x' (at position 13)"

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.data())
    def test_resolve_matrix_reads_fractions(self, data):
        # signed integers and p/q read as Fraction reads them, blanks anywhere
        blank = st.sampled_from(["", " ", "  ", "\t", "\n"])
        cell = st.tuples(st.sampled_from(["", "-"]), st.integers(0, 10**20).map(str),
                         st.sampled_from(["", "/1", "/3", "/10", "/987654321"])).map("".join)
        n = data.draw(st.integers(1, 4))
        row = st.lists(cell, min_size=n, max_size=n)
        rows = data.draw(st.lists(row, min_size=n, max_size=n))

        def spaced(items):
            return "[" + ",".join(data.draw(blank) + x + data.draw(blank) for x in items) + "]"

        literal = spaced(spaced(row) for row in rows)
        model = parse_model(FULL_MODEL)
        assert model.resolve_matrix(literal) == tuple(
            tuple(Fraction(c) for c in row) for row in rows)

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

    def test_load_model_after_byte_order_mark(self, tmp_path):
        # some editors start a UTF-8 file with U+FEFF; positions count after it
        path = tmp_path / "model.jet"
        path.write_text("\ufeff" + FULL_MODEL, encoding="utf-8")
        assert load_model(str(path)).get_group("C4").order == 4
        text = "bundle { base = [x]; fibers = [u1] } # chart\nlet Q = u1_x*zz"
        path.write_text("\ufeff" + text, encoding="utf-8")
        with pytest.raises(UnknownName) as err:
            load_model(str(path))
        assert str(err.value) == f"unknown name 'zz' at position {text.index('zz')}"


class TestStatementSyntax:
    def test_semicolon_separation(self):
        model = parse_model("bundle { base = [x]; fibers = [u1] }; let P = u1^2")
        assert "P" in model.definitions

    def test_comments_preserve_positions(self):
        text = "bundle { base = [x]; fibers = [u1] } # chart\nlet P = zz"
        with pytest.raises(UnknownName) as err:
            parse_model(text)
        assert err.value.position == text.index("zz")

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.text(alphabet="#\n\r[];u1 ", max_size=40))
    def test_blank_comments_matches_reference(self, text):
        assert _blank_comments(text) == helpers.reference_blank_comments(text)

    _COMMENT = st.text(alphabet="[]{}();,-> xinv", max_size=12).map(lambda t: f"#{t}\n")
    _PREFIX = st.lists(st.one_of(st.sampled_from(["\n", ";", "  "]), _COMMENT),
                       max_size=6).map("".join)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_PREFIX, _PREFIX, st.sampled_from([
        "let P = u1 + zz*u2_x",
        "omega = [[0, zz], [-zz, 0]]",
        "auto A { u1 -> u2, u2 -> 3*zz inv { u1 -> u2, u2 -> u1 } }",
        "auto A { u1 -> u2, u2 -> u1 inv { u1 -> u2, u2 -> u1 - zz^2 } }",
    ]))
    def test_unknown_name_position_behind_any_prefix(self, before, between, statement):
        text = f"{before}bundle {{ base = [x]; fibers = [u1, u2] }}\n{between}{statement}\n"
        with pytest.raises(UnknownName) as err:
            parse_model(text)
        assert err.value.position == text.index("zz")
        assert str(err.value) == f"unknown name 'zz' at position {text.index('zz')}"

    def test_each_text_parsed_once_per_load(self, monkeypatch):
        texts = []
        parse = jetcalc.modelfile.parse_expr

        def counted(text, ctx, offset=0):
            texts.append(text)
            return parse(text, ctx, offset)

        monkeypatch.setattr(jetcalc.modelfile, "parse_expr", counted)
        text = ("bundle { base = [x]; fibers = [u1, u2] }\n"
                "omega = [[0, 1], [-1, 0]]\n"
                "auto Rot90 { u1 -> u2, u2 -> -u1 inv { u1 -> -u2, u2 -> u1 } }\n"
                "let P = -1\n")
        model = parse_model(text)
        # a text is its piece of the file: after "->" the space is kept
        assert texts == ["0", "1", "-1", " u2", " -u1", " -u2", " u1"]
        assert model.definitions["P"] is model.omega.entry(1, 0)
        # nothing is kept from one load to the next
        assert parse_model(text).definitions["P"] is not model.definitions["P"]
        assert len(texts) == 14

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

    def test_chart_name_inv(self):
        # only the last `inv {` opens the inverse block; `inv` alone is a name
        model = parse_model("bundle { base = [x]; fibers = [u1, u2]; params = [inv] }\n"
                            "auto A { u1 -> u1 + inv*u2, u2 -> u2 "
                            "inv { u1 -> u1 - inv*u2, u2 -> u2 } }")
        ctx = model.bundle
        psi = model.get_automorphism("A").psi
        assert psi == (parse_expr("u2*inv + u1", ctx), parse_expr("u2", ctx))


class TestGroupStatement:
    AUTOS = ("bundle { base = [x]; fibers = [u1, u2] }\n"
             "auto Id { u1 -> u1, u2 -> u2 inv { u1 -> u1, u2 -> u2 } }\n"
             "auto Rot90 { u1 -> u2, u2 -> -u1 inv { u1 -> -u2, u2 -> u1 } }\n"
             "auto Rot180 { u1 -> -u1, u2 -> -u2 inv { u1 -> -u1, u2 -> -u2 } }\n")

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
        text = self.AUTOS + statement
        with pytest.raises(ParseError) as err:
            parse_model(text)
        assert str(err.value) == f"{message} (at position 228)"
        path = tmp_path / "invalid.jet"
        path.write_text(text + "\n", encoding="utf-8")
        assert run(["euler", str(path), "u1"]) == 2
        assert capsys.readouterr().err == f"error: {message} (at position 228)\n"

    def test_closure_composes_generators_only(self, monkeypatch, tmp_path, capsys):
        # Each composite g after x of the closure loop is looked up among the
        # listed elements by its forward map alone: one pullback per fiber,
        # by a non-identity x, and no composition of inverses.
        pullbacks = []
        validating = []
        pullback = jetcalc.symmetry.pullback
        post_init = FiniteGroupAction.__post_init__

        def counted(p, auto):
            if validating:
                pullbacks.append(auto.is_identity)
            return pullback(p, auto)

        def scoped(group):
            validating.append(group)
            try:
                post_init(group)
            finally:
                validating.pop()

        def composed(g, h):
            raise AssertionError("a listed group was validated by composition")

        monkeypatch.setattr(jetcalc.symmetry, "pullback", counted)
        monkeypatch.setattr(FiniteGroupAction, "__post_init__", scoped)
        monkeypatch.setattr(Automorphism, "compose", composed)
        c4 = (self.AUTOS
              + "auto Rot270 { u1 -> -u2, u2 -> u1 inv { u1 -> u2, u2 -> -u1 } }\n"
              + "group G = [Id, Rot90, Rot180, Rot270]")
        assert parse_model(c4).get_group("G").order == 4
        assert pullbacks == [False] * 3 * 2      # 3 composites, 2 fibers each
        pullbacks.clear()
        message = "invalid group 'G': the listed elements are not closed under composition"
        path = tmp_path / "open.jet"
        path.write_text(self.AUTOS + "group G = [Id, Rot90]\n", encoding="utf-8")
        assert run(["euler", str(path), "u1"]) == 2
        assert capsys.readouterr().err == f"error: {message} (at position 228)\n"
        assert pullbacks == [False] * 2          # 1 composite before the error

    @pytest.mark.parametrize("listing", [
        "[Id, Rot180, Rot90]",
        "[Id, Rot90, Rot180, Rot270, Flip]",
        "[Id, Rot180, Flip]",
    ])
    def test_subgroup_plus_stray_element_rejected(self, listing, tmp_path, capsys):
        text = (self.AUTOS
                + "auto Rot270 { u1 -> -u2, u2 -> u1 inv { u1 -> u2, u2 -> -u1 } }\n"
                + "auto Flip { u1 -> u1, u2 -> -u2 inv { u1 -> u1, u2 -> -u2 } }\n"
                + f"group G = {listing}")
        message = ("invalid group 'G': the listed elements are not closed under composition"
                   " (at position 354)")
        with pytest.raises(ParseError) as err:
            parse_model(text)
        assert str(err.value) == message
        path = tmp_path / "stray.jet"
        path.write_text(text + "\n", encoding="utf-8")
        assert run(["euler", str(path), "u1"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_listed_d4_accepted(self):
        text = (self.AUTOS
                + "auto Rot270 { u1 -> -u2, u2 -> u1 inv { u1 -> u2, u2 -> -u1 } }\n"
                + "auto Flip { u1 -> u1, u2 -> -u2 inv { u1 -> u1, u2 -> -u2 } }\n"
                + "auto FlipA { u1 -> -u1, u2 -> u2 inv { u1 -> -u1, u2 -> u2 } }\n"
                + "auto Swap { u1 -> u2, u2 -> u1 inv { u1 -> u2, u2 -> u1 } }\n"
                + "auto SwapA { u1 -> -u2, u2 -> -u1 inv { u1 -> -u2, u2 -> -u1 } }\n"
                + "group D4 = [Flip, Rot90, Id, Swap, Rot180, FlipA, SwapA, Rot270]")
        model = parse_model(text)
        group = model.get_group("D4")
        generated = FiniteGroupAction.generated_by(model.automorphisms["Rot90"],
                                                   model.automorphisms["Flip"])
        assert set(group.elements) == set(generated.elements)


class TestSigmaStatement:
    def test_generates_chart_and_omega(self):
        model = parse_model("sigma { n = 2; w = [[0, u1], [-u1, 0]] }")
        assert model.bundle == sigma_bundle(2)
        spec = model.require_sigma()
        assert spec.n_fields == 2
        omega = model.require_omega()
        assert omega is spec.omega
        assert omega.entry(0, 1) == parse_expr("u1", model.bundle)
        assert omega.entry(2, 3) == parse_expr("u1", model.bundle)

    def test_builds_one_chart(self, monkeypatch):
        charts = []
        post_init = BundleSpec.__post_init__
        monkeypatch.setattr(BundleSpec, "__post_init__",
                            lambda self: charts.append(self) or post_init(self))
        model = parse_model("sigma { n = 2; w = [[0, u1], [-u1, 0]] }")
        assert charts == [model.bundle]
        charts.clear()
        with pytest.raises(ParseError, match="structure matrix must be 3x3"):
            parse_model("sigma { n = 3; w = [[0]] }")
        assert len(charts) == 1

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


_B2 = "bundle { base = [x]; fibers = [u1, u2] }\n"
_ID = "auto Id { u1 -> u1, u2 -> u2 inv { u1 -> u1, u2 -> u2 } }\n"
_INV = "inv { u1 -> u2, u2 -> u1 }"


@pytest.mark.parametrize("text, error, message", [
    # statements and the chart
    pytest.param("definitely not a statement", ParseError,
                 "unknown statement 'definitely' (at position 0)", id="unknown-statement"),
    pytest.param("# only comments\n", ParseError,
                 "the model declares no chart (bundle or sigma) (at position 0)", id="no-chart"),
    pytest.param("let P = u1", ParseError,
                 "the chart (bundle or sigma) must be declared first (at position 0)",
                 id="chart-first"),
    pytest.param(_B2 + "let P = u1\nlet P = u1^2", ParseError,
                 "the name 'P' is already in use (at position 52)", id="name-in-use"),
    pytest.param(_B2 + "let u1 = u2", ParseError,
                 "the name 'u1' is already in use (at position 41)", id="chart-name-in-use"),
    pytest.param("bundle { base = [x]; fibers = [u1] ", ParseError,
                 "unbalanced bracket (at position 35)", id="unbalanced-open"),
    pytest.param("bundle { base = [x]]; fibers = [u1] }", ParseError,
                 "unbalanced bracket (at position 36)", id="unbalanced-close"),
    # bundle
    pytest.param(_B2 + "bundle { base = [y]; fibers = [v] }", ParseError,
                 "the chart is already declared (at position 41)", id="bundle-twice"),
    pytest.param("bundle base = [x]", ParseError,
                 "expected bundle { ... } (at position 0)", id="bundle-syntax"),
    pytest.param("bundle { base = [x]; fibers = [u1]; rank = [2] }", ParseError,
                 "expected base/fibers/params = [...] (at position 36)", id="bundle-unknown-key"),
    pytest.param("bundle { base [x]; fibers = [u1] }", ParseError,
                 "expected base/fibers/params = [...] (at position 9)", id="bundle-no-equals"),
    pytest.param("bundle { base = [x]; base = [y]; fibers = [u1] }", ParseError,
                 "duplicate 'base' (at position 21)", id="bundle-duplicate-key"),
    pytest.param("bundle { base = [x] }", ParseError,
                 "bundle needs both base and fibers (at position 0)", id="bundle-missing-key"),
    pytest.param("bundle { base = x; fibers = [u1] }", ParseError,
                 "expected [...] (at position 16)", id="name-list-unbracketed"),
    pytest.param("bundle { base = [x, 2y]; fibers = [u1] }", ParseError,
                 "expected a name, got '2y' (at position 20)", id="name-list-bad-name"),
    pytest.param("bundle { base = [x, ]; fibers = [u1] }", ParseError,
                 "expected a name, got '' (at position 20)", id="name-list-empty-name"),
    pytest.param("bundle { base = [x, x]; fibers = [u1] }", ParseError,
                 "base, fiber and parameter names must be distinct (at position 0)",
                 id="bundle-names-distinct"),
    pytest.param("bundle { base = [2x]; rank = [1] }", ParseError,
                 "expected a name, got '2x' (at position 17)", id="bundle-value-read-first"),
    # omega
    pytest.param(_B2 + "omega = [[0, 1], [-1, 0]]\nomega = [[0, 1], [-1, 0]]", ParseError,
                 "omega is already declared (at position 67)", id="omega-twice"),
    pytest.param("sigma { n = 1; w = [[0]] }\nomega = [[0]]", ParseError,
                 "omega is already declared (at position 27)", id="omega-after-sigma"),
    pytest.param(_B2 + "omega [[0, 1], [-1, 0]]", ParseError,
                 "expected omega = [[...], ...] (at position 41)", id="omega-syntax"),
    pytest.param(_B2 + "omega = [[0, 1]]", ParseError,
                 "omega must be 2x2 to match the fibers (at position 41)", id="omega-shape"),
    pytest.param(_B2 + "omega = [[0, ], [-1, 0]]", ParseError,
                 "empty matrix entry (at position 54)", id="matrix-empty-entry"),
    pytest.param(_B2 + "omega = [0, 1]", ParseError,
                 "expected [...] (at position 50)", id="matrix-row-unbracketed"),
    pytest.param(_B2 + "omega = [[0, 1 +], [-1, 0]]", ParseError,
                 "unexpected end of input (at position 57)", id="matrix-bad-entry"),
    pytest.param(_B2 + "omega = [[0, zz], [-zz, 0]]", UnknownName,
                 "unknown name 'zz' at position 54", id="matrix-unknown-name"),
    pytest.param(_B2 + "omega = [[0, 1], [1, 0]]", NonSkew,
                 "omega[u1,u2] != -omega[u2,u1]", id="omega-non-skew"),
    # let
    pytest.param(_B2 + "let 1P = u1", ParseError,
                 "expected let NAME = expression (at position 41)", id="let-syntax"),
    pytest.param(_B2 + "let P = u1 + ", ParseError,
                 "unexpected end of input (at position 53)", id="let-bad-expression"),
    # auto
    pytest.param(_B2 + "auto { u1 -> u2 }", ParseError,
                 "expected auto NAME { ... } (at position 41)", id="auto-syntax"),
    pytest.param(_B2 + "auto A { u1 -> u2, u2 -> -u1 }", ParseError,
                 "an automorphism needs an inv { ... } block (at position 49)", id="missing-inv"),
    pytest.param(_B2 + "auto A { u1 -> u2, u2 -> u1 inv u1 -> u2 }", ParseError,
                 "an automorphism needs an inv { ... } block (at position 49)",
                 id="inv-without-brace"),
    pytest.param(_B2 + "auto A { u1 -> u2, u2 -> u1 " + _INV + " u1 }", ParseError,
                 "an automorphism needs an inv { ... } block (at position 49)",
                 id="text-after-inv-block"),
    pytest.param(_B2 + "auto A { u1 -> u2, u2 -> u1 " + _INV + " " + _INV + " }", ParseError,
                 "unexpected character '{' (at position 73)", id="two-inv-blocks"),
    pytest.param(_B2 + "auto A { u1 -> u2, u2 -> u1_" + _INV + " }", UnknownName,
                 "unknown name 'u1_' at position 66", id="inv-after-underscore"),
    pytest.param(_B2 + "auto A { u1 u2, u2 -> u1 " + _INV + " }", ParseError,
                 "expected fiber -> expression (at position 50)", id="mapping-no-arrow"),
    pytest.param(_B2 + "auto A { u1 -> u2, u2 -> u1, u3 -> u3 " + _INV + " }", UnknownName,
                 "unknown name 'u3' at position 70", id="mapping-unknown-fiber"),
    pytest.param(_B2 + "auto A { u1 -> u2, u1 -> u1, u2 -> u1 " + _INV + " }", ParseError,
                 "duplicate mapping for 'u1' (at position 60)", id="mapping-duplicate"),
    pytest.param(_B2 + "auto A { u1 -> u2 " + _INV + " }", ParseError,
                 "missing mappings for u2 (at position 49)", id="mapping-missing"),
    pytest.param(_B2 + "auto A { u1 -> u2, u2 -> u1 inv { u1 -> u2 } }", ParseError,
                 "missing mappings for u2 (at position 74)", id="inv-mapping-missing"),
    pytest.param(_B2 + "auto A { u1 -> u2 +, u2 -> u1 " + _INV + " }", ParseError,
                 "unexpected end of input (at position 60)", id="mapping-bad-expression"),
    pytest.param(_B2 + "auto A { u1 -> 2*u1, u2 -> u2 inv { u1 -> u1, u2 -> u2 } }", ParseError,
                 "invalid automorphism 'A': psi_inv is not a right inverse on fiber u1 "
                 "(at position 41)", id="auto-invalid"),
    # group
    pytest.param(_B2 + "group G [Id]", ParseError,
                 "expected group NAME = [autoA, ...] (at position 41)", id="group-syntax"),
    pytest.param(_B2 + "group G = [Missing]", UnknownName,
                 "unknown name 'Missing' at position 52", id="group-unknown-member"),
    pytest.param(_B2 + _ID + "group G = [Id, Missing]", UnknownName,
                 "unknown name 'Missing' at position 114", id="group-unknown-later-member"),
    pytest.param(_B2 + _ID + "group G = [Id, Id]", ParseError,
                 "invalid group 'G': duplicate group element (at position 99)",
                 id="group-invalid"),
    # sigma
    pytest.param(_B2 + "sigma { n = 1; w = [[0]] }", ParseError,
                 "a sigma model declares its own chart; drop the separate bundle statement "
                 "(at position 41)", id="sigma-after-bundle"),
    pytest.param("sigma { n = 1; w = [[0]] }\nbundle { base = [x]; fibers = [u1] }", ParseError,
                 "the chart is already declared (at position 27)", id="bundle-after-sigma"),
    pytest.param("sigma n = 1", ParseError,
                 "expected sigma { ... } (at position 0)", id="sigma-syntax"),
    pytest.param("sigma { n = 1; v = [[0]] }", ParseError,
                 "expected n = ... or w = [[...], ...] (at position 15)", id="sigma-unknown-key"),
    pytest.param("sigma { n = 1; n = 2; w = [[0]] }", ParseError,
                 "duplicate 'n' (at position 15)", id="sigma-duplicate-n"),
    pytest.param("sigma { n = 1; w = [[0]]; w = [[0]] }", ParseError,
                 "duplicate 'w' (at position 26)", id="sigma-duplicate-w"),
    pytest.param("sigma { n = 2 }", ParseError,
                 "sigma needs both n and w (at position 0)", id="sigma-missing-key"),
    pytest.param("sigma { n = 0 }", ParseError,
                 "sigma needs both n and w (at position 0)", id="sigma-missing-before-bad-n"),
    pytest.param("sigma { n = 0; w = [[0]] }", ParseError,
                 "n must be a positive integer (at position 8)", id="sigma-n-zero"),
    pytest.param("sigma { n = two; w = [[0]] }", ParseError,
                 "n must be a positive integer (at position 8)", id="sigma-n-word"),
    pytest.param("sigma { n = ²; w = [[0]] }", ParseError,
                 "n must be a positive integer (at position 8)", id="sigma-n-superscript"),
    pytest.param("sigma { n = 0; w = [[ ]] }", ParseError,
                 "n must be a positive integer (at position 8)", id="sigma-bad-n-before-w"),
    pytest.param("sigma { n = 1; w = [[ ]] }", ParseError,
                 "empty matrix entry (at position 22)", id="sigma-empty-entry"),
    pytest.param("sigma { n = 2; w = [[0, 1]] }", ParseError,
                 "structure matrix must be 2x2 (at position 0)", id="sigma-shape"),
    pytest.param("sigma { n = 2; w = [[0, 1], [1, 0]] }", NonSkew,
                 "omega[u1,u2] != -omega[u2,u1]", id="sigma-non-skew"),
])
def test_error_messages(text, error, message):
    with pytest.raises(error) as err:
        parse_model(text)
    assert type(err.value) is error
    assert str(err.value) == message
