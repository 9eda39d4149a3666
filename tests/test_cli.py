"""Command-line behavior: outputs, exit codes, determinism."""

import json
import pathlib

import pytest

from polysem import cli, composer, kernel
from polysem.cli import main, search_false
from polysem.kernel import typecheck
from polysem.lexicon import builtin_signature
from polysem.syntax import MAX_NESTING, alpha_eq, parse_term, parse_type


@pytest.fixture
def lex_path(fixture_dir):
    return str(fixture_dir / "english.lex")


@pytest.fixture
def trees_path(fixture_dir):
    return str(fixture_dir / "trees.txt")


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


# ---------------------------------------------------------------------------
# lexicon check


def test_lexicon_check_ok(capsys, lex_path):
    code, out = _run(capsys, ["lexicon", "check", lex_path])
    assert code == 0
    assert "ok" in out


def test_lexicon_check_missing_file(capsys):
    code = main(["lexicon", "check", "/nonexistent/void.lex"])
    assert code == 2


def test_lexicon_check_reports_all_problems(capsys, tmp_path):
    bad = tmp_path / "bad.lex"
    bad.write_text(
        "sort e:a\n"
        "sort e:b\n"
        "sort e:c\n"
        "coercion x : e:a -> e:b\n"
        "coercion y : e:a -> e:c\n"
        "coercion z : e:b -> e:c\n"          # diamond a->c two ways
        "const k : e:a\n"
        "word w main k\n"
        "word w main k\n"                     # duplicate word
        "gibberish\n"                         # unknown directive
    )
    code, out = _run(capsys, ["lexicon", "check", str(bad)])
    assert code == 1
    assert "two paths" in out
    assert "declared twice" in out
    assert "gibberish" in out


def test_lexicon_check_diamond_witness_paths(capsys, tmp_path):
    bad = tmp_path / "diamond.lex"
    bad.write_text(
        "sort e:book\nsort e:phys\nsort e:info\nsort e:obj\n"
        "coercion bp : e:book -> e:phys\n"
        "coercion bi : e:book -> e:info\n"
        "coercion po : e:phys -> e:obj\n"
        "coercion io : e:info -> e:obj\n"
    )
    code, out = _run(capsys, ["lexicon", "check", str(bad)])
    assert code == 1
    assert "bp" in out and "po" in out and "bi" in out and "io" in out


def test_lexicon_check_rejects_self_loop_coercion(capsys, tmp_path):
    bad = tmp_path / "loop.lex"
    bad.write_text("sort e:a\ncoercion c : e:a -> e:a\n")
    code, out = _run(capsys, ["lexicon", "check", str(bad)])
    assert code == 1
    assert out.splitlines() == [f"{bad}: FAIL (1 problem(s))",
                                "  2:1: coercion endpoints must be distinct sorts"]
    trees = tmp_path / "trees.txt"
    trees.write_text("(NODE (LEAF w) (LEAF w))\n")
    assert main(["compose", str(bad), str(trees)]) == 2
    assert capsys.readouterr().err == "error: 2:1: coercion endpoints must be distinct sorts\n"


def test_lexicon_check_rejects_coercion_into_t(capsys, tmp_path):
    # a coercion into the proposition sort would turn entities into propositions
    bad = tmp_path / "into_t.lex"
    bad.write_text("sort e:a\ncoercion c : e:a -> t\n")
    code, out = _run(capsys, ["lexicon", "check", str(bad)])
    assert code == 1
    assert "coercion endpoints must be entity sorts" in out


# ---------------------------------------------------------------------------
# compose


def test_compose_book_formula(capsys, lex_path, trees_path):
    code, out = _run(capsys, ["compose", lex_path, trees_path, "--show-formula", "--profile"])
    assert "(and (heavy (g0 b)) (interesting (f0 b)))" in out
    assert "order=1 sorts=3" in out
    assert "RigidityViolation(Liverpool@1)" in out
    assert "NoPath(e:chair, e:dog)" in out
    assert code == 1  # the blocked sentences are failing items


def test_compose_json(capsys, lex_path, trees_path):
    code, out = _run(capsys, ["compose", lex_path, trees_path, "--show-formula", "--json"])
    payload = json.loads(out)
    assert payload["command"] == "compose"
    first = payload["items"][0]
    assert first["ok"] is True
    assert first["analyses"][0]["formula"] == "(and (heavy (g0 b)) (interesting (f0 b)))"


def test_compose_deterministic_output(capsys, lex_path, trees_path):
    argv = ["compose", lex_path, trees_path, "--show-term", "--show-formula", "--profile"]
    _, first = _run(capsys, argv)
    _, second = _run(capsys, argv)
    assert first == second


def test_compose_missing_trees(capsys, lex_path):
    assert main(["compose", lex_path, "/nonexistent/trees"]) == 2


def test_compose_unknown_word(capsys, lex_path, tmp_path):
    trees = tmp_path / "trees.txt"
    trees.write_text("(NODE (LEAF barks) (LEAF Rex))\n(NODE (LEAF barks) (LEAF unicorn))\n")
    code, out = _run(capsys, ["compose", lex_path, str(trees)])
    assert code == 1
    assert out.splitlines()[-2:] == ["tree 2: 0 analysis(es)",
                                     "  diagnostic: word 'unicorn' is not in the lexicon"]
    code, out = _run(capsys, ["compose", lex_path, str(trees), "--json"])
    assert code == 1
    assert json.loads(out)["items"][1]["diagnostic"] == "word 'unicorn' is not in the lexicon"


def test_compose_reports_exhausted_fuel(capsys, lex_path, trees_path, monkeypatch):
    # the book reading needs more contractions than the fuel allows; the other
    # trees go on as before
    monkeypatch.setattr(composer, "normalize", lambda term, sig: kernel.normalize(term, sig, fuel=2))
    code, out = _run(capsys, ["compose", lex_path, trees_path])
    assert code == 1
    assert out.splitlines()[:2] == ["tree 1: 0 analysis(es)",
                                    "  diagnostic: no normal form within 2 steps"]
    assert out.splitlines()[-2:] == ["tree 5: 1 analysis(es)", "  [1] type: t"]
    code, out = _run(capsys, ["compose", lex_path, trees_path, "--json"])
    assert code == 1
    assert json.loads(out)["items"][0]["diagnostic"] == "no normal form within 2 steps"


def test_compose_reports_unreadable_formula(capsys, tmp_path):
    # a predicate variable applied to an argument has no formula yet: the
    # refusal is the tree's diagnostic, and the other trees go on as before
    lexicon = tmp_path / "everyprop.lex"
    lexicon.write_text("sort e:dog\n"
                       "const barks : (-> e:dog t)\n"
                       "const rex : e:dog\n"
                       "word everyprop main (app (tapp ∀ (-> e:dog t)) (lam (P (-> e:dog t)) (app P rex)))\n"
                       "word barks main barks\n"
                       "word rex main rex\n", encoding="utf-8")
    trees = tmp_path / "trees.txt"
    trees.write_text("(LEAF everyprop)\n(NODE (LEAF barks) (LEAF rex))\n")
    for flag in ("--show-formula", "--profile"):
        code, out = _run(capsys, ["compose", str(lexicon), str(trees), flag])
        assert code == 1
        assert out.splitlines()[:2] == ["tree 1: 0 analysis(es)",
                                        "  diagnostic: variable-headed spine: P"]
        assert out.splitlines()[2] == "tree 2: 1 analysis(es)"
    code, out = _run(capsys, ["compose", str(lexicon), str(trees), "--show-formula", "--json"])
    assert code == 1
    assert json.loads(out)["items"][0] == {"tree": 1, "ok": False, "analyses": [],
                                           "diagnostic": "variable-headed spine: P"}
    # without a formula to read, the tree composes as before
    code, out = _run(capsys, ["compose", str(lexicon), str(trees)])
    assert code == 0


GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("flags, golden", [([], "compose_fixtures.txt"),
                                           (["--json"], "compose_fixtures.json")],
                         ids=["text", "json"])
def test_compose_golden_output(capsys, lex_path, trees_path, flags, golden):
    # pins binder names, the order of the used-transfer labels and the
    # diagnostics byte for byte
    argv = ["compose", lex_path, trees_path, "--show-term", "--show-formula", "--profile"]
    code, out = _run(capsys, argv + flags)
    assert code == 1
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


def test_compose_ill_formed_type_annotation(capsys, tmp_path):
    lexicon = tmp_path / "poly.lex"
    lexicon.write_text("sort e:dog\n"
                       "const bot : (all a a)\n"
                       "word id main (tlam a (lam (x a) x))\n"
                       "word bot main bot\n")
    trees = tmp_path / "trees.txt"
    trees.write_text("(NODE (TY (LEAF id) a) (TY (LEAF bot) a))\n"
                     "(TY (LEAF id) e:nope)\n"
                     "(NODE (TY (LEAF id) e:dog) (TY (LEAF bot) e:dog))\n")
    code, out = _run(capsys, ["compose", str(lexicon), str(trees)])
    assert code == 1
    assert out.splitlines() == [
        "tree 1: 0 analysis(es)",
        "  diagnostic: TY annotation a: unbound type variable a",
        "tree 2: 0 analysis(es)",
        "  diagnostic: TY annotation e:nope: undeclared sort e:nope",
        "tree 3: 1 analysis(es)",
        "  [1] type: e:dog",
    ]


def test_compose_not_polymorphic(capsys, lex_path, tmp_path):
    trees = tmp_path / "trees.txt"
    trees.write_text("(TY (LEAF book) e:dog)\n")
    code, out = _run(capsys, ["compose", lex_path, str(trees)])
    assert code == 1
    assert out.splitlines() == ["tree 1: 0 analysis(es)",
                                "  diagnostic: NotPolymorphic(e:book) at root"]


@pytest.mark.parametrize("limit", ["0", "-1", "two"])
def test_compose_rejects_non_positive_limit(capsys, lex_path, trees_path, limit):
    assert main(["compose", lex_path, trees_path, "--limit", limit]) == 2
    assert "--limit: expected a positive integer" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# typecheck / normalize


def test_typecheck_ok(capsys, lex_path):
    code, out = _run(capsys, ["typecheck", lex_path, "(lam (x e:dog) (app barks x))"])
    assert code == 0
    assert "(-> e:dog t)" in out


def test_typecheck_failure(capsys, lex_path):
    code, out = _run(capsys, ["typecheck", lex_path, "(app barks chr)"])
    assert code == 1
    assert "expected" in out


def test_normalize_identity_application(capsys, lex_path):
    code, out = _run(capsys, ["normalize", lex_path, "(app (lam (x t) x) (app barks rex))"])
    assert code == 0
    assert "normal: (app barks rex)" in out


def test_normalize_and_instance(capsys, lex_path):
    term = ("(app (app (app (tapp (app (app (tapp (tapp AND e:phys) e:info)"
            " (lam (x e:phys) (app heavy x))) (lam (x e:info) (app interesting x)))"
            " e:book) b) g0) f0)")
    code, out = _run(capsys, ["normalize", lex_path, term])
    assert code == 0
    assert "(app (app ∧ (app heavy (app g0 b))) (app interesting (app f0 b)))" in out


def test_normalize_eta_long_flag(capsys, lex_path):
    code, out = _run(capsys, ["normalize", lex_path, "barks", "--eta-long"])
    assert code == 0
    assert "eta-long: (lam (x e:dog) (app barks x))" in out


def test_normalize_ill_typed_exit_code(capsys, lex_path):
    code, out = _run(capsys, ["normalize", lex_path, "(app barks chr)"])
    assert code == 1


@pytest.mark.parametrize("lexicon, message", [
    ("sort e:a\nword w main nosuch\n", "error: entry 'w': "),
    ("sort e:a\nsort e:b\nsort e:c\ncoercion x : e:a -> e:b\n"
     "coercion y : e:b -> e:c\ncoercion z : e:a -> e:c\n",
     "error: coercion graph is incoherent: "),
    ("sort e:a\ncoercion c : e:a -> e:a\n", "error: 2:1: coercion endpoints must be distinct sorts"),
], ids=["bad-entry", "incoherent", "self-loop-coercion"])
@pytest.mark.parametrize("command", ["typecheck", "normalize"])
def test_unloadable_lexicon_is_input_error(capsys, tmp_path, command, lexicon, message):
    bad = tmp_path / "bad.lex"
    bad.write_text(lexicon)
    assert main([command, str(bad), "(lam (x t) x)"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message) and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["lexicon", "check", "{bad}"],
    ["compose", "{bad}", "{trees}"],
    ["compose", "{lex}", "{bad}"],
    ["typecheck", "{bad}", "(lam (x t) x)"],
    ["normalize", "{bad}", "(lam (x t) x)"],
], ids=["lexicon-check", "compose-lexicon", "compose-trees", "typecheck", "normalize"])
def test_non_utf8_file_is_input_error(capsys, tmp_path, lex_path, trees_path, argv):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes("word caf\xe9 main p\n".encode("latin-1"))
    paths = {"bad": str(bad), "lex": lex_path, "trees": trees_path}
    assert main([arg.format(**paths) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot read {bad}: not UTF-8 (invalid continuation byte at byte 8)\n"


# ---------------------------------------------------------------------------
# search-false


def test_search_false_cli(capsys):
    code, out = _run(capsys, ["search-false", "(all a (-> a a))", "--max-size", "5"])
    assert code == 0
    assert "(tlam a0 (lam (x0 a0) x0))" in out


def test_search_false_finds_nothing_for_false(capsys):
    code, out = _run(capsys, ["search-false", "(all a a)", "--max-size", "9"])
    assert code == 0
    assert "inhabitants up to size 9: 0" in out


@pytest.mark.parametrize("size", ["0", "-3"])
def test_search_false_rejects_non_positive_size(capsys, size):
    assert main(["search-false", "(all a a)", "--max-size", size]) == 2
    assert "--max-size: expected a positive integer" in capsys.readouterr().err


CHURCH = "(all a (-> (-> a a) (-> a a)))"


@pytest.mark.parametrize("ty", ["(all a a)", "(all a (-> a a))", "(all a (all b (-> a (-> b a))))", CHURCH])
def test_search_false_runs_to_the_end_at_the_nesting_limit(capsys, ty):
    """The search recurses along each term it builds.  At --max-size MAX_NESTING
    it ends on every type these tests search; the deepest inhabitant, a
    Church numeral of 448 applications, is found, reads back and typechecks."""
    code, out = _run(capsys, ["search-false", ty, "--max-size", str(MAX_NESTING), "--json"])
    assert code == 0
    found = json.loads(out)["items"][0]["inhabitants"]
    if ty == CHURCH:
        assert len(found) == 449 and max(text.count("(app x0 ") for text in found) == 448
    for text in sorted(found, key=len)[-1:]:
        assert typecheck(parse_term(text, builtin_signature()), builtin_signature()) == parse_type(ty)


def test_search_false_refuses_a_size_over_the_nesting_limit(capsys, monkeypatch):
    """One node more is an argument error, exit 2, and no search runs."""
    monkeypatch.setattr(cli, "search_false", lambda *args: pytest.fail("the search ran"))
    assert main(["search-false", CHURCH, "--max-size", str(MAX_NESTING + 1)]) == 2
    assert f"--max-size: expected a positive integer up to {MAX_NESTING}, got '901'" in capsys.readouterr().err


def test_json_reports_parse(capsys, lex_path):
    code, out = _run(capsys, ["typecheck", lex_path, "barks", "--json"])
    payload = json.loads(out)
    assert code == 0 and payload["ok"] is True
    assert payload["items"][0]["type"] == "(-> e:dog t)"
    code, out = _run(capsys, ["normalize", lex_path, "(app barks rex)", "--json"])
    assert json.loads(out)["items"][0]["normal"] == "(app barks rex)"
    code, out = _run(capsys, ["search-false", "(all a (-> a a))", "--json"])
    payload = json.loads(out)
    assert payload["items"][0]["inhabitants"] == ["(tlam a0 (lam (x0 a0) x0))"]


def test_search_false_api():
    empty = search_false(9, parse_type("(all a a)"))
    assert empty == []
    identity = search_false(5, parse_type("(all a (-> a a))"))
    assert len(identity) == 1
    assert alpha_eq(identity[0], parse_term("(tlam a (lam (x a) x))", builtin_signature()))
    k = search_false(7, parse_type("(all a (all b (-> a (-> b a))))"))
    assert any(alpha_eq(t, parse_term("(tlam a (tlam b (lam (x a) (lam (y b) x))))",
                                      builtin_signature()))
               for t in k)
    # everything found inhabits the requested type
    sig = builtin_signature()
    for t in k:
        assert typecheck(t, sig) == parse_type("(all a (all b (-> a (-> b a))))")


# ---------------------------------------------------------------------------
# Text nested deeper than the reader's limit


def test_compose_deep_tree_is_an_input_error(capsys, lex_path, tmp_path):
    trees = tmp_path / "deep.txt"
    trees.write_text("(NODE (LEAF sleeps) " * 2999 + "(LEAF Rex)" + ")" * 2999 + "\n")
    assert main(["compose", lex_path, str(trees)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # the LEAF list of the 900th NODE is the 901st open list
    assert captured.err == f"error: 1:{899 * 20 + 7}: nesting deeper than 900\n"


def test_normalize_deep_term_reports_a_parse_error(capsys, lex_path):
    term = "(app (lam (x t) x) " * 1200 + "(app barks rex)" + ")" * 1200
    code, out = _run(capsys, ["normalize", lex_path, term])
    assert code == 1
    # the binder list of the 899th application is the 901st open list
    assert out == f"FAIL 1:{898 * 19 + 11}: nesting deeper than 900\n"


def test_every_subcommand_refuses_deep_text_with_its_exit_code(capsys, lex_path, trees_path, tmp_path):
    deep_type = "(-> t " * 1000 + "t" + ")" * 1000
    deep_lex = tmp_path / "deep.lex"
    deep_lex.write_text(f"const k : {deep_type}\n")
    error = "1:5401: nesting deeper than 900"
    in_lex = "1:5411: nesting deeper than 900"  # the type starts at column 11 of the lexicon line
    for argv, code, out, err in [
        (["lexicon", "check", str(deep_lex)], 1, f"{deep_lex}: FAIL (1 problem(s))\n  1:1: in const k: {in_lex}\n", ""),
        (["compose", str(deep_lex), trees_path], 2, "", f"error: 1:1: in const k: {in_lex}\n"),
        (["typecheck", lex_path, f"(lam (x {deep_type}) x)"], 1, "FAIL 1:5397: nesting deeper than 900\n", ""),
        (["search-false", deep_type], 2, "", f"error: {error}\n"),
    ]:
        assert main(argv) == code
        assert capsys.readouterr() == (out, err)
