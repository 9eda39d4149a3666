"""Command-line behavior: outputs, exit codes, determinism."""

import json

import pytest

from polysem.cli import main, search_false
from polysem.kernel import typecheck
from polysem.lexicon import builtin_signature
from polysem.syntax import alpha_eq, parse_term, parse_type


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
