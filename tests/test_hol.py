"""Formula extraction, classification and printing."""

import random

import pytest

from polysem.composer import compose, parse_tree
from polysem.errors import ExtractError, NotNormal, NotPropType, ParseError, UnexpectedHead
from polysem.hol import (
    Atom,
    Conn,
    Hilbert,
    HVar,
    LogicProfile,
    Quant,
    SEXPR,
    UNICODE,
    classify,
    extract_formula,
    formula_to_term,
    parse_formula,
    print_formula,
    type_order,
)
from polysem import hol, kernel
from polysem.inductives import register_nat
from polysem.kernel import eta_expand, is_beta_normal, typecheck
from polysem.syntax import (
    MAX_NESTING,
    Arrow,
    PROP,
    alpha_eq,
    etype,
    parse_term,
    parse_type,
)

from conftest import within_stack
from formula_gen import random_formula, with_formula_arguments


def _book_formula(lex):
    tree = parse_tree(
        "(NODE (NODE (NODE (LEAF and) (LEAF heavy)) (LEAF interesting)) (LEAF book))"
    )
    [analysis] = compose(tree, lex)
    nf = eta_expand(analysis.normal_term, lex.signature)
    return extract_formula(nf, lex.signature)


# ---------------------------------------------------------------------------
# extraction


def test_extract_book_formula(lex):
    f = _book_formula(lex)
    assert isinstance(f, Conn) and f.conn == "and"
    left, right = f.args
    assert isinstance(left, Atom) and left.pred == "heavy"
    assert isinstance(right, Atom) and right.pred == "interesting"
    assert print_formula(f, SEXPR) == "(and (heavy (g0 b)) (interesting (f0 b)))"


def test_extract_quantifier(lex):
    term = parse_term("(app (tapp ∀ e:dog) (lam (x e:dog) (app barks x)))", lex.signature)
    f = extract_formula(term, lex.signature)
    assert f == Quant("forall", "x", etype("dog"), Atom("barks", Arrow(etype("dog"), PROP), (), (HVar("x", etype("dog")),)))


def test_extract_hilbert_epsilon(lex):
    # an atom over a choice term: barks(eps x:dog. dog?(x))
    term = parse_term(
        "(app barks (app (tapp ε e:dog) (lam (x e:dog) (app dog? x))))", lex.signature
    )
    f = extract_formula(term, lex.signature)
    assert isinstance(f, Atom) and f.pred == "barks"
    [arg] = f.args
    assert isinstance(arg, Hilbert) and arg.kind == "epsilon"
    assert arg.sort_type == etype("dog")
    assert print_formula(f, SEXPR) == "(barks (eps (x e:dog) (dog? x)))"


def test_extract_rejects_non_prop(lex):
    with pytest.raises(NotPropType):
        extract_formula(lex.signature.const("b"), lex.signature)


def test_extract_rejects_redex(lex):
    term = parse_term("(app (lam (x t) x) (app barks rex))", lex.signature)
    with pytest.raises(NotNormal):
        extract_formula(term, lex.signature)


def test_extract_rejects_missing_abstraction(lex):
    # beta-normal and of type t, but the quantifier's scope is not a lambda:
    # the eta-long check rejects it before the reader sees it
    term = parse_term("(app (tapp ∀ e:dog) barks)", lex.signature)
    assert is_beta_normal(term, lex.signature)
    with pytest.raises(NotNormal, match="^term is not eta-long$"):
        extract_formula(term, lex.signature)


def test_extract_typechecks_once(lex, monkeypatch):
    # only outermost calls count: typecheck's own recursion passes a path
    outermost = []
    real = kernel.typecheck

    def counted(term, sig, ctx=kernel.EMPTY_CONTEXT, path=()):
        if not path:
            outermost.append(term)
        return real(term, sig, ctx, path)

    monkeypatch.setattr(kernel, "typecheck", counted)
    monkeypatch.setattr(hol, "typecheck", counted)
    term = parse_term("(app (tapp ∀ e:dog) (lam (x e:dog) (app barks x)))", lex.signature)
    extract_formula(term, lex.signature)
    assert len(outermost) == 1


def test_extract_rejects_variable_head(lex):
    # a variable-headed spine under a quantifier over a predicate type
    term = parse_term(
        "(app (tapp ∀ (-> e:dog t)) (lam (P (-> e:dog t))"
        " (app (tapp ∀ e:dog) (lam (x e:dog) (app P x)))))",
        lex.signature,
    )
    with pytest.raises(UnexpectedHead):
        extract_formula(term, lex.signature)


_ZERO_REDEX = ("(app (app (app (tapp RecN e:nat) Zero)"
               " (lam (k e:nat) (lam (a e:nat) (app Succ a)))) Zero)")

# extract_formula's verdict on each way a term can fall outside the forms the
# reader walks; the checks run in the order closed, typed, t, beta, eta
EXTRACT_VERDICTS = {
    "free-variable": ("(app barks x)", NotNormal, "term is not closed: free ['x']"),
    "not-of-type-t": ("(lam (x e:dog) (app barks x))", NotPropType,
                      "term has type (-> e:dog t), not t"),
    "beta-redex": ("(app (lam (x t) x) (app barks rex))", NotNormal, "term is not beta-normal"),
    "type-beta-redex": ("(app (tapp (tlam a barks) e:dog) rex)", NotNormal,
                        "term is not beta-normal"),
    "recursor-redex-in-argument": (f"(app even {_ZERO_REDEX})", NotNormal,
                                   "term is not beta-normal"),
    "quantifier-scope-not-a-lambda": ("(app (tapp ∀ e:dog) barks)", NotNormal,
                                      "term is not eta-long"),
    "choice-scope-not-a-lambda": ("(app barks (app (tapp ε e:dog) dog?))", NotNormal,
                                  "term is not eta-long"),
    "predicate-argument-not-expanded": ("(app every_dog barks)", NotNormal, "term is not eta-long"),
    "neither-beta-normal-nor-eta-long": (
        "(app (tapp ∀ e:dog) (app (lam (P (-> e:dog t)) P) barks))", NotNormal,
        "term is not beta-normal"),
    "variable-headed-spine": (
        "(app (tapp ∀ (-> e:dog t)) (lam (P (-> e:dog t))"
        " (app (tapp ∀ e:dog) (lam (x e:dog) (app P x)))))",
        UnexpectedHead, "variable-headed spine: P"),
    "variable-headed-term": (
        "(app (tapp ∀ (-> e:dog e:dog)) (lam (f (-> e:dog e:dog)) (app barks (app f rex))))",
        UnexpectedHead, "variable-headed spine: f"),
    # canonical, but a choice term applied further is not read as one
    "choice-term-applied-further": (
        "(app barks (app (app (tapp ε (-> e:dog e:dog))"
        " (lam (f (-> e:dog e:dog)) (app barks rex))) rex))",
        NotNormal, "ε must be type-instantiated and applied once"),
}


@pytest.fixture(scope="module")
def verdict_sig(lex):
    sig = register_nat(lex.signature)
    return sig.extend(constants={"even": parse_type("(-> e:nat t)", sig.sorts),
                                 "every_dog": parse_type("(-> (-> e:dog t) t)", sig.sorts)})


@pytest.mark.parametrize("name", EXTRACT_VERDICTS)
def test_extract_verdicts(verdict_sig, name):
    text, error, message = EXTRACT_VERDICTS[name]
    with pytest.raises(ExtractError) as info:
        extract_formula(parse_term(text, verdict_sig), verdict_sig)
    assert (type(info.value), str(info.value)) == (error, message)


# ---------------------------------------------------------------------------
# read-back round trip


def test_readback_book(lex):
    tree = parse_tree(
        "(NODE (NODE (NODE (LEAF and) (LEAF heavy)) (LEAF interesting)) (LEAF book))"
    )
    [analysis] = compose(tree, lex)
    nf = eta_expand(analysis.normal_term, lex.signature).term
    f = extract_formula(nf, lex.signature)
    assert alpha_eq(formula_to_term(f, lex.signature), nf)


def test_readback_random_formulas(lex):
    rng, sig = random.Random(101), with_formula_arguments(lex.signature)
    for _ in range(100):
        f = random_formula(rng, sig)
        term = formula_to_term(f, sig)
        assert typecheck(term, sig) == PROP
        again = extract_formula(term, sig)
        assert again == f
        assert alpha_eq(formula_to_term(again, sig), term)


# ---------------------------------------------------------------------------
# classification


def test_classify_book_first_order(lex):
    profile = classify(_book_formula(lex))
    assert profile == LogicProfile(order=1, sorts=3)


def test_classify_quantifier_over_individuals(lex):
    term = parse_term("(app (tapp ∀ e:dog) (lam (x e:dog) (app barks x)))", lex.signature)
    assert classify(extract_formula(term, lex.signature)).order == 1


def test_classify_second_order(lex):
    # quantifying over dog -> t: typeOrder(dog -> t) = max(1+1, 1) = 2
    term = parse_term(
        "(app (tapp ∀ (-> e:dog t)) (lam (P (-> e:dog t))"
        " (app (tapp ∀ e:dog) (lam (x e:dog) (app barks x)))))",
        lex.signature,
    )
    f = extract_formula(term, lex.signature)
    assert classify(f).order == 2


def test_type_order_definition():
    assert type_order(etype("dog")) == 1
    assert type_order(parse_type("(-> e:dog t)")) == 2
    assert type_order(parse_type("(-> (-> e:dog t) t)")) == 3
    assert type_order(parse_type("(-> e:dog (-> e:dog t))")) == 2


def test_classify_alpha_invariant(lex):
    a = parse_term("(app (tapp ∀ e:dog) (lam (x e:dog) (app barks x)))", lex.signature)
    b = parse_term("(app (tapp ∀ e:dog) (lam (y e:dog) (app barks y)))", lex.signature)
    assert classify(extract_formula(a, lex.signature)) == classify(extract_formula(b, lex.signature))


def test_classify_ignores_conjunct_internal_names(lex):
    a = parse_term(
        "(app (app ∧ (app (tapp ∃ e:dog) (lam (x e:dog) (app barks x))))"
        " (app (tapp ∀ e:dog) (lam (x e:dog) (app dog? x))))",
        lex.signature,
    )
    b = parse_term(
        "(app (app ∧ (app (tapp ∃ e:dog) (lam (u e:dog) (app barks u))))"
        " (app (tapp ∀ e:dog) (lam (w e:dog) (app dog? w))))",
        lex.signature,
    )
    assert classify(extract_formula(a, lex.signature)) == \
        classify(extract_formula(b, lex.signature))


def test_classify_sort_count(lex):
    # quantifier-free atom chain over {book, phys}: q = 2
    term = parse_term("(app heavy (app g0 b))", lex.signature)
    assert classify(extract_formula(term, lex.signature)) == LogicProfile(order=1, sorts=2)


# ---------------------------------------------------------------------------
# printing


def test_print_unicode_quantifier(lex):
    term = parse_term("(app (tapp ∀ e:dog) (lam (x e:dog) (app barks x)))", lex.signature)
    f = extract_formula(term, lex.signature)
    assert print_formula(f, UNICODE) == "∀x:dog. barks(x)"


def test_print_unicode_connectives(lex):
    f = _book_formula(lex)
    assert print_formula(f, UNICODE) == "heavy(g0(b)) ∧ interesting(f0(b))"


def test_print_atom_without_args(lex):
    sig = lex.signature.extend(constants={"raining": PROP})
    f = Atom("raining", PROP, (), ())
    assert print_formula(f, SEXPR) == "raining"
    assert parse_formula("raining", sig) == f


def test_sexpr_roundtrip_golden(lex):
    text = "(and (heavy (g0 b)) (interesting (f0 b)))"
    f = parse_formula(text, lex.signature)
    assert print_formula(f, SEXPR) == text
    assert f == _book_formula(lex)


@pytest.mark.parametrize("text", ["(lam x)", "(lam (x) y)", "(lam (x e:dog))",
                                  "(lam (x e:dog) (barks x) rex)", "(tlam)", "(tlam a)",
                                  "(tlam (a) (barks rex))", "(forall x (barks x))"])
def test_parse_formula_malformed_binders(lex, text):
    with pytest.raises(ParseError):
        parse_formula(text, lex.signature)


def test_sexpr_roundtrip_random(lex):
    rng, sig = random.Random(7), with_formula_arguments(lex.signature)
    for _ in range(100):
        f = random_formula(rng, sig)
        assert parse_formula(print_formula(f, SEXPR), sig) == f


@pytest.mark.parametrize("text", ["(believes (barks rex))", "(barks (dogOf (barks rex)))",
                                  "(believes (not (believes rex_barks)))"])
def test_a_formula_argument_reads_back_embedded(lex, text):
    # parse_formula embeds a formula in an argument of type t, as extraction does
    sig = lex.signature.extend(constants={"believes": parse_type("(-> t t)"), "rex_barks": PROP,
                                          "dogOf": parse_type("(-> t e:dog)", lex.signature.sorts)})
    term = parse_term(text.replace("(", "(app ").replace("app not", "app ¬"), sig)
    f = extract_formula(term, sig)
    assert print_formula(f, SEXPR) == text
    assert parse_formula(text, sig) == f
    assert formula_to_term(parse_formula(text, sig), sig) == formula_to_term(f, sig)


def test_shadowed_quantifier_variables(lex):
    term = parse_term(
        "(app (tapp ∀ e:dog) (lam (x e:dog)"
        " (app (tapp ∃ e:dog) (lam (x e:dog) (app barks x)))))",
        lex.signature,
    )
    f = extract_formula(term, lex.signature)
    inner = f.body
    assert isinstance(f, Quant) and isinstance(inner, Quant)
    assert print_formula(f, SEXPR) == \
        "(forall (x e:dog) (exists (x e:dog) (barks x)))"
    assert alpha_eq(formula_to_term(f, lex.signature), term)
    assert parse_formula(print_formula(f, SEXPR), lex.signature) == f


@pytest.mark.parametrize("outer", ["(not ", "(and (barks rex) "])
def test_formula_nested_at_the_limit_reads_back_as_a_term(lex, outer):
    # one frame a level: a list comprehension took a second one on Python 3.11
    n = MAX_NESTING - 1
    formula = parse_formula(outer * n + "(barks rex)" + ")" * n, lex.signature)
    term = within_stack(formula_to_term, formula, lex.signature)
    one = formula_to_term(parse_formula(outer + "(barks rex))", lex.signature), lex.signature)
    for _ in range(n):
        assert term.fn == one.fn
        term = term.arg
    assert term == one.arg


# ---------------------------------------------------------------------------
# less common atom shapes


def test_polymorphic_predicate_atom(lex):
    sig = lex.signature.extend(constants={"eqp": parse_type("(all a (-> a (-> a t)))")})
    term = parse_term("(app (app (tapp eqp e:dog) rex) rex)", sig)
    f = extract_formula(term, sig)
    assert isinstance(f, Atom) and f.pred == "eqp"
    assert f.ty_args == (etype("dog"),)
    text = print_formula(f, SEXPR)
    assert text == "(eqp e:dog rex rex)"
    assert parse_formula(text, sig) == f
    assert alpha_eq(formula_to_term(f, sig), term)


def test_functional_atom_argument(lex):
    # a generalized-determiner-shaped constant takes two predicates; the
    # eta-long arguments read back as abstractions
    sig = lex.signature.extend(
        constants={"most": parse_type("(-> (-> e:dog t) (-> (-> e:dog t) t))")}
    )
    term = parse_term(
        "(app (app most (lam (x e:dog) (app dog? x))) (lam (x e:dog) (app barks x)))",
        sig,
    )
    f = extract_formula(term, sig)
    assert isinstance(f, Atom) and f.pred == "most"
    assert print_formula(f, SEXPR) == \
        "(most (lam (x e:dog) (dog? x)) (lam (x e:dog) (barks x)))"
    assert alpha_eq(formula_to_term(f, sig), term)
    assert parse_formula(print_formula(f, SEXPR), sig) == f
