"""Grammar, printing and alpha-equivalence."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polysem.errors import ParseError, UnknownConstant, UnknownSort
from polysem.lexicon import builtin_signature
from random_terms import TermGenerator, generate_corpus
from polysem.syntax import (
    PROP,
    Arrow,
    Forall,
    Lam,
    Signature,
    TyLam,
    TyVar,
    Var,
    alpha_eq,
    entity_sort,
    etype,
    parse_term,
    parse_type,
    print_term,
    print_type,
)

import random


# ---------------------------------------------------------------------------
# parse_type


def test_parse_prop():
    assert parse_type("t") == PROP


def test_parse_quantifier_type():
    ty = parse_type("(all a (-> (-> a t) t))")
    assert ty == Forall("a", Arrow(Arrow(TyVar("a"), PROP), PROP))


def test_parse_transfer_arrow():
    assert parse_type("(-> e:book e:phys)") == Arrow(etype("book"), etype("phys"))


def test_parse_type_errors():
    with pytest.raises(ParseError):
        parse_type("(-> t")
    with pytest.raises(ParseError):
        parse_type("(-> t t t)")
    err = pytest.raises(ParseError, parse_type, "(->\n  t)").value
    assert err.line >= 1
    with pytest.raises(UnknownSort):
        parse_type("e:martian", known_sorts=frozenset([entity_sort("dog")]))
    # without a sort table any entity name is accepted
    assert parse_type("e:martian") == etype("martian")


# ---------------------------------------------------------------------------
# parse_term


def test_parse_annotated_lambda(sig):
    term = parse_term("(lam (x e:ani) (app sleeps x))", sig)
    assert term == Lam("x", etype("ani"), App_(sig.const("sleeps"), Var("x")))


def App_(f, a):
    from polysem.syntax import App

    return App(f, a)


def test_parse_polymorphic_identity(sig):
    term = parse_term("(tlam a (lam (x a) x))", sig)
    assert term == TyLam("a", Lam("x", TyVar("a"), Var("x")))


def test_parse_and_term_shape():
    from polysem.lexicon import AND_SOURCE

    sig = builtin_signature()
    term = parse_term(AND_SOURCE, sig, allow_free=False)
    # six lambda-binders under two outer type binders plus one inner one
    binders = []
    t = term
    while isinstance(t, (Lam, TyLam)):
        binders.append(type(t).__name__)
        t = t.body
    assert binders == ["TyLam", "TyLam", "Lam", "Lam", "TyLam", "Lam", "Lam", "Lam"]


def test_unknown_constant_rejected(sig):
    with pytest.raises(UnknownConstant):
        parse_term("(app sleeps martian)", sig, allow_free=False)
    # free variables allowed when requested
    term = parse_term("martian", sig, allow_free=True)
    assert term == Var("martian")


# ---------------------------------------------------------------------------
# alpha-equivalence


def test_alpha_renaming():
    a = parse_term("(lam (x t) x)", Signature())
    b = parse_term("(lam (y t) y)", Signature())
    assert alpha_eq(a, b)
    assert a == b
    assert hash(a) == hash(b)


def test_alpha_type_renaming():
    assert alpha_eq(parse_type("(all a (-> a a))"), parse_type("(all b (-> b b))"))


def test_alpha_annotations_matter():
    a = parse_term("(lam (x e:dog) x)", Signature())
    b = parse_term("(lam (x e:phys) x)", Signature())
    assert not alpha_eq(a, b)


def test_alpha_free_variables_differ():
    assert not alpha_eq(Var("x"), Var("y"))


def _rename_binders(term, suffix):
    """A systematically renamed copy (test-local; exercises alpha_eq)."""
    from polysem import kernel
    from polysem.syntax import App, Lam, TyApp, TyLam

    match term:
        case Lam(b, ty, body):
            fresh = b + suffix
            body = kernel.substitute(body, b, Var(fresh))
            return Lam(fresh, ty, _rename_binders(body, suffix))
        case TyLam(b, body):
            fresh = b + suffix
            body = kernel.substitute_ty(body, b, TyVar(fresh))
            return TyLam(fresh, _rename_binders(body, suffix))
        case App(f, a):
            return App(_rename_binders(f, suffix), _rename_binders(a, suffix))
        case TyApp(f, t):
            return TyApp(_rename_binders(f, suffix), t)
        case _:
            return term


def test_alpha_implies_hash_equal(sig):
    rng = random.Random(19)
    gen = TermGenerator(sig, rng, use_inductives=False)
    for _ in range(40):
        m = gen.random_term(gen.random_type())
        n = _rename_binders(m, "_h")
        assert alpha_eq(m, n)
        assert hash(m) == hash(n)
        assert len({m, n}) == 1  # sets collapse alpha-equal terms


def test_alpha_equivalence_relation(sig):
    rng = random.Random(7)
    gen = TermGenerator(sig, rng, use_inductives=False)
    for _ in range(60):
        ty = gen.random_type()
        m = gen.random_term(ty)
        n = _rename_binders(m, "_r")
        k = _rename_binders(n, "_s")
        assert alpha_eq(m, m)
        assert alpha_eq(m, n) and alpha_eq(n, m)
        assert alpha_eq(m, n) and alpha_eq(n, k) and alpha_eq(m, k)


# ---------------------------------------------------------------------------
# print/parse round trip: 1000 randomly generated types and terms


def test_roundtrip_1000_random(sig):
    rng = random.Random(2024)
    gen = TermGenerator(sig, rng, use_inductives=False)
    for i in range(500):
        ty = gen.random_type()
        assert parse_type(print_type(ty)) == ty
    terms, gsig = generate_corpus(sig, seed=2025, count=500, use_inductives=False)
    for m in terms:
        assert parse_term(print_term(m), gsig) == m


# hypothesis strategies over the raw AST (shrinkable counterexamples)

_sorts = st.sampled_from([PROP, etype("dog"), etype("phys")])
_tyvars = st.sampled_from(["a", "b", "c"])

types_strategy = st.recursive(
    st.one_of(_sorts.map(lambda s: s), _tyvars.map(TyVar)),
    lambda sub: st.one_of(
        st.builds(Arrow, sub, sub),
        st.builds(Forall, _tyvars, sub),
    ),
    max_leaves=12,
)


@given(types_strategy)
@settings(max_examples=200)
def test_roundtrip_types_hypothesis(ty):
    assert parse_type(print_type(ty)) == ty


_names = st.sampled_from(["x", "y", "z"])

terms_strategy = st.recursive(
    _names.map(Var),
    lambda sub: st.one_of(
        st.builds(lambda b, t, m: Lam(b, t, m), _names, types_strategy, sub),
        st.builds(App_, sub, sub),
        st.builds(lambda b, m: TyLam(b, m), _tyvars, sub),
    ),
    max_leaves=12,
)


@given(terms_strategy)
@settings(max_examples=200)
def test_roundtrip_terms_hypothesis(term):
    assert parse_term(print_term(term), Signature()) == term
