"""The canonical-form pass behind eta_expand and extract_formula, checked
against the walks it replaced: a typecheck and an eta-walk in eta_expand; a
free-variable walk, a typecheck, a beta-normality search, a second eta-walk
and a reader in extract_formula."""

import sys

import pytest

from polysem.composer import compose, parse_tree, parse_trees
from polysem.errors import NotNormal, NotPropType, PolysemError, TypeMismatch, UnexpectedHead
from polysem.hol import (
    Atom,
    Conn,
    ConstApp,
    Embed,
    HAbs,
    HTyAbs,
    HVar,
    Hilbert,
    Quant,
    extract_formula,
    print_formula,
)
from polysem.inductives import numeral, register_finset, register_nat
from polysem.kernel import (
    EMPTY_CONTEXT,
    NormalForm,
    eta_expand,
    is_beta_normal,
    normalize,
    subst_type,
    typecheck,
)
from polysem.lexicon import builtin_signature, load_lexicon
from random_terms import generate_corpus
from polysem.syntax import (
    PROP,
    App,
    Arrow,
    Const,
    Forall,
    Lam,
    TyApp,
    TyLam,
    TyVar,
    Type,
    Var,
    entity_sort,
    etype,
    free_tyvars_in_term,
    free_vars,
    fresh_name,
    parse_term,
    print_term,
    print_type,
    spine,
    spine_nodes,
)

from conftest import within_stack
from test_composer import ORACLE_LEXICON, ORACLE_TREES
from test_hol import EXTRACT_VERDICTS


# ---------------------------------------------------------------------------
# The replaced code, copied as it stood before the canonical-form pass


def _reference_eta_expand(term, sig, ctx=EMPTY_CONTEXT):
    return NormalForm(_reference_eta(term, typecheck(term, sig, ctx), sig, ctx))


def _reference_eta(term, ty, sig, ctx):
    match ty:
        case Arrow(dom, cod):
            if isinstance(term, Lam):
                inner = ctx.bind(term.binder, term.binder_type)
                body = _reference_eta(term.body, cod, sig, inner)
                return term if body is term.body else Lam(term.binder, term.binder_type, body)
            x = fresh_name("x", free_vars(term) | set(ctx.term_vars))
            inner = ctx.bind(x, dom)
            return Lam(x, dom, _reference_eta(App(term, Var(x)), cod, sig, inner))
        case Forall(binder, body_ty):
            if isinstance(term, TyLam):
                a = term.binder
                inner = ctx.bind_ty(a)
                body = _reference_eta(term.body, subst_type(body_ty, binder, TyVar(a)), sig, inner)
                return term if body is term.body else TyLam(a, body)
            a = fresh_name(binder, free_tyvars_in_term(term) | ctx.ty_vars)
            inner = ctx.bind_ty(a)
            return TyLam(a, _reference_eta(TyApp(term, TyVar(a)), subst_type(body_ty, binder, TyVar(a)),
                                           sig, inner))
        case _:
            return _reference_eta_spine(term, sig, ctx)


def _reference_eta_spine(term, sig, ctx):
    head, nodes = spine_nodes(term)
    match head:
        case Var(name):
            head_ty = ctx.term_vars[name]
        case Const(_, declared):
            head_ty = declared
        case _:
            raise TypeMismatch("a neutral spine head", head, ())
    out, cur = head, head_ty
    for n in nodes:
        if isinstance(n, TyApp):
            out = n if out is n.fn else TyApp(out, n.ty_arg)
            cur = subst_type(cur.body, cur.binder, n.ty_arg)
        else:
            arg = _reference_eta(n.arg, cur.domain, sig, ctx)
            out = n if out is n.fn and arg is n.arg else App(out, arg)
            cur = cur.codomain
    return out


_CONN = {"∧": "and", "¬": "not", "⊃": "implies"}
_QUANT = {"∀": "forall", "∃": "exists"}
_HILBERT = {"ε": "epsilon", "τ": "tau"}


def _reference_extract_formula(m, sig):
    term = m.term if isinstance(m, NormalForm) else m
    if free_vars(term):
        raise NotNormal(f"term is not closed: free {sorted(free_vars(term))}")
    ty = typecheck(term, sig, EMPTY_CONTEXT)
    if ty != PROP:
        raise NotPropType(f"term has type {print_type(ty)}, not t")
    if not is_beta_normal(term, sig):
        raise NotNormal("term is not beta-normal")
    if _reference_eta(term, ty, sig, EMPTY_CONTEXT) != term:
        raise NotNormal("term is not eta-long")
    return _reference_read_formula(term)


def _reference_read_formula(term):
    head, elims = spine(term)
    if isinstance(head, Var):
        raise UnexpectedHead(f"variable-headed spine: {head.name}")
    if head.name in _CONN:
        return Conn(_CONN[head.name], tuple(_reference_read_formula(e) for e in elims))
    if head.name in _QUANT:
        ty_arg, scope = elims
        return Quant(_QUANT[head.name], scope.binder, ty_arg, _reference_read_formula(scope.body))
    return Atom(head.name, head.declared_type, *_reference_read_const_args(head.declared_type, elims))


def _reference_read_const_args(declared, elims):
    ty_args, args, cur = [], [], declared
    for e in elims:
        if isinstance(e, Type):
            ty_args.append(e)
            cur = subst_type(cur.body, cur.binder, e)
        else:
            args.append(_reference_read_holterm(e, cur.domain))
            cur = cur.codomain
    return tuple(ty_args), tuple(args)


def _reference_read_holterm(term, expected):
    if expected == PROP:
        return Embed(_reference_read_formula(term))
    match expected:
        case Arrow(dom, cod):
            return HAbs(term.binder, dom, _reference_read_at(term.body, cod))
        case Forall(binder, body_ty):
            inner_ty = subst_type(body_ty, binder, TyVar(term.binder))
            return HTyAbs(term.binder, _reference_read_at(term.body, inner_ty))
    head, elims = spine(term)
    if isinstance(head, Var):
        if elims:
            raise UnexpectedHead(f"variable-headed spine: {head.name}")
        return HVar(head.name, expected)
    if head.name in _HILBERT:
        if len(elims) != 2:
            raise NotNormal(f"{head.name} must be type-instantiated and applied once")
        ty_arg, scope = elims
        return Hilbert(_HILBERT[head.name], scope.binder, ty_arg, _reference_read_formula(scope.body))
    return ConstApp(head.name, head.declared_type, *_reference_read_const_args(head.declared_type, elims))


def _reference_read_at(term, expected):
    if expected == PROP:
        return _reference_read_formula(term)
    return _reference_read_holterm(term, expected)


# ---------------------------------------------------------------------------
# Differential tests


def _outcome(fn, term, sig):
    try:
        return fn(term, sig)
    except PolysemError as e:
        return type(e), str(e)


def _same_eta(term, sig):
    """eta_expand agrees with the reference; the reference's result."""
    ref = _outcome(_reference_eta_expand, term, sig)
    for _ in range(2):  # the second time from what the first remembered
        new = _outcome(eta_expand, term, sig)
        if isinstance(ref, tuple):
            assert new == ref, print_term(term)
        elif ref.term is term:
            assert new.term is term, print_term(term)
        else:
            assert print_term(new.term) == print_term(ref.term), print_term(term)
    return ref


def _same_formula(term, sig):
    """extract_formula agrees with the reference; "formula" or the error class."""
    ref = _outcome(_reference_extract_formula, term, sig)
    for _ in range(2):
        new = _outcome(extract_formula, term, sig)
        if isinstance(ref, tuple):
            assert new == ref, print_term(term)
        else:
            assert (repr(new), print_formula(new)) == (repr(ref), print_formula(ref)), print_term(term)
    return ref[0].__name__ if isinstance(ref, tuple) else "formula"


def _same_on_readings(lex, trees):
    kinds = {}
    for tree in trees:
        for a in compose(tree, lex):
            if a.result_type == PROP:
                for term in (a.term, a.normal_term, _same_eta(a.normal_term, lex.signature).term):
                    kind = _same_formula(term, lex.signature)
                    kinds[kind] = kinds.get(kind, 0) + 1
    return kinds


def test_fixture_and_oracle_readings_match_reference(lex, fixture_dir):
    kinds = _same_on_readings(lex, parse_trees((fixture_dir / "trees.txt").read_text()))
    kinds_oracle = _same_on_readings(load_lexicon(ORACLE_LEXICON), [parse_tree(t) for t in ORACLE_TREES])
    assert kinds["formula"] >= 6 and kinds_oracle["formula"] >= 20
    assert kinds_oracle["NotNormal"] > 0  # the composed terms before normalising


def test_extract_verdict_terms_match_reference(lex):
    sig = register_nat(lex.signature)
    sig = sig.extend(constants={"even": Arrow(etype("nat"), PROP),
                                "every_dog": Arrow(Arrow(etype("dog"), PROP), PROP)})
    for text, error, message in EXTRACT_VERDICTS.values():
        term = parse_term(text, sig)
        _same_eta(term, sig)
        assert _same_formula(term, sig) == error.__name__


def test_refusal_order_and_shared_nodes_match_reference(lex):
    dog, cat = etype("dog"), etype("cat")
    sig = lex.signature.extend(sorts=[entity_sort("cat")],
                               constants={"purrs": Arrow(cat, PROP), "tom": cat})
    # two refusals, one inside the other: the outer one is reported
    nested = [
        "(app (tapp ∀ (-> e:dog t)) (lam (P (-> e:dog t)) (app (tapp ∀ (-> e:dog e:dog))"
        " (lam (f (-> e:dog e:dog)) (app P (app f rex))))))",
        "(app (tapp ∀ (-> e:dog e:dog)) (lam (f (-> e:dog e:dog)) (app barks (app f"
        " (app (app (tapp ε (-> e:dog e:dog)) (lam (g (-> e:dog e:dog)) (app barks (app g rex)))) rex)))))",
    ]
    for text in nested:
        assert _same_formula(parse_term(text, sig), sig) == "UnexpectedHead"
    # one variable node under two binders of different sorts reads in each scope
    x = Var("x")
    both = App(App(sig.const("∧"), App(TyApp(sig.const("∀"), dog), Lam("x", dog, App(sig.const("barks"), x)))),
               App(TyApp(sig.const("∃"), cat), Lam("x", cat, App(sig.const("purrs"), x))))
    assert _same_formula(both, sig) == "formula"
    # a closed node shared by two readings
    atom = App(sig.const("purrs"), sig.const("tom"))
    for term in (App(App(sig.const("∧"), atom), atom), App(sig.const("¬"), atom)):
        assert _same_formula(term, sig) == "formula"


def _probe_forms(seed, count):
    """Generated closed terms, raw, normalised and eta-expanded, each of a
    type other than t applied to a predicate constant of its own."""
    base = register_finset(register_nat(builtin_signature()))
    base = base.extend(sorts=[entity_sort(s) for s in ("dog", "phys", "book")])
    terms, gsig = generate_corpus(base, seed=seed, count=count, use_inductives=True)
    forms = []
    for term in terms:
        normal = normalize(term, gsig).term
        forms += [term, normal, _reference_eta_expand(normal, gsig).term]
    types = [typecheck(form, gsig) for form in forms]
    preds = {}
    for ty in types:
        if ty != PROP and ty not in preds:
            preds[ty] = Const(f"pred{len(preds)}", Arrow(ty, PROP))
    sig = gsig.extend(constants={c.name: c.declared_type for c in preds.values()})
    return sig, [(form, form if ty == PROP else App(preds[ty], form)) for form, ty in zip(forms, types)]


def test_generated_probes_match_reference():
    kinds = {}
    for seed in range(30):
        sig, probes = _probe_forms(seed, 60)
        for form, wrapped in probes:
            _same_eta(form, sig)
            kind = _same_formula(wrapped, sig)
            kinds[kind] = kinds.get(kind, 0) + 1
    # raw terms carry planted redexes; normal forms of arrow type are not all eta-long
    assert kinds["formula"] > 3000 and kinds["NotNormal"] > 1000 and kinds["UnexpectedHead"] > 10


# ---------------------------------------------------------------------------
# Depth: the pass takes no more stack per nesting level than the walks it replaced


def _chain(sig, n):
    """(barks rex) ∧ ∀x0:dog. ((barks rex) ∧ ∀x1:dog. ...), n levels deep."""
    atom, dog = App(sig.const("barks"), sig.const("rex")), etype("dog")
    term = atom
    for i in range(n):
        term = App(App(sig.const("∧"), atom), App(TyApp(sig.const("∀"), dog), Lam(f"x{i}", dog, term)))
    return term


@pytest.mark.parametrize("shape", ["chain", "numeral"])
def test_deep_terms_within_the_default_recursion_limit(lex, shape):
    # both depths are handled by the replaced walks at the default limit
    assert sys.getrecursionlimit() == 1000
    if shape == "chain":
        sig, build = lex.signature, lambda: _chain(lex.signature, 160)
    else:
        sig = register_nat(lex.signature).extend(constants={"even": Arrow(etype("nat"), PROP)})
        build = lambda: App(sig.const("even"), numeral(420))  # noqa: E731

    def walks():
        expected = _reference_extract_formula(_reference_eta_expand(build(), sig), sig)
        term = build()
        assert eta_expand(term, sig).term is term
        return expected, [extract_formula(term, sig), extract_formula(build(), sig)]  # the second without eta_expand

    expected, got = within_stack(walks)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(4 * limit)  # for comparing the deep formulas only
    try:
        assert got == [expected, expected]
    finally:
        sys.setrecursionlimit(limit)
