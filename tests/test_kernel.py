"""Typing, substitution, reduction and eta-long forms."""

import gc
import sys
import weakref
from dataclasses import replace

import pytest

from polysem import kernel
from polysem.errors import FuelExhausted, TypeCheckError, TypeMismatch, UnboundVariable
from polysem.kernel import (
    EMPTY_CONTEXT,
    LEFTMOST_OUTERMOST,
    RIGHTMOST_INNERMOST,
    eta_expand,
    expand_definitions,
    is_beta_normal,
    match_type,
    normalize,
    reduce_once,
    subst_type,
    substitute,
    substitute_ty,
    typecheck,
)
from polysem.lexicon import AND_SOURCE, builtin_signature, load_lexicon
from random_terms import generate_corpus
from polysem.inductives import NAT, numeral, register_finset, register_nat
from polysem.syntax import (
    App,
    Arrow,
    Const,
    Forall,
    Lam,
    PROP,
    Term,
    TyApp,
    TyLam,
    TyVar,
    Type,
    Var,
    alpha_eq,
    entity_sort,
    etype,
    fresh_name,
    free_tyvars,
    free_tyvars_in_term,
    free_vars,
    parse_term,
    parse_type,
    print_term,
    spine,
)

import reference_syntax
from polysem.composer import compose, parse_tree
from test_composer import RECURSOR_CORPUS, _recursor_signature
from test_reader import load_workloads


def is_eta_long(term: Term, sig, ctx=EMPTY_CONTEXT) -> bool:
    """A well-typed, beta-normal term is eta-long when eta-expansion leaves
    it unchanged."""
    try:
        return eta_expand(term, sig, ctx).term == term
    except TypeCheckError:
        return False


# ---------------------------------------------------------------------------
# typecheck


def test_and_term_type(sig):
    term = parse_term(AND_SOURCE, sig, allow_free=False)
    expected = parse_type(
        "(all a (all b (-> (-> a t) (-> (-> b t)"
        " (all c (-> c (-> (-> c a) (-> (-> c b) t))))))))"
    )
    assert typecheck(term, sig) == expected


def test_identity_type(sig):
    term = parse_term("(tlam a (lam (x a) x))", sig)
    assert typecheck(term, sig) == parse_type("(all a (-> a a))")


def test_selectional_mismatch(sig):
    bad = parse_term("(app barks chairObj)", sig)
    with pytest.raises(TypeMismatch) as exc:
        typecheck(bad, sig)
    assert exc.value.expected == etype("dog")
    assert exc.value.found == etype("chair")
    assert exc.value.path  # a path into the term is reported


def test_unbound_variable(sig):
    with pytest.raises(UnboundVariable):
        typecheck(Var("nosuch"), sig)


def test_type_uniqueness(sig):
    terms, gsig = generate_corpus(sig, seed=11, count=120, use_inductives=False)
    for m in terms:
        assert typecheck(m, gsig) == typecheck(m, gsig)


def test_shadowed_type_binder(sig):
    term = parse_term("(tlam a (tlam a (lam (x a) x)))", sig)
    ty = typecheck(term, sig)
    assert ty == parse_type("(all a (all b (-> b b)))")
    assert ty != parse_type("(all a (all b (-> a a)))")


# ---------------------------------------------------------------------------
# substitution


def test_subst_bound_variable_untouched():
    body = Lam("x", PROP, Var("x"))
    assert substitute(body, "x", Var("c")) == body


def test_subst_direct_replacement():
    m = App(Var("P"), Var("x"))
    out = substitute(m, "x", App(Var("f"), Var("y")))
    assert out == App(Var("P"), App(Var("f"), Var("y")))


def test_subst_capture_avoidance():
    # (lam (y t) x)[x := y] must freshen the binder, yielding lam y'. y
    m = Lam("y", PROP, Var("x"))
    out = substitute(m, "x", Var("y"))
    assert isinstance(out, Lam)
    assert out.binder != "y"
    assert out.body == Var("y")
    assert alpha_eq(out, Lam("z", PROP, Var("y")))


def test_subst_ty_capture_avoidance():
    # (tlam b (lam (x a) x))[a := b] must freshen the type binder
    m = TyLam("b", Lam("x", TyVar("a"), Var("x")))
    out = substitute_ty(m, "a", TyVar("b"))
    assert isinstance(out, TyLam)
    assert out.binder != "b"
    assert alpha_eq(out, TyLam("c", Lam("x", TyVar("b"), Var("x"))))


def test_subst_preserves_typing(sig):
    terms, gsig = generate_corpus(sig, seed=5, count=80, use_inductives=False)
    # substituting a closed constant for a fresh free variable is type-neutral
    for m in terms:
        ty = typecheck(m, gsig)
        assert typecheck(substitute(m, "unused", Var("x")), gsig) == ty


def _reference_substitute(term: Term, var: str, replacement: Term) -> Term:
    """The substitution that walked free_vars(body) under every binder, kept
    as the oracle for the one that finds it out from the recursive result."""
    fv = None  # computed lazily; replacement is often closed

    def go(t: Term) -> Term:
        nonlocal fv
        match t:
            case Var(name):
                return replacement if name == var else t
            case Const():
                return t
            case Lam(binder, binder_type, body):
                if binder == var:
                    return t
                if var not in free_vars(body):
                    return t
                if fv is None:
                    fv = free_vars(replacement)
                if binder in fv:
                    fresh = fresh_name(binder, fv | free_vars(body) | {var})
                    body = _reference_substitute(body, binder, Var(fresh))
                    binder = fresh
                return Lam(binder, binder_type, go(body))
            case App(fn, arg):
                return App(go(fn), go(arg))
            case TyLam(binder, body):
                if var not in free_vars(body):
                    return t
                if fv is None:
                    fv = free_vars(replacement)
                ftv = free_tyvars_in_term(replacement)
                if binder in ftv:
                    fresh = fresh_name(binder, ftv | free_tyvars_in_term(body))
                    body = substitute_ty(body, binder, TyVar(fresh))
                    binder = fresh
                return TyLam(binder, go(body))
            case TyApp(fn, ty_arg):
                return TyApp(go(fn), ty_arg)
        raise TypeError(f"not a Term: {t!r}")

    out = go(term)
    del go  # go reaches itself through its closure: break that cycle now
    return out


def _assert_substitutes_as_reference(body, var, arg):
    out = substitute(body, var, arg)
    assert print_term(out) == print_term(_reference_substitute(body, var, arg))
    if var not in free_vars(body):
        assert out is body


def _contracted_substitutions(terms, sig, strategies, monkeypatch):
    """Every (body, binder, argument) that normalising `terms` substitutes."""
    seen = []
    contract = kernel._contract

    def recording(term, sig):
        if isinstance(term, App) and isinstance(term.fn, Lam):
            seen.append((term.fn.body, term.fn.binder, term.arg))
        return contract(term, sig)

    monkeypatch.setattr(kernel, "_contract", recording)
    for strategy in strategies:
        for m in terms:
            normalize(m, sig, strategy=strategy)
    monkeypatch.undo()
    return seen


def test_substitute_matches_reference_on_corpus(monkeypatch):
    # the corpus of scripts/confluence_experiment.py
    base = register_finset(register_nat(builtin_signature()))
    base = base.extend(sorts=[entity_sort(s) for s in ("dog", "phys", "book")])
    terms, gsig = generate_corpus(base, seed=4242, count=1000, use_inductives=True)
    seen = _contracted_substitutions(terms, gsig, (LEFTMOST_OUTERMOST, RIGHTMOST_INNERMOST), monkeypatch)
    assert len(seen) > 1000
    assert any(var not in free_vars(body) for body, var, _ in seen)
    for body, var, arg in seen:
        _assert_substitutes_as_reference(body, var, arg)


def _subst_by_full_walk(term, env, tyenv):
    """kernel._subst as it was, walking every part while `env` is not empty."""
    if not env and (not tyenv or free_tyvars_in_term(term).isdisjoint(tyenv)):
        return term
    go = _subst_by_full_walk
    match term:
        case App(fn, arg):
            f, a = go(fn, env, tyenv), go(arg, env, tyenv)
            return term if f is fn and a is arg else App(f, a)
        case Var(name):
            return env[name] if name in env else term
        case Const():
            return term
        case Lam(binder, binder_type, body):
            env = kernel._without(env, binder) if binder in env else env
            ty, out = kernel._subst_types(binder_type, tyenv) if tyenv else binder_type, go(body, env, tyenv)
            if out is body and ty is binder_type:
                return term
            if binder in (reach := kernel._reach(body, env, free_vars, free_vars)):
                fresh = fresh_name(binder, reach.union(free_vars(body), env))
                out, binder = go(go(body, {binder: Var(fresh)}, {}), env, tyenv), fresh
            return Lam(binder, ty, out)
        case TyLam(binder, body):
            tyenv = kernel._without(tyenv, binder) if binder in tyenv else tyenv
            if (out := go(body, env, tyenv)) is body:
                return term
            reach = kernel._reach(body, env, free_tyvars_in_term, free_vars)
            if binder in (reach := reach | kernel._reach(body, tyenv, free_tyvars, free_tyvars_in_term)):
                fresh = fresh_name(binder, reach.union(free_tyvars_in_term(body), tyenv))
                out, binder = go(go(body, {}, {binder: TyVar(fresh)}), env, tyenv), fresh
            return TyLam(binder, out)
        case TyApp(fn, ty_arg):
            f, ty = go(fn, env, tyenv), kernel._subst_types(ty_arg, tyenv) if tyenv else ty_arg
            return term if f is fn and ty is ty_arg else TyApp(f, ty)
    raise TypeError(f"not a Term: {term!r}")


def _term_nodes(term):
    out, todo = [], [term]
    while todo:
        out.append(x := todo.pop())
        todo += [part for name in x.__match_args__ if isinstance(part := getattr(x, name), Term)]
    return out


def _top_substitutions(terms, sig, monkeypatch):
    """(term, env, tyenv) of each outermost kernel._subst call that normalising `terms` makes."""
    calls, subst, depth = [], kernel._subst, [0]

    def recording(term, env, tyenv):
        if not depth[0]:
            calls.append((term, env, tyenv))
        depth[0] += 1
        try:
            return subst(term, env, tyenv)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(kernel, "_subst", recording)
    for strategy in (LEFTMOST_OUTERMOST, RIGHTMOST_INNERMOST):
        for m in terms:
            normalize(m, sig, strategy=strategy)
    monkeypatch.undo()
    return calls


def test_subst_returns_a_part_whose_stored_free_variables_miss_env_as_the_full_walk_does(monkeypatch):
    """With free_vars stored on every node, _subst builds what the full walk
    builds, and wherever either result holds a node of the input, the other
    holds that same object."""
    base = register_finset(register_nat(builtin_signature()))
    base = base.extend(sorts=[entity_sort(s) for s in ("dog", "phys", "book")])
    terms, gsig = generate_corpus(base, seed=4242, count=1000, use_inductives=True)
    runs, rsig = generate_corpus(base, seed=4242, count=300, use_inductives=True, runs=True)
    calls = _top_substitutions(terms, gsig, monkeypatch) + _top_substitutions(runs, rsig, monkeypatch)
    skipped = 0
    for term, env, tyenv in calls:
        inputs = {}
        for root in (term, *env.values()):
            free_vars(root)  # stored on every node
            inputs.update((id(x), x) for x in _term_nodes(root))
        skipped += sum(bool(env) and x._fv.isdisjoint(env) for x in _term_nodes(term))
        todo = [(kernel._subst(term, env, tyenv), _subst_by_full_walk(term, env, tyenv))]
        while todo:
            got, want = todo.pop()
            if got is want:
                continue
            assert id(got) not in inputs and id(want) not in inputs and type(got) is type(want)
            for name in got.__match_args__:
                x, y = getattr(got, name), getattr(want, name)
                if isinstance(x, Term):
                    todo.append((x, y))
                else:
                    assert repr(x) == repr(y)
    assert len(calls) > 10_000 and skipped > 30_000, (len(calls), skipped)  # 12,232 and 40,669


def test_substitute_matches_reference_on_recursor_corpus(monkeypatch):
    sig = _recursor_signature()
    terms = [parse_term(text, sig) for text in RECURSOR_CORPUS.values()]
    seen = _contracted_substitutions(terms, sig, (LEFTMOST_OUTERMOST, RIGHTMOST_INNERMOST), monkeypatch)
    assert seen
    for body, var, arg in seen:
        _assert_substitutes_as_reference(body, var, arg)


def _batched_runs(normalise, monkeypatch):
    """(head, spine nodes, body, env, tyenv, result) of each binder run that
    kernel._fire_run substitutes in one walk while `normalise()` runs."""
    runs, subst, fire_run = [], kernel._subst, kernel._fire_run.__code__

    def recording(term, env, tyenv):
        out = subst(term, env, tyenv)
        caller = sys._getframe(1)
        if caller.f_code is fire_run:
            runs.append((caller.f_locals["head"], caller.f_locals["nodes"], term, env, tyenv, out))
        return out

    monkeypatch.setattr(kernel, "_subst", recording)
    normalise()
    monkeypatch.undo()
    return runs


def _one_at_a_time(head, nodes, body):
    """The run's contractions made one by one, in binder order, by the reference substitutions."""
    term = head
    while head is not body:
        node, nodes, head = nodes[0], nodes[1:], head.body
        term = (_reference_substitute(term.body, term.binder, node.arg) if isinstance(node, App)
                else reference_syntax.substitute_ty(term.body, term.binder, node.ty_arg))
    return term


def _ambiguity_items():
    workloads = load_workloads()
    for seed in (1, 2, 3):
        w = workloads.make_workload("ambiguity", seed)
        lex = load_lexicon(w.lexicon_text)
        for text in sorted({item.text for item in w.items}):
            compose(parse_tree(text), lex, workloads.LIMIT)


# runs whose bodies keep the run's variables: in a binder's type, in a type
# argument, under a binder of the same name
RUN_TEXTS = (
    "(tapp (tapp (tlam a (tlam b (lam (x a) (lam (y b) x)))) e:a) t)",
    "(app (tapp (tapp (tlam a (tlam b (lam (h (all d (-> d d))) (tapp h (-> a b))))) e:a) t) (tlam d (lam (z d) z)))",
    "(tapp (tapp (tlam a (tlam d (tlam a (lam (w a) (lam (v d) w))))) t) e:a)",
    "(app (app (lam (x e:a) (lam (z e:a) (lam (x e:a) (app (app g x) z)))) c) c)",
)


def _typed_corpora():
    # the seed-4242 random corpus, the recursor corpus and RUN_TEXTS, typed so that closed arguments batch
    base = register_finset(register_nat(builtin_signature()))
    base = base.extend(sorts=[entity_sort(s) for s in ("dog", "phys", "book")])
    terms, gsig = generate_corpus(base, seed=4242, count=1000, use_inductives=True)
    sig = _recursor_signature()
    edge_sig = builtin_signature().extend(sorts=[entity_sort("a")], constants={
        "g": parse_type("(-> e:a (-> e:a t))"), "c": parse_type("e:a")})
    for m, m_sig in ([(m, gsig) for m in terms] + [(parse_term(t, sig), sig) for t in RECURSOR_CORPUS.values()]
                     + [(parse_term(t, edge_sig), edge_sig) for t in RUN_TEXTS]):
        typecheck(m, m_sig)
        normalize(m, m_sig)


def test_batched_runs_substitute_as_one_variable_at_a_time(monkeypatch):
    # the multi-variable walk against the one-variable references, not against itself
    runs = _batched_runs(_ambiguity_items, monkeypatch) + _batched_runs(_typed_corpora, monkeypatch)
    assert runs and any(env and tyenv for _, _, _, env, tyenv, _ in runs)
    for head, nodes, body, env, tyenv, out in runs:
        assert print_term(out) == print_term(_one_at_a_time(head, nodes, body))


@pytest.mark.parametrize("body, var, arg, expected", [
    ("(lam (y t) x)", "x", "y", "(lam (y'1 t) y)"),
    # the fresh name avoids the argument's variables and the body's
    ("(lam (y t) (app (app ∧ x) y'1))", "x", "(app (app ∧ y) y'2)", "(lam (y'3 t) (app (app ∧ (app (app ∧ y) y'2)) y'1))"),
    # renaming under a binder that keeps its name
    ("(lam (z t) (lam (y t) (app (app ∧ x) z)))", "x", "y", "(lam (z t) (lam (y'1 t) (app (app ∧ y) z)))"),
    # an inner binder that captures nothing keeps its name beside a renamed one
    ("(lam (y t) (app (app ∧ (lam (w t) w)) x))", "x", "y", "(lam (y'1 t) (app (app ∧ (lam (w t) w)) y))"),
    # a type binder free in the argument
    ("(tlam a (lam (z a) x))", "x", "(lam (u a) u)", "(tlam a'1 (lam (z a'1) (lam (u a) u)))"),
    # the binder is the substituted variable: nothing changes
    ("(lam (x t) x)", "x", "y", "(lam (x t) x)"),
])
def test_substitute_capture_cases(body, var, arg, expected):
    # free names are parsed as variables; the terms need not typecheck
    sig = builtin_signature()
    body, arg = parse_term(body, sig), parse_term(arg, sig)
    assert print_term(substitute(body, var, arg)) == expected
    _assert_substitutes_as_reference(body, var, arg)


def test_substitute_shares_what_it_does_not_change(sig):
    body = parse_term("(app (app ∧ (app (lam (y t) y) p)) (app (app ∧ x) q))", sig)
    out = substitute(body, "x", parse_term("p", sig))
    assert out.fn.arg is body.fn.arg
    assert out.arg.arg is body.arg.arg and out.arg.fn.fn is body.arg.fn.fn


# ---------------------------------------------------------------------------
# normalize


def test_one_beta_step(sig):
    m = parse_term("(app (lam (x t) x) (app (app ∧ p) q))", sig)
    nf = normalize(m, sig)
    assert nf.term == parse_term("(app (app ∧ p) q)", sig)
    assert is_beta_normal(nf.term, sig)


def test_book_sentence_normal_form(sig):
    # Manual reduction oracle (see test_acceptance for the full derivation):
    # AND [phys] [info] heavy interesting [book] b g0 f0
    #   -> ... -> ∧ (heavy (g0 b)) (interesting (f0 b))
    and_term = parse_term(AND_SOURCE, sig, allow_free=False)
    applied = App(
        App(
            App(
                TyApp(
                    App(
                        App(TyApp(TyApp(and_term, etype("phys")), etype("info")),
                            sig.const("heavy")),
                        sig.const("interesting"),
                    ),
                    etype("book"),
                ),
                sig.const("b"),
            ),
            sig.const("g0"),
        ),
        sig.const("f0"),
    )
    assert typecheck(applied, sig) == PROP
    expected = parse_term(
        "(app (app ∧ (app heavy (app g0 b))) (app interesting (app f0 b)))", sig
    )
    assert normalize(applied, sig).term == expected


def test_fuel_exhaustion_is_diagnostic(sig):
    m = parse_term("(app (lam (x t) x) (app (lam (y t) y) p))", sig)
    with pytest.raises(FuelExhausted):
        normalize(m, sig, fuel=1)
    assert normalize(m, sig, fuel=2).term == sig.const("p")


def test_fuel_counts_the_contractions_of_the_whole_call(sig):
    # each argument of ∧ is normalised on its own, with one contraction each
    text = "(app (app ∧ (app (lam (x t) x) p)) (app (lam (y t) y) q))"
    with pytest.raises(FuelExhausted, match="no normal form within 1 steps"):
        normalize(parse_term(text, sig), sig, fuel=1)
    assert print_term(normalize(parse_term(text, sig), sig, fuel=2).term) == "(app (app ∧ p) q)"


@pytest.mark.parametrize("strategy", [LEFTMOST_OUTERMOST, RIGHTMOST_INNERMOST])
def test_normal_parts_come_back_as_the_same_objects(sig, strategy):
    term = parse_term("(app (app ∧ p) (app (app ∧ q) p))", sig)
    out = normalize(term, sig, strategy=strategy).term
    assert out is term and out.fn is term.fn and out.arg is term.arg
    term = parse_term("(app (app ∧ p) (app (lam (x t) x) (app (app ∧ q) p)))", sig)
    out = normalize(term, sig, strategy=strategy).term
    assert out.fn is term.fn and out.arg is term.arg.arg


def _nodes(term):
    yield term
    for child in ("fn", "arg", "body"):
        if isinstance(getattr(term, child, None), Term):
            yield from _nodes(getattr(term, child))


@pytest.mark.parametrize("strategy", [LEFTMOST_OUTERMOST, RIGHTMOST_INNERMOST])
def test_normal_forms_hold_no_reference_cycle(sig, strategy):
    # with the cyclic collector off, reference counting alone frees every
    # node of a term, of its expansion and of its normal form once they are
    # dropped: constants a text repeats share one node, and a word expanded
    # through AND shares only the definition's variables with the signature
    texts = ["(app (app ∧ p) (app (app ∧ q) p))", "(app (app ∧ p) (app (lam (x t) x) (app (app ∧ q) p)))",
             "(app (lam (x t) (app (app ∧ x) (app (app ∧ p) p))) (app (app ∧ p) p))",
             "(app (app (tapp (tapp AND e:phys) e:info) heavy) interesting)"]
    held = {id(node) for d in sig.definitions.values() for node in _nodes(d)}
    gc.disable()
    try:
        terms = [parse_term(text, sig) for text in texts]
        expanded = [expand_definitions(term, sig) for term in terms]
        for term in expanded:
            typecheck(term, sig)
        nodes = [node for term in terms + expanded
                 for node in (*_nodes(term), *_nodes(normalize(term, sig, strategy=strategy).term))]
        assert all(isinstance(node, Var) for node in nodes if id(node) in held)
        refs = [weakref.ref(node) for node in nodes if id(node) not in held]
        del terms, expanded, term, nodes
        assert sum(ref() is not None for ref in refs) == 0
    finally:
        gc.enable()


def test_unknown_strategy_is_rejected_without_a_redex(sig):
    with pytest.raises(ValueError, match="unknown strategy 'bogus'"):
        normalize(sig.const("∧"), sig, strategy="bogus")


# ---------------------------------------------------------------------------
# results remembered on the node: per signature and per strategy

_REC_ZERO = ("(app (app (app (tapp RecN e:nat) (app Succ Zero))"
             " (lam (k e:nat) (lam (a e:nat) a))) Zero)")


def test_remembered_normal_form_is_per_signature():
    rules = register_nat(builtin_signature())
    no_rules = replace(rules, rules=())
    term = parse_term(_REC_ZERO, rules)
    for _ in range(2):
        assert print_term(normalize(term, rules).term) == "(app Succ Zero)"
        assert print_term(normalize(term, no_rules).term) == _REC_ZERO


def test_remembered_type_is_per_signature():
    nsig, bare = register_nat(builtin_signature()), builtin_signature()
    term = parse_term(_REC_ZERO, nsig)
    with pytest.raises(UnboundVariable) as fresh:
        typecheck(parse_term(_REC_ZERO, nsig), bare)
    assert fresh.value.path == ("fn", "fn", "fn", "fn")
    for _ in range(2):
        assert typecheck(term, nsig) == NAT
        with pytest.raises(UnboundVariable) as ours:
            typecheck(term, bare)
        assert (str(ours.value), ours.value.path) == (str(fresh.value), fresh.value.path)


def test_remembered_type_types_a_shared_closed_subterm_once(sig, monkeypatch):
    calls = []
    check = kernel.typecheck
    monkeypatch.setattr(kernel, "typecheck", lambda term, *rest: calls.append(term) or check(term, *rest))
    shared = parse_term("(app barks rex)", sig)
    assert kernel.typecheck(App(App(sig.const("∧"), shared), shared), sig) == PROP
    assert sum(term is shared for term in calls) == 2
    assert sum(term is shared.fn for term in calls) == 1


@pytest.mark.parametrize("first, second", [
    (LEFTMOST_OUTERMOST, RIGHTMOST_INNERMOST),
    (RIGHTMOST_INNERMOST, LEFTMOST_OUTERMOST),
])
def test_remembered_normal_form_is_per_strategy(sig, first, second):
    # the strategies rename the captured binder differently
    expected = {LEFTMOST_OUTERMOST: "(lam (y'2 t) y)", RIGHTMOST_INNERMOST: "(lam (y'1 t) y)"}
    term = parse_term("(app (lam (x t) (lam (y t) x)) (app (lam (z t) y) y'1))", sig)
    for strategy in (first, second, first):
        assert print_term(normalize(term, sig, strategy=strategy).term) == expected[strategy]


def test_normal_form_flags(sig):
    nf = normalize(sig.const("barks"), sig)
    assert is_beta_normal(nf.term, sig) and not is_eta_long(nf.term, sig)
    expanded = eta_expand(nf.term, sig)
    assert is_beta_normal(expanded.term, sig) and is_eta_long(expanded.term, sig)


def test_recursor_addition():
    sig = register_nat(builtin_signature())
    add = parse_term(
        "(lam (m e:nat) (lam (n e:nat)"
        " (app (app (app (tapp RecN e:nat) n)"
        " (lam (k e:nat) (lam (a e:nat) (app Succ a)))) m)))",
        sig,
    )
    two_plus_three = App(App(add, numeral(2)), numeral(3))
    assert normalize(two_plus_three, sig).term == numeral(5)


# ---------------------------------------------------------------------------
# eta expansion


def test_eta_expand_predicate_constant(sig):
    p = sig.const("barks")
    out = eta_expand(p, sig)
    assert out.term == parse_term("(lam (x e:dog) (app barks x))", sig)
    assert is_eta_long(out.term, sig) and is_beta_normal(out.term, sig)


def test_eta_expand_idempotent(sig):
    p = sig.const("barks")
    once = eta_expand(p, sig).term
    twice = eta_expand(once, sig).term
    assert alpha_eq(once, twice)


def test_eta_expand_instantiated_quantifier(sig):
    # (tapp ∀ e:dog) applied to barks: the argument spine gets eta-expanded
    m = App(TyApp(sig.const("∀"), etype("dog")), sig.const("barks"))
    out = eta_expand(m, sig)
    expected = parse_term("(app (tapp ∀ e:dog) (lam (x e:dog) (app barks x)))", sig)
    assert out.term == expected
    assert is_eta_long(out.term, sig)
    # beta-normalizing the eta-long form is stable
    assert alpha_eq(normalize(out.term, sig).term, out.term)


def test_is_eta_long_flags(sig):
    assert not is_eta_long(sig.const("barks"), sig)
    assert is_eta_long(parse_term("(lam (x e:dog) (app barks x))", sig), sig)
    assert not is_eta_long(parse_term("(lam (y e:dog) barks)", sig), sig)


# ---------------------------------------------------------------------------
# reduce_once


def test_reduce_normal_term_is_none(sig):
    m = parse_term("(lam (x t) x)", sig)
    assert reduce_once(m, sig, LEFTMOST_OUTERMOST) is None
    assert reduce_once(m, sig, RIGHTMOST_INNERMOST) is None


def test_reduce_single_redex_both_strategies(sig):
    m = parse_term("(app (lam (x t) x) p)", sig)
    assert reduce_once(m, sig, LEFTMOST_OUTERMOST) == sig.const("p")
    assert reduce_once(m, sig, RIGHTMOST_INNERMOST) == sig.const("p")


def test_nested_double_redex_confluence(sig):
    # the two strategies contract different redexes first but agree at the end
    m = parse_term("(app (lam (x t) (app (lam (y t) y) x)) (app (lam (z t) z) p))", sig)
    lo = reduce_once(m, sig, LEFTMOST_OUTERMOST)
    ri = reduce_once(m, sig, RIGHTMOST_INNERMOST)
    assert not alpha_eq(lo, ri)
    assert alpha_eq(
        normalize(m, sig, strategy=LEFTMOST_OUTERMOST).term,
        normalize(m, sig, strategy=RIGHTMOST_INNERMOST).term,
    )


# ---------------------------------------------------------------------------
# kernel property suite (modest sample here; acceptance runs 1000)


def _property_corpus(sig, count=150):
    base = register_finset(register_nat(builtin_signature()))
    base = base.extend(sorts=sig.sorts)
    return generate_corpus(base, seed=99, count=count, use_inductives=True)


def test_subject_reduction(sig):
    terms, gsig = _property_corpus(sig)
    for m in terms:
        ty = typecheck(m, gsig)
        for strategy in (LEFTMOST_OUTERMOST, RIGHTMOST_INNERMOST):
            stepped = reduce_once(m, gsig, strategy)
            if stepped is not None:
                assert typecheck(stepped, gsig) == ty


def test_strategy_confluence(sig):
    terms, gsig = _property_corpus(sig)
    for m in terms:
        lo = normalize(m, gsig, strategy=LEFTMOST_OUTERMOST).term
        ri = normalize(m, gsig, strategy=RIGHTMOST_INNERMOST).term
        assert alpha_eq(lo, ri)


def test_normalize_idempotent(sig):
    terms, gsig = _property_corpus(sig, count=80)
    for m in terms:
        once = normalize(m, gsig).term
        assert alpha_eq(normalize(once, gsig).term, once)
        assert is_beta_normal(once, gsig)


def test_eta_expand_stable(sig):
    terms, gsig = _property_corpus(sig, count=60)
    for m in terms:
        nf = normalize(m, gsig).term
        once = eta_expand(nf, gsig).term
        assert alpha_eq(eta_expand(once, gsig).term, once)
        assert is_eta_long(once, gsig)


def _oracle_is_eta_long(term, sig, ctx=EMPTY_CONTEXT):
    """The structural eta-long check that `is_eta_long` replaced, kept as
    the reference for the differential test below."""
    try:
        ty = typecheck(term, sig, ctx)
    except Exception:
        return False
    return _oracle_walk(term, ty, sig, ctx)


def _oracle_walk(term, ty, sig, ctx):
    match ty:
        case Arrow(_, cod):
            if not isinstance(term, Lam):
                return False
            inner = ctx.bind(term.binder, term.binder_type)
            return _oracle_walk(term.body, cod, sig, inner)
        case Forall(binder, body_ty):
            if not isinstance(term, TyLam):
                return False
            inner = ctx.bind_ty(term.binder)
            return _oracle_walk(term.body, subst_type(body_ty, binder, TyVar(term.binder)), sig, inner)
        case _:
            head, elims = spine(term)
            match head:
                case Var(name):
                    cur = ctx.term_vars.get(name)
                    if cur is None:
                        return False
                case Const(_, declared):
                    cur = declared
                case _:
                    return False
            for e in elims:
                if isinstance(e, Type):
                    if not isinstance(cur, Forall):
                        return False
                    cur = subst_type(cur.body, cur.binder, e)
                else:
                    if not isinstance(cur, Arrow):
                        return False
                    if not _oracle_walk(e, cur.domain, sig, ctx):
                        return False
                    cur = cur.codomain
            return not isinstance(cur, (Arrow, Forall))


def test_is_eta_long_matches_structural_oracle():
    # the corpus of scripts/confluence_experiment.py
    base = register_finset(register_nat(builtin_signature()))
    base = base.extend(sorts=[entity_sort(s) for s in ("dog", "phys", "book")])
    terms, gsig = generate_corpus(base, seed=4242, count=1000, use_inductives=True)
    consts = [Const(name, ty) for name, ty in gsig.constants.items()]
    # a constant, bare or under a binder, is eta-long only at an atomic type
    cases = consts + [Lam("v", PROP, c) for c in consts] + [TyLam("b", c) for c in consts]
    for m in terms:
        nf = normalize(m, gsig).term
        cases += [m, nf, eta_expand(nf, gsig).term]
    verdicts = set()
    for term in cases:
        verdict = is_eta_long(term, gsig)
        assert verdict == _oracle_is_eta_long(term, gsig), print_term(term)
        verdicts.add((is_beta_normal(term, gsig), verdict))
    # covers missing abstractions as well as redexes
    assert verdicts == {(True, True), (True, False), (False, True), (False, False)}


# ---------------------------------------------------------------------------
# first-order matching


def test_match_binds_holes():
    pattern = Arrow(TyVar("a"), PROP)
    theta = match_type(pattern, parse_type("(-> e:dog t)"), frozenset(["a"]))
    assert theta == {"a": etype("dog")}


def test_match_requires_consistency():
    pattern = Arrow(TyVar("a"), TyVar("a"))
    assert match_type(pattern, parse_type("(-> e:dog e:dog)"), frozenset(["a"])) is not None
    assert match_type(pattern, parse_type("(-> e:dog t)"), frozenset(["a"])) is None


def test_match_no_escape():
    # a hole may not capture a subject-bound variable
    pattern = TyVar("a")
    subject = Forall("b", TyVar("b"))
    theta = match_type(Forall("c", pattern), subject, frozenset(["a"]))
    assert theta is None


def test_expand_definitions():
    sig = builtin_signature()
    and_const = sig.const("AND")
    expanded = expand_definitions(and_const, sig)
    assert expanded == parse_term(AND_SOURCE, sig, allow_free=False)
