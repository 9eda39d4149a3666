"""Typed construction: every node the composer's search builds, and every
normal form, carries the type that typecheck gives a fresh copy of it, name
for name, since eta_expand prints binder types from the stored type.  A
constructor given ill-typed parts raises what typecheck raises on the term
it would build.  A graph coercion is stored with its lookup's type only
under a signature that declares every edge at its arrow."""

import dataclasses
import functools
import random
from collections import Counter

import pytest

from polysem import composer, kernel
from polysem.cli import main
from polysem.coercion import check_coherence
from polysem.composer import _Cand, _Search, compose, parse_tree, parse_trees
from polysem.errors import TypeCheckError, TypeMismatch
from polysem.hol import SEXPR, UNICODE, extract_formula, print_formula
from polysem.kernel import copy_term, eta_expand, normalize, typecheck, typed_apply
from polysem.lexicon import Lexicon, builtin_signature, load_lexicon
from polysem.syntax import (
    PROP,
    App,
    Arrow,
    Base,
    Const,
    Forall,
    Lam,
    SetOf,
    TyApp,
    TyLam,
    TyVar,
    Var,
    entity_sort,
    etype,
    parse_term,
    parse_type,
    print_term,
    print_type,
)
from test_coercion import _binder_shapes, _random_multigraph, _shapes, _sig_for
from test_composer import ORACLE_LEXICON, ORACLE_TREES, _goal_corpus
from test_reader import ROOT, load_workloads


def _fresh(x, copies=None):
    """A copy of a term or type with nothing remembered on any node.  Given
    `copies`, a part copied before is shared, with what typecheck of the
    copies has remembered on it since (it remembers only closed types)."""
    if copies is not None and id(x) in copies:
        return copies[id(x)][1]
    match x:
        case Base(sort):
            out = Base(sort)
        case TyVar(name):
            out = TyVar(name)
        case Arrow(a, b):
            out = Arrow(_fresh(a, copies), _fresh(b, copies))
        case Forall(v, body):
            out = Forall(v, _fresh(body, copies))
        case SetOf(elem):
            out = SetOf(_fresh(elem, copies))
        case Var(name):
            out = Var(name)
        case Const(name, ty):
            out = Const(name, _fresh(ty, copies))
        case Lam(v, ty, body):
            out = Lam(v, _fresh(ty, copies), _fresh(body, copies))
        case App(fn, arg):
            out = App(_fresh(fn, copies), _fresh(arg, copies))
        case TyLam(v, body):
            out = TyLam(v, _fresh(body, copies))
        case TyApp(fn, ty):
            out = TyApp(_fresh(fn, copies), _fresh(ty, copies))
        case _:
            raise TypeError(x)
    if copies is not None:
        copies[id(x)] = (x, out)  # the original kept alive, so that no later node takes its id
    return out


def _assert_typed(term, sig, copies=None):
    memo = term.__dict__.get("_type_memo")
    assert memo is not None and memo[0] is sig, term
    fresh = typecheck(_fresh(term, copies), sig)
    assert (print_type(memo[1]), memo[1]) == (print_type(fresh), fresh), term


def _typed_nodes(roots, sig, seen):
    """Every node under `roots`, not in `seen`, that remembers a type under `sig`."""
    out, todo = [], list(roots)
    while todo:
        x = todo.pop()
        if id(x) in seen:
            continue
        seen[id(x)] = x  # kept alive, so that no later node takes its id
        if getattr(x, "_type_memo", (None,))[0] is sig:
            out.append(x)
        todo += [c for name in x.__match_args__ if isinstance(c := getattr(x, name), (App, Lam, TyApp, TyLam))]
    return out


class _Recording(_Search):
    """The search, keeping every candidate it makes for every subtree."""

    def __init__(self, lex):
        super().__init__(lex)
        self.made = []

    def candidates(self, tree, path=()):
        out = super().candidates(tree, path)
        self.made += out
        return out


def _workload(name):
    workloads = load_workloads()
    for seed in (1, 2, 3):
        w = workloads.make_workload(name, seed)
        yield load_lexicon(w.lexicon_text), [parse_tree(t) for t in sorted({item.text for item in w.items})]


SOURCES = {
    "fixture trees": lambda: [(load_lexicon((ROOT / "fixtures" / "english.lex").read_text(encoding="utf-8")),
                               parse_trees((ROOT / "fixtures" / "trees.txt").read_text(encoding="utf-8")))],
    "oracle trees": lambda: [(load_lexicon(ORACLE_LEXICON), [parse_tree(t) for t in ORACLE_TREES])],
    "ambiguity": lambda: _workload("ambiguity"),
    "ontology": lambda: _workload("ontology"),
}


@pytest.mark.parametrize("source", SOURCES)
def test_every_candidate_and_normal_form_carries_typechecks_type(source):
    checked = composed = 0
    for lex, trees in SOURCES[source]():
        sig, seen, copies = lex.signature, {}, {}
        for tree in trees:
            search = _Recording(lex)
            composed += bool(search.candidates(tree))
            roots = [c.term for c in search.made]
            roots += [normalize(term, sig).term for term in roots]
            assert all(getattr(term, "_type_memo", (None,))[0] is sig for term in roots)
            # each candidate and normal form, and the parts the search built and typed on the
            # way: slot fills, coerced arguments, shifted functions
            for node in _typed_nodes(roots, sig, seen):
                _assert_typed(node, sig, copies)
                checked += 1
    assert checked > 0 and composed > 0


# ---------------------------------------------------------------------------
# Ill-typed parts


@pytest.fixture
def sig():
    return builtin_signature().extend(
        sorts=[entity_sort("dog")],
        constants={"rex": etype("dog"), "barks": Arrow(etype("dog"), PROP),
                   "id": Forall("a", Arrow(TyVar("a"), TyVar("a"))),
                   "konst": parse_type("(all a (all b (-> a (-> b a))))")})


def _whole(fn, ty_args, arg, residuals):
    term = functools.reduce(TyApp, ty_args, fn)
    term = term if arg is None else App(term, arg)
    return functools.reduce(lambda body, r: TyLam(r, body), reversed(residuals), term)


ILL_TYPED = [
    ("barks", [], "barks", ()),                            # domain mismatch
    ("rex", [], "rex", ()),                                # not a function
    ("rex", ["t"], None, ()),                              # not a ∀
    ("id", ["e:dog", "e:dog"], None, ()),                  # a second type argument
    ("id", ["e:cat"], None, ()),                           # an undeclared sort
    ("id", ["b"], "rex", ()),                              # an unbound type variable
    ("id", ["r"], "rex", ("r",)),                          # a residual's domain
    ("id", ["(-> r e:cat)"], None, ("r",)),               # under a residual, an undeclared sort
    ("(app barks barks)", [], "rex", ()),                  # an ill-typed function part
    ("barks", [], "(app rex rex)", ()),                    # an ill-typed argument part
    ("(app rex rex)", ["t"], "(app barks barks)", ("r",)),  # both, and a type argument
]


@pytest.mark.parametrize("fn, ty_args, arg, residuals", ILL_TYPED)
def test_ill_typed_parts_raise_what_typecheck_raises(sig, fn, ty_args, arg, residuals):
    def parts():
        f, a = parse_term(fn, sig), arg and parse_term(arg, sig)
        for part in (f, a):
            try:
                if part is not None:
                    typecheck(part, sig)  # a well-typed part comes typed
            except TypeCheckError:
                pass
        tys = [parse_type(t, sig.sorts | {entity_sort("cat")}) for t in ty_args]
        return f, tys, a

    with pytest.raises(TypeCheckError) as want:
        f, tys, a = parts()
        typecheck(_fresh(_whole(f, tys, a, residuals)), sig)
    with pytest.raises(TypeCheckError) as got:
        typed_apply(*parts(), sig, residuals)
    assert (type(got.value), str(got.value), got.value.path) == (type(want.value), str(want.value), want.value.path)


@pytest.mark.parametrize("fn, ty_args, arg, residuals", [
    ("barks", [], "rex", ()),
    ("id", ["e:dog"], "rex", ()),
    ("id", ["(-> e:dog t)"], "barks", ()),
    ("id", ["(all a (-> a a))"], None, ()),
    ("id", ["r"], None, ("r",)),
    ("konst", ["e:dog", "r"], "rex", ("r",)),
    ("konst", ["r", "(all a (-> a a))"], None, ("r",)),
])
def test_well_typed_parts_give_typechecks_type(sig, fn, ty_args, arg, residuals):
    f, a = parse_term(fn, sig), arg and parse_term(arg, sig)
    for part in (f, a):
        if part is not None:
            typecheck(part, sig)
    _assert_typed(typed_apply(f, [parse_type(t, sig.sorts) for t in ty_args], a, sig, residuals), sig)


def test_an_instance_is_shared_per_argument_object(sig):
    ident = parse_term("id", sig)
    typecheck(ident, sig)
    dog = parse_type("e:dog", sig.sorts)
    first, again = typed_apply(ident, [dog], None, sig), typed_apply(ident, [dog], None, sig)
    assert first._type_memo[1] is again._type_memo[1]
    # an α-equal argument spelt with other bound names gets its own instance
    x, y = (parse_type(f"(all {v} (-> {v} {v}))", sig.sorts) for v in "xy")
    assert print_type(typed_apply(ident, [y], None, sig)._type_memo[1]) == "(-> (all y (-> y y)) (all y (-> y y)))"
    assert print_type(typed_apply(ident, [x], None, sig)._type_memo[1]) == "(-> (all x (-> x x)) (all x (-> x x)))"


# ---------------------------------------------------------------------------
# Normal forms


def test_a_normal_form_inherits_its_terms_type_under_the_same_signature_only(sig):
    other = sig.extend()
    text = "(app (lam (x e:dog) (app barks x)) rex)"
    term = parse_term(text, sig)
    typecheck(term, other)
    nf = normalize(term, sig).term
    assert getattr(nf, "_type_memo", (sig,))[0] is sig
    term = parse_term(text, sig)
    typecheck(term, sig)
    _assert_typed(normalize(term, sig).term, sig)


def test_a_type_with_a_quantifier_is_typechecked_afresh(sig):
    # the term's type names its binder b, the normal form's own type a
    psig = sig.extend(constants={"p": PROP, "k": parse_type("(-> t (all a (-> a a)))")})
    term = parse_term("(app (lam (h (-> t (all b (-> b b)))) (app h p)) k)", psig)
    assert print_type(typecheck(term, psig)) == "(all b (-> b b))"
    nf = normalize(term, psig).term
    assert print_type(nf._type_memo[1]) == "(all a (-> a a))"
    _assert_typed(nf, psig)


def test_normalize_eta_long_names_binders_from_the_normal_forms_own_type(tmp_path, capsys):
    lex = tmp_path / "k.lex"
    lex.write_text("const k : (-> t (all a (-> a a)))\nconst p : t\n", encoding="utf-8")
    assert main(["normalize", str(lex), "(app (lam (h (-> t (all b (-> b b)))) (app h p)) k)", "--eta-long"]) == 0
    assert capsys.readouterr().out == ("type: (all b (-> b b))\n"
                                       "normal: (app k p)\n"
                                       "eta-long: (tlam a (lam (x a) (app (tapp (app k p) a) x)))\n")


# ---------------------------------------------------------------------------
# The search


def test_alpha_equal_type_arguments_keep_their_own_bound_names(tmp_path, capsys):
    """One polymorphic word, TY-annotated with two α-equal type arguments that
    name their binders apart, in one run: the output names each its own way."""
    lex, trees = tmp_path / "poly.lex", tmp_path / "poly.trees"
    lex.write_text("word id main (tlam a (lam (z a) z))\n", encoding="utf-8")
    trees.write_text("(TY (LEAF id) (all x (-> x x)))\n(TY (LEAF id) (all y (-> y y)))\n", encoding="utf-8")
    assert main(["compose", str(lex), str(trees), "--show-term"]) == 0
    assert capsys.readouterr().out == (
        "tree 1: 1 analysis(es)\n"
        "  [1] type: (-> (all x (-> x x)) (all x (-> x x)))\n"
        "      term: (lam (z (all x (-> x x))) z)\n"
        "tree 2: 1 analysis(es)\n"
        "  [1] type: (-> (all y (-> y y)) (all y (-> y y)))\n"
        "      term: (lam (z (all y (-> y y))) z)\n")


def test_compose_reads_each_candidates_type_off_its_node(monkeypatch):
    lex = load_lexicon(ORACLE_LEXICON)
    remembered = []

    def read(term, sig, *rest):
        remembered.append(getattr(term, "_type_memo", (None,))[0] is sig)
        return kernel.typecheck(term, sig, *rest)

    monkeypatch.setattr(composer, "typecheck", read)
    for text in ORACLE_TREES:
        compose(parse_tree(text), lex)
    assert remembered and all(remembered)


def test_typecheck_passes_a_chain_of_pairs_down(sig, monkeypatch):
    paths = []
    real = kernel.typecheck

    def spy(term, s, ctx=kernel.EMPTY_CONTEXT, path=()):
        paths.append(path)
        return real(term, s, ctx, path)

    monkeypatch.setattr(kernel, "typecheck", spy)
    typecheck(parse_term("(lam (x e:dog) (app barks (app (tapp id e:dog) x)))", sig), sig)
    assert len(paths) > 4 and all(len(p) in (0, 2) for p in paths)


# ---------------------------------------------------------------------------
# Graph coercions: typed as built from the edges the signature declares


class _Adapting(_Search):
    """The search, checking each graph coercion it adapts an argument with
    as it stores it: later lookups may store another type on a kept chain.
    `seen` counts those checked, and those spelt apart: a goal's binder
    names are not the ones stored."""

    def __init__(self, lex, seen):
        super().__init__(lex)
        self.seen = seen

    def arg_adaptations(self, arg, dom, binders):
        out = super().arg_adaptations(arg, dom, binders)
        for use, wrapper, target in out:
            if use is not None and use.kind == "graph":
                _assert_typed(wrapper, self.sig)
                self.seen["checked"] += 1
                self.seen["spelt apart"] += not binders and print_type(target) != print_type(dom)
        return out


def _random_graph_searches(seen):
    """On random coherent graphs, each type of test_coercion's shapes adapted
    as an argument to every type of its shape (coercion_to) and to a type
    variable (coercion_targets)."""
    rng = random.Random(28)
    for _ in range(60):
        g = _random_multigraph(rng, rng.randrange(2, 9))
        if not check_coherence(g).ok:
            continue
        sorts = sorted(g.nodes, key=str)
        shapes = _shapes(sorts) + _binder_shapes(sorts)
        consts = {f"k{i}": ty for i, ty in enumerate(ty for shape in shapes for ty in shape)}
        sig = _sig_for(g).extend(constants=consts)
        search, names = _Adapting(Lexicon(sig, g), seen), iter(consts)
        for shape in shapes:
            for ty in shape:
                typecheck(arg := Const(next(names), ty), sig)
                for dom, binders in [(goal, []) for goal in shape] + [(TyVar("a"), ["a"])]:
                    search.arg_adaptations(_Cand(arg, (), (), None), dom, binders)


ADAPTED = {
    "goal corpus": lambda seen: [_Adapting(lex, seen).candidates(tree) for lex, tree in _goal_corpus(
        load_lexicon((ROOT / "fixtures" / "english.lex").read_text(encoding="utf-8")), ROOT / "fixtures")],
    "ontology": lambda seen: [_Adapting(lex, seen).candidates(tree)
                              for lex, trees in _workload("ontology") for tree in trees],
    "random graphs": _random_graph_searches,
}


@pytest.mark.parametrize("source", ADAPTED)
def test_each_graph_coercion_is_stored_with_typechecks_type(source):
    ADAPTED[source](seen := Counter())
    assert seen["checked"] > {"goal corpus": 50, "ontology": 200, "random graphs": 4_000}[source]
    assert seen["spelt apart"] > 100 or source != "random graphs"


_EDGES = """sort e:a
sort e:b
sort e:c
coercion ab : e:a -> e:b
coercion bc : e:b -> e:c
const P : (-> e:c t)
const Q : (-> (-> e:a t) t)
word p main P
word q main Q
"""
_LIFT = "(NODE (LEAF q) (LEAF p))"


def _misdeclared(lex):
    """`lex` under a signature that declares the edge bc at another type."""
    sig = lex.signature
    return dataclasses.replace(lex, signature=sig.extend(constants={"bc": parse_type("(-> e:c t)", sig.sorts)}))


def test_an_edge_declared_at_another_type_raises_what_typecheck_raises():
    with pytest.raises(TypeMismatch) as e:
        compose(parse_tree(_LIFT), _misdeclared(load_lexicon(_EDGES)))
    assert type(e.value) is TypeMismatch
    assert str(e.value) == "expected (-> e:c t), found (-> e:b e:c) (at fn.body.body.arg.fn)"


@pytest.mark.parametrize("first", ["declared", "misdeclared"])
def test_lexicons_sharing_a_graph_each_get_their_own_verdict(first):
    # a third lexicon declares the edges as the first does, under a signature
    # of its own: each reads and prints its formula, kept under its signature
    good = load_lexicon(_EDGES)
    bad, tree = _misdeclared(good), parse_tree(_LIFT)
    again = dataclasses.replace(good, signature=good.signature.extend())
    assert bad.coercions is good.coercions is again.coercions
    order = [good, bad, again] if first == "declared" else [bad, good, again]
    text = "(app Q (lam (x e:a) (app P (app bc (app ab x)))))"
    for lex in order * 2:
        sig = lex.signature
        assert _Search(lex).typed == (lex is not bad)
        if lex is not bad:
            [a] = compose(tree, lex)
            assert print_term(a.normal_term) == text
            formula = extract_formula(eta_expand(a.normal_term, sig), sig)
            assert [print_formula(formula, style) for style in (SEXPR, UNICODE)] == [
                "(Q (lam (x e:a) (P (bc (ab x)))))", "Q(λx:a. P(bc(ab(x))))"]
            assert formula == extract_formula(copy_term(a.normal_term), sig)
            assert a.normal_term.arg.body.arg._canonical_memo[0] is sig  # the chain's reading
        else:
            with pytest.raises(TypeMismatch):
                compose(tree, lex)
            with pytest.raises(TypeMismatch):
                extract_formula(parse_term(text, good.signature), sig)
