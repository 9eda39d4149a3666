"""Facts that syntax nodes store, checked against the walks they replaced
(reference_syntax.py): de Bruijn keys, `==` and `hash`, free variables, and
the two type substitutions, which now return a part in which the variable
is not free as the same object.  Every check runs twice, the second time on
the facts that the first stored on the nodes."""

import itertools

import pytest

import reference_syntax as ref
from polysem.composer import DEFAULT_LIMIT, compose, parse_tree, parse_trees
from polysem.inductives import register_finset, register_nat
from polysem.kernel import eta_expand, expand_definitions, normalize, subst_type, substitute_ty
from polysem.lexicon import builtin_signature, load_lexicon
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
    Type,
    Var,
    canon_term,
    canon_type,
    entity_sort,
    free_tyvars,
    free_tyvars_in_term,
    free_vars,
    parse_term,
    print_term,
    print_type,
)
from random_terms import generate_corpus
from test_composer import ORACLE_LEXICON, ORACLE_TREES
from test_reader import ROOT, load_workloads


# ---------------------------------------------------------------------------
# Inputs


def _generated():
    """The seed-4242 corpus of scripts/confluence_experiment.py: raw, normal
    and eta-long."""
    base = register_finset(register_nat(builtin_signature()))
    base = base.extend(sorts=[entity_sort(s) for s in ("dog", "phys", "book")])
    terms, gsig = generate_corpus(base, seed=4242, count=1000, use_inductives=True)
    out = []
    for m in terms:
        nf = normalize(m, gsig).term
        out += [m, nf, eta_expand(nf, gsig).term]
    return out


def _readings(lex, trees, limit=DEFAULT_LIMIT):
    out = []
    for tree in trees:
        for a in compose(tree, lex, limit):
            out += [a.term, a.normal_term]
            if a.result_type == PROP:
                out.append(eta_expand(a.normal_term, lex.signature).term)
    return out


def _workload_terms(name):
    """The terms that the item texts of seeds 1-3 of a workload give."""
    workloads = load_workloads()
    out = []
    for seed in (1, 2, 3):
        w = workloads.make_workload(name, seed)
        lex = load_lexicon(w.lexicon_text)
        texts = sorted({item.text for item in w.items})
        if name == "arith":
            for text in texts:
                term = expand_definitions(parse_term(text, lex.signature), lex.signature)
                out += [term, normalize(term, lex.signature).term]
        else:
            out += _readings(lex, [parse_tree(t) for t in texts], workloads.LIMIT)
    return out


INPUTS = {
    "generated": _generated,
    "fixture trees": lambda: _readings(load_lexicon((ROOT / "fixtures" / "english.lex").read_text(encoding="utf-8")),
                                       parse_trees((ROOT / "fixtures" / "trees.txt").read_text(encoding="utf-8"))),
    "oracle trees": lambda: _readings(load_lexicon(ORACLE_LEXICON), [parse_tree(t) for t in ORACLE_TREES]),
    "ambiguity": lambda: _workload_terms("ambiguity"),
    "ontology": lambda: _workload_terms("ontology"),
    "arith": lambda: _workload_terms("arith"),
}


# ---------------------------------------------------------------------------
# Helpers


def _children(x) -> list:
    match x:
        case Arrow(a, b) | Lam(_, a, b) | App(a, b) | TyApp(a, b):
            return [a, b]
        case Forall(_, a) | SetOf(a) | Const(_, a) | TyLam(_, a):
            return [a]
    return []


def _parts(roots):
    """Every distinct node of the terms and of the types inside them, terms
    and types apart, in a fixed order."""
    seen, terms, types = set(), [], []
    todo = list(reversed(roots))
    while todo:
        x = todo.pop()
        if id(x) not in seen:
            seen.add(id(x))
            (types if isinstance(x, Type) else terms).append(x)
            todo += reversed(_children(x))
    return terms, types


_names = (f"_{i}" for i in itertools.count())


def _renamed(x, tenv={}, tyenv={}):
    """A copy of `x` that shares no node with it and gives every binder a new
    name: alpha-equal to `x`."""
    match x:
        case Base(sort):
            return Base(sort)
        case TyVar(name):
            return TyVar(tyenv.get(name, name))
        case Arrow(dom, cod):
            return Arrow(_renamed(dom, tenv, tyenv), _renamed(cod, tenv, tyenv))
        case Forall(binder, body):
            new = next(_names)
            return Forall(new, _renamed(body, tenv, {**tyenv, binder: new}))
        case SetOf(elem):
            return SetOf(_renamed(elem, tenv, tyenv))
        case Var(name):
            return Var(tenv.get(name, name))
        case Const(name, declared):
            return Const(name, _renamed(declared, tenv, tyenv))
        case Lam(binder, binder_type, body):
            new = next(_names)
            return Lam(new, _renamed(binder_type, tenv, tyenv), _renamed(body, {**tenv, binder: new}, tyenv))
        case App(fn, arg):
            return App(_renamed(fn, tenv, tyenv), _renamed(arg, tenv, tyenv))
        case TyLam(binder, body):
            new = next(_names)
            return TyLam(new, _renamed(body, tenv, {**tyenv, binder: new}))
        case TyApp(fn, ty_arg):
            return TyApp(_renamed(fn, tenv, tyenv), _renamed(ty_arg, tenv, tyenv))


# The key and the free-variable sets of a type or a term, by the library and
# by the reference walks
LIBRARY = {True: (canon_type, free_tyvars), False: (canon_term, free_vars, free_tyvars_in_term)}
REFERENCE = {True: (ref.canon_type, ref.free_tyvars), False: (ref.canon_term, ref.free_vars, ref.free_tyvars_in_term)}


def _facts(x, walks) -> tuple:
    return tuple(walk(x) for walk in walks[isinstance(x, Type)])


def _env_key(x, canon) -> tuple:
    """The key of `x` where an environment binds each of its free variables."""
    if isinstance(x, Type):
        env = {a: i for i, a in enumerate(sorted(ref.free_tyvars(x)))}
        return canon(x, env, len(env) + 1)
    tenv = {v: i for i, v in enumerate(sorted(ref.free_vars(x)))}
    tyenv = {a: len(tenv) + i for i, a in enumerate(sorted(ref.free_tyvars_in_term(x)))}
    return canon(x, tenv, tyenv, len(tenv) + len(tyenv) + 1)


def _binders(x) -> list:
    """The type variables that `x` binds, in order, each once."""
    terms, types = _parts([x])
    return list(dict.fromkeys(n.binder for n in terms + types if isinstance(n, (Forall, TyLam))))


def _substitutions(x, variables, binders):
    """(x, variable, replacement, the reference's result printed): each of
    `variables` replaced by t and by a type that mentions the first of
    `binders`, which its binder captures where the variable occurs under it."""
    walk = ref.subst_type if isinstance(x, Type) else ref.substitute_ty
    return [(x, var, r, str(walk(x, var, r)))
            for var in variables for r in [PROP] + [Arrow(TyVar(b), PROP) for b in binders[:1]]]


def _assert_same_substitution(x, var, r, expected):
    """The substitution prints as the reference's did, and every part of `x`
    in which `var` is not free comes back as the same object."""
    out = (subst_type if isinstance(x, Type) else substitute_ty)(x, var, r)
    assert str(out) == expected, (str(x), var, str(r))
    todo = [(x, out)]
    while todo:
        part, new = todo.pop()
        if var not in _facts(part, LIBRARY)[-1]:
            assert new is part, (str(x), var, str(r), str(part))
        elif type(new) is type(part) and getattr(new, "binder", None) == getattr(part, "binder", None):
            todo += zip(_children(part), _children(new))  # a renamed binder's body is built anew


def _spread(roots, n):
    """At most `n` of the distinct roots, evenly spread over them."""
    roots = list({id(x): x for x in roots}.values())
    return roots[::-(-len(roots) // n)]


# ---------------------------------------------------------------------------
# The test


@pytest.mark.parametrize("name", list(INPUTS))
def test_stored_facts_match_the_walks_they_replaced(name):
    roots = _spread(INPUTS[name](), 3000 if name == "generated" else 300)
    terms, types = _parts(roots)
    assert terms and types
    parts = terms + types
    roots += types
    # the reference's answers, taken once
    facts = [_facts(x, REFERENCE) for x in parts]
    env_keys = [_env_key(x, REFERENCE[isinstance(x, Type)][0]) for x in roots]
    # at each root: its free type variables, the first one it binds and one
    # that occurs nowhere; at each binder: its variable in its body, which
    # the binders inside rename when the replacement mentions theirs
    cases = [c for x in roots for c in _substitutions(x, sorted(_facts(x, REFERENCE)[-1]) + _binders(x)[:1]
                                                      + ["nowhere"], _binders(x))]
    cases += [c for x in parts if isinstance(x, (Forall, TyLam))
              for c in _substitutions(x.body, [x.binder], [b for b in _binders(x.body) if b != x.binder])]
    cases += [(t.fn.body, t.fn.binder, t.ty_arg, str(ref.substitute_ty(t.fn.body, t.fn.binder, t.ty_arg)))
              for t in terms if isinstance(t, TyApp) and isinstance(t.fn, TyLam)]  # each type-beta-redex
    for _ in range(2):  # the second time from what the first stored
        table = {}
        for x, expected in zip(parts, facts):
            assert _facts(x, LIBRARY) == expected, str(x)
            assert hash(x) == hash(expected[0])
            assert table.setdefault(x, expected[0]) == expected[0]  # equal parts have equal keys
        assert len(table) == len(set(table.values()))  # and equal keys, equal parts
        for x, expected in zip(roots, env_keys):
            canon = LIBRARY[isinstance(x, Type)][0]
            assert _env_key(x, canon) == expected
            copy = _renamed(x)  # alpha-equal, and no stored fact
            assert copy == x and hash(copy) == hash(x) and canon(copy) == canon(x)
        for case in cases:
            _assert_same_substitution(*case)
