"""Readings kept on shared nodes: kernel.canonical remembers the verdict and
the reading of a spine that depends on the term alone, a closed one or a
first-order one, so that a coercion chain a lexicon keeps, shared by every
lift under its λ, is walked and read once.  Each kept reading must be the
one a memo-free copy of its term gives, in either order of the η check and
the reading, and the work per ontology item must stay down."""

from collections import Counter
from types import SimpleNamespace

import pytest

from polysem import hol, kernel
from polysem.composer import compose, parse_tree
from polysem.errors import NotNormal
from polysem.hol import SEXPR, UNICODE, classify, extract_formula, print_formula
from polysem.kernel import canonical, copy_term, eta_expand
from polysem.lexicon import builtin_signature, load_lexicon
from polysem.syntax import PROP, App, Arrow, Const, Lam, Var, entity_sort, etype, print_term, print_type

from test_composer import _goal_corpus
from test_reader import ROOT, load_workloads


def _ontology_runs():
    """The ontology seeds 1-3, each item twice over on one fresh lexicon."""
    workloads = load_workloads()
    for seed in (1, 2, 3):
        w = workloads.make_workload("ontology", seed)
        lex = load_lexicon(w.lexicon_text)
        yield from ((lex, parse_tree(item.text)) for item in w.items * 2)


def _goal_runs():
    """test_composer's goal corpus: a tree ontology, the fixtures and the oracle trees."""
    return _goal_corpus(load_lexicon((ROOT / "fixtures" / "english.lex").read_text(encoding="utf-8")),
                        ROOT / "fixtures")


RUNS = {"ontology": _ontology_runs, "goal corpus": _goal_runs}


def _nodes(formula):
    """Every formula and HOL term node of `formula`."""
    out, todo = [], [formula]
    while todo:
        out.append(node := todo.pop())
        for name in node.__match_args__:
            part = getattr(node, name)
            todo += [p for p in (part if isinstance(part, tuple) else (part,)) if isinstance(p, hol._Node)]
    return out


def _read(term, sig, eta_first):
    """The η-long form and the formula of a normal form of type t, the η check made first or second."""
    formula = None
    if not eta_first:
        try:
            formula = extract_formula(term, sig)
        except NotNormal:  # not η-long: read after the check
            pass
    nf = eta_expand(term, sig)
    assert formula is None or nf.term is term
    return nf.term, extract_formula(nf, sig) if formula is None else formula


@pytest.mark.parametrize("eta_first", [True, False], ids=["eta then extract", "extract then eta"])
@pytest.mark.parametrize("source", RUNS)
def test_kept_readings_match_a_memo_free_copy(source, eta_first):
    read, seen = Counter(), {}
    for lex, tree in RUNS[source]():
        sig = lex.signature
        for a in compose(tree, lex):
            if a.result_type != PROP:
                continue
            term, formula = _read(a.normal_term, sig, eta_first)
            fresh_term, fresh = _read(copy_term(a.normal_term), sig, eta_first)
            assert print_term(term) == print_term(fresh_term)
            assert formula == fresh, print_term(term)
            for style in (SEXPR, UNICODE):
                assert print_formula(formula, style) == print_formula(fresh, style)
            assert classify(formula) == classify(fresh)
            read["readings"] += 1
            read["shared"] += any(id(node) in seen for node in _nodes(formula)[1:])
            seen.update((id(node), node) for node in _nodes(formula))  # kept alive, so that ids stay apart
    assert read["readings"] > {"ontology": 900, "goal corpus": 60}[source], read
    assert read["shared"] > {"ontology": 600, "goal corpus": 10}[source], read


# ---------------------------------------------------------------------------
# Shared nodes under binders whose sorts differ


_SORTS = [entity_sort(s) for s in ("cat", "bird", "dog")]
_SIG = builtin_signature().extend(sorts=_SORTS, constants={"c": Arrow(etype("dog"), PROP)})

# a reading that records each spine's type, which a variable's binder sets
_RECORDING = SimpleNamespace(
    abstraction=lambda term, ty, body: ("lam", term.binder, print_type(ty), body),
    head=lambda head, ty, n: None,
    spine=lambda head, ty, ty_args, args: (print_term(head), print_type(ty), tuple(args)))


def _under(sort, body):
    """λf:(-> e:sort e:dog). λy:e:sort. body"""
    return Lam("f", Arrow(etype(sort), etype("dog")), Lam("y", etype(sort), body))


def _body():
    """c (f y), in new nodes: its spine `f y` is headed by a variable."""
    return App(Const("c", _SIG.constants["c"]), App(Var("f"), Var("y")))


def _ty(sort):
    return Arrow(Arrow(etype(sort), etype("dog")), Arrow(etype(sort), PROP))


@pytest.mark.parametrize("share", ["c (f y)", "f y"])
def test_a_spine_under_a_variable_head_is_read_in_its_own_scope(share):
    shared = _body()
    for sort in ("cat", "bird", "cat"):
        body = shared if share == "c (f y)" else App(shared.fn, shared.arg)
        want = canonical(_under(sort, _body()), _ty(sort), _SIG, read=_RECORDING)
        assert canonical(_under(sort, body), _ty(sort), _SIG, read=_RECORDING) == want
        assert want[3][3][2][0][2][0][1] == f"e:{sort}"  # y's reading, at its binder's sort


def test_a_first_order_chain_is_read_once_under_each_binder():
    # c2 (c1 y) under two λs: its reading is kept on first use, and the second
    # λ reads it from its node
    sig = _SIG.extend(constants={"c1": Arrow(etype("cat"), etype("bird")), "c2": Arrow(etype("bird"), etype("dog"))})
    chain = App(Const("c2", sig.constants["c2"]), App(Const("c1", sig.constants["c1"]), Var("y")))
    body = App(Const("c", sig.constants["c"]), chain)
    first = canonical(Lam("y", etype("cat"), body), Arrow(etype("cat"), PROP), sig, read=hol._READER)
    assert chain._canonical_memo[0] is sig
    second = canonical(Lam("y", etype("cat"), App(body.fn, chain)), Arrow(etype("cat"), PROP), sig,
                       read=hol._READER)
    assert second.body is not first.body and second.body.args[0] is first.body.args[0]
    assert print_formula(second) == "(lam (y e:cat) (c (c2 (c1 y))))"


# ---------------------------------------------------------------------------
# Work per ontology item


def test_ontology_readings_walk_each_kept_chain_once(monkeypatch):
    # recursive kernel.canonical calls and hol._print_sexpr calls over the
    # first 200 ontology items of seed 1: 21.85 and 10.93 per item when a
    # chain under a lift's λ was walked in full by every pass
    calls = Counter()

    def counting(module, name):
        real = getattr(module, name)

        def count(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, count)
        return count

    monkeypatch.setattr(hol, "canonical", counting(kernel, "canonical"))
    counting(hol, "_print_sexpr")
    workloads = load_workloads()
    w, api = workloads.make_workload("ontology", 1), workloads.make_api()
    lex = api.load_lexicon(w.lexicon_text)
    calls.clear()
    for item in w.items[:200]:
        w.run(api, lex, item.text)
    assert calls["canonical"] <= 13 * 200 and calls["_print_sexpr"] <= 7 * 200, calls
