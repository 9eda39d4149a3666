"""Printed s-expressions and logic profiles that formula nodes store,
checked against the walks they replaced (reference_hol.py) at every node of
every input formula.  The readings of one tree share subformula objects, so
stored results are read within the first pass too; the second pass reads
only stored results."""

import random

import pytest

import reference_hol as ref
from formula_gen import random_formula
from polysem.composer import DEFAULT_LIMIT, compose, parse_tree, parse_trees
from polysem.hol import SEXPR, Formula, HolTerm, classify, extract_formula, print_formula
from polysem.kernel import eta_expand
from polysem.lexicon import load_lexicon
from polysem.syntax import PROP, parse_term
from test_composer import ORACLE_LEXICON, ORACLE_TREES
from test_reader import ROOT, load_workloads

FIXTURE_LEXICON = (ROOT / "fixtures" / "english.lex").read_text(encoding="utf-8")

# constants whose arguments read as λ-abstractions, a Λ-abstraction and an
# embedded formula, choice terms, and polymorphic constants taking a type
HIGHER_LEXICON = """
sort e:dog
sort e:cat
const rex : e:dog
const tom : e:cat
const same : (all a (-> a (-> a t)))
const pick : (all a (-> (-> a t) a))
const inhabited : (all a t)
const barks : (-> e:dog t)
const most : (-> (-> e:dog t) (-> (-> e:dog t) t))
const poly : (-> (all a (-> a t)) t)
const believes : (-> e:dog (-> t t))
"""

HIGHER_TERMS = [
    "(app (app most barks) (lam (x e:dog) (app (app believes x) (app barks rex))))",
    "(app poly (tlam a (lam (y a) (app barks (app (tapp ε e:dog) barks)))))",
    "(app (app ∧ (tapp inhabited e:cat)) (app barks rex))",
    "(app (app (tapp same e:cat) tom) (app (tapp pick e:cat) (lam (c e:cat) (app (app (tapp same e:cat) c) tom))))",
    "(app (app believes (app (tapp τ e:dog) (lam (z e:dog) (app ¬ (app barks z))))) (app poly (tlam b (lam (w b) "
    "(app (tapp ∀ (-> e:cat t)) (lam (p (-> e:cat t)) (app barks rex)))))))",
]


def _tree_formulas(lex_text, trees, limit=DEFAULT_LIMIT):
    lex = load_lexicon(lex_text)
    out = []
    for tree in trees:
        for a in compose(tree, lex, limit):
            if a.result_type == PROP:
                out.append(extract_formula(eta_expand(a.normal_term, lex.signature), lex.signature))
    return out


def _workload_formulas(name):
    workloads = load_workloads()
    out = []
    for seed in (1, 2, 3):
        w = workloads.make_workload(name, seed)
        texts = sorted({item.text for item in w.items})
        out += _tree_formulas(w.lexicon_text, [parse_tree(t) for t in texts], workloads.LIMIT)
    return out


def _higher_formulas():
    lex = load_lexicon(HIGHER_LEXICON)
    sig = lex.signature
    return [extract_formula(eta_expand(parse_term(t, sig), sig), sig) for t in HIGHER_TERMS]


def _generated():
    rng, sig = random.Random(19), load_lexicon(FIXTURE_LEXICON).signature
    return [random_formula(rng, sig) for _ in range(300)]


INPUTS = {
    "fixture trees": lambda: _tree_formulas(
        FIXTURE_LEXICON, parse_trees((ROOT / "fixtures" / "trees.txt").read_text(encoding="utf-8"))),
    "oracle trees": lambda: _tree_formulas(ORACLE_LEXICON, [parse_tree(t) for t in ORACLE_TREES]),
    "ambiguity": lambda: _workload_formulas("ambiguity"),
    "ontology": lambda: _workload_formulas("ontology"),
    "generated": _generated,
    "higher-order": _higher_formulas,
}


def _nodes(f) -> list:
    """Every formula and term node of `f`, `f` first."""
    out, todo = [], [f]
    while todo:
        node = todo.pop()
        out.append(node)
        for value in (getattr(node, name) for name in node.__match_args__):
            for x in value if isinstance(value, tuple) else (value,):
                if isinstance(x, (Formula, HolTerm)):
                    todo.append(x)
    return out


@pytest.mark.parametrize("name", INPUTS)
def test_stored_prints_and_profiles_match_the_walks(name):
    formulas = INPUTS[name]()
    assert formulas
    nodes = [n for f in formulas for n in _nodes(f)]
    expected = [(ref._print_sexpr(n), ref.classify(n)) for n in nodes]
    for _ in range(2):
        assert [(print_formula(n, SEXPR), classify(n)) for n in nodes] == expected
