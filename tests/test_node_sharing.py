"""The reader, definition expansion and recursor rewrites reuse the nodes they
are given, checked against the versions that built fresh ones
(reference_kernel.py): one Const node per constant name in a parsed text,
expanded terms that keep every part with no definable constant and share no
node but variables with the signature's definitions, and rewrites that reuse the redex's
recursor constant.  The parse, the expansion and the normal form print as the
references' do, with the same contractions and the fuel running out at the
same step, under both strategies."""

from dataclasses import replace

import pytest

import reference_kernel as ref
from polysem.errors import FuelExhausted
from polysem.inductives import FOLD_SET, INSERT, REC_NAT, SUCC, register_finset, register_nat
from polysem.kernel import (
    DEFAULT_FUEL,
    LEFTMOST_OUTERMOST,
    RIGHTMOST_INNERMOST,
    expand_definitions,
    normalize,
    reduce_once,
    typecheck,
)
from polysem.lexicon import builtin_signature, load_lexicon
from polysem.syntax import Const, Term, Var, entity_sort, parse_term, print_term, spine
from random_terms import generate_corpus
from test_composer import RECURSOR_CORPUS
from test_reader import ROOT, load_workloads

STRATEGIES = (LEFTMOST_OUTERMOST, RIGHTMOST_INNERMOST)
_OLD_REWRITES = {(REC_NAT, SUCC): ref._rec_nat_succ, (FOLD_SET, INSERT): ref._fold_insert}


def _reference_signature(sig):
    """`sig` with the recursor rules that built a fresh recursor constant."""
    rules = tuple(replace(r, rewrite=lambda _prefix, elims, scrut, old=_OLD_REWRITES[key]: old(elims, scrut))
                  if (key := (r.recursor_head, r.constructor)) in _OLD_REWRITES else r for r in sig.rules)
    return replace(sig, rules=rules)


def _nodes(term):
    yield term
    for child in ("fn", "arg", "body"):
        if isinstance(getattr(term, child, None), Term):
            yield from _nodes(getattr(term, child))


def _untouched(parsed, expanded, defs) -> bool:
    """Whether `parsed` holds a definable constant; asserts that a part holding none
    comes back as the same object."""
    if isinstance(parsed, Const) and parsed.name in defs:
        return True
    touched = False
    for child in ("fn", "arg", "body"):
        if isinstance(getattr(parsed, child, None), Term):
            touched = _untouched(getattr(parsed, child), getattr(expanded, child), defs) or touched
    assert touched or expanded is parsed
    return touched


LIBRARY = (parse_term, expand_definitions)
REFERENCE = (ref.parse_term, ref.expand_definitions)


def _pipeline(stages, text, sig, strategy, fuel=DEFAULT_FUEL):
    parse, expand = stages
    parsed = parse(text, sig)
    expanded = expand(parsed, sig)
    typecheck(expanded, sig)
    return parsed, expanded, normalize(expanded, sig, fuel, strategy)


def _fuel_message(stages, text, sig, strategy, fuel):
    with pytest.raises(FuelExhausted) as info:
        _pipeline(stages, text, sig, strategy, fuel)
    return str(info.value)


def _assert_as_the_references(texts, sig) -> int:
    """Each text parsed, expanded, typed and normalised under each strategy, by the
    library and by the references, each time from a fresh parse.  Returns the
    contractions made."""
    rsig = _reference_signature(sig)
    # variables remember nothing that names a signature, and stay shared
    definition_nodes = {id(n) for d in sig.definitions.values() for n in _nodes(d) if not isinstance(n, Var)}
    steps = 0
    for text in texts:
        for strategy in STRATEGIES:
            parsed, expanded, nf = _pipeline(LIBRARY, text, sig, strategy)
            want = _pipeline(REFERENCE, text, rsig, strategy)
            assert [print_term(t) for t in (parsed, expanded, nf.term)] == [
                print_term(t) for t in (want[0], want[1], want[2].term)], text
            assert nf.steps == want[2].steps, text
            if nf.steps:
                fuel = nf.steps - 1
                assert (_fuel_message(LIBRARY, text, sig, strategy, fuel)
                        == _fuel_message(REFERENCE, text, rsig, strategy, fuel)
                        == f"no normal form within {fuel} steps"), text
            _untouched(parsed, expanded, sig.definitions)
            assert definition_nodes.isdisjoint(map(id, _nodes(expanded))), text
            consts = {}
            for node in _nodes(parsed):
                if isinstance(node, Const):
                    assert consts.setdefault(node.name, node) is node, (text, node.name)
            steps += nf.steps
    return steps


def test_arith_items_match_the_references():
    workloads = load_workloads()
    for seed in (1, 2, 3):
        w = workloads.make_workload("arith", seed)
        sig = load_lexicon(w.lexicon_text).signature
        assert _assert_as_the_references(sorted({item.text for item in w.items}), sig) > 0


def test_recursor_corpus_matches_the_references():
    sig = register_finset(register_nat(builtin_signature()))
    assert _assert_as_the_references(RECURSOR_CORPUS.values(), sig) > 0


def test_random_corpus_matches_the_references():
    base = register_finset(register_nat(builtin_signature()))
    base = base.extend(sorts=[entity_sort(s) for s in ("dog", "phys", "book")])
    terms, gsig = generate_corpus(base, seed=4242, count=1000, use_inductives=True)
    _assert_as_the_references([print_term(t) for t in terms], gsig)


def test_lexicon_words_expand_as_the_references():
    # every word and transfer term of the fixture lexicon, most through AND
    text = (ROOT / "fixtures" / "english.lex").read_text(encoding="utf-8")
    sig = load_lexicon(text).signature
    terms = [line.split(" main ", 1)[1] if line.startswith("word ") else line.split(None, 4)[4]
             for line in text.splitlines() if line.startswith(("word ", "word-transfer "))]
    assert sum("AND" in t for t in terms) > 0
    _assert_as_the_references(terms, sig)


@pytest.mark.parametrize("text", [
    "(app (app (app (tapp RecN e:nat) Zero) (lam (k e:nat) (lam (a e:nat) a))) (app Succ Zero))",
    "(app (app (app (tapp (tapp FoldS e:nat) e:nat) Zero) (lam (x e:nat) (lam (a e:nat) a)))"
    " (app (app (tapp InsertS e:nat) Zero) (tapp EmptyS e:nat)))",
])
def test_rewrites_reuse_the_redex_head(text):
    # step n (R … n): the recursive call is the redex's own prefix R … applied to n
    sig = register_finset(register_nat(builtin_signature()))
    term = parse_term(text, sig)
    out = reduce_once(term, sig)
    assert spine(out.arg)[0] is spine(term)[0]
    assert print_term(out.arg.fn) == print_term(term.fn)
    assert out.arg.fn is term.fn
