"""Acceptance suite: every criterion runs at its stated bound and prints one
pass line (run with -s to see them; a pytest failure is the fail line)."""

import random
import time

import networkx as nx

from polysem.cli import search_false
from polysem.coercion import BaseCoercion, CoercionGraph, check_coherence
from polysem.composer import compose, diagnose, parse_tree, parse_trees
from polysem.hol import LogicProfile, classify, extract_formula, print_formula
from polysem.inductives import FOLD_SET, NAT, numeral, numeral_value, register_finset, register_nat
from polysem.kernel import (
    LEFTMOST_OUTERMOST,
    RIGHTMOST_INNERMOST,
    eta_expand,
    normalize,
    reduce_once,
    typecheck,
)
from polysem.lexicon import AND_SOURCE, builtin_signature, load_lexicon
from random_terms import finite_set, generate_corpus
from polysem.syntax import (
    App,
    PROP,
    alpha_eq,
    apps,
    entity_sort,
    parse_term,
    parse_type,
)

from formula_gen import random_formula


def _pass(criterion, detail=""):
    print(f"ACCEPTANCE {criterion}: PASS {detail}")


BOOK_TREE = "(NODE (NODE (NODE (LEAF and) (LEAF heavy)) (LEAF interesting)) (LEAF book))"
LIVERPOOL_TREE = ("(NODE (NODE (NODE (LEAF and) (LEAF defeated-Chelsea))"
                  " (LEAF built-new-docks)) (LEAF Liverpool))")
CHAIR_TREE = "(NODE (LEAF barks) (LEAF chair))"


def test_criterion_1_and_term_type(sig):
    started = time.monotonic()
    term = parse_term(AND_SOURCE, sig, allow_free=False)
    ty = typecheck(term, sig)
    expected = parse_type(
        "(all a (all b (-> (-> a t) (-> (-> b t)"
        " (all c (-> c (-> (-> c a) (-> (-> c b) t))))))))"
    )
    elapsed = time.monotonic() - started
    assert alpha_eq(ty, expected)
    assert elapsed < 1.0
    _pass(1, f"AND-term type ({elapsed * 1000:.0f} ms)")


def test_criterion_2_book_copredication(lex):
    # Manual beta-reduction oracle, derived by hand before implementation.
    # The single analysis composes to
    #   AND [phys] [info] heavyM interestingM [book] b g0 f0
    # where AND = TLam a. TLam b. lam P. lam Q. TLam c. lam x. lam f. lam g.
    #             ∧ (P (f x)) (Q (g x))
    # and heavyM = lam x:phys. heavy x, interestingM = lam x:info. interesting x.
    # Type-beta steps (3):  a := phys, b := info, c := book.
    # Beta steps (5):       P := heavyM, Q := interestingM, x := b,
    #                       f := g0, g := f0, leaving
    #   ∧ (heavyM (g0 b)) (interestingM (f0 b))
    # Final beta steps (2): contract the eta-wrapped predicates:
    #   ∧ (heavy (g0 b)) (interesting (f0 b))
    analyses = compose(parse_tree(BOOK_TREE), lex)
    assert len(analyses) == 1
    oracle_normal = parse_term(
        "(app (app ∧ (app heavy (app g0 b))) (app interesting (app f0 b)))",
        lex.signature,
    )
    assert alpha_eq(analyses[0].normal_term, oracle_normal)
    nf = eta_expand(analyses[0].normal_term, lex.signature)
    formula = extract_formula(nf, lex.signature)
    assert print_formula(formula) == "(and (heavy (g0 b)) (interesting (f0 b)))"
    _pass(2, "book copredication formula")


def test_criterion_3_rigidity_toggle(lex, fixture_dir):
    rigid_analyses = compose(parse_tree(LIVERPOOL_TREE), lex)
    assert rigid_analyses == []
    text = (fixture_dir / "english.lex").read_text()
    flexible = load_lexicon(text.replace("townToClub rigid", "townToClub flexible"))
    flexible_analyses = compose(parse_tree(LIVERPOOL_TREE), flexible)
    assert len(flexible_analyses) >= 1
    _pass(3, f"rigid 0 analyses, flexible {len(flexible_analyses)}")


def test_criterion_4_selectional_rejection(lex):
    assert compose(parse_tree(CHAIR_TREE), lex) == []
    report = diagnose(parse_tree(CHAIR_TREE), lex)
    deepest = report.deepest
    assert deepest.kind == "NoPath"
    assert deepest.from_type == parse_type("e:chair")
    assert deepest.to_type == parse_type("e:dog")
    _pass(4, "chair/barks NoPath(chair, dog)")


def _oracle_coherent(g):
    """Brute-force path enumeration oracle (networkx multigraph)."""
    m = nx.MultiDiGraph()
    for s in g.nodes:
        m.add_node(s.name)
    for e in g.edges:
        m.add_edge(e.source.name, e.target.name, key=e.name)
    if not nx.is_directed_acyclic_graph(m):
        return False
    for a in m.nodes:
        for b in m.nodes:
            if a != b and len(list(nx.all_simple_edge_paths(m, a, b))) > 1:
                return False
    return True


def test_criterion_5_coherence():
    # linear chains up to 8 sorts are always accepted
    for n in range(1, 9):
        chain = CoercionGraph(tuple(
            BaseCoercion(f"c{i}", entity_sort(f"s{i}"), entity_sort(f"s{i + 1}"))
            for i in range(n - 1)
        ))
        assert check_coherence(chain).ok
    # 100 random DAGs agree with the oracle; every diamond is rejected
    rng = random.Random(1234)
    diamonds = 0
    for _ in range(100):
        n = rng.randrange(3, 9)
        edges = []
        k = 0
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.35:
                    edges.append(BaseCoercion(f"e{k}", entity_sort(f"s{i}"), entity_sort(f"s{j}")))
                    k += 1
        g = CoercionGraph(tuple(edges))
        ours = check_coherence(g).ok
        oracle = _oracle_coherent(g)
        assert ours == oracle
        if not oracle:
            diamonds += 1
            assert not ours  # every diamond rejected
    assert diamonds > 10  # the family genuinely contains diamonds
    _pass(5, f"coherence agreed on 100 DAGs ({diamonds} incoherent)")


def test_criterion_6_kernel_properties():
    started = time.monotonic()
    sig = register_finset(register_nat(builtin_signature()))
    sig = sig.extend(sorts=[entity_sort(s) for s in ("dog", "phys", "book")])
    terms, gsig = generate_corpus(sig, seed=4242, count=1000, use_inductives=True)
    counterexamples = 0
    for m in terms:
        ty = typecheck(m, gsig)
        for strategy in (LEFTMOST_OUTERMOST, RIGHTMOST_INNERMOST):
            stepped = reduce_once(m, gsig, strategy)
            if stepped is not None and typecheck(stepped, gsig) != ty:
                counterexamples += 1
        lo = normalize(m, gsig, strategy=LEFTMOST_OUTERMOST).term
        ri = normalize(m, gsig, strategy=RIGHTMOST_INNERMOST).term
        if not alpha_eq(lo, ri):
            counterexamples += 1
    elapsed = time.monotonic() - started
    assert counterexamples == 0
    assert elapsed < 60.0
    _pass(6, f"1000 terms, 0 counterexamples ({elapsed:.1f} s)")


def test_criterion_7_formula_totality(lex, fixture_dir):
    from polysem.hol import formula_to_term

    analyses = []
    for tree in parse_trees((fixture_dir / "trees.txt").read_text()):
        analyses.extend(compose(tree, lex))
    assert analyses
    checked = 0
    for a in analyses:
        if a.result_type != PROP:
            continue
        nf = eta_expand(a.normal_term, lex.signature)
        formula = extract_formula(nf, lex.signature)  # must not raise
        assert alpha_eq(formula_to_term(formula, lex.signature), nf.term)
        checked += 1
    from polysem.kernel import is_beta_normal
    from test_kernel import is_eta_long

    rng = random.Random(777)
    for i in range(500):
        f = random_formula(rng, lex.signature)
        term = formula_to_term(f, lex.signature)
        assert typecheck(term, lex.signature) == PROP
        if i % 25 == 0:  # the corpus really is eta-long beta-normal
            assert is_beta_normal(term, lex.signature)
            assert is_eta_long(term, lex.signature)
        again = extract_formula(term, lex.signature)  # no UnexpectedHead
        assert alpha_eq(formula_to_term(again, lex.signature), term)
        checked += 1
    _pass(7, f"extraction total and invertible on {checked} terms")


def test_criterion_8_consistency_search():
    started = time.monotonic()
    false_type = parse_type("(all a a)")
    assert search_false(9, false_type) == []
    identity_type = parse_type("(all a (-> a a))")
    found = search_false(5, identity_type)
    sig = builtin_signature()
    assert any(alpha_eq(t, parse_term("(tlam a (lam (x a) x))", sig)) for t in found)
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    _pass(8, f"no inhabitant of (all a a) at size 9 ({elapsed:.2f} s)")


def test_criterion_9_godel_t_arithmetic():
    sig = register_finset(register_nat(builtin_signature()))
    add = parse_term(
        "(lam (m e:nat) (lam (n e:nat)"
        " (app (app (app (tapp RecN e:nat) n)"
        " (lam (k e:nat) (lam (a e:nat) (app Succ a)))) m)))",
        sig,
    )
    for m in range(17):
        for n in range(17):
            out = normalize(App(App(add, numeral(m)), numeral(n)), sig).term
            assert numeral_value(out) == m + n  # native-integer oracle
    count = parse_term("(lam (x e:nat) (lam (a e:nat) (app Succ a)))", sig)
    rng = random.Random(55)
    for _ in range(30):
        elems = [numeral(rng.randrange(0, 40)) for _ in range(rng.randrange(0, 17))]
        term = apps(sig.const(FOLD_SET), NAT, NAT, numeral(0), count,
                    finite_set(elems, NAT))
        assert numeral_value(normalize(term, sig).term) == len(elems)
    _pass(9, "RecN addition on all pairs <= 16; FoldS cardinality on sets <= 16")


def test_criterion_10_order_classification(lex):
    [book] = compose(parse_tree(BOOK_TREE), lex)
    nf = eta_expand(book.normal_term, lex.signature)
    book_profile = classify(extract_formula(nf, lex.signature))
    assert book_profile == LogicProfile(order=1, sorts=3)
    second_order = parse_term(
        "(app (tapp ∀ (-> e:dog t)) (lam (P (-> e:dog t))"
        " (app (tapp ∀ e:dog) (lam (x e:dog) (app barks x)))))",
        lex.signature,
    )
    profile = classify(extract_formula(second_order, lex.signature))
    assert profile.order == 2
    _pass(10, f"book order {book_profile.order}, predicate quantification order {profile.order}")
