"""Composition: adaptation search, rigidity, diagnostics.

The completeness oracle at the bottom re-derives the full analysis set by
exhaustively trying every adaptation combination per application edge and
slot, using only kernel primitives (typecheck/normalize/match_type) plus
networkx path enumeration for coercions; it shares none of the composer's
search machinery.
"""

import dataclasses
import random
from collections import Counter

import networkx as nx
import pytest

from polysem import coercion, composer, kernel
from polysem.composer import (
    Leaf,
    MAIN,
    Node,
    Occurrence,
    TyAnno,
    Use,
    DEFAULT_LIMIT,
    compose,
    compose_with_failures,
    diagnose,
    parse_tree,
    parse_trees,
    _Search,
)
from polysem.errors import FuelExhausted, IllFormedType, TypeCheckError, UnknownWord
from polysem.inductives import InductiveRule, register_finset, register_nat
from polysem.kernel import (
    LEFTMOST_OUTERMOST,
    RIGHTMOST_INNERMOST,
    copy_term,
    match_type,
    normalize,
    reduce_once,
    typecheck,
)
from polysem.lexicon import builtin_signature, load_lexicon
from random_terms import generate_corpus
from test_reader import load_workloads
from reference_coercion import coercion_to as coercion_to_before, find_coercion as find_coercion_before, shown
from polysem.syntax import (
    App,
    Arrow,
    Forall,
    Lam,
    PROP,
    TyApp,
    Var,
    alpha_eq,
    canon_term,
    entity_sort,
    etype,
    free_tyvars_in_term,
    free_vars,
    fresh_name,
    parse_term,
    parse_type,
    print_term,
    print_type,
)

BOOK_TREE = "(NODE (NODE (NODE (LEAF and) (LEAF heavy)) (LEAF interesting)) (LEAF book))"
LIVERPOOL_TREE = ("(NODE (NODE (NODE (LEAF and) (LEAF defeated-Chelsea))"
                  " (LEAF built-new-docks)) (LEAF Liverpool))")
CHAIR_TREE = "(NODE (LEAF barks) (LEAF chair))"


# ---------------------------------------------------------------------------
# tree parsing


def test_parse_tree_shapes():
    tree = parse_tree(BOOK_TREE)
    assert isinstance(tree, Node)
    assert tree.arg == Leaf("book")
    anno = parse_tree("(TY (LEAF every) e:dog)")
    assert isinstance(anno, TyAnno)
    assert anno.ty_args == (etype("dog"),)


def test_parse_trees_skips_comments():
    trees = parse_trees("# comment\n\n(LEAF book)\n(NODE (LEAF barks) (LEAF chair))\n")
    assert len(trees) == 2


# ---------------------------------------------------------------------------
# the three sentences


def test_book_copredication(lex):
    analyses = compose(parse_tree(BOOK_TREE), lex)
    assert len(analyses) == 1
    a = analyses[0]
    assert a.result_type == PROP
    expected = parse_term(
        "(app (app ∧ (app heavy (app g0 b))) (app interesting (app f0 b)))",
        lex.signature,
    )
    assert alpha_eq(a.normal_term, expected)
    book_occ = next(occ for occ in a.used_transfers if occ.word == "book")
    labels = {u.label for u in a.used_transfers[book_occ]}
    assert labels == {"f0", "g0"}


def test_liverpool_blocked_when_rigid(lex):
    assert compose(parse_tree(LIVERPOOL_TREE), lex) == []


def test_liverpool_allowed_when_flexible(lex, fixture_dir):
    text = (fixture_dir / "english.lex").read_text()
    flex = load_lexicon(text.replace("townToClub rigid", "townToClub flexible"))
    analyses = compose(parse_tree(LIVERPOOL_TREE), flex)
    assert len(analyses) >= 1
    expected = parse_term(
        "(app (app ∧ (app defeated_chelsea (app townToClub liv))) (app built_docks liv))",
        flex.signature,
    )
    assert alpha_eq(analyses[0].normal_term, expected)


def test_chair_barks_rejected(lex):
    assert compose(parse_tree(CHAIR_TREE), lex) == []


def test_unknown_word_raises(lex):
    with pytest.raises(UnknownWord):
        compose(parse_tree("(LEAF martian)"), lex)


def test_ill_formed_type_annotation_raises(lex):
    # TY types are checked against the lexicon's sorts in the empty
    # type-variable context, before the search builds any term from them
    for tree_text in ("(NODE (TY (LEAF every) a) (LEAF barks))",
                      "(NODE (TY (LEAF every) e:nope) (LEAF barks))",
                      "(TY (LEAF every) (-> e:dog (all b c)))"):
        with pytest.raises(IllFormedType):
            compose(parse_tree(tree_text), lex)
    # a closed annotation is accepted, even when the sorts then do not fit
    assert compose(parse_tree("(NODE (TY (LEAF every) (-> e:dog (all b b))) (LEAF barks))"),
                   lex) == []


def test_limit_respected(lex):
    with pytest.raises(ValueError):
        compose(parse_tree(BOOK_TREE), lex, limit=0)
    assert len(compose(parse_tree(BOOK_TREE), lex, limit=1)) == 1


# ---------------------------------------------------------------------------
# _Search.apply_node


def apply_node(fn_term, arg_term, lex, fn_word=None, arg_word=None):
    """One application edge of a fresh search over two closed well-typed
    terms: each adapted application as (term, adaptation record)."""
    for term in (fn_term, arg_term):
        typecheck(term, lex.signature)  # remembered on the node, where the search reads it
    fn = composer._Cand(fn_term, (), (), Occurrence((0,), fn_word) if fn_word else None)
    arg = composer._Cand(arg_term, (), (), Occurrence((1,), arg_word) if arg_word else None)
    return [(cand.term, {str(occ): tuple(u.label for u in uses) for occ, uses in cand.uses})
            for cand in _Search(lex).apply_node(fn, arg, ())]


def test_apply_coerces_argument(lex):
    sleeps = lex.entries["sleeps"].main_term
    rex = lex.entries["Rex"].main_term
    results = apply_node(sleeps, rex, lex, fn_word="sleeps", arg_word="Rex")
    assert len(results) == 1
    term, record = results[0]
    expected = parse_term("(app sleeps (app dogAni rex))", lex.signature)
    assert alpha_eq(normalize(term, lex.signature).term, expected)
    assert any("graph" in lbl for labels in record.values() for lbl in labels)


def test_apply_exact_match(lex):
    import dataclasses

    sig = lex.signature.extend(constants={"P": Arrow(PROP, PROP), "q": PROP})
    lex2 = dataclasses.replace(lex, signature=sig)
    p = sig.const("P")
    q = sig.const("q")
    results = apply_node(p, q, lex2)
    assert len(results) == 1
    assert alpha_eq(results[0][0], App(p, q))


def test_apply_instantiates_quantifier(lex):
    forall = lex.signature.const("∀")
    barks = lex.signature.const("barks")
    results = apply_node(forall, barks, lex)
    assert len(results) >= 1
    term = results[0][0]
    # hand matching of (a -> t) against (dog -> t) gives a := dog
    assert alpha_eq(term, App(TyApp(forall, etype("dog")), barks))


# ---------------------------------------------------------------------------
# rigidity: the rule the search applies to each occurrence's uses


def _occ(word):
    return Occurrence((0,), word)


def check_rigidity(used):
    """The first occurrence whose uses composer._licit refuses, or None."""
    return next((occ for occ, uses in used.items() if not composer._licit(uses)), None)


def test_rigidity_flexible_pair_ok():
    used = {_occ("book"): (Use("f0", "flexible", "transfer"),
                           Use("g0", "flexible", "transfer"))}
    assert check_rigidity(used) is None


def test_rigidity_rigid_plus_other_blocked():
    used = {_occ("Liverpool"): (Use("townToClub", "rigid", "transfer"),
                                Use(MAIN, None, "main"))}
    violation = check_rigidity(used)
    assert violation is not None
    assert violation.word == "Liverpool"


def test_rigidity_single_rigid_ok():
    used = {_occ("Liverpool"): (Use("townToClub", "rigid", "transfer"),)}
    assert check_rigidity(used) is None


def test_rigidity_two_rigids_blocked():
    used = {_occ("w"): (Use("r1", "rigid", "transfer"), Use("r2", "rigid", "transfer"))}
    assert check_rigidity(used) is not None


def test_rigidity_main_only_ok():
    used = {_occ("w"): (Use(MAIN, None, "main"), Use(MAIN, None, "main"))}
    assert check_rigidity(used) is None


# ---------------------------------------------------------------------------
# diagnose


def test_diagnose_no_path(lex):
    report = diagnose(parse_tree(CHAIR_TREE), lex)
    assert not report.empty
    deepest = report.deepest
    assert deepest.kind == "NoPath"
    assert deepest.from_type == etype("chair")
    assert deepest.to_type == etype("dog")


def test_diagnose_rigidity(lex):
    report = diagnose(parse_tree(LIVERPOOL_TREE), lex)
    assert report.deepest.kind == "RigidityViolation"
    assert report.deepest.occurrence.word == "Liverpool"


def test_diagnose_not_polymorphic(lex):
    # a type argument for a term whose type has no quantifier
    report = diagnose(parse_tree("(TY (LEAF book) e:dog)"), lex)
    assert report.deepest.kind == "NotPolymorphic"
    assert report.deepest.from_type == etype("book")
    assert report.describe() == "NotPolymorphic(e:book) at root"
    # an argument for a term whose type has no arrow
    report = diagnose(parse_tree("(NODE (LEAF Rex) (LEAF barks))"), lex)
    assert report.describe() == "NotFunction(e:dog) at root"


def test_diagnose_empty_on_success(lex):
    assert diagnose(parse_tree(BOOK_TREE), lex).empty


# ---------------------------------------------------------------------------
# rigidity monotonicity under flag toggling


def test_monotonicity_liverpool(lex, fixture_dir):
    text = (fixture_dir / "english.lex").read_text()
    rigid_count = len(compose(parse_tree(LIVERPOOL_TREE), lex))
    flex = load_lexicon(text.replace("townToClub rigid", "townToClub flexible"))
    flex_count = len(compose(parse_tree(LIVERPOOL_TREE), flex))
    assert flex_count >= rigid_count
    assert (rigid_count, flex_count) == (0, 1)


def test_monotonicity_book(lex, fixture_dir):
    text = (fixture_dir / "english.lex").read_text()
    flex_count = len(compose(parse_tree(BOOK_TREE), lex))
    rigid = load_lexicon(text.replace("book f0 flexible", "book f0 rigid"))
    rigid_count = len(compose(parse_tree(BOOK_TREE), rigid))
    assert rigid_count <= flex_count
    assert (flex_count, rigid_count) == (1, 0)


def test_tyanno_forces_instantiation(lex):
    analyses = compose(parse_tree("(NODE (TY (LEAF every) e:dog) (LEAF barks))"), lex)
    assert len(analyses) == 1
    expected = parse_term(
        "(app (tapp ∀ e:dog) (lam (x e:dog) (app barks x)))", lex.signature
    )
    assert alpha_eq(analyses[0].normal_term, expected)


def test_analysis_soundness(lex):
    # every analysis typechecks to its result type, before and after reduction
    for tree_text in (BOOK_TREE, "(NODE (LEAF sleeps) (LEAF Rex))",
                      "(NODE (TY (LEAF every) e:dog) (LEAF barks))"):
        for a in compose(parse_tree(tree_text), lex):
            assert typecheck(a.term, lex.signature) == a.result_type
            assert typecheck(a.normal_term, lex.signature) == a.result_type
            assert alpha_eq(normalize(a.term, lex.signature).term, a.normal_term)


# ---------------------------------------------------------------------------
# determinism


def test_compose_deterministic(lex):
    for tree_text in (BOOK_TREE, LIVERPOOL_TREE, CHAIR_TREE):
        tree = parse_tree(tree_text)
        first = compose(tree, lex)
        second = compose(tree, lex)
        assert [print_term(a.term) for a in first] == [print_term(a.term) for a in second]
        assert [a.labels() for a in first] == [a.labels() for a in second]


# ---------------------------------------------------------------------------
# brute-force completeness oracle


def _nx_graph(lex):
    m = nx.MultiDiGraph()
    for e in lex.coercions.edges:
        m.add_edge(e.source.name, e.target.name, key=e.name)
    return m


def _path_coercions(lex, sort_name):
    """(coercion term, target type) for every simple path out of the sort,
    built by hand from networkx paths."""
    m = _nx_graph(lex)
    if sort_name not in m.nodes:
        return
    for target in m.nodes:
        if target == sort_name:
            continue
        for path in nx.all_simple_edge_paths(m, sort_name, target):
            body = Var("v")
            for (_, _, name) in path:
                body = App(lex.signature.const(name), body)
            yield Lam("v", etype(sort_name), body), etype(target)


def _brute_adaptations(lex, term, ty, word):
    """Every way of viewing `term` (unadapted / coerced / transferred)."""
    yield term, ty, None
    if hasattr(ty, "sort") and ty.sort.kind == "entity":
        for co, target in _path_coercions(lex, ty.sort.name):
            yield App(co, term), target, ("graph", None)
    if word is not None:
        for tr in lex.entries[word].transfers:
            tr_ty = typecheck(tr.term, lex.signature)
            if isinstance(tr_ty, Arrow) and tr_ty.domain == ty:
                yield App(tr.term, term), tr_ty.codomain, (tr.label, tr.rigidity)


def _brute_fills(lex, slot, word):
    if slot.domain == slot.codomain:
        yield Lam("v", slot.domain, Var("v")), (MAIN, None)
    if hasattr(slot.domain, "sort") and slot.domain.sort.kind == "entity":
        for co, target in _path_coercions(lex, slot.domain.sort.name):
            if target == slot.codomain:
                yield co, ("graph", None)
    if word is not None:
        for tr in lex.entries[word].transfers:
            if typecheck(tr.term, lex.signature) == slot:
                yield tr.term, (tr.label, tr.rigidity)


def _brute_saturate(lex, term, ty, consumed_ty, word, occ):
    """All complete slot-fill combinations."""
    if not (isinstance(ty, Arrow) and isinstance(ty.domain, Arrow)
            and ty.domain.domain == consumed_ty):
        yield term, ty, []
        return
    for fill, use in _brute_fills(lex, ty.domain, word):
        for out, out_ty, uses in _brute_saturate(lex, App(term, fill), ty.codomain,
                                                 consumed_ty, word, occ):
            yield out, out_ty, [(occ, use)] + uses


def _brute_apply(lex, f_term, f_ty, a_term, a_ty, a_word, occ):
    """Every typed application of f to an adapted a, slots saturated."""
    binders = []
    ty = f_ty
    while isinstance(ty, Forall):
        binders.append(ty.binder)
        ty = ty.body
    if not isinstance(ty, Arrow):
        return
    for adapted, adapted_ty, use in _brute_adaptations(lex, a_term, a_ty, a_word):
        theta = match_type(ty.domain, adapted_ty, frozenset(binders))
        if theta is None:
            continue
        from polysem.kernel import subst_type
        from polysem.syntax import TyLam, TyVar

        term = f_term
        residuals = []
        out_ty = ty.codomain
        for b in binders:
            if b in theta:
                term = TyApp(term, theta[b])
                out_ty = subst_type(out_ty, b, theta[b])
            else:
                fresh = b + "_res"
                residuals.append(fresh)
                term = TyApp(term, TyVar(fresh))
                out_ty = subst_type(out_ty, b, TyVar(fresh))
        term = App(term, adapted)
        for r in reversed(residuals):
            term = TyLam(r, term)
            out_ty = Forall(r, out_ty)
        uses = [] if use is None else [(occ, use)]
        if residuals:
            yield term, out_ty, uses
        else:
            for out, final_ty, slot_uses in _brute_saturate(
                    lex, term, out_ty, adapted_ty, a_word, occ):
                yield out, final_ty, uses + slot_uses


def _brute_denotations(lex, tree, path=()):
    """(term, type, uses) for every adaptation combination, unfiltered."""
    if isinstance(tree, Leaf):
        entry = lex.entries[tree.word]
        yield entry.main_term, typecheck(entry.main_term, lex.signature), []
        return
    if isinstance(tree, TyAnno):
        from polysem.kernel import subst_type

        for term, ty, uses in _brute_denotations(lex, tree.sub, path + (0,)):
            ok = True
            for t in tree.ty_args:
                if not isinstance(ty, Forall):
                    ok = False
                    break
                term = TyApp(term, t)
                ty = subst_type(ty.body, ty.binder, t)
            if ok:
                yield term, ty, uses
        return
    arg_word = tree.arg.word if isinstance(tree.arg, Leaf) else None
    arg_occ = (path + (1,), arg_word)
    for f_term, f_ty, f_uses in _brute_denotations(lex, tree.fn, path + (0,)):
        for a_term, a_ty, a_uses in _brute_denotations(lex, tree.arg, path + (1,)):
            # function-side transfers, then plain application of each variant
            fn_variants = [(f_term, f_ty, [])]
            fn_word = tree.fn.word if isinstance(tree.fn, Leaf) else None
            if fn_word is not None:
                for tr in lex.entries[fn_word].transfers:
                    tr_ty = typecheck(tr.term, lex.signature)
                    if isinstance(tr_ty, Arrow) and tr_ty.domain == f_ty:
                        fn_variants.append((App(tr.term, f_term), tr_ty.codomain,
                                            [((path + (0,), fn_word), (tr.label, tr.rigidity))]))
            for k, (ft, fty, fu) in enumerate(fn_variants):
                a_word_here = arg_word if k == 0 else None  # one adaptation per edge
                for term, ty, uses in _brute_apply(lex, ft, fty, a_term, a_ty,
                                                   a_word_here, arg_occ):
                    yield term, ty, f_uses + fu + a_uses + uses


def _brute_rigidity_ok(uses):
    per_occ = {}
    for occ, (label, rigidity) in uses:
        per_occ.setdefault(occ, []).append((label, rigidity))
    for entries in per_occ.values():
        rigid = {lbl for lbl, r in entries if r == "rigid"}
        if rigid and ({lbl for lbl, _ in entries} != rigid or len(rigid) > 1):
            return False
    return True


def brute_force_analyses(lex, tree):
    """The set of normal forms of every well-typed, rigidity-licit
    adaptation combination."""
    out = set()
    for term, ty, uses in _brute_denotations(lex, tree):
        assert typecheck(term, lex.signature) == ty
        if not _brute_rigidity_ok(uses):
            continue
        out.add(canon_term(normalize(term, lex.signature).term))
    return out


ORACLE_LEXICON = """
sort e:phys
sort e:info
sort e:book
sort e:town
sort e:club
sort e:dog
sort e:ani
coercion dogAni : e:dog -> e:ani
const heavy : (-> e:phys t)
const interesting : (-> e:info t)
const cheap : (-> e:phys t)
const sleeps : (-> e:ani t)
const beat : (-> e:club t)
const docks : (-> e:town t)
const b : e:book
const liv : e:town
const rex : e:dog
const f0 : (-> e:book e:info)
const g0 : (-> e:book e:phys)
const g1 : (-> e:book e:phys)
const t2c : (-> e:town e:club)
word and main AND
word heavy main (lam (x e:phys) (app heavy x))
word cheap main (lam (x e:phys) (app cheap x))
word interesting main (lam (x e:info) (app interesting x))
word sleeps main (lam (x e:ani) (app sleeps x))
word beat main (lam (x e:club) (app beat x))
word docks main (lam (x e:town) (app docks x))
word book main b
word-transfer book f0 flexible f0
word-transfer book g0 flexible g0
word-transfer book g1 flexible g1
word Liverpool main liv
word-transfer Liverpool t2c rigid t2c
word Rex main rex
word both main ∧
"""

ORACLE_TREES = [
    # two phys-transfers: the copredication has two readings per phys slot
    "(NODE (NODE (NODE (LEAF and) (LEAF heavy)) (LEAF interesting)) (LEAF book))",
    # both conjuncts over phys: both slots have two fills, four readings
    "(NODE (NODE (NODE (LEAF and) (LEAF heavy)) (LEAF cheap)) (LEAF book))",
    "(NODE (LEAF sleeps) (LEAF Rex))",
    "(NODE (NODE (NODE (LEAF and) (LEAF beat)) (LEAF docks)) (LEAF Liverpool))",
    "(NODE (LEAF heavy) (LEAF book))",
    "(NODE (LEAF beat) (LEAF Liverpool))",
    # five leaves: two independent occurrences of the rigid word
    "(NODE (NODE (LEAF both) (NODE (LEAF beat) (LEAF Liverpool)))"
    " (NODE (LEAF beat) (LEAF Liverpool)))",
    # seven leaves: a copredication conjoined with a transferred predication
    "(NODE (NODE (LEAF both)"
    " (NODE (NODE (NODE (LEAF and) (LEAF heavy)) (LEAF interesting)) (LEAF book)))"
    " (NODE (LEAF beat) (LEAF Liverpool)))",
]


@pytest.mark.parametrize("tree_text", ORACLE_TREES)
def test_completeness_against_brute_force(tree_text):
    lex = load_lexicon(ORACLE_LEXICON)
    tree = parse_tree(tree_text)
    ours = {canon_term(a.normal_term) for a in compose(tree, lex, limit=10_000)}
    oracle = brute_force_analyses(lex, tree)
    assert ours == oracle


def test_two_transfers_same_sort_give_two_readings():
    lex = load_lexicon(ORACLE_LEXICON)
    analyses = compose(parse_tree("(NODE (LEAF heavy) (LEAF book))"), lex)
    assert len(analyses) == 2  # g0 and g1 both view the book as physical


def test_rigidity_is_scoped_per_occurrence():
    # two occurrences of the same word adapt independently: each may use the
    # rigid transfer on its own, even inside one sentence
    lex = load_lexicon(ORACLE_LEXICON)
    tree = parse_tree(
        "(NODE (NODE (LEAF both) (NODE (LEAF beat) (LEAF Liverpool)))"
        " (NODE (LEAF beat) (LEAF Liverpool)))"
    )
    analyses = compose(tree, lex)
    assert len(analyses) == 1
    occs = [occ for occ in analyses[0].used_transfers if occ.word == "Liverpool"]
    assert len(occs) == 2
    assert all(tuple(u.label for u in analyses[0].used_transfers[occ]) == ("t2c",)
               for occ in occs)


# ---------------------------------------------------------------------------
# sharing across one compose call's readings: the kernel's memo against fresh work


def _copredication_tree(rng, k):
    """k "P and Q book" copredications conjoined with `both`."""
    parts = []
    for _ in range(k):
        phys, info = rng.choice(("heavy", "cheap")), "interesting"
        first, second = (phys, info) if rng.random() < 0.5 else (info, phys)
        parts.append(f"(NODE (NODE (NODE (LEAF and) (LEAF {first})) (LEAF {second})) (LEAF book))")
    tree = parts[-1]
    for part in reversed(parts[:-1]):
        tree = f"(NODE (NODE (LEAF both) {part}) {tree})"
    return tree


def _stepped(term, sig, strategy):
    """The plain stepper: reduce_once until there is no redex."""
    while (nxt := reduce_once(term, sig, strategy)) is not None:
        term = nxt
    return term


def _fresh(term, sig):
    """A copy of `term` sharing no node with it, so nothing on it is remembered."""
    return parse_term(print_term(term), sig)


def _assert_memo_agrees(terms, sig):
    """Each term asked twice, cold then warm; `terms` share subterms the way
    one compose call's readings do."""
    for strategy in (LEFTMOST_OUTERMOST, RIGHTMOST_INNERMOST):
        for term in terms:
            expected = print_term(_stepped(term, sig, strategy))
            for _ in range(2):
                assert print_term(normalize(term, sig, strategy=strategy).term) == expected
    for term in terms:
        expected = print_type(typecheck(_fresh(term, sig), sig))
        for _ in range(2):
            assert print_type(typecheck(term, sig)) == expected


def test_shared_normal_forms_and_types_match_kernel(lex, fixture_dir):
    trees = [(lex, t) for t in parse_trees((fixture_dir / "trees.txt").read_text())]
    oracle_lex = load_lexicon(ORACLE_LEXICON)
    trees += [(oracle_lex, parse_tree(t)) for t in ORACLE_TREES]
    rng = random.Random(7)
    trees += [(oracle_lex, parse_tree(_copredication_tree(rng, k))) for k in range(1, 7)]
    shared = 0
    for tree_lex, tree in trees:
        terms = [c.term for c in _Search(tree_lex).candidates(tree)]
        _assert_memo_agrees(terms, tree_lex.signature)
        shared += len(terms)
    assert shared > 100


def test_shared_normal_forms_match_kernel_on_corpus():
    # the corpus of scripts/confluence_experiment.py, with recursor rules
    base = register_finset(register_nat(builtin_signature()))
    base = base.extend(sorts=[entity_sort(s) for s in ("dog", "phys", "book")])
    terms, gsig = generate_corpus(base, seed=4242, count=1000, use_inductives=True)
    _assert_memo_agrees(terms, gsig)


def _rec(ty, base, step, scrutinee):
    return f"(app (app (app (tapp RecN {ty}) {base}) {step}) {scrutinee})"


_ID = "(lam (z e:nat) z)"
_SUCC = "(lam (k e:nat) (lam (a e:nat) (app Succ a)))"
_ADD = f"(lam (m e:nat) (lam (n e:nat) {_rec('e:nat', 'n', _SUCC, 'm')}))"
_MUL = ("(lam (m e:nat) (lam (n e:nat) "
        + _rec("e:nat", "Zero", f"(lam (k e:nat) (lam (a e:nat) (app (app {_ADD} n) a)))", "m") + "))")


def _numeral(n):
    return "(app Succ " * n + "Zero" + ")" * n


def _set(items, empty="(tapp EmptyS e:nat)"):
    for x in items:
        empty = f"(app (app (tapp InsertS e:nat) {x}) {empty})"
    return empty


def _fold(base, step, scrutinee):
    return f"(app (app (app (tapp (tapp FoldS e:nat) e:nat) {base}) {step}) {scrutinee})"


_SET_REDEX = "(app (lam (s (set e:nat)) (app (app (tapp InsertS e:nat) Zero) s)) (tapp EmptyS e:nat))"

# Recursor terms whose scrutinees, bases and steps reduce in every order that
# matters to leftmost-outermost reduction, by name.
RECURSOR_CORPUS = {
    "scrutinee-headed-after-beta":
        _rec("e:nat", "Zero", _SUCC, f"(app {_ID} (app Succ (app {_ID} (app Succ Zero))))"),
    "scrutinee-is-a-stuck-recursor":
        _rec("e:nat", "Zero", _SUCC, _rec("e:nat", "(app Succ Zero)", _SUCC, f"(app {_ID} (app Succ Zero))")),
    "reducible-base-and-step":
        _rec("e:nat", f"(app {_ID} Zero)", f"(app (lam (f (-> e:nat (-> e:nat e:nat))) f) {_SUCC})",
             _numeral(2)),
    "recursor-at-function-type":
        "(app " + _rec("(-> e:nat e:nat)", _ID,
                       "(lam (k e:nat) (lam (f (-> e:nat e:nat)) (lam (x e:nat) (app Succ (app f x)))))",
                       f"(app {_ID} {_numeral(2)})") + f" (app {_ID} Zero))",
    "fold-over-a-redex-set":
        _fold("Zero", _SUCC, _set([f"(app {_ID} Zero)"], _SET_REDEX)),
    "fresh-renaming":
        "(lam (y e:nat) (app (lam (x e:nat) (lam (y e:nat) "
        + _rec("e:nat", "x", _SUCC, "y") + ")) (app Succ y)))",
    "predecessor-used-twice":
        _rec("e:nat", "Zero",
             "(lam (k e:nat) (lam (a e:nat) "
             + _rec("e:nat", "k", "(lam (j e:nat) (lam (b e:nat) (app Succ b)))", "k") + "))",
             f"(app {_ID} (app Succ (app {_ID} (app Succ Zero))))"),
    "element-used-twice":
        _fold("Zero", "(lam (x e:nat) (lam (a e:nat) " + _rec("e:nat", "x", _SUCC, "x") + "))",
              f"(app (lam (s (set e:nat)) s) {_set(['Zero', f'(app {_ID} (app Succ Zero))'])})"),
    "add": f"(app (app {_ADD} {_numeral(3)}) {_numeral(4)})",
    "mul": f"(app (app {_MUL} {_numeral(3)}) {_numeral(2)})",
    "fold-count": _fold("Zero", _SUCC, _set([_numeral(i) for i in (2, 0, 1)])),
}


def _recursor_signature():
    return register_finset(register_nat(builtin_signature()))


def test_shared_normal_forms_match_kernel_on_recursor_corpus():
    sig = _recursor_signature()
    _assert_memo_agrees([parse_term(text, sig) for text in RECURSOR_CORPUS.values()], sig)


def _recording_rules(sig, calls):
    """`sig` with each recursor rule's rewrite appending what it returns to `calls`."""
    def record(rewrite):
        return lambda *args: calls.append(rewrite(*args)) or calls[-1]
    return dataclasses.replace(sig, rules=tuple(dataclasses.replace(r, rewrite=record(r.rewrite)) for r in sig.rules))


@pytest.mark.parametrize("strategy", [LEFTMOST_OUTERMOST, RIGHTMOST_INNERMOST])
@pytest.mark.parametrize("name", RECURSOR_CORPUS)
def test_normalize_contracts_what_the_stepper_contracts(name, strategy, monkeypatch):
    # normalize contracts a β-redex by reduce_once and a recursor redex by its
    # rule's rewrite: no call at either point is a no-op, and together they
    # make as many contractions as the plain stepper
    sig, text = _recursor_signature(), RECURSOR_CORPUS[name]
    steps, term = 0, parse_term(text, sig)
    while (term := reduce_once(term, sig, strategy)) is not None:
        steps += 1
    calls = []
    sig = _recording_rules(sig, calls)
    step = kernel.reduce_once
    monkeypatch.setattr(kernel, "reduce_once", lambda *args: calls.append(step(*args)) or calls[-1])
    normalize(parse_term(text, sig), sig, strategy=strategy)
    assert None not in calls
    assert len(calls) == steps > 0


def _arith_terms(count):
    """The first `count` items of the arith workload, seed 1, read as its run
    reads them, and their signature."""
    workloads = load_workloads()
    w, api = workloads.make_workload("arith", 1), workloads.make_api()
    sig = api.load_lexicon(w.lexicon_text).signature
    return [api.expand_definitions(parse_term(item.text, sig), sig) for item in w.items[:count]], sig


_POLY_ID = "(tlam b (lam (x b) x))"

# Redexes typed with a ∀ that their contractum's own type names otherwise (∀a
# against the identity's ∀b): a run, whose contractum keeps no ∀ type, and a
# recursion at that type, whose recursive calls keep it, being typed as their
# redex is, name for name
POLYMORPHIC_CONTRACTA = [
    f"(app (app (lam (f (all a (-> a a))) (lam (z e:nat) f)) {_POLY_ID}) Zero)",
    f"(app (app (app (tapp RecN (all a (-> a a))) {_POLY_ID}) (lam (k e:nat) (lam (g (all c (-> c c))) g)))"
    f" {_numeral(2)})",
]


def _rule_corpus(name):
    if name == "recursor":
        sig = _recursor_signature()
        return [parse_term(text, sig) for text in RECURSOR_CORPUS.values()], sig
    if name == "polymorphic":
        sig = _recursor_signature()
        return [parse_term(text, sig) for text in POLYMORPHIC_CONTRACTA], sig
    if name in ("random", "runs"):
        base = register_finset(register_nat(builtin_signature()))
        base = base.extend(sorts=[entity_sort(s) for s in ("dog", "phys", "book")])
        if name == "runs":
            return generate_corpus(base, seed=4242, count=300, use_inductives=True, runs=True)
        return generate_corpus(base, seed=4242, count=1000, use_inductives=True)
    return _arith_terms(200)


@pytest.mark.parametrize("corpus", ["recursor", "random", "arith"])
def test_rule_firings_match_the_dispatch_they_replace(corpus, monkeypatch):
    # normalize fires the rule it found for a recursor redex; the stepper's
    # dispatch finds the same rule by _root_rule, and its try_rewrite gives a
    # contractum that prints the same and reuses the same prefix node
    terms, sig = _rule_corpus(corpus)
    fired, fire = [], kernel._fire

    def checked(redex, rest, sig, fuel, rule=None):
        out = contractum = fire(redex, rest, sig, fuel, rule)
        if rule:
            for _ in rest:
                contractum = contractum.fn
            expected = rule.try_rewrite(redex)
            assert kernel._root_rule(redex, sig) is rule
            assert print_term(contractum) == print_term(expected)
            # a base rule returns the redex's own argument, a step rule reapplies its prefix
            assert contractum is expected or contractum.arg.fn is expected.arg.fn is redex.fn
            fired.append(rule)
        return out

    monkeypatch.setattr(kernel, "_fire", checked)
    for strategy in (LEFTMOST_OUTERMOST, RIGHTMOST_INNERMOST):
        fired.clear()
        for term in map(_typed_fresh, terms, [sig] * len(terms)):
            normalize(term, sig, strategy=strategy)
        assert {rule.constructor for rule in fired} == {rule.constructor for rule in sig.rules}


def test_arith_fires_each_rule_without_a_second_dispatch(monkeypatch):
    # over the first 40 arith items normalize neither asks _root_rule for a
    # rule nor has try_rewrite match the redex again, and it contracts as
    # many redexes as the stepper
    terms, sig = _arith_terms(40)
    stepper = 0
    for term in terms:
        while (term := reduce_once(term, sig)) is not None:
            stepper += 1
    calls = []
    monkeypatch.setattr(InductiveRule, "try_rewrite", lambda *args: calls.append("try_rewrite"))
    monkeypatch.setattr(kernel, "_root_rule", lambda *args: calls.append("_root_rule"))
    steps = 0
    for term in terms:
        typecheck(term, sig)
        steps += normalize(term, sig).steps
    assert calls == []
    assert steps == stepper


def _typed_fresh(term, sig):
    """A fresh copy of `term` typed in the empty context, so that its closed
    subterms remember their types, as a composed candidate's do."""
    term = _fresh(term, sig)
    typecheck(term, sig)
    return term


def _batched(terms, sig, monkeypatch, strategy=LEFTMOST_OUTERMOST) -> int:
    """Normalise each term as the stepper does under `strategy`: the same print,
    `steps` the stepper's count, and the fuel running out at that count.
    Returns the contractions normalize made in runs, by neither reduce_once nor a rule's rewrite."""
    calls = []
    step = kernel.reduce_once
    monkeypatch.setattr(kernel, "reduce_once", lambda *args: calls.append(1) or step(*args))
    sig = _recording_rules(sig, calls)
    batched = 0
    for term in terms:
        steps, stepped = 0, _fresh(term, sig)
        while (nxt := reduce_once(stepped, sig, strategy)) is not None:
            steps, stepped = steps + 1, nxt
        calls.clear()
        nf = normalize(_typed_fresh(term, sig), sig, strategy=strategy)
        assert (print_term(nf.term), nf.steps) == (print_term(stepped), steps), print_term(term)
        batched += steps - len(calls)
        if steps:
            with pytest.raises(FuelExhausted) as info:
                normalize(_typed_fresh(term, sig), sig, fuel=steps - 1, strategy=strategy)
            assert str(info.value) == f"no normal form within {steps - 1} steps"
        assert normalize(_typed_fresh(term, sig), sig, fuel=steps, strategy=strategy).steps == steps
    return batched


def test_batched_contractions_match_the_stepper_on_the_recursor_corpus(monkeypatch):
    sig = _recursor_signature()
    assert _batched([parse_term(text, sig) for text in RECURSOR_CORPUS.values()], sig, monkeypatch) > 0


def test_batched_contractions_match_the_stepper_on_the_random_corpus(monkeypatch):
    base = register_finset(register_nat(builtin_signature()))
    base = base.extend(sorts=[entity_sort(s) for s in ("dog", "phys", "book")])
    terms, gsig = generate_corpus(base, seed=4242, count=1000, use_inductives=True)
    _batched(terms, gsig, monkeypatch)
    # that corpus gives each planted redex one argument; this one plants λ/Λ runs
    runs, rsig = generate_corpus(base, seed=4242, count=300, use_inductives=True, runs=True)
    assert _batched(runs, rsig, monkeypatch) > 0


def test_rightmost_innermost_matches_the_stepper_on_the_recursor_corpus(monkeypatch):
    sig = _recursor_signature()
    terms = [parse_term(text, sig) for text in RECURSOR_CORPUS.values()]
    _batched(terms, sig, monkeypatch, RIGHTMOST_INNERMOST)


def test_rightmost_innermost_matches_the_stepper_on_the_random_corpus(monkeypatch):
    base = register_finset(register_nat(builtin_signature()))
    base = base.extend(sorts=[entity_sort(s) for s in ("dog", "phys", "book")])
    terms, gsig = generate_corpus(base, seed=4242, count=1000, use_inductives=True)
    _batched(terms, gsig, monkeypatch, RIGHTMOST_INNERMOST)


def test_batched_contractions_match_the_stepper_on_candidates(lex, fixture_dir, monkeypatch):
    trees = [(lex, t) for t in parse_trees((fixture_dir / "trees.txt").read_text())]
    oracle_lex = load_lexicon(ORACLE_LEXICON)
    trees += [(oracle_lex, parse_tree(t)) for t in ORACLE_TREES]
    batched = 0
    for tree_lex, tree in trees:
        terms = [c.term for c in _Search(tree_lex).candidates(tree)]
        batched += _batched(terms, tree_lex.signature, monkeypatch)
    assert batched > 0


@pytest.mark.parametrize("text, normal, batched", [
    # x meets the open y, which the inner λy would capture: the run ends there
    ("(lam (y e:a) (app (app (lam (x e:a) (lam (z e:a) (lam (y e:a) (app (app g x) y)))) y) c))",
     "(lam (y e:a) (lam (y'1 e:a) (app (app g y) y'1)))", 0),
    # the same for the open type b under the inner Λb
    ("(tlam b (tapp (tapp (tlam a (tlam d (tlam b (lam (w a) w)))) b) t))",
     "(tlam b (tlam b'1 (lam (w b) w)))", 0),
    # a run that is the last of the contractions: one fuel short stops it
    ("(app (app (lam (x e:a) (lam (z e:a) (app (app g x) z))) c) c)", "(app (app g c) c)", 2),
    # a binder of the body shadows one of the run's
    ("(app (app (lam (x e:a) (lam (z e:a) (lam (x e:a) (app (app g x) z)))) c) c)",
     "(lam (x e:a) (app (app g x) c))", 2),
    ("(tapp (tapp (tlam a (tlam d (tlam a (lam (w a) (lam (v d) w))))) t) e:a)",
     "(tlam a (lam (w a) (lam (v e:a) w)))", 2),
])
def test_batched_run_edges(text, normal, batched, monkeypatch):
    sig = builtin_signature().extend(sorts=[entity_sort("a")], constants={
        "g": parse_type("(-> e:a (-> e:a t))"), "c": parse_type("e:a")})
    term = parse_term(text, sig)
    assert _batched([term], sig, monkeypatch) == batched
    assert print_term(normalize(_typed_fresh(term, sig), sig).term) == normal


def _stored_types(monkeypatch) -> list:
    """The (node, memo) pairs the kernel stores as a `_type_memo` from now on,
    filled in as it stores them."""
    stored = []

    class Recorder:  # stands for `object` in the kernel module, whose stored facts it sees
        @staticmethod
        def __setattr__(node, name, value):
            if name == "_type_memo":
                stored.append((node, value))
            object.__setattr__(node, name, value)

    monkeypatch.setattr(kernel, "object", Recorder, raising=False)
    return stored


@pytest.mark.parametrize("corpus", ["recursor", "runs", "arith", "polymorphic"])
def test_stored_contractum_types_are_the_ones_typecheck_gives(corpus, monkeypatch):
    # a type normalize stores on a contractum (a step rule's recursive call, a
    # run's contractum, the normal form) is stored on a closed node, and a
    # fresh copy of that node typechecks to it, name for name
    terms, sig = _rule_corpus(corpus)
    typed = [(strategy, _typed_fresh(term, sig)) for strategy in (LEFTMOST_OUTERMOST, RIGHTMOST_INNERMOST)
             for term in terms]
    stored = _stored_types(monkeypatch)
    for strategy, term in typed:
        normalize(term, sig, strategy=strategy)
    monkeypatch.undo()  # the checks' own typecheck stores nothing more
    assert stored
    for node, (memo_sig, ty) in stored:
        assert free_vars(node) == frozenset() and free_tyvars_in_term(node) == frozenset(), print_term(node)
        assert print_type(typecheck(copy_term(node), memo_sig)) == print_type(ty), print_term(node)


def test_arith_runs_each_step_function_on_its_recursive_call(monkeypatch):
    # a step rule's recursive call keeps its closed redex's type, so the step
    # function meets two closed arguments and contracts both binders in one
    # run: over the first 40 arith items normalize calls reduce_once at most 8
    # times per item (about 35 when only the redex was typed), and it makes as
    # many contractions as the stepper
    terms, sig = _arith_terms(40)
    stepper = 0
    for term in terms:
        while (term := reduce_once(term, sig)) is not None:
            stepper += 1
    calls, step = [], kernel.reduce_once
    monkeypatch.setattr(kernel, "reduce_once", lambda *args: calls.append(1) or step(*args))
    steps = 0
    for term in terms:
        typecheck(term, sig)
        steps += normalize(term, sig).steps
    assert steps == stepper
    assert len(calls) <= 8 * len(terms), len(calls) / len(terms)


@pytest.mark.parametrize("text", [
    "(app barks b)",
    "(app (app ∧ (app barks rex)) (app barks b))",
    "(app ∧ (lam (y e:dog) (app barks b)))",
    "(app (tapp (app barks rex) e:dog) rex)",
    "(app (app ∧ (app barks rex)) y)",
])
def test_shared_typing_reports_kernel_errors(lex, text):
    # the first call remembers the well-typed closed subterms, the second uses them
    term = parse_term(text, lex.signature)
    with pytest.raises(TypeCheckError) as fresh:
        typecheck(_fresh(term, lex.signature), lex.signature)
    for _ in range(2):
        with pytest.raises(TypeCheckError) as ours:
            typecheck(term, lex.signature)
        assert (type(ours.value), str(ours.value)) == (type(fresh.value), str(fresh.value))


@pytest.mark.parametrize("k", [4, 6])
def test_compose_normalises_each_conjunct_once(k, monkeypatch):
    # the readings differ only in each conjunct's transfer (two per conjunct),
    # and each conjunct is contracted once however many readings share it, so
    # 16 readings take at most twice the contractions of one
    tree = parse_tree(_copredication_tree(random.Random(k), k))
    contractions = []
    step = composer.normalize

    def counted(*args):
        nf = step(*args)
        contractions.append(nf.steps)
        return nf

    monkeypatch.setattr(composer, "normalize", counted)

    def contractions_for(limit):
        # a fresh lexicon, so that no lexicon node remembers anything yet
        start = len(contractions)
        assert len(compose(tree, load_lexicon(ORACLE_LEXICON), limit=limit)) == limit
        return sum(contractions[start:])

    one = contractions_for(1)
    assert 0 < contractions_for(16) <= 2 * one


# ---------------------------------------------------------------------------
# goal-directed coercion: a ground domain looks up its one coercion


def _tree_ontology(rng, n=80):
    """A tree of n sorts in which each sort is coerced to one of the 4 sorts
    declared just before it, so paths are tens of edges long.  Returns the
    lexicon and the trees (NODE (LEAF q_k) (LEAF p_j)), which need an arrow
    lift: 40 with k below j, 5 with k = j and 10 with k outside j's subtree,
    then 10 trees (NODE (LEAF p_j) (LEAF a_k)) with k below j."""
    parent = [None] + [max(0, i - rng.randint(1, 4)) for i in range(1, n)]
    lines = []
    for i, p in enumerate(parent):
        lines.append(f"sort e:s{i}")
        if p is not None:
            lines.append(f"coercion c{i} : e:s{i} -> e:s{p}")
    for i in range(n):
        lines += [f"const P{i} : (-> e:s{i} t)", f"const Q{i} : (-> (-> e:s{i} t) t)",
                  f"const a{i} : e:s{i}",
                  f"word p{i} main P{i}", f"word q{i} main Q{i}", f"word a{i} main a{i}"]

    def above(k):
        while parent[k] is not None:
            k = parent[k]
            yield k

    below = [(k, j) for k in range(n) for j in above(k)]
    unrelated = [(k, j) for k in range(n) for j in range(n) if k != j and j not in set(above(k))]
    lifts = [f"(NODE (LEAF q{k}) (LEAF p{j}))" for k, j in
             rng.sample(below, 40) + [(k, k) for k in rng.sample(range(n), 5)]
             + rng.sample(unrelated, 10)]
    bases = [f"(NODE (LEAF p{j}) (LEAF a{k}))" for k, j in rng.sample(below, 10)]
    return load_lexicon("\n".join(lines) + "\n"), [parse_tree(t) for t in lifts + bases]


def _goal_corpus(lex, fixture_dir):
    onto_lex, onto_trees = _tree_ontology(random.Random(80))
    oracle_lex = load_lexicon(ORACLE_LEXICON)
    return ([(onto_lex, t) for t in onto_trees]
            + [(lex, t) for t in parse_trees((fixture_dir / "trees.txt").read_text())]
            + [(oracle_lex, parse_tree(t)) for t in ORACLE_TREES])


def _outcome(tree, lex):
    analyses = [(print_term(a.term), print_term(a.normal_term), print_type(a.result_type),
                 a.labels(), [(str(o), print_term(t)) for o, t in a.inserted_coercions])
                for a in compose(tree, lex)]
    return analyses, [(f.describe(), f.path) for f in diagnose(tree, lex).failures]


def test_coercion_lookup_agrees_with_enumeration(lex, fixture_dir, monkeypatch):
    corpus = _goal_corpus(lex, fixture_dir)
    looked_up = [_outcome(tree, tree_lex) for tree_lex, tree in corpus]

    def by_enumeration(g, ty, goal):
        found = [entry for entry in coercion.coercion_targets(g, ty) if entry[1] == goal]
        assert len(found) <= 1
        return found[0] if found else None

    monkeypatch.setattr(composer, "coercion_to", by_enumeration)
    assert [_outcome(tree, tree_lex) for tree_lex, tree in corpus] == looked_up
    assert sum(bool(analyses) for analyses, _ in looked_up) > 50
    assert sum(bool(failures) for _, failures in looked_up) > 10


def test_ground_domain_builds_one_lift_and_enumerates_nothing(lex, monkeypatch):
    enumerated, lifted = [], []
    targets, lift = composer.coercion_targets, coercion._lift
    monkeypatch.setattr(composer, "coercion_targets",
                        lambda g, ty: enumerated.append(ty) or targets(g, ty))
    monkeypatch.setattr(coercion, "_lift", lambda *args: lifted.append(args) or lift(*args))
    onto_lex, trees = _tree_ontology(random.Random(80))
    with_lift = 0
    for tree in trees:
        analyses = compose(tree, onto_lex)
        diagnose(tree, onto_lex)
        with_lift += any(isinstance(t, Lam) and isinstance(t.body, Lam)  # lam f. lam x. ...
                         for a in analyses for _, t in a.inserted_coercions)
    assert enumerated == []
    # compose and diagnose each search once and build the one lift they use
    assert with_lift == 40 and len(lifted) == 2 * with_lift
    # the polymorphic conjunction's domain still enumerates
    compose(parse_tree(BOOK_TREE), lex)
    assert enumerated


# ---------------------------------------------------------------------------
# chains built once: each fast path against the code it replaced


def _lift_by_coerce_app(ty, new_dom, c, d):
    """coercion._lift as it was: c x always by coerce_app, which rebuilds a λ c's body to rename x to x."""
    x = fresh_name("x", {"f"}.union(*(free_vars(co) for co in (c, d) if co is not None)))
    body = App(Var("f"), Var(x) if c is None else coercion.coerce_app(c, Var(x)))
    return Lam("f", ty, Lam(x, new_dom, body if d is None else coercion.coerce_app(d, body)))


def test_a_lift_reusing_its_path_body_is_the_lift_coerce_app_builds(monkeypatch):
    built, lift = [], coercion._lift

    def recording(*args):
        built.append((args, lift(*args)))
        return built[-1][1]

    monkeypatch.setattr(coercion, "_lift", recording)
    onto_lex, trees = _tree_ontology(random.Random(80))
    runs = [(onto_lex, tree) for tree in trees]
    workloads = load_workloads()
    for seed in (1, 2, 3):
        w = workloads.make_workload("ontology", seed)
        w_lex = load_lexicon(w.lexicon_text)
        runs += [(w_lex, parse_tree(item.text)) for item in w.items]
    for run_lex, tree in runs:
        if not compose(tree, run_lex):
            diagnose(tree, run_lex)
    # a lift of predicates of predicates: its c is itself a lift, a λ binding f
    for (ty, new_dom, _, _), _ in built[:20]:
        assert coercion.find_coercion(onto_lex.coercions, Arrow(Arrow(new_dom, PROP), PROP), Arrow(ty, PROP))
    reused = lifted = 0
    for (ty, new_dom, c, d), out in built:
        expected = _lift_by_coerce_app(ty, new_dom, c, d)
        assert out == expected and (print_term(out), repr(out)) == (print_term(expected), repr(expected))
        reused += d is None and isinstance(c, Lam) and out.body.body.arg is c.body
        lifted += isinstance(c, Lam) and c.binder == "f"
    assert reused > 400 and lifted == 20 and len(built) > reused + 2 * lifted  # and a constant c


def test_every_lookup_the_search_makes_answers_as_before(lex, fixture_dir, monkeypatch):
    # the one lookup against the two it replaced, on what the search asks
    calls, answered = [], Counter()
    for name in ("coercion_to", "find_coercion"):
        monkeypatch.setattr(composer, name, lambda g, a, b, lookup=getattr(coercion, name):
                            calls.append((lookup, g, a, b)) or lookup(g, a, b))
    runs = _goal_corpus(lex, fixture_dir)
    workloads = load_workloads()
    for seed in (1, 2, 3):
        w = workloads.make_workload("ontology", seed)
        w_lex = load_lexicon(w.lexicon_text)
        runs += [(w_lex, parse_tree(item.text)) for item in w.items]
    for run_lex, tree in runs:
        if not compose(tree, run_lex):
            diagnose(tree, run_lex)
    before = {coercion.coercion_to: coercion_to_before, coercion.find_coercion: find_coercion_before}
    for lookup, g, a, b in calls:
        found = shown(lookup(g, a, b))
        assert found == shown(before[lookup](g, a, b)), (lookup.__name__, print_type(a), print_type(b))
        answered[lookup.__name__, found is not None] += 1
    # no slot here takes a graph coercion: test_coercion.py's random graphs check those answers
    assert answered["coercion_to", True] > 100 and answered["coercion_to", False] > 100, answered
    assert answered["find_coercion", False] > 20, answered


def test_each_chain_is_composed_once_per_lexicon(monkeypatch):
    # the first 200 ontology items of seed 1 ask for 82 (source, target)
    # chains, 160 times in all; the graph keeps each chain it composed
    composed, compose = [], coercion.CoercionGraph._compose
    monkeypatch.setattr(coercion.CoercionGraph, "_compose",
                        lambda g, path: composed.append((path[0].source, path[-1].target)) or compose(g, path))
    workloads = load_workloads()
    w, api = workloads.make_workload("ontology", 1), workloads.make_api()
    w_lex = api.load_lexicon(w.lexicon_text)
    for item in w.items[:200]:
        w.run(api, w_lex, item.text)
    assert len(composed) == len(set(composed)) == 82


def test_ontology_lifts_are_typed_as_built(monkeypatch):
    # the kernel's typecheck, recursive calls included, and the names the
    # composer and the API bind: 4,690 calls when every lift walked its chain
    calls, typecheck = [], kernel.typecheck

    def counting(*args, **kwargs):
        calls.append(None)
        return typecheck(*args, **kwargs)

    monkeypatch.setattr(kernel, "typecheck", counting)
    monkeypatch.setattr(composer, "typecheck", counting)
    workloads = load_workloads()
    w, api = workloads.make_workload("ontology", 1), workloads.make_api()
    api.typecheck = counting
    w_lex = api.load_lexicon(w.lexicon_text)
    calls.clear()
    for item in w.items[:200]:
        w.run(api, w_lex, item.text)
    assert len(calls) <= 1_200


def test_coherence_is_checked_once_per_lexicon(fixture_dir, monkeypatch):
    # the load checks it, and the first lookup reads the report the graph keeps
    reports, init = [], coercion.CoherenceReport.__init__
    monkeypatch.setattr(coercion.CoherenceReport, "__init__",
                        lambda self, *args, **kwargs: reports.append(None) or init(self, *args, **kwargs))
    fresh = load_lexicon((fixture_dir / "english.lex").read_text())
    assert len(reports) == 1
    assert compose(parse_tree(BOOK_TREE), fresh) and compose(parse_tree("(NODE (LEAF heavy) (LEAF book))"), fresh)
    assert len(reports) == 1


def _eager_keys(tree, lex, limit):
    """compose_with_failures as it was, a de Bruijn key built for every normal
    form; the number of normal forms it dropped as α-equal to an earlier one."""
    search, analyses, seen, dropped = _Search(lex), [], set(), 0
    for cand in search.candidates(tree):
        ty = typecheck(cand.term, lex.signature)
        nf = normalize(cand.term, lex.signature).term
        if (key := canon_term(nf)) in seen:
            dropped += 1
            continue
        seen.add(key)
        analyses.append((cand.term, nf, ty, dict(cand.uses), cand.coercions))
        if len(analyses) >= limit:
            break
    return analyses, () if analyses else tuple(search.failures), dropped


def _shown(term, nf, ty, uses, coercions):
    labels = {str(occ): tuple(u.label for u in occ_uses) for occ, occ_uses in uses.items()}
    return (print_term(term), print_term(nf), print_type(ty), labels,
            [(str(o), print_term(t)) for o, t in coercions])


def test_keys_built_from_the_second_analysis_give_the_analyses_of_eager_keys(lex, fixture_dir):
    oracle_lex, workloads = load_lexicon(ORACLE_LEXICON), load_workloads()
    runs = [(lex, tree, DEFAULT_LIMIT) for tree in parse_trees((fixture_dir / "trees.txt").read_text())]
    runs += [(oracle_lex, parse_tree(t), limit) for t in ORACLE_TREES for limit in (1, 2, 3, DEFAULT_LIMIT)]
    for seed in (1, 2, 3):
        w = workloads.make_workload("ambiguity", seed)
        w_lex = load_lexicon(w.lexicon_text)
        runs += [(w_lex, parse_tree(item.text), workloads.LIMIT) for item in w.items]
    dropped = 0
    for run_lex, tree, limit in runs:
        analyses, report = compose_with_failures(tree, run_lex, limit)
        expected, failures, skipped = _eager_keys(tree, run_lex, limit)
        got = [_shown(a.term, a.normal_term, a.result_type, a.used_transfers, a.inserted_coercions)
               for a in analyses]
        assert got == [_shown(*e) for e in expected]
        assert [(f.describe(), f.path) for f in report.failures] == [(f.describe(), f.path) for f in failures]
        dropped += skipped
    assert dropped > 0  # the duplicate-skip path fires
