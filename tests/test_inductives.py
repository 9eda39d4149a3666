"""Naturals and finite sets: recursor rules, orthogonality, arithmetic."""

import random

import pytest

from polysem.errors import SortClash
from polysem.inductives import (
    FOLD_SET,
    NAT,
    NAT_RULES,
    REC_NAT,
    SET_RULES,
    numeral,
    numeral_value,
    register_finset,
    register_nat,
)
from polysem.kernel import (
    LEFTMOST_OUTERMOST,
    RIGHTMOST_INNERMOST,
    normalize,
    reduce_once,
    typecheck,
)
from polysem.lexicon import builtin_signature
from polysem.syntax import (
    App,
    Arrow,
    Lam,
    Var,
    alpha_eq,
    apps,
    parse_term,
    parse_type,
)
from random_terms import finite_set


@pytest.fixture(scope="module")
def nsig():
    return register_finset(register_nat(builtin_signature()))


# ---------------------------------------------------------------------------
# registration


def test_register_nat_constants(nsig):
    assert typecheck(nsig.const("Zero"), nsig) == NAT
    assert typecheck(nsig.const("Succ"), nsig) == Arrow(NAT, NAT)
    assert nsig.constant_type(REC_NAT) == parse_type(
        "(all a (-> a (-> (-> e:nat (-> a a)) (-> e:nat a))))"
    )


def test_register_finset_constants(nsig):
    assert nsig.constant_type("EmptyS") == parse_type("(all a (set a))")
    assert nsig.constant_type("InsertS") == parse_type("(all a (-> a (-> (set a) (set a))))")
    assert nsig.constant_type(FOLD_SET) == parse_type(
        "(all a (all b (-> b (-> (-> a (-> b b)) (-> (set a) b)))))"
    )


def test_sort_clash():
    sig = register_nat(builtin_signature())
    with pytest.raises(SortClash):
        register_nat(sig)
    sig2 = register_finset(builtin_signature())
    with pytest.raises(SortClash):
        register_finset(sig2)


# ---------------------------------------------------------------------------
# recursor reductions


def test_rec_base_rule(nsig):
    # RecN t b s Zero -> b, one rule step
    term = parse_term(
        "(app (app (app (tapp RecN e:nat) Zero)"
        " (lam (k e:nat) (lam (a e:nat) (app Succ a)))) Zero)", nsig)
    assert normalize(term, nsig).term == numeral(0)


def test_rec_identity_by_recursion(nsig):
    # RecN nat Zero (lam n. lam a. Succ a) (numeral 3) unrolls by hand to:
    #   Succ (RecN ... 2) -> Succ (Succ (RecN ... 1))
    #   -> Succ (Succ (Succ (RecN ... 0))) -> Succ (Succ (Succ Zero)) = 3
    step = parse_term("(lam (n e:nat) (lam (a e:nat) (app Succ a)))", nsig)
    term = apps(nsig.const(REC_NAT), NAT, numeral(0), step, numeral(3))
    assert normalize(term, nsig).term == numeral(3)


def _add_term(nsig):
    return parse_term(
        "(lam (m e:nat) (lam (n e:nat)"
        " (app (app (app (tapp RecN e:nat) n)"
        " (lam (k e:nat) (lam (a e:nat) (app Succ a)))) m)))",
        nsig,
    )


def test_rec_addition_oracle(nsig):
    # arithmetic oracle: numeral_value(normalize(add m n)) == m + n
    add = _add_term(nsig)
    assert normalize(App(App(add, numeral(2)), numeral(3)), nsig).term == numeral(5)
    for m, n in [(0, 0), (1, 0), (0, 7), (4, 4)]:
        out = normalize(App(App(add, numeral(m)), numeral(n)), nsig).term
        assert numeral_value(out) == m + n


# ---------------------------------------------------------------------------
# finite sets


def test_fold_empty(nsig):
    term = apps(nsig.const(FOLD_SET), NAT, NAT, numeral(9),
                parse_term("(lam (x e:nat) (lam (a e:nat) (app Succ a)))", nsig),
                finite_set([], NAT))
    assert normalize(term, nsig).term == numeral(9)


def test_fold_cardinality_two(nsig):
    # two rule steps unrolled by hand: fold (insert a (insert b empty))
    #   -> Succ (fold (insert b empty)) -> Succ (Succ (fold empty)) -> 2
    count = parse_term("(lam (x e:nat) (lam (a e:nat) (app Succ a)))", nsig)
    s = finite_set([numeral(4), numeral(7)], NAT)
    term = apps(nsig.const(FOLD_SET), NAT, NAT, numeral(0), count, s)
    assert normalize(term, nsig).term == numeral(2)


def test_fold_cardinality_against_len_oracle(nsig):
    rng = random.Random(13)
    count = parse_term("(lam (x e:nat) (lam (a e:nat) (app Succ a)))", nsig)
    for _ in range(20):
        elems = [numeral(rng.randrange(0, 9)) for _ in range(rng.randrange(0, 7))]
        term = apps(nsig.const(FOLD_SET), NAT, NAT, numeral(0), count,
                    finite_set(elems, NAT))
        assert numeral_value(normalize(term, nsig).term) == len(elems)


# recursor-defined arithmetic for the member test: pred, cut-off subtraction,
# zero test, equality, all in the plain recursor fragment
_PRED = "(lam (n e:nat) (app (app (app (tapp RecN e:nat) Zero) (lam (k e:nat) (lam (a e:nat) k))) n))"
_SUB = f"(lam (m e:nat) (lam (n e:nat) (app (app (app (tapp RecN e:nat) m) (lam (k e:nat) (lam (a e:nat) (app {_PRED} a)))) n)))"
_ISZERO = "(lam (n e:nat) (app (app (app (tapp RecN e:nat) (app Succ Zero)) (lam (k e:nat) (lam (a e:nat) Zero))) n))"
_ADD = ("(lam (m e:nat) (lam (n e:nat) (app (app (app (tapp RecN e:nat) n)"
        " (lam (k e:nat) (lam (a e:nat) (app Succ a)))) m)))")
_EQ = (f"(lam (m e:nat) (lam (n e:nat) (app {_ISZERO}"
       f" (app (app {_ADD} (app (app {_SUB} m) n)) (app (app {_SUB} n) m)))))")


def test_fold_member_against_list_oracle(nsig):
    # member(x, s) folds the sum of per-element equality tests and squashes
    # it to 0/1; the oracle is plain list membership
    eq = parse_term(_EQ, nsig)
    add = parse_term(_ADD, nsig)
    iszero = parse_term(_ISZERO, nsig)

    def member(x, elems):
        step = Lam("y", NAT, Lam("acc", NAT,
                                 App(App(add, App(App(eq, Var("y")), numeral(x))),
                                     Var("acc"))))
        total = apps(nsig.const(FOLD_SET), NAT, NAT, numeral(0), step,
                     finite_set([numeral(e) for e in elems], NAT))
        squashed = App(iszero, App(iszero, total))
        return numeral_value(normalize(squashed, nsig).term)

    assert member(2, [1, 2, 3]) == 1
    assert member(5, [1, 2, 3]) == 0
    rng = random.Random(31)
    for _ in range(12):
        elems = [rng.randrange(0, 6) for _ in range(rng.randrange(0, 4))]
        probe = rng.randrange(0, 6)
        assert member(probe, elems) == int(probe in elems)


def test_large_numerals_normalize_within_fuel(nsig):
    add = parse_term(_ADD, nsig)
    out = normalize(App(App(add, numeral(32)), numeral(32)), nsig).term
    assert numeral_value(out) == 64


def test_long_addition_normalises_within_the_recursion_limit(nsig):
    # the normaliser recurses once per Succ of the result; a RecursionError
    # is caught here so that its deep traceback is never formatted
    add = _add_term(nsig)
    try:
        out = normalize(App(App(add, numeral(400)), numeral(400)), nsig).term
    except RecursionError:
        out = None
    assert numeral_value(out) == 800


def test_fold_sum_against_sum_oracle(nsig):
    # a fold that uses the element: sum of a set matches the list oracle
    add = _add_term(nsig)
    step = Lam("x", NAT, Lam("a", NAT, App(App(add, Var("x")), Var("a"))))
    rng = random.Random(29)
    for _ in range(15):
        values = [rng.randrange(0, 6) for _ in range(rng.randrange(0, 5))]
        term = apps(nsig.const(FOLD_SET), NAT, NAT, numeral(0), step,
                    finite_set([numeral(v) for v in values], NAT))
        assert numeral_value(normalize(term, nsig).term) == sum(values)


# ---------------------------------------------------------------------------
# orthogonality


def check_orthogonality(rules):
    """None when no two left-hand patterns overlap; otherwise the first
    overlapping pair.  Two rules overlap iff they contract the same recursor
    on the same constructor, which the signature's rule table keeps one of."""
    seen = {}
    for rule in rules:
        key = (rule.recursor_head, rule.constructor)
        if key in seen:
            return (seen[key], rule)
        seen[key] = rule
    return None


def test_shipped_rules_orthogonal():
    assert check_orthogonality(NAT_RULES + SET_RULES) is None


def test_duplicate_rule_overlaps():
    dup = NAT_RULES + (NAT_RULES[0],)
    overlap = check_orthogonality(dup)
    assert overlap is not None
    assert overlap[0].constructor == overlap[1].constructor == "Zero"


def test_disjoint_constructors_ok():
    assert check_orthogonality([NAT_RULES[0], NAT_RULES[1], SET_RULES[0]]) is None


# ---------------------------------------------------------------------------
# kernel properties extend to recursor terms


def test_subject_reduction_on_recursor_terms(nsig):
    from random_terms import generate_corpus

    terms, gsig = generate_corpus(nsig, seed=7, count=120, use_inductives=True)
    for m in terms:
        ty = typecheck(m, gsig)
        stepped = reduce_once(m, gsig, LEFTMOST_OUTERMOST)
        if stepped is not None:
            assert typecheck(stepped, gsig) == ty


def test_confluence_on_recursor_terms(nsig):
    from random_terms import generate_corpus

    terms, gsig = generate_corpus(nsig, seed=8, count=120, use_inductives=True)
    for m in terms:
        lo = normalize(m, gsig, strategy=LEFTMOST_OUTERMOST).term
        ri = normalize(m, gsig, strategy=RIGHTMOST_INNERMOST).term
        assert alpha_eq(lo, ri)


def test_rule_contracta_typecheck(nsig):
    # every shipped rule preserves the redex type on a hand-built redex
    step = parse_term("(lam (k e:nat) (lam (a e:nat) (app Succ a)))", nsig)
    for scrut in (numeral(0), numeral(3)):
        redex = apps(nsig.const(REC_NAT), NAT, numeral(1), step, scrut)
        ty = typecheck(redex, nsig)
        for rule in NAT_RULES:
            out = rule.try_rewrite(redex)
            if out is not None:
                assert typecheck(out, nsig) == ty
    count = parse_term("(lam (x e:nat) (lam (a e:nat) (app Succ a)))", nsig)
    for elems in ([], [numeral(2)]):
        redex = apps(nsig.const(FOLD_SET), NAT, NAT, numeral(0), count,
                     finite_set(elems, NAT))
        ty = typecheck(redex, nsig)
        for rule in SET_RULES:
            out = rule.try_rewrite(redex)
            if out is not None:
                assert typecheck(out, nsig) == ty
