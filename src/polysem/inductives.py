"""Predefined inductive extensions: naturals with a primitive recursor, and
finite sets with a fold.

Each extension adds constructors plus a recursor constant and registers the
recursor's contraction rules on the signature.  The rule set is orthogonal
(one rule per recursor/constructor pair), which is what keeps normalization
and confluence intact when the kernel picks the rules up.

Sets reduce as free insert-lists: no duplicate elimination or permutation at
reduction time, since a quotient rule set would overlap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .errors import SortClash
from .syntax import (
    App,
    Arrow,
    Const,
    Forall,
    SetOf,
    Signature,
    Term,
    TyVar,
    Type,
    apps,
    etype,
    spine,
)

NAT = etype("nat")
NAT_SORT = NAT.sort

ZERO = "Zero"
SUCC = "Succ"
REC_NAT = "RecN"
EMPTY_SET = "EmptyS"
INSERT = "InsertS"
FOLD_SET = "FoldS"


@dataclass(frozen=True)
class InductiveRule:
    """One recursor contraction: fires when the recursor head is fully
    applied and the scrutinee is headed by the matching constructor."""

    recursor_head: str
    constructor: str
    n_ty_args: int
    n_args: int  # term arguments, scrutinee included
    rewrite: Callable[[Term, list, list], Term]  # (the redex's function part, its elims, scrutinee elims)

    def try_rewrite(self, term: Term) -> Optional[Term]:
        head, elims = spine(term)
        if not (isinstance(head, Const) and head.name == self.recursor_head):
            return None
        if len(elims) != self.n_ty_args + self.n_args:
            return None
        ty_args, args = elims[: self.n_ty_args], elims[self.n_ty_args:]
        if any(not isinstance(t, Type) for t in ty_args):
            return None
        if any(isinstance(a, Type) for a in args):
            return None
        scrut_head, scrut_elims = spine(args[-1])
        if not (isinstance(scrut_head, Const) and scrut_head.name == self.constructor):
            return None
        return self.rewrite(term.fn, elims, scrut_elims)


# ---------------------------------------------------------------------------
# Naturals


def _rec_nat_zero(_prefix, elims, _scrut_elims) -> Term:
    # RecN T base step Zero  ~>  base
    return elims[1]


def _rec_nat_succ(prefix, elims, scrut_elims) -> Term:
    # RecN T base step (Succ n)  ~>  step n (RecN T base step n), reusing the redex's prefix
    n = scrut_elims[0]
    return apps(elims[2], n, App(prefix, n))


def _rec_nat_type() -> Type:
    a = TyVar("a")
    return Forall("a", Arrow(a, Arrow(Arrow(NAT, Arrow(a, a)), Arrow(NAT, a))))


NAT_RULES = (
    InductiveRule(REC_NAT, ZERO, n_ty_args=1, n_args=3, rewrite=_rec_nat_zero),
    InductiveRule(REC_NAT, SUCC, n_ty_args=1, n_args=3, rewrite=_rec_nat_succ),
)


def register_nat(sig: Signature) -> Signature:
    """Extend with sort nat, constructors Zero/Succ and recursor RecN."""
    if NAT_SORT in sig.sorts:
        raise SortClash("sort e:nat is already declared")
    for name in (ZERO, SUCC, REC_NAT):
        if sig.has_constant(name):
            raise SortClash(f"constant {name} is already declared")
    return sig.extend(
        sorts=(NAT_SORT,),
        constants={
            ZERO: NAT,
            SUCC: Arrow(NAT, NAT),
            REC_NAT: _rec_nat_type(),
        },
        rules=NAT_RULES,
    )


def numeral(n: int) -> Term:
    if n < 0:
        raise ValueError("numerals are non-negative")
    out: Term = Const(ZERO, NAT)
    succ = Const(SUCC, Arrow(NAT, NAT))
    for _ in range(n):
        out = App(succ, out)
    return out


def numeral_value(term: Term) -> Optional[int]:
    """Inverse of numeral, None for terms that are not literal numerals."""
    n = 0
    while True:
        match term:
            case Const(name, _) if name == ZERO:
                return n
            case App(Const(name, _), arg) if name == SUCC:
                n += 1
                term = arg
            case _:
                return None


# ---------------------------------------------------------------------------
# Finite sets


def _fold_set_type() -> Type:
    a, b = TyVar("a"), TyVar("b")
    return Forall("a", Forall("b", Arrow(b, Arrow(Arrow(a, Arrow(b, b)), Arrow(SetOf(a), b)))))


def _insert_type() -> Type:
    a = TyVar("a")
    return Forall("a", Arrow(a, Arrow(SetOf(a), SetOf(a))))


def _fold_empty(_prefix, elims, _scrut_elims) -> Term:
    # FoldS A B base step EmptyS[A]  ~>  base
    return elims[2]


def _fold_insert(prefix, elims, scrut_elims) -> Term:
    # FoldS A B base step (InsertS[A] x xs)  ~>  step x (FoldS A B base step xs), reusing the prefix
    x, xs = scrut_elims[1], scrut_elims[2]
    return apps(elims[3], x, App(prefix, xs))


SET_RULES = (
    InductiveRule(FOLD_SET, EMPTY_SET, n_ty_args=2, n_args=3, rewrite=_fold_empty),
    InductiveRule(FOLD_SET, INSERT, n_ty_args=2, n_args=3, rewrite=_fold_insert),
)


def register_finset(sig: Signature) -> Signature:
    """Extend with the set former and EmptyS/InsertS/FoldS."""
    for name in (EMPTY_SET, INSERT, FOLD_SET):
        if sig.has_constant(name):
            raise SortClash(f"constant {name} is already declared")
    a = TyVar("a")
    return sig.extend(
        constants={
            EMPTY_SET: Forall("a", SetOf(a)),
            INSERT: _insert_type(),
            FOLD_SET: _fold_set_type(),
        },
        rules=SET_RULES,
    )
