"""The term reader, definition expansion and recursor rewrites as they stood
before each came to reuse the nodes it was given: a fresh Const for every
occurrence of a constant, a copy of every node of an expanded term, and a
fresh recursor constant with a fresh type for every rewrite.
test_node_sharing.py compares the library with them."""

from __future__ import annotations

from polysem.errors import ParseError, UnknownConstant
from polysem.inductives import FOLD_SET, REC_NAT, _fold_set_type, _rec_nat_type
from polysem.syntax import (
    App,
    Const,
    Lam,
    Signature,
    Term,
    TyApp,
    TyLam,
    Var,
    apps,
)
from reference_reader import SexprNode, parse_sexpr, type_from_sexpr


def _term_from_sexpr(node: SexprNode, sig: Signature, bound: frozenset[str], allow_free: bool) -> Term:
    if node.atom is not None:
        name = node.atom
        if name in bound:
            return Var(name)
        if sig.has_constant(name):
            return Const(name, sig.constants[name])
        if allow_free:
            return Var(name)
        raise UnknownConstant(f"unknown constant {name!r}", node.line, node.col)
    items = node.items
    if not items or items[0].atom is None:
        raise ParseError("expected a term form", node.line, node.col)
    head = items[0].atom
    if head == "lam":
        if (len(items) != 3 or items[1].items is None or len(items[1].items) != 2
                or items[1].items[0].atom is None):
            raise ParseError("(lam (v T) M) expected", node.line, node.col)
        binder = items[1].items[0].atom
        return Lam(binder, type_from_sexpr(items[1].items[1], None),
                   _term_from_sexpr(items[2], sig, bound | {binder}, allow_free))
    if head == "app":
        if len(items) != 3:
            raise ParseError("(app M N) is strictly binary", node.line, node.col)
        return App(_term_from_sexpr(items[1], sig, bound, allow_free),
                   _term_from_sexpr(items[2], sig, bound, allow_free))
    if head == "tlam":
        if len(items) != 3 or items[1].atom is None:
            raise ParseError("(tlam v M) expected", node.line, node.col)
        return TyLam(items[1].atom, _term_from_sexpr(items[2], sig, bound, allow_free))
    if head == "tapp":
        if len(items) != 3:
            raise ParseError("(tapp M T) expected", node.line, node.col)
        return TyApp(_term_from_sexpr(items[1], sig, bound, allow_free), type_from_sexpr(items[2], None))
    raise ParseError(f"unknown term form {head!r}", node.line, node.col)


def parse_term(text: str, sig: Signature, allow_free: bool = True) -> Term:
    """Parse a term against `sig`.  Identifiers resolve first to enclosing
    binders, then to signature constants; anything else is a free variable
    unless `allow_free` is false, in which case it raises UnknownConstant."""
    return _term_from_sexpr(parse_sexpr(text), sig, frozenset(), allow_free)


def expand_definitions(term: Term, sig: Signature) -> Term:
    """Replace every definable constant by its definition.  Definitions are
    closed and non-recursive, so one bottom-up pass suffices."""
    if not sig.definitions:
        return term
    match term:
        case Const(name, _):
            d = sig.definitions.get(name)
            return expand_definitions(d, sig) if d is not None else term
        case Var():
            return term
        case Lam(binder, binder_type, body):
            return Lam(binder, binder_type, expand_definitions(body, sig))
        case App(fn, arg):
            return App(expand_definitions(fn, sig), expand_definitions(arg, sig))
        case TyLam(binder, body):
            return TyLam(binder, expand_definitions(body, sig))
        case TyApp(fn, ty_arg):
            return TyApp(expand_definitions(fn, sig), ty_arg)
    raise TypeError(f"not a Term: {term!r}")


def _rec_nat_succ(elims, scrut_elims) -> Term:
    # RecN T base step (Succ n)  ~>  step n (RecN T base step n)
    ty, base, step = elims[0], elims[1], elims[2]
    n = scrut_elims[0]
    return apps(step, n, apps(Const(REC_NAT, _rec_nat_type()), ty, base, step, n))


def _fold_insert(elims, scrut_elims) -> Term:
    # FoldS A B base step (InsertS[A] x xs)  ~>  step x (FoldS A B base step xs)
    elem_ty, out_ty, base, step = elims[0], elims[1], elims[2], elims[3]
    x, xs = scrut_elims[1], scrut_elims[2]
    rec = apps(Const(FOLD_SET, _fold_set_type()), elem_ty, out_ty, base, step, xs)
    return apps(step, x, rec)
