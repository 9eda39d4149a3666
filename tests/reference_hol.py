"""The formula walks that now store their results on each node, copied as
they stood before: the s-expression printer and `classify`, which walked the
whole formula on every call.  test_formula_facts.py compares the library with
them."""

from __future__ import annotations

from typing import Union

from polysem.hol import (
    EPSILON,
    Atom,
    Conn,
    ConstApp,
    Embed,
    Formula,
    HAbs,
    Hilbert,
    HolTerm,
    HTyAbs,
    HVar,
    LogicProfile,
    Quant,
)
from polysem.syntax import Arrow, Base, Forall, SetOf, Sort, TyVar, Type, print_type


def type_order(ty: Type) -> int:
    """Base sorts are order 1; an arrow adds one on the left."""
    match ty:
        case Base() | TyVar():
            return 1
        case Arrow(dom, cod):
            return max(type_order(dom) + 1, type_order(cod))
        case Forall(_, body):
            return type_order(body)
        case SetOf(elem):
            return type_order(elem)
    raise TypeError(f"not a Type: {ty!r}")


def _entity_sorts_in(ty: Type, acc: set[Sort], walked: set[int]) -> None:
    """Add the entity sorts of `ty` to `acc`, skipping the type objects whose
    ids are in `walked`: the caller keeps them alive."""
    if id(ty) in walked:
        return
    walked.add(id(ty))
    match ty:
        case Base(sort):
            if sort.kind == "entity":
                acc.add(sort)
        case TyVar():
            pass
        case Arrow(dom, cod):
            _entity_sorts_in(dom, acc, walked)
            _entity_sorts_in(cod, acc, walked)
        case Forall(_, body):
            _entity_sorts_in(body, acc, walked)
        case SetOf(elem):
            _entity_sorts_in(elem, acc, walked)


def classify(f: Union[Formula, HolTerm]) -> LogicProfile:
    """Order is the maximum order of any quantified or Hilbert-bound type
    (1 for quantifier-free formulas); sorts counts the distinct entity sorts
    occurring anywhere in the formula.  Each type object is walked once."""
    orders: list[int] = [1]
    sorts: set[Sort] = set()
    walked: set[int] = set()

    def walk(node):
        match node:
            case Atom(_, pred_type, ty_args, args) | ConstApp(_, pred_type, ty_args, args):
                _entity_sorts_in(pred_type, sorts, walked)
                for t in ty_args:
                    _entity_sorts_in(t, sorts, walked)
                for a in args:
                    walk(a)
            case Conn(_, args):
                for a in args:
                    walk(a)
            case Quant(_, _, sort_type, body) | Hilbert(_, _, sort_type, body):
                orders.append(type_order(sort_type))
                _entity_sorts_in(sort_type, sorts, walked)
                walk(body)
            case HVar(_, var_type):
                _entity_sorts_in(var_type, sorts, walked)
            case HAbs(_, var_type, body):
                _entity_sorts_in(var_type, sorts, walked)
                walk(body)
            case HTyAbs(_, body):
                walk(body)
            case Embed(formula):
                walk(formula)
            case _:
                raise TypeError(f"not a Formula or HolTerm: {node!r}")

    walk(f)
    return LogicProfile(order=max(orders), sorts=len(sorts))


def _print_sexpr(f) -> str:
    match f:
        case Atom(pred, _, ty_args, args) | ConstApp(pred, _, ty_args, args):
            parts = [pred] + [print_type(t) for t in ty_args] + [_print_sexpr(a) for a in args]
            return parts[0] if len(parts) == 1 else "(" + " ".join(parts) + ")"
        case Conn(conn, args):
            return "(" + " ".join([conn] + [_print_sexpr(a) for a in args]) + ")"
        case Quant(kind, var, sort_type, body):
            return f"({kind} ({var} {print_type(sort_type)}) {_print_sexpr(body)})"
        case Hilbert(kind, var, sort_type, body):
            tag = "eps" if kind == EPSILON else "tau"
            return f"({tag} ({var} {print_type(sort_type)}) {_print_sexpr(body)})"
        case HVar(name, _):
            return name
        case HAbs(var, var_type, body):
            return f"(lam ({var} {print_type(var_type)}) {_print_sexpr(body)})"
        case HTyAbs(var, body):
            return f"(tlam {var} {_print_sexpr(body)})"
        case Embed(formula):
            return _print_sexpr(formula)
    raise TypeError(f"not a Formula or HolTerm: {f!r}")
