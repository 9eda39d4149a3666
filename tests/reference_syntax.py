"""The walks that syntax nodes replaced by facts stored on the node, copied
as they stood before: de Bruijn keys rebuilt on every call, free variables
walked on every call, and type substitutions that rebuild every part.  The
differential tests in test_node_facts.py compare the library with them."""

from __future__ import annotations

from typing import Mapping

from polysem.syntax import (
    App,
    Arrow,
    Base,
    Const,
    Forall,
    Lam,
    SetOf,
    Term,
    TyApp,
    TyLam,
    TyVar,
    Type,
    Var,
    fresh_name,
)


def canon_type(ty: Type, env: Mapping[str, int] = {}, depth: int = 0):
    match ty:
        case Base(sort):
            return ("b", sort.kind, sort.name)
        case TyVar(name):
            if name in env:
                return ("i", depth - env[name])
            return ("f", name)
        case Arrow(dom, cod):
            return ("->", canon_type(dom, env, depth), canon_type(cod, env, depth))
        case Forall(binder, body):
            inner = dict(env)
            inner[binder] = depth
            return ("all", canon_type(body, inner, depth + 1))
        case SetOf(elem):
            return ("set", canon_type(elem, env, depth))
    raise TypeError(f"not a Type: {ty!r}")


def canon_term(term: Term, tenv: Mapping[str, int] = {}, tyenv: Mapping[str, int] = {}, depth: int = 0):
    match term:
        case Var(name):
            if name in tenv:
                return ("i", depth - tenv[name])
            return ("fv", name)
        case Const(name, declared):
            return ("c", name, canon_type(declared, tyenv, depth))
        case Lam(binder, binder_type, body):
            inner = dict(tenv)
            inner[binder] = depth
            return (
                "lam",
                canon_type(binder_type, tyenv, depth),
                canon_term(body, inner, tyenv, depth + 1),
            )
        case App(fn, arg):
            return ("app", canon_term(fn, tenv, tyenv, depth), canon_term(arg, tenv, tyenv, depth))
        case TyLam(binder, body):
            inner = dict(tyenv)
            inner[binder] = depth
            return ("tlam", canon_term(body, tenv, inner, depth + 1))
        case TyApp(fn, ty_arg):
            return ("tapp", canon_term(fn, tenv, tyenv, depth), canon_type(ty_arg, tyenv, depth))
    raise TypeError(f"not a Term: {term!r}")


def free_tyvars(ty: Type) -> frozenset[str]:
    match ty:
        case Base():
            return frozenset()
        case TyVar(name):
            return frozenset((name,))
        case Arrow(dom, cod):
            return free_tyvars(dom) | free_tyvars(cod)
        case Forall(binder, body):
            return free_tyvars(body) - {binder}
        case SetOf(elem):
            return free_tyvars(elem)
    raise TypeError(f"not a Type: {ty!r}")


def free_vars(term: Term) -> frozenset[str]:
    match term:
        case Var(name):
            return frozenset((name,))
        case Const():
            return frozenset()
        case Lam(binder, _, body):
            return free_vars(body) - {binder}
        case App(fn, arg):
            return free_vars(fn) | free_vars(arg)
        case TyLam(_, body):
            return free_vars(body)
        case TyApp(fn, _):
            return free_vars(fn)
    raise TypeError(f"not a Term: {term!r}")


def free_tyvars_in_term(term: Term) -> frozenset[str]:
    match term:
        case Var():
            return frozenset()
        case Const(_, declared):
            return free_tyvars(declared)
        case Lam(_, binder_type, body):
            return free_tyvars(binder_type) | free_tyvars_in_term(body)
        case App(fn, arg):
            return free_tyvars_in_term(fn) | free_tyvars_in_term(arg)
        case TyLam(binder, body):
            return free_tyvars_in_term(body) - {binder}
        case TyApp(fn, ty_arg):
            return free_tyvars_in_term(fn) | free_tyvars(ty_arg)
    raise TypeError(f"not a Term: {term!r}")


def subst_type(ty: Type, var: str, replacement: Type) -> Type:
    """Capture-avoiding [var := replacement] on a type."""
    match ty:
        case Base():
            return ty
        case TyVar(name):
            return replacement if name == var else ty
        case Arrow(dom, cod):
            return Arrow(subst_type(dom, var, replacement), subst_type(cod, var, replacement))
        case Forall(binder, body):
            if binder == var:
                return ty
            if binder in free_tyvars(replacement) and var in free_tyvars(body):
                fresh = fresh_name(binder, free_tyvars(replacement) | free_tyvars(body) | {var})
                body = subst_type(body, binder, TyVar(fresh))
                binder = fresh
            return Forall(binder, subst_type(body, var, replacement))
        case SetOf(elem):
            return SetOf(subst_type(elem, var, replacement))
    raise TypeError(f"not a Type: {ty!r}")


def substitute_ty(term: Term, var: str, replacement: Type) -> Term:
    """Capture-avoiding type substitution [var := replacement] inside a term."""
    match term:
        case Var():
            return term
        case Const():
            # constant types are closed over the signature's sorts
            return term
        case Lam(binder, binder_type, body):
            return Lam(binder, subst_type(binder_type, var, replacement), substitute_ty(body, var, replacement))
        case App(fn, arg):
            return App(substitute_ty(fn, var, replacement), substitute_ty(arg, var, replacement))
        case TyLam(binder, body):
            if binder == var:
                return term
            if binder in free_tyvars(replacement) and var in free_tyvars_in_term(body):
                fresh = fresh_name(binder, free_tyvars(replacement) | free_tyvars_in_term(body) | {var})
                body = substitute_ty(body, binder, TyVar(fresh))
                binder = fresh
            return TyLam(binder, substitute_ty(body, var, replacement))
        case TyApp(fn, ty_arg):
            return TyApp(substitute_ty(fn, var, replacement), subst_type(ty_arg, var, replacement))
    raise TypeError(f"not a Term: {term!r}")
