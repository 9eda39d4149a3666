"""Kernel: typing, substitution, reduction and normal forms.

Terms are Church-style, so typechecking is syntax-directed and needs no
unification.  Reduction contracts beta-redexes, type-beta-redexes and any
recursor rules registered on the signature; constants are otherwise opaque
heads.  Eta-long forms are computed only after beta-normalization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import (
    FuelExhausted,
    IllFormedType,
    NotNormal,
    TypeCheckError,
    TypeMismatch,
    UnboundVariable,
)
from .syntax import (
    App,
    Arrow,
    Base,
    Const,
    Forall,
    Lam,
    SetOf,
    Signature,
    Term,
    TyApp,
    TyLam,
    TyVar,
    Type,
    Var,
    check_wf_type,
    free_tyvars,
    free_tyvars_in_term,
    free_vars,
    fresh_name,
    spine,
    spine_nodes,
)

LEFTMOST_OUTERMOST = "leftmost-outermost"
RIGHTMOST_INNERMOST = "rightmost-innermost"

DEFAULT_FUEL = 100_000


@dataclass(frozen=True)
class TypingContext:
    """Term-variable typings plus the type variables in scope."""

    term_vars: dict[str, Type] = field(default_factory=dict)
    ty_vars: frozenset[str] = frozenset()

    def bind(self, name: str, ty: Type) -> "TypingContext":
        new = dict(self.term_vars)
        new[name] = ty
        return TypingContext(new, self.ty_vars)

    def bind_ty(self, name: str) -> "TypingContext":
        return TypingContext(dict(self.term_vars), self.ty_vars | {name})


EMPTY_CONTEXT = TypingContext()


@dataclass(frozen=True)
class NormalForm:
    term: Term
    steps: int = 0  # the contractions `normalize` made


# ---------------------------------------------------------------------------
# Substitution


def subst_type(ty: Type, var: str, replacement: Type) -> Type:
    """Capture-avoiding [var := replacement] on a type.  A part in which `var`
    is not free comes back as the same object."""
    if var not in free_tyvars(ty):
        return ty
    match ty:
        case TyVar():
            return replacement
        case Arrow(dom, cod):
            return Arrow(subst_type(dom, var, replacement), subst_type(cod, var, replacement))
        case Forall(binder, body):
            if binder in free_tyvars(replacement):
                fresh = fresh_name(binder, free_tyvars(replacement) | free_tyvars(body) | {var})
                body = subst_type(body, binder, TyVar(fresh))
                binder = fresh
            return Forall(binder, subst_type(body, var, replacement))
        case SetOf(elem):
            return SetOf(subst_type(elem, var, replacement))
    raise TypeError(f"not a Type: {ty!r}")


def substitute(term: Term, var: str, replacement: Term) -> Term:
    """Capture-avoiding term substitution [var := replacement]; a part without `var` free is shared."""
    return _subst(term, {var: replacement}, {})


def substitute_ty(term: Term, var: str, replacement: Type) -> Term:
    """Capture-avoiding type substitution [var := replacement] in a term; a part without `var` free is shared."""
    return _subst(term, {}, {var: replacement})


def _subst(term: Term, env: dict, tyenv: dict) -> Term:
    """`term` with the term variables of `env` and the type variables of `tyenv` replaced at once (in a type,
    tyenv's one after another: alike for one or for closed ones).  Untouched parts come back as they are; a
    binder is renamed only when it would capture a free variable of a replacement for a variable free under it."""
    if env and (fv := term._fv) is not None and fv.isdisjoint(env):
        env = {}  # the part's stored free variables miss env (none are computed for this)
    if not env and (not tyenv or free_tyvars_in_term(term).isdisjoint(tyenv)):
        return term
    match term:  # applications first, as most nodes are; no closure here, as a captured local costs each call
        case App(fn, arg):
            f, a = _subst(fn, env, tyenv), _subst(arg, env, tyenv)
            return term if f is fn and a is arg else App(f, a)
        case Var(name):
            return env[name] if name in env else term
        case Const():  # a constant's type is closed
            return term
        case Lam(binder, binder_type, body):
            env = _without(env, binder) if binder in env else env
            ty, out = _subst_types(binder_type, tyenv) if tyenv else binder_type, _subst(body, env, tyenv)
            if out is body and ty is binder_type:
                return term
            if binder in (reach := _reach(body, env, free_vars, free_vars)):
                fresh = fresh_name(binder, reach.union(free_vars(body), env))
                out, binder = _subst(_subst(body, {binder: Var(fresh)}, {}), env, tyenv), fresh
            return Lam(binder, ty, out)
        case TyLam(binder, body):
            tyenv = _without(tyenv, binder) if binder in tyenv else tyenv
            if (out := _subst(body, env, tyenv)) is body:
                return term
            reach = _reach(body, env, free_tyvars_in_term, free_vars)
            if binder in (reach := reach | _reach(body, tyenv, free_tyvars, free_tyvars_in_term)):
                fresh = fresh_name(binder, reach.union(free_tyvars_in_term(body), tyenv))
                out, binder = _subst(_subst(body, {}, {binder: TyVar(fresh)}), env, tyenv), fresh
            return TyLam(binder, out)
        case TyApp(fn, ty_arg):
            f, ty = _subst(fn, env, tyenv), _subst_types(ty_arg, tyenv) if tyenv else ty_arg
            return term if f is fn and ty is ty_arg else TyApp(f, ty)
    raise TypeError(f"not a Term: {term!r}")


def _reach(body: Term, env: dict, free, free_in_body) -> frozenset:
    """The free variables (by `free`) of the replacements in `env` for variables free in `body`."""
    return frozenset().union(*[fv for v, r in env.items() if (fv := free(r)) and v in free_in_body(body)])


def _without(env: dict, var: str) -> dict:
    return {v: r for v, r in env.items() if v != var}


def _subst_types(ty: Type, tyenv: dict) -> Type:
    for var, replacement in tyenv.items():
        ty = subst_type(ty, var, replacement)
    return ty


# ---------------------------------------------------------------------------
# Typechecking


def typecheck(term: Term, sig: Signature, ctx: TypingContext = EMPTY_CONTEXT, path: tuple = ()) -> Type:
    """The unique type of `term` under `ctx`, or a TypeCheckError.  A closed
    term's type is remembered on its node, per signature, so that terms
    sharing closed subterms type each of them once.  `path` locates `term`
    as a chain of (parent, step) pairs, spelt out only by an error."""
    closed = ctx is EMPTY_CONTEXT
    memo = getattr(term, "_type_memo", None) if closed else None
    if memo is not None and memo[0] is sig:
        return memo[1]
    match term:
        case Var(name):
            ty = ctx.term_vars.get(name)
            if ty is None:
                raise UnboundVariable(f"unbound variable {name}", path)
        case Const(name, declared):
            sig_ty = sig.constants.get(name)
            if sig_ty is None:
                raise UnboundVariable(f"constant {name} not in signature", path)
            if declared != sig_ty:
                raise TypeMismatch(sig_ty, declared, path)
            ty = declared
        case Lam(binder, binder_type, body):
            try:
                check_wf_type(binder_type, sig.sorts, ctx.ty_vars)
            except IllFormedType as e:
                raise IllFormedType(str(e), path) from None
            body_ty = typecheck(body, sig, ctx.bind(binder, binder_type), (path, "body"))
            ty = Arrow(binder_type, body_ty)
        case App(fn, arg):
            fn_ty = typecheck(fn, sig, ctx, (path, "fn"))
            arg_ty = typecheck(arg, sig, ctx, (path, "arg"))
            if not isinstance(fn_ty, Arrow):
                raise TypeMismatch(f"a function accepting {arg_ty}", fn_ty, (path, "fn"))
            if fn_ty.domain != arg_ty:
                raise TypeMismatch(fn_ty.domain, arg_ty, (path, "arg"))
            ty = fn_ty.codomain
        case TyLam(binder, body):
            if binder in ctx.ty_vars:
                fresh = fresh_name(binder, ctx.ty_vars | free_tyvars_in_term(body))
                body = substitute_ty(body, binder, TyVar(fresh))
                binder = fresh
            body_ty = typecheck(body, sig, ctx.bind_ty(binder), (path, "body"))
            ty = Forall(binder, body_ty)
        case TyApp(fn, ty_arg):
            fn_ty = typecheck(fn, sig, ctx, (path, "fn"))
            if not isinstance(fn_ty, Forall):
                raise TypeMismatch("a universally quantified type", fn_ty, (path, "fn"))
            try:
                check_wf_type(ty_arg, sig.sorts, ctx.ty_vars)
            except IllFormedType as e:
                raise IllFormedType(str(e), path) from None
            ty = subst_type(fn_ty.body, fn_ty.binder, ty_arg)
        case _:
            raise TypeError(f"not a Term: {term!r}")
    if closed:
        object.__setattr__(term, "_type_memo", (sig, ty))
    return ty


def typed_apply(fn: Term, ty_args, arg: Optional[Term], sig: Signature, residuals: tuple = ()) -> Term:
    """`Λresiduals. fn ty_args… arg` (no application if `arg` is None) of `fn` and `arg`
    closed and typed under `sig`, type arguments closed but for the residuals, checked
    once as it is built from checked parts (as in LCF): its type, from theirs by typecheck's
    checks, is remembered on it.  A failed check leaves typecheck of the whole term to raise."""
    try:
        ty, arg_ty = typecheck(fn, sig), arg and typecheck(arg, sig)
        for t in ty_args:
            check_wf_type(t, sig.sorts, frozenset(residuals))
    except TypeCheckError:
        ty = arg_ty = None
    for t in ty_args:
        fn, ty = TyApp(fn, t), _instance(ty, t)
    if arg is not None:
        fn, ty = App(fn, arg), ty.codomain if isinstance(ty, Arrow) and ty.domain == arg_ty else None
    for r in reversed(residuals):  # the ∀ too is made once, on its body's node
        fn, ty = TyLam(r, fn), ty and ty.__dict__.setdefault("_foralls", {}).setdefault(r, Forall(r, ty))
    object.__setattr__(fn, "_type_memo", (sig, typecheck(fn, sig) if ty is None else ty))
    return fn


def _instance(fn_ty: Optional[Type], ty_arg: Type) -> Optional[Type]:
    """The type `fn_ty` gives an application to the well-formed `ty_arg`, None
    if not a ∀.  A ∀ derives it once per argument object (not per α-equal
    one: bound names differ), or per name for a residual variable."""
    if not isinstance(fn_ty, Forall):
        return None
    table = fn_ty.__dict__.setdefault("_instances", {})
    key = ty_arg.name if isinstance(ty_arg, TyVar) else id(ty_arg)
    if (hit := table.get(key)) is None:  # the entry keeps its argument, so no other object takes its id
        hit = table[key] = (ty_arg, subst_type(fn_ty.body, fn_ty.binder, ty_arg))
    return hit[1]


def inherit_type(reduct: Term, term: Term, sig: Signature) -> Term:
    """`reduct`, a reduct of `term`, given the type term remembers under `sig`
    (subject reduction).  Copied only with no ∀, as it is then the reduct's
    own name for name; else the reduct is typechecked afresh."""
    memo = getattr(term, "_type_memo", None)
    if memo is not None and memo[0] is sig:
        object.__setattr__(reduct, "_type_memo", memo if _quantifier_free(memo[1]) else (sig, typecheck(reduct, sig)))
    return reduct


def _quantifier_free(ty: Type) -> bool:
    parts = (ty.domain, ty.codomain) if isinstance(ty, Arrow) else (ty.elem,) if isinstance(ty, SetOf) else ()
    return not isinstance(ty, Forall) and all(map(_quantifier_free, parts))


# ---------------------------------------------------------------------------
# Reduction


def _contract(term: Term, sig: Signature) -> Optional[Term]:
    """Contract `term` if it is itself a redex; None otherwise."""
    match term:
        case App(Lam(binder, _, body), arg):
            return _subst(body, {binder: arg}, {})
        case TyApp(TyLam(binder, body), ty_arg):
            return _subst(body, {}, {binder: ty_arg})
    return rule.try_rewrite(term) if sig.rules and (rule := _root_rule(term, sig)) else None


def _root_rule(term: Term, sig: Signature):
    """The rule that contracts `term` at its root, if any."""
    head, nodes = spine_nodes(term)
    return _rule_for(head.name, term.arg, sig) if _scrutinee(head, nodes, sig) == len(nodes) - 1 else None


def _scrutinee(head: Term, nodes: list, sig: Signature) -> Optional[int]:
    """The index of the node giving a recursor head the scrutinee its rules take."""
    n_ty, k = sig.recursor_shapes.get(head.name, (0, 0)) if isinstance(head, Const) else (0, 0)
    if not 0 < k <= len(nodes):
        return None
    for i in range(k):
        if isinstance(nodes[i], App) != (i >= n_ty):
            return None
    return k - 1


def _rule_for(recursor: str, scrutinee: Term, sig: Signature):
    """The rule of `recursor` on the constructor heading `scrutinee`, if any."""
    while isinstance(scrutinee, (App, TyApp)):
        scrutinee = scrutinee.fn
    return sig.rule_table.get((recursor, scrutinee.name)) if isinstance(scrutinee, Const) else None


def reduce_once(term: Term, sig: Signature, strategy: str = LEFTMOST_OUTERMOST) -> Optional[Term]:
    """Contract exactly one redex per the strategy; None when beta-normal."""
    if strategy == LEFTMOST_OUTERMOST:
        return _reduce_lo(term, sig)
    if strategy == RIGHTMOST_INNERMOST:
        return _reduce_ri(term, sig)
    raise ValueError(f"unknown strategy {strategy!r}")


def _with_body(node: Term, body: Term) -> Term:
    """The λ or Λ `node` with `body` for its body."""
    return Lam(node.binder, node.binder_type, body) if isinstance(node, Lam) else TyLam(node.binder, body)


def _reduce_lo(term: Term, sig: Signature) -> Optional[Term]:
    out = _contract(term, sig)
    if out is not None:
        return out
    match term:
        case Lam() | TyLam():
            b = _reduce_lo(term.body, sig)
            return None if b is None else _with_body(term, b)
        case App(fn, arg):
            f = _reduce_lo(fn, sig)
            if f is not None:
                return App(f, arg)
            a = _reduce_lo(arg, sig)
            return None if a is None else App(fn, a)
        case TyApp(fn, ty_arg):
            f = _reduce_lo(fn, sig)
            return None if f is None else TyApp(f, ty_arg)
    return None


def _reduce_ri(term: Term, sig: Signature) -> Optional[Term]:
    match term:
        case Lam() | TyLam():
            b = _reduce_ri(term.body, sig)
            if b is not None:
                return _with_body(term, b)
        case App(fn, arg):
            a = _reduce_ri(arg, sig)
            if a is not None:
                return App(fn, a)
            f = _reduce_ri(fn, sig)
            if f is not None:
                return App(f, arg)
        case TyApp(fn, ty_arg):
            f = _reduce_ri(fn, sig)
            if f is not None:
                return TyApp(f, ty_arg)
    return _contract(term, sig)


def is_beta_normal(term: Term, sig: Signature) -> bool:
    return _reduce_lo(term, sig) is None


def normalize(term: Term, sig: Signature, fuel: int = DEFAULT_FUEL,
              strategy: str = LEFTMOST_OUTERMOST) -> NormalForm:
    """Beta-normalize (including type-beta and recursor rules) by the contractions
    of iterating reduce_once, the stepper, in its order, at most `fuel` in the call,
    counted in `steps`.  A recursor redex is rewritten by the rule found for it.
    A closed redex's contractum keeps the redex's stored type, so a rule's recursive
    call counts as a closed argument of the step function's run.  The normal form
    of a λ/Λ body or of an argument but a recursor's scrutinee is remembered on
    its node per signature and strategy, and then costs no steps."""
    if strategy not in (LEFTMOST_OUTERMOST, RIGHTMOST_INNERMOST):
        raise ValueError(f"unknown strategy {strategy!r}")
    left = [fuel, fuel]
    out = (_lo if strategy == LEFTMOST_OUTERMOST else _ri)(term, sig, left)
    return NormalForm(inherit_type(out, term, sig), fuel - left[0])


def _fire(redex: Term, rest: list, sig: Signature, fuel: list, rule=None) -> Term:
    """Contract `redex`, spending one of `fuel`'s [left, allowed], and reapply `rest`.
    The recursor `rule` the caller found for `redex` rewrites it at once; else the stepper does."""
    if fuel[0] <= 0:
        raise FuelExhausted(f"no normal form within {fuel[1]} steps")
    fuel[0] -= 1
    term = rule.rewrite(redex.fn, spine(redex)[1], spine(redex.arg)[1]) if rule else reduce_once(redex, sig)
    # a step rule's recursive call reuses the redex's prefix: it has the redex's type, and is closed with it
    if rule and isinstance(term, App) and getattr(term.arg, "fn", None) is redex.fn and hasattr(redex, "_type_memo"):
        object.__setattr__(term.arg, "_type_memo", redex._type_memo)
    for n in rest:
        term = App(term, n.arg) if isinstance(n, App) else TyApp(term, n.ty_arg)
    return term


def _fire_run(head: Term, nodes: list, sig: Signature, fuel: list) -> Term:
    """Contract the λ/Λ `head` against `nodes[0]`.  A run of two or more of its
    binders meeting closed arguments takes one walk, and n fuel for n binders."""
    n, body = 0, head
    for node in nodes:
        # closed: a constant, a term typed in the empty context, a type stored as free of variables
        if n >= fuel[0] or not (isinstance(node, App) and isinstance(body, Lam) and (
                isinstance(node.arg, Const) or hasattr(node.arg, "_type_memo"))
                or isinstance(node, TyApp) and isinstance(body, TyLam) and node.ty_arg._ftv == frozenset()):
            break
        body, n = body.body, n + 1
    if n < 2:
        return _fire(nodes[0], nodes[1:], sig, fuel)
    fuel[0] -= n
    env, tyenv, binder = {}, {}, head
    for node in nodes[:n]:
        if isinstance(node, App):
            env[binder.binder] = node.arg
        else:
            tyenv[binder.binder] = node.ty_arg
        binder = binder.body
    term = _subst(body, env, tyenv)
    if (memo := getattr(nodes[n - 1], "_type_memo", None)) and _quantifier_free(memo[1]):
        object.__setattr__(term, "_type_memo", memo)  # the contractum's own type, name for name when ∀-free
    for node in nodes[n:]:
        term = App(term, node.arg) if isinstance(node, App) else TyApp(term, node.ty_arg)
    return term


def _remembered(term: Term, sig: Signature, strategy: str) -> Optional[Term]:
    if isinstance(term, (Var, Const)):
        return term
    memo = getattr(term, "_normal_memo", None)
    return (memo[2] or term) if memo is not None and memo[0] is sig and memo[1] == strategy else None


def _remember(term: Term, out: Term, sig: Signature, strategy: str) -> Term:
    # A normal node remembers None, not itself, so that no node refers to itself.
    object.__setattr__(term, "_normal_memo", (sig, strategy, None if out is term else out))
    return out


def _lo(term: Term, sig: Signature, fuel: list, stop: Optional[str] = None) -> Term:
    """Leftmost-outermost: contract the redex the head makes with a prefix of
    the spine, else normalise a λ/Λ head's body, then the arguments.  A scrutinee
    returns once a top contraction heads it by a constructor firing `stop`."""
    if stop is None and (out := _remembered(term, sig, LEFTMOST_OUTERMOST)) is not None:
        return out
    t = term
    while True:
        head, nodes = spine_nodes(t)
        k = _scrutinee(head, nodes, sig)
        if nodes and isinstance(head, (Lam, TyLam)) and isinstance(nodes[0], App if isinstance(head, Lam) else TyApp):
            t = _fire_run(head, nodes, sig, fuel)
        elif k is not None and (rule := _rule_for(head.name, nodes[k].arg, sig)):
            t = _fire(nodes[k], nodes[k + 1:], sig, fuel, rule)
        else:
            out = head
            if isinstance(head, (Lam, TyLam)):
                body = _lo(head.body, sig, fuel)
                out = head if body is head.body else _with_body(head, body)
            for i, n in enumerate(nodes):
                if isinstance(n, TyApp):
                    out = n if out is n.fn else TyApp(out, n.ty_arg)
                    continue
                arg = _lo(n.arg, sig, fuel, head.name if i == k else None)
                out = n if out is n.fn and arg is n.arg else App(out, arg)
                if i == k and (rule := _rule_for(head.name, arg, sig)):
                    t = _fire(out, nodes[i + 1:], sig, fuel, rule)
                    break
            else:
                return out if stop else _remember(term, out, sig, LEFTMOST_OUTERMOST)
        if stop and _rule_for(stop, t, sig):
            return t


def _ri(term: Term, sig: Signature, fuel: list) -> Term:
    """Rightmost-innermost: the argument, the function, then the node."""
    if (out := _remembered(term, sig, RIGHTMOST_INNERMOST)) is not None:
        return out
    out = term
    while True:
        if isinstance(out, (Lam, TyLam)):
            body = _ri(out.body, sig, fuel)
            out = out if body is out.body else _with_body(out, body)
        elif isinstance(out, App):
            arg, fn = _ri(out.arg, sig, fuel), _ri(out.fn, sig, fuel)
            out = out if fn is out.fn and arg is out.arg else App(fn, arg)
        elif isinstance(out, TyApp):
            fn = _ri(out.fn, sig, fuel)
            out = out if fn is out.fn else TyApp(fn, out.ty_arg)
        # the function and argument are normal: only the node can be a redex
        rule = sig.rules and _root_rule(out, sig)
        if not (rule or isinstance(out, App) and isinstance(out.fn, Lam)
                or isinstance(out, TyApp) and isinstance(out.fn, TyLam)):
            return _remember(term, out, sig, RIGHTMOST_INNERMOST)
        out = _fire(out, [], sig, fuel, rule)


# ---------------------------------------------------------------------------
# Canonical and eta-long forms


def canonical(term: Term, ty: Type, sig: Signature, ctx: TypingContext = EMPTY_CONTEXT, read=None):
    """Check that `term`, well typed at `ty` under `ctx`, is a canonical form,
    that is β-normal and η-long: a λ at an arrow type, a Λ at a ∀ type, and
    at any other type a variable or a constant applied to all its arguments,
    each canonical, and not a recursor redex.  NotNormal is raised at the
    first position that is not canonical.

    With `read`, the pass returns the term's reading, built bottom up by
    read.abstraction(term, ty, body) and read.spine(head, ty, type arguments,
    argument readings); read.head(head, ty, n) sees each spine's head before
    its n eliminations.  A spine whose verdict and reading depend on the term
    alone remembers both on its node, per signature, and any scope reads
    them back: a spine in no binder's scope, and on a reading pass a
    first-order one, a constant applied to type arguments, bare variables
    and spines whose reading was kept, which the constant's declared type
    types whatever the binders around it.  So readings sharing such a
    subterm, such as a coercion chain under a lift's λ, walk it once."""
    if isinstance(ty, (Arrow, Forall)):
        if isinstance(ty, Arrow) and isinstance(term, Lam):
            body = canonical(term.body, ty.codomain, sig, ctx.bind(term.binder, term.binder_type), read)
        elif isinstance(ty, Forall) and isinstance(term, TyLam):
            inner = subst_type(ty.body, ty.binder, TyVar(term.binder))
            body = canonical(term.body, inner, sig, ctx.bind_ty(term.binder), read)
        else:
            raise NotNormal("not an abstraction at an arrow or ∀ type")
        return read and read.abstraction(term, ty, body)
    closed = ctx is EMPTY_CONTEXT
    memo = getattr(term, "_canonical_memo", None)
    if memo is not None and memo[0] is sig and (read is None or memo[1] is read):
        return memo[2]
    head, nodes = spine_nodes(term)
    if not isinstance(head, (Var, Const)):
        raise NotNormal("a β-redex")
    if (k := _scrutinee(head, nodes, sig)) is not None and _rule_for(head.name, nodes[k].arg, sig):
        raise NotNormal("a recursor redex")
    cur = ctx.term_vars[head.name] if isinstance(head, Var) else head.declared_type
    if read:
        read.head(head, ty, len(nodes))
    ty_args, args = [], []
    keep = closed or read is not None and isinstance(head, Const)
    for n in nodes:
        if isinstance(n, App):
            args.append(out := canonical(n.arg, cur.domain, sig, ctx, read))
            # a bare variable, or an argument whose reading was just kept, is typed by the head's type
            keep = keep and (closed or isinstance(n.arg, Var) or getattr(n.arg, "_canonical_memo", (0, 0, 0))[2] is out)
            cur = cur.codomain
        else:
            ty_args.append(n.ty_arg)
            cur = subst_type(cur.body, cur.binder, n.ty_arg)
    out = read and read.spine(head, ty, ty_args, args)
    if keep:
        object.__setattr__(term, "_canonical_memo", (sig, read, out))
    return out


def eta_expand(term: Term, sig: Signature, ctx: TypingContext = EMPTY_CONTEXT) -> NormalForm:
    """Eta-long form of a beta-normal, well-typed term.  A canonical term
    comes back as the same object."""
    ty = typecheck(term, sig, ctx)
    try:
        canonical(term, ty, sig, ctx)
        return NormalForm(term)
    except NotNormal:
        return NormalForm(_eta(term, ty, sig, ctx))


def _eta(term: Term, ty: Type, sig: Signature, ctx: TypingContext) -> Term:
    # An eta-long subterm comes back as the same object, so that comparing
    # an eta-long term with its expansion stops at the identity check.
    match ty:
        case Arrow(dom, cod):
            if isinstance(term, Lam):
                inner = ctx.bind(term.binder, term.binder_type)
                body = _eta(term.body, cod, sig, inner)
                return term if body is term.body else Lam(term.binder, term.binder_type, body)
            x = fresh_name("x", free_vars(term) | set(ctx.term_vars))
            inner = ctx.bind(x, dom)
            return Lam(x, dom, _eta(App(term, Var(x)), cod, sig, inner))
        case Forall(binder, body_ty):
            if isinstance(term, TyLam):
                a = term.binder
                inner = ctx.bind_ty(a)
                body = _eta(term.body, subst_type(body_ty, binder, TyVar(a)), sig, inner)
                return term if body is term.body else TyLam(a, body)
            a = fresh_name(binder, free_tyvars_in_term(term) | ctx.ty_vars)
            inner = ctx.bind_ty(a)
            return TyLam(a, _eta(TyApp(term, TyVar(a)), subst_type(body_ty, binder, TyVar(a)), sig, inner))
        case _:
            return _eta_spine(term, sig, ctx)


def _eta_spine(term: Term, sig: Signature, ctx: TypingContext) -> Term:
    head, nodes = spine_nodes(term)
    match head:
        case Var(name):
            head_ty = ctx.term_vars[name]
        case Const(_, declared):
            head_ty = declared
        case _:
            # beta-normal atomic-type spines can only be headed by a
            # variable or constant
            raise TypeMismatch("a neutral spine head", head, ())
    out, cur = head, head_ty
    for n in nodes:
        if isinstance(n, TyApp):
            assert isinstance(cur, Forall)
            out = n if out is n.fn else TyApp(out, n.ty_arg)
            cur = subst_type(cur.body, cur.binder, n.ty_arg)
        else:
            assert isinstance(cur, Arrow)
            arg = _eta(n.arg, cur.domain, sig, ctx)
            out = n if out is n.fn and arg is n.arg else App(out, arg)
            cur = cur.codomain
    return out


# ---------------------------------------------------------------------------
# First-order matching of a domain pattern against an argument type


def match_type(pattern: Type, subject: Type, holes: frozenset[str],
               theta: Optional[dict[str, Type]] = None) -> Optional[dict[str, Type]]:
    """First-order syntactic matching: instantiate `holes` occurring in
    `pattern` so that it alpha-equals `subject`.  Returns the substitution or
    None.  No unification: `subject` is never rewritten."""
    theta = dict(theta) if theta else {}
    if _match(pattern, subject, holes, theta, {}, frozenset()):
        return theta
    return None


def _match(pat: Type, sub: Type, holes, theta, bound_pairs: dict, sub_bound: frozenset) -> bool:
    match pat:
        case TyVar(name) if name in bound_pairs:
            return isinstance(sub, TyVar) and sub.name == bound_pairs[name]
        case TyVar(name) if name in holes:
            if free_tyvars(sub) & sub_bound:
                return False  # subject-bound variables may not escape
            if name in theta:
                return theta[name] == sub
            theta[name] = sub
            return True
        case TyVar(name):
            return isinstance(sub, TyVar) and sub.name == name
        case Base(sort):
            return isinstance(sub, Base) and sub.sort == sort
        case Arrow(dom, cod):
            return (isinstance(sub, Arrow)
                    and _match(dom, sub.domain, holes, theta, bound_pairs, sub_bound)
                    and _match(cod, sub.codomain, holes, theta, bound_pairs, sub_bound))
        case Forall(binder, body):
            if not isinstance(sub, Forall):
                return False
            inner = dict(bound_pairs)
            inner[binder] = sub.binder
            return _match(body, sub.body, holes, theta, inner, sub_bound | {sub.binder})
        case SetOf(elem):
            return isinstance(sub, SetOf) and _match(elem, sub.elem, holes, theta, bound_pairs, sub_bound)
    raise TypeError(f"not a Type: {pat!r}")


# ---------------------------------------------------------------------------
# Definable constants


def expand_definitions(term: Term, sig: Signature) -> Term:
    """Replace every definable constant by a fresh copy of its definition,
    constants included.  Only its variables and types stay shared with
    `sig.definitions`: they remember nothing that names a signature, so what
    the kernel remembers on the result never refers back to `sig`.  A part
    with no definable constant comes back as the same object.  Definitions
    are closed and non-recursive, so one bottom-up pass suffices.  A term
    whose constants parse_term recorded, none definable, comes back at once."""
    defs = sig.definitions
    if not defs or term._consts is not None and term._consts.isdisjoint(defs):
        return term
    return _expand(term, defs, False)


def copy_term(term: Term) -> Term:
    """`term` in new nodes, but for its variables and types: it remembers nothing that `term` does."""
    return _expand(term, {}, True)


def _expand(term: Term, defs: dict, copy: bool) -> Term:
    match term:
        case Const(name, declared):
            d = defs.get(name)
            return _expand(d, defs, True) if d is not None else Const(name, declared) if copy else term
        case Var():
            return term
        case Lam() | TyLam():
            b = _expand(term.body, defs, copy)
            return _with_body(term, b) if copy or b is not term.body else term
        case App(fn, arg):
            f, a = _expand(fn, defs, copy), _expand(arg, defs, copy)
            return App(f, a) if copy or f is not fn or a is not arg else term
        case TyApp(fn, ty_arg):
            f = _expand(fn, defs, copy)
            return TyApp(f, ty_arg) if copy or f is not fn else term
    raise TypeError(f"not a Term: {term!r}")
