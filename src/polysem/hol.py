"""Reading eta-long beta-normal terms of the proposition type as formulas of
many-sorted higher-order logic, and classifying them by quantification order
and sort count.

Every spine of such a term must be headed by a signature constant: the
connectives, the typed quantifiers, the Hilbert choice operators, or a
predicate/function constant.  A variable-headed spine is reported as
UnexpectedHead: on kernel output it signals a kernel bug, never a user
error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .errors import (
    NotNormal,
    NotPropType,
    ParseError,
    UnexpectedHead,
)
from .kernel import (
    EMPTY_CONTEXT,
    NormalForm,
    is_beta_normal,
    subst_type,
    typecheck,
    _eta,
)
from .syntax import (
    PROP,
    App,
    Arrow,
    Base,
    Const,
    Forall,
    Lam,
    SetOf,
    Signature,
    Sort,
    Term,
    TyApp,
    TyLam,
    TyVar,
    Type,
    Var,
    apps,
    free_vars,
    parse_sexpr,
    print_type,
    spine,
    _SexprNode,
    _type_from_sexpr,
)

AND, NOT, IMPLIES = "and", "not", "implies"
FORALL, EXISTS = "forall", "exists"
EPSILON, TAU = "epsilon", "tau"

_CONN_CONSTANTS = {"∧": AND, "¬": NOT, "⊃": IMPLIES}
_QUANT_CONSTANTS = {"∀": FORALL, "∃": EXISTS}
_HILBERT_CONSTANTS = {"ε": EPSILON, "τ": TAU}
_CONN_NAMES = {v: k for k, v in _CONN_CONSTANTS.items()}
_QUANT_NAMES = {v: k for k, v in _QUANT_CONSTANTS.items()}
_HILBERT_NAMES = {v: k for k, v in _HILBERT_CONSTANTS.items()}


# ---------------------------------------------------------------------------
# Formula and term ASTs


class Formula:
    pass


class HolTerm:
    pass


@dataclass(frozen=True)
class Atom(Formula):
    pred: str
    pred_type: Type
    ty_args: tuple[Type, ...]
    args: tuple[HolTerm, ...]


@dataclass(frozen=True)
class Conn(Formula):
    conn: str  # and | not | implies
    args: tuple[Formula, ...]


@dataclass(frozen=True)
class Quant(Formula):
    kind: str  # forall | exists
    var: str
    sort_type: Type
    body: Formula


@dataclass(frozen=True)
class HVar(HolTerm):
    name: str
    var_type: Type


@dataclass(frozen=True)
class ConstApp(HolTerm):
    const: str
    const_type: Type
    ty_args: tuple[Type, ...]
    args: tuple[HolTerm, ...]


@dataclass(frozen=True)
class Hilbert(HolTerm):
    kind: str  # epsilon | tau
    var: str
    sort_type: Type
    body: Formula


@dataclass(frozen=True)
class HAbs(HolTerm):
    var: str
    var_type: Type
    body: Union[HolTerm, Formula]


@dataclass(frozen=True)
class HTyAbs(HolTerm):
    var: str
    body: Union[HolTerm, Formula]


@dataclass(frozen=True)
class Embed(HolTerm):
    """A formula sitting in an argument position of propositional type."""

    formula: Formula


@dataclass(frozen=True)
class LogicProfile:
    order: int
    sorts: int


# ---------------------------------------------------------------------------
# Extraction


def extract_formula(m: Union[NormalForm, Term], sig: Signature) -> Formula:
    """Read a closed eta-long beta-normal term of type t as a formula; the
    reading is invertible (see formula_to_term).  Such a term is a canonical
    form, so the checks below leave the reader only variable-headed spines
    (and choice terms applied further) to refuse."""
    term = m.term if isinstance(m, NormalForm) else m
    if free_vars(term):
        raise NotNormal(f"term is not closed: free {sorted(free_vars(term))}")
    ty = typecheck(term, sig, EMPTY_CONTEXT)
    if ty != PROP:
        raise NotPropType(f"term has type {print_type(ty)}, not t")
    if not is_beta_normal(term, sig):
        raise NotNormal("term is not beta-normal")
    # is_eta_long without typechecking the term again
    if _eta(term, ty, sig, EMPTY_CONTEXT) != term:
        raise NotNormal("term is not eta-long")
    return _read_formula(term)


def _read_formula(term: Term) -> Formula:
    head, elims = spine(term)
    if isinstance(head, Var):
        raise UnexpectedHead(f"variable-headed spine: {head.name}")
    if head.name in _CONN_CONSTANTS:
        return Conn(_CONN_CONSTANTS[head.name], tuple(_read_formula(e) for e in elims))
    if head.name in _QUANT_CONSTANTS:
        ty_arg, scope = elims
        return Quant(_QUANT_CONSTANTS[head.name], scope.binder, ty_arg, _read_formula(scope.body))
    return Atom(head.name, head.declared_type, *_read_const_args(head.declared_type, elims))


def _read_const_args(declared: Type, elims) -> tuple[tuple[Type, ...], tuple[HolTerm, ...]]:
    """Walk the constant's type along its eliminations, reading each term
    argument at the expected domain type."""
    ty_args: list[Type] = []
    args: list[HolTerm] = []
    cur = declared
    for e in elims:
        if isinstance(e, Type):
            ty_args.append(e)
            cur = subst_type(cur.body, cur.binder, e)
        else:
            args.append(_read_holterm(e, cur.domain))
            cur = cur.codomain
    return tuple(ty_args), tuple(args)


def _read_holterm(term: Term, expected: Type) -> HolTerm:
    if expected == PROP:
        return Embed(_read_formula(term))
    match expected:
        case Arrow(dom, cod):
            return HAbs(term.binder, dom, _read_at(term.body, cod))
        case Forall(binder, body_ty):
            inner_ty = subst_type(body_ty, binder, TyVar(term.binder))
            return HTyAbs(term.binder, _read_at(term.body, inner_ty))
    head, elims = spine(term)
    if isinstance(head, Var):
        if elims:
            raise UnexpectedHead(f"variable-headed spine: {head.name}")
        return HVar(head.name, expected)
    if head.name in _HILBERT_CONSTANTS:
        # at an arrow or a quantified type, a choice term takes further arguments
        if len(elims) != 2:
            raise NotNormal(f"{head.name} must be type-instantiated and applied once")
        ty_arg, scope = elims
        return Hilbert(_HILBERT_CONSTANTS[head.name], scope.binder, ty_arg, _read_formula(scope.body))
    return ConstApp(head.name, head.declared_type, *_read_const_args(head.declared_type, elims))


def _read_at(term: Term, expected: Type) -> Union[HolTerm, Formula]:
    if expected == PROP:
        return _read_formula(term)
    return _read_holterm(term, expected)


# ---------------------------------------------------------------------------
# Read-back (the inverse of extraction)


def formula_to_term(f: Union[Formula, HolTerm], sig: Signature) -> Term:
    match f:
        case Atom(pred, pred_type, ty_args, args):
            return apps(Const(pred, pred_type), *ty_args,
                        *[formula_to_term(a, sig) for a in args])
        case Conn(conn, args):
            head = sig.const(_CONN_NAMES[conn])
            return apps(head, *[formula_to_term(a, sig) for a in args])
        case Quant(kind, var, sort_type, body):
            head = sig.const(_QUANT_NAMES[kind])
            return App(TyApp(head, sort_type),
                       Lam(var, sort_type, formula_to_term(body, sig)))
        case HVar(name, _):
            return Var(name)
        case ConstApp(const, const_type, ty_args, args):
            return apps(Const(const, const_type), *ty_args,
                        *[formula_to_term(a, sig) for a in args])
        case Hilbert(kind, var, sort_type, body):
            head = sig.const(_HILBERT_NAMES[kind])
            return App(TyApp(head, sort_type),
                       Lam(var, sort_type, formula_to_term(body, sig)))
        case HAbs(var, var_type, body):
            return Lam(var, var_type, formula_to_term(body, sig))
        case HTyAbs(var, body):
            return TyLam(var, formula_to_term(body, sig))
        case Embed(formula):
            return formula_to_term(formula, sig)
    raise TypeError(f"not a Formula or HolTerm: {f!r}")


# ---------------------------------------------------------------------------
# Classification


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


def _entity_sorts_in(ty: Type, acc: set[Sort]) -> None:
    match ty:
        case Base(sort):
            if sort.kind == "entity":
                acc.add(sort)
        case TyVar():
            pass
        case Arrow(dom, cod):
            _entity_sorts_in(dom, acc)
            _entity_sorts_in(cod, acc)
        case Forall(_, body):
            _entity_sorts_in(body, acc)
        case SetOf(elem):
            _entity_sorts_in(elem, acc)


def classify(f: Union[Formula, HolTerm]) -> LogicProfile:
    """Order is the maximum order of any quantified or Hilbert-bound type
    (1 for quantifier-free formulas); sorts counts the distinct entity sorts
    occurring anywhere in the formula."""
    orders: list[int] = [1]
    sorts: set[Sort] = set()

    def walk(node):
        match node:
            case Atom(_, pred_type, ty_args, args) | ConstApp(_, pred_type, ty_args, args):
                _entity_sorts_in(pred_type, sorts)
                for t in ty_args:
                    _entity_sorts_in(t, sorts)
                for a in args:
                    walk(a)
            case Conn(_, args):
                for a in args:
                    walk(a)
            case Quant(_, _, sort_type, body) | Hilbert(_, _, sort_type, body):
                orders.append(type_order(sort_type))
                _entity_sorts_in(sort_type, sorts)
                walk(body)
            case HVar(_, var_type):
                _entity_sorts_in(var_type, sorts)
            case HAbs(_, var_type, body):
                _entity_sorts_in(var_type, sorts)
                walk(body)
            case HTyAbs(_, body):
                walk(body)
            case Embed(formula):
                walk(formula)
            case _:
                raise TypeError(f"not a Formula or HolTerm: {node!r}")

    walk(f)
    return LogicProfile(order=max(orders), sorts=len(sorts))


# ---------------------------------------------------------------------------
# Printing


SEXPR = "sexpr"
UNICODE = "unicode"


def print_formula(f: Union[Formula, HolTerm], style: str = SEXPR) -> str:
    if style == SEXPR:
        return _print_sexpr(f)
    if style == UNICODE:
        return _print_unicode(f, top=True)
    raise ValueError(f"unknown style {style!r}")


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


def _sort_label(ty: Type) -> str:
    if isinstance(ty, Base):
        return "t" if ty.sort.kind == "prop" else ty.sort.name
    return print_type(ty)


def _print_unicode(f, top: bool = False) -> str:
    match f:
        case Atom(pred, _, _, args) | ConstApp(pred, _, _, args):
            if not args:
                return pred
            return f"{pred}({', '.join(_print_unicode(a) for a in args)})"
        case Conn("not", (arg,)):
            return f"¬{_print_unicode(arg)}"
        case Conn(conn, (left, right)):
            symbol = {"and": "∧", "implies": "⊃"}[conn]
            body = f"{_print_unicode(left)} {symbol} {_print_unicode(right)}"
            return body if top else f"({body})"
        case Quant(kind, var, sort_type, body):
            symbol = "∀" if kind == FORALL else "∃"
            return f"{symbol}{var}:{_sort_label(sort_type)}. {_print_unicode(body, top=True)}"
        case Hilbert(kind, var, sort_type, body):
            symbol = "ε" if kind == EPSILON else "τ"
            return f"{symbol}{var}:{_sort_label(sort_type)}. {_print_unicode(body, top=True)}"
        case HVar(name, _):
            return name
        case HAbs(var, var_type, body):
            return f"λ{var}:{_sort_label(var_type)}. {_print_unicode(body, top=True)}"
        case HTyAbs(var, body):
            return f"Λ{var}. {_print_unicode(body, top=True)}"
        case Embed(formula):
            return _print_unicode(formula)
    raise TypeError(f"not a Formula or HolTerm: {f!r}")


# ---------------------------------------------------------------------------
# The formula reader (sexpr style round-trips through it)


_BINDER_TAGS = {"forall": FORALL, "exists": EXISTS, "eps": EPSILON, "tau": TAU}


def parse_formula(text: str, sig: Signature) -> Formula:
    node = parse_sexpr(text)
    out = _formula_from_sexpr(node, sig, {})
    if not isinstance(out, Formula):
        raise ParseError("expected a formula, read a term")
    return out


def _formula_from_sexpr(node: _SexprNode, sig: Signature, env: dict[str, Type]):
    if node.atom is not None:
        name = node.atom
        if name in env:
            return HVar(name, env[name])
        if sig.has_constant(name):
            ty = sig.constant_type(name)
            if ty == PROP:
                return Atom(name, ty, (), ())
            return ConstApp(name, ty, (), ())
        raise ParseError(f"unknown identifier {name!r}", node.line, node.col)
    items = node.items
    if not items or items[0].atom is None:
        raise ParseError("expected a formula form", node.line, node.col)
    head = items[0].atom
    if head in ("and", "implies"):
        if len(items) != 3:
            raise ParseError(f"({head} F F) expected", node.line, node.col)
        return Conn(head, (_as_formula(items[1], sig, env), _as_formula(items[2], sig, env)))
    if head == "not":
        if len(items) != 2:
            raise ParseError("(not F) expected", node.line, node.col)
        return Conn("not", (_as_formula(items[1], sig, env),))
    if head in _BINDER_TAGS or head == "lam":
        if (len(items) != 3 or items[1].items is None or len(items[1].items) != 2
                or items[1].items[0].atom is None):
            raise ParseError(f"({head} (x TYPE) F) expected", node.line, node.col)
        var = items[1].items[0].atom
        var_type = _type_from_sexpr(items[1].items[1], None)
        inner = dict(env)
        inner[var] = var_type
        if head == "lam":
            return HAbs(var, var_type, _formula_from_sexpr(items[2], sig, inner))
        body = _as_formula(items[2], sig, inner)
        kind = _BINDER_TAGS[head]
        if kind in (FORALL, EXISTS):
            return Quant(kind, var, var_type, body)
        return Hilbert(kind, var, var_type, body)
    if head == "tlam":
        if len(items) != 3 or items[1].atom is None:
            raise ParseError("(tlam v F) expected", node.line, node.col)
        return HTyAbs(items[1].atom, _formula_from_sexpr(items[2], sig, env))
    # an application headed by a constant: predicate atom or function term
    if not sig.has_constant(head):
        raise ParseError(f"unknown predicate or function {head!r}", node.line, node.col)
    declared = sig.constant_type(head)
    ty_args: list[Type] = []
    cur = declared
    rest = items[1:]
    i = 0
    while isinstance(cur, Forall) and i < len(rest):
        t = _type_from_sexpr(rest[i], None)
        ty_args.append(t)
        cur = subst_type(cur.body, cur.binder, t)
        i += 1
    args = []
    for item in rest[i:]:
        if not isinstance(cur, Arrow):
            raise ParseError(f"too many arguments to {head}", node.line, node.col)
        args.append(_formula_from_sexpr(item, sig, env))
        cur = cur.codomain
    if cur == PROP:
        return Atom(head, declared, tuple(ty_args), tuple(args))
    return ConstApp(head, declared, tuple(ty_args), tuple(args))


def _as_formula(node, sig, env) -> Formula:
    out = _formula_from_sexpr(node, sig, env)
    if not isinstance(out, Formula):
        raise ParseError("expected a formula", node.line, node.col)
    return out
