"""Reading eta-long beta-normal terms of the proposition type as formulas of
many-sorted higher-order logic, and classifying them by quantification order
and sort count.

Such a term is a canonical form, read in kernel.canonical's pass.  A spine
of type t must be headed by a signature constant: a connective, a typed
quantifier or a predicate.  A spine of another type may be a bare variable,
a Hilbert choice term or a function constant applied to its arguments.  A
variable-headed spine applied to arguments, such as a predicate variable
bound by a quantifier over (-> e:dog t), has no formula yet and is refused
with UnexpectedHead; a lexicon entry can produce one.  The pass keeps the
reading of a first-order spine on its node, so a coercion chain shared by
many lifts is read once, and the printed text and the profile stored on its
reading are read, not rebuilt.  parse_formula reads the s-expression style
back with one token walker (syntax.read_text); as extraction does, it embeds
a formula that is an argument of type t."""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Union

from .errors import (
    ExtractError,
    NotNormal,
    NotPropType,
    ParseError,
    TypeCheckError,
    UnexpectedHead,
)
from .kernel import (
    NormalForm,
    canonical,
    is_beta_normal,
    subst_type,
    typecheck,
)
from .syntax import (
    PROP,
    App,
    Arrow,
    Base,
    Const,
    Forall,
    Lam,
    MAX_NESTING,
    SetOf,
    Signature,
    Sort,
    Term,
    TyApp,
    TyLam,
    TyVar,
    Type,
    Value,
    Var,
    apps,
    free_vars,
    form_error,
    node_class,
    print_type,
    read_text,
    refuse,
    type_from_tokens,
)

AND, NOT, IMPLIES = "and", "not", "implies"
FORALL, EXISTS = "forall", "exists"
EPSILON, TAU = "epsilon", "tau"

_CONN_CONSTANTS = {"∧": AND, "¬": NOT, "⊃": IMPLIES}
_QUANT_CONSTANTS = {"∀": FORALL, "∃": EXISTS}
_HILBERT_CONSTANTS = {"ε": EPSILON, "τ": TAU}
_CONN_NAMES = {v: k for k, v in _CONN_CONSTANTS.items()}
_BINDER_NAMES = {v: k for k, v in {**_QUANT_CONSTANTS, **_HILBERT_CONSTANTS}.items()}


# ---------------------------------------------------------------------------
# Formula and term ASTs


class _Node(Value):
    """A formula or HOL term node, with a frozen dataclass's ==, hash and repr: types compare up to α."""

    __slots__ = ()
    _sexpr = _profile = None  # the facts the printer and classify store on a node

    def _parts(self):
        out = []
        for name in self.__match_args__:
            value = getattr(self, name)
            out.append(f"{', ' if out else type(self).__name__ + '('}{name}=")
            if name == "args":  # nodes, spelt out as their tuple's repr
                out += [part for i, arg in enumerate(value) for part in (", " if i else "(", arg)] or ["("]
                out.append(",)" if len(value) == 1 else ")")
            elif isinstance(value, (_Node, tuple)):  # a tuple holds type arguments
                out.append(value)
            else:
                out.append(_Shown((value,)) if isinstance(value, Type) else repr(value))
        return out + [")"]


class _Shown(tuple):  # a type in a tuple, shown as the type
    __slots__ = ()

    def __repr__(self):
        return repr(self[0])


class Formula(_Node):
    __slots__ = ()


class HolTerm(_Node):
    __slots__ = ()


@node_class
class Atom(Formula):
    pred: str
    pred_type: Type
    ty_args: tuple[Type, ...]
    args: tuple[HolTerm, ...]


@node_class
class Conn(Formula):
    conn: str  # and | not | implies
    args: tuple[Formula, ...]


@node_class
class Quant(Formula):
    kind: str  # forall | exists
    var: str
    sort_type: Type
    body: Formula


@node_class
class HVar(HolTerm):
    name: str
    var_type: Type


@node_class
class ConstApp(HolTerm):
    const: str
    const_type: Type
    ty_args: tuple[Type, ...]
    args: tuple[HolTerm, ...]


@node_class
class Hilbert(HolTerm):
    kind: str  # epsilon | tau
    var: str
    sort_type: Type
    body: Formula


@node_class
class HAbs(HolTerm):
    var: str
    var_type: Type
    body: Union[HolTerm, Formula]


@node_class
class HTyAbs(HolTerm):
    var: str
    body: Union[HolTerm, Formula]


@node_class
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
    reading is invertible (see formula_to_term).  The reading is made in
    kernel.canonical's pass over the term, which reuses the reading kept on
    a closed or first-order subterm read before, under any binder, so that
    formulas share such parts.  Only a term that pass refuses
    goes through the checks one at a time, so that the first failing one
    names the error: closed, typed, of type t, beta-normal, eta-long, and
    last the reader's own refusals."""
    term = m.term if isinstance(m, NormalForm) else m
    try:
        # after eta_expand the type is remembered on the node
        ty = typecheck(term, sig)
        if _is_prop(ty):
            return canonical(term, ty, sig, read=_READER)
    except (TypeCheckError, ExtractError):
        pass
    if free_vars(term):
        raise NotNormal(f"term is not closed: free {sorted(free_vars(term))}")
    ty = typecheck(term, sig)
    if not _is_prop(ty):
        raise NotPropType(f"term has type {print_type(ty)}, not t")
    if not is_beta_normal(term, sig):
        raise NotNormal("term is not beta-normal")
    try:
        canonical(term, ty, sig)
    except NotNormal:
        raise NotNormal("term is not eta-long") from None
    return canonical(term, ty, sig, read=_READER)


def _is_prop(ty: Type) -> bool:
    return isinstance(ty, Base) and ty.sort.kind == "prop"


def _read_abstraction(term: Term, ty: Type, body) -> HolTerm:
    return HAbs(term.binder, ty.domain, body) if isinstance(term, Lam) else HTyAbs(term.binder, body)


def _refuse_head(head: Term, ty: Type, n: int) -> None:
    """The reader's own refusals, met at a spine before its n arguments."""
    if isinstance(head, Var):
        if n or _is_prop(ty):
            raise UnexpectedHead(f"variable-headed spine: {head.name}")
    elif head.name in _HILBERT_CONSTANTS and n != 2 and not _is_prop(ty):
        # at an arrow or a quantified type, a choice term takes further arguments
        raise NotNormal(f"{head.name} must be type-instantiated and applied once")


def _read_spine(head: Term, ty: Type, ty_args: list, args: list) -> Union[Formula, HolTerm]:
    """A formula at type t, a term elsewhere."""
    if isinstance(head, Var):
        return HVar(head.name, ty)
    prop = _is_prop(ty)
    if prop and head.name in _CONN_CONSTANTS:
        return Conn(_CONN_CONSTANTS[head.name], tuple(args))
    binders = _QUANT_CONSTANTS if prop else _HILBERT_CONSTANTS
    if head.name in binders:
        [sort_type], [scope] = ty_args, args
        return (Quant if prop else Hilbert)(binders[head.name], scope.var, sort_type, scope.body)
    args = tuple(Embed(a) if isinstance(a, Formula) else a for a in args)
    return (Atom if prop else ConstApp)(head.name, head.declared_type, tuple(ty_args), args)


_READER = SimpleNamespace(abstraction=_read_abstraction, head=_refuse_head, spine=_read_spine)


# ---------------------------------------------------------------------------
# Read-back (the inverse of extraction)


def formula_to_term(f: Union[Formula, HolTerm], sig: Signature) -> Term:
    match f:
        case Atom(name, ty, ty_args, args) | ConstApp(name, ty, ty_args, args):
            out = apps(Const(name, ty), *ty_args)
        case Conn(conn, args):
            out = sig.const(_CONN_NAMES[conn])
        case Quant(kind, var, sort_type, body) | Hilbert(kind, var, sort_type, body):
            return App(TyApp(sig.const(_BINDER_NAMES[kind]), sort_type),
                       Lam(var, sort_type, formula_to_term(body, sig)))
        case HVar(name, _):
            return Var(name)
        case HAbs(var, var_type, body):
            return Lam(var, var_type, formula_to_term(body, sig))
        case HTyAbs(var, body):
            return TyLam(var, formula_to_term(body, sig))
        case Embed(formula):
            return formula_to_term(formula, sig)
        case _:
            raise TypeError(f"not a Formula or HolTerm: {f!r}")
    for arg in args:  # a call from a loop takes one frame a level on every Python version
        out = App(out, formula_to_term(arg, sig))
    return out


# ---------------------------------------------------------------------------
# Classification


def type_order(ty: Type) -> int:
    """Base sorts are order 1; an arrow adds one on the left."""
    match ty:
        case Base() | TyVar():
            return 1
        case Arrow(dom, cod):
            return max(type_order(dom) + 1, type_order(cod))
        case Forall(_, inner) | SetOf(inner):
            return type_order(inner)
    raise TypeError(f"not a Type: {ty!r}")


def _entity_sorts(ty: Type) -> frozenset[Sort]:
    """The entity sorts of `ty`, stored on it: the formula nodes of a tree's readings share their types."""
    if (out := getattr(ty, "_sorts", None)) is None:
        sorts, todo = set(), [ty]
        while todo:
            match todo.pop():
                case Arrow(dom, cod):
                    todo += (dom, cod)
                case Forall(_, inner) | SetOf(inner):
                    todo.append(inner)
                case Base(sort) if sort.kind == "entity":
                    sorts.add(sort)
        object.__setattr__(ty, "_sorts", out := frozenset(sorts))
    return out


def classify(f: Union[Formula, HolTerm]) -> LogicProfile:
    """Order is the maximum order of any quantified or Hilbert-bound type
    (1 for quantifier-free formulas); sorts counts the distinct entity sorts
    occurring anywhere in the formula."""
    order, sorts = _profile(f)
    return LogicProfile(order=order, sorts=len(sorts))


def _profile(node) -> tuple[int, set[Sort]]:
    """The order and the entity sorts of `node`, stored on it: a tree's readings share subformulas."""
    if (out := node._profile) is not None:
        return out
    order = 1
    match node:
        case Atom(_, pred_type, ty_args, args) | ConstApp(_, pred_type, ty_args, args):
            types, parts = (pred_type, *ty_args), args
        case Conn(_, args):
            types, parts = (), args
        case Quant(_, _, sort_type, body) | Hilbert(_, _, sort_type, body):
            types, parts, order = (sort_type,), (body,), type_order(sort_type)
        case HVar(_, var_type):
            types, parts = (var_type,), ()
        case HAbs(_, var_type, body):
            types, parts = (var_type,), (body,)
        case HTyAbs(_, body) | Embed(body):
            types, parts = (), (body,)
        case _:
            raise TypeError(f"not a Formula or HolTerm: {node!r}")
    sorts = set()
    for p in parts:
        o, s = _profile(p)
        order = max(order, o)
        sorts |= s
    for t in types:
        sorts |= _entity_sorts(t)
    object.__setattr__(node, "_profile", (order, sorts))
    return order, sorts


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
    """The s-expression of `f`, stored on it: a tree's readings share subformulas."""
    if (out := f._sexpr) is not None:
        return out
    match f:
        case Atom(pred, _, ty_args, args) | ConstApp(pred, _, ty_args, args):
            parts = [pred, *map(print_type, ty_args)]
            for arg in args:  # a call from a loop takes one frame a level on every Python version
                parts.append(_print_sexpr(arg))
            out = parts[0] if len(parts) == 1 else "(" + " ".join(parts) + ")"
        case Conn(conn, (arg,)):
            out = f"({conn} {_print_sexpr(arg)})"
        case Conn(conn, (left, right)):
            out = f"({conn} {_print_sexpr(left)} {_print_sexpr(right)})"
        case Quant(kind, var, sort_type, body) | Hilbert(kind, var, sort_type, body):
            tag = "eps" if kind == EPSILON else kind
            out = f"({tag} ({var} {print_type(sort_type)}) {_print_sexpr(body)})"
        case HVar(name, _):
            out = name
        case HAbs(var, var_type, body):
            out = f"(lam ({var} {print_type(var_type)}) {_print_sexpr(body)})"
        case HTyAbs(var, body):
            out = f"(tlam {var} {_print_sexpr(body)})"
        case Embed(formula):
            out = _print_sexpr(formula)
        case _:
            raise TypeError(f"not a Formula or HolTerm: {f!r}")
    object.__setattr__(f, "_sexpr", out)
    return out


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


_BINDER_TAGS = {"forall": FORALL, "exists": EXISTS, "eps": EPSILON, "tau": TAU, "lam": None}
_FORMULA_FORMS = {"and": "({} F F) expected", "implies": "({} F F) expected", "not": "(not F) expected",
                  **dict.fromkeys(_BINDER_TAGS, "({} (x TYPE) F) expected"), "tlam": "(tlam v F) expected",
                  "(": "expected a formula form", None: "unknown predicate or function {!r}"}


def parse_formula(text: str, sig: Signature) -> Formula:
    out = read_text(text, _formula_from_tokens, sig, {})
    if not isinstance(out, Formula):
        raise ParseError("expected a formula, read a term")
    return out


def _formula_from_tokens(tok: str, nxt, depth: int, sig: Signature, env: dict[str, Type]):
    """The token walker of a formula or HOL term (syntax.read_text)."""
    if tok == "(" and depth < MAX_NESTING:
        head, depth = nxt(), depth + 1
        try:
            if head == "and" or head == "implies" or head == "not":
                args = (_formula_at(t := nxt(), _formula_from_tokens(t, nxt, depth, sig, env)),)
                if head != "not":
                    args += (_formula_at(t := nxt(), _formula_from_tokens(t, nxt, depth, sig, env)),)
                f = Conn(head, args)
            elif head in _BINDER_TAGS and (pair := nxt()) == "(" and depth < MAX_NESTING and (var := nxt()) not in "()":
                var_type = type_from_tokens(nxt(), nxt, depth + 1, None)
                if nxt() != ")":
                    raise form_error(tok, head, _FORMULA_FORMS)
                body = _formula_from_tokens(t := nxt(), nxt, depth, sig, {**env, var: var_type})
                f = HAbs(var, var_type, body) if head == "lam" else (Quant if head in (FORALL, EXISTS) else Hilbert)(
                    _BINDER_TAGS[head], var, var_type, _formula_at(t, body))
            elif head == "tlam" and (var := nxt()) not in "()":
                f = HTyAbs(var, _formula_from_tokens(nxt(), nxt, depth, sig, env))
            elif head not in _FORMULA_FORMS and head not in "()" and head in sig.constants:  # atom or function term
                declared = cur = sig.constants[head]
                ty_args, args = [], []
                while (t := nxt()) != ")":
                    if isinstance(cur, Forall) and not args:
                        ty_args.append(type_from_tokens(t, nxt, depth, None))
                        cur = subst_type(cur.body, cur.binder, ty_args[-1])
                    elif isinstance(cur, Arrow):  # a formula argument is embedded, as _read_spine does
                        args.append(a if isinstance(a := _formula_from_tokens(t, nxt, depth, sig, env), HolTerm)
                                    else Embed(a))
                        cur = cur.codomain
                    else:
                        raise refuse(tok, f"too many arguments to {head}")
                return (Atom if cur == PROP else ConstApp)(head, declared, tuple(ty_args), tuple(args))
            else:
                raise form_error(tok, head, _FORMULA_FORMS)
            if nxt() == ")":
                return f
        except ParseError as e:  # located: a part's error stands if this list has its form's items
            raise e if head not in _FORMULA_FORMS or tok.n == (2 if head == "not" else 3) and (
                head not in _BINDER_TAGS or pair.n == 2) else form_error(tok, head, _FORMULA_FORMS)
        raise form_error(tok, head, _FORMULA_FORMS)
    elif tok in env:
        return HVar(tok, env[tok])
    elif tok in sig.constants and tok not in "()":
        ty = sig.constants[tok]
        return (Atom if ty == PROP else ConstApp)(tok, ty, (), ())
    raise refuse(tok, f"unknown identifier {tok!r}")  # at a parenthesis, its list's check fails


def _formula_at(tok: str, out) -> Formula:
    """`out`, read at `tok`, checked to be a formula after the read: a level of nesting takes one frame."""
    if isinstance(out, Formula):
        return out
    raise refuse(tok, "expected a formula")
