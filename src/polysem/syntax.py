"""Type and term languages of the polymorphic glue logic.

Types are built from one proposition sort `t`, a family of entity sorts
`e:name`, type variables, arrows and universal quantification.  Terms are
Church-style: every binder is annotated, every constant carries its declared
type.  Equality on both syntactic families is alpha-equivalence; binder names
are presentation only.

The concrete grammar is fully parenthesized s-expressions:

    types   t | e:IDENT | IDENT (tyvar) | (-> T T) | (all v T) | (set T)
    terms   IDENT | (lam (v T) M) | (app M N) | (tlam v M) | (tapp M T)

Application nodes are strictly binary.  `(set T)` is only produced by the
finite-set extension.

Space, tab, CR and LF separate tokens, `(` and `)` are tokens of their own,
and every other run of characters (form feed, non-ASCII) is an atom; `#`
comments exist only in lexicon and tree files.  A malformed text raises
ParseError (`LINE:COL: message`), and so does one nesting over MAX_NESTING:
each grammar's one token walker walks a refused text again to place it."""

from __future__ import annotations

import re
from dataclasses import FrozenInstanceError, dataclass, field
from operator import itemgetter
from typing import Mapping, Optional, Union

from .errors import (
    IllFormedType,
    ParseError,
    UnknownConstant,
    UnknownSort,
)

# ---------------------------------------------------------------------------
# Value classes: frozen, with ==, hash and repr that recurse into no part


def _frozen(self, name, *value):
    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def node_class(cls):
    """`cls` rebuilt with its annotated fields in slots, which the constructor
    fills in order through their descriptors, and a `__dict__` for the facts
    stored on the node."""
    fields = tuple(cls.__annotations__)
    attrs = {k: v for k, v in cls.__dict__.items() if k not in ("__dict__", "__weakref__")}
    new = type(cls)(cls.__name__, cls.__bases__,
                    {**attrs, "__match_args__": fields, "__slots__": fields + ("__dict__", "__weakref__")})
    namespace = {f"_{f}": getattr(new, f).__set__ for f in fields}
    exec(f"def __init__(self, {', '.join(fields)}):" + "".join(f"\n _{f}(self, {f})" for f in fields), namespace)
    new.__init__ = namespace["__init__"]
    return new


def _flat_parts(value) -> list:
    """The strings and other objects that `value`'s `_parts()` give, each part
    that has `_parts` replaced by its own, in order, without recursion."""
    out, todo = [], [value]
    while todo:
        item = todo.pop()
        if hasattr(item, "_parts"):
            todo += reversed(item._parts())
        else:
            out.append(item)
    return out


class Value:
    """A frozen value whose ==, hash and repr go by its flat parts, so that they
    hold at any depth the reader admits.  Type and Term keep their own == and hash."""

    __slots__ = ()
    __setattr__ = __delattr__ = _frozen

    def __eq__(self, other):
        return _flat_parts(self) == _flat_parts(other) if isinstance(other, Value) else NotImplemented

    def __hash__(self):
        return hash(tuple(_flat_parts(self)))

    def __repr__(self):
        return "".join(p if isinstance(p, str) else repr(p) for p in _flat_parts(self))

    def __reduce__(self):  # copy and pickle build the value from its fields, without stored facts
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)


# ---------------------------------------------------------------------------
# Sorts


class Sort(tuple):
    """A base sort, the tuple (kind, name): the proposition sort or a named entity
    sort.  It equals, hashes, unpacks and orders as that tuple."""

    __slots__ = ()
    __match_args__ = ("kind", "name")
    kind = property(itemgetter(0))  # "prop" | "entity"
    name = property(itemgetter(1))
    __setattr__ = __delattr__ = _frozen

    def __new__(cls, kind: str, name: str = ""):
        if kind not in ("prop", "entity"):
            raise ValueError(f"bad sort kind {kind!r}")
        if (kind == "prop") == bool(name):  # only an entity sort has a name
            raise ValueError("the proposition sort is unnamed" if name else "entity sorts must be named")
        return tuple.__new__(cls, (kind, name))

    def __str__(self) -> str:
        return "t" if self.kind == "prop" else f"e:{self.name}"

    def __repr__(self) -> str:
        return f"Sort(kind={self.kind!r}, name={self.name!r})"

    def __getnewargs__(self):  # copy and pickle call Sort(kind, name)
        return tuple(self)


PROP_SORT = Sort("prop")


def entity_sort(name: str) -> Sort:
    return Sort("entity", name)


# ---------------------------------------------------------------------------
# Types


class Type(Value):
    """Base class of the type language.  Equality is alpha-equivalence.  A node
    stores its key, the key's hash and its free type variables on first use."""

    __slots__ = ()
    _key = _hash = _ftv = None

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Type):
            return NotImplemented
        if self.__class__ is not other.__class__:
            return False
        if self.__class__ is Base:  # leaves compare their field, building no key
            return self.sort == other.sort
        if self.__class__ is TyVar:
            return self.name == other.name
        return canon_type(self) == canon_type(other)

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(canon_type(self)))
        return self._hash

    def __str__(self) -> str:
        return print_type(self)


@node_class
class Base(Type):
    sort: Sort
    _ftv = frozenset()

    def _parts(self):
        return (f"Base({self.sort})",)


@node_class
class TyVar(Type):
    name: str

    def _parts(self):
        return (f"TyVar({self.name})",)


@node_class
class Arrow(Type):
    domain: Type
    codomain: Type

    def _parts(self):
        return "Arrow(", self.domain, ", ", self.codomain, ")"


@node_class
class Forall(Type):
    binder: str
    body: Type

    def _parts(self):
        return f"Forall({self.binder}, ", self.body, ")"


@node_class
class SetOf(Type):
    """Finite-set type former; a structural node so that type substitution
    can rewrite under it (a reserved base-sort family could not)."""

    elem: Type

    def _parts(self):
        return "SetOf(", self.elem, ")"


PROP = Base(PROP_SORT)


def etype(name: str) -> Type:
    return Base(entity_sort(name))


def arrows(*types: Type) -> Type:
    """Right-fold arrow: arrows(A, B, C) = A -> (B -> C)."""
    out = types[-1]
    for ty in reversed(types[:-1]):
        out = Arrow(ty, out)
    return out


# ---------------------------------------------------------------------------
# Terms


class Term(Value):
    """Base class of the term language.  Equality is alpha-equivalence.  A node
    stores its key, the key's hash and its free term and type variables on
    first use."""

    __slots__ = ()
    _key = _hash = _fv = _ftv = None
    _consts = None  # the names of the constants in a term parse_term returns

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Term):
            return NotImplemented
        return self.__class__ is other.__class__ and canon_term(self) == canon_term(other)

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(canon_term(self)))
        return self._hash

    def __str__(self) -> str:
        return print_term(self)


@node_class
class Var(Term):
    name: str
    _ftv = frozenset()

    def _parts(self):
        return (f"Var({self.name})",)


@node_class
class Const(Term):
    name: str
    declared_type: Type
    _fv = frozenset()

    def _parts(self):
        return (f"Const({self.name})",)


@node_class
class Lam(Term):
    binder: str
    binder_type: Type
    body: Term

    def _parts(self):
        return f"Lam({self.binder}:{self.binder_type}, ", self.body, ")"


@node_class
class App(Term):
    fn: Term
    arg: Term

    def _parts(self):
        return "App(", self.fn, ", ", self.arg, ")"


@node_class
class TyLam(Term):
    binder: str
    body: Term

    def _parts(self):
        return f"TyLam({self.binder}, ", self.body, ")"


@node_class
class TyApp(Term):
    fn: Term
    ty_arg: Type

    def _parts(self):
        return "TyApp(", self.fn, f", {self.ty_arg})"


def apps(head: Term, *args) -> Term:
    """Left-fold applications; Type arguments become type applications."""
    out = head
    for a in args:
        out = TyApp(out, a) if isinstance(a, Type) else App(out, a)
    return out


def spine(term: Term) -> tuple[Term, list[Union[Term, Type]]]:
    """Decompose nested applications into (head, eliminations)."""
    head, nodes = spine_nodes(term)
    return head, [n.arg if isinstance(n, App) else n.ty_arg for n in nodes]


def spine_nodes(term: Term) -> tuple[Term, list[Union[App, TyApp]]]:
    """(head, nodes), the i-th node applying the head to i + 1 eliminations."""
    nodes = []
    while isinstance(term, (App, TyApp)):
        nodes.append(term)
        term = term.fn
    nodes.reverse()
    return term, nodes


# ---------------------------------------------------------------------------
# Canonical (de Bruijn) keys: the carrier of alpha-equivalence and hashing
#
# A bound variable's index counts the binders between it and its own, so a
# part whose free variables `env` does not bind has the key it has on its
# own.  That key is built once and stored on the node, and only the parts
# that mention a name bound outside them are built again.


def canon_type(ty: Type, env: Mapping[str, int] = {}, depth: int = 0):
    shared = not env or free_tyvars(ty).isdisjoint(env)
    if shared and ty._key is not None:
        return ty._key
    match ty:
        case Base(sort):
            key = ("b", sort.kind, sort.name)
        case TyVar(name):
            key = ("i", depth - env[name]) if name in env else ("f", name)
        case Arrow(dom, cod):
            key = ("->", canon_type(dom, env, depth), canon_type(cod, env, depth))
        case Forall(binder, body):
            key = ("all", canon_type(body, {**env, binder: depth}, depth + 1))
        case SetOf(elem):
            key = ("set", canon_type(elem, env, depth))
        case _:
            raise TypeError(f"not a Type: {ty!r}")
    if shared:
        object.__setattr__(ty, "_key", key)
    return key


def canon_term(term: Term, tenv: Mapping[str, int] = {}, tyenv: Mapping[str, int] = {}, depth: int = 0):
    shared = ((not tenv or free_vars(term).isdisjoint(tenv))
              and (not tyenv or free_tyvars_in_term(term).isdisjoint(tyenv)))
    if shared and term._key is not None:
        return term._key
    match term:
        case Var(name):
            key = ("i", depth - tenv[name]) if name in tenv else ("fv", name)
        case Const(name, declared):
            key = ("c", name, canon_type(declared, tyenv, depth))
        case Lam(binder, binder_type, body):
            key = ("lam", canon_type(binder_type, tyenv, depth),
                   canon_term(body, {**tenv, binder: depth}, tyenv, depth + 1))
        case App(fn, arg):
            key = ("app", canon_term(fn, tenv, tyenv, depth), canon_term(arg, tenv, tyenv, depth))
        case TyLam(binder, body):
            key = ("tlam", canon_term(body, tenv, {**tyenv, binder: depth}, depth + 1))
        case TyApp(fn, ty_arg):
            key = ("tapp", canon_term(fn, tenv, tyenv, depth), canon_type(ty_arg, tyenv, depth))
        case _:
            raise TypeError(f"not a Term: {term!r}")
    if shared:
        object.__setattr__(term, "_key", key)
    return key


def alpha_eq(a, b) -> bool:
    """Alpha-equivalence, over both Terms and Types."""
    return isinstance(a, (Type, Term)) and a == b


# ---------------------------------------------------------------------------
# Free variables and well-formedness


def free_tyvars(ty: Type) -> frozenset[str]:
    if ty._ftv is None:
        match ty:
            case TyVar(name):
                out = frozenset((name,))
            case Arrow(dom, cod):
                out = free_tyvars(dom) | free_tyvars(cod)
            case Forall(binder, body):
                out = free_tyvars(body) - {binder}
            case SetOf(elem):
                out = free_tyvars(elem)
            case _:
                raise TypeError(f"not a Type: {ty!r}")
        object.__setattr__(ty, "_ftv", out)
    return ty._ftv


def free_vars(term: Term) -> frozenset[str]:
    if term._fv is None:
        match term:
            case Var(name):
                out = frozenset((name,))
            case Lam(binder, _, body):
                out = free_vars(body) - {binder}
            case App(fn, arg):
                out = free_vars(fn) | free_vars(arg)
            case TyLam(_, inner) | TyApp(inner, _):
                out = free_vars(inner)
            case _:
                raise TypeError(f"not a Term: {term!r}")
        object.__setattr__(term, "_fv", out)
    return term._fv


def free_tyvars_in_term(term: Term) -> frozenset[str]:
    if term._ftv is None:
        match term:
            case Const(_, declared):
                out = free_tyvars(declared)
            case Lam(_, binder_type, body):
                out = free_tyvars(binder_type) | free_tyvars_in_term(body)
            case App(fn, arg):
                out = free_tyvars_in_term(fn) | free_tyvars_in_term(arg)
            case TyLam(binder, body):
                out = free_tyvars_in_term(body) - {binder}
            case TyApp(fn, ty_arg):
                out = free_tyvars_in_term(fn) | free_tyvars(ty_arg)
            case _:
                raise TypeError(f"not a Term: {term!r}")
        object.__setattr__(term, "_ftv", out)
    return term._ftv


def check_wf_type(ty: Type, sorts: frozenset[Sort], tyvars: frozenset[str] = frozenset(), path: tuple = ()) -> None:
    """Raise IllFormedType unless `ty` only mentions declared sorts and
    bound/context type variables."""
    match ty:
        case Base(sort):
            if sort.kind == "entity" and sort not in sorts:
                raise IllFormedType(f"undeclared sort {sort}", path)
        case TyVar(name):
            if name not in tyvars:
                raise IllFormedType(f"unbound type variable {name}", path)
        case Arrow(dom, cod):
            check_wf_type(dom, sorts, tyvars, path + ("domain",))
            check_wf_type(cod, sorts, tyvars, path + ("codomain",))
        case Forall(binder, body):
            check_wf_type(body, sorts, tyvars | {binder}, path + ("body",))
        case SetOf(elem):
            check_wf_type(elem, sorts, tyvars, path + ("elem",))
        case _:
            raise TypeError(f"not a Type: {ty!r}")


def fresh_name(base: str, avoid) -> str:
    """A name not in `avoid`, derived from `base` by priming."""
    if base not in avoid:
        return base
    stem = base.split("'", 1)[0] or "x"
    k = 1
    while f"{stem}'{k}" in avoid:
        k += 1
    return f"{stem}'{k}"


# ---------------------------------------------------------------------------
# Signature


@dataclass(frozen=True)
class Signature:
    """Declared sorts plus typed constants.

    `definitions` holds transparently definable constants (expanded before
    composition; the kernel itself treats all constants as opaque).  `rules`
    holds recursor reduction rules registered by the inductive extensions.
    """

    sorts: frozenset[Sort] = frozenset((PROP_SORT,))
    constants: dict[str, Type] = field(default_factory=dict)
    definitions: dict[str, Term] = field(default_factory=dict)
    rules: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "sorts", frozenset(self.sorts) | {PROP_SORT})
        # The first rule per (recursor, constructor), and per recursor the
        # (type arguments, arguments) that all of its rules take alike.
        object.__setattr__(self, "rule_table", {(r.recursor_head, r.constructor): r for r in reversed(self.rules)})
        object.__setattr__(self, "recursor_shapes", {r.recursor_head: (r.n_ty_args, r.n_ty_args + r.n_args)
                                                     for r in self.rules})

    def has_constant(self, name: str) -> bool:
        return name in self.constants

    def constant_type(self, name: str) -> Type:
        try:
            return self.constants[name]
        except KeyError:
            raise UnknownConstant(f"unknown constant {name!r}") from None

    def const(self, name: str) -> Const:
        return Const(name, self.constant_type(name))

    def extend(self, sorts=(), constants: Optional[Mapping[str, Type]] = None,
               definitions: Optional[Mapping[str, Term]] = None, rules=()) -> "Signature":
        return Signature(sorts=self.sorts | frozenset(sorts), constants={**self.constants, **(constants or {})},
                         definitions={**self.definitions, **(definitions or {})}, rules=self.rules + tuple(rules))

    def entity_sorts(self) -> list[Sort]:
        return sorted((s for s in self.sorts if s.kind == "entity"), key=lambda s: s.name)


# ---------------------------------------------------------------------------
# The reader.  In a located walk a part's error waits for the check of each list around it, and a list
# that fails its own check raises its error instead, so the first error top-down is raised.

MAX_NESTING = 900  # lists open at once; leaves the recursive walks room under Python's default limit

SPACE = " \t\r\n"  # the reader's whitespace; line-oriented files break lines at "\n" alone
ATOM = re.compile(f"[^(){SPACE}]+")
_TOKEN = re.compile(f"\n|[()]|{ATOM.pattern}")
_FAST_TOKEN = re.compile(f"[()]|{ATOM.pattern}")


class Token(str):
    """A token at its 1-based `line` and `col`; a '(' also holds `n`, the number of items of its list."""

    n = 0


def located_tokens(text: str) -> list[Token]:
    """The tokens of `text` with their places.  Raises ParseError for trailing input, nesting deeper than
    MAX_NESTING or an unexpected ')', met left to right, then for an unclosed '(' or empty input."""
    tokens, stack, line, line_start = [], [], 1, 0
    for m in _TOKEN.finditer(text):
        tok = Token(m.group())
        if tok == "\n":
            line, line_start = line + 1, m.end()
            continue
        tok.line, tok.col = line, m.start() - line_start + 1
        if tokens and not stack:
            raise ParseError(f"trailing input {tok!r}", tok.line, tok.col)
        if stack and tok != ")":
            stack[-1].n += 1
        if tok == "(":
            if len(stack) == MAX_NESTING:
                raise ParseError(f"nesting deeper than {MAX_NESTING}", tok.line, tok.col)
            stack.append(tok)
        elif tok == ")":
            if not stack:
                raise ParseError("unexpected ')'", tok.line, tok.col)
            stack.pop()
        tokens.append(tok)
    if stack:
        raise ParseError("unclosed '('", stack[-1].line, stack[-1].col)
    if not tokens:
        raise ParseError("empty input")
    return tokens


def refuse(tok: str, message: str, cls=ParseError) -> Exception:
    """The error of a check failing at `tok`: `cls(message)` if located, else StopIteration, as at the end."""
    return cls(message, tok.line, tok.col) if type(tok) is Token else StopIteration()


def form_error(tok: str, head: str, messages: dict) -> Exception:
    """The error of list `tok` headed by `head` failing its form's check; `messages` has one per head, "(", None."""
    return refuse(tok, messages.get("(" if head in "()" else head, messages[None]).format(head))


def read_text(text: str, read, *context):
    """What walker `read(tok, nxt, depth, *context)`, building the node at `tok` from later tokens `nxt()` inside
    `depth` lists, builds from `text`: from its bare tokens, or if a check fails (refuse), its located tokens."""
    tokens = iter(_FAST_TOKEN.findall(text))
    try:
        node = read(next(tokens), tokens.__next__, 0, *context)
        if next(tokens, None) is None:
            return node
    except StopIteration:
        pass
    tokens = iter(located_tokens(text))
    return read(next(tokens), tokens.__next__, 0, *context)


_TYPE_FORMS = {"->": "(-> T T) takes exactly two types", "all": "(all v T) takes a variable and a type",
               "set": "(set T) takes exactly one type", "(": "expected a type form", None: "unknown type form {!r}"}


def type_from_tokens(tok: str, nxt, depth: int, sorts) -> Type:
    if tok == "(" and depth < MAX_NESTING:
        head, depth = nxt(), depth + 1
        try:
            if head == "->":
                ty = Arrow(type_from_tokens(nxt(), nxt, depth, sorts), type_from_tokens(nxt(), nxt, depth, sorts))
            elif head == "all" and (binder := nxt()) not in "()":
                ty = Forall(binder, type_from_tokens(nxt(), nxt, depth, sorts))
            elif head == "set":
                ty = SetOf(type_from_tokens(nxt(), nxt, depth, sorts))
            else:
                raise form_error(tok, head, _TYPE_FORMS)
            if nxt() == ")":
                return ty
        except ParseError as e:  # located: a part's error stands if this list has its form's items
            raise e if tok.n == (2 if head == "set" else 3) else form_error(tok, head, _TYPE_FORMS)
        raise form_error(tok, head, _TYPE_FORMS)
    elif tok == "t":
        return PROP
    elif tok.startswith("e:"):
        sort = len(tok) > 2 and entity_sort(tok[2:])
        if sort and (sorts is None or sort in sorts):
            return Base(sort)
        raise refuse(tok, f"undeclared sort {tok}", UnknownSort) if sort else refuse(tok, "empty entity sort name")
    elif tok not in "()":
        return TyVar(tok)
    raise refuse(tok, "expected a type")  # where a list lacks an item: its own check fails


def parse_type(text: str, known_sorts=None) -> Type:
    """Parse a type.  When `known_sorts` (a collection of Sort) is given,
    undeclared entity sorts raise UnknownSort."""
    return read_text(text, type_from_tokens, known_sorts)


_TERM_FORMS = {"lam": "(lam (v T) M) expected", "app": "(app M N) is strictly binary", "tlam": "(tlam v M) expected",
               "tapp": "(tapp M T) expected", "(": "expected a term form", None: "unknown term form {!r}"}


def term_from_tokens(tok: str, nxt, depth: int, sig: Signature, bound: frozenset[str], allow_free: bool,
                     consts: dict[str, Const]) -> Term:
    if tok == "(" and depth < MAX_NESTING:
        head, depth = nxt(), depth + 1
        try:
            if head == "app":
                term = App(term_from_tokens(nxt(), nxt, depth, sig, bound, allow_free, consts),
                           term_from_tokens(nxt(), nxt, depth, sig, bound, allow_free, consts))
            elif head == "lam" and (pair := nxt()) == "(" and depth < MAX_NESTING and (binder := nxt()) not in "()":
                ty = type_from_tokens(nxt(), nxt, depth + 1, None)
                if nxt() != ")":
                    raise form_error(tok, head, _TERM_FORMS)
                term = Lam(binder, ty, term_from_tokens(nxt(), nxt, depth, sig, bound | {binder}, allow_free, consts))
            elif head == "tlam" and (binder := nxt()) not in "()":
                term = TyLam(binder, term_from_tokens(nxt(), nxt, depth, sig, bound, allow_free, consts))
            elif head == "tapp":
                term = TyApp(term_from_tokens(nxt(), nxt, depth, sig, bound, allow_free, consts),
                             type_from_tokens(nxt(), nxt, depth, None))
            else:
                raise form_error(tok, head, _TERM_FORMS)
            if nxt() == ")":
                return term
        except ParseError as e:  # located: a part's error stands if this list has its form's items
            raise e if tok.n == 3 and (head != "lam" or pair.n == 2) else form_error(tok, head, _TERM_FORMS)
        raise form_error(tok, head, _TERM_FORMS)
    elif tok in bound:  # no binder is a parenthesis
        return Var(tok)
    elif (const := consts.get(tok)) is not None or tok in sig.constants and tok not in "()":
        return const or consts.setdefault(tok, Const(tok, sig.constants[tok]))
    elif allow_free and tok not in "()":
        return Var(tok)
    raise refuse(tok, f"unknown constant {tok!r}", UnknownConstant)  # at a parenthesis, its list's check fails


def parse_term(text: str, sig: Signature, allow_free: bool = True) -> Term:
    """Parse a term against `sig`.  Identifiers resolve first to enclosing
    binders, then to signature constants; anything else is a free variable
    unless `allow_free` is false, in which case it raises UnknownConstant.
    Every occurrence of one constant in the text is one Const node, and the
    term remembers the names of its constants."""
    consts: dict[str, Const] = {}
    term = read_text(text, term_from_tokens, sig, frozenset(), allow_free, consts)
    object.__setattr__(term, "_consts", frozenset(consts))
    return term


# ---------------------------------------------------------------------------
# Printing (inverse of parsing, up to alpha-equivalence)


def print_type(ty: Type) -> str:
    match ty:
        case Base(sort):
            return str(sort)
        case TyVar(name):
            return name
        case Arrow(dom, cod):
            return f"(-> {print_type(dom)} {print_type(cod)})"
        case Forall(binder, body):
            return f"(all {binder} {print_type(body)})"
        case SetOf(elem):
            return f"(set {print_type(elem)})"
    raise TypeError(f"not a Type: {ty!r}")


def print_term(term: Term) -> str:
    match term:
        case Var(name):
            return name
        case Const(name, _):
            return name
        case Lam(binder, binder_type, body):
            return f"(lam ({binder} {print_type(binder_type)}) {print_term(body)})"
        case App(fn, arg):
            return f"(app {print_term(fn)} {print_term(arg)})"
        case TyLam(binder, body):
            return f"(tlam {binder} {print_term(body)})"
        case TyApp(fn, ty_arg):
            return f"(tapp {print_term(fn)} {print_type(ty_arg)})"
    raise TypeError(f"not a Term: {term!r}")
