"""The readers that the token walkers of src/ replaced, kept as the oracles
of the differential tests in test_reader.py and test_one_pass.py.

parse_sexpr_by_characters is the s-expression reader as it stood before the
single-pass rewrite: a per-character tokenizer and a reader that recurses
once per nesting level.  parse_sexpr (one loop over the tokens, with an
explicit stack) and the grammar walkers over its nodes, type_from_sexpr,
_term_from_sexpr, _tree_from_sexpr and _formula_from_sexpr, are the
two-pass reader as it stood before each grammar got one token walker that
also raises the located error: kept verbatim.  parse_type, parse_term,
parse_tree and parse_formula read a whole text with them.
"""

import re
from dataclasses import dataclass

from polysem.composer import Leaf, Node, ParseTree, TyAnno
from polysem.errors import ParseError, UnknownConstant, UnknownSort
from polysem.hol import (
    EPSILON,
    EXISTS,
    FORALL,
    TAU,
    Atom,
    Conn,
    ConstApp,
    Formula,
    HAbs,
    Hilbert,
    HTyAbs,
    HVar,
    Quant,
)
from polysem.kernel import subst_type
from polysem.syntax import (
    ATOM,
    MAX_NESTING,
    PROP,
    App,
    Arrow,
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
    entity_sort,
    etype,
)


# ---------------------------------------------------------------------------
# The per-character reader


@dataclass(frozen=True)
class _Token:
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
        elif c in " \t\r":
            col += 1
            i += 1
        elif c in "()":
            tokens.append(_Token(c, line, col))
            col += 1
            i += 1
        else:
            start = i
            start_col = col
            while i < n and text[i] not in "() \t\r\n":
                i += 1
                col += 1
            tokens.append(_Token(text[start:i], line, start_col))
    return tokens


class _SexprNode:
    __slots__ = ("items", "atom", "line", "col")

    def __init__(self, items=None, atom=None, line=0, col=0):
        self.items = items
        self.atom = atom
        self.line = line
        self.col = col


def _read_sexpr(tokens: list[_Token], pos: int) -> tuple[_SexprNode, int]:
    if pos >= len(tokens):
        raise ParseError("unexpected end of input")
    tok = tokens[pos]
    if tok.text == ")":
        raise ParseError("unexpected ')'", tok.line, tok.col)
    if tok.text == "(":
        items = []
        pos += 1
        while True:
            if pos >= len(tokens):
                raise ParseError("unclosed '('", tok.line, tok.col)
            if tokens[pos].text == ")":
                return _SexprNode(items=items, line=tok.line, col=tok.col), pos + 1
            node, pos = _read_sexpr(tokens, pos)
            items.append(node)
    return _SexprNode(atom=tok.text, line=tok.line, col=tok.col), pos + 1


def parse_sexpr_by_characters(text: str) -> _SexprNode:
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty input")
    node, pos = _read_sexpr(tokens, 0)
    if pos != len(tokens):
        t = tokens[pos]
        raise ParseError(f"trailing input {t.text!r}", t.line, t.col)
    return node


# ---------------------------------------------------------------------------
# The two-pass reader

_TOKEN = re.compile(f"\n|[()]|{ATOM.pattern}")


class SexprNode:
    """An atom (`items` is None) or a list (`atom` is None), at 1-based line and column."""

    __slots__ = ("items", "atom", "line", "col")

    def __init__(self, items, atom, line, col):
        self.items, self.atom, self.line, self.col = items, atom, line, col


def parse_sexpr(text: str) -> SexprNode:
    """Read exactly one s-expression: one loop over the tokens, with an
    explicit stack of the lists still open."""
    stack: list[SexprNode] = []
    root = None
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        tok = m.group()
        if tok == "\n":
            line += 1
            line_start = m.end()
            continue
        col = m.start() - line_start + 1
        if root is not None:
            raise ParseError(f"trailing input {tok!r}", line, col)
        if tok == "(":
            if len(stack) == MAX_NESTING:
                raise ParseError(f"nesting deeper than {MAX_NESTING}", line, col)
            stack.append(SexprNode([], None, line, col))
            continue
        if tok == ")":
            if not stack:
                raise ParseError("unexpected ')'", line, col)
            node = stack.pop()
        else:
            node = SexprNode(None, tok, line, col)
        if stack:
            stack[-1].items.append(node)
        else:
            root = node
    if stack:
        raise ParseError("unclosed '('", stack[-1].line, stack[-1].col)
    if root is None:
        raise ParseError("empty input")
    return root


def type_from_sexpr(node: SexprNode, known_sorts) -> Type:
    if node.atom is not None:
        a = node.atom
        if a == "t":
            return PROP
        if a.startswith("e:"):
            name = a[2:]
            if not name:
                raise ParseError("empty entity sort name", node.line, node.col)
            if known_sorts is not None and entity_sort(name) not in known_sorts:
                raise UnknownSort(f"undeclared sort e:{name}", node.line, node.col)
            return etype(name)
        return TyVar(a)
    items = node.items
    if not items or items[0].atom is None:
        raise ParseError("expected a type form", node.line, node.col)
    head = items[0].atom
    if head == "->":
        if len(items) != 3:
            raise ParseError("(-> T T) takes exactly two types", node.line, node.col)
        return Arrow(type_from_sexpr(items[1], known_sorts), type_from_sexpr(items[2], known_sorts))
    if head == "all":
        if len(items) != 3 or items[1].atom is None:
            raise ParseError("(all v T) takes a variable and a type", node.line, node.col)
        return Forall(items[1].atom, type_from_sexpr(items[2], known_sorts))
    if head == "set":
        if len(items) != 2:
            raise ParseError("(set T) takes exactly one type", node.line, node.col)
        return SetOf(type_from_sexpr(items[1], known_sorts))
    raise ParseError(f"unknown type form {head!r}", node.line, node.col)


def _term_from_sexpr(node: SexprNode, sig: Signature, bound: frozenset[str], allow_free: bool,
                     consts: dict[str, Const]) -> Term:
    if node.atom is not None:
        name = node.atom
        if name in bound:
            return Var(name)
        if sig.has_constant(name):
            return consts.setdefault(name, Const(name, sig.constants[name]))
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
                   _term_from_sexpr(items[2], sig, bound | {binder}, allow_free, consts))
    if head == "app":
        if len(items) != 3:
            raise ParseError("(app M N) is strictly binary", node.line, node.col)
        return App(_term_from_sexpr(items[1], sig, bound, allow_free, consts),
                   _term_from_sexpr(items[2], sig, bound, allow_free, consts))
    if head == "tlam":
        if len(items) != 3 or items[1].atom is None:
            raise ParseError("(tlam v M) expected", node.line, node.col)
        return TyLam(items[1].atom, _term_from_sexpr(items[2], sig, bound, allow_free, consts))
    if head == "tapp":
        if len(items) != 3:
            raise ParseError("(tapp M T) expected", node.line, node.col)
        return TyApp(_term_from_sexpr(items[1], sig, bound, allow_free, consts), type_from_sexpr(items[2], None))
    raise ParseError(f"unknown term form {head!r}", node.line, node.col)


def _tree_from_sexpr(node: SexprNode) -> ParseTree:
    if node.items is None or not node.items or node.items[0].atom is None:
        raise ParseError("expected (LEAF word) | (NODE fn arg) | (TY tree TYPE...)",
                         node.line, node.col)
    head = node.items[0].atom
    if head == "LEAF":
        if len(node.items) != 2 or node.items[1].atom is None:
            raise ParseError("(LEAF word) expected", node.line, node.col)
        return Leaf(node.items[1].atom)
    if head == "NODE":
        if len(node.items) != 3:
            raise ParseError("(NODE fnTree argTree) expected", node.line, node.col)
        return Node(_tree_from_sexpr(node.items[1]), _tree_from_sexpr(node.items[2]))
    if head == "TY":
        if len(node.items) < 3:
            raise ParseError("(TY tree TYPE...) expected", node.line, node.col)
        sub = _tree_from_sexpr(node.items[1])
        tys = tuple(type_from_sexpr(item, None) for item in node.items[2:])
        return TyAnno(sub, tys)
    raise ParseError(f"unknown tree form {head!r}", node.line, node.col)


_BINDER_TAGS = {"forall": FORALL, "exists": EXISTS, "eps": EPSILON, "tau": TAU}


def parse_formula(text: str, sig: Signature) -> Formula:
    node = parse_sexpr(text)
    out = _formula_from_sexpr(node, sig, {})
    if not isinstance(out, Formula):
        raise ParseError("expected a formula, read a term")
    return out


def _formula_from_sexpr(node: SexprNode, sig: Signature, env: dict[str, Type]):
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
        return Conn(head, (_as_formula(items[1], _formula_from_sexpr(items[1], sig, env)),
                           _as_formula(items[2], _formula_from_sexpr(items[2], sig, env))))
    if head == "not":
        if len(items) != 2:
            raise ParseError("(not F) expected", node.line, node.col)
        return Conn("not", (_as_formula(items[1], _formula_from_sexpr(items[1], sig, env)),))
    if head in _BINDER_TAGS or head == "lam":
        if (len(items) != 3 or items[1].items is None or len(items[1].items) != 2
                or items[1].items[0].atom is None):
            raise ParseError(f"({head} (x TYPE) F) expected", node.line, node.col)
        var = items[1].items[0].atom
        var_type = type_from_sexpr(items[1].items[1], None)
        inner = dict(env)
        inner[var] = var_type
        if head == "lam":
            return HAbs(var, var_type, _formula_from_sexpr(items[2], sig, inner))
        body = _as_formula(items[2], _formula_from_sexpr(items[2], sig, inner))
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
        t = type_from_sexpr(rest[i], None)
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


def _as_formula(node: SexprNode, out) -> Formula:
    """`out`, read from `node`, checked to be a formula: checked after the
    read, so that each level of nesting takes one Python frame."""
    if not isinstance(out, Formula):
        raise ParseError("expected a formula", node.line, node.col)
    return out


def parse_type(text: str, known_sorts=None) -> Type:
    return type_from_sexpr(parse_sexpr(text), known_sorts)


def parse_term(text: str, sig: Signature, allow_free: bool = True) -> Term:
    return _term_from_sexpr(parse_sexpr(text), sig, frozenset(), allow_free, {})


def parse_tree(text: str) -> ParseTree:
    return _tree_from_sexpr(parse_sexpr(text))
