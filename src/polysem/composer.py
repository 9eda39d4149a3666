"""Composition: from a binary parse tree over lexicon words to well-typed
closed terms, inserting coercions and meaning transfers as needed.

Each internal node applies the function subtree to the argument subtree.
Leading type quantifiers of the function are instantiated by first-order
matching of its domain against the argument's type (binders the match does
not determine are re-abstracted outside).  When direct application fails the
search may adapt the argument with a graph coercion or with one of the
argument word's transfers, or adapt the function with one of its own word's
transfers; one adaptation per application edge.

After an argument of type X is consumed, any leading result arrows of shape
(X -> Y) -> ... are adaptor slots for that same argument occurrence (the way
the polymorphic conjunction exposes its two view slots); they are saturated
with the identity, a graph coercion or a transfer, each choice a branch, and
the branch dies when a slot cannot be filled.

Rigidity is enforced per word occurrence: once a rigid transfer is used for
an occurrence, no other adaptation (not even the plain main reading) of the
same occurrence is allowed in that analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

from .coercion import coerce_app, coercion_targets, find_coercion
from .errors import ParseError
from .kernel import (
    match_type,
    normalize,
    subst_type,
    typecheck,
)
from .lexicon import FLEXIBLE, RIGID, Lexicon, TransferTerm
from .syntax import (
    App,
    Arrow,
    Forall,
    Lam,
    Term,
    TyApp,
    TyLam,
    TyVar,
    Type,
    Var,
    canon_term,
    free_tyvars,
    free_tyvars_in_term,
    fresh_name,
    parse_sexpr,
    print_type,
    _SexprNode,
    _type_from_sexpr,
)

MAIN = "MAIN"


# ---------------------------------------------------------------------------
# Parse trees


@dataclass(frozen=True)
class Leaf:
    word: str


@dataclass(frozen=True)
class Node:
    fn: "ParseTree"
    arg: "ParseTree"


@dataclass(frozen=True)
class TyAnno:
    sub: "ParseTree"
    ty_args: tuple[Type, ...]


ParseTree = Union[Leaf, Node, TyAnno]


def _tree_from_sexpr(node: _SexprNode) -> ParseTree:
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
        tys = tuple(_type_from_sexpr(item, None) for item in node.items[2:])
        return TyAnno(sub, tys)
    raise ParseError(f"unknown tree form {head!r}", node.line, node.col)


def parse_tree(text: str) -> ParseTree:
    return _tree_from_sexpr(parse_sexpr(text))


def parse_trees(text: str) -> list[ParseTree]:
    """One tree per non-empty, non-comment line."""
    out = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            out.append(parse_tree(line))
    return out


def tree_words(tree: ParseTree) -> list[str]:
    match tree:
        case Leaf(word):
            return [word]
        case Node(fn, arg):
            return tree_words(fn) + tree_words(arg)
        case TyAnno(sub, _):
            return tree_words(sub)
    raise TypeError(f"not a ParseTree: {tree!r}")


# ---------------------------------------------------------------------------
# Occurrences and adaptation bookkeeping


@dataclass(frozen=True)
class Occurrence:
    """A specific position in the tree; `word` is None for composite
    subtrees that get adapted as a whole."""

    path: tuple[int, ...]
    word: Optional[str]

    def __str__(self) -> str:
        where = ".".join(map(str, self.path)) if self.path else "root"
        return f"{self.word or '<phrase>'}@{where}"


class Use(NamedTuple):
    label: str
    rigidity: Optional[str]  # None for MAIN, else RIGID | FLEXIBLE
    kind: str  # "main" | "graph" | "transfer"


UsageMap = dict[Occurrence, tuple[Use, ...]]


@dataclass(frozen=True)
class RigidityViolation:
    occurrence: Occurrence


def check_rigidity(used: UsageMap):
    """None when every occurrence's adaptation set is licit: only the plain
    main reading, exactly one rigid label, or any mix of flexible
    adaptations with the main reading."""
    for occ, uses in used.items():
        rigid_labels = {u.label for u in uses if u.rigidity == RIGID}
        if not rigid_labels:
            continue
        labels = {u.label for u in uses}
        if len(rigid_labels) > 1 or labels != rigid_labels:
            return RigidityViolation(occ)
    return None


# ---------------------------------------------------------------------------
# Analyses and diagnostics


@dataclass(frozen=True)
class Analysis:
    term: Term
    normal_term: Term
    result_type: Type
    used_transfers: dict[Occurrence, tuple[Use, ...]]
    inserted_coercions: tuple[tuple[Occurrence, Term], ...]

    def labels(self) -> dict[str, tuple[str, ...]]:
        return {str(occ): tuple(u.label for u in uses)
                for occ, uses in self.used_transfers.items()}


@dataclass(frozen=True)
class Failure:
    path: tuple[int, ...]
    kind: str  # "NoPath" | "RigidityViolation" | "NotFunction"
    from_type: Optional[Type] = None
    to_type: Optional[Type] = None
    occurrence: Optional[Occurrence] = None

    def describe(self) -> str:
        where = ".".join(map(str, self.path)) if self.path else "root"
        if self.kind == "RigidityViolation":
            return f"RigidityViolation({self.occurrence}) at {where}"
        if self.kind == "NotFunction":
            return f"NotFunction({print_type(self.from_type)}) at {where}"
        return (f"NoPath({print_type(self.from_type)}, {print_type(self.to_type)})"
                f" at {where}")


@dataclass(frozen=True)
class DiagnoseReport:
    failures: tuple[Failure, ...]

    @property
    def empty(self) -> bool:
        return not self.failures

    @property
    def deepest(self) -> Optional[Failure]:
        if not self.failures:
            return None
        return max(self.failures, key=lambda f: len(f.path))

    def describe(self) -> str:
        d = self.deepest
        return "" if d is None else d.describe()


# ---------------------------------------------------------------------------
# The search


@dataclass
class _Cand:
    term: Term
    ty: Type
    uses: UsageMap
    coercions: tuple[tuple[Occurrence, Term], ...]
    head: Optional[Occurrence]  # the leaf occurrence when the subtree is one word


class _Adaptation(NamedTuple):
    use: Optional[Use]  # None for the unadapted main reading of a phrase
    adapted_type: Type
    wrapper: Optional[Term]  # coercion/transfer term, None for identity


def _merge_uses(left: UsageMap, right: UsageMap) -> UsageMap:
    out = dict(left)
    for occ, uses in right.items():
        out[occ] = out.get(occ, ()) + uses
    return out


def _add_use(uses: UsageMap, occ: Occurrence, use: Use) -> UsageMap:
    out = dict(uses)
    out[occ] = out.get(occ, ()) + (use,)
    return out


class _Search:
    def __init__(self, lex: Lexicon):
        self.lex = lex
        self.sig = lex.signature
        self.graph = lex.coercions
        self.failures: list[Failure] = []

    # -- adaptations of an argument candidate ------------------------------

    def arg_adaptations(self, arg: _Cand) -> list[_Adaptation]:
        # plain consumption is not an adaptation and records nothing;
        # the identity only counts as a MAIN use when it fills a view slot
        out = [_Adaptation(None, arg.ty, None)]
        for co, target in coercion_targets(self.graph, arg.ty):
            label = f"graph:{print_type(arg.ty)}->{print_type(target)}"
            out.append(_Adaptation(Use(label, FLEXIBLE, "graph"), target, co))
        if arg.head is not None and arg.head.word is not None:
            for tr in self._transfers_ordered(arg.head.word):
                tr_ty = typecheck(tr.term, self.sig)
                if isinstance(tr_ty, Arrow) and tr_ty.domain == arg.ty:
                    out.append(_Adaptation(Use(tr.label, tr.rigidity, "transfer"),
                                           tr_ty.codomain, tr.term))
        return out

    def _transfers_ordered(self, word: str) -> list[TransferTerm]:
        transfers = self.lex.entries[word].transfers
        return [t for t in transfers if t.rigidity == FLEXIBLE] + \
               [t for t in transfers if t.rigidity == RIGID]

    # -- slot filling -------------------------------------------------------

    def slot_fills(self, slot: Arrow, arg: _Cand) -> list[tuple[Use, Term]]:
        a, b = slot.domain, slot.codomain
        fills: list[tuple[Use, Term]] = []
        if a == b:
            fills.append((Use(MAIN, None, "main"), Lam("x", a, Var("x"))))
        else:
            co = find_coercion(self.graph, self.sig, a, b)
            if co is not None:
                label = f"graph:{print_type(a)}->{print_type(b)}"
                fills.append((Use(label, FLEXIBLE, "graph"), co))
        if arg.head is not None and arg.head.word is not None:
            for tr in self._transfers_ordered(arg.head.word):
                tr_ty = typecheck(tr.term, self.sig)
                if tr_ty == slot:
                    fills.append((Use(tr.label, tr.rigidity, "transfer"), tr.term))
        return fills

    def fill_slots(self, term: Term, ty: Type, arg: _Cand, consumed_ty: Type,
                   node_path: tuple[int, ...]) -> list[tuple[Term, Type, UsageMap, tuple]]:
        """Saturate leading adaptor slots.  A slot is a leading result arrow
        whose domain expects a view of the just-consumed argument (it maps
        from the type the argument was consumed at); every slot must be
        filled, each possible fill being a branch."""
        if not (isinstance(ty, Arrow) and isinstance(ty.domain, Arrow)
                and ty.domain.domain == consumed_ty):
            return [(term, ty, {}, ())]
        slot = ty.domain
        fills = self.slot_fills(slot, arg)
        if not fills:
            self.failures.append(Failure(node_path, "NoPath", slot.domain, slot.codomain))
            return []
        occ = arg.head or Occurrence(node_path + (1,), None)
        out = []
        for use, fill_term in fills:
            filled = App(term, fill_term)
            for rterm, rty, ruses, rcos in self.fill_slots(filled, ty.codomain, arg,
                                                           consumed_ty, node_path):
                uses = _add_use(ruses, occ, use)
                cos = (((occ, fill_term),) if use.kind != "main" else ()) + rcos
                out.append((rterm, rty, uses, cos))
        return out

    # -- one application edge ----------------------------------------------

    def apply_node(self, fn: _Cand, arg: _Cand, node_path: tuple[int, ...]) -> list[_Cand]:
        out: list[_Cand] = []
        out.extend(self._apply_variants(fn, arg, node_path, allow_arg_adapt=True))
        # function-side: the function word's own transfers
        if fn.head is not None and fn.head.word is not None:
            for tr in self._transfers_ordered(fn.head.word):
                tr_ty = typecheck(tr.term, self.sig)
                if not (isinstance(tr_ty, Arrow) and tr_ty.domain == fn.ty):
                    continue
                shifted = _Cand(
                    term=coerce_app(tr.term, fn.term),
                    ty=tr_ty.codomain,
                    uses=_add_use(fn.uses, fn.head, Use(tr.label, tr.rigidity, "transfer")),
                    coercions=fn.coercions + ((fn.head, tr.term),),
                    head=fn.head,
                )
                out.extend(self._apply_variants(shifted, arg, node_path, allow_arg_adapt=False))
        return out

    def _apply_variants(self, fn: _Cand, arg: _Cand, node_path: tuple[int, ...],
                        allow_arg_adapt: bool) -> list[_Cand]:
        binders, dom, cod = _peel(fn.ty)
        if dom is None:
            self.failures.append(Failure(node_path, "NotFunction", fn.ty, None))
            return []
        adaptations = self.arg_adaptations(arg) if allow_arg_adapt else \
            [_Adaptation(None, arg.ty, None)]
        matched_any = False
        out: list[_Cand] = []
        for adapt in adaptations:
            theta = match_type(dom, adapt.adapted_type, frozenset(binders))
            if theta is None:
                continue
            matched_any = True
            arg_term = arg.term if adapt.wrapper is None else coerce_app(adapt.wrapper, arg.term)
            term, ty = _instantiate(fn.term, binders, theta, dom, cod, arg_term,
                                    adapt.adapted_type)
            occ = arg.head or Occurrence(node_path + (1,), None)
            uses = _merge_uses(fn.uses, arg.uses)
            if adapt.use is not None:
                uses = _add_use(uses, occ, adapt.use)
            coercions = fn.coercions + arg.coercions
            if adapt.wrapper is not None:
                coercions = coercions + ((occ, adapt.wrapper),)
            for f_term, f_ty, f_uses, f_cos in self.fill_slots(term, ty, arg,
                                                               adapt.adapted_type, node_path):
                all_uses = _merge_uses(uses, f_uses)
                violation = check_rigidity(all_uses)
                if violation is not None:
                    self.failures.append(Failure(node_path, "RigidityViolation",
                                                 occurrence=violation.occurrence))
                    continue
                out.append(_Cand(f_term, f_ty, all_uses, coercions + f_cos, head=None))
        if not matched_any:
            self.failures.append(Failure(node_path, "NoPath", arg.ty, dom))
        return out

    # -- tree walk ----------------------------------------------------------

    def candidates(self, tree: ParseTree, path: tuple[int, ...] = ()) -> list[_Cand]:
        match tree:
            case Leaf(word):
                entry = self.lex.entry(word)
                ty = typecheck(entry.main_term, self.sig)
                return [_Cand(entry.main_term, ty, {}, (), Occurrence(path, word))]
            case Node(fn, arg):
                fns = self.candidates(fn, path + (0,))
                args = self.candidates(arg, path + (1,))
                out = []
                for fc in fns:
                    for ac in args:
                        out.extend(self.apply_node(fc, ac, path))
                return out
            case TyAnno(sub, ty_args):
                out = []
                for cand in self.candidates(sub, path + (0,)):
                    term, ty = cand.term, cand.ty
                    ok = True
                    for t in ty_args:
                        if not isinstance(ty, Forall):
                            self.failures.append(Failure(path, "NotFunction", ty, None))
                            ok = False
                            break
                        term = TyApp(term, t)
                        ty = subst_type(ty.body, ty.binder, t)
                    if ok:
                        out.append(_Cand(term, ty, cand.uses, cand.coercions, cand.head))
                return out
        raise TypeError(f"not a ParseTree: {tree!r}")


def _peel(ty: Type) -> tuple[list[str], Optional[Type], Optional[Type]]:
    """Strip leading quantifiers (freshened to unique names) down to the
    first arrow; (binders, domain, codomain), domain None when not an arrow."""
    binders: list[str] = []
    seen: set[str] = set(free_tyvars(ty))
    while isinstance(ty, Forall):
        binder, body = ty.binder, ty.body
        if binder in binders:
            fresh = fresh_name(binder, seen | set(binders))
            body = subst_type(body, binder, TyVar(fresh))
            binder = fresh
        binders.append(binder)
        ty = body
    if isinstance(ty, Arrow):
        return binders, ty.domain, ty.codomain
    return binders, None, None


def _instantiate(fn_term: Term, binders: list[str], theta: dict[str, Type],
                 dom: Type, cod: Type, arg_term: Term, arg_ty: Type) -> tuple[Term, Type]:
    """Apply fn to arg under the matched instantiation; binders the match did
    not determine are re-abstracted outside the application."""
    avoid = set(free_tyvars_in_term(fn_term)) | set(free_tyvars_in_term(arg_term)) | set(binders)
    term = fn_term
    residuals: list[str] = []
    full: dict[str, Type] = {}
    for b in binders:
        if b in theta:
            term = TyApp(term, theta[b])
            full[b] = theta[b]
        else:
            fresh = fresh_name(b, avoid)
            avoid.add(fresh)
            residuals.append(fresh)
            term = TyApp(term, TyVar(fresh))
            full[b] = TyVar(fresh)
    term = App(term, arg_term)
    result_ty = cod
    for b, t in full.items():
        result_ty = subst_type(result_ty, b, t)
    for r in reversed(residuals):
        term = TyLam(r, term)
        result_ty = Forall(r, result_ty)
    return term, result_ty


# ---------------------------------------------------------------------------
# Public operations


DEFAULT_LIMIT = 16


def compose(tree: ParseTree, lex: Lexicon, limit: int = DEFAULT_LIMIT) -> list[Analysis]:
    """Up to `limit` analyses, deterministic order, distinct up to
    alpha-equivalence of their normal forms.  Unknown words raise; any other
    failure yields the empty list (see diagnose)."""
    analyses, _ = _compose_with_failures(tree, lex, limit)
    return analyses


def _compose_with_failures(tree: ParseTree, lex: Lexicon, limit: int
                           ) -> tuple[list[Analysis], list[Failure]]:
    if limit < 1:
        raise ValueError("limit must be >= 1")
    search = _Search(lex)
    cands = search.candidates(tree)
    analyses: list[Analysis] = []
    seen = set()
    for cand in cands:
        ty = typecheck(cand.term, lex.signature)
        assert ty == cand.ty, "composed term type drifted from the search's bookkeeping"
        nf = normalize(cand.term, lex.signature)
        key = canon_term(nf.term)
        if key in seen:
            continue
        seen.add(key)
        analyses.append(Analysis(
            term=cand.term,
            normal_term=nf.term,
            result_type=ty,
            used_transfers=dict(cand.uses),
            inserted_coercions=cand.coercions,
        ))
        if len(analyses) >= limit:
            break
    return analyses, search.failures


def apply_node(fn_term: Term, arg_term: Term, lex: Lexicon,
               fn_word: Optional[str] = None, arg_word: Optional[str] = None
               ) -> list[tuple[Term, dict]]:
    """Apply one closed well-typed term to another, enumerating successful
    adapted applications; each result is (term, adaptation record)."""
    search = _Search(lex)
    sig = lex.signature
    fn = _Cand(fn_term, typecheck(fn_term, sig), {}, (),
               Occurrence((0,), fn_word) if fn_word else None)
    arg = _Cand(arg_term, typecheck(arg_term, sig), {}, (),
                Occurrence((1,), arg_word) if arg_word else None)
    out = []
    for cand in search.apply_node(fn, arg, ()):
        record = {str(occ): tuple(u.label for u in uses) for occ, uses in cand.uses.items()}
        out.append((cand.term, record))
    return out


def diagnose(tree: ParseTree, lex: Lexicon) -> DiagnoseReport:
    """Empty when the tree composes; otherwise the recorded failures, of
    which `deepest` is the most useful one."""
    analyses, failures = _compose_with_failures(tree, lex, DEFAULT_LIMIT)
    if analyses:
        return DiagnoseReport(())
    return DiagnoseReport(tuple(failures))
