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
from typing import Iterator, NamedTuple, Optional, Union

from .coercion import coerce_app, coercion_targets, coercion_to, find_coercion
from .errors import IllFormedType, ParseError, TypeMismatch
from .kernel import (
    inherit_type,
    match_type,
    normalize,
    subst_type,
    typecheck,
    typed_apply,
)
from .lexicon import FLEXIBLE, RIGID, Lexicon
from .syntax import (
    Arrow,
    Forall,
    Lam,
    MAX_NESTING,
    SPACE,
    Term,
    TyVar,
    Type,
    Value,
    Var,
    canon_term,
    check_wf_type,
    free_tyvars,
    form_error,
    fresh_name,
    print_type,
    read_text,
    refuse,
    type_from_tokens,
)

MAIN = "MAIN"


# ---------------------------------------------------------------------------
# Parse trees


@dataclass(frozen=True, eq=False, repr=False)
class Leaf(Value):
    word: str

    def _parts(self):
        return (f"Leaf(word={self.word!r})",)


@dataclass(frozen=True, eq=False, repr=False)
class Node(Value):
    fn: "ParseTree"
    arg: "ParseTree"

    def _parts(self):
        return "Node(fn=", self.fn, ", arg=", self.arg, ")"


@dataclass(frozen=True, eq=False, repr=False)
class TyAnno(Value):
    sub: "ParseTree"
    ty_args: tuple[Type, ...]

    def _parts(self):
        return "TyAnno(sub=", self.sub, ", ty_args=", self.ty_args, ")"


ParseTree = Union[Leaf, Node, TyAnno]


_TREE_FORMS = {"LEAF": "(LEAF word) expected", "NODE": "(NODE fnTree argTree) expected",
               "TY": "(TY tree TYPE...) expected", None: "unknown tree form {!r}",
               "(": "expected (LEAF word) | (NODE fn arg) | (TY tree TYPE...)"}


def _tree_from_tokens(tok: str, nxt, depth: int) -> ParseTree:
    """The token walker of a tree (syntax.read_text)."""
    if tok != "(" or depth == MAX_NESTING:
        raise refuse(tok, _TREE_FORMS["("])
    head, depth = nxt(), depth + 1
    try:
        if head == "LEAF" and (word := nxt()) not in "()":
            tree = Leaf(word)
        elif head == "NODE":
            tree = Node(_tree_from_tokens(nxt(), nxt, depth), _tree_from_tokens(nxt(), nxt, depth))
        elif head == "TY":
            sub, tys = _tree_from_tokens(nxt(), nxt, depth), []
            while (t := nxt()) != ")":
                tys.append(type_from_tokens(t, nxt, depth, None))
            if tys:
                return TyAnno(sub, tuple(tys))
            raise form_error(tok, head, _TREE_FORMS)
        else:
            raise form_error(tok, head, _TREE_FORMS)
        if nxt() == ")":
            return tree
    except ParseError as e:  # located: a part's error stands if this list has its form's items
        raise e if (tok.n >= 3 if head == "TY" else tok.n == 3) else form_error(tok, head, _TREE_FORMS)
    raise form_error(tok, head, _TREE_FORMS)


def parse_tree(text: str) -> ParseTree:
    return read_text(text, _tree_from_tokens)


def parse_trees(text: str) -> list[ParseTree]:
    """One tree per non-empty, non-comment line."""
    out = []
    for line in text.split("\n"):
        line = line.split("#", 1)[0].strip(SPACE)
        if line:
            out.append(parse_tree(line))
    return out


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


def _licit(uses: tuple[Use, ...]) -> bool:
    """Only the plain main reading, exactly one rigid label, or any mix of
    flexible adaptations with the main reading."""
    return all(u.rigidity != RIGID for u in uses) or len({u.label for u in uses}) == 1


def check_rigidity(used: UsageMap):
    """None when every occurrence's adaptation set is licit."""
    for occ, uses in used.items():
        if not _licit(uses):
            return RigidityViolation(occ)
    return None


def _graph_use(source: Type, target: Type) -> Use:
    return Use(f"graph:{print_type(source)}->{print_type(target)}", FLEXIBLE, "graph")


def _labels(used) -> dict[str, tuple[str, ...]]:
    return {str(occ): tuple(u.label for u in uses) for occ, uses in used}


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
        return _labels(self.used_transfers.items())


@dataclass(frozen=True)
class Failure:
    path: tuple[int, ...]
    kind: str  # "NoPath" | "RigidityViolation" | "NotFunction" | "NotPolymorphic"
    from_type: Optional[Type] = None
    to_type: Optional[Type] = None
    occurrence: Optional[Occurrence] = None

    def describe(self) -> str:
        where = ".".join(map(str, self.path)) if self.path else "root"
        if self.kind == "RigidityViolation":
            return f"RigidityViolation({self.occurrence}) at {where}"
        if self.kind in ("NotFunction", "NotPolymorphic"):
            return f"{self.kind}({print_type(self.from_type)}) at {where}"
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
#
# Every candidate term is closed: lexicon terms are typechecked in the empty
# context when the lexicon loads, TY annotations are checked in the empty
# type-variable context below, and composition re-abstracts every residual
# binder.  So no term is walked for its free type variables.  The kernel's
# typed constructors build every node, and the search reads its type off it.
#
# An occurrence is adapted only at its parent node, so a candidate records
# its uses as (occurrence, uses) pairs, one per adapted occurrence, and only
# the argument occurrence of the current node needs a rigidity check.


@dataclass
class _Cand:
    term: Term
    uses: tuple[tuple[Occurrence, tuple[Use, ...]], ...]
    coercions: tuple[tuple[Occurrence, Term], ...]
    head: Optional[Occurrence]  # the leaf occurrence when the subtree is one word

    @property
    def ty(self) -> Type:
        return self.term._type_memo[1]  # see the note above


class _Adaptation(NamedTuple):
    use: Optional[Use]  # None for the unadapted main reading of a phrase
    wrapper: Optional[Term]  # coercion/transfer term, None for identity
    adapted_type: Type


class _Search:
    def __init__(self, lex: Lexicon):
        self.lex = lex
        self.sig = lex.signature
        self.graph = lex.coercions
        self.failures: list[Failure] = []
        self.identities: dict[int, Term] = {}
        self.typed = self.graph.typed_under(self.sig)

    def transfers(self, cand: _Cand, domain: Type) -> Iterator[tuple[Use, Term, Type]]:
        """(use, term, codomain) for each transfer of the candidate's word
        out of `domain`, flexible before rigid (the load refuses a transfer
        that is not a function)."""
        if cand.head is None:
            return
        transfers = self.lex.entries[cand.head.word].transfers
        for rigidity in (FLEXIBLE, RIGID):
            for tr in transfers:
                if tr.rigidity == rigidity and tr.ty.domain == domain:
                    yield Use(tr.label, rigidity, "transfer"), tr.term, tr.ty.codomain

    def arg_adaptations(self, arg: _Cand, dom: Type, binders: list[str]) -> list[_Adaptation]:
        # plain consumption is not an adaptation and records nothing;
        # the identity only counts as a MAIN use when it fills a view slot.
        # A domain free of the binders is ground, and on a coherent graph at
        # most one coercion out of the argument's type reaches it.  Over typed
        # edges a coercion gets the type its lookup derived, not a walk.
        ty = arg.ty
        out = [_Adaptation(None, None, ty)]
        if free_tyvars(dom).isdisjoint(binders):
            found = coercion_to(self.graph, ty, dom)
            graph = [] if found is None else [found]
        else:
            graph = coercion_targets(self.graph, ty)
        for co, target in graph:
            if self.typed:
                object.__setattr__(co, "_type_memo", (self.sig, Arrow(ty, target)))
            out.append(_Adaptation(_graph_use(ty, target), co, target))
        out.extend(_Adaptation(*tr) for tr in self.transfers(arg, ty))
        return out

    # -- slot filling -------------------------------------------------------

    def slot_fills(self, slot: Arrow, arg: _Cand) -> list[tuple[Use, Term]]:
        a, b = slot.domain, slot.codomain
        fills: list[tuple[Use, Term]] = []
        if a == b:
            # built and typed once per domain object, not per α-equal one: bound
            # names differ; the identity keeps its domain, so no other object takes its id
            if (identity := self.identities.get(id(a))) is None:
                identity = self.identities[id(a)] = Lam("x", a, Var("x"))
            fills.append((Use(MAIN, None, "main"), identity))
        else:
            co = find_coercion(self.graph, a, b)
            if co is not None:
                fills.append((_graph_use(a, b), co))
        fills.extend((use, term) for use, term, cod in self.transfers(arg, a) if cod == b)
        return fills

    def fill_slots(self, term: Term, arg: _Cand, consumed_ty: Type,
                   occ: Occurrence, node_path: tuple[int, ...]
                   ) -> list[tuple[Term, tuple[Use, ...], tuple]]:
        """Saturate leading adaptor slots.  A slot is a leading result arrow
        whose domain expects a view of the just-consumed argument (it maps
        from the type the argument was consumed at); every slot must be
        filled, each possible fill being a branch.  The uses come later
        slots first, the coercions in slot order."""
        ty = term._type_memo[1]
        if not (isinstance(ty, Arrow) and isinstance(ty.domain, Arrow)
                and ty.domain.domain == consumed_ty):
            return [(term, (), ())]
        slot = ty.domain
        fills = self.slot_fills(slot, arg)
        if not fills:
            self.failures.append(Failure(node_path, "NoPath", slot.domain, slot.codomain))
            return []
        out = []
        for use, fill_term in fills:
            for rterm, ruses, rcos in self.fill_slots(typed_apply(term, (), fill_term, self.sig),
                                                      arg, consumed_ty, occ, node_path):
                cos = (((occ, fill_term),) if use.kind != "main" else ()) + rcos
                out.append((rterm, ruses + (use,), cos))
        return out

    # -- one application edge ----------------------------------------------

    def apply_node(self, fn: _Cand, arg: _Cand, node_path: tuple[int, ...]) -> list[_Cand]:
        out = self._apply_variants(fn, arg, node_path, allow_arg_adapt=True)
        # function-side: the function word's own transfers
        for use, term, _ in self.transfers(fn, fn.ty):
            shifted = _Cand(self.coerce(term, fn.term), fn.uses + ((fn.head, (use,)),),
                            fn.coercions + ((fn.head, term),), fn.head)
            out.extend(self._apply_variants(shifted, arg, node_path, allow_arg_adapt=False))
        return out

    def coerce(self, co: Term, term: Term) -> Term:
        """coerce_app(co, term), typed as the application it contracts."""
        app = typed_apply(co, (), term, self.sig)
        return inherit_type(coerce_app(co, term), app, self.sig) if isinstance(co, Lam) else app

    def _apply_variants(self, fn: _Cand, arg: _Cand, node_path: tuple[int, ...],
                        allow_arg_adapt: bool) -> list[_Cand]:
        binders, dom = _peel(fn.ty)
        if dom is None:
            self.failures.append(Failure(node_path, "NotFunction", fn.ty, None))
            return []
        adaptations = self.arg_adaptations(arg, dom, binders) if allow_arg_adapt else \
            [_Adaptation(None, None, arg.ty)]
        occ = arg.head or Occurrence(node_path + (1,), None)
        matched_any = False
        out: list[_Cand] = []
        for use, wrapper, adapted_ty in adaptations:
            theta = match_type(dom, adapted_ty, frozenset(binders))
            if theta is None:
                continue
            matched_any = True
            arg_term = arg.term if wrapper is None else self.coerce(wrapper, arg.term)
            term = _instantiate(fn.term, binders, theta, arg_term, self.sig)
            uses = fn.uses + arg.uses
            coercions = fn.coercions + arg.coercions
            if wrapper is not None:
                coercions = coercions + ((occ, wrapper),)
            for f_term, f_uses, f_cos in self.fill_slots(term, arg, adapted_ty, occ, node_path):
                occ_uses = f_uses if use is None else (use,) + f_uses
                if not _licit(occ_uses):
                    self.failures.append(Failure(node_path, "RigidityViolation",
                                                 occurrence=occ))
                    continue
                all_uses = uses + ((occ, occ_uses),) if occ_uses else uses
                out.append(_Cand(f_term, all_uses, coercions + f_cos, head=None))
        if not matched_any:
            self.failures.append(Failure(node_path, "NoPath", arg.ty, dom))
        return out

    # -- tree walk ----------------------------------------------------------

    def candidates(self, tree: ParseTree, path: tuple[int, ...] = ()) -> list[_Cand]:
        match tree:
            case Leaf(word):
                entry = self.lex.entry(word)
                return [_Cand(entry.main_term, (), (), Occurrence(path, word))]
            case Node(fn, arg):
                fns = self.candidates(fn, path + (0,))
                args = self.candidates(arg, path + (1,))
                out = []
                for fc in fns:
                    for ac in args:
                        out.extend(self.apply_node(fc, ac, path))
                return out
            case TyAnno(sub, ty_args):
                for t in ty_args:
                    try:
                        check_wf_type(t, self.sig.sorts)
                    except IllFormedType as e:
                        raise IllFormedType(f"TY annotation {print_type(t)}: {e}") from None
                out = []
                for cand in self.candidates(sub, path + (0,)):
                    try:
                        out.append(_Cand(typed_apply(cand.term, ty_args, None, self.sig),
                                         cand.uses, cand.coercions, cand.head))
                    except TypeMismatch as e:  # the first type argument met by no ∀
                        self.failures.append(Failure(path, "NotPolymorphic", e.found, None))
                return out
        raise TypeError(f"not a ParseTree: {tree!r}")


def _peel(ty: Type) -> tuple[list[str], Optional[Type]]:
    """Strip leading quantifiers (freshened to unique names) down to the
    first arrow; (binders, domain), domain None when not an arrow.
    `ty` is closed, so only the binders themselves need avoiding."""
    binders: list[str] = []
    while isinstance(ty, Forall):
        binder, body = ty.binder, ty.body
        if binder in binders:
            fresh = fresh_name(binder, set(binders))
            body = subst_type(body, binder, TyVar(fresh))
            binder = fresh
        binders.append(binder)
        ty = body
    return binders, ty.domain if isinstance(ty, Arrow) else None


def _instantiate(fn_term: Term, binders: list[str], theta: dict[str, Type],
                 arg_term: Term, sig) -> Term:
    """Apply fn to arg under the matched instantiation; binders the match did
    not determine are re-abstracted outside the application.  Both terms are
    closed, so fresh names need only avoid the binders."""
    avoid, residuals, ty_args = set(binders), [], []
    for b in binders:
        if b not in theta:
            residuals.append(fresh_name(b, avoid))
            avoid.add(residuals[-1])
        ty_args.append(theta[b] if b in theta else TyVar(residuals[-1]))
    return typed_apply(fn_term, ty_args, arg_term, sig, tuple(residuals))


# ---------------------------------------------------------------------------
# Public operations


DEFAULT_LIMIT = 16


def compose(tree: ParseTree, lex: Lexicon, limit: int = DEFAULT_LIMIT) -> list[Analysis]:
    """Up to `limit` analyses, deterministic order, distinct up to
    alpha-equivalence of their normal forms.  Unknown words and ill-formed
    TY annotations raise; any other failure yields the empty list (see
    diagnose)."""
    analyses, _ = compose_with_failures(tree, lex, limit)
    return analyses


def compose_with_failures(tree: ParseTree, lex: Lexicon, limit: int
                          ) -> tuple[list[Analysis], DiagnoseReport]:
    """The analyses, and the search's failures when there are none."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    search = _Search(lex)
    analyses: list[Analysis] = []
    seen = None  # the keys that drop α-equal normal forms, built once a second analysis comes
    for cand in search.candidates(tree):
        ty = typecheck(cand.term, lex.signature)  # a read: the term was typed as it was built
        nf = normalize(cand.term, lex.signature).term
        if analyses:
            seen = seen or {canon_term(analyses[0].normal_term)}
            if (key := canon_term(nf)) in seen:
                continue
            seen.add(key)
        analyses.append(Analysis(
            term=cand.term,
            normal_term=nf,
            result_type=ty,
            used_transfers=dict(cand.uses),
            inserted_coercions=cand.coercions,
        ))
        if len(analyses) >= limit:
            break
    return analyses, DiagnoseReport(() if analyses else tuple(search.failures))


def apply_node(fn_term: Term, arg_term: Term, lex: Lexicon,
               fn_word: Optional[str] = None, arg_word: Optional[str] = None
               ) -> list[tuple[Term, dict]]:
    """Apply one closed well-typed term to another, enumerating successful
    adapted applications; each result is (term, adaptation record)."""
    search = _Search(lex)
    sig = lex.signature
    for term in (fn_term, arg_term):
        typecheck(term, sig)  # remembered on the node, where the search reads it
    fn = _Cand(fn_term, (), (), Occurrence((0,), fn_word) if fn_word else None)
    arg = _Cand(arg_term, (), (), Occurrence((1,), arg_word) if arg_word else None)
    return [(cand.term, _labels(cand.uses)) for cand in search.apply_node(fn, arg, ())]


def diagnose(tree: ParseTree, lex: Lexicon) -> DiagnoseReport:
    """Empty when the tree composes; otherwise the recorded failures, of
    which `deepest` is the most useful one."""
    return compose_with_failures(tree, lex, DEFAULT_LIMIT)[1]
