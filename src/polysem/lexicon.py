"""The lexicon: per-word main terms plus optional meaning transfers, a
coercion graph for ontological inclusions, and the signature they live over.

Document format (line-oriented, `#` starts a comment):

    sort e:NAME
    coercion NAME : e:A -> e:B
    const NAME : TYPE
    word SURFACE main TERM
    word-transfer SURFACE LABEL (rigid|flexible) TERM
    use nat
    use finset

TYPE and TERM are s-expressions on one line.  Graph coercions model
ontological inclusion and are always usable; transfers are word-specific and
may be rigid, which is the lexicon's handle for blocking copredication.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .coercion import BaseCoercion, CoercionGraph, check_coherence, coercion_targets
from .errors import (
    DuplicateWord,
    IncoherentCoercions,
    LexiconError,
    ParseError,
    PolysemError,
    TypeErrorInEntry,
    UnknownWord,
)
from .inductives import register_finset, register_nat
from .kernel import EMPTY_CONTEXT, copy_term, expand_definitions, typecheck
from .syntax import (
    ATOM,
    PROP,
    Arrow,
    Base,
    Forall,
    Signature,
    Sort,
    Term,
    TyVar,
    Type,
    arrows,
    check_wf_type,
    entity_sort,
    parse_term,
    parse_type,
    print_type,
)

RIGID = "rigid"
FLEXIBLE = "flexible"

# The factorized predicate conjunction: given P over alpha and Q over beta,
# an object x of any type xi enjoys both whenever x can be viewed in alpha
# (via f) and in beta (via g).
AND_SOURCE = (
    "(tlam a (tlam b (lam (P (-> a t)) (lam (Q (-> b t))"
    " (tlam c (lam (x c) (lam (f (-> c a)) (lam (g (-> c b))"
    " (app (app ∧ (app P (app f x))) (app Q (app g x)))))))))))"
)
# AND is read and typed once, under ∧ alone.  Each builtin signature gets a copy of the term and its own
# outer ∀, which keeps the table of its instances; the ∀'s body is shared, but an instance rebuilds it.
AND_SIGNATURE = Signature(constants={"∧": arrows(PROP, PROP, PROP)})
AND_TERM = parse_term(AND_SOURCE, AND_SIGNATURE, allow_free=False)
AND_TYPE = typecheck(AND_TERM, AND_SIGNATURE)


def builtin_signature() -> Signature:
    """Logical constants: connectives, typed quantifiers, Hilbert operators,
    and the polymorphic conjunction AND as a definable constant.  Its ∀ types
    and AND's definition are its own, since the kernel stores facts on them."""
    a = TyVar("a")
    quant = Forall("a", Arrow(Arrow(a, PROP), PROP))
    choice = Forall("a", Arrow(Arrow(a, PROP), a))
    return Signature(
        constants={
            "∧": arrows(PROP, PROP, PROP),
            "¬": Arrow(PROP, PROP),
            "⊃": arrows(PROP, PROP, PROP),
            "∀": quant,
            "∃": quant,
            "ε": choice,
            "τ": choice,
            "AND": Forall(AND_TYPE.binder, AND_TYPE.body),
        },
        definitions={"AND": copy_term(AND_TERM)},
    )


@dataclass(frozen=True)
class TransferTerm:
    label: str
    term: Term
    rigidity: str  # RIGID | FLEXIBLE
    ty: Type  # closed, computed when the lexicon loads


@dataclass(frozen=True)
class LexEntry:
    word: str
    main_term: Term
    ty: Type  # of main_term; closed, computed when the lexicon loads
    transfers: tuple[TransferTerm, ...] = ()


@dataclass(frozen=True)
class Lexicon:
    signature: Signature
    coercions: CoercionGraph
    entries: dict[str, LexEntry] = field(default_factory=dict)

    def entry(self, word: str) -> LexEntry:
        try:
            return self.entries[word]
        except KeyError:
            raise UnknownWord(word) from None


def _closed_typed(term_txt: str, sig: Signature, word: str, lineno: int, col: int) -> tuple[Term, Type]:
    """An entry's term, found at column `col` of line `lineno`, definitions expanded, and its closed type."""
    try:
        term = expand_definitions(parse_term(term_txt, sig, allow_free=False), sig)
        ty = typecheck(term, sig, EMPTY_CONTEXT)
    except PolysemError as e:
        raise TypeErrorInEntry(word, _in_file(e, lineno, col)) from None
    return term, ty


def _in_file(e: PolysemError, lineno: int, col: int) -> PolysemError:
    """`e`, met reading a text found at column `col` of line `lineno`, at its place in the file."""
    return type(e)(e.reason, lineno, col + e.col - 1) if isinstance(e, ParseError) and e.line else e


def load_lexicon(text: str) -> Lexicon:
    """Parse and fully validate a lexicon document; raises on the first
    violated invariant with its location."""
    lex, problems = _load(text, best_effort=False)
    assert not problems
    return lex


def lexicon_problems(text: str) -> list[str]:
    """All validation failures of a document, best effort (empty = valid)."""
    _, problems = _load(text, best_effort=True)
    return problems


def _load(text: str, best_effort: bool) -> tuple[Lexicon, list[str]]:
    problems: list[str] = []

    def fail(exc: Exception):
        if best_effort:
            problems.append(str(exc))
        else:
            raise exc

    sort_lines: list[tuple[int, str]] = []
    # each TYPE and TERM comes with the column it starts at
    coercion_lines: list[tuple[int, str, str, int, str, int]] = []
    const_lines: list[tuple[int, str, str, int]] = []
    word_lines: list[tuple[int, str, str, int]] = []
    transfer_lines: list[tuple[int, str, str, str, str, int]] = []
    pragmas: list[str] = []

    # tab and CR separate fields as spaces do, and keep the reader's columns; a TYPE
    # or TERM runs to the end of `line`, so its column is len(line) + 1 - len(text)
    for lineno, raw in enumerate(text.replace("\t", " ").replace("\r", " ").split("\n"), start=1):
        line = raw.split("#", 1)[0].rstrip(" ")
        directive, _, rest = line.lstrip(" ").partition(" ")
        if not directive:
            continue
        if directive == "sort":
            name = rest.strip(" ")
            if not name.startswith("e:") or len(name) <= 2:
                fail(ParseError("sort takes an entity sort e:NAME", lineno, 1))
                continue
            if not ATOM.fullmatch(name):
                fail(ParseError(f"sort {name!r} is not one atom", lineno, 1))
                continue
            sort_lines.append((lineno, name[2:]))
        elif directive == "coercion":
            try:
                name, sig_part = rest.split(":", 1)
                src, dst = sig_part.split("->")
            except ValueError:
                fail(ParseError("coercion NAME : e:A -> e:B expected", lineno, 1))
                continue
            if not ATOM.fullmatch(name := name.strip(" ")):
                fail(ParseError(f"coercion name {name!r} is not one atom", lineno, 1))
                continue
            dst = dst.strip(" ")
            src_col = len(line) + 1 - len(sig_part) + len(src) - len(src.lstrip(" "))
            coercion_lines.append((lineno, name, src.strip(" "), src_col, dst, len(line) + 1 - len(dst)))
        elif directive == "const":
            try:
                name, ty_part = rest.split(":", 1)
            except ValueError:
                fail(ParseError("const NAME : TYPE expected", lineno, 1))
                continue
            if not ATOM.fullmatch(name := name.strip(" ")):
                fail(ParseError(f"const name {name!r} is not one atom", lineno, 1))
                continue
            ty_txt = ty_part.strip(" ")
            const_lines.append((lineno, name, ty_txt, len(line) + 1 - len(ty_txt)))
        elif directive == "word":
            surface, _, rest = rest.lstrip(" ").partition(" ")
            main, _, term_txt = rest.lstrip(" ").partition(" ")
            if main != "main" or not (term_txt := term_txt.lstrip(" ")):
                fail(ParseError("word SURFACE main TERM expected", lineno, 1))
                continue
            word_lines.append((lineno, surface, term_txt, len(line) + 1 - len(term_txt)))
        elif directive == "word-transfer":
            surface, _, rest = rest.lstrip(" ").partition(" ")
            label, _, rest = rest.lstrip(" ").partition(" ")
            rigidity, _, term_txt = rest.lstrip(" ").partition(" ")
            if rigidity not in (RIGID, FLEXIBLE) or not (term_txt := term_txt.lstrip(" ")):
                fail(ParseError("word-transfer SURFACE LABEL (rigid|flexible) TERM expected", lineno, 1))
                continue
            transfer_lines.append((lineno, surface, label, rigidity, term_txt, len(line) + 1 - len(term_txt)))
        elif directive == "use":
            pragma = rest.strip(" ")
            if pragma not in ("nat", "finset"):
                fail(ParseError(f"unknown pragma {pragma!r}", lineno, 1))
                continue
            pragmas.append(pragma)
        else:
            fail(ParseError(f"unknown directive {directive!r}", lineno, 1))

    sig = builtin_signature()
    if "nat" in pragmas:
        sig = register_nat(sig)
    if "finset" in pragmas:
        sig = register_finset(sig)

    declared: dict[Sort, None] = {}  # in declaration order
    for lineno, name in sort_lines:
        sort = entity_sort(name)
        if sort in sig.sorts or sort in declared:
            fail(ParseError(f"duplicate sort e:{name}", lineno, 1))
            continue
        declared[sort] = None
    sig = sig.extend(sorts=declared)

    edges: list[BaseCoercion] = []
    new_consts: dict[str, Type] = {}
    for lineno, name, src_txt, src_col, dst_txt, dst_col in coercion_lines:
        try:
            col = src_col
            src = parse_type(src_txt, sig.sorts)
            col = dst_col
            dst = parse_type(dst_txt, sig.sorts)
        except ParseError as e:
            fail(ParseError(f"in coercion {name}: {_in_file(e, lineno, col)}", lineno, 1))
            continue
        if not all(isinstance(end, Base) and end.sort.kind == "entity" for end in (src, dst)):
            fail(ParseError("coercion endpoints must be entity sorts", lineno, 1))
            continue
        if src == dst:
            fail(ParseError("coercion endpoints must be distinct sorts", lineno, 1))
            continue
        if name in sig.constants or name in new_consts:
            fail(ParseError(f"duplicate constant {name}", lineno, 1))
            continue
        edge = BaseCoercion(name, src.sort, dst.sort)
        edges.append(edge)
        new_consts[name] = edge.arrow()

    for lineno, name, ty_txt, ty_col in const_lines:
        if name in sig.constants or name in new_consts:
            fail(ParseError(f"duplicate constant {name}", lineno, 1))
            continue
        try:
            ty = parse_type(ty_txt, sig.sorts)
            check_wf_type(ty, sig.sorts)
        except PolysemError as e:
            fail(ParseError(f"in const {name}: {_in_file(e, lineno, ty_col)}", lineno, 1))
            continue
        new_consts[name] = ty
    sig = sig.extend(constants=new_consts)

    graph = CoercionGraph(tuple(edges))
    report = check_coherence(graph)
    if not report.ok:
        fail(IncoherentCoercions(report))

    entries: dict[str, LexEntry] = {}
    for lineno, word, term_txt, col in word_lines:
        if word in entries:
            fail(DuplicateWord(f"line {lineno}: word {word!r} declared twice"))
            continue
        try:
            term, ty = _closed_typed(term_txt, sig, word, lineno, col)
        except TypeErrorInEntry as e:
            fail(e)
            continue
        entries[word] = LexEntry(word, term, ty)

    added: list[tuple[int, str, str, Type]] = []
    for lineno, word, label, rigidity, term_txt, col in transfer_lines:
        if word not in entries:
            fail(LexiconError(f"line {lineno}: word-transfer for undeclared word {word!r}"))
            continue
        entry = entries[word]
        if any(tr.label == label for tr in entry.transfers):
            fail(LexiconError(f"line {lineno}: duplicate transfer label {label!r} for {word!r}"))
            continue
        try:
            term, ty = _closed_typed(term_txt, sig, word, lineno, col)
        except TypeErrorInEntry as e:
            fail(e)
            continue
        entries[word] = LexEntry(word, entry.main_term, entry.ty,
                                 entry.transfers + (TransferTerm(label, term, rigidity, ty),))
        added.append((lineno, word, label, ty))

    # a transfer fires on its word's reading, a coercion of it or another transfer's result (no ∀: TY instantiates it)
    for lineno, word, label, ty in added:
        entry = entries[word]
        if not isinstance(ty, Arrow):
            fail(LexiconError(f"line {lineno}: word-transfer {label!r} can never fire: "
                              f"its type {print_type(ty)} is not a function type"))
        elif not isinstance(entry.ty, Forall) and ty.domain != entry.ty and ty.domain not in [
                *(t for _, t in coercion_targets(graph, entry.ty)),
                *(tr.ty.codomain for tr in entry.transfers if isinstance(tr.ty, Arrow))]:
            fail(LexiconError(f"line {lineno}: word-transfer {label!r} can never fire: "
                              f"no reading of {word!r} has type {print_type(ty.domain)}"))

    return Lexicon(signature=sig, coercions=graph, entries=entries), problems


def load_lexicon_file(path) -> Lexicon:
    with open(path, encoding="utf-8") as fh:
        return load_lexicon(fh.read())
