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

from .coercion import BaseCoercion, CoercionGraph, check_coherence
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
from .kernel import EMPTY_CONTEXT, expand_definitions, typecheck
from .syntax import (
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
    free_tyvars,
    parse_term,
    parse_type,
    print_term,
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


def builtin_signature() -> Signature:
    """Logical constants: connectives, typed quantifiers, Hilbert operators,
    and the polymorphic conjunction AND as a definable constant."""
    a = TyVar("a")
    quant = Forall("a", Arrow(Arrow(a, PROP), PROP))
    choice = Forall("a", Arrow(Arrow(a, PROP), a))
    sig = Signature(
        constants={
            "∧": arrows(PROP, PROP, PROP),
            "¬": Arrow(PROP, PROP),
            "⊃": arrows(PROP, PROP, PROP),
            "∀": quant,
            "∃": quant,
            "ε": choice,
            "τ": choice,
        }
    )
    and_term = parse_term(AND_SOURCE, sig, allow_free=False)
    and_type = typecheck(and_term, sig)
    return sig.extend(constants={"AND": and_type}, definitions={"AND": and_term})


@dataclass(frozen=True)
class TransferTerm:
    label: str
    term: Term
    rigidity: str  # RIGID | FLEXIBLE

    @property
    def rigid(self) -> bool:
        return self.rigidity == RIGID


@dataclass(frozen=True)
class LexEntry:
    word: str
    main_term: Term
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


def transfers_for(lex: Lexicon, word: str) -> list[TransferTerm]:
    """The word's declared transfers, in file order (possibly empty)."""
    return list(lex.entry(word).transfers)


def _closed_typed(term: Term, sig: Signature, word: str) -> Type:
    try:
        ty = typecheck(term, sig, EMPTY_CONTEXT)
    except PolysemError as e:
        raise TypeErrorInEntry(word, e) from None
    if free_tyvars(ty):
        raise TypeErrorInEntry(word, LexiconError(f"type {ty} of entry term is not closed"))
    return ty


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
    coercion_lines: list[tuple[int, str, str, str]] = []
    const_lines: list[tuple[int, str, str]] = []
    word_lines: list[tuple[int, str, str]] = []
    transfer_lines: list[tuple[int, str, str, str, str]] = []
    pragmas: list[str] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split(None, 1)
        directive, rest = fields[0], (fields[1] if len(fields) > 1 else "")
        if directive == "sort":
            name = rest.strip()
            if not name.startswith("e:") or len(name) <= 2:
                fail(ParseError("sort takes an entity sort e:NAME", lineno, 1))
                continue
            sort_lines.append((lineno, name[2:]))
        elif directive == "coercion":
            try:
                name, sig_part = rest.split(":", 1)
                src, dst = sig_part.split("->")
            except ValueError:
                fail(ParseError("coercion NAME : e:A -> e:B expected", lineno, 1))
                continue
            coercion_lines.append((lineno, name.strip(), src.strip(), dst.strip()))
        elif directive == "const":
            try:
                name, ty_part = rest.split(":", 1)
            except ValueError:
                fail(ParseError("const NAME : TYPE expected", lineno, 1))
                continue
            const_lines.append((lineno, name.strip(), ty_part.strip()))
        elif directive == "word":
            parts = rest.split(None, 2)
            if len(parts) != 3 or parts[1] != "main":
                fail(ParseError("word SURFACE main TERM expected", lineno, 1))
                continue
            word_lines.append((lineno, parts[0], parts[2]))
        elif directive == "word-transfer":
            parts = rest.split(None, 3)
            if len(parts) != 4 or parts[2] not in (RIGID, FLEXIBLE):
                fail(ParseError("word-transfer SURFACE LABEL (rigid|flexible) TERM expected", lineno, 1))
                continue
            transfer_lines.append((lineno, parts[0], parts[1], parts[2], parts[3]))
        elif directive == "use":
            pragma = rest.strip()
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

    declared: list[Sort] = []
    for lineno, name in sort_lines:
        sort = entity_sort(name)
        if sort in sig.sorts or sort in declared:
            fail(ParseError(f"duplicate sort e:{name}", lineno, 1))
            continue
        declared.append(sort)
    sig = sig.extend(sorts=declared)

    edges: list[BaseCoercion] = []
    new_consts: dict[str, Type] = {}
    for lineno, name, src_txt, dst_txt in coercion_lines:
        try:
            src = parse_type(src_txt, sig.sorts)
            dst = parse_type(dst_txt, sig.sorts)
        except ParseError as e:
            fail(ParseError(f"in coercion {name}: {e}", lineno, 1))
            continue
        if not all(isinstance(end, Base) and end.sort.kind == "entity" for end in (src, dst)):
            fail(ParseError("coercion endpoints must be entity sorts", lineno, 1))
            continue
        if name in sig.constants or name in new_consts:
            fail(ParseError(f"duplicate constant {name}", lineno, 1))
            continue
        edge = BaseCoercion(name, src.sort, dst.sort)
        edges.append(edge)
        new_consts[name] = edge.arrow()

    for lineno, name, ty_txt in const_lines:
        if name in sig.constants or name in new_consts:
            fail(ParseError(f"duplicate constant {name}", lineno, 1))
            continue
        try:
            ty = parse_type(ty_txt, sig.sorts)
            check_wf_type(ty, sig.sorts)
        except PolysemError as e:
            fail(ParseError(f"in const {name}: {e}", lineno, 1))
            continue
        new_consts[name] = ty
    sig = sig.extend(constants=new_consts)
    sig.validate()

    graph = CoercionGraph(tuple(edges))
    report = check_coherence(graph)
    if not report.ok:
        fail(IncoherentCoercions(report))

    entries: dict[str, LexEntry] = {}
    for lineno, word, term_txt in word_lines:
        if word in entries:
            fail(DuplicateWord(f"line {lineno}: word {word!r} declared twice"))
            continue
        try:
            term = parse_term(term_txt, sig, allow_free=False)
            term = expand_definitions(term, sig)
            _closed_typed(term, sig, word)
        except ParseError as e:
            fail(TypeErrorInEntry(word, e))
            continue
        except TypeErrorInEntry as e:
            fail(e)
            continue
        entries[word] = LexEntry(word, term)

    for lineno, word, label, rigidity, term_txt in transfer_lines:
        if word not in entries:
            fail(LexiconError(f"line {lineno}: word-transfer for undeclared word {word!r}"))
            continue
        entry = entries[word]
        if any(tr.label == label for tr in entry.transfers):
            fail(LexiconError(f"line {lineno}: duplicate transfer label {label!r} for {word!r}"))
            continue
        try:
            term = parse_term(term_txt, sig, allow_free=False)
            term = expand_definitions(term, sig)
            _closed_typed(term, sig, word)
        except ParseError as e:
            fail(TypeErrorInEntry(word, e))
            continue
        except TypeErrorInEntry as e:
            fail(e)
            continue
        entries[word] = LexEntry(word, entry.main_term,
                                 entry.transfers + (TransferTerm(label, term, rigidity),))

    return Lexicon(signature=sig, coercions=graph, entries=entries), problems


def load_lexicon_file(path) -> Lexicon:
    with open(path, encoding="utf-8") as fh:
        return load_lexicon(fh.read())


_BUILTIN_CONSTANTS = frozenset(builtin_signature().constants)


def save_lexicon(lex: Lexicon) -> str:
    """Render a lexicon back to the document format (inverse of load up to
    alpha-equivalence of the entry terms)."""
    lines: list[str] = []
    from .inductives import NAT_SORT

    if NAT_SORT in lex.signature.sorts:
        lines.append("use nat")
    if lex.signature.has_constant("FoldS"):
        lines.append("use finset")
    edge_names = {e.name for e in lex.coercions.edges}
    inductive_sorts = {NAT_SORT}
    for sort in lex.signature.entity_sorts():
        if sort not in inductive_sorts:
            lines.append(f"sort e:{sort.name}")
    for e in lex.coercions.edges:
        lines.append(f"coercion {e.name} : e:{e.source.name} -> e:{e.target.name}")
    inductive_consts = {"Zero", "Succ", "RecN", "EmptyS", "InsertS", "FoldS"}
    for name, ty in lex.signature.constants.items():
        if name in _BUILTIN_CONSTANTS or name in edge_names or name in inductive_consts:
            continue
        lines.append(f"const {name} : {print_type(ty)}")
    for entry in lex.entries.values():
        lines.append(f"word {entry.word} main {print_term(entry.main_term)}")
        for tr in entry.transfers:
            lines.append(f"word-transfer {entry.word} {tr.label} {tr.rigidity} {print_term(tr.term)}")
    return "\n".join(lines) + "\n"
