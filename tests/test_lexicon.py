"""Lexicon loading, validation and the builtin signature."""

import pytest

from polysem.composer import compose, parse_tree
from polysem.errors import (
    DuplicateWord,
    IncoherentCoercions,
    ParseError,
    TypeErrorInEntry,
    UnknownWord,
)
from polysem.inductives import NAT_SORT
from polysem.kernel import typecheck
from polysem.lexicon import (
    AND_SOURCE,
    RIGID,
    builtin_signature,
    lexicon_problems,
    load_lexicon,
)
from polysem.syntax import alpha_eq, parse_term, parse_type, print_term, print_type


# ---------------------------------------------------------------------------
# builtin signature


def test_builtin_epsilon_type():
    sig = builtin_signature()
    assert sig.constant_type("ε") == parse_type("(all a (-> (-> a t) a))")
    assert sig.constant_type("τ") == parse_type("(all a (-> (-> a t) a))")


def test_builtin_conjunction_type():
    sig = builtin_signature()
    assert sig.constant_type("∧") == parse_type("(-> t (-> t t))")
    assert sig.constant_type("¬") == parse_type("(-> t t)")
    assert sig.constant_type("⊃") == parse_type("(-> t (-> t t))")
    assert sig.constant_type("∀") == parse_type("(all a (-> (-> a t) t))")


def test_builtin_and_definition_typechecks():
    sig = builtin_signature()
    definition = sig.definitions["AND"]
    assert alpha_eq(definition, parse_term(AND_SOURCE, sig, allow_free=False))
    ty = typecheck(definition, sig)
    assert ty == sig.constant_type("AND")
    assert ty == parse_type(
        "(all a (all b (-> (-> a t) (-> (-> b t)"
        " (all c (-> c (-> (-> c a) (-> (-> c b) t))))))))"
    )


# ---------------------------------------------------------------------------
# the shipped lexicon


def test_fixture_loads(lex):
    assert "book" in lex.entries
    assert "Liverpool" in lex.entries
    assert len(lex.coercions.edges) == 4


def test_book_transfers(lex):
    labels = [(t.label, t.rigidity) for t in lex.entry("book").transfers]
    assert labels == [("f0", "flexible"), ("g0", "flexible")]


def test_sleeps_has_no_transfers(lex):
    assert lex.entry("sleeps").transfers == ()


def test_liverpool_transfer_is_rigid(lex):
    labels = [(t.label, t.rigidity) for t in lex.entry("Liverpool").transfers]
    assert labels == [("townToClub", "rigid")]


def test_entry_types_stored_at_load(lex):
    # the composer reads these instead of typechecking entries per use
    for entry in lex.entries.values():
        assert entry.ty == typecheck(entry.main_term, lex.signature)
        for tr in entry.transfers:
            assert tr.ty == typecheck(tr.term, lex.signature)
    assert lex.entry("and").ty == lex.signature.constant_type("AND")
    assert lex.entry("book").transfers[0].ty == parse_type("(-> e:book e:info)")


def test_unknown_word(lex):
    with pytest.raises(UnknownWord):
        lex.entry("martian")


def test_all_entries_typecheck(lex):
    for entry in lex.entries.values():
        typecheck(entry.main_term, lex.signature)
        for tr in entry.transfers:
            typecheck(tr.term, lex.signature)


# ---------------------------------------------------------------------------
# validation failures


MINI = """
sort e:town
sort e:club
const liv : e:town
const townToClub : (-> e:town e:club)
word Liverpool main liv
word-transfer Liverpool townToClub rigid townToClub
"""


def test_minimal_lexicon_loads():
    lex = load_lexicon(MINI)
    assert lex.entry("Liverpool").transfers[0].rigidity == RIGID


def test_duplicate_word_rejected():
    with pytest.raises(DuplicateWord):
        load_lexicon(MINI + "\nword Liverpool main liv\n")


def test_type_error_in_entry():
    bad = MINI + "\nconst barks : (-> e:club t)\nword noise main (app barks liv)\n"
    with pytest.raises(TypeErrorInEntry) as exc:
        load_lexicon(bad)
    assert exc.value.word == "noise"


def test_incoherent_coercions_rejected():
    doc = """
sort e:book
sort e:phys
sort e:info
sort e:obj
coercion bp : e:book -> e:phys
coercion bi : e:book -> e:info
coercion po : e:phys -> e:obj
coercion io : e:info -> e:obj
"""
    with pytest.raises(IncoherentCoercions) as exc:
        load_lexicon(doc)
    assert exc.value.report.conflicts


def test_self_loop_coercion_is_a_problem():
    doc = "sort e:a\nsort e:b\ncoercion c : e:a -> e:a\ncoercion d : e:a -> e:b\n"
    assert lexicon_problems(doc) == ["3:1: coercion endpoints must be distinct sorts"]
    with pytest.raises(ParseError, match="distinct sorts"):
        load_lexicon(doc)


def test_problems_are_all_reported():
    bad = MINI + "\nword Liverpool main liv\nconst liv : e:town\nnonsense directive\n"
    problems = lexicon_problems(bad)
    assert len(problems) >= 3


@pytest.mark.parametrize("space", ["\x0c", "\x0b", "\x1c", "\x85", "\xa0", "\u2028"])
def test_fields_split_only_at_the_readers_whitespace(space):
    # the reader reads sort<space>e:dog as one atom, and so does the lexicon
    doc = f"sort{space}e:dog\nconst rex : e:dog\nword{space}w main rex"
    assert lexicon_problems(doc) == [f"1:1: unknown directive {'sort' + space + 'e:dog'!r}",
                                     f"3:1: unknown directive {'word' + space + 'w'!r}",
                                     "2:1: in const rex: 2:13: undeclared sort e:dog"]
    with pytest.raises(ParseError, match="unknown directive"):
        load_lexicon(doc)
    # and a surface with such a character in it is one word
    assert list(load_lexicon(f"sort e:dog\nword w{space}x main (lam (y e:dog) y)").entries) == [f"w{space}x"]


@pytest.mark.parametrize("doc, expected", [
    ("sort e:dog\nword w main (lam (x e:dog)\tx))", ["entry 'w': 2:30: trailing input ')'"]),
    ("sort e:dog\n  word\tw  main\t (lam (x e:dog) y)", ["entry 'w': 2:32: unknown constant 'y'"]),
    ("sort e:dog\nword w main (lam (x e:dog) x)\nword-transfer w l flexible\t(app w)",
     ["entry 'w': 3:28: (app M N) is strictly binary"]),
    ("sort e:dog\n\nconst  q :(-> e:dog\te:cat)  # a comment", ["3:1: in const q: 3:21: undeclared sort e:cat"]),
    ("sort e:a\ncoercion c:e:a->  e:b", ["2:1: in coercion c: 2:19: undeclared sort e:b"]),
    ("sort e:a\ncoercion c : (e:a) -> e:a", ["2:1: in coercion c: 2:14: unknown type form 'e:a'"]),
])
def test_faults_in_terms_and_types_are_at_their_place_in_the_document(doc, expected):
    assert lexicon_problems(doc) == expected
    with pytest.raises((ParseError, TypeErrorInEntry)) as exc:
        load_lexicon(doc)
    e = getattr(exc.value, "detail", exc.value)
    assert str(e) in expected[0]


# ---------------------------------------------------------------------------
# inductive pragmas


NAT_LEX = """
use nat
use finset
sort e:dog
const legs : (-> e:dog e:nat)
word four main (app Succ (app Succ (app Succ (app Succ Zero))))
"""


TRANSFER_LEXICON = """\
sort e:dog
sort e:ani
sort e:info
coercion dogAni : e:dog -> e:ani
const rex : e:dog
const sleeps : (-> e:ani t)
const famous : (-> e:info t)
const fame : (-> e:ani e:info)
const story : (-> e:dog e:info)
const tell : (-> e:info e:info)
word and main AND
word sleeps main (lam (x e:ani) (app sleeps x))
word famous main (lam (x e:info) (app famous x))
word rex main rex
word-transfer rex story flexible story
word-transfer rex fame flexible fame
word-transfer rex tell flexible tell
word every main ∀
word-transfer every ofRex flexible (lam (p (-> e:dog t)) (app p rex))
"""


def test_transfers_that_can_fire_load():
    """A transfer may start from its word's type, from a coercion of it or from
    another of its transfers' results: in AND's view slots, rex coerced to e:ani
    takes fame, and rex read as its story takes tell.  A word whose type has a
    leading ∀ is not checked, since a TY annotation instantiates it."""
    assert lexicon_problems(TRANSFER_LEXICON) == []
    lex = load_lexicon(TRANSFER_LEXICON)
    trees = [parse_tree(f"(NODE (NODE (NODE (LEAF and) (LEAF {pred})) (LEAF famous)) (LEAF rex))")
             for pred in ("sleeps", "famous")]
    used = {label for tree in trees for analysis in compose(tree, lex)
            for labels in analysis.labels().values() for label in labels}
    assert {"fame", "tell"} <= used


def test_pragmas_enable_inductives():
    lex = load_lexicon(NAT_LEX)
    assert lex.signature.has_constant("RecN")
    assert lex.signature.has_constant("FoldS")
    assert typecheck(lex.entries["four"].main_term, lex.signature) == parse_type("e:nat")


def test_pragma_lexicon_roundtrip():
    lex = load_lexicon(NAT_LEX)
    again = load_lexicon(save_lexicon(lex))
    assert alpha_eq(again.entries["four"].main_term, lex.entries["four"].main_term)


# ---------------------------------------------------------------------------
# save / load round trip

_BUILTIN_CONSTANTS = frozenset(builtin_signature().constants)
_INDUCTIVE_CONSTANTS = {"Zero", "Succ", "RecN", "EmptyS", "InsertS", "FoldS"}


def save_lexicon(lex):
    """Render a lexicon back to the document format (inverse of load up to
    alpha-equivalence of the entry terms)."""
    lines: list[str] = []
    if NAT_SORT in lex.signature.sorts:
        lines.append("use nat")
    if lex.signature.has_constant("FoldS"):
        lines.append("use finset")
    for sort in sorted(lex.signature.sorts, key=lambda s: s.name):
        if sort.kind == "entity" and sort != NAT_SORT:
            lines.append(f"sort e:{sort.name}")
    for e in lex.coercions.edges:
        lines.append(f"coercion {e.name} : e:{e.source.name} -> e:{e.target.name}")
    edge_names = {e.name for e in lex.coercions.edges}
    for name, ty in lex.signature.constants.items():
        if name in _BUILTIN_CONSTANTS or name in edge_names or name in _INDUCTIVE_CONSTANTS:
            continue
        lines.append(f"const {name} : {print_type(ty)}")
    for entry in lex.entries.values():
        lines.append(f"word {entry.word} main {print_term(entry.main_term)}")
        for tr in entry.transfers:
            lines.append(f"word-transfer {entry.word} {tr.label} {tr.rigidity} {print_term(tr.term)}")
    return "\n".join(lines) + "\n"


def test_save_load_roundtrip(lex):
    text = save_lexicon(lex)
    again = load_lexicon(text)
    assert set(again.entries) == set(lex.entries)
    for word, entry in lex.entries.items():
        assert alpha_eq(again.entries[word].main_term, entry.main_term)
        ours = [(t.label, t.rigidity) for t in entry.transfers]
        theirs = [(t.label, t.rigidity) for t in again.entries[word].transfers]
        assert ours == theirs
        for t1, t2 in zip(entry.transfers, again.entries[word].transfers):
            assert alpha_eq(t1.term, t2.term)
    assert {e.name for e in again.coercions.edges} == {e.name for e in lex.coercions.edges}
