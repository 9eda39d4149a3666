"""The reader behind every text format.

ERROR_TABLE and LEXICON_TABLE pin, for malformed types, terms, trees,
formulas and lexicon lines, the exact error (class, message, line and
column) the reader gave before it was rewritten as a single loop.  Two
entries changed since, when tree and lexicon files stopped breaking lines at
form feed, and the lexicon entries of faults inside a TYPE or TERM changed
when they came to give the document's line and column; they are marked.  No
other entry may change.  Entries were added since for declared names that are
not one atom, and for word-transfers that can never fire.

Each grammar has one token walker; a text it refuses is walked again over
its located tokens (syntax.located_tokens), which first make the checks on
the text as a whole.  The differential tests compare those tokens with the
earlier per-character reader, kept in reference_reader.py, node by node
(atom, line, column and number of items) or error by error.
"""

import importlib.util
import pathlib
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polysem import errors
from polysem.composer import parse_tree, parse_trees
from polysem.errors import ParseError
from polysem.hol import parse_formula
from polysem.kernel import typecheck
from polysem.lexicon import load_lexicon, lexicon_problems
from polysem.syntax import MAX_NESTING, located_tokens, parse_term, parse_type, print_term, print_type
from reference_reader import parse_sexpr_by_characters

ROOT = pathlib.Path(__file__).resolve().parent.parent

# (parser, text, (class, str(e), line, col)); every parser reads against the
# signature of fixtures/english.lex where it takes one.
ERROR_TABLE = [
    ('type', '', ('ParseError', 'empty input', 0, 0)),
    ('type', '   \t\r\n  ', ('ParseError', 'empty input', 0, 0)),
    ('type', ')', ('ParseError', "1:1: unexpected ')'", 1, 1)),
    ('type', '  )', ('ParseError', "1:3: unexpected ')'", 1, 3)),
    ('type', '\n\t)', ('ParseError', "2:2: unexpected ')'", 2, 2)),
    ('type', '(-> t t', ('ParseError', "1:1: unclosed '('", 1, 1)),
    ('type', '(-> t (-> t t)', ('ParseError', "1:1: unclosed '('", 1, 1)),
    ('type', '(-> (all a', ('ParseError', "1:5: unclosed '('", 1, 5)),
    ('type', '(-> t t) t', ('ParseError', "1:10: trailing input 't'", 1, 10)),
    ('type', '(-> t t))', ('ParseError', "1:9: trailing input ')'", 1, 9)),
    ('type', 't t', ('ParseError', "1:3: trailing input 't'", 1, 3)),
    ('type', 't )', ('ParseError', "1:3: trailing input ')'", 1, 3)),
    ('type', '(-> t)', ('ParseError', '1:1: (-> T T) takes exactly two types', 1, 1)),
    ('type', '(->\n  t)', ('ParseError', '1:1: (-> T T) takes exactly two types', 1, 1)),
    ('type', '()', ('ParseError', '1:1: expected a type form', 1, 1)),
    ('type', '((t))', ('ParseError', '1:1: expected a type form', 1, 1)),
    ('type', '(all (a) a)', ('ParseError', '1:1: (all v T) takes a variable and a type', 1, 1)),
    ('type', '(all a)', ('ParseError', '1:1: (all v T) takes a variable and a type', 1, 1)),
    ('type', '(set t t)', ('ParseError', '1:1: (set T) takes exactly one type', 1, 1)),
    ('type', '(foo t)', ('ParseError', "1:1: unknown type form 'foo'", 1, 1)),
    ('type', 'e:', ('ParseError', '1:1: empty entity sort name', 1, 1)),
    ('type', '(-> e: t)', ('ParseError', '1:5: empty entity sort name', 1, 5)),
    ('type', '(->\tt\t(all a\t\tb)', ('ParseError', "1:1: unclosed '('", 1, 1)),
    ('type', '(->\r\nt\r\n', ('ParseError', "1:1: unclosed '('", 1, 1)),
    ('type', 't\r\n)', ('ParseError', "2:1: trailing input ')'", 2, 1)),
    ('type', '(-> \x0c t t)', ('ParseError', '1:1: (-> T T) takes exactly two types', 1, 1)),
    ('type', 't \x0c', ('ParseError', "1:3: trailing input '\\x0c'", 1, 3)),
    ('type', '(\x0c)', ('ParseError', "1:1: unknown type form '\\x0c'", 1, 1)),
    ('type', '(→ t t)', ('ParseError', "1:1: unknown type form '→'", 1, 1)),
    ('type', 'λ λ', ('ParseError', "1:3: trailing input 'λ'", 1, 3)),
    ('type', '(-> t t)\n  λ', ('ParseError', "2:3: trailing input 'λ'", 2, 3)),
    ('type', '(-> λ\n  (all α β) é)', ('ParseError', '1:1: (-> T T) takes exactly two types', 1, 1)),
    ('type', '(->\n t\n (all a\n', ('ParseError', "3:2: unclosed '('", 3, 2)),
    ('type', '(-> t (t))', ('ParseError', "1:7: unknown type form 't'", 1, 7)),
    ('type', '(->\r\t(set)\r\tt)', ('ParseError', '1:6: (set T) takes exactly one type', 1, 6)),
    ('type', 't\n\n\n   e:dog\t)', ('ParseError', "4:4: trailing input 'e:dog'", 4, 4)),
    ('type', '(all\x0ca a)', ('ParseError', "1:1: unknown type form 'all\\x0ca'", 1, 1)),
    ('type_sorted', 'e:cat', ('UnknownSort', '1:1: undeclared sort e:cat', 1, 1)),
    ('type_sorted', '(-> e:dog\n  (-> e:cat t))', ('UnknownSort', '2:7: undeclared sort e:cat', 2, 7)),
    ('type_sorted', '(set e:λ)', ('UnknownSort', '1:6: undeclared sort e:λ', 1, 6)),
    ('term', '', ('ParseError', 'empty input', 0, 0)),
    ('term_closed', '', ('ParseError', 'empty input', 0, 0)),
    ('term', ')', ('ParseError', "1:1: unexpected ')'", 1, 1)),
    ('term_closed', ')', ('ParseError', "1:1: unexpected ')'", 1, 1)),
    ('term', '(lam (x e:dog) (app barks x)', ('ParseError', "1:1: unclosed '('", 1, 1)),
    ('term_closed', '(lam (x e:dog) (app barks x)', ('ParseError', "1:1: unclosed '('", 1, 1)),
    ('term', '(app barks)', ('ParseError', '1:1: (app M N) is strictly binary', 1, 1)),
    ('term_closed', '(app barks)', ('ParseError', '1:1: (app M N) is strictly binary', 1, 1)),
    ('term', '(lam x t)', ('ParseError', '1:1: (lam (v T) M) expected', 1, 1)),
    ('term_closed', '(lam x t)', ('ParseError', '1:1: (lam (v T) M) expected', 1, 1)),
    ('term', '(lam (x) x)', ('ParseError', '1:1: (lam (v T) M) expected', 1, 1)),
    ('term_closed', '(lam (x) x)', ('ParseError', '1:1: (lam (v T) M) expected', 1, 1)),
    ('term', '(lam ((x) t) x)', ('ParseError', '1:1: (lam (v T) M) expected', 1, 1)),
    ('term_closed', '(lam ((x) t) x)', ('ParseError', '1:1: (lam (v T) M) expected', 1, 1)),
    ('term', '(tlam (a) x)', ('ParseError', '1:1: (tlam v M) expected', 1, 1)),
    ('term_closed', '(tlam (a) x)', ('ParseError', '1:1: (tlam v M) expected', 1, 1)),
    ('term', '(tapp x)', ('ParseError', '1:1: (tapp M T) expected', 1, 1)),
    ('term_closed', '(tapp x)', ('ParseError', '1:1: (tapp M T) expected', 1, 1)),
    ('term', '(foo x y)', ('ParseError', "1:1: unknown term form 'foo'", 1, 1)),
    ('term_closed', '(foo x y)', ('ParseError', "1:1: unknown term form 'foo'", 1, 1)),
    ('term', '(lam (x (-> t)) x)', ('ParseError', '1:9: (-> T T) takes exactly two types', 1, 9)),
    ('term_closed', '(lam (x (-> t)) x)', ('ParseError', '1:9: (-> T T) takes exactly two types', 1, 9)),
    ('term', '()', ('ParseError', '1:1: expected a term form', 1, 1)),
    ('term_closed', '()', ('ParseError', '1:1: expected a term form', 1, 1)),
    ('term', '((app))', ('ParseError', '1:1: expected a term form', 1, 1)),
    ('term_closed', '((app))', ('ParseError', '1:1: expected a term form', 1, 1)),
    ('term_closed', '(app barks\n\tzzz)', ('UnknownConstant', "2:2: unknown constant 'zzz'", 2, 2)),
    ('term', '(app barks rex) rex', ('ParseError', "1:17: trailing input 'rex'", 1, 17)),
    ('term_closed', '(app barks rex) rex', ('ParseError', "1:17: trailing input 'rex'", 1, 17)),
    ('term', '(app barks rex))', ('ParseError', "1:16: trailing input ')'", 1, 16)),
    ('term_closed', '(app barks rex))', ('ParseError', "1:16: trailing input ')'", 1, 16)),
    ('term', '(app (app AND barks)\r\n (tapp AND))', ('ParseError', '2:2: (tapp M T) expected', 2, 2)),
    ('term_closed', '(app (app AND barks)\r\n (tapp AND))', ('ParseError', '2:2: (tapp M T) expected', 2, 2)),
    ('term', '(tapp AND (foo))', ('ParseError', "1:11: unknown type form 'foo'", 1, 11)),
    ('term_closed', '(tapp AND (foo))', ('ParseError', "1:11: unknown type form 'foo'", 1, 11)),
    ('term_closed', '(app barks λ)', ('UnknownConstant', "1:12: unknown constant 'λ'", 1, 12)),
    ('term', '(app barks\x0crex)', ('ParseError', '1:1: (app M N) is strictly binary', 1, 1)),
    ('term_closed', '(app barks\x0crex)', ('ParseError', '1:1: (app M N) is strictly binary', 1, 1)),
    ('term', '(lam (x e:dog)\n\n  (app barks x) x)', ('ParseError', '1:1: (lam (v T) M) expected', 1, 1)),
    ('term_closed', '(lam (x e:dog)\n\n  (app barks x) x)', ('ParseError', '1:1: (lam (v T) M) expected', 1, 1)),
    ('term_closed', 'zzz', ('UnknownConstant', "1:1: unknown constant 'zzz'", 1, 1)),
    ('term', '(app\tbarks\t(app\trex))', ('ParseError', '1:12: (app M N) is strictly binary', 1, 12)),
    ('term_closed', '(app\tbarks\t(app\trex))', ('ParseError', '1:12: (app M N) is strictly binary', 1, 12)),
    ('tree', '', ('ParseError', 'empty input', 0, 0)),
    ('tree', 'LEAF', ('ParseError', '1:1: expected (LEAF word) | (NODE fn arg) | (TY tree TYPE...)', 1, 1)),
    ('tree', '(LEAF)', ('ParseError', '1:1: (LEAF word) expected', 1, 1)),
    ('tree', '(LEAF (a))', ('ParseError', '1:1: (LEAF word) expected', 1, 1)),
    ('tree', '(LEAF a b)', ('ParseError', '1:1: (LEAF word) expected', 1, 1)),
    ('tree', '(NODE (LEAF a))', ('ParseError', '1:1: (NODE fnTree argTree) expected', 1, 1)),
    ('tree', '(TY (LEAF a))', ('ParseError', '1:1: (TY tree TYPE...) expected', 1, 1)),
    ('tree', '(TY (LEAF a) (-> t))', ('ParseError', '1:14: (-> T T) takes exactly two types', 1, 14)),
    ('tree', '(TY (LEAF a) t (all))', ('ParseError', '1:16: (all v T) takes a variable and a type', 1, 16)),
    ('tree', '(FOO a)', ('ParseError', "1:1: unknown tree form 'FOO'", 1, 1)),
    ('tree', '((LEAF a))', ('ParseError', '1:1: expected (LEAF word) | (NODE fn arg) | (TY tree TYPE...)', 1, 1)),
    ('tree', '(NODE (LEAF a) (LEAF b)', ('ParseError', "1:1: unclosed '('", 1, 1)),
    ('tree', '(LEAF a) (LEAF b)', ('ParseError', "1:10: trailing input '('", 1, 10)),
    ('tree', '(LEAF a))', ('ParseError', "1:9: trailing input ')'", 1, 9)),
    ('tree', '(LEAF\x0ca)', ('ParseError', "1:1: unknown tree form 'LEAF\\x0ca'", 1, 1)),
    ('tree', '(NODE\n  (LEAF a)\n  (LEAF))', ('ParseError', '3:3: (LEAF word) expected', 3, 3)),
    ('tree', '(NODE (LEAF λ) (LEAF\tκ) (LEAF μ))', ('ParseError', '1:1: (NODE fnTree argTree) expected', 1, 1)),
    ('tree', ')', ('ParseError', "1:1: unexpected ')'", 1, 1)),
    ('trees', '(LEAF a) # x\n(NODE (LEAF a)\n', ('ParseError', "1:1: unclosed '('", 1, 1)),
    ('trees', '# only\n\n(LEAF)\n', ('ParseError', '1:1: (LEAF word) expected', 1, 1)),
    # lines break at "\n" alone, so form feed stays inside the line, as in 'tree'
    ('trees', '(LEAF\x0ca)', ('ParseError', "1:1: unknown tree form 'LEAF\\x0ca'", 1, 1)),
    ('trees', '(LEAF a)\r\n(LEAF b) c\r\n', ('ParseError', "1:10: trailing input 'c'", 1, 10)),
    ('trees', '(NODE (LEAF a) # (LEAF b))\n', ('ParseError', "1:1: unclosed '('", 1, 1)),
    ('trees', '\t(TY (LEAF a) (set))', ('ParseError', '1:14: (set T) takes exactly one type', 1, 14)),
    ('formula', '', ('ParseError', 'empty input', 0, 0)),
    ('formula', '(and p)', ('ParseError', '1:1: (and F F) expected', 1, 1)),
    ('formula', '(not)', ('ParseError', '1:1: (not F) expected', 1, 1)),
    ('formula', '(forall x t)', ('ParseError', '1:1: (forall (x TYPE) F) expected', 1, 1)),
    ('formula', '(exists (x) t)', ('ParseError', '1:1: (exists (x TYPE) F) expected', 1, 1)),
    ('formula', '(tlam)', ('ParseError', '1:1: (tlam v F) expected', 1, 1)),
    ('formula', '(zork x)', ('ParseError', "1:1: unknown predicate or function 'zork'", 1, 1)),
    ('formula', 'zork', ('ParseError', "1:1: unknown identifier 'zork'", 1, 1)),
    ('formula', '(forall (x e:dog) (barks x)', ('ParseError', "1:1: unclosed '('", 1, 1)),
    ('formula', '(barks rex rex)', ('ParseError', '1:1: too many arguments to barks', 1, 1)),
    ('formula', '(and (barks rex) rex)', ('ParseError', '1:18: expected a formula', 1, 18)),
    ('formula', 'rex', ('ParseError', 'expected a formula, read a term', 0, 0)),
    ('formula', '()', ('ParseError', '1:1: expected a formula form', 1, 1)),
    ('formula', '((barks) rex)', ('ParseError', '1:1: expected a formula form', 1, 1)),
    ('formula', '(lam (x e:dog)\n\t(barks y))', ('ParseError', "2:9: unknown identifier 'y'", 2, 9)),
    ('formula', '(forall (x (-> e:dog)) (barks x))', ('ParseError', '1:12: (-> T T) takes exactly two types', 1, 12)),
    ('formula', '(barks rex) (barks rex)', ('ParseError', "1:13: trailing input '('", 1, 13)),
    ('formula', '(not\r\n(barks λ))', ('ParseError', "2:8: unknown identifier 'λ'", 2, 8)),
    ('formula', '(implies (barks rex)\x0c)', ('ParseError', "1:21: unknown identifier '\\x0c'", 1, 21)),
]

LEXICON_TABLE = [
    # a fault inside a TYPE or TERM is at its line and column in the document
    ('const p : (-> t',
     ["1:1: in const p: 1:11: unclosed '('"]),
    ('word w main (app barks',
     ["entry 'w': 1:13: unclosed '('"]),
    ('coercion c : e:a -> (e:b',
     ['1:1: in coercion c: 1:14: undeclared sort e:a']),
    ('const p : t t',
     ["1:1: in const p: 1:13: trailing input 't'"]),
    ('const q : ',
     ['1:1: in const q: empty input']),
    ('sort e:dog\nword w main (lam (x e:dog)\tx))',
     ["entry 'w': 2:30: trailing input ')'"]),
    ('word w main )',
     ["entry 'w': 1:13: unexpected ')'"]),
    ('word w main (app p\n',
     ["entry 'w': 1:13: unclosed '('"]),
    ('sort e:dog\nconst barks : (-> e:dog t)\nconst rex : e:dog\nword a main (app barks rex) rex\nword b main (lam (x (-> e:dog)) x)\nword c main (app barks\tzzz)',
     ["entry 'a': 4:29: trailing input 'rex'", "entry 'b': 5:21: (-> T T) takes exactly two types", "entry 'c': 6:24: unknown constant 'zzz'"]),
    ('const p : (all a\r\nconst q : (-> t e:nope)',
     ["1:1: in const p: 1:11: unclosed '('", '2:1: in const q: 2:17: undeclared sort e:nope']),
    # lines break at "\n" alone: the form feed is part of the atom e:a\x0ct
    ('sort e:a\nconst λ : (-> e:a\x0ct)',
     ['2:1: in const λ: 2:11: (-> T T) takes exactly two types']),
    ('sort e:a\ncoercion c : e:a -> (e:b)\nconst k : (set t t)\nword k main (tapp AND (-> t))',
     ["2:1: in coercion c: 2:21: unknown type form 'e:b'", '3:1: in const k: 3:11: (set T) takes exactly one type', "entry 'k': 4:23: (-> T T) takes exactly two types"]),
    ('word-transfer w l rigid (app\n',
     ["line 1: word-transfer for undeclared word 'w'"]),
    # a declared name is one non-empty atom, or no text could name it
    ('sort e:dog extra',
     ["1:1: sort 'e:dog extra' is not one atom"]),
    ('const p q : e:a',
     ["1:1: const name 'p q' is not one atom"]),
    ('coercion c d : e:a -> e:b',
     ["1:1: coercion name 'c d' is not one atom"]),
    ('const  : e:a',
     ["1:1: const name '' is not one atom"]),
    ('const (p : e:a',
     ["1:1: const name '(p' is not one atom"]),
    ('sort e:(a',
     ["1:1: sort 'e:(a' is not one atom"]),
    # a word-transfer out of a type that no reading of its word has can never fire
    ('sort e:dog\nsort e:cat\nsort e:phys\nconst rex : e:dog\nconst p : (-> e:cat e:phys)\nword rex main rex\n'
     'word-transfer rex odd flexible p',
     ["line 7: word-transfer 'odd' can never fire: no reading of 'rex' has type e:cat"]),
    # the search fires only function-typed transfers
    ('sort e:dog\nconst rex : e:dog\nword rex main rex\nword-transfer rex odd flexible rex',
     ["line 4: word-transfer 'odd' can never fire: its type e:dog is not a function type"]),
]

PARSERS = {
    "type": lambda text, sig: parse_type(text),
    "type_sorted": lambda text, sig: parse_type(text, sig.sorts),
    "term": lambda text, sig: parse_term(text, sig),
    "term_closed": lambda text, sig: parse_term(text, sig, allow_free=False),
    "tree": lambda text, sig: parse_tree(text),
    "trees": lambda text, sig: parse_trees(text),
    "formula": lambda text, sig: parse_formula(text, sig),
}


@pytest.mark.parametrize("kind, text, expected", ERROR_TABLE, ids=lambda v: repr(v) if isinstance(v, str) else None)
def test_pinned_error(lex, kind, text, expected):
    cls, message, line, col = expected
    with pytest.raises(ParseError) as info:
        PARSERS[kind](text, lex.signature)
    e = info.value
    assert (type(e), str(e), e.line, e.col) == (getattr(errors, cls), message, line, col)


@pytest.mark.parametrize("text, expected", LEXICON_TABLE, ids=repr)
def test_pinned_lexicon_problems(text, expected):
    assert lexicon_problems(text) == expected


# ---------------------------------------------------------------------------
# Differential tests against the earlier reader


def _shape(node) -> list:
    """(atom, line, col, number of items) of every node, in preorder."""
    out, todo = [], [node]
    while todo:
        n = todo.pop()
        out.append((n.atom, n.line, n.col, None if n.items is None else len(n.items)))
        if n.items:
            todo.extend(reversed(n.items))
    return out


def _located_shape(text: str) -> list:
    """The same of every atom and list, from `text`'s located tokens: a list starts at its '('."""
    return [(None, t.line, t.col, t.n) if t == "(" else (str(t), t.line, t.col, None)
            for t in located_tokens(text) if t != ")"]


def _read(shape, text: str):
    try:
        return shape(text)
    except ParseError as e:
        return ("error", type(e), str(e), e.line, e.col)


def _assert_same(text: str):
    assert _read(_located_shape, text) == _read(lambda t: _shape(parse_sexpr_by_characters(t)), text), repr(text)


ATOMS = ("a", "t", "->", "e:dog", "xy", "λ", "aλb", "#")
SEPARATORS = (" ", "\t", "\r", "\n", "  ", "\r\n", " \x0c ", "\n\t")
PIECES = ("(", ")", " ", "\t", "\r", "\n", "\x0c") + ATOMS


def _well_formed(rng: random.Random, depth: int) -> str:
    if depth > 6 or rng.random() < 0.35:
        return rng.choice(ATOMS)
    items = [_well_formed(rng, depth + 1) for _ in range(rng.randrange(0, 4))]
    inner = rng.choice(SEPARATORS).join(items)
    return "(" + rng.choice(("", " ", "\n")) + inner + rng.choice(("", "\t", "\r\n")) + ")"


def random_text(rng: random.Random) -> str:
    """Character soup over ( ) space \\t \\r \\n \\x0c, ASCII atoms and λ, or
    a well-formed s-expression, padded, and sometimes with one piece
    inserted or deleted."""
    if rng.random() < 0.4:
        return "".join(rng.choices(PIECES, k=rng.randrange(0, 24)))
    text = rng.choice(("", " ", "\n ")) + _well_formed(rng, 0) + rng.choice(("", "\n", " \t"))
    if rng.random() < 0.5:
        i = rng.randrange(len(text) + 1)
        if rng.random() < 0.5:
            text = text[:i] + rng.choice(PIECES) + text[i:]
        else:
            text = text[:i] + text[i + 1:]
    return text


def test_random_texts_read_as_before():
    rng = random.Random(2013)
    for _ in range(100_000):
        _assert_same(random_text(rng))


def _assert_same_fields(text: str):
    """The text, each of its lines, and each part of a line a lexicon or tree
    file hands to the reader."""
    _assert_same(text)
    for line in text.splitlines():
        _assert_same(line)
        _assert_same(line.split("#", 1)[0])
        if ":" in line:
            _assert_same(line.split(":", 1)[1])
        for field in range(1, 5):
            parts = line.split(None, field)
            if len(parts) > field:
                _assert_same(parts[field])


def test_fixture_lines_read_as_before():
    for path in sorted((ROOT / "fixtures").iterdir()):
        _assert_same_fields(path.read_text(encoding="utf-8"))


def load_workloads():
    """perfbench/workloads.py, the benchmark's workload generators."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up there
    spec.loader.exec_module(workloads)
    return workloads


def test_workload_texts_read_as_before():
    workloads = load_workloads()
    for name in workloads.WORKLOADS:
        for seed in (1, 2, 3):
            w = workloads.make_workload(name, seed)
            _assert_same_fields(w.lexicon_text)
            for item in w.items:
                _assert_same(item.text)


# ---------------------------------------------------------------------------
# Line-oriented files: lines break at "\n" alone

# str.splitlines() and str.strip() also break and strip at these; the reader
# reads them as atom characters
NOT_READER_SPACE = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\xa0", "\u2028", "\u2029")
TREE_PIECES = ("(", ")", "LEAF", "NODE", "TY", "book", "e:dog", "λ", " ", "\t", "\r") + NOT_READER_SPACE


def _tree_text(rng: random.Random, depth: int) -> str:
    gap = rng.choice(NOT_READER_SPACE) if rng.random() < 0.05 else rng.choice((" ", "\t", " \r "))
    roll = rng.random()
    if depth > 4 or roll < 0.4:
        return f"(LEAF{gap}{rng.choice(('book', 'a', 'λ'))})"
    if roll < 0.8:
        return f"(NODE{gap}{_tree_text(rng, depth + 1)}{gap}{_tree_text(rng, depth + 1)})"
    return f"(TY{gap}{_tree_text(rng, depth + 1)}{gap}{rng.choice(('e:dog', '(set t)', 't'))})"


def one_line_text(rng: random.Random) -> str:
    """A tree over every separator but "\n", or character soup, padded."""
    if rng.random() < 0.3:
        return "".join(rng.choices(TREE_PIECES, k=rng.randrange(0, 16)))
    text = _tree_text(rng, 0)
    if rng.random() < 0.4:
        i = rng.randrange(len(text) + 1)
        text = text[:i] + rng.choice(TREE_PIECES) + text[i:]
    return rng.choice(("", " ", "\t\r", "\x0c")) + text + rng.choice(("", "\r", " \t", " \x0c", "\u2028"))


def _trees(parse, text: str):
    try:
        return parse(text)
    except ParseError as e:
        return ("error", type(e), str(e), e.line, e.col)


def test_parse_trees_reads_one_line_as_parse_tree_does():
    """parse_trees reads a line from its first character that is not the
    reader's whitespace: the same trees, or the same error, as parse_tree."""
    rng = random.Random(18)
    read = 0
    for _ in range(20_000):
        text = one_line_text(rng)
        line = text.lstrip(" \t\r")
        expected = _trees(lambda t: [parse_tree(t)], line) if line.strip(" \t\r") else []
        assert _trees(parse_trees, text) == expected, repr(text)
        read += isinstance(expected, list) and expected != []
    assert read > 2_000


def test_crlf_files_load_as_lf_files(lex):
    lex_text = (ROOT / "fixtures" / "english.lex").read_text(encoding="utf-8")
    crlf = load_lexicon(lex_text.replace("\n", "\r\n"))
    assert (crlf.signature, crlf.entries) == (lex.signature, lex.entries)
    trees_text = (ROOT / "fixtures" / "trees.txt").read_text(encoding="utf-8")
    assert parse_trees(trees_text.replace("\n", "\r\n")) == parse_trees(trees_text)
    assert lexicon_problems("sort e:a\r\nconst p : (-> e:b t)\r\n") == ["2:1: in const p: 2:15: undeclared sort e:b"]


# ---------------------------------------------------------------------------
# Nesting limit


def test_deep_arrow_is_a_parse_error():
    text = "(-> t " * 100_000 + "t" + ")" * 100_000
    with pytest.raises(ParseError) as info:
        parse_type(text)
    # the 901st "(" opens the 901st list
    assert MAX_NESTING == 900
    assert (str(info.value), info.value.line, info.value.col) == ("1:5401: nesting deeper than 900", 1, 5401)


@pytest.mark.parametrize("text, message", [
    ("(" * 901 + ")" * 901, "1:901: nesting deeper than 900"),
    ("(a\n" * 901, "901:1: nesting deeper than 900"),
    ("(" * 900 + ")" * 901, "1:1801: trailing input ')'"),
    ("(" * 900 + ")" * 899, "1:1: unclosed '('"),
], ids=["too-deep", "too-deep-over-lines", "deepest-then-trailing", "deepest-unclosed"])
def test_nesting_limit_and_the_errors_around_it(lex, text, message):
    """The located tokens raise these errors, and so does every reader of one text."""
    readers = [located_tokens] + [lambda t, parse=parse: parse(t, lex.signature)
                                  for kind, parse in PARSERS.items() if kind != "trees"]
    for read in readers:
        with pytest.raises(ParseError) as info:
            read(text)
        assert str(info.value) == message


def test_deepest_allowed_text_reads_typechecks_and_prints_as_before(lex):
    sig = lex.signature
    arrow = "(-> t " * MAX_NESTING + "t" + ")" * MAX_NESTING
    _assert_same(arrow)
    assert print_type(parse_type(arrow)) == arrow
    # the innermost binder list (x t) is the 900th open list
    lams = "(lam (x t) " * (MAX_NESTING - 1) + "x" + ")" * (MAX_NESTING - 1)
    _assert_same(lams)
    term = parse_term(lams, sig)
    assert print_term(term) == lams
    assert print_type(typecheck(term, sig)) == "(-> t " * (MAX_NESTING - 1) + "t" + ")" * (MAX_NESTING - 1)


def test_deepest_allowed_formulas_read(lex):
    """A formula level takes one Python frame, so every formula the reader
    admits reads, and a malformed one raises ParseError."""
    sig = lex.signature
    n = MAX_NESTING - 1
    for text, step in [
        ("(not " * n + "(barks rex)" + ")" * n, lambda f: f.args[0]),
        ("(and (barks rex) " * n + "(barks rex)" + ")" * n, lambda f: f.args[1]),
        ("(forall (x e:dog) " * n + "(barks x)" + ")" * n, lambda f: f.body),
    ]:
        f = parse_formula(text, sig)
        for _ in range(n):
            f = step(f)
        assert f.pred == "barks"
    with pytest.raises(ParseError) as info:
        parse_formula("(not " * (n - 1) + "(lam (x e:dog) x)" + ")" * (n - 1), sig)
    assert str(info.value) == f"1:{5 * (n - 1) + 1}: expected a formula"


# ---------------------------------------------------------------------------
# Fuzz: every reader returns a node or raises ParseError, at any depth

FUZZ_PIECES = ("(", ")", " ", "\t", "\r", "\n", "\x0c", "#", "->", "all", "set", "lam", "app", "tlam", "tapp",
               "LEAF", "NODE", "TY", "and", "implies", "not", "forall", "exists", "eps", "tau", "t", "e:", "e:dog",
               "e:cat", "x", "barks", "rex", "AND", "λ")
NESTINGS = ("(", "(not ", "(-> t ", "(all a ", "(set ", "(lam (x t) ", "(app barks ", "(tapp ", "(NODE (LEAF a) ",
            "(TY ", "(forall (x e:dog) ", "(and (barks rex) ", "(lam (x ", "(barks ")


@st.composite
def reader_texts(draw):
    """Soup over parens, separators, form keywords and atoms, half of the
    time inside one kind of list opened 3 fewer to 2 more times than
    MAX_NESTING, and closed once fewer to once more."""
    text = "".join(draw(st.lists(st.sampled_from(FUZZ_PIECES), max_size=24)))
    if draw(st.booleans()):
        depth = draw(st.integers(MAX_NESTING - 3, MAX_NESTING + 2))
        text = draw(st.sampled_from(NESTINGS)) * depth + text + ")" * (depth + draw(st.integers(-1, 1)))
    return text


@settings(max_examples=60, deadline=None, derandomize=True)
@given(text=reader_texts())
def test_every_reader_returns_a_node_or_raises_a_parse_error(lex, text):
    """No StopIteration, IndexError, RecursionError or other error escapes."""
    for parse in PARSERS.values():
        try:
            parse(text, lex.signature)
        except ParseError:
            pass
