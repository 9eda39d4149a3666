"""The token walkers against the two-pass reader they replaced.

parse_type, parse_term, parse_tree and parse_formula each have one token
walker.  syntax.read_text walks a text's bare tokens with it in one pass,
and where that pass refuses the text it walks the located tokens again, and
the walker raises the error itself.  The oracle is the two-pass
reader, parse_sexpr and a grammar walker over its nodes, kept in
reference_reader.py.  The inputs: random types, terms, trees and formulas
printed with random separators, the same texts with one piece inserted or
deleted (and then one more), every string of up to five tokens over a few
pieces, every atom in every place of every form, the fixture lines, the
benchmark's workload texts, and text nested at the limit and one deeper.  On
each, each public reader gives the two-pass reader's node (equal, and
printing the same) or its error (class, message, line and column), and the
one pass refuses exactly the texts the two-pass reader rejects.
"""

import itertools
import random
import re
from unittest import mock

import pytest

from polysem import syntax
from polysem.composer import Leaf, Node, _tree_from_tokens, parse_tree
from polysem.errors import ParseError
from polysem.hol import Formula, _formula_from_tokens, parse_formula, print_formula
from polysem.inductives import register_finset, register_nat
from polysem.lexicon import builtin_signature, load_lexicon
from polysem.syntax import (
    MAX_NESTING,
    Const,
    entity_sort,
    parse_term,
    parse_type,
    print_term,
    print_type,
    term_from_tokens,
    type_from_tokens,
)
import reference_reader
from conftest import within_stack
from formula_gen import random_formula
from random_terms import TermGenerator
from reference_reader import _term_from_sexpr, _tree_from_sexpr, parse_sexpr, type_from_sexpr
from test_node_sharing import _nodes
from test_reader import PIECES, ROOT, SEPARATORS, load_workloads


class _Located(Exception):
    pass


def _located(text):
    raise _Located


def one_pass(text: str, read, *context):
    """What read_text builds from `text` in its one pass over the bare tokens; None where
    that pass refuses the text and the located walk would begin."""
    with mock.patch.object(syntax, "located_tokens", _located):
        try:
            return syntax.read_text(text, read, *context)
        except _Located:
            return None


def _readers(sig):
    """kind -> (one pass, public reader, two-pass reader, printer)."""
    def term(allow_free):
        return (lambda text: one_pass(text, term_from_tokens, sig, frozenset(), allow_free, {}),
                lambda text: parse_term(text, sig, allow_free),
                lambda text: _term_from_sexpr(parse_sexpr(text), sig, frozenset(), allow_free, {}),
                print_term)
    return {
        "type": (lambda text: one_pass(text, type_from_tokens, None), parse_type,
                 lambda text: type_from_sexpr(parse_sexpr(text), None), print_type),
        "type_sorted": (lambda text: one_pass(text, type_from_tokens, sig.sorts),
                        lambda text: parse_type(text, sig.sorts),
                        lambda text: type_from_sexpr(parse_sexpr(text), sig.sorts), print_type),
        "term": term(True),
        "term_closed": term(False),
        "tree": (lambda text: one_pass(text, _tree_from_tokens), parse_tree,
                 lambda text: _tree_from_sexpr(parse_sexpr(text)), _print_tree),
        # a term read where a formula is asked for is parse_formula's refusal, not the walker's
        "formula": (lambda text: _formula(one_pass(text, _formula_from_tokens, sig, {})),
                    lambda text: parse_formula(text, sig),
                    lambda text: reference_reader.parse_formula(text, sig), print_formula),
    }


def _formula(read):
    return read if isinstance(read, Formula) else None


def _print_tree(tree) -> str:
    """The tree in the concrete syntax, without recursion."""
    out, todo = [], [tree]
    while todo:
        t = todo.pop()
        if isinstance(t, str):
            out.append(t)
        elif isinstance(t, Leaf):
            out.append(f"(LEAF {t.word})")
        elif isinstance(t, Node):
            todo += [")", t.arg, " ", t.fn, "(NODE "]
        else:
            todo += [" ".join(map(print_type, t.ty_args)) + ")", " ", t.sub, "(TY "]
    return "".join(out)


def _outcome(read, show, text):
    try:
        node = read(text)
    except ParseError as e:
        return ("error", type(e), str(e), e.line, e.col)
    return ("read", node, show(node))


def _check(readers, kind: str, text: str) -> bool:
    """Asserts that the readers of `kind` agree on `text`; whether the one pass
    read it."""
    fast, public, two_pass, show = readers[kind]
    want, got = _outcome(two_pass, show, text), _outcome(public, show, text)
    assert got[0] == want[0] and got[2:] == want[2:] and got[1] == want[1], (kind, text)
    one = fast(text)
    assert (one is None) == (want[0] == "error"), (kind, text)
    if one is not None:
        assert one == want[1] and show(one) == want[2], (kind, text)
    if kind.startswith("term") and want[0] == "read":
        assert got[1]._consts == {n.name for n in _nodes(got[1]) if isinstance(n, Const)}, text
    return one is not None


def _check_all(readers, text: str) -> None:
    for kind in readers:
        _check(readers, kind, text)


_TOKEN = re.compile(r"[()]|[^() \t\r\n]+")
SPACES = tuple(s for s in SEPARATORS if not s.strip(" \t\r\n"))
INSERTED = PIECES + ("lam", "app", "tlam", "tapp", "->", "all", "set", "e:", "LEAF", "NODE", "TY", "Zero")
FORMULA_INSERTED = PIECES + ("and", "implies", "not", "forall", "exists", "eps", "tau", "lam", "tlam", "barks",
                             "rex", "(x e:dog)")


def _respaced(rng: random.Random, text: str) -> str:
    """`text`'s tokens joined by random separators (no separator, sometimes,
    next to a parenthesis)."""
    seps = SEPARATORS if rng.random() < 0.1 else SPACES
    tokens = _TOKEN.findall(text)
    out = [tokens[0]]
    for prev, tok in zip(tokens, tokens[1:]):
        paren = "(" in (prev, tok) or ")" in (prev, tok)
        out.append("" if paren and rng.random() < 0.5 else rng.choice(seps))
        out.append(tok)
    return rng.choice(("", " ", "\n")) + "".join(out) + rng.choice(("", "\n", " \t"))


def _mutated(rng: random.Random, text: str, pieces=INSERTED) -> str:
    i = rng.randrange(len(text) + 1)
    if rng.random() < 0.5:
        return text[:i] + rng.choice(pieces) + text[i:]
    return text[:i] + text[i + 1:]


def _tree_text(rng: random.Random, gen: TermGenerator, depth: int = 0) -> str:
    roll = rng.random()
    if depth > 3 or roll < 0.4:
        return f"(LEAF {rng.choice(('book', 'a', 'λ', 'e:dog'))})"
    if roll < 0.8:
        return f"(NODE {_tree_text(rng, gen, depth + 1)} {_tree_text(rng, gen, depth + 1)})"
    tys = "".join(" " + print_type(gen.random_type()) for _ in range(rng.randint(0, 2)))  # none is an error
    return f"(TY {_tree_text(rng, gen, depth + 1)}{tys})"


def test_random_texts_read_as_by_the_two_pass_reader():
    base = register_finset(register_nat(builtin_signature()))
    base = base.extend(sorts=[entity_sort(s) for s in ("dog", "phys", "book")])
    rng = random.Random(23)
    gen = TermGenerator(base, random.Random(2013), max_depth=4, runs=True)
    texts = []
    for _ in range(100):
        texts.append(print_type(gen.random_type()))
        texts.append(print_term(gen.random_term(gen.random_type())))
        texts.append(_tree_text(rng, gen))
    readers = _readers(gen.sig)
    read = 0
    for text in texts:
        spaced = _respaced(rng, text)
        once = _mutated(rng, spaced)
        for variant in (spaced, once, _mutated(rng, once)):
            for kind in readers:
                read += _check(readers, kind, variant)
    assert read > 300


def test_random_formulas_read_as_by_the_two_pass_reader(lex):
    """formula_gen's formulas, printed with random separators, and the same
    texts with one piece inserted or deleted, and then one more."""
    readers = _readers(lex.signature)
    rng = random.Random(26)
    read = 0
    for _ in range(200):
        spaced = _respaced(rng, print_formula(random_formula(rng, lex.signature)))
        once = _mutated(rng, spaced, FORMULA_INSERTED)
        for variant in (spaced, once, _mutated(rng, once, FORMULA_INSERTED)):
            read += _check(readers, "formula", variant)
    assert read > 250


def test_short_token_strings_read_as_by_the_two_pass_reader(lex):
    """Every string of one to five tokens over ( ) x and one form's keyword."""
    readers = _readers(lex.signature)
    forms = {("type", "type_sorted"): ("->", "all", "set"), ("term", "term_closed"): ("app", "lam", "tlam", "tapp"),
             ("tree",): ("LEAF", "NODE", "TY"), ("formula",): ("and", "not", "forall", "tlam", "barks")}
    for kinds, keywords in forms.items():
        for keyword in keywords:
            for n in range(1, 6):
                for tokens in itertools.product(("(", ")", "x", keyword), repeat=n):
                    for kind in kinds:
                        _check(readers, kind, " ".join(tokens))


# every atom in every place of every form, and each form with one token too
# many and its closing parenthesis missing
TEMPLATES = ("{}", "(-> {} t)", "(all {} t)", "(set {})", "(app barks {})", "(lam ({} t) x)", "(lam (x {}) x)",
             "(tlam {} x)", "(tapp x {})", "(LEAF {})", "(NODE (LEAF a) {})", "(TY (LEAF a) {})",
             "(-> t t {}", "(all a t {}", "(set t {}", "(app barks x {}", "(lam (x t {} x)", "(lam (x t) x {}",
             "(tlam a x {}", "(tapp x t {}", "(LEAF a {}", "(NODE (LEAF a) (LEAF a) {}",
             "(not {})", "(and (barks rex) {})", "(forall ({} e:dog) (barks rex))", "(exists (x {}) (barks x))",
             "(eps (x e:dog) {})", "(tlam {} (barks rex))", "(barks {})", "(∀ {} (lam (x e:dog) (barks x)))",
             "(not (barks rex) {}", "(lam (x e:dog) (barks x) {}")
ATOMS = ("t", "e:", "e:dog", "e:cat", "x", "barks", "zzz", "λ", "\x0c", "lam", "(", ")")


def test_atoms_in_every_place_read_as_by_the_two_pass_reader(lex):
    readers = _readers(lex.signature)
    for template in TEMPLATES:
        for atom in ATOMS:
            _check_all(readers, template.format(atom))


def _fields(text: str):
    """The text, each of its lines, and each part of a line a lexicon or tree
    file hands to the reader."""
    yield text
    for line in text.split("\n"):
        yield line.split("#", 1)[0]
        if ":" in line:
            yield line.split(":", 1)[1]
        if "->" in line:
            yield from line.split(":", 1)[-1].split("->")
        for field in range(1, 5):
            parts = line.split(None, field)
            if len(parts) > field:
                yield parts[field]


def test_fixture_lines_read_as_by_the_two_pass_reader(lex):
    readers = _readers(lex.signature)
    for path in sorted((ROOT / "fixtures").iterdir()):
        for text in set(_fields(path.read_text(encoding="utf-8"))):
            _check_all(readers, text)


def test_workload_texts_read_in_one_pass():
    """Every item, as the workload reads it, and the lexicon lines of seed 1."""
    workloads = load_workloads()
    for name in workloads.WORKLOADS:
        for seed in (1, 2, 3):
            w = workloads.make_workload(name, seed)
            readers = _readers(load_lexicon(w.lexicon_text).signature)
            if seed == 1:
                for text in set(_fields(w.lexicon_text)):
                    _check_all(readers, text)
            kind = "term_closed" if name == "arith" else "tree"
            for text in {item.text for item in w.items}:
                assert _check(readers, kind, text), (name, seed, text)


@pytest.mark.parametrize("depth", [MAX_NESTING, MAX_NESTING + 1])
def test_text_nested_at_the_limit(lex, depth):
    """At the limit the one pass reads the text; one list deeper it refuses it,
    and the two-pass reader's error is raised."""
    readers = _readers(lex.signature)
    n = depth - 1
    for kind, text in [
        ("type", "(-> t " * depth + "t" + ")" * depth),
        ("type", "(all a " * n + "(set a)" + ")" * n),
        ("term", "(lam (x t) " * n + "x" + ")" * n),
        ("term_closed", "(app barks " * n + "(tapp rex e:dog)" + ")" * n),
        ("term", "(lam (x t) " * (n - 2) + "(lam (y (-> t t)) y)" + ")" * (n - 2)),
        ("tree", "(NODE (LEAF a) " * n + "(LEAF a)" + ")" * n),
        ("tree", "(TY " * n + "(LEAF a)" + " (set t))" * n),
        ("formula", "(not " * n + "(barks rex)" + ")" * n),
        ("formula", "(forall (x e:dog) " * n + "(barks x)" + ")" * n),
        ("formula", "(not " * (n - 2) + "(∀ e:dog (lam (x e:dog) (barks x)))" + ")" * (n - 2)),
    ]:
        assert within_stack(_check, readers, kind, text) == (depth == MAX_NESTING), (kind, depth)
