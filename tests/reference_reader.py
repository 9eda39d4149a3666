"""The s-expression reader as it stood before the single-pass rewrite: a
per-character tokenizer and a reader that recurses once per nesting level.
Kept verbatim as the oracle of the differential tests in test_reader.py."""

from dataclasses import dataclass

from polysem.errors import ParseError


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


def parse_sexpr(text: str) -> _SexprNode:
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty input")
    node, pos = _read_sexpr(tokens, 0)
    if pos != len(tokens):
        t = tokens[pos]
        raise ParseError(f"trailing input {t.text!r}", t.line, t.col)
    return node
