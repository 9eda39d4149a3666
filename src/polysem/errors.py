"""Exception hierarchy shared by all polysem modules."""

from __future__ import annotations


class PolysemError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(PolysemError):
    """Malformed source text, with 1-based line/column when known."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line, self.col, self.reason = line, col, message
        if line:
            message = f"{line}:{col}: {message}"
        super().__init__(message)


class UnknownSort(ParseError):
    pass


class UnknownConstant(ParseError):
    pass


class TypeCheckError(PolysemError):
    """Base class for typing failures; `path` locates the offending subterm,
    as a tuple of steps or as a chain of (parent, step) pairs."""

    def __init__(self, message: str, path: tuple = ()):
        steps = ()
        while path and isinstance(path[0], tuple):
            path, steps = path[0], (path[1],) + steps
        self.path = path = path + steps
        if path:
            message = f"{message} (at {'.'.join(path)})"
        super().__init__(message)


class TypeMismatch(TypeCheckError):
    def __init__(self, expected, found, path: tuple = ()):
        self.expected = expected
        self.found = found
        super().__init__(f"expected {expected}, found {found}", path)


class UnboundVariable(TypeCheckError):
    pass


class IllFormedType(TypeCheckError):
    pass


class FuelExhausted(PolysemError):
    """Reduction ran out of fuel.  Diagnostic only: a well-typed term must
    normalize long before the default fuel is spent."""


class CoercionError(PolysemError):
    pass


class IncoherentGraph(CoercionError):
    """find_coercion was called on a graph that fails the coherence check."""


class BrokenChain(CoercionError):
    """compose_path was given a non-chaining (or empty) edge list."""


class LexiconError(PolysemError):
    pass


class DuplicateWord(LexiconError):
    pass


class TypeErrorInEntry(LexiconError):
    def __init__(self, word: str, detail: Exception):
        self.word = word
        self.detail = detail
        super().__init__(f"entry {word!r}: {detail}")


class IncoherentCoercions(LexiconError):
    def __init__(self, report):
        self.report = report
        super().__init__(f"coercion graph is incoherent: {report.describe()}")


class UnknownWord(PolysemError):
    def __init__(self, word: str):
        self.word = word
        super().__init__(f"word {word!r} is not in the lexicon")


class SortClash(PolysemError):
    """An inductive extension would redeclare an existing sort or constant."""


class ExtractError(PolysemError):
    """Base class for term-to-formula reading failures."""


class NotNormal(ExtractError):
    pass


class NotPropType(ExtractError):
    pass


class UnexpectedHead(ExtractError):
    """A variable applied to arguments, or of type t, was met while reading a
    formula: such a term is canonical but has no formula yet."""
