import pathlib

import pytest

from polysem.lexicon import builtin_signature, load_lexicon_file
from polysem.syntax import entity_sort, parse_type

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

TEST_SORTS = ["dog", "ani", "phys", "book", "info", "chair", "human", "town", "club"]


def within_stack(call, *args):
    """call(*args), failing the test on a RecursionError outside the handler:
    an error raised inside it would have pytest compare the locals of its
    thousand frames, which takes minutes, to report it."""
    try:
        return call(*args)
    except RecursionError:
        pass
    pytest.fail(f"{call.__name__} overflowed the stack", pytrace=False)


@pytest.fixture(scope="session")
def fixture_dir():
    return FIXTURES


@pytest.fixture(scope="session")
def lex():
    return load_lexicon_file(FIXTURES / "english.lex")


@pytest.fixture(scope="session")
def sig():
    """Builtin signature extended with the demo sorts and a few constants."""
    base = builtin_signature().extend(sorts=[entity_sort(n) for n in TEST_SORTS])
    types = {
        "sleeps": "(-> e:ani t)",
        "barks": "(-> e:dog t)",
        "heavy": "(-> e:phys t)",
        "interesting": "(-> e:info t)",
        "dog?": "(-> e:dog t)",
        "p": "t",
        "q": "t",
        "b": "e:book",
        "rex": "e:dog",
        "chairObj": "e:chair",
        "f0": "(-> e:book e:info)",
        "g0": "(-> e:book e:phys)",
    }
    return base.extend(constants={k: parse_type(v, base.sorts | frozenset(map(entity_sort, TEST_SORTS)))
                                  for k, v in types.items()})
