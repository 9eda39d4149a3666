"""polysem: semantic composition over a polymorphic glue logic.

A lexicon endows words with typed lambda-terms (plus optional meaning
transfers); binary parse trees compose those terms, inserting coercions
where the sorts demand it; normalization yields terms of the proposition
type that read back as many-sorted higher-order logic formulas.
"""

from .coercion import (
    BaseCoercion,
    CoercionGraph,
    check_coherence,
    find_coercion,
)
from .composer import (
    Analysis,
    Leaf,
    Node,
    TyAnno,
    compose,
    diagnose,
    parse_tree,
    parse_trees,
)
from .hol import (
    Formula,
    HolTerm,
    LogicProfile,
    classify,
    extract_formula,
    formula_to_term,
    parse_formula,
    print_formula,
)
from .inductives import numeral, numeral_value, register_finset, register_nat
from .kernel import (
    NormalForm,
    TypingContext,
    eta_expand,
    expand_definitions,
    normalize,
    reduce_once,
    substitute,
    substitute_ty,
    typecheck,
)
from .lexicon import (
    LexEntry,
    Lexicon,
    TransferTerm,
    builtin_signature,
    load_lexicon,
    load_lexicon_file,
)
from .syntax import (
    App,
    Arrow,
    Base,
    Const,
    Forall,
    Lam,
    PROP,
    Signature,
    Sort,
    SetOf,
    Term,
    TyApp,
    TyLam,
    TyVar,
    Type,
    Var,
    alpha_eq,
    parse_term,
    parse_type,
    print_term,
    print_type,
)

__version__ = "0.1.0"
