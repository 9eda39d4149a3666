"""The value classes: Sort and the Term/Type node classes of syntax.py, the
parse trees of composer.py, and the formula and HOL term nodes of hol.py.

Every node class and Sort refuses assignment and deletion, matches by its
fields in order, copies and pickles, and (but Sort, a tuple) can be weakly
referenced.  On the seed-4242 random corpus and the seed-1 items of every
workload, the reprs and prints, and the partition of the nodes into ==
classes, have the digests they had when the node classes were frozen
dataclasses; so do the formulas' reprs and prints and their == partition,
on the formulas of those items, of the generated and of the higher-order
inputs of test_formula_facts.py.  ==, hash and repr of terms, types, trees
and formulas hold at the reader's nesting limit, and formulas compare their
types up to α.  Every builtin signature has its own copy of AND's definition
and its own AND ∀, so the definition read at import remembers nothing under
a lexicon's signature.
"""

import copy
import hashlib
import pickle
import weakref
from dataclasses import FrozenInstanceError

import pytest

from polysem.composer import parse_tree, parse_trees
from polysem.hol import SEXPR, Atom, Conn, ConstApp, Embed, HAbs, Hilbert, HTyAbs, HVar, Quant, print_formula
from polysem.inductives import register_finset, register_nat
from polysem.kernel import typed_apply
from polysem.lexicon import AND_SIGNATURE, AND_TERM, AND_TYPE, builtin_signature, load_lexicon
from polysem.syntax import (
    MAX_NESTING,
    PROP,
    PROP_SORT,
    App,
    Arrow,
    Base,
    Const,
    Forall,
    Lam,
    SetOf,
    Signature,
    Sort,
    Term,
    TyApp,
    TyLam,
    TyVar,
    Type,
    Var,
    entity_sort,
    parse_term,
    parse_type,
    print_term,
    print_type,
)
from random_terms import generate_corpus
from test_formula_facts import INPUTS
from test_reader import load_workloads

FIELDS = {
    Base: ("sort",), TyVar: ("name",), Arrow: ("domain", "codomain"), Forall: ("binder", "body"),
    SetOf: ("elem",), Var: ("name",), Const: ("name", "declared_type"), Lam: ("binder", "binder_type", "body"),
    App: ("fn", "arg"), TyLam: ("binder", "body"), TyApp: ("fn", "ty_arg"), Sort: ("kind", "name"),
    Atom: ("pred", "pred_type", "ty_args", "args"), Conn: ("conn", "args"), Quant: ("kind", "var", "sort_type", "body"),
    HVar: ("name", "var_type"), ConstApp: ("const", "const_type", "ty_args", "args"),
    Hilbert: ("kind", "var", "sort_type", "body"), HAbs: ("var", "var_type", "body"), HTyAbs: ("var", "body"),
    Embed: ("formula",),
}
DOG = Base(entity_sort("dog"))
BARKS = Atom("barks", Arrow(DOG, PROP), (), (HVar("x", DOG),))
EXAMPLES = {
    Base: DOG, TyVar: TyVar("a"), Arrow: Arrow(DOG, PROP), Forall: Forall("a", TyVar("a")), SetOf: SetOf(DOG),
    Var: Var("x"), Const: Const("rex", DOG), Lam: Lam("x", DOG, Var("x")), App: App(Var("f"), Var("x")),
    TyLam: TyLam("a", Var("x")), TyApp: TyApp(Var("f"), DOG), Sort: entity_sort("dog"),
    Atom: BARKS, Conn: Conn("not", (BARKS,)), Quant: Quant("forall", "x", DOG, BARKS), HVar: HVar("x", DOG),
    ConstApp: ConstApp("same", Forall("a", Arrow(TyVar("a"), TyVar("a"))), (DOG,), (HVar("x", DOG),)),
    Hilbert: Hilbert("epsilon", "x", DOG, BARKS), HAbs: HAbs("x", DOG, BARKS),
    HTyAbs: HTyAbs("a", HVar("y", TyVar("a"))), Embed: Embed(BARKS),
}

# Taken with the node classes as frozen dataclasses and Sort as one: the nodes
# met, then the SHA-256 of the roots' reprs and prints and of the == partition.
DIGESTS = (1_089_311, "5cab17308deffa489fc3290206f1f62ebacbb7ee8d55117ac58d08a6632ae6d8",
           "fa21c7117ec4f055a7379d0d63e4db3a8f11fd43bd7cdeb9e2a0691416891e52")


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)
def test_values_are_frozen_and_match_by_their_fields(cls):
    value = EXAMPLES[cls]
    for name in FIELDS[cls] + ("_key", "other"):
        with pytest.raises(FrozenInstanceError):
            setattr(value, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(value, name)
    assert cls.__match_args__ == FIELDS[cls]
    assert cls(*(getattr(value, name) for name in FIELDS[cls])) == value
    for copied in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(copied) is cls and copied == value and repr(copied) == repr(value)
    if cls is Sort:  # CPython gives a tuple subclass no weak references
        with pytest.raises(TypeError):
            weakref.ref(value)
    else:
        assert weakref.ref(value)() is value


def test_a_sort_is_the_tuple_of_its_kind_and_name():
    dog = entity_sort("dog")
    assert dog == ("entity", "dog") and hash(dog) == hash(("entity", "dog")) and dog != entity_sort("cat")
    assert (str(dog), repr(dog)) == ("e:dog", "Sort(kind='entity', name='dog')")
    assert (str(PROP_SORT), repr(PROP_SORT)) == ("t", "Sort(kind='prop', name='')")
    # as a tuple, a sort also unpacks, indexes and orders as (kind, name)
    (kind, name), cat = dog, entity_sort("cat")
    assert (kind, name, len(dog), dog[1]) == ("entity", "dog", 2, "dog")
    assert sorted([dog, PROP_SORT, cat]) == [cat, dog, PROP_SORT] and cat < ("entity", "cow") < dog
    for args, message in [(("bogus",), "bad sort kind 'bogus'"), (("entity",), "entity sorts must be named"),
                          (("entity", ""), "entity sorts must be named"),
                          (("prop", "x"), "the proposition sort is unnamed")]:
        with pytest.raises(ValueError) as caught:
            Sort(*args)
        assert str(caught.value) == message


def _walk(root):
    """The Term and Type nodes of `root` in preorder, a shared part at each of its places."""
    out, todo = [], [root]
    while todo:
        x = todo.pop()
        out.append(x)
        todo += reversed([part for name in FIELDS[type(x)] if isinstance(part := getattr(x, name), (Term, Type))])
    return out


@pytest.fixture(scope="module")
def pipeline():
    """(roots, lexicons, formulas): the seed-4242 corpus, then per workload its
    lexicon's entry terms and types and, over the items of seed 1, each parse
    tree, analysis term, normal form, type and η-long reading, or each normal
    form; the formulas of those readings, then the generated and higher-order
    formulas of test_formula_facts.py."""
    base = register_finset(register_nat(builtin_signature()))
    roots, lexicons, formulas = list(generate_corpus(base, seed=4242, count=1000, use_inductives=True)[0]), [], []
    workloads = load_workloads()
    api = workloads.make_api()
    for name in workloads.WORKLOADS:
        w = workloads.make_workload(name, 1)
        lex = load_lexicon(w.lexicon_text)
        lexicons.append(lex)
        for entry in lex.entries.values():
            roots += [entry.main_term, entry.ty] + [x for tr in entry.transfers for x in (tr.term, tr.ty)]
        for item in w.items:
            out = w.run(api, lex, item.text)
            if name == "arith":
                roots.append(out.normal)
                continue
            roots.append(parse_tree(item.text))
            roots += [x for a in out.analyses for x in (a.term, a.normal_term, a.result_type)]
            roots += [reading[0] for reading in out.readings]
            formulas += [reading[1] for reading in out.readings]
    return roots, lexicons, formulas + INPUTS["generated"]() + INPUTS["higher-order"]()


def test_reprs_prints_and_equality_classes_are_as_before(pipeline):
    shown, classes, partition, count = hashlib.sha256(), {}, hashlib.sha256(), 0
    for root in pipeline[0]:
        printed = print_term(root) if isinstance(root, Term) else print_type(root) if isinstance(root, Type) else ""
        shown.update(f"{root!r}\t{printed}\n".encode())
        for x in _walk(root) if isinstance(root, (Term, Type)) else [root]:
            partition.update(f"{classes.setdefault(x, len(classes))}\n".encode())
            count += 1
    assert (count, shown.hexdigest(), partition.hexdigest()) == DIGESTS


# Taken with the formula classes as frozen dataclasses: the formula nodes met,
# then the SHA-256 of the roots' reprs and prints and of the == partition.
FORMULA_DIGESTS = (51_266, "c12a939797f224b943225e8878d7c604c3f2711ee768026c66d2bf1b1d59d287",
                   "c7503c4b07f954e7b14882481c1056ea616fba8995c36d3dade3e7bd20373704")


FORMULA_NODES = {Atom, Conn, Quant, HVar, ConstApp, Hilbert, HAbs, HTyAbs, Embed}


def _formula_nodes(root):
    """The formula and HOL term nodes of `root`, a shared part at each of its places."""
    out, todo = [], [root]
    while todo:
        out.append(x := todo.pop())
        for value in (getattr(x, name) for name in FIELDS[type(x)]):
            todo += [v for v in (value if isinstance(value, tuple) else (value,)) if type(v) in FORMULA_NODES]
    return out


def test_formula_reprs_prints_and_equality_classes_are_as_before(pipeline):
    shown, classes, partition, count = hashlib.sha256(), {}, hashlib.sha256(), 0
    for root in pipeline[2]:
        shown.update(f"{root!r}\t{print_formula(root, SEXPR)}\n".encode())
        for x in _formula_nodes(root):
            partition.update(f"{classes.setdefault(x, len(classes))}\n".encode())
            count += 1
    assert (count, shown.hexdigest(), partition.hexdigest()) == FORMULA_DIGESTS


N, K = MAX_NESTING, MAX_NESTING - 1  # lists at the limit; K forms, each holding one more list
# (reader, text, repr, leaves, their reprs): at "@", each leaf in turn
DEEP = [
    ("type", "(-> t " * N + "@" + ")" * N, "Arrow(Base(t), " * N + "@" + ")" * N, ("t", "e:dog"),
     ("Base(t)", "Base(e:dog)")),
    ("term", "(app f " * N + "@" + ")" * N, "App(Var(f), " * N + "@" + ")" * N, ("x", "y"), ("Var(x)", "Var(y)")),
    ("term", "(lam (x t) " * K + "(tapp @ t)" + ")" * K, "Lam(x:t, " * K + "TyApp(@, t)" + ")" * K, ("x", "y"),
     ("Var(x)", "Var(y)")),
    ("tree", "(NODE (LEAF a) " * K + "(LEAF @)" + ")" * K, "Node(fn=Leaf(word='a'), arg=" * K + "@" + ")" * K,
     ("a", "b"), ("Leaf(word='a')", "Leaf(word='b')")),
    ("tree", "(TY " * K + "(LEAF @)" + " (set t))" * K, "TyAnno(sub=" * K + "@" + ", ty_args=(SetOf(Base(t)),))" * K,
     ("a", "b"), ("Leaf(word='a')", "Leaf(word='b')")),
]
READERS = {"type": parse_type, "term": lambda text: parse_term(text, Signature()), "tree": parse_tree}


@pytest.mark.parametrize("kind, text, shown, leaves, leaf_reprs", DEEP, ids=lambda x: str(x)[:12])
def test_value_methods_hold_at_the_nesting_limit(kind, text, shown, leaves, leaf_reprs):
    one, same, other = (READERS[kind](text.replace("@", leaf)) for leaf in (leaves[0], leaves[0], leaves[1]))
    assert one is not same and one == same and hash(one) == hash(same) and one != other
    assert (repr(one), repr(other)) == tuple(shown.replace("@", r) for r in leaf_reprs)


def test_trees_compare_their_type_arguments_up_to_alpha():
    one, other = parse_tree("(TY (LEAF a) (all x x))"), parse_tree("(TY (LEAF a) (all y y))")
    assert one == other and hash(one) == hash(other) and repr(one) != repr(other)
    assert pickle.loads(pickle.dumps(one)) == one and repr(copy.deepcopy(one)) == repr(one)
    assert one != parse_tree("(TY (LEAF a) (all x t))") and one != parse_tree("(TY (LEAF b) (all x x))")


def test_the_and_definition_read_at_import_remembers_nothing_under_a_lexicon(pipeline, fixture_dir):
    """Two more lexicons run the fixture trees, after the workloads' three ran
    their items (and test_lexicon typechecked a signature's definition), and
    each applies an unexpanded AND constant to one of its sorts: each
    signature's AND term and ∀ are its own, no memo on a node of the import-time
    term names a signature but AND_SIGNATURE, and no type reachable from that
    term or from AND_TYPE holds a table of instances or of ∀s."""
    workloads = load_workloads()
    api, text = workloads.make_api(), (fixture_dir / "english.lex").read_text(encoding="utf-8")
    lexicons = [load_lexicon(text), load_lexicon(text)] + pipeline[1]
    for lex in lexicons[:2]:
        for line in (fixture_dir / "trees.txt").read_text(encoding="utf-8").split("\n"):
            if parse_trees(line):
                workloads.run_tree(api, lex, line)
    for lex in lexicons:
        term, ty = lex.signature.definitions["AND"], lex.signature.constants["AND"]
        assert term == AND_TERM and term is not AND_TERM and ty == AND_TYPE and ty is not AND_TYPE
        sort = min(lex.signature.sorts)  # an entity sort, where it has one
        typed_apply(parse_term("AND", lex.signature), [Base(sort)], None, lex.signature, ("r",))
    assert len({id(lex.signature.definitions["AND"]) for lex in lexicons}) == len(lexicons)
    for x in _walk(AND_TERM) + _walk(AND_TYPE):
        for fact in ("_type_memo", "_normal_memo", "_canonical_memo"):
            memo = x.__dict__.get(fact)
            assert memo is None or memo[0] is AND_SIGNATURE, (x, fact)
        assert "_instances" not in x.__dict__ and "_foralls" not in x.__dict__, x


NAT = Base(entity_sort("nat"))
SUCC = "ConstApp(const='Succ', const_type=Arrow(Base(e:nat), Base(e:nat)), ty_args=(), args=("


def _deep_numeral_formula(leaf):
    """∀x:nat. even (Succ (… (leaf))), the Succ nested MAX_NESTING deep."""
    term = ConstApp(leaf, NAT, (), ())
    for _ in range(N):
        term = ConstApp("Succ", Arrow(NAT, NAT), (), (term,))
    return Quant("forall", "x", NAT, Atom("even", Arrow(NAT, PROP), (), (term,)))


def _deep_connective_formula(leaf):
    """barks leaf ∧ ∀x0:dog. (barks leaf ∧ ∀x1:dog. …), MAX_NESTING conjunctions deep."""
    atom = Atom("barks", Arrow(DOG, PROP), (), (Embed(Atom(leaf, PROP, (), ())),))
    formula = atom
    for i in range(N):
        formula = Conn("and", (atom, Quant("forall", f"x{i}", DOG, formula)))
    return formula


@pytest.mark.parametrize("build", [_deep_numeral_formula, _deep_connective_formula], ids=lambda f: f.__name__)
def test_formula_value_methods_hold_at_the_nesting_limit(build):
    one, same, other = build("a"), build("a"), build("b")
    assert one == same and hash(one) == hash(same) and one != other and repr(one) != repr(other)
    if build is _deep_numeral_formula:
        assert repr(one) == ("Quant(kind='forall', var='x', sort_type=Base(e:nat), body=Atom(pred='even', "
                             "pred_type=Arrow(Base(e:nat), Base(t)), ty_args=(), args=(" + SUCC * N
                             + "ConstApp(const='a', const_type=Base(e:nat), ty_args=(), args=())"
                             + ",))" * N + ",)))")


def test_formulas_compare_their_types_up_to_alpha():
    one, other = (HAbs("p", Forall(v, Arrow(TyVar(v), PROP)), BARKS) for v in ("a", "b"))
    assert one == other and hash(one) == hash(other) and repr(one) != repr(other)
    assert one != HAbs("p", Forall("a", Arrow(DOG, PROP)), BARKS)
    poly = [ConstApp("same", Forall("a", Arrow(TyVar("a"), TyVar("a"))), (Forall(v, TyVar(v)),), ()) for v in "ab"]
    assert poly[0] == poly[1] and hash(poly[0]) == hash(poly[1])
