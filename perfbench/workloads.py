"""The benchmark's three workloads: seeded input generators, the pipeline
each item runs through, and an oracle per workload.

A generator takes the seed and hands polysem only text: one lexicon
document, then whole cycles of a fixed item mix, each item a parse-tree line
or a term string.  Each item carries its expected result, built from the
generator's own construction and never by running polysem.  The oracle
compares a pipeline output with it.

Every pipeline call goes through the namespace `make_api` returns, so the
traced run can wrap the benchmark's own bindings.
"""

from __future__ import annotations

import itertools
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from polysem import composer, hol, kernel, lexicon, syntax  # noqa: E402
from polysem.hol import SEXPR, formula_to_term  # noqa: E402
from polysem.inductives import numeral_value  # noqa: E402
from polysem.syntax import PROP, App, Const, Lam, Var, alpha_eq  # noqa: E402

LIMIT = 16  # the CLI's default --limit


def make_api() -> SimpleNamespace:
    """The public polysem calls behind the CLI's compose and normalize paths.
    The CLI finds a tree's diagnostic inside its one search; the public API
    gets it from `diagnose`, which runs the search again."""
    return SimpleNamespace(
        load_lexicon=lexicon.load_lexicon,
        parse_tree=composer.parse_tree,
        compose=composer.compose,
        diagnose=composer.diagnose,
        parse_term=syntax.parse_term,
        expand_definitions=kernel.expand_definitions,
        typecheck=kernel.typecheck,
        normalize=kernel.normalize,
        eta_expand=kernel.eta_expand,
        print_term=syntax.print_term,
        extract_formula=hol.extract_formula,
        classify=hol.classify,
        print_formula=hol.print_formula,
    )


@dataclass(frozen=True)
class Item:
    text: str
    expected: object


# ---------------------------------------------------------------------------
# Tree workloads: compose, then eta, extract, classify and print per analysis


@dataclass
class TreeOutput:
    analyses: list          # polysem Analysis objects
    readings: list          # (eta-long term, formula, printed formula, profile) per PROP analysis
    report: object = None   # DiagnoseReport when no analysis came back


def run_tree(api, lex, text: str) -> TreeOutput:
    sig = lex.signature
    tree = api.parse_tree(text)
    analyses = api.compose(tree, lex, LIMIT)
    readings = []
    for a in analyses:
        if a.result_type == PROP:
            nf = api.eta_expand(a.normal_term, sig)
            formula = api.extract_formula(nf, sig)
            readings.append((nf.term, formula, api.print_formula(formula, SEXPR),
                             api.classify(formula)))
    report = None
    if not analyses:
        report = api.diagnose(tree, lex)
        report.describe()  # the diagnostic line the CLI prints
    return TreeOutput(analyses, readings, report)


def _check_readings(lex, out: TreeOutput) -> Optional[str]:
    """Every analysis is of type t and its formula reads back to its
    eta-long normal form (acceptance criterion 7)."""
    if len(out.readings) != len(out.analyses):
        return "an analysis is not of type t"
    for term, formula, _, _ in out.readings:
        if not alpha_eq(formula_to_term(formula, lex.signature), term):
            return "formula does not round-trip through formula_to_term"
    return None


# -- ambiguity ---------------------------------------------------------------

AMBIGUITY_LEXICON = """\
# copredication lexicon: book has two transfers to e:phys (g0, g1) and one to
# e:info; Liverpool's only transfer is rigid
sort e:phys
sort e:info
sort e:book
sort e:town
sort e:club
const heavy : (-> e:phys t)
const cheap : (-> e:phys t)
const torn : (-> e:phys t)
const interesting : (-> e:info t)
const boring : (-> e:info t)
const beat : (-> e:club t)
const docks : (-> e:town t)
const b : e:book
const liv : e:town
const f0 : (-> e:book e:info)
const g0 : (-> e:book e:phys)
const g1 : (-> e:book e:phys)
const t2c : (-> e:town e:club)
word and main AND
word both main ∧
word heavy main (lam (x e:phys) (app heavy x))
word cheap main (lam (x e:phys) (app cheap x))
word torn main (lam (x e:phys) (app torn x))
word interesting main (lam (x e:info) (app interesting x))
word boring main (lam (x e:info) (app boring x))
word beat main (lam (x e:club) (app beat x))
word docks main (lam (x e:town) (app docks x))
word book main b
word-transfer book f0 flexible f0
word-transfer book g0 flexible g0
word-transfer book g1 flexible g1
word Liverpool main liv
word-transfer Liverpool t2c rigid t2c
"""

PHYS_PREDICATES = ("heavy", "cheap", "torn")
INFO_PREDICATES = ("interesting", "boring")
PHYS_VIEWS = ("g0", "g1")

# One cycle of the item list: (conjunct count k, blocked).  32 accepted trees
# weighted toward small k and 8 blocked ones, a fifth of the cycle.  At k=5
# the search builds more candidates than the limit lets through.  The weights
# put the median inside the k=3 group and the 95th percentile inside the k=5
# group, so that neither sits on the boundary between two costs.
AMBIGUITY_CYCLE = (
    [(1, False)] * 5 + [(2, False)] * 5 + [(3, False)] * 9 + [(4, False)] * 7
    + [(5, False)] * 6
    + [(k, True) for k in (1, 1, 2, 2, 3, 3, 4, 5)]
)


@dataclass(frozen=True)
class AmbiguityExpected:
    count: int                          # 0 for a blocked tree
    conjuncts: tuple[tuple[str, ...], ...]  # the formula options of each conjunct
    blocked_path: Optional[tuple[int, ...]] = None  # Liverpool's occurrence path


def _conjunction(parts: list[str]) -> str:
    """Right-nested both-conjunction of sentence trees."""
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = f"(NODE (NODE (LEAF both) {p}) {out})"
    return out


def _conjunct_path(i: int, k: int) -> tuple[int, ...]:
    """Path of conjunct i of k in _conjunction's tree (0 = fn, 1 = arg)."""
    return (1,) * i + ((0, 1) if i < k - 1 else ())


def _and_tree(first: str, second: str, noun: str) -> str:
    return f"(NODE (NODE (NODE (LEAF and) (LEAF {first})) (LEAF {second})) (LEAF {noun}))"


def ambiguity_tree(rng: random.Random, k: int, blocked: bool) -> Item:
    """k "P and Q book" copredications; when blocked, one of them is the
    Liverpool copredication that needs its rigid transfer next to the main
    reading."""
    parts, options = [], []
    blocked_at = rng.randrange(k) if blocked else None
    for i in range(k):
        if i == blocked_at:
            first, second = rng.sample(("beat", "docks"), 2)
            parts.append(_and_tree(first, second, "Liverpool"))
            continue
        phys, info = rng.choice(PHYS_PREDICATES), rng.choice(INFO_PREDICATES)
        phys_first = rng.random() < 0.5
        first, second = (phys, info) if phys_first else (info, phys)
        parts.append(_and_tree(first, second, "book"))
        readings = []
        for view in PHYS_VIEWS:
            p, q = f"({phys} ({view} b))", f"({info} (f0 b))"
            readings.append(f"(and {p} {q})" if phys_first else f"(and {q} {p})")
        options.append(tuple(readings))
    if blocked:
        path = _conjunct_path(blocked_at, k) + (1,)
        return Item(_conjunction(parts), AmbiguityExpected(0, (), path))
    return Item(_conjunction(parts), AmbiguityExpected(min(2 ** k, LIMIT), tuple(options)))


def ambiguity_cycle(rng: random.Random) -> list[Item]:
    specs = list(AMBIGUITY_CYCLE)
    rng.shuffle(specs)
    return [ambiguity_tree(rng, k, blocked) for k, blocked in specs]


def _conjoin_formulas(parts: tuple[str, ...]) -> str:
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = f"(and {p} {out})"
    return out


def check_ambiguity(lex, item: Item, out: TreeOutput) -> Optional[str]:
    exp: AmbiguityExpected = item.expected
    if exp.blocked_path is not None:
        if out.analyses:
            return f"blocked tree composed to {len(out.analyses)} analyses"
        if not any(f.kind == "RigidityViolation" and f.occurrence is not None
                   and f.occurrence.word == "Liverpool"
                   and tuple(f.occurrence.path) == exp.blocked_path
                   for f in out.report.failures):
            return "no RigidityViolation at the Liverpool occurrence"
        return None
    if len(out.analyses) != exp.count:
        return f"{len(out.analyses)} analyses, expected {exp.count}"
    allowed = {_conjoin_formulas(choice) for choice in itertools.product(*exp.conjuncts)}
    printed = [r[2] for r in out.readings]
    if len(set(printed)) != len(printed):
        return "two analyses print the same formula"
    stray = [p for p in printed if p not in allowed]
    if stray:
        return f"unexpected formula {stray[0]}"
    # each formula mentions the sorts book, phys and info and is first order
    if any((r[3].order, r[3].sorts) != (1, 3) for r in out.readings):
        return "profile differs from order=1 sorts=3"
    return _check_readings(lex, out)


# -- ontology ----------------------------------------------------------------

ONTOLOGY_SORTS = 80
PARENT_WINDOW = 4           # a sort's parent is one of the 4 sorts declared before it
DEPTH_SUM_TARGET = 1290     # the mean total depth of such trees at 80 sorts
DEPTH_SUM_TOLERANCE = 0.02  # seeds are redrawn until the total lies within 2%


@dataclass(frozen=True)
class Ontology:
    parent: tuple[Optional[int], ...]

    def ancestors(self, k: int) -> list[int]:
        out = []
        while self.parent[k] is not None:
            k = self.parent[k]
            out.append(k)
        return out

    def path(self, k: int, j: int) -> list[str]:
        """Edge names from sort k up to its ancestor j, innermost first."""
        names = []
        while k != j:
            names.append(f"c{k}")
            k = self.parent[k]
        return names

    def lexicon(self) -> str:
        lines = []
        for i, p in enumerate(self.parent):
            lines.append(f"sort e:s{i}")
            if p is not None:
                lines.append(f"coercion c{i} : e:s{i} -> e:s{p}")
        for i in range(len(self.parent)):
            lines += [f"const P{i} : (-> e:s{i} t)",
                      f"const Q{i} : (-> (-> e:s{i} t) t)",
                      f"const a{i} : e:s{i}",
                      f"word p{i} main P{i}",
                      f"word q{i} main Q{i}",
                      f"word a{i} main a{i}"]
        return "\n".join(lines) + "\n"


def make_ontology(rng: random.Random) -> Ontology:
    """A random tree of sorts; the depth total (which sets the cost of the
    coherence check and of the coercion search) is held near a fixed target
    so that seeds differ in shape, not in cost."""
    while True:
        parent: list[Optional[int]] = [None]
        depth = [0]
        for i in range(1, ONTOLOGY_SORTS):
            p = max(0, i - rng.randint(1, PARENT_WINDOW))
            parent.append(p)
            depth.append(depth[p] + 1)
        if abs(sum(depth) - DEPTH_SUM_TARGET) <= DEPTH_SUM_TOLERANCE * DEPTH_SUM_TARGET:
            return Ontology(tuple(parent))


@dataclass(frozen=True)
class OntologyExpected:
    k: int
    j: int
    chain: Optional[tuple[str, ...]]  # None when s_k has no path to s_j


# The work each item of a cycle asks for.  An item's cost is close to its
# work: the sorts below j plus a quarter of the edges on their paths up to j
# (what the coercion search walks and builds), plus twice the edges from k up
# to j (the chain the rest of the pipeline carries).  Asking for the same
# work on every seed keeps the latency distribution the same across seeds.
PATH_WORK = tuple(range(5, 325, 8))       # 40 items with a path
NO_PATH_WORK = tuple(range(5, 155, 15))   # 10 without, a fifth of the cycle


def ontology_cycle(onto: Ontology, rng: random.Random) -> list[Item]:
    """For each target in PATH_WORK, apply Q_k to P_j for the pair of a sort j
    and a sort k below it whose work is nearest the target; for each target in
    NO_PATH_WORK, pick the sort j nearest it and any k outside j's subtree."""
    n = len(onto.parent)
    depth = [len(onto.ancestors(i)) for i in range(n)]
    below = {j: [] for j in range(n)}
    for k in range(n):
        for j in onto.ancestors(k):
            below[j].append(k)
    search = {j: len(below[j]) + sum(depth[i] - depth[j] for i in below[j]) / 4
              for j in range(n)}
    pairs = [(search[j] + 2 * (depth[k] - depth[j]), j, k)
             for j in range(n) for k in below[j]]
    unrelated = [(search[j], j) for j in range(n) if len(below[j]) < n - 1]

    def nearest(target, options):
        gap = min(abs(o[0] - target) for o in options)
        return rng.choice([o for o in options if abs(o[0] - target) == gap])

    cycle = []
    for target in PATH_WORK:
        _, j, k = nearest(target, pairs)
        cycle.append(OntologyExpected(k, j, tuple(onto.path(k, j))))
    for target in NO_PATH_WORK:
        _, j = nearest(target, unrelated)
        k = rng.choice([k for k in range(n) if k != j and k not in below[j]])
        cycle.append(OntologyExpected(k, j, None))
    rng.shuffle(cycle)
    return [Item(f"(NODE (LEAF q{e.k}) (LEAF p{e.j}))", e) for e in cycle]


def coercion_chain(term) -> Optional[list[str]]:
    """Edge names, innermost first, of an arrow lift lam f. lam x. f (c_n (... (c_1 x)))."""
    while isinstance(term, Lam):
        term = term.body
    if not isinstance(term, App):
        return None
    term = term.arg
    names = []
    while isinstance(term, App) and isinstance(term.fn, Const):
        names.append(term.fn.name)
        term = term.arg
    return names[::-1] if isinstance(term, Var) else None


def check_ontology(lex, item: Item, out: TreeOutput) -> Optional[str]:
    exp: OntologyExpected = item.expected
    if exp.chain is None:
        if out.analyses:
            return f"{len(out.analyses)} analyses where no path exists"
        d = out.report.deepest
        if d is None or d.kind != "NoPath":
            return f"diagnostic is {d.kind if d else 'empty'}, expected NoPath"
        want = (f"(-> e:s{exp.j} t)", f"(-> e:s{exp.k} t)")
        if (syntax.print_type(d.from_type), syntax.print_type(d.to_type)) != want:
            return f"NoPath between the wrong types: {d.describe()}"
        return None
    if len(out.analyses) != 1:
        return f"{len(out.analyses)} analyses, expected 1"
    coercions = out.analyses[0].inserted_coercions
    if len(coercions) != 1:
        return f"{len(coercions)} coercions inserted, expected 1"
    chain = coercion_chain(coercions[0][1])
    if chain is None or tuple(chain) != exp.chain:
        return f"coercion chain {chain}, expected {list(exp.chain)}"
    return _check_readings(lex, out)


# ---------------------------------------------------------------------------
# Arithmetic: the `polysem normalize --eta-long` path


@dataclass
class TermOutput:
    normal: object      # the normal-form term
    printed: str        # print_term of the normal form
    eta_printed: str    # print_term of the eta-long form


def run_term(api, lex, text: str) -> TermOutput:
    sig = lex.signature
    term = api.parse_term(text, sig, allow_free=False)
    term = api.expand_definitions(term, sig)
    api.typecheck(term, sig)
    nf = api.normalize(term, sig)
    printed = api.print_term(nf.term)
    eta = api.eta_expand(nf.term, sig)
    return TermOutput(nf.term, printed, api.print_term(eta.term))


ARITH_LEXICON = "use nat\nuse finset\n"

ADD = ("(lam (m e:nat) (lam (n e:nat) (app (app (app (tapp RecN e:nat) n)"
       " (lam (k e:nat) (lam (a e:nat) (app Succ a)))) m)))")
MUL = ("(lam (m e:nat) (lam (n e:nat) (app (app (app (tapp RecN e:nat) Zero)"
       f" (lam (k e:nat) (lam (a e:nat) (app (app {ADD} n) a)))) m)))")
COUNT = "(lam (x e:nat) (lam (a e:nat) (app Succ a)))"

def numeral_text(n: int) -> str:
    return "(app Succ " * n + "Zero" + ")" * n


def _strata(rng: random.Random, bounds) -> list[int]:
    """One value from each (low, high) range, in a random order."""
    values = [rng.randint(low, high) for low, high in bounds]
    rng.shuffle(values)
    return values


def arith_cycle(rng: random.Random) -> list[Item]:
    """10 additions, 5 multiplications and 5 set cardinalities.  The recursion
    argument, which sets an item's cost, is drawn from fixed strata, and the
    sets hold 10 to 14 distinct numerals, so that seeds differ in their terms
    but not in their cost.  The sets' cost lies near the median latency."""
    items = []
    for m in _strata(rng, [(4 * i, 4 * i + 3) for i in range(10)]):
        n = rng.randint(0, 40)
        items.append(Item(f"(app (app {ADD} {numeral_text(m)}) {numeral_text(n)})", m + n))
    mul_strata = [(i + 1, i + 2) for i in range(5)]
    for m, n in zip(_strata(rng, mul_strata), _strata(rng, mul_strata)):
        items.append(Item(f"(app (app {MUL} {numeral_text(m)}) {numeral_text(n)})", m * n))
    for size in range(10, 15):
        elems = rng.sample(range(size), size)  # the numerals below size, shuffled
        s = "(tapp EmptyS e:nat)"
        for x in elems:
            s = f"(app (app (tapp InsertS e:nat) {numeral_text(x)}) {s})"
        fold = f"(app (app (app (tapp (tapp FoldS e:nat) e:nat) Zero) {COUNT}) {s})"
        items.append(Item(fold, size))
    rng.shuffle(items)
    return items


def check_arith(lex, item: Item, out: TermOutput) -> Optional[str]:
    want = numeral_text(item.expected)
    if numeral_value(out.normal) != item.expected:
        return f"normal form is not the numeral {item.expected}"
    if out.printed != want or out.eta_printed != want:
        return f"printed {out.eta_printed[:60]}..., expected the numeral {item.expected}"
    return None


# ---------------------------------------------------------------------------
# Registry


ITEMS = 200  # at least this many distinct items, in whole cycles


@dataclass(frozen=True)
class Workload:
    name: str
    lexicon_text: str
    items: list[Item]
    run: object      # (api, lex, text) -> output
    check: object    # (lex, item, output) -> error message or None


def _cycles(make_cycle) -> list[Item]:
    items: list[Item] = []
    while len(items) < ITEMS:
        items += make_cycle()
    return items


def make_workload(name: str, seed: int) -> Workload:
    """The workload's lexicon text and items, both fixed by the seed."""
    rng = random.Random(f"{name}:{seed}")
    if name == "ambiguity":
        items = _cycles(lambda: ambiguity_cycle(rng))
        return Workload(name, AMBIGUITY_LEXICON, items, run_tree, check_ambiguity)
    if name == "ontology":
        onto = make_ontology(rng)
        items = _cycles(lambda: ontology_cycle(onto, rng))
        return Workload(name, onto.lexicon(), items, run_tree, check_ontology)
    if name == "arith":
        items = _cycles(lambda: arith_cycle(rng))
        return Workload(name, ARITH_LEXICON, items, run_term, check_arith)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("ambiguity", "ontology", "arith")
