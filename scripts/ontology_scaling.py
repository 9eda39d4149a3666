#!/usr/bin/env python3
"""Time the lexicon load and the composer on tree ontologies of 80 to 640
sorts, and count the arrow lifts the composer builds.

    python3 scripts/ontology_scaling.py [max_sorts] [seed]    # default 640, 1

Each ontology has the shape of perfbench's `ontology` workload: sort i is
coerced to one of the 4 sorts declared just before it, so paths are tens of
edges long.  Its trees are (NODE (LEAF q_k) (LEAF p_j)), 40 with k drawn
below j (one arrow lift along the path from k up to j) and 10 with k outside
j's subtree (NoPath), as in one perfbench cycle.  A tree runs as perfbench
runs it: `compose`, then `diagnose` when there is no analysis.

One JSON line per size: the best of 3 `load_lexicon` times of the
ontology's lexicon; the mean over the trees of each tree's best of 3 times
(`ms_per_tree`), and of the best of 3 times of what perfbench runs after
`compose` on each analysis of type t: η, extract, classify and print
(`read_ms_per_tree`); the same mean of that read on first passes over the
trees, each tree's best of 3 passes on 3 freshly loaded lexicons, where the
chains are read for the first time (`cold_read_ms_per_tree`); and per tree,
over compose, diagnose and that read, the `coercion._lift` calls (lift terms
built) and the `App` nodes built.
"""

import json
import pathlib
import random
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import PARENT_WINDOW, Ontology  # noqa: E402
from polysem import coercion, composer, hol, kernel, syntax  # noqa: E402
from polysem.lexicon import load_lexicon  # noqa: E402

SIZES, REPEATS, WITH_PATH, WITHOUT_PATH = (80, 160, 320, 640), 3, 40, 10


def ontology(n, rng):
    parent = [None] + [max(0, i - rng.randint(1, PARENT_WINDOW)) for i in range(1, n)]
    onto = Ontology(tuple(parent))
    above = [onto.ancestors(k) for k in range(n)]
    below = [(k, j) for k in range(n) for j in above[k]]
    unrelated = [(k, j) for k in range(n) for j in range(n) if k != j and j not in above[k]]
    pairs = rng.sample(below, WITH_PATH) + rng.sample(unrelated, WITHOUT_PATH)
    trees = [composer.parse_tree(f"(NODE (LEAF q{k}) (LEAF p{j}))") for k, j in pairs]
    return onto.lexicon(), sum(map(len, above)) / n, trees


def run(tree, lex):
    """The seconds of `compose` (and `diagnose` when it finds nothing), then
    of the read that follows it."""
    start = time.perf_counter()
    analyses = composer.compose(tree, lex)
    if not analyses:
        composer.diagnose(tree, lex)
    composed, sig = time.perf_counter(), lex.signature
    for a in analyses:
        if a.result_type == syntax.PROP:
            formula = hol.extract_formula(kernel.eta_expand(a.normal_term, sig), sig)
            hol.classify(formula)
            hol.print_formula(formula, hol.SEXPR)
    return composed - start, time.perf_counter() - composed


def main():
    max_sorts = int(sys.argv[1]) if len(sys.argv) > 1 else SIZES[-1]
    rng = random.Random(int(sys.argv[2]) if len(sys.argv) > 2 else 1)
    lift, lifts, app_init, apps = coercion._lift, [], syntax.App.__init__, []
    for n in (n for n in SIZES if n <= max_sorts):
        text, mean_depth, trees = ontology(n, rng)
        loads, lexicons = [], []
        for _ in range(REPEATS):
            start = time.perf_counter()
            lexicons.append(load_lexicon(text))
            loads.append(time.perf_counter() - start)
        cold = [min(times) for times in zip(*([run(tree, fresh)[1] for tree in trees] for fresh in lexicons))]
        lex = lexicons[-1]
        best = [[min(times) for times in zip(*(run(tree, lex) for _ in range(REPEATS)))] for tree in trees]
        coercion._lift = lambda *args: lifts.append(None) or lift(*args)
        syntax.App.__init__ = lambda self, fn, arg: apps.append(None) or app_init(self, fn, arg)
        try:
            del lifts[:], apps[:]
            for tree in trees:
                run(tree, lex)
        finally:
            coercion._lift, syntax.App.__init__ = lift, app_init
        compose_s, read_s = (sum(column) / len(trees) for column in zip(*best))
        print(json.dumps({"sorts": n, "trees": len(trees),
                          "mean_depth": mean_depth,
                          "load_ms": round(1e3 * min(loads), 4),
                          "ms_per_tree": round(1e3 * compose_s, 4),
                          "read_ms_per_tree": round(1e3 * read_s, 4),
                          "cold_read_ms_per_tree": round(1e3 * sum(cold) / len(trees), 4),
                          "lifts_per_tree": len(lifts) / len(trees),
                          "apps_per_tree": len(apps) / len(trees)}))


if __name__ == "__main__":
    main()
