#!/usr/bin/env python3
"""Time `compose` (limit 16) on k = 1..max_k conjoined copredications.

    python3 scripts/compose_scaling.py [max_k]      # default 10

Tree k is `perfbench.workloads.ambiguity_tree(random.Random(1), k, False)`,
with 2^k readings.  One JSON line per k: the median of 5 `compose` times, and
two work counts of one more `compose`: the reduction steps (contractions,
summed over `NormalForm.steps`), and the typecheck walks (`kernel.typecheck`
calls, recursive ones included, that find no type remembered on their node).
"""

import json
import pathlib
import random
import statistics
import sys
import timeit

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import AMBIGUITY_LEXICON, ambiguity_tree  # noqa: E402
from polysem import composer, kernel  # noqa: E402
from polysem.lexicon import load_lexicon  # noqa: E402

LIMIT, REPEATS = 16, 5


def counted_compose(tree, lex) -> dict:
    """One `compose`, with the contractions its `normalize` calls report and
    its typecheck walks."""
    counts = {"reduce_steps": 0, "typecheck_walks": 0}
    normalize, typecheck = composer.normalize, kernel.typecheck

    def counted(*args):
        nf = normalize(*args)
        counts["reduce_steps"] += nf.steps
        return nf

    def walked(term, sig, ctx=kernel.EMPTY_CONTEXT, path=()):
        if ctx is not kernel.EMPTY_CONTEXT or getattr(term, "_type_memo", (None,))[0] is not sig:
            counts["typecheck_walks"] += 1
        return typecheck(term, sig, ctx, path)

    # the kernel's own calls, recursive ones included, go through its global
    composer.normalize, composer.typecheck, kernel.typecheck = counted, walked, walked
    try:
        counts["analyses"] = len(composer.compose(tree, lex, LIMIT))
    finally:
        composer.normalize, composer.typecheck, kernel.typecheck = normalize, typecheck, typecheck
    return counts


def main():
    lex = load_lexicon(AMBIGUITY_LEXICON)
    for k in range(1, (int(sys.argv[1]) if len(sys.argv) > 1 else 10) + 1):
        tree = composer.parse_tree(ambiguity_tree(random.Random(1), k, False).text)
        times = timeit.repeat(lambda: composer.compose(tree, lex, LIMIT), number=1, repeat=REPEATS)
        print(json.dumps({"k": k, "compose_ms": round(1000 * statistics.median(times), 2),
                          **counted_compose(tree, lex)}))


if __name__ == "__main__":
    main()
