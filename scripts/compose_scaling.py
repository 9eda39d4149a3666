#!/usr/bin/env python3
"""Time `compose` (limit 16) on k = 1..max_k conjoined copredications.

    python3 scripts/compose_scaling.py [max_k]      # default 10

Tree k is `perfbench.workloads.ambiguity_tree(random.Random(1), k, False)`,
with 2^k readings.  One JSON line per k: the median of 5 `compose` times, and
the reduction steps (contractions, summed over `NormalForm.steps`) of one
more `compose`.
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
from polysem import composer  # noqa: E402
from polysem.lexicon import load_lexicon  # noqa: E402

LIMIT, REPEATS = 16, 5


def counted_compose(tree, lex) -> dict:
    """One `compose`, with the contractions its `normalize` calls report."""
    counts = {"reduce_steps": 0}
    normalize = composer.normalize

    def counted(*args):
        nf = normalize(*args)
        counts["reduce_steps"] += nf.steps
        return nf

    composer.normalize = counted
    try:
        counts["analyses"] = len(composer.compose(tree, lex, LIMIT))
    finally:
        composer.normalize = normalize
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
