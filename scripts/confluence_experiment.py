#!/usr/bin/env python3
"""Sample well-typed terms (recursors included) and check that both
reduction strategies reach the same normal form with the same type.

    python3 scripts/confluence_experiment.py [count] [seed]
"""

import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))  # the term generator the property suites use

from polysem.kernel import (
    LEFTMOST_OUTERMOST,
    RIGHTMOST_INNERMOST,
    normalize,
    reduce_once,
    typecheck,
)
from polysem.inductives import register_finset, register_nat
from polysem.lexicon import builtin_signature
from polysem.syntax import alpha_eq, entity_sort
from random_terms import generate_corpus


def main():
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 1000
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 4242
    sig = register_finset(register_nat(builtin_signature()))
    sig = sig.extend(sorts=[entity_sort(s) for s in ("dog", "phys", "book")])
    started = time.monotonic()
    terms, gsig = generate_corpus(sig, seed=seed, count=count, use_inductives=True)
    subject_bad = confluence_bad = 0
    for m in terms:
        ty = typecheck(m, gsig)
        stepped = reduce_once(m, gsig, LEFTMOST_OUTERMOST)
        if stepped is not None and typecheck(stepped, gsig) != ty:
            subject_bad += 1
        lo = normalize(m, gsig, strategy=LEFTMOST_OUTERMOST).term
        ri = normalize(m, gsig, strategy=RIGHTMOST_INNERMOST).term
        if not alpha_eq(lo, ri):
            confluence_bad += 1
    elapsed = time.monotonic() - started
    print(f"terms: {count}  seed: {seed}  elapsed: {elapsed:.1f}s")
    print(f"subject reduction violations: {subject_bad}")
    print(f"strategy disagreements:       {confluence_bad}")
    sys.exit(0 if subject_bad == confluence_bad == 0 else 1)


if __name__ == "__main__":
    main()
