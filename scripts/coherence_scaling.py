#!/usr/bin/env python3
"""Time check_coherence on three families of coercion graphs as they grow.

    python3 scripts/coherence_scaling.py [cap_seconds] [seed]

Families, each with n sorts s0..s(n-1):
  chain   s_i -> s_(i+1): every sort reaches every later one;
  tree    a balanced binary tree, each sort coerced to its parent;
  dag     each sort coerced to one random earlier sort, and a tenth of them
          to a second one, so the graph is incoherent and the report lists
          its conflicts with both witness paths.

Each point is timed on a fresh graph (the report is cached per graph) and
is the best of three.  A run that exceeds the cap (default 10 s) is
stopped, recorded as `timeout`, and the larger n of that family are
skipped.  One line per point: family, n, edges, verdict, seconds.
"""

import pathlib
import random
import signal
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from polysem.coercion import BaseCoercion, CoercionGraph, check_coherence
from polysem.syntax import entity_sort

SIZES = (50, 100, 200, 500, 1000)
REPEATS = 3


def _graph(pairs):
    return CoercionGraph(tuple(BaseCoercion(f"c{k}", entity_sort(f"s{i}"), entity_sort(f"s{j}"))
                               for k, (i, j) in enumerate(pairs)))


def chain(n, rng):
    return [(i, i + 1) for i in range(n - 1)]


def tree(n, rng):
    return [(i, (i - 1) // 2) for i in range(1, n)]


def dag(n, rng):
    pairs = []
    for i in range(1, n):
        targets = [rng.randrange(i)]
        if i > 1 and rng.random() < 0.1:
            targets.append(rng.choice([j for j in range(i) if j != targets[0]]))
        pairs += [(i, j) for j in targets]
    return pairs


class Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise Timeout


def time_check(pairs, cap):
    """Best of REPEATS timings on fresh graphs, and the verdict; None if a
    run hits the cap."""
    best, report = float("inf"), None
    for _ in range(REPEATS):
        g = _graph(pairs)
        signal.setitimer(signal.ITIMER_REAL, cap)
        try:
            start = time.perf_counter()
            report = check_coherence(g)
            best = min(best, time.perf_counter() - start)
        except Timeout:
            return None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    return best, report


def main():
    cap = float(sys.argv[1]) if len(sys.argv) > 1 else 10.0
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 1
    signal.signal(signal.SIGALRM, _alarm)
    print(f"{'family':<7} {'n':>5} {'edges':>6} {'verdict':<14} seconds  (cap {cap:g} s, seed {seed})")
    for family in (chain, tree, dag):
        rng = random.Random(seed)
        for n in SIZES:
            pairs = family(n, rng)
            timed = time_check(pairs, cap)
            if timed is None:
                print(f"{family.__name__:<7} {n:>5} {len(pairs):>6} {'-':<14} timeout")
                break
            seconds, report = timed
            verdict = "ok" if report.ok else f"{len(report.conflicts)} conflicts"
            print(f"{family.__name__:<7} {n:>5} {len(pairs):>6} {verdict:<14} {seconds:.6f}")


if __name__ == "__main__":
    main()
