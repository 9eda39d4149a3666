#!/usr/bin/env python3
"""Run one workload of the polysem benchmark and print its metrics.

    python3 perfbench/run.py --workload ambiguity --seed 1 --seconds 20 --trace 0

Run it from the repository root; polysem is imported from ./src.  The run
goes in rounds until --seconds have passed, and for at least MIN_ROUNDS
rounds.  A round loads the workload's lexicon, then runs every item once, one
at a time from one thread, each after the previous one finished (a closed
loop with one client).  Every output is checked against the generator's
expected value.  Each time reported is the least of its repeats: the host
this was written on runs the same work up to 2x slower for stretches of
seconds, and the least time is the one such stretches did not slow.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced rounds and prints the per-layer metrics; the spans are written to
.bench_build/perfbench/.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

MIN_ROUNDS = 3           # every item runs at least this many times
MAX_SECONDS = 100.0      # after MIN_ROUNDS, no round starts past this
BURST_SECONDS = 0.02     # each round's set-up loads the lexicon for this long
MAX_BURST = 100

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "peak_rss_mb": "MiB",
}

PER_LAYER_UNITS = {
    "lexicon.load_s": "s",
    "coercion.coherence_s": "s",
    "coercion.graph_scans": "count",
    "coercion.targets_s": "s/item",
    "coercion.targets_calls": "count/item",
    "coercion.find_s": "s/item",
    "composer.compose_s": "s/item",
    "composer.self_s": "s/item",
    "composer.match_attempts": "count/item",
    "composer.typecheck_calls": "count/item",
    "composer.normalize_calls": "count/item",
    "composer.analyses": "count/item",
    "composer.yield": "ratio",
    "kernel.normalize_s": "s/item",
    "kernel.reduce_steps": "count/item",
    "kernel.typecheck_s": "s/item",
    "kernel.eta_s": "s/item",
    "inductives.rule_attempts": "count/item",
    "inductives.rewrites": "count/item",
    "inductives.hit_ratio": "ratio",
    "syntax.parse_s": "s/item",
    "syntax.print_s": "s/item",
    "syntax.canon_type_calls": "count/item",
    "hol.extract_s": "s/item",
    "hol.classify_s": "s/item",
    "hol.print_s": "s/item",
    "trace.overhead_ratio": "ratio",
    "error_rate": "ratio",
}


class Rounds:
    """Timings of the rounds of one run.  Each round loads the lexicon (for
    at least BURST_SECONDS, and at least once) and then runs every item once,
    in order, each after the previous one finished."""

    def __init__(self, n_items: int):
        self.load_times: dict[str, float] = {}
        self.latencies: list[list[float]] = [[] for _ in range(n_items)]
        self.runs: list[list[str]] = [[] for _ in range(n_items)]
        self.attempted = 0
        self.failed = 0
        self.analyses = 0
        self.errors: list[str] = []

    def fastest(self) -> list[float]:
        """Each item's least latency over its rounds."""
        return [min(lat) for lat in self.latencies]

    def fastest_runs(self) -> set[str]:
        return {runs[lat.index(min(lat))] for runs, lat in zip(self.runs, self.latencies)}

    def fastest_load(self) -> str:
        return min(self.load_times, key=self.load_times.get)


def run_round(wl, api, r: int, rounds: Rounds, tracer=None) -> None:
    """One round; with a tracer, its wrappers record this round."""
    burst_start = perf_counter()
    j = 0
    while j == 0 or (perf_counter() - burst_start < BURST_SECONDS and j < MAX_BURST):
        run_id = f"r{r}/setup{j}"
        if tracer is not None:
            tracer.begin(tracer.SETUP, run_id)
        t0 = perf_counter()
        lex = api.load_lexicon(wl.lexicon_text)
        rounds.load_times[run_id] = perf_counter() - t0
        if tracer is not None:
            tracer.end()
        j += 1
    for i, item in enumerate(wl.items):
        run_id = f"r{r}/item{i}"
        if tracer is not None:
            tracer.begin(tracer.ITEMS, run_id)
        t0 = perf_counter()
        try:
            out, error = wl.run(api, lex, item.text), None
        except Exception as e:  # the oracle counts it; the round goes on
            out, error = None, f"{type(e).__name__}: {e}"
        rounds.latencies[i].append(perf_counter() - t0)
        rounds.runs[i].append(run_id)
        if tracer is not None:
            tracer.end()
        rounds.attempted += 1
        if error is None:
            error = wl.check(lex, item, out)
            rounds.analyses += len(getattr(out, "analyses", ()))
        if error is not None:
            rounds.failed += 1
            if len(rounds.errors) < 5:
                rounds.errors.append(f"{item.text[:100]}: {error}")


def until(seconds: float, min_rounds: int):
    """Round numbers while fewer than min_rounds are done or time is left."""
    started = perf_counter()
    r = 0
    while r < min_rounds or (perf_counter() - started < seconds
                             and perf_counter() - started < MAX_SECONDS):
        yield r
        r += 1


def end_to_end(workloads, name: str, seed: int, seconds: float):
    api = workloads.make_api()
    wl = workloads.make_workload(name, seed)
    rounds = Rounds(len(wl.items))
    for r in until(seconds, MIN_ROUNDS):
        run_round(wl, api, r, rounds)
    lat = rounds.fastest()
    metrics = {
        "setup_s": min(rounds.load_times.values()),
        "items_per_s": len(lat) / sum(lat),
        "latency_p50_ms": 1000 * statistics.median(lat),
        "latency_p95_ms": 1000 * statistics.quantiles(lat, n=20)[18],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    n = len(lat)
    notes = [f"{len(rounds.latencies[0])} rounds of {n} items; latency samples: {n} "
             f"(each item's least over its rounds), {n - int(0.95 * (n + 1))} beyond p95",
             f"set-up: least of {len(rounds.load_times)} loads"]
    return [rounds], metrics, END_TO_END_UNITS, notes


def traced(workloads, tracing, name: str, seed: int, seconds: float):
    """Rounds alternate untraced and traced over the same items, and the
    wrappers are installed for the traced rounds only; the ratio of the two
    sides' summed fastest latencies is the tracing overhead."""
    api = workloads.make_api()
    wl = workloads.make_workload(name, seed)
    plain, traced_rounds = Rounds(len(wl.items)), Rounds(len(wl.items))
    tracer = tracing.Tracer()
    for r in until(seconds, 2 * MIN_ROUNDS):
        if r % 2 == 0:
            run_round(wl, api, r, plain)
            continue
        tracer.install(api)
        try:
            run_round(wl, api, r, traced_rounds, tracer)
        finally:
            tracer.uninstall()
    out_dir = ROOT / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / f"trace-{name}-seed{seed}.jsonl"
    tracer.write(trace_path)
    fastest = traced_rounds.fastest_runs()
    traced_time = sum(traced_rounds.fastest())
    metrics = tracing.layer_metrics(
        tracer, traced_rounds.fastest_load(), fastest,
        loads=len(traced_rounds.load_times), executions=traced_rounds.attempted,
        analyses=traced_rounds.analyses,
        overhead_ratio=traced_time / sum(plain.fastest()),
        error_rate=traced_rounds.failed / traced_rounds.attempted)
    shares = tracing.layer_shares(tracer, fastest, traced_time)
    notes = [f"traced: {len(traced_rounds.latencies[0])} rounds of {len(wl.items)} items, "
             f"{len(tracer.spans)} spans written to {trace_path.relative_to(ROOT)}",
             "self-time share of traced item time: "
             + ", ".join(f"{k} {v:.1%}" for k, v in shares.items())]
    if tracer.missing:
        notes.append("not found, so not traced: " + ", ".join(tracer.missing))
    return [plain, traced_rounds], metrics, PER_LAYER_UNITS, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "polysem" / "__init__.py").is_file():
        print(f"perfbench: no polysem sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads  # puts ./src first on sys.path
    import polysem

    if Path(polysem.__file__).resolve().parent != ROOT / "src" / "polysem":
        print(f"perfbench: imported polysem from {polysem.__file__}, not ./src",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    if args.trace:
        import tracing

        sides, metrics, units, notes = traced(workloads, tracing, args.workload,
                                              args.seed, args.seconds)
    else:
        sides, metrics, units, notes = end_to_end(workloads, args.workload,
                                                  args.seed, args.seconds)
    attempted = sum(side.attempted for side in sides)
    failed = sum(side.failed for side in sides)
    print(f"workload {args.workload}, seed {args.seed}: {attempted} item runs, "
          f"{failed} failed (error_rate {failed / attempted:g})")
    for line in notes + [e for side in sides for e in side.errors]:
        print(f"  {line}")
    for key, value in metrics.items():
        print(f"  {key} = {value:.6g} {units[key]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
