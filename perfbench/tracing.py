"""Timing and counting wrappers for the benchmark's traced run.

polysem itself is not instrumented.  The tracer replaces, for the length of
the traced run, the bindings through which each layer is called: the
benchmark's own `Api` namespace for the calls it makes, and the module
globals that polysem's modules call each other through (for example
`polysem.composer.normalize`, which `from .kernel import normalize` copied
out of the kernel).  Recursive calls inside a module resolve the module's own
global and so are never wrapped, except for `syntax.canon_type`, which is
wrapped in its own module and counted only at the outermost call.

A span records its name, start, end, parent span and run id, which names
the round and the item (or the set-up load).  Spans stay in memory and are
written out when the run ends.  `uninstall` puts every
original binding back, so end-to-end runs are never traced.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter

from polysem import coercion, composer, inductives, kernel, lexicon, syntax

SETUP = "setup"
ITEMS = "items"


def _targets(api):
    """(owner, attribute, span name, call counter, hit counter).  A hit is a
    call that returned something other than None."""
    return [
        (api, "load_lexicon", "lexicon.load", None, None),
        (lexicon, "check_coherence", "coercion.coherence", None, None),
        (coercion.CoercionGraph, "outgoing", None, "coercion.graph_scans", None),
        (coercion.CoercionGraph, "incoming", None, "coercion.graph_scans", None),
        (api, "parse_tree", "syntax.parse", None, None),
        (api, "parse_term", "syntax.parse", None, None),
        (api, "compose", "composer.compose", None, None),
        (api, "diagnose", "composer.compose", None, None),
        (composer, "typecheck", "kernel.typecheck", "composer.typecheck_calls", None),
        (composer, "normalize", "kernel.normalize", "composer.normalize_calls", None),
        (composer, "match_type", None, "composer.match_attempts", None),
        (composer, "coercion_targets", "coercion.targets", "coercion.targets_calls", None),
        (composer, "find_coercion", "coercion.find", None, None),
        (api, "expand_definitions", "kernel.expand", None, None),
        (api, "typecheck", "kernel.typecheck", None, None),
        (api, "normalize", "kernel.normalize", None, None),
        (api, "eta_expand", "kernel.eta", None, None),
        (kernel, "reduce_once", None, None, "kernel.reduce_steps"),
        (inductives.InductiveRule, "try_rewrite", None, "inductives.rule_attempts",
         "inductives.rewrites"),
        (api, "print_term", "syntax.print", None, None),
        (api, "extract_formula", "hol.extract", None, None),
        (api, "classify", "hol.classify", None, None),
        (api, "print_formula", "hol.print", None, None),
    ]


class Tracer:
    SETUP, ITEMS = SETUP, ITEMS

    def __init__(self):
        self.spans: list = []      # (name, start, end, parent index or -1, run id)
        self.counts: dict[str, Counter] = {SETUP: Counter(), ITEMS: Counter()}
        self.run = SETUP           # id of the load or item run being traced
        self.phase = SETUP
        self.active = False        # wrappers pass straight through when False
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list = []

    def begin(self, phase: str, run: str) -> None:
        """Record from here on, under this phase and run id."""
        self.phase, self.run, self.active = phase, run, True

    def end(self) -> None:
        self.active = False

    # -- installing -----------------------------------------------------------

    def install(self, api) -> None:
        self.missing = []
        for owner, attr, span, calls, hits in _targets(api):
            original = vars(owner).get(attr)
            if original is None:
                self.missing.append(f"{getattr(owner, '__name__', 'api')}.{attr}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span, calls, hits))
        original = vars(syntax).get("canon_type")
        if original is None:
            self.missing.append("syntax.canon_type")
            return
        self._saved.append((syntax, "canon_type", original))
        syntax.canon_type = self._outermost(original, "syntax.canon_type_calls")

    def uninstall(self) -> None:
        self.active = False
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, fn, span, calls, hits):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            counts = tracer.counts[tracer.phase]
            if calls:
                counts[calls] += 1
            out = fn(*args, **kwargs) if span is None else tracer._timed(span, fn, args, kwargs)
            if hits and out is not None:
                counts[hits] += 1
            return out

        traced.__wrapped__ = fn
        return traced

    def _timed(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.run)

    def _outermost(self, fn, counter):
        """Count only calls that are not nested in another call of fn."""
        tracer = self
        depth = 0

        def counted(*args, **kwargs):
            nonlocal depth
            if depth == 0 and tracer.active:
                tracer.counts[tracer.phase][counter] += 1
            depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth -= 1

        counted.__wrapped__ = fn
        return counted

    # -- results --------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")

    def layer_times(self, runs):
        """Summed duration and self time (duration minus the direct child
        spans) of each span name, over the spans recorded for `runs`."""
        child = defaultdict(float)
        for name, start, end, parent, run in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total, own = defaultdict(float), defaultdict(float)
        for index, (name, start, end, parent, run) in enumerate(self.spans):
            if run in runs:
                total[name] += end - start
                own[name] += end - start - child[index]
        return total, own


def layer_metrics(tracer: Tracer, fastest_load: str, fastest_items: set[str],
                  loads: int, executions: int, analyses: int,
                  overhead_ratio: float, error_rate: float) -> dict[str, float]:
    """Set-up times come from the fastest traced load and item times from
    each item's fastest traced run, per item; counts are per load and per
    item run, and so do not depend on which run was fastest."""
    setup, _ = tracer.layer_times({fastest_load})
    t, own = tracer.layer_times(fastest_items)
    c = tracer.counts[ITEMS]
    n = len(fastest_items)

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "lexicon.load_s": setup["lexicon.load"],
        "coercion.coherence_s": setup["coercion.coherence"],
        "coercion.graph_scans": tracer.counts[SETUP]["coercion.graph_scans"] / loads,
        "coercion.targets_s": t["coercion.targets"] / n,
        "coercion.targets_calls": c["coercion.targets_calls"] / executions,
        "coercion.find_s": t["coercion.find"] / n,
        "composer.compose_s": t["composer.compose"] / n,
        "composer.self_s": own["composer.compose"] / n,
        "composer.match_attempts": c["composer.match_attempts"] / executions,
        "composer.typecheck_calls": c["composer.typecheck_calls"] / executions,
        "composer.normalize_calls": c["composer.normalize_calls"] / executions,
        "composer.analyses": analyses / executions,
        "composer.yield": ratio(analyses, c["composer.normalize_calls"]),
        "kernel.normalize_s": t["kernel.normalize"] / n,
        "kernel.reduce_steps": c["kernel.reduce_steps"] / executions,
        "kernel.typecheck_s": t["kernel.typecheck"] / n,
        "kernel.eta_s": t["kernel.eta"] / n,
        "inductives.rule_attempts": c["inductives.rule_attempts"] / executions,
        "inductives.rewrites": c["inductives.rewrites"] / executions,
        "inductives.hit_ratio": ratio(c["inductives.rewrites"], c["inductives.rule_attempts"]),
        "syntax.parse_s": t["syntax.parse"] / n,
        "syntax.print_s": t["syntax.print"] / n,
        "syntax.canon_type_calls": c["syntax.canon_type_calls"] / executions,
        "hol.extract_s": t["hol.extract"] / n,
        "hol.classify_s": t["hol.classify"] / n,
        "hol.print_s": t["hol.print"] / n,
        "trace.overhead_ratio": overhead_ratio,
        "error_rate": error_rate,
    }


def layer_shares(tracer: Tracer, fastest_items: set[str], item_time: float) -> dict[str, float]:
    """Each layer's self time in the fastest traced item runs, as a share of
    those runs' time; the layer is the span name's module prefix."""
    _, own = tracer.layer_times(fastest_items)
    shares = defaultdict(float)
    for name, seconds in own.items():
        shares[name.split(".")[0]] += seconds / item_time
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))
