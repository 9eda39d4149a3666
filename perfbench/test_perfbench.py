"""Self-tests of the benchmark: seeded inputs, oracles, tracer removal and
the agreement of BENCHMARK.json with what run.py prints.

    python3 -m pytest perfbench -q
"""

import contextlib
import io
import json
import random
from dataclasses import replace
from pathlib import Path

import pytest

import workloads as W  # first: it puts ./src on sys.path
import run
import tracing
from polysem.inductives import numeral
from polysem.syntax import print_term

ROOT = Path(__file__).resolve().parent.parent


def _first(wl, pred):
    return next(item for item in wl.items if pred(item.expected))


def _output(wl, item):
    api = W.make_api()
    return wl.run(api, api.load_lexicon(wl.lexicon_text), item.text)


@pytest.fixture(scope="module")
def lexicons():
    return {name: W.make_api().load_lexicon(W.make_workload(name, 3).lexicon_text)
            for name in W.WORKLOADS}


# ---------------------------------------------------------------------------
# generators


@pytest.mark.parametrize("name", W.WORKLOADS)
def test_same_seed_same_inputs(name):
    a, b = W.make_workload(name, 11), W.make_workload(name, 11)
    assert a.lexicon_text.encode() == b.lexicon_text.encode()
    assert [i.text.encode() for i in a.items] == [i.text.encode() for i in b.items]
    assert [i.expected for i in a.items] == [i.expected for i in b.items]
    other = W.make_workload(name, 12)
    assert [i.text for i in a.items] != [i.text for i in other.items]


@pytest.mark.parametrize("name", W.WORKLOADS)
def test_item_lists_hold_whole_cycles(name):
    items = W.make_workload(name, 5).items
    assert len(items) >= W.ITEMS
    if name == "ambiguity":
        blocked = [i for i in items if i.expected.blocked_path is not None]
        assert len(blocked) * 5 == len(items)
    if name == "ontology":
        no_path = [i for i in items if i.expected.chain is None]
        assert abs(len(no_path) / len(items) - 0.2) < 0.02


def test_ontology_depth_total_is_held_near_target():
    for seed in range(5):
        onto = W.make_ontology(random.Random(seed))
        total = sum(len(onto.ancestors(k)) for k in range(len(onto.parent)))
        assert abs(total - W.DEPTH_SUM_TARGET) <= W.DEPTH_SUM_TOLERANCE * W.DEPTH_SUM_TARGET


# ---------------------------------------------------------------------------
# oracles accept the program's output and reject a wrong one


def test_ambiguity_oracle(lexicons):
    lex = lexicons["ambiguity"]
    wl = W.make_workload("ambiguity", 3)
    item = _first(wl, lambda e: e.count == 8)
    out = _output(wl, item)
    assert W.check_ambiguity(lex, item, out) is None
    dropped = W.TreeOutput(out.analyses[:-1], out.readings[:-1], None)
    assert "7 analyses" in W.check_ambiguity(lex, item, dropped)
    # a reading of another tree: right count, formulas outside the expected set
    other = _first(wl, lambda e: e.count == 8 and e != item.expected)
    assert "unexpected formula" in W.check_ambiguity(lex, item, _output(wl, other))
    # a formula that does not round-trip to its term
    swapped = [(out.readings[1][0],) + r[1:] if i == 0 else r
               for i, r in enumerate(out.readings)]
    bad = W.TreeOutput(out.analyses, swapped, None)
    assert "round-trip" in W.check_ambiguity(lex, item, bad)


def test_ambiguity_oracle_blocked(lexicons):
    lex = lexicons["ambiguity"]
    wl = W.make_workload("ambiguity", 3)
    item = _first(wl, lambda e: e.blocked_path is not None and len(e.blocked_path) > 2)
    out = _output(wl, item)
    assert W.check_ambiguity(lex, item, out) is None
    elsewhere = replace(item, expected=replace(item.expected, blocked_path=(1,)))
    assert "RigidityViolation" in W.check_ambiguity(lex, elsewhere, out)
    accepted = _first(wl, lambda e: e.count == 2)
    assert "composed" in W.check_ambiguity(lex, item, _output(wl, accepted))


def test_ontology_oracle(lexicons):
    wl = W.make_workload("ontology", 3)
    lex = W.make_api().load_lexicon(wl.lexicon_text)
    item = _first(wl, lambda e: e.chain is not None and len(e.chain) >= 2)
    out = _output(wl, item)
    assert W.check_ontology(lex, item, out) is None
    exp = item.expected
    wrong_chain = replace(item, expected=replace(exp, chain=exp.chain[:-1]))
    assert "coercion chain" in W.check_ontology(lex, wrong_chain, out)
    assert "1 analyses where no path" in W.check_ontology(
        lex, replace(item, expected=replace(exp, chain=None)), out)
    no_path = _first(wl, lambda e: e.chain is None)
    assert W.check_ontology(lex, no_path, _output(wl, no_path)) is None
    swapped = replace(no_path, expected=replace(no_path.expected, j=no_path.expected.k,
                                                k=no_path.expected.j))
    assert "wrong types" in W.check_ontology(lex, swapped, _output(wl, no_path))
    assert "expected 1" in W.check_ontology(
        lex, replace(no_path, expected=replace(exp, k=no_path.expected.k,
                                               j=no_path.expected.j)),
        _output(wl, no_path))


def test_arith_oracle(lexicons):
    lex = lexicons["arith"]
    wl = W.make_workload("arith", 3)
    item = _first(wl, lambda n: n > 3)
    out = _output(wl, item)
    assert W.check_arith(lex, item, out) is None
    off = numeral(item.expected + 1)
    wrong = W.TermOutput(off, print_term(off), print_term(off))
    assert "not the numeral" in W.check_arith(lex, item, wrong)
    misprinted = W.TermOutput(out.normal, out.printed, print_term(off))
    assert "printed" in W.check_arith(lex, item, misprinted)


# ---------------------------------------------------------------------------
# tracer


def _bindings(api):
    owners = [(owner, attr) for owner, attr, *_ in tracing._targets(api)]
    owners.append((tracing.syntax, "canon_type"))
    return {(id(owner), attr): vars(owner)[attr] for owner, attr in owners}


def test_tracer_records_and_is_fully_removed():
    api = W.make_api()
    before = _bindings(api)
    tracer = tracing.Tracer()
    tracer.install(api)
    assert tracer.missing == []
    during = _bindings(api)
    assert all(during[key] is not fn for key, fn in before.items())
    wl = W.make_workload("ambiguity", 3)
    try:
        tracer.begin(tracer.SETUP, "r0/setup0")
        lex = api.load_lexicon(wl.lexicon_text)
        tracer.begin(tracer.ITEMS, "r0/item0")
        wl.run(api, lex, _first(wl, lambda e: e.count == 16).text)
        tracer.end()
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert {"lexicon.load", "coercion.coherence", "composer.compose",
            "kernel.normalize", "kernel.typecheck", "hol.extract"} <= names
    assert tracer.counts[tracer.ITEMS]["composer.normalize_calls"] >= 16
    assert _bindings(api) == before
    for (_, attr), fn in _bindings(api).items():
        assert not hasattr(fn, "__wrapped__"), attr
    # nothing is recorded once removed
    count = len(tracer.spans)
    wl.run(api, lex, wl.items[0].text)
    assert len(tracer.spans) == count


def test_end_to_end_run_installs_no_tracer(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("end-to-end run created a tracer")

    monkeypatch.setattr(tracing, "Tracer", forbidden)
    result = _main(["--workload", "arith", "--seed", "1", "--seconds", "0", "--trace", "0"])
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)


# ---------------------------------------------------------------------------
# the command and BENCHMARK.json


def _main(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run.main(argv) == 0
    result = json.loads(buf.getvalue().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    return result


def test_traced_run_reports_every_layer_metric_and_untraces():
    api = W.make_api()
    before = {k: fn for k, fn in _bindings(api).items() if k[0] != id(api)}
    result = _main(["--workload", "arith", "--seed", "2", "--seconds", "0", "--trace", "1"])
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.PER_LAYER_UNITS
    assert result["metrics"]["kernel.reduce_steps"]["value"] > 0
    after = {k: fn for k, fn in _bindings(api).items() if k[0] != id(api)}
    assert after == before


def test_benchmark_json_matches_the_command():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
