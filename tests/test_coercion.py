"""Coercion graphs: coherence, path composition, derived coercions.

The coherence oracle here is independent of the implementation: networkx
simple-path enumeration over an explicitly built multigraph.  A second set
of oracles is the pairwise path-enumerating code that the path table
replaced, kept here to check the table's reports and orderings exactly.  A
third is the pair of lookups that one recursive lookup over the graph's
chain table replaced (reference_coercion.py).
"""

import random
import sys
from collections import Counter
from time import perf_counter

import networkx as nx
import pytest

from polysem.coercion import (
    BaseCoercion,
    CoercionGraph,
    CoherenceReport,
    PathConflict,
    check_coherence,
    coerce_app,
    coercion_targets,
    coercion_to,
    find_coercion,
    sort_coercions,
)
from polysem.errors import IncoherentGraph
from polysem.kernel import typecheck
from polysem.lexicon import builtin_signature, load_lexicon
from polysem.syntax import (
    App,
    Arrow,
    Base,
    Const,
    Forall,
    Lam,
    PROP,
    TyVar,
    Var,
    alpha_eq,
    entity_sort,
    etype,
    fresh_name,
    free_vars,
    parse_term,
    parse_type,
    print_term,
    print_type,
)

import reference_coercion
from reference_coercion import compose_path, shown


def _graph(*triples):
    return CoercionGraph(tuple(BaseCoercion(n, entity_sort(a), entity_sort(b))
                               for n, a, b in triples))


def _sig_for(graph, extra_sorts=()):
    sorts = [e.source for e in graph.edges] + [e.target for e in graph.edges]
    sorts += [entity_sort(s) for s in extra_sorts]
    consts = {e.name: e.arrow() for e in graph.edges}
    return builtin_signature().extend(sorts=sorts, constants=consts)


# ---------------------------------------------------------------------------
# check_coherence


def test_linear_chain_coherent():
    g = _graph(("c1", "human", "animal"), ("c2", "animal", "phys"))
    assert check_coherence(g).ok


def test_empty_graph_coherent():
    assert check_coherence(CoercionGraph()).ok


def test_diamond_incoherent():
    # Exhaustive enumeration on the 4-node diamond, done by hand:
    # paths book->obj: [bookPhys, physObj] and [bookInfo, infoObj]; every
    # other ordered pair has at most one path.
    g = _graph(
        ("bookPhys", "book", "phys"),
        ("bookInfo", "book", "info"),
        ("physObj", "phys", "obj"),
        ("infoObj", "info", "obj"),
    )
    report = check_coherence(g)
    assert not report.ok
    assert len(report.conflicts) == 1
    conflict = report.conflicts[0]
    assert (conflict.source, conflict.target) == (entity_sort("book"), entity_sort("obj"))
    witnessed = {tuple(e.name for e in conflict.first), tuple(e.name for e in conflict.second)}
    assert witnessed == {("bookPhys", "physObj"), ("bookInfo", "infoObj")}


def test_cycle_detected():
    g = _graph(("up", "a", "b"), ("down", "b", "a"))
    report = check_coherence(g)
    assert not report.ok
    assert report.cycles
    assert {e.name for e in report.cycles[0]} == {"up", "down"}


def test_parallel_edges_incoherent():
    g = _graph(("one", "a", "b"), ("two", "a", "b"))
    report = check_coherence(g)
    assert not report.ok
    assert report.conflicts
    assert report.describe() == "two paths e:a~>e:b: one and two"


# ---------------------------------------------------------------------------
# compose_path (reference_coercion.py): the chain builder the oracles use


def test_compose_singleton_is_the_constant():
    e = BaseCoercion("humanAni", entity_sort("human"), entity_sort("animal"))
    assert compose_path([e]) == Const("humanAni", e.arrow())


def test_compose_two_step():
    e1 = BaseCoercion("c1", entity_sort("human"), entity_sort("animal"))
    e2 = BaseCoercion("c2", entity_sort("animal"), entity_sort("phys"))
    out = compose_path([e1, e2])
    expected = parse_term(
        "(lam (x e:human) (app c2 (app c1 x)))",
        _sig_for(_graph(("c1", "human", "animal"), ("c2", "animal", "phys"))),
    )
    assert alpha_eq(out, expected)


def test_compose_empty_is_broken():
    with pytest.raises(ValueError):
        compose_path([])
    e1 = BaseCoercion("c1", entity_sort("a"), entity_sort("b"))
    e2 = BaseCoercion("c2", entity_sort("c"), entity_sort("d"))
    with pytest.raises(ValueError):
        compose_path([e1, e2])


# ---------------------------------------------------------------------------
# find_coercion


def test_find_base_edge_is_constant():
    g = _graph(("f0", "book", "phys"))
    out = find_coercion(g, etype("book"), etype("phys"))
    assert out == Const("f0", Arrow(etype("book"), etype("phys")))


def test_find_reflexivity():
    g = CoercionGraph()
    out = find_coercion(g, etype("a"), etype("a"))
    assert alpha_eq(out, Lam("x", etype("a"), Var("x")))


def test_find_arrow_lift():
    # contravariant lift of f0: book->phys over the predicate arrow; the
    # codomain t lifts by identity, so the result is exactly
    # lam P^{phys->t}. lam x^{book}. P (f0 x)   (hand application of the rule)
    g = _graph(("f0", "book", "phys"))
    sig = _sig_for(g)
    out = find_coercion(g, parse_type("(-> e:phys t)"), parse_type("(-> e:book t)"))
    expected = parse_term("(lam (P (-> e:phys t)) (lam (x e:book) (app P (app f0 x))))", sig)
    assert alpha_eq(out, expected)
    assert typecheck(out, sig) == parse_type("(-> (-> e:phys t) (-> e:book t))")


def test_find_requires_coherence():
    g = _graph(("one", "a", "b"), ("two", "a", "b"))
    with pytest.raises(IncoherentGraph):
        find_coercion(g, etype("a"), etype("b"))


@pytest.mark.parametrize("edges", [
    (("one", "a", "b"), ("two", "a", "b")),    # two paths a ~> b
    (("up", "a", "b"), ("down", "b", "a")),    # a cycle
])
def test_coercion_to_requires_coherence(edges):
    # the lookup's one answer agrees with enumeration only under coherence
    g = _graph(*edges)
    for ty, goal in ((etype("a"), etype("b")), (etype("c"), etype("d")),
                     (Arrow(etype("b"), PROP), Arrow(etype("a"), PROP))):
        with pytest.raises(IncoherentGraph):
            coercion_to(g, ty, goal)


def test_find_no_path(lex):
    out = find_coercion(lex.coercions, etype("chair"), etype("dog"))
    assert out is None


# ---------------------------------------------------------------------------
# randomized agreement with the networkx oracle


def _random_dag(rng, n_sorts):
    names = [f"s{i}" for i in range(n_sorts)]
    edges = []
    k = 0
    for i in range(n_sorts):
        for j in range(i + 1, n_sorts):
            if rng.random() < 0.3:
                edges.append((f"e{k}", names[i], names[j]))
                k += 1
    return _graph(*edges)


def _nx_multigraph(g):
    m = nx.MultiDiGraph()
    for s in g.nodes:
        m.add_node(s.name)
    for e in g.edges:
        m.add_edge(e.source.name, e.target.name, key=e.name)
    return m


def _oracle_coherent(g):
    m = _nx_multigraph(g)
    if not nx.is_directed_acyclic_graph(m):
        return False
    for a in m.nodes:
        for b in m.nodes:
            if a == b:
                continue
            paths = list(nx.all_simple_edge_paths(m, a, b))
            if len(paths) > 1:
                return False
    return True


def test_coherence_matches_oracle_on_random_dags():
    rng = random.Random(42)
    seen_ok = seen_bad = 0
    for _ in range(60):
        g = _random_dag(rng, rng.randrange(3, 13))
        ours = check_coherence(g).ok
        oracle = _oracle_coherent(g)
        assert ours == oracle
        seen_ok += ours
        seen_bad += not ours
    assert seen_ok and seen_bad  # the family exercises both answers


def test_find_coercion_iff_reachable():
    rng = random.Random(17)
    tried = 0
    while tried < 25:
        g = _random_dag(rng, rng.randrange(3, 9))
        if not check_coherence(g).ok or not g.edges:
            continue
        tried += 1
        sig = _sig_for(g)
        m = _nx_multigraph(g)
        for a in sorted(m.nodes):
            for b in sorted(m.nodes):
                if a == b:
                    continue
                out = find_coercion(g, etype(a), etype(b))
                reachable = nx.has_path(m, a, b)
                assert (out is not None) == reachable
                if out is not None:
                    assert typecheck(out, sig) == Arrow(etype(a), etype(b))


def test_find_coercion_unique_under_search_order():
    rng = random.Random(3)
    tried = 0
    while tried < 15:
        g = _random_dag(rng, rng.randrange(3, 8))
        if not check_coherence(g).ok or not g.edges:
            continue
        tried += 1
        reversed_g = CoercionGraph(tuple(reversed(g.edges)))
        for a in sorted(s.name for s in g.nodes):
            for b in sorted(s.name for s in g.nodes):
                one = find_coercion(g, etype(a), etype(b))
                two = find_coercion(reversed_g, etype(a), etype(b))
                assert (one is None) == (two is None)
                if one is not None:
                    assert alpha_eq(one, two)


def test_arrow_lift_soundness():
    rng = random.Random(23)
    g = _graph(("d2a", "dd", "aa"), ("a2p", "aa", "pp"), ("c2p", "cc", "pp"))
    sig = _sig_for(g)
    sorts = ["dd", "aa", "pp", "cc"]
    for _ in range(100):
        a, a2, b, b2 = (etype(rng.choice(sorts)) for _ in range(4))
        src, dst = Arrow(a, b), Arrow(a2, b2)
        out = find_coercion(g, src, dst)
        if out is not None:
            assert typecheck(out, sig) == Arrow(src, dst)


def test_coercion_targets_ordering(lex):
    # dog coerces to ani (one edge) before phys (two edges)
    targets = coercion_targets(lex.coercions, etype("dog"))
    tys = [ty for _, ty in targets]
    assert tys == [etype("ani"), etype("phys")]
    for co, ty in targets:
        assert typecheck(co, lex.signature) == Arrow(etype("dog"), ty)


# ---------------------------------------------------------------------------
# differential test against the pairwise path enumeration the table replaced


def _seed_outgoing(g, sort):
    return [e for e in g.edges if e.source == sort]


def _seed_incoming(g, sort):
    return [e for e in g.edges if e.target == sort]


def _seed_find_cycle(g):
    WHITE, GREY, BLACK = 0, 1, 2
    color = {n: WHITE for n in g.nodes}
    trail = []

    def visit(node):
        color[node] = GREY
        for edge in _seed_outgoing(g, node):
            if color[edge.target] == GREY:
                start = next(i for i, e in enumerate(trail) if e.source == edge.target)
                return tuple(trail[start:]) + (edge,)
            if color[edge.target] == WHITE:
                trail.append(edge)
                found = visit(edge.target)
                if found is not None:
                    return found
                trail.pop()
        color[node] = BLACK
        return None

    for node in sorted(g.nodes, key=str):
        if color[node] == WHITE:
            found = visit(node)
            if found is not None:
                return found
    return None


def _seed_paths(g, source, target, limit):
    out = []

    def walk(node, acc):
        if len(out) >= limit:
            return
        if node == target and acc:
            out.append(acc)
            if len(out) >= limit:
                return
        for edge in _seed_outgoing(g, node):
            walk(edge.target, acc + (edge,))

    walk(source, ())
    return out


def _seed_check_coherence(g):
    cycle = _seed_find_cycle(g)
    if cycle is not None:
        return CoherenceReport(ok=False, cycles=(cycle,))
    conflicts = []
    nodes = sorted(g.nodes, key=str)
    for a in nodes:
        for b in nodes:
            if a == b:
                continue
            paths = _seed_paths(g, a, b, limit=2)
            if len(paths) > 1:
                conflicts.append(PathConflict(a, b, paths[0], paths[1]))
    return CoherenceReport(ok=not conflicts, conflicts=tuple(conflicts))


def _seed_sort_targets(g, sort):
    found = []
    order = {e: i for i, e in enumerate(g.edges)}

    def walk(node, acc):
        for edge in _seed_outgoing(g, node):
            path = acc + [edge]
            key = (len(path), tuple(order[e] for e in path))
            found.append((key, compose_path(path), Base(edge.target)))
            walk(edge.target, path)

    walk(sort, [])
    found.sort(key=lambda item: item[0])
    return [(term, ty) for _, term, ty in found]


def _seed_sort_sources(g, sort):
    found = []
    order = {e: i for i, e in enumerate(g.edges)}

    def walk(node, acc):
        for edge in _seed_incoming(g, node):
            path = [edge] + acc
            key = (len(path), tuple(order[e] for e in path))
            found.append((key, compose_path(path), Base(edge.source)))
            walk(edge.source, path)

    walk(sort, [])
    found.sort(key=lambda item: item[0])
    return [(term, ty) for _, term, ty in found]


def _seed_arrow_targets(g, ty):
    dom_opts = [(None, ty.domain)] + _seed_sort_sources(g, ty.domain.sort)
    cod_opts = [(None, ty.codomain)] + _seed_sort_targets(g, ty.codomain.sort)
    out = []
    for c, new_dom in dom_opts:
        for d, new_cod in cod_opts:
            if c is None and d is None:
                continue
            f = "f"
            x = fresh_name("x", (free_vars(c) if c is not None else frozenset())
                           | (free_vars(d) if d is not None else frozenset()) | {f})
            inner = App(Var(f), Var(x)) if c is None else App(Var(f), coerce_app(c, Var(x)))
            body = inner if d is None else coerce_app(d, inner)
            out.append((Lam(f, ty, Lam(x, new_dom, body)), Arrow(new_dom, new_cod)))
    return out


def _printed(pairs):
    return [(print_term(term), ty) for term, ty in pairs]


def _random_multigraph(rng, n_sorts):
    """Edges from lower- to higher-numbered sorts, some doubled by a
    parallel edge; a fifth of the graphs also get one back edge (a cycle).
    Declaration order is shuffled, and names sort as strings (s10 < s2)."""
    triples = []
    for i in range(n_sorts):
        for j in range(i + 1, n_sorts):
            if rng.random() < 0.25:
                triples.append((i, j))
                if rng.random() < 0.1:
                    triples.append((i, j))
    if triples and rng.random() < 0.2:
        i, j = rng.choice(triples)
        triples.append((j, rng.randrange(0, j)))
    rng.shuffle(triples)
    return _graph(*((f"e{k}", f"s{i}", f"s{j}") for k, (i, j) in enumerate(triples)))


def test_path_table_matches_seed_pairwise_enumeration():
    rng = random.Random(2013)
    seen = Counter()
    for _ in range(300):
        g = _random_multigraph(rng, rng.randrange(2, 11))
        report, expected = check_coherence(g), _seed_check_coherence(g)
        assert report.describe() == expected.describe()
        assert report == expected
        seen["cycle" if report.cycles else "conflict" if report.conflicts else "coherent"] += 1
        if not report.ok:
            continue
        # the orderings are compared where the composer uses them: on
        # coherent graphs, where every path is the only one of its pair
        for sort in sorted(g.nodes, key=str):
            assert _printed(coercion_targets(g, Base(sort))) == _printed(_seed_sort_targets(g, sort))
            assert _printed(sort_coercions(g, sort, into=True)) == _printed(_seed_sort_sources(g, sort))
            pred = Arrow(Base(sort), PROP)
            assert _printed(coercion_targets(g, pred)) == _printed(_seed_arrow_targets(g, pred))
    assert min(seen.values()) >= 20, seen  # the family exercises every outcome


def _shapes(sorts):
    """Every type of the shapes e:a, (-> e:a t), (-> e:a e:b) and
    (-> e:a (-> e:b t)) over `sorts`, one list per shape."""
    bases = [Base(s) for s in sorts]
    return [bases,
            [Arrow(a, PROP) for a in bases],
            [Arrow(a, b) for a in bases for b in bases],
            [Arrow(a, Arrow(b, PROP)) for a in bases for b in bases]]


def test_coercion_to_is_the_matching_enumerated_target():
    rng = random.Random(2013)
    found = checked = 0
    for _ in range(300):
        g = _random_multigraph(rng, rng.randrange(2, 11))
        if not check_coherence(g).ok:
            continue
        for shape in _shapes(sorted(g.nodes, key=str)):
            for ty in shape:
                targets = {}
                for term, target in coercion_targets(g, ty):
                    assert target not in targets  # at most one entry per type
                    targets[target] = (print_term(term), print_type(target))
                for goal in shape:
                    out = coercion_to(g, ty, goal)
                    printed = None if out is None else (print_term(out[0]), print_type(out[1]))
                    assert printed == targets.get(goal), (ty, goal)
                    found += out is not None
                    checked += 1
    assert found > 5_000 and checked > 10 * found  # goals with and without a path


def _binder_shapes(sorts):
    """Shapes the composer meets less often, one list per shape: arrow
    domains, (-> (-> e:a t) t) and (-> (-> e:a e:b) t), and domains bearing
    a ∀, each ∀ under two binder names so that α-equal types are spelt apart."""
    bases = [Base(s) for s in sorts]
    polys = [Forall(n, Arrow(TyVar(n), TyVar(n))) for n in ("a", "b")]
    return [[Arrow(Arrow(a, PROP), PROP) for a in bases],
            [Arrow(Arrow(a, b), PROP) for a in bases for b in bases],
            [Arrow(p, a) for p in polys for a in bases],
            [Arrow(Arrow(p, a), PROP) for p in polys for a in bases],
            [Arrow(Forall(n, Arrow(TyVar(n), a)), Arrow(a, PROP)) for n in ("a", "b") for a in bases]]


def test_one_lookup_answers_as_the_two_it_replaced():
    rng = random.Random(27)
    seen = Counter()
    for _ in range(120):
        g = _random_multigraph(rng, rng.randrange(2, 9))
        sorts = sorted(g.nodes, key=str)
        if not check_coherence(g).ok:
            ty = Arrow(Base(sorts[0]), PROP)
            for lookup in (find_coercion, coercion_to, reference_coercion.find_coercion,
                           reference_coercion.coercion_to):
                with pytest.raises(IncoherentGraph):
                    lookup(g, ty, ty)
            continue
        for shape in _shapes(sorts) + _binder_shapes(sorts):
            for ty in shape:
                for goal in shape:
                    found = shown(find_coercion(g, ty, goal))
                    assert found == shown(reference_coercion.find_coercion(g, ty, goal)), (ty, goal)
                    entry = shown(coercion_to(g, ty, goal))
                    assert entry == shown(reference_coercion.coercion_to(g, ty, goal)), (ty, goal)
                    seen["found"] += found is not None
                    seen["entry"] += entry is not None
                    # an entry keeps the source's binder names where the goal spells them apart
                    seen["spelt apart"] += entry is not None and entry[1] != print_type(goal)
                    seen["find only"] += found is not None and entry is None and ty != goal
    assert seen["found"] > 10_000 and seen["entry"] > 4_000, seen
    assert seen["spelt apart"] > 200 and seen["find only"] > 2_000, seen


def test_each_chain_is_built_once_per_graph():
    g = _chain(4)
    s0, s2, s4 = (entity_sort(f"s{i}") for i in (0, 2, 4))
    assert g.chain(s0, s4) is g.chain(s0, s4) is find_coercion(g, etype("s0"), etype("s4"))
    assert g.chain(s0, s2) is sort_coercions(g, s0)[1][0]
    assert g.chain(s4, s0) is None and g.chain(s0, s0) is None
    assert g == _chain(4) and "_chains" not in repr(g)  # the table is no part of the graph's value


def test_a_chain_is_built_on_its_longest_kept_prefix():
    g, s = _chain(5), [entity_sort(f"s{i}") for i in range(6)]
    two, four = g.chain(s[0], s[2]), g.chain(s[0], s[4])
    assert four.body.arg.arg is two.body and g.chain(s[0], s[3]).body.arg is two.body
    assert g.chain(s[0], s[5]).body.arg is four.body and g.chain(s[1], s[2]) is g.edges[1].const
    for t in s[1:]:
        assert g.chain(s[0], t) == compose_path(g.path(s[0], t))
        assert print_term(g.chain(s[0], t)) == print_term(compose_path(g.path(s[0], t)))


# ---------------------------------------------------------------------------
# scaling and robustness


def _chain(n):
    return _graph(*((f"c{i}", f"s{i}", f"s{i + 1}") for i in range(n)))


def test_chain_of_200_edges_checked_in_under_50ms():
    times = []
    for _ in range(3):  # a fresh graph each time: the report is cached per graph
        g = _chain(200)
        start = perf_counter()
        assert check_coherence(g).ok
        times.append(perf_counter() - start)
    assert min(times) < 0.05


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_deep_random_tree_of_1000_sorts_loads_in_under_a_second():
    # each sort's parent is one of the two sorts declared before it, so the
    # tree is hundreds of edges deep: a walk recursing once per edge would
    # overflow the lowered recursion limit below
    rng = random.Random(1000)
    parent = {i: rng.randrange(max(0, i - 2), i) for i in range(1, 1000)}
    text = "\n".join([f"sort e:s{i}" for i in range(1000)]
                     + [f"coercion c{i} : e:s{i} -> e:s{p}" for i, p in parent.items()])
    depth = {0: 0}
    for i in range(1, 1000):
        depth[i] = depth[parent[i]] + 1
    assert max(depth.values()) > 500
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 200)
    try:
        start = perf_counter()
        lex = load_lexicon(text)
        elapsed = perf_counter() - start
    finally:
        sys.setrecursionlimit(limit)
    assert elapsed < 1.0
    deepest = max(depth, key=depth.get)
    assert len(lex.coercions.path(entity_sort(f"s{deepest}"), entity_sort("s0"))) == depth[deepest]
