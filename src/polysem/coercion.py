"""Coercive subtyping: declared base-sort coercions and derived structural
coercions between complex types.

The usability condition is coherence: at most one directed path between any
ordered pair of sorts (and no cycles).  Under coherence the derived coercion
between any two complex types is unique up to alpha-equivalence, so
find_coercion can search greedily.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .errors import BrokenChain, IncoherentGraph
from .syntax import (
    App,
    Arrow,
    Base,
    Const,
    Lam,
    Sort,
    Term,
    Type,
    Var,
    fresh_name,
    free_vars,
)
from .kernel import substitute


@dataclass(frozen=True)
class BaseCoercion:
    """A declared coercion constant between two distinct entity sorts."""

    name: str
    source: Sort
    target: Sort

    def __post_init__(self):
        if self.source == self.target:
            raise ValueError(f"coercion {self.name} must relate distinct sorts")

    def arrow(self) -> Type:
        return Arrow(Base(self.source), Base(self.target))

    @cached_property
    def const(self) -> Const:  # one node per edge, so what the kernel remembers on it is found once
        return Const(self.name, self.arrow())


Path = tuple[BaseCoercion, ...]


@dataclass(frozen=True)
class PathConflict:
    source: Sort
    target: Sort
    first: Path
    second: Path


@dataclass(frozen=True)
class CoherenceReport:
    ok: bool
    conflicts: tuple[PathConflict, ...] = ()
    cycles: tuple[Path, ...] = ()

    def describe(self) -> str:
        parts = []
        for cyc in self.cycles:
            names = " -> ".join(e.name for e in cyc)
            parts.append(f"cycle through {names}")
        for c in self.conflicts:
            p1 = "∘".join(e.name for e in reversed(c.first))
            p2 = "∘".join(e.name for e in reversed(c.second))
            parts.append(f"two paths {c.source}~>{c.target}: {p1} and {p2}")
        return "; ".join(parts) if parts else "coherent"


@dataclass(frozen=True)
class CoercionGraph:
    """Declared coercions.  Adjacency lists, the path table and the coherence
    report are computed on first use and cached on the (immutable) graph."""

    edges: tuple[BaseCoercion, ...] = ()

    @cached_property
    def nodes(self) -> frozenset[Sort]:
        return frozenset(self._adjacency[0]) | frozenset(self._adjacency[1])

    @cached_property
    def _adjacency(self):
        """Outgoing and incoming edges per sort, in declaration order, and
        each edge's declaration rank."""
        out: dict[Sort, list[BaseCoercion]] = {}
        inc: dict[Sort, list[BaseCoercion]] = {}
        for e in self.edges:
            out.setdefault(e.source, []).append(e)
            inc.setdefault(e.target, []).append(e)
        return out, inc, {e: i for i, e in enumerate(self.edges)}

    def outgoing(self, sort: Sort) -> list[BaseCoercion]:
        return self._adjacency[0].get(sort, [])

    def incoming(self, sort: Sort) -> list[BaseCoercion]:
        return self._adjacency[1].get(sort, [])

    @cached_property
    def _table(self):
        """The path table (cycle, hops, multi), from one depth-first walk
        over the sorts in name order, following edges in declaration order.

        cycle is the first directed cycle met, as its edge sequence, or None.
        When it is None, hops[s] maps each sort that s reaches by >= 1 edge
        to the first edge of the first such path in DFS edge order, and
        multi[s] is the set of sorts s reaches by two or more paths.  A
        sort's entries are built as the walk leaves it, from its successors'
        entries: the first out-edge reaching t starts the first path to t,
        and t has two paths if two out-edges reach it or one successor has
        two.  O(V·E) in all.
        """
        GREY, BLACK = 1, 2
        color: dict[Sort, int] = {}
        hops: dict[Sort, dict[Sort, BaseCoercion]] = {}
        multi: dict[Sort, set[Sort]] = {}
        for root in sorted(self.nodes, key=str):
            if root in color:
                continue
            color[root] = GREY
            stack = [(root, None, iter(self.outgoing(root)))]  # (sort, edge in, edges left)
            while stack:
                node, _, edges = stack[-1]
                for edge in edges:
                    mark = color.get(edge.target)
                    if mark == GREY:
                        start = next(i for i, entry in enumerate(stack) if entry[0] == edge.target)
                        return tuple(e for _, e, _ in stack[start + 1:]) + (edge,), {}, {}
                    if mark is None:
                        color[edge.target] = GREY
                        stack.append((edge.target, edge, iter(self.outgoing(edge.target))))
                        break
                else:
                    stack.pop()
                    color[node] = BLACK
                    hop: dict[Sort, BaseCoercion] = {}
                    many: set[Sort] = set()
                    for e in self.outgoing(node):
                        many |= multi[e.target]
                        for t in (e.target, *hops[e.target]):
                            if t in hop:
                                many.add(t)
                            else:
                                hop[t] = e
                    hops[node], multi[node] = hop, many
        return None, hops, multi

    @cached_property
    def coherence(self) -> CoherenceReport:
        """check_coherence's report, computed once per graph."""
        return check_coherence(self)

    def path(self, source: Sort, target: Sort) -> Optional[Path]:
        """The first path source ~> target of >= 1 edge in DFS edge order,
        or None.  Read off the path table, so None on a cyclic graph."""
        hops = self._table[1]
        out = []
        while source != target:
            edge = hops.get(source, {}).get(target)
            if edge is None:
                return None
            out.append(edge)
            source = edge.target
        return tuple(out) or None


def _witnesses(g: CoercionGraph, source: Sort, target: Sort) -> tuple[Path, Path]:
    """The first two paths source ~> target in DFS edge order.  The second
    leaves the first as late as possible, by the next out-edge that still
    reaches `target`, and goes on by the first path from there."""
    first, hops = g.path(source, target), g._table[1]
    for i in reversed(range(len(first))):
        outs = g.outgoing(first[i].source)
        for e in outs[outs.index(first[i]) + 1:]:
            if e.target == target or target in hops[e.target]:
                return first, first[:i] + (e,) + (g.path(e.target, target) or ())
    raise ValueError(f"one path {source}~>{target}")


def check_coherence(g: CoercionGraph) -> CoherenceReport:
    """ok iff the graph is acyclic and has at most one directed path between
    every ordered pair of sorts.  Violations list both witness paths: the
    first two in DFS edge order."""
    cycle, _, multi = g._table
    if cycle is not None:
        return CoherenceReport(ok=False, cycles=(cycle,))
    conflicts = tuple(PathConflict(a, b, *_witnesses(g, a, b))
                      for a in sorted(g.nodes, key=str) for b in sorted(multi[a], key=str))
    return CoherenceReport(ok=not conflicts, conflicts=conflicts)


def compose_path(edges: list[BaseCoercion]) -> Term:
    """Materialize a chained edge path as a term.

    A singleton path is the coercion constant itself; longer paths become
    lam x. e_n (... (e_1 x)).  Empty paths are rejected: reflexivity is
    find_coercion's business.
    """
    if not edges:
        raise BrokenChain("empty coercion path")
    for left, right in zip(edges, edges[1:]):
        if left.target != right.source:
            raise BrokenChain(f"{left.name}: ...->{left.target} does not chain with {right.name}: {right.source}->...")
    if len(edges) == 1:
        return edges[0].const
    body: Term = Var("x")
    for edge in edges:
        body = App(edge.const, body)
    return Lam("x", Base(edges[0].source), body)


def coerce_app(co: Term, arg: Term) -> Term:
    """Apply a coercion term to an argument, contracting the redex when the
    coercion is a lambda so that inserted coercions stay beta-normal."""
    if isinstance(co, Lam):
        return substitute(co.body, co.binder, arg)
    return App(co, arg)


def find_coercion(g: CoercionGraph, source: Type, target: Type) -> Optional[Term]:
    """The unique coercion term of type source -> target, or None.

    Built from reflexivity (identity), composition of base edges, and arrow
    lifting (contravariant domain, covariant codomain).  No lifting under
    universal quantifiers.  Requires a coherent graph.
    """
    if not g.coherence.ok:
        raise IncoherentGraph("find_coercion requires a coherent graph")
    return _find(g, source, target)


def _find(g: CoercionGraph, source: Type, target: Type) -> Optional[Term]:
    if source == target:
        return Lam("x", source, Var("x"))
    if isinstance(source, Base) and isinstance(target, Base):
        if source.sort.kind != "entity" or target.sort.kind != "entity":
            return None
        path = g.path(source.sort, target.sort)
        return None if path is None else compose_path(path)
    if isinstance(source, Arrow) and isinstance(target, Arrow):
        c = _find(g, target.domain, source.domain)
        d = _find(g, source.codomain, target.codomain)
        if c is None or d is None:
            return None
        return _lift(source, target.domain, c, d)
    return None


def _lift(ty: Type, new_dom: Type, c: Optional[Term], d: Optional[Term]) -> Term:
    """The arrow lift lam f:ty. lam x:new_dom. d (f (c x)) of c: new_dom -> A
    and d: B -> B' for ty = A -> B; a missing c or d is the identity."""
    x = fresh_name("x", {"f"}.union(*(free_vars(co) for co in (c, d) if co is not None)))
    reuse = isinstance(c, Lam) and c.binder == x  # c x is c's body, whose free variables choosing x stored
    body = App(Var("f"), c.body if reuse else Var(x) if c is None else coerce_app(c, Var(x)))
    return Lam("f", ty, Lam(x, new_dom, body if d is None else coerce_app(d, body)))


# ---------------------------------------------------------------------------
# Enumeration of coercion targets/sources (used by the composer's search)


def sort_coercions(g: CoercionGraph, sort: Sort, into: bool = False) -> list[tuple[Term, Type]]:
    """(coercion term, other end) for every sort that `sort` reaches by >= 1
    edge or, with `into`, that reaches `sort`; ordered by path length, then
    by the declaration order of the path's edges."""
    hops = g._table[1]
    if into:
        paths = [g.path(s, sort) for s, hop in hops.items() if sort in hop]
    else:
        paths = [g.path(sort, t) for t in hops.get(sort, ())]
    rank = g._adjacency[2]
    paths.sort(key=lambda p: (len(p), [rank[e] for e in p]))
    return [(compose_path(p), Base(p[0].source if into else p[-1].target)) for p in paths]


def coercion_targets(g: CoercionGraph, ty: Type) -> list[tuple[Term, Type]]:
    """Non-identity structural coercions out of `ty`: base-sort paths, and
    arrow lifts combining domain sources with codomain targets.  Only
    base-sort sources are enumerated on the contravariant side."""
    match ty:
        case Base(sort) if sort.kind == "entity":
            return sort_coercions(g, sort)
        case Arrow(dom, cod):
            dom_opts = [(None, dom)]
            if isinstance(dom, Base) and dom.sort.kind == "entity":
                dom_opts += sort_coercions(g, dom.sort, into=True)
            cod_opts = [(None, cod)] + coercion_targets(g, cod)
            return [(_lift(ty, new_dom, c, d), Arrow(new_dom, new_cod))
                    for c, new_dom in dom_opts for d, new_cod in cod_opts
                    if c is not None or d is not None]
        case _:
            return []


def coercion_to(g: CoercionGraph, ty: Type, goal: Type) -> Optional[tuple[Term, Type]]:
    """The entry of coercion_targets(g, ty) whose type alpha-equals `goal`,
    or None, read off the path table without enumerating.  The entry is
    unique only on a coherent graph, so that is required."""
    if not g.coherence.ok:
        raise IncoherentGraph("coercion_to requires a coherent graph")
    match ty, goal:
        case Base(sort), Base(target) if sort.kind == "entity":
            path = g.path(sort, target)
            return None if path is None else (compose_path(path), goal)
        case Arrow(dom, cod), Arrow(new_dom, new_cod):
            c = d = None
            if new_dom != dom:
                if not (isinstance(dom, Base) and dom.sort.kind == "entity"
                        and isinstance(new_dom, Base)):
                    return None
                path = g.path(new_dom.sort, dom.sort)
                if path is None:
                    return None
                c, dom = compose_path(path), Base(new_dom.sort)
            if new_cod != cod:
                found = coercion_to(g, cod, new_cod)
                if found is None:
                    return None
                d, cod = found
            elif c is None:
                return None
            return _lift(ty, dom, c, d), Arrow(dom, cod)
    return None
