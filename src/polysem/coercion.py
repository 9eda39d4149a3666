"""Coercive subtyping: declared base-sort coercions and derived structural
coercions between complex types.

The usability condition is coherence: at most one directed path between any
ordered pair of sorts (and no cycles).  Under coherence the derived coercion
between any two types is unique up to alpha-equivalence, so one greedy
lookup serves find_coercion and coercion_to, over chains the graph keeps."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from .errors import BrokenChain, IncoherentGraph
from .syntax import App, Arrow, Base, Const, Lam, Sort, Term, Type, Var, fresh_name, free_vars
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
        parts = [f"cycle through {' -> '.join(e.name for e in cyc)}" for cyc in self.cycles]
        for c in self.conflicts:
            p1, p2 = ("∘".join(e.name for e in reversed(p)) for p in (c.first, c.second))
            parts.append(f"two paths {c.source}~>{c.target}: {p1} and {p2}")
        return "; ".join(parts) or "coherent"


@dataclass(frozen=True)
class CoercionGraph:
    """Declared coercions.  Adjacency lists, the path table, the coherence
    report and each path's chain are computed on first use and kept."""

    edges: tuple[BaseCoercion, ...] = ()
    _chains: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
        sort's entries are built as the walk leaves it, from its successors':
        the first out-edge reaching t starts the first path to t, and t has
        two paths if two out-edges reach it or one successor has two.  O(V·E)."""
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
                    hop, many = {}, set()
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
        """ok iff the graph is acyclic with at most one directed path between
        every ordered pair of sorts; a violation lists the first two in DFS order."""
        cycle, _, multi = self._table
        if cycle is not None:
            return CoherenceReport(ok=False, cycles=(cycle,))
        conflicts = tuple(PathConflict(a, b, *_witnesses(self, a, b))
                          for a in sorted(self.nodes, key=str) for b in sorted(multi[a], key=str))
        return CoherenceReport(ok=not conflicts, conflicts=conflicts)

    def path(self, source: Sort, target: Sort) -> Optional[Path]:
        """The first path source ~> target of >= 1 edge in DFS edge order,
        or None.  Read off the path table, so None on a cyclic graph."""
        hops, out = self._table[1], []
        while source != target:
            edge = hops.get(source, {}).get(target)
            if edge is None:
                return None
            out.append(edge)
            source = edge.target
        return tuple(out) or None

    def chain(self, source: Sort, target: Sort) -> Optional[Term]:
        """compose_path of the path source ~> target, or None: built on first
        use and kept, so each pair's chain is one term for the graph's life."""
        key = source, target
        if key not in self._chains:
            self._chains[key] = (path := self.path(source, target)) and self._compose(path)
        return self._chains[key]

    def _compose(self, path: Path) -> Term:
        """compose_path(path), unchecked (a path chains), its body built on the body
        of the longest proper prefix whose chain is kept, one App per edge past it."""
        if len(path) == 1:
            return path[0].const
        source, k = path[0].source, len(path) - 1
        while k > 1 and (source, path[k - 1].target) not in self._chains:
            k -= 1
        body = self._chains[source, path[k - 1].target].body if k > 1 else App(path[0].const, Var("x"))
        for edge in path[k:]:
            body = App(edge.const, body)
        return Lam("x", Base(source), body)

    def typed_under(self, sig) -> bool:
        """Whether `sig` declares each edge constant at its arrow, compared part by part, over sorts it
        declares, so that each chain and lift has its lookup's type.  The last `sig` that passed is kept."""
        if self.__dict__.get("_typed_under") is not sig and all(
                isinstance(ty := sig.constants.get(e.name), Arrow) and {e.source, e.target} <= sig.sorts
                and (ty.domain, ty.codomain) == (Base(e.source), Base(e.target)) for e in self.edges):
            self.__dict__["_typed_under"] = sig
        return self.__dict__.get("_typed_under") is sig


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
    """The graph's coherence report, computed on the first call per graph."""
    return g.coherence


def compose_path(edges: list[BaseCoercion]) -> Term:
    """A chained edge path as a term: a singleton path is the coercion
    constant itself, a longer one lam x. e_n (... (e_1 x)).  An empty path is
    rejected: the identity is the lookup's business."""
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
    """The unique coercion term of type source -> target, or None: the
    identity, a chain of base edges, or an arrow lift (contravariant domain,
    covariant codomain), never under a quantifier.  Requires a coherent graph."""
    if not g.coherence.ok:
        raise IncoherentGraph("find_coercion requires a coherent graph")
    found = _coerce(g, source, target, False)
    return found and (Lam("x", source, Var("x")) if found[0] is None else found[0])


def _coerce(g: CoercionGraph, source: Type, target: Type, bases: bool) -> Optional[tuple[Optional[Term], Type]]:
    """(term, type) for the coercion source -> target, with term None for the
    identity, or None.  An arrow lifts at the target's domain.  With `bases`,
    as coercion_targets enumerates: a domain is coerced between base sorts
    only, and one left alone is the source's own (so are its binder names)."""
    if source == target:
        return None, source
    match source, target:
        case Base(a), Base(b):
            chain = g.chain(a, b)
            return None if chain is None else (chain, target)
        case Arrow(dom, cod), Arrow(new_dom, new_cod):
            if bases and dom != new_dom and not isinstance(dom, Base):
                return None
            c, d = _coerce(g, new_dom, dom, bases), _coerce(g, cod, new_cod, bases)
            at = dom if bases and dom == new_dom else new_dom
            return c and d and (_lift(source, at, c[0], d[0]), Arrow(at, d[1]))
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
    hops, rank = g._table[1], g._adjacency[2]
    ends = [(s, sort) for s, hop in hops.items() if sort in hop] if into else [(sort, t) for t in hops.get(sort, ())]
    ends.sort(key=lambda st: (len(p := g.path(*st)), [rank[e] for e in p]))
    return [(g.chain(s, t), Base(s if into else t)) for s, t in ends]


def coercion_targets(g: CoercionGraph, ty: Type) -> list[tuple[Term, Type]]:
    """Non-identity structural coercions out of `ty`: base-sort paths, and
    arrow lifts combining domain sources with codomain targets.  Only
    base-sort sources are enumerated on the contravariant side."""
    match ty:
        case Base(sort):  # only entity sorts have coercions
            return sort_coercions(g, sort)
        case Arrow(dom, cod):
            dom_opts = [(None, dom)] + (sort_coercions(g, dom.sort, into=True) if isinstance(dom, Base) else [])
            cod_opts = [(None, cod)] + coercion_targets(g, cod)
            return [(_lift(ty, new_dom, c, d), Arrow(new_dom, new_cod))
                    for c, new_dom in dom_opts for d, new_cod in cod_opts
                    if c is not None or d is not None]
    return []


def coercion_to(g: CoercionGraph, ty: Type, goal: Type) -> Optional[tuple[Term, Type]]:
    """The entry of coercion_targets(g, ty) whose type alpha-equals `goal`,
    or None, read off the chain table without enumerating.  The entry is
    unique only on a coherent graph, so that is required."""
    if not g.coherence.ok:
        raise IncoherentGraph("coercion_to requires a coherent graph")
    found = _coerce(g, ty, goal, True)
    return None if found is None or found[0] is None else found
