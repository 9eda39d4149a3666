"""The two coercion lookups as they stood before they became one recursive
function over the graph's chain table: `find_coercion` (any arrow domain,
identity included, lifting at the target's domain) and `coercion_to` (base
sorts only on the contravariant side, no identity, keeping the source's own
domain where it is not coerced).  Each composes its path again on every
lookup, by `compose_path`, the builder that the graph's kept chains
replaced.  test_coercion.py and test_composer.py compare the library with
them, by the prints of their answers (`shown`)."""

from __future__ import annotations

from typing import Optional

from polysem.coercion import BaseCoercion, CoercionGraph, coerce_app
from polysem.errors import IncoherentGraph
from polysem.syntax import App, Arrow, Base, Lam, Term, Type, Var, fresh_name, free_vars, print_term, print_type


def compose_path(edges: list[BaseCoercion]) -> Term:
    """A chained edge path as a term: a singleton path is the coercion
    constant itself, a longer one lam x. e_n (... (e_1 x)).  An empty path is
    rejected: the identity is the lookup's business."""
    if not edges:
        raise ValueError("empty coercion path")
    for left, right in zip(edges, edges[1:]):
        if left.target != right.source:
            raise ValueError(f"{left.name}: ...->{left.target} does not chain with {right.name}: {right.source}->...")
    if len(edges) == 1:
        return edges[0].const
    body: Term = Var("x")
    for edge in edges:
        body = App(edge.const, body)
    return Lam("x", Base(edges[0].source), body)


def find_coercion(g: CoercionGraph, source: Type, target: Type) -> Optional[Term]:
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
    x = fresh_name("x", {"f"}.union(*(free_vars(co) for co in (c, d) if co is not None)))
    reuse = isinstance(c, Lam) and c.binder == x
    body = App(Var("f"), c.body if reuse else Var(x) if c is None else coerce_app(c, Var(x)))
    return Lam("f", ty, Lam(x, new_dom, body if d is None else coerce_app(d, body)))


def coercion_to(g: CoercionGraph, ty: Type, goal: Type) -> Optional[tuple[Term, Type]]:
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


def shown(found):
    """A lookup's answer as it prints: a term, a (term, type) pair or None."""
    if isinstance(found, tuple):
        return print_term(found[0]), print_type(found[1])
    return None if found is None else print_term(found)
