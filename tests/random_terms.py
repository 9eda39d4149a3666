"""Seeded type-directed generation of well-typed terms.

The generator constructs a term of a requested (or random) type by working
backwards from the type: arrows become abstractions or deliberately planted
beta-redexes, quantified types become type abstractions or type-beta
redexes, and atomic types are closed off with context variables, seed
constants, numerals or recursor applications.  Every generated term
typechecks by construction, which is what the reduction property suites
need.

Seed constants are invented on demand (one per type) and recorded on a
signature copy returned alongside the terms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from polysem.inductives import FOLD_SET, NAT, REC_NAT, finite_set, numeral
from polysem.kernel import subst_type, typecheck
from polysem.syntax import (
    App,
    Arrow,
    Base,
    Const,
    Forall,
    Lam,
    PROP,
    Signature,
    Term,
    TyApp,
    TyLam,
    TyVar,
    Type,
    Var,
    apps,
    free_tyvars,
    print_type,
)


@dataclass
class TermGenerator:
    sig: Signature
    rng: random.Random
    max_depth: int = 5
    use_inductives: bool = True
    runs: bool = False  # half the planted redexes are λ/Λ runs over two or three closed arguments
    _seeds: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.use_inductives and not self.sig.has_constant(REC_NAT):
            self.use_inductives = False

    # -- types ---------------------------------------------------------------

    def random_type(self, depth: int = 0, tyvars: tuple[str, ...] = ()) -> Type:
        choices = ["base", "base"]
        if depth < self.max_depth:
            choices += ["arrow", "arrow"]
            if depth < 2:
                choices.append("forall")
        if tyvars:
            choices.append("tyvar")
        match self.rng.choice(choices):
            case "base":
                bases = [PROP] + [Base(s) for s in self.sig.entity_sorts()]
                return self.rng.choice(bases)
            case "tyvar":
                return TyVar(self.rng.choice(tyvars))
            case "arrow":
                return Arrow(self.random_type(depth + 1, tyvars),
                             self.random_type(depth + 1, tyvars))
            case "forall":
                # the binder is always consumed as a first argument, so a
                # generated term can witness it from its context (constants
                # must stay closed)
                name = f"g{len(tyvars)}"
                body = self.random_type(depth + 1, tyvars + (name,))
                return Forall(name, Arrow(TyVar(name), body))
        raise AssertionError

    # -- seed constants -------------------------------------------------------

    def seed_const(self, ty: Type) -> Term:
        assert not free_tyvars(ty), "seed constants must have closed types"
        key = print_type(ty)
        if key not in self._seeds:
            name = f"seed{len(self._seeds)}"
            self._seeds[key] = Const(name, ty)
            self.sig = self.sig.extend(constants={name: ty})
        return self._seeds[key]

    # -- terms ----------------------------------------------------------------

    def random_term(self, ty: Type, ctx: tuple = (), depth: int = 0) -> Term:
        """A closed-over-ctx term of exactly type `ty`."""
        deep = depth >= self.max_depth
        match ty:
            case Arrow(dom, cod):
                if not deep and self.rng.random() < 0.25:
                    return self._redex(ty, ctx, depth)
                x = f"v{len(ctx)}"
                return Lam(x, dom, self.random_term(cod, ctx + ((x, dom),), depth + 1))
            case Forall(binder, body):
                a = f"g{depth}_{len(ctx)}"
                opened = subst_type(body, binder, TyVar(a))
                return TyLam(a, self.random_term(opened, ctx, depth + 1))
            case _:
                return self._atomic(ty, ctx, depth)

    def _atomic(self, ty: Type, ctx: tuple, depth: int) -> Term:
        deep = depth >= self.max_depth
        options = ["leaf"]
        if not deep:
            options += ["redex", "redex", "tyredex"]
            if self.use_inductives and ty == NAT:
                options += ["recursor", "add"]
            if self.use_inductives and self.rng.random() < 0.2:
                options.append("fold")
        match self.rng.choice(options):
            case "leaf":
                vars_of_ty = [name for name, vty in ctx if vty == ty]
                if vars_of_ty and (self.rng.random() < 0.7 or free_tyvars(ty)):
                    return Var(self.rng.choice(vars_of_ty))
                if free_tyvars(ty):
                    # open types can only be witnessed from the context; the
                    # hostage argument of every generated Forall provides one
                    return Var(next(name for name, vty in ctx if vty == ty))
                if ty == NAT and self.use_inductives:
                    return numeral(self.rng.randrange(0, 5))
                return self.seed_const(ty)
            case "redex":
                return self._redex(ty, ctx, depth)
            case "tyredex":
                # (tlam a M)[T] with a unused in M: type is unchanged
                a = f"h{depth}_{len(ctx)}"
                names = [a] + [f"{a}_{i}" for i in range(1, self._run_length())]
                inner = self.random_term(ty, ctx, depth + 1)
                arg_tys = [self.random_type(self.max_depth - 1) for _ in names]
                for name in reversed(names):
                    inner = TyLam(name, inner)
                return apps(inner, *arg_tys)
            case "recursor":
                n = self.rng.randrange(0, 4)
                base = self.random_term(NAT, ctx, depth + 1)
                k, acc = f"v{len(ctx)}", f"v{len(ctx) + 1}"
                step = Lam(k, NAT, Lam(acc, NAT, App(self.sig.const("Succ"), Var(acc))))
                return apps(self.sig.const(REC_NAT), NAT, base, step, numeral(n))
            case "add":
                return apps(self.sig.const(REC_NAT), NAT,
                            numeral(self.rng.randrange(0, 4)),
                            Lam("k", NAT, Lam("acc", NAT, App(self.sig.const("Succ"), Var("acc")))),
                            numeral(self.rng.randrange(0, 4)))
            case "fold":
                elem = self.rng.choice([NAT] if self.use_inductives else [PROP])
                elems = [self.random_term(elem, ctx, self.max_depth)
                         for _ in range(self.rng.randrange(0, 3))]
                base = self.random_term(ty, ctx, depth + 1)
                x, acc = f"v{len(ctx)}", f"v{len(ctx) + 1}"
                step = Lam(x, elem, Lam(acc, ty, Var(acc)))
                return apps(self.sig.const(FOLD_SET), elem, ty, base, step,
                            finite_set(elems, elem))
        raise AssertionError

    def _run_length(self) -> int:
        return self.rng.randint(2, 3) if self.runs and self.rng.random() < 0.5 else 1

    def _redex(self, ty: Type, ctx: tuple, depth: int) -> Term:
        n = self._run_length()
        params = tuple((f"v{len(ctx) + i}", self.random_type(self.max_depth - 1)) for i in range(n))
        body = self.random_term(ty, ctx + params, depth + 1)
        # a run's arguments are closed (closed types need no context)
        args = [self.random_term(arg_ty, ctx if n == 1 else (), depth + 1) for _, arg_ty in params]
        for x, arg_ty in reversed(params):
            body = Lam(x, arg_ty, body)
        return apps(body, *args)


def generate_corpus(sig: Signature, seed: int, count: int,
                    use_inductives: bool = True, runs: bool = False) -> tuple[list[Term], Signature]:
    """`count` closed well-typed terms plus the signature extended with the
    seed constants they mention."""
    gen = TermGenerator(sig, random.Random(seed), use_inductives=use_inductives, runs=runs)
    terms = []
    for _ in range(count):
        ty = gen.random_type()
        term = gen.random_term(ty)
        terms.append(term)
    for term in terms:
        typecheck(term, gen.sig)
    return terms, gen.sig
