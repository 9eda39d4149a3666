"""Random closed formulas over the fixture signature, used to produce
eta-long beta-normal terms of type t for the extraction round-trip suite."""

import random

from polysem.hol import Atom, Conn, ConstApp, Embed, Formula, Hilbert, HVar, Quant
from polysem.syntax import Signature, etype, parse_type

PREDICATES = {
    "heavy": ("phys",),
    "interesting": ("info",),
    "barks": ("dog",),
    "sleeps": ("ani",),
    "dog?": ("dog",),
}

INDIVIDUALS = {"b": "book", "rex": "dog", "chr": "chair", "liv": "town"}

FUNCTIONS = {
    "f0": ("book", "info"),
    "g0": ("book", "phys"),
    "dogAni": ("dog", "ani"),
    "aniPhys": ("ani", "phys"),
    "chairPhys": ("chair", "phys"),
    "townToClub": ("town", "club"),
}

# Constants taking a formula argument, drawn only where the signature
# declares them (see with_formula_arguments); the argument is an Embed.
FORMULA_ARGUMENT_PREDICATES = {"believes": ("t",)}
FORMULA_ARGUMENT_FUNCTIONS = {"claimOf": ("t", "info")}


def with_formula_arguments(sig: Signature) -> Signature:
    """`sig` extended with the constants that take a formula argument."""
    return sig.extend(constants={"believes": parse_type("(-> t t)", sig.sorts),
                                 "claimOf": parse_type("(-> t e:info)", sig.sorts)})


def _declared(sig: Signature, table: dict, extra: dict) -> dict:
    return {**table, **extra} if all(name in sig.constants for name in extra) else table


def random_formula(rng: random.Random, sig: Signature, depth: int = 0,
                   env: tuple = ()) -> Formula:
    choices = ["atom", "atom"]
    if depth < 4:
        choices += ["conn", "conn", "quant", "quant"]
    match rng.choice(choices):
        case "atom":
            preds = _declared(sig, PREDICATES, FORMULA_ARGUMENT_PREDICATES if depth < 5 else {})
            pred = rng.choice(sorted(preds))
            args = tuple(_holterm_of_sort(rng, sig, s, env, depth)
                         for s in preds[pred])
            return Atom(pred, sig.constant_type(pred), (), args)
        case "conn":
            conn = rng.choice(["and", "not", "implies"])
            n = 1 if conn == "not" else 2
            return Conn(conn, tuple(random_formula(rng, sig, depth + 1, env)
                                    for _ in range(n)))
        case "quant":
            kind = rng.choice(["forall", "exists"])
            sort = rng.choice(sorted({s for args in PREDICATES.values() for s in args}))
            var = f"q{len(env)}"
            body = random_formula(rng, sig, depth + 1, env + ((var, sort),))
            return Quant(kind, var, etype(sort), body)
    raise AssertionError


def _grounded(sig: Signature, sort: str):
    """eps v:sort. P(v) for the first predicate over the sort: a closed term
    of any predicate-argument sort, the generator's base case."""
    pred = next(p for p, args in sorted(PREDICATES.items()) if args == (sort,))
    var = "w"
    body = Atom(pred, sig.constant_type(pred), (), (HVar(var, etype(sort)),))
    return Hilbert("epsilon", var, etype(sort), body)


def _holterm_of_sort(rng: random.Random, sig: Signature, sort: str, env: tuple,
                     depth: int):
    if sort == "t":
        return Embed(random_formula(rng, sig, depth + 1, env))
    in_scope = [name for name, s in env if s == sort]
    options = []
    if in_scope:
        options += ["var", "var", "var"]
    if any(s == sort for s in INDIVIDUALS.values()):
        options.append("const")
    functions = _declared(sig, FUNCTIONS, FORMULA_ARGUMENT_FUNCTIONS)
    funs = [f for f, (_, to) in functions.items() if to == sort]
    if funs and depth < 5:
        options += ["fun", "fun"]
    if depth < 5:
        options.append("hilbert")
    if not options:
        return _grounded(sig, sort)
    match rng.choice(options):
        case "var":
            name = rng.choice(in_scope)
            return HVar(name, etype(sort))
        case "const":
            name = rng.choice(sorted(c for c, s in INDIVIDUALS.items() if s == sort))
            return ConstApp(name, sig.constant_type(name), (), ())
        case "fun":
            fun = rng.choice(sorted(funs))
            src = functions[fun][0]
            arg = _holterm_of_sort(rng, sig, src, env, depth + 1)
            return ConstApp(fun, sig.constant_type(fun), (), (arg,))
        case "hilbert":
            kind = rng.choice(["epsilon", "tau"])
            var = f"h{len(env)}"
            body = random_formula(rng, sig, depth + 2, env + ((var, sort),))
            return Hilbert(kind, var, etype(sort), body)
    raise AssertionError
