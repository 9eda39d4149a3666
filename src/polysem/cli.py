"""Command-line front end.

Subcommands:

    polysem lexicon check LEX
    polysem compose LEX TREES [--limit N] [--show-term] [--show-formula] [--profile]
    polysem typecheck LEX TERM
    polysem normalize LEX TERM [--eta-long]
    polysem search-false TYPE [--max-size N]

All subcommands accept --json for a machine-readable report.  Exit codes:
0 every item ok, 1 analysis or type failure, 2 I/O or format error.  Output
is deterministic: identical inputs produce byte-identical reports.  A
ParseError (`LINE:COL: message`, the nesting limit included) in a file or in
the TYPE of search-false exits 2; in the TERM of typecheck or normalize, or
in a line under lexicon check, it is a FAIL item and exits 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Iterator, Optional

from .composer import compose_with_failures, parse_trees
from .errors import ExtractError, FuelExhausted, IllFormedType, ParseError, PolysemError, UnknownWord
from .hol import SEXPR, classify, extract_formula, print_formula
from .kernel import (
    EMPTY_CONTEXT,
    eta_expand,
    expand_definitions,
    normalize,
    subst_type,
    typecheck,
)
from .lexicon import lexicon_problems, load_lexicon
from .syntax import (
    MAX_NESTING,
    App,
    Arrow,
    Base,
    Forall,
    Lam,
    PROP,
    Term,
    TyApp,
    TyLam,
    TyVar,
    Type,
    Var,
    parse_term,
    parse_type,
    print_term,
    print_type,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_IO = 2


# ---------------------------------------------------------------------------
# Consistency search: constant-free closed eta-long normal inhabitants


def search_false(max_size: int, target: Type) -> list[Term]:
    """Exhaustively enumerate constant-free closed beta-normal eta-long
    terms of `target` with at most `max_size` term nodes, in the pure
    polymorphic fragment (no signature constants, no inductives).

    Type arguments in elimination spines are drawn from the atomic types in
    scope, which suffices for sort-free targets at desk scale.
    """
    out = []
    for term, _size in _inhabit((), (), target, max_size):
        out.append(term)
    return out


def _inhabit(ctx: tuple, tyctx: tuple, ty: Type, budget: int) -> Iterator[tuple[Term, int]]:
    """Yield (term, size) for eta-long normal inhabitants of ty."""
    if budget <= 0:
        return
    match ty:
        case Arrow(dom, cod):
            x = f"x{len(ctx)}"
            for body, size in _inhabit(ctx + ((x, dom),), tyctx, cod, budget - 1):
                yield Lam(x, dom, body), size + 1
        case Forall(binder, body_ty):
            a = f"{binder}{len(tyctx)}"
            opened = subst_type(body_ty, binder, TyVar(a))
            for body, size in _inhabit(ctx, tyctx + (a,), opened, budget - 1):
                yield TyLam(a, body), size + 1
        case _:
            for name, var_ty in ctx:
                yield from _spines(Var(name), var_ty, ty, ctx, tyctx, budget - 1, 1)


def _atomic_candidates(tyctx: tuple, ty: Type) -> list[Type]:
    seen: list[Type] = [TyVar(a) for a in tyctx]
    def atoms(t: Type):
        match t:
            case Base():
                if t not in seen:
                    seen.append(t)
            case Arrow(dom, cod):
                atoms(dom)
                atoms(cod)
            case Forall(_, body):
                atoms(body)
            case _:
                pass
    atoms(ty)
    return seen


def _spines(head: Term, head_ty: Type, target: Type, ctx: tuple, tyctx: tuple,
            budget: int, size: int) -> Iterator[tuple[Term, int]]:
    """Extend a neutral head by eliminations until its type is the target."""
    if budget < 0:
        return
    if head_ty == target:
        yield head, size
    match head_ty:
        case Arrow(dom, cod):
            for arg, arg_size in _inhabit(ctx, tyctx, dom, budget - 1):
                yield from _spines(App(head, arg), cod, target, ctx, tyctx,
                                   budget - 1 - arg_size, size + 1 + arg_size)
        case Forall(binder, body_ty):
            for cand in _atomic_candidates(tyctx, target):
                opened = subst_type(body_ty, binder, cand)
                yield from _spines(TyApp(head, cand), opened, target, ctx, tyctx,
                                   budget - 1, size + 1)


# ---------------------------------------------------------------------------
# Report plumbing


class _Report:
    def __init__(self, command: str, as_json: bool):
        self.command = command
        self.as_json = as_json
        self.items: list[dict] = []
        self.lines: list[str] = []

    def add(self, item: dict, lines: list[str]):
        self.items.append(item)
        self.lines.extend(lines)

    def emit(self) -> int:
        if self.as_json:
            payload = {"command": self.command, "items": self.items,
                       "ok": all(i.get("ok", False) for i in self.items)}
            sys.stdout.write(json.dumps(payload, ensure_ascii=False, indent=2) + "\n")
        else:
            for line in self.lines:
                sys.stdout.write(line + "\n")
        return EXIT_OK if all(i.get("ok", False) for i in self.items) else EXIT_FAIL


class _InputError(Exception):
    """An input file that cannot be read, or a lexicon that does not load."""


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise _InputError(f"cannot read {path}: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise _InputError(f"cannot read {path}: not UTF-8 ({e.reason} at byte {e.start})") from None


def _load_lexicon(path: str):
    text = _read_text(path)
    try:
        return load_lexicon(text)
    except PolysemError as e:
        raise _InputError(str(e)) from None


def _io_error(msg: str) -> int:
    sys.stderr.write(f"error: {msg}\n")
    return EXIT_IO


# ---------------------------------------------------------------------------
# Subcommands


def cmd_lexicon_check(args) -> int:
    report = _Report("lexicon.check", args.json)
    text = _read_text(args.path)
    try:
        lex = load_lexicon(text)
    except PolysemError:  # the strict load stops at the first problem; the best-effort one lists them all
        if not (problems := lexicon_problems(text)):
            raise
        report.add({"path": args.path, "ok": False, "problems": problems},
                   [f"{args.path}: FAIL ({len(problems)} problem(s))"]
                   + [f"  {p}" for p in problems])
        return report.emit()
    n_words = len(lex.entries)
    n_edges = len(lex.coercions.edges)
    report.add(
        {"path": args.path, "ok": True, "words": n_words, "coercions": n_edges},
        [f"{args.path}: ok ({n_words} words, {n_edges} coercions)"],
    )
    return report.emit()


def cmd_compose(args) -> int:
    lex = _load_lexicon(args.lexicon)
    trees = parse_trees(_read_text(args.trees))
    report = _Report("compose", args.json)
    for k, tree in enumerate(trees, start=1):
        try:
            analyses, diagnosis = compose_with_failures(tree, lex, args.limit)
            diag = diagnosis.describe() or "no candidates"
            formulas = [extract_formula(eta_expand(a.normal_term, lex.signature), lex.signature)
                        if (args.show_formula or args.profile) and a.result_type == PROP else None
                        for a in analyses]
        except (UnknownWord, IllFormedType, FuelExhausted, ExtractError) as e:
            analyses, formulas, diag = [], [], str(e)
        item = {"tree": k, "ok": bool(analyses), "analyses": []}
        lines = [f"tree {k}: {len(analyses)} analysis(es)"]
        for i, (a, formula) in enumerate(zip(analyses, formulas), start=1):
            entry = {"type": print_type(a.result_type),
                     "used": a.labels()}
            lines.append(f"  [{i}] type: {print_type(a.result_type)}")
            if args.show_term:
                entry["term"] = print_term(a.normal_term)
                lines.append(f"      term: {print_term(a.normal_term)}")
            if formula is not None:
                if args.show_formula:
                    entry["formula"] = print_formula(formula, SEXPR)
                    lines.append(f"      formula: {print_formula(formula, SEXPR)}")
                if args.profile:
                    profile = classify(formula)
                    entry["profile"] = {"order": profile.order, "sorts": profile.sorts}
                    lines.append(f"      profile: order={profile.order} sorts={profile.sorts}")
            elif args.show_formula:
                entry["formula"] = None
                lines.append("      formula: (not of type t)")
            item["analyses"].append(entry)
        if not analyses:
            item["diagnostic"] = diag
            lines.append(f"  diagnostic: {diag}")
        report.add(item, lines)
    return report.emit()


def _parse_and_check(lex, text: str):
    term = parse_term(text, lex.signature, allow_free=False)
    term = expand_definitions(term, lex.signature)
    ty = typecheck(term, lex.signature, EMPTY_CONTEXT)
    return term, ty


def cmd_typecheck(args) -> int:
    lex = _load_lexicon(args.lexicon)
    report = _Report("typecheck", args.json)
    try:
        term, ty = _parse_and_check(lex, args.term)
        report.add({"ok": True, "type": print_type(ty)},
                   [f"type: {print_type(ty)}"])
    except PolysemError as e:
        report.add({"ok": False, "error": str(e)}, [f"FAIL {e}"])
    return report.emit()


def cmd_normalize(args) -> int:
    lex = _load_lexicon(args.lexicon)
    report = _Report("normalize", args.json)
    try:
        term, ty = _parse_and_check(lex, args.term)
        nf = normalize(term, lex.signature)
        item = {"ok": True, "type": print_type(ty), "normal": print_term(nf.term)}
        lines = [f"type: {print_type(ty)}", f"normal: {print_term(nf.term)}"]
        if args.eta_long:
            expanded = eta_expand(nf.term, lex.signature)
            item["eta_long"] = print_term(expanded.term)
            lines.append(f"eta-long: {print_term(expanded.term)}")
        report.add(item, lines)
    except PolysemError as e:
        report.add({"ok": False, "error": str(e)}, [f"FAIL {e}"])
    return report.emit()


def cmd_search_false(args) -> int:
    report = _Report("search-false", args.json)
    try:
        target = parse_type(args.type)
    except PolysemError as e:
        return _io_error(str(e))
    found = search_false(args.max_size, target)
    item = {"ok": True, "type": print_type(target),
            "max_size": args.max_size,
            "inhabitants": [print_term(t) for t in found]}
    lines = [f"type: {print_type(target)}",
             f"inhabitants up to size {args.max_size}: {len(found)}"]
    lines.extend(f"  {print_term(t)}" for t in found)
    report.add(item, lines)
    return report.emit()


# ---------------------------------------------------------------------------
# Argument parsing


def _positive_int(text: str, most: Optional[int] = None) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1 or most and value > most:
        raise argparse.ArgumentTypeError(f"expected a positive integer{most and f' up to {most}' or ''}, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polysem",
        description="Compose parse trees into typed terms and higher-order formulas.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lex_p = sub.add_parser("lexicon", help="lexicon utilities")
    lex_sub = lex_p.add_subparsers(dest="lexicon_command", required=True)
    check_p = lex_sub.add_parser("check", help="validate a lexicon file")
    check_p.add_argument("path")
    check_p.add_argument("--json", action="store_true")
    check_p.set_defaults(run=cmd_lexicon_check)

    comp_p = sub.add_parser("compose", help="compose parse trees")
    comp_p.add_argument("lexicon")
    comp_p.add_argument("trees")
    comp_p.add_argument("--limit", type=_positive_int, default=16)
    comp_p.add_argument("--show-term", action="store_true")
    comp_p.add_argument("--show-formula", action="store_true")
    comp_p.add_argument("--profile", action="store_true")
    comp_p.add_argument("--json", action="store_true")
    comp_p.set_defaults(run=cmd_compose)

    tc_p = sub.add_parser("typecheck", help="typecheck a term")
    tc_p.add_argument("lexicon")
    tc_p.add_argument("term")
    tc_p.add_argument("--json", action="store_true")
    tc_p.set_defaults(run=cmd_typecheck)

    norm_p = sub.add_parser("normalize", help="normalize a term")
    norm_p.add_argument("lexicon")
    norm_p.add_argument("term")
    norm_p.add_argument("--eta-long", action="store_true")
    norm_p.add_argument("--json", action="store_true")
    norm_p.set_defaults(run=cmd_normalize)

    sf_p = sub.add_parser("search-false", help="search for constant-free inhabitants")
    sf_p.add_argument("type")
    # the search recurses along each term: up to MAX_NESTING nodes it has room
    sf_p.add_argument("--max-size", type=lambda text: _positive_int(text, MAX_NESTING), default=9)
    sf_p.add_argument("--json", action="store_true")
    sf_p.set_defaults(run=cmd_search_false)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_IO if e.code not in (0, None) else 0
    try:
        return args.run(args)
    except (_InputError, ParseError) as e:
        return _io_error(str(e))


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
