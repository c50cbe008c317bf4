"""Command line interface.

Subcommands:

* ``eval``        decide a formula on one domain size
* ``sat``         find the smallest size in 1..M making a formula true
* ``compile``     turn a presentation plus query into a sentence
* ``oracle``      brute-force a separating model for a query
* ``crosscheck``  run both routes side by side and compare verdicts
* ``fixture``     print one of the built-in formulas or the presentation

Exit codes: 0 true/found/agreement, 1 false/none, 2 usage or parse
error, 3 crosscheck mismatch, 4 budget exhausted.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import reducer
from .budget import Budget, BudgetExceeded, DEFAULT_BUDGET
from .evaluator import evaluate, evaluate_naive, find_min_model, witness_tables
from .fixtures import (
    ceitin_e10,
    ceitin_h12,
    ceitin_presentation,
    ehrenfeucht_finiteness,
    infinity_sentence,
)
from .oracle import find_witness
from .text import (
    format_formula,
    format_presentation,
    format_tables,
    parse_equation,
    parse_formula,
    parse_presentation,
)

__all__ = ["main", "entry"]

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_MISMATCH = 3
EXIT_BUDGET = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="henkin",
        description="Evaluate branched-quantifier formulas on finite domains "
        "and compile word-separation queries into them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def formula_source(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "source",
            nargs="?",
            help="formula file, or '-' for stdin (default: stdin)",
        )
        p.add_argument("--expr", help="formula given inline instead of a file")

    def instance(p: argparse.ArgumentParser) -> None:
        p.add_argument("--presentation", required=True, help="file of 'word = word' lines")
        p.add_argument("--query", required=True, help="query equation, e.g. 'ab = ba'")

    def budget(p: argparse.ArgumentParser, text: str) -> None:
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help=text)

    p_eval = sub.add_parser("eval", help="decide a formula on one domain size")
    formula_source(p_eval)
    p_eval.add_argument("--size", type=int, required=True, help="domain size, at least 1")
    p_eval.add_argument(
        "--naive", action="store_true", help="use the reference engine instead of the search engine"
    )
    p_eval.add_argument(
        "--show-witness",
        action="store_true",
        help="when true, print choice tables for the outer existential spine"
        " and for a branched prefix right below it",
    )
    budget(p_eval, "search step limit")

    p_sat = sub.add_parser("sat", help="smallest domain size making the formula true")
    formula_source(p_sat)
    p_sat.add_argument("--max-size", type=int, required=True, help="largest size to try")
    budget(p_sat, "search step limit")

    instance(sub.add_parser("compile", help="compile a presentation and query to a sentence"))

    p_oracle = sub.add_parser("oracle", help="brute-force a separating model")
    instance(p_oracle)
    p_oracle.add_argument("--max-size", type=int, required=True, help="largest size to try")
    budget(p_oracle, "search step limit")

    p_cross = sub.add_parser(
        "crosscheck", help="compare the compiled sentence against the brute-force model search"
    )
    instance(p_cross)
    p_cross.add_argument("--max-size", type=int, required=True, help="largest size to compare")
    budget(p_cross, "step limit per size and per route")

    p_fixture = sub.add_parser("fixture", help="print a built-in formula or the presentation")
    p_fixture.add_argument("name", choices=list(_FIXTURES))
    return parser


def _read_formula_text(args: argparse.Namespace) -> str:
    if args.expr is not None:
        if args.source is not None:
            raise ValueError("give a formula either as a file or with --expr, not both")
        return args.expr
    if args.source is None or args.source == "-":
        return sys.stdin.read()
    return Path(args.source).read_text(encoding="ascii")


def _positive(value: int, what: str) -> int:
    if value < 1:
        raise ValueError(f"{what} must be at least 1")
    return value


def _load_instance(args: argparse.Namespace):
    presentation = parse_presentation(Path(args.presentation).read_text(encoding="ascii"))
    query = parse_equation(args.query)
    return presentation, query


def _cmd_eval(args: argparse.Namespace) -> int:
    f = parse_formula(_read_formula_text(args))
    _positive(args.size, "--size")
    tables = None
    if args.naive:
        result = evaluate_naive(f, args.size, budget=Budget(args.budget))
        if result and args.show_witness:
            tables = witness_tables(f, args.size, budget=Budget(args.budget))
    elif args.show_witness:
        tables = witness_tables(f, args.size, budget=Budget(args.budget))
        result = tables is not None
    else:
        result = evaluate(f, args.size, budget=Budget(args.budget))
    print("true" if result else "false")
    if result and args.show_witness:
        print(format_tables(tables) or "witness: (no outer existential spine to tabulate)")
    return EXIT_TRUE if result else EXIT_FALSE


def _cmd_sat(args: argparse.Namespace) -> int:
    f = parse_formula(_read_formula_text(args))
    _positive(args.max_size, "--max-size")
    found = find_min_model(f, args.max_size, budget=Budget(args.budget))
    if found is None:
        print(f"none up to {args.max_size}")
        return EXIT_FALSE
    print(found)
    return EXIT_TRUE


def _cmd_compile(args: argparse.Namespace) -> int:
    presentation, query = _load_instance(args)
    sentence = reducer.compile(presentation, query)
    print(f"# rows: {len(sentence.body.prefix.universals)}")
    print(format_formula(sentence))
    return EXIT_TRUE


def _cmd_oracle(args: argparse.Namespace) -> int:
    presentation, query = _load_instance(args)
    _positive(args.max_size, "--max-size")
    budget = Budget(args.budget)
    for m in range(1, args.max_size + 1):
        try:
            witness = find_witness(presentation, query, m, budget=budget)
        except BudgetExceeded:
            raise BudgetExceeded(budget.limit, at_size=m) from None
        if witness is not None:
            print(f"size: {m}")
            print(witness.format())
            return EXIT_TRUE
    print(f"none up to {args.max_size}")
    return EXIT_FALSE


def _cmd_crosscheck(args: argparse.Namespace) -> int:
    presentation, query = _load_instance(args)
    _positive(args.max_size, "--max-size")
    sentence = reducer.compile(presentation, query)
    mismatch = False
    for m in range(1, args.max_size + 1):
        route = "evaluate"
        try:
            verdict = evaluate(sentence, m, budget=Budget(args.budget))
            route = "find_witness"
            witness = find_witness(presentation, query, m, budget=Budget(args.budget))
        except BudgetExceeded:
            raise BudgetExceeded(args.budget, at_size=m, route=route) from None
        agree = verdict == (witness is not None)
        print(
            f"m={m}: eval={'true' if verdict else 'false'} "
            f"oracle={'witness' if witness is not None else 'none'} "
            f"{'agree' if agree else 'MISMATCH'}"
        )
        if not agree:
            mismatch = True
    return EXIT_MISMATCH if mismatch else EXIT_TRUE


# Fixture name -> the text to print.  Each entry looks its builder up on
# this module when called, so names swapped on the module take effect.
_FIXTURES = {
    "ceitin-h12": lambda: format_formula(ceitin_h12()),
    "ceitin-e10": lambda: format_formula(ceitin_e10()),
    "ceitin-presentation": lambda: format_presentation(ceitin_presentation()),
    "ehrenfeucht": lambda: format_formula(ehrenfeucht_finiteness()),
    "infinity": lambda: format_formula(infinity_sentence()),
}


def _cmd_fixture(args: argparse.Namespace) -> int:
    print(_FIXTURES[args.name]())
    return EXIT_TRUE


_COMMANDS = {
    "eval": _cmd_eval,
    "sat": _cmd_sat,
    "compile": _cmd_compile,
    "oracle": _cmd_oracle,
    "crosscheck": _cmd_crosscheck,
    "fixture": _cmd_fixture,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (OSError, ValueError) as exc:
        # ParseError and UnicodeError are ValueErrors.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())
