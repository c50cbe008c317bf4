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
from .syntax import And, Branch, Exists
from .text import (
    ParseError,
    format_formula,
    format_presentation,
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

    p_eval = sub.add_parser("eval", help="decide a formula on one domain size")
    formula_source(p_eval)
    p_eval.add_argument("--size", type=int, required=True, help="domain size, at least 1")
    p_eval.add_argument(
        "--naive", action="store_true", help="use the reference engine instead of the search engine"
    )
    p_eval.add_argument(
        "--show-witness",
        action="store_true",
        help="when true, print choice tables for the outer existential spine",
    )
    p_eval.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="search step limit")

    p_sat = sub.add_parser("sat", help="smallest domain size making the formula true")
    formula_source(p_sat)
    p_sat.add_argument("--max-size", type=int, required=True, help="largest size to try")
    p_sat.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="search step limit")

    p_compile = sub.add_parser("compile", help="compile a presentation and query to a sentence")
    p_compile.add_argument("--presentation", required=True, help="file of 'word = word' lines")
    p_compile.add_argument("--query", required=True, help="query equation, e.g. 'ab = ba'")

    p_oracle = sub.add_parser("oracle", help="brute-force a separating model")
    p_oracle.add_argument("--presentation", required=True, help="file of 'word = word' lines")
    p_oracle.add_argument("--query", required=True, help="query equation, e.g. 'ab = ba'")
    p_oracle.add_argument("--max-size", type=int, required=True, help="largest size to try")
    p_oracle.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="search step limit")

    p_cross = sub.add_parser(
        "crosscheck", help="compare the compiled sentence against the brute-force model search"
    )
    p_cross.add_argument("--presentation", required=True, help="file of 'word = word' lines")
    p_cross.add_argument("--query", required=True, help="query equation, e.g. 'ab = ba'")
    p_cross.add_argument("--max-size", type=int, required=True, help="largest size to compare")
    p_cross.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="per-size step limit")
    p_cross.add_argument(
        "--corrupt",
        action="store_true",
        help="drop the final separation conjunct before evaluating (a self-test "
        "that must report a mismatch)",
    )

    p_fixture = sub.add_parser("fixture", help="print a built-in formula or the presentation")
    p_fixture.add_argument(
        "name",
        choices=["ceitin-h12", "ceitin-e10", "ceitin-presentation", "ehrenfeucht", "infinity"],
    )
    return parser


def _read_formula_text(args: argparse.Namespace) -> str:
    if args.expr is not None:
        if args.source is not None:
            raise ParseError("give a formula either as a file or with --expr, not both")
        return args.expr
    if args.source is None or args.source == "-":
        return sys.stdin.read()
    return Path(args.source).read_text(encoding="ascii")


def _positive(value: int, what: str) -> int:
    if value < 1:
        raise ParseError(f"{what} must be at least 1")
    return value


def _load_instance(args: argparse.Namespace):
    presentation = parse_presentation(Path(args.presentation).read_text(encoding="ascii"))
    query = parse_equation(args.query)
    return presentation, query


def _drop_separation(sentence: Exists) -> Exists:
    """Remove the final disequation from a compiled sentence.

    Used by ``crosscheck --corrupt``: without the separation demand the
    sentence is true on every domain, so the comparison must fail.
    """
    branch = sentence.body
    assert isinstance(branch, Branch)
    matrix = branch.body
    parts = matrix.items if isinstance(matrix, And) else (matrix,)
    last = parts[-1]
    assert isinstance(last, And)
    trimmed = last.items[:-1]
    new_last = trimmed[0] if len(trimmed) == 1 else And(trimmed)
    new_parts = parts[:-1] + (new_last,)
    new_matrix = new_parts[0] if len(new_parts) == 1 else And(new_parts)
    return Exists(sentence.variables, Branch(branch.prefix, new_matrix))


def _cmd_eval(args: argparse.Namespace) -> int:
    f = parse_formula(_read_formula_text(args))
    _positive(args.size, "--size")
    tables = None
    try:
        if args.naive:
            result = evaluate_naive(f, args.size, budget=Budget(args.budget))
            if result and args.show_witness:
                tables = witness_tables(f, args.size, budget=Budget(args.budget))
        elif args.show_witness:
            tables = witness_tables(f, args.size, budget=Budget(args.budget))
            result = tables is not None
        else:
            result = evaluate(f, args.size, budget=Budget(args.budget))
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    print("true" if result else "false")
    if result and args.show_witness:
        for table in tables:
            print(table.format())
        if not tables:
            print("witness: (no outer existential spine to tabulate)")
    return EXIT_TRUE if result else EXIT_FALSE


def _cmd_sat(args: argparse.Namespace) -> int:
    f = parse_formula(_read_formula_text(args))
    _positive(args.max_size, "--max-size")
    try:
        found = find_min_model(f, args.max_size, budget=Budget(args.budget))
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
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
    try:
        for m in range(1, args.max_size + 1):
            witness = find_witness(presentation, query, m, budget=budget)
            if witness is not None:
                print(f"size: {m}")
                print(witness.format())
                return EXIT_TRUE
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    print(f"none up to {args.max_size}")
    return EXIT_FALSE


def _cmd_crosscheck(args: argparse.Namespace) -> int:
    presentation, query = _load_instance(args)
    _positive(args.max_size, "--max-size")
    sentence = reducer.compile(presentation, query)
    if args.corrupt:
        sentence = _drop_separation(sentence)
    mismatch = False
    for m in range(1, args.max_size + 1):
        try:
            verdict = evaluate(sentence, m, budget=Budget(args.budget))
            witness = find_witness(presentation, query, m, budget=Budget(args.budget))
        except BudgetExceeded as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_BUDGET
        agree = verdict == (witness is not None)
        print(
            f"m={m}: eval={'true' if verdict else 'false'} "
            f"oracle={'witness' if witness is not None else 'none'} "
            f"{'agree' if agree else 'MISMATCH'}"
        )
        if not agree:
            mismatch = True
    return EXIT_MISMATCH if mismatch else EXIT_TRUE


def _cmd_fixture(args: argparse.Namespace) -> int:
    if args.name == "ceitin-presentation":
        print(format_presentation(ceitin_presentation()))
    elif args.name == "ceitin-h12":
        print(format_formula(ceitin_h12()))
    elif args.name == "ceitin-e10":
        print(format_formula(ceitin_e10()))
    elif args.name == "infinity":
        print(format_formula(infinity_sentence()))
    else:
        print(format_formula(ehrenfeucht_finiteness()))
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
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, UnicodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())
