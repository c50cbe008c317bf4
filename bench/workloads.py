"""The benchmark's workloads: CLI calls, their inputs, and their checks.

Each builder takes the seed and a directory for input files and returns a
``Workload``: the argument lists one pass makes to ``henkin.cli.main``,
in order, and for each a check of its exit code and standard output.
The seed fixes the order of the calls; the same seed gives the same
inputs.  ``many-small``'s sentences and presentations come from a seeded
generator too, whose seed is fixed (see ``CONTENT_SEED``).

Checks compare against ``reference`` and against properties that hold
whatever the engines do (a presentation never separates its own
equation); none compares against a saved copy of earlier output.

The package is imported inside the builders and checks, not at the top,
because ``run.py`` re-imports it while timing set-up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import reference

# Large enough that no call below runs out: the costliest single search,
# crosscheck's {ab=ba} |- ab=ba at m=3, takes under a million nodes.
BUDGET = "100000000"

Check = Callable[[int, str], list[str]]


@dataclass
class Op:
    """One CLI call: its arguments and the check of ``(exit code, stdout)``.

    When ``save_to`` is set, the call's standard output is written there
    after the call; later calls of the same pass read it.
    """

    argv: list[str]
    check: Check
    save_to: Path | None = None


@dataclass
class Workload:
    ops: list[Op]
    # Pairs of op indices whose standard outputs must be identical.
    same_output: list[tuple[int, int]] = field(default_factory=list)


def _presentation_text(equations: list[tuple[str, str]]) -> str:
    return "".join(f"{lhs} = {rhs}\n" for lhs, rhs in equations)


def _expect(ok: bool, problem: str) -> list[str]:
    return [] if ok else [problem]


# -- crosscheck ------------------------------------------------------------

# The dual-route instances of the test suite's corpus, with the smallest
# separating size up to 3 (None: none up to 3).  The sizes are not used by
# the checks, which compute them with ``reference``; the benchmark's tests
# assert that the two agree.
CROSSCHECK_INSTANCES = [
    ([("aa", "a"), ("bb", "b")], ("ab", "ba"), 2),
    ([], ("a", "a"), None),
    ([("ab", "ba")], ("ab", "ba"), None),
    ([], ("a", "b"), 2),
    ([], ("ab", "ba"), 2),
    ([("aa", "a")], ("aa", "a"), None),
    ([("ab", "a")], ("ab", "a"), None),
    ([("aa", "b")], ("ab", "ba"), None),
    ([("ab", "b")], ("ab", "ba"), 3),
    ([("ba", "ab")], ("ab", "ba"), None),
    ([("aa", "a")], ("ab", "ba"), 2),
    ([("aba", "a")], ("ab", "ba"), 2),
]
CROSSCHECK_MAX_SIZE = 3


def check_crosscheck(equations, query, max_size, code, out) -> list[str]:
    want = []
    for m in range(1, max_size + 1):
        separated = reference.separating_model(equations, query, m) is not None
        want.append(
            f"m={m}: eval={'true' if separated else 'false'} "
            f"oracle={'witness' if separated else 'none'} agree"
        )
    return _expect(code == 0, f"exit {code}, want 0") + _expect(
        out.splitlines() == want, f"output {out!r}, want {want!r}"
    )


def crosscheck(seed: int, workdir: Path) -> Workload:
    order = list(range(len(CROSSCHECK_INSTANCES)))
    random.Random(seed).shuffle(order)
    ops = []
    for i in order:
        equations, query, _ = CROSSCHECK_INSTANCES[i]
        path = workdir / f"crosscheck-{i}.txt"
        path.write_text(_presentation_text(equations), encoding="ascii")
        argv = ["crosscheck", "--presentation", str(path), "--query", f"{query[0]} = {query[1]}",
                "--max-size", str(CROSSCHECK_MAX_SIZE), "--budget", BUDGET]
        ops.append(Op(argv, partial(check_crosscheck, equations, query, CROSSCHECK_MAX_SIZE)))
    return Workload(ops)


# -- ceitin ----------------------------------------------------------------

# name: (largest size evaluated, largest size with --show-witness, truth)
# The truth values are the fixtures' defining properties: the Ceitin
# sentences have the identity tables as a model at every size, the
# infinity sentence has no finite model and its negation holds on all.
CEITIN_FIXTURES = {
    "ceitin-h12": (3, 2, True),
    "ceitin-e10": (5, 5, True),
    "infinity": (5, 5, False),
    "ehrenfeucht": (5, 5, True),
}
NO_SPINE = "witness: (no outer existential spine to tabulate)"
# Largest enumeration (see reference.enumeration_cost) a check may run.
CHEAP = 20_000


def build_fixture(name: str):
    from henkin import fixtures

    return {
        "ceitin-h12": fixtures.ceitin_h12,
        "ceitin-e10": fixtures.ceitin_e10,
        "infinity": fixtures.infinity_sentence,
        "ehrenfeucht": fixtures.ehrenfeucht_finiteness,
    }[name]()


def check_fixture(name, code, out) -> list[str]:
    from henkin.text import parse_formula

    return _expect(code == 0, f"exit {code}, want 0") + _expect(
        parse_formula(out) == build_fixture(name), f"printed {name} does not re-parse to the fixture"
    )


def _tabulated(f) -> bool:
    """Whether ``eval --show-witness`` prints tables for ``f``."""
    return type(f).__name__ in ("Exists", "Branch")


def check_fixture_eval(name, size, show_witness, code, out) -> list[str]:
    truth = CEITIN_FIXTURES[name][2]
    f = build_fixture(name)
    lines = out.splitlines()
    problems = _expect(code == (0 if truth else 1), f"exit {code} for truth {truth}")
    problems += _expect(lines[:1] == ["true" if truth else "false"], f"verdict {lines[:1]}")
    if name.startswith("ceitin"):
        problems += [
            "identity tables: " + p
            for p in reference.choice_table_problems(f, size, reference.identity_tables(f, size))
        ]
    if reference.enumeration_cost(f, size) <= CHEAP:
        problems += _expect(reference.holds(f, size) == truth, "plain enumeration disagrees")
    if not (show_witness and truth):
        return problems + _expect(len(lines) == 1, f"unexpected lines {lines[1:]}")
    if not _tabulated(f):
        return problems + _expect(lines[1:] == [NO_SPINE], f"unexpected lines {lines[1:]}")
    try:
        tables = reference.parse_choice_tables(lines[1:])
    except ValueError as exc:
        return problems + [str(exc)]
    return problems + ["witness: " + p for p in reference.choice_table_problems(f, size, tables)]


def ceitin(seed: int, workdir: Path) -> Workload:
    prints = []
    evals = []
    for name, (max_size, max_witness, _) in CEITIN_FIXTURES.items():
        path = workdir / f"{name}.txt"
        prints.append(Op(["fixture", name], partial(check_fixture, name), save_to=path))
        for size in range(1, max_size + 1):
            for show in (False, True)[: 2 if size <= max_witness else 1]:
                argv = ["eval", str(path), "--size", str(size), "--budget", BUDGET]
                evals.append(Op(argv + ["--show-witness"] * show,
                                partial(check_fixture_eval, name, size, show)))
    random.Random(seed).shuffle(evals)
    return Workload(prints + evals)


# -- many-small ------------------------------------------------------------

# The runs of the benchmark share one draw of the calls.  Each draw has a
# different hardest call: over seeds 1-5 the longest call took 3.2 to
# 5.2 ms while the rest of the pass took the same time, so with the draw
# following the run's seed ``slowest_op_s`` measured the draw, not the
# program.
CONTENT_SEED = 2026
SAT_CASES = 200
SAT_MAX_SIZE = 3
PRESENTATIONS = 40
QUERIES_PER_PRESENTATION = 5


def random_matrix(rng: random.Random, names: list[str], depth: int):
    from henkin import syntax

    if depth == 0 or rng.random() < 0.3:
        atom = syntax.equal(rng.choice(names), rng.choice(names))
        return syntax.Not(atom) if rng.random() < 0.3 else atom
    kind = rng.choice(["and", "or", "implies", "iff", "not"])
    if kind == "not":
        return syntax.Not(random_matrix(rng, names, depth - 1))
    left = random_matrix(rng, names, depth - 1)
    right = random_matrix(rng, names, depth - 1)
    if kind == "and":
        return syntax.And((left, right))
    if kind == "or":
        return syntax.Or((left, right))
    if kind == "implies":
        return syntax.Implies(left, right)
    return syntax.Iff(left, right)


def collapse_forms(rng: random.Random) -> dict:
    """One random matrix under four prefixes, equivalent in pairs.

    ``full`` (every existential sees every universal) is equivalent to
    ``linear`` (forall all, then exists all), and ``triangular``
    (existential j sees the first j universals) to ``alternating``
    (forall x1 exists y1 forall x2 exists y2 ...).
    """
    from henkin import syntax

    n = rng.randint(1, 2)
    k = rng.randint(1, 3)
    uni = tuple(syntax.Variable(f"x{j}") for j in range(1, n + 1))
    exi = tuple(syntax.Variable(f"y{j}") for j in range(1, k + 1))
    matrix = random_matrix(rng, [v.name for v in uni + exi], depth=2)
    full = syntax.Branch(syntax.mk_prefix(uni, exi, {e: uni for e in exi}), matrix)
    tri = syntax.Branch(syntax.mk_prefix(uni, exi, {e: uni[: j + 1] for j, e in enumerate(exi)}), matrix)
    linear = syntax.ForAll(uni, syntax.Exists(exi, matrix))
    # Build the alternation inside out: x_j is followed by y_j, and the
    # existentials past the last universal (or universals past the last
    # existential) close the prefix.
    alternating = matrix
    for j in range(max(n, k) - 1, -1, -1):
        if j < k:
            alternating = syntax.Exists((exi[j],), alternating)
        if j < n:
            alternating = syntax.ForAll((uni[j],), alternating)
    return {"full": full, "triangular": tri, "linear": linear, "alternating": alternating}


def smallest_model(f, max_size: int) -> int | None:
    return next((m for m in range(1, max_size + 1) if reference.holds(f, m)), None)


def check_sat(form, text, plain, code, out) -> list[str]:
    """``form`` was printed as ``text``; ``plain`` is its first-order twin."""
    from henkin.text import parse_formula

    want = smallest_model(plain, SAT_MAX_SIZE)
    problems = _expect(parse_formula(text) == form, "formula does not survive print and re-parse")
    if want is None:
        problems += _expect(code == 1 and out == f"none up to {SAT_MAX_SIZE}\n", f"{code} {out!r}, want none")
    else:
        problems += _expect(code == 0 and out == f"{want}\n", f"{code} {out!r}, want {want}")
    for m in range(1, SAT_MAX_SIZE + 1):
        if reference.enumeration_cost(form, m) <= CHEAP and reference.holds(form, m) != reference.holds(plain, m):
            problems.append(f"collapse law fails at m={m}")
    return problems


def random_word(rng: random.Random) -> str:
    return "".join(rng.choice("abc") for _ in range(rng.randint(1, 3)))


def check_compile(equations, query, code, out) -> list[str]:
    from henkin.text import parse_formula

    lines = out.splitlines()
    rows = sum(len(l) + len(r) for l, r in equations) + len(set(query[0] + query[1]))
    problems = _expect(code == 0, f"exit {code}, want 0")
    problems += _expect(lines[:1] == [f"# rows: {rows}"], f"header {lines[:1]}, want {rows} rows")
    sentence = parse_formula("\n".join(lines[1:]))
    if type(sentence).__name__ != "Exists" or type(sentence.body).__name__ != "Branch":
        return problems + ["not an exists spine over a branched prefix"]
    spine = len(query[0]) + len(query[1]) + 2
    problems += _expect(len(sentence.variables) == spine, f"spine of {len(sentence.variables)}, want {spine}")
    prefix = sentence.body.prefix
    unary = all(ds == (u,) for u, ds in zip(prefix.universals, prefix.deps))
    problems += _expect(
        len(prefix.universals) == len(prefix.existentials) == rows and unary,
        f"prefix is not {rows} unary rows",
    )
    return problems


def many_small(seed: int, workdir: Path) -> Workload:
    """``CONTENT_SEED`` draws the sentences, presentations and queries;
    ``seed`` orders the calls."""
    from henkin.text import format_formula

    rng = random.Random(CONTENT_SEED)
    tagged: list[tuple[Op, tuple[int, str] | None]] = []
    for case in range(SAT_CASES):
        forms = collapse_forms(rng)
        for name, form in forms.items():
            plain = forms["linear" if name in ("full", "linear") else "alternating"]
            text = format_formula(form)
            argv = ["sat", "--expr", text, "--max-size", str(SAT_MAX_SIZE), "--budget", BUDGET]
            tagged.append((Op(argv, partial(check_sat, form, text, plain)), (case, name)))
    for p in range(PRESENTATIONS):
        equations = [(random_word(rng), random_word(rng)) for _ in range(rng.randint(1, 3))]
        path = workdir / f"presentation-{p}.txt"
        path.write_text(_presentation_text(equations), encoding="ascii")
        for _ in range(QUERIES_PER_PRESENTATION):
            query = (random_word(rng), random_word(rng))
            argv = ["compile", "--presentation", str(path), "--query", f"{query[0]} = {query[1]}"]
            tagged.append((Op(argv, partial(check_compile, equations, query)), None))
    random.Random(seed).shuffle(tagged)
    where = {tag: i for i, (_, tag) in enumerate(tagged) if tag is not None}
    pairs = [
        (where[(case, a)], where[(case, b)])
        for case in range(SAT_CASES)
        for a, b in (("full", "linear"), ("triangular", "alternating"))
    ]
    return Workload([op for op, _ in tagged], pairs)


# -- oracle-exhaust --------------------------------------------------------

# The equations of ``henkin fixture ceitin-presentation``.
CEITIN_EQUATIONS = [
    ("ac", "ca"), ("ad", "da"), ("bc", "cb"), ("bd", "db"),
    ("eca", "ce"), ("edb", "de"), ("cca", "ccae"),
]
# Queries with a separating model of size at most 3.
CEITIN_SEPARABLE = [("ab", "ba"), ("ae", "ea"), ("ce", "ec")]
ORACLE_MAX_SIZE = 3


def check_oracle(equations, query, max_size, separable, code, out) -> list[str]:
    """``separable`` False: the query is one of the equations, so no model
    separates it.  True: the expected size comes from ``reference``."""
    lines = out.splitlines()
    want = reference.smallest_separating_size(equations, query, max_size) if separable else None
    if want is None:
        return _expect(code == 1 and lines == [f"none up to {max_size}"], f"{code} {lines}, want none")
    problems = _expect(code == 0, f"exit {code}, want 0")
    problems += _expect(lines[:1] == [f"size: {want}"], f"{lines[:1]}, want size {want}")
    try:
        tables = {}
        for line in lines[1:-1]:
            letter, _, cells = line.partition(": ")
            tables[letter] = tuple(int(c.split("->")[1]) for c in cells.split())
        point = int(lines[-1].removeprefix("point: "))
    except (ValueError, IndexError) as exc:
        return problems + [f"unreadable witness: {exc}"]
    return problems + reference.letter_table_problems(equations, query, want, tables, point)


def oracle_exhaust(seed: int, workdir: Path) -> Workload:
    ceitin_path = workdir / "ceitin-presentation.txt"
    ceitin_path.write_text(_presentation_text(CEITIN_EQUATIONS), encoding="ascii")
    commute_path = workdir / "commute.txt"
    commute_path.write_text(_presentation_text([("ab", "ba")]), encoding="ascii")
    calls = [(ceitin_path, CEITIN_EQUATIONS, q, ORACLE_MAX_SIZE, False) for q in CEITIN_EQUATIONS]
    calls += [(ceitin_path, CEITIN_EQUATIONS, q, ORACLE_MAX_SIZE, True) for q in CEITIN_SEPARABLE]
    calls.append((commute_path, [("ab", "ba")], ("ab", "ba"), 4, False))
    random.Random(seed).shuffle(calls)
    ops = []
    for path, equations, query, max_size, separable in calls:
        argv = ["oracle", "--presentation", str(path), "--query", f"{query[0]} = {query[1]}",
                "--max-size", str(max_size), "--budget", BUDGET]
        ops.append(Op(argv, partial(check_oracle, equations, query, max_size, separable)))
    return Workload(ops)


BUILDERS = {
    "crosscheck": crosscheck,
    "ceitin": ceitin,
    "many-small": many_small,
    "oracle-exhaust": oracle_exhaust,
}
