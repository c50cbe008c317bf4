"""Reference computations that the benchmark checks CLI outputs against.

Nothing here calls ``henkin.evaluator``, ``henkin.reducer`` or
``henkin.oracle``: a fault in one of those cannot also hide itself here.
Words are plain strings and equations plain ``(lhs, rhs)`` pairs.
Formulas are the package's syntax trees, but nodes are told apart by
class name rather than ``isinstance``, because ``run.py`` re-imports the
package while it times set-up and the classes change identity.

The four computations:

* ``smallest_separating_size`` -- exhaustive search over letter tables
  for a model of the equations in which the query words act differently;
* ``letter_table_problems`` -- checks a printed model and point;
* ``holds`` -- a plain evaluator that enumerates every assignment and,
  at a branched prefix, every set of choice tables;
* ``choice_table_problems`` -- plugs printed choice tables into a
  sentence and tries the universal tuples.
"""

from __future__ import annotations

import itertools
import re


# -- letter tables ---------------------------------------------------------


def word_action(word: str, tables: dict[str, tuple[int, ...]], size: int) -> tuple[int, ...]:
    """The image of every point under ``word``, rightmost letter first."""
    images = tuple(range(size))
    for ch in reversed(word):
        table = tables[ch]
        images = tuple(table[p] for p in images)
    return images


def separating_model(
    equations: list[tuple[str, str]], query: tuple[str, str], size: int
) -> tuple[dict[str, tuple[int, ...]], int] | None:
    """Some model of ``equations`` on {0..size-1} that separates the query.

    Returns the letter tables and a point where the query words differ,
    or None when every model identifies them.  Letters receive tables in
    order of first occurrence; an equation is tested, as equality of
    whole functions, once all of its letters have tables.
    """
    letters: list[str] = []
    for ch in "".join(l + r for l, r in equations) + query[0] + query[1]:
        if ch not in letters:
            letters.append(ch)
    due: list[list[tuple[str, str]]] = [[] for _ in letters]
    for lhs, rhs in equations:
        due[max(letters.index(ch) for ch in lhs + rhs)].append((lhs, rhs))
    functions = list(itertools.product(range(size), repeat=size))
    tables: dict[str, tuple[int, ...]] = {}

    def extend(depth: int):
        if depth == len(letters):
            left = word_action(query[0], tables, size)
            right = word_action(query[1], tables, size)
            for point in range(size):
                if left[point] != right[point]:
                    return dict(tables), point
            return None
        for fn in functions:
            tables[letters[depth]] = fn
            if all(
                word_action(l, tables, size) == word_action(r, tables, size)
                for l, r in due[depth]
            ):
                found = extend(depth + 1)
                if found is not None:
                    return found
        del tables[letters[depth]]
        return None

    return extend(0)


def smallest_separating_size(
    equations: list[tuple[str, str]], query: tuple[str, str], max_size: int
) -> int | None:
    for size in range(1, max_size + 1):
        if separating_model(equations, query, size) is not None:
            return size
    return None


def letter_table_problems(
    equations: list[tuple[str, str]],
    query: tuple[str, str],
    size: int,
    tables: dict[str, tuple[int, ...]],
    point: int,
) -> list[str]:
    """Why a printed separating model is wrong; empty when it is right."""
    letters = set("".join(l + r for l, r in equations) + query[0] + query[1])
    missing = sorted(letters - set(tables))
    if missing:
        return ["no table for " + ", ".join(missing)]
    for ch, table in tables.items():
        if len(table) != size or any(not 0 <= v < size for v in table):
            return [f"table for {ch} is not a function on {size} points"]
    if not 0 <= point < size:
        return [f"point {point} is outside the domain"]
    problems = [
        f"{l} = {r} fails"
        for l, r in equations
        if word_action(l, tables, size) != word_action(r, tables, size)
    ]
    if word_action(query[0], tables, size)[point] == word_action(query[1], tables, size)[point]:
        problems.append(f"{query[0]} and {query[1]} agree at point {point}")
    return problems


# -- formulas --------------------------------------------------------------


def _kind(f) -> str:
    return type(f).__name__


def holds(f, size: int, env: dict[str, int] | None = None) -> bool:
    """Truth of ``f`` on {0..size-1} by plain enumeration."""
    env = dict(env or {})
    return _holds(f, size, env)


def _holds(f, size: int, env: dict[str, int]) -> bool:
    kind = _kind(f)
    if kind == "EqualAtom":
        return env[f.left.name] == env[f.right.name]
    if kind == "ConstTrue":
        return True
    if kind == "ConstFalse":
        return False
    if kind == "Not":
        return not _holds(f.body, size, env)
    if kind == "And":
        return all(_holds(g, size, env) for g in f.items)
    if kind == "Or":
        return any(_holds(g, size, env) for g in f.items)
    if kind == "Implies":
        return not _holds(f.antecedent, size, env) or _holds(f.consequent, size, env)
    if kind == "Iff":
        return _holds(f.left, size, env) == _holds(f.right, size, env)
    if kind in ("ForAll", "Exists"):
        names = [v.name for v in f.variables]
        want = kind == "Exists"
        for values in itertools.product(range(size), repeat=len(names)):
            if _holds(f.body, size, {**env, **dict(zip(names, values))}) == want:
                return want
        return not want
    if kind == "Branch":
        prefix = f.prefix
        keys = [list(itertools.product(range(size), repeat=len(ds))) for ds in prefix.deps]
        choices = [list(itertools.product(range(size), repeat=len(k))) for k in keys]
        for picked in itertools.product(*choices):
            tables = {
                e.name: dict(zip(k, values))
                for e, k, values in zip(prefix.existentials, keys, picked)
            }
            if _all_tuples_hold(prefix, f.body, size, env, tables):
                return True
        return False
    raise TypeError(f"not a formula: {f!r}")


def _all_tuples_hold(prefix, body, size, env, tables) -> bool:
    uni = [v.name for v in prefix.universals]
    for values in itertools.product(range(size), repeat=len(uni)):
        local = {**env, **dict(zip(uni, values))}
        for e, ds in zip(prefix.existentials, prefix.deps):
            local[e.name] = tables[e.name][tuple(local[d.name] for d in ds)]
        if not _holds(body, size, local):
            return False
    return True


def enumeration_cost(f, size: int) -> int:
    """An upper bound on the leaves ``holds`` visits for ``f``."""
    kind = _kind(f)
    if kind in ("EqualAtom", "ConstTrue", "ConstFalse"):
        return 1
    if kind == "Not":
        return enumeration_cost(f.body, size)
    if kind in ("And", "Or"):
        return sum(enumeration_cost(g, size) for g in f.items)
    if kind == "Implies":
        return enumeration_cost(f.antecedent, size) + enumeration_cost(f.consequent, size)
    if kind == "Iff":
        return enumeration_cost(f.left, size) + enumeration_cost(f.right, size)
    if kind in ("ForAll", "Exists"):
        return size ** len(f.variables) * enumeration_cost(f.body, size)
    if kind == "Branch":
        tables = 1
        for ds in f.prefix.deps:
            tables *= size ** (size ** len(ds))
        return tables * size ** len(f.prefix.universals) * enumeration_cost(f.body, size)
    raise TypeError(f"not a formula: {f!r}")


def mentioned_names(f) -> set[str]:
    kind = _kind(f)
    if kind == "EqualAtom":
        return {f.left.name, f.right.name}
    if kind in ("ConstTrue", "ConstFalse"):
        return set()
    if kind == "Not":
        return mentioned_names(f.body)
    if kind in ("And", "Or"):
        return set().union(*(mentioned_names(g) for g in f.items))
    if kind == "Implies":
        return mentioned_names(f.antecedent) | mentioned_names(f.consequent)
    if kind == "Iff":
        return mentioned_names(f.left) | mentioned_names(f.right)
    if kind in ("ForAll", "Exists"):
        return mentioned_names(f.body) | {v.name for v in f.variables}
    if kind == "Branch":
        return mentioned_names(f.body) | {v.name for v in f.prefix.bound()}
    raise TypeError(f"not a formula: {f!r}")


def _conjuncts(f) -> list:
    if _kind(f) == "And":
        return [c for g in f.items for c in _conjuncts(g)]
    return [f]


_CELL = re.compile(r"\(([0-9,]*)\)->([0-9]+)")


def parse_choice_tables(lines: list[str]) -> dict[str, dict[tuple[int, ...], int]]:
    """Read ``name: (k1,k2)->v ...`` lines as printed by ``eval --show-witness``."""
    tables: dict[str, dict[tuple[int, ...], int]] = {}
    for line in lines:
        name, sep, cells = line.partition(": ")
        if not sep or name in tables:
            raise ValueError(f"not a choice-table line: {line!r}")
        table = {}
        for cell in cells.split():
            match = _CELL.fullmatch(cell)
            if match is None:
                raise ValueError(f"not a table cell: {cell!r}")
            key = tuple(int(k) for k in match.group(1).split(",") if k)
            table[key] = int(match.group(2))
        tables[name] = table
    return tables


def choice_table_problems(f, size: int, tables: dict[str, dict[tuple[int, ...], int]]) -> list[str]:
    """Why ``tables`` do not witness the sentence ``f``; empty when they do.

    The outer spine of ``exists`` blocks reads arity-0 tables.  At a
    branched prefix every cell of every table must be given, and each
    top-level conjunct of the matrix must hold on every tuple of the
    universals it mentions, directly or through an existential's
    dependencies.  Checking each conjunct on its own tuples is the same as
    checking the whole matrix on every universal tuple, since a universal
    quantifier distributes over a conjunction.
    """
    env: dict[str, int] = {}
    node = f
    while _kind(node) == "Exists":
        for v in node.variables:
            value = tables.get(v.name, {}).get(())
            if value is None or not 0 <= value < size:
                return [f"no value for {v.name}"]
            env[v.name] = value
        node = node.body
    if _kind(node) != "Branch":
        return [] if holds(node, size, env) else ["the sentence fails under the spine values"]
    prefix = node.prefix
    deps = {e.name: [d.name for d in ds] for e, ds in zip(prefix.existentials, prefix.deps)}
    for name, ds in deps.items():
        table = tables.get(name, {})
        for key in itertools.product(range(size), repeat=len(ds)):
            if not 0 <= table.get(key, -1) < size:
                return [f"table {name} lacks a value for {key}"]
    universals = [v.name for v in prefix.universals]
    problems = []
    for conjunct in _conjuncts(node.body):
        names = mentioned_names(conjunct)
        needed = names.union(*(deps[n] for n in names if n in deps))
        relevant = [u for u in universals if u in needed]
        for values in itertools.product(range(size), repeat=len(relevant)):
            local = {**env, **dict(zip(relevant, values))}
            for name in names:
                if name in deps:
                    local[name] = tables[name][tuple(local[d] for d in deps[name])]
            if not _holds(conjunct, size, local):
                problems.append(f"conjunct fails at {dict(zip(relevant, values))}")
                break
    return problems


def identity_tables(f, size: int) -> dict[str, dict[tuple[int, ...], int]]:
    """Tables that copy the single dependency of each existential of ``f``'s prefix."""
    prefix = f.prefix
    tables = {}
    for e, ds in zip(prefix.existentials, prefix.deps):
        if len(ds) != 1:
            raise ValueError(f"{e.name} does not depend on exactly one universal")
        tables[e.name] = {(x,): x for x in range(size)}
    return tables
