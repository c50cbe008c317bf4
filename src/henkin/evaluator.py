"""Finite-model evaluation over domains {0, ..., m-1}.

A branched prefix is true on a finite domain exactly when every
existential variable has a choice table -- a function from the values of
its declared dependencies to the domain -- such that the matrix holds for
every assignment of the universals.  Both engines here search for such
tables; they differ in how.

``evaluate`` is the workhorse.  It compiles the formula into nested
closures over a flat slot environment, then runs a backtracking search
that visits universal tuples in lexicographic order (first declared
universal most significant) and fills each table cell the first time a
tuple reads it.  Cells already filled by earlier tuples are constraints;
cells first read here are decisions, enumerated in increasing value
order.  When a tuple exhausts its decisions, the search backtracks
chronologically -- with one shortcut: if that tuple shared no previously
filled cell, its failure is independent of every decision taken
elsewhere, so no amount of backtracking can save the prefix and the
search stops at once.

``evaluate_naive`` is a deliberately transparent reference engine.  It
walks the tree with a name-keyed dictionary environment and, at a
branched prefix, enumerates complete choice tables one existential at a
time, checking the matrix on every universal tuple.  Its cost explodes
quickly; it exists so the two engines can cross-check each other on
small instances.

``witness_tables`` runs the same compile and the same search as
``evaluate`` and reads its certificate off that one search: the values of
the outer ``exists`` spine stay in their slots when the search succeeds,
and every successful branch search records its tables on the compile
context, the last one being the branched prefix at the end of the spine.
Its verdict and its budget spend are therefore exactly ``evaluate``'s.

Both engines charge their search steps against a ``Budget`` and raise
``BudgetExceeded`` rather than run away.  Results are deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .budget import Budget, BudgetExceeded
from .syntax import (
    And,
    Branch,
    ConstFalse,
    ConstTrue,
    EqualAtom,
    Exists,
    ForAll,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Variable,
    free_variables,
    validate,
)

__all__ = [
    "SkolemTable",
    "evaluate",
    "evaluate_naive",
    "find_min_model",
    "witness_tables",
]


@dataclass(frozen=True, slots=True)
class SkolemTable:
    """One choice table from a witness: owner name, arity, sorted cells."""

    owner: str
    arity: int
    entries: tuple[tuple[tuple[int, ...], int], ...]

    def format(self) -> str:
        cells = " ".join(
            "(" + ",".join(str(k) for k in key) + ")->" + str(val) for key, val in self.entries
        )
        return f"{self.owner}: {cells}"


class _Ctx:
    __slots__ = ("m", "budget", "nslots", "found")

    def __init__(self, m: int, budget: Budget):
        self.m = m
        self.budget = budget
        self.nslots = 0
        # (program, tables) of the last branch search that succeeded.
        self.found = None

    def alloc(self) -> int:
        slot = self.nslots
        self.nslots += 1
        return slot


class _BranchProgram:
    __slots__ = ("uni_slots", "ex_slots", "dep_slots", "names", "arities", "matrix")

    def __init__(self, uni_slots, ex_slots, dep_slots, names, arities, matrix):
        self.uni_slots = uni_slots
        self.ex_slots = ex_slots
        self.dep_slots = dep_slots
        self.names = names
        self.arities = arities
        self.matrix = matrix


def _compile(node: Formula, scope: dict[str, int], ctx: _Ctx):
    """Translate a formula into a closure list-env -> bool.

    ``scope`` maps variable names to slots in the environment list.  Every
    binder allocates fresh slots, so no two binders share storage even when
    they reuse a name.
    """
    if isinstance(node, EqualAtom):
        i = scope[node.left.name]
        j = scope[node.right.name]
        return lambda env: env[i] == env[j]
    if isinstance(node, ConstTrue):
        return lambda env: True
    if isinstance(node, ConstFalse):
        return lambda env: False
    if isinstance(node, Not):
        body = _compile(node.body, scope, ctx)
        return lambda env: not body(env)
    if isinstance(node, (And, Or)):
        parts = tuple(_compile(g, scope, ctx) for g in node.items)
        if isinstance(node, And):

            def run_and(env, _parts=parts):
                for p in _parts:
                    if not p(env):
                        return False
                return True

            return run_and

        def run_or(env, _parts=parts):
            for p in _parts:
                if p(env):
                    return True
            return False

        return run_or
    if isinstance(node, Implies):
        ante = _compile(node.antecedent, scope, ctx)
        cons = _compile(node.consequent, scope, ctx)
        return lambda env: cons(env) if ante(env) else True
    if isinstance(node, Iff):
        left = _compile(node.left, scope, ctx)
        right = _compile(node.right, scope, ctx)
        return lambda env: left(env) == right(env)
    if isinstance(node, (ForAll, Exists)):
        inner = dict(scope)
        slots = []
        for v in node.variables:
            s = ctx.alloc()
            inner[v.name] = s
            slots.append(s)
        body = _compile(node.body, inner, ctx)
        slots_t = tuple(slots)
        want = isinstance(node, Exists)

        def run_block(env, _slots=slots_t, _body=body, _ctx=ctx, _want=want):
            charge = _ctx.budget.charge
            for combo in itertools.product(range(_ctx.m), repeat=len(_slots)):
                charge()
                for s, val in zip(_slots, combo):
                    env[s] = val
                if _body(env) == _want:
                    return _want
            return not _want

        return run_block
    if isinstance(node, Branch):
        prog = _compile_branch(node, scope, ctx)

        def run_branch(env, _prog=prog, _ctx=ctx):
            tables = _branch_search(_prog, env, _ctx)
            if tables is None:
                return False
            _ctx.found = (_prog, tables)
            return True

        return run_branch
    raise TypeError(f"not a formula: {node!r}")


def _compile_branch(node: Branch, scope: dict[str, int], ctx: _Ctx) -> _BranchProgram:
    prefix = node.prefix
    inner = dict(scope)
    uni_slots = []
    for v in prefix.universals:
        s = ctx.alloc()
        inner[v.name] = s
        uni_slots.append(s)
    ex_slots = []
    for v in prefix.existentials:
        s = ctx.alloc()
        inner[v.name] = s
        ex_slots.append(s)
    dep_slots = tuple(tuple(inner[d.name] for d in ds) for ds in prefix.deps)
    matrix = _compile(node.body, inner, ctx)
    return _BranchProgram(
        tuple(uni_slots),
        tuple(ex_slots),
        dep_slots,
        tuple(v.name for v in prefix.existentials),
        tuple(len(ds) for ds in prefix.deps),
        matrix,
    )


def _branch_search(prog: _BranchProgram, env: list[int], ctx: _Ctx):
    """Search for choice tables satisfying a branched prefix.

    Returns the per-existential tables (dicts keyed by dependency values)
    on success, None on failure.  Table keys are () for arity 0, a bare
    value for arity 1, and a tuple otherwise.
    """
    m = ctx.m
    charge = ctx.budget.charge
    uni_slots = prog.uni_slots
    ex_slots = prog.ex_slots
    dep_slots = prog.dep_slots
    matrix = prog.matrix
    k = len(uni_slots)
    nex = len(ex_slots)
    total = m**k
    tables: list[dict] = [{} for _ in range(nex)]

    def build(t: int):
        rest = t
        uv = [0] * k
        for idx in range(k - 1, -1, -1):
            rest, uv[idx] = divmod(rest, m)
        uv = tuple(uv)
        for s, val in zip(uni_slots, uv):
            env[s] = val
        fixed = []
        new = []
        for i in range(nex):
            ds = dep_slots[i]
            if not ds:
                key = ()
            elif len(ds) == 1:
                key = env[ds[0]]
            else:
                key = tuple(env[d] for d in ds)
            if key in tables[i]:
                fixed.append((i, key))
            else:
                new.append((i, key))
        combos = itertools.product(range(m), repeat=len(new))
        return (uv, tuple(fixed), tuple(new), combos)

    stack: list[tuple] = []
    t = 0
    frame = build(0)
    while True:
        uv, fixed, new, combos = frame
        advanced = False
        for combo in combos:
            charge()
            for s, val in zip(uni_slots, uv):
                env[s] = val
            for i, key in fixed:
                env[ex_slots[i]] = tables[i][key]
            for (i, key), val in zip(new, combo):
                tables[i][key] = val
                env[ex_slots[i]] = val
            if matrix(env):
                advanced = True
                break
        if advanced:
            stack.append(frame)
            t += 1
            if t == total:
                return tables
            frame = build(t)
            continue
        for i, key in new:
            tables[i].pop(key, None)
        if not fixed:
            # This tuple read no previously filled cell, so its failure
            # cannot be blamed on any earlier decision.
            return None
        if not stack:
            return None
        frame = stack.pop()
        t -= 1


_MISSING = object()


def _neval(f: Formula, env: dict[str, int], m: int, budget: Budget) -> bool:
    if isinstance(f, EqualAtom):
        return env[f.left.name] == env[f.right.name]
    if isinstance(f, ConstTrue):
        return True
    if isinstance(f, ConstFalse):
        return False
    if isinstance(f, Not):
        return not _neval(f.body, env, m, budget)
    if isinstance(f, And):
        return all(_neval(g, env, m, budget) for g in f.items)
    if isinstance(f, Or):
        return any(_neval(g, env, m, budget) for g in f.items)
    if isinstance(f, Implies):
        if _neval(f.antecedent, env, m, budget):
            return _neval(f.consequent, env, m, budget)
        return True
    if isinstance(f, Iff):
        return _neval(f.left, env, m, budget) == _neval(f.right, env, m, budget)
    if isinstance(f, (ForAll, Exists)):
        want = isinstance(f, Exists)
        names = [v.name for v in f.variables]

        def go(idx: int) -> bool:
            if idx == len(names):
                return _neval(f.body, env, m, budget)
            name = names[idx]
            saved = env.get(name, _MISSING)
            try:
                for val in range(m):
                    budget.charge()
                    env[name] = val
                    if go(idx + 1) == want:
                        return want
                return not want
            finally:
                if saved is _MISSING:
                    env.pop(name, None)
                else:
                    env[name] = saved

        return go(0)
    if isinstance(f, Branch):
        return _naive_branch(f, env, m, budget)
    raise TypeError(f"not a formula: {f!r}")


def _naive_branch(f: Branch, env: dict[str, int], m: int, budget: Budget) -> bool:
    prefix = f.prefix
    uni = [v.name for v in prefix.universals]
    exis = list(zip(prefix.existentials, prefix.deps))
    tables: list[dict[tuple[int, ...], int]] = [{} for _ in exis]
    touched = uni + [e.name for e, _ in exis]
    saved = {name: env.get(name, _MISSING) for name in touched}

    def check_all() -> bool:
        for combo in itertools.product(range(m), repeat=len(uni)):
            budget.charge()
            for name, val in zip(uni, combo):
                env[name] = val
            for (e, deps), tab in zip(exis, tables):
                env[e.name] = tab[tuple(env[d.name] for d in deps)]
            if not _neval(f.body, env, m, budget):
                return False
        return True

    def search(idx: int) -> bool:
        if idx == len(exis):
            return check_all()
        _, deps = exis[idx]
        keys = tuple(itertools.product(range(m), repeat=len(deps)))
        tab = tables[idx]
        for values in itertools.product(range(m), repeat=len(keys)):
            budget.charge()
            for key, val in zip(keys, values):
                tab[key] = val
            if search(idx + 1):
                return True
        tab.clear()
        return False

    try:
        return search(0)
    finally:
        for name, val in saved.items():
            if val is _MISSING:
                env.pop(name, None)
            else:
                env[name] = val


def _prepare(f: Formula, size: int, env) -> dict[str, int]:
    if not isinstance(size, int) or isinstance(size, bool) or size < 1:
        raise ValueError("domain size must be a positive integer")
    problems = [d for d in validate(f) if d.severity == "error"]
    if problems:
        raise ValueError("invalid formula: " + "; ".join(d.message for d in problems))
    bound: dict[str, int] = {}
    for key, val in (env or {}).items():
        name = key.name if isinstance(key, Variable) else key
        if not isinstance(val, int) or isinstance(val, bool) or not 0 <= val < size:
            raise ValueError(f"value for '{name}' must be an integer in [0, {size})")
        bound[name] = val
    missing = sorted(v.name for v in free_variables(f) if v.name not in bound)
    if missing:
        raise ValueError("unbound free variables: " + ", ".join(missing))
    return bound


def _search(f: Formula, size: int, env, budget: Budget | None):
    """Compile ``f`` and run the search once: (verdict, slot env, context)."""
    bound = _prepare(f, size, env)
    ctx = _Ctx(size, budget if budget is not None else Budget())
    scope: dict[str, int] = {}
    init = []
    for name in sorted(bound):
        slot = ctx.alloc()
        scope[name] = slot
        init.append((slot, bound[name]))
    fn = _compile(f, scope, ctx)
    slots_env = [0] * ctx.nslots
    for slot, val in init:
        slots_env[slot] = val
    return fn(slots_env), slots_env, ctx


def evaluate(f: Formula, size: int, env=None, budget: Budget | None = None) -> bool:
    """Decide truth on the domain {0, ..., size-1} with the search engine.

    ``env`` binds free variables (by Variable or name) to domain values.
    """
    return _search(f, size, env, budget)[0]


def evaluate_naive(f: Formula, size: int, env=None, budget: Budget | None = None) -> bool:
    """Decide truth with the reference engine; use only on small instances."""
    bound = _prepare(f, size, env)
    budget = budget if budget is not None else Budget()
    return _neval(f, dict(bound), size, budget)


def find_min_model(f: Formula, max_size: int, budget: Budget | None = None) -> int | None:
    """Smallest domain size in 1..max_size on which ``f`` is true, else None.

    All sizes share one budget; on exhaustion the raised ``BudgetExceeded``
    records the size being tried.
    """
    if max_size < 1:
        raise ValueError("max_size must be at least 1")
    budget = budget if budget is not None else Budget()
    for m in range(1, max_size + 1):
        try:
            if evaluate(f, m, budget=budget):
                return m
        except BudgetExceeded:
            raise BudgetExceeded(budget.limit, at_size=m) from None
    return None


def witness_tables(f: Formula, size: int, budget: Budget | None = None):
    """Choice tables witnessing a true sentence, or None if it is false.

    Reports the outermost spine of existential blocks as arity-0 tables,
    then the tables of an optional branched prefix right below it, both as
    found by the one search that decides ``f``.  Quantifiers past the
    spine are not tabulated.
    """
    verdict, env, ctx = _search(f, size, None, budget)
    if not verdict:
        return None
    out: list[SkolemTable] = []
    # A sentence binds nothing free, so the spine's binders own the first
    # slots, in order.
    slot = 0
    node = f
    while isinstance(node, Exists):
        for v in node.variables:
            out.append(SkolemTable(v.name, 0, (((), env[slot]),)))
            slot += 1
        node = node.body
    if isinstance(node, Branch):
        # Nothing runs after the spine's final branch search succeeds, and
        # a nested branch finishes before the branch around it.
        prog, tables = ctx.found
        for name, arity, tab in zip(prog.names, prog.arities, tables):
            entries = sorted(((k if isinstance(k, tuple) else (k,)), v) for k, v in tab.items())
            out.append(SkolemTable(name, arity, tuple(entries)))
    return out
