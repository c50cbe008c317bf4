"""Finite-model evaluation over domains {0, ..., m-1}.

A branched prefix is true on a finite domain exactly when every
existential variable has a choice table -- a function from the values of
its declared dependencies to the domain -- such that the matrix holds for
every assignment of the universals.  Both engines here search for such
tables; they differ in how.

``evaluate`` is the workhorse.  It compiles the formula into nested
closures over a flat slot environment.  At a branched prefix it splits
the matrix into its conjuncts (nested ``And``s flattened) and grounds
each one only over the universals that key the table cells it reads:
one instance per tuple of those, since a universal quantifier
distributes over a conjunction.  Universals a conjunct mentions but that
key none of its cells are looped inside the instance's check rather than
multiplied into instances.  The search then assigns table cells in order
of first appearance, checking each instance once its last cell has a
value, and backjumps on conflict (CBJ, Prosser 1993): a cell that runs
out of values returns to the latest cell that took part in one of its
failures, and if none did, the prefix is false.  So ``ceitin-h12`` at
m=3 grounds 1,134 instances instead of walking 3**12 universal tuples.

Linear ``forall``/``exists`` blocks break value symmetry (the
least-number rule of SEM and Mace4).  The vocabulary is empty, so any
permutation of the domain that fixes the values already bound is an
automorphism, and a block only needs those values plus one fresh one:
its first variable ranges over ``0 .. M+1`` (capped at ``m-1``), where
``M`` is the largest value bound in the block's scope (-1 if none), and
each later variable over ``0`` to one above the largest value before it.
Branch table cells keep the full range: a permutation moves a table's
keys as well as its values, and the keys of the first cells of a
conjunct already run through the whole domain, so the rule would prune
almost nothing.

``evaluate_naive`` is a deliberately transparent reference engine.  It
walks the tree with a name-keyed dictionary environment, enumerates a
quantifier block's complete assignments and, at a branched prefix,
complete sets of choice tables, checking the matrix on every universal
tuple; it recurses only down the formula tree.  Its cost explodes
quickly; it exists so the two engines can cross-check each other on
small instances.

``witness_tables`` runs the same compile and the same search as
``evaluate`` and reads its certificate off that one search: the values of
the outer ``exists`` spine stay in their slots when the search succeeds,
and every successful branch search records its cell values on the
compile context, the last one being the branched prefix at the end of
the spine; cells no instance reads are reported as 0, at one node each.
So its verdict is ``evaluate``'s, and so is its budget spend when every
existential appears in the matrix.

Both engines charge their search steps against a ``Budget`` and raise
``BudgetExceeded`` rather than run away.  Results are deterministic.
"""

from __future__ import annotations

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
        # (program, cell values) of the last branch search that succeeded.
        self.found = None

    def alloc(self) -> int:
        slot = self.nslots
        self.nslots += 1
        return slot


class _BranchProgram:
    """A compiled branched prefix.

    ``deps`` gives each existential's dependencies as universal indices.
    ``conjuncts`` holds, in check order, one ``(exs, keyed, loose, test)``
    per conjunct of the matrix: the indices of the existentials it
    mentions and of the universals that key their cells, the slots of the
    other universals it mentions, and its compiled closure.  ``ground``
    caches the instances on first use; the domain size is fixed per
    compile.
    """

    __slots__ = ("uni_slots", "ex_slots", "deps", "names", "arities", "conjuncts", "ground")

    def __init__(self, uni_slots, ex_slots, deps, names, conjuncts):
        self.uni_slots = uni_slots
        self.ex_slots = ex_slots
        self.deps = deps
        self.names = names
        self.arities = tuple(len(ds) for ds in deps)
        self.conjuncts = conjuncts
        self.ground = None


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
        outer = tuple(scope.values())
        inner = dict(scope)
        slots = []
        for v in node.variables:
            s = ctx.alloc()
            inner[v.name] = s
            slots.append(s)
        body = _compile(node.body, inner, ctx)
        slots_t = tuple(slots)
        want = isinstance(node, Exists)

        def run_block(env, _slots=slots_t, _outer=outer, _body=body, _ctx=ctx, _want=want):
            charge = _ctx.budget.charge
            top = max(map(env.__getitem__, _outer), default=-1)
            for combo in _assignments(len(_slots), _ctx.m, top):
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
            values = _branch_search(_prog, env, _ctx)
            if values is None:
                return False
            _ctx.found = (_prog, values)
            return True

        return run_branch
    raise TypeError(f"not a formula: {node!r}")


def _assignments(k: int, m: int, top: int):
    """Values for a block of ``k`` variables, in lexicographic order, each at
    most one above the largest value before it; ``top`` is the largest value
    bound outside the block, -1 if none, and at ``m - 1`` lets every tuple
    through, one at a time."""
    vals = [0] * k
    # highs[i] is the largest of top and vals[:i].
    highs = [top] + [max(top, 0)] * (k - 1)
    while True:
        yield tuple(vals)
        i = k - 1
        while i >= 0 and (vals[i] > highs[i] or vals[i] == m - 1):
            i -= 1
        if i < 0:
            return
        vals[i] += 1
        high = max(highs[i], vals[i])
        for j in range(i + 1, k):
            vals[j] = 0
            highs[j] = high


def _conjuncts(f: Formula) -> list[Formula]:
    """The operands of ``f``'s nested conjunctions, left to right."""
    out = []
    todo = [f]
    while todo:
        g = todo.pop()
        if isinstance(g, And):
            todo.extend(reversed(g.items))
        else:
            out.append(g)
    return out


def _compile_branch(node: Branch, scope: dict[str, int], ctx: _Ctx) -> _BranchProgram:
    prefix = node.prefix
    inner = dict(scope)
    for v in prefix.bound():
        inner[v.name] = ctx.alloc()
    uni_index = {v.name: j for j, v in enumerate(prefix.universals)}
    deps = tuple(tuple(uni_index[d.name] for d in ds) for ds in prefix.deps)
    conjuncts = []
    for part in _conjuncts(node.body):
        names = {v.name for v in free_variables(part)}
        exs = tuple(i for i, e in enumerate(prefix.existentials) if e.name in names)
        keyed = tuple(sorted({j for i in exs for j in deps[i]}))
        loose = tuple(
            inner[v.name]
            for j, v in enumerate(prefix.universals)
            if v.name in names and j not in keyed
        )
        conjuncts.append((exs, keyed, loose, _compile(part, inner, ctx)))
    conjuncts.sort(key=lambda c: (len(c[0]), len(c[1])))
    return _BranchProgram(
        tuple(inner[v.name] for v in prefix.universals),
        tuple(inner[v.name] for v in prefix.existentials),
        deps,
        tuple(v.name for v in prefix.existentials),
        tuple(conjuncts),
    )


def _ground(prog: _BranchProgram, m: int, charge):
    """Instantiate every conjunct over the tuples of its keyed universals.

    Returns ``(cells, first, checks)``: the cells ``(existential, key)`` in
    order of first appearance, the instances that read no cell, and per
    cell the instances whose last cell it is.  An instance is ``(values,
    read, (keyed_slots, ex_slots, loose, test))``: the keyed universals'
    values, the cells its existentials read, and the slots and closure
    it shares with the other instances of its conjunct.  One node per
    instance.
    """
    cell_of: dict[tuple, int] = {}
    cells: list[tuple[int, tuple[int, ...]]] = []
    first = []
    checks: list[list] = []
    for exs, keyed, loose, test in prog.conjuncts:
        keyed_slots = tuple(prog.uni_slots[j] for j in keyed)
        shared = (keyed_slots, tuple(prog.ex_slots[i] for i in exs), loose, test)
        # Where each existential's key sits among the keyed values.
        picks = [(i, tuple(map(keyed.index, prog.deps[i]))) for i in exs]
        for values in _assignments(len(keyed), m, m - 1):
            charge()
            read = []
            for i, pos in picks:
                cell = (i, tuple(map(values.__getitem__, pos)))
                c = cell_of.get(cell)
                if c is None:
                    c = cell_of[cell] = len(cells)
                    cells.append(cell)
                    checks.append([])
                read.append(c)
            inst = (values, tuple(read), shared)
            if read:
                checks[max(read)].append(inst)
            else:
                first.append(inst)
    return cells, first, checks


def _branch_search(prog: _BranchProgram, env: list[int], ctx: _Ctx):
    """Search for choice tables satisfying a branched prefix.

    Returns the value of every cell, numbered as in ``_ground``, on
    success, None on failure.

    The matrix is split into its conjuncts and each is grounded over the
    universals that key the cells it reads (``_ground``); the search then
    assigns cells in order, values ``0..m-1``, with conflict-directed
    backjumping (Prosser 1993).  An instance is checked when its last
    cell is assigned, its loose universals looped inside the check; when
    it fails, its other cells join the current cell's conflict set.  A
    cell that runs out of values jumps back to the latest cell of its
    set, merging the rest of the set into that cell's; an empty set means
    no assignment of the other cells can help, so the prefix is false.
    Instances that read no cell are checked once, first.  One node per
    cell value tried and per loose tuple checked.
    """
    m = ctx.m
    charge = ctx.budget.charge
    if prog.ground is None:
        prog.ground = _ground(prog, m, charge)
    cells, first, checks = prog.ground
    value = [-1] * len(cells)

    def holds(inst) -> bool:
        values, read, (keyed_slots, ex_slots, loose, test) = inst
        for s, v in zip(keyed_slots, values):
            env[s] = v
        for s, c in zip(ex_slots, read):
            env[s] = value[c]
        if not loose:
            return test(env)
        for vals in _assignments(len(loose), m, m - 1):
            charge()
            for s, v in zip(loose, vals):
                env[s] = v
            if not test(env):
                return False
        return True

    if not all(holds(inst) for inst in first):
        return None
    conflicts: list[set[int]] = [set() for _ in cells]
    i = 0
    while i < len(cells):
        while value[i] < m - 1:
            value[i] += 1
            charge()
            failed = next((inst for inst in checks[i] if not holds(inst)), None)
            if failed is None:
                break
            conflicts[i].update(failed[1])
            conflicts[i].discard(i)
        else:
            # Cell i is out of values: jump back to the latest cell to blame.
            blame = conflicts[i]
            if not blame:
                return None
            i = max(blame)
            blame.discard(i)
            conflicts[i] |= blame
            continue
        i += 1
        if i < len(cells):
            value[i] = -1
            conflicts[i].clear()
    return value


def _tuples(k: int, m: int):
    """Every ``k``-tuple of values below ``m``, in lexicographic order, one at
    a time in O(k) memory, so that a budget stops a huge enumeration early."""
    vals = [0] * k
    while True:
        yield tuple(vals)
        i = k - 1
        while i >= 0 and vals[i] == m - 1:
            vals[i] = 0
            i -= 1
        if i < 0:
            return
        vals[i] += 1


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
        # The block binds its variables in a copy, so the caller's env
        # keeps its own bindings.
        want = isinstance(f, Exists)
        names = [v.name for v in f.variables]
        env = dict(env)
        for values in _tuples(len(names), m):
            budget.charge()
            env.update(zip(names, values))
            if _neval(f.body, env, m, budget) == want:
                return want
        return not want
    if isinstance(f, Branch):
        return _naive_branch(f, env, m, budget)
    raise TypeError(f"not a formula: {f!r}")


def _naive_branch(f: Branch, env: dict[str, int], m: int, budget: Budget) -> bool:
    prefix = f.prefix
    uni = [v.name for v in prefix.universals]
    exis = list(zip(prefix.existentials, prefix.deps))
    tables: list[dict[tuple[int, ...], int]] = [{} for _ in exis]
    # Every cell of every table; the first existential's vary slowest.
    # One node per cell listed, so a budget stops a huge table set early.
    cells = []
    for tab, (_, deps) in zip(tables, exis):
        for key in _tuples(len(deps), m):
            budget.charge()
            cells.append((tab, key))
    env = dict(env)  # the prefix binds its variables in a copy too

    def check_all() -> bool:
        for combo in _tuples(len(uni), m):
            budget.charge()
            for name, val in zip(uni, combo):
                env[name] = val
            for (e, deps), tab in zip(exis, tables):
                env[e.name] = tab[tuple(env[d.name] for d in deps)]
            if not _neval(f.body, env, m, budget):
                return False
        return True

    for values in _tuples(len(cells), m):
        budget.charge()
        for (tab, key), val in zip(cells, values):
            tab[key] = val
        if check_all():
            return True
    return False


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
    return _neval(f, bound, size, budget)


def find_min_model(f: Formula, max_size: int, budget: Budget | None = None) -> int | None:
    """Smallest domain size in 1..max_size on which ``f`` is true, else None.

    All sizes share one budget, and each size tried costs one node besides
    its search; on exhaustion the raised ``BudgetExceeded`` records the
    size being tried.
    """
    if max_size < 1:
        raise ValueError("max_size must be at least 1")
    budget = budget if budget is not None else Budget()
    for m in range(1, max_size + 1):
        try:
            budget.charge()
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
        # Cells no instance reads get 0, one node each, so every table is
        # total and the budget bounds its size.
        prog, values = ctx.found
        tables = [{} for _ in prog.arities]
        for (e, key), val in zip(prog.ground[0], values):
            tables[e][key] = val
        for name, arity, tab in zip(prog.names, prog.arities, tables):
            entries = []
            for key in _assignments(arity, size, size - 1):
                if key not in tab:
                    ctx.budget.charge()
                entries.append((key, tab.get(key, 0)))
            out.append(SkolemTable(name, arity, tuple(entries)))
    return out
