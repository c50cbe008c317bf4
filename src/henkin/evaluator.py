"""Finite-model evaluation over domains {0, ..., m-1}.

A branched prefix is true on a finite domain exactly when every
existential variable has a choice table -- a function from the values of
its declared dependencies to the domain -- such that the matrix holds for
every assignment of the universals.  Both engines here search for such
tables; they differ in how.

``evaluate`` is the workhorse.  It compiles the formula into nested
closures over a flat slot environment.  At a branched prefix it splits
the matrix into its conjuncts (nested ``And``s flattened), each compiled
to a record: where its cells' keys sit among its keyed universals (those
the cells it reads depend on), its guard classes (below), and the slots
and closure its instances share.  The prefix's first run grounds each
record over its keyed universals, one instance per tuple of those, since
a universal quantifier distributes over a conjunction; universals a
conjunct mentions but that key none of its cells are looped inside the
instance's check.  The search then assigns table cells in order of first
appearance, checking each instance once its last cell has a value, and
backjumps on conflict (CBJ, Prosser 1993): a cell that runs out of
values returns to the latest cell that took part in one of its failures,
and if none did, the prefix is false.

Most conjuncts the paper's sentences are made of are implications
guarded by equalities between universals, such as the functionality
clause ``x = x' -> y = y'``.  A *guard* of a conjunct is a pair of names
``{a, b}`` such that the conjunct holds wherever ``a != b``, read off its
syntax: ``a != b`` gives its pair, ``A -> B`` the ``a = b`` atoms among
``A``'s top-level conjuncts and ``B``'s guards, ``|`` the union and ``&``
the intersection of its operands' guards, and nothing else gives any
(nothing under a quantifier or branch, where a name may be rebound).
Guards between two keyed universals join keyed positions into classes,
and a conjunct is grounded only on the key tuples that are constant on
every class, its *admitted* tuples; the others are never generated.  So
``ceitin-h12`` at m=3 admits 378 tuples, where grounding every key tuple
gave 1,134 and walking the universal tuples 3**12.  This is sound
for three reasons.  (1) A skipped instance holds whatever the cells hold,
so it never fails and never enters a conflict set; a cell only skipped
instances read is not searched at all.  (2) A permutation of the domain
keeps two values equal or unequal, so the admitted tuples, like all key
tuples, are closed under domain permutations, and the transposition
argument for table cells below still holds.  (3) Cell values satisfy
every admitted instance exactly when they, with any values for the cells
no admitted instance reads, satisfy every instance; so verdicts are
unchanged, and the cells the search finds, with unread cells filled in
any way, are choice tables witnessing the prefix.

A conjunct ``A -> e1 = e2``, with existentials ``e1`` and ``e2``, no loose
universals and only equalities of keyed universals as ``A``'s top-level
conjuncts, is a functional-consistency clause (Ackermann 1954), such as
``reducer``'s ``same-letter`` clauses.  Each equality of ``A`` is a guard
inside one class, so ``A`` holds on every admitted tuple and an admitted
instance is exactly ``cell1 = cell2``.  Grounding unites those two cells
instead of storing the instance, and the search assigns one value per
class of united cells, for a compiled sentence one table per letter.
The classes are closed under domain permutations, because the admitted
tuples are, so the transposition argument below holds with a class in
place of a cell and its keys the keys of all of its cells.

Both quantifier blocks and table cells break value symmetry (the
least-number rule of SEM and Mace4).  The vocabulary is empty, so any
permutation of the domain that fixes the values already bound is an
automorphism, and a choice only needs those values plus one fresh one.
A linear ``forall``/``exists`` block's first variable ranges over
``0 .. M+1`` (capped at ``m-1``), where ``M`` is the largest value bound
in the block's scope (-1 if none), and each later variable over ``0`` to
one above the largest value before it.  A table cell ranges over ``0 ..
M+1`` too, where ``M`` is the largest value bound in the prefix's scope,
in the keys of the cells up to and including it, and in the cells before
it; the search sets that bound as it enters the cell, from the bound and
value of the cell before and the cell's own key.  For a value ``v`` above
``M+1``, the transposition ``(v, M+1)`` fixes all of those and maps the
instances onto themselves, so ``v`` fails wherever ``M+1`` does, for the
same reasons: the rule never widens a conflict set.  It matters for
pigeonhole tables: ``infinity`` at m=8 takes 1,810 nodes, not 2,499,386.

``evaluate_naive`` is a deliberately transparent reference engine.  It
walks the tree with a name-keyed dictionary environment, enumerates a
quantifier block's complete assignments and, at a branched prefix,
complete sets of choice tables, checking the matrix on every universal
tuple; it recurses only down the formula tree.  Its cost explodes
quickly; it exists so the two engines can cross-check each other on
small instances.  ``table_failures`` runs the same loop on given choice
tables, one labelled clause at a time, and names the clauses they break.

``witness_tables`` runs the same compile and the same search as
``evaluate`` and reads its certificate off that one search: the values of
the outer ``exists`` spine stay in their slots when the search succeeds,
and each successful branch search leaves its cells, their classes and
the classes' values on the compile context, the last being the prefix
ending the spine, whose node names the tables.  Each cell is reported at
its class's value and cells no instance reads as 0, one node each, so
its verdict is ``evaluate``'s and so is its spend, plus one node per
unread cell.

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
    HenkinPrefix,
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
    "table_failures",
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
        # (ground, class values) of the last branch search that succeeded.
        self.found = None

    def alloc(self) -> int:
        slot = self.nslots
        self.nslots += 1
        return slot


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
        outer, conjuncts = _compile_branch(node, scope, ctx)
        ground = None  # built on the first run; the domain size is fixed per compile

        def run_branch(env):
            nonlocal ground
            if ground is None:
                ground = _ground(conjuncts, ctx.m, ctx.budget.charge)
            values = _branch_search(ground, outer, env, ctx)
            if values is None:
                return False
            ctx.found = (ground, values)
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


def _guards(f: Formula) -> set[frozenset[str]]:
    """Pairs of names ``{a, b}`` such that ``f`` holds wherever a != b, read
    off the syntax by the rules in the module docstring: sound, not
    complete."""
    if isinstance(f, Not) and isinstance(f.body, EqualAtom):
        return {frozenset((f.body.left.name, f.body.right.name))}
    if isinstance(f, Implies):
        eqs = {
            frozenset((g.left.name, g.right.name))
            for g in _conjuncts(f.antecedent)
            if isinstance(g, EqualAtom)
        }
        return eqs | _guards(f.consequent)
    if isinstance(f, Or):
        return set().union(*map(_guards, f.items))
    if isinstance(f, And):
        return set.intersection(*map(_guards, f.items))
    return set()


def _equates(part: Formula, exis, keyed) -> bool:
    """Whether ``part`` is ``A -> e1 = e2`` for names ``e1``, ``e2`` in
    ``exis`` and ``A``'s top-level conjuncts equalities of names in
    ``keyed``: guards, so ``A`` holds on every admitted tuple.  Such a
    conjunct mentions no other name, so it has no loose universals."""
    if not (isinstance(part, Implies) and isinstance(part.consequent, EqualAtom)):
        return False
    ends = {part.consequent.left.name, part.consequent.right.name}
    return ends <= exis and all(
        isinstance(g, EqualAtom) and {g.left.name, g.right.name} <= keyed
        for g in _conjuncts(part.antecedent)
    )


def _compile_branch(node: Branch, scope: dict[str, int], ctx: _Ctx):
    """Compile a branched prefix into its enclosing scope's slots and one
    ``(picks, spread, check)`` record per conjunct, in check order: fewest
    existentials first, then fewest keyed universals, ties as written.

    A conjunct is keyed by the universals its existentials depend on;
    ``picks`` pairs each existential it mentions with the positions of its
    key among them.  The conjunct's guards (``_guards``) between two keyed
    universals join keyed positions into classes, numbered by their first
    position, and ``spread`` maps each keyed position to its class.  Its
    instances share ``check``, ``(keyed_slots, ex_slots, loose, test)``:
    the slots of its keyed universals, existentials and other universals,
    and its compiled closure.  ``check`` is None for a conjunct
    ``A -> e1 = e2`` with existentials ``e1`` and ``e2`` and only
    equalities of keyed universals as ``A``'s top-level conjuncts
    (``_equates``): its admitted instances equate two cells, which
    ``_ground`` merges.
    """
    prefix = node.prefix
    inner = dict(scope)
    for v in prefix.bound():
        inner[v.name] = ctx.alloc()
    uni_index = {v.name: j for j, v in enumerate(prefix.universals)}
    deps = tuple(tuple(uni_index[d.name] for d in ds) for ds in prefix.deps)
    exis = {e.name for e in prefix.existentials}
    conjuncts = []
    for part in _conjuncts(node.body):
        names = {v.name for v in free_variables(part)}
        exs = [i for i, e in enumerate(prefix.existentials) if e.name in names]
        keyed = sorted({j for i in exs for j in deps[i]})
        loose = tuple(inner[n] for n, j in uni_index.items() if n in names and j not in keyed)
        # Each keyed position's class, labelled by the class's first position.
        pos = {prefix.universals[j].name: p for p, j in enumerate(keyed)}
        first = list(range(len(keyed)))
        for guard in _guards(part):
            # A guard ``a != a`` names one variable and admits everything.
            if len(guard) == 2 and guard <= pos.keys():
                a, b = sorted(first[pos[name]] for name in guard)
                first = [a if c == b else c for c in first]
        picks = tuple((i, tuple(map(keyed.index, deps[i]))) for i in exs)
        spread = tuple(map(sorted(set(first)).index, first))
        check = None
        if not _equates(part, exis, pos.keys()):
            keyed_slots = tuple(inner[prefix.universals[j].name] for j in keyed)
            ex_slots = tuple(inner[prefix.existentials[i].name] for i in exs)
            check = (keyed_slots, ex_slots, loose, _compile(part, inner, ctx))
        conjuncts.append(((len(exs), len(keyed)), (picks, spread, check)))
    conjuncts.sort(key=lambda c: c[0])
    return tuple(scope.values()), [record for _, record in conjuncts]


def _ground(conjuncts, m: int, charge):
    """Instantiate every conjunct record over its admitted keyed tuples.

    A conjunct's admitted tuples are the tuples of its keyed universals
    that are constant on each guard class (``_compile_branch``); every
    other tuple makes a guard false, so its instance holds whatever the
    cells hold and is never built.  The class values are enumerated in
    lexicographic order and spread onto the keyed positions; classes are
    numbered by their first position, so the admitted tuples come in the
    lexicographic order of the full tuples.  An instance of a conjunct
    whose ``check`` is None equates its two cells: they are united
    (union-find) instead, and the search assigns one value per class of
    united cells.

    Returns ``(cells, group, top, first, checks)``: the cells
    ``(existential, key)`` in order of first appearance, each cell's
    class, numbered in order of first appearance, each class's largest
    key value (-1 if none), the instances that read no cell, and per class
    the instances whose last class it is.  An instance is ``(values,
    read, check)``: the keyed universals' values, the classes of the
    cells its existentials read, and its conjunct's ``check``.  One node
    per admitted tuple.
    """
    cell_of: dict[tuple, int] = {}
    cells: list[tuple[int, tuple[int, ...]]] = []
    parent: list[int] = []
    insts = []

    def root(c: int) -> int:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for picks, spread, check in conjuncts:
        for classed in _assignments(max(spread, default=-1) + 1, m, m - 1):
            charge()
            values = tuple(map(classed.__getitem__, spread))
            read = []
            for i, pos in picks:
                cell = (i, tuple(map(values.__getitem__, pos)))
                c = cell_of.get(cell)
                if c is None:
                    c = cell_of[cell] = len(cells)
                    cells.append(cell)
                    parent.append(c)
                read.append(c)
            if check is None:
                # The root of a class is its first cell.
                a, b = root(read[0]), root(read[-1])
                parent[max(a, b)] = min(a, b)
            else:
                insts.append((values, read, check))
    number: dict[int, int] = {}
    group = [number.setdefault(root(c), len(number)) for c in range(len(cells))]
    top = [-1] * len(number)
    for (_, key), k in zip(cells, group):
        top[k] = max((top[k], *key))
    first = []
    checks: list[list] = [[] for _ in number]
    for values, read, check in insts:
        read = tuple(map(group.__getitem__, read))
        (checks[max(read)] if read else first).append((values, read, check))
    return cells, group, top, first, checks


def _branch_search(ground, outer: tuple[int, ...], env: list[int], ctx: _Ctx):
    """Search for choice tables satisfying a branched prefix.

    Returns the value of every class of united cells, numbered as in
    ``_ground``, on success, None on failure.

    Classes are assigned in order with conflict-directed backjumping
    (Prosser 1993).  Class i tries ``0 .. hi[i]``: one above the largest
    value bound in the prefix's scope (slots ``outer``), in the keys of the
    cells of classes 0..i and in classes 0..i-1, capped at m-1 (the module
    docstring says why that is sound).  ``hi[i-1]`` covers all of that but
    class i-1's value and class i's keys, so the search sets ``hi[i]`` to
    ``min(m-1, max(hi[i-1], value[i-1]+1, top[i]+1))`` as it enters class
    i.  An instance is checked when its last class is assigned, its loose
    universals looped inside the check; when it fails, its other classes
    join the current class's conflict set.  A class that runs out of
    values jumps back to the latest class of its set, merging the rest of
    the set into that class's; an empty set means no assignment of the
    other classes can help, so the prefix is false.  Instances that read
    no cell are checked once, first.  One node per class value tried and
    per loose tuple checked.
    """
    m = ctx.m
    charge = ctx.budget.charge
    _, _, top, first, checks = ground
    count = len(checks)
    value = [-1] * count

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
    hi = [m - 1] * count
    if count:
        hi[0] = min(m - 1, max((*map(env.__getitem__, outer), top[0])) + 1)
    conflicts: list[set[int]] = [set() for _ in range(count)]
    i = 0
    while i < count:
        while value[i] < hi[i]:
            value[i] += 1
            charge()
            failed = next((inst for inst in checks[i] if not holds(inst)), None)
            if failed is None:
                break
            conflicts[i].update(failed[1])
            conflicts[i].discard(i)
        else:
            # Class i is out of values: jump back to the latest class to blame.
            blame = conflicts[i]
            if not blame:
                return None
            i = max(blame)
            blame.discard(i)
            conflicts[i] |= blame
            continue
        i += 1
        if i < count:
            value[i] = -1
            conflicts[i].clear()
            hi[i] = hi[i - 1]
            if hi[i] < m - 1:  # once a bound reaches m - 1, so do all later ones
                hi[i] = min(m - 1, max(hi[i], value[i - 1] + 1, top[i] + 1))
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


def _tables_hold(uni, exis, body: Formula, tables, env: dict[str, int], m: int, budget) -> bool:
    """Whether ``body`` holds on every tuple of the universals ``uni`` when
    each existential of ``exis``, a list of (name, dependency names), reads
    ``tables[name]`` at its key.  ``env`` binds the names around and takes
    each tuple's values in turn.  One node per universal tuple."""
    for combo in _tuples(len(uni), m):
        budget.charge()
        env.update(zip(uni, combo))
        for e, deps in exis:
            env[e] = tables[e][tuple(env[d] for d in deps)]
        if not _neval(body, env, m, budget):
            return False
    return True


def _naive_branch(f: Branch, env: dict[str, int], m: int, budget: Budget) -> bool:
    prefix = f.prefix
    uni = [v.name for v in prefix.universals]
    exis = [(e.name, [d.name for d in ds]) for e, ds in zip(prefix.existentials, prefix.deps)]
    tables: dict[str, dict[tuple[int, ...], int]] = {e: {} for e, _ in exis}
    # Every cell of every table; the first existential's vary slowest.
    # One node per cell listed, so a budget stops a huge table set early.
    cells = []
    for e, deps in exis:
        for key in _tuples(len(deps), m):
            budget.charge()
            cells.append((tables[e], key))
    env = dict(env)  # the prefix binds its variables in a copy too
    # Count through the fillings in lexicographic order, the last cell
    # fastest, rewriting only the cells that change.
    for tab, key in cells:
        tab[key] = 0
    while True:
        budget.charge()
        if _tables_hold(uni, exis, f.body, tables, env, m, budget):
            return True
        for tab, key in reversed(cells):
            if tab[key] < m - 1:
                tab[key] += 1
                break
            tab[key] = 0
        else:
            return False


def _prepare(f: Formula, size: int, env) -> dict[str, int]:
    if not isinstance(size, int) or isinstance(size, bool) or size < 1:
        raise ValueError("domain size must be a positive integer")
    problems = validate(f)
    if problems:
        raise ValueError("invalid formula: " + "; ".join(problems))
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


def table_failures(prefix: HenkinPrefix, clauses, tables, size: int, env=None) -> list[str]:
    """Labels of the ``(label, formula)`` clauses that fail, in order, when
    each existential of ``prefix`` reads ``tables[name]``, a dict from key
    to value.  A clause is checked on every tuple of the universals it
    reads, directly or through a dependency, as ``evaluate_naive`` checks a
    matrix; ``env`` binds the names outside the prefix."""
    deps = {e.name: [d.name for d in ds] for e, ds in zip(prefix.existentials, prefix.deps)}
    failures = []
    for label, clause in clauses:
        bound = _prepare(Branch(prefix, clause), size, env)
        names = {v.name for v in free_variables(clause)}
        exis = [(e, ds) for e, ds in deps.items() if e in names]
        needed = names.union(*(ds for _, ds in exis))
        uni = [v.name for v in prefix.universals if v.name in needed]
        if not _tables_hold(uni, exis, clause, tables, bound, size, Budget()):
            failures.append(label)
    return failures


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
        # Nothing runs after the spine's final branch search succeeds, and a
        # nested branch finishes before the branch around it.  Unread cells
        # get 0 at one node each: every table is total, its size budgeted.
        (cells, group, *_), values = ctx.found
        prefix = node.prefix
        tables = [{} for _ in prefix.existentials]
        for (e, key), k in zip(cells, group):
            tables[e][key] = values[k]
        for v, deps, tab in zip(prefix.existentials, prefix.deps, tables):
            entries = []
            for key in _assignments(len(deps), size, size - 1):
                if key not in tab:
                    ctx.budget.charge()
                entries.append((key, tab.get(key, 0)))
            out.append(SkolemTable(v.name, len(deps), tuple(entries)))
    return out
