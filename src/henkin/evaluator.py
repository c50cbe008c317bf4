"""Finite-model evaluation over domains {0, ..., m-1}.

A branched prefix is true on a finite domain exactly when every
existential variable has a choice table -- a function from the values of
its declared dependencies to the domain -- such that the matrix holds for
every assignment of the universals.  Both engines here search for such
tables; they differ in how.

``evaluate`` is the workhorse.  It compiles the formula into nested
closures over a flat slot environment.  At a branched prefix it splits
the matrix into its conjuncts (nested ``And``s flattened), each compiled
to a plan of all that its instances share at every domain size: its
keyed universals (those the cells it reads depend on), their guard
classes and chain links (below), where its cells' keys sit among those
classes, and its slots and closure.  A run grounds each plan on its
first visit to the prefix, over the plan's keyed universals, one
instance per tuple of those, since a universal quantifier distributes
over a conjunction; universals a conjunct mentions but that key none of
its cells are looped inside the instance's check.  The search then assigns table cells in the order
instances first read them, checking each instance once its last cell
has a value, and backjumps on conflict (CBJ, Prosser 1993): a cell that
runs out of values returns to the latest cell that took part in one of
its failures, and if none did, the prefix is false.

None of that compile depends on the domain size, so ``evaluate`` keeps
the last one, keyed by the formula object (formulas are frozen) and the
env's names, and a call on the same formula reuses it: ``find_min_model``
and ``crosscheck``, which try one sentence at every size, validate it,
check its free variables and build its closures and conjunct plans
once.  Every run still checks its size and env values, grounds each
prefix afresh and searches, so a call's verdict and node count are the
same as on a fresh copy of the formula.  A run takes the compile out of
the module's slot and puts it back, with no run state on it, when it
ends; a nested or concurrent call on the same formula compiles its own.

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
every class, its *admitted* tuples; the others are never generated.
``ceitin-h12`` at m=3 admits 378 of its 1,134 key tuples; walking its
universal tuples would take 3**12.  This is sound for three reasons.
(1) A skipped instance holds whatever the cells hold, so it never fails
and never enters a conflict set; a cell only skipped instances read is
not searched at all.  (2) A permutation of the domain keeps two values
equal or unequal, so the admitted tuples, like all key tuples, are
closed under domain permutations, and the transposition argument for
table cells below still holds.  (3) Cell values satisfy
every admitted instance exactly when they, with any values for the cells
no admitted instance reads, satisfy every instance; so verdicts are
unchanged, and the cells the search finds, with unread cells filled in
any way, are choice tables witnessing the prefix.

A conjunct ``A -> e1 = e2``, with existentials ``e1`` and ``e2``, no loose
universals and only equalities of keyed universals as ``A``'s top-level
conjuncts, is a functional-consistency clause (Ackermann 1954), such as
``reducer``'s ``same-letter`` clauses.  Each equality of ``A`` is a guard
inside one class, so ``A`` holds on every admitted tuple and an admitted
instance is exactly ``cell1 = cell2``.  Such a conjunct compiles to a
merge, not a plan: grounding unites its two cells instead of storing
its instances, and the search assigns one value per
class of united cells, for a compiled sentence one table per letter.
The classes are closed under domain permutations, because the admitted
tuples are, so the transposition argument below holds with a class in
place of a cell and its keys the keys of all of its cells.

Most of the rest are chain links, the way the paper's sentences spell
out how a word acts.  A top-level conjunct ``u = e`` of a conjunct's
antecedent is a *chain link* when ``u`` is a keyed universal and ``e``
an existential of the prefix whose key does not reach ``u``'s class,
directly or through the links taken before it, such as ``ceitin-h12``'s
``x'_a = y_c``, ``ceitin-e10``'s ``y_a = x2`` and ``reducer``'s ``x_j =
y_{j+1}``.  A cyclic link stays an ordinary atom, as does one under
``|`` or ``~`` or in the consequent.  The classes no link fixes are the
conjunct's *start* classes.  An instance holds whatever the cells hold
unless ``u``'s class takes the value of ``e``'s cell, so once the start
classes have values, each link in turn fixes its class from a cell
value, and the instance is a walk ``p -> y_c(p) -> ...``, the way
``oracle.apply_word`` walks a word.  A conjunct with links is grounded
on its start tuples only: ``ceitin-h12`` at m=3 on 42, and the compiled
``ab = ba`` query on the Ceitin presentation at m=7 on 870, of 124,644
admitted.  Every cell a walk can reach gets its class before the search
starts.  The search parks an instance on the first class along its walk
that has no value yet, advances the walk when that class takes one, and
checks the instance when the walk ends.  This is sound for three
reasons.  (1) Under any cell values, only one admitted instance per
start tuple is live: the one whose linked classes hold the values the
walk reads.  Every other admitted instance holds, so checking the walk's
instance checks them all.  (2) Which instance a walk reaches depends on
the values of the classes it read and on nothing else, so when it fails,
those classes are its conflict set, as they were when every admitted
instance was stored.  (3) A permutation of the domain maps the start
tuples, all tuples of the start classes, onto themselves, and the walk
from ``p`` under some cell values onto the walk from the image of ``p``
under the permuted values, so the transposition argument below maps the
admitted start tuples and their walks onto themselves.

A ground is flat, so that its memory follows the tuples it grounds, not
the key spaces of its tables.  A cell's id is its existential's offset
plus its key read in base m, the way Mace4 addresses its cells (McCune
2003); an existential keeps one ``array`` slot per key, or, when its
guards admit few of its keys, a dict entry per cell it names.  An
instance is its rank, its place in grounding order, which names its
conjunct and its start tuple; the classes its static cells read sit
beside it in an ``array``, and the search decodes its universals' values
from the rank when it visits it.  Class numbers, their key bounds and the
instances filed per class (offsets into one ``array`` of ranks) are
``array``s too, and a class's conflict set is made when a failure first
blames another class.  ``H{ forall x z ; y(x z) } . y = x`` grounds
m**2 tuples at about 65 bytes each: at m=1000 it peaks at 78 MB of RSS
before a 2,000,000-node budget runs out.

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

``witness_tables`` runs ``evaluate``'s compile and search and reads the
``{name: {key: value}}`` tables ``table_failures`` checks off that one
search: the outer ``exists`` spine's values stay in their slots when the
search succeeds, and each successful branch search leaves its ground,
which gives every cell its class, and the classes' values on the run's
context, the last being the prefix ending the spine, whose node names
the tables.  Each cell is reported at its class's value and cells no
instance reads as 0, one node each, so its verdict is ``evaluate``'s and
so is its spend, plus one node per unread cell.

Both engines charge their search steps against a ``Budget`` and raise
``BudgetExceeded`` rather than run away.  Results are deterministic.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from itertools import chain
from operator import mul

from .budget import Budget, BudgetExceeded, whole
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
    free_names,
    validate,
)

__all__ = [
    "evaluate",
    "evaluate_naive",
    "find_min_model",
    "table_failures",
    "witness_tables",
]


class _Ctx:
    """A formula's compile and the state of the run using it.

    Compiling allocates the slots.  The closures read the run's domain
    size, budget and grounds off this object, which ``_search`` sets before
    a run and clears after it."""

    __slots__ = ("nslots", "m", "budget", "grounds", "found")

    def __init__(self):
        self.nslots = 0
        self.m = 0
        self.budget = None
        # Each branched prefix's ground, keyed by its closure, built on the
        # run's first visit.
        self.grounds = None
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
        parts = tuple([_compile(g, scope, ctx) for g in node.items])
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

        def run_branch(env):
            # Grounded once per run: the domain size is fixed for a run, and
            # an outer block may visit the prefix many times.
            ground = ctx.grounds.get(run_branch)
            if ground is None:
                ground = ctx.grounds[run_branch] = _ground(conjuncts, ctx.m, ctx.budget)
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
    bound outside the block, -1 if none."""
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
        eqs |= _guards(f.consequent)
        return eqs
    if isinstance(f, Or):
        return set().union(*map(_guards, f.items))
    if isinstance(f, And):
        return set.intersection(*map(_guards, f.items))
    return set()


def _equates(part: Implies, ante: list[Formula], exis, keyed) -> bool:
    """Whether ``part``, with ``ante`` its antecedent's top-level
    conjuncts, is ``A -> e1 = e2`` for names ``e1``, ``e2`` in ``exis`` and
    ``A``'s top-level conjuncts equalities of names in ``keyed``: guards,
    so ``A`` holds on every admitted tuple.  Such a conjunct mentions no
    other name, so it has no loose universals."""
    if not isinstance(part.consequent, EqualAtom):
        return False
    ends = {part.consequent.left.name, part.consequent.right.name}
    return ends <= exis and all(
        isinstance(g, EqualAtom) and {g.left.name, g.right.name} <= keyed for g in ante
    )


def _walk(ante: list[Formula], classes: dict[str, int], picks: dict, width: int):
    """The chain links among ``ante``, a conjunct's antecedent's top-level
    conjuncts, as walk steps, and the conjunct's start classes.

    ``classes`` maps each keyed universal to its class, one of ``width``,
    and ``picks`` each existential the conjunct mentions to its index and
    its key's classes.  A conjunct ``u = e`` in ``ante``, with ``u`` keyed
    and ``e`` an existential, is a link, taken as written, unless a link
    taken before fixes ``u``'s class or ``e``'s key reaches that class,
    directly or through the links taken before.  Returns the steps ``(e's
    index, key classes, fixed class)``, ordered so that every key class is
    a start class or fixed by an earlier step, and the start classes:
    those no link fixes.
    """
    fixed: dict[int, tuple[int, tuple[int, ...]]] = {}
    for g in ante:
        if not isinstance(g, EqualAtom):
            continue
        for u, e in ((g.left.name, g.right.name), (g.right.name, g.left.name)):
            c = classes.get(u)
            if c is None or c in fixed or e not in picks:
                continue
            reached, todo = set(), list(picks[e][1])
            while todo:
                k = todo.pop()
                if k not in reached:
                    reached.add(k)
                    if k in fixed:
                        todo += fixed[k][1]
            if c not in reached:
                fixed[c] = picks[e]
    starts = tuple([c for c in range(width) if c not in fixed])
    known, steps = set(starts), []
    while len(steps) < len(fixed):
        for c, (e, key) in fixed.items():
            if c not in known and known.issuperset(key):
                steps.append((e, key, c))
                known.add(c)
                break
    return tuple(steps), starts


def _compile_branch(node: Branch, scope: dict[str, int], ctx: _Ctx):
    """Compile a branched prefix into its enclosing scope's slots and its
    conjuncts' ``(merges, plans)``, each list in check order: fewest
    existentials first, then fewest keyed universals, ties as written.

    A conjunct is keyed by the universals its existentials depend on.  Its
    guards (``_guards``) between two keyed universals join keyed positions
    into ``width`` classes, numbered by their first position.  Each
    existential it mentions is a pick ``(existential, key classes)``.  A
    conjunct ``A -> e1 = e2`` with existentials ``e1`` and ``e2`` and only
    equalities of keyed universals as ``A``'s top-level conjuncts
    (``_equates``) is a merge ``(width, pick, pick)``, ``e1``'s and
    ``e2``'s: its admitted instances equate two cells, which ``_ground``
    unites.  Any other conjunct is a plan ``(starts, static, walked, steps,
    width, keyed, ex_slots, loose, test)``.  Its chain links fix some
    classes from cell values (``_walk``'s ``steps``); the others are its
    ``starts``.  A pick is ``static`` if its key lies in the start classes,
    its key then naming their places in ``starts``, else ``walked``.
    ``keyed`` pairs each keyed universal's slot with its class,
    ``ex_slots`` lists the existentials' slots, static picks first, each
    paired with its place among the rank's reads when the plan has no
    steps, ``loose`` the slots of its other universals, and ``test`` is
    its compiled closure.
    """
    prefix = node.prefix
    inner = dict(scope)
    for v in prefix.bound():
        inner[v.name] = ctx.alloc()
    uni = tuple(v.name for v in prefix.universals)
    uni_index = {n: j for j, n in enumerate(uni)}
    deps = tuple(tuple(uni_index[d.name] for d in ds) for ds in prefix.deps)
    exnames = tuple(e.name for e in prefix.existentials)
    exis = {n: i for i, n in enumerate(exnames)}
    merges, plans = [], []
    for part in _conjuncts(node.body):
        names = free_names(part)
        exs = sorted([exis[n] for n in names if n in exis])
        keyed = sorted({j for i in exs for j in deps[i]})
        loose = sorted([j for j in map(uni_index.get, names) if j is not None and j not in keyed])
        rank = (len(exs), len(keyed))
        # Each keyed universal's class, labelled by the class's first position.
        pos = {uni[j]: p for p, j in enumerate(keyed)}
        first = list(range(len(keyed)))
        for guard in _guards(part):
            # A guard ``a != a`` names one variable and admits everything.
            if len(guard) == 2 and guard <= pos.keys():
                a, b = sorted([first[pos[name]] for name in guard])
                first = [a if c == b else c for c in first]
        labels = sorted(set(first))
        spread = tuple(map(labels.index, first))
        width = len(labels)
        classes = {n: spread[p] for n, p in pos.items()}
        picks = {exnames[i]: (i, tuple([classes[uni[j]] for j in deps[i]])) for i in exs}
        ante = _conjuncts(part.antecedent) if isinstance(part, Implies) else None
        if ante is not None and _equates(part, ante, exis.keys(), pos.keys()):
            pair = list(picks.values())
            merges.append((rank, (width, pair[0], pair[-1])))
            continue
        steps, starts = (), tuple(range(width))
        if ante is not None:
            steps, starts = _walk(ante, classes, picks, width)
        static, walked = [], []
        for e, key in picks.values():
            if set(key).issubset(starts):
                static.append((e, tuple(map(starts.index, key))))
            else:
                walked.append((e, key))
        ex_slots = tuple([inner[exnames[e]] for e, _ in static + walked])
        if not steps:
            ex_slots = tuple(zip(ex_slots, range(len(static))))
        keyed_slots = tuple([(inner[uni[j]], c) for j, c in zip(keyed, spread)])
        loose_slots = tuple([inner[uni[j]] for j in loose])
        test = _compile(part, inner, ctx)
        plan = (starts, static, walked, steps, width, keyed_slots, ex_slots, loose_slots, test)
        plans.append((rank, plan))
    merges, plans = ([c for _, c in sorted(side, key=lambda c: c[0])] for side in (merges, plans))
    return tuple(scope.values()), (merges, plans)


# An existential keeps its cells in an array when its key space is at most
# this many times the cells it may name: an array slot takes 8 bytes, a dict
# entry about 100.
_DENSE = 8


def _ground(conjuncts, m: int, budget: Budget):
    """Instantiate ``_compile_branch``'s merges and plans at size m.

    Each merge unites its two cells (union-find) at every tuple of its
    classes, before any instance is stored, so a class of united cells is
    final when an instance first reads one of its cells, and is numbered
    then; the classes of cells that only walks reach follow, then those of
    cells that only merges name.  Each plan is grounded on its start
    tuples, every tuple of its start classes in lexicographic order, and
    the search walks each instance's links.

    Storage is flat.  A cell's id is its existential's offset plus its key
    read in base m (``_weights``).  An existential whose key space is
    within ``_DENSE`` times both the cells its picks can reach and the
    budget left keeps one ``array`` slot per key, at the ids below
    ``dense``; the others, whose guards admit few of their keys, keep the
    cells they name in the dict ``far``, keyed by id.  An instance is its
    rank, its place in grounding order: ranks ``bases[c]`` on are plan
    c's, one per start tuple, so the start tuple is the rank's offset read
    in base m.

    Returns ``(off, klass, top, first, order, start, reads, bases,
    plans)``: per existential its offset; the lookup from a cell's id to
    its class, -1 if none, whichever store holds the cell; each class's
    largest key value (-1 if none); the ranks that read no cell; the
    other ranks filed per class in grounding order, class k's in
    ``order[start[k]:start[k + 1]]``, on the last class their start tuple
    reads; the classes each rank's static picks read, plan c's ``npicks``
    per rank from ``reads[rbase]`` on; and per plan its first rank and
    what its instances need at size m, ``(base, rbase, npicks, keyed,
    links, ex_slots, loose, test)``.  A start class's value is the digit of
    the rank's offset at its weight, and a linked class's weight
    m**len(starts) exceeds every offset, so it reads 0.  Without steps,
    ``links`` is None and ``keyed`` pairs each keyed slot with its class's
    weight; with them, ``keyed`` is empty and ``links`` is ``(digits,
    steps, walked, keyed)``: the weight per class, the walk steps and
    walked picks as ``(offset, weights[, fixed class])``, and the plan's
    keyed slots with their classes.  One node per merge tuple and start
    tuple, and one per cell only a walk reaches.
    """
    merges, plans = conjuncts
    charge = budget.charge
    # Per existential, its arity and how many cells its picks can reach.
    arity: dict[int, int] = {}
    reach: dict[int, int] = {}
    picks = chain(*(dict.fromkeys(pair) for _, *pair in merges), *(s + w for _, s, w, *_ in plans))
    for e, key in picks:
        arity[e] = len(key)
        reach[e] = reach.get(e, 0) + m ** len(set(key))
    sparse = {e for e, a in arity.items() if m**a > _DENSE * min(reach[e], budget.remaining)}
    off: dict[int, int] = {}
    dense = size = 0
    for e in sorted(arity, key=sparse.__contains__) if sparse else arity:
        off[e] = size
        size += m ** arity[e]
        if e not in sparse:
            dense = size
    # A cell's entry: its parent's id (a lower one) while it is not a root,
    # else -1 until something names it, -2 until its class is numbered and
    # -3 - k once it is class k.
    cell = array("q", [-1]) * dense
    far: dict[int, int] = {}
    top = array("q")

    # With no sparse existential, every id is an index of ``cell``.
    get, put = cell.__getitem__, cell.__setitem__
    if sparse:

        def get(g: int) -> int:
            return cell[g] if g < dense else far.get(g, -1)

        def put(g: int, v: int) -> None:
            if g < dense:
                cell[g] = v
            else:
                far[g] = v

    def root(g: int) -> int:
        v = get(g)
        if v == -1:
            put(g, -2)
        while v >= 0:
            u = get(v)
            if u >= 0:
                put(g, u)
            g, v = v, u
        return g

    def klass(g: int) -> int:
        v = get(g)
        if v < -2:
            return -3 - v
        r = root(g)
        v = get(r)
        if v < -2:
            return -3 - v
        put(r, -3 - len(top))
        top.append(-1)
        return len(top) - 1

    def cells(picks, width: int) -> list[tuple]:
        """``picks`` with each existential's offset and key weights in place
        of the existential and its key."""
        return [(off[e], _weights(key, width, m), *rest) for e, key, *rest in picks]

    # Unions first, so that every class's root is final when it is numbered.
    for width, *pair in merges:
        (oi, wi), (oj, wj) = cells(pair, width)
        for classed in _tuples(width, m):
            charge()
            a = root(oi + sum(map(mul, classed, wi)))
            b = root(oj + sum(map(mul, classed, wj)))
            if a != b:
                put(max(a, b), min(a, b))
    # Each rank's class, -1 for those that read no cell, and the classes its
    # static picks read, from ``reads[rbase]`` on for its plan's first.
    park = array("q")
    reads = array("q")
    bases, instances, walks = [], [], []
    for starts, static, walked, steps, width, keyed, ex_slots, loose, test in plans:
        digits = [m ** len(starts)] * width
        for p, c in enumerate(reversed(starts)):
            digits[c] = m**p
        static = cells(static, len(starts))
        bases.append(len(park))
        head = (len(park), len(reads), len(static))
        if steps:
            walked = cells(walked, width)
            walks.append(walked)
            links = (digits, cells(steps, width), walked, keyed)
            instances.append((*head, (), links, ex_slots, loose, test))
        else:
            keyed = [(s, digits[c]) for s, c in keyed]
            instances.append((*head, keyed, None, ex_slots, loose, test))
        for vals in _tuples(len(starts), m):
            charge()
            read = [klass(o + sum(map(mul, vals, w))) for o, w in static]
            reads.extend(read)
            park.append(max(read) if read else -1)
    first = [r for r, k in enumerate(park) if k < 0]
    # The cells only walks reach, then those only merges name.
    for walked in walks:
        for o, w in walked:
            w = [x for x in w if x]  # the key's classes' weights, in class order
            for vals in _tuples(len(w), m):
                g = o + sum(map(mul, vals, w))
                if get(g) == -1:
                    charge()
                klass(g)
    # In id order, every parent comes before its children: give each cell
    # its class, numbering the roots still without one, and each class its
    # largest key value.
    for e, o in off.items():
        ids = range(o, o + m ** arity[e])
        if o >= dense:
            ids = sorted(g for g in far if g in ids)
        for g in ids:
            v = get(g)
            if v == -1:
                continue
            if v == -2:
                top.append(-1)
                k = len(top) - 1
            else:
                k = -3 - v if v < 0 else get(v)
            put(g, k)
            n = g - o
            for _ in range(arity[e]):
                n, d = divmod(n, m)
                if d > top[k]:
                    top[k] = d
    # File the ranks per class, by a counting sort that keeps their order.
    count = len(top)
    start = array("q", [0]) * (count + 1)
    for k in park:
        if k >= 0:
            start[k] += 1
    total = 0
    for k in range(count):
        total += start[k]
        start[k] = total
    start[count] = total
    order = array("q", [0]) * total
    for r in range(len(park) - 1, -1, -1):
        k = park[r]
        if k >= 0:
            start[k] -= 1
            order[start[k]] = r
    return off, get, top, first, order, start, reads, bases, instances


def _weights(key, width: int, m: int) -> tuple[int, ...]:
    """Per class, what its value adds to the id of a cell keyed by ``key``'s
    classes: the key is read in base m, so ``key[j]`` adds ``m**(a-1-j)``."""
    w = [0] * width
    for j, c in enumerate(reversed(key)):
        w[c] += m**j
    return tuple(w)


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
    i.  A class's conflict set is made when a failure first blames another
    class.  Cells are read through the ground's ``klass`` lookup.
    ``value``, ``hi`` and ``mark`` are lists, as indexing one is about
    three times as fast as indexing an ``array``.  A slot still takes
    8 bytes: CPython shares the ints up to 256, and above that only a class
    the search enters holds an int of its own.

    An instance is visited, in grounding order, each time the class it is
    parked on takes a value.  A visit finds its plan from its rank and the
    classes it read in ``reads``, and decodes its keyed universals' values
    from the rank.  It walks its steps, reading each step's cell at the
    values its walk has so far; at a cell whose class has no value yet it
    parks on that class, and once every class it reads has a value it is
    checked, its loose universals looped inside the check.  A walk that
    parks again is kept on a trail, undone when the class it left tries
    another value or the search jumps back past it.  When an instance
    fails, the classes it read join the current class's conflict set: its
    walk, and so which instance it is, depends on nothing else.  A class
    that runs out of values jumps back to the latest class of its set,
    merging the rest of the set into that class's; an empty set means no
    assignment of the other classes can help, so the prefix is false.
    Instances that read no cell are checked once, first.  One node per
    class value tried, per walk step taken and per loose tuple checked.
    """
    m = ctx.m
    charge = ctx.budget.charge
    _, klass, top, first, order, start, reads, bases, plans = ground
    count = len(top)
    value = [-1] * count
    # Walks parked again by this search, per class, by rank; ``trail`` lists
    # them as ``(class, rank)``, and ``mark[i]`` is its length when class i
    # was entered.
    parked: dict[int, dict] = {}
    trail: list[tuple[int, int]] = []
    mark = [0] * count

    def visit(rank: int, walks, i: int):
        """None if the instance ``rank`` holds or is parked again, else the
        classes it read; classes up to ``i`` have values.  ``walks`` maps
        the ranks of the walks parked on class i to their ``(step, class
        values, classes read)``."""
        c = bisect_right(bases, rank) - 1
        base, rbase, npicks, keyed, links, ex_slots, loose, test = plans[c]
        if links is None:
            # Read in place; the classes read are sliced out only on failure.
            t = rank - base
            k = rbase + t * npicks
            read = None
            for s, d in keyed:
                env[s] = t // d % m
            for s, q in ex_slots:
                env[s] = value[reads[k + q]]
        else:
            digits, steps, walked, slot_classes = links
            state = walks.get(rank) if walks else None
            if state is None:
                t = rank - base
                k = rbase + t * npicks
                j, classed, read = 0, [t // d % m for d in digits], reads[k : k + npicks]
            else:
                j, classed, read = state
                classed = classed[:]
            while j < len(steps):
                o, w, fixed = steps[j]
                c = klass(o + sum(map(mul, classed, w)))
                if c > i:
                    break
                charge()
                classed[fixed] = value[c]
                j += 1
            else:
                reached = [*read, *[klass(o + sum(map(mul, classed, w))) for o, w in walked]]
                c = max(reached)
            if c > i:
                parked.setdefault(c, {})[rank] = (j, classed, read)
                trail.append((c, rank))
                return None
            read = reached
            for s, c in slot_classes:
                env[s] = classed[c]
            for s, c in zip(ex_slots, read):
                env[s] = value[c]
        if not loose:
            if test(env):
                return None
        else:
            for vals in _tuples(len(loose), m):
                charge()
                for s, v in zip(loose, vals):
                    env[s] = v
                if not test(env):
                    break
            else:
                return None
        return reads[k : k + npicks] if read is None else read

    if any(visit(rank, None, -1) is not None for rank in first):
        return None
    hi = [m - 1] * count
    if count:
        hi[0] = min(m - 1, max((*map(env.__getitem__, outer), top[0])) + 1)
    conflicts: dict[int, set[int]] = {}
    i = 0
    while i < count:
        ranks = order[start[i] : start[i + 1]]
        while value[i] < hi[i]:
            value[i] += 1
            charge()
            while len(trail) > mark[i]:
                c, rank = trail.pop()
                del parked[c][rank]
            # Instances are visited in the order they were grounded.
            walks = parked.get(i)
            for rank in sorted(chain(ranks, walks)) if walks else ranks:
                failed = visit(rank, walks, i)
                if failed is not None:
                    break
            else:
                break
            # A failure that read only class i blames nothing else.
            if i in conflicts or min(failed) < i:
                blame = conflicts.setdefault(i, set())
                blame.update(failed)
                blame.discard(i)
        else:
            # Class i is out of values: jump back to the latest class to blame.
            blame = conflicts.pop(i, None)
            if not blame:
                return None
            i = max(blame)
            blame.discard(i)
            blame.update(conflicts.get(i, ()))
            conflicts[i] = blame
            continue
        i += 1
        if i < count:
            value[i] = -1
            conflicts.pop(i, None)
            mark[i] = len(trail)
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


def _prepare(f: Formula, size: int, env, free=None) -> tuple[dict[str, int], frozenset[str]]:
    """Check ``size``, ``f``, ``env``'s values and that ``env`` binds every
    free variable of ``f``, in that order, and return ``env``'s values by
    name and ``f``'s free names.  Given those names, ``f`` is known to be
    valid and is not walked again."""
    whole(size, "domain size", 1)
    if free is None:
        problems = validate(f)
        if problems:
            raise ValueError("invalid formula: " + "; ".join(problems))
        free = free_names(f)
    bound: dict[str, int] = {}
    for key, val in (env or {}).items():
        name = key.name if isinstance(key, Variable) else key
        bound[name] = whole(val, f"value for '{name}'", 0, size)
    missing = sorted(name for name in free if name not in bound)
    if missing:
        raise ValueError("unbound free variables: " + ", ".join(missing))
    return bound, free


# The last compile, ``(formula, env names, free names, closure, context)``.
# A run pops it (one atomic step) and puts it back when it ends, so a
# nested or concurrent call compiles its own and no two runs share a
# context.
_last: list[tuple] = []


def _search(f: Formula, size: int, env, budget: Budget):
    """Run ``f``'s search once: (verdict, slot env, the context's ``found``).

    The compile is reused when ``_last`` holds one of this very formula for
    the same env names (formulas are frozen); the size and env values are
    checked and the prefixes grounded afresh on every run."""
    try:
        last = _last.pop()
    except IndexError:
        last = None
    try:
        known = last is not None and last[0] is f
        bound, free = _prepare(f, size, env, last[2] if known else None)
        names = tuple(sorted(bound))
        if not (known and last[1] == names):
            ctx = _Ctx()
            scope = {name: ctx.alloc() for name in names}
            last = (f, names, free, _compile(f, scope, ctx), ctx)
        *_, fn, ctx = last
        # The env's names own the first slots, in order.
        slots_env = [*map(bound.__getitem__, names)] + [0] * (ctx.nslots - len(names))
        ctx.m, ctx.budget, ctx.grounds = size, budget, {}
        return fn(slots_env), slots_env, ctx.found
    finally:
        if last is not None:
            ctx = last[-1]
            ctx.budget = ctx.grounds = ctx.found = None
            _last[:] = [last]


def evaluate(f: Formula, size: int, env=None, budget: Budget | None = None) -> bool:
    """Decide truth on the domain {0, ..., size-1} with the search engine.

    ``env`` binds free variables (by Variable or name) to domain values.
    """
    return _search(f, size, env, budget if budget is not None else Budget())[0]


def evaluate_naive(f: Formula, size: int, env=None, budget: Budget | None = None) -> bool:
    """Decide truth with the reference engine; use only on small instances."""
    bound, _ = _prepare(f, size, env)
    budget = budget if budget is not None else Budget()
    return _neval(f, bound, size, budget)


def table_failures(prefix: HenkinPrefix, clauses, tables, size: int, env=None) -> list[str]:
    """Labels of the ``(label, formula)`` clauses that fail, in order, when
    each existential of ``prefix`` reads ``tables[name]``, a dict from key
    to value, as in ``witness_tables``.  A clause is checked on every tuple
    of the universals it reads, directly or through a dependency, as
    ``evaluate_naive`` checks a matrix; ``env`` binds the names the prefix
    leaves free.  A table a clause reads that lacks a key, or holds a value
    that is not a ``whole`` in ``[0, size)``, is a ValueError."""
    deps = {e.name: [d.name for d in ds] for e, ds in zip(prefix.existentials, prefix.deps)}
    failures = []
    for label, clause in clauses:
        bound, _ = _prepare(Branch(prefix, clause), size, env)
        names = free_names(clause)
        exis = [(e, ds) for e, ds in deps.items() if e in names]
        for e, ds in exis:
            for key in _tuples(len(ds), size):
                if key not in tables.get(e, ()):
                    raise ValueError(f"table for '{e}' has no value at {key}")
                whole(tables[e][key], f"table for '{e}' at {key}", 0, size)
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
    whole(max_size, "max_size", 1)
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

    Returns ``{name: {key: value}}``, the form ``table_failures`` checks:
    the outermost spine of existential blocks as ``{(): value}``, then the
    tables of an optional branched prefix right below it, keys in
    lexicographic order, both as found by the one search that decides
    ``f``.  Quantifiers past the spine are not tabulated; a name bound
    twice keeps its first place and its inner binder's table."""
    budget = budget if budget is not None else Budget()
    verdict, env, solved = _search(f, size, None, budget)
    if not verdict:
        return None
    tables: dict[str, dict[tuple[int, ...], int]] = {}
    # A sentence binds nothing free, so the spine's binders own the first
    # slots, in order.
    slot = 0
    node = f
    while isinstance(node, Exists):
        for v in node.variables:
            tables[v.name] = {(): env[slot]}
            slot += 1
        node = node.body
    if isinstance(node, Branch):
        # Nothing runs after the spine's final branch search succeeds, and a
        # nested branch finishes before the branch around it.  Unread cells
        # get 0 at one node each: every table is total, its size budgeted.
        (off, klass, *_), values = solved
        prefix = node.prefix
        for e, (v, deps) in enumerate(zip(prefix.existentials, prefix.deps)):
            table = tables[v.name] = {}
            for n, key in enumerate(_tuples(len(deps), size)):
                k = klass(off[e] + n) if e in off else -1
                if k < 0:
                    budget.charge()
                table[key] = values[k] if k >= 0 else 0
    return tables
