"""Pure-Python kernel: the hot inner loops of evaluation and refinement.

A compiled sentence is a DAG of closures, one per node and slot context,
each evaluating its node (Feeley & Lapalme 1987, "Using closures for code
generation"): the compiler calls one constructor per closure, so the choice
of node kind is paid when the program is built, not per node per
structure.
The node runners are plain loops; ``model.compile_sentence`` wraps those of
the nodes it memoizes in ``memoize`` (the rule is stated there).

Runners are class-parallel: one call evaluates a node over a run of
structures of one size at once, and returns an int with bit j set iff the
node holds in structure j of the run.  ``not`` is the complement within
the run, ``and``/``forall`` the AND of their children's bits, stopping at
0, and ``or``/``exists`` the OR, stopping once every structure holds.  A
single structure is the run of width 1.
"""

from array import array
from itertools import filterfalse
from operator import itemgetter
from typing import Callable, Optional, Sequence

BACKEND = "pure"


class Program:
    """Sentence DAG compiled to one closure per node and slot context.

    ops       the runners the compilation built, children first; a runner
              may be reached from several parents
    run       the root's runner
    nslots    env slots the program reads or binds: one past the deepest
              slot that any of its runners touches
    rank      the sentence's quantifier rank, as ``model.quantifier_rank``
              gives it, which the compiler reads off as it builds the nodes

    A runner is called as ``run(env, ctx)`` and returns the bits, over
    the run, of the structures where its node holds.  ``env`` is a list of
    slot values, free slots first; element v of the run's universe is the
    value ``v * width``, so the fold-left index of a tuple of such values
    is its cell's offset ``cell * width``.  A quantifier node binds its
    slot and leaves it at the last value tried.
    ``ctx`` is ``(size, masks, memo, full, elements)``, made fresh per
    evaluation: the structures' size; per relation r, the cell-major bits
    ``masks[r]``, whose bit ``cell * width + j`` says whether structure j
    holds the tuple of fold-left index ``cell``; the results of the
    runners that ``model.compile_sentence`` wraps in ``memoize``; the
    run's full mask ``(1 << width) - 1``; and the element values
    ``range(0, size * width, width)``.  Runners hold no mutable state of
    their own, so threads may share a program.
    """

    def __init__(self, ops: Optional[list[Callable]] = None,
                 run: Optional[Callable] = None, nslots: int = 0,
                 rank: int = 0):
        self.ops = [] if ops is None else ops
        self.run = run
        self.nslots = nslots
        self.rank = rank


# Node constructors, one per node kind, each returning the node's runner.
# ``rel`` is a relation index and ``slot``/``slots``/``a``/``b`` are env
# slots.

def atom(rel: int, slots: tuple[int, ...]) -> Callable:
    # bit index of tuple (a0, .., ak) is ((a0*n + a1)*n + a2)... (fold left);
    # over env values scaled by the width, the fold is the cell's offset
    if len(slots) == 1:
        (a,) = slots

        def run(env, ctx):
            return ctx[1][rel] >> env[a] & ctx[3]
    elif len(slots) == 2:
        a, b = slots

        def run(env, ctx):
            return ctx[1][rel] >> (env[a] * ctx[0] + env[b]) & ctx[3]
    else:
        def run(env, ctx):
            size = ctx[0]
            idx = 0
            for s in slots:
                idx = idx * size + env[s]
            return ctx[1][rel] >> idx & ctx[3]
    return run


def eq(a: int, b: int) -> Callable:
    def run(env, ctx):
        return ctx[3] if env[a] == env[b] else 0
    return run


def not_(child: Callable) -> Callable:
    def run(env, ctx):
        return ctx[3] ^ child(env, ctx)
    return run


# Children are looped over in plain ``for`` loops, not all()/any() over a
# generator: either would add stack frames per nesting level, and the
# deepest chains the parser accepts would then overflow.  A conjunction
# stops once no structure of the run is left, a disjunction once all are.

def and_(children: tuple[Callable, ...]) -> Callable:
    def run(env, ctx):
        m = ctx[3]
        for c in children:
            m &= c(env, ctx)
            if not m:
                break
        return m
    return run


def or_(children: tuple[Callable, ...]) -> Callable:
    def run(env, ctx):
        full = ctx[3]
        m = 0
        for c in children:
            m |= c(env, ctx)
            if m == full:
                break
        return m
    return run


def exists(child: Callable, slot: int) -> Callable:
    def run(env, ctx):
        full = ctx[3]
        m = 0
        for v in ctx[4]:
            env[slot] = v
            m |= child(env, ctx)
            if m == full:
                break
        return m
    return run


def forall(child: Callable, slot: int) -> Callable:
    def run(env, ctx):
        m = ctx[3]
        for v in ctx[4]:
            env[slot] = v
            m &= child(env, ctx)
            if not m:
                break
        return m
    return run


def memoize(child: Callable, memo: tuple[int, tuple[int, ...]]) -> Callable:
    """``child``, with its results kept in the evaluation's memo ``ctx[2]``.
    ``memo`` is the runner's number, unique in its program, and the env
    slots of its node's free variables; the key is (number, values of those
    slots), or the bare number for a closed node."""
    i, used = memo
    if not used:
        def run(env, ctx):
            results = ctx[2]
            res = results.get(i)
            if res is None:
                res = results[i] = child(env, ctx)
            return res
        return run
    get = itemgetter(*used)

    def run(env, ctx):
        key = (i, get(env))
        results = ctx[2]
        res = results.get(key)
        if res is None:
            res = results[key] = child(env, ctx)
        return res
    return run


def eval_program(prog: Program, size: int, masks: tuple[int, ...],
                 env0: tuple[int, ...], width: int = 1) -> int:
    """Evaluate a compiled sentence over a run of ``width`` structures of
    ``size`` elements: bit j of ``masks[r] >> cell * width`` says whether
    structure j holds the tuple of fold-left index ``cell`` in relation r,
    so one structure's ``Structure.masks`` are its own run of width 1.

    ``env0`` fills the free slots with elements, the same in every
    structure of the run; quantifier nodes extend the environment.
    Returns the bitset of the structures of the run where the sentence
    holds.
    """
    env = [*env0, *[0] * (prog.nslots - len(env0))]
    if width == 1:
        return prog.run(env, (size, masks, {}, 1, range(size)))
    return prog.run([v * width for v in env],
                    (size, masks, {}, (1 << width) - 1,
                     range(0, size * width, width)))


def dense_labels(table: dict, keys: Sequence) -> map:
    """The labels of ``keys`` in ``table``, which first gives each new key
    the next dense label, in order of first occurrence: what
    ``table.setdefault(key, len(table))`` per key gives, with no Python
    loop."""
    fresh = list(filterfalse(table.__contains__, dict.fromkeys(keys)))
    table.update(zip(fresh, range(len(table), len(table) + len(fresh))))
    return map(table.__getitem__, keys)


def refine_levels(sizes: list[int], n_max: int, init_labels: list[int]):
    """Iterate one-step signature refinement until the partition repeats.

    Items are the tuples of length 0..n_max of each structure, in ``sizes``
    order, by length, each length block in product order: the heap order of
    a size-n structure's n-ary tuple tree.  So the one-element extensions of
    its local item i are its items n*i+1 .. n*i+n, and its last n**n_max
    items, at the length cap, have none.  An item's signature is its label
    followed by the sorted distinct labels of its extensions, one flat
    tuple.  Labels are dense, assigned in first-occurrence order, so the
    result is deterministic.  Returns (levels, stable) with levels[k] the
    labels at level k as an ``array('i')`` and ``stable`` the first level
    whose refinement is itself.

    The final-block rule: the classes of the length-l tuples are final from
    level n_max - l on.  Tuples at the cap have no extensions, and a length
    whose extensions' classes are final at level a has final classes at
    level a + 1.  So from then on a length-l item is keyed by its label
    alone, which gives the same dense labels (an int key never equals a
    tuple key, and a final class does not split), and level n_max is
    returned as stable without a pass that confirms it.
    """
    # per structure: its size, and the first item of each length 0..n_max,
    # then its end
    spans, end = [], 0
    for n in sizes:
        bounds = [end]
        for k in range(n_max + 1):
            bounds.append(bounds[-1] + n ** k)
        spans.append((n, bounds))
        end = bounds[-1]
    # the level being refined stays a list: an array boxes an int per read
    cur = list(init_labels)
    levels = []
    nclasses = len(set(cur))
    while True:
        levels.append(array("i", cur))
        level = len(levels) - 1
        if level == n_max:
            return levels, level
        sig2new: dict = {}
        new: list[int] = []
        for n, bounds in spans:
            # lengths below n_max - level can still split; the rest are final
            base, fin, end = bounds[0], bounds[n_max - level], bounds[-1]
            new += [sig2new.setdefault((lab, *sorted(set(cur[f:f + n]))),
                                       len(sig2new))
                    for lab, f in zip(cur[base:fin], range(base + 1, end, n))]
            new += dense_labels(sig2new, cur[fin:end])
        # refinement only ever splits classes, so an unchanged count means
        # an identical partition
        if len(sig2new) == nclasses:
            return levels, level
        nclasses = len(sig2new)
        cur = new
