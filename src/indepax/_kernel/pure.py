"""Pure-Python kernel: the hot inner loops of evaluation and refinement.

A compiled sentence is a DAG of nodes, each built once as a closure that
evaluates it (Feeley & Lapalme 1987, "Using closures for code
generation"): the compiler calls one constructor per node, so the choice of
node kind is paid when the program is built, not per node per structure.
The node runners are plain loops; ``model.compile_sentence`` wraps those of
the nodes it memoizes in ``memoize`` (the rule is stated there).
"""

from array import array
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Optional

BACKEND = "pure"


@dataclass
class Program:
    """Sentence DAG compiled to one closure per node.

    ops       the runners this compilation built, children first; the rest
              of the DAG reuses runners that other programs built
    run       the root's runner
    nslots    env slots the program reads or binds: one past the deepest
              slot that any runner it reaches touches, built here or reused

    A runner is called as ``run(env, ctx)``.  ``env`` is a list of slot
    values, free slots first; a quantifier node binds its slot and leaves
    it at the last value tried, so the compiler wraps a runner in
    ``restore`` where it runs below a live slot that it binds.  ``ctx`` is
    ``(size, masks, memo)``, made fresh per evaluation: relation ``r``
    holds the tuples set in ``masks[r]`` and ``memo`` holds the results of
    the runners that ``model.compile_sentence`` wraps in ``memoize``.
    Runners hold no mutable state of their own, so threads and programs
    may share them.  A runner's result is truthy iff the node holds.
    """

    ops: list[Callable] = field(default_factory=list)
    run: Optional[Callable] = None
    nslots: int = 0


# Node constructors, one per node kind, each returning the node's runner.
# ``rel`` is a relation index and ``slot``/``slots``/``a``/``b`` are env
# slots.

def atom(rel: int, slots: tuple[int, ...]) -> Callable:
    # bit index of tuple (a0, .., ak) is ((a0*n + a1)*n + a2)... (fold left)
    if len(slots) == 1:
        (a,) = slots

        def run(env, ctx):
            return ctx[1][rel] >> env[a] & 1
    elif len(slots) == 2:
        a, b = slots

        def run(env, ctx):
            return ctx[1][rel] >> (env[a] * ctx[0] + env[b]) & 1
    else:
        def run(env, ctx):
            size = ctx[0]
            idx = 0
            for s in slots:
                idx = idx * size + env[s]
            return ctx[1][rel] >> idx & 1
    return run


def eq(a: int, b: int) -> Callable:
    def run(env, ctx):
        return env[a] == env[b]
    return run


def not_(child: Callable) -> Callable:
    def run(env, ctx):
        return not child(env, ctx)
    return run


# Children are looped over in plain ``for`` loops, not all()/any() over a
# generator: either would add stack frames per nesting level, and the
# deepest chains the parser accepts would then overflow.

def and_(children: tuple[Callable, ...]) -> Callable:
    def run(env, ctx):
        for c in children:
            if not c(env, ctx):
                return False
        return True
    return run


def or_(children: tuple[Callable, ...]) -> Callable:
    def run(env, ctx):
        for c in children:
            if c(env, ctx):
                return True
        return False
    return run


def exists(child: Callable, slot: int) -> Callable:
    def run(env, ctx):
        for v in range(ctx[0]):
            env[slot] = v
            if child(env, ctx):
                return True
        return False
    return run


def forall(child: Callable, slot: int) -> Callable:
    def run(env, ctx):
        for v in range(ctx[0]):
            env[slot] = v
            if not child(env, ctx):
                return False
        return True
    return run


def memoize(child: Callable, memo: tuple[int, tuple[int, ...]]) -> Callable:
    """``child``, with its results kept in the evaluation's memo ``ctx[2]``.
    ``memo`` is the node's number, unique in the process, and the sorted env
    slots its subtree reads; the key is (number, values of those slots), or
    the bare number for a closed node."""
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


def restore(child: Callable, low: int, high: int) -> Callable:
    """``child``, with env slots ``low..high-1`` saved before it runs and
    put back after: for a runner reused below live slots that it binds."""
    def run(env, ctx):
        saved = env[low:high]
        res = child(env, ctx)
        env[low:high] = saved
        return res
    return run


def eval_program(prog: Program, size: int, masks: tuple[int, ...],
                 env0: tuple[int, ...]) -> bool:
    """Evaluate a compiled sentence over a structure of ``size`` elements
    whose relation ``r`` holds the tuples set in ``masks[r]``.

    ``env0`` fills the free slots; quantifier nodes extend the environment.
    """
    env = [*env0, *[0] * (prog.nslots - len(env0))]
    return bool(prog.run(env, (size, masks, {})))


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
    """
    # per structure: its first item, its first item at the cap, its end
    spans, base = [], 0
    for n in sizes:
        cap = base + sum(n ** k for k in range(n_max))
        spans.append((n, base, cap, cap + n ** n_max))
        base = cap + n ** n_max
    # the level being refined stays a list: an array boxes an int per read
    cur = list(init_labels)
    levels = []
    nclasses = len(set(cur))
    while True:
        levels.append(array("i", cur))
        sig2new: dict[tuple, int] = {}
        new: list[int] = []
        for n, base, cap, end in spans:
            new += [sig2new.setdefault((lab, *sorted(set(cur[f:f + n]))),
                                       len(sig2new))
                    for lab, f in zip(cur[base:cap], range(base + 1, end, n))]
            new += [sig2new.setdefault((lab,), len(sig2new))
                    for lab in cur[cap:end]]
        # refinement only ever splits classes, so an unchanged count means
        # an identical partition
        if len(sig2new) == nclasses:
            return levels, len(levels) - 1
        nclasses = len(sig2new)
        cur = new
