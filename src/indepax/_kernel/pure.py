"""Pure-Python kernel: the hot inner loops of evaluation and refinement."""

from .program import (OP_AND, OP_ATOM, OP_EQ, OP_EXISTS, OP_FORALL, OP_NOT,
                      OP_OR, Program)

BACKEND = "pure"


def eval_program(prog: Program, size: int, masks: tuple[int, ...],
                 env0: tuple[int, ...]) -> bool:
    """Evaluate a compiled sentence over a structure of ``size`` elements
    whose relation ``r`` holds the tuples set in ``masks[r]``.

    Bit index of tuple (a0, .., ak) is ((a0*n + a1)*n + a2)... (fold left).
    ``env0`` fills the free slots; quantifier nodes extend the environment.
    AND/OR/quantifier results are memoised on the slots their subtree reads.
    """
    ops = prog.ops
    arg1 = prog.arg1
    arg2 = prog.arg2
    cstart = prog.cstart
    cend = prog.cend
    children = prog.children
    used = prog.used
    env = [0] * max(prog.nslots, len(env0))
    env[:len(env0)] = env0
    getenv = env.__getitem__
    memo: dict[tuple, bool] = {}

    def rec(i: int) -> bool:
        op = ops[i]
        if op == OP_ATOM:
            idx = 0
            for k in range(cstart[i], cend[i]):
                idx = idx * size + env[children[k]]
            return bool((masks[arg1[i]] >> idx) & 1)
        if op == OP_EQ:
            return env[arg1[i]] == env[arg2[i]]
        if op == OP_NOT:
            return not rec(arg1[i])
        key = (i, *map(getenv, used[i]))
        hit = memo.get(key)
        if hit is not None:
            return hit
        # plain loops, not all()/any() over a generator: the generator adds
        # stack frames per nesting level, and the deepest chains the parser
        # accepts would then overflow
        if op == OP_AND:
            res = True
            for k in range(cstart[i], cend[i]):
                if not rec(children[k]):
                    res = False
                    break
        elif op == OP_OR:
            res = False
            for k in range(cstart[i], cend[i]):
                if rec(children[k]):
                    res = True
                    break
        elif op == OP_EXISTS:
            slot, child = arg2[i], arg1[i]
            res = False
            for v in range(size):
                env[slot] = v
                if rec(child):
                    res = True
                    break
        elif op == OP_FORALL:
            slot, child = arg2[i], arg1[i]
            res = True
            for v in range(size):
                env[slot] = v
                if not rec(child):
                    res = False
                    break
        else:
            raise AssertionError(f"bad opcode {op}")
        memo[key] = res
        return res

    return rec(prog.root)


def refine_levels(first: list[int], width: list[int], init_labels: list[int]):
    """Iterate one-step signature refinement until the partition repeats.

    The one-element extensions of item i are the ``width[i]`` consecutive
    items from index ``first[i]`` on (width 0 for items at the tuple-length
    cap).  An item's signature is its label with the set of its extensions'
    labels.  Labels are dense, assigned in first-occurrence order, so the
    result is deterministic.  Returns (levels, stable) with levels[k] the
    labels at level k and ``stable`` the first level whose refinement is
    itself.
    """
    levels = [list(init_labels)]
    nclasses = len(set(init_labels))
    while True:
        cur = levels[-1]
        sig2new: dict[tuple, int] = {}
        new = [sig2new.setdefault((lab, frozenset(cur[f:f + w])), len(sig2new))
               for lab, f, w in zip(cur, first, width)]
        # refinement only ever splits classes, so an unchanged count means
        # an identical partition
        if len(sig2new) == nclasses:
            return levels, len(levels) - 1
        nclasses = len(sig2new)
        levels.append(new)
