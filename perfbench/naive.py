"""Reference evaluator for the benchmark's output checks.

Plain Tarskian recursion over the ``Sentence`` AST, memoized on (node,
values of the node's free variables).  It shares no code with the library's
compiler (``model.compile_sentence``) or its evaluation kernel
(``indepax._kernel``), so agreement with them is evidence, not tautology.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from indepax.model import (And, Atom, Eq, Exists, Forall, Not, Or, Sentence,
                           Structure)


class NaiveEvaluator:
    """Truth of formulas in one structure.  The memo is shared by every
    formula evaluated here, so shared subformulas are decided once."""

    def __init__(self, M: Structure):
        self.M = M
        self.tables = {name: table for (name, _arity), table
                       in zip(M.signature.relations, M.tables)}
        self._memo: dict[tuple, bool] = {}
        self._free: dict[int, tuple[str, ...]] = {}

    def holds(self, formula: Sentence,
              env: Optional[Mapping[str, int]] = None) -> bool:
        return self._holds(formula, dict(env or {}))

    def _holds(self, node: Sentence, env: dict[str, int]) -> bool:
        kind = type(node)
        if kind is Atom:
            return tuple(env[v] for v in node.args) in self.tables[node.rel]
        if kind is Eq:
            return env[node.left] == env[node.right]
        free = self._free.get(id(node))
        if free is None:
            free = self._free[id(node)] = tuple(sorted(node.free))
        key = (id(node),) + tuple(env[v] for v in free)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        if kind is Not:
            res = not self._holds(node.child, env)
        elif kind is And:
            res = all(self._holds(c, env) for c in node.children)
        elif kind is Or:
            res = any(self._holds(c, env) for c in node.children)
        elif kind is Exists or kind is Forall:
            inner = dict(env)
            want = kind is Exists
            res = not want
            for value in range(self.M.size):
                inner[node.var] = value
                if self._holds(node.child, inner) == want:
                    res = want
                    break
        else:
            raise TypeError(f"not a formula node: {node!r}")
        self._memo[key] = res
        return res


class NaiveSpace:
    """Reference satisfaction bitsets over a fixed list of representatives,
    indexed like ``ModelSpace.representatives``."""

    def __init__(self, representatives: Sequence[Structure]):
        self.evaluators = [NaiveEvaluator(M) for M in representatives]

    def satset(self, sentence: Sentence) -> int:
        mask = 0
        for i, ev in enumerate(self.evaluators):
            if ev.holds(sentence):
                mask |= 1 << i
        return mask
