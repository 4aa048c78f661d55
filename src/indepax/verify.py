"""Brute-force oracles and bounded-space checks.

The type oracle and the isomorphism oracle share no code with the
implementations they certify: the type oracle is a direct memoized
recursion (no partition refinement, no kernel), and the isomorphism oracle
is plain permutation search (no canonical forms).  The independence and
equivalence checks do share code: they read ``ModelSpace.satset``, the
cache that ``scott.space_scott_sentence`` seeds with ``1 << i`` for the
isolating sentence of class i instead of evaluating it.  Passing verdicts
certify bounded-space claims only; every report carries its bound.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from .errors import PreconditionError
from .model import ModelSpace, Sentence, Structure, Theory

#: highest level the type oracle recurses to
ALPHA_CAP = 6
#: largest structure the type oracle accepts
TYPE_SIZE_CAP = 4
#: largest structure the isomorphism oracle searches
ISO_SIZE_CAP = 8


class TypeOracle:
    """Naive recursion on the type-equality conditions for one structure
    pair: level 0 is atomic agreement, a successor level demands agreement
    one level down plus matching one-element extensions both ways, and
    tuples at the length cap never split past their atomic type.
    Memoized on (tuple, tuple, level)."""

    def __init__(self, M: Structure, N: Structure):
        if M.size > TYPE_SIZE_CAP or N.size > TYPE_SIZE_CAP:
            raise PreconditionError(
                f"structure sizes {M.size},{N.size} exceed oracle cap "
                f"{TYPE_SIZE_CAP}")
        self.M = M
        self.N = N
        self.n_max = max(M.size, N.size)
        self._memo: dict = {}
        self._atom_memo: dict = {}

    def _atomic(self, side: int, tup: tuple[int, ...]) -> tuple:
        key = (side, tup)
        hit = self._atom_memo.get(key)
        if hit is None:
            S = self.M if side == 0 else self.N
            pattern = tuple(tup.index(v) for v in tup)
            facts = []
            for table, (_name, arity) in zip(S.tables, S.signature.relations):
                for combo in itertools.product(range(len(tup)), repeat=arity):
                    facts.append(tuple(tup[i] for i in combo) in table)
            hit = (pattern, tuple(facts))
            self._atom_memo[key] = hit
        return hit

    def equal(self, a: Sequence[int], b: Sequence[int], alpha: int) -> bool:
        a, b = tuple(a), tuple(b)
        if len(a) != len(b):
            raise PreconditionError(f"tuple lengths differ: {len(a)} vs {len(b)}")
        if alpha > ALPHA_CAP:
            raise PreconditionError(
                f"level {alpha} exceeds recursion cap {ALPHA_CAP}")
        return self._eq(a, b, alpha)

    def _eq(self, a, b, alpha) -> bool:
        if self._atomic(0, a) != self._atomic(1, b):
            return False
        if alpha == 0 or len(a) >= self.n_max:
            return True
        key = (a, b, alpha)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        self._memo[key] = True  # cycle guard; recursion is well-founded anyway
        res = self._eq(a, b, alpha - 1)
        if res:
            for c in range(self.M.size):
                if not any(self._eq(a + (c,), b + (d,), alpha - 1)
                           for d in range(self.N.size)):
                    res = False
                    break
        if res:
            for d in range(self.N.size):
                if not any(self._eq(a + (c,), b + (d,), alpha - 1)
                           for c in range(self.M.size)):
                    res = False
                    break
        self._memo[key] = res
        return res


def oracle_types_equal(M: Structure, a: Sequence[int], N: Structure,
                       b: Sequence[int], alpha: int) -> bool:
    """One-shot type-equality query; see TypeOracle for batched use."""
    return TypeOracle(M, N).equal(a, b, alpha)


def oracle_isomorphic(M: Structure, N: Structure
                      ) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Exhaustive permutation search; returns a witness bijection."""
    if M.size > ISO_SIZE_CAP or N.size > ISO_SIZE_CAP:
        raise PreconditionError(
            f"structure sizes {M.size},{N.size} exceed oracle cap "
            f"{ISO_SIZE_CAP}")
    if M.signature != N.signature or M.size != N.size:
        return False, None
    for perm in itertools.permutations(range(M.size)):
        for tab_m, tab_n in zip(M.tables, N.tables):
            if len(tab_m) != len(tab_n):
                break
            if any(tuple(perm[v] for v in tup) not in tab_n for tup in tab_m):
                break
        else:
            return True, perm
    return False, None


# ---------------------------------------------------------------------------
# Theory-level reports
# ---------------------------------------------------------------------------

@dataclass
class VerificationReport:
    """Outcome of one brute-force check; fail verdicts carry a concrete
    counterexample and every verdict is relative to the stated bound."""

    subject: str                       # "theory" | "family" | "transform"
    check: str
    bound: int
    verdict: str                       # "pass" | "fail"
    certificates: list = field(default_factory=list)
    counterexample: Optional[dict] = None

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def check_independence(T: Union[Theory, Sequence[Sentence]],
                       space: ModelSpace) -> VerificationReport:
    """For each index, search the space for a model of the other sentences
    that fails this one; pass iff every index has such a witness."""
    sentences = list(T)
    sats = [space.satset(s) for s in sentences]
    n = len(sentences)
    full = space.full_mask
    prefix = [full] * (n + 1)
    for i, m in enumerate(sats):
        prefix[i + 1] = prefix[i] & m
    suffix = [full] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] & sats[i]
    certs = []
    for i in range(n):
        rest = prefix[i] & suffix[i + 1]
        witness_mask = rest & ~sats[i] & full
        if not witness_mask:
            return VerificationReport(
                "theory", "independence", space.max_size, "fail",
                certificates=certs,
                counterexample={"index": i,
                                "reason": "entailed by the other sentences "
                                          "over the space"})
        certs.append({"index": i, "witness": space.first_member(witness_mask)})
    return VerificationReport("theory", "independence", space.max_size,
                              "pass", certificates=certs)


def check_theories_equivalent(T: Union[Theory, Sequence[Sentence]],
                              U: Union[Theory, Sequence[Sentence]],
                              space: ModelSpace) -> VerificationReport:
    """Pass iff T and U have exactly the same models in the space."""
    mask_t = space.theory_mask(T)
    mask_u = space.theory_mask(U)
    if mask_t == mask_u:
        return VerificationReport("theory", "equivalence", space.max_size,
                                  "pass")
    diff = mask_t ^ mask_u
    idx = (diff & -diff).bit_length() - 1
    witness = space.representatives[idx]
    side = "first" if (mask_t >> idx) & 1 else "second"
    return VerificationReport(
        "theory", "equivalence", space.max_size, "fail",
        counterexample={"witness": witness,
                        "satisfies_only": side})
