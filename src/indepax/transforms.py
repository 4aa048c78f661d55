"""Theory-level constructions producing independent axiomatizations over a
bounded model space, plus the driver combining them.

Every transform re-verifies its own output (equivalence over the space and
per-sentence independence witnesses); a verification failure here is a bug,
not an input error, and raises VerificationInternalError.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import reduce
from typing import Iterable, Optional, Sequence, Union

from .errors import (DuplicateTypeError, MalformedSentenceError,
                     NotApplicableError, PartitionInvalidError,
                     PreconditionError, SeparationFailureError,
                     VerificationInternalError)
from .model import (And, Exists, ModelSpace, Not, Or, Sentence, Structure,
                    Theory, preprocess, to_sexpr)
from .scott import TypeId, space_scott_sentence
from .setfam import intersections_of_others
from .verify import check_independence, check_theories_equivalent


@dataclass
class TransformReport:
    """Input/output pair with the method, bound, and verification evidence.

    Each independence witness W for output sentence s satisfies every other
    output sentence and fails s, all within the bound.
    """

    input: Theory
    output: Theory
    method: str            # partition | reznikoff | complement | scott_filter | driver
    bound: int
    equivalence_checked: bool
    independence_witnesses: tuple[Optional[Structure], ...]
    notes: dict = field(default_factory=dict)


def _verify(report: TransformReport, space: ModelSpace,
            expect_equivalent_to: Union[Theory, Sequence[Sentence], None] = None
            ) -> TransformReport:
    base = report.input if expect_equivalent_to is None else expect_equivalent_to
    eq = check_theories_equivalent(base, report.output, space)
    if not eq.passed:
        raise VerificationInternalError(
            f"{report.method}: output not equivalent to input "
            f"(counterexample {eq.counterexample})")
    ind = check_independence(report.output, space)
    if not ind.passed:
        raise VerificationInternalError(
            f"{report.method}: output not independent "
            f"({ind.counterexample})")
    report.equivalence_checked = True
    return report


# ---------------------------------------------------------------------------
# Sentence partitions
# ---------------------------------------------------------------------------

@dataclass
class PartitionViolation:
    condition: str                     # "shape" | "consistency" | "cover" | "exclusion"
    index: Optional[tuple] = None
    witness: Optional[Structure] = None

    def __str__(self):
        return f"{self.condition} violated at {self.index}"


def check_partition(sentence: Sentence, parts: Sequence[Sentence],
                    space: ModelSpace) -> tuple[bool, Optional[PartitionViolation]]:
    """Do the parts partition the sentence over the space: each part
    consistent, disjunction equivalent to the sentence, parts pairwise
    exclusive.  Reports the first violated condition with a witness."""
    sats = [space.satset(p) for p in parts]
    for i, s in enumerate(sats):
        if not s:
            return False, PartitionViolation("consistency", (i,))
    union = 0
    for s in sats:
        union |= s
    diff = union ^ space.satset(sentence)
    if diff:
        return False, PartitionViolation("cover", None, space.first_member(diff))
    for i in range(len(sats)):
        for j in range(i + 1, len(sats)):
            overlap = sats[i] & sats[j]
            if overlap:
                return False, PartitionViolation(
                    "exclusion", (i, j), space.first_member(overlap))
    return True, None


def partition_transform(T: Theory, pivot_index: int,
                        parts: Sequence[Sentence],
                        space: ModelSpace) -> TransformReport:
    """Fold the pivot sentence into the others through a partition of its
    negation: non-pivot sentence s_k with part p_k becomes
    (not p_k) and ((not pivot) or s_k).

    Each part's model is an independence witness for its output sentence:
    it falls outside the pivot's models and inside no other part.
    """
    n = len(T)
    if n < 2 or pivot_index < 0 or pivot_index >= n:
        raise PartitionInvalidError(PartitionViolation("shape", (pivot_index,)))
    if len(parts) != n - 1:
        raise PartitionInvalidError(PartitionViolation("shape", (len(parts),)))
    pivot = T.sentences[pivot_index]
    ok, violation = check_partition(Not(pivot), parts, space)
    if not ok:
        raise PartitionInvalidError(violation)
    non_pivot = [i for i in range(n) if i != pivot_index]
    out_sentences = []
    witnesses = []
    for k, idx in enumerate(non_pivot):
        out_sentences.append(And([Not(parts[k]),
                                  Or([Not(pivot), T.sentences[idx]])]))
        witnesses.append(space.first_member(space.satset(parts[k])))
    output = Theory.of(out_sentences, [f"partition[{i}]" for i in non_pivot])
    report = TransformReport(T, output, "partition", space.max_size, False,
                             tuple(witnesses),
                             notes={"pivot_index": pivot_index})
    return _verify(report, space)


# ---------------------------------------------------------------------------
# Pairing construction
# ---------------------------------------------------------------------------

def reznikoff_pairing(C: Theory, D: Theory, space: ModelSpace) -> TransformReport:
    """Absorb D into C by conjoining each d_j with c_j (index-order
    injection).  Requires no sentence of C to be entailed by the rest of
    C and D over the space; a failing sentence is reported with its index
    as the not-applicable certificate."""
    c_ids = set(map(id, C.sentences))
    if any(id(d) in c_ids for d in D.sentences):
        raise PreconditionError("C and D must be disjoint sentence lists")
    if len(D) > len(C):
        raise PreconditionError(
            f"|D| = {len(D)} exceeds |C| = {len(C)}")
    everything = list(C.sentences) + list(D.sentences)
    sats = [space.satset(s) for s in everything]
    full = space.full_mask
    others = intersections_of_others(sats, full)
    hypothesis_witnesses = []
    for i in range(len(C)):
        bad = others[i] & ~sats[i] & full
        if not bad:
            raise NotApplicableError(
                f"sentence {i} of C is entailed by the rest over the space",
                certificate={"index": i, "sentence": to_sexpr(C.sentences[i]),
                             "bound": space.max_size})
        hypothesis_witnesses.append(space.first_member(bad))

    k = len(D)
    out_sentences: list[Sentence] = list(C.sentences[k:])
    labels = [f"reznikoff-kept[{j}]" for j in range(k, len(C))]
    witnesses = list(hypothesis_witnesses[k:])
    for j in range(k):
        out_sentences.append(And([D.sentences[j], C.sentences[j]]))
        labels.append(f"reznikoff-pair[{j}]")
        witnesses.append(hypothesis_witnesses[j])
    output = Theory.of(out_sentences, labels)
    combined = list(C.sentences) + list(D.sentences)
    report = TransformReport(Theory.of(combined), output, "reznikoff",
                             space.max_size, False, tuple(witnesses))
    return _verify(report, space)


# ---------------------------------------------------------------------------
# Constructions from isolating sentences
# ---------------------------------------------------------------------------

def _counter_mask(T: Union[Theory, Sequence[Sentence]], space: ModelSpace) -> int:
    mask = space.theory_mask(T)
    if mask == 0:
        raise PreconditionError(
            "theory has no models in the space; preprocess first")
    return space.full_mask & ~mask


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def complement_axiomatization(T: Theory, space: ModelSpace) -> TransformReport:
    """One sentence per counter-model class: the negation of its isolating
    sentence (``scott.space_scott_sentence``).  Each class is its own
    independence witness, since it satisfies every other negated isolating
    sentence and fails its own."""
    counter = _counter_mask(T, space)
    out_sentences = []
    labels = []
    witnesses = []
    for i in _bits(counter):
        out_sentences.append(Not(space_scott_sentence(space, i)))
        labels.append(f"complement[{i}]")
        witnesses.append(space.representatives[i])
    output = Theory.of(out_sentences, labels)
    report = TransformReport(T, output, "complement", space.max_size, False,
                             tuple(witnesses),
                             notes={"counter_classes": list(_bits(counter))})
    return _verify(report, space)


def scott_filter_transform(T: Theory, space: ModelSpace) -> TransformReport:
    """Per input sentence, conjoin the negated isolating sentences of its
    counter-model classes not already used at an earlier index; empty
    conjunctions are dropped."""
    _counter_mask(T, space)  # consistency precondition
    used = 0
    out_sentences = []
    labels = []
    witnesses = []
    assigned: list[list[int]] = []
    dropped: list[int] = []
    for alpha, s in enumerate(T.sentences):
        counter = space.full_mask & ~space.satset(s)
        new = counter & ~used
        if not new:
            dropped.append(alpha)
            continue
        classes = list(_bits(new))
        out_sentences.append(And([Not(space_scott_sentence(space, i))
                                  for i in classes]))
        labels.append(f"scott-filter[{alpha}]")
        witnesses.append(space.representatives[classes[0]])
        assigned.append(classes)
        used |= new
    output = Theory.of(out_sentences, labels)
    report = TransformReport(T, output, "scott_filter", space.max_size, False,
                             tuple(witnesses),
                             notes={"dropped_inputs": dropped,
                                    "classes_per_output": assigned})
    return _verify(report, space)


# ---------------------------------------------------------------------------
# Separating trees and the type-selection sentence
# ---------------------------------------------------------------------------

@dataclass
class SeparatingTree:
    """Binary tree of formula sets: labels grow along branches, sibling
    labels are jointly unsatisfiable on one element over the space, and the
    label of each leaf is exactly its type's formula set."""

    nodes: dict[str, tuple[Sentence, ...]]
    leaves: dict[str, TypeId]
    var: str

    @property
    def depth(self) -> int:
        return max(len(u) for u in self.leaves)


def build_separating_tree(types: Sequence[tuple[TypeId, Iterable[Sentence]]],
                          space: ModelSpace) -> SeparatingTree:
    """Separate the given one-variable types with nested formula sets.

    At each split, some formula held by part of the active types is paired
    with a formula shared by all remaining ones that is jointly
    unsatisfiable with it over the space; if no such pair exists the types
    are not separable in this representation.  Formula sets keep the order
    in which their formulas first occur in the input, and candidates are
    tried in that order: formulas are interned, so that order is as
    deterministic as the input and no formula is serialized.
    """
    entries = [(tid, tuple(dict.fromkeys(fs))) for tid, fs in types]
    if not entries:
        raise PreconditionError("no types given")
    seen_sets = set()
    for _tid, fs in entries:
        key = frozenset(fs)
        if key in seen_sets:
            raise DuplicateTypeError("duplicate types in input")
        seen_sets.add(key)

    free = set().union(*(f.free for _t, fs in entries for f in fs)) or {"x0"}
    if len(free) > 1:
        raise MalformedSentenceError(
            f"type formulas must share one free variable, got {sorted(free)}")
    var = next(iter(free))

    # each distinct formula's element set, read once
    sets = {f: space.elem_satset(f, var)
            for f in dict.fromkeys(f for _t, fs in entries for f in fs)}
    for k, (_tid, fs) in enumerate(entries):
        if not reduce(operator.and_, map(sets.__getitem__, fs),
                      space.elem_full):
            raise SeparationFailureError(f"type {k} is realized in no model "
                                         f"of the space")

    nodes: dict[str, tuple[Sentence, ...]] = {"": ()}
    leaves: dict[str, TypeId] = {}

    def split(u: str, active: list[int], acc: tuple[Sentence, ...]) -> None:
        if len(active) == 1:
            tid, fs = entries[active[0]]
            nodes[u] = fs
            leaves[u] = tid
            return
        pool = dict.fromkeys(f for k in active for f in entries[k][1])
        for f in pool:
            left = [k for k in active if f in entries[k][1]]
            if len(left) == len(active):
                continue
            rest = [k for k in active if k not in left]
            common = [g for g in entries[rest[0]][1]
                      if all(g in entries[k][1] for k in rest[1:])]
            for g in common:
                if not sets[f] & sets[g]:  # jointly unsatisfiable
                    nodes[u + "0"] = acc + (f,)
                    nodes[u + "1"] = acc + (g,)
                    split(u + "0", left, acc + (f,))
                    split(u + "1", rest, acc + (g,))
                    return
        raise SeparationFailureError(
            f"no separating formula pair for types {active} over the space")

    # a lone type still hangs below the root, as leaf "0"
    split("0" if len(entries) == 1 else "", list(range(len(entries))), ())
    return SeparatingTree(nodes, leaves, var)


def phi_star(tree: SeparatingTree) -> Sentence:
    """One element realizes a full branch: existentially quantify the
    conjunction, over all depths, of the disjunction of the level's label
    conjunctions (leaves persist below their depth)."""
    labels = [(len(u), u in tree.leaves, And(tree.nodes[u]))
              for u in sorted(tree.nodes)]
    level_clauses = [Or([c for n_u, leaf, c in labels
                         if n_u == n or (leaf and n_u < n)])
                     for n in range(tree.depth + 1)]
    return Exists(tree.var, And(level_clauses))


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def independent_axiomatize(T: Theory, space: ModelSpace) -> TransformReport:
    """Preprocess, then produce a verified independent equivalent: empty or
    singleton results are independent as-is, otherwise the Scott filter
    applies.  Its output k fails exactly on its own nonempty class set, and
    those sets are disjoint, so no two outputs are equivalent over the
    space; the final verification re-checks that."""
    P = preprocess(T, space)
    if len(P) <= 1:
        witnesses: tuple[Optional[Structure], ...] = ()
        if len(P) == 1:
            bad = space.full_mask & ~space.satset(P.sentences[0])
            witnesses = (space.first_member(bad),)
        report = TransformReport(T, P, "driver", space.max_size, False,
                                 witnesses, notes={"stage": "preprocess"})
    else:
        stage = scott_filter_transform(P, space)
        report = TransformReport(T, stage.output, "driver", space.max_size,
                                 False, stage.independence_witnesses,
                                 notes={"stage": stage.method, **stage.notes})
    return _verify(report, space, expect_equivalent_to=T)
