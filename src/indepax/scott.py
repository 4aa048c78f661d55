"""Back-and-forth type computation, Scott heights, and Hintikka type
formulas (Scott sentences, and sentences isolating a class within a space)
for finite structures, plus a canonical isomorphism invariant: the digest
of a structure's least key, the one ``model.enumerate_models`` generates.

A type formula reads each literal of its atomic conjunctions straight from
``Structure.masks``, and is bounded only by the literal caps
``MAX_LITERAL_ATOMS`` and ``MAX_REACHED_ATOMS``.  The size cap
(``DEFAULT_MATERIALIZE_CAP``, ``--cap-materialize`` on the command line)
belongs to ``scott_sentence`` alone.

Levels are finite: a finite structure's tuple partition stabilizes after
finitely many refinement rounds, so ordinals are plain naturals here.
Tuples run over lengths 0..n_max with n_max the largest structure size; a
tuple listing every element already pins the structure, and repeated
coordinates are covered because equality patterns are part of level 0.
"""

from __future__ import annotations

import hashlib
import itertools
from array import array
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Optional

from . import _kernel
from .errors import (EnumerationOverflowError, MaterializationRefusedError,
                     PreconditionError, SignatureMismatchError)
from .model import (And, Atom, Eq, Exists, Forall, ModelSpace, Not, Or,
                    Sentence, Signature, Structure, canonical_key,
                    long_repr)


# Items are (structure, tuple) pairs, kept only as one array('i') of labels
# per level (about 18 bytes per item).  Refinement peaks at about 95 bytes
# of heap per item on large spaces (R/2 at max-size 4: 1,050,908 items,
# 127 MB peak RSS; 1,999,965 items of size-4 P/1 + R/2 classes: 227 MB),
# so the cap keeps a partition under about 230 MB.
MAX_PARTITION_ITEMS = 2_000_000
# Building the fact table behind one tuple length's atomic types peaks at
# about 16 bytes of heap per entry (R/16 at size 2, pairs: 1,310,720
# entries, 20.5 MB), so the cap keeps one under about 32 MB.
MAX_FACT_TABLE_ENTRIES = 2_000_000


@dataclass(frozen=True)
class TypeId:
    """Equivalence class of (structure, tuple) pairs at one level.

    Class indices are dense per level; equal TypeId means same class within
    one partition run.
    """

    level: int
    class_index: int


@dataclass(eq=False)
class TypePartition:
    """Per-level classes of (structure index, tuple) items from one joint
    refinement run.  ``levels[k]`` holds the class of every item at level
    k as an ``array('i')`` and refines ``levels[k-1]``; every level at or
    beyond ``stabilization_level`` equals the stabilized partition.

    Items are laid out per structure from ``starts[si]`` on, by length
    0..n_max, each length block in ``itertools.product`` order: the heap
    order of a size-n structure's n-ary tuple tree, so the extensions of
    local item i are items n*i+1 .. n*i+n.  ``block(si, length)`` gives
    where one length block starts and ends.  No item is stored: ``items``
    derives them from this layout, for ``len()`` and iteration."""

    structures: tuple[Structure, ...]
    n_max: int
    starts: tuple[int, ...]
    levels: tuple[array, ...]
    stabilization_level: int

    @property
    def items(self) -> "PartitionItems":
        return PartitionItems(self)

    def block(self, struct_idx: int, length: int) -> tuple[int, int]:
        """Start and end of the item indices of the length-``length``
        tuples of structure ``struct_idx``."""
        n = self.structures[struct_idx].size
        start = self.starts[struct_idx] + sum(n ** j for j in range(length))
        return start, start + n ** length

    def _item_index(self, struct_idx: int, tup: tuple[int, ...]) -> int:
        """Index of a tracked tuple of structure ``struct_idx``; unchecked."""
        n = self.structures[struct_idx].size
        i = 0
        for v in tup:
            i = i * n + 1 + v
        return self.starts[struct_idx] + i

    def class_at(self, level: int, struct_idx: int, tup: Sequence[int]) -> int:
        tup = tuple(tup)
        if not (0 <= struct_idx < len(self.structures)
                and len(tup) <= self.n_max
                and all(0 <= v < self.structures[struct_idx].size
                        for v in tup)):
            raise PreconditionError(
                f"tuple {tup} not tracked (length cap {self.n_max})")
        labels = self.levels[min(level, self.stabilization_level)]
        return labels[self._item_index(struct_idx, tup)]

    def classes_at(self, level: int) -> int:
        return max(self.levels[min(level, self.stabilization_level)]) + 1


class PartitionItems:
    """The (structure index, tuple) items of a ``TypePartition`` in layout
    order, derived on demand from its structures and ``n_max``."""

    __slots__ = ("_part",)

    def __init__(self, part: TypePartition):
        self._part = part

    def __len__(self) -> int:
        return len(self._part.levels[0])

    def __iter__(self):
        part = self._part
        for si, M in enumerate(part.structures):
            for length in range(part.n_max + 1):
                yield from zip(itertools.repeat(si),
                               itertools.product(range(M.size), repeat=length))


@lru_cache(maxsize=64)
def _eq_patterns(size: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Equality pattern of each k-tuple over ``size`` elements, in product
    order: position i holds the first position with the same value."""
    return tuple(tuple(tup.index(v) for v in tup)
                 for tup in itertools.product(range(size), repeat=k))


@lru_cache(maxsize=64)
def _fact_getters(size: int, k: int, arity: int) -> tuple[itemgetter, ...]:
    """Per k-tuple over ``size`` elements, in product order, a getter of the
    fold-left bit indices (as in ``Structure.masks``) of the tuple's values
    at every position combination of length ``arity``, combinations in
    product order.  Needs k >= 1."""
    combos = list(itertools.product(range(k), repeat=arity))
    out = []
    for tup in itertools.product(range(size), repeat=k):
        bits = []
        for combo in combos:
            idx = 0
            for i in combo:
                idx = idx * size + tup[i]
            bits.append(idx)
        out.append(itemgetter(*bits))
    return tuple(out)


def _atomic_codes(M: Structure, k: int) -> tuple[tuple, ...]:
    """Atomic type of every k-tuple of M, in ``itertools.product`` order:
    ``(k, equality pattern, facts)`` with one int per relation whose bits,
    first combination highest, say which position combinations hold.
    Comparable across structures that share a signature."""
    pats = _eq_patterns(M.size, k)
    if k == 0 or not M.masks:
        facts = (0,) * len(M.masks)
        return tuple((k, pat, facts) for pat in pats)
    columns = []
    for (_name, arity), mask in zip(M.signature.relations, M.masks):
        # bit idx of the mask is character idx of this string
        bits = format(mask, f"0{M.size ** arity}b")[::-1]
        columns.append([int("".join(get(bits)), 2)
                        for get in _fact_getters(M.size, k, arity)])
    return tuple((k, pat, facts) for pat, facts in zip(pats, zip(*columns)))


def joint_type_partition(structures: Sequence[Structure]) -> TypePartition:
    """Simultaneous refinement of all tuples of all given structures.

    Level 0 groups by atomic type; level a+1 groups two tuples iff they were
    grouped at level a and their one-element extensions realize the same set
    of level-a classes (extension stops at the length cap).  Halts at the
    first level equal to its predecessor.

    Raises EnumerationOverflowError, before allocating anything, when the
    partition would have more than ``MAX_PARTITION_ITEMS`` items, or the
    table of relation facts behind one tuple length's atomic types more
    than ``MAX_FACT_TABLE_ENTRIES`` entries.
    """
    structures = tuple(structures)
    if not structures:
        raise PreconditionError("need at least one structure")
    sig = structures[0].signature
    for s in structures[1:]:
        if s.signature != sig:
            raise SignatureMismatchError("structures over different signatures")
    n_max = max(s.size for s in structures)
    count = 0
    for M, length in itertools.product(structures, range(n_max + 1)):
        if M.size ** length > MAX_PARTITION_ITEMS:
            # stop: the whole count can be too large to sum or to print
            raise EnumerationOverflowError(
                f"joint type partition exceeds cap {MAX_PARTITION_ITEMS} "
                f"items: size {M.size} has more tuples of length {length}")
        count += M.size ** length
    if count > MAX_PARTITION_ITEMS:
        raise EnumerationOverflowError(
            f"joint type partition of {count} items exceeds cap "
            f"{MAX_PARTITION_ITEMS}")
    # the atomic types of k-tuples over ``size`` elements read a relation
    # of arity a through ``_fact_getters(size, k, a)``: k**a position
    # combinations of a positions each, and size**k getters of one bit
    # index per combination.  The item cap bounds k, and ``Structure.make``
    # bounds a at sizes over 1.
    for size in sorted({M.size for M in structures}):
        for k, (name, arity) in itertools.product(range(1, n_max + 1),
                                                  sig.relations):
            entries = (size ** k + arity) * k ** arity
            if entries > MAX_FACT_TABLE_ENTRIES:
                raise EnumerationOverflowError(
                    f"atomic types of the {k}-tuples of size {size} exceed "
                    f"cap {MAX_FACT_TABLE_ENTRIES}: reading relation {name} "
                    f"takes a table of {entries} entries")

    starts = []
    init: list[int] = []
    code_label: dict[tuple, int] = {}
    for M in structures:
        starts.append(len(init))
        for length in range(n_max + 1):
            init.extend(code_label.setdefault(code, len(code_label))
                        for code in _atomic_codes(M, length))

    levels, stable = _kernel.active.refine_levels(
        [M.size for M in structures], n_max, init)
    return TypePartition(structures, n_max, tuple(starts), tuple(levels),
                         stable)


@lru_cache(maxsize=512)
def _pair_partition(M: Structure, N: Structure) -> TypePartition:
    return joint_type_partition((M, N))


def types_equal(M: Structure, a: Sequence[int], N: Structure,
                b: Sequence[int], alpha: int) -> bool:
    """Whether (M, a) and (N, b) share a class at level alpha (clamped to
    the stabilization level) of the joint partition of M and N."""
    a, b = tuple(a), tuple(b)
    if len(a) != len(b):
        raise PreconditionError(f"tuple lengths differ: {len(a)} vs {len(b)}")
    for tup, S in ((a, M), (b, N)):
        if tup and (min(tup) < 0 or max(tup) >= S.size):
            raise PreconditionError(f"tuple {tup} out of range")
    part = _pair_partition(M, N)
    labels = part.levels[min(alpha, part.stabilization_level)]
    if len(a) > part.n_max:
        # tuples past the length cap never split beyond their atomic type:
        # the equality pattern plus the atomic type of the tuple of distinct
        # values, which is within the cap and classed at level 0
        if tuple(map(a.index, a)) != tuple(map(b.index, b)):
            return False
        a, b = tuple(dict.fromkeys(a)), tuple(dict.fromkeys(b))
        labels = part.levels[0]
    return labels[part._item_index(0, a)] == labels[part._item_index(1, b)]


def scott_height(M: Structure) -> int:
    """Least level at which the self-partition of M's tuples stabilizes."""
    return joint_type_partition((M,)).stabilization_level


# ---------------------------------------------------------------------------
# Canonical invariant
# ---------------------------------------------------------------------------

def canonical_invariant(M: Structure) -> str:
    """Opaque token equal across structures iff they are isomorphic: the
    digest of M's size and least key (``model.canonical_key``)."""
    text = f"{M.size}|{long_repr(canonical_key(M))}"
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Scott sentences
# ---------------------------------------------------------------------------

DEFAULT_MATERIALIZE_CAP = 4
# Building a Hintikka formula takes about 1.4 KB of heap per atom of the
# literals of its longest (k-)tuples (R/16 at size 1: 65,537 atoms, 93 MB),
# which MAX_LITERAL_ATOMS keeps under about 140 MB.  It also holds one
# atomic conjunction per distinct type of the up to n**(k - len(tup)) such
# tuples it reaches, at about 9 bytes per atom each (scott_sentence at size
# 4: R/5, 3,125 atoms times 1,024 tuples, 49 MB peak RSS; R/6, 15,625 times
# 1,024, 166 MB), which MAX_REACHED_ATOMS keeps under about 90 MB.  Within
# both, R/8 + S/7 + Q/7 at size 3 (98,304 atoms times 81) peaks at 194 MB.
MAX_LITERAL_ATOMS = 100_000
MAX_REACHED_ATOMS = 10_000_000


@lru_cache(maxsize=64)
def _literals(signature: Signature, k: int) -> tuple[tuple, tuple]:
    """The literals of atomic types of k-tuples, each with its negation:
    ``(i, j, x_i = x_j, not)`` for i < j, then per relation the pairs
    ``(atom, not atom)`` of its position combinations, in product order."""
    eqs = [(i, j, Eq(f"x{i}", f"x{j}"), Not(Eq(f"x{i}", f"x{j}")))
           for i, j in itertools.combinations(range(k), 2)]
    atoms = [tuple((at, Not(at)) for at in (
                 Atom(name, tuple(f"x{i}" for i in combo)) for combo
                 in itertools.product(range(k), repeat=arity)))
             for name, arity in signature.relations]
    return tuple(eqs), tuple(atoms)


def _atomic(M: Structure, tup: tuple[int, ...]) -> Sentence:
    """The conjunction of the literals of ``_literals`` that hold at ``tup``
    in M: each atom is decided by its cell's bit of ``M.masks``."""
    eqs, atoms = _literals(M.signature, len(tup))
    conj = [pos if tup[i] == tup[j] else neg for i, j, pos, neg in eqs]
    for (_name, arity), mask, lits in zip(M.signature.relations, M.masks,
                                          atoms):
        cells = [0]  # bit indices of the position combinations, in order
        for _ in range(arity):
            cells = [c * M.size + v for c in cells for v in tup]
        conj += [p if mask >> c & 1 else q for c, (p, q) in zip(cells, lits)]
    return And(conj)


def type_formula(M: Structure, tup: Sequence[int], alpha: int,
                 length: Optional[int] = None) -> Sentence:
    """The rank-alpha Hintikka formula of a tuple in M, with free variables
    x0..x(len-1), whose extensions stop at tuples of ``length`` elements
    (default: one past M's size).  A structure B satisfies it at s iff
    (B, s) shares the tuple's level-alpha class in a joint partition whose
    length cap is ``length``: by induction on alpha, as the formula states
    the atomic type and the level-(alpha-1) classes of the one-element
    extensions, both ways.  Its literals are read from ``M.masks``.

    Raises MaterializationRefusedError, before building anything, when the
    literals of the longest tuples the formula reaches take more than
    ``MAX_LITERAL_ATOMS`` atoms, or those atoms times the number of those
    tuples exceed ``MAX_REACHED_ATOMS``.  M's size is not capped here; see
    ``scott_sentence``."""
    tup = tuple(tup)
    if any(not (0 <= v < M.size) for v in tup):
        raise PreconditionError(f"tuple {tup} out of range")
    if length is None:
        length = M.size + 1
    # a relation of arity a has k**a atoms over k-tuples, and past 64 the
    # arity cannot bring that under the cap unless k is 1; so too the
    # exponent of the n**(k - len(tup)) reached tuples, unless n is 1
    k = max(len(tup), min(len(tup) + alpha, length))
    atoms = sum(k ** min(arity, 64) for _name, arity in M.signature.relations)
    if atoms > MAX_LITERAL_ATOMS:
        raise MaterializationRefusedError(
            f"the literals of {k}-tuples take {atoms} atoms, over cap "
            f"{MAX_LITERAL_ATOMS}")
    reached = M.size ** min(k - len(tup), 64)
    if atoms * reached > MAX_REACHED_ATOMS:
        raise MaterializationRefusedError(
            f"the literals of {reached} reached {k}-tuples take {atoms} "
            f"atoms each, over cap {MAX_REACHED_ATOMS} in all")
    return _formula(M, tup, alpha, length)


@lru_cache(maxsize=4096)
def _formula(M: Structure, tup: tuple[int, ...], a: int,
             length: int) -> Sentence:
    """What ``type_formula`` returns.  The atomic conjunct comes first, so
    that a conjunction of these formulas fails fast on a wrong tuple."""
    atomic = _atomic(M, tup)
    if a == 0 or len(tup) >= length:
        return atomic
    x = f"x{len(tup)}"
    kids = [_formula(M, tup + (c,), a - 1, length) for c in range(M.size)]
    return And([atomic, *(Exists(x, f) for f in kids), Forall(x, Or(kids))])


def scott_sentence(M: Structure, cap: int = DEFAULT_MATERIALIZE_CAP) -> Sentence:
    """Materialize the sentence characterizing M up to isomorphism among
    finite structures: the rank-(n+1) Hintikka formula of the empty tuple,
    n = M.size.  From the root, rank n+1 never reaches the length cap n+1.
    A structure satisfying it is (n+1)-round Ehrenfeucht-Fraisse equivalent
    to M, so it has no n+1 distinct elements (pigeonhole), and the answers
    to n rounds that pick every element of M map M onto it.

    Raises MaterializationRefusedError when M is larger than ``cap``, and
    as ``type_formula`` does.
    """
    if M.size > cap:
        raise MaterializationRefusedError(
            f"size {M.size} exceeds materialization cap {cap}; "
            "the canonical invariant is still available")
    return type_formula(M, (), M.size + 1)


# ---------------------------------------------------------------------------
# Type sets of a sentence over a space
# ---------------------------------------------------------------------------

def space_partition(space: ModelSpace) -> TypePartition:
    """Joint partition over all representatives of the space (cached)."""
    part = space._extra.get("partition")
    if part is None:
        part = joint_type_partition(space.representatives)
        space._extra["partition"] = part
    return part


def alpha_types_of(sentence: Sentence, alpha: int,
                   space: ModelSpace) -> tuple[set[TypeId], set[TypeId]]:
    """(all level-alpha classes realized by tuples in models of the
    sentence, the subset realized by empty tuples), within the space."""
    if alpha < 0:
        raise PreconditionError("alpha must be >= 0")
    part = space_partition(space)
    sat = space.satset(sentence)
    labels = part.levels[min(alpha, part.stabilization_level)]
    psi: set[int] = set()
    phi: set[int] = set()
    for si in range(len(part.structures)):
        if (sat >> si) & 1:
            # the empty tuple's block comes first, the cap length's last
            start = part.starts[si]
            psi.update(labels[start:part.block(si, part.n_max)[1]])
            phi.add(labels[start])
    return ({TypeId(alpha, lab) for lab in psi},
            {TypeId(alpha, lab) for lab in phi})


def _isolation_levels(part: TypePartition) -> list[int]:
    """Per structure of the partition, the least level at which its empty
    tuple's class holds no other structure's empty tuple.  Raises
    PreconditionError when two empty tuples share the stabilized class:
    those structures are isomorphic."""
    found: list[Optional[int]] = [None] * len(part.structures)
    for level in range(part.stabilization_level + 1):
        roots = [part.levels[level][start] for start in part.starts]
        counts = Counter(roots)
        for si, lab in enumerate(roots):
            if found[si] is None and counts[lab] == 1:
                found[si] = level
    if None in found:
        raise PreconditionError(
            "space representatives are not pairwise non-isomorphic")
    return found


def space_scott_sentence(space: ModelSpace, rep_index: int) -> Sentence:
    """The isolating sentence of a class of the space, cached per space: the
    Hintikka formula of its representative's empty tuple at the class's
    isolation level, with the partition's length cap.  It holds at exactly
    the representatives whose empty tuple shares that level's class (see
    ``type_formula``), which is this class alone, so its satisfaction
    bitset is seeded as ``1 << rep_index``, not evaluated.  The first call
    for a space computes every class's isolation level, and so certifies
    that no two representatives are isomorphic, or raises
    PreconditionError."""
    found = space._extra.get("isolating")
    if found is None:
        found = space._extra["isolating"] = (
            _isolation_levels(space_partition(space)), {})
    levels, cache = found
    s = cache.get(rep_index)
    if s is None:
        s = type_formula(space.representatives[rep_index], (),
                         levels[rep_index],
                         length=space_partition(space).n_max)
        cache[rep_index] = s
        space._satsets[id(s)] = 1 << rep_index
    return s
