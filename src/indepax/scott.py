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
from struct import Struct
from typing import Optional

from . import _kernel
from .errors import (EnumerationOverflowError, MaterializationRefusedError,
                     PreconditionError, SignatureMismatchError)
from .model import (And, Atom, Eq, Exists, Forall, ModelSpace, Not, Or,
                    Sentence, Signature, Structure, canonical_key,
                    long_repr)


# Items are (structure, tuple) pairs, kept only as one array('i') of labels
# per level (about 20 bytes per item).  Refinement peaks at about 75 bytes
# of heap per item on large spaces (R/2 at max-size 4: 1,050,908 items,
# 104 MB peak RSS; 1,999,965 items of size-4 P/1 + R/2 classes: 184 MB),
# so the cap keeps a partition under about 190 MB.
MAX_PARTITION_ITEMS = 2_000_000
# The table that reads one relation's facts at the k-tuples of one
# structure size (``_fact_reader``) takes about 9 bytes of heap per entry,
# at the peak of building it and kept (R/2 at size 6, 6-tuples: 1,679,688
# entries, 15 MB), so the cap keeps one under about 18 MB.
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
def _eq_codes(size: int, k: int) -> tuple[bytes, ...]:
    """Equality pattern of every k-tuple over ``size`` elements, in product
    order: byte i is the first position with the same value as i."""
    return tuple(bytes(map(tup.index, tup))
                 for tup in itertools.product(range(size), repeat=k))


@lru_cache(maxsize=64)
def _fact_reader(size: int, k: int,
                 arity: int) -> tuple[itemgetter, Struct]:
    """A getter of the characters of a relation's bit string (bit i at
    character i) that hold its facts at every k-tuple over ``size``
    elements, in product order, and the ``Struct`` that cuts them into one
    field per tuple: the bits of the tuple's values at every position
    combination of length ``arity``, combinations in product order.
    Needs k >= 1."""
    chars_of = list(range(size ** arity))  # one int object per character
    cells = itertools.chain.from_iterable(
        _cells_at(tup, size, arity)
        for tup in itertools.product(range(size), repeat=k))
    return (itemgetter(*map(chars_of.__getitem__, cells)),
            Struct(f"{k ** arity}s" * size ** k))


def _cells_at(tup: tuple[int, ...], size: int, arity: int) -> list[int]:
    """The fold-left bit indices (as in ``Structure.masks``) of ``tup``'s
    values at every position combination of length ``arity``, combinations
    in product order, built by squaring: O(log arity) list steps."""
    if arity == 1:
        return list(tup)
    half = _cells_at(tup, size, arity // 2)
    shift = size ** (arity // 2)
    cells = [c * shift + d for c in half for d in half]
    if arity % 2:
        cells = [c * size + v for c in cells for v in tup]
    return cells


def _atomic_codes(M: Structure, n_max: int) -> list[bytes]:
    """The atomic types of M's tuples of length 0..n_max, in the
    partition's layout order, as byte strings: equal, for structures over
    one signature, iff the tuples have the same length, equality pattern
    and relation facts.  A k-tuple's code is its ``_eq_codes`` field, then
    per relation its ``_fact_reader`` field: k + sum(k**a) bytes, so the
    length tells k apart.  Each relation's facts are read for a whole
    length block in one gather from its bit string."""
    bits = [format(mask, f"0{M.size ** a}b")[::-1]
            for (_name, a), mask in zip(M.signature.relations, M.masks)]
    codes = [b""]
    for k in range(1, n_max + 1):
        columns = [_eq_codes(M.size, k)]
        for (_name, a), text in zip(M.signature.relations, bits):
            get, cut = _fact_reader(M.size, k, a)
            columns.append(cut.unpack("".join(get(text)).encode()))
        codes += map(b"".join, zip(*columns))
    return codes


def joint_type_partition(structures: Sequence[Structure], *,
                         _length: Optional[int] = None) -> TypePartition:
    """Simultaneous refinement of all tuples of all given structures.

    Level 0 groups by atomic type; level a+1 groups two tuples iff they were
    grouped at level a and their one-element extensions realize the same set
    of level-a classes (extension stops at the length cap: the largest
    structure size, or ``_length`` when given).  Halts at the first level
    equal to its predecessor.

    Raises EnumerationOverflowError, before allocating anything, when the
    partition would have more than ``MAX_PARTITION_ITEMS`` items, or the
    table that reads one relation's facts at one tuple length over one
    structure size more than ``MAX_FACT_TABLE_ENTRIES`` entries.
    """
    structures = tuple(structures)
    if not structures:
        raise PreconditionError("need at least one structure")
    sig = structures[0].signature
    for s in structures[1:]:
        if s.signature != sig:
            raise SignatureMismatchError("structures over different signatures")
    n_max = max(s.size for s in structures) if _length is None else _length
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
    # of arity a through ``_fact_reader(size, k, a)``: size**k * k**a bit
    # indices, counted with a more per combination, which bounds a where
    # the indices do not (k = 1 at size 1).  The item cap bounds k, and
    # ``Structure.make`` bounds a at sizes over 1.
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
    code_label: dict[bytes, int] = {}
    for M in structures:
        starts.append(len(init))
        init += _kernel.pure.dense_labels(code_label, _atomic_codes(M, n_max))

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
    psi, phi = _alpha_labels(sentence, alpha, space)
    return ({TypeId(alpha, lab) for lab in psi},
            {TypeId(alpha, lab) for lab in phi})


def _alpha_labels(sentence: Sentence, alpha: int,
                  space: ModelSpace) -> tuple[set[int], set[int]]:
    """``alpha_types_of`` as the sets of the classes' labels, which is all
    that a count of them needs."""
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
    return psi, phi


def _isolation_levels(structures: Sequence[Structure]) -> list[int]:
    """Per structure, the least level at which its empty tuple's class in
    the joint partition of all of them holds no other structure's empty
    tuple.  Raises PreconditionError when two empty tuples share the
    stabilized class: those structures are isomorphic.

    A root's level-a class reads only tuples of length <= a (a tuple of
    length l enters it at level a - l), so it is the root's level-a class
    in the partition with length cap a.  A root alone in its class at
    level a stays alone at every later level, which refines it, and a root
    that shares its class shares it only with roots not isolated yet.  So
    the level-a partition is taken only of the structures not isolated
    below a, for a = 0 .. the largest size, whose partition is the full
    one."""
    found: list[Optional[int]] = [None] * len(structures)
    left = list(range(len(structures)))
    n_max = max((M.size for M in structures), default=0)
    for a in range(n_max + 1):
        part = joint_type_partition([structures[i] for i in left],
                                    _length=a)
        labels = part.levels[min(a, part.stabilization_level)]
        roots = [labels[start] for start in part.starts]
        counts = Counter(roots)
        for i, lab in zip(left, roots):
            if counts[lab] == 1:
                found[i] = a
        left = [i for i in left if found[i] is None]
        if not left:
            return found
    raise PreconditionError(
        "space representatives are not pairwise non-isomorphic")


def space_scott_sentence(space: ModelSpace, rep_index: int) -> Sentence:
    """The isolating sentence of a class of the space, cached per space: the
    Hintikka formula of its representative's empty tuple at the class's
    isolation level (``_isolation_levels``), with the length cap n_max, the
    largest representative's size.  It holds at exactly the
    representatives whose empty tuple shares that level's class (see
    ``type_formula``), which is this class alone, so its satisfaction
    bitset is seeded as ``1 << rep_index``, not evaluated.  The first call
    for a space computes every class's isolation level, from partitions of
    tuples no longer than that level and never from ``space_partition``,
    and so certifies that no two representatives are isomorphic, or raises
    PreconditionError."""
    found = space._extra.get("isolating")
    if found is None:
        reps = space.representatives
        found = space._extra["isolating"] = (
            _isolation_levels(reps), max(M.size for M in reps), {})
    levels, n_max, cache = found
    s = cache.get(rep_index)
    if s is None:
        s = type_formula(space.representatives[rep_index], (),
                         levels[rep_index], length=n_max)
        cache[rep_index] = s
        space._satsets[id(s)] = 1 << rep_index
    return s
