"""Back-and-forth type computation, Scott heights, Scott sentences, and
canonical isomorphism invariants for finite structures.

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
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Optional

from . import _kernel
from .errors import (EnumerationOverflowError, MaterializationRefusedError,
                     PreconditionError, SignatureMismatchError)
from .model import (And, Atom, Eq, ModelSpace, Not, Or, Sentence,
                    Signature, Structure, exists_block, forall_block)


# Items are (structure, tuple) pairs, kept only as one array('i') of labels
# per level (about 21 bytes per item).  Refinement peaks at about 120 bytes
# of heap per item (R/2 at max-size 4: 1,050,908 items, 153 MB peak RSS),
# so the cap keeps a partition under about 300 MB.
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

    Items are laid out per structure, by length 0..n_max, each length block
    in ``itertools.product`` order; ``block(si, length)`` gives where that
    block of structure si starts and ends.  No item is stored: ``items``
    derives them from this layout, for ``len()`` and iteration."""

    structures: tuple[Structure, ...]
    n_max: int
    offsets: tuple[tuple[int, ...], ...]
    levels: tuple[array, ...]
    stabilization_level: int

    @property
    def items(self) -> "PartitionItems":
        return PartitionItems(self)

    def block(self, struct_idx: int, length: int) -> tuple[int, int]:
        """Start and end of the item indices of the length-``length``
        tuples of structure ``struct_idx``."""
        start = self.offsets[struct_idx][length]
        return start, start + self.structures[struct_idx].size ** length

    def _item_index(self, struct_idx: int, tup: tuple[int, ...]) -> int:
        """Index of a tracked tuple of structure ``struct_idx``; unchecked."""
        size = self.structures[struct_idx].size
        rank = 0
        for v in tup:
            rank = rank * size + v
        return self.block(struct_idx, len(tup))[0] + rank

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
    order, derived on demand from its structures and offsets."""

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


@lru_cache(maxsize=16)
def _atomic_codes(M: Structure, k: int) -> tuple[tuple, ...]:
    """Atomic type of every k-tuple of M, in ``itertools.product`` order:
    ``(k, equality pattern, facts)`` with one int per relation whose bits,
    first combination highest, say which position combinations hold.
    Comparable across structures that share a signature.

    Cached for the few most recent calls, enough for every length of one
    structure, so ``canonical_invariant(M)`` and the self-partition behind
    ``scott_height(M)`` compute each length's codes once; a joint partition
    over many structures passes through without keeping their codes."""
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

    offsets = []
    init: list[int] = []
    first: list[int] = []
    width: list[int] = []
    code_label: dict[tuple, int] = {}
    for si, M in enumerate(structures):
        n = M.size
        starts = []
        for length in range(n_max + 1):
            start = len(init)
            starts.append(start)
            block = n ** length
            init.extend(code_label.setdefault(code, len(code_label))
                        for code in _atomic_codes(M, length))
            # the extensions tup + (c,) of the item of rank r are the n
            # items from rank r * n on in the next length block
            if length < n_max:
                first.extend(range(start + block, start + block * (n + 1), n))
                width.extend(itertools.repeat(n, block))
            else:
                # a repeated 0 is one shared int object: most items are at
                # the cap, and distinct offsets there cost 0.3 MB of RSS
                first.extend(itertools.repeat(0, block))
                width.extend(itertools.repeat(0, block))
        offsets.append(tuple(starts))

    levels, stable = _kernel.active.refine_levels(first, width, init)
    return TypePartition(structures, n_max, tuple(offsets), tuple(levels),
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


@lru_cache(maxsize=2048)
def scott_height(M: Structure) -> int:
    """Least level at which the self-partition of M's tuples stabilizes."""
    return joint_type_partition((M,)).stabilization_level


# ---------------------------------------------------------------------------
# Canonical invariant
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8192)
def canonical_invariant(M: Structure) -> str:
    """Opaque token equal across structures iff they are isomorphic.

    The stabilized tuple partition is the greatest fixpoint of one-element
    refinement; on the length-layered tuple system that fixpoint is unique,
    so one bottom-up pass assigns each stable class a canonical digest.  The
    token is the digest of the empty tuple's class plus the size.
    """
    n = M.size
    digests: dict[str, str] = {}
    names: list[str] = []  # digests of the tuples of one length, by rank
    for length in range(n, -1, -1):
        below, names = names, []
        for r, code in enumerate(_atomic_codes(M, length)):
            payload = repr(code)
            if length < n:
                # the extensions of the tuple of rank r, in product order
                kids = sorted(set(below[r * n:(r + 1) * n]))
                payload += "|" + ",".join(kids)
            name = digests.get(payload)
            if name is None:
                name = hashlib.sha256(payload.encode()).hexdigest()
                digests[payload] = name
            names.append(name)
    token = f"{n}|{names[0]}"
    return hashlib.sha256(token.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Scott sentences
# ---------------------------------------------------------------------------

DEFAULT_MATERIALIZE_CAP = 4
# Building a Scott sentence peaks at about 1.6 KB of heap per atom of its
# longest tuples' literals (R/16 at size 1: 65,537 atoms, 105 MB), so the
# cap keeps one under about 160 MB.
MAX_LITERAL_ATOMS = 100_000


class _Materializer:
    """The type formulas of one structure, hash-consed, with free variables
    x0..x(k-1) for a k-tuple.  ``rows[alpha, k]`` lists the level-alpha
    formulas of all k-tuples in product order, built when first reached, so
    the extensions of the k-tuple of rank r by ell elements are the slice
    r*n**ell .. (r+1)*n**ell of length k+ell; rows past length n are level 0."""

    def __init__(self, M: Structure):
        self.M = M
        self.rows: dict[tuple[int, int], list[Sentence]] = {}

    def row(self, alpha: int, k: int) -> list[Sentence]:
        M, n = self.M, self.M.size
        key = (alpha if k <= n else 0, k)
        if key not in self.rows:
            if key[0]:
                self.rows[key] = [self.node(alpha, k, r) for r in range(n ** k)]
            else:
                # past the partition's cap on index tables (wide
                # relations), the (n+1)-tuples are read one by one
                codes = _atomic_codes(M, k) if k <= n or all(
                    (n ** k + a) * k ** a <= MAX_FACT_TABLE_ENTRIES
                    for _name, a in M.signature.relations) else map(
                        _tuple_code, itertools.repeat(M),
                        itertools.product(range(n), repeat=k))
                self.rows[key] = [_atomic(M.signature, c) for c in codes]
        return self.rows[key]

    def node(self, alpha: int, k: int, r: int) -> Sentence:
        """The level-alpha formula (alpha >= 1) of the k-tuple (k <= n) of
        rank r: the previous level, then the extension blocks."""
        n = self.M.size
        exists, forall = [], []
        for ell in range(1, n + 2 - k):
            yvars = [f"x{i}" for i in range(k, k + ell)]
            block = self.row(alpha - 1, k + ell)[r * n ** ell:(r + 1) * n ** ell]
            if k + ell <= n:
                exists += [exists_block(yvars, f) for f in dict.fromkeys(block)]
            forall.append(forall_block(yvars, Or(block)))
        return And([self.row(alpha - 1, k)[r], *exists, *forall])


def _tuple_code(M: Structure, tup: tuple[int, ...]) -> tuple:
    """The atomic type of one tuple of M, as ``_atomic_codes`` gives it."""
    facts = []
    for (_name, arity), mask in zip(M.signature.relations, M.masks):
        cells = [0]  # bit indices of the position combinations, in order
        for _ in range(arity):
            cells = [c * M.size + v for c in cells for v in tup]
        facts.append(int("0" + "".join([str(mask >> c & 1) for c in cells]), 2))
    return len(tup), tuple(map(tup.index, tup)), tuple(facts)


@lru_cache(maxsize=64)
def _literals(signature: Signature, k: int) -> tuple[tuple, tuple]:
    """The literals of atomic types of k-tuples, each with its negation:
    ``(i, j, x_i = x_j, not)`` for i < j, then ``(atom, not atom)`` per
    relation and position combination, in product order."""
    eqs = [(i, j, Eq(f"x{i}", f"x{j}"), Not(Eq(f"x{i}", f"x{j}")))
           for i, j in itertools.combinations(range(k), 2)]
    atoms = [(at, Not(at)) for name, arity in signature.relations
             for at in (Atom(name, tuple(f"x{i}" for i in combo)) for combo
                        in itertools.product(range(k), repeat=arity))]
    return tuple(eqs), tuple(atoms)


@lru_cache(maxsize=4096)
def _atomic(signature: Signature, code: tuple) -> Sentence:
    """The conjunction of the literals that an atomic code says hold; its
    fact bits, first combination highest, run in the order of the atoms."""
    k, pat, facts = code
    eqs, atoms = _literals(signature, k)
    conj = [pos if pat[i] == pat[j] else neg for i, j, pos, neg in eqs]
    bits = "".join([format(f | 1 << k ** arity, "b")[1:]
                    for f, (_name, arity) in zip(facts, signature.relations)])
    return And(conj + [p if b == "1" else q for b, (p, q) in zip(bits, atoms)])


_materializer = lru_cache(maxsize=128)(_Materializer)


def type_formula(M: Structure, tup: Sequence[int], alpha: int,
                 cap: int = DEFAULT_MATERIALIZE_CAP) -> Sentence:
    """The formula of the level-alpha type of a tuple in M, with free
    variables x0..x(len-1).  The empty tuple at a high enough level is the
    Scott sentence.

    Raises MaterializationRefusedError, before building anything, when M
    is larger than ``cap`` or the literals of the longest tuples the
    formula reaches take more than ``MAX_LITERAL_ATOMS`` atoms."""
    if M.size > cap:
        raise MaterializationRefusedError(
            f"size {M.size} exceeds materialization cap {cap}; "
            "the canonical invariant is still available")
    tup = tuple(tup)
    if any(not (0 <= v < M.size) for v in tup):
        raise PreconditionError(f"tuple {tup} out of range")
    # levels above 0 extend tuples up to one past the structure size; a
    # relation of arity a has k**a atoms over k-tuples, and past 64 the
    # arity cannot bring that under the cap unless k is 1
    k = max(len(tup), M.size + 1) if alpha else len(tup)
    atoms = sum(k ** min(arity, 64) for _name, arity in M.signature.relations)
    if atoms > MAX_LITERAL_ATOMS:
        raise MaterializationRefusedError(
            f"the literals of {k}-tuples take {atoms} atoms, over cap "
            f"{MAX_LITERAL_ATOMS}")
    return _formula(M, tup, alpha)


@lru_cache(maxsize=4096)
def _formula(M: Structure, tup: tuple[int, ...], alpha: int) -> Sentence:
    """What ``type_formula`` returns; kept, as no row holds the node."""
    if alpha == 0 or len(tup) > M.size:
        return _atomic(M.signature, _tuple_code(M, tup))
    rank = sum(v * M.size ** i for i, v in enumerate(reversed(tup)))
    return _materializer(M).node(alpha, len(tup), rank)


def scott_sentence(M: Structure, cap: int = DEFAULT_MATERIALIZE_CAP) -> Sentence:
    """Materialize the sentence characterizing M up to isomorphism among
    finite structures: the empty tuple's type at level scott_height(M)+2.

    Level 0 is the atomic conjunction; a successor level conjoins the
    previous level, existential extension blocks (total tuple length up to
    n_max), and one universal block per extension length with the longest
    block one past n_max, which pins the structure size by pigeonhole.
    """
    return type_formula(M, (), scott_height(M) + 2, cap)


@dataclass(frozen=True)
class ScottReport:
    """Height, canonical invariant, and (if materialized) Scott sentence."""

    structure: Structure
    height: int
    sentence: Optional[Sentence]
    invariant: str


def scott_report(M: Structure, cap: int = DEFAULT_MATERIALIZE_CAP) -> ScottReport:
    sentence = None
    if M.size <= cap:
        sentence = scott_sentence(M, cap)
    return ScottReport(M, scott_height(M), sentence, canonical_invariant(M))


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
            start = part.block(si, 0)[0]
            psi.update(labels[start:part.block(si, part.n_max)[1]])
            phi.add(labels[start])
    return ({TypeId(alpha, lab) for lab in psi},
            {TypeId(alpha, lab) for lab in phi})


def space_scott_sentence(space: ModelSpace, rep_index: int) -> Sentence:
    """Scott sentence of a representative, cached per space.

    A Scott sentence holds exactly in the structures isomorphic to its
    own, so its satisfaction bitset is seeded as ``1 << rep_index``, not
    evaluated; the formula is still built for reports.  The first call for
    a space certifies that no two representatives are isomorphic (their
    empty tuples lie in distinct stabilized classes) or raises
    PreconditionError."""
    cache = space._extra.get("scott_sentences")
    if cache is None:
        part = space_partition(space)
        roots = {part.class_at(part.stabilization_level, i, ())
                 for i in range(len(space.representatives))}
        if len(roots) != len(space.representatives):
            raise PreconditionError(
                "space representatives are not pairwise non-isomorphic")
        cache = space._extra["scott_sentences"] = {}
    s = cache.get(rep_index)
    if s is None:
        rep = space.representatives[rep_index]
        s = scott_sentence(rep, cap=max(DEFAULT_MATERIALIZE_CAP, space.max_size))
        cache[rep_index] = s
        space._satsets[id(s)] = 1 << rep_index
    return s
