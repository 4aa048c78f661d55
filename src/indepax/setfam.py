"""Finite set families as bitsets, with the two constructions turning a
family into an equivalent independent one.

Conventions: the intersection over an empty index set is the whole
universe, and index order is significant (the cumulative construction is
order-sensitive).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from .errors import NotApplicableError, ParseError, PreconditionError, \
    VerificationInternalError
from .model import ModelSpace, Theory, json_int


#: largest universe a ``SetFamily`` may have: a set takes one bit per
#: element, so a mask stays under 2 MiB
MAX_UNIVERSE = 1 << 24


def _check_universe(universe_size: int) -> None:
    if universe_size < 1:
        raise ParseError("universe size must be >= 1")
    if universe_size > MAX_UNIVERSE:
        raise PreconditionError(f"universe of {universe_size} elements "
                                f"exceeds cap {MAX_UNIVERSE}")


@dataclass(frozen=True)
class SetFamily:
    """Indexed subsets of 0..universe_size-1, stored as bit masks."""

    universe_size: int
    sets: tuple[int, ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        _check_universe(self.universe_size)
        if any(s >> self.universe_size for s in self.sets):
            raise ParseError("set element out of universe range")
        if not self.labels:
            object.__setattr__(self, "labels",
                               tuple(f"set[{i}]" for i in range(len(self.sets))))
        if len(self.labels) != len(self.sets):
            raise ParseError("labels must match sets")

    @property
    def full(self) -> int:
        return (1 << self.universe_size) - 1

    def __len__(self):
        return len(self.sets)

    @staticmethod
    def from_lists(universe_size: int, sets: Iterable[Iterable[int]],
                   labels: Optional[Iterable[str]] = None) -> "SetFamily":
        _check_universe(universe_size)  # before any mask is built
        masks = []
        for elems in sets:
            m = 0
            for e in elems:
                e = int(e)
                if not (0 <= e < universe_size):
                    raise ParseError(f"element {e} outside universe "
                                     f"0..{universe_size - 1}")
                m |= 1 << e
            masks.append(m)
        return SetFamily(universe_size, tuple(masks),
                         tuple(labels) if labels else ())

    def to_lists(self) -> list[list[int]]:
        """The elements of each set, ascending: the positions of the ones
        in the set's binary string, lowest bit first, found at C speed."""
        return [[m.start() for m in re.finditer("1", format(s, "b")[::-1])]
                for s in self.sets]

    def intersection(self) -> int:
        m = self.full
        for s in self.sets:
            m &= s
        return m


def _first_element(mask: int) -> Optional[int]:
    if not mask:
        return None
    return (mask & -mask).bit_length() - 1


def intersections_of_others(sets: Sequence[int], full: int) -> list[int]:
    """For each index, the intersection of all the other sets (``full`` when
    there are none), from prefix and suffix intersections in linear time."""
    n = len(sets)
    suffix = [full] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] & sets[i]
    out = []
    prefix = full
    for i in range(n):
        out.append(prefix & suffix[i + 1])
        prefix &= sets[i]
    return out


@dataclass
class FamilyCheckReport:
    independent: bool
    intersection_witness: Optional[int]
    removal_witnesses: tuple[Optional[int], ...]
    failure: Optional[str] = None


def family_is_independent(F: SetFamily) -> tuple[bool, FamilyCheckReport]:
    """Nonempty total intersection, and for each index an element common to
    all the other sets but missing from this one; witnesses returned."""
    inter = F.intersection()
    inter_witness = _first_element(inter)
    if inter_witness is None:
        return False, FamilyCheckReport(False, None, (),
                                        failure="empty intersection")
    removal: list[Optional[int]] = []
    for i, rest in enumerate(intersections_of_others(F.sets, F.full)):
        w = _first_element(rest & ~F.sets[i] & F.full)
        removal.append(w)
        if w is None:
            return False, FamilyCheckReport(
                False, inter_witness, tuple(removal),
                failure=f"removal condition fails at index {i}")
    return True, FamilyCheckReport(True, inter_witness, tuple(removal))


def families_equivalent(F: SetFamily, G: SetFamily) -> bool:
    if F.universe_size != G.universe_size:
        raise PreconditionError("families over different universes")
    return F.intersection() == G.intersection()


@dataclass
class FamilyTransformReport:
    input: SetFamily
    output: SetFamily
    method: str                        # "case1" | "case2"
    dropped: tuple[int, ...] = ()
    blocks: tuple[int, ...] = ()
    equivalence_checked: bool = False
    check: Optional[FamilyCheckReport] = None


def _verified(report: FamilyTransformReport) -> FamilyTransformReport:
    if not families_equivalent(report.input, report.output):
        raise VerificationInternalError(f"{report.method}: intersection changed")
    ok, check = family_is_independent(report.output)
    if not ok:
        raise VerificationInternalError(
            f"{report.method}: output not independent ({check.failure})")
    report.equivalence_checked = True
    report.check = check
    return report


def case1_transform(F: SetFamily, i0: int) -> FamilyTransformReport:
    """Partition the complement of one set into |F|-1 nonempty blocks (the
    first |F|-2 are singletons in element order, the last takes the
    remainder) and rebuild the other sets around the blocks.  Every block
    element witnesses independence for its index."""
    if not (0 <= i0 < len(F)):
        raise PreconditionError(f"index {i0} out of range")
    if not F.intersection():
        raise PreconditionError("family intersection is empty")
    comp = F.full & ~F.sets[i0]
    others = [j for j in range(len(F)) if j != i0]
    if not others:
        raise NotApplicableError(
            "single-set family: complement cannot be partitioned into "
            "zero nonempty blocks")
    if comp == 0:
        raise NotApplicableError(f"complement of set {i0} is empty")
    elements = [e for e in range(F.universe_size) if (comp >> e) & 1]
    if len(elements) < len(others):
        raise NotApplicableError(
            f"complement has {len(elements)} elements, need at least "
            f"{len(others)}")
    blocks = [1 << e for e in elements[:len(others) - 1]]
    rem = comp
    for b in blocks:
        rem &= ~b
    blocks.append(rem)
    out_sets = []
    for block, j in zip(blocks, others):
        out_sets.append(F.full & ~block & (comp | F.sets[j]))
    output = SetFamily(F.universe_size, tuple(out_sets),
                       tuple(f"case1[{j}]" for j in others))
    return _verified(FamilyTransformReport(F, output, "case1",
                                           blocks=tuple(blocks)))


def case2_transform(F: SetFamily) -> FamilyTransformReport:
    """Grow each set by the union of the earlier complements, dropping any
    result equal to the whole universe.  Retained sets contain their
    originals; any point outside a retained set witnesses its index."""
    if not F.intersection():
        raise PreconditionError("family intersection is empty")
    acc = 0
    out_sets = []
    out_labels = []
    dropped = []
    for j, s in enumerate(F.sets):
        grown = s | acc
        if grown == F.full:
            dropped.append(j)
        else:
            out_sets.append(grown)
            out_labels.append(f"case2[{j}]")
        acc |= F.full & ~s
    output = SetFamily(F.universe_size, tuple(out_sets), tuple(out_labels))
    return _verified(FamilyTransformReport(F, output, "case2",
                                           dropped=tuple(dropped)))


def independize_family(F: SetFamily) -> FamilyTransformReport:
    """Equivalent independent family via the cumulative construction, which
    is always applicable when the intersection is nonempty."""
    return case2_transform(F)


def theory_to_family(T: Union[Theory, Sequence], space: ModelSpace) -> SetFamily:
    """Bridge to theories: universe = representative indices, set i = the
    models of sentence i."""
    sentences = list(T)
    return SetFamily(len(space.representatives),
                     tuple(space.satset(s) for s in sentences),
                     tuple(f"sentence[{i}]" for i in range(len(sentences))))


def family_to_json(F: SetFamily) -> dict:
    return {"universe": F.universe_size, "sets": F.to_lists(),
            "labels": list(F.labels)}


def family_from_json(data: dict) -> SetFamily:
    try:
        universe = json_int(data["universe"])
        sets = data["sets"]
        if not isinstance(sets, list) or not all(isinstance(s, list)
                                                 for s in sets):
            raise ParseError("family sets must be a list of element lists")
        labels = data.get("labels")
        if labels is not None and not (
                isinstance(labels, list)
                and all(isinstance(label, str) for label in labels)):
            raise TypeError("labels must be a list of strings")
        # raises TypeError or ValueError on bad elements
        return SetFamily.from_lists(universe, [map(json_int, s) for s in sets],
                                    labels)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad family JSON: {exc}") from None
