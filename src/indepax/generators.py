"""Seeded random instance generators shared by the fuzz command and the
acceptance suite.  Everything is driven by an explicit random.Random so a
fixed seed reproduces runs byte for byte.
"""

from __future__ import annotations

import random
from typing import Optional

from .model import (And, Atom, Eq, Exists, Forall, ModelSpace, Not, Or,
                    Sentence, Signature, Theory)
from .scott import (TypeId, space_partition, space_scott_sentence,
                    type_formula)
from .setfam import SetFamily

FUZZ_SIGNATURE = Signature((("P", 1), ("R", 2)))

# draws before a generator gives up
THEORY_ATTEMPTS = 200
PARTITION_ATTEMPTS = 300
TYPE_ATTEMPTS = 50
# random_family: universes of 1..16 elements, 0..8 sets
FAMILY_MAX_UNIVERSE = 16
FAMILY_MAX_SETS = 8


def random_formula(rng: random.Random, depth: int, scope: tuple[str, ...] = ()
                   ) -> Sentence:
    """Random formula of quantifier/connective depth <= depth over the fuzz
    signature; closed when scope is empty."""
    if not scope or (depth > 0 and rng.random() < 0.45):
        if depth == 0 and not scope:
            return Exists("v0", Atom("P", ("v0",)))
        v = f"v{len(scope)}"
        body = random_formula(rng, depth - 1, scope + (v,))
        return Exists(v, body) if rng.random() < 0.5 else Forall(v, body)
    if depth == 0:
        return _leaf(rng, scope)
    k = rng.randrange(5)
    if k == 0:
        return Not(random_formula(rng, depth - 1, scope))
    if k == 1:
        return And([random_formula(rng, depth - 1, scope) for _ in range(2)])
    if k == 2:
        return Or([random_formula(rng, depth - 1, scope) for _ in range(2)])
    return _leaf(rng, scope)


def _leaf(rng: random.Random, scope: tuple[str, ...]) -> Sentence:
    k = rng.randrange(4)
    if k == 0:
        return Atom("P", (rng.choice(scope),))
    if k == 1 or len(scope) == 1:
        return Atom("R", (rng.choice(scope), rng.choice(scope)))
    if k == 2:
        return Eq(rng.choice(scope), rng.choice(scope))
    return Not(Atom("P", (rng.choice(scope),)))


def random_theory(rng: random.Random, space: ModelSpace,
                  max_sentences: int = 5, depth: int = 4) -> Theory:
    """Random theory over the fuzz signature, resampled until it has a model
    in the space."""
    for _ in range(THEORY_ATTEMPTS):
        n = rng.randint(1, max_sentences)
        T = Theory.of([random_formula(rng, depth) for _ in range(n)])
        if space.theory_mask(T):
            return T
    raise RuntimeError("could not generate a consistent theory")


def random_family(rng: random.Random) -> SetFamily:
    """Random family with a nonempty intersection (a common element is
    forced into every set)."""
    universe = rng.randint(1, FAMILY_MAX_UNIVERSE)
    k = rng.randint(0, FAMILY_MAX_SETS)
    common = rng.randrange(universe)
    full = (1 << universe) - 1
    sets = []
    for _ in range(k):
        mask = rng.getrandbits(universe) & full
        sets.append(mask | (1 << common))
    return SetFamily(universe, tuple(sets))


def random_partition_instance(rng: random.Random, space: ModelSpace
                              ) -> Optional[tuple[Theory, int, list[Sentence]]]:
    """(theory, pivot index, parts) such that the parts partition the
    negation of the pivot over the space: counter-model classes of the
    pivot are split into blocks and each part is the disjunction of the
    block's isolating sentences (``scott.space_scott_sentence``)."""
    for _ in range(PARTITION_ATTEMPTS):
        n = rng.randint(2, 4)
        T = random_theory(rng, space, max_sentences=n, depth=3)
        if len(T) < 2:
            continue
        pivot = rng.randrange(len(T))
        counter = space.full_mask & ~space.satset(T.sentences[pivot])
        classes = [i for i in range(len(space.representatives))
                   if (counter >> i) & 1]
        if len(classes) < len(T) - 1:
            continue
        rng.shuffle(classes)
        nblocks = len(T) - 1
        blocks = [classes[i::nblocks] for i in range(nblocks)]
        parts = [Or([space_scott_sentence(space, i) for i in sorted(block)])
                 for block in blocks]
        return T, pivot, parts
    return None


def random_pair_instance(rng: random.Random, space: ModelSpace
                         ) -> tuple[Theory, Theory]:
    """Disjoint (C, D) sentence lists for the pairing transform; whether
    the applicability hypothesis holds is up to the caller to test."""
    nc = rng.randint(2, 4)
    nd = rng.randint(0, min(2, nc))
    seen: set[int] = set()
    sentences = []
    while len(sentences) < nc + nd:
        s = random_formula(rng, 3)
        if id(s) not in seen:
            seen.add(id(s))
            sentences.append(s)
    return Theory.of(sentences[:nc]), Theory.of(sentences[nc:])


def _element_classes(space: ModelSpace
                     ) -> tuple[dict[int, tuple[int, int]], dict[int, int]]:
    """Per stabilized class of one-element tuples in ``space_partition``:
    its first realizing (representative, element), and the bitset of the
    representatives that realize it.  Cached per space, next to the
    partition."""
    found = space._extra.get("element_classes")
    if found is None:
        part = space_partition(space)
        labels = part.levels[part.stabilization_level]
        realizers: dict[int, tuple[int, int]] = {}
        rep_sets: dict[int, int] = {}
        for si in range(len(part.structures)):
            start, end = part.block(si, 1)
            for e, lab in enumerate(labels[start:end]):
                realizers.setdefault(lab, (si, e))
                rep_sets[lab] = rep_sets.get(lab, 0) | (1 << si)
        found = space._extra["element_classes"] = (realizers, rep_sets)
    return found


def random_type_instance(rng: random.Random, space: ModelSpace,
                         count: int
                         ) -> Optional[list[tuple[TypeId, list[Sentence]]]]:
    """2..6 stabilized one-element types realized in pairwise disjoint sets
    of space models, as negation-completed formula sets (each type carries
    its own type formula plus the negations of the others').  Each type
    formula has the partition's length cap, so over the space it holds at
    exactly the elements of the class it names."""
    part = space_partition(space)
    level = part.stabilization_level
    realizers, rep_sets = _element_classes(space)
    labels = sorted(realizers)
    for _ in range(TYPE_ATTEMPTS):
        rng.shuffle(labels)
        chosen: list[int] = []
        used_reps = 0
        for lab in labels:
            if len(chosen) == count:
                break
            if rep_sets[lab] & used_reps:
                continue
            chosen.append(lab)
            used_reps |= rep_sets[lab]
        if len(chosen) < count:
            continue
        chosen.sort()
        base = {}
        for lab in chosen:
            si, e = realizers[lab]
            base[lab] = type_formula(space.representatives[si], (e,), level,
                                     length=part.n_max)
        out = []
        for lab in chosen:
            formulas = [base[lab]] + [Not(base[other]) for other in chosen
                                      if other != lab]
            out.append((TypeId(level, lab), formulas))
        return out
    return None
