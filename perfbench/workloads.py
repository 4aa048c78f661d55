"""The benchmark's workloads: seeded inputs, one request at a time through
the library's public API, and output checks against references that are not
the code under test.

Each workload is a class.  Constructing it is the set-up (enumerate the
space, generate inputs); ``request(i)`` is the timed call; ``summarize``
turns a request's result into the JSON that the output digest covers;
``check`` compares the results with the naive evaluator or other
independent facts, outside the timed section.

Spaces.  Every space is over the fuzz signature P/1 + R/2.  The full
max-size-3 space has 792 classes; on the pure kernel one pass of the
``indepax fuzz`` loop over it takes about a minute, and a criterion-8
request up to 3 s, so the workloads that evaluate sentences run on smaller
spaces to fit many seeded requests into one run (see ``BENCHMARK.json``):
a fixed stride of the 792 classes keeps the size mix of the full space.
"""

from __future__ import annotations

import random
from typing import Optional

from indepax import generators, model, scott, setfam, transforms, verify

from naive import NaiveEvaluator, NaiveSpace

SIG = generators.FUZZ_SIGNATURE


def strided_space(stride: int) -> model.ModelSpace:
    """Every ``stride``-th class of the 792-class max-size-3 space, in
    enumeration order (which sorts by size, so all sizes stay present)."""
    full = model.enumerate_models(SIG, 3)
    return model.ModelSpace(full.signature, full.max_size,
                            full.representatives[::stride])


def _index(space: model.ModelSpace, M: Optional[model.Structure]) -> Optional[int]:
    return None if M is None else space.rep_index[id(M)]


def _bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if (mask >> i) & 1]


class Workload:
    """Constructed from a seed string (the set-up); see the module doc."""

    name = ""
    #: layers that must record calls on this workload in the traced run
    layers: tuple[str, ...] = ()
    #: layers that must record none
    absent: tuple[str, ...] = ()
    #: requests per pass
    count = 0
    #: input parts per run (each seeded from the run's seed); ``run.py``
    #: repeats every part in each round and takes each request's median
    parts = 1

    def request(self, i: int):
        raise NotImplementedError

    def summarize(self, i: int, raw) -> dict:
        raise NotImplementedError

    def check(self, raws: list, seed: str) -> list[str]:
        raise NotImplementedError


class Entail(Workload):
    """Fresh random depth-4 theories (1-5 sentences, cycling so every run
    has the same mix) and one query each: bounded entailment, models and
    independence.  Compiles and evaluates many small sentences and does
    bitset algebra; builds no Scott sentence and no partition."""

    name = "entail"
    stride = 4
    count = 200
    parts = 2
    layers = ("model.enumerate_models", "model.compile_sentence", "model.eval",
              "model.ModelSpace.satset", "kernel.eval_program",
              "verify.check_independence")

    def __init__(self, seed: str):
        self.space = strided_space(self.stride)
        rng = random.Random(seed)
        self.inputs = []
        for i in range(self.count):
            T = model.Theory.of([generators.random_formula(rng, 4)
                                 for _ in range(1 + i % 5)])
            self.inputs.append((T, generators.random_formula(rng, 4)))

    def request(self, i):
        T, q = self.inputs[i]
        space = self.space
        pre = model.preprocess(T, space)
        entailed, witness = model.entails(T, q, space)
        models = model.models_of(T, space)
        ind = verify.check_independence(T, space)
        return pre, entailed, witness, models, ind

    def summarize(self, i, raw):
        pre, entailed, witness, models, ind = raw
        space = self.space
        return {"pre": [model.to_sexpr(s) for s in pre.sentences],
                "entailed": entailed, "witness": _index(space, witness),
                "models": [_index(space, M) for M in models],
                "independent": ind.verdict,
                "witnesses": [_index(space, c["witness"])
                              for c in ind.certificates]}

    def check(self, raws, seed):
        space = self.space
        ref = NaiveSpace(space.representatives)
        full = space.full_mask
        bad = []
        for i, raw in enumerate(raws):
            if raw is None:
                continue
            pre, entailed, witness, models, ind = raw
            T, q = self.inputs[i]
            sats = [ref.satset(s) for s in T.sentences]
            mask = full
            for m in sats:
                mask &= m
            if mask == 0:
                want_pre = [model.CONTRADICTION]
            else:
                want_pre = [s for s, m in zip(T.sentences, sats) if m != full]
            counter = mask & ~ref.satset(q)
            want_witness = None if not counter else (counter & -counter).bit_length() - 1
            want_models = _bits(mask)
            want_ind = []
            for k in range(len(sats)):
                rest = full
                for j, m in enumerate(sats):
                    if j != k:
                        rest &= m
                w = rest & ~sats[k]
                if not w:
                    break
                want_ind.append((w & -w).bit_length() - 1)
            independent = len(want_ind) == len(sats)
            got = (list(pre.sentences), entailed, _index(space, witness),
                   [_index(space, M) for M in models], ind.passed,
                   [_index(space, c["witness"]) for c in ind.certificates])
            want = (want_pre, not counter, want_witness, want_models,
                    independent, want_ind)
            if got != want:
                bad.append(f"request {i}: library {got!r} != reference {want!r}")
        return bad


class Types(Workload):
    """Criterion-8 instances: 2-6 stabilized one-element types (cycling),
    a separating tree, the selection sentence phi*, and its models.  The
    only path through open-formula evaluation (``elem_satset``), one-element
    type formulas and the separating-tree search."""

    name = "types"
    count = 100
    parts = 3
    layers = ("model.enumerate_models", "kernel.eval_program", "model.eval",
              "model.ModelSpace.elem_satset", "model.ModelSpace.satset",
              "scott.type_formula", "scott.joint_type_partition",
              "kernel.refine_levels", "transforms.build_separating_tree",
              "transforms.phi_star")

    def __init__(self, seed: str):
        self.space = model.enumerate_models(SIG, 2)
        self.rng = random.Random(seed)

    def request(self, i):
        space = self.space
        types = generators.random_type_instance(self.rng, space, 2 + i % 5)
        if types is None:
            return None, None, None, 0
        tree = transforms.build_separating_tree(types, space)
        star = transforms.phi_star(tree)
        return types, tree, star, space.satset(star)

    def summarize(self, i, raw):
        types, tree, star, sat = raw
        if types is None:
            return {"instance": None}
        return {"types": [tid.class_index for tid, _fs in types],
                "leaves": sorted((u, tid.class_index)
                                 for u, tid in tree.leaves.items()),
                "models": _bits(sat)}

    def check(self, raws, seed):
        space = self.space
        ref = NaiveSpace(space.representatives)
        bad = []
        for i, raw in enumerate(raws):
            if raw is None or raw[0] is None:
                continue
            types, _tree, star, sat = raw
            want = ref.satset(star)
            if want != sat:
                bad.append(f"request {i}: phi* models {sat:#x} != "
                           f"reference {want:#x}")
                continue
            if not want:
                bad.append(f"request {i}: phi* has no model")
            for k in _bits(want):
                ev = ref.evaluators[k]
                W = space.representatives[k]
                realized = sum(
                    1 for _tid, formulas in types
                    if any(all(ev.holds(f, {"x0": e}) for f in formulas)
                           for e in range(W.size)))
                if realized != 1:
                    bad.append(f"request {i}: model {k} realizes "
                               f"{realized} types")
        return bad


class Fuzz(Workload):
    """The ``indepax fuzz`` loop through library calls: a random theory,
    its independent axiomatization and both verify checks, then a random
    set family through ``independize_family``.  The first requests build
    the Scott sentences of the space."""

    name = "fuzz"
    stride = 12
    # 990 requests in all: the tail is p95 with 49 beyond it; from 1,000 on
    # it would be p99 with 10, which a few slow requests move
    count = 330
    parts = 3
    layers = ("model.enumerate_models", "kernel.eval_program",
              "model.compile_sentence", "model.eval",
              "model.ModelSpace.satset", "scott.type_formula",
              "scott.space_scott_sentence", "transforms.independent_axiomatize",
              "transforms.scott_filter_transform", "verify.check_independence",
              "verify.check_theories_equivalent", "setfam.case2_transform",
              "generators.random_theory")
    #: independence witnesses re-checked with the naive evaluator
    sampled_witnesses = 12

    def __init__(self, seed: str):
        self.space = strided_space(self.stride)
        self.rng = random.Random(seed)

    def request(self, i):
        space = self.space
        T = generators.random_theory(self.rng, space)
        rep = transforms.independent_axiomatize(T, space)
        ind = verify.check_independence(rep.output, space)
        eq = verify.check_theories_equivalent(T, rep.output, space)
        F = generators.random_family(self.rng)
        frep = setfam.independize_family(F)
        return T, rep, ind, eq, F, frep

    def summarize(self, i, raw):
        T, rep, ind, eq, F, frep = raw
        space = self.space
        return {"input": model.theory_to_json(T),
                "output_labels": list(rep.output.labels),
                "output_semantics": [space.satset(s) for s in rep.output],
                "stage": rep.notes.get("stage"),
                "independent": ind.verdict, "equivalent": eq.verdict,
                "family": setfam.family_to_json(F),
                "family_output": setfam.family_to_json(frep.output),
                "dropped": list(frep.dropped)}

    def check(self, raws, seed):
        bad = []
        sample = []
        for i, raw in enumerate(raws):
            if raw is None:
                continue
            T, rep, ind, eq, F, frep = raw
            if not (ind.passed and eq.passed):
                bad.append(f"request {i}: verify says independent="
                           f"{ind.verdict} equivalent={eq.verdict}")
            bad += [f"request {i}: family {msg}" for msg in _check_family(F, frep)]
            sample += [(i, k) for k, W in enumerate(rep.independence_witnesses)
                       if W is not None]
        rng = random.Random(seed)
        for i, k in sorted(rng.sample(sample, min(self.sampled_witnesses,
                                                  len(sample)))):
            rep = raws[i][1]
            W = rep.independence_witnesses[k]
            ev = NaiveEvaluator(W)
            for j, s in enumerate(rep.output.sentences):
                if ev.holds(s) != (j != k):
                    bad.append(f"request {i}: witness {k} "
                               f"{'fails' if j != k else 'satisfies'} "
                               f"output sentence {j}")
        return bad


def _check_family(F: setfam.SetFamily, rep) -> list[str]:
    """Independence and equal intersection of a family transform, with
    Python sets instead of the library's bitset code."""
    universe = set(range(F.universe_size))
    before = [set(s) for s in F.to_lists()]
    after = [set(s) for s in rep.output.to_lists()]
    out = []
    if universe.intersection(*before) != universe.intersection(*after):
        out.append("intersection changed")
    if not universe.intersection(*after):
        out.append("output intersection is empty")
    for k, s in enumerate(after):
        others = universe.intersection(*(t for j, t in enumerate(after) if j != k))
        if others <= s:
            out.append(f"output set {k} is implied by the others")
    return out


class ScottSpace(Workload):
    """One joint type partition of the whole 792-class space, then the
    canonical invariant and Scott height of every class in seeded order.
    Partition refinement and invariant hashing, with no sentence
    evaluation at all."""

    name = "scott-space"
    layers = ("model.enumerate_models", "scott.joint_type_partition",
              "kernel.refine_levels", "scott.canonical_invariant",
              "scott.scott_height")
    absent = ("kernel.eval_program",)
    parts = 3
    relabeled = 60

    def __init__(self, seed: str):
        self.space = model.enumerate_models(SIG, 3)
        self.order = list(range(len(self.space.representatives)))
        random.Random(seed).shuffle(self.order)
        self.count = 1 + len(self.order)

    def request(self, i):
        reps = self.space.representatives
        if i == 0:
            return scott.joint_type_partition(reps)
        M = reps[self.order[i - 1]]
        return scott.canonical_invariant(M), scott.scott_height(M)

    def summarize(self, i, raw):
        if i == 0:
            return {"items": len(raw.items), "stable": raw.stabilization_level,
                    "classes": raw.classes_at(raw.stabilization_level)}
        invariant, height = raw
        return {"class": self.order[i - 1], "invariant": invariant,
                "height": height}

    def check(self, raws, seed):
        bad = []
        reps = self.space.representatives
        by_class = {self.order[i - 1]: raw for i, raw in enumerate(raws)
                    if i and raw is not None}
        tokens = [raw[0] for raw in by_class.values()]
        if len(set(tokens)) != len(tokens):
            bad.append("two classes share a canonical invariant")
        rng = random.Random(seed)
        for c in sorted(rng.sample(sorted(by_class), min(self.relabeled,
                                                         len(by_class)))):
            M = reps[c]
            perm = list(range(M.size))
            rng.shuffle(perm)
            N = M.apply_permutation(perm)
            got = (scott.canonical_invariant(N), scott.scott_height(N))
            if got != by_class[c]:
                bad.append(f"class {c}: relabeling {perm} changes "
                           f"(invariant, height)")
        return bad


WORKLOADS = {cls.name: cls for cls in (Fuzz, Entail, Types, ScottSpace)}
