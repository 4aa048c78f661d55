import gc
import hashlib
import itertools
import os
import random
import resource
import subprocess
import sys
import tracemalloc
from collections import Counter

import pytest

from indepax import generators, model, scott, verify
from indepax.errors import (EnumerationOverflowError,
                            MaterializationRefusedError, PreconditionError,
                            SignatureMismatchError)
from indepax.model import Signature, Structure, parse_sentence


def cycle(sig, n):
    return Structure.make(sig, n, {"R": [(i, (i + 1) % n) for i in range(n)]})


@pytest.fixture(scope="module")
def sig():
    return Signature((("R", 2),))


class TestJointPartition:
    def test_empty_signature_stabilizes_immediately(self):
        M = Structure.make(Signature(()), 3, {})
        part = scott.joint_type_partition([M])
        assert part.stabilization_level == 0
        # tuples grouped by equality pattern only
        assert part.class_at(0, 0, (0, 1)) == part.class_at(0, 0, (1, 2))
        assert part.class_at(0, 0, (0, 0)) != part.class_at(0, 0, (0, 1))

    def test_cycles_split_at_level_two(self, sig):
        part = scott.joint_type_partition([cycle(sig, 3), cycle(sig, 4)])
        assert part.class_at(0, 0, ()) == part.class_at(0, 1, ())
        assert part.class_at(1, 0, ()) == part.class_at(1, 1, ())
        assert part.class_at(2, 0, ()) != part.class_at(2, 1, ())

    def test_same_structure_twice_is_reflexive(self, sig):
        M = cycle(sig, 3)
        part = scott.joint_type_partition([M, M])
        for level in range(part.stabilization_level + 1):
            for length in range(part.n_max + 1):
                for tup in itertools.product(range(3), repeat=length):
                    assert part.class_at(level, 0, tup) == part.class_at(level, 1, tup)

    def test_signature_mismatch(self, sig):
        M = cycle(sig, 3)
        N = Structure.make(Signature((("S", 2),)), 2, {})
        with pytest.raises(SignatureMismatchError):
            scott.joint_type_partition([M, N])

    def test_item_cap_refuses_before_allocating(self, sig):
        # 1 + 4 + 16 + 64 + 256 = 341 items per size-4 structure; 5,866
        # copies are 2,000,306 items, which would take about 300 MB
        M = cycle(sig, 4)
        with pytest.raises(EnumerationOverflowError,
                           match="2000306 items exceeds cap 2000000"):
            scott.joint_type_partition([M] * 5866)

    def test_item_cap_is_inclusive(self, sig, monkeypatch):
        M = cycle(sig, 4)
        monkeypatch.setattr(scott, "MAX_PARTITION_ITEMS", 2 * 341)
        assert len(scott.joint_type_partition([M, M]).items) == 2 * 341
        with pytest.raises(EnumerationOverflowError):
            scott.joint_type_partition([M] * 3)

    def test_fact_table_cap_counts_each_relation_and_is_inclusive(
            self, monkeypatch):
        # at size 3 the largest table reads R at the triples, (27 + 2) * 9 =
        # 261 entries; P's (84) and the equality patterns are not added
        M = Structure.make(Signature((("P", 1), ("R", 2))), 3,
                           {"P": [(0,)], "R": [(0, 1), (1, 2)]})
        monkeypatch.setattr(scott, "MAX_FACT_TABLE_ENTRIES", 261)
        assert scott.joint_type_partition([M]).n_max == 3
        monkeypatch.setattr(scott, "MAX_FACT_TABLE_ENTRIES", 260)
        with pytest.raises(EnumerationOverflowError,
                           match="reading relation R takes a table of 261 "
                                 "entries"):
            scott.joint_type_partition([M])

    def test_levels_of_fuzz_space_are_pinned(self, ub_space):
        # the labels of every level of the 792-class P/1 + R/2 partition,
        # as computed with frozenset signature keys; a change to the keys'
        # meaning or to the label order changes it
        part = scott.joint_type_partition(ub_space.representatives)
        digest = hashlib.sha256(
            repr([list(lv) for lv in part.levels]).encode()).hexdigest()
        assert digest == (
            "f57871b882df739ab384c5e729b4599f1d7bd39a5739da509d8d53c600b1e788")

    def test_heap_per_item_is_bounded(self, ub_space):
        # levels are flat int arrays, no item is stored and extensions are
        # found by heap arithmetic, with no per-item table: about 17 B per
        # item retained and 119 B at the peak of refinement.  gc.collect()
        # at both ends drops the free lists, which tracemalloc counts as
        # allocated.
        reps = ub_space.representatives
        scott.joint_type_partition(reps)  # warm the per-size caches
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            part = scott.joint_type_partition(reps)
            gc.collect()
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n = len(part.items)
        assert n == 30636
        assert (current - base) / n <= 48
        assert (peak - base) / n <= 160

    def test_refinement_and_stabilization_properties(self, sig):
        rng = random.Random(0)
        for _ in range(15):
            sizes = [rng.randint(1, 4) for _ in range(2)]
            structs = [
                Structure.make(sig, n, {"R": [t for t in
                                              itertools.product(range(n), repeat=2)
                                              if rng.random() < 0.4]})
                for n in sizes]
            part = scott.joint_type_partition(structs)
            # each level refines its predecessor
            for lv in range(1, part.stabilization_level + 1):
                groups = {}
                for idx in range(len(part.items)):
                    groups.setdefault(part.levels[lv][idx], set()).add(
                        part.levels[lv - 1][idx])
                assert all(len(g) == 1 for g in groups.values())
            assert part.stabilization_level <= len(part.items)


def reference_atomic_code(M, tup):
    """Atomic type of one tuple by set membership in ``M.tables``."""
    pat = tuple(tup.index(v) for v in tup)
    facts = []
    for (_name, arity), table in zip(M.signature.relations, M.tables):
        bits = 0
        for combo in itertools.product(range(len(tup)), repeat=arity):
            bits = (bits << 1) | (tuple(tup[i] for i in combo) in table)
        facts.append(bits)
    return (len(tup), pat, tuple(facts))


def random_structure(rng, sig, n, p=0.4):
    return Structure.make(sig, n, {
        name: [t for t in itertools.product(range(n), repeat=arity)
               if rng.random() < p]
        for name, arity in sig.relations})


def reference_partition(structures):
    """Joint refinement over explicit per-item extension sets: the item
    list, the labels of each level and the stabilization level."""
    n_max = max(M.size for M in structures)
    items = [(si, tup) for si, M in enumerate(structures)
             for length in range(n_max + 1)
             for tup in itertools.product(range(M.size), repeat=length)]
    index = {it: i for i, it in enumerate(items)}
    ext = [[index[(si, tup + (c,))] for c in range(structures[si].size)]
           if len(tup) < n_max else [] for si, tup in items]

    def dense(keys):
        seen = {}
        return [seen.setdefault(k, len(seen)) for k in keys]

    levels = [dense(reference_atomic_code(structures[si], tup)
                    for si, tup in items)]
    while True:
        cur = levels[-1]
        new = dense((cur[i], frozenset(cur[j] for j in ext[i]))
                    for i in range(len(items)))
        if len(set(new)) == len(set(cur)):
            return items, levels, len(levels) - 1
        levels.append(new)


def reference_type_formulas(M, length=None):
    """Rank-alpha Hintikka formula of a tuple of M by top-down recursion
    over its one-element extensions, which stop at tuples of ``length``
    elements (default one past M's size), memoised per (tuple, level), with
    literals decided by set membership in ``M.tables``."""
    n = M.size
    length = n + 1 if length is None else length
    memo = {}
    var = "x{}".format

    def atomic(tup):
        k = len(tup)
        conj = []
        for i, j in itertools.combinations(range(k), 2):
            e = model.Eq(var(i), var(j))
            conj.append(e if tup[i] == tup[j] else model.Not(e))
        for (name, arity), table in zip(M.signature.relations, M.tables):
            for combo in itertools.product(range(k), repeat=arity):
                at = model.Atom(name, [var(i) for i in combo])
                holds = tuple(tup[i] for i in combo) in table
                conj.append(at if holds else model.Not(at))
        return model.And(conj)

    def formula(tup, alpha):
        key = (tup, alpha)
        if key not in memo:
            if alpha == 0 or len(tup) >= length:
                memo[key] = atomic(tup)
            else:
                y = var(len(tup))
                kids = [formula(tup + (c,), alpha - 1) for c in range(n)]
                memo[key] = model.And([atomic(tup),
                                       *[model.Exists(y, f) for f in kids],
                                       model.Forall(y, model.Or(kids))])
        return memo[key]

    return formula


def dag_digest(formulas):
    """sha256 over the formulas' s-expressions in which every subformula is
    written as the sha256 of its own such text.  Equal digests mean equal
    ``to_sexpr`` texts, but each shared node is hashed once: the texts of
    large type formulas run to megabytes."""
    memo = {}

    def digest(f):
        d = memo.get(f)
        if d is None:
            if isinstance(f, (model.Atom, model.Eq)):
                text = model.to_sexpr(f)
            elif isinstance(f, model.Not):
                text = f"(not {digest(f.child)})"
            elif isinstance(f, (model.And, model.Or)):
                tag = "and" if isinstance(f, model.And) else "or"
                text = "(" + " ".join([tag, *map(digest, f.children)]) + ")"
            else:
                tag = "exists" if isinstance(f, model.Exists) else "forall"
                text = f"({tag} {f.var} {digest(f.child)})"
            d = memo[f] = hashlib.sha256(text.encode()).hexdigest()
        return d

    return hashlib.sha256("\n".join(map(digest, formulas)).encode()).hexdigest()


SIGNATURES = {
    "empty": Signature(()),
    "unary+binary": Signature((("P", 1), ("R", 2))),
    "ternary": Signature((("Q", 1), ("T", 3))),
}


class TestAtomicCodes:
    @pytest.mark.parametrize("name", sorted(SIGNATURES))
    def test_match_set_membership_oracle(self, name):
        # over every tuple of length <= 4 of twelve random structures of
        # sizes 1-4, two tuples share a code iff they share an atomic type
        sig = SIGNATURES[name]
        rng = random.Random(name)
        pairs = set()
        for n in (1, 2, 3, 4):
            for _ in range(3):
                M = random_structure(rng, sig, n)
                tuples = [tup for length in range(5)
                          for tup in itertools.product(range(n), repeat=length)]
                codes = scott._atomic_codes(M, 4)
                assert len(codes) == len(tuples)
                pairs |= {(code, reference_atomic_code(M, tup))
                          for code, tup in zip(codes, tuples)}
        assert len(pairs) == len({code for code, _ in pairs}) \
            == len({ref for _, ref in pairs})

    def test_formula_atomic_nodes_match_level_zero_labels(self,
                                                           binary_space):
        # over every tuple of length <= 3 of the 116 classes of R/2 at
        # max-size 3, two tuples share the type formulas' atomic conjunction
        # iff they share an atomic type in the joint partition
        reps = binary_space.representatives
        part = scott.joint_type_partition(reps)
        assert part.n_max == 3
        pairs = {(scott._atomic(reps[si], tup), label) for (si, tup), label
                 in zip(part.items, part.levels[0])}
        assert len(pairs) == len({node for node, _ in pairs}) \
            == len({label for _, label in pairs}) > 1


class TestJointPartitionReference:
    @pytest.mark.parametrize("name", sorted(SIGNATURES))
    def test_mixed_sizes_match_reference_refinement(self, name):
        sig = SIGNATURES[name]
        rng = random.Random(f"partition-{name}")
        # (4, 1, 2) checks the heap-order extension stride at n = 4
        for sizes in ((1, 3), (2, 3, 1), (3, 2, 2), (1, 1, 2), (4, 1, 2)):
            structs = [random_structure(rng, sig, n) for n in sizes]
            items, levels, stable = reference_partition(structs)
            part = scott.joint_type_partition(structs)
            assert tuple(part.items) == tuple(items)
            assert len(part.items) == len(items)
            assert part.stabilization_level == stable
            assert [list(lv) for lv in part.levels] == levels
            for idx, (si, tup) in enumerate(items):
                assert part.class_at(stable, si, tup) == levels[stable][idx]

    def test_alpha_types_match_per_item_reference(self):
        # psi/phi read from per-structure label slices against the same
        # sets collected item by item from the reference refinement
        sig = SIGNATURES["unary+binary"]
        rng = random.Random("alpha-types")
        spaces = [model.enumerate_models(sig, 2)]
        for sizes in ((1, 3, 2, 3), (3, 1, 2)):
            structs = tuple(random_structure(rng, sig, n) for n in sizes)
            spaces.append(model.ModelSpace(sig, 3, structs))
        for space in spaces:
            items, levels, stable = reference_partition(space.representatives)
            for _ in range(6):
                s = generators.random_formula(rng, 3)
                sat = space.satset(s)
                for alpha in range(stable + 2):
                    labels = levels[min(alpha, stable)]
                    psi = {scott.TypeId(alpha, labels[idx])
                           for idx, (si, _tup) in enumerate(items)
                           if (sat >> si) & 1}
                    phi = {scott.TypeId(alpha, labels[idx])
                           for idx, (si, tup) in enumerate(items)
                           if (sat >> si) & 1 and not tup}
                    assert scott.alpha_types_of(s, alpha, space) == (psi, phi)

    def test_stabilization_at_and_below_the_length_cap(self):
        # each case has a size-1 structure; some stabilize at n_max, whose
        # level is returned without a pass that confirms it, the others
        # below it.  The reference shows the final-block rule too: the
        # classes of the length-l tuples do not change from level
        # n_max - l on
        seen = set()
        for name in sorted(SIGNATURES):
            sig = SIGNATURES[name]
            rng = random.Random(f"stable-{name}")
            for sizes, p in itertools.product(
                    ((1, 2), (2, 1, 2), (1, 3), (3, 1, 1), (2, 3, 1),
                     (1, 4), (3, 3, 1)), (0.3, 0.5)):
                structs = [random_structure(rng, sig, n, p) for n in sizes]
                items, levels, stable = reference_partition(structs)
                part = scott.joint_type_partition(structs)
                assert part.stabilization_level == stable
                assert [list(lv) for lv in part.levels] == levels
                n_max = part.n_max
                seen.add(stable == n_max)
                for length in range(n_max + 1):
                    block = [i for i, (_si, tup) in enumerate(items)
                             if len(tup) == length]
                    final = {tuple(levels[lv][i] for lv in
                                   range(min(n_max - length, stable),
                                         stable + 1))
                             for i in block}
                    assert len(final) == len({row[0] for row in final})
        assert seen == {True, False}

    def test_scott_height_matches_reference(self, binary_space):
        for M in binary_space.representatives:
            assert scott.scott_height(M) == reference_partition([M])[2]

    def test_class_at_rejects_untracked_tuples(self, sig):
        part = scott.joint_type_partition([cycle(sig, 2), cycle(sig, 3)])
        for si, tup in ((0, (0, 2)), (0, (0, 0, 0, 0)), (1, (3,)),
                        (0, (-1,)), (2, ()), (-1, ())):
            with pytest.raises(PreconditionError):
                part.class_at(0, si, tup)


class TestTypesEqual:
    def test_reflexive(self, sig):
        M = cycle(sig, 3)
        for alpha in range(4):
            assert scott.types_equal(M, (0, 1), M, (0, 1), alpha)

    def test_cycle_pair_levels(self, sig):
        c3, c4 = cycle(sig, 3), cycle(sig, 4)
        assert scott.types_equal(c3, (), c4, (), 1)
        assert not scott.types_equal(c3, (), c4, (), 2)

    def test_two_element_order_endpoints(self, sig):
        lin = Structure.make(sig, 2, {"R": [(0, 1)]})
        assert scott.types_equal(lin, (0,), lin, (1,), 0)
        assert not scott.types_equal(lin, (0,), lin, (1,), 1)

    def test_beyond_length_cap_compares_atomic_types(self):
        sig = SIGNATURES["unary+binary"]
        rng = random.Random(7)
        for _ in range(20):
            M = random_structure(rng, sig, rng.randint(1, 3))
            perm = list(range(M.size))
            rng.shuffle(perm)
            N = (M.apply_permutation(perm) if rng.random() < 0.5
                 else random_structure(rng, sig, rng.randint(1, 3)))
            k = max(M.size, N.size) + rng.randint(1, 2)
            for _ in range(20):
                a = tuple(rng.randrange(M.size) for _ in range(k))
                if N.size == M.size and rng.random() < 0.5:
                    b = tuple(perm[v] for v in a)  # an image of a
                else:
                    b = tuple(rng.randrange(N.size) for _ in range(k))
                assert scott.types_equal(M, a, N, b, 3) == (
                    reference_atomic_code(M, a) == reference_atomic_code(N, b))

    def test_length_mismatch(self, sig):
        M = cycle(sig, 3)
        with pytest.raises(PreconditionError):
            scott.types_equal(M, (0,), M, (0, 1), 2)

    def test_monotone_in_level(self, sig):
        rng = random.Random(5)
        for _ in range(10):
            n = rng.randint(1, 4)
            M = Structure.make(sig, n, {"R": [t for t in
                                              itertools.product(range(n), repeat=2)
                                              if rng.random() < 0.5]})
            part = scott.joint_type_partition([M, M])
            for length in range(3):
                for a in itertools.product(range(n), repeat=length):
                    for b in itertools.product(range(n), repeat=length):
                        for alpha in range(part.stabilization_level + 1):
                            if scott.types_equal(M, a, M, b, alpha + 1):
                                assert scott.types_equal(M, a, M, b, alpha)


class TestNegativeLevels:
    """A level below 0 is refused, not read as an index from the end of the
    levels (the stabilized one) or recursed on down to the length cap."""

    @pytest.fixture
    def pair(self, sig):
        return cycle(sig, 3), Structure.make(sig, 3, {"R": [(0, 1), (1, 2)]})

    def test_types_equal(self, pair):
        M, N = pair
        assert scott.types_equal(M, (), N, (), 0)
        with pytest.raises(PreconditionError, match="alpha must be >= 0"):
            scott.types_equal(M, (), N, (), -1)

    def test_class_at(self, pair):
        part = scott.joint_type_partition(pair)
        assert part.class_at(0, 0, ()) == part.class_at(0, 1, ())
        with pytest.raises(PreconditionError, match="level must be >= 0"):
            part.class_at(-1, 0, ())

    def test_classes_at(self, pair):
        part = scott.joint_type_partition(pair)
        assert part.classes_at(0) < part.classes_at(part.stabilization_level)
        with pytest.raises(PreconditionError, match="level must be >= 0"):
            part.classes_at(-1)

    def test_type_formula(self, pair):
        M, _ = pair
        with pytest.raises(PreconditionError, match="alpha must be >= 0"):
            scott.type_formula(M, (0,), -1)


class TestScottHeight:
    def test_empty_signature(self):
        for n in (1, 2, 4):
            M = Structure.make(Signature(()), n, {})
            assert scott.scott_height(M) == 0

    def test_unary_singleton_pattern(self):
        M = Structure.make(Signature((("P", 1),)), 2, {"P": [(0,)]})
        assert scott.scott_height(M) == 0

    def test_two_element_order(self, sig):
        # frozen from the naive-recursion oracle before the build
        assert scott.scott_height(Structure.make(sig, 2, {"R": [(0, 1)]})) == 1

    def test_zero_height_when_level0_stable(self, sig):
        M = cycle(sig, 3)
        part = scott.joint_type_partition([M])
        if part.stabilization_level == 0:
            assert scott.scott_height(M) == 0


class TestScottSentence:
    def test_singleton_with_p(self):
        usig = Signature((("P", 1),))
        M = Structure.make(usig, 1, {"P": [(0,)]})
        s = scott.scott_sentence(M)
        space = model.enumerate_models(usig, 3)
        sat = [r for r in space.representatives if model.eval(r, s)]
        assert len(sat) == 1 and sat[0].size == 1 and len(sat[0].table("P")) == 1

    def test_relabeled_copy_satisfies(self, sig):
        M = Structure.make(sig, 3, {"R": [(0, 1), (2, 1)]})
        Mp = M.apply_permutation((2, 0, 1))
        assert model.eval(Mp, scott.scott_sentence(M))

    def test_c4_fails_c3_sentence(self, sig):
        assert not model.eval(cycle(sig, 4), scott.scott_sentence(cycle(sig, 3)))

    def test_materialization_cap(self, sig):
        M = Structure.make(sig, 5, {"R": [(0, 1)]})
        with pytest.raises(MaterializationRefusedError):
            scott.scott_sentence(M)
        scott.scott_sentence(M, cap=5)  # raising the cap works

    def test_literal_cap_is_inclusive(self, monkeypatch):
        # one ternary relation on one element: 2**3 atoms over the pairs
        # that the rank-2 Scott sentence reaches, 1 over the 1-tuples
        M = Structure.make(Signature((("T", 3),)), 1, {"T": [(0, 0, 0)]})
        monkeypatch.setattr(scott, "MAX_LITERAL_ATOMS", 8)
        scott.scott_sentence(M)
        monkeypatch.setattr(scott, "MAX_LITERAL_ATOMS", 7)
        with pytest.raises(MaterializationRefusedError,
                           match="the literals of 2-tuples take 8 atoms"):
            scott.scott_sentence(M)
        # level 0 reaches only the tuple itself
        scott.type_formula(M, (0,), 0)

    def test_literal_cap_bounds_a_level_zero_build(self):
        # level 0 reads only the tuple's own length, and rank 1 from the
        # empty tuple only the 1-tuples: one atom each here, where the pairs
        # that a higher rank reaches would take 2**20
        code = ("from indepax import model, scott\n"
                "M = model.Structure.make(model.Signature((('R', 20),)), 1,"
                " {'R': [(0,) * 20]})\n"
                "print(model.to_sexpr(scott.type_formula(M, (0,), 0)))\n"
                "print(model.to_sexpr(scott.type_formula(M, (), 1)))")
        src = os.path.dirname(os.path.dirname(scott.__file__))
        env = dict(os.environ, PYTHONPATH=src)

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, env=env, preexec_fn=limit, timeout=60)
        assert r.returncode == 0, r.stderr
        atom = "(atom R " + " ".join(["x0"] * 20) + ")"
        assert r.stdout == (f"{atom}\n"
                            f"(and (and) (exists x0 {atom}) (forall x0 {atom}))\n")

    def test_reached_tuples_cap_is_inclusive(self, monkeypatch):
        # the rank-3 Scott sentence of two elements reaches their 2**3
        # triples, whose literals take 3**2 atoms each
        M = Structure.make(Signature((("R", 2),)), 2, {"R": [(0, 1)]})
        monkeypatch.setattr(scott, "MAX_REACHED_ATOMS", 72)
        scott.scott_sentence(M)
        monkeypatch.setattr(scott, "MAX_REACHED_ATOMS", 71)
        with pytest.raises(MaterializationRefusedError,
                           match="the literals of 8 reached 3-tuples take 9 "
                                 "atoms each, over cap 71 in all"):
            scott.scott_sentence(M)

    def test_reached_tuples_cap_refuses_before_building(self, monkeypatch):
        # R/7 on four elements: the 5**7 atoms of a 5-tuple's literals are
        # under MAX_LITERAL_ATOMS, but the Scott sentence reaches 4**5 such
        # tuples, about 750 MB of atomic conjunctions
        rng = random.Random("reached")
        M = random_structure(rng, Signature((("R", 7),)), 4)

        def build(*args):
            raise AssertionError("built past the cap")
        monkeypatch.setattr(scott, "_formula", build)
        with pytest.raises(MaterializationRefusedError,
                           match="1024 reached 5-tuples take 78125 atoms"):
            scott.scott_sentence(M)
        monkeypatch.undo()
        # R/5: 5**5 atoms times 4**5 tuples, about 50 MB peak RSS
        scott.scott_sentence(random_structure(rng, Signature((("R", 5),)), 4))

    @pytest.mark.parametrize("arity", [1, 2, 3])
    def test_matches_top_down_reference(self, arity):
        # the nodes must be the very ones the per-tuple recursion interns,
        # under the default length cap and under shorter ones
        sig = Signature((("P", 1), ("T", arity)))
        rng = random.Random(f"materialize-{arity}")
        for n in (1, 2, 3, 4):
            M = random_structure(rng, sig, n)
            for length in (None, n, 2):
                ref = reference_type_formulas(M, length)
                for alpha, k in itertools.product(range(5), range(n + 3)):
                    for _ in range(2 if k else 1):
                        tup = tuple(rng.randrange(n) for _ in range(k))
                        got = scott.type_formula(M, tup, alpha, length=length)
                        assert got is ref(tup, alpha)

    def test_formulas_of_fuzz_space_are_pinned(self, ub_space):
        # every 12th class of the 792-class P/1 + R/2 space: its Scott
        # sentence and its elements' types at levels 0-3, as the per-tuple
        # Hintikka recursion (``reference_type_formulas``) builds them
        formulas = []
        for M in ub_space.representatives[::12]:
            formulas.append(scott.scott_sentence(M))
            formulas += [scott.type_formula(M, (e,), a)
                         for e in range(M.size) for a in range(4)]
        assert len(formulas) == 838
        assert dag_digest(formulas) == (
            "550f32576b6c0b382e3f6fdb5b125fc61b6bcda61d5883fe47d28d040a57501d")

    def test_space_sentence_needs_non_isomorphic_representatives(self, sig):
        # the seeded satset 1 << i is only sound when no two
        # representatives are isomorphic; a hand-built space is refused
        M = Structure.make(sig, 3, {"R": [(0, 1), (2, 1)]})
        space = model.ModelSpace(sig, 3, (M, M.apply_permutation((2, 0, 1))))
        with pytest.raises(PreconditionError):
            scott.space_scott_sentence(space, 0)

    def test_isolating_sentences_hold_at_their_class_alone(self,
                                                          binary_space):
        # every seeded satset of the 116-class R/2 space, against the
        # evaluation of the same sentence over the space
        reps = binary_space.representatives
        for i in range(len(reps)):
            s = scott.space_scott_sentence(binary_space, i)
            evaluated = sum(model.eval(N, s) << j for j, N in enumerate(reps))
            assert evaluated == binary_space.satset(s) == 1 << i

    def test_every_labeled_structure_satisfies_its_class_sentence(self, sig):
        # exhaustive over all 18 labeled structures of size <= 2: each one
        # satisfies exactly the Scott sentence of its isomorphism class
        space = model.enumerate_models(sig, 2)
        sentences = [scott.scott_sentence(r) for r in space.representatives]
        for n in (1, 2):
            for cells in itertools.product([0, 1], repeat=n * n):
                table = [t for t, bit in
                         zip(itertools.product(range(n), repeat=2), cells)
                         if bit]
                M = Structure.make(sig, n, {"R": table})
                hits = [i for i, s in enumerate(sentences) if model.eval(M, s)]
                assert len(hits) == 1
                assert verify.oracle_isomorphic(
                    M, space.representatives[hits[0]])[0]


def reference_isolation_levels(part):
    """Per structure of a full joint partition, the least level at which
    its empty tuple's class holds no other structure's empty tuple, read
    off every level of that partition."""
    found = [None] * len(part.structures)
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


class TestIsolationLevels:
    @pytest.mark.parametrize("relations, max_size", [
        ((("P", 1), ("R", 2)), 3),
        ((("R", 2),), 3),
        ((("R", 2),), 4),
        ((("Q", 1), ("T", 3)), 2),
        ((), 4),
    ])
    def test_levels_equal_the_full_partitions(self, relations, max_size):
        reps = model.enumerate_models(Signature(relations),
                                      max_size).representatives
        want = reference_isolation_levels(scott.joint_type_partition(reps))
        assert scott._isolation_levels(reps) == want

    def test_isomorphic_pair_among_isolated_classes_is_refused(self, sig):
        # the cycles are isolated early and leave the later partitions; the
        # isomorphic pair never separates
        M = Structure.make(sig, 3, {"R": [(0, 1), (2, 1)]})
        reps = (cycle(sig, 2), M, cycle(sig, 3),
                M.apply_permutation((2, 0, 1)))
        with pytest.raises(PreconditionError):
            scott._isolation_levels(reps)

    def test_isolating_sentences_build_no_space_partition(self, sig):
        space = model.enumerate_models(sig, 3)
        for i in range(len(space.representatives)):
            scott.space_scott_sentence(space, i)
        assert "partition" not in space._extra


class TestCanonicalInvariant:
    def test_permuted_copy_equal(self, sig):
        M = Structure.make(sig, 4, {"R": [(0, 1), (1, 2), (3, 3)]})
        Mp = M.apply_permutation((3, 1, 0, 2))
        assert scott.canonical_invariant(M) == scott.canonical_invariant(Mp)

    def test_different_sizes_differ(self, sig):
        M = Structure.make(sig, 2, {})
        N = Structure.make(sig, 3, {})
        assert scott.canonical_invariant(M) != scott.canonical_invariant(N)

    def test_matches_permutation_oracle_on_random_pairs(self, sig):
        rng = random.Random(9)
        for _ in range(40):
            n = rng.randint(1, 5)
            def rand():
                return Structure.make(sig, n, {"R": [
                    t for t in itertools.product(range(n), repeat=2)
                    if rng.random() < 0.4]})
            M = rand()
            if rng.random() < 0.5:
                perm = list(range(n))
                rng.shuffle(perm)
                N = M.apply_permutation(perm)
            else:
                N = rand()
            assert (scott.canonical_invariant(M) == scott.canonical_invariant(N)) \
                == verify.oracle_isomorphic(M, N)[0]

    def test_invariants_of_fuzz_space_are_pinned(self, ub_space):
        # the digest of the 792 invariants of the P/1 + R/2 max-size-3
        # space, each the digest of "size|least key"; a change to that
        # text or to the least key changes it
        joined = "\n".join(scott.canonical_invariant(M)
                           for M in ub_space.representatives)
        assert hashlib.sha256(joined.encode()).hexdigest() == (
            "9d8133c9c349d0e869e48ade52a6aa507c3f3396a11acd01b79c9715457b5197")


class TestAlphaTypes:
    def test_unsatisfiable_sentence_empty(self, binary_space):
        psi, phi = scott.alpha_types_of(model.CONTRADICTION, 2, binary_space)
        assert psi == set() and phi == set()

    def test_empty_signature_sizes(self):
        space = model.enumerate_models(Signature(()), 2)
        psi, phi = scott.alpha_types_of(model.TAUTOLOGY, 2, space)
        assert len(phi) == 2       # one model type per size at stabilization
        psi0, phi0 = scott.alpha_types_of(model.TAUTOLOGY, 0, space)
        assert len(phi0) == 1      # empty tuples are atomically alike

    def test_phi_subset_psi(self, binary_space):
        s = parse_sentence("(exists x (atom R x x))")
        for alpha in range(3):
            psi, phi = scott.alpha_types_of(s, alpha, binary_space)
            assert phi <= psi

    def test_stabilized_model_types_count_models(self, binary_space):
        # at stabilization, empty-tuple classes separate exactly the
        # isomorphism classes, so the model-type count equals the number of
        # satisfying representatives
        import random
        from indepax import generators
        part = scott.space_partition(binary_space)
        rng = random.Random(12)
        checked = 0
        while checked < 10:
            s = generators.random_formula(rng, 3)
            if "atom P" in model.to_sexpr(s):
                continue
            count = bin(binary_space.satset(s)).count("1")
            _psi, phi = scott.alpha_types_of(s, part.stabilization_level,
                                             binary_space)
            assert len(phi) == count
            checked += 1
