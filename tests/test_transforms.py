import os
import random
import subprocess
import sys

import pytest

from indepax import generators, model, scott, transforms, verify
from indepax.errors import (DuplicateTypeError, NotApplicableError,
                            PartitionInvalidError, PreconditionError,
                            SeparationFailureError)
from indepax.model import And, Not, Theory, parse_sentence
from indepax.transforms import (build_separating_tree, check_partition,
                                complement_axiomatization,
                                independent_axiomatize, partition_transform,
                                phi_star, reznikoff_pairing,
                                scott_filter_transform)
from test_properties import elem_blocks


def sentence_size_at_most(k):
    # "at most k elements": no k+1 pairwise distinct elements
    vs = [f"v{i}" for i in range(k + 1)]
    distinct = And([Not(model.Eq(a, b))
                    for i, a in enumerate(vs) for b in vs[i + 1:]])
    inner = Not(distinct)
    for v in reversed(vs):
        inner = model.Forall(v, inner)
    return inner


def sentence_size_exactly(k):
    vs = [f"v{i}" for i in range(k)]
    distinct = And([Not(model.Eq(a, b))
                    for i, a in enumerate(vs) for b in vs[i + 1:]])
    exists_k = distinct
    for v in reversed(vs):
        exists_k = model.Exists(v, exists_k)
    return And([exists_k, sentence_size_at_most(k)])


@pytest.fixture(scope="module")
def esig_space():
    return model.enumerate_models(model.Signature((("P", 1),)), 3)


class TestCheckPartition:
    def test_size_cases_partition(self, esig_space):
        ok, violation = check_partition(
            sentence_size_at_most(2),
            [sentence_size_exactly(1), sentence_size_exactly(2)],
            esig_space)
        assert ok and violation is None

    def test_overlap_detected(self, ub_space):
        phi = parse_sentence("(exists x (eq x x))")
        p1 = parse_sentence("(exists x (atom P x))")
        p2 = parse_sentence("(exists x (not (atom P x)))")
        ok, violation = check_partition(phi, [p1, p2], ub_space)
        assert not ok
        assert violation.condition == "exclusion"
        w = violation.witness
        assert model.eval(w, p1) and model.eval(w, p2)

    def test_unsatisfiable_part(self, ub_space):
        ok, violation = check_partition(
            model.TAUTOLOGY, [model.CONTRADICTION], ub_space)
        assert not ok
        assert violation.condition == "consistency"

    def test_cover_violation_carries_witness(self, esig_space):
        ok, violation = check_partition(
            sentence_size_at_most(2), [sentence_size_exactly(1)], esig_space)
        assert not ok and violation.condition == "cover"
        assert violation.witness is not None


class TestPartitionTransform:
    def test_two_sentence_instance(self, esig_space):
        T = Theory.of([Not(sentence_size_at_most(2)),
                       parse_sentence("(exists x (atom P x))")])
        # negation of the pivot is "size <= 2"; one block partition
        rep = partition_transform(T, 0, [sentence_size_at_most(2)], esig_space)
        assert len(rep.output) == 1
        assert rep.equivalence_checked
        out = rep.output.sentences[0]
        assert isinstance(out, And) and len(out.children) == 2

    def test_witness_properties(self, ub_space):
        rng = random.Random(0)
        inst = generators.random_partition_instance(rng, ub_space)
        T, pivot, parts = inst
        rep = partition_transform(T, pivot, parts, ub_space)
        out_sats = [ub_space.satset(s) for s in rep.output.sentences]
        for k, w in enumerate(rep.independence_witnesses):
            widx = ub_space.rep_index[id(w)]
            assert (ub_space.satset(parts[k]) >> widx) & 1
            assert not (out_sats[k] >> widx) & 1
            assert all((out_sats[j] >> widx) & 1
                       for j in range(len(out_sats)) if j != k)

    def test_witness_properties_by_direct_eval(self, esig_space):
        # small instance: exercise the witness contract through eval itself
        T = Theory.of([Not(sentence_size_at_most(2)),
                       parse_sentence("(exists x (atom P x))")])
        rep = partition_transform(T, 0, [sentence_size_at_most(2)], esig_space)
        w = rep.independence_witnesses[0]
        assert model.eval(w, sentence_size_at_most(2))
        assert not model.eval(w, rep.output.sentences[0])

    def test_degenerate_singleton_rejected(self, esig_space):
        T = Theory.of([parse_sentence("(exists x (atom P x))")])
        with pytest.raises(PartitionInvalidError):
            partition_transform(T, 0, [], esig_space)

    def test_invalid_partition_carries_report(self, ub_space):
        T = Theory.of([parse_sentence("(forall x (atom P x))"),
                       parse_sentence("(exists x (atom R x x))")])
        with pytest.raises(PartitionInvalidError) as exc:
            partition_transform(T, 0, [model.CONTRADICTION], ub_space)
        assert exc.value.report.condition == "consistency"


class TestReznikoff:
    def test_empty_d_returns_c(self, ub_space):
        C = Theory.of([parse_sentence("(exists x (atom P x))"),
                       parse_sentence("(exists x (atom R x x))")])
        rep = reznikoff_pairing(C, Theory.of([]), ub_space)
        assert rep.output.sentences == C.sentences

    def test_size_error(self, ub_space):
        C = Theory.of([parse_sentence("(exists x (atom P x))")])
        D = Theory.of([parse_sentence("(exists x (atom R x x))"),
                       parse_sentence("(forall x (atom P x))")])
        with pytest.raises(PreconditionError):
            reznikoff_pairing(C, D, ub_space)

    def test_pairing_shape(self, ub_space):
        c1 = parse_sentence("(exists x (atom P x))")
        c2 = parse_sentence("(exists x (atom R x x))")
        d = parse_sentence("(exists x (not (atom P x)))")
        rep = reznikoff_pairing(Theory.of([c1, c2]), Theory.of([d]), ub_space)
        assert len(rep.output) == 2
        assert rep.output.sentences[0] is c2
        pair = rep.output.sentences[1]
        assert isinstance(pair, And) and pair.children == (d, c1)
        assert rep.equivalence_checked

    def test_failure_carries_certificate(self, ub_space):
        somep = parse_sentence("(exists x (atom P x))")
        allp = parse_sentence("(forall x (atom P x))")
        with pytest.raises(NotApplicableError) as exc:
            reznikoff_pairing(Theory.of([somep, allp]), Theory.of([]), ub_space)
        cert = exc.value.certificate
        rest = [s for i, s in enumerate([somep, allp]) if i != cert["index"]]
        ok, _ = model.entails(Theory.of(rest),
                              [somep, allp][cert["index"]], ub_space)
        assert ok

    def test_disjointness_required(self, ub_space):
        s = parse_sentence("(exists x (atom P x))")
        with pytest.raises(PreconditionError):
            reznikoff_pairing(Theory.of([s]), Theory.of([s]), ub_space)


class TestComplement:
    def test_forall_p_over_unary_max2(self, unary_space):
        T = Theory.of([parse_sentence("(forall x (atom P x))")])
        rep = complement_axiomatization(T, unary_space)
        assert len(rep.output) == 3
        assert rep.equivalence_checked
        # outputs pairwise non-equivalent over the space
        sats = [unary_space.satset(s) for s in rep.output.sentences]
        assert len(set(sats)) == len(sats)

    def test_valid_theory_gives_empty_output(self, unary_space):
        rep = complement_axiomatization(Theory.of([model.TAUTOLOGY]),
                                        unary_space)
        assert len(rep.output) == 0

    def test_inconsistent_rejected(self, unary_space):
        with pytest.raises(PreconditionError):
            complement_axiomatization(Theory.of([model.CONTRADICTION]),
                                      unary_space)


class TestScottFilter:
    def test_overlapping_counters_dropped(self, unary_space):
        T = Theory.of([parse_sentence("(forall x (atom P x))"),
                       parse_sentence("(exists x (atom P x))")])
        rep = scott_filter_transform(T, unary_space)
        # the no-P classes attach to the first sentence; the second covers
        # nothing new and is dropped
        assert len(rep.output) == 1
        assert rep.notes["dropped_inputs"] == [1]
        assert len(rep.output.sentences[0].children) == 3

    def test_duplicate_sentences_natural(self, unary_space):
        s = parse_sentence("(forall x (atom P x))")
        rep = scott_filter_transform(Theory.of([s, s]), unary_space)
        assert len(rep.output) == 1
        assert rep.notes["dropped_inputs"] == [1]

    def test_disjoint_counters_per_sentence(self, esig_space):
        T = Theory.of([Not(sentence_size_exactly(1)),
                       Not(sentence_size_exactly(2))])
        rep = scott_filter_transform(T, esig_space)
        assert len(rep.output) == 2
        classes = rep.notes["classes_per_output"]
        assert not (set(classes[0]) & set(classes[1]))


class TestSeparatingTree:
    def test_type_formulas_define_their_partition_class(self, ub_sig):
        # each type formula has the partition's length cap, so over the
        # 40-class space its elements are exactly those of its class
        space = model.enumerate_models(ub_sig, 2)
        assert len(space.representatives) == 40
        part = scott.space_partition(space)
        rng = random.Random(8)
        for count in range(2, 7):
            for tid, formulas in generators.random_type_instance(
                    rng, space, count):
                want = tuple(
                    sum(1 << e for e in range(M.size)
                        if part.class_at(tid.level, si, (e,))
                        == tid.class_index)
                    for si, M in enumerate(space.representatives))
                assert elem_blocks(
                    space, space.elem_satset(formulas[0], "x0")) == want

    def test_single_type(self, ub_space):
        types = generators.random_type_instance(random.Random(1), ub_space, 1)
        tree = build_separating_tree(types, ub_space)
        assert tree.nodes[""] == ()
        assert set(tree.leaves) == {"0"}
        star = phi_star(tree)
        assert ub_space.satset(star)

    def test_duplicate_types_rejected(self, ub_space):
        types = generators.random_type_instance(random.Random(2), ub_space, 2)
        with pytest.raises(DuplicateTypeError):
            build_separating_tree([types[0], types[0]], ub_space)

    def test_unrealized_type_rejected(self, ub_space):
        bad = [(scott.TypeId(0, 0), [parse_sentence("(and (atom P x0) (not (atom P x0)))")])]
        with pytest.raises(SeparationFailureError):
            build_separating_tree(bad, ub_space)

    def test_two_types_structure(self, ub_space):
        types = generators.random_type_instance(random.Random(3), ub_space, 2)
        tree = build_separating_tree(types, ub_space)
        assert set(tree.leaves) == {"0", "1"}
        # labels grow along branches and siblings are incompatible
        assert set(tree.nodes[""]) <= set(tree.nodes["0"])
        f0, f1 = tree.nodes["0"][0], tree.nodes["1"][0]
        e0 = elem_blocks(ub_space, ub_space.elem_satset(f0, tree.var))
        e1 = elem_blocks(ub_space, ub_space.elem_satset(f1, tree.var))
        assert all(a & b == 0 for a, b in zip(e0, e1))

    def test_branch_union_equals_type(self, ub_space):
        types = generators.random_type_instance(random.Random(4), ub_space, 3)
        tree = build_separating_tree(types, ub_space)
        by_id = {tid: set(fs) for tid, fs in types}
        for leaf, tid in tree.leaves.items():
            union = set()
            for i in range(len(leaf) + 1):
                u = leaf[:i]
                if u in tree.nodes:
                    union |= set(tree.nodes[u])
            assert union == by_id[tid]

    def test_search_serializes_no_formula(self, ub_space, monkeypatch):
        types = generators.random_type_instance(random.Random(5), ub_space, 4)

        def refuse(f):
            raise AssertionError("the tree search serialized a formula")

        monkeypatch.setattr(transforms, "to_sexpr", refuse)
        monkeypatch.setattr(model, "to_sexpr", refuse)
        tree = build_separating_tree(types, ub_space)
        by_id = {tid: tuple(dict.fromkeys(fs)) for tid, fs in types}
        inner = 0
        for u, label in tree.nodes.items():
            if not u:
                continue
            parent = tree.nodes[u[:-1]]
            if u in tree.leaves:
                assert label == by_id[tree.leaves[u]]
                assert set(parent) <= set(label)
            else:
                # a split extends its parent's label by one new formula
                assert label[:-1] == parent and label[-1] not in parent
                inner += 1
        assert inner

    def test_each_formula_set_is_read_once(self, ub_sig, monkeypatch):
        space = model.enumerate_models(ub_sig, 2)
        real = space.elem_satset
        calls = []
        depth = [0]

        def counting(f, var):
            # the search's own calls, not elem_satset's recursion
            if not depth[0]:
                calls.append(f)
            depth[0] += 1
            try:
                return real(f, var)
            finally:
                depth[0] -= 1
        monkeypatch.setattr(space, "elem_satset", counting)
        rng = random.Random(9)
        for count in range(2, 7):
            types = generators.random_type_instance(rng, space, count)
            calls.clear()
            build_separating_tree(types, space)
            distinct = {f for _tid, fs in types for f in fs}
            assert set(calls) == distinct
            assert len(calls) == len(distinct)

    def test_phi_star_is_the_per_depth_construction(self, ub_space):
        # the criterion-8 instances: phi* is the very node that building
        # each label's conjunction again at every depth interns
        rng = random.Random(8000)
        instances = 0
        while instances < 20:
            types = generators.random_type_instance(rng, ub_space,
                                                    rng.randint(2, 6))
            if types is None:
                continue
            tree = build_separating_tree(types, ub_space)
            levels = []
            for n in range(tree.depth + 1):
                levels.append(model.Or([
                    And(tree.nodes[u]) for u in sorted(tree.nodes)
                    if len(u) == n or (u in tree.leaves and len(u) < n)]))
            assert phi_star(tree) is model.Exists(tree.var, And(levels))
            instances += 1

    def test_trees_repeat_across_hash_seeds(self):
        # the same seeded instances over the 792-class space of ub_space,
        # built in two processes whose str hashes differ
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(transforms.__file__))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        runs = []
        for hash_seed in ("0", "1"):
            env["PYTHONHASHSEED"] = hash_seed
            runs.append(subprocess.Popen(
                [sys.executable, "-c", TREE_SCRIPT], env=dict(env),
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True))
        (out0, err0), (out1, err1) = (r.communicate() for r in runs)
        assert runs[0].returncode == 0, err0
        assert runs[1].returncode == 0, err1
        assert out0 == out1
        assert out0.count("phi*") == 3


# phi* and every node label of three seeded trees, as digests of their
# s-expressions (phi* of the 4-type tree is 8 MB of text)
TREE_SCRIPT = """
import hashlib, random
from indepax import generators, model, transforms

def digest(f):
    return hashlib.sha256(model.to_sexpr(f).encode()).hexdigest()

space = model.enumerate_models(model.Signature((("P", 1), ("R", 2))), 3)
for seed in range(3):
    types = generators.random_type_instance(random.Random(seed), space,
                                            2 + seed)
    tree = transforms.build_separating_tree(types, space)
    print("phi*", digest(transforms.phi_star(tree)))
    for u, fs in tree.nodes.items():
        print(repr(u), *map(digest, fs))
"""


class TestPhiStar:
    def test_models_split_into_type_classes(self, ub_space):
        types = generators.random_type_instance(random.Random(6), ub_space, 2)
        tree = build_separating_tree(types, ub_space)
        star = phi_star(tree)
        for W in ub_space.mask_members(ub_space.satset(star)):
            realized = sum(
                1 for _tid, fs in types
                if any(all(model.eval(W, f, {"x0": e}) for f in fs)
                       for e in range(W.size)))
            assert realized == 1

    def test_satisfiable_when_types_realized(self, ub_space):
        types = generators.random_type_instance(random.Random(7), ub_space, 4)
        tree = build_separating_tree(types, ub_space)
        assert ub_space.satset(phi_star(tree))

    def test_single_type_star_is_existential_type(self, ub_space):
        types = generators.random_type_instance(random.Random(9), ub_space, 1)
        tree = build_separating_tree(types, ub_space)
        star = phi_star(tree)
        direct = model.Exists(tree.var, And(types[0][1]))
        assert ub_space.satset(star) == ub_space.satset(direct)


class TestDriver:
    def test_empty_theory(self, ub_space):
        rep = independent_axiomatize(Theory.of([]), ub_space)
        assert len(rep.output) == 0
        assert rep.equivalence_checked

    def test_inconsistent_theory(self, ub_space):
        T = Theory.of([parse_sentence("(forall x (atom P x))"),
                       parse_sentence("(exists x (not (atom P x)))")])
        rep = independent_axiomatize(T, ub_space)
        assert rep.output.sentences == (model.CONTRADICTION,)

    def test_random_theories_verified(self, ub_space):
        rng = random.Random(8)
        for _ in range(25):
            T = generators.random_theory(rng, ub_space)
            rep = independent_axiomatize(T, ub_space)
            assert rep.equivalence_checked
            assert verify.check_independence(rep.output, ub_space).passed
            assert verify.check_theories_equivalent(T, rep.output,
                                                    ub_space).passed
