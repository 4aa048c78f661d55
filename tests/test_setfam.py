import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indepax import setfam
from indepax.errors import (NotApplicableError, ParseError, PreconditionError)
from indepax.setfam import (SetFamily, case1_transform, case2_transform,
                            families_equivalent, family_from_json,
                            family_is_independent, family_to_json,
                            theory_to_family)


class TestIndependenceCheck:
    def test_single_set(self):
        ok, rep = family_is_independent(SetFamily.from_lists(2, [[0]]))
        assert ok
        assert rep.intersection_witness == 0
        assert rep.removal_witnesses == (1,)

    def test_duplicates_break_independence(self):
        ok, rep = family_is_independent(SetFamily.from_lists(2, [[0], [0]]))
        assert not ok

    def test_two_overlapping_sets(self):
        ok, rep = family_is_independent(SetFamily.from_lists(3, [[0, 1], [0, 2]]))
        assert ok
        assert rep.intersection_witness == 0
        assert rep.removal_witnesses == (2, 1)

    def test_empty_family_in_nonempty_universe(self):
        ok, rep = family_is_independent(SetFamily(3, ()))
        assert ok and rep.intersection_witness == 0


class TestEquivalence:
    def test_same_family(self):
        F = SetFamily.from_lists(4, [[0, 1], [1, 2]])
        assert families_equivalent(F, F)

    def test_disjoint_singletons(self):
        assert not families_equivalent(SetFamily.from_lists(2, [[0]]),
                                       SetFamily.from_lists(2, [[1]]))

    def test_universe_mismatch(self):
        with pytest.raises(PreconditionError):
            families_equivalent(SetFamily.from_lists(2, [[0]]),
                                SetFamily.from_lists(3, [[0]]))


class TestCase1:
    def test_worked_example(self):
        F = SetFamily.from_lists(4, [[0, 1], [0, 2], [0, 3]])
        rep = case1_transform(F, 0)
        assert rep.output.to_lists() == [[0, 3], [0, 2]]
        assert rep.blocks == (0b0100, 0b1000)
        assert rep.equivalence_checked
        assert F.intersection() == rep.output.intersection() == 0b0001

    def test_two_sets_single_block(self):
        F = SetFamily.from_lists(4, [[0, 1], [0, 2]])
        rep = case1_transform(F, 0)
        assert len(rep.blocks) == 1
        assert rep.blocks[0] == F.full & ~F.sets[0]

    def test_empty_complement(self):
        F = SetFamily.from_lists(2, [[0, 1], [0]])
        with pytest.raises(NotApplicableError):
            case1_transform(F, 0)

    def test_complement_too_small(self):
        F = SetFamily.from_lists(3, [[0, 1], [0], [0, 2], [0, 1, 2]])
        with pytest.raises(NotApplicableError):
            case1_transform(F, 1)  # complement has 2 elements, need 3

    def test_block_properties(self):
        F = SetFamily.from_lists(8, [[0, 1, 2], [0, 3], [0, 4, 5], [0, 6]])
        rep = case1_transform(F, 0)
        comp = F.full & ~F.sets[0]
        union = 0
        for b in rep.blocks:
            assert b != 0
            assert (union & b) == 0
            union |= b
        assert union == comp


class TestCase2:
    def test_worked_example(self):
        F = SetFamily.from_lists(4, [[0, 1], [1, 2]])
        rep = case2_transform(F)
        assert rep.output.to_lists() == [[0, 1], [1, 2, 3]]
        assert rep.dropped == ()
        assert rep.output.intersection() == 0b0010

    def test_universe_sets_dropped(self):
        F = SetFamily.from_lists(4, [[0, 1], [0, 1, 2]])
        rep = case2_transform(F)
        assert rep.output.to_lists() == [[0, 1]]
        assert rep.dropped == (1,)
        assert families_equivalent(F, rep.output)

    def test_all_universe_gives_empty_family(self):
        F = SetFamily.from_lists(3, [[0, 1, 2], [0, 1, 2]])
        rep = case2_transform(F)
        assert len(rep.output) == 0
        assert rep.dropped == (0, 1)
        assert family_is_independent(rep.output)[0]

    def test_empty_intersection_rejected(self):
        with pytest.raises(PreconditionError):
            case2_transform(SetFamily.from_lists(2, [[0], [1]]))

    def test_independent_input_unchanged_when_monotone(self):
        # when every earlier-complement union is inside the set, growth is
        # a no-op and only universe sets drop
        F = SetFamily.from_lists(3, [[0, 1], [0, 1, 2]])
        rep = case2_transform(F)
        assert rep.output.to_lists() == [[0, 1]]


families = st.integers(1, 16).flatmap(
    lambda u: st.tuples(
        st.just(u),
        st.integers(0, u - 1),
        st.lists(st.integers(0, (1 << u) - 1), max_size=8)))


class TestRandomized:
    @settings(max_examples=300, deadline=None)
    @given(families)
    def test_case2_verified(self, spec):
        universe, common, masks = spec
        F = SetFamily(universe, tuple(m | (1 << common) for m in masks))
        rep = case2_transform(F)
        assert rep.equivalence_checked
        assert families_equivalent(F, rep.output)
        assert family_is_independent(rep.output)[0]
        # retained sets contain their originals
        kept = [j for j in range(len(F)) if j not in rep.dropped]
        for out_set, j in zip(rep.output.sets, kept):
            assert out_set & F.sets[j] == F.sets[j]
        # retained sets pairwise distinct
        assert len(set(rep.output.sets)) == len(rep.output.sets)

    @settings(max_examples=300, deadline=None)
    @given(families, st.integers(0, 7))
    def test_case1_verified_when_applicable(self, spec, pivot):
        universe, common, masks = spec
        F = SetFamily(universe, tuple(m | (1 << common) for m in masks))
        if not len(F):
            return
        i0 = pivot % len(F)
        comp = F.full & ~F.sets[i0]
        applicable = len(F) >= 2 and comp != 0 and \
            bin(comp).count("1") >= len(F) - 1
        if not applicable:
            with pytest.raises(NotApplicableError):
                case1_transform(F, i0)
            return
        rep = case1_transform(F, i0)
        assert families_equivalent(F, rep.output)
        assert family_is_independent(rep.output)[0]


class TestTheoryBridge:
    def test_empty_theory(self, unary_space):
        from indepax.model import Theory
        F = theory_to_family(Theory.of([]), unary_space)
        assert len(F) == 0
        assert F.universe_size == len(unary_space.representatives)

    def test_valid_sentence_is_universe(self, unary_space):
        from indepax.model import TAUTOLOGY, Theory
        F = theory_to_family(Theory.of([TAUTOLOGY]), unary_space)
        assert F.sets == (F.full,)

    def test_membership_matches_eval(self, unary_space):
        from indepax import model
        from indepax.model import Theory, parse_sentence
        T = Theory.of([parse_sentence("(exists x (atom P x))"),
                       parse_sentence("(forall x (atom P x))")])
        F = theory_to_family(T, unary_space)
        for i, s in enumerate(T.sentences):
            for k, rep in enumerate(unary_space.representatives):
                assert bool((F.sets[i] >> k) & 1) == model.eval(rep, s)

    def test_independence_transfers(self, unary_space):
        import random
        from indepax import generators, verify
        rng = random.Random(4)
        # over the unary space the fuzz signature's R atoms are absent, so
        # use the bigger fuzz space for a faithful comparison
        from indepax.model import enumerate_models
        space = enumerate_models(generators.FUZZ_SIGNATURE, 2)
        for _ in range(20):
            T = generators.random_theory(rng, space, max_sentences=3, depth=3)
            F = theory_to_family(T, space)
            if not F.intersection():
                continue
            fam_ok = family_is_independent(F)[0]
            thy_ok = verify.check_independence(T, space).passed
            assert fam_ok == thy_ok


class TestJsonFormat:
    def test_round_trip(self):
        F = SetFamily.from_lists(8, [[0, 1, 2], [2, 3]], ["a", "b"])
        assert family_from_json(family_to_json(F)) == F

    def test_schema_example(self):
        F = family_from_json({"universe": 8, "sets": [[0, 1, 2], [2, 3]]})
        assert F.universe_size == 8
        assert F.sets == (0b111, 0b1100)

    def test_out_of_range(self):
        with pytest.raises(ParseError):
            family_from_json({"universe": 2, "sets": [[5]]})

    def test_universe_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(setfam, "MAX_UNIVERSE", 8)
        assert SetFamily.from_lists(8, [[7]]).sets == (1 << 7,)
        with pytest.raises(PreconditionError):
            family_from_json({"universe": 9, "sets": [[8]]})
        with pytest.raises(PreconditionError):
            SetFamily(9, ())
