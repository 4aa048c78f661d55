import itertools

import pytest

from indepax import model, verify
from indepax.errors import PreconditionError
from indepax.model import Signature, Structure, Theory, parse_sentence


@pytest.fixture(scope="module")
def sig():
    return Signature((("R", 2),))


class TestTypeOracle:
    def test_reflexive(self, sig):
        M = Structure.make(sig, 3, {"R": [(0, 1)]})
        assert verify.oracle_types_equal(M, (0, 1), M, (0, 1), 3)

    def test_distinct_atomic_types_at_level_zero(self, sig):
        M = Structure.make(sig, 2, {"R": [(0, 1)]})
        assert not verify.oracle_types_equal(M, (0, 1), M, (1, 0), 0)

    def test_caps(self, sig):
        M = Structure.make(sig, 5, {})
        with pytest.raises(PreconditionError):
            verify.oracle_types_equal(M, (), M, (), 1)
        N = Structure.make(sig, 2, {})
        with pytest.raises(PreconditionError):
            verify.oracle_types_equal(N, (), N, (), 9)

    def test_negative_level_is_refused(self, sig):
        M = Structure.make(sig, 3, {"R": [(0, 1), (1, 2), (2, 0)]})
        N = Structure.make(sig, 3, {"R": [(0, 1), (1, 2)]})
        oracle = verify.TypeOracle(M, N)
        assert oracle.equal((), (), 0)
        with pytest.raises(PreconditionError, match="alpha must be >= 0"):
            oracle.equal((), (), -1)

    def test_height_matches_oracle_recursion(self, sig):
        # recompute the stabilization level from the naive recursion alone:
        # least level at which the tuple relation stops refining
        import random
        from indepax import scott
        rng = random.Random(31)
        for _ in range(8):
            n = rng.randint(1, 3)
            M = Structure.make(sig, n, {"R": [
                t for t in itertools.product(range(n), repeat=2)
                if rng.random() < 0.5]})
            oracle = verify.TypeOracle(M, M)
            tuples = [t for length in range(n + 1)
                      for t in itertools.product(range(n), repeat=length)]
            def relation(alpha):
                return {(a, b) for a in tuples for b in tuples
                        if len(a) == len(b) and oracle.equal(a, b, alpha)}
            height = 0
            while relation(height) != relation(height + 1):
                height += 1
            assert height == scott.scott_height(M)

    def test_agrees_with_partition_on_small_pairs(self, sig):
        # a compressed version of acceptance criterion 1
        from indepax import scott
        structs = [
            Structure.make(sig, 2, {"R": [(0, 1)]}),
            Structure.make(sig, 3, {"R": [(0, 1), (1, 2), (2, 0)]}),
            Structure.make(sig, 3, {"R": [(0, 1), (1, 2)]}),
            Structure.make(sig, 1, {"R": [(0, 0)]}),
        ]
        for M, N in itertools.combinations_with_replacement(structs, 2):
            oracle = verify.TypeOracle(M, N)
            for length in range(3):
                for a in itertools.product(range(M.size), repeat=length):
                    for b in itertools.product(range(N.size), repeat=length):
                        for alpha in range(5):
                            assert oracle.equal(a, b, alpha) == \
                                scott.types_equal(M, a, N, b, alpha)


class TestIsomorphismOracle:
    def test_relabeling_found(self, sig):
        M = Structure.make(sig, 4, {"R": [(0, 1), (1, 2), (2, 3)]})
        perm = (2, 0, 3, 1)
        N = M.apply_permutation(perm)
        ok, witness = verify.oracle_isomorphic(M, N)
        assert ok
        assert all(tuple(witness[v] for v in t) in N.table("R")
                   for t in M.table("R"))

    def test_different_sizes(self, sig):
        M = Structure.make(sig, 2, {})
        N = Structure.make(sig, 3, {})
        assert verify.oracle_isomorphic(M, N) == (False, None)

    def test_cycle_vs_path(self, sig):
        c3 = Structure.make(sig, 3, {"R": [(0, 1), (1, 2), (2, 0)]})
        p3 = Structure.make(sig, 3, {"R": [(0, 1), (1, 2)]})
        assert not verify.oracle_isomorphic(c3, p3)[0]

    def test_size_cap(self, sig):
        M = Structure.make(sig, 9, {})
        with pytest.raises(PreconditionError):
            verify.oracle_isomorphic(M, M)


class TestIndependence:
    def test_two_sided_unary_pair(self, unary_space):
        T = Theory.of([parse_sentence("(exists x (atom P x))"),
                       parse_sentence("(exists x (not (atom P x)))")])
        rep = verify.check_independence(T, unary_space)
        assert rep.passed
        # each witness is a homogeneous model failing its own sentence
        for cert in rep.certificates:
            w = cert["witness"]
            assert not model.eval(w, T.sentences[cert["index"]])

    def test_entailed_sentence_fails(self, unary_space):
        allp = parse_sentence("(forall x (atom P x))")
        somep = parse_sentence("(exists x (atom P x))")
        rep = verify.check_independence(Theory.of([somep, allp]), unary_space)
        assert not rep.passed
        assert rep.counterexample["index"] == 0

    def test_conjoined_valid_sentence_fails_at_first_index(self, unary_space):
        # second sentence = first conjoined with a valid one: no model
        # separates them, so index 0 is entailed by the rest
        phi = parse_sentence("(exists x (atom P x))")
        both = model.And([phi, model.TAUTOLOGY])
        rep = verify.check_independence(Theory.of([phi, both]), unary_space)
        assert not rep.passed
        assert rep.counterexample["index"] == 0

    def test_singleton_satisfiable_nonvalid_passes(self, unary_space):
        rep = verify.check_independence(
            Theory.of([parse_sentence("(exists x (atom P x))")]), unary_space)
        assert rep.passed

    def test_empty_theory_passes(self, unary_space):
        assert verify.check_independence(Theory.of([]), unary_space).passed


class TestEquivalence:
    def test_theory_vs_itself(self, unary_space):
        T = Theory.of([parse_sentence("(exists x (atom P x))")])
        assert verify.check_theories_equivalent(T, T, unary_space).passed

    def test_forall_vs_exists_fails_with_mixed_witness(self, unary_space):
        T = Theory.of([parse_sentence("(forall x (atom P x))")])
        U = Theory.of([parse_sentence("(exists x (atom P x))")])
        rep = verify.check_theories_equivalent(T, U, unary_space)
        assert not rep.passed
        w = rep.counterexample["witness"]
        assert rep.counterexample["satisfies_only"] == "second"
        assert 0 < len(w.table("P")) < w.size

    def test_reports_carry_bound(self, unary_space):
        T = Theory.of([])
        rep = verify.check_theories_equivalent(T, T, unary_space)
        assert rep.bound == unary_space.max_size
