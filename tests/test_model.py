import hashlib
import itertools
import json
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from indepax import model
from indepax.errors import (EnumerationOverflowError, MalformedSentenceError,
                            ParseError)
from indepax.model import (And, Atom, Eq, Exists, Forall, Not, Or, Signature,
                           Structure, Theory, enumerate_models, entails,
                           infer_signature, models_of, parse_sentence,
                           preprocess, to_sexpr)


@pytest.fixture
def cycle3(binary_sig):
    return Structure.make(binary_sig, 3, {"R": [(0, 1), (1, 2), (2, 0)]})


class TestAst:
    def test_interning_gives_identity(self):
        a = parse_sentence("(forall x (exists y (atom R x y)))")
        b = Forall("x", Exists("y", Atom("R", ("x", "y"))))
        assert a is b

    def test_and_or_normalization(self):
        p = Atom("P", ("x",))
        assert And([p]) is p
        assert Or([p, p]) is p
        assert And([p, p, p]) is p
        assert len(And([p, Not(p)]).children) == 2

    def test_free_variables(self):
        f = Exists("x", And([Atom("R", ("x", "y")), Eq("x", "z")]))
        assert f.free == {"y", "z"}

    def test_equal_free_sets_are_one_object(self):
        nodes = [Atom("R", ("u", "w")), Eq("w", "u"),
                 Exists("v", And([Atom("R", ("u", "v")), Eq("v", "w")])),
                 Forall("v", Or([Atom("R", ("v", "w")), Not(Eq("u", "u"))])),
                 And([Atom("P", ("u",)), Atom("P", ("w",))])]
        assert all(n.free == {"u", "w"} for n in nodes)
        assert all(n.free is nodes[0].free for n in nodes)
        assert Exists("u", Atom("P", ("u",))).free is And(()).free

    def test_same_shape_built_twice_is_one_node(self):
        def build():
            p, r = Atom("P", ("x",)), Atom("R", ("x", "y"))
            return (Not(p), And([p, r]), Or([p, r]), Exists("y", r),
                    Forall("y", r), And([r, p]), Exists("x", r))
        first, second = build(), build()
        assert all(a is b for a, b in zip(first, second))
        # distinct shapes over the same children stay distinct
        assert len({id(n) for n in first}) == len(first)

    def test_round_trip(self):
        texts = [
            "(and (atom P x) (or (eq x y) (not (atom R x y))))",
            "(exists x (forall y (atom R x y)))",
            "(and)",
            "(or)",
        ]
        for t in texts:
            s = parse_sentence(t)
            assert parse_sentence(to_sexpr(s)) is s

    @pytest.mark.parametrize("bad, pos_known", [
        ("(exists x (atom P x", True),
        ("(foo x)", True),
        ("atom", True),
        ("(not (atom P x) (atom P x))", True),
        ("(eq x)", True),
        ("()", True),
        ("(and (atom P x)) trailing", True),
        ("(exists x (atom P))", True),
    ])
    def test_parse_errors(self, bad, pos_known):
        with pytest.raises(ParseError) as exc:
            parse_sentence(bad)
        if pos_known:
            assert exc.value.position is not None


class TestHashes:
    def test_equal_values_hash_equal(self, cycle3):
        sig = cycle3.signature
        twin = Structure.make(Signature((("R", 2),)), 3,
                              {"R": [(2, 0), (0, 1), (1, 2)]})
        assert twin is not cycle3 and twin == cycle3
        assert hash(twin) == hash(cycle3)
        assert hash(twin.signature) == hash(sig)
        assert hash(cycle3) == hash((sig, 3, cycle3.masks))

    def test_pickled_copy_rehashes(self, cycle3):
        # a cached hash is only valid in the process that computed it
        hash(cycle3), hash(cycle3.signature)
        copy = pickle.loads(pickle.dumps(cycle3))
        assert "_hash" not in vars(copy)
        assert "_hash" not in vars(copy.signature)
        assert copy == cycle3 and hash(copy) == hash(cycle3)


class TestEval:
    def test_cycle_has_out_edges(self, cycle3):
        assert model.eval(cycle3, parse_sentence("(forall x (exists y (atom R x y)))"))

    def test_cycle_has_no_loops(self, cycle3):
        assert not model.eval(cycle3, parse_sentence("(exists x (atom R x x))"))

    def test_empty_conjunction_true(self, cycle3):
        assert model.eval(cycle3, And(()))

    def test_empty_disjunction_false(self, cycle3):
        assert not model.eval(cycle3, Or(()))

    def test_formula_needs_assignment(self, cycle3):
        f = Atom("R", ("x", "y"))
        assert model.eval(cycle3, f, {"x": 0, "y": 1})
        assert not model.eval(cycle3, f, {"x": 1, "y": 0})
        with pytest.raises(MalformedSentenceError):
            model.eval(cycle3, f, {"x": 0})
        with pytest.raises(MalformedSentenceError):
            model.eval(cycle3, f, {"x": 0, "y": 5})

    def test_arity_mismatch_rejected(self, cycle3):
        with pytest.raises(MalformedSentenceError):
            model.eval(cycle3, parse_sentence("(exists x (atom R x x x))"))

    def test_unknown_relation_rejected(self, cycle3):
        with pytest.raises(MalformedSentenceError):
            model.eval(cycle3, parse_sentence("(exists x (atom Q x))"))

    def test_shadowing(self, cycle3):
        # inner x rebinds: exists x (R x x) is false, so the forall reads
        # the inner binding, not the outer one
        f = parse_sentence("(forall x (not (exists x (atom R x x))))")
        assert model.eval(cycle3, f)


class TestEnumeration:
    def test_unary_max2_has_5_classes(self, unary_space):
        assert len(unary_space.representatives) == 5

    def test_empty_signature_counts_sizes(self):
        space = enumerate_models(Signature(()), 3)
        assert len(space.representatives) == 3
        assert sorted(r.size for r in space.representatives) == [1, 2, 3]

    def test_binary_max2_class_count(self, binary_sig):
        # frozen from the permutation-dedup oracle: 2 classes of size 1,
        # 10 of size 2
        space = enumerate_models(binary_sig, 2)
        assert len(space.representatives) == 12

    def test_binary_max4_class_count(self, binary_sig):
        # 2 + 10 + 104 + 3044, the known counts of binary relations on
        # up to four points taken up to relabeling
        space = enumerate_models(binary_sig, 4)
        assert len(space.representatives) == 3160

    def test_no_two_representatives_isomorphic(self, binary_space):
        from indepax.verify import oracle_isomorphic
        reps = binary_space.representatives
        assert len(reps) == 116
        for i in range(0, len(reps), 7):
            for j in range(i + 1, len(reps), 13):
                assert not oracle_isomorphic(reps[i], reps[j])[0]

    def test_every_labeled_structure_covered(self, binary_sig):
        import itertools
        import random
        from indepax.verify import oracle_isomorphic
        space = enumerate_models(binary_sig, 2)
        rng = random.Random(3)
        for _ in range(25):
            n = rng.randint(1, 2)
            table = [t for t in itertools.product(range(n), repeat=2)
                     if rng.random() < 0.5]
            M = Structure.make(binary_sig, n, {"R": table})
            assert any(oracle_isomorphic(M, r)[0]
                       for r in space.representatives if r.size == n)

    def test_overflow_cap(self, binary_sig):
        with pytest.raises(EnumerationOverflowError):
            enumerate_models(binary_sig, 3, class_cap=10)
        with pytest.raises(EnumerationOverflowError):
            enumerate_models(binary_sig, 6, labeled_cap=1000)

    @pytest.mark.parametrize("relations,max_size,digest", [
        ((("P", 1), ("R", 2)), 3,
         "18f29bf1302b8ebbb73f7c827508f72bb078a6b217df8e2b3cf2d00cc3568642"),
        ((("R", 2),), 4,
         "c72bedadfa570eb91b943b2a121a9b4ed1088931e33caccf178b6f6e91f0713c"),
        ((("P", 1), ("R", 2)), 4,
         "362d6b3312158261fd923089c93e35af4006ed067a14fcf8d23836fbc5c30542"),
    ])
    def test_representatives_are_pinned(self, relations, max_size, digest):
        # digests of the spaces enumerated by taking the least relabeling
        # of every labeled structure: 792, 3,160 and 46,752 classes
        space = enumerate_models(Signature(relations), max_size)
        text = repr([(M.size, M.masks) for M in space.representatives])
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("relations,max_size", [
        ((("R", 2),), 3),
        ((("P", 1), ("R", 2)), 2),
        ((("Q", 1), ("T", 3)), 2),
        ((), 3),
    ])
    def test_least_relabelings_of_all_labeled_structures(self, relations,
                                                         max_size):
        sig = Signature(relations)
        want = set()
        for n in range(1, max_size + 1):
            cells = [list(itertools.product(range(n), repeat=arity))
                     for _name, arity in relations]
            for picks in itertools.product(*(
                    itertools.product((False, True), repeat=len(c))
                    for c in cells)):
                M = Structure.make(sig, n, {
                    name: itertools.compress(c, pick) for (name, _arity), c,
                    pick in zip(relations, cells, picks)})
                want.add((n, min(M.apply_permutation(p).masks
                                 for p in itertools.permutations(range(n)))))
        reps = enumerate_models(sig, max_size).representatives
        assert [(M.size, M.masks) for M in reps] == sorted(want)
        # a representative's tables are those its masks encode
        names = [name for name, _arity in relations]
        assert all(Structure.make(sig, M.size, dict(zip(names, M.tables)))
                   .masks == M.masks for M in reps)

    def test_representatives_keep_only_their_masks(self):
        import tracemalloc
        sig = Signature((("P", 1), ("R", 2)))
        enumerate_models(sig, 3)  # fill the per-size caches first
        tracemalloc.start()
        try:
            space = enumerate_models(sig, 3)
            held, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a Structure and its masks tuple take about 120 bytes per class; a
        # frozenset of tuples per relation took about 900 more
        assert len(space.representatives) == 792
        assert held <= 400 * 792

    def test_representatives_have_least_masks(self, binary_space):
        import itertools
        # a representative's masks are the least over all its relabelings
        for rep in binary_space.representatives[::11]:
            assert rep.masks == min(
                rep.apply_permutation(p).masks
                for p in itertools.permutations(range(rep.size)))


class TestSpaceQueries:
    def test_models_of_filters(self, unary_space):
        T = Theory.of([parse_sentence("(exists x (atom P x))")])
        assert len(models_of(T, unary_space)) == 3

    def test_models_of_empty_theory(self, unary_space):
        assert len(models_of(Theory.of([]), unary_space)) == 5

    def test_models_of_contradiction(self, unary_space):
        assert models_of(Theory.of([model.CONTRADICTION]), unary_space) == []

    def test_entails_valid(self, unary_space):
        ok, witness = entails(Theory.of([parse_sentence("(forall x (atom P x))")]),
                              parse_sentence("(exists x (atom P x))"),
                              unary_space)
        assert ok and witness is None

    def test_entails_from_empty_theory(self, unary_space):
        ok, _ = entails(Theory.of([]), model.TAUTOLOGY, unary_space)
        assert ok

    def test_entails_counterexample_is_size2_mixed(self, unary_space):
        ok, witness = entails(Theory.of([parse_sentence("(exists x (atom P x))")]),
                              parse_sentence("(forall x (atom P x))"),
                              unary_space)
        assert not ok
        assert witness.size == 2
        assert len(witness.table("P")) == 1

    def test_preprocess_drops_valid(self, unary_space):
        T = Theory.of([model.TAUTOLOGY, parse_sentence("(exists x (atom P x))")])
        out = preprocess(T, unary_space)
        assert len(out) == 1
        assert out.sentences[0] is parse_sentence("(exists x (atom P x))")

    def test_preprocess_inconsistent(self, unary_space):
        T = Theory.of([parse_sentence("(forall x (atom P x))"),
                       parse_sentence("(exists x (not (atom P x)))")])
        out = preprocess(T, unary_space)
        assert out.sentences == (model.CONTRADICTION,)

    def test_preprocess_empty(self, unary_space):
        assert len(preprocess(Theory.of([]), unary_space)) == 0

    def test_preprocess_preserves_models(self, unary_space):
        T = Theory.of([model.TAUTOLOGY, parse_sentence("(forall x (atom P x))")])
        out = preprocess(T, unary_space)
        assert unary_space.theory_mask(T) == unary_space.theory_mask(out)

    def test_entails_matches_model_difference(self, ub_space):
        # entails(T, s) is false iff T has a model the extended theory lacks
        import random
        from indepax import generators
        rng = random.Random(6)
        for _ in range(15):
            T = generators.random_theory(rng, ub_space, max_sentences=2,
                                         depth=3, require_consistent=False)
            s = generators.random_formula(rng, 3)
            ok, _ = entails(T, s, ub_space)
            with_s = list(T.sentences) + [s]
            diff = set(map(id, models_of(T, ub_space))) - \
                set(map(id, models_of(Theory.of(with_s), ub_space)))
            assert ok == (not diff)

    def test_empty_signature_space(self):
        space = enumerate_models(Signature(()), 2)
        T = Theory.of([parse_sentence(
            "(exists x (exists y (not (eq x y))))")])
        assert [m.size for m in models_of(T, space)] == [2]

    def test_preprocess_keeps_labels(self, unary_space):
        T = Theory.of([model.TAUTOLOGY, parse_sentence("(exists x (atom P x))")],
                      ["a", "b"])
        assert preprocess(T, unary_space).labels == ("b",)

    def test_satset_matches_direct_eval(self, ub_space):
        import random
        from indepax import generators
        rng = random.Random(1)
        sentences = [generators.random_formula(rng, 3) for _ in range(20)]
        # boolean combinations go first, while their children are uncached
        sentences += [model.And(sentences[0:3]), model.Or(sentences[3:6]),
                      model.Not(sentences[6]),
                      model.Or([model.And([sentences[7], model.Not(sentences[8])]),
                                model.Not(model.Or(sentences[9:11]))])]
        fresh = model.ModelSpace(ub_space.signature, ub_space.max_size,
                                 ub_space.representatives)
        for s in reversed(sentences):
            mask = fresh.satset(s)
            assert 0 <= mask <= fresh.full_mask
            for i in range(0, len(fresh.representatives), 37):
                assert bool((mask >> i) & 1) == model.eval(
                    fresh.representatives[i], s)

    def test_elem_satset_of_negation_matches_direct_eval(self, ub_sig):
        import random
        from indepax import generators
        rng = random.Random(3)
        space = enumerate_models(ub_sig, 2)
        opened = [f for f in (generators.random_formula(rng, 3, ("x",))
                              for _ in range(40)) if f.free == {"x"}][:8]
        closed = [generators.random_formula(rng, 3) for _ in range(4)]
        assert opened and closed
        for f in opened + closed:
            # the negation goes first, while f's own sets are uncached
            neg = space.elem_satset(Not(f), "x")
            pos = space.elem_satset(f, "x")
            for rep, n, p in zip(space.representatives, neg, pos):
                full = (1 << rep.size) - 1
                assert 0 <= n <= full and 0 <= p <= full
                for e in range(rep.size):
                    assert bool((n >> e) & 1) == model.eval(rep, Not(f), {"x": e})
                    assert bool((p >> e) & 1) == model.eval(rep, f, {"x": e})


class TestConcurrency:
    def test_shared_space_queries_are_reentrant(self, ub_space):
        # values are immutable and caches idempotent: hammer one space from
        # several threads and compare against the single-threaded answers.
        # There are more sentences than the program cache holds, so threads
        # share compiled programs and also evict and recompile them.
        import random
        import sys
        from concurrent.futures import ThreadPoolExecutor
        from indepax import generators
        rng = random.Random(13)
        sentences = [generators.random_formula(rng, 3)
                     for _ in range(2 * model.PROGRAM_CACHE_SIZE)]
        expected = {id(s): model.ModelSpace(
            ub_space.signature, ub_space.max_size,
            ub_space.representatives).satset(s) for s in sentences}
        shared = model.ModelSpace(ub_space.signature, ub_space.max_size,
                                  ub_space.representatives)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(shared.satset, sentences * 4,
                                        timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for s, got in zip(sentences * 4, results):
            assert got == expected[id(s)]


class TestProgramCache:
    def test_cache_is_bounded_and_evicted_programs_recompile(self, ub_space):
        import os
        import random
        import tracemalloc
        from indepax import _kernel, generators
        cap = model.PROGRAM_CACHE_SIZE
        rng = random.Random(29)
        sentences = list({id(s): s for s in (generators.random_formula(rng, 4)
                                             for _ in range(8 * cap))}.values())
        assert len(sentences) > 4 * cap
        reps = ub_space.representatives[::40]
        compiled = model.compile_sentence
        compiled.cache_clear()
        kernel_files = tracemalloc.Filter(
            True, os.path.join(os.path.dirname(_kernel.__file__), "*"))
        tracemalloc.start()
        try:
            first = [[model.eval(M, s) for M in reps] for s in sentences]
            held = sum(stat.size for stat in tracemalloc.take_snapshot()
                       .filter_traces([kernel_files]).statistics("filename"))
        finally:
            tracemalloc.stop()
        info = compiled.cache_info()
        assert info.currsize == cap
        # the last sentences' programs are the cached ones (no new miss);
        # the kernel keeps under 500 bytes per node of them, and an
        # unbounded cache would keep every program
        cached_nodes = sum(len(compiled(s, ub_space.signature, ()).ops)
                           for s in sentences[-cap:])
        assert compiled.cache_info().misses == info.misses
        assert held < 1000 * cached_nodes
        # the first sentence was evicted: it compiles again, same answers
        assert [model.eval(M, sentences[0]) for M in reps] == first[0]
        assert compiled.cache_info().misses == info.misses + 1


@st.composite
def _structure_inputs(draw):
    arities = draw(st.lists(st.integers(1, 3), max_size=3))
    sig = Signature(tuple((f"R{i}", a) for i, a in enumerate(arities)))
    size = draw(st.integers(1, 4))
    point = st.integers(0, size - 1)
    rows = {name: draw(st.lists(st.tuples(*[point] * arity), max_size=12))
            for name, arity in sig.relations}
    return sig, size, rows


class TestJson:
    @settings(max_examples=150, deadline=None)
    @given(_structure_inputs())
    def test_made_structure_round_trips(self, inputs):
        sig, size, rows = inputs
        M = Structure.make(sig, size, rows)
        assert M.tables == tuple(frozenset(rows[name])
                                 for name, _arity in sig.relations)
        data = json.loads(json.dumps(model.structure_to_json(M)))
        assert model.structure_from_json(data) == M

    def test_structure_round_trip(self, cycle3):
        data = model.structure_to_json(cycle3)
        assert data == {
            "signature": [{"name": "R", "arity": 2}],
            "size": 3,
            "relations": {"R": [[0, 1], [1, 2], [2, 0]]},
        }
        assert model.structure_from_json(json.loads(json.dumps(data))) == cycle3

    def test_structure_validation(self, binary_sig):
        with pytest.raises(ParseError):
            Structure.make(binary_sig, 2, {"R": [(0, 2)]})
        with pytest.raises(ParseError):
            Structure.make(binary_sig, 2, {"R": [(0,)]})
        with pytest.raises(ParseError):
            Structure.make(binary_sig, 0, {})
        with pytest.raises(ParseError):
            Structure.make(binary_sig, 2, {"Q": [(0, 1)]})

    def test_theory_round_trip(self):
        T = Theory.of([parse_sentence("(exists x (atom P x))"),
                       parse_sentence("(forall x (eq x x))")])
        back = model.theory_from_json(model.theory_to_json(T))
        assert back.sentences == T.sentences

    def test_infer_signature(self):
        T = model.theory_from_json(
            ["(exists x (atom P x))",
             "(forall x (exists y (atom R x y)))"])
        sig = infer_signature(T.sentences)
        assert sig.relations == (("P", 1), ("R", 2))

    def test_infer_signature_arity_conflict(self):
        sentences = [parse_sentence("(exists x (atom R x x))"),
                     parse_sentence("(exists x (atom R x))")]
        with pytest.raises(ParseError):
            infer_signature(sentences)
