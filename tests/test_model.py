import hashlib
import itertools
import json
import pickle
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from indepax import _kernel, model, scott, setfam
from indepax._kernel import pure
from indepax.errors import (EnumerationOverflowError, MalformedSentenceError,
                            ParseError, PreconditionError)
from indepax.model import (And, Atom, Eq, Exists, Forall, Not, Or, Signature,
                           Structure, Theory, enumerate_models, entails,
                           infer_signature, models_of, parse_sentence,
                           preprocess, to_sexpr)
from test_properties import elem_blocks, reference_holds


# the message and the position of the error in each malformed text
PARSE_ERRORS = {
    "(exists x (atom P x": ("unclosed '('", 18),
    "(foo x)": ("unknown operator 'foo'", 1),
    "atom": ("expected '('", 0),
    "(not (atom P x) (atom P x))": ("not takes one argument", 1),
    "(eq x)": ("eq takes two variables", 1),
    "()": ("empty expression", 0),
    "(and (atom P x)) trailing": ("trailing input after sentence", 17),
    "(exists x (atom P))": ("atom P needs at least one argument", 11),
    ")": ("unmatched ')'", 0),
    "": ("unexpected end of input", None),
    "((atom P x))": ("operator must be a symbol", 0),
    "(exists (atom P x) (atom P x))": ("expected variable", 8),
    "(atom (atom P x) y)": ("expected relation name", 6),
    "(atom P (eq x y))": ("expected variable", 8),
    "(not x)": ("expected a subexpression, got 'x'", 5),
    "(and (atom P x)) )": ("trailing input after sentence", 17),
    "(foo (bar": ("unclosed '('", 6),
    "(" * 401: ("expression too deeply nested", 400),
}


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

    def test_sexpr_length_is_the_text_length(self, ub_space):
        import random
        from indepax import generators
        rng = random.Random(59)
        sentences = [generators.random_formula(rng, 6) for _ in range(200)]
        sentences += [scott.scott_sentence(M)
                      for M in ub_space.representatives[::80]]
        for s in sentences:
            assert model.sexpr_length(s) == len(to_sexpr(s))

    @pytest.mark.parametrize("bad, pos_known", [
        (bad, position is not None)
        for bad, (_message, position) in PARSE_ERRORS.items()])
    def test_parse_errors(self, bad, pos_known):
        message, position = PARSE_ERRORS[bad]
        with pytest.raises(ParseError) as exc:
            parse_sentence(bad)
        assert exc.value.position == position
        suffix = f" (at position {position})" if pos_known else ""
        assert str(exc.value) == message + suffix

    def test_parse_memory_follows_distinct_nodes(self, cycle3):
        # the 3-cycle's Scott sentence prints as 597,064 characters; with
        # its nodes interned, reading the text back holds only the open
        # frames
        s = scott.scott_sentence(cycle3)
        text = to_sexpr(s)
        tracemalloc.start()
        try:
            assert parse_sentence(text) is s
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


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


class TestValueTypes:
    """The contract of the immutable value types, whatever implements it."""

    @pytest.fixture
    def values(self, cycle3):
        return [cycle3.signature, cycle3,
                Theory.of([parse_sentence("(exists x (atom R x x))")]),
                scott.TypeId(1, 2), setfam.SetFamily(3, (0b011, 0b110))]

    @pytest.fixture
    def twins(self):
        # each built afresh from equal fields, so no object is shared
        sig = Signature((("R", 2),))
        return [sig, Structure.make(sig, 3, {"R": [(1, 2), (0, 1), (2, 0)]}),
                Theory((parse_sentence("(exists x (atom R x x))"),),
                       ("input[0]",)),
                scott.TypeId(1, 2),
                setfam.SetFamily(3, (3, 6), ("set[0]", "set[1]"))]

    @pytest.fixture
    def field_tuples(self, values):
        sig, M, T, tid, F = values
        return [(sig.relations,), (sig, M.size, M.masks),
                (T.sentences, T.labels), (1, 2),
                (F.universe_size, F.sets, F.labels)]

    @pytest.mark.parametrize("index, field", [
        (0, "relations"), (1, "size"), (1, "masks"), (2, "labels"),
        (3, "level"), (4, "sets"), (4, "labels")])
    def test_fields_cannot_be_assigned(self, values, index, field):
        value = values[index]
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, before)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) is before

    def test_equal_fields_compare_and_hash_equal(self, values, twins):
        for value, twin in zip(values, twins):
            assert twin is not value
            assert twin == value and not twin != value
            assert hash(twin) == hash(value)

    def test_hash_is_the_hash_of_the_fields(self, values, field_tuples):
        for value, fields in zip(values, field_tuples):
            assert hash(value) == hash(fields)

    def test_different_classes_never_compare_equal(self, values,
                                                   field_tuples):
        # nor does a value equal the tuple of its own fields
        for value, fields in zip(values, field_tuples):
            assert value.__eq__(fields) is NotImplemented
            assert value != fields
            for other in values:
                if other is not value:
                    assert value != other and not value == other

    def test_repr_names_the_fields(self, values):
        assert repr(values[3]) == "TypeId(level=1, class_index=2)"
        assert repr(values[0]) == "Signature(relations=(('R', 2),))"
        assert repr(values[4]) == (
            "SetFamily(universe_size=3, sets=(3, 6), "
            "labels=('set[0]', 'set[1]'))")

    def test_pickled_copies_are_equal_and_rehash(self, values):
        # interned sentence nodes do not pickle, so no Theory is copied
        for value in values[:2] + values[3:]:
            hash(value)
            copy = pickle.loads(pickle.dumps(value))
            assert copy is not value
            assert copy == value and hash(copy) == hash(value)
        M = pickle.loads(pickle.dumps(values[1]))
        assert "_hash" not in vars(M)
        hash(M)
        assert "_hash" in vars(M)


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

    def test_overflow_cap(self, binary_sig, monkeypatch):
        with pytest.raises(EnumerationOverflowError):
            enumerate_models(binary_sig, 3, class_cap=10)
        monkeypatch.setattr(model, "MAX_LABELED_STRUCTURES", 1000)
        with pytest.raises(EnumerationOverflowError):
            enumerate_models(binary_sig, 6)

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
        # and canonical_key finds that least key from the masks alone,
        # without deriving the tables
        for rep in binary_space.representatives:
            fresh = model.Structure(rep.signature, rep.size, rep.masks)
            assert model.canonical_key(fresh) == rep.masks
            assert "tables" not in vars(fresh)


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
            T = Theory.of([generators.random_formula(rng, 3)
                           for _ in range(rng.randint(1, 2))])
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
            neg = elem_blocks(space, space.elem_satset(Not(f), "x"))
            pos = elem_blocks(space, space.elem_satset(f, "x"))
            for rep, n, p in zip(space.representatives, neg, pos):
                full = (1 << rep.size) - 1
                assert 0 <= n <= full and 0 <= p <= full
                for e in range(rep.size):
                    assert bool((n >> e) & 1) == model.eval(rep, Not(f), {"x": e})
                    assert bool((p >> e) & 1) == model.eval(rep, f, {"x": e})


class TestElementSetAlgebra:
    """``elem_satset`` of boolean formulas, and ``satset`` of a quantifier
    over such a formula, against per-element and per-structure evaluation
    and ``reference_holds``."""

    @staticmethod
    def parts(seed):
        """Seeded triples of two formulas in x and one closed sentence."""
        import random
        from indepax import generators
        rng = random.Random(seed)
        opened = [f for f in (generators.random_formula(rng, 2, ("x",))
                              for _ in range(60)) if f.free == {"x"}]
        closed = [generators.random_formula(rng, 2) for _ in range(6)]
        return [(opened[2 * i], opened[2 * i + 1], c)
                for i, c in enumerate(closed)]

    @classmethod
    def bodies(cls, seed):
        """Seeded one-variable boolean formulas, each with open and closed
        parts."""
        out = []
        for a, b, c in cls.parts(seed):
            out += [And([a, Not(c)]), Or([Not(a), b, c]),
                    Not(And([Or([a, c]), Not(b)]))]
        return out

    @staticmethod
    def per_element(rep, f):
        return sum(model.eval(rep, f, {"x": e}) << e for e in range(rep.size))

    @staticmethod
    def per_structure(space, sentence):
        return sum(model.eval(rep, sentence) << i
                   for i, rep in enumerate(space.representatives))

    @pytest.fixture
    def evals(self, monkeypatch):
        """Every ``model.eval`` call from here on, in order."""
        calls = []
        real = model.eval

        def counting(M, sentence, assignment=None):
            calls.append(sentence)
            return real(M, sentence, assignment)
        monkeypatch.setattr(model, "eval", counting)
        return calls

    def test_boolean_formula_matches_per_element_eval(self, ub_sig):
        space = enumerate_models(ub_sig, 2)
        for f in self.bodies(5):
            for rep, m in zip(space.representatives,
                              elem_blocks(space, space.elem_satset(f, "x"))):
                assert m == self.per_element(rep, f), to_sexpr(f)
        # a closed part holds at all or none of a structure's elements
        for _a, _b, c in self.parts(5):
            for rep, m in zip(space.representatives,
                              elem_blocks(space, space.elem_satset(c, "x"))):
                full = (1 << rep.size) - 1
                assert m == (full if reference_holds(rep, c) else 0)

    def test_other_free_variables_are_refused(self, ub_sig):
        # also once a formula over the same node is cached
        space = enumerate_models(ub_sig, 2)
        r = Atom("R", ("x", "y"))
        space.elem_satset(Exists("y", r), "x")
        for var in ("x", "z"):
            with pytest.raises(MalformedSentenceError):
                space.elem_satset(r, var)

    @pytest.fixture
    def quantified_calls(self, monkeypatch):
        """The width of every ``eval_program`` call from here on that runs
        a quantified program, in order."""
        calls = []
        real = _kernel.active.eval_program

        def counting(prog, size, masks, env0, width=1):
            if prog.rank:
                calls.append(width)
            return real(prog, size, masks, env0, width)
        monkeypatch.setattr(_kernel.active, "eval_program", counting)
        return calls

    @staticmethod
    def run_by_run(space):
        """The widths of the kernel calls that evaluate a quantified
        formula over ``space``: per run, one call per element value."""
        return [width for _start, width, size, _masks in space.runs
                for _e in range(size)]

    def test_quantified_child_is_evaluated_where_open(self, ub_sig, evals,
                                                      quantified_calls):
        # a quantified child is evaluated run by run at every element, with
        # no ``model.eval``, and its set is kept: a later formula reads it
        space = enumerate_models(ub_sig, 2)
        p = Atom("P", ("x",))
        q = Exists("y", Atom("R", ("x", "y")))
        for f, cost in ((And([q, p]), self.run_by_run(space)),
                        (Or([q, p]), [])):
            before = len(quantified_calls)
            got = space.elem_satset(f, "x")
            assert quantified_calls[before:] == cost
            assert evals.count(q) == 0
            assert (id(q), "x") in space._elemsets
            for rep, m in zip(space.representatives,
                              elem_blocks(space, got)):
                assert m == self.per_element(rep, f)

    def test_quantified_part_is_evaluated_once_per_element(
            self, ub_sig, monkeypatch, quantified_calls):
        space = enumerate_models(ub_sig, 2)
        p, r = Atom("P", ("x",)), Atom("R", ("x", "x"))
        q = Exists("y", Atom("R", ("x", "y")))
        seen = []
        real = model.eval

        def counting(M, sentence, assignment=None):
            if sentence is q:
                seen.append((id(M), assignment["x"]))
            return real(M, sentence, assignment)
        monkeypatch.setattr(model, "eval", counting)
        # q is a part of each; its set is computed by the first, run by
        # run, and read from the cache by the others and when asked alone
        # (the per-element checks run q's program too, so the calls are
        # counted around ``elem_satset`` alone)
        calls = []
        for f in (And([q, p]), And([r, q]), Or([q, p]), Or([Not(r), q])):
            before = len(quantified_calls)
            got = space.elem_satset(f, "x")
            calls += quantified_calls[before:]
            assert (id(q), "x") in space._elemsets
            assert not seen
            for rep, m in zip(space.representatives,
                              elem_blocks(space, got)):
                assert m == self.per_element(rep, f)
        assert calls == self.run_by_run(space)
        before = len(quantified_calls)
        got = space.elem_satset(q, "x")
        assert got is space._elemsets[(id(q), "x")]
        assert len(quantified_calls) == before
        for rep, m in zip(space.representatives, elem_blocks(space, got)):
            assert m == self.per_element(rep, q)

    def test_quantifier_over_cached_parts_reads_element_sets(self, ub_sig,
                                                            evals):
        space = enumerate_models(ub_sig, 2)
        reps = space.representatives
        p, r = Atom("P", ("x",)), Atom("R", ("x", "x"))
        # fails at the element with P and without R(x, x)
        fails_once = Or([Not(p), r])
        no_var = And([parse_sentence("(exists y (atom P y))"),
                      Not(parse_sentence("(forall y (atom R y y))"))])
        bodies = self.bodies(7) + [fails_once, no_var]
        for body in bodies:
            space.elem_satset(body, "x")
        one_fails = [i for i, (rep, m, full) in enumerate(zip(
            reps, elem_blocks(space, space.elem_satset(fails_once, "x")),
            elem_blocks(space, space.elem_full)))
            if rep.size > 1 and bin(full & ~m).count("1") == 1]
        assert one_fails
        for body in bodies:
            for quantifier in (Exists, Forall):
                s = quantifier("x", body)
                before = len(evals)
                got = space.satset(s)
                assert len(evals) == before, to_sexpr(s)
                assert got == self.per_structure(space, s), to_sexpr(s)
                assert got == sum(reference_holds(rep, s) << i
                                  for i, rep in enumerate(reps))
        forall = space.satset(Forall("x", fails_once))
        assert not any((forall >> i) & 1 for i in one_fails)
        assert (space.satset(Exists("x", no_var))
                == space.satset(no_var))

    def test_fresh_space_evaluates_per_representative(self, ub_sig, evals,
                                                      monkeypatch):
        # per representative at rank 1; at rank >= 2 one kernel call per
        # run of same-size representatives, with no ``model.eval``
        space = enumerate_models(ub_sig, 2)
        n = len(space.representatives)
        widths = [width for _start, width, _size, _masks in space.runs]
        kernel_calls = []
        real = _kernel.active.eval_program

        def counting(prog, size, masks, env0, width=1):
            kernel_calls.append(width)
            return real(prog, size, masks, env0, width)
        monkeypatch.setattr(_kernel.active, "eval_program", counting)
        for a, b, c in self.parts(11):
            for quantifier in (Exists, Forall):
                for body in (And([a, Not(c)]), Or([Not(a), b, c])):
                    fresh = model.ModelSpace(space.signature, space.max_size,
                                             space.representatives)
                    s = quantifier("x", body)
                    assert model.quantifier_rank(s) > 1
                    before = len(evals)
                    kernel_calls.clear()
                    fresh.satset(s)
                    assert len(evals) == before, to_sexpr(s)
                    assert kernel_calls == widths, to_sexpr(s)
                # a cached, b not: still one kernel call per run
                half = model.ModelSpace(space.signature, space.max_size,
                                        space.representatives)
                half.elem_satset(a, "x")
                s = quantifier("x", And([a, Or([b, c])]))
                before = len(evals)
                kernel_calls.clear()
                got = half.satset(s)
                assert len(evals) == before, to_sexpr(s)
                assert kernel_calls == widths, to_sexpr(s)
                assert got == fresh.satset(s)
        s = Exists("x", And([Atom("P", ("x",)), Atom("R", ("x", "x"))]))
        before = len(evals)
        model.ModelSpace(space.signature, space.max_size,
                         space.representatives).satset(s)
        assert len(evals) - before == n

    def test_deepest_and_not_chain(self, ub_sig, evals):
        text = "(atom P x)"
        for i in reversed(range(model.MAX_PARSE_DEPTH - 1)):
            text = (f"(not {text})" if i % 2
                    else f"(and (atom R x x) {text})")
        chain = parse_sentence(text)
        with pytest.raises(ParseError, match="too deeply nested"):
            parse_sentence(f"(not {text})")
        space = enumerate_models(ub_sig, 2)
        elems = elem_blocks(space, space.elem_satset(chain, "x"))
        for rep, m in zip(space.representatives, elems):
            assert m == self.per_element(rep, chain)
        before = len(evals)
        got = space.satset(Exists("x", chain))
        assert len(evals) == before
        assert got == sum(bool(m) << i for i, m in enumerate(elems))
        assert got == self.per_structure(space, Exists("x", chain))


class TestElementSetLayout:
    """The element-set bit layout on spaces whose runs are awkward: a
    strided space with runs of widths 1, 3 and 62, and a hand-built one
    whose sizes are out of order, so that one size forms several runs."""

    @pytest.fixture
    def spaces(self, ub_space):
        strided = model.ModelSpace(ub_space.signature, ub_space.max_size,
                                   ub_space.representatives[::12])
        assert [w for _s, w, _z in strided.size_runs] == [1, 3, 62]
        by_size = {}
        for rep in ub_space.representatives:
            by_size.setdefault(rep.size, []).append(rep)
        picks = (by_size[2][5], by_size[2][3], by_size[1][0], by_size[2][9],
                 by_size[3][40], by_size[3][7], by_size[1][1], by_size[1][2])
        mixed = model.ModelSpace(ub_space.signature, ub_space.max_size,
                                 picks)
        assert mixed.size_runs == ((0, 2, 2), (2, 1, 1), (3, 1, 2),
                                   (4, 2, 3), (6, 2, 1))
        return strided, mixed

    def test_open_formulas_match_per_element_eval(self, spaces):
        import random
        from indepax import generators
        rng = random.Random(13)
        opened = [f for f in (generators.random_formula(rng, 3, ("x",))
                              for _ in range(60)) if f.free == {"x"}][:12]
        opened += TestElementSetAlgebra.bodies(13)
        for space in spaces:
            assert space.elem_full == (1 << sum(
                rep.size for rep in space.representatives)) - 1
            for f in opened:
                got = elem_blocks(space, space.elem_satset(f, "x"))
                assert got == tuple(
                    TestElementSetAlgebra.per_element(rep, f)
                    for rep in space.representatives), to_sexpr(f)

    def test_quantified_formulas_match_per_element_eval(self, spaces):
        import random
        from indepax import generators
        rng = random.Random(29)
        by_rank = {1: [], 2: [], 3: []}
        while min(map(len, by_rank.values())) < 4:
            f = generators.random_formula(rng, 3, ("x",))
            rank = model.quantifier_rank(f)
            if (type(f) in (Exists, Forall) and f.free == {"x"}
                    and rank in by_rank and len(by_rank[rank]) < 4):
                by_rank[rank].append(f)
        parts = [f for fs in by_rank.values() for f in fs]
        # the combinations first, while their parts' sets are not cached
        opened = [g for a, b in zip(parts[::2], parts[1::2])
                  for g in (And([a, Not(b)]), Or([Not(a), b]))] + parts
        for space in spaces:
            for f in opened:
                got = elem_blocks(space, space.elem_satset(f, "x"))
                assert got == tuple(
                    TestElementSetAlgebra.per_element(rep, f)
                    for rep in space.representatives), to_sexpr(f)
                assert got == tuple(
                    sum(reference_holds(rep, f, {"x": e}) << e
                        for e in range(rep.size))
                    for rep in space.representatives), to_sexpr(f)

    def test_closed_parts_lift_to_whole_blocks(self, spaces):
        for space in spaces:
            for _a, _b, c in TestElementSetAlgebra.parts(17):
                got = elem_blocks(space, space.elem_satset(c, "x"))
                assert got == tuple(
                    (1 << rep.size) - 1 if model.eval(rep, c) else 0
                    for rep in space.representatives), to_sexpr(c)

    def test_read_offs_match_per_structure_eval(self, spaces,
                                                 monkeypatch):
        calls = []
        real = model.eval

        def counting(M, sentence, assignment=None):
            calls.append(sentence)
            return real(M, sentence, assignment)
        for space in spaces:
            bodies = TestElementSetAlgebra.bodies(19)
            for body in bodies:
                space.elem_satset(body, "x")
            for body in bodies:
                for quantifier in (Exists, Forall):
                    s = quantifier("x", body)
                    monkeypatch.setattr(model, "eval", counting)
                    got = space.satset(s)
                    monkeypatch.undo()
                    # read off the element sets: no evaluation
                    assert not calls, to_sexpr(s)
                    assert got == TestElementSetAlgebra.per_structure(
                        space, s), to_sexpr(s)


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
        # a program's runners are made in the kernel, the tuples of their
        # children and the cache's entries in model.py
        program_files = [
            tracemalloc.Filter(
                True, os.path.join(os.path.dirname(_kernel.__file__), "*")),
            tracemalloc.Filter(True, model.__file__)]
        tracemalloc.start()
        try:
            first = [[model.eval(M, s) for M in reps] for s in sentences]
            held = sum(stat.size for stat in tracemalloc.take_snapshot()
                       .filter_traces(program_files).statistics("filename"))
        finally:
            tracemalloc.stop()
        info = compiled.cache_info()
        assert info.currsize == cap
        # the last sentences' programs are the cached ones (no new miss);
        # they hold under 1,000 bytes per node, and an unbounded cache
        # would keep every program
        cached_nodes = sum(len(compiled(s, ub_space.signature, ()).ops)
                           for s in sentences[-cap:])
        assert compiled.cache_info().misses == info.misses
        assert held < 1000 * cached_nodes
        # the first sentence was evicted: it compiles again, same answers
        assert [model.eval(M, sentences[0]) for M in reps] == first[0]
        assert compiled.cache_info().misses == info.misses + 1

    def test_node_counts_are_pinned(self, ub_space):
        # one runner per DAG node, slots of its free variables and, for a
        # node with quantifiers, first slot they bind, each case compiled
        # afresh; the last nine are the Hintikka builder's formulas, whose
        # literals recur at several quantifier depths with one runner
        import random
        from indepax import generators, scott
        sig = ub_space.signature
        rng = random.Random(41)
        cases = [(generators.random_formula(rng, 7), ()) for _ in range(6)]
        cases += [(generators.random_formula(rng, 6, ("x",)), ("x",))
                  for _ in range(4)]
        for i in (5, 100, 400):
            M = ub_space.representatives[i]
            cases += [(scott.scott_sentence(M), ()),
                      (scott.type_formula(M, (0,), 2), ("x0",)),
                      (scott.type_formula(M, (1, 0), 1), ("x1", "x0"))]
        counts = [len(_compile_fresh(s, sig, order).ops)
                  for s, order in cases]
        assert counts == [5, 10, 6, 6, 9, 3, 1, 22, 4, 5, 80, 51, 37, 408,
                          64, 37, 315, 57, 36]
        assert counts == [len(model._postorder(s)) for s, _ in cases]

    def test_quantified_runner_reused_deeper_keeps_the_live_slot(self):
        # ``(exists y (atom R x y))`` occurs under one quantifier, binding y
        # to slot 2, and inside ``forall z``, where z holds slot 2; there it
        # gets its own runner, which binds y to slot 3, so ``(atom R x z)``
        # still reads z.  The first disjunct is false, so the sentence says
        # what ``equivalent`` says
        s = parse_sentence(
            "(exists w (or (exists x (and (not (eq x x)) "
            "(exists y (atom R x y)))) (exists x (forall z "
            "(and (exists y (atom R x y)) (atom R x z))))))")
        equivalent = parse_sentence("(exists x (forall z (atom R x z)))")
        sig = Signature((("R", 2),))
        model.compile_sentence.cache_clear()
        assert not model.eval(Structure.make(sig, 2, {"R": [(0, 1)]}), s)
        space = enumerate_models(sig, 3)
        assert space.satset(s) == space.satset(equivalent)
        assert bin(space.satset(s)).count("1") == 39


# Sentences whose tree expansion no evaluation could walk: each binds
# ``sentence`` and calls ``prepare`` on what a run compiles first.
#: 60 levels, each reaching the one below twice: a DAG of 2**60 paths
_SHARED_DAG = """
from indepax.model import And, Atom, Exists, Not, Or
body = Exists("y", Atom("R", ("x", "y")))
for _ in range(60):
    body = Or([And([body, Not(Atom("P", ("x",)))]),
               And([body, Atom("P", ("x",))])])
sentence = Exists("x", body)
"""
#: the same 2**60 paths with no quantifier in them, under two quantifiers
_QUANTIFIER_FREE_DAG = """
from indepax.model import And, Atom, Exists, Forall, Not, Or
body = Atom("R", ("x", "y"))
for _ in range(60):
    body = Or([And([body, Not(Atom("P", ("y",)))]),
               And([body, Atom("P", ("x",))])])
sentence = Forall("x", Exists("y", body))
"""
#: 300 foralls over a closed exists, n**300 environments in a tree walk
_QUANTIFIER_TOWER = """
from indepax.model import Atom, Exists, Forall
sentence = Exists("y", Atom("P", ("y",)))
for i in range(300):
    sentence = Forall(f"x{i}", sentence)
"""
#: the same 2**60 paths, made of plain runners that separate programs
#: built: each level's sentence is compiled, then two sentences that put
#: it under a parent of their own, then their conjunction
_ADOPTED_CHAIN = """
from indepax.model import And, Atom, Exists
top = Exists("x", Atom("P", ("x",)))
prepare(top)
for _ in range(60):
    a = And([top, Exists("z", Atom("P", ("z",)))])
    b = And([top, Exists("z", Atom("R", ("z", "z")))])
    prepare(a)
    prepare(b)
    top = And([a, b])
    prepare(top)
sentence = top
"""


def _eval_in_child(builder, structures, timeout=60, satset_of=None):
    """``model.eval`` of the ``sentence`` that the code ``builder`` binds,
    with ``prepare`` compiling, over ``structures``, in a fresh child
    process held to 1 GiB of address space and stopped after ``timeout``
    seconds (which fails the test with ``TimeoutExpired``).  Given
    ``satset_of``, the code of a sentence built from ``sentence``, the bits
    of its ``satset`` over a ``ModelSpace`` of ``structures`` instead."""
    import ast
    import os
    import resource
    import subprocess
    import sys
    sig = structures[0].signature
    cells = [(M.size, M.masks) for M in structures]
    reps = f"[model.Structure(sig, n, masks) for n, masks in {cells!r}]"
    if satset_of is None:
        answer = f"[model.eval(M, sentence) for M in {reps}]"
    else:
        space = (f"model.ModelSpace(sig, {max(n for n, _ in cells)}, "
                 f"tuple({reps}))")
        answer = (f"[bool({space}.satset({satset_of}) >> i & 1)"
                  f" for i in range({len(cells)})]")
    script = (f"from indepax import model\n"
              f"sig = model.Signature({sig.relations!r})\n"
              f"def prepare(s):\n"
              f"    model.compile_sentence(s, sig, ())\n" + builder +
              f"print({answer})\n")
    src = os.path.dirname(os.path.dirname(model.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    r = subprocess.run([sys.executable, "-c", script], capture_output=True,
                       text=True, env=env, preexec_fn=limit, timeout=timeout)
    assert r.returncode == 0, r.stderr[-2000:]
    return ast.literal_eval(r.stdout)


def _built(builder):
    """The ``sentence`` that ``builder`` binds, compiling nothing."""
    namespace = {"prepare": lambda s: None}
    exec(builder, namespace)
    return namespace["sentence"]


class TestMemoRule:
    """Every and, or and quantifier runner memoizes but the root's and those
    of conjunctions and disjunctions of literals, and the bound holds: DAGs
    far larger as trees evaluate in a child process under a timeout, as
    ``reference_holds`` answers."""

    @pytest.mark.parametrize("text, memoized", [
        # the forall (runner 3) on x; the or is a disjunction of literals,
        # and the root runs once
        ("(exists x (forall y (or (atom R x y) (atom P y))))", {3}),
        # the closed exists (runner 1)
        ("(forall x (exists y (atom P y)))", {1}),
        # a quantifier-free conjunction (runner 4) over a disjunction of
        # literals (runner 2), which reuses the atom of the negation
        ("(exists x (and (or (atom P x) (atom R x x)) (not (atom P x))))",
         {4}),
        ("(exists x (or (atom R x x) (atom P x)))", set()),
    ])
    def test_memo_only_where_a_key_can_repeat(self, ub_space, text,
                                              memoized):
        prog = _compile_fresh(parse_sentence(text), ub_space.signature, ())
        numbers = set()
        for M in ub_space.representatives[::50]:
            memo = {}
            # the context of one structure: a run of width 1
            prog.run([0] * prog.nslots,
                     (M.size, M.masks, memo, 1, range(M.size)))
            numbers |= {k if type(k) is int else k[0] for k in memo}
        assert numbers == memoized

    @pytest.mark.parametrize("builder", [_SHARED_DAG, _QUANTIFIER_TOWER,
                                         _ADOPTED_CHAIN],
                             ids=["shared-dag", "quantifier-tower",
                                  "adopted-chain"])
    def test_deep_sentences_evaluate_within_the_bound(self, ub_space,
                                                      builder):
        sentence = _built(builder)
        reps = ub_space.representatives[::40]
        assert _eval_in_child(builder, reps) == [reference_holds(M, sentence)
                                                 for M in reps]

    @pytest.mark.parametrize("builder", [_SHARED_DAG, _QUANTIFIER_TOWER,
                                         _ADOPTED_CHAIN],
                             ids=["shared-dag", "quantifier-tower",
                                  "adopted-chain"])
    def test_deep_sentences_evaluate_over_a_run(self, ub_space, builder):
        # one size-1 class, then a run of 19 size-3 classes; the adopted
        # chain is a conjunction of rank-1 sentences, so it reaches the
        # kernel's runs only under a quantifier of its own
        sentence = _built(builder)
        reps = ub_space.representatives[::40]
        assert [r.size for r in reps] == [1] + [3] * 19
        want = [reference_holds(M, sentence) for M in reps]
        for satset_of in ("sentence", "model.Exists('w', model.And("
                          "[model.Eq('w', 'w'), sentence]))"):
            assert _eval_in_child(builder, reps, satset_of=satset_of) == want

    def test_quantifier_free_dag_evaluates_within_the_bound(self,
                                                             ub_space):
        # a rule that memoized only runners with a quantifier at or below
        # them would walk all 2**60 paths of the body
        sentence = _built(_QUANTIFIER_FREE_DAG)
        assert model.sexpr_length(sentence) > 2 ** 60
        reps = ub_space.representatives[::40]
        want = [reference_holds(M, sentence) for M in reps]
        assert _eval_in_child(_QUANTIFIER_FREE_DAG, reps) == want
        assert _eval_in_child(_QUANTIFIER_FREE_DAG, reps,
                              satset_of="sentence") == want

    def test_dag_expansions_are_large(self):
        for builder in (_SHARED_DAG, _ADOPTED_CHAIN):
            assert model.sexpr_length(_built(builder)) > 2 ** 60


def _random_sentence(rng, relations, depth, scope=()):
    """Seeded formula over ``relations`` (name, arity pairs, maybe none)
    and equality; closed when ``scope`` is empty."""
    if not scope or (depth > 0 and rng.random() < 0.4):
        v = f"v{len(scope)}"
        body = _random_sentence(rng, relations, max(depth - 1, 0),
                                scope + (v,))
        return (Exists if rng.random() < 0.5 else Forall)(v, body)
    k = rng.randrange(5) if depth > 0 else 3
    if k == 0:
        return Not(_random_sentence(rng, relations, depth - 1, scope))
    if k in (1, 2):
        kids = [_random_sentence(rng, relations, depth - 1, scope)
                for _ in range(2)]
        return (And if k == 1 else Or)(kids)
    if relations and rng.random() < 0.75:
        rel, arity = rng.choice(relations)
        return Atom(rel, [rng.choice(scope) for _ in range(arity)])
    return Eq(rng.choice(scope), rng.choice(scope))


class TestRunEvaluation:
    """``satset`` of a sentence of quantifier rank 2 or more runs the
    kernel once per run of same-size representatives: it agrees with
    ``model.eval`` per structure and with ``reference_holds``."""

    @staticmethod
    def sentences(relations, seed, count):
        import random
        rng = random.Random(seed)
        out = []
        while len(out) < count:
            s = _random_sentence(rng, relations, 5)
            if 2 <= model.quantifier_rank(s) <= 5 and s not in out:
                out.append(s)
        return out

    @staticmethod
    def check(space, sentences, monkeypatch):
        reps = space.representatives
        runs = space.runs
        end = 0
        for start, width, size, _masks in runs:
            assert start == end
            assert {r.size for r in reps[start:start + width]} == {size}
            end = start + width
            assert end == len(reps) or reps[end].size != size
        assert end == len(reps)
        results = []
        real = _kernel.active.eval_program

        def recording(prog, size, masks, env0, width=1):
            res = real(prog, size, masks, env0, width)
            results.append((res, width))
            return res
        monkeypatch.setattr(_kernel.active, "eval_program", recording)
        for s in sentences:
            got = model.ModelSpace(space.signature, space.max_size,
                                   reps).satset(s)
            assert 0 <= got <= space.full_mask, to_sexpr(s)
            for i, M in enumerate(reps):
                want = reference_holds(M, s)
                assert bool(got >> i & 1) == want, (i, to_sexpr(s))
                assert model.eval(M, s) == want, (i, to_sexpr(s))
        assert all(0 <= res < 1 << w for res, w in results)
        # the runs themselves were evaluated, the widest one included
        assert max(w for _, w in results) == max(w for _, w, _, _ in runs)

    def test_fuzz_signature_spaces(self, ub_space, monkeypatch):
        relations = ub_space.signature.relations
        strided = model.ModelSpace(ub_space.signature, 3,
                                   ub_space.representatives[::12])
        self.check(strided, self.sentences(relations, 3, 40), monkeypatch)
        self.check(ub_space, self.sentences(relations, 4, 8), monkeypatch)

    def test_ternary_signature_space(self, monkeypatch):
        space = enumerate_models(Signature((("Q", 1), ("T", 3))), 2)
        assert len(space.runs) == 2
        self.check(space, self.sentences(space.signature.relations, 5, 12),
                   monkeypatch)

    def test_empty_signature_space(self, monkeypatch):
        space = enumerate_models(Signature(()), 4)
        assert [w for _, w, _, _ in space.runs] == [1, 1, 1, 1]
        self.check(space, self.sentences((), 6, 30), monkeypatch)

    def test_sizes_out_of_order(self, ub_space, monkeypatch):
        reps = ub_space.representatives
        # runs of sizes 3, 1, 2, 3 and widths 5, 1, 6, 4
        mixed = reps[100:500:80] + reps[2:3] + reps[4:40:6] + reps[41:45]
        space = model.ModelSpace(ub_space.signature, 3, mixed)
        assert [(w, n) for _, w, n, _ in space.runs] == [
            (5, 3), (1, 1), (6, 2), (4, 3)]
        self.check(space, self.sentences(ub_space.signature.relations, 7, 40),
                   monkeypatch)


class TestMemoize:
    """``pure.memoize`` keeps a node's results in the evaluation's memo,
    keyed by the node's number and the values of its used slots."""

    @staticmethod
    def counting(result):
        """A child runner that answers ``result`` and the envs it ran on."""
        calls = []

        def child(env, ctx):
            calls.append(tuple(env))
            return result
        return child, calls

    def test_closed_node_is_stored_under_its_number(self):
        child, calls = self.counting(True)
        run = pure.memoize(child, (7, ()))
        memo = {}
        assert run([0, 1], (2, (), memo)) is True
        assert run([1, 0], (2, (), memo)) is True
        assert memo == {7: True}
        assert calls == [(0, 1)]

    def test_open_node_is_stored_under_its_used_slots(self):
        child, calls = self.counting(True)
        run = pure.memoize(child, (7, (0, 2)))
        memo = {}
        run([1, 0, 1], (2, (), memo))
        assert memo == {(7, (1, 1)): True}
        # slot 1 is not used: the same key
        run([1, 1, 1], (2, (), memo))
        assert calls == [(1, 0, 1)]

    def test_two_slot_values_give_two_entries(self):
        child, calls = self.counting(True)
        run = pure.memoize(child, (3, (1,)))
        memo = {}
        run([0, 0], (2, (), memo))
        run([0, 1], (2, (), memo))
        assert memo == {(3, 0): True, (3, 1): True}
        assert calls == [(0, 0), (0, 1)]

    def test_false_result_is_stored_and_not_computed_again(self):
        child, calls = self.counting(False)
        run = pure.memoize(child, (5, (0,)))
        memo = {}
        env = [1]
        assert not run(env, (2, (), memo))
        assert not run(env, (2, (), memo))
        assert memo == {(5, 1): False}
        assert calls == [(1,)]


class TestQuantifierRank:
    @staticmethod
    def reference(f):
        if isinstance(f, (Atom, Eq)):
            return 0
        if isinstance(f, (And, Or)):
            return max(map(TestQuantifierRank.reference, f.children),
                       default=0)
        return (TestQuantifierRank.reference(f.child)
                + isinstance(f, (Exists, Forall)))

    def test_matches_recursive_reference(self):
        import random
        from indepax import generators
        rng = random.Random(53)
        for depth in range(1, 8):
            for _ in range(40):
                f = generators.random_formula(rng, depth, ("x",)[:depth % 2])
                assert model.quantifier_rank(f) == self.reference(f)
                # the compiler reads the same rank off as it builds
                prog = model.compile_sentence(f, generators.FUZZ_SIGNATURE,
                                              tuple(sorted(f.free)))
                assert prog.rank == model.quantifier_rank(f)

    def test_deepest_property_examples(self):
        # the three deepest ``@example``s of test_properties.py: a chain of
        # 398 ands, and 199 quantifiers under the outer exists
        from test_properties import (_QUANTIFIER_CHAIN, CASES,
                                     nesting_text)
        examples = [
            ("P/1 + R/2",
             [("and", 0, ("other", 0, 0, 0))] * (model.MAX_PARSE_DEPTH - 2),
             ("unary", 0, 0, 0)),
            ("P/1 + R/2", _QUANTIFIER_CHAIN, ("other", 1, 2, 0)),
            ("Q/1 + T/3", _QUANTIFIER_CHAIN, ("other", 1, 2, 0)),
        ]
        ranks = []
        for case, spine, leaf in examples:
            sig = Signature(CASES[case][0])
            s = parse_sentence(nesting_text(spine, leaf, sig))
            assert model.quantifier_rank(s) == self.reference(s)
            assert (model.compile_sentence(s, sig).rank
                    == model.quantifier_rank(s))
            ranks.append(model.quantifier_rank(s))
        assert ranks == [1, 200, 200]


def _compile_fresh(sentence, signature, free_order):
    """``compile_sentence`` with an empty program cache, so that the program
    is built by this call."""
    model.compile_sentence.cache_clear()
    return model.compile_sentence(sentence, signature, free_order)


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

    def test_cell_cap_is_checked_before_allocating(self):
        # 2**24 cells is the cap itself; 2**70 would not fit in memory
        at_cap = Signature((("R", model.MAX_STRUCTURE_CELLS.bit_length() - 1),))
        assert Structure.make(at_cap, 2, {}).masks == (0,)
        with pytest.raises(PreconditionError, match="more than 16777216"):
            Structure.make(Signature((("R", 70),)), 2, {"R": [(1,) * 70]})
        # a size-1 relation has one cell, whatever its arity
        assert Structure.make(Signature((("R", 10 ** 9),)), 1, {}).masks == (0,)

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
