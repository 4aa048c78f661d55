"""Property tests: random nestings as deep as the parser admits round-trip
through the text format and evaluate the same way per structure, as
satisfaction bitsets, and under a Tarskian reference evaluator over the
AST that shares no code with the compiler or the kernel; and sentences
compiled one after another, sharing subformulas at other quantifier
depths, evaluate as that reference does."""

import itertools
import random
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from indepax import model
from indepax.model import (MAX_PARSE_DEPTH, And, Atom, Eq, Exists, Forall,
                           Not, Or, parse_sentence, to_sexpr)

VARS = ("x", "y", "z")

# a leaf: the signature's unary relation, its other relation, or eq, with
# one pick of a bound variable per argument
_leaf = st.tuples(st.sampled_from(("unary", "other", "eq")),
                  st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
# one nesting level: operator, variable for a quantifier, sibling leaf for
# and/or
_level = st.tuples(st.sampled_from(("not", "and", "or", "exists", "forall")),
                   st.integers(0, len(VARS) - 1), _leaf)
# the outer exists and the innermost leaf take two of the levels
_spine = st.integers(0, MAX_PARSE_DEPTH - 2).flatmap(
    lambda n: st.lists(_level, min_size=n, max_size=n))


def _leaf_text(leaf, bound: list[str], sig: model.Signature) -> str:
    kind, *picks = leaf
    names = [bound[p % len(bound)] for p in picks]
    if kind == "eq":
        return f"(eq {names[0]} {names[1]})"
    rel, arity = sig.relations[kind == "other"]
    return f"(atom {rel} {' '.join(names[:arity])})"


def nesting_text(spine, leaf, sig: model.Signature) -> str:
    """A closed sentence: ``(exists x …)`` around the spine's levels, outer
    first, around a leaf; every variable a leaf names is bound above it.
    ``sig`` lists a unary relation, then one other relation."""
    bound = ["x"]
    head, tail = ["(exists x "], [")"]
    for op, var, sibling in spine:
        if op in ("exists", "forall"):
            head.append(f"({op} {VARS[var]} ")
            tail.append(")")
            if VARS[var] not in bound:
                bound.append(VARS[var])
        elif op == "not":
            head.append("(not ")
            tail.append(")")
        else:
            head.append(f"({op} ")
            tail.append(f" {_leaf_text(sibling, bound, sig)})")
    return "".join(head) + _leaf_text(leaf, bound, sig) + "".join(reversed(tail))


#: per case, a signature (a unary relation, then one other) and the stride
#: of its classes of size at most 2 that the test evaluates over.  The fuzz
#: signature's atoms have arity 1 or 2; the second case adds arity 3.
CASES = {"P/1 + R/2": ((("P", 1), ("R", 2)), 1),
         "Q/1 + T/3": ((("Q", 1), ("T", 3)), 8)}


@lru_cache(maxsize=None)
def structures(case: str):
    """The case's signature and its stride of classes (Q/1 + T/3 has 532
    classes of size at most 2, so every 8th is kept)."""
    relations, stride = CASES[case]
    space = model.enumerate_models(model.Signature(relations), 2)
    return space.signature, space.representatives[::stride]


def elem_blocks(space: model.ModelSpace, elems: int) -> tuple[int, ...]:
    """Per representative, its block of the element set ``elems`` as a
    bitset of its elements: representatives in space order, each ``size``
    bits wide, counted here from the sizes alone."""
    out = []
    offset = 0
    for rep in space.representatives:
        out.append((elems >> offset) & ((1 << rep.size) - 1))
        offset += rep.size
    assert 0 <= elems < 1 << offset
    return tuple(out)


def reference_holds(M: model.Structure, sentence: model.Sentence,
                    assignment: dict | None = None) -> bool:
    """Tarskian truth under ``assignment`` (none for a sentence) by
    recursion over the AST, one stack frame per level, memoized on (node,
    values of its free variables)."""
    memo: dict[tuple, bool] = {}

    def holds(f, env: dict) -> bool:
        key = (id(f), tuple(sorted((v, env[v]) for v in f.free)))
        if key in memo:
            return memo[key]
        if isinstance(f, Atom):
            res = tuple(env[v] for v in f.args) in M.table(f.rel)
        elif isinstance(f, Eq):
            res = env[f.left] == env[f.right]
        elif isinstance(f, Not):
            res = not holds(f.child, env)
        elif isinstance(f, (And, Or)):
            want = isinstance(f, Or)
            res = not want
            for c in f.children:
                if holds(c, env) == want:
                    res = want
                    break
        else:
            want = isinstance(f, Exists)
            assert want or isinstance(f, Forall)
            res = not want
            for v in range(M.size):
                if holds(f.child, {**env, f.var: v}) == want:
                    res = want
                    break
        memo[key] = res
        return res

    return holds(sentence, dict(assignment or {}))


# not, then a quantifier (exists and forall in turn), repeated
_QUANTIFIER_CHAIN = [(("exists", "forall")[i // 2 % 2], i % 3, ("unary", 0, 0, 0))
                     if i % 2 else ("not", 0, ("unary", 0, 0, 0))
                     for i in range(MAX_PARSE_DEPTH - 2)]


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(case=st.sampled_from(sorted(CASES)), spine=_spine, leaf=_leaf)
# the deepest chains, which the random draws rarely reach
@example(case="P/1 + R/2",
         spine=[("and", 0, ("other", 0, 0, 0))] * (MAX_PARSE_DEPTH - 2),
         leaf=("unary", 0, 0, 0))
@example(case="P/1 + R/2", spine=_QUANTIFIER_CHAIN, leaf=("other", 1, 2, 0))
@example(case="Q/1 + T/3", spine=_QUANTIFIER_CHAIN, leaf=("other", 1, 2, 0))
def test_deep_nesting_round_trips_and_evaluates(case, spine, leaf):
    sig, reps = structures(case)
    s = parse_sentence(nesting_text(spine, leaf, sig))
    assert not s.free
    assert parse_sentence(to_sexpr(s)) is s
    space = model.ModelSpace(sig, 2, reps)
    mask = space.satset(s)
    assert 0 <= mask <= space.full_mask
    for i, rep in enumerate(space.representatives):
        assert bool((mask >> i) & 1) == model.eval(rep, s)
    for rep in space.representatives[::7]:
        assert model.eval(rep, s) == reference_holds(rep, s)


def _formula_chain(rng: random.Random, count: int, sig: model.Signature):
    """``count`` closed sentences, each built over nodes of the ones before
    it and over those sentences themselves, so that one node recurs within
    and across sentences, under different quantifiers and at different
    depths."""
    (unary, _), (other, arity) = sig.relations
    pool = [Atom(unary, (v,)) for v in VARS]
    pool += [Atom(other, vs) for vs in itertools.product(VARS, repeat=arity)]
    pool += [Eq(v, w) for v in VARS for w in VARS if v < w]
    sentences = []
    for _ in range(count):
        op = rng.choice(("not", "and", "or", "exists", "forall"))
        if op == "not":
            node = Not(rng.choice(pool))
        elif op in ("and", "or"):
            node = (And if op == "and" else Or)(rng.sample(pool, 2))
        else:
            node = (Exists if op == "exists" else Forall)(rng.choice(VARS),
                                                          rng.choice(pool))
        pool.append(node)
        # bind the free variables in a random order, with vacuous
        # quantifiers over ``u`` mixed in to move the node deeper
        binders = sorted(node.free) + ["u"] * rng.randint(0, 2)
        rng.shuffle(binders)
        s = node
        for v in binders:
            s = (Exists if rng.random() < 0.5 else Forall)(v, s)
        sentences.append(s)
        pool.append(s)
    return sentences


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("seed", (7, 9))
def test_runners_shared_across_sentences_evaluate_correctly(case, seed):
    # each sentence is compiled after the ones it shares nodes with, and its
    # program builds its own runners for those nodes, at other quantifier
    # depths; in each case one of the two chains reaches a shared node under
    # a quantifier that holds the slot the node's runner binds elsewhere
    sig, reps = structures(case)
    model.compile_sentence.cache_clear()
    for s in _formula_chain(random.Random(seed), 300, sig):
        for M in reps:
            assert model.eval(M, s) == reference_holds(M, s), (to_sexpr(s), M)
