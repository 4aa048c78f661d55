"""Property tests: random nestings as deep as the parser admits round-trip
through the text format and evaluate the same way per structure, as
satisfaction bitsets, and under a Tarskian reference evaluator over the
AST that shares no code with the compiler or the kernel."""

from hypothesis import HealthCheck, example, given, settings, strategies as st

from indepax import model
from indepax.model import (MAX_PARSE_DEPTH, And, Atom, Eq, Exists, Forall,
                           Not, Or, parse_sentence, to_sexpr)

VARS = ("x", "y", "z")

# one nesting level: operator, variable for exists, sibling leaf for and/or
_level = st.tuples(st.sampled_from(("not", "and", "or", "exists")),
                   st.integers(0, len(VARS) - 1),
                   st.tuples(st.sampled_from(("P", "R", "eq")),
                             st.integers(0, 2), st.integers(0, 2)))
# the outer exists and the innermost leaf take two of the levels
_spine = st.integers(0, MAX_PARSE_DEPTH - 2).flatmap(
    lambda n: st.lists(_level, min_size=n, max_size=n))
_leaf = st.tuples(st.sampled_from(("P", "R", "eq")),
                  st.integers(0, 2), st.integers(0, 2))


def _leaf_text(leaf, bound: list[str]) -> str:
    kind, a, b = leaf
    u, v = bound[a % len(bound)], bound[b % len(bound)]
    if kind == "P":
        return f"(atom P {u})"
    if kind == "R":
        return f"(atom R {u} {v})"
    return f"(eq {u} {v})"


def nesting_text(spine, leaf) -> str:
    """A closed sentence: ``(exists x …)`` around the spine's levels, outer
    first, around a leaf; every variable a leaf names is bound above it."""
    bound = ["x"]
    head, tail = ["(exists x "], [")"]
    for op, var, sibling in spine:
        if op == "exists":
            head.append(f"(exists {VARS[var]} ")
            tail.append(")")
            if VARS[var] not in bound:
                bound.append(VARS[var])
        elif op == "not":
            head.append("(not ")
            tail.append(")")
        else:
            head.append(f"({op} ")
            tail.append(f" {_leaf_text(sibling, bound)})")
    return "".join(head) + _leaf_text(leaf, bound) + "".join(reversed(tail))


def reference_holds(M: model.Structure, sentence: model.Sentence) -> bool:
    """Tarskian truth by recursion over the AST, one stack frame per level,
    memoized on (node, values of its free variables)."""
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

    return holds(sentence, {})


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(spine=_spine, leaf=_leaf)
# the deepest chains, which the random draws rarely reach
@example(spine=[("and", 0, ("R", 0, 0))] * (MAX_PARSE_DEPTH - 2),
         leaf=("P", 0, 0))
@example(spine=[("exists", i % 3, ("P", 0, 0)) if i % 2 else
                ("not", 0, ("P", 0, 0)) for i in range(MAX_PARSE_DEPTH - 2)],
         leaf=("R", 1, 2))
def test_deep_nesting_round_trips_and_evaluates(ub_sig, spine, leaf):
    s = parse_sentence(nesting_text(spine, leaf))
    assert not s.free
    assert parse_sentence(to_sexpr(s)) is s
    space = model.enumerate_models(ub_sig, 2)
    mask = space.satset(s)
    assert 0 <= mask <= space.full_mask
    for i, rep in enumerate(space.representatives):
        assert bool((mask >> i) & 1) == model.eval(rep, s)
    for rep in space.representatives[::7]:
        assert model.eval(rep, s) == reference_holds(rep, s)
