"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every claim is relative to the stated bounded model space; the oracles the
constructions are checked against share no code with them (naive memoized
type recursion, exhaustive permutation search, bitset model counting).
"""

import itertools
import os
import random
import subprocess
import sys
import time

from indepax import generators, model, scott, setfam, transforms, verify
from indepax.errors import NotApplicableError
from indepax.model import Structure, Theory

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))


def report(num, name, ok, detail):
    line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]"
    print(line)
    assert ok, line


# criterion 1 -----------------------------------------------------------------

def test_criterion_1_type_oracle_equivalence(binary_space):
    """scott.types_equal vs verify.oracle_types_equal on all pairs of size
    <= 3 structures over one binary relation, tuples of length <= 2,
    all levels <= 4; zero disagreements within 5 minutes."""
    reps = binary_space.representatives
    t0 = time.time()
    disagreements = 0
    checked = 0
    for i in range(len(reps)):
        M = reps[i]
        for j in range(i, len(reps)):
            N = reps[j]
            oracle = verify.TypeOracle(M, N)
            for length in range(3):
                for a in itertools.product(range(M.size), repeat=length):
                    for b in itertools.product(range(N.size), repeat=length):
                        for alpha in range(5):
                            fast = scott.types_equal(M, a, N, b, alpha)
                            slow = oracle.equal(a, b, alpha)
                            checked += 1
                            if fast != slow:
                                disagreements += 1
    elapsed = time.time() - t0
    report(1, "type-algorithm oracle equivalence",
           disagreements == 0 and elapsed < 300,
           f"{checked} comparisons over {len(reps)} classes, "
           f"{disagreements} disagreements, {elapsed:.1f}s")


# criterion 2 -----------------------------------------------------------------

def test_criterion_2_isomorphism_completeness(ub_space):
    """canonical_invariant equality matches permutation-search isomorphism
    on >= 200 random pairs of size <= 5 plus all same-size pairs of the
    size <= 3 space; zero disagreements."""
    sig = ub_space.signature
    rng = random.Random(2024)

    def rand_struct(n):
        tables = {name: [t for t in itertools.product(range(n), repeat=arity)
                         if rng.random() < 0.45]
                  for name, arity in sig.relations}
        return Structure.make(sig, n, tables)

    disagreements = 0
    pairs = 0
    for trial in range(210):
        n = rng.randint(1, 5)
        M = rand_struct(n)
        kind = trial % 3
        if kind == 0:
            perm = list(range(n))
            rng.shuffle(perm)
            N = M.apply_permutation(perm)
        elif kind == 1:
            N = rand_struct(n)
        else:
            flipped = set(M.table("R")) ^ {(rng.randrange(n), rng.randrange(n))}
            N = Structure.make(sig, n, {"R": flipped, "P": M.table("P")})
        iso, _ = verify.oracle_isomorphic(M, N)
        same = scott.canonical_invariant(M) == scott.canonical_invariant(N)
        pairs += 1
        disagreements += (iso != same)

    reps = ub_space.representatives
    tokens = [scott.canonical_invariant(r) for r in reps]
    for i in range(len(reps)):
        for j in range(i, len(reps)):
            if reps[i].size != reps[j].size:
                continue
            iso, _ = verify.oracle_isomorphic(reps[i], reps[j])
            pairs += 1
            disagreements += (iso != (tokens[i] == tokens[j]))
    report(2, "isomorphism completeness", disagreements == 0,
           f"{pairs} pairs (random size<=5 + all same-size size<=3), "
           f"{disagreements} disagreements")


# criterion 3 -----------------------------------------------------------------

def test_criterion_3_scott_sentence_soundness(binary_space):
    """eval(N, scott_sentence(M)) iff M and N are isomorphic, for all
    isomorphism-class pairs of size <= 3 over one binary relation; and the
    seeded satset of each class's isolating sentence equals its evaluation
    over the space."""
    reps = binary_space.representatives
    sentences = [scott.scott_sentence(M) for M in reps]
    disagreements = 0
    seeded_mismatches = 0
    for i, M in enumerate(reps):
        for j, N in enumerate(reps):
            iso, _ = verify.oracle_isomorphic(M, N)
            disagreements += (model.eval(N, sentences[i]) != iso)
        # the space seeds this bitset by index instead of evaluating it
        isolating = scott.space_scott_sentence(binary_space, i)
        evaluated = sum(model.eval(N, isolating) << j
                        for j, N in enumerate(reps))
        seeded_mismatches += (binary_space.satset(isolating) != evaluated)
    report(3, "Scott sentence soundness",
           disagreements == 0 and seeded_mismatches == 0,
           f"{len(reps)}x{len(reps)} evaluations, "
           f"{disagreements} disagreements, "
           f"{seeded_mismatches} seeded satsets differ from evaluated")


# criterion 4 -----------------------------------------------------------------

def test_criterion_4_transform_suite(ub_space):
    """500 seeded random theories: independent_axiomatize output passes
    check_independence and check_theories_equivalent in 100% of runs."""
    rng = random.Random(4000)
    failures = 0
    for _ in range(500):
        T = generators.random_theory(rng, ub_space)
        rep = transforms.independent_axiomatize(T, ub_space)
        ok = (verify.check_independence(rep.output, ub_space).passed
              and verify.check_theories_equivalent(T, rep.output,
                                                   ub_space).passed)
        failures += (not ok)
    report(4, "transform suite", failures == 0,
           f"500 random theories, {failures} failures")


# criterion 5 -----------------------------------------------------------------

def test_criterion_5_partition_claims(ub_space):
    """>= 50 partition instances: output semantically equivalent to the
    input, and every part's model is an independence witness."""
    rng = random.Random(5000)
    instances = 0
    failures = 0
    while instances < 50:
        inst = generators.random_partition_instance(rng, ub_space)
        if inst is None:
            break
        T, pivot, parts = inst
        rep = transforms.partition_transform(T, pivot, parts, ub_space)
        ok = verify.check_theories_equivalent(T, rep.output, ub_space).passed
        out_sats = [ub_space.satset(s) for s in rep.output.sentences]
        for k, part_sentence in enumerate(parts):
            part_sat = ub_space.satset(part_sentence)
            witness = ub_space.first_member(part_sat)
            widx = ub_space.rep_index[id(witness)]
            ok &= bool((part_sat >> widx) & 1)
            ok &= not ((out_sats[k] >> widx) & 1)
            ok &= all((out_sats[m] >> widx) & 1
                      for m in range(len(out_sats)) if m != k)
        instances += 1
        failures += (not ok)
    report(5, "partition transform claims",
           instances >= 50 and failures == 0,
           f"{instances} instances, {failures} failures")


# criterion 6 -----------------------------------------------------------------

def test_criterion_6_pairing_lemma(ub_space):
    """>= 100 (C, D) instances passing the hypothesis: output verified
    independent and equivalent; failing instances carry a valid
    certificate (a sentence of C entailed by the rest)."""
    rng = random.Random(6000)
    passing = failing = failures = 0
    while passing < 100:
        C, D = generators.random_pair_instance(rng, ub_space)
        try:
            rep = transforms.reznikoff_pairing(C, D, ub_space)
        except NotApplicableError as exc:
            failing += 1
            idx = exc.certificate["index"]
            rest = Theory.of([s for k, s in
                              enumerate(list(C.sentences) + list(D.sentences))
                              if k != idx])
            entailed, _ = model.entails(rest, C.sentences[idx], ub_space)
            failures += (not entailed)
            continue
        combined = Theory.of(list(C.sentences) + list(D.sentences))
        ok = (len(rep.output) == len(C)
              and verify.check_independence(rep.output, ub_space).passed
              and verify.check_theories_equivalent(combined, rep.output,
                                                   ub_space).passed)
        passing += 1
        failures += (not ok)
    report(6, "pairing lemma", failures == 0,
           f"{passing} applicable + {failing} inapplicable instances, "
           f"{failures} failures")


# criterion 7 -----------------------------------------------------------------

def test_criterion_7_family_suite():
    """1000 seeded random families (universe <= 16, <= 8 sets, nonempty
    intersection): the cumulative construction always passes; the
    block construction passes whenever applicable; retained sets contain
    their originals."""
    rng = random.Random(7000)
    failures = 0
    case1_runs = 0
    for _ in range(1000):
        F = generators.random_family(rng)
        rep = setfam.case2_transform(F)
        ok = setfam.families_equivalent(F, rep.output)
        ok &= setfam.family_is_independent(rep.output)[0]
        kept = [j for j in range(len(F)) if j not in rep.dropped]
        ok &= all(out & F.sets[j] == F.sets[j]
                  for out, j in zip(rep.output.sets, kept))
        if len(F) >= 2:
            i0 = rng.randrange(len(F))
            comp = F.full & ~F.sets[i0]
            if comp and bin(comp).count("1") >= len(F) - 1:
                case1_runs += 1
                rep1 = setfam.case1_transform(F, i0)
                ok &= setfam.families_equivalent(F, rep1.output)
                ok &= setfam.family_is_independent(rep1.output)[0]
        failures += (not ok)
    report(7, "set-family suite", failures == 0,
           f"1000 families (case1 applicable on {case1_runs}), "
           f"{failures} failures")


# criterion 8 -----------------------------------------------------------------

def test_criterion_8_phi_star_exactness(ub_space):
    """>= 20 separating-tree instances with 2..6 distinct types: every
    bounded model of the selection sentence realizes exactly one type."""
    rng = random.Random(8000)
    instances = 0
    failures = 0
    while instances < 20:
        count = rng.randint(2, 6)
        types = generators.random_type_instance(rng, ub_space, count)
        if types is None:
            continue
        tree = transforms.build_separating_tree(types, ub_space)
        star = transforms.phi_star(tree)
        models = ub_space.mask_members(ub_space.satset(star))
        ok = bool(models)
        for W in models:
            realized = sum(
                1 for _tid, formulas in types
                if any(all(model.eval(W, f, {"x0": e}) for f in formulas)
                       for e in range(W.size)))
            ok &= (realized == 1)
        instances += 1
        failures += (not ok)
    report(8, "phi-star exactness", failures == 0,
           f"{instances} instances, {failures} failures")


# criterion 9 -----------------------------------------------------------------

def test_criterion_9_determinism(tmp_path):
    """Repeating a seeded run yields byte-identical reports, across
    processes with different hash seeds."""
    def run(out, hash_seed):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONHASHSEED"] = hash_seed
        return subprocess.run(
            [sys.executable, "-m", "indepax.cli", "fuzz", "--seed", "90",
             "--count", "4", "--max-size", "3", "--out", str(out)],
            capture_output=True, text=True, env=env)

    r1 = run(tmp_path / "a", "7")
    r2 = run(tmp_path / "b", "7777")
    ok = (r1.returncode == 0 and r2.returncode == 0)
    b1 = (tmp_path / "a" / "fuzz.json").read_bytes()
    b2 = (tmp_path / "b" / "fuzz.json").read_bytes()
    ok &= (b1 == b2)
    report(9, "determinism", ok,
           f"two seeded fuzz runs, {len(b1)} bytes each, "
           f"identical={b1 == b2}")
