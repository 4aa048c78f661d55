import hashlib
import itertools
import json
import os
import resource
import subprocess
import sys

import pytest

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))


def run_cli(*args, hash_seed="0", max_bytes=None, timeout=None):
    """Run the CLI in a child process; ``max_bytes`` caps its address
    space, so an input it cannot hold fails fast instead of swapping, and
    ``timeout`` (seconds) bounds its run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = hash_seed
    limit = None
    if max_bytes is not None:
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (max_bytes, max_bytes))
    return subprocess.run([sys.executable, "-m", "indepax.cli", *args],
                          capture_output=True, text=True, env=env,
                          preexec_fn=limit, timeout=timeout)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    cyc = d / "cycle3.json"
    cyc.write_text(json.dumps({
        "signature": [{"name": "R", "arity": 2}], "size": 3,
        "relations": {"R": [[0, 1], [1, 2], [2, 0]]}}))
    theory = d / "theory.json"
    theory.write_text(json.dumps(
        ["(exists x (atom P x))", "(exists x (not (atom P x)))"]))
    entailed = d / "entailed.json"
    entailed.write_text(json.dumps(
        ["(forall x (atom P x))", "(exists x (atom P x))"]))
    fam = d / "family.json"
    # [0] ⊆ [0,1], so removing the second set leaves nothing outside it
    fam.write_text(json.dumps({"universe": 4, "sets": [[0, 1], [0]]}))
    bad = d / "bad.json"
    bad.write_text('["(exists x (atom P x"]')
    return d


class TestScottCommand:
    def test_report(self, files, tmp_path):
        r = run_cli("scott", str(files / "cycle3.json"), "--out", str(tmp_path))
        assert r.returncode == 0
        assert "scott height: 0" in r.stdout
        report = json.loads((tmp_path / "scott.json").read_text())
        assert report["height"] == 0
        assert len(report["invariant"]) == 64
        # the emitted sentence re-parses
        from indepax.model import parse_sentence
        parse_sentence(report["sentence"])

    def test_long_sentence_text_is_not_materialized(self, tmp_path):
        # a small DAG whose text would be 127,297,120 characters, printed
        # twice: the count over the DAG refuses it before any is written
        from indepax.cli import MAX_SCOTT_TEXT
        path = tmp_path / "s4.json"
        path.write_text(json.dumps({
            "signature": [{"name": "P", "arity": 1}, {"name": "R", "arity": 2},
                          {"name": "T", "arity": 3}],
            "size": 4,
            "relations": {
                "P": [[0], [3]],
                "R": [[1, 0], [1, 1], [2, 1], [3, 0], [3, 3]],
                "T": [[0, 0, 0], [0, 1, 2], [0, 3, 3], [1, 1, 2], [2, 1, 0],
                      [3, 0, 3], [3, 1, 0]]}}))
        r = run_cli("scott", str(path), "--out", str(tmp_path),
                    max_bytes=1 << 30, timeout=120)
        assert r.returncode == 0, r.stderr
        assert ("scott sentence: not materialized (text of 127297120 "
                f"characters exceeds cap {MAX_SCOTT_TEXT})") in r.stdout
        report = json.loads((tmp_path / "scott.json").read_text())
        assert report["sentence"] is None and report["size"] == 4

    def test_cap_refusal_mentions_invariant(self, files, tmp_path):
        big = tmp_path / "big.json"
        big.write_text(json.dumps({
            "signature": [{"name": "R", "arity": 2}], "size": 5,
            "relations": {"R": []}}))
        r = run_cli("scott", str(big))
        assert r.returncode == 0
        assert "not materialized" in r.stdout


class TestAnalyzeCommand:
    def test_counts_equal_the_alpha_types(self, files, tmp_path):
        # the report counts labels; the public sets of TypeIds agree
        from indepax import model, scott
        r = run_cli("analyze", str(files / "theory.json"), "--max-size", "3",
                    "--out", str(tmp_path))
        assert r.returncode == 0, r.stderr
        report = json.loads((tmp_path / "analyze.json").read_text())
        T = model.load_theory(str(files / "theory.json"))
        space = model.enumerate_models(model.infer_signature(T.sentences), 3)
        sentence = model.And(T.sentences)
        assert report["classes"] == len(space.representatives)
        assert [row["alpha"] for row in report["levels"]] == list(
            range(report["stabilization_level"] + 1))
        for row in report["levels"]:
            psi, phi = scott.alpha_types_of(sentence, row["alpha"], space)
            assert (row["psi"], row["phi"]) == (len(psi), len(phi))


class TestTransformCommand:
    def test_auto_on_independent_pair(self, files, tmp_path):
        r = run_cli("transform", "--method", "auto", str(files / "theory.json"),
                    "--max-size", "2", "--out", str(tmp_path))
        assert r.returncode == 0
        report = json.loads((tmp_path / "transform.json").read_text())
        assert report["method"] == "driver"
        assert report["equivalence_checked"] is True
        # emitted sentences re-parse to values with the same models
        from indepax.model import theory_from_json
        theory_from_json(report["output"])

    def test_missing_args_is_usage_error(self, files):
        r = run_cli("transform", "--method", "partition",
                    str(files / "theory.json"))
        assert r.returncode == 2

    def test_complement_method_embeds_witnesses(self, files, tmp_path):
        theory = tmp_path / "t.json"
        theory.write_text(json.dumps(["(forall x (atom P x))"]))
        r = run_cli("transform", "--method", "complement", str(theory),
                    "--max-size", "2", "--out", str(tmp_path))
        assert r.returncode == 0
        report = json.loads((tmp_path / "transform.json").read_text())
        assert report["method"] == "complement"
        assert len(report["output"]) == 3
        # witnesses re-parse as structure files
        from indepax.model import structure_from_json
        for w in report["independence_witnesses"]:
            structure_from_json(w)

    def test_scott_filter_method(self, files, tmp_path):
        theory = tmp_path / "t.json"
        theory.write_text(json.dumps(
            ["(forall x (atom P x))", "(exists x (atom P x))"]))
        r = run_cli("transform", "--method", "scott-filter", str(theory),
                    "--max-size", "2", "--out", str(tmp_path))
        assert r.returncode == 0
        report = json.loads((tmp_path / "transform.json").read_text())
        assert report["notes"]["dropped_inputs"] == [1]

    def test_scott_filter_report_stays_small(self, tmp_path):
        # 342 counter-classes at max-size 3: one isolating sentence each
        theory = tmp_path / "t.json"
        theory.write_text(json.dumps(
            ["(exists x (atom P x))", "(forall x (exists y (atom R x y)))"]))
        r = run_cli("transform", "--method", "scott-filter", str(theory),
                    "--max-size", "3", "--out", str(tmp_path))
        assert r.returncode == 0, r.stderr
        path = tmp_path / "transform.json"
        assert path.stat().st_size < 5 * 1024 * 1024
        report = json.loads(path.read_text())
        # the transform exits 0 only when its output passed both the
        # equivalence and the independence check
        assert report["equivalence_checked"] is True
        assert len(report["output"]) == 2

    def test_partition_method_with_parts_file(self, tmp_path):
        theory = tmp_path / "t.json"
        # pivot: "not everything has P"; other: "some P"
        theory.write_text(json.dumps(
            ["(exists x (not (atom P x)))", "(exists x (atom P x))"]))
        parts = tmp_path / "parts.json"
        parts.write_text(json.dumps(["(forall x (atom P x))"]))
        r = run_cli("transform", "--method", "partition", str(theory),
                    "--pivot", "0", "--parts", str(parts),
                    "--max-size", "2", "--out", str(tmp_path))
        assert r.returncode == 0
        report = json.loads((tmp_path / "transform.json").read_text())
        assert len(report["output"]) == 1

    def test_reznikoff_method_with_extra_file(self, files, tmp_path):
        extra = tmp_path / "d.json"
        extra.write_text(json.dumps(["(exists x (exists y (atom R x y)))"]))
        r = run_cli("transform", "--method", "reznikoff",
                    str(files / "theory.json"), "--extra", str(extra),
                    "--max-size", "2", "--out", str(tmp_path))
        assert r.returncode == 0
        report = json.loads((tmp_path / "transform.json").read_text())
        assert len(report["output"]) == 2
        assert any(lab.startswith("reznikoff-pair")
                   for lab in report["output_labels"])

    def test_inapplicable_reznikoff_exits_1(self, tmp_path):
        theory = tmp_path / "t.json"
        theory.write_text(json.dumps(
            ["(forall x (atom P x))", "(exists x (atom P x))"]))
        r = run_cli("transform", "--method", "reznikoff", str(theory),
                    "--extra", str(theory), "--max-size", "2")
        assert r.returncode == 1


class TestSetfamCommand:
    def test_check_fails_on_dependent_family(self, files):
        r = run_cli("setfam", "--check", str(files / "family.json"))
        assert r.returncode == 1

    def test_independize_then_check(self, files, tmp_path):
        r = run_cli("setfam", "--independize", str(files / "family.json"),
                    "--out", str(tmp_path))
        assert r.returncode == 0
        report = json.loads((tmp_path / "setfam.json").read_text())
        out = tmp_path / "out_family.json"
        out.write_text(json.dumps(report["output"]))
        r2 = run_cli("setfam", "--check", str(out))
        assert r2.returncode == 0

    def test_from_theory(self, files, tmp_path):
        r = run_cli("setfam", "--from-theory", str(files / "theory.json"),
                    "--max-size", "2", "--out", str(tmp_path))
        assert r.returncode == 0
        report = json.loads((tmp_path / "setfam.json").read_text())
        assert len(report["family"]["sets"]) == 2


class TestVerifyCommand:
    def test_independent_pass(self, files):
        r = run_cli("verify", "--independent", str(files / "theory.json"),
                    "--max-size", "2")
        assert r.returncode == 0
        assert "independence: pass" in r.stdout

    def test_entailed_fails(self, files):
        r = run_cli("verify", "--independent", str(files / "entailed.json"),
                    "--max-size", "2")
        assert r.returncode == 1

    def test_equivalent_to(self, files, tmp_path):
        other = tmp_path / "other.json"
        other.write_text(json.dumps(
            ["(exists x (not (atom P x)))", "(exists x (atom P x))"]))
        r = run_cli("verify", "--equivalent-to", str(other),
                    str(files / "theory.json"), "--max-size", "2")
        assert r.returncode == 0

    def test_equivalent_under_reused_quantifier(self, tmp_path):
        # ``(exists y (atom R x y))`` occurs at two quantifier depths: under
        # ``forall z`` it gets a runner of its own, binding the slot past
        # z's; the first disjunct is false, so the two theories are
        # equivalent
        theory = tmp_path / "t.json"
        theory.write_text(json.dumps([
            "(exists w (or (exists x (and (not (eq x x)) "
            "(exists y (atom R x y)))) (exists x (forall z "
            "(and (exists y (atom R x y)) (atom R x z))))))"]))
        other = tmp_path / "u.json"
        other.write_text(json.dumps(["(exists x (forall z (atom R x z)))"]))
        r = run_cli("verify", str(theory), "--equivalent-to", str(other))
        assert r.returncode == 0, r.stdout
        assert "equivalence: pass" in r.stdout

    def test_nothing_to_verify(self, files):
        r = run_cli("verify", str(files / "theory.json"))
        assert r.returncode == 2

    def test_flag_of_another_subcommand_is_usage_error(self, files):
        r = run_cli("verify", "--seed", "3", "--independent",
                    str(files / "theory.json"), "--max-size", "2")
        assert r.returncode == 2


class TestErrorPaths:
    def test_malformed_sexpr_exits_2(self, files):
        r = run_cli("verify", "--independent", str(files / "bad.json"))
        assert r.returncode == 2
        assert "error" in r.stderr

    def test_missing_file_exits_2(self):
        r = run_cli("scott", "/nonexistent/file.json")
        assert r.returncode == 2

    def test_directory_as_theory_exits_2(self, tmp_path):
        r = run_cli("verify", str(tmp_path), "--independent")
        assert r.returncode == 2
        assert r.stderr.startswith("error:"), r.stderr

    @pytest.mark.parametrize("command", [("verify", "--independent"),
                                         ("setfam", "--check")])
    def test_non_utf8_file_exits_2(self, tmp_path, command):
        path = tmp_path / "latin1.json"
        path.write_bytes('["(exists x (atom \xc9 x))"]'.encode("latin-1"))
        r = run_cli(*command, str(path))
        assert r.returncode == 2
        assert r.stderr.startswith("error: bad JSON"), r.stderr

    def test_integer_too_long_to_read_exits_2(self, tmp_path):
        path = tmp_path / "long.json"
        path.write_text('{"size": ' + "9" * 5000 + "}")
        r = run_cli("scott", str(path))
        assert r.returncode == 2
        assert r.stderr.startswith("error: bad JSON"), r.stderr

    def test_out_naming_a_file_exits_2(self, files, tmp_path):
        taken = tmp_path / "report"
        taken.write_text("")
        r = run_cli("scott", str(files / "cycle3.json"), "--out", str(taken))
        assert r.returncode == 2
        assert r.stderr.startswith("error:"), r.stderr

    def test_structure_schema_error_exits_2(self, files, tmp_path):
        bad = tmp_path / "badstruct.json"
        bad.write_text(json.dumps({"size": 2}))
        r = run_cli("scott", str(bad))
        assert r.returncode == 2

    def test_zero_argument_atom_exits_2(self, tmp_path):
        path = tmp_path / "nullary.json"
        path.write_text(json.dumps(["(atom P)"]))
        r = run_cli("verify", "--independent", str(path))
        assert r.returncode == 2
        assert "position" in r.stderr

    @pytest.mark.parametrize("argv", [
        ("analyze", "T"), ("transform", "T"), ("setfam", "--from-theory", "T"),
        ("verify", "--independent", "T"), ("fuzz",),
    ])
    @pytest.mark.parametrize("bound", ["0", "-1"])
    def test_max_size_below_one_is_usage_error(self, argv, bound):
        r = run_cli(*argv, f"--max-size={bound}")
        assert r.returncode == 2
        assert "--max-size" in r.stderr

    @pytest.mark.parametrize("argv,flag", [
        (("verify", "--independent", "T"), "--cap-classes"),
        (("fuzz",), "--cap-classes"),
        (("fuzz", "--max-size", "1"), "--count"),
        (("scott", "S"), "--cap-materialize"),
    ])
    @pytest.mark.parametrize("bound", ["0", "-1"])
    def test_count_below_one_is_usage_error(self, argv, flag, bound):
        r = run_cli(*argv, f"{flag}={bound}")
        assert r.returncode == 2
        assert flag in r.stderr


    def test_oversized_partition_exits_1(self, tmp_path):
        # P/1 + R/2 at max-size 4: 46,752 classes, whose joint partition
        # would have 15,764,488 items
        path = tmp_path / "pr.json"
        path.write_text(json.dumps(
            ["(exists x (atom P x))", "(exists x (exists y (atom R x y)))"]))
        r = run_cli("analyze", str(path), "--max-size", "4")
        assert r.returncode == 1
        assert r.stderr.startswith("error: joint type partition of 15764488 "
                                   "items exceeds cap 2000000")
        assert "Traceback" not in r.stderr

    def test_partition_of_large_structure_exits_1(self, tmp_path):
        # its item count has more digits than int formatting allows; the
        # cap stops at the first block over it, the 2000**2 pairs
        path = tmp_path / "large.json"
        path.write_text(json.dumps({
            "signature": [{"name": "R", "arity": 2}], "size": 2000,
            "relations": {"R": [[i, (i + 1) % 2000] for i in range(2000)]}}))
        r = run_cli("scott", str(path))
        assert r.returncode == 1
        assert r.stderr.startswith("error: joint type partition exceeds cap")
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("arity,size,rows,message", [
        # masks of 2**70 cells, whether a row sets the top bit or bit 0
        (70, 2, [[1] * 70], "more than 16777216 cells"),
        (70, 2, [[0] * 70], "more than 16777216 cells"),
        # a 4**24-entry table would read the facts of the pairs
        (24, 2, [[1] * 24], "atomic types of the 2-tuples of size 2"),
        # a one-row unary relation whose mask would take 125 GB
        (1, 10 ** 12, [[10 ** 12 - 1]], "more than 16777216 cells"),
        # one cell, but each position combination holds 10**9 positions
        (10 ** 9, 1, [], "atomic types of the 1-tuples of size 1"),
    ])
    def test_oversized_structure_exits_1(self, tmp_path, arity, size, rows,
                                         message):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({
            "signature": [{"name": "R", "arity": arity}], "size": size,
            "relations": {"R": rows}}))
        r = run_cli("scott", str(path), max_bytes=1 << 30)
        assert r.returncode == 1, r.stderr
        assert r.stderr.startswith("error:")
        assert message in r.stderr
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("relations,size,rows,height", [
        # 55,987 items; the largest table reads R at the 6-tuples,
        # (6**6 + 2) * 6**2 = 1,679,688 entries, under the cap
        ([("R", 2)], 6, {"R": [[i, (i + 1) % 6] for i in range(6)]}, 1),
        ([("P", 1), ("R", 2)], 6,
         {"P": [[0]], "R": [[i, (i + 1) % 6] for i in range(6)]}, 2),
        # 960,800 items, and no relation to read
        ([], 7, {}, 0),
    ])
    def test_largest_readable_structures_are_answered(self, tmp_path,
                                                      relations, size, rows,
                                                      height):
        path = tmp_path / "large.json"
        path.write_text(json.dumps({
            "signature": [{"name": n, "arity": a} for n, a in relations],
            "size": size, "relations": rows}))
        r = run_cli("scott", str(path), "--out", str(tmp_path),
                    max_bytes=1 << 30, timeout=60)
        assert r.returncode == 0, r.stderr
        assert f"scott height: {height}\n" in r.stdout

    def test_oversized_literals_exit_1(self, tmp_path):
        # the rank-2 Scott sentence of one element would read 2**20 atoms
        # over the pairs
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({
            "signature": [{"name": "R", "arity": 20}], "size": 1,
            "relations": {"R": [[0] * 20]}}))
        r = run_cli("scott", str(path), max_bytes=1 << 30)
        assert r.returncode == 1, r.stderr
        assert r.stderr.startswith("error: the literals of 2-tuples take "
                                   "1048576 atoms, over cap 100000")
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("arity,total", [
        # 2**(2**14) has more digits than int formatting allows
        (14, "2**16384+"),
        # 2**(2**64) labeled structures would be built as one power
        (64, "2**18446744073709551616+"),
    ])
    def test_wide_atom_enumeration_exits_1(self, tmp_path, arity, total):
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(
            [f"(exists x (atom R {' '.join(['x'] * arity)}))"]))
        r = run_cli("analyze", str(path), "--max-size", "2",
                    max_bytes=1 << 30)
        assert r.returncode == 1, r.stderr
        assert r.stderr.startswith(f"error: {total} labeled structures of "
                                   "size 2 exceeds cap 2000000")
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("mode,sets", [
        ("--check", [[0], [0, 1]]),
        ("--independize", [[0], [0, 1]]),
        # from_lists would build 1 << e for this element
        ("--check", [[10 ** 12 - 1]]),
    ])
    def test_oversized_universe_exits_1(self, tmp_path, mode, sets):
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"universe": 10 ** 12, "sets": sets}))
        r = run_cli("setfam", mode, str(path), "--out", str(tmp_path),
                    max_bytes=1 << 30)
        assert r.returncode == 1, r.stderr
        assert r.stderr.startswith("error: universe of 1000000000000 "
                                   "elements exceeds cap 16777216")
        assert "Traceback" not in r.stderr

    def test_high_elements_of_largest_universe_are_written(self, tmp_path):
        # listing a set reads its bits at C speed; testing every element
        # with a shift of the wide mask would take hours here
        path = tmp_path / "family.json"
        top = (1 << 24) - 1
        path.write_text(json.dumps({"universe": 1 << 24,
                                    "sets": [[top], [top - 1, top]]}))
        r = run_cli("setfam", "--independize", str(path), "--out",
                    str(tmp_path), max_bytes=1 << 30, timeout=60)
        assert r.returncode == 0, r.stderr
        report = json.loads((tmp_path / "setfam.json").read_text())
        assert report["input"]["sets"] == [[top], [top - 1, top]]
        assert report["output"]["sets"] == [[top]]

    @pytest.mark.parametrize("command,data", [
        (("scott",), {"signature": [{"name": "R", "arity": 2}], "size": 2,
                      "relations": [[0, 1]]}),
        (("setfam", "--check"), {"universe": 4, "sets": [1, 2]}),
        (("setfam", "--check"), {"universe": 4, "sets": [[1], [2]],
                                 "labels": 7}),
        (("setfam", "--check"), {"universe": 4, "sets": [["a"], [2]]}),
        # JSON numbers other than integers are refused, not truncated
        (("scott",), {"signature": [{"name": "R", "arity": 2}], "size": 2.9,
                      "relations": {}}),
        (("scott",), {"signature": [{"name": "R", "arity": 2}], "size": 2,
                      "relations": {"R": [[0, 1.7]]}}),
        (("scott",), {"signature": [{"name": "R", "arity": 2}], "size": 2,
                      "relations": {"R": [["1", True]]}}),
        (("scott",), {"signature": [{"name": "R", "arity": 2.5}], "size": 2,
                      "relations": {}}),
        (("setfam", "--check"), {"universe": 3.9, "sets": [[1], [2]]}),
        (("setfam", "--check"), {"universe": 4, "sets": [[1.0], [2]]}),
        (("setfam", "--check"), {"universe": 4, "sets": [[True], [2]]}),
        # labels are a list of strings: not a string, not numbers
        (("setfam", "--check"), {"universe": 4, "sets": [[1], [2]],
                                 "labels": "ab"}),
        (("setfam", "--check"), {"universe": 4, "sets": [[1], [2]],
                                 "labels": [1, 2]}),
    ])
    def test_malformed_json_exits_2(self, tmp_path, command, data):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        r = run_cli(*command, str(path))
        assert r.returncode == 2
        assert r.stderr.startswith("error:")
        assert "Traceback" not in r.stderr


class TestDeepNesting:
    """Chains as deep as the parser admits are answered or exit 2."""

    def test_deepest_distinct_chain_is_answered(self, tmp_path):
        from indepax.model import MAX_PARSE_DEPTH
        k = MAX_PARSE_DEPTH - 2  # the innermost exists/atom add two levels
        s = f"(exists y{k} (atom P y{k}))"
        for i in reversed(range(k)):
            s = f"(and (exists y{i} (atom P y{i})) {s})"
        path = tmp_path / "chain.json"
        path.write_text(json.dumps([s]))
        r = run_cli("verify", "--independent", "--max-size", "2", str(path))
        assert r.returncode == 0, r.stderr
        assert "independence: pass" in r.stdout

    def test_deepest_quantifier_tower_is_answered(self, tmp_path):
        # every quantifier below the root memoizes (compile_sentence's
        # rule), and its memo adds a stack frame per level
        from indepax.model import MAX_PARSE_DEPTH
        k = MAX_PARSE_DEPTH - 1  # the atom adds one level
        s = f"(atom P x{k - 1})"
        for i in reversed(range(k)):
            s = f"({('forall', 'exists')[i % 2]} x{i} {s})"
        path = tmp_path / "tower.json"
        path.write_text(json.dumps([s]))
        r = run_cli("verify", "--independent", "--max-size", "2", str(path))
        assert r.returncode == 0, r.stderr
        assert "independence: pass" in r.stdout

    def test_deep_chain_over_cached_sentence_is_answered(self, tmp_path):
        # every level shares its first conjunct with the cached first
        # sentence; the satset of each level is bitset algebra over its
        # children, one stack frame per level
        s = "(exists x (not (atom P x)))"
        for _ in range(394):
            s = f"(and (exists x (atom P x)) {s})"
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(["(exists x (atom P x))", s]))
        r = run_cli("verify", "--independent", "--max-size", "2", str(path))
        assert r.returncode == 1, r.stderr
        assert "independence: fail" in r.stdout
        assert "Traceback" not in r.stderr


@pytest.fixture
def int_text_limit():
    """Python's default limit on the digits of int-to-text conversion,
    whatever the environment sets (a Python without the limit has none)."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


class TestLongInts:
    """Model sets and canonical keys past the int-to-text digit limit are
    written as the same decimal text as shorter ones, in process."""

    def test_long_repr_is_repr_past_the_limit(self, int_text_limit):
        from indepax.model import long_repr
        # ints whose decimal text is known without converting them
        for n, text in ((10 ** 6000 + 1, "1" + "0" * 5999 + "1"),
                        (10 ** 6000 - 1, "9" * 6000),
                        (7 * 10 ** 5000 + 12345,
                         "7" + "0" * 4995 + "12345")):
            assert long_repr(n) == text
            assert long_repr(-n) == "-" + text
            assert long_repr([n, 3]) == f"[{text}, 3]"
            assert long_repr((n,)) == f"({text},)"
            assert long_repr((3, n)) == f"(3, {text})"
        assert long_repr([(1 << 64), 0]) == repr([(1 << 64), 0])

    def test_fuzz_over_a_large_space(self, tmp_path, capsys,
                                     int_text_limit):
        # seed 5's first output sentences have model sets over the 46,752
        # classes of max-size 4, past 4,300 decimal digits; the pin is the
        # summary written with the digit limit lifted
        from indepax import cli
        rc = cli.main(["fuzz", "--seed", "5", "--count", "1",
                       "--max-size", "4", "--out", str(tmp_path)])
        assert rc == 0, capsys.readouterr().err
        digest = hashlib.sha256((tmp_path / "fuzz.json").read_bytes())
        assert digest.hexdigest() == ("a2c4983e17f7cfb54ae5b6e4b3a986a9"
                                      "63f5c30cb3695725a38e55ed45cd37af")

    def test_scott_invariant_of_a_full_9_ary_relation(self, tmp_path, capsys,
                                                      int_text_limit):
        from indepax import cli
        rows = [list(t) for t in itertools.product(range(3), repeat=9)]
        path = tmp_path / "full9.json"
        path.write_text(json.dumps({
            "signature": [{"name": "S", "arity": 9}], "size": 3,
            "relations": {"S": rows}}))
        rc = cli.main(["scott", str(path), "--cap-materialize", "1",
                       "--out", str(tmp_path)])
        assert rc == 0, capsys.readouterr().err
        report = json.loads((tmp_path / "scott.json").read_text())
        # the least key is the one mask of all 3**9 cells, 5,926 digits,
        # written here with the limit lifted
        if hasattr(sys, "set_int_max_str_digits"):
            sys.set_int_max_str_digits(0)
        text = f"3|({(1 << 3 ** 9) - 1},)"
        assert report["invariant"] == hashlib.sha256(
            text.encode()).hexdigest()


class TestDeterminism:
    def test_fuzz_reports_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        # different hash seeds in the two processes on purpose
        r1 = run_cli("fuzz", "--seed", "11", "--count", "2", "--max-size", "2",
                     "--out", str(a), hash_seed="101")
        r2 = run_cli("fuzz", "--seed", "11", "--count", "2", "--max-size", "2",
                     "--out", str(b), hash_seed="999")
        assert r1.returncode == 0 and r2.returncode == 0
        assert (a / "fuzz.json").read_bytes() == (b / "fuzz.json").read_bytes()

    def test_fuzz_report_is_pinned(self, tmp_path):
        # the gate for rewrites that must not change any output
        r = run_cli("fuzz", "--seed", "7", "--count", "20", "--out",
                    str(tmp_path))
        assert r.returncode == 0, r.stderr
        digest = hashlib.sha256((tmp_path / "fuzz.json").read_bytes())
        assert digest.hexdigest() == (
            "2d94b9962835b633eff3f6ff85f64c461bff75c4b714815bf9800cfbebfed59c")

    def test_different_seeds_differ(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("fuzz", "--seed", "1", "--count", "2", "--max-size", "2",
                "--out", str(a))
        run_cli("fuzz", "--seed", "2", "--count", "2", "--max-size", "2",
                "--out", str(b))
        assert (a / "fuzz.json").read_bytes() != (b / "fuzz.json").read_bytes()
