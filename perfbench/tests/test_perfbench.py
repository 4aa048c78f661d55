"""Tests of the benchmark itself: its reference evaluator, its tracing
arithmetic, and the determinism of its inputs and digests.

    python3 -m pytest perfbench/tests
"""

import json
import os
import random
import subprocess
import sys
from array import array

import pytest

import compare
import run
import spans
import workloads
from indepax import model
from naive import NaiveEvaluator, NaiveSpace

BINARY = model.Signature((("R", 2),))


def random_r_formula(rng, depth, scope=()):
    """Seeded formula over one binary relation R; closed when scope is empty."""
    if not scope or (depth > 0 and rng.random() < 0.4):
        v = f"v{len(scope)}"
        body = random_r_formula(rng, max(depth - 1, 0), scope + (v,))
        return (model.Exists if rng.random() < 0.5 else model.Forall)(v, body)
    if depth > 0:
        k = rng.randrange(4)
        if k == 0:
            return model.Not(random_r_formula(rng, depth - 1, scope))
        if k in (1, 2):
            kids = [random_r_formula(rng, depth - 1, scope) for _ in range(2)]
            return model.And(kids) if k == 1 else model.Or(kids)
    if rng.random() < 0.7:
        return model.Atom("R", (rng.choice(scope), rng.choice(scope)))
    return model.Eq(rng.choice(scope), rng.choice(scope))


@pytest.fixture(scope="module")
def binary_space():
    """All 116 isomorphism classes of size <= 3 over one binary relation."""
    space = model.enumerate_models(BINARY, 3)
    assert len(space.representatives) == 116
    return space


def test_naive_evaluator_agrees_with_model_eval(binary_space):
    rng = random.Random(1234)
    ref = NaiveSpace(binary_space.representatives)
    sentences = [random_r_formula(rng, 4) for _ in range(150)]
    for s in sentences:
        assert ref.satset(s) == binary_space.satset(s), model.to_sexpr(s)
    # open formulas under every assignment of their one free variable
    for _ in range(40):
        f = random_r_formula(rng, 3, ("x0",))
        for M in binary_space.representatives[::7]:
            ev = NaiveEvaluator(M)
            for e in range(M.size):
                env = {"x0": e} if f.free else None
                assert ev.holds(f, env) == model.eval(M, f, env)


def test_layer_times_on_synthetic_nested_spans():
    # A [0,10] with children B [1,3], C [2,5] (overlapping B) and D [8,12]
    # (running past A); B has child E [1.5,2.5]; a second A [20,21] is a root
    names = ["A", "B", "C", "D", "E"]
    rows = [  # label, start, end, parent
        (0, 0.0, 10.0, -1),
        (1, 1.0, 3.0, 0),
        (4, 1.5, 2.5, 1),
        (2, 2.0, 5.0, 0),
        (3, 8.0, 12.0, 0),
        (0, 20.0, 21.0, -1),
    ]
    start = array("d", [r[1] for r in rows])
    end = array("d", [r[2] for r in rows])
    label = array("i", [r[0] for r in rows])
    parent = array("i", [r[3] for r in rows])
    calls, self_s = spans.layer_times(start, end, label, parent, len(names))
    assert calls == [2, 1, 1, 1, 1]
    # A: 10 - |[1,5] u [8,10]| = 4, plus the root A's 1
    assert self_s[0] == pytest.approx(5.0)
    assert self_s[1] == pytest.approx(1.0)   # B: 2 - E's 1
    assert self_s[2] == pytest.approx(3.0)
    assert self_s[3] == pytest.approx(4.0)
    assert self_s[4] == pytest.approx(1.0)


def test_tracer_records_nested_calls_and_uninstalls(tmp_path, binary_space):
    originals = {name: getattr(model, name)
                 for name in ("eval", "compile_sentence", "enumerate_models")}
    satset = model.ModelSpace.satset
    tracer = spans.Tracer()
    tracer.install()
    try:
        space = model.enumerate_models(BINARY, 2)
        s = model.Exists("x", model.Atom("R", ("x", "x")))
        space.satset(s)
        space.satset(s)
    finally:
        tracer.uninstall()
    assert model.ModelSpace.satset is satset
    for name, fn in originals.items():
        assert getattr(model, name) is fn
    metrics = tracer.layer_metrics()
    n = len(space.representatives)
    assert metrics["model.enumerate_models.calls"] == 1
    assert metrics["model.enumerate_models.classes"] == n
    assert metrics["model.ModelSpace.satset.calls"] == 2
    assert metrics["model.ModelSpace.satset.hit_ratio"] == 0.5
    assert metrics["model.eval.calls"] == n
    assert metrics["kernel.eval_program.calls"] == n
    # every eval span is a child of the satset span, every kernel call of
    # an eval span
    path = tmp_path / "spans.bin"
    tracer.write(str(path), {"workload": "test"})
    head, rows = spans.read_spans(str(path))
    assert head["spans"] == len(rows)
    for name, start, end, parent, _req in rows:
        assert end >= start
        if name == "model.eval":
            assert rows[parent][0] == "model.ModelSpace.satset"
        if name == "kernel.eval_program":
            assert rows[parent][0] == "model.eval"


def test_workload_inputs_repeat_for_a_seed():
    def inputs(seed):
        wl = workloads.Entail(seed)
        return [([model.to_sexpr(s) for s in T], model.to_sexpr(q))
                for T, q in wl.inputs]
    assert inputs("5/0") == inputs("5/0")
    assert inputs("5/0") != inputs("5/1")

    def types(seed):
        wl = workloads.Types(seed)
        return [wl.summarize(i, wl.request(i)) for i in range(6)]
    assert types("5/0") == types("5/0")


def _worker_digest(hash_seed):
    env = run.child_env(hash_seed)
    out = subprocess.run(
        [sys.executable, run.WORKER, "--workload", "scott-space",
         "--seed", "3", "--part", "1", "--check", "1"],
        capture_output=True, text=True, env=env, cwd=run.ROOT, timeout=300)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["errors"] == [] and result["check_failures"] == []
    return result["digest"]


def test_digest_repeats_across_hash_seeds():
    assert _worker_digest(0) == _worker_digest(1)


def test_tail_latency_leaves_ten_samples_beyond():
    values = [float(i) for i in range(1, 201)]
    p, value, beyond = run.tail_latency(values)
    assert (p, value, beyond) == (95.0, 190.0, 10)
    assert run.tail_latency(values[:15]) == (100.0, 15.0, 0)


def test_request_medians_pair_each_request_across_passes():
    passes = [{"part": 0, "latencies": [1.0, 4.0]},
              {"part": 1, "latencies": [9.0]},
              {"part": 0, "latencies": [3.0, 2.0]},
              {"part": 1, "latencies": [7.0]},
              {"part": 0, "latencies": [50.0, 6.0]}]
    assert run.request_medians(passes) == [[3.0, 4.0], [8.0]]


def test_scaled_uses_the_calibration_chunks_nearest_each_request():
    ref = run.REFERENCE_CHUNK_S
    p = {"setup_s": 2.0, "latencies": [1.0, 1.0, 3.0],
         "calibs": [2 * ref] * 6 + [ref] * 6, "calib_at": [1, 12, 7]}
    out = run.scaled(p)
    assert out["setup_s"] == 1.0
    assert out["latencies"] == [0.5, 1.0, 3.0]
    assert p["latencies"] == [1.0, 1.0, 3.0]
    few = {"setup_s": 1.0, "latencies": [1.0], "calibs": [ref / 2],
           "calib_at": [1]}
    assert run.scaled(few)["latencies"] == [2.0]


def test_compare_refuses_different_backends():
    base = {"workload": "entail", "trace": 0, "backend": "pure"}
    assert compare.comparable(base, dict(base)) == []
    assert compare.comparable(base, dict(base, backend="compiled"))


def test_no_sources_means_no_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(run.HERE):
        if name.endswith(".py"):
            (bench / name).write_bytes(
                open(os.path.join(run.HERE, name), "rb").read())
    out = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "entail",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
