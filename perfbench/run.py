"""indepax benchmark: one workload, one seed, end-to-end or traced.

    python3 perfbench/run.py --workload {fuzz,entail,types,scott-space}
        --seed N --seconds S --trace 0|1

The seed makes the inputs of the workload's parts (``Workload.parts``).
Each pass runs one part in its own child process (``worker.py``), one at a
time and single-threaded, so every pass starts with fresh process-global
caches and has its own peak RSS.  Passes cycle through the parts until
``--seconds`` of passes are done; a round is one pass of every part, and
at least two rounds run.  PYTHONHASHSEED alternates between 0 and 1 from
round to round, and every run of a part must give the same output digest.
The first round also checks every output against references that are not
the code under test.

On a shared host the speed of a core changes by up to half, within
seconds and for minutes at a time.  The worker times a fixed piece of
pure-Python work (``calib.py``) between requests, and every time reported
is scaled to a reference host by the chunks nearest it (``scaled``).  A
pass of a part does the same work every time, so a request's latency is
then its median over the passes of its part, which drops a pause that hit
it in one pass.  ``--trace 0`` reports the
end-to-end metrics from these per-request means (see ``end_to_end``).
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics of the traced passes, plus ``trace.overhead_ratio``; the
spans of the last traced pass go to ``perfbench/out/spans-<workload>.bin``.
Every run writes a record with its environment to ``perfbench/out/``, and
``compare.py`` compares two records.  The last line of standard output is
the JSON result.  The exit code is 0 only if every output checked out.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("fuzz", "entail", "types", "scott-space")
#: rounds (every part once) per run at least: two, so that every part
#: runs under both hash seeds (and, traced, once untraced and once traced)
MIN_ROUNDS = 2
#: a run stops starting passes once it would exceed this, whatever --seconds
HARD_LIMIT_S = 150.0
#: tail percentiles tried, highest first; the first with 10 samples beyond wins
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: the calibration chunk's time (``calib.py``) on the reference host; every
#: time the benchmark reports is scaled to a host that runs a chunk this fast
REFERENCE_CHUNK_S = 0.004
#: calibration chunks, nearest a request, whose median times the host for it
CALIB_WINDOW = 6


def tail_latency(values: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) at the highest percentile of
    the ladder that leaves at least 10 samples beyond it (nearest rank)."""
    xs = sorted(values)
    n = len(xs)
    for p in TAIL_LADDER:
        k = max(1, math.ceil(p / 100 * n))
        if n - k >= 10:
            return p, xs[k - 1], n - k
    return 100.0, xs[-1], 0


def source_revision() -> str:
    """The git commit of the checkout, or a digest of its sources when the
    checkout is not a git repository of its own."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".pyx")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return "src-sha256:" + h.hexdigest()


def child_env(hash_seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    # bytecode is always cached, in the benchmark's own directory, so set-up
    # time is the same whatever caches the checkout or the caller's
    # environment bring
    env["PYTHONPYCACHEPREFIX"] = os.path.join(OUT, "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def worker(args, part: int, hash_seed: int, *flags: str,
           timeout: float = 120.0) -> dict:
    """Run ``worker.py`` on one part of the inputs; its last output line."""
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--part", str(part), *flags]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(hash_seed),
                          capture_output=True, text=True,
                          timeout=max(1.0, timeout))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited with code "
                           f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(args) -> dict:
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "INDEPAX_FORCE_PURE": os.environ.get("INDEPAX_FORCE_PURE"),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "commit": source_revision()}


def measure(args, parts: int) -> tuple[list[dict], str, list[str]]:
    """Run passes until the time is used.  Returns the passes (each with
    its ``part``), the output digest of the run, and the problems found
    (failed requests, failed checks, digests that differ between runs of
    one part)."""
    start = time.monotonic()
    passes: list[dict] = []
    durations: list[float] = []  # per pass, without the output check
    digests: dict[int, str] = {}
    problems: list[str] = []
    while True:
        k = len(passes)
        part, rnd = k % parts, k // parts
        hash_seed = rnd % 2
        traced = bool(args.trace) and rnd % 2 == 1
        flags = ["--trace", str(int(traced)), "--check", str(int(rnd == 0))]
        if traced:
            flags += ["--spans", os.path.join(OUT, f"spans-{args.workload}.bin")]
        t = time.monotonic()
        p = worker(args, part, hash_seed, *flags,
                   timeout=start + HARD_LIMIT_S - t)
        p["part"] = part
        passes.append(p)
        durations.append(time.monotonic() - t - p.get("check_s", 0.0))

        problems += [f"pass {k}: {e}" for e in p["errors"]]
        problems += [f"part {part}: {e}" for e in p.get("check_failures", [])]
        problems += [f"pass {k}: {e}" for e in p.get("missed_layers", [])]
        if digests.setdefault(part, p["digest"]) != p["digest"]:
            problems.append(f"part {part}: digest under PYTHONHASHSEED="
                            f"{hash_seed} differs from the first run's")
        if p["backend"] != passes[0]["backend"]:
            problems.append(f"pass {k}: kernel backend changed")

        if k + 1 >= MIN_ROUNDS * parts and (
                sum(durations) + statistics.median(durations) > args.seconds
                or time.monotonic() - start + max(durations) > HARD_LIMIT_S):
            break
    digest = hashlib.sha256("".join(digests[i] for i in range(parts))
                            .encode()).hexdigest()
    return passes, digest, problems


def scaled(p: dict) -> dict:
    """A pass with its latencies and set-up time scaled to the reference
    host: each request's by the median of the ``CALIB_WINDOW`` calibration
    chunks nearest it (``calib_at`` is how many ran before it), the set-up's
    by the first ones."""
    chunks = p["calibs"]

    def factor(j: int) -> float:
        lo = max(0, min(j - CALIB_WINDOW // 2, len(chunks) - CALIB_WINDOW))
        return REFERENCE_CHUNK_S / statistics.median(chunks[lo:lo + CALIB_WINDOW])

    return dict(p, setup_s=p["setup_s"] * factor(0),
                latencies=[x * factor(j)
                           for x, j in zip(p["latencies"], p["calib_at"])])


def request_medians(passes: list[dict]) -> list[list[float]]:
    """Per part, each request's median latency over the passes of that part
    (parts may have run once more than others)."""
    by_part: dict[int, list[list[float]]] = {}
    for p in passes:
        by_part.setdefault(p["part"], []).append(p["latencies"])
    return [[statistics.median(xs) for xs in zip(*by_part[part])]
            for part in sorted(by_part)]


def end_to_end(passes: list[dict]) -> tuple[dict, dict]:
    """Metrics (value, unit) and the details printed beside them.

    Times are scaled to the reference host (``scaled``); the details give
    the host's median chunk time and the raw values.  Every latency is a
    request's median over the passes of its part.  ``wall_s`` is the request
    loop of one pass at those latencies (their sum), averaged over the
    parts; the latency percentiles are taken over the requests of all parts
    together, whose number is fixed by the workload, so the tail percentile
    does not depend on how many passes fitted into the run."""

    def summary(passes):
        medians = request_medians(passes)
        pooled = [x for part in medians for x in part]
        return {"setup_s": statistics.median(p["setup_s"] for p in passes),
                "wall_s": statistics.fmean(sum(part) for part in medians),
                "latency_p50_ms": statistics.median(pooled) * 1000,
                "latency_tail_ms": tail_latency(pooled)[1] * 1000,
                "pooled": pooled, "parts": len(medians)}

    ref, raw = summary([scaled(p) for p in passes]), summary(passes)
    pct, _tail, beyond = tail_latency(ref["pooled"])
    units = {"setup_s": "s", "wall_s": "s", "latency_p50_ms": "ms",
             "latency_tail_ms": "ms"}
    metrics = {name: (ref[name], unit) for name, unit in units.items()}
    metrics["peak_rss_mb"] = (
        statistics.median(p["peak_rss_mb"] for p in passes), "MB")
    host_ms = statistics.median(c for p in passes for c in p["calibs"]) * 1000
    details = {name: f"raw {raw[name]:.6g} {unit}"
               for name, unit in units.items()}
    details["setup_s"] += (f"; median of {len(passes)} passes; host chunk "
                           f"{host_ms:.3f} ms, reference "
                           f"{REFERENCE_CHUNK_S * 1000:g} ms")
    details["wall_s"] += f"; one pass, mean of {ref['parts']} parts"
    per_request = (f"{len(ref['pooled'])} requests ({ref['parts']} parts), "
                   f"each the median of {len(passes) // ref['parts']}+ passes")
    details["latency_p50_ms"] += "; " + per_request
    details["latency_tail_ms"] += (f"; p{pct:g}, {beyond} samples beyond; "
                                   + per_request)
    details["peak_rss_mb"] = f"median of {len(passes)} passes"
    return metrics, details


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    metrics = {}
    for name in traced[0]["layers"]:
        values = [p["layers"][name] for p in traced]
        unit = ("s" if name.endswith("_s") else
                "ratio" if name.endswith("_ratio") else "count")
        metrics[name] = (statistics.median(values), unit)
    # each pass's loop in units of its host's chunk time
    ratio = (statistics.median(p["wall_s"] / statistics.median(p["calibs"])
                               for p in traced)
             / statistics.median(p["wall_s"] / statistics.median(p["calibs"])
                                 for p in untraced))
    metrics["trace.overhead_ratio"] = (ratio, "ratio")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind through subprocess.run, which kills the running
    # worker and waits for it
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "indepax", "__init__.py")):
        print(f"error: no indepax sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    env = environment(args)
    try:
        parts = worker(args, 0, 0, "--warm")["parts"]
        passes, digest, problems = measure(args, parts)
        untraced = [p for p in passes if "layers" not in p]
        traced = [p for p in passes if "layers" in p]
        if traced:
            metrics, details = per_layer(untraced, traced), {}
        else:
            metrics, details = end_to_end(untraced)
    except (RuntimeError, subprocess.SubprocessError, ValueError,
            KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env["backend"] = passes[0]["backend"]
    attempted = sum(len(p["latencies"]) for p in passes)
    # every problem is a failed request, output check or digest comparison
    failed = min(attempted, len(problems))

    print(" ".join(f"{k}={v}" for k, v in env.items()))
    print(f"passes={len(passes)} parts={parts} digest={digest}")
    for name, (value, unit) in metrics.items():
        extra = f"  ({details[name]})" if name in details else ""
        print(f"{name:<40} {value:.6g} {unit}{extra}")
    print(f"{'error_rate':<40} {failed / attempted:.6g}  "
          f"({failed} of {attempted} requests)")
    for line in problems[:20]:
        print(f"problem: {line}")

    result = {"correct": not problems, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    record = dict(env, passes=len(passes), digest=digest,
                  pass_walls=[p["wall_s"] for p in passes],
                  error_rate=failed / attempted, problems=problems, **result)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
