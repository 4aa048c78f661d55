"""One pass of one workload, in a fresh process: set up, run every request
once in a closed loop (one client), optionally check the outputs, and print
the measurements as one JSON line.  ``run.py`` starts this; it is not meant
to be run by hand.  The inputs come from the seed and the part number.

    python3 perfbench/worker.py --workload NAME --seed N --part K
        --trace 0|1 --check 0|1 [--spans PATH]
    python3 perfbench/worker.py --workload NAME --warm
        # import only (fills the pyc cache); prints the workload's parts
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
#: request-loop time between two calibration chunks (``calib.py``)
CALIB_EVERY_S = 0.1
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--part", type=int, default=0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--check", type=int, default=0)
    ap.add_argument("--spans")
    ap.add_argument("--warm", action="store_true")
    args = ap.parse_args()

    import workloads
    from indepax import _kernel
    if args.warm:
        import spans  # noqa: F401
        parts = workloads.WORKLOADS[args.workload].parts
        sys.stdout.write(json.dumps({"parts": parts}) + "\n")
        return 0
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    # str seeds are hashed with SHA-512 by random.seed, whatever PYTHONHASHSEED
    seed = f"{args.seed}/{args.part}"
    wl = workloads.WORKLOADS[args.workload](seed)
    setup_s = time.perf_counter() - T0

    import calib
    raws, latencies, errors = [], [], []
    # calibration chunk times, and per request the chunks run before it
    calibs, calib_at = [], []
    clock = time.perf_counter
    loop_start = clock()
    next_calib = loop_start
    for i in range(wl.count):
        if tracer is not None:
            tracer.request_id = i
        if clock() >= next_calib:
            calibs.append(calib.timed_chunk())
            next_calib = clock() + CALIB_EVERY_S
        calib_at.append(len(calibs))
        t = clock()
        try:
            raw = wl.request(i)
        except Exception as exc:  # a failed request is counted, not fatal
            raw = None
            errors.append(f"request {i}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
        latencies.append(clock() - t)
        raws.append(raw)
    wall_s = clock() - loop_start - sum(calibs)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {"setup_s": setup_s, "wall_s": wall_s, "latencies": latencies,
              "calibs": calibs, "calib_at": calib_at,
              "peak_rss_mb": rss_mb, "errors": errors,
              "backend": _kernel.BACKEND}
    if tracer is not None:
        tracer.request_id = -1
        tracer.uninstall()
        layers = tracer.layer_metrics()
        result["layers"] = layers
        result["missed_layers"] = [
            f"{name} recorded no calls" for name in wl.layers
            if not layers[name + ".calls"]] + [
            f"{name} recorded {int(layers[name + '.calls'])} calls"
            for name in wl.absent if layers[name + ".calls"]]
        if args.spans:
            tracer.write(args.spans, {"workload": args.workload,
                                      "seed": seed})
    records = [wl.summarize(i, raw) if raw is not None else {"error": True}
               for i, raw in enumerate(raws)]
    result["digest"] = hashlib.sha256(
        json.dumps(records, sort_keys=True).encode()).hexdigest()
    if args.check:
        t = clock()
        result["check_failures"] = wl.check(raws, seed)
        result["check_s"] = clock() - t
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
