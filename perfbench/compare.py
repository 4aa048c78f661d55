"""Compare two benchmark records written by ``run.py``.

    python3 perfbench/compare.py BASE.json NEW.json

Prints each metric of both records with the ratio new/base and, for the
end-to-end metrics, whether the change exceeds the bound in
``BENCHMARK.json``.  Refuses (exit code 2) to compare records of different
workloads, trace modes or kernel back ends: numbers from the pure and the
compiled kernel are not comparable.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def comparable(base: dict, new: dict) -> list[str]:
    """Reasons the two records must not be compared (empty if none)."""
    return [f"{key} differs: {base.get(key)!r} vs {new.get(key)!r}"
            for key in ("workload", "trace", "backend")
            if base.get(key) != new.get(key)]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    records = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    base, new = records
    reasons = comparable(base, new)
    if reasons:
        print("refusing to compare: " + "; ".join(reasons), file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    print(f"workload={base['workload']} backend={base['backend']} "
          f"base={base['commit']} seed={base['seed']} "
          f"new={new['commit']} seed={new['seed']}")
    for name, m in base["metrics"].items():
        b = m["value"]
        n = new["metrics"].get(name, {}).get("value")
        if n is None:
            continue
        ratio = n / b if b else float("nan")
        verdict = ""
        if name in bounds:
            bound, better = bounds[name]
            worse = ratio - 1 if better == "lower" else 1 - ratio
            verdict = "WORSE than bound" if worse > bound else "within bound"
        print(f"{name:<40} {b:>12.6g} {n:>12.6g} {m['unit']:<6} "
              f"x{ratio:.3f} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
