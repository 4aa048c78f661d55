"""Command-line entry point.

Exit codes: 0 success/verified, 1 verification failure or inapplicable
operation, 2 malformed input (including sentences nested too deeply to
evaluate).  Reports are JSON with sorted keys; a fixed seed reproduces fuzz
runs byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
from collections.abc import Iterable
from typing import Optional

from . import __version__, generators, model, scott, setfam, transforms, verify
from .errors import (IndepaxError, MalformedSentenceError, ParseError,
                     VerificationInternalError)
from .model import (ModelSpace, Theory, enumerate_models, infer_signature,
                    load_structure, load_theory, structure_to_json,
                    sexpr_length, theory_to_json, to_sexpr)

# The Scott sentence's text writes its DAG out as a tree.  ``indepax scott``
# holds it once as a string and prints it twice, peaking at about 35 MB
# plus 5.5 bytes per character (a 25,579,372-character sentence of a
# size-4 P/1 + R/2 structure: 175 MB peak RSS; a 127,297,120-character one
# of a size-4 P/1 + R/2 + T/3 structure: 733 MB), so the cap keeps the
# command under about 220 MB.
MAX_SCOTT_TEXT = 1 << 25


def _dump(report: dict, out_dir: Optional[str], name: str) -> None:
    # stream: full-space transform outputs can be hundreds of MB of
    # s-expressions, so never build the whole document in memory
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")


def _space_for(sentences: Iterable[model.Sentence], args) -> ModelSpace:
    return enumerate_models(infer_signature(sentences), args.max_size,
                            class_cap=args.cap_classes)


def _structure_json(s: Optional[model.Structure]):
    return structure_to_json(s) if s is not None else None


def _transform_report_json(rep: transforms.TransformReport) -> dict:
    return {
        "method": rep.method,
        "bound": rep.bound,
        "note": "all claims relative to structures of size <= bound",
        "input": theory_to_json(rep.input),
        "output": theory_to_json(rep.output),
        "output_labels": list(rep.output.labels),
        "equivalence_checked": rep.equivalence_checked,
        "independence_witnesses": [_structure_json(w)
                                   for w in rep.independence_witnesses],
        "notes": rep.notes,
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_scott(args) -> int:
    M = load_structure(args.structure)
    # the height first: its partition cap refuses an oversized structure
    # before the sentence's literal caps would
    height = scott.scott_height(M)
    sentence = (scott.scott_sentence(M, args.cap_materialize)
                if M.size <= args.cap_materialize else None)
    invariant = scott.canonical_invariant(M)
    print(f"size: {M.size}")
    print(f"scott height: {height}")
    print(f"invariant: {invariant}")
    sentence_text = None
    if sentence is None:
        print(f"scott sentence: not materialized (size > cap "
              f"{args.cap_materialize})")
    elif (length := sexpr_length(sentence)) > MAX_SCOTT_TEXT:
        print(f"scott sentence: not materialized (text of {length} "
              f"characters exceeds cap {MAX_SCOTT_TEXT})")
    else:
        sentence_text = to_sexpr(sentence)
        print(f"scott sentence: {sentence_text}")
    _dump({"command": "scott", "size": M.size, "height": height,
           "invariant": invariant, "sentence": sentence_text},
          args.out, "scott.json")
    return 0


def cmd_analyze(args) -> int:
    T = load_theory(args.theory)
    space = _space_for(T.sentences, args)
    sentence = model.And(T.sentences)
    part = scott.space_partition(space)
    rows = []
    for alpha in range(part.stabilization_level + 1):
        psi, phi = scott._alpha_labels(sentence, alpha, space)
        rows.append({"alpha": alpha, "psi": len(psi), "phi": len(phi)})
        print(f"alpha={alpha}: {len(psi)} tuple types, {len(phi)} model types")
    print(f"stabilizes at level {part.stabilization_level} over "
          f"{len(space.representatives)} classes (max size {args.max_size})")
    _dump({"command": "analyze", "max_size": args.max_size,
           "classes": len(space.representatives),
           "stabilization_level": part.stabilization_level, "levels": rows},
          args.out, "analyze.json")
    return 0


def cmd_transform(args) -> int:
    T = load_theory(args.theory)
    extra_sentences = []
    if args.extra:
        extra_sentences = list(load_theory(args.extra).sentences)
    parts = []
    if args.parts:
        parts = list(load_theory(args.parts).sentences)
    space = _space_for(list(T.sentences) + extra_sentences + parts, args)

    method = args.method
    if method == "auto":
        rep = transforms.independent_axiomatize(T, space)
    elif method == "partition":
        if args.pivot is None or not parts:
            raise ParseError("partition method needs --pivot and --parts")
        rep = transforms.partition_transform(T, args.pivot, parts, space)
    elif method == "reznikoff":
        if args.extra is None:
            raise ParseError("reznikoff method needs --extra (the D list)")
        rep = transforms.reznikoff_pairing(T, Theory.of(extra_sentences), space)
    elif method == "complement":
        rep = transforms.complement_axiomatization(T, space)
    else:
        rep = transforms.scott_filter_transform(T, space)

    print(f"method {rep.method}: {len(rep.input)} sentences in, "
          f"{len(rep.output)} out, verified over sizes <= {rep.bound}")
    _dump({"command": "transform", **_transform_report_json(rep)},
          args.out, "transform.json")
    return 0


def cmd_setfam(args) -> int:
    if args.from_theory:
        T = load_theory(args.from_theory)
        space = _space_for(T.sentences, args)
        F = setfam.theory_to_family(T, space)
        print(f"family over universe {F.universe_size} "
              f"({len(F)} sets from {len(T)} sentences)")
        _dump({"command": "setfam", "mode": "from-theory",
               "max_size": args.max_size, "family": setfam.family_to_json(F)},
              args.out, "setfam.json")
        return 0
    F = setfam.family_from_json(model.load_json(args.family))
    if args.check:
        ok, check = setfam.family_is_independent(F)
        print(f"independent: {ok}" + (f" ({check.failure})" if not ok else ""))
        _dump({"command": "setfam", "mode": "check", "independent": ok,
               "intersection_witness": check.intersection_witness,
               "removal_witnesses": list(check.removal_witnesses),
               "failure": check.failure},
              args.out, "setfam.json")
        return 0 if ok else 1
    rep = setfam.independize_family(F)
    print(f"independized: {len(F)} sets -> {len(rep.output)} "
          f"(dropped {list(rep.dropped)})")
    _dump({"command": "setfam", "mode": "independize",
           "input": setfam.family_to_json(rep.input),
           "output": setfam.family_to_json(rep.output),
           "dropped": list(rep.dropped),
           "equivalence_checked": rep.equivalence_checked},
          args.out, "setfam.json")
    return 0


def cmd_verify(args) -> int:
    T = load_theory(args.theory)
    sentences = list(T.sentences)
    other = None
    if args.equivalent_to:
        other = load_theory(args.equivalent_to)
        sentences += list(other.sentences)
    space = _space_for(sentences, args)
    results = {}
    passed = True
    if args.independent:
        rep = verify.check_independence(T, space)
        results["independence"] = {
            "verdict": rep.verdict,
            "witnesses": [{"index": c["index"],
                           "witness": _structure_json(c["witness"])}
                          for c in rep.certificates],
            "counterexample": rep.counterexample,
        }
        passed &= rep.passed
        print(f"independence: {rep.verdict}")
    if other is not None:
        rep = verify.check_theories_equivalent(T, other, space)
        ce = rep.counterexample
        results["equivalence"] = {
            "verdict": rep.verdict,
            "counterexample": ({"witness": _structure_json(ce["witness"]),
                                "satisfies_only": ce["satisfies_only"]}
                               if ce else None),
        }
        passed &= rep.passed
        print(f"equivalence: {rep.verdict}")
    if not results:
        raise ParseError("nothing to verify: pass --independent and/or "
                         "--equivalent-to")
    _dump({"command": "verify", "bound": args.max_size, **results},
          args.out, "verify.json")
    return 0 if passed else 1


def cmd_fuzz(args) -> int:
    rng = random.Random(args.seed)
    space = enumerate_models(generators.FUZZ_SIGNATURE, args.max_size,
                             class_cap=args.cap_classes)
    theory_runs = []
    all_ok = True
    for i in range(args.count):
        T = generators.random_theory(rng, space)
        rep = transforms.independent_axiomatize(T, space)
        ind = verify.check_independence(rep.output, space)
        eq = verify.check_theories_equivalent(T, rep.output, space)
        ok = ind.passed and eq.passed
        all_ok &= ok
        # outputs can run to hundreds of MB of s-expressions; the summary
        # pins their semantics (per-sentence model sets) instead
        sem = hashlib.sha256(model.long_repr(
            [space.satset(s) for s in rep.output]).encode()).hexdigest()
        theory_runs.append({
            "input": theory_to_json(T),
            "output_sentences": len(rep.output),
            "output_labels": list(rep.output.labels),
            "output_semantics": sem,
            "stage": rep.notes.get("stage"),
            "independent": ind.verdict,
            "equivalent": eq.verdict,
        })
    family_runs = []
    for i in range(args.count):
        F = generators.random_family(rng)
        rep = setfam.independize_family(F)
        ok = rep.equivalence_checked and rep.check.independent
        all_ok &= ok
        family_runs.append({
            "input": setfam.family_to_json(F),
            "output": setfam.family_to_json(rep.output),
            "dropped": list(rep.dropped),
            "verified": ok,
        })
    verdict = "pass" if all_ok else "fail"
    print(f"fuzz seed={args.seed}: {args.count} theories + {args.count} "
          f"families over max_size {args.max_size}: {verdict}")
    _dump({"command": "fuzz", "seed": args.seed, "count": args.count,
           "max_size": args.max_size, "verdict": verdict,
           "theories": theory_runs, "families": family_runs},
          args.out, "fuzz.json")
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------

def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", default=None,
                        help="directory for JSON reports (default: stdout)")
    bounded = argparse.ArgumentParser(add_help=False, parents=[output])
    bounded.add_argument("--max-size", type=_positive_int, default=3,
                         help="bound on structure sizes (default 3)")
    bounded.add_argument("--cap-classes", type=_positive_int, default=100_000,
                         help="enumeration cap on isomorphism classes")

    p = argparse.ArgumentParser(
        prog="indepax",
        description="Scott analysis and independent axiomatizations over "
                    "bounded model spaces")
    p.add_argument("--version", action="version",
                   version=f"indepax {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("scott", parents=[output],
                        help="Scott height, invariant, and sentence")
    sp.add_argument("structure", help="structure JSON file")
    sp.add_argument("--cap-materialize", type=_positive_int,
                    default=scott.DEFAULT_MATERIALIZE_CAP,
                    help="size cap for Scott sentence materialization")
    sp.set_defaults(func=cmd_scott)

    ap = sub.add_parser("analyze", parents=[bounded],
                        help="type counts per level for a theory")
    ap.add_argument("theory", help="theory JSON file")
    ap.set_defaults(func=cmd_analyze)

    tp = sub.add_parser("transform", parents=[bounded],
                        help="independent axiomatization transforms")
    tp.add_argument("theory", help="theory JSON file")
    tp.add_argument("--method", default="auto",
                    choices=["auto", "partition", "reznikoff", "complement",
                             "scott-filter"])
    tp.add_argument("--pivot", type=int, default=None,
                    help="pivot sentence index (partition method)")
    tp.add_argument("--parts", default=None,
                    help="theory file with the partition parts")
    tp.add_argument("--extra", default=None,
                    help="theory file with the D sentences (reznikoff)")
    tp.set_defaults(func=cmd_transform)

    fp = sub.add_parser("setfam", parents=[bounded],
                        help="set-family checks and constructions")
    mode = fp.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true")
    mode.add_argument("--independize", action="store_true")
    mode.add_argument("--from-theory", default=None, metavar="THEORY")
    fp.add_argument("family", nargs="?", default=None,
                    help="family JSON file")
    fp.set_defaults(func=cmd_setfam)

    vp = sub.add_parser("verify", parents=[bounded],
                        help="brute-force verification of theories")
    vp.add_argument("theory", help="theory JSON file")
    vp.add_argument("--independent", action="store_true",
                    help="check independence")
    vp.add_argument("--equivalent-to", default=None, metavar="THEORY",
                    help="check equivalence against another theory file")
    vp.set_defaults(func=cmd_verify)

    zp = sub.add_parser("fuzz", parents=[bounded],
                        help="seeded random theories/families through the "
                             "full verify loop")
    zp.add_argument("--count", type=_positive_int, default=20,
                    help="instances per kind (default 20)")
    zp.add_argument("--seed", type=int, default=0,
                    help="random seed (default 0)")
    zp.set_defaults(func=cmd_fuzz)
    return p


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "setfam" and not args.from_theory and not args.family:
        print("error: family file required", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ParseError, MalformedSentenceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # the parser admits MAX_PARSE_DEPTH levels; some recursive walks
        # over a sentence run out of stack before that
        print("error: sentence nested too deeply to evaluate",
              file=sys.stderr)
        return 2
    except VerificationInternalError as exc:
        print(f"internal verification failure (bug): {exc}", file=sys.stderr)
        return 1
    except IndepaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
