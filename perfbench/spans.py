"""Per-layer tracing for the benchmark's traced run.

The traced run wraps each public library function at every name its
callers look it up by (a module global, a class attribute, or an attribute
of ``indepax._kernel.active``) and records one span per call: label,
start, end, parent span and request id.  Spans stay in memory, in flat
arrays so that a million calls cost tens of MB, and are written to a file
when the run ends.  ``Tracer.uninstall`` puts every original binding back.

Untraced runs never import this module's wrappers into the library.
"""

from __future__ import annotations

import json
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Layer:
    """A traced function: its label and every (owner, attribute) it is
    looked up by.  The first binding is the function's home; the others are
    modules that imported it by name.  Owners are named here and resolved
    at install time, so importing this module imports no library code."""

    label: str
    bindings: tuple[tuple[str, str], ...]


LAYERS = (
    Layer("kernel.eval_program", (("kernel", "eval_program"),)),
    Layer("kernel.refine_levels", (("kernel", "refine_levels"),)),
    Layer("model.enumerate_models", (("model", "enumerate_models"),)),
    Layer("model.compile_sentence", (("model", "compile_sentence"),)),
    Layer("model.eval", (("model", "eval"),)),
    Layer("model.ModelSpace.satset", (("ModelSpace", "satset"),)),
    Layer("model.ModelSpace.elem_satset", (("ModelSpace", "elem_satset"),)),
    Layer("model.to_sexpr", (("model", "to_sexpr"), ("transforms", "to_sexpr"))),
    Layer("scott.joint_type_partition", (("scott", "joint_type_partition"),)),
    Layer("scott.type_formula",
          (("scott", "type_formula"), ("generators", "type_formula"))),
    Layer("scott.space_scott_sentence",
          (("scott", "space_scott_sentence"),
           ("transforms", "space_scott_sentence"))),
    Layer("scott.canonical_invariant", (("scott", "canonical_invariant"),)),
    Layer("scott.scott_height", (("scott", "scott_height"),)),
    Layer("transforms.independent_axiomatize",
          (("transforms", "independent_axiomatize"),)),
    Layer("transforms.scott_filter_transform",
          (("transforms", "scott_filter_transform"),)),
    Layer("transforms.build_separating_tree",
          (("transforms", "build_separating_tree"),)),
    Layer("transforms.phi_star", (("transforms", "phi_star"),)),
    Layer("verify.check_independence",
          (("verify", "check_independence"),
           ("transforms", "check_independence"))),
    Layer("verify.check_theories_equivalent",
          (("verify", "check_theories_equivalent"),
           ("transforms", "check_theories_equivalent"))),
    Layer("setfam.case2_transform", (("setfam", "case2_transform"),)),
    Layer("generators.random_theory", (("generators", "random_theory"),)),
)


def _owners() -> dict[str, object]:
    from indepax import (_kernel, generators, model, scott, setfam,
                         transforms, verify)
    return {"kernel": _kernel.active, "model": model,
            "ModelSpace": model.ModelSpace, "scott": scott,
            "transforms": transforms, "verify": verify, "setfam": setfam,
            "generators": generators}


class Tracer:
    """Span recorder plus the counters measured at the same boundaries."""

    def __init__(self):
        self.labels = [layer.label for layer in LAYERS]
        self.start = array("d")
        self.end = array("d")
        self.label = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.request_id = -1
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _bump(self, name: str, by: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + by

    def wrap(self, label: str, fn: Callable,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        code = self.labels.index(label)
        start, end, lab, parent, request = (
            self.start, self.end, self.label, self.parent, self.request)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(start)
            lab.append(code)
            parent.append(stack[-1] if stack else -1)
            request.append(self.request_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", label)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- hooks for the counters -------------------------------------------

    def _hooks(self) -> dict[str, tuple[Optional[Callable], Optional[Callable]]]:
        programs: dict[int, object] = {}
        satsets: dict[int, tuple[object, set]] = {}
        scott_seen: dict[int, tuple[object, set]] = {}

        def compiled(prog):
            # a Program object not seen before was built by this call; the
            # dict keeps it alive so its id is never reused
            if id(prog) in programs:
                self._bump("compile.hit")
            else:
                programs[id(prog)] = prog
                self._bump("compile.miss")
                self._bump("model.compile_sentence.nodes", len(prog.ops))

        def per_space(table, space, key, name):
            _space, seen = table.setdefault(id(space), (space, set()))
            self._bump(name + (".hit" if key in seen else ".miss"))
            seen.add(key)

        return {
            "model.compile_sentence": (None, compiled),
            "model.ModelSpace.satset": (
                lambda a: per_space(satsets, a[0], id(a[1]), "satset"), None),
            "scott.space_scott_sentence": (
                lambda a: per_space(scott_seen, a[0], a[1], "scott"), None),
            "scott.joint_type_partition": (
                None, lambda part: self._bump("scott.joint_type_partition.items",
                                              len(part.items))),
            "kernel.refine_levels": (
                None, lambda res: self._bump("kernel.refine_levels.levels",
                                             len(res[0]))),
            "model.enumerate_models": (
                None, lambda space: self._bump("model.enumerate_models.classes",
                                               len(space.representatives))),
        }

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        owners = _owners()
        hooks = self._hooks()
        try:
            for layer in LAYERS:
                home, attr = layer.bindings[0]
                original = getattr(owners[home], attr)
                wrapper = self.wrap(layer.label, original,
                                    *hooks.get(layer.label, (None, None)))
                for owner_name, name in layer.bindings:
                    owner = owners[owner_name]
                    if getattr(owner, name) is not original:
                        raise RuntimeError(
                            f"{owner_name}.{name} is not {home}.{attr}; "
                            "the wrapper would miss its calls")
                    self._patches.append((owner, name, original))
                    setattr(owner, name, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer calls and self seconds, plus the counters."""
        calls, self_s = layer_times(self.start, self.end, self.label,
                                    self.parent, len(self.labels))
        out: dict[str, float] = {}
        for code, label in enumerate(self.labels):
            out[label + ".calls"] = calls[code]
            out[label + ".self_s"] = self_s[code]
        for name in ("model.compile_sentence.nodes",
                     "scott.joint_type_partition.items",
                     "kernel.refine_levels.levels",
                     "model.enumerate_models.classes"):
            out[name] = self.counts.get(name, 0)
        for prefix, name in (("compile", "model.compile_sentence.hit_ratio"),
                             ("satset", "model.ModelSpace.satset.hit_ratio"),
                             ("scott", "scott.space_scott_sentence.hit_ratio")):
            hits = self.counts.get(prefix + ".hit", 0)
            total = hits + self.counts.get(prefix + ".miss", 0)
            out[name] = hits / total if total else 0.0
        return out

    def write(self, path: str, header: dict) -> None:
        head = dict(header, labels=self.labels, spans=len(self.start))
        with open(path, "wb") as fh:
            fh.write(json.dumps(head, sort_keys=True).encode() + b"\n")
            for arr in (self.start, self.end, self.label, self.parent,
                        self.request):
                arr.tofile(fh)


def read_spans(path: str) -> tuple[dict, list[tuple[str, float, float, int, int]]]:
    """Inverse of ``Tracer.write``: the header and (label, start, end,
    parent, request) per span, in recording order."""
    with open(path, "rb") as fh:
        head = json.loads(fh.readline())
        n = head["spans"]
        arrays = []
        for code in ("d", "d", "i", "i", "i"):
            arr = array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    start, end, label, parent, request = arrays
    labels = head["labels"]
    return head, [(labels[label[i]], start[i], end[i], parent[i], request[i])
                  for i in range(n)]


def layer_times(start, end, label, parent, nlabels: int
                ) -> tuple[list[int], list[float]]:
    """Calls and total self time per label code.

    A span's self time is its duration minus the part of its interval that
    its child spans cover (their union, clipped to the parent).  Spans must
    be listed in start order, as the tracer records them.
    """
    n = len(start)
    covered = [0.0] * n
    reach: dict[int, float] = {}
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], start[p], reach.get(p, start[p]))
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    calls = [0] * nlabels
    self_s = [0.0] * nlabels
    for i in range(n):
        calls[label[i]] += 1
        self_s[label[i]] += end[i] - start[i] - covered[i]
    return calls, self_s
