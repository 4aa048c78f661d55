"""Hot kernel: sentence evaluation and partition refinement.

``indepax._kernel.active`` is the module used by the evaluator and the
partition refiner.  Callers look its functions up as attributes at call
time, so a tracer can wrap them in place.

A ``Program`` holds one runner closure per node and slot context, built
by the node constructors of ``pure`` (``atom``, ``eq``, ``not_``,
``and_``, ``or_``, ``exists``, ``forall``) and listed in ``Program.ops``,
and holds the root's as ``Program.run``.  No runner is shared between
programs.  ``model.compile_sentence`` wraps the runners of the nodes it
memoizes in ``pure.memoize`` (the rule is stated there).
``active.eval_program(prog, size, masks, env0, width=1)`` evaluates the
program over a run of ``width`` structures of one size at once, with a
fresh environment and memo, so one program can be evaluated from several
threads at once; it returns the bitset of the run's structures where the
sentence holds (``pure.Program`` states the layout of ``masks`` and the
runners' context).

``active.refine_levels(sizes, n_max, init_labels)`` takes each structure's
tuples of length 0..n_max in heap order (by length, each length in product
order), so the one-element extensions of a size-n structure's local item i
are its items n*i+1 .. n*i+n, and items at the length cap have none.  It
returns ``(levels, stable)``: one ``array('i')`` of labels per level, and
the first level whose refinement is itself.
"""

from . import pure
from .pure import Program

active = pure

BACKEND = active.BACKEND

__all__ = ["Program", "active", "pure", "BACKEND"]
