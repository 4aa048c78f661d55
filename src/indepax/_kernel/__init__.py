"""Hot kernel: sentence evaluation and partition refinement.

``indepax._kernel.active`` is the module used by the evaluator and the
partition refiner.  Callers look its functions up as attributes at call
time, so a tracer can wrap them in place.

A ``Program`` compiles each node to a closure as the node is added, and
keeps the root's as ``Program.run``.  ``active.eval_program(prog, size,
masks, env0)`` calls it as ``run(env, (size, masks, memo))`` with a fresh
environment and memo, so one program can be evaluated from several threads
at once.

``active.refine_levels(first, width, init_labels)`` takes each item's
one-element extensions as one contiguous block: the ``width[i]`` items from
index ``first[i]`` on (width 0 at the tuple-length cap).  It returns
``(levels, stable)``: one ``array('i')`` of labels per level, and the first
level whose refinement is itself.
"""

from . import pure
from .pure import (OP_AND, OP_ATOM, OP_EQ, OP_EXISTS, OP_FORALL, OP_NOT,
                   OP_OR, Program)

active = pure

BACKEND = active.BACKEND

__all__ = [
    "Program", "OP_ATOM", "OP_EQ", "OP_NOT", "OP_AND", "OP_OR",
    "OP_EXISTS", "OP_FORALL", "active", "pure", "BACKEND",
]
