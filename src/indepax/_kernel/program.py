"""Flattened sentence programs walked by the evaluation kernel.

A compiled sentence is a DAG of numbered nodes stored in parallel arrays.
"""

from dataclasses import dataclass, field

OP_ATOM = 0
OP_EQ = 1
OP_NOT = 2
OP_AND = 3
OP_OR = 4
OP_EXISTS = 5
OP_FORALL = 6


@dataclass
class Program:
    """Array-encoded sentence DAG.

    ops[i]       opcode of node i
    arg1[i]      ATOM: relation index; EQ: left slot; NOT/EXISTS/FORALL: child node
    arg2[i]      EQ: right slot; EXISTS/FORALL: bound slot; otherwise -1
    cstart/cend  AND/OR: child-node range in `children`; ATOM: arg-slot range
    children     concatenated child node ids / atom argument slots
    used[i]      sorted env slots that node i's subtree reads (its memo key)
    """

    ops: list[int] = field(default_factory=list)
    arg1: list[int] = field(default_factory=list)
    arg2: list[int] = field(default_factory=list)
    cstart: list[int] = field(default_factory=list)
    cend: list[int] = field(default_factory=list)
    children: list[int] = field(default_factory=list)
    used: list[tuple[int, ...]] = field(default_factory=list)
    root: int = -1
    nslots: int = 0

    def add_node(self, op: int, a1: int = -1, a2: int = -1,
                 kids: tuple[int, ...] = (), used: tuple[int, ...] = ()) -> int:
        idx = len(self.ops)
        self.ops.append(op)
        self.arg1.append(a1)
        self.arg2.append(a2)
        self.cstart.append(len(self.children))
        self.children.extend(kids)
        self.cend.append(len(self.children))
        self.used.append(used)
        return idx
