"""Finite relational structures, sentence ASTs, evaluation, and bounded
model spaces.

Sentences are hash-consed: building the same shape twice yields the same
object, so structural equality is identity and per-sentence caches can key
on ``id``.  All values are immutable after construction; every operation
here is a pure function of its inputs plus the (idempotent) caches.
"""

from __future__ import annotations

import itertools
import json
import re
from functools import cached_property, lru_cache, reduce
from operator import attrgetter
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from . import _kernel
from ._kernel import Program, pure
from .errors import (EnumerationOverflowError, MalformedSentenceError,
                     ParseError, PreconditionError, SignatureMismatchError)

_IDENT = re.compile(r"^[A-Za-z_][A-Za-z0-9_.'-]*$")
MAX_PARSE_DEPTH = 400

# ---------------------------------------------------------------------------
# Sentence AST (interned)
# ---------------------------------------------------------------------------

# Keys hold child nodes themselves (nodes hash and compare by identity), and
# the table keeps every node alive, so an id never names two nodes.
_INTERN: dict = {}
# one frozenset per distinct free-variable set: many nodes, few sets
_FREE: dict = {}


def _free(names: Iterable[str]) -> frozenset[str]:
    s = frozenset(names)
    return _FREE.setdefault(s, s)


class Sentence:
    """Base class for formula nodes.  A sentence is a formula whose ``free``
    set is empty."""

    __slots__ = ("free",)

    def __repr__(self):
        return to_sexpr(self)


class Atom(Sentence):
    __slots__ = ("rel", "args")

    def __new__(cls, rel: str, args: Iterable[str]):
        args = tuple(args)
        key = (cls, rel, args)
        node = _INTERN.get(key)
        if node is None:
            node = object.__new__(cls)
            node.rel = rel
            node.args = args
            node.free = _free(args)
            _INTERN[key] = node
        return node


class Eq(Sentence):
    __slots__ = ("left", "right")

    def __new__(cls, left: str, right: str):
        key = (cls, left, right)
        node = _INTERN.get(key)
        if node is None:
            node = object.__new__(cls)
            node.left = left
            node.right = right
            node.free = _free((left, right))
            _INTERN[key] = node
        return node


class Not(Sentence):
    __slots__ = ("child",)

    def __new__(cls, child: Sentence):
        key = (cls, child)
        node = _INTERN.get(key)
        if node is None:
            node = object.__new__(cls)
            node.child = child
            node.free = child.free
            _INTERN[key] = node
        return node


class And(Sentence):
    """Finite conjunction over a set of children (duplicates collapse, a
    single child collapses to itself, the empty conjunction is true)."""

    __slots__ = ("children",)

    def __new__(cls, children: Iterable[Sentence]):
        kids = tuple(dict.fromkeys(children))  # nodes hash by identity
        if len(kids) == 1:
            return kids[0]
        key = (cls, kids)
        node = _INTERN.get(key)
        if node is None:
            node = object.__new__(cls)
            node.children = kids
            node.free = _free(frozenset().union(*(c.free for c in kids)))
            _INTERN[key] = node
        return node


class Or(Sentence):
    """Finite disjunction, built as ``And`` is; empty disjunction is false."""

    __slots__ = ("children",)
    __new__ = And.__new__


class Exists(Sentence):
    __slots__ = ("var", "child")

    def __new__(cls, var: str, child: Sentence):
        key = (cls, var, child)
        node = _INTERN.get(key)
        if node is None:
            node = object.__new__(cls)
            node.var = var
            node.child = child
            node.free = _free(child.free - {var})
            _INTERN[key] = node
        return node


class Forall(Sentence):
    __slots__ = ("var", "child")
    __new__ = Exists.__new__


#: canonical contradiction: no element differs from itself
CONTRADICTION = Exists("x", Not(Eq("x", "x")))
#: valid over every nonempty domain
TAUTOLOGY = Exists("x", Eq("x", "x"))


def _children(node: Sentence) -> tuple[Sentence, ...]:
    kind = type(node)
    if kind is And or kind is Or:
        return node.children
    if kind is Not or kind is Exists or kind is Forall:
        return (node.child,)
    if kind is Atom or kind is Eq:
        return ()
    raise MalformedSentenceError(f"not a formula node: {node!r}")


def _postorder(sentence: Sentence) -> list[Sentence]:
    """The distinct nodes of ``sentence``, each after all of its children.
    Iterative, so chains of any depth are walked."""
    order: list[Sentence] = []
    done: dict = {}  # False while a node's children are walked, then True
    stack = [sentence]
    while stack:
        node = stack[-1]
        state = done.get(node)
        if state is None:
            done[node] = False
            stack += [c for c in _children(node) if c not in done]
        else:
            stack.pop()
            if not state:
                done[node] = True
                order.append(node)
    return order


def quantifier_rank(sentence: Sentence) -> int:
    """The greatest number of quantifiers on one root-to-leaf path."""
    rank: dict = {}
    for node in _postorder(sentence):
        below = max(map(rank.__getitem__, _children(node)), default=0)
        rank[node] = below + (type(node) in (Exists, Forall))
    return rank[sentence]


# ---------------------------------------------------------------------------
# s-expression text format
# ---------------------------------------------------------------------------

def to_sexpr(sentence: Sentence) -> str:
    """Serialize a formula.  Iterative so shared DAGs of any depth print."""
    out: list[str] = []
    stack: list[object] = [sentence]
    while stack:
        x = stack.pop()
        if isinstance(x, str):
            out.append(x)
        elif isinstance(x, Atom):
            out.append("(atom " + " ".join((x.rel,) + x.args) + ")")
        elif isinstance(x, Eq):
            out.append(f"(eq {x.left} {x.right})")
        elif isinstance(x, Not):
            stack += [")", x.child, "(not "]
        elif isinstance(x, (And, Or)):
            tag = "and" if isinstance(x, And) else "or"
            stack.append(")")
            for c in reversed(x.children):
                stack += [c, " "]
            stack.append(f"({tag}")
        elif isinstance(x, (Exists, Forall)):
            tag = "exists" if isinstance(x, Exists) else "forall"
            stack += [")", x.child, f"({tag} {x.var} "]
        else:
            raise MalformedSentenceError(f"not a sentence node: {x!r}")
    return "".join(out)


def sexpr_length(sentence: Sentence) -> int:
    """``len(to_sexpr(sentence))``, counted over the distinct nodes: the
    text writes a shared DAG out as a tree, which can be exponentially
    longer than the DAG."""
    length: dict = {}
    for node in _postorder(sentence):
        kind = type(node)
        if kind is Atom:
            n = 7 + len(node.rel) + sum(1 + len(a) for a in node.args)
        elif kind is Eq:
            n = 6 + len(node.left) + len(node.right)
        elif kind is Not:
            n = 6 + length[node.child]
        elif kind is And or kind is Or:
            n = (5 if kind is And else 4) + sum(
                1 + length[c] for c in node.children)
        else:
            n = 10 + len(node.var) + length[node.child]
        length[node] = n
    return length[sentence]


_TOKEN = re.compile(r"\(|\)|[^\s()]+")


def parse_sentence(text: str) -> Sentence:
    """Parse one s-expression formula; raises ParseError with a position.

    One pass over the tokens: a ``(`` opens a frame of its position and
    items, and its ``)`` builds the frame's node at once and hands it, with
    that position, to the enclosing frame.  Only the open frames and the
    interned nodes are held, so memory follows the nesting depth and the
    distinct nodes, not the length of the text."""
    stack: list[list] = []  # open frames: [position, (item, position), ...]
    root = None
    pos = None
    for m in _TOKEN.finditer(text):
        tok, pos = m.group(), m.start()
        if root is not None:
            raise ParseError("trailing input after sentence", pos)
        if tok == "(":
            if len(stack) == MAX_PARSE_DEPTH:
                raise ParseError("expression too deeply nested", pos)
            stack.append([pos])
        elif tok == ")":
            if not stack:
                raise ParseError("unmatched ')'", pos)
            frame = stack.pop()
            node = _node(frame)
            if stack:
                stack[-1].append((node, frame[0]))
            else:
                root = node
        elif stack:
            stack[-1].append((tok, pos))
        else:
            raise ParseError("expected '('", pos)
    if root is None:
        if stack:
            raise ParseError("unclosed '('", pos)
        raise ParseError("unexpected end of input")
    return root


def _formula(item) -> Sentence:
    x, pos = item
    if isinstance(x, str):
        raise ParseError(f"expected a subexpression, got {x!r}", pos)
    return x


def _name(item, what: str) -> str:
    x, pos = item
    if not isinstance(x, str):
        raise ParseError(f"expected {what}", pos)
    if not _IDENT.match(x):
        raise ParseError(f"invalid {what} {x!r}", pos)
    return x


def _node(frame: list) -> Sentence:
    """The node of a closed frame, whose items are tokens and built nodes."""
    if len(frame) == 1:
        raise ParseError("empty expression", frame[0])
    (op, oppos), args = frame[1], frame[2:]
    if not isinstance(op, str):
        raise ParseError("operator must be a symbol", frame[0])
    if op in ("and", "or"):
        return (And if op == "and" else Or)([_formula(a) for a in args])
    if op == "not":
        if len(args) != 1:
            raise ParseError("not takes one argument", oppos)
        return Not(_formula(args[0]))
    if op in ("exists", "forall"):
        if len(args) != 2:
            raise ParseError(f"{op} takes a variable and a body", oppos)
        var = _name(args[0], "variable")
        return (Exists if op == "exists" else Forall)(var, _formula(args[1]))
    if op == "atom":
        if not args:
            raise ParseError("atom needs a relation name", oppos)
        rel = _name(args[0], "relation name")
        vs = [_name(a, "variable") for a in args[1:]]
        if not vs:
            # signatures have no 0-ary relations
            raise ParseError(f"atom {rel} needs at least one argument", oppos)
        return Atom(rel, vs)
    if op == "eq":
        if len(args) != 2:
            raise ParseError("eq takes two variables", oppos)
        return Eq(_name(args[0], "variable"), _name(args[1], "variable"))
    raise ParseError(f"unknown operator {op!r}", oppos)


# ---------------------------------------------------------------------------
# Signature and structures
# ---------------------------------------------------------------------------

# Value types hash their fields once, on the first call, and keep the hash:
# cache keys hash a Signature and a Structure on every evaluation and every
# type comparison.

def _state_without_hash(self) -> dict:
    """Pickled state without the cached hash, which holds only in the
    process that computed it (str hashes are salted per process)."""
    return {k: v for k, v in self.__dict__.items() if k != "_hash"}


class Frozen:
    """Base of the immutable value types.  A subclass names its fields in
    ``_fields`` and sets them once, in ``__init__``, through ``__dict__``;
    assigning to or deleting an attribute afterwards raises
    ``AttributeError``.  An instance equals only an instance of the same
    class with equal fields, hashes as the tuple of its fields and shows
    as ``Name(field=value, ...)``.  Written out rather than generated, so
    that a fresh process starts faster (README, "Notes and limits")."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other is self:  # most comparisons: a signature against itself
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash(self._values())

    __getstate__ = _state_without_hash

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Signature(Frozen):
    """Finite relational signature: (name, arity) pairs, names unique."""

    _fields = ("relations",)

    def __init__(self, relations: tuple[tuple[str, int], ...]):
        self.__dict__["relations"] = relations
        names = [n for n, _ in self.relations]
        if len(set(names)) != len(names):
            raise SignatureMismatchError("duplicate relation names")
        for n, a in self.relations:
            if not _IDENT.match(n):
                raise SignatureMismatchError(f"invalid relation name {n!r}")
            if a < 1:
                raise SignatureMismatchError(f"arity of {n} must be >= 1")

    @cached_property
    def index(self) -> dict[str, int]:
        return {n: i for i, (n, _) in enumerate(self.relations)}


#: most cells (``size**arity``) a relation of a ``Structure.make`` input may
#: have: its mask takes one bit per cell, so at most 2 MiB
MAX_STRUCTURE_CELLS = 1 << 24


class Structure(Frozen):
    """Finite structure with universe 0..size-1: per relation of
    ``signature``, a mask whose bit i says whether the tuple of fold-left
    index i (``a_0 * size**(k-1) + ... + a_{k-1}``) holds."""

    _fields = ("signature", "size", "masks")

    def __init__(self, signature: Signature, size: int,
                 masks: tuple[int, ...]):
        self.__dict__.update(signature=signature, size=size, masks=masks)

    @staticmethod
    def make(signature: Signature, size: int,
             tables: Mapping[str, Iterable[Sequence[int]]]) -> "Structure":
        if size < 1:
            raise ParseError("structure size must be >= 1")
        extra = set(tables) - set(signature.index)
        if extra:
            raise ParseError(f"unknown relations in tables: {sorted(extra)}")
        for name, arity in signature.relations:
            # past 64 the arity cannot bring size**arity under the cap
            # unless size is 1, and the power itself could be huge
            if size ** min(arity, 64) > MAX_STRUCTURE_CELLS:
                raise PreconditionError(
                    f"relation {name} of arity {arity} has more than "
                    f"{MAX_STRUCTURE_CELLS} cells at size {size}")
        masks = []
        for name, arity in signature.relations:
            bits = []
            for row in tables.get(name, ()):  # missing relation = empty table
                row = tuple(row)
                if len(row) != arity:
                    raise ParseError(f"tuple {row} has wrong arity for {name}")
                if any(not (0 <= v < size) for v in row):
                    raise ParseError(f"tuple {row} out of range for size {size}")
                idx = 0
                for v in row:
                    idx = idx * size + v
                bits.append(idx)
            # OR-ing each 1 << idx into an int would copy it once per row
            buf = bytearray(max(bits, default=-1) // 8 + 1)
            for idx in bits:
                buf[idx >> 3] |= 1 << (idx & 7)
            masks.append(int.from_bytes(buf, "little"))
        return Structure(signature, size, tuple(masks))

    @cached_property
    def tables(self) -> tuple[frozenset[tuple[int, ...]], ...]:
        """Per-relation sets of the tuples that hold, derived from ``masks``."""
        return tuple(_mask_table(mask, self.size, arity) for mask, (_name, arity)
                     in zip(self.masks, self.signature.relations))

    def table(self, name: str) -> frozenset[tuple[int, ...]]:
        return self.tables[self.signature.index[name]]

    def apply_permutation(self, perm: Sequence[int]) -> "Structure":
        return Structure.make(self.signature, self.size, {
            name: [[perm[v] for v in tup] for tup in self.table(name)]
            for name, _arity in self.signature.relations})


@lru_cache(maxsize=64)
def _cells(size: int, arity: int) -> tuple[tuple[int, ...], ...]:
    """The tuples of a relation over ``size`` elements; tuple i is the one
    with fold-left index i, so bit i of a mask says whether it holds."""
    return tuple(itertools.product(range(size), repeat=arity))


def _mask_table(mask: int, size: int, arity: int) -> frozenset[tuple[int, ...]]:
    """The relation table whose ``Structure.masks`` entry is ``mask``."""
    cells = _cells(size, arity)
    bits = format(mask, f"0{len(cells)}b")[::-1]
    return frozenset(itertools.compress(cells, map("1".__eq__, bits)))


# ---------------------------------------------------------------------------
# Compiling sentences to kernel programs
# ---------------------------------------------------------------------------

#: compiled programs are kept for this many of the most recently used
#: (sentence, signature, free order) keys; a program holds a few hundred
#: bytes per runner it built, and shares no runner with another program
PROGRAM_CACHE_SIZE = 32


def _is_literal(node: Sentence) -> bool:
    kind = type(node)
    if kind is Not:
        kind = type(node.child)
    return kind is Atom or kind is Eq


@lru_cache(maxsize=PROGRAM_CACHE_SIZE)
def compile_sentence(sentence: Sentence, signature: Signature,
                     free_order: tuple[str, ...] = ()) -> Program:
    """Compile a formula to a kernel ``Program`` whose slots
    ``0..len(free_order)-1`` hold the free variables in that order; a
    quantifier binds the slot after those of the quantifiers above it.  The
    ``PROGRAM_CACHE_SIZE`` most recently used programs are cached.

    A node gets one runner per slots of its free variables and, if it has
    quantifiers, first slot they bind, built by this call alone, children
    first in ``Program.ops``; as its quantifiers bind only slots past every
    live one, a runner never overwrites a slot that its callers read, and
    a quantifier-free node's runner binds none, so it serves every
    quantifier depth.  Whether a node is quantifier-free is read off its
    quantifier rank, which each node gets from its children's as it is
    built; the root's is ``Program.rank``.

    The memo rule: every and, or, exists and forall runner memoizes on the
    values of its free variables' slots, under its index in ``ops``, but
    the root's, which runs once, and those of conjunctions and disjunctions
    of literals, which cost their own size per call.

    So each runner's body runs at most once per value of its key, and a
    shared DAG or the deepest chain the parser admits costs polynomial time
    in its number of nodes, however large its expansion as a tree."""
    missing = sentence.free - set(free_order)
    if missing:
        raise MalformedSentenceError(
            f"unbound variables: {sorted(missing)}")
    prog = Program(nslots=len(free_order))
    ops = prog.ops
    rel_index = signature.index
    arities = dict(signature.relations)
    runners: dict[tuple, Callable] = {}
    ranks: dict[Sentence, int] = {}  # quantifier rank, per node built

    def rec(node: Sentence, binding: dict[str, int],
            next_slot: int) -> Callable:
        used = tuple(map(binding.__getitem__, node.free))
        # a node not built yet has no runner under either key
        key = ((node, used) if ranks.get(node) == 0
               else (node, next_slot, used))
        run = runners.get(key)
        if run is not None:
            return run
        kind = type(node)
        memo = False
        rank = 0
        if kind is Atom:
            if node.rel not in rel_index:
                raise MalformedSentenceError(f"unknown relation {node.rel!r}")
            if len(node.args) != arities[node.rel]:
                raise MalformedSentenceError(
                    f"relation {node.rel} expects {arities[node.rel]} "
                    f"arguments, got {len(node.args)}")
            run = pure.atom(rel_index[node.rel],
                            tuple(binding[v] for v in node.args))
        elif kind is Eq:
            run = pure.eq(binding[node.left], binding[node.right])
        elif kind is Not:
            run = pure.not_(rec(node.child, binding, next_slot))
            rank = ranks[node.child]
        elif kind is And or kind is Or:
            make = pure.and_ if kind is And else pure.or_
            run = make(tuple([rec(c, binding, next_slot)
                              for c in node.children]))
            memo = not all(map(_is_literal, node.children))
            rank = max(map(ranks.__getitem__, node.children), default=0)
        else:  # Exists or Forall
            inner = dict(binding)
            inner[node.var] = next_slot
            prog.nslots = max(prog.nslots, next_slot + 1)
            make = pure.exists if kind is Exists else pure.forall
            run = make(rec(node.child, inner, next_slot + 1), next_slot)
            memo = True
            rank = ranks[node.child] + 1
        ranks[node] = rank
        if not rank:
            key = (node, used)
        if memo and node is not sentence:
            run = pure.memoize(run, (len(ops), used))
        ops.append(run)
        runners[key] = run
        return run

    prog.run = rec(sentence, {v: i for i, v in enumerate(free_order)},
                   len(free_order))
    prog.rank = ranks[sentence]
    # rec reaches itself through its closure: unbinding it frees rec now
    # instead of at the next cyclic garbage collection
    del rec
    return prog


def eval(M: Structure, sentence: Sentence,
         assignment: Optional[Mapping[str, int]] = None) -> bool:
    """Tarskian truth of ``sentence`` in ``M`` under ``assignment``.

    Free variables must all be assigned values in range.  Empty conjunction
    is true, empty disjunction false.
    """
    # a closed sentence skips the sort: this runs once per structure
    free_order = tuple(sorted(sentence.free)) if sentence.free else ()
    env0 = ()
    for v in free_order:
        if assignment is None or v not in assignment:
            raise MalformedSentenceError(f"no assignment for free variable {v!r}")
        if not (0 <= assignment[v] < M.size):
            raise MalformedSentenceError(
                f"assignment {v}={assignment[v]} out of range")
        env0 += (assignment[v],)
    return bool(_kernel.active.eval_program(
        compile_sentence(sentence, M.signature, free_order), M.size, M.masks,
        env0))


# ---------------------------------------------------------------------------
# Theories
# ---------------------------------------------------------------------------

class Theory(Frozen):
    """Ordered sentence list with provenance labels; order is significant
    and duplicates are permitted."""

    _fields = ("sentences", "labels")

    def __init__(self, sentences: tuple[Sentence, ...],
                 labels: tuple[str, ...] = ()):
        if not labels:
            labels = tuple(f"input[{i}]" for i in range(len(sentences)))
        if len(labels) != len(sentences):
            raise ParseError("theory labels must match sentences")
        self.__dict__.update(sentences=sentences, labels=labels)

    @staticmethod
    def of(sentences: Iterable[Sentence], labels: Optional[Iterable[str]] = None) -> "Theory":
        return Theory(tuple(sentences), tuple(labels) if labels else ())

    def __len__(self):
        return len(self.sentences)

    def __iter__(self):
        return iter(self.sentences)


# ---------------------------------------------------------------------------
# Bounded model space
# ---------------------------------------------------------------------------

class ModelSpace:
    """One representative per isomorphism class of size <= max_size.

    Satisfaction of each sentence is cached as a bitset over representative
    indices; all higher-level checks reduce to bitset algebra, so every
    sentence is evaluated over the space at most once.  ``And``, ``Or`` and
    ``Not`` are always bitset algebra over the children's satsets, and
    ``scott.space_scott_sentence`` seeds the satsets of the isolating
    sentences of the space's classes by index.
    Per-element sets of one-variable formulas (``elem_satset``) follow the
    same rule over one int for the whole space: bit ``offsets[i] + e`` says
    whether element e of representative i satisfies the formula, the
    representatives in space order, each in a block of ``size`` bits.  A
    quantified formula in that variable is evaluated run by run: one kernel
    call per run and element value gives one bit per structure of the run,
    and the run's columns are interleaved into its blocks.  A literal is
    evaluated per element with ``eval``.  A closed quantifier over an
    ``And``, ``Or`` or ``Not`` whose parts, reached through its boolean
    nodes, are closed or have their element sets cached is read off those
    sets: true where the body's block is nonempty (``Exists``) or full
    (``Forall``).  Any other closed quantifier is compiled once, and the
    program's quantifier rank (``Program.rank``) picks how it runs: at
    rank 2 or more, by the kernel once per run of consecutive
    representatives of one size (``runs``), over all of the run's
    structures at once; at rank 1, per representative with ``eval``: the
    benchmark's tracer test and its traced ``fuzz`` run count the ``eval``
    calls of that path.
    """

    def __init__(self, signature: Signature, max_size: int,
                 representatives: tuple[Structure, ...]):
        self.signature = signature
        self.max_size = max_size
        self.representatives = representatives
        self._satsets: dict = {}
        self._elemsets: dict = {}
        self._extra: dict = {}

    @cached_property
    def full_mask(self) -> int:
        return (1 << len(self.representatives)) - 1

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        """Per representative, the first bit of its block in an element
        set, then the number of bits of the whole set."""
        return tuple(itertools.accumulate(
            (rep.size for rep in self.representatives), initial=0))

    @cached_property
    def elem_full(self) -> int:
        """The element set of every element of every representative."""
        return (1 << self.offsets[-1]) - 1

    @cached_property
    def size_runs(self) -> tuple[tuple[int, int, int], ...]:
        """The maximal blocks of consecutive representatives of one size,
        each as (first index, width, size)."""
        out = []
        start = 0
        for size, block in itertools.groupby(self.representatives,
                                             key=attrgetter("size")):
            width = sum(1 for _rep in block)
            out.append((start, width, size))
            start += width
        return tuple(out)

    @cached_property
    def runs(self) -> tuple[tuple[int, int, int, tuple[int, ...]], ...]:
        """``size_runs``, each with its masks: (first index, width, size,
        masks).  The masks are cell-major: bit ``cell * width + j`` of
        relation r's says whether the block's j-th representative holds the
        tuple of fold-left index ``cell``, the layout ``eval_program``
        reads."""
        out = []
        for start, width, size in self.size_runs:
            block = self.representatives[start:start + width]
            masks = []
            for r, (_name, arity) in enumerate(self.signature.relations):
                # per representative its cells' bits, low cell first; then
                # the cells' columns one after another, low bit first
                rows = [format(rep.masks[r], f"0{size ** arity}b")[::-1]
                        for rep in block]
                masks.append(int("".join(map("".join, zip(*rows)))[::-1], 2))
            out.append((start, width, size, tuple(masks)))
        return tuple(out)

    @cached_property
    def rep_index(self) -> dict[int, int]:
        return {id(r): i for i, r in enumerate(self.representatives)}

    def satset(self, sentence: Sentence) -> int:
        """Bitset of representatives satisfying a closed sentence.  Each
        nested boolean level costs one stack frame.  A quantifier is read
        off its body's element set when the class docstring's rule lets
        it, run by run (``_read_off``); otherwise it is compiled, and
        evaluated once per run when the program's quantifier rank is 2 or
        more, each run's bits ORed in at its first index, and per
        representative at rank 1."""
        if sentence.free:
            raise MalformedSentenceError(
                f"sentence has free variables {sorted(sentence.free)}")
        cached = self._satsets.get(id(sentence))
        if cached is not None:
            return cached
        if isinstance(sentence, And):
            m = self.full_mask
            for c in sentence.children:
                m &= self.satset(c)
                if not m:
                    break
        elif isinstance(sentence, Or):
            m = 0
            for c in sentence.children:
                m |= self.satset(c)
                if m == self.full_mask:
                    break
        elif isinstance(sentence, Not):
            m = self.full_mask & ~self.satset(sentence.child)
        elif (isinstance(sentence, (Exists, Forall))
              and self._reads_cached_sets(sentence.child, sentence.var)):
            m = self._read_off(
                self.elem_satset(sentence.child, sentence.var),
                isinstance(sentence, Forall))
        elif (prog := compile_sentence(sentence, self.signature)).rank > 1:
            m = 0
            for start, width, size, masks in self.runs:
                m |= _kernel.active.eval_program(prog, size, masks, (),
                                                 width) << start
        else:
            m = 0
            for i, rep in enumerate(self.representatives):
                if eval(rep, sentence):
                    m |= 1 << i
        self._satsets[id(sentence)] = m
        return m

    def _reads_cached_sets(self, body: Sentence, var: str) -> bool:
        """Whether ``body`` is an ``And``, ``Or`` or ``Not`` whose parts,
        reached through its boolean nodes, are each closed or have their
        element sets for ``var`` cached."""
        if not isinstance(body, (And, Or, Not)):
            return False
        elemsets = self._elemsets
        seen = set()
        stack = [body]
        while stack:
            node = stack.pop()
            if (not node.free or (id(node), var) in elemsets
                    or node in seen):
                continue
            seen.add(node)
            kind = type(node)
            if kind is Not:
                stack.append(node.child)
            elif kind is And or kind is Or:
                stack += node.children
            else:
                return False
        return True

    def theory_mask(self, T: Union[Theory, Iterable[Sentence]]) -> int:
        m = self.full_mask
        for s in T:
            m &= self.satset(s)
            if not m:
                break
        return m

    def elem_satset(self, formula: Sentence, var: str) -> int:
        """The element set (the class docstring's bit layout) of a formula
        whose one free variable, if any, is ``var``.  Boolean structure is
        bitset algebra, one int operation and one stack frame per level:
        ``Not`` is the complement within ``elem_full``, ``And`` and ``Or``
        the ``&`` and ``|`` of the children's sets, stopping once the set
        is empty (full), and a closed part is its model set lifted to whole
        blocks (``_lift``).  A literal is evaluated per element with
        ``eval``.  A quantified formula is compiled once, with ``var`` its
        one free slot, and evaluated run by run: one kernel call per run
        and element value e gives the run's structures where it holds at
        e, and the run's ``size`` columns are interleaved into its block
        (``_interleave``)."""
        key = (id(formula), var)
        cached = self._elemsets.get(key)
        if cached is not None:
            return cached
        # after the lookup: no formula with other free variables is cached
        if formula.free - {var}:
            raise MalformedSentenceError(
                f"extra free variables {sorted(formula.free - {var})}")
        kind = type(formula)
        if not formula.free:
            res = self._lift(self.satset(formula))
        elif kind is Not:
            res = self.elem_full & ~self.elem_satset(formula.child, var)
        elif kind is And:
            res = self.elem_full
            for c in formula.children:
                res &= self.elem_satset(c, var)
                if not res:
                    break
        elif kind is Or:
            res = 0
            for c in formula.children:
                res |= self.elem_satset(c, var)
                if res == self.elem_full:
                    break
        elif kind is Atom or kind is Eq:
            res = int("".join(
                "1" if eval(rep, formula, {var: e}) else "0"
                for rep in self.representatives
                for e in range(rep.size))[::-1] or "0", 2)
        else:  # Exists or Forall
            prog = compile_sentence(formula, self.signature, (var,))
            eval_program = _kernel.active.eval_program
            res = self._interleave([
                [eval_program(prog, size, masks, (e,), width)
                 for e in range(size)]
                for _start, width, size, masks in self.runs])
        self._elemsets[key] = res
        return res

    def _lift(self, mask: int) -> int:
        """The element set of the representatives in ``mask``: per run,
        its bits, low first, each repeated ``size`` times by
        ``str.translate``."""
        bits = format(mask, f"0{len(self.representatives)}b")[::-1]
        return int("".join(
            bits[start:start + width].translate(
                str.maketrans({"0": "0" * size, "1": "1" * size}))
            for start, width, size in self.size_runs)[::-1] or "0", 2)

    def _read_off(self, elems: int, every: bool) -> int:
        """Bitset of the representatives with some (or, if ``every``, all)
        of their elements in ``elems``: per run, the OR (AND) of its
        ``size`` strided slices, slice k holding element k of each of the
        run's representatives."""
        bits = format(elems, f"0{self.offsets[-1]}b")[::-1]
        op = int.__and__ if every else int.__or__
        out = []
        for start, width, size in self.size_runs:
            first = self.offsets[start]
            run = bits[first:first + width * size]
            hits = reduce(op, (int(run[k::size][::-1], 2)
                               for k in range(size)))
            out.append(format(hits, f"0{width}b")[::-1])
        return int("".join(out)[::-1] or "0", 2)

    def _interleave(self, columns: list[list[int]]) -> int:
        """The element set whose block of each run (``size_runs`` order)
        is given by its ``size`` columns, column e holding bit j where the
        run's j-th representative has element e in the set: the inverse
        of ``_read_off``'s strided slices, through the bit strings."""
        out = []
        for (_start, width, _size), cols in zip(self.size_runs, columns):
            rows = [format(c, f"0{width}b")[::-1] for c in cols]
            out.append("".join(map("".join, zip(*rows))))
        return int("".join(out)[::-1] or "0", 2)

    def mask_members(self, mask: int) -> list[Structure]:
        return [r for i, r in enumerate(self.representatives) if (mask >> i) & 1]

    def first_member(self, mask: int) -> Optional[Structure]:
        if not mask:
            return None
        return self.representatives[(mask & -mask).bit_length() - 1]


# Masks are permuted through lookup tables over chunks of this many bits.
# A chunk of w bits costs 2**w / w table entries per cell and permutation:
# wider chunks permute faster, but the tables of all n! permutations of a
# large universe (a unary relation at size 9 has 362,880) would not fit.
_CHUNK = 4
_CHUNK_MASK = (1 << _CHUNK) - 1


def _perm_tables(size: int, arity: int) -> list[tuple[tuple[int, ...], ...]]:
    """Per permutation of ``range(size)``, in ``itertools.permutations``
    order (the identity first), one lookup table per ``_CHUNK``-bit chunk of
    a relation mask, low chunk first: entry v of chunk j's table is the
    image under the permutation of the cells whose bits v sets in that
    chunk.  Images of distinct cells are distinct bits, so a mask's image
    is the OR of its chunks' entries."""
    cells = _cells(size, arity)
    out = []
    for perm in itertools.permutations(range(size)):
        bits = []
        for tup in cells:
            idx = 0
            for v in tup:
                idx = idx * size + perm[v]
            bits.append(1 << idx)
        tabs = []
        for lo in range(0, len(bits), _CHUNK):
            tab = [0]
            for b in bits[lo:lo + _CHUNK]:  # entries with this bit set
                tab += [t | b for t in tab]
            tabs.append(tuple(tab))
        out.append(tuple(tabs))
    return out


def _canonical_keys(signature: Signature, size: int):
    """The least keys (``Structure.masks``) of the isomorphism classes of
    structures of one size, in increasing order.

    A key is least iff no permutation maps it to a smaller one, and a
    permutation does so iff it fixes the masks of some relations r' < r and
    lowers the mask of relation r.  So a depth-first walk over the
    relations, in signature order and each relation's masks in increasing
    order, keeps a mask iff no permutation in the stabilizer of the masks
    chosen before it lowers it, and passes the permutations that fix it on
    to the next relation; a lowered prefix prunes every completion.
    """
    arities = [a for _name, a in signature.relations]
    widths = [size ** a for a in arities]
    tables = {a: _perm_tables(size, a) for a in set(arities)}
    # per permutation but the identity, its chunk tables for each relation
    rows = list(zip(*(tables[a] for a in arities)))[1:]

    def walk(r, stab, prefix):
        if r == len(arities):
            yield prefix
            return
        for m in range(1 << widths[r]):
            fixed = []
            for row in stab:
                pm, x = 0, m
                for tab in row[r]:
                    pm |= tab[x & _CHUNK_MASK]
                    x >>= _CHUNK
                if pm < m:
                    break
                if pm == m:
                    fixed.append(row)
            else:
                yield from walk(r + 1, fixed, prefix + (m,))

    return walk(0, rows, ())


def canonical_key(M: Structure) -> tuple[int, ...]:
    """M's least key: the least ``masks`` tuple over all permutations of its
    universe.  Two structures of one size share it iff they are isomorphic,
    and it is the key of the representative that ``enumerate_models``
    generates for M's class.  Reads ``M.masks`` only, so it fills no
    ``tables`` cache; takes ``M.size!`` relabelings."""
    n = M.size
    held = [_mask_table(mask, n, arity) for mask, (_name, arity)
            in zip(M.masks, M.signature.relations)]

    def relabeled(perm):
        key = []
        for tups in held:
            m = 0
            for tup in tups:
                idx = 0
                for v in tup:
                    idx = idx * n + perm[v]
                m |= 1 << idx
            key.append(m)
        return tuple(key)

    return min(map(relabeled, itertools.permutations(range(n))))


#: most labeled structures of one size that ``enumerate_models`` generates
MAX_LABELED_STRUCTURES = 2_000_000


def enumerate_models(signature: Signature, max_size: int,
                     class_cap: Optional[int] = 100_000) -> ModelSpace:
    """One canonical representative per isomorphism class of size 1..max_size.

    A structure's key is its ``masks`` tuple.  A class's representative is
    its member with the least key over all universe permutations, and
    representatives are ordered by (size, key).  The least keys of each
    size are generated directly, in increasing order, by a canonicity test
    on each relation's mask given the masks before it (orderly generation,
    Read 1978; see ``_canonical_keys``), so no labeled structure is
    relabeled n! times and nothing is deduplicated or sorted.

    ``MAX_LABELED_STRUCTURES`` bounds the labeled structures of one size,
    checked before that size is generated; ``class_cap`` bounds the classes
    of all sizes together.
    """
    if max_size < 1:
        raise EnumerationOverflowError("max_size must be >= 1")
    reps: list[Structure] = []
    for n in range(1, max_size + 1):
        cells = 0  # log2 of the labeled structures of size n
        for _name, arity in signature.relations:
            # past 64 the arity cannot keep n**arity small unless n is 1,
            # and the power itself could be huge
            cells += n ** min(arity, 64)
            if cells >= MAX_LABELED_STRUCTURES.bit_length():
                total = 2 ** cells if cells <= 64 else f"2**{cells}"
                raise EnumerationOverflowError(
                    f"{total}+ labeled structures of size {n} exceeds cap "
                    f"{MAX_LABELED_STRUCTURES}")
        for key in _canonical_keys(signature, n):
            if class_cap is not None and len(reps) >= class_cap:
                raise EnumerationOverflowError(
                    f"more than {class_cap} isomorphism classes")
            reps.append(Structure(signature, n, key))
    return ModelSpace(signature, max_size, tuple(reps))


def models_of(T: Union[Theory, Iterable[Sentence]], space: ModelSpace) -> list[Structure]:
    """Representatives satisfying every sentence of T."""
    return space.mask_members(space.theory_mask(T))


def entails(T: Union[Theory, Iterable[Sentence]], sentence: Sentence,
            space: ModelSpace) -> tuple[bool, Optional[Structure]]:
    """Bounded entailment: true iff every model of T in the space satisfies
    the sentence; otherwise returns a witness counter-model.  Sound only
    relative to the space's max_size."""
    bad = space.theory_mask(T) & ~space.satset(sentence)
    if bad:
        return False, space.first_member(bad)
    return True, None


def preprocess(T: Theory, space: ModelSpace) -> Theory:
    """Drop sentences valid over the space; an inconsistent theory becomes
    the canonical contradiction."""
    if space.theory_mask(T) == 0:
        return Theory.of([CONTRADICTION], ["contradiction"])
    keep = [(s, lab) for s, lab in zip(T.sentences, T.labels)
            if space.satset(s) != space.full_mask]
    return Theory.of([s for s, _ in keep], [lab for _, lab in keep])


# ---------------------------------------------------------------------------
# JSON formats
# ---------------------------------------------------------------------------

def structure_to_json(M: Structure) -> dict:
    return {
        "signature": [{"name": n, "arity": a} for n, a in M.signature.relations],
        "size": M.size,
        "relations": {n: sorted([list(t) for t in tab])
                      for (n, _a), tab in zip(M.signature.relations, M.tables)},
    }


def long_repr(value) -> str:
    """``repr`` of an int, or of a list or tuple of ints, at any length.
    ``repr`` refuses an int of more than ``sys.get_int_max_str_digits()``
    digits; ``decimal.Decimal`` writes the same decimal text without that
    limit."""
    try:
        return repr(value)
    except ValueError:
        pass
    if isinstance(value, int):
        import decimal  # here, not at the top: it takes ms to import
        return str(decimal.Decimal(value))
    items = ", ".join(map(long_repr, value))
    if isinstance(value, list):
        return f"[{items}]"
    return f"({items},)" if len(value) == 1 else f"({items})"


def json_int(value) -> int:
    """A JSON integer as is; any other value (a bool, a float, a string)
    raises TypeError rather than being truncated or converted."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def structure_from_json(data: dict) -> Structure:
    try:
        sig = Signature(tuple((r["name"], json_int(r["arity"]))
                              for r in data["signature"]))
        size = json_int(data["size"])
        tables = {name: [tuple(map(json_int, row)) for row in rows]
                  for name, rows in data.get("relations", {}).items()}
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad structure JSON: {exc}") from None
    return Structure.make(sig, size, tables)


def load_json(path: str):
    """The JSON value in a file; malformed JSON, text that is not UTF-8 and
    an integer too long to read raise ParseError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ParseError(f"bad JSON in {path}: {exc}") from None


def load_structure(path: str) -> Structure:
    return structure_from_json(load_json(path))


def theory_to_json(T: Theory) -> list[str]:
    return [to_sexpr(s) for s in T.sentences]


def theory_from_json(data) -> Theory:
    if not isinstance(data, list) or any(not isinstance(x, str) for x in data):
        raise ParseError("theory file must be a JSON array of sentence strings")
    return Theory.of([parse_sentence(s) for s in data])


def load_theory(path: str) -> Theory:
    return theory_from_json(load_json(path))


def infer_signature(sentences: Iterable[Sentence]) -> Signature:
    """Signature from the atoms of the sentences, names in first-appearance
    order.  Inconsistent arities raise ParseError."""
    rels: dict[str, int] = {}

    def walk(node):
        stack = [node]
        while stack:
            x = stack.pop()
            if isinstance(x, Atom):
                if x.rel in rels and rels[x.rel] != len(x.args):
                    raise ParseError(
                        f"relation {x.rel} used with arities "
                        f"{rels[x.rel]} and {len(x.args)}")
                rels.setdefault(x.rel, len(x.args))
            elif isinstance(x, Not):
                stack.append(x.child)
            elif isinstance(x, (And, Or)):
                stack.extend(reversed(x.children))
            elif isinstance(x, (Exists, Forall)):
                stack.append(x.child)
    for s in sentences:
        walk(s)
    return Signature(tuple(rels.items()))
