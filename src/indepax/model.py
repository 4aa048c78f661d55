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
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Mapping, Optional, Sequence, Union

from . import _kernel
from ._kernel import (OP_AND, OP_ATOM, OP_EQ, OP_EXISTS, OP_FORALL, OP_NOT,
                      OP_OR, Program)
from .errors import (EnumerationOverflowError, MalformedSentenceError,
                     ParseError, SignatureMismatchError)

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
        key = (0, rel, args)
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
        key = (1, left, right)
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
        key = (2, child)
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
        key = (3, kids)
        node = _INTERN.get(key)
        if node is None:
            node = object.__new__(cls)
            node.children = kids
            node.free = _free(frozenset().union(*(c.free for c in kids)))
            _INTERN[key] = node
        return node


class Or(Sentence):
    """Finite disjunction; empty disjunction is false."""

    __slots__ = ("children",)

    def __new__(cls, children: Iterable[Sentence]):
        kids = tuple(dict.fromkeys(children))  # nodes hash by identity
        if len(kids) == 1:
            return kids[0]
        key = (4, kids)
        node = _INTERN.get(key)
        if node is None:
            node = object.__new__(cls)
            node.children = kids
            node.free = _free(frozenset().union(*(c.free for c in kids)))
            _INTERN[key] = node
        return node


class Exists(Sentence):
    __slots__ = ("var", "child")

    def __new__(cls, var: str, child: Sentence):
        key = (5, var, child)
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

    def __new__(cls, var: str, child: Sentence):
        key = (6, var, child)
        node = _INTERN.get(key)
        if node is None:
            node = object.__new__(cls)
            node.var = var
            node.child = child
            node.free = _free(child.free - {var})
            _INTERN[key] = node
        return node


#: canonical contradiction: no element differs from itself
CONTRADICTION = Exists("x", Not(Eq("x", "x")))
#: valid over every nonempty domain
TAUTOLOGY = Exists("x", Eq("x", "x"))


def exists_block(vars_: Sequence[str], child: Sentence) -> Sentence:
    for v in reversed(vars_):
        child = Exists(v, child)
    return child


def forall_block(vars_: Sequence[str], child: Sentence) -> Sentence:
    for v in reversed(vars_):
        child = Forall(v, child)
    return child


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


_TOKEN = re.compile(r"\s*(\(|\)|[^\s()]+)")


def _tokenize(text: str):
    pos = 0
    while True:
        m = _TOKEN.match(text, pos)
        if not m:
            rest = text[pos:]
            if rest.strip():
                raise ParseError(f"unexpected input {rest.strip()[:10]!r}", pos)
            return
        yield m.group(1), m.start(1)
        pos = m.end()


def _check_ident(tok: str, pos: int, what: str) -> str:
    if not _IDENT.match(tok):
        raise ParseError(f"invalid {what} {tok!r}", pos)
    return tok


def parse_sentence(text: str) -> Sentence:
    """Parse one s-expression formula; raises ParseError with a position."""
    tokens = list(_tokenize(text))
    node, nxt = _parse_at(tokens, 0)
    if nxt != len(tokens):
        raise ParseError("trailing input after sentence", tokens[nxt][1])
    return node


def _parse_at(tokens, i) -> tuple[Sentence, int]:
    # first pass: nested token lists (iterative, so depth is data not stack)
    if i >= len(tokens):
        raise ParseError("unexpected end of input")
    stack: list[list] = []
    root = None
    depth = 0
    while True:
        if i >= len(tokens):
            raise ParseError("unclosed '('", tokens[-1][1])
        tok, pos = tokens[i]
        i += 1
        if tok == "(":
            depth += 1
            if depth > MAX_PARSE_DEPTH:
                raise ParseError("expression too deeply nested", pos)
            stack.append([pos])
        elif tok == ")":
            if not stack:
                raise ParseError("unmatched ')'", pos)
            done = stack.pop()
            depth -= 1
            if stack:
                stack[-1].append(done)
            else:
                root = done
                break
        else:
            if not stack:
                raise ParseError("expected '('", pos)
            stack[-1].append((tok, pos))
    return _build(root), i


def _build(lst) -> Sentence:
    # explicit stack: convert nested lists bottom-up
    built: dict[int, Sentence] = {}
    work = [(lst, False)]
    while work:
        node, expanded = work.pop()
        pos = node[0]
        items = node[1:]
        if not items:
            raise ParseError("empty expression", pos)
        head = items[0]
        if not isinstance(head, tuple):
            raise ParseError("operator must be a symbol", pos)
        op, oppos = head
        if not expanded:
            work.append((node, True))
            for sub in items[1:]:
                if isinstance(sub, list):
                    work.append((sub, False))
            continue
        args = items[1:]

        def as_formula(x):
            if isinstance(x, list):
                return built[id(x)]
            raise ParseError(f"expected a subexpression, got {x[0]!r}", x[1])

        def as_name(x, what):
            if isinstance(x, list):
                raise ParseError(f"expected {what}", x[0])
            return _check_ident(x[0], x[1], what)

        if op in ("and", "or"):
            kids = [as_formula(a) for a in args]
            built[id(node)] = And(kids) if op == "and" else Or(kids)
        elif op == "not":
            if len(args) != 1:
                raise ParseError("not takes one argument", oppos)
            built[id(node)] = Not(as_formula(args[0]))
        elif op in ("exists", "forall"):
            if len(args) != 2:
                raise ParseError(f"{op} takes a variable and a body", oppos)
            var = as_name(args[0], "variable")
            body = as_formula(args[1])
            built[id(node)] = (Exists if op == "exists" else Forall)(var, body)
        elif op == "atom":
            if not args:
                raise ParseError("atom needs a relation name", oppos)
            rel = as_name(args[0], "relation name")
            vs = [as_name(a, "variable") for a in args[1:]]
            if not vs:
                # signatures have no 0-ary relations
                raise ParseError(f"atom {rel} needs at least one argument",
                                 oppos)
            built[id(node)] = Atom(rel, vs)
        elif op == "eq":
            if len(args) != 2:
                raise ParseError("eq takes two variables", oppos)
            built[id(node)] = Eq(as_name(args[0], "variable"),
                                 as_name(args[1], "variable"))
        else:
            raise ParseError(f"unknown operator {op!r}", oppos)
    return built[id(lst)]


# ---------------------------------------------------------------------------
# Signature and structures
# ---------------------------------------------------------------------------

# Signature and Structure hash their fields once, as a frozen dataclass
# would on every call: cache keys hash them on every evaluation and every
# type comparison.

def _state_without_hash(self) -> dict:
    """Pickled state without the cached hash, which holds only in the
    process that computed it (str hashes are salted per process)."""
    return {k: v for k, v in self.__dict__.items() if k != "_hash"}


@dataclass(frozen=True)
class Signature:
    """Finite relational signature: (name, arity) pairs, names unique."""

    relations: tuple[tuple[str, int], ...]

    def __post_init__(self):
        names = [n for n, _ in self.relations]
        if len(set(names)) != len(names):
            raise SignatureMismatchError("duplicate relation names")
        for n, a in self.relations:
            if not _IDENT.match(n):
                raise SignatureMismatchError(f"invalid relation name {n!r}")
            if a < 1:
                raise SignatureMismatchError(f"arity of {n} must be >= 1")

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.relations,))

    __getstate__ = _state_without_hash

    @cached_property
    def index(self) -> dict[str, int]:
        return {n: i for i, (n, _) in enumerate(self.relations)}

    def arity(self, name: str) -> int:
        return self.relations[self.index[name]][1]


@dataclass(frozen=True)
class Structure:
    """Finite structure with universe 0..size-1: per relation of
    ``signature``, a mask whose bit i says whether the tuple of fold-left
    index i (``a_0 * size**(k-1) + ... + a_{k-1}``) holds."""

    signature: Signature
    size: int
    masks: tuple[int, ...]

    @staticmethod
    def make(signature: Signature, size: int,
             tables: Mapping[str, Iterable[Sequence[int]]]) -> "Structure":
        if size < 1:
            raise ParseError("structure size must be >= 1")
        extra = set(tables) - set(signature.index)
        if extra:
            raise ParseError(f"unknown relations in tables: {sorted(extra)}")
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

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.signature, self.size, self.masks))

    __getstate__ = _state_without_hash

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
#: bytes per node
PROGRAM_CACHE_SIZE = 32


@lru_cache(maxsize=PROGRAM_CACHE_SIZE)
def compile_sentence(sentence: Sentence, signature: Signature,
                     free_order: tuple[str, ...] = ()) -> Program:
    """Compile a formula to a kernel ``Program`` whose slots
    ``0..len(free_order)-1`` hold the free variables in that order.  The
    ``PROGRAM_CACHE_SIZE`` most recently used programs are cached."""
    missing = sentence.free - set(free_order)
    if missing:
        raise MalformedSentenceError(
            f"unbound variables: {sorted(missing)}")
    prog = Program()
    rel_index = signature.index
    arities = dict(signature.relations)
    node_memo: dict = {}
    max_slot = len(free_order) - 1

    def rec(node: Sentence, binding: dict[str, int], next_slot: int) -> int:
        nonlocal max_slot
        fkey = tuple(sorted((v, binding[v]) for v in node.free))
        memo_key = (id(node), fkey)
        hit = node_memo.get(memo_key)
        if hit is not None:
            return hit
        if isinstance(node, Atom):
            if node.rel not in rel_index:
                raise MalformedSentenceError(f"unknown relation {node.rel!r}")
            if len(node.args) != arities[node.rel]:
                raise MalformedSentenceError(
                    f"relation {node.rel} expects {arities[node.rel]} "
                    f"arguments, got {len(node.args)}")
            slots = tuple(binding[v] for v in node.args)
            idx = prog.add_node(OP_ATOM, rel_index[node.rel], kids=slots,
                                used=tuple(sorted(set(slots))))
        elif isinstance(node, Eq):
            a, b = binding[node.left], binding[node.right]
            idx = prog.add_node(OP_EQ, a, b, used=tuple(sorted({a, b})))
        elif isinstance(node, Not):
            c = rec(node.child, binding, next_slot)
            idx = prog.add_node(OP_NOT, c, used=prog.used[c])
        elif isinstance(node, (And, Or)):
            kids = tuple(rec(c, binding, next_slot) for c in node.children)
            used = sorted(set().union(*(prog.used[k] for k in kids)))
            idx = prog.add_node(OP_AND if isinstance(node, And) else OP_OR,
                                kids=kids, used=tuple(used))
        elif isinstance(node, (Exists, Forall)):
            slot = next_slot
            max_slot = max(max_slot, slot)
            inner = dict(binding)
            inner[node.var] = slot
            c = rec(node.child, inner, next_slot + 1)
            used = tuple(s for s in prog.used[c] if s != slot)
            idx = prog.add_node(OP_EXISTS if isinstance(node, Exists) else OP_FORALL,
                                c, slot, used=used)
        else:
            raise MalformedSentenceError(f"not a formula node: {node!r}")
        node_memo[memo_key] = idx
        return idx

    base = {v: i for i, v in enumerate(free_order)}
    prog.run = prog.nodes[rec(sentence, base, len(free_order))]
    prog.nslots = max_slot + 1
    return prog


def eval(M: Structure, sentence: Sentence,
         assignment: Optional[Mapping[str, int]] = None) -> bool:
    """Tarskian truth of ``sentence`` in ``M`` under ``assignment``.

    Free variables must all be assigned values in range.  Empty conjunction
    is true, empty disjunction false.
    """
    if not sentence.free:
        return _kernel.active.eval_program(
            compile_sentence(sentence, M.signature, ()), M.size, M.masks, ())
    assignment = assignment or {}
    free_order = tuple(sorted(sentence.free))
    for v in free_order:
        if v not in assignment:
            raise MalformedSentenceError(f"no assignment for free variable {v!r}")
        if not (0 <= assignment[v] < M.size):
            raise MalformedSentenceError(
                f"assignment {v}={assignment[v]} out of range")
    prog = compile_sentence(sentence, M.signature, free_order)
    env0 = tuple(assignment[v] for v in free_order)
    return _kernel.active.eval_program(prog, M.size, M.masks, env0)


# ---------------------------------------------------------------------------
# Theories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Theory:
    """Ordered sentence list with provenance labels; order is significant
    and duplicates are permitted."""

    sentences: tuple[Sentence, ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.labels:
            object.__setattr__(self, "labels",
                               tuple(f"input[{i}]" for i in range(len(self.sentences))))
        if len(self.labels) != len(self.sentences):
            raise ParseError("theory labels must match sentences")

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

@dataclass(eq=False)
class ModelSpace:
    """One representative per isomorphism class of size <= max_size.

    Satisfaction of each sentence is cached as a bitset over representative
    indices; all higher-level checks reduce to bitset algebra, so every
    sentence is evaluated over the space at most once.  ``And``, ``Or`` and
    ``Not`` are always bitset algebra over the children's satsets, and
    ``scott.space_scott_sentence`` seeds Scott sentences' satsets by index.
    Per-element sets of open formulas (``elem_satset``) follow the same
    rule for ``Not`` only: the complement of the child's sets within
    ``(1 << size) - 1`` per representative.
    """

    signature: Signature
    max_size: int
    representatives: tuple[Structure, ...]
    _satsets: dict = field(default_factory=dict, repr=False)
    _elemsets: dict = field(default_factory=dict, repr=False)
    _extra: dict = field(default_factory=dict, repr=False)

    @cached_property
    def full_mask(self) -> int:
        return (1 << len(self.representatives)) - 1

    @cached_property
    def rep_index(self) -> dict[int, int]:
        return {id(r): i for i, r in enumerate(self.representatives)}

    def satset(self, sentence: Sentence) -> int:
        """Bitset of representatives satisfying a closed sentence.  Each
        nested boolean level costs one stack frame."""
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
        else:
            m = 0
            for i, rep in enumerate(self.representatives):
                if eval(rep, sentence):
                    m |= 1 << i
        self._satsets[id(sentence)] = m
        return m

    def theory_mask(self, T: Union[Theory, Iterable[Sentence]]) -> int:
        m = self.full_mask
        for s in T:
            m &= self.satset(s)
            if not m:
                break
        return m

    def elem_satset(self, formula: Sentence, var: str) -> tuple[int, ...]:
        """Per-representative bitsets of elements satisfying a one-free-
        variable formula.  ``Not(f)`` is the complement of ``f``'s sets
        within each representative's elements, one stack frame per level;
        any other formula is evaluated whole, so ``And``/``Or`` children
        share one kernel memo."""
        if formula.free - {var}:
            raise MalformedSentenceError(
                f"extra free variables {sorted(formula.free - {var})}")
        key = (id(formula), var)
        cached = self._elemsets.get(key)
        if cached is not None:
            return cached
        if isinstance(formula, Not):
            res = tuple(((1 << rep.size) - 1) & ~m for rep, m in
                        zip(self.representatives,
                            self.elem_satset(formula.child, var)))
        else:
            out = []
            for rep in self.representatives:
                m = 0
                for e in range(rep.size):
                    if eval(rep, formula, {var: e} if formula.free else None):
                        m |= 1 << e
                out.append(m)
            res = tuple(out)
        self._elemsets[key] = res
        return res

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


def enumerate_models(signature: Signature, max_size: int,
                     class_cap: Optional[int] = 100_000,
                     labeled_cap: int = 2_000_000) -> ModelSpace:
    """One canonical representative per isomorphism class of size 1..max_size.

    A structure's key is its ``masks`` tuple.  A class's representative is
    its member with the least key over all universe permutations, and
    representatives are ordered by (size, key).  The least keys of each
    size are generated directly, in increasing order, by a canonicity test
    on each relation's mask given the masks before it (orderly generation,
    Read 1978; see ``_canonical_keys``), so no labeled structure is
    relabeled n! times and nothing is deduplicated or sorted.

    ``labeled_cap`` bounds the labeled structures of one size, checked
    before that size is generated; ``class_cap`` bounds the classes of all
    sizes together.
    """
    if max_size < 1:
        raise EnumerationOverflowError("max_size must be >= 1")
    reps: list[Structure] = []
    for n in range(1, max_size + 1):
        total = 1
        for _name, arity in signature.relations:
            total *= 2 ** (n ** arity)
            if total > labeled_cap:
                raise EnumerationOverflowError(
                    f"{total}+ labeled structures of size {n} exceeds cap "
                    f"{labeled_cap}")
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


def structure_from_json(data: dict) -> Structure:
    try:
        sig = Signature(tuple((r["name"], int(r["arity"]))
                              for r in data["signature"]))
        size = int(data["size"])
        tables = {name: [tuple(int(v) for v in row) for row in rows]
                  for name, rows in data.get("relations", {}).items()}
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad structure JSON: {exc}") from None
    return Structure.make(sig, size, tables)


def load_structure(path: str) -> Structure:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON in {path}: {exc}") from None
    return structure_from_json(data)


def theory_to_json(T: Theory) -> list[str]:
    return [to_sexpr(s) for s in T.sentences]


def theory_from_json(data) -> Theory:
    if not isinstance(data, list) or any(not isinstance(x, str) for x in data):
        raise ParseError("theory file must be a JSON array of sentence strings")
    return Theory.of([parse_sentence(s) for s in data])


def load_theory(path: str) -> Theory:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON in {path}: {exc}") from None
    return theory_from_json(data)


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
