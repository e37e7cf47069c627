"""Measured ball-trees: the geometry substrate for ultrametric fields.

A ball-tree is a finite rooted tree whose leaves are atoms of positive
measure and whose interior vertices are balls.  Interior measures are always
the exact sum of their children's measures (leaf measures are the source of
truth).  Every interior vertex has at least two children, so the tree is the
ball-inclusion tree of a regular ultrametric space whose points are the
leaves.

The canonical ultrametric is d(x, y) = measure(sup(x, y)) for x != y, where
sup is the lowest common ancestor.
"""

from __future__ import annotations

import functools
import json
import math
import random

import numpy as np


class TreeError(ValueError):
    """Base class for ball-tree construction and query errors."""


class MalformedSpec(TreeError):
    """Tree document is syntactically or structurally invalid."""


class DuplicateId(TreeError):
    pass


class Cycle(TreeError):
    pass


class BranchingOne(TreeError):
    """Interior vertex with exactly one child."""


class NonPositiveMeasure(TreeError):
    pass


class MeasureMismatch(TreeError):
    """Declared interior measure disagrees with the sum of its children."""


class ForeignLeaf(TreeError):
    """Vertex id is not a leaf of this tree."""


class NotDescendant(TreeError):
    pass


class OutOfRange(TreeError):
    pass


# Declared interior measures in input files are validated against the exact
# children sum at this relative tolerance (decimal literals round-trip well
# below it); the stored values are always the derived sums.
_DECLARED_MEASURE_RTOL = 1e-9


class BallTree:
    """Immutable rooted measured tree of balls.

    Vertex ids are dense integers in document/construction order.  Leaf
    vectors used throughout the package are indexed by ``leaf_order``
    (depth-first order following the canonical child order), which makes
    the leaf set under any vertex a contiguous slice ``leaf_span[v]``.
    """

    def __init__(self, names, children, leaf_measures, *, declared_measures=None,
                 symbol_hint=None, label=""):
        n = len(names)
        if n == 0:
            raise MalformedSpec("empty tree")
        if len(set(names)) != n:
            seen = set()
            dup = next(x for x in names if x in seen or seen.add(x))
            raise DuplicateId(f"duplicate vertex id {dup!r}")

        parent = [-1] * n
        for v, kids in enumerate(children):
            for c in kids:
                if not 0 <= c < n:
                    raise MalformedSpec(f"child index {c} out of range")
                if c == v or parent[c] != -1:
                    raise Cycle(f"vertex {names[c]!r} referenced as child more than once")
                parent[c] = v

        roots = [v for v in range(n) if parent[v] == -1]
        if len(roots) != 1:
            raise MalformedSpec(f"expected exactly one root, found {len(roots)}")
        root = roots[0]

        for v in range(n):
            if len(children[v]) == 1:
                raise BranchingOne(f"interior vertex {names[v]!r} has a single child")

        depth = [-1] * n
        depth[root] = 0
        order = []  # depth-first preorder, canonical child order
        stack = [root]
        while stack:
            v = stack.pop()
            order.append(v)
            for c in reversed(children[v]):
                depth[c] = depth[v] + 1
                stack.append(c)
        if len(order) != n:
            raise Cycle("tree is not connected (unreachable vertices)")

        measure = [0.0] * n
        for v in range(n):
            if not children[v]:
                if v not in leaf_measures:
                    raise MalformedSpec(f"leaf {names[v]!r} has no measure")
                m = float(leaf_measures[v])
                if not (m > 0.0) or not math.isfinite(m):
                    raise NonPositiveMeasure(f"leaf {names[v]!r} has measure {m}")
                if not math.isfinite(1.0 / m):
                    raise OutOfRange(f"leaf {names[v]!r} has measure {m}, "
                                     "whose reciprocal overflows")
                measure[v] = m
        for v in reversed(order):  # postorder accumulation
            if children[v]:
                try:
                    measure[v] = math.fsum(measure[c] for c in children[v])
                except OverflowError:
                    raise OutOfRange(f"measure of vertex {names[v]!r} overflows") from None

        if declared_measures:
            for v, m in declared_measures.items():
                if abs(m - measure[v]) > _DECLARED_MEASURE_RTOL * abs(measure[v]):
                    raise MeasureMismatch(
                        f"vertex {names[v]!r}: declared measure {m} != children sum {measure[v]}")

        self.label = label
        self.names = tuple(names)
        self.parent = tuple(parent)
        self.children = tuple(tuple(k) for k in children)
        self.measure = tuple(measure)
        self.depth = tuple(depth)
        self.root = root
        self.preorder = tuple(order)
        self.interior = tuple(v for v in order if self.children[v])
        self.leaves = frozenset(v for v in range(n) if not self.children[v])
        self.leaf_order = tuple(v for v in order if not self.children[v])
        self.name_to_id = {nm: v for v, nm in enumerate(self.names)}
        self.symbol_hint = dict(symbol_hint) if symbol_hint else None

        # child_slot[v]: position of v within its parent's child list
        slot = [0] * n
        for v in range(n):
            for i, c in enumerate(self.children[v]):
                slot[c] = i
        self.child_slot = tuple(slot)

        # leaf_span[v] = (lo, hi): leaves under v occupy leaf_order[lo:hi]
        lo = [0] * n
        hi = [0] * n
        cursor = 0
        for v in order:
            lo[v] = cursor if not self.children[v] else -1
            if not self.children[v]:
                cursor += 1
                hi[v] = cursor
        for v in reversed(order):
            if self.children[v]:
                lo[v] = lo[self.children[v][0]]
                hi[v] = hi[self.children[v][-1]]
        self.leaf_span = {v: (lo[v], hi[v]) for v in range(n)}

        self.n_vertices = n
        self.n_leaves = len(self.leaf_order)
        self.total_measure = measure[root]
        self.leaf_measures = np.array([measure[v] for v in self.leaf_order])

    @functools.cached_property
    def slot_levels(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """The non-root vertices in groups of one depth and one child slot, with their parents.

        Groups come by depth, then by slot.  No two vertices of a group share
        a parent, so ``a[parents] += a[group]`` adds each vertex once.
        Top-down passes walk the groups forward; bottom-up passes walk them
        backward, so each parent takes its children from the last to the first.
        """
        n = self.n_vertices
        key = np.array(self.depth) * n + np.array(self.child_slot)
        below = np.argsort(key, kind="stable")[1:]  # the root, alone at depth 0, sorts first
        key = key[below]
        parent = np.array(self.parent)
        return [(group, parent[group])
                for group in np.split(below, np.flatnonzero(key[1:] != key[:-1]) + 1)]

    # ---------------------------------------------------------------- queries

    def is_leaf(self, v: int) -> bool:
        return not self.children[v]

    def branching(self, v: int) -> int:
        return len(self.children[v])

    def _check_leaf(self, x: int) -> None:
        if not (0 <= x < self.n_vertices) or self.children[x]:
            raise ForeignLeaf(f"vertex {x} is not a leaf of this tree")

    def sup(self, x: int, y: int) -> int:
        """Lowest common ancestor of two leaves; sup(x, x) = x."""
        self._check_leaf(x)
        self._check_leaf(y)
        a, b = x, y
        while a != b:
            if self.depth[a] >= self.depth[b]:
                a = self.parent[a]
            else:
                b = self.parent[b]
        return a

    def sup_row(self, i: int) -> list[int]:
        """sup(leaf_order[i], leaf_order[j]) for j = i, ..., n_leaves - 1.

        Read off the ancestors of leaf i alone: for j > i the sup is the
        lowest ancestor whose leaf span reaches past j.
        """
        v = self.leaf_order[i]
        row = [v]
        S = self.parent[v]
        while S != -1:
            row += [S] * (self.leaf_span[S][1] - i - len(row))
            S = self.parent[S]
        return row

    def child_toward(self, J: int, I: int) -> int:
        """The unique child of J on the path from J down to its strict descendant I."""
        if I == J:
            raise NotDescendant(f"{self.names[I]!r} is not a strict descendant of {self.names[J]!r}")
        v = I
        while self.parent[v] != J:
            v = self.parent[v]
            if v == self.root:
                raise NotDescendant(
                    f"{self.names[I]!r} is not a strict descendant of {self.names[J]!r}")
        return v

    def is_ancestor_or_equal(self, a: int, d: int) -> bool:
        la, ha = self.leaf_span[a]
        ld, hd = self.leaf_span[d]
        return la <= ld and hd <= ha

    def distance(self, x: int, y: int) -> float:
        """Canonical ultrametric: 0 if x == y, else measure of sup(x, y)."""
        s = self.sup(x, y)
        return 0.0 if x == y else self.measure[s]

    def sup_index_matrix(self) -> np.ndarray:
        """n_leaves x n_leaves matrix of sup vertex ids, in leaf_order indexing."""
        n = self.n_leaves
        S = np.empty((n, n), dtype=np.int64)
        for i, leaf in enumerate(self.leaf_order):
            S[i, i] = leaf
        for I in self.interior:
            kids = self.children[I]
            spans = [self.leaf_span[c] for c in kids]
            for i in range(len(kids)):
                li, hi_ = spans[i]
                for j in range(i + 1, len(kids)):
                    lj, hj = spans[j]
                    S[li:hi_, lj:hj] = I
                    S[lj:hj, li:hi_] = I
        return S

    # ---------------------------------------------------------- serialization

    def to_dict(self) -> dict:
        nodes = []
        for v in range(self.n_vertices):
            node = {"id": self.names[v]}
            if self.children[v]:
                node["children"] = [self.names[c] for c in self.children[v]]
                if self.symbol_hint is not None and v in self.symbol_hint:
                    node["T"] = self.symbol_hint[v]
            else:
                node["measure"] = self.measure[v]
            nodes.append(node)
        return {"name": self.label, "nodes": nodes}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def parse_tree(doc) -> BallTree:
    """Parse a tree-spec document (JSON text or an already-decoded dict).

    Interior nodes carry "children" (and optionally the operator symbol value
    "T"); leaves carry a positive "measure".  Declared interior measures are
    validated against the children sum, never trusted.
    """
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as e:
            raise MalformedSpec(f"invalid JSON: {e}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("nodes"), list):
        raise MalformedSpec('document must be an object with a "nodes" list')

    raw = doc["nodes"]
    names = []
    for node in raw:
        if not isinstance(node, dict) or "id" not in node:
            raise MalformedSpec('every node needs an "id"')
        names.append(str(node["id"]))
    if len(set(names)) != len(names):
        seen = set()
        dup = next(x for x in names if x in seen or seen.add(x))
        raise DuplicateId(f"duplicate vertex id {dup!r}")
    ids = {nm: i for i, nm in enumerate(names)}

    children = []
    leaf_measures = {}
    declared = {}
    symbol_hint = {}
    for v, node in enumerate(raw):
        kids = node.get("children")
        if kids:
            try:
                children.append([ids[str(c)] for c in kids])
            except KeyError as e:
                raise MalformedSpec(f"unknown child id {e.args[0]!r}") from None
            if "measure" in node:
                declared[v] = float(node["measure"])
            if "T" in node:
                symbol_hint[v] = float(node["T"])
        else:
            children.append([])
            if "measure" not in node:
                raise MalformedSpec(f"leaf {names[v]!r} has no measure")
            leaf_measures[v] = float(node["measure"])

    return BallTree(names, children, leaf_measures, declared_measures=declared,
                    symbol_hint=symbol_hint or None, label=str(doc.get("name", "")))


def load_tree(path) -> BallTree:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_tree(fh.read())


def generate_homogeneous(p: int, depth: int, total_measure: float) -> BallTree:
    """Perfect p-ary tree of the given depth; all leaves carry equal measure.

    Models a truncated p-adic ball: p^depth atoms of measure total / p^depth.
    """
    if p < 2 or depth < 1 or not total_measure > 0:
        raise OutOfRange(f"need p >= 2, depth >= 1, total_measure > 0; "
                         f"got ({p}, {depth}, {total_measure})")
    names = []
    children = []
    leaf_measures = {}
    atom = total_measure / p ** depth

    def add(name: str, level: int) -> int:
        v = len(names)
        names.append(name)
        children.append([])
        if level < depth:
            for i in range(p):
                c = add(f"{name}.{i}", level + 1)
                children[v].append(c)
        else:
            leaf_measures[v] = atom
        return v

    add("R", 0)
    return BallTree(names, children, leaf_measures,
                    label=f"homogeneous(p={p},depth={depth})")


def generate_random(seed, max_depth: int, max_branching: int) -> BallTree:
    """Random valid ball-tree, deterministic given the seed.

    Every interior vertex gets 2..max_branching children; a non-root vertex
    above max_depth becomes interior with probability 0.6.  Leaf measures
    are uniform in [0.1, 1.0].
    """
    if max_branching < 2 or max_depth < 1:
        raise OutOfRange(f"need max_branching >= 2 and max_depth >= 1; "
                         f"got ({max_depth}, {max_branching})")
    rng = random.Random(seed)
    names = []
    children = []
    leaf_measures = {}

    def add(level: int) -> int:
        v = len(names)
        names.append(f"v{v}")
        children.append([])
        interior = level < max_depth and (level == 0 or rng.random() < 0.6)
        if interior:
            kids = [add(level + 1) for _ in range(rng.randint(2, max_branching))]
            children[v].extend(kids)
        else:
            leaf_measures[v] = rng.uniform(0.1, 1.0)
        return v

    add(0)
    return BallTree(names, children, leaf_measures, label=f"random(seed={seed})")
