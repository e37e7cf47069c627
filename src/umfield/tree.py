"""Measured ball-trees: the geometry substrate for ultrametric fields.

A ball-tree is a finite rooted tree whose leaves are atoms of positive
measure and whose interior vertices are balls.  Interior measures are always
the exact sum of their children's measures (leaf measures are the source of
truth).  Every interior vertex has at least two children, so the tree is the
ball-inclusion tree of a regular ultrametric space whose points are the
leaves.

The canonical ultrametric is d(x, y) = measure(sup(x, y)) for x != y, where
sup is the lowest common ancestor.

A ``BallTree`` is stored flat: one list per per-vertex field, indexed by
vertex id, for scalar lookups, and numpy arrays (child counts, the leaf
order, the interior vertices in preorder, the vertex groups of
``slot_levels`` and ``sibling_slots``) for the vectorised passes.  Building
it takes one depth-first pass and one bottom-up measure pass in Python; the
rest is whole-array numpy.  Every leaf set is a contiguous run of the leaf
order, given by the per-vertex bounds ``lo`` and ``hi``.
"""

from __future__ import annotations

import functools
import itertools
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


def _first_duplicate(names):
    seen = set()
    return next(x for x in names if x in seen or seen.add(x))


def _raise_edge_error(names, children) -> None:
    """Raise the error for the first child entry, in document order, that is out of range or repeated."""
    n = len(names)
    has_parent = [False] * n
    for v, kids in enumerate(children):
        for c in kids:
            if not 0 <= c < n:
                raise MalformedSpec(f"child index {c} out of range")
            if c == v or has_parent[c]:
                raise Cycle(f"vertex {names[c]!r} referenced as child more than once")
            has_parent[c] = True


def _leaf_measure_array(names, leaf_ids, leaf_measures) -> np.ndarray:
    """The leaves' measures as floats, checked; if one is bad, the loop names the first."""
    try:
        m = np.array([float(leaf_measures[v]) for v in leaf_ids])
    except (KeyError, TypeError, ValueError):
        m = None
    with np.errstate(divide="ignore", over="ignore"):
        if m is not None and np.all(m > 0.0) and np.all(np.isfinite(1.0 / m)) \
                and np.all(np.isfinite(m)):
            return m
    checked = []
    for v in leaf_ids:
        if v not in leaf_measures:
            raise MalformedSpec(f"leaf {names[v]!r} has no measure")
        x = float(leaf_measures[v])
        if not (x > 0.0) or not math.isfinite(x):
            raise NonPositiveMeasure(f"leaf {names[v]!r} has measure {x}")
        if not math.isfinite(1.0 / x):
            raise OutOfRange(f"leaf {names[v]!r} has measure {x}, whose reciprocal overflows")
        checked.append(x)
    return np.array(checked)


class BallTree:
    """Immutable rooted measured tree of balls, stored as flat per-vertex sequences.

    Vertex ids are dense integers in document/construction order.  Each
    per-vertex field is one list indexed by vertex id: ``parent`` (-1 at the
    root), ``depth``, ``child_slot`` (position within the parent's child
    list), ``measure``, ``lo`` and ``hi``.  ``children`` is the per-vertex
    child sequences (lists or tuples) as handed over, not copied, and
    ``child_count`` their lengths as an array.  Leaf vectors used throughout
    the package are indexed by ``leaf_order`` (depth-first order following
    the canonical child order), so the leaves under any vertex v are the
    contiguous slice ``leaf_order[lo[v]:hi[v]]``.  ``preorder``, ``interior``
    (in preorder) and ``leaf_order`` are lists; ``interior_array`` and
    ``leaf_order_array`` hold the last two as arrays.  A caller that has
    built the name index already (``parse_tree``) passes it as ``name_to_id``.
    """

    def __init__(self, names, children, leaf_measures, *, declared_measures=None,
                 symbol_hint=None, label="", name_to_id=None):
        n = len(names)
        if n == 0:
            raise MalformedSpec("empty tree")
        if name_to_id is None:
            name_to_id = {nm: v for v, nm in enumerate(names)}
        if len(name_to_id) != n:
            raise DuplicateId(f"duplicate vertex id {_first_duplicate(names)!r}")

        # CSR view of the child lists: the children of v are kids[first[v]:first[v] + count[v]]
        count = np.fromiter(map(len, children), dtype=np.intp, count=n)
        first = np.cumsum(count) - count
        kids = np.fromiter(itertools.chain.from_iterable(children), dtype=np.intp,
                           count=int(count.sum()))
        owner = np.repeat(np.arange(n), count)
        if len(kids) and (kids.min() < 0 or kids.max() >= n
                          or np.bincount(kids).max() > 1 or np.any(kids == owner)):
            _raise_edge_error(names, children)
        parent = np.full(n, -1, dtype=np.intp)
        parent[kids] = owner
        roots = np.flatnonzero(parent < 0)
        if len(roots) != 1:
            raise MalformedSpec(f"expected exactly one root, found {len(roots)}")
        root = int(roots[0])
        if np.any(count == 1):
            v = int(np.argmax(count == 1))
            raise BranchingOne(f"interior vertex {names[v]!r} has a single child")
        slot = np.zeros(n, dtype=np.intp)
        slot[kids] = np.arange(len(kids)) - first[owner]

        order = []  # depth-first preorder, canonical child order
        stack = [root]
        while stack:
            v = stack.pop()
            order.append(v)
            kids_v = children[v]
            if kids_v:
                stack += kids_v[::-1]
        if len(order) != n:
            raise Cycle("tree is not connected (unreachable vertices)")
        parent = parent.tolist()
        depth = [0] * n
        for v in itertools.islice(order, 1, None):
            depth[v] = depth[parent[v]] + 1

        is_leaf = count == 0
        leaf_ids = np.flatnonzero(is_leaf)
        leaf_m = _leaf_measure_array(names, leaf_ids.tolist(), leaf_measures)
        at_leaves = np.zeros(n)
        at_leaves[leaf_ids] = leaf_m
        measure = at_leaves.tolist()
        order_a = np.array(order, dtype=np.intp)
        leaf_pre = is_leaf[order_a]
        leaf_order = order_a[leaf_pre]
        lo = np.empty(n, dtype=np.intp)
        lo[order_a] = np.cumsum(leaf_pre) - leaf_pre  # leaves before v in preorder
        hi = (lo + 1).tolist()  # right at the leaves; interior vertices get theirs below
        lo = lo.tolist()
        interior_a = order_a[~leaf_pre]
        interior = interior_a.tolist()
        get = measure.__getitem__
        try:
            for v in reversed(interior):  # children before parents
                kids_v = children[v]
                measure[v] = math.fsum(map(get, kids_v))
                hi[v] = hi[kids_v[-1]]
        except OverflowError:
            raise OutOfRange(f"measure of vertex {names[v]!r} overflows") from None

        if declared_measures:
            for v, m in declared_measures.items():
                if abs(m - measure[v]) > _DECLARED_MEASURE_RTOL * abs(measure[v]):
                    raise MeasureMismatch(
                        f"vertex {names[v]!r}: declared measure {m} != children sum {measure[v]}")

        self.label = label
        self.names = names
        self.name_to_id = name_to_id
        self.children = children
        self.child_count = count
        self._kids = kids
        self._first = first
        self.parent = parent
        self.depth = depth
        self.child_slot = slot.tolist()
        self.measure = measure
        self.root = root
        self.preorder = order
        self.interior = interior
        self.leaf_order = leaf_order.tolist()
        self.interior_array = interior_a
        self.leaf_order_array = leaf_order
        self.lo = lo
        self.hi = hi
        self.symbol_hint = dict(symbol_hint) if symbol_hint else None
        self.n_vertices = n
        self.n_leaves = len(self.leaf_order)
        self.total_measure = measure[root]
        self.leaf_measures = at_leaves[leaf_order]

    @functools.cached_property
    def leaves(self) -> frozenset:
        return frozenset(self.leaf_order)

    @functools.cached_property
    def measure_array(self) -> np.ndarray:
        """``measure`` as a numpy array, for vectorised passes."""
        return np.fromiter(self.measure, dtype=float, count=self.n_vertices)

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

    @functools.cached_property
    def sibling_slots(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per child slot j = 1, 2, ...: the vertices with more than j children, their
        children at slot j and their children at slot j - 1.

        A pass that goes over the slots in order (or in reverse) runs along every
        child list at once, one vectorised step per slot.
        """
        out = []
        parents = np.flatnonzero(self.child_count > 1)
        j = 1
        while len(parents):
            at = self._first[parents] + j
            out.append((parents, self._kids[at], self._kids[at - 1]))
            j += 1
            parents = parents[self.child_count[parents] > j]
        return out

    @functools.cached_property
    def sibling_measures(self) -> tuple[np.ndarray, np.ndarray]:
        """Per vertex, the summed measures of its earlier siblings and of its later siblings.

        Each is a running float sum along the child list, left to right for the
        earlier and right to left for the later siblings; the root has 0 for both.
        """
        m = self.measure_array
        earlier = np.zeros(self.n_vertices)
        later = np.zeros(self.n_vertices)
        for _, kids, prev in self.sibling_slots:
            earlier[kids] = earlier[prev] + m[prev]
        for _, kids, prev in reversed(self.sibling_slots):
            later[prev] = later[kids] + m[kids]
        return earlier, later

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
            row += [S] * (self.hi[S] - i - len(row))
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
        return self.lo[a] <= self.lo[d] and self.hi[d] <= self.hi[a]

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
            spans = [(self.lo[c], self.hi[c]) for c in kids]
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
    ids = {nm: i for i, nm in enumerate(names)}
    if len(ids) != len(names):
        raise DuplicateId(f"duplicate vertex id {_first_duplicate(names)!r}")

    children = []
    leaf_measures = {}
    declared = {}
    symbol_hint = {}
    for v, node in enumerate(raw):
        kids = node.get("children")
        if kids:
            try:
                children.append(tuple([ids[str(c)] for c in kids]))
            except KeyError as e:
                raise MalformedSpec(f"unknown child id {e.args[0]!r}") from None
            if "measure" in node:
                declared[v] = float(node["measure"])
            if "T" in node:
                symbol_hint[v] = float(node["T"])
        else:
            children.append(())
            if "measure" not in node:
                raise MalformedSpec(f"leaf {names[v]!r} has no measure")
            leaf_measures[v] = float(node["measure"])

    return BallTree(names, children, leaf_measures, declared_measures=declared,
                    symbol_hint=symbol_hint or None, label=str(doc.get("name", "")),
                    name_to_id=ids)


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
        children.append(())
        if level < depth:
            children[v] = tuple(add(f"{name}.{i}", level + 1) for i in range(p))
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
        children.append(())
        interior = level < max_depth and (level == 0 or rng.random() < 0.6)
        if interior:
            children[v] = tuple([add(level + 1) for _ in range(rng.randint(2, max_branching))])
        else:
            leaf_measures[v] = rng.uniform(0.1, 1.0)
        return v

    add(0)
    return BallTree(names, children, leaf_measures, label=f"random(seed={seed})")
