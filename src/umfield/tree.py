"""Measured ball-trees: the geometry substrate for ultrametric fields.

A ball-tree is a finite rooted tree whose leaves are atoms of positive
measure and whose interior vertices are balls.  Interior measures are always
the exact sum of their children's measures (leaf measures are the source of
truth).  Every interior vertex has at least two children, so the tree is the
ball-inclusion tree of a regular ultrametric space whose points are the
leaves.

The canonical ultrametric is d(x, y) = measure(sup(x, y)) for x != y, where
sup is the lowest common ancestor.

A ``BallTree`` is built from flat arrays in a CSR layout (see the class):
``parse_tree`` reads each field of the document's nodes once, the operator
symbol "T" into ``symbol_hint`` too, straight into numpy arrays,
``generate_homogeneous`` makes them in closed form, and ``load_tree``
pauses the cyclic garbage collector while a document is parsed.  The
constructor ranks the tree's Euler tour by pointer jumping
(``_euler_ranks``): O(log n) whole-array steps, whatever the depth, give
preorder, depth and the leaf bounds ``lo``/``hi``, and every leaf set is a
contiguous run of the leaf order.

Each interior measure is fsum of its children's measures, the exact sum
rounded once (``_fill_measures``): one addition per vertex in the bottom-up
pass below when every vertex has two children, else a walk of the level
schedule ``child_runs`` with double-double sums (``ddsum``) on wide levels.

Every other walk of the tree is one of its three passes, and only the tree
reads its schedules ``child_runs`` and ``sibling_slots`` or asks whether it
is a chain of balls (``is_chain``): the root-to-leaf ``path_sums`` (the
spectrum, the synthesis, the kernel), the bottom-up ``subtree_sums`` (the
Markov form), each one cumulative sum along a chain (of two-child balls, for
the latter), and the sibling scan ``earlier_sums``/``later_sums`` (the
sibling measures of the spectrum and the basis, the suffix sums of the
synthesis and the Markov form).

Each per-vertex field is held once, as a numpy array, and the names are the
one list; past the name index, the tree caches only its two schedules.  A
query that walks the ancestors of one vertex reads single entries through
the arrays' ``item`` methods and builds no whole-tree list.
"""

from __future__ import annotations

import functools
import gc
import itertools
import json
import math
import operator

import numpy as np

from .ddsum import dd_add, screen, two_sum


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


class TooManyLeaves(ValueError):
    """A dense oracle was asked for a tree with more than DENSE_MAX_LEAVES leaves."""


# Declared interior measures in input files are validated against the exact
# children sum at this relative tolerance (decimal literals round-trip well
# below it); the stored values are always the derived sums.
_DECLARED_MEASURE_RTOL = 1e-9

# The dense oracles (sup_index_matrix, the wavelet matrix, the Monte Carlo
# covariance) refuse larger trees before allocating: one n_leaves^2 float64
# array is 128 MiB at this size.
DENSE_MAX_LEAVES = 4096

# The measure pass sums an entry of child_runs with m > 2 child rows by one
# double-double step per child slot when it has at least this many parents per
# slot step, m - 1, and takes fsum per parent otherwise (an entry of two rows
# takes one addition).  A slot step costs about 28 us, as much as 35 parents of
# fsum at 0.8 us each, and timings were flat from 8 to 64.
_WIDE_LEVEL = 32


def check_dense(n_leaves: int, what: str) -> None:
    """Raise TooManyLeaves if a dense n_leaves^2 ``what`` would pass DENSE_MAX_LEAVES."""
    if n_leaves > DENSE_MAX_LEAVES:
        raise TooManyLeaves(f"the dense {what} is limited to {DENSE_MAX_LEAVES} leaves; "
                            f"this tree has {n_leaves}")


def _first_duplicate(names):
    seen = set()
    return next(x for x in names if x in seen or seen.add(x))


def _raise_edge_error(names, count, kids) -> None:
    """Raise the error for the first child entry, in vertex order, that is out of range or repeated."""
    n = len(names)
    has_parent = [False] * n
    kids = iter(kids.tolist())
    for v, k in enumerate(count.tolist()):
        for c in itertools.islice(kids, k):
            if not 0 <= c < n:
                raise MalformedSpec(f"child index {c} out of range")
            if c == v or has_parent[c]:
                raise Cycle(f"vertex {names[c]!r} referenced as child more than once")
            has_parent[c] = True


def _leaf_measure_array(names, leaf_ids, leaf_measures) -> np.ndarray:
    """The leaves' measures as floats, checked; if one is bad, the loop names the first."""
    m = np.asarray(leaf_measures, dtype=float)
    if m.shape != leaf_ids.shape:
        raise MalformedSpec(f"{len(leaf_ids)} leaves but {len(m)} leaf measures")
    with np.errstate(divide="ignore", over="ignore"):
        if np.all(m > 0.0) and np.all(np.isfinite(m)) and np.all(np.isfinite(1.0 / m)):
            return m
    for v, x in zip(leaf_ids.tolist(), m.tolist()):
        if not (x > 0.0) or not math.isfinite(x):
            raise NonPositiveMeasure(f"leaf {names[v]!r} has measure {x}")
        if not math.isfinite(1.0 / x):
            raise OutOfRange(f"leaf {names[v]!r} has measure {x}, whose reciprocal overflows")
    return m


def _euler_ranks(count, first, kids, owner, root):
    """Preorder, depth and the leaf bounds lo/hi, ranked on an Euler tour with one event per leaf.

    An interior vertex has two events, enter and exit, and a leaf one, its
    enter and exit merged: event v enters vertex v, and event n + i exits
    the i-th interior vertex, so the tour has n + n_interior events.  Each
    event's successor is local to the CSR: enter(v) is followed by the first
    event of its first child; the last event of v, its exit or its leaf
    event, by the first event of its next sibling, or by exit(parent) after
    the last child; the last event of the root ends the tour.  List ranking
    by pointer jumping (Wyllie; see Tarjan & Vishkin, SIAM J. Comput. 14,
    1985) doubles every link per round, so after ceil(log2(events)) rounds
    each event has counted the events from it to the end, and its place in
    the tour follows.  An event that has not reached the end by then lies on
    a cycle that the root does not reach.

    Of the events before enter(v), lo counts the leaf events and rank, the
    preorder position, the enters and leaf events, so depth, the enters less
    the exits, is 2 rank - place - lo.  hi is lo + 1 at a leaf and the leaf
    events before exit(v) otherwise.  The rounds gather into one reused
    buffer, and the three tour-sized arrays are reused for the read-off.
    """
    n = len(count)
    inner = np.flatnonzero(count)
    end = n + len(inner)  # a sentinel after the root's last event, linked to itself
    last = np.arange(n)  # the last event of each vertex: a leaf's own, an interior vertex's exit
    last[inner] = np.arange(n, end)
    nxt = np.empty(end + 1, dtype=np.intp)
    nxt[inner] = kids[first[inner]]
    after = last[owner]  # the exit of the parent, unless a next sibling comes first
    sib = np.flatnonzero(np.arange(1, len(kids) + 1) < (first + count)[owner])
    after[sib] = kids[sib + 1]
    nxt[last[kids]] = after
    nxt[last[root]] = end
    nxt[end] = end
    del last, after, sib
    left = np.ones(end + 1, dtype=np.intp)  # events from this one to the end of the tour
    left[end] = 0
    buf = np.empty_like(nxt)
    for _ in range((end - 1).bit_length()):
        np.take(left, nxt, out=buf, mode="clip")  # clip: every link is in range, and out is unbuffered
        left += buf
        np.take(nxt, nxt, out=buf, mode="clip")
        nxt, buf = buf, nxt
    if np.any(nxt[:end] != end):
        raise Cycle("tree is not connected (unreachable vertices)")
    place = np.subtract(end, left, out=left)  # the events before each one
    enter = place[:n]
    leaves_before = nxt  # leaf events before each place
    leaves_before.fill(0)
    leaves_before[enter[count == 0] + 1] = 1
    np.cumsum(leaves_before, out=leaves_before)
    lo = leaves_before[enter]
    hi = lo + 1
    hi[inner] = leaves_before[place[n:end]]
    del nxt, leaves_before
    vertex_at = buf[:end]  # the vertex entered at each place, n at an exit
    vertex_at.fill(n)
    vertex_at[enter] = np.arange(n)
    order = vertex_at[vertex_at < n]
    rank = vertex_at[:n]  # enters and leaf events before enter(v)
    rank[order] = np.arange(n)
    depth = 2 * rank
    depth -= enter
    depth -= lo
    return order, depth, lo, hi


def _measure_overflow(t, m) -> OutOfRange:
    """The error for the first interior vertex, in reversed preorder, whose fsum overflows."""
    measure = m.tolist()
    kids, first, count = t.child_ids.tolist(), t.child_first.tolist(), t.child_count.tolist()
    try:
        for v in reversed(t.interior.tolist()):  # children before parents
            measure[v] = math.fsum(measure[c] for c in kids[first[v]:first[v] + count[v]])
    except OverflowError:
        return OutOfRange(f"measure of vertex {t.names[v]!r} overflows")
    raise AssertionError("no measure overflows")


def _sum_runs(m, parents, runs, count) -> None:
    """m[parents] = fsum of each parent's children, for one entry of ``child_runs``.

    count is the tree's ``child_count``, non-increasing along the entry's
    parents, and the pad cell of m is 0.0.  An entry of two child rows takes
    ``a + b``, the exact sum rounded once, which is fsum's value.  An entry
    of k > 2 rows and P parents with P < ``_WIDE_LEVEL`` (k - 1) takes fsum
    over each parent's run, whose pad cells add 0.0.  A wider one adds its
    children slot by slot: slot 1 to slot 0 by TwoSum, exactly, and later
    slots by ``dd_add`` over the prefix of parents that have them; the values
    ``screen`` does not keep go to fsum.  A sum that overflows is infinite,
    or makes fsum raise.
    """
    k, P = runs.shape
    if k == 2:
        m[parents] = m[runs[0]] + m[runs[1]]
        return
    if P < _WIDE_LEVEL * (k - 1):
        m[parents] = [math.fsum(run) for run in m[runs].T.tolist()]
        return
    hi, lo, err = np.empty(P), np.empty(P), np.zeros(P)
    work = [np.empty(P) for _ in range(4)]
    two_sum(m[runs[0]], m[runs[1]], hi, lo, work[0])
    count = count[parents]
    for j in range(2, k):
        p = int(np.count_nonzero(count > j))
        dd_add(hi[:p], lo[:p], err[:p], m[runs[j, :p]], 0.0, 0.0, [w[:p] for w in work])
    m[parents] = hi
    rest = ~screen(hi, lo, err)
    if rest.any():
        m[parents[rest]] = [math.fsum(run) for run in m[runs[:, rest]].T.tolist()]


def _fill_measures(t, m) -> None:
    """Write into m, which holds the leaf measures and a zero pad cell after the last vertex,
    each interior vertex's fsum of its children's.

    When every interior vertex has two children, each measure is fsum's
    fl(a + b), ``t.subtree_sums``; any other tree takes one ``_sum_runs`` per
    entry of ``t.child_runs``, from the last.  A sum that overflows makes
    fsum raise, or is infinite and so is the root's measure;
    ``_measure_overflow`` then names the vertex, in reversed preorder.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # inf and nan go to fsum
            if t.child_count.max() == 2:
                t.subtree_sums(m)
            else:
                for parents, runs in reversed(t.child_runs):
                    _sum_runs(m, parents, runs, t.child_count)
        if math.isinf(m.item(t.root)):
            raise OverflowError
    except OverflowError:
        raise _measure_overflow(t, m) from None


class BallTree:
    """Immutable rooted measured tree of balls, stored as flat per-vertex arrays.

    Built from ``names``, the per-vertex ``child_count`` and the flat
    ``child_ids`` (the children of each vertex in turn, in vertex order),
    and ``leaf_measures``, one per leaf in vertex order.  Vertex ids are
    dense integers in document/construction order.  Leaf vectors used
    throughout the package are indexed by ``leaf_order`` (depth-first order
    following the canonical child order), so the leaves under any vertex v
    are the contiguous slice ``leaf_order[lo[v]:hi[v]]``.

    Every per-vertex field is one numpy array, and ``names`` the one list.
    The CSR arrays ``child_count``, ``child_first`` and ``child_ids`` are
    kept as given: the children of v are ``child_ids[child_first[v]:
    child_first[v] + child_count[v]]``.  The ranked fields are ``parent``
    (-1 at the root), ``depth``, ``lo``, ``hi``, ``measure`` (from the exact
    bottom-up pass), and the vertex sequences ``preorder``, ``interior`` (in
    preorder) and ``leaf_order``.  ``name_to_id`` is built on first read; a
    caller that has the name index already (``parse_tree``) passes it.
    ``symbol_hint`` is kept as given: the document's symbol as an array over
    all vertices (0 on leaves, NaN on an interior vertex that has no "T"), or
    None.
    """

    def __init__(self, names, child_count, child_ids, leaf_measures, *, declared_measures=None,
                 symbol_hint=None, label="", name_to_id=None):
        n = len(names)
        if n == 0:
            raise MalformedSpec("empty tree")
        if len(set(names) if name_to_id is None else name_to_id) != n:
            raise DuplicateId(f"duplicate vertex id {_first_duplicate(names)!r}")
        if name_to_id is not None:
            self.name_to_id = name_to_id

        count = np.asarray(child_count, dtype=np.intp)
        kids = np.asarray(child_ids, dtype=np.intp)
        if count.shape != (n,) or kids.ndim != 1 or count.min() < 0 or count.sum() != len(kids):
            raise MalformedSpec(f"{len(kids)} child ids do not match the child counts")
        first = np.cumsum(count) - count
        owner = np.repeat(np.arange(n), count)
        if len(kids) and (kids.min() < 0 or kids.max() >= n
                          or np.bincount(kids).max() > 1 or np.any(kids == owner)):
            _raise_edge_error(names, count, kids)
        parent = np.full(n, -1, dtype=np.intp)
        parent[kids] = owner
        roots = np.flatnonzero(parent < 0)
        if len(roots) != 1:
            raise MalformedSpec(f"expected exactly one root, found {len(roots)}")
        root = int(roots[0])
        if np.any(count == 1):
            v = int(np.argmax(count == 1))
            raise BranchingOne(f"interior vertex {names[v]!r} has a single child")

        order, depth, lo, hi = _euler_ranks(count, first, kids, owner, root)
        is_leaf = count == 0
        leaf_ids = np.flatnonzero(is_leaf)
        leaf_order = order[is_leaf[order]]
        interior_a = order[~is_leaf[order]]

        leaf_m = _leaf_measure_array(names, leaf_ids, leaf_measures)

        self.label = label
        self.names = names
        self.child_count = count
        self.child_first = first
        self.child_ids = kids
        self.parent = parent
        self.depth = depth
        self.lo = lo
        self.hi = hi
        self.root = root
        self.preorder = order
        self.interior = interior_a
        self.leaf_order = leaf_order
        self.symbol_hint = symbol_hint
        self.n_vertices = n
        self.n_leaves = len(leaf_order)

        m = np.zeros(n + 1)  # the last cell is the zero pad of child_runs
        m[leaf_ids] = leaf_m
        _fill_measures(self, m)
        m = self.measure = m[:n]
        if declared_measures:
            for v, d in declared_measures.items():
                mv = m.item(v)
                if not abs(d - mv) <= _DECLARED_MEASURE_RTOL * abs(mv):  # a NaN fails too
                    raise MeasureMismatch(
                        f"vertex {names[v]!r}: declared measure {d} != children sum {mv}")
        self.total_measure = m.item(root)
        self.leaf_measures = m[leaf_order]

    @functools.cached_property
    def name_to_id(self) -> dict:
        return dict(zip(self.names, range(self.n_vertices)))

    @property
    def is_chain(self) -> bool:
        """Whether the interior vertices form one path, each the parent of the next: a chain
        of balls, which ``path_sums`` and ``subtree_sums`` take as one cumulative sum along it.
        It does when the last of them in preorder has depth n_interior - 1."""
        k = len(self.interior)
        return k > 0 and self.depth.item(self.interior.item(-1)) == k - 1

    @functools.cached_property
    def child_runs(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """The interior vertices by depth, top-down, each level with its children slot by slot.

        An entry is ``(parents, runs)``, ``runs`` an (m, P) matrix read from
        the CSR arrays: ``runs[j]`` holds child j of each of the P parents, so
        one gather takes a whole level and a sum over the children runs along
        axis 0.  Top-down passes walk the entries forward, bottom-up passes
        backward.  A level whose parents share one child count is one entry.
        Otherwise its parents come by decreasing child count, each column
        shorter than m is padded at its end with ``n_vertices``, an index past
        the last vertex for a pass to point at a zero cell, and the level is
        cut where its padded cells would pass twice its children: the cells
        total at most 2 (n_vertices - 1).  A one-vertex tree has no entry.
        """
        inner = self.interior
        if not len(inner):
            return []
        # by depth, then by decreasing child count, then in preorder: the smallest unsigned
        # type that holds the key, at 8 or 16 bits, makes the stable sort a radix sort
        depth = self.depth[inner]
        count = self.child_count[inner]
        top, low = int(count.max()), int(count.min())
        key = depth if low == top else depth * (top - low + 1) + (top - count)
        order = inner[np.argsort(key.astype(np.min_scalar_type(int(key.max()))), kind="stable")]
        count = self.child_count[order]
        first = self.child_first[order]
        below = np.cumsum(count) if low < top else None  # the children of order[:i + 1]
        slots = np.arange(top)[:, None]
        kids = self.child_ids
        out = []
        a = 0
        for b in np.cumsum(np.bincount(depth)).tolist():
            while a < b:  # one entry per pass, unless padding order[a:b] passes twice the children
                m = count.item(a)
                e = b
                if count.item(b - 1) < m and (b - a) * m > 2 * (below.item(b - 1) - below.item(a) + m):
                    # the longest prefix that keeps it: the mean count only falls along the level
                    e = a + int(np.count_nonzero(
                        np.arange(1, b - a + 1) * m <= 2 * (below[a:b] - below.item(a) + m)))
                cells = slots[:m] + first[a:e]
                if count.item(e - 1) == m:
                    runs = kids[cells]
                else:
                    runs = kids.take(cells, mode="clip")
                    runs[slots[:m] >= count[a:e]] = self.n_vertices
                out.append((order[a:e], runs))
                a = e
        return out

    @functools.cached_property
    def sibling_slots(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per child slot j = 1, 2, ...: ``(kids, prev)``, the children at slot j and at slot
        j - 1 of the vertices with more than j children; ``earlier_sums`` and ``later_sums``
        walk them.
        """
        out = []
        parents = np.flatnonzero(self.child_count > 1)
        j = 1
        while len(parents):
            at = self.child_first[parents] + j
            out.append((self.child_ids[at], self.child_ids[at - 1]))
            j += 1
            parents = parents[self.child_count[parents] > j]
        return out

    def path_sums(self, x) -> None:
        """In place, x[v] = x[parent(v)] + x[v] for every vertex from the root down, leaves
        included: each vertex ends with the sum of the values on its root path.

        x has n_vertices + 1 rows, the last a scratch cell for the pad of
        ``child_runs``, and may carry a batch axis.  On a chain of balls the
        interior vertices are one path: one ``np.cumsum`` along it and one
        gather for the leaves.  Any other tree takes one step per entry of
        ``child_runs``.  Each sum is the one rounding fl(x[parent] + x[v])
        (``np.cumsum`` adds in order): the preorder loop's, bit for bit.
        """
        if self.is_chain:
            path, leaves = self.interior, self.leaf_order
            x[path] = np.cumsum(x[path], axis=0)
            x[leaves] += x[self.parent[leaves]]
        else:
            for parents, runs in self.child_runs:
                x[runs] += x[parents]

    def subtree_sums(self, x) -> None:
        """In place, x[p] = x[c_0] + (x[c_1] + (... + x[c_last])) for every interior vertex p
        from the bottom up: each vertex ends with the sum of the values on its leaves.

        x has n_vertices + 1 rows, the last the zero pad of ``child_runs``,
        and may carry a batch axis.  A chain of two-child balls is one
        ``np.cumsum`` from the bottom, fl(a + b) either way round; any other
        tree one gather per entry of ``child_runs``, its rows added from the
        last child back.
        """
        g = self.interior
        if self.is_chain and self.child_count.max() == 2:
            kids, first = self.child_ids, self.child_first[g]
            off = kids[first[:-1]]  # above the bottom, each vertex's child that is not the next
            off = np.where(off == g[1:], kids[first[:-1] + 1], off)
            bottom_up = np.concatenate((kids[first[-1]:first[-1] + 2], off[::-1]))
            x[g[::-1]] = np.cumsum(x[bottom_up], axis=0)[1:]
        else:
            for parents, runs in reversed(self.child_runs):
                S = x.take(runs, axis=0)  # (m, P, ...): the children, then the sums from each on
                for k in range(len(runs) - 2, -1, -1):
                    S[k] += S[k + 1]
                x[parents] = S[0]

    def earlier_sums(self, x) -> np.ndarray:
        """Per vertex, the running sum of x over its earlier siblings, 0 at a first child and
        the root: earlier[c_j] = earlier[c_(j-1)] + x[c_(j-1)], one walk over
        ``sibling_slots`` along every child list at once.  x has the vertex
        axis first, may have rows past the last vertex (their sums are 0) and
        a batch axis, whose rows ``take`` copies as one block each."""
        out = np.zeros(x.shape)
        for kids, prev in self.sibling_slots:
            out[kids] = out.take(prev, axis=0) + x.take(prev, axis=0)
        return out

    def later_sums(self, x) -> np.ndarray:
        """Per vertex, the running sum of x over its later siblings, right to left:
        later[c_(j-1)] = later[c_j] + x[c_j], as ``earlier_sums`` takes the earlier ones."""
        out = np.zeros(x.shape)
        for kids, prev in reversed(self.sibling_slots):
            out[prev] = out.take(kids, axis=0) + x.take(kids, axis=0)
        return out

    # ---------------------------------------------------------------- queries

    def is_leaf(self, v: int) -> bool:
        return not self.child_count.item(v)

    def _check_leaf(self, x: int) -> None:
        if not (0 <= x < self.n_vertices) or self.child_count.item(x):
            raise ForeignLeaf(f"vertex {x} is not a leaf of this tree")

    def sup(self, x: int, y: int) -> int:
        """Lowest common ancestor of two leaves; sup(x, x) = x."""
        self._check_leaf(x)
        self._check_leaf(y)
        depth, parent = self.depth.item, self.parent.item
        a, b = x, y
        while a != b:
            if depth(a) >= depth(b):
                a = parent(a)
            else:
                b = parent(b)
        return a

    def child_toward(self, J: int, I: int) -> int:
        """The unique child of J on the path from J down to its strict descendant I.

        I lies under J when its leaf span lies inside J's, and then under the
        last child of J whose span starts at or before I's: a binary search
        over the ``lo`` of J's children, which rise along the child list.
        """
        if I == J or not self.is_ancestor_or_equal(J, I):
            raise NotDescendant(f"{self.names[I]!r} is not a strict descendant of {self.names[J]!r}")
        a = self.child_first.item(J)
        kids = self.child_ids[a:a + self.child_count.item(J)]
        return kids.item(np.searchsorted(self.lo[kids], self.lo.item(I), side="right") - 1)

    def is_ancestor_or_equal(self, a: int, d: int) -> bool:
        lo, hi = self.lo.item, self.hi.item
        return lo(a) <= lo(d) and hi(d) <= hi(a)

    def sup_index_matrix(self) -> np.ndarray:
        """n_leaves x n_leaves matrix of sup vertex ids, in leaf_order indexing (dense oracle).

        Each child c of I writes I on its pairs with the later siblings' leaves, hi[c] to hi[I].
        """
        n = self.n_leaves
        check_dense(n, "sup-vertex matrix")
        S = np.empty((n, n), dtype=np.int64)
        S[np.arange(n), np.arange(n)] = self.leaf_order
        lo, hi = self.lo.tolist(), self.hi.tolist()
        for c, I in enumerate(self.parent.tolist()):
            if I >= 0:
                S[lo[c]:hi[c], hi[c]:hi[I]] = I
                S[hi[c]:hi[I], lo[c]:hi[c]] = I
        return S

    # ---------------------------------------------------------- serialization

    def to_dict(self) -> dict:
        T = [math.nan] * self.n_vertices if self.symbol_hint is None else self.symbol_hint.tolist()
        names, measure, kids = self.names, self.measure.tolist(), self.child_ids.tolist()
        nodes = []
        for v, (a, k) in enumerate(zip(self.child_first.tolist(), self.child_count.tolist())):
            node = {"id": names[v]}
            if k:
                node["children"] = [names[c] for c in kids[a:a + k]]
                if not math.isnan(T[v]):
                    node["T"] = T[v]
            else:
                node["measure"] = measure[v]
            nodes.append(node)
        return {"name": self.label, "nodes": nodes}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _raise_node_error(nodes, names, ids) -> None:
    """Raise the error for the first node, in document order, whose fields do not parse."""
    for name, node in zip(names, nodes):
        kids = node.get("children")
        if kids:
            if not isinstance(kids, (list, tuple)):
                raise MalformedSpec(f"vertex {name!r}: children {kids!r} is not a list")
            for c in kids:
                if str(c) not in ids:
                    raise MalformedSpec(f"unknown child id {str(c)!r}")
            fields = [key for key in ("measure", "T") if key in node]
        elif "measure" not in node:
            raise MalformedSpec(f"leaf {name!r} has no measure")
        else:
            fields = ["measure"]
        for key in fields:
            try:
                x = float(node[key])
            except (TypeError, ValueError):
                raise MalformedSpec(f"vertex {name!r}: {key} {node[key]!r} is not a number") from None
            except OverflowError:  # an integer literal past the float range; too long to repeat
                raise MalformedSpec(f"vertex {name!r}: {key} is out of the float range") from None
            if key == "T" and not 0.0 <= x < math.inf:
                raise MalformedSpec(f"symbol value at vertex {name!r} must be nonnegative, got {x}")


def _read_symbol(inner, interior, n):
    """The "T" values of the interior nodes ``inner`` as a read-only array over all n vertices:
    0 on the leaves and NaN on an interior vertex without one; None when no node has one.

    Raises ValueError if a value is negative or not finite, for the caller to name.
    """
    get_T = operator.itemgetter("T")
    try:  # every interior node has a "T"
        given = T = np.fromiter(map(float, map(get_T, inner)), dtype=float, count=len(inner))
    except KeyError:
        has_T = np.fromiter(map(operator.contains, inner, itertools.repeat("T")), dtype=bool,
                            count=len(inner))
        given = np.fromiter(map(float, map(get_T, itertools.compress(inner, has_T))), dtype=float,
                            count=int(has_T.sum()))
        T = np.full(len(inner), math.nan)
        T[has_T] = given
    if not np.all((given >= 0.0) & (given < math.inf)):
        raise ValueError("a symbol value is negative or not finite")
    if not len(given):
        return None
    symbol = np.zeros(n)
    symbol[interior] = T
    symbol.flags.writeable = False
    return symbol


def parse_tree(doc) -> BallTree:
    """Parse a tree-spec document (JSON text or an already-decoded dict).

    Interior nodes carry a "children" list (and optionally the operator
    symbol value "T", nonnegative and finite); leaves carry a positive
    "measure".  Numbers may be given as numeric strings.  Declared interior
    measures are validated against the children sum, never trusted.  Each
    field is read once, for all nodes together, into an array
    (``np.fromiter``); child ids are matched as strings only when one of them
    is not a string.  The "T" values become ``symbol_hint``: 0 on leaves, NaN
    on an interior vertex without one, or None when no vertex has one.  When
    a field does not parse, a loop over the nodes names the first culprit in
    document order.
    """
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except ValueError as e:  # also an integer literal past Python's digit limit
            raise MalformedSpec(f"invalid JSON: {e}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("nodes"), list):
        raise MalformedSpec('document must be an object with a "nodes" list')

    nodes = doc["nodes"]
    try:
        names = [str(node["id"]) for node in nodes]  # a list or string node raises TypeError
    except (TypeError, KeyError):
        raise MalformedSpec('every node needs an "id"') from None
    ids = dict(zip(names, range(len(names))))
    if len(ids) != len(names):
        raise DuplicateId(f"duplicate vertex id {_first_duplicate(names)!r}")

    kid_lists = [node.get("children") or () for node in nodes]
    try:
        if not set(map(type, kid_lists)) <= {list, tuple}:
            raise TypeError("children is not a list")
        count = np.fromiter(map(len, kid_lists), dtype=np.intp, count=len(nodes))
        n_kids = int(count.sum())
        try:  # string child ids index the name map as they are
            child_ids = np.fromiter(map(ids.__getitem__, itertools.chain.from_iterable(kid_lists)),
                                    dtype=np.intp, count=n_kids)
        except (KeyError, TypeError):  # a numeric or unknown id: match it as a string
            kids = map(str, itertools.chain.from_iterable(kid_lists))
            child_ids = np.fromiter(map(ids.__getitem__, kids), dtype=np.intp, count=n_kids)
        leaf_ids = np.flatnonzero(count == 0).tolist()
        leaves = map(nodes.__getitem__, leaf_ids)
        leaf_measures = np.fromiter(map(float, map(operator.itemgetter("measure"), leaves)),
                                    dtype=float, count=len(leaf_ids))
        interior = np.flatnonzero(count)
        inner = list(map(nodes.__getitem__, interior.tolist()))
        declared = {v: float(node["measure"])
                    for v, node in zip(interior.tolist(), inner) if "measure" in node}
        symbol_hint = _read_symbol(inner, interior, len(nodes))
    except (TypeError, ValueError, KeyError, OverflowError):
        _raise_node_error(nodes, names, ids)
        raise

    return BallTree(names, count, child_ids, leaf_measures, declared_measures=declared,
                    symbol_hint=symbol_hint, label=str(doc.get("name", "")), name_to_id=ids)


def load_tree(path) -> BallTree:
    """Read and parse a tree-spec file, with the cyclic garbage collector paused.

    The decoded document and the tree hold no reference cycles, so
    refcounting frees them; without the pause, the collector walks the
    document's dicts again and again while ``json.loads`` and
    ``parse_tree`` allocate them.  The collector's previous state is
    restored once ``parse_tree`` has returned, when the decoded document is
    already freed, or has raised.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    enabled = gc.isenabled()
    gc.disable()
    try:
        return parse_tree(text)
    finally:
        if enabled:
            gc.enable()


def generate_homogeneous(p: int, depth: int, total_measure: float) -> BallTree:
    """Perfect p-ary tree of the given depth; all leaves carry equal measure.

    Models a truncated p-adic ball: p^depth atoms of measure total / p^depth.
    Vertex ids are the preorder, in closed form: a vertex of level l heads a
    subtree of size(l) = (p^(depth - l + 1) - 1) / (p - 1) vertices, and its
    child i has id v + 1 + i size(l + 1).  Child i of the vertex named nm is
    named nm + "." + i.
    """
    if p < 2 or depth < 1 or not total_measure > 0:
        raise OutOfRange(f"need p >= 2, depth >= 1, total_measure > 0; "
                         f"got ({p}, {depth}, {total_measure})")
    size = [(p ** (depth - l + 1) - 1) // (p - 1) for l in range(depth + 2)]
    n = size[0]
    names = np.empty(n, dtype=object)
    level = np.empty(n, dtype=np.intp)
    ids = np.zeros(1, dtype=np.intp)
    level_names = ["R"]
    suffixes = [f".{i}" for i in range(p)]
    for l in range(depth + 1):  # ids and names level by level, each level in id order
        names[ids] = level_names
        level[ids] = l
        if l < depth:
            ids = (ids[:, None] + 1 + np.arange(p) * size[l + 1]).ravel()
            level_names = [nm + s for nm in level_names for s in suffixes]
    interior = np.flatnonzero(level < depth)
    step = np.array(size[1:], dtype=np.intp)[level[interior]]
    kids = (interior[:, None] + 1 + np.arange(p) * step[:, None]).ravel()
    count = np.where(level < depth, p, 0)
    atom = total_measure / p ** depth
    return BallTree(names.tolist(), count, kids, np.full(p ** depth, atom),
                    label=f"homogeneous(p={p},depth={depth})")
