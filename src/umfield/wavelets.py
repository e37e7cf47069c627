"""Orthonormal ultrametric wavelet basis on a measured ball-tree.

Each interior vertex I with p children carries p - 1 zero-mean vectors that
are constant on the child balls and supported inside I; together with the
constant mode (total measure is finite here) they form an orthonormal basis
of the leaf-function space under the measure-weighted inner product.

The basis is held as ``first_row`` and four flat tables with one row per
wavelet, filled with one vectorised step per child slot;
``WaveletBasis.synthesize`` sums coefficients back to leaf values in O(n)
from them, the tree's child slots and its root-to-leaf pass
``BallTree.path_sums``.  The oracles read the rows too:
``evaluate`` gives the value of row k at a leaf from the leaf spans in O(1),
``projector_sum_check`` sums the rows of one vertex, and the dense wavelet
matrix, kept as the reference, writes two leaf slices per row.

The basis inside each vertex is the weighted Helmert construction: wavelet j
is positive on the first j children, negative on child j+1, zero after.  The
individual coefficients depend on the canonical child order, but the rank
p - 1 projector they span does not; everything downstream (spectrum, kernel,
field law) only sees the projector.
"""

from __future__ import annotations

import math

import numpy as np

from .tree import BallTree, check_dense

_BUILD_RTOL = 1e-12   # zero-mean / unit-norm check at construction
_CHECK_TOL = 1e-10    # projector identity check
# The screen in _surely_pass errs by at most (j + 2) roundings of 2^-53 and
# passes within a tenth of the tolerance, so it decides alone for every j with
# (j + 2) 2^-53 <= 0.9 _BUILD_RTOL (8104); wider wavelets take the exact checks.
_SCREEN_MAX_J = int(0.9 * _BUILD_RTOL * 2 ** 53) - 2


class WaveletBasis:
    """All wavelets of a tree plus the constant mode, in canonical order.

    Canonical order: interior vertices in depth-first preorder, then j
    ascending within a vertex; the constant mode sits last.  Row k of the
    tables is wavelet ``index[k]`` of vertex ``vertex[k]``.  With s the summed
    measure of the vertex's first j children, nu that of child j (from 0) and
    alpha = (1/s + 1/nu)^(-1/2), it is ``pos_val[k]`` = alpha/s on the first j
    children and ``neg_val[k]`` = -alpha/nu on child j.  The rows of vertex I
    are ``first_row[I]`` to ``first_row[I] + p - 2``, p its number of children.
    These five arrays are all the basis holds: the parents of slot j in
    ``BallTree.sibling_slots`` have wavelet j at ``first_row[parents] + j - 1``.
    """

    def __init__(self, tree: BallTree):
        t = self.tree = tree
        self.constant_value = 1.0 / math.sqrt(tree.total_measure)
        interior = t.interior
        n_here = t.child_count[interior] - 1
        n_w = int(n_here.sum())
        first_row = self.first_row = np.zeros(t.n_vertices, dtype=np.intp)
        first_row[interior] = np.cumsum(n_here) - n_here
        self.vertex = np.empty(n_w, dtype=np.intp)
        self.index = np.empty(n_w, dtype=np.intp)
        self.pos_val = np.empty(n_w)
        self.neg_val = np.empty(n_w)
        s_at, _ = t.sibling_measures()
        m = t.measure
        sure = np.ones(n_w, dtype=bool)
        with np.errstate(all="ignore"):  # the exact checks judge what overflows here
            for j, (parents, kids, _) in enumerate(t.sibling_slots, start=1):
                rows = first_row[parents] + (j - 1)
                s = s_at[kids]
                nu = m[kids]
                alpha = 1.0 / np.sqrt(1.0 / s + 1.0 / nu)
                a = alpha / s
                b = -alpha / nu
                self.vertex[rows] = parents
                self.index[rows] = j
                self.pos_val[rows] = a
                self.neg_val[rows] = b
                sure[rows] = _surely_pass(j, a, b, s, nu)
        for k in np.flatnonzero(~sure).tolist():  # canonical order: the first failure is named
            self._check_exactly(k)

    def __len__(self) -> int:
        return len(self.pos_val)

    def _check_exactly(self, k: int) -> None:
        """Zero mean and unit norm of wavelet k, as exact sums over its child balls.

        Only the first j + 1 children enter: the coefficients after child j are 0.0 and add
        nothing to the sums.
        """
        t = self.tree
        I, j = self.vertex.item(k), self.index.item(k)
        a = t.child_first.item(I)
        nu = t.measure[t.child_ids[a:a + j + 1]].tolist()
        coeffs = (float(self.pos_val[k]),) * j + (float(self.neg_val[k]),)
        mean = math.fsum(c * m for c, m in zip(coeffs, nu))
        norm = math.fsum(c * c * m for c, m in zip(coeffs, nu))
        if abs(mean) > _BUILD_RTOL * math.fsum(abs(c) * m for c, m in zip(coeffs, nu)):
            raise ArithmeticError(f"wavelet ({t.names[I]}, {j}) not zero-mean: {mean}")
        if abs(norm - 1.0) > _BUILD_RTOL:
            raise ArithmeticError(f"wavelet ({t.names[I]}, {j}) not unit-norm: {norm}")

    def synthesize(self, coeffs) -> np.ndarray:
        """Leaf values sum_k coeffs[..., k] psi_k, in leaf_order indexing.

        ``coeffs`` has shape (..., n_wavelets) in canonical order; the result
        has shape (..., n_leaves).  Costs O(n_vertices) per row.  A walk over
        ``BallTree.sibling_slots`` from the last slot j down, w the
        coefficients of wavelet j, sets child j - 1 to child j plus w pos_val,
        the suffix of the positive values, and adds w neg_val to child j, its
        own value; ``BallTree.path_sums`` then adds up each vertex's root
        path, into an accumulator with its scratch cell last.  The sums run
        with the vertex axis first, so a batch of rows moves as one block per
        index, and the result is transposed once at the end.
        """
        c = np.asarray(coeffs, dtype=float)
        n_w = len(self)
        if c.shape[-1:] != (n_w,):
            raise ValueError(f"expected {n_w} coefficients in the last axis, got shape {c.shape}")
        c = np.moveaxis(c, -1, 0)  # (n_wavelets, ...): a view, and c itself for one row
        batch = c.shape[1:]
        along = (slice(None),) + (None,) * len(batch)  # a per-wavelet table against the batch
        t = self.tree
        acc = np.zeros((t.n_vertices + 1,) + batch)
        for j, (parents, kids, prev) in reversed(list(enumerate(t.sibling_slots, start=1))):
            rows = self.first_row[parents] + (j - 1)
            w = c.take(rows, axis=0)
            suffix = acc.take(kids, axis=0)  # the positive values of rows j + 1, ... of each parent
            _put_rows(acc, prev, suffix + w * self.pos_val[rows][along])
            _put_rows(acc, kids, suffix + w * self.neg_val[rows][along])
        t.path_sums(acc)
        return np.ascontiguousarray(np.moveaxis(acc.take(t.leaf_order, axis=0), 0, -1))

    def wavelet_leaf_matrix(self) -> np.ndarray:
        """Dense (n_wavelets, n_leaves) matrix of wavelet values, leaf_order indexing."""
        t = self.tree
        check_dense(t.n_leaves, "wavelet matrix")
        c = t.child_ids[t.child_first[self.vertex] + self.index]  # where row r is negative
        W = np.zeros((len(self), t.n_leaves))
        for r, (start, mid, end, a, b) in enumerate(zip(
                t.lo[self.vertex].tolist(), t.lo[c].tolist(), t.hi[c].tolist(),
                self.pos_val.tolist(), self.neg_val.tolist())):
            W[r, start:mid] = a
            W[r, mid:end] = b
        return W

    def full_leaf_matrix(self) -> np.ndarray:
        """Wavelet matrix with the constant-mode row appended."""
        W = self.wavelet_leaf_matrix()
        const = np.full((1, self.tree.n_leaves), self.constant_value)
        return np.vstack([W, const])


def _put_rows(a, at, values) -> None:
    """a[at] = values along the first axis of a C-ordered a; each row of a batch moves as one item.

    numpy copies a whole row per index far faster as one opaque item than as
    a subarray of floats.
    """
    if a.ndim > 1 and a.size:
        item = np.dtype((np.void, a[0].nbytes))
        a = a.reshape(len(a), -1).view(item).reshape(len(a))
        values = values.reshape(at.shape + (-1,)).view(item).reshape(at.shape)
    a[at] = values


def _surely_pass(j: int, a, b, s, nu) -> np.ndarray:
    """Which wavelets of index j pass both construction checks for sure.

    The checks take exact sums of the rounded per-child terms a nu_i (i < j),
    b nu_j and their squares.  The closed forms a s + b nu, |a| s + |b| nu and
    a^2 s + b^2 nu differ from those sums by at most j + 2 roundings of 2^-53
    of the scale (underflowed terms add under 1e-320 each).  A wavelet within
    a tenth of the tolerance on the closed forms therefore passes the exact
    checks as long as (j + 2) 2^-53 <= 0.9 _BUILD_RTOL, which is what sets
    _SCREEN_MAX_J (8104); the others take them.
    """
    if j > _SCREEN_MAX_J:
        return np.zeros(len(a), dtype=bool)
    scale = np.abs(a) * s + np.abs(b) * nu
    return (np.isfinite(scale) & (scale >= 1e-290)
            & (np.abs(a * s + b * nu) <= 0.1 * _BUILD_RTOL * scale)
            & (np.abs(a * a * s + b * b * nu - 1.0) <= 0.1 * _BUILD_RTOL))


def build_basis(tree: BallTree) -> WaveletBasis:
    return WaveletBasis(tree)


def evaluate(basis: WaveletBasis, k: int, x: int) -> float:
    """Value of wavelet row k at leaf x; 0 outside the ball of its vertex."""
    t = basis.tree
    t._check_leaf(x)
    lo = t.lo.item
    I = basis.vertex.item(k)
    c = t.child_ids.item(t.child_first.item(I) + basis.index.item(k))
    i = lo(x)
    if not lo(I) <= i < t.hi.item(c):
        return 0.0
    return basis.pos_val.item(k) if i < lo(c) else basis.neg_val.item(k)


def gram_matrix(basis: WaveletBasis) -> np.ndarray:
    """Pairwise weighted inner products of the full basis (identity if orthonormal)."""
    E = basis.full_leaf_matrix()
    return (E * basis.tree.leaf_measures) @ E.T


def projector_sum_check(tree: BallTree, I: int, x: int, y: int,
                        basis: WaveletBasis | None = None) -> float:
    """Sum over j of psi_{Ij}(x) psi_{Ij}(y), checked against the projector identity.

    The sum equals 1/measure(c) when x and y fall in the same child c of I,
    minus 1/measure(I) when both lie in the ball I, and 0 otherwise.
    """
    if basis is None:
        basis = build_basis(tree)
    t = basis.tree
    k0 = basis.first_row.item(I)
    lhs = math.fsum(evaluate(basis, k, x) * evaluate(basis, k, y)
                    for k in range(k0, k0 + t.child_count.item(I) - 1))
    rhs = 0.0
    if t.is_ancestor_or_equal(I, x) and t.is_ancestor_or_equal(I, y):
        rhs -= 1.0 / t.measure.item(I)
        cx = t.child_toward(I, x)
        if t.is_ancestor_or_equal(cx, y):
            rhs += 1.0 / t.measure.item(cx)
    if abs(lhs - rhs) > _CHECK_TOL * max(1.0, abs(rhs)):
        raise ArithmeticError(
            f"projector identity failed at vertex {t.names[I]!r}: {lhs} vs {rhs}")
    return lhs
