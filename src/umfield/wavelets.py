"""Orthonormal ultrametric wavelet basis on a measured ball-tree.

Each interior vertex I with p children carries p - 1 zero-mean vectors that
are constant on the child balls and supported inside I; together with the
constant mode (total measure is finite here) they form an orthonormal basis
of the leaf-function space under the measure-weighted inner product.

The basis is held as four flat tables with one row per wavelet, each a
closed-form function of the row's child and the summed measure of that
child's earlier siblings, from the tree's sibling scan
``BallTree.earlier_sums``; ``WaveletBasis.synthesize`` takes the scan's
``later_sums`` and the root-to-leaf ``path_sums``, and no tree pass but
those (the bottom-up ``subtree_sums`` is the Markov form's).  The oracles
read the rows: ``evaluate`` in O(1) per value, ``projector_sum_check`` from
``WaveletBasis.first_rows_up``, and the dense wavelet matrix.

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
    ascending within a vertex; the constant mode sits last.  Row k is wavelet
    j = ``index[k]`` of vertex ``vertex[k]``, whose child j (from 0) is
    ``child[k]``.  With s the summed measure of the first j children, nu that
    of child j and alpha = (1/s + 1/nu)^(-1/2), it is ``pos_val[k]`` = alpha/s
    on the first j children and ``neg_val[k]`` = -alpha/nu on child j.  These
    four row tables are all the basis holds.  The rows of vertex I are
    ``first_row[I]`` to ``first_row[I] + p - 2``, p its number of children;
    ``first_row`` and ``index`` are computed on each access, in O(n), and
    ``first_rows_up`` gives the first rows along one root path in O(depth).
    """

    def __init__(self, tree: BallTree):
        t = self.tree = tree
        self.constant_value = 1.0 / math.sqrt(tree.total_measure)
        interior = t.interior
        self.vertex = np.repeat(interior, t.child_count[interior] - 1)
        index = self.index
        child = self.child = t.child_ids[t.child_first[self.vertex] + index]
        s = t.earlier_sums(t.measure)[child]
        nu = t.measure[child]
        with np.errstate(all="ignore"):  # the exact checks judge what overflows here
            alpha = 1.0 / np.sqrt(1.0 / s + 1.0 / nu)
            a = self.pos_val = alpha / s
            b = self.neg_val = -alpha / nu
            sure = _surely_pass(index, a, b, s, nu)
            for k in np.flatnonzero(~sure).tolist():  # canonical order: the first failure is named
                self._check_exactly(k, index.item(k))

    def __len__(self) -> int:
        return len(self.pos_val)

    @property
    def first_row(self) -> np.ndarray:
        """Per vertex, the row of its wavelet 1; 0 on the leaves."""
        t = self.tree
        n_here = t.child_count[t.interior] - 1
        first_row = np.zeros(t.n_vertices, dtype=np.intp)
        first_row[t.interior] = np.cumsum(n_here) - n_here
        return first_row

    def first_rows_up(self, I: int):
        """(J, the row of J's wavelet 1) for I and each of its ancestors J, from I up, in O(depth).

        The rows before J's belong to the interior vertices before it in
        preorder, p - 1 for p children: J's strict ancestors and the subtrees
        of the earlier siblings along its root path, with lo(J) leaves.  So
        the row is lo(J) plus the later siblings of J and of its ancestors.
        """
        t = self.tree
        first, count = t.child_first.item, t.child_count.item
        path = []
        while I != -1:
            path.append(I)
            I = t.parent.item(I)
        later = [count(P) - 1 - t.child_ids[first(P):first(P) + count(P)].tolist().index(J)
                 for J, P in zip(path, path[1:])] + [0]  # the root has no siblings
        rest = sum(later)
        for J, n in zip(path, later):
            yield J, t.lo.item(J) + rest
            rest -= n

    @property
    def index(self) -> np.ndarray:
        """Per row, its wavelet's index j within its vertex, from 1."""
        return np.arange(len(self.vertex)) - self.first_row[self.vertex] + 1

    def _check_exactly(self, k: int, j: int) -> None:
        """Zero mean and unit norm of wavelet k, wavelet j of its vertex, as exact sums over its
        child balls.

        Only the first j + 1 children enter: the coefficients after child j are 0.0 and add
        nothing to the sums.  The per-child terms are numpy products over that slice, the
        same floats as scalar products, summed by fsum.
        """
        t = self.tree
        I = self.vertex.item(k)
        a = t.child_first.item(I)
        nu = t.measure[t.child_ids[a:a + j + 1]]
        c = np.full(j + 1, self.pos_val[k])
        c[j] = self.neg_val[k]
        mean = math.fsum((c * nu).tolist())
        norm = math.fsum((c * c * nu).tolist())
        if abs(mean) > _BUILD_RTOL * math.fsum((np.abs(c) * nu).tolist()):
            raise ArithmeticError(f"wavelet ({t.names[I]}, {j}) not zero-mean: {mean}")
        if abs(norm - 1.0) > _BUILD_RTOL:
            raise ArithmeticError(f"wavelet ({t.names[I]}, {j}) not unit-norm: {norm}")

    def synthesize(self, coeffs) -> np.ndarray:
        """Leaf values sum_k coeffs[..., k] psi_k, in leaf_order indexing.

        ``coeffs`` has shape (..., n_wavelets) in canonical order; the result
        has shape (..., n_leaves).  Costs O(n_vertices) per row.  With w the
        coefficients, w pos_val is scattered onto each row's child, and
        ``BallTree.later_sums`` gives each child the sum over its later
        siblings, the positive values of the wavelets after it; w neg_val is
        added at each row's child, its own value, and ``BallTree.path_sums``
        adds up each vertex's root path.  The sums run with the vertex axis
        first, so a batch moves as one block per index.
        """
        c = np.asarray(coeffs, dtype=float)
        n_w = len(self)
        if c.shape[-1:] != (n_w,):
            raise ValueError(f"expected {n_w} coefficients in the last axis, got shape {c.shape}")
        c = np.moveaxis(c, -1, 0)  # (n_wavelets, ...): a view, and c itself for one row
        along = (slice(None),) + (None,) * (c.ndim - 1)  # a per-wavelet table against the batch
        t = self.tree
        x = np.zeros((t.n_vertices + 1,) + c.shape[1:])
        x[self.child] = c * self.pos_val[along]
        acc = t.later_sums(x)
        del x  # freed before the temporaries below, so that the peak holds one array less
        acc[self.child] = acc.take(self.child, axis=0) + c * self.neg_val[along]
        t.path_sums(acc)
        return np.ascontiguousarray(np.moveaxis(acc.take(t.leaf_order, axis=0), 0, -1))

    def wavelet_leaf_matrix(self) -> np.ndarray:
        """Dense (n_wavelets, n_leaves) matrix of wavelet values, leaf_order indexing."""
        t = self.tree
        check_dense(t.n_leaves, "wavelet matrix")
        W = np.zeros((len(self), t.n_leaves))
        for r, (start, mid, end, a, b) in enumerate(zip(
                t.lo[self.vertex].tolist(), t.lo[self.child].tolist(), t.hi[self.child].tolist(),
                self.pos_val.tolist(), self.neg_val.tolist())):
            W[r, start:mid] = a
            W[r, mid:end] = b
        return W

    def full_leaf_matrix(self) -> np.ndarray:
        """Wavelet matrix with the constant-mode row appended."""
        W = self.wavelet_leaf_matrix()
        const = np.full((1, self.tree.n_leaves), self.constant_value)
        return np.vstack([W, const])


def _surely_pass(j, a, b, s, nu) -> np.ndarray:
    """Which wavelets, of indices j, pass both construction checks for sure.

    The checks take exact sums of the rounded per-child terms a nu_i (i < j),
    b nu_j and their squares.  The closed forms a s + b nu, |a| s + |b| nu and
    a^2 s + b^2 nu differ from those sums by at most j + 2 roundings of 2^-53
    of the scale (underflowed terms add under 1e-320 each).  A wavelet within
    a tenth of the tolerance on the closed forms therefore passes the exact
    checks as long as (j + 2) 2^-53 <= 0.9 _BUILD_RTOL, which is what sets
    _SCREEN_MAX_J (8104); the others take them.
    """
    scale = np.abs(a) * s + np.abs(b) * nu
    return ((j <= _SCREEN_MAX_J) & np.isfinite(scale) & (scale >= 1e-290)
            & (np.abs(a * s + b * nu) <= 0.1 * _BUILD_RTOL * scale)
            & (np.abs(a * a * s + b * b * nu - 1.0) <= 0.1 * _BUILD_RTOL))


def build_basis(tree: BallTree) -> WaveletBasis:
    return WaveletBasis(tree)


def evaluate(basis: WaveletBasis, k: int, x: int) -> float:
    """Value of wavelet row k at leaf x; 0 outside the ball of its vertex."""
    if not 0 <= k < len(basis):
        raise ValueError(f"row {k} is out of range: the basis has {len(basis)} wavelet rows")
    t = basis.tree
    t._check_leaf(x)
    lo = t.lo.item
    I = basis.vertex.item(k)
    c = basis.child.item(k)
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
    if tree.is_leaf(I):
        raise ValueError(f"vertex {tree.names[I]!r} is a leaf: it carries no wavelets")
    if basis is None:
        basis = build_basis(tree)
    t = basis.tree
    k0 = next(basis.first_rows_up(I))[1]
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
