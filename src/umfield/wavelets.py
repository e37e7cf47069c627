"""Orthonormal ultrametric wavelet basis on a measured ball-tree.

Each interior vertex I with p children carries p - 1 zero-mean vectors that
are constant on the child balls and supported inside I; together with the
constant mode (total measure is finite here) they form an orthonormal basis
of the leaf-function space under the measure-weighted inner product.
``WaveletBasis.synthesize`` sums coefficients back to leaf values in O(n);
the dense wavelet matrix is kept as the reference oracle.

The basis inside each vertex is the weighted Helmert construction: wavelet j
is positive on the first j children, negative on child j+1, zero after.  The
individual coefficients depend on the canonical child order, but the rank
p - 1 projector they span does not; everything downstream (spectrum, kernel,
field law) only sees the projector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tree import BallTree

_BUILD_RTOL = 1e-12   # zero-mean / unit-norm check at construction
_CHECK_TOL = 1e-10    # projector identity check


@dataclass(frozen=True)
class Wavelet:
    """One basis vector: per-child coefficients at an interior vertex."""
    vertex: int
    index: int                  # j in 1..p-1
    coeffs: tuple[float, ...]   # value on each child ball, canonical order


class WaveletBasis:
    """All wavelets of a tree plus the constant mode, in canonical order.

    Canonical order: interior vertices in depth-first preorder, then j
    ascending within a vertex; the constant mode sits last.
    """

    def __init__(self, tree: BallTree):
        self.tree = tree
        self.constant_value = 1.0 / math.sqrt(tree.total_measure)
        self.wavelets: list[Wavelet] = []
        self.by_vertex: dict[int, list[Wavelet]] = {}
        # Synthesis tables.  Wavelet j of I (row k0 + j - 1) is alpha/s on the
        # children 0..j-1 of I and -alpha/nu_j on child j.  So child m takes the
        # suffix sum of the positive values from row k0 + m on (pos_row) plus
        # the negative value of row k0 + m - 1 (neg_row); a missing row points
        # at the zero pad, row n_w.
        n_w = tree.n_vertices - 1 - len(tree.interior)  # sum over I of (p_I - 1)
        pos_val, neg_val = [], []
        suffix_rows: list[list[int]] = []   # suffix_rows[j - 2]: rows with index j >= 2
        pos_row = [n_w] * tree.n_vertices
        neg_row = [n_w] * tree.n_vertices
        for I in tree.interior:
            kids = tree.children[I]
            nu = [tree.measure[c] for c in kids]
            k0 = len(self.wavelets)
            pos_row[kids[0]] = k0
            here = []
            s = nu[0]
            for j in range(1, len(kids)):
                alpha = 1.0 / math.sqrt(1.0 / s + 1.0 / nu[j])
                coeffs = [alpha / s] * j + [-alpha / nu[j]] + [0.0] * (len(kids) - 1 - j)
                w = Wavelet(I, j, tuple(coeffs))
                mean = math.fsum(c * m for c, m in zip(coeffs, nu))
                norm = math.fsum(c * c * m for c, m in zip(coeffs, nu))
                if abs(mean) > _BUILD_RTOL * math.fsum(abs(c) * m for c, m in zip(coeffs, nu)):
                    raise ArithmeticError(f"wavelet ({tree.names[I]}, {j}) not zero-mean: {mean}")
                if abs(norm - 1.0) > _BUILD_RTOL:
                    raise ArithmeticError(f"wavelet ({tree.names[I]}, {j}) not unit-norm: {norm}")
                here.append(w)
                k = k0 + j - 1
                pos_val.append(alpha / s)
                neg_val.append(-alpha / nu[j])
                neg_row[kids[j]] = k
                if j + 1 < len(kids):
                    pos_row[kids[j]] = k + 1
                if j >= 2:
                    if j - 2 == len(suffix_rows):
                        suffix_rows.append([])
                    suffix_rows[j - 2].append(k)
                s += nu[j]
            self.by_vertex[I] = here
            self.wavelets.extend(here)
        self._pos_val = np.array(pos_val)
        self._neg_val = np.array(neg_val)
        self._suffix_rows = [np.array(r) for r in reversed(suffix_rows)]
        self._pos_row = np.array(pos_row)
        self._neg_row = np.array(neg_row)
        self._leaf_vertices = np.array(tree.leaf_order)
        self._wavelet_matrix = None

    def __len__(self) -> int:
        return len(self.wavelets)

    def synthesize(self, coeffs) -> np.ndarray:
        """Leaf values sum_k coeffs[..., k] psi_k, in leaf_order indexing.

        ``coeffs`` has shape (..., n_wavelets) in canonical order; the result
        has shape (..., n_leaves).  Costs O(n_vertices) per row: each child
        ball gets its value from per-parent suffix sums over j, and the
        values are then accumulated top-down over ``BallTree.slot_levels``.
        """
        c = np.asarray(coeffs, dtype=float)
        n_w = len(self.wavelets)
        if c.shape[-1:] != (n_w,):
            raise ValueError(f"expected {n_w} coefficients in the last axis, got shape {c.shape}")
        pos = np.zeros(c.shape[:-1] + (n_w + 1,))
        neg = np.zeros(c.shape[:-1] + (n_w + 1,))
        np.multiply(c, self._pos_val, out=pos[..., :n_w])
        np.multiply(c, self._neg_val, out=neg[..., :n_w])
        for rows in self._suffix_rows:  # j descending: row k gathers rows k+1, ... of its vertex
            pos[..., rows - 1] += pos[..., rows]
        acc = pos[..., self._pos_row] + neg[..., self._neg_row]
        for group, parents in self.tree.slot_levels:
            acc[..., group] += acc[..., parents]
        return acc[..., self._leaf_vertices]

    def wavelet_leaf_matrix(self) -> np.ndarray:
        """Dense (n_wavelets, n_leaves) matrix of wavelet values, leaf_order indexing."""
        if self._wavelet_matrix is None:
            t = self.tree
            W = np.zeros((len(self.wavelets), t.n_leaves))
            for r, w in enumerate(self.wavelets):
                for c, child in zip(w.coeffs, t.children[w.vertex]):
                    if c != 0.0:
                        lo, hi = t.leaf_span[child]
                        W[r, lo:hi] = c
            self._wavelet_matrix = W
        return self._wavelet_matrix

    def full_leaf_matrix(self) -> np.ndarray:
        """Wavelet matrix with the constant-mode row appended."""
        W = self.wavelet_leaf_matrix()
        const = np.full((1, self.tree.n_leaves), self.constant_value)
        return np.vstack([W, const])


def build_basis(tree: BallTree) -> WaveletBasis:
    return WaveletBasis(tree)


def evaluate(basis: WaveletBasis, w: Wavelet, x: int) -> float:
    """Value of wavelet w at leaf x; 0 outside the ball of w.vertex."""
    t = basis.tree
    t._check_leaf(x)
    v = x
    while v != w.vertex:
        if v == t.root:
            return 0.0
        prev = v
        v = t.parent[v]
    return w.coeffs[t.child_slot[prev]]


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
    lhs = math.fsum(evaluate(basis, w, x) * evaluate(basis, w, y)
                    for w in basis.by_vertex[I])
    rhs = 0.0
    if t.is_ancestor_or_equal(I, x) and t.is_ancestor_or_equal(I, y):
        rhs -= 1.0 / t.measure[I]
        cx = t.child_toward(I, x)
        if t.is_ancestor_or_equal(cx, y):
            rhs += 1.0 / t.measure[cx]
    if abs(lhs - rhs) > _CHECK_TOL * max(1.0, abs(rhs)):
        raise ArithmeticError(
            f"projector identity failed at vertex {t.names[I]!r}: {lhs} vs {rhs}")
    return lhs
