"""Sup-type pseudodifferential operators on ball-trees.

The operator acts on leaf functions as

    (Tf)(x) = sum_y T(sup(x, y)) (f(x) - f(y)) measure(y)

where the symbol T is a nonnegative function on interior vertices.  The
operator is diagonal on the tree wavelets; the eigenvalue attached to vertex
I is the path sum

    lambda_I = T(I) nu(I) + sum over strict ancestors J of
               T(J) (nu(J) - nu(child of J toward I))

computed here in O(n) as lambda_I = A(I) + T(I) nu(I), with the outer sum A
carried down the tree:

    A(root) = 0,   A(child) = A(parent) + T(parent) sigma(child),

where sigma(child) = nu(parent) - nu(child) is taken as the sum of the
child's siblings' measures.  Every term is nonnegative, so no sibling mass is
lost to cancellation against the parent's measure.  Two of the tree's three
passes take it: the sibling scan (``BallTree.earlier_sums`` and
``later_sums``) gives sigma, and the root-to-leaf ``BallTree.path_sums``
carries A down every root path; the bottom-up ``subtree_sums`` is not needed.

A ``Symbol`` is one checked, read-only array over all vertices, 0 on the
leaves, as ``parse_tree`` reads it from the tree document
(``BallTree.symbol_hint``); the eigenvalues are a plain array over all
vertices.  The dense O(n^2) application is kept as the reference oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tree import BallTree, OutOfRange
from .wavelets import WaveletBasis


class DimensionMismatch(ValueError):
    pass


class Symbol:
    """The symbol T: one value per vertex, indexed by vertex id, 0 on the leaves.

    ``values`` is a read-only copy of the array it is given, checked to be
    nonnegative and finite; an error names the first vertex that is not.
    """

    def __init__(self, values):
        T = np.array(values, dtype=float)
        ok = (T >= 0.0) & (T < math.inf)
        if not ok.all():
            v = int(np.argmin(ok))  # the first culprit
            raise ValueError(f"symbol value at vertex {v} must be nonnegative, got {T.item(v)}")
        T.flags.writeable = False
        self.values = T


def symbol_from_tree(t: BallTree) -> Symbol:
    """Symbol read off the "T" entries of the tree document (``BallTree.symbol_hint``).

    An interior vertex without "T" is NaN there; the error names every such vertex.
    """
    T = t.symbol_hint
    if T is None:
        raise ValueError("tree document carries no symbol values")
    missing = np.flatnonzero(np.isnan(T)).tolist()
    if missing:
        raise ValueError(f"symbol missing on interior vertices {[t.names[v] for v in missing]}")
    return Symbol(T)


def constant_symbol(t: BallTree, c: float) -> Symbol:
    return Symbol(np.where(t.child_count > 0, c, 0.0))


def apply_dense(t: BallTree, s: Symbol, f) -> np.ndarray:
    """O(n^2) reference application of the operator to a leaf-value vector."""
    f = np.asarray(f, dtype=float)
    if f.shape != (t.n_leaves,):
        raise DimensionMismatch(f"expected vector of length {t.n_leaves}, got shape {f.shape}")
    TS = s.values[t.sup_index_matrix()]  # T(sup(x, y)); 0 on the diagonal, where sup is a leaf
    nu = t.leaf_measures
    return f * (TS @ nu) - TS @ (f * nu)


def dense_operator_matrix(t: BallTree, s: Symbol) -> np.ndarray:
    """Matrix M with (Tf) = M f in the standard leaf basis."""
    TS = s.values[t.sup_index_matrix()]
    nu = t.leaf_measures
    return np.diag(TS @ nu) - TS * nu


def spectrum(t: BallTree, s: Symbol) -> np.ndarray:
    """Eigenvalues lambda as an array over all vertices, 0 on leaves.

    Each non-root vertex c with parent p gets its term fl(T(p) sigma(c)),
    sigma = earlier + later, the summed measures of c's earlier and later
    siblings, and ``BallTree.path_sums`` carries the outer sums A down from
    A(root) = 0, each the single rounding fl(A(p) + fl(T(p) sigma(c))); A is
    then set to 0 on the leaves.  A symbol of another length than the tree's
    vertex count raises DimensionMismatch, one with a nonzero leaf entry
    ValueError naming the first such leaf.
    """
    T = s.values
    n = t.n_vertices
    if T.shape != (n,):
        raise DimensionMismatch(f"expected a symbol of length {n}, got shape {T.shape}")
    on_leaf = (T != 0.0) & (t.child_count == 0)
    if on_leaf.any():
        v = int(np.argmax(on_leaf))
        raise ValueError(f"symbol value at leaf {t.names[v]!r} must be 0, got {T.item(v)}")
    earlier, later = t.earlier_sums(t.measure), t.later_sums(t.measure)
    A = np.zeros(n + 1)  # the last cell is the scratch cell of path_sums
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
        np.add(earlier, later, out=A[:n])  # sigma, 0 at the root
        A[:n] *= T[t.parent]  # the root's parent is -1: T there multiplies the root's sigma, 0
        t.path_sums(A)
        A[t.leaf_order] = 0.0
        lam = A[:n] + T * t.measure
    bad = ~np.isfinite(lam[t.interior])
    if bad.any():
        I = t.interior.item(np.argmax(bad))  # the first in preorder
        raise OutOfRange(f"eigenvalue at vertex {t.names[I]!r} overflows: "
                         f"T = {T.item(I)!r}, measure = {t.measure.item(I)!r}")
    return lam


def eigenvalue_path_sum(t: BallTree, s: Symbol, I: int) -> float:
    """Direct path-sum form of the eigenvalue; reference for spectrum()."""
    if t.is_leaf(I):
        raise ValueError(f"vertex {t.names[I]!r} is a leaf")
    T, measure, parent = s.values.item, t.measure.item, t.parent.item
    terms = [T(I) * measure(I)]
    J = parent(I)
    below = I
    while J != -1:
        terms.append(T(J) * (measure(J) - measure(below)))
        below = J
        J = parent(J)
    return math.fsum(terms)


def verify_eigen(t: BallTree, s: Symbol, b: WaveletBasis) -> float:
    """Max scaled residual of the eigenrelation over all wavelets plus the constant.

    Residual per wavelet: max|T psi - lambda psi| / max(1, lambda); the
    constant function c must map to (numerically) zero, its residual
    max|T c| divided by max(1, c max(row)), row(x) = sum_y T(sup(x, y)) nu(y)
    the scale of either term of T c.
    """
    lam = spectrum(t, s)[b.vertex]
    TS = s.values[t.sup_index_matrix()]
    nu = t.leaf_measures
    row = TS @ nu
    W = b.wavelet_leaf_matrix()
    TW = W * row - (W * nu) @ TS  # TS symmetric
    resid = np.abs(TW - lam[:, None] * W).max(axis=1) / np.maximum(1.0, lam)
    c = b.constant_value
    const_resid = np.abs(c * row - TS @ (c * nu)).max() / max(1.0, c * row.max())
    return float(max(resid.max(initial=0.0), const_resid))


@dataclass(frozen=True)
class SeriesVerdict:
    converges: bool
    ratio: float                # asymptotic term ratio (inf if terms blow up)
    value: float | None = None  # partial sum + geometric tail, when convergent


@dataclass(frozen=True)
class ConvergenceReport:
    branching: int
    measure_ratio: float
    symbol_ratio: float
    levels_probe: int
    conv1: SeriesVerdict
    conv2: SeriesVerdict


def convergence_report(p: int, measure_ratio: float, symbol_ratio: float,
                       levels_probe: int = 40) -> ConvergenceReport:
    """Convergence diagnostics for the level-homogeneous geometric family.

    Models an infinite tree where, walking upward from a reference vertex at
    level 0 with measure 1 and symbol value 1, the ball measure grows by the
    factor mu = measure_ratio per level and the symbol scales by
    q = symbol_ratio per level.

    conv1 is the eigenvalue series sum_{l>=1} T_l (nu_l - nu_{l-1}); its term
    ratio is q mu, so it converges iff q mu < 1.  conv2 is the covariance
    series sum_{l>=1} lambda_l^{-2} (1/nu_{l-1} - 1/nu_l); when conv1
    converges and q > 0 its term ratio is 1 / (q^2 mu^3).  Values are partial
    sums over levels_probe levels plus the exact geometric tail.
    """
    mu, q = measure_ratio, symbol_ratio
    if p < 2 or not mu > 1.0 or not q >= 0.0 or levels_probe < 2:
        raise OutOfRange(f"need p >= 2, measure_ratio > 1, symbol_ratio >= 0, "
                         f"levels_probe >= 2; got ({p}, {mu}, {q}, {levels_probe})")
    if not (math.isfinite(mu) and math.isfinite(q)):
        raise OutOfRange(f"measure_ratio and symbol_ratio must be finite; got ({mu}, {q})")

    try:  # a power past the float range raises OverflowError, 0.0 ** -2 ZeroDivisionError
        # conv1: terms a_l = q^l mu^(l-1) (mu - 1), l >= 1
        r1 = q * mu
        a = [q ** l * mu ** (l - 1) * (mu - 1.0) for l in range(1, levels_probe + 1)]
        if r1 < 1.0:
            conv1 = SeriesVerdict(True, r1, math.fsum(a) + a[-1] * r1 / (1.0 - r1))
        else:
            conv1 = SeriesVerdict(False, r1)

        if not conv1.converges:
            # eigenvalues do not exist; the covariance series is undefined
            conv2 = SeriesVerdict(False, math.inf)
        elif q == 0.0:
            # symbol vanishes above the reference level, so every lambda_l with
            # l >= 1 is zero and the inverse-square terms are infinite
            conv2 = SeriesVerdict(False, math.inf)
        else:
            # exact eigenvalue at level l: lambda_l = (q mu)^l (1 + (1-1/mu) q mu / (1-q mu))
            c = 1.0 + (1.0 - 1.0 / mu) * r1 / (1.0 - r1)
            b = [(c * r1 ** l) ** -2 * mu ** -l * (mu - 1.0)
                 for l in range(1, levels_probe + 1)]
            r2 = 1.0 / (q * q * mu ** 3)
            if r2 < 1.0:
                conv2 = SeriesVerdict(True, r2, math.fsum(b) + b[-1] * r2 / (1.0 - r2))
            else:
                conv2 = SeriesVerdict(False, r2)
    except (OverflowError, ZeroDivisionError):
        raise OutOfRange(f"a series term over levels_probe = {levels_probe} levels leaves the "
                         f"float range at measure_ratio {mu} and symbol_ratio {q}") from None

    return ConvergenceReport(p, mu, q, levels_probe, conv1, conv2)
