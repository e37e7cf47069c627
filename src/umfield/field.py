"""Gaussian random field obtained by inverting a sup-operator on white noise.

The field is synthesized in wavelet space: independent standard normal
coefficients divided by the eigenvalues, summed back to the leaves by the
O(n) tree synthesis ``WaveletBasis.synthesize`` (no dense wavelet matrix is
built).  Its two-point function depends on a leaf pair only through their
sup vertex and has the closed form

    K(S) = -lambda_S^{-2} / nu(S)
           + sum over strict ancestors I of S of
             lambda_I^{-2} (1/nu(child of I toward S) - 1/nu(I))

with the leading term dropped when S is a leaf (leaves carry no wavelets, so
the variance at a point is the pure ancestor sum).  ``covariance_kernel``
evaluates it for every vertex, an array like the spectrum it reads, as
cascaded prefix sums along every root path, taken by the tree's root-to-leaf
pass ``BallTree.path_sums`` (``ddsum.dd_path_sums``), each the correctly
rounded sum that ``kernel_value`` takes along the ancestors of one vertex.
The direct sum over the wavelet rows, ``kernel_bruteforce``, is the
independent oracle.

Because K depends on a pair only through its sup, every pair sum reduces to
subtree sums.  ``bilinear_form``, the covariance of two tested functions
behind the Markov check, takes them in O(n) from the tree's bottom-up pass
``BallTree.subtree_sums`` and its sibling scan ``BallTree.later_sums``; the
exact sum over all n_leaves^2 pairs is kept only as the reference in the
tests.  It takes a batch of B pairs of functions in the same passes, so
``markov_check`` (``verify markov`` reports it) evaluates its random trials
a chunk at a time, as many as keep a pass near 2^19 cells.

The operator annihilates constants, so the field is fixed to have zero
weighted mean and the constant component of the noise has no preimage; the
stochastic equation is solved on the orthogonal complement of constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ddsum import dd_add, dd_path_sums, screen
from .tree import BallTree, OutOfRange, check_dense
from .wavelets import WaveletBasis
from .pdo import Symbol, apply_dense


class ZeroEigenvalue(ValueError):
    """An eigenvalue needed for inversion is zero, or too small to invert in floating point."""


class PreconditionViolated(ValueError):
    pass


# Markov trials are evaluated B at a time, passes of 2B floats per vertex, B * n_vertices <= this
_MARKOV_CELLS = 2 ** 19


@dataclass(frozen=True, eq=False)
class CovarianceKernel:
    """Kernel value per vertex, an array of length n_vertices; K(x, y) for leaves
    is values[sup(x, y)]."""
    tree: BallTree
    values: np.ndarray

    def leaf_matrix(self) -> np.ndarray:
        """Full n_leaves x n_leaves covariance matrix in leaf_order indexing."""
        return self.values[self.tree.sup_index_matrix()]

    def max_abs(self) -> float:
        return float(np.abs(self.values).max())


@dataclass(frozen=True)
class FieldSample:
    values: np.ndarray          # leaf_order indexing


@dataclass(frozen=True)
class EmpiricalCovariance:
    matrix: np.ndarray
    analytic: np.ndarray
    standard_error: np.ndarray
    max_abs_dev: float
    worst_pair: tuple[str, str]


def _lambda_vector(lam: np.ndarray, basis: WaveletBasis) -> np.ndarray:
    """The eigenvalue of each wavelet, in canonical order, read off the spectrum lam."""
    lam_w = lam[basis.vertex]
    if np.any(lam_w <= 0.0):
        bad = int(basis.vertex[np.argmin(lam_w)])
        raise ZeroEigenvalue(
            f"eigenvalue at vertex {basis.tree.names[bad]!r} is not positive")
    return lam_w


def _field_values(basis: WaveletBasis, lam: np.ndarray, d, what: str) -> np.ndarray:
    """The field of the draws d, each divided by its wavelet's eigenvalue; ZeroEigenvalue, naming
    the smallest eigenvalue and its vertex, if a value overflows, with numpy's warnings silenced."""
    lam_w = _lambda_vector(lam, basis)
    with np.errstate(over="ignore", invalid="ignore"):
        values = basis.synthesize(d / lam_w)
    if np.isfinite(values).all():
        return values
    k = int(np.argmin(lam_w))  # the first in canonical order
    name = basis.tree.names[basis.vertex.item(k)]
    raise ZeroEigenvalue(f"eigenvalue {lam_w.item(k)!r} at vertex {name!r} is too small: "
                         f"{what} overflows")


def kernel_value(t: BallTree, lam: np.ndarray, S: int) -> float:
    """Kernel value at vertex S from its own ancestor walk (leaf S gives the point variance).

    The path-sum reference for ``covariance_kernel``, and the one place that
    names the vertex to blame when a value cannot be computed: the vertex of
    the first term that is not finite, else of the largest term, from the
    (vertex, term) pairs of the walk.
    """
    pairs = []
    I = S
    lam_at, measure, parent = lam.item, t.measure.item, t.parent.item
    try:  # float ** raises OverflowError when lambda_I^-2 leaves the float range
        if not t.is_leaf(S):
            lam_v = lam_at(S)
            if lam_v <= 0.0:
                raise ZeroEigenvalue(f"eigenvalue at vertex {t.names[S]!r} is not positive")
            pairs.append((S, -(lam_v ** -2) / measure(S)))
        below = S
        I = parent(S)
        while I != -1:
            lam_v = lam_at(I)
            if lam_v <= 0.0:
                raise ZeroEigenvalue(f"eigenvalue at vertex {t.names[I]!r} is not positive")
            pairs.append((I, lam_v ** -2 * (1.0 / measure(below) - 1.0 / measure(I))))
            below = I
            I = parent(I)
    except OverflowError:
        raise ZeroEigenvalue(f"eigenvalue {lam_v!r} at vertex {t.names[I]!r} is too small: "
                             "its inverse square overflows") from None
    try:  # an infinite term reaches fsum as inf, or as ValueError for -inf + inf
        k = math.fsum(x for _, x in pairs)
    except (ValueError, OverflowError):
        k = math.nan
    if not math.isfinite(k):
        bad = [v for v, x in pairs if not math.isfinite(x)]
        I = bad[0] if bad else max(pairs, key=lambda vx: abs(vx[1]))[0]
        raise ZeroEigenvalue(f"eigenvalue {lam_at(I)!r} at vertex {t.names[I]!r} is too small: "
                             f"the kernel value at vertex {t.names[S]!r} overflows")
    return k


def _inv_square(lam: float) -> float:
    """lambda^-2 by Python ``pow``, as ``kernel_value`` takes it; nan for lambda <= 0 and inf
    past the float range.  numpy's ``** -2.0`` differs from it in the last bit on some values."""
    try:
        return lam ** -2 if lam > 0.0 else math.nan
    except OverflowError:
        return math.inf


def _inv_squares(lam: np.ndarray) -> np.ndarray:
    """``_inv_square`` of each lambda: one comprehension of ``x ** -2`` when every lambda is
    positive and none overflows, else the per-value map."""
    positive = lam.min() > 0.0  # False with a nan
    lam = lam.tolist()
    if positive:
        try:
            return np.array([x ** -2 for x in lam])
        except OverflowError:
            pass
    return np.array(list(map(_inv_square, lam)))


def covariance_kernel(t: BallTree, lam: np.ndarray) -> CovarianceKernel:
    """Kernel value at every vertex: one cascaded sum along every root path, then each interior
    vertex's own term.

    Each non-root vertex v has the path term lambda_p^-2 (1/nu(v) - 1/nu(p))
    of its parent p, computed as ``kernel_value`` computes it, and the root
    the term 0.  ``ddsum.dd_path_sums`` sums them along every root path,
    leaves included, in three calls of ``BallTree.path_sums``, as
    double-double sums with a bound on what they drop.  Each interior vertex
    then adds its own term -lambda^-2 / nu by ``ddsum.dd_add``.
    The lambda^-2 are one list comprehension of Python's ``x ** -2`` unless
    a lambda is not positive or a square overflows, when ``_inv_square``
    takes them one at a time.

    The reference value, ``kernel_value``, is fsum of the same float terms,
    and ``ddsum.screen`` keeps each value it proves equal to it (the error
    argument is in the ``ddsum`` docstring).  fsum raises on an intermediate
    overflow that the order here may miss, so a value is also taken only if
    the own term is below 2^1022, as the screen asks of the value.  The path
    terms are non-negative, so each prefix sum fsum forms lies between the
    own term and X, each term is below 2^1023, and no sum inside fsum
    reaches 2^1024.  Every other vertex, undecided or not finite, goes to
    ``kernel_value`` in preorder, which gives the same value or names the
    same vertex to blame.
    """
    n, inner, leaves = t.n_vertices, t.interior, t.leaf_order
    if not len(inner):  # a one-vertex tree has the empty path sum
        return CovarianceKernel(t, np.zeros(n))
    m, up = t.measure, t.parent
    inv2 = np.zeros(n)  # lambda^-2 on the interior vertices
    inv2[inner] = _inv_squares(lam[inner])
    hi = np.empty(n + 1)  # the path terms, then their sums; the last cell is path_sums' scratch
    lo, err = np.empty((2, n + 1))
    with np.errstate(invalid="ignore", over="ignore"):  # inf and nan go to kernel_value
        inv_m = 1.0 / m
        np.subtract(inv_m, inv_m[up], out=hi[:n])
        hi[:n] *= inv2[up]
        hi[t.root] = 0.0  # its parent index, -1, read the last vertex
        own = -(inv2[inner] / m[inner])
        del inv2, inv_m
        dd_path_sums(hi, up, t.path_sums, hi, lo, err, np.empty((2, n + 1)))
        values = hi[:n]
        decided = np.empty(n, dtype=bool)
        decided[leaves] = screen(values[leaves], lo[leaves], err[leaves])
        state = hi[inner], lo[inner], err[inner]
        del lo, err
        dd_add(*state, own, 0.0, 0.0, np.empty((4, len(inner))))
        values[inner] = state[0]
        decided[inner] = screen(*state) & (np.abs(own) < 2.0 ** 1022)
    order = t.preorder
    for v in order[~decided[order]].tolist():
        values[v] = kernel_value(t, lam, v)
    return CovarianceKernel(t, values)


def kernel_bruteforce(t: BallTree, lam: np.ndarray, basis: WaveletBasis,
                      x: int, y: int) -> float:
    """Reference oracle: direct sum over the wavelet rows, constant mode excluded.

    A row of vertex I is 0 outside the ball I, so only the rows of sup(x, y)
    and its ancestors can be non-zero at both leaves.  The sum takes those
    rows alone, found along the root path by ``WaveletBasis.first_rows_up``
    in O(depth), each value read off the leaf spans as ``evaluate`` reads it;
    the rows left out add exact zeros, which do not change the fsum.
    """
    lam_w = _lambda_vector(lam, basis)
    S = t.sup(x, y)  # checks that x and y are leaves
    lo, hi, kid = t.lo.item, t.hi.item, t.child_ids.item
    first, count = t.child_first.item, t.child_count.item
    pos, neg, lam_at = basis.pos_val.item, basis.neg_val.item, lam_w.item
    i, j = lo(x), lo(y)
    terms = []
    for I, k in basis.first_rows_up(t.parent.item(S) if t.is_leaf(S) else S):  # a leaf has no rows
        # row k is wavelet j of I: pos_val before child j, neg_val on it
        for c in map(kid, range(first(I) + 1, first(I) + count(I))):
            a, b = pos(k), neg(k)
            ex = a if i < lo(c) else b if i < hi(c) else 0.0
            ey = a if j < lo(c) else b if j < hi(c) else 0.0
            terms.append(lam_at(k) ** -2 * ex * ey)
            k += 1
    return math.fsum(terms)


def sample_field(t: BallTree, lam: np.ndarray, basis: WaveletBasis, seed) -> FieldSample:
    """One field realization; coefficients are drawn in canonical basis order.  A sample that
    overflows raises ZeroEigenvalue."""
    rng = np.random.default_rng(seed)
    return FieldSample(_field_values(basis, lam, rng.standard_normal(len(basis)), "the sample"))


def check_equation(t: BallTree, s: Symbol, lam: np.ndarray, basis: WaveletBasis,
                   seed) -> tuple[float, float]:
    """Residual of the stochastic equation on one coefficient draw, and the scale of the noise.

    Builds the field and the wavelet part of the noise from the same
    coefficients and returns (max|T psi - phi|, max|phi|); the inversion is
    exact on the zero-mean subspace, so the residual is pure floating-point
    error, which grows with phi as nu^(-1/2).  A field that overflows raises
    ZeroEigenvalue.
    """
    rng = np.random.default_rng(seed)
    d = rng.standard_normal(len(basis))
    psi = _field_values(basis, lam, d, "the field")
    phi_w = basis.synthesize(d)
    return float(np.abs(apply_dense(t, s, psi) - phi_w).max()), float(np.abs(phi_w).max())


def bilinear_form(t: BallTree, kernel: CovarianceKernel, f, g) -> float | np.ndarray:
    """Double sum f(x) g(y) K(sup(x, y)) nu(x) nu(y) over all leaf pairs, in O(n_vertices).

    f and g are leaf vectors, or batches of shape (B, n_leaves) taken row by
    row: a batch returns an array of B values, and 1-D input returns a float.
    With F and G the subtree sums of f nu and g nu, the pairs whose sup is S,
    one leaf under a child c of S and one under a later sibling, add K(S)
    (F(c) G(later siblings) + G(c) F(later siblings)); the pair (x, x) adds
    K(x) F(x) G(x).  F and G sit side by side, B columns each, so that the
    tree's passes move a vertex's row as one block, and the cross terms,
    fl(fl(K F(c)) G(later)), are formed in place.  No term exceeds the
    absolute sum over the pairs it stands for, and each row's nonzero terms
    go into one exact fsum, so analytic cancellations (the Markov
    factorization) survive in floating point, and no value depends on the
    other rows of the batch.
    """
    f, g = np.broadcast_arrays(np.asarray(f, dtype=float), np.asarray(g, dtype=float))
    single = f.ndim == 1
    f, g = np.atleast_2d(f, g)
    B = len(f)
    n, leaves, K = t.n_vertices, t.leaf_order, kernel.values
    fg = np.concatenate((f, g)) * t.leaf_measures  # f nu, then g nu
    FG = np.zeros((n + 1, 2 * B))  # the last row is the zero pad of subtree_sums
    FG[leaves] = fg.T
    t.subtree_sums(FG)
    later = t.later_sums(FG)
    # in place, row c becomes its cross terms (K F(c)) G(later) and (K G(c)) F(later)
    cross = FG[:n].reshape(n, 2, B)
    cross *= K[t.parent][:, None, None]
    cross[t.root] = 0.0  # its parent index, -1, read the last vertex
    np.multiply(cross, later[:n].reshape(n, 2, B)[:, ::-1], out=cross)
    del later  # freed before the terms are gathered, so that the peak holds one array less
    # per row, the pairs (x, x) and the cross terms; one fsum each, and a zero term leaves an
    # exact sum as it is
    terms = np.concatenate((K[leaves] * fg[:B] * fg[B:], cross.reshape(-1, B).T), axis=1)
    values = np.array([math.fsum(row[row != 0.0].tolist()) for row in terms])
    return values.item() if single else values


def check_markov_instance(t: BallTree, I: int, J: int, f, g) -> None:
    """Raise PreconditionViolated unless balls I and J are disjoint and f, g are supported in
    them: the conditions under which the Markov property makes ``bilinear_form`` vanish."""
    if t.is_ancestor_or_equal(I, J) or t.is_ancestor_or_equal(J, I):
        raise PreconditionViolated(
            f"balls {t.names[I]!r} and {t.names[J]!r} are not disjoint")
    for name, vec, ball in (("f", f, I), ("g", g, J)):
        lo, hi = t.lo.item(ball), t.hi.item(ball)
        if np.any(vec[:lo] != 0.0) or np.any(vec[hi:] != 0.0):
            raise PreconditionViolated(
                f"{name} is not supported in ball {t.names[ball]!r}")


def markov_check(t: BallTree, kernel: CovarianceKernel, rng, trials: int) -> tuple[int, float]:
    """The Markov check over ``trials`` random instances: (trials run, largest scaled value).

    Each instance comes from ``random_markov_instance`` and is checked by
    ``check_markov_instance`` as it is drawn; its covariance, analytically
    zero, is divided by max(1, max|f| max|g| max|K| nu(X)^2).  The instances
    are drawn in trial order and evaluated a chunk at a time, one
    ``bilinear_form`` call per chunk of ``max(1, _MARKOV_CELLS // n_vertices)``,
    so the values do not depend on the chunk size.  A tree with one leaf has
    no two disjoint balls and runs no trial.
    """
    k_max = kernel.max_abs()
    try:
        m2 = t.total_measure ** 2
    except OverflowError:
        raise OutOfRange(f"total measure {t.total_measure!r} is too large: "
                         "the Markov check's scale, its square, overflows") from None
    if t.n_leaves < 2:
        return 0, 0.0
    chunk = max(1, _MARKOV_CELLS // t.n_vertices)
    worst = 0.0
    for done in range(0, trials, chunk):
        batch = []
        for _ in range(min(chunk, trials - done)):
            batch.append(random_markov_instance(t, rng))
            check_markov_instance(t, *batch[-1])
        _, _, fs, gs = zip(*batch)
        values = bilinear_form(t, kernel, np.stack(fs), np.stack(gs)).tolist()
        for f, g, value in zip(fs, gs, values):
            scale = max(1.0, float(np.abs(f).max() * np.abs(g).max()) * k_max * m2)
            worst = max(worst, abs(value) / scale)
    return max(trials, 0), worst


def empirical_covariance(t: BallTree, lam: np.ndarray, basis: WaveletBasis,
                         n_samples: int, seed) -> EmpiricalCovariance:
    """Monte Carlo covariance matrix vs the analytic kernel.

    Deterministic given seed: all coefficients come from one generator, each
    sample consuming draws in canonical basis order.  Standard errors follow
    the Gaussian product-moment identity Var(uv) = K_uu K_vv + K_uv^2.
    """
    if n_samples < 2:
        raise ValueError(f"need n_samples >= 2, got {n_samples}")
    check_dense(t.n_leaves, "Monte Carlo covariance")
    kernel = covariance_kernel(t, lam)  # before the draws: a too-small eigenvalue fails fast
    rng = np.random.default_rng(seed)
    emp = np.zeros((t.n_leaves, t.n_leaves))
    # draw in batches so huge n_samples does not allocate n x k at once
    batch = max(1, min(n_samples, 2 ** 22 // max(1, len(basis))))
    done = 0
    while done < n_samples:
        m = min(batch, n_samples - done)
        D = rng.standard_normal((m, len(basis)))
        psi = _field_values(basis, lam, D, "a sample")
        emp += psi.T @ psi
        done += m
    emp /= n_samples

    analytic = kernel.leaf_matrix()
    diag = np.diag(analytic)
    se = np.sqrt((np.outer(diag, diag) + analytic ** 2) / n_samples)
    dev = np.abs(emp - analytic)
    i, j = np.unravel_index(int(np.argmax(dev)), dev.shape)
    worst = (t.names[t.leaf_order.item(i)], t.names[t.leaf_order.item(j)])
    return EmpiricalCovariance(emp, analytic, se, float(dev[i, j]), worst)


def random_markov_instance(t: BallTree, rng) -> tuple[int, int, np.ndarray, np.ndarray] | None:
    """Random compliant (I, J, f, g): disjoint balls, f zero-mean in I, g in J.

    Prefers an interior I so the zero-mean function can be nontrivial.
    Returns None when the tree has a single leaf.
    """
    if t.n_leaves < 2:
        return None
    for _ in range(64):
        x, y = rng.choice(t.n_leaves, size=2, replace=False)
        x, y = t.leaf_order.item(x), t.leaf_order.item(y)
        V = t.sup(x, y)
        I = t.child_toward(V, x)
        J = t.child_toward(V, y)
        if not t.is_leaf(I):
            break
        if not t.is_leaf(J):
            I, J = J, I
            break
    nu = t.leaf_measures
    f = np.zeros(t.n_leaves)
    lo, hi = t.lo.item(I), t.hi.item(I)
    f[lo:hi] = rng.standard_normal(hi - lo)
    if hi - lo > 1:
        f[lo:hi] -= math.fsum((f[lo:hi] * nu[lo:hi]).tolist()) / math.fsum(nu[lo:hi].tolist())
    else:
        f[lo:hi] = 0.0  # zero-mean on a single atom forces the zero function
    g = np.zeros(t.n_leaves)
    lo, hi = t.lo.item(J), t.hi.item(J)
    g[lo:hi] = rng.standard_normal(hi - lo)
    return I, J, f, g
