import json
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import umfield as um
from umfield import cli

from conftest import (FIXTURES, T2_PATH, broom, caterpillar, chains, children_of, from_children,
                      generate_random, leaf_vec, random_symbol, random_trees, slot_levels_reference,
                      split_trees, star)


def _positive_setup(t, seed):
    s = random_symbol(t, seed, 0.2, 2.0)
    sp = um.spectrum(t, s)
    basis = um.build_basis(t)
    return s, sp, basis


def test_kernel_values_t2(t2, t2_spectrum, t2_ids):
    i = t2_ids
    assert um.kernel_value(t2, t2_spectrum, i["A"]) == pytest.approx(1 / 9, abs=1e-12)
    assert um.kernel_value(t2, t2_spectrum, i["R"]) == pytest.approx(-1.0, abs=1e-12)
    assert um.kernel_value(t2, t2_spectrum, i["a1"]) == pytest.approx(17 / 9, abs=1e-12)


def test_kernel_bruteforce_t2(t2, t2_spectrum, t2_basis, t2_ids):
    i = t2_ids
    bf = um.kernel_bruteforce
    assert bf(t2, t2_spectrum, t2_basis, i["a1"], i["a2"]) == pytest.approx(1 / 9, abs=1e-12)
    assert bf(t2, t2_spectrum, t2_basis, i["a1"], i["b1"]) == pytest.approx(-1.0, abs=1e-12)
    assert bf(t2, t2_spectrum, t2_basis, i["a1"], i["a1"]) == pytest.approx(17 / 9, abs=1e-12)


def test_kernel_oracle_equivalence_random():
    for seed, t in enumerate(random_trees(range(8))):
        s, sp, basis = _positive_setup(t, seed)
        kern = um.covariance_kernel(t, sp)
        scale = max(1.0, kern.max_abs())
        for x in t.leaf_order:
            for y in t.leaf_order:
                bf = um.kernel_bruteforce(t, sp, basis, x, y)
                assert abs(kern.values[t.sup(x, y)] - bf) <= 1e-10 * scale


def test_kernel_bruteforce_is_the_sum_over_all_rows():
    # the rows off the sup's ancestor path add exact zeros, so leaving them out changes nothing
    for seed, t in enumerate(random_trees(range(6))):
        sp = um.spectrum(t, random_symbol(t, seed, 1e-3, 1e3))
        basis = um.build_basis(t)
        inv_sq = [lam ** -2 for lam in sp[basis.vertex].tolist()]
        for x in t.leaf_order:
            for y in t.leaf_order:
                full = math.fsum(inv_sq[k] * um.evaluate(basis, k, x) * um.evaluate(basis, k, y)
                                 for k in range(len(basis)))
                assert um.kernel_bruteforce(t, sp, basis, x, y) == full


def _assert_kernel_is_path_sum(t, sp):
    """covariance_kernel equals the per-vertex path sum bit for bit, or both raise."""
    try:
        ref = tuple(um.kernel_value(t, sp, S) for S in range(t.n_vertices))
    except um.ZeroEigenvalue:
        with pytest.raises(um.ZeroEigenvalue):
            um.covariance_kernel(t, sp)
        return False
    assert um.covariance_kernel(t, sp).values.tolist() == list(ref)
    return True


def _log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


@settings(deadline=None, max_examples=200)
@given(t=split_trees(measure=_log_uniform(-150, 150), symbol=_log_uniform(-3, 3)))
def test_covariance_kernel_is_path_sum_random(t):
    _assert_kernel_is_path_sum(t, um.spectrum(t, um.symbol_from_tree(t)))


def test_covariance_kernel_is_path_sum_deep_caterpillar():
    t = caterpillar(3000, np.random.default_rng(31))
    assert _assert_kernel_is_path_sum(t, um.spectrum(t, um.symbol_from_tree(t)))


def test_covariance_kernel_is_path_sum_wide_star():
    t = star(300, np.random.default_rng(32))
    assert _assert_kernel_is_path_sum(t, um.spectrum(t, um.symbol_from_tree(t)))


@settings(deadline=None, max_examples=200)
@given(t=split_trees(measure=_log_uniform(-300, 300), symbol=_log_uniform(-50, 50)))
def test_covariance_kernel_is_path_sum_extreme(t):
    # values this wide overflow, or leave the double-double screen undecided,
    # so covariance_kernel hands vertices to kernel_value
    try:
        sp = um.spectrum(t, um.symbol_from_tree(t))
    except um.OutOfRange:
        assume(False)
    _assert_kernel_is_path_sum(t, sp)


_dd_part = st.floats(-1e300, 1e300).flatmap(
    lambda x: st.sampled_from([x, x * 2.0 ** -60, x * 2.0 ** -107, 0.0]))


@settings(max_examples=500)
@given(parts=st.lists(_dd_part, min_size=4, max_size=4))
def test_dd_add_bounds_what_it_drops(parts):
    a_hi, a_lo, b_hi, b_lo = map(np.float64, parts)
    hi, lo, err = (np.array([x]) for x in (a_hi, a_lo, 0.0))
    um.ddsum.dd_add(hi, lo, err, np.array([b_hi]), np.array([b_lo]), 0.0,
                    [np.empty(1) for _ in range(4)])
    hi, lo, err = hi[0], lo[0], err[0]
    exact = sum(map(Fraction, parts))
    assert hi + lo == hi
    assert abs(exact - Fraction(hi) - Fraction(lo)) <= 2 * err  # err is itself rounded
    assert err or exact == Fraction(hi) + Fraction(lo)


# prefix sums of these pass through rounding ties and through terms near 1e±300
_prefix_term = st.one_of(_dd_part, st.sampled_from(
    [1.0, -1.0, 2.0 ** -53, 2.0 ** -106, 3 * 2.0 ** -54, 1.0 + 2.0 ** -52, 1e-300, 5e-324]))


def _assert_path_sums_bound(hi, lo, err, paths):
    """Along each path of terms: hi + lo == hi, |X - hi - lo| <= 2 err for the exact sum X,
    and every value the screen keeps is fsum of the path's terms."""
    keep = um.ddsum.screen(hi, lo, err).tolist()
    for h, l, e, k, terms in zip(hi.tolist(), lo.tolist(), err.tolist(), keep, paths):
        exact = sum(map(Fraction, terms))
        assert h + l == h
        assert abs(exact - Fraction(h) - Fraction(l)) <= 2 * e  # err is itself rounded
        assert e or exact == Fraction(h) + Fraction(l)
        if k:
            assert h == math.fsum(terms)


def _cumsum(a):
    """The prefix pass of a chain: running sums along a, its last cell the scratch cell."""
    np.cumsum(a[:-1], out=a[:-1])


@settings(max_examples=500)
@given(terms=st.lists(_prefix_term, min_size=1, max_size=40))
def test_dd_path_sums_bounds_what_it_drops(terms):
    # along one array, a chain: each element's predecessor is the one before it
    n = len(terms)
    x = np.array(terms + [0.0])
    pred = np.arange(-1, n - 1)
    hi, lo, err = np.empty((3, n + 1))
    um.ddsum.dd_path_sums(x, pred, _cumsum, hi, lo, err, np.empty((2, n + 1)))
    in_place = x.copy()  # x may be hi
    um.ddsum.dd_path_sums(in_place, pred, _cumsum, in_place, np.empty(n + 1), np.empty(n + 1),
                          np.empty((2, n + 1)))
    assert in_place[:n].tolist() == hi[:n].tolist()
    _assert_path_sums_bound(hi[:n], lo[:n], err[:n], [terms[:i + 1] for i in range(n)])


@settings(deadline=None, max_examples=200)
@given(t=split_trees(), data=st.data())
def test_dd_path_sums_bounds_what_it_drops_on_trees(t, data):
    # along every root path of a tree, taken by its root-to-leaf pass
    n = t.n_vertices
    terms = data.draw(st.lists(_prefix_term, min_size=n, max_size=n))
    hi, lo, err = np.empty((3, n + 1))
    um.ddsum.dd_path_sums(np.array(terms + [0.0]), t.parent, t.path_sums, hi, lo, err,
                          np.empty((2, n + 1)))
    parent = t.parent.tolist()
    paths = [[]] * n
    for v in t.preorder.tolist():  # a parent's path before its children's
        paths[v] = (paths[parent[v]] if v != t.root else []) + [terms[v]]
    _assert_path_sums_bound(hi[:n], lo[:n], err[:n], paths)


def _count_fallbacks(monkeypatch):
    """The vertices covariance_kernel hands to kernel_value, in call order."""
    calls = []
    path_sum = um.field.kernel_value

    def counted(t, sp, S):
        calls.append(S)
        return path_sum(t, sp, S)

    monkeypatch.setattr(um.field, "kernel_value", counted)
    return calls


@pytest.mark.parametrize("p, depth", [(2, 10), (3, 6)])
def test_covariance_kernel_decides_ties_homogeneous(p, depth, monkeypatch):
    # equal measures make many path sums exact half-ulp ties, decided by the zero bound
    t = um.generate_homogeneous(p, depth, 1.0)
    calls = _count_fallbacks(monkeypatch)
    assert _assert_kernel_is_path_sum(t, um.spectrum(t, um.constant_symbol(t, 1.0)))
    assert calls == []


def _count_passes(t, monkeypatch):
    """The calls of t's root-to-leaf pass ``path_sums``, each by the length of its array."""
    calls = []
    path_sums = t.path_sums

    def counted(x):
        calls.append(len(x))
        return path_sums(x)

    monkeypatch.setattr(t, "path_sums", counted)
    return calls


@pytest.mark.parametrize("depth", [255, 256, 257, 1024])
def test_covariance_kernel_round_count_caterpillar(depth, monkeypatch):
    # the interior vertices are one path: three cumulative sums along it, no level schedule
    t = caterpillar(depth, np.random.default_rng(depth))
    sp = um.spectrum(t, um.symbol_from_tree(t))
    calls = _count_fallbacks(monkeypatch)
    passes = _count_passes(t, monkeypatch)
    assert _assert_kernel_is_path_sum(t, sp)
    assert calls == []
    assert passes == [t.n_vertices + 1] * 3
    assert "child_runs" not in vars(t)


@pytest.mark.parametrize("depth", [255, 256, 257, 1024])
def test_covariance_kernel_round_count_branched_caterpillar(depth, monkeypatch):
    # one interior side branch: the same three passes, each a walk down the level schedule
    t = caterpillar(depth, np.random.default_rng(depth), branch=True)
    sp = um.spectrum(t, um.symbol_from_tree(t))
    calls = _count_fallbacks(monkeypatch)
    passes = _count_passes(t, monkeypatch)
    assert _assert_kernel_is_path_sum(t, sp)
    assert calls == []
    assert passes == [t.n_vertices + 1] * 3
    assert not t.is_chain


@settings(deadline=None, max_examples=100)
@given(t=chains())
def test_covariance_kernel_is_path_sum_chain(t):
    assert t.is_chain  # the measures and the root-to-leaf passes take one cumulative sum
    try:
        sp = um.spectrum(t, um.symbol_from_tree(t))
    except um.OutOfRange:
        assume(False)
    _assert_kernel_is_path_sum(t, sp)


def test_chain_builds_no_child_runs():
    # the measures, the spectrum, the kernel and the Markov check's subtree sums of a chain of
    # balls are cumulative sums along it: the level schedule, one numpy step per level on this
    # tree, is never built
    t = caterpillar(1250, np.random.default_rng(1250))
    kern = um.covariance_kernel(t, um.spectrum(t, um.symbol_from_tree(t)))
    assert um.markov_check(t, kern, np.random.default_rng(0), 5)[0] == 5
    assert t.is_chain
    assert "child_runs" not in vars(t)


def test_covariance_kernel_chain_overflowing_inverse_square_names_vertex():
    # lambda^-2 overflows at the root alone, so lambda^-2 takes the per-vertex map, and
    # covariance_kernel raises what kernel_value raises at the root's leaf: it names the root
    t = caterpillar(50, np.random.default_rng(50))
    T = t.symbol_hint.copy()
    T[t.root] = 1e-200
    sp = um.spectrum(t, um.Symbol(T))
    leaf = next(c for c in children_of(t)[t.root] if t.is_leaf(c))
    with pytest.raises(um.ZeroEigenvalue) as ref:
        um.kernel_value(t, sp, leaf)
    with pytest.raises(um.ZeroEigenvalue) as e:
        um.covariance_kernel(t, sp)
    assert str(e.value) == str(ref.value)
    assert str(e.value).endswith("at vertex 's0' is too small: its inverse square overflows")


@pytest.mark.parametrize("make", [
    lambda: from_children(["x"], [[]], {0: 2.0}),
    lambda: star(300, np.random.default_rng(33), symbol=False),
], ids=["one-vertex", "star"])
def test_covariance_kernel_zero_rounds(make, monkeypatch):
    # no interior vertex below the root: each root path is the root and at most one leaf
    t = make()
    calls = _count_fallbacks(monkeypatch)
    assert _assert_kernel_is_path_sum(t, um.spectrum(t, um.constant_symbol(t, 1.5)))
    assert calls == []


def test_covariance_kernel_falls_back_near_overflow(monkeypatch):
    # lambda_R^-2 = 1e8 over nu(R) = 2e-300: every value is finite but past 2^1022
    doc = {"nodes": [{"id": "R", "children": ["a", "b"], "T": 5e295},
                     {"id": "a", "measure": 1e-300}, {"id": "b", "measure": 1e-300}]}
    t = um.parse_tree(doc)
    calls = _count_fallbacks(monkeypatch)
    assert _assert_kernel_is_path_sum(t, um.spectrum(t, um.symbol_from_tree(t)))
    assert calls == t.preorder.tolist()


def _kernel_error(doc):
    t = um.parse_tree(doc)
    with pytest.raises(um.ZeroEigenvalue) as e:
        um.covariance_kernel(t, um.spectrum(t, um.symbol_from_tree(t)))
    return str(e.value)


def test_covariance_kernel_zero_eigenvalue_names_vertex():
    msg = _kernel_error((FIXTURES / "zero_symbol.json").read_text())
    assert msg == "eigenvalue at vertex 'R' is not positive"


def test_covariance_kernel_tiny_eigenvalue_names_vertex():
    doc = {"nodes": [{"id": "R", "children": ["a", "b"], "T": 1e-200},
                     {"id": "a", "measure": 1.0}, {"id": "b", "measure": 1.0}]}
    assert "at vertex 'R' is too small: its inverse square overflows" in _kernel_error(doc)


def test_covariance_kernel_overflowing_term_names_vertex():
    doc = {"nodes": [{"id": "R", "children": ["A", "x"], "T": 1e-150},
                     {"id": "x", "measure": 1.0},
                     {"id": "A", "children": ["a1", "a2"], "T": 1e-150},
                     {"id": "a1", "measure": 1e-300}, {"id": "a2", "measure": 1e-300}]}
    assert "at vertex 'A' is too small" in _kernel_error(doc)


def test_covariance_kernel_two_bad_eigenvalues_names_one():
    # lambda_A = T(R) nu(e1) = 1e-150 * 1e-300 underflows to 0, and
    # lambda_B = lambda_A + T(A) nu(e2) = 0; B precedes A in document order,
    # A precedes B in preorder
    doc = {"nodes": [{"id": "R", "children": ["A", "e1"], "T": 1e-150},
                     {"id": "B", "children": ["b1", "b2"], "T": 0.0},
                     {"id": "A", "children": ["B", "e2"], "T": 0.0},
                     {"id": "b1", "measure": 0.5}, {"id": "b2", "measure": 0.5},
                     {"id": "e1", "measure": 1e-300}, {"id": "e2", "measure": 1e-300}]}
    assert _kernel_error(doc) in ("eigenvalue at vertex 'A' is not positive",
                                  "eigenvalue at vertex 'B' is not positive")


def test_kernel_sup_dependence():
    t = generate_random(13, 4, 3)
    _, sp, _ = _positive_setup(t, 13)
    seen = {}
    for x in t.leaf_order:
        for y in t.leaf_order:
            if x == y:
                continue
            S = t.sup(x, y)
            v = um.kernel_value(t, sp, S)
            if S in seen:
                assert v == seen[S]  # bitwise equal: K is a function of the vertex
            seen[S] = v


def test_kernel_zero_eigenvalue():
    doc = {"nodes": [{"id": "R", "children": ["a", "b"], "T": 0.0},
                     {"id": "a", "measure": 1.0}, {"id": "b", "measure": 1.0}]}
    t = um.parse_tree(doc)
    sp = um.spectrum(t, um.symbol_from_tree(t))
    with pytest.raises(um.ZeroEigenvalue):
        um.kernel_value(t, sp, t.name_to_id["R"])


def test_kernel_tiny_eigenvalue_names_vertex():
    doc = {"nodes": [{"id": "R", "children": ["a", "b"], "T": 1e-200},
                     {"id": "a", "measure": 1.0}, {"id": "b", "measure": 1.0}]}
    t = um.parse_tree(doc)
    sp = um.spectrum(t, um.symbol_from_tree(t))
    with pytest.raises(um.ZeroEigenvalue, match="'R'"):
        um.kernel_value(t, sp, t.name_to_id["a"])


def test_kernel_overflowing_term_names_vertex():
    # lambda_A^-2 = 1e300 is finite, but its kernel terms over the 1e-300 balls
    # are not: at A the leading -inf meets R's +inf, at a1 A's term is +inf
    doc = {"nodes": [{"id": "R", "children": ["A", "x"], "T": 1e-150},
                     {"id": "x", "measure": 1.0},
                     {"id": "A", "children": ["a1", "a2"], "T": 1e-150},
                     {"id": "a1", "measure": 1e-300}, {"id": "a2", "measure": 1e-300}]}
    t = um.parse_tree(doc)
    sp = um.spectrum(t, um.symbol_from_tree(t))
    for name in ("A", "a1"):
        with pytest.raises(um.ZeroEigenvalue, match="at vertex 'A' is too small"):
            um.kernel_value(t, sp, t.name_to_id[name])
    assert math.isfinite(um.kernel_value(t, sp, t.name_to_id["x"]))


def test_kernel_positive_semidefinite():
    for seed, t in enumerate(random_trees(range(6))):
        _, sp, _ = _positive_setup(t, seed)
        K = um.covariance_kernel(t, sp).leaf_matrix()
        nu = np.sqrt(t.leaf_measures)
        B = nu[:, None] * K * nu[None, :]
        assert np.linalg.eigvalsh((B + B.T) / 2).min() >= -1e-10


def test_sample_field_deterministic(t2, t2_spectrum, t2_basis):
    a = um.sample_field(t2, t2_spectrum, t2_basis, 42)
    b = um.sample_field(t2, t2_spectrum, t2_basis, 42)
    assert np.array_equal(a.values, b.values)
    c = um.sample_field(t2, t2_spectrum, t2_basis, 43)
    assert not np.array_equal(a.values, c.values)


def test_sample_field_zero_weighted_mean(t2, t2_spectrum, t2_basis):
    for seed in range(20):
        sample = um.sample_field(t2, t2_spectrum, t2_basis, seed)
        m = math.fsum(sample.values * t2.leaf_measures)
        assert abs(m) <= 1e-12 * max(1.0, np.abs(sample.values).max())


def test_sample_field_zero_eigenvalue(t2, t2_basis):
    sp = um.spectrum(t2, um.constant_symbol(t2, 0.0))
    with pytest.raises(um.ZeroEigenvalue):
        um.sample_field(t2, sp, t2_basis, 1)


def test_sample_field_variance_monte_carlo(t2, t2_spectrum, t2_basis):
    # Var(psi(a1)) = 17/9; chi-square standard error over N independent seeds
    n = 20000
    rng = np.random.default_rng(1234)
    W = t2_basis.wavelet_leaf_matrix()
    lam = t2_spectrum[t2_basis.vertex]
    D = rng.standard_normal((n, len(lam)))
    psi = (D / lam) @ W
    var = float(np.mean(psi[:, 0] ** 2))
    target = 17 / 9
    se = math.sqrt(2.0 / n) * target
    assert abs(var - target) <= 5 * se


def test_white_noise_isometry(t2, t2_basis):
    n = 100000
    rng = np.random.default_rng(5)
    f = rng.standard_normal(4)
    g = rng.standard_normal(4)
    nu = t2.leaf_measures
    E = t2_basis.full_leaf_matrix()
    D = np.random.default_rng(6).standard_normal((n, E.shape[0]))
    phi = D @ E
    u = phi @ (f * nu)
    v = phi @ (g * nu)
    want = float(np.sum(f * g * nu))
    got = float(np.mean(u * v))
    var_u = float(np.sum(f * f * nu))
    var_v = float(np.sum(g * g * nu))
    se = math.sqrt((var_u * var_v + want ** 2) / n)
    assert abs(got - want) <= 5 * se


def test_check_equation_t2(t2, t2_symbol, t2_spectrum, t2_basis):
    assert um.check_equation(t2, t2_symbol, t2_spectrum, t2_basis, 1)[0] <= 1e-12


def test_check_equation_random():
    t = generate_random(64, 4, 4)
    s, sp, basis = _positive_setup(t, 64)
    assert um.check_equation(t, s, sp, basis, 3)[0] <= 1e-9


def test_check_equation_zero_eigenvalue():
    doc = {"nodes": [{"id": "R", "children": ["a", "b"], "T": 0.0},
                     {"id": "a", "measure": 1.0}, {"id": "b", "measure": 1.0}]}
    t = um.parse_tree(doc)
    s = um.symbol_from_tree(t)
    sp = um.spectrum(t, s)
    basis = um.build_basis(t)
    with pytest.raises(um.ZeroEigenvalue):
        um.check_equation(t, s, sp, basis, 1)


def test_bilinear_form_examples(t2, t2_spectrum, t2_basis, t2_ids):
    kern = um.covariance_kernel(t2, t2_spectrum)
    W = t2_basis.wavelet_leaf_matrix()
    psiA = W[t2_basis.first_row[t2_ids["A"]]]
    psiR = W[t2_basis.first_row[t2_ids["R"]]]
    assert um.bilinear_form(t2, kern, psiA, psiA) == pytest.approx(4 / 9, abs=1e-12)
    assert um.bilinear_form(t2, kern, psiA, psiR) == pytest.approx(0.0, abs=1e-12)


def _assert_bilinear_matches_dense(t, kern, f, g):
    """bilinear_form against the exact sum over all leaf pairs, within 1e-13 of its absolute sum."""
    nu = t.leaf_measures
    products = np.outer(f * nu, g * nu) * kern.leaf_matrix()
    dense = math.fsum(products.ravel())
    scale = math.fsum(np.abs(products).ravel())
    assert abs(um.bilinear_form(t, kern, f, g) - dense) <= 1e-13 * scale


@settings(deadline=None, max_examples=200)
@given(t=split_trees(measure=_log_uniform(-50, 50), symbol=_log_uniform(-3, 3)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_bilinear_form_matches_dense_kernel(t, seed):
    # measures beyond 1e+-50 push the leaf-pair products into the subnormal
    # range, where the dense reference loses its relative precision too
    try:
        kern = um.covariance_kernel(t, um.spectrum(t, um.symbol_from_tree(t)))
    except um.ZeroEigenvalue:
        assume(False)
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(t.n_leaves) * (rng.random(t.n_leaves) < 0.5)
    g = rng.standard_normal(t.n_leaves)
    _assert_bilinear_matches_dense(t, kern, f, g)


def test_bilinear_form_matches_dense_kernel_deep_caterpillar():
    rng = np.random.default_rng(33)
    t = caterpillar(1500, rng)
    kern = um.covariance_kernel(t, um.spectrum(t, um.symbol_from_tree(t)))
    f = rng.standard_normal(t.n_leaves)
    _assert_bilinear_matches_dense(t, kern, f, rng.standard_normal(t.n_leaves))
    _assert_bilinear_matches_dense(t, kern, np.abs(f), np.abs(f))


def test_bilinear_form_matches_dense_kernel_wide_star():
    rng = np.random.default_rng(34)
    t = star(300, rng)
    kern = um.covariance_kernel(t, um.spectrum(t, um.symbol_from_tree(t)))
    f = rng.standard_normal(t.n_leaves) * (rng.random(t.n_leaves) < 0.5)
    _assert_bilinear_matches_dense(t, kern, f, rng.standard_normal(t.n_leaves))


def _bilinear_slot_levels(t, K, f, g):
    """bilinear_form as it walked the (depth, child slot) groups, bottom-up: the reference."""
    F = np.zeros(t.n_vertices)
    G = np.zeros(t.n_vertices)
    leaves = t.leaf_order
    F[leaves] = np.asarray(f, dtype=float) * t.leaf_measures
    G[leaves] = np.asarray(g, dtype=float) * t.leaf_measures
    terms = [K[leaves] * F[leaves] * G[leaves]]
    for below, parents in reversed(slot_levels_reference(t)):
        terms += [K[parents] * F[below] * G[parents], K[parents] * G[below] * F[parents]]
        F[parents] += F[below]
        G[parents] += G[below]
    return math.fsum(np.concatenate(terms))


def _assert_bilinear_bit_equal(t, rng):
    """On a random kernel: dense f and g (every term nonzero), f with signed zeros, and two
    Markov instances, each alone and all as one (B, n_leaves) batch."""
    K = rng.standard_normal(t.n_vertices)
    kern = um.CovarianceKernel(t, K)
    f = rng.standard_normal(t.n_leaves)
    g = rng.standard_normal(t.n_leaves)
    cases = [(f, g), (f * (rng.random(t.n_leaves) < 0.5), g)]
    for _ in range(2):
        I, J, fm, gm = um.random_markov_instance(t, rng)
        um.check_markov_instance(t, I, J, fm, gm)
        cases.append((fm, gm))
    singles = []
    for f, g in cases:
        value = um.bilinear_form(t, kern, f, g)
        assert type(value) is float and value == _bilinear_slot_levels(t, K, f, g)
        singles.append(value)
    F, G = map(np.stack, zip(*cases))
    assert um.bilinear_form(t, kern, F, G).tobytes() == np.array(singles).tobytes()


@settings(deadline=None, max_examples=100)
@given(t=split_trees(), seed=st.integers(0, 2 ** 32 - 1))
def test_bilinear_form_bit_equal_to_slot_levels_random(t, seed):
    _assert_bilinear_bit_equal(t, np.random.default_rng(seed))


def test_bilinear_form_bit_equal_to_slot_levels_extremes():
    rng = np.random.default_rng(35)
    _assert_bilinear_bit_equal(caterpillar(3000, rng, symbol=False), rng)
    _assert_bilinear_bit_equal(star(300, rng, symbol=False), rng)
    _assert_bilinear_bit_equal(um.generate_homogeneous(3, 5, 1.0), rng)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_bilinear_bit_equal(broom(rng), rng)


def test_bilinear_form_allocates_no_leaf_square():
    t = um.generate_homogeneous(2, 9, 1.0)
    kern = um.covariance_kernel(t, um.spectrum(t, um.constant_symbol(t, 1.0)))
    f = np.ones(t.n_leaves)
    tracemalloc.start()
    try:
        um.bilinear_form(t, kern, f, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * t.n_leaves ** 2 / 16


def test_sample_field_allocates_no_leaf_square():
    t = um.generate_homogeneous(2, 12, 1.0)
    sp = um.spectrum(t, um.constant_symbol(t, 1.0))
    basis = um.build_basis(t)
    tracemalloc.start()
    try:
        um.sample_field(t, sp, basis, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * t.n_leaves ** 2 / 16


def test_bilinear_form_nonnegative():
    rng = np.random.default_rng(8)
    for seed, t in enumerate(random_trees(range(5))):
        _, sp, _ = _positive_setup(t, seed)
        kern = um.covariance_kernel(t, sp)
        f = rng.standard_normal(t.n_leaves)
        assert um.bilinear_form(t, kern, f, f) >= -1e-10


def test_markov_check_examples(t2, t2_spectrum, t2_ids):
    i = t2_ids
    kern = um.covariance_kernel(t2, t2_spectrum)
    f = leaf_vec(t2, a1=1.0, a2=-1.0)
    g = leaf_vec(t2, b1=1.0)
    um.check_markov_instance(t2, i["A"], i["B"], f, g)
    assert um.bilinear_form(t2, kern, f, g) == pytest.approx(0.0, abs=1e-12)

    # without a zero mean the disjoint balls still correlate
    f2 = leaf_vec(t2, a1=1.0)
    um.check_markov_instance(t2, i["A"], i["B"], f2, g)
    assert um.bilinear_form(t2, kern, f2, g) == pytest.approx(-1 / 16, abs=1e-12)


def test_markov_check_rejects_overlap(t2, t2_ids):
    f = leaf_vec(t2, a1=1.0, a2=-1.0)
    with pytest.raises(um.PreconditionViolated, match="are not disjoint"):
        um.check_markov_instance(t2, t2_ids["R"], t2_ids["A"], f, f)


def test_markov_check_rejects_bad_support(t2, t2_ids):
    f = leaf_vec(t2, a1=1.0, b1=-1.0)
    g = leaf_vec(t2, b1=1.0)
    with pytest.raises(um.PreconditionViolated, match="f is not supported in ball 'A'"):
        um.check_markov_instance(t2, t2_ids["A"], t2_ids["B"], f, g)


def test_markov_random_instances():
    # the compliant pairs cancel to a rounding residue, not to a skipped sum
    rng = np.random.default_rng(99)
    values = []
    for seed, t in enumerate(random_trees(range(10))):
        _, sp, _ = _positive_setup(t, seed)
        kern = um.covariance_kernel(t, sp)
        for _ in range(20):
            inst = um.random_markov_instance(t, rng)
            if inst is None:
                continue
            um.check_markov_instance(t, *inst)
            _, _, f, g = inst
            value = um.bilinear_form(t, kern, f, g)
            scale = max(1.0, float(np.abs(f).max() * np.abs(g).max())
                        * kern.max_abs() * t.total_measure ** 2)
            assert abs(value) <= 1e-12 * scale
            values.append(value)
    assert any(v != 0.0 for v in values)


def test_random_markov_instance_f_has_zero_mean():
    rng = np.random.default_rng(98)
    for t in random_trees(range(10)):
        nu = t.leaf_measures
        for _ in range(20):
            _, _, f, _ = um.random_markov_instance(t, rng)
            fnu = f * nu
            assert (abs(math.fsum(fnu)) <= 1e-12 * math.fsum(np.abs(fnu))
                    or not np.any(f))


@pytest.mark.parametrize("seed", [0, 1, 7, 11])
def test_markov_check_is_verify_markov(capsys, t2, t2_spectrum, seed):
    # the library check returns the trial count and the scaled value that the command reports
    gen = um.generate_homogeneous(3, 4, 1.0)
    for argv, t, sp in (([str(T2_PATH)], t2, t2_spectrum),
                        (["--gen", "3:4:1"], gen, um.spectrum(gen, um.constant_symbol(gen, 1.0)))):
        assert cli.main(["verify", "markov", *argv, "--trials", "37", "--seed", str(seed)]) == 0
        report = json.loads(capsys.readouterr().out)
        got = um.markov_check(t, um.covariance_kernel(t, sp), np.random.default_rng(seed), 37)
        assert got == (report["trials"], report["max_scaled_value"])


def test_markov_check_one_leaf():
    t = um.parse_tree({"nodes": [{"id": "x", "measure": 2.0}]})
    kern = um.covariance_kernel(t, um.spectrum(t, um.constant_symbol(t, 1.0)))
    assert um.markov_check(t, kern, np.random.default_rng(0), 5) == (0, 0.0)


def test_markov_monte_carlo(t2, t2_spectrum, t2_basis, t2_ids):
    # empirical covariance of the two ball functionals over 1e5 samples
    n = 100000
    f = leaf_vec(t2, a1=1.0, a2=-1.0)
    g = leaf_vec(t2, b1=1.0)
    nu = t2.leaf_measures
    lam = t2_spectrum[t2_basis.vertex]
    W = t2_basis.wavelet_leaf_matrix()
    D = np.random.default_rng(0).standard_normal((n, len(lam)))
    psi = (D / lam) @ W
    u = psi @ (f * nu)
    v = psi @ (g * nu)
    got = float(np.mean(u * v))
    kern = um.covariance_kernel(t2, t2_spectrum)
    var_u = um.bilinear_form(t2, kern, f, f)
    var_v = um.bilinear_form(t2, kern, g, g)
    se = math.sqrt(var_u * var_v / n)
    assert abs(got) <= 5 * se


def test_empirical_covariance_t2(t2, t2_spectrum, t2_basis):
    res = um.empirical_covariance(t2, t2_spectrum, t2_basis, 50000, 7)
    assert np.all(np.abs(res.matrix - res.analytic) <= 5 * res.standard_error)
    again = um.empirical_covariance(t2, t2_spectrum, t2_basis, 50000, 7)
    assert np.array_equal(res.matrix, again.matrix)


def test_empirical_covariance_rank_one(t2, t2_spectrum, t2_basis):
    res = um.empirical_covariance(t2, t2_spectrum, t2_basis, 2, 1)
    assert np.linalg.matrix_rank(res.matrix) <= 2
    with pytest.raises(ValueError):
        um.empirical_covariance(t2, t2_spectrum, t2_basis, 1, 1)


def test_field_law_scalar_projection(t2, t2_spectrum, t2_basis):
    # <psi, f> should be mean zero with variance = bilinear_form(f, f)
    n = 100000
    rng = np.random.default_rng(3)
    f = rng.standard_normal(4)
    nu = t2.leaf_measures
    lam = t2_spectrum[t2_basis.vertex]
    W = t2_basis.wavelet_leaf_matrix()
    D = np.random.default_rng(4).standard_normal((n, len(lam)))
    u = ((D / lam) @ W) @ (f * nu)
    kern = um.covariance_kernel(t2, t2_spectrum)
    var = um.bilinear_form(t2, kern, f, f)
    assert abs(float(np.mean(u))) <= 5 * math.sqrt(var / n)
    assert abs(float(np.mean(u * u)) - var) <= 5 * math.sqrt(2.0 / n) * var
