import json
import math

import numpy as np
import pytest

import umfield as um

from hypothesis import given, settings, strategies as st

from conftest import (T2_PATH, chains, dense_row, generate_random, hung_caterpillars,
                      preorder_spectrum, random_symbol, random_trees, split_trees, wide_stars)


def _sym_eigvals(t, s):
    """Eigenvalues of the operator in the weighted inner product, via eigh."""
    M = um.dense_operator_matrix(t, s)
    r = np.sqrt(t.leaf_measures)
    B = (r[:, None] * M) / r[None, :]
    B = (B + B.T) / 2
    return np.sort(np.linalg.eigvalsh(B))


def _expected_multiset(t, sp):
    vals = [0.0]
    for I in t.interior:
        vals.extend([sp[I]] * (int(t.child_count[I]) - 1))
    return np.sort(np.array(vals))


def test_apply_dense_kills_constants(t2, t2_symbol):
    out = um.apply_dense(t2, t2_symbol, np.ones(4))
    assert np.abs(out).max() <= 1e-12


def test_apply_dense_on_wavelets(t2, t2_symbol, t2_basis, t2_ids):
    wA = t2_basis.first_row[t2_ids["A"]]
    fA = dense_row(t2_basis, wA)
    assert um.apply_dense(t2, t2_symbol, fA) == pytest.approx(1.5 * fA, abs=1e-12)
    wR = t2_basis.first_row[t2_ids["R"]]
    fR = dense_row(t2_basis, wR)
    assert um.apply_dense(t2, t2_symbol, fR) == pytest.approx(1.0 * fR, abs=1e-12)


def test_apply_dense_dimension_mismatch(t2, t2_symbol):
    with pytest.raises(um.DimensionMismatch):
        um.apply_dense(t2, t2_symbol, np.ones(5))


def test_symbol_rejects_negative():
    with pytest.raises(ValueError):
        um.Symbol([-1.0])


@pytest.mark.parametrize("value", [-1.0, math.nan, math.inf, -math.inf])
def test_symbol_names_the_bad_value(value):
    with pytest.raises(ValueError) as e:
        um.Symbol([1.0, 0.0, 0.0, 2.0, 0.0, value, -3.0])
    assert str(e.value) == f"symbol value at vertex 5 must be nonnegative, got {value}"


def test_symbol_is_a_read_only_copy():
    T = np.array([1.0, 0.0, 0.0])
    s = um.Symbol(T)
    T[0] = 2.0
    assert s.values.tolist() == [1.0, 0.0, 0.0] and not s.values.flags.writeable


def test_symbol_from_tree_names_missing_vertices():
    doc = json.loads(T2_PATH.read_text())
    for node in doc["nodes"]:
        if node["id"] in ("A", "B"):
            del node["T"]
    with pytest.raises(ValueError) as e:
        um.symbol_from_tree(um.parse_tree(doc))
    assert str(e.value) == "symbol missing on interior vertices ['A', 'B']"


def test_constant_symbol_is_zero_on_leaves():
    t = um.generate_homogeneous(3, 2, 1.0)
    assert um.constant_symbol(t, 0.5).values.tolist() == [0.5 * (k > 0) for k in t.child_count]
    with pytest.raises(ValueError, match=r"symbol value at vertex 0 must be nonnegative, got -1.0"):
        um.constant_symbol(t, -1.0)


def test_spectrum_t2(t2, t2_symbol, t2_ids):
    sp = um.spectrum(t2, t2_symbol)
    assert sp[t2_ids["R"]] == pytest.approx(1.0, abs=1e-12)
    assert sp[t2_ids["A"]] == pytest.approx(1.5, abs=1e-12)
    assert sp[t2_ids["B"]] == pytest.approx(1.5, abs=1e-12)


def test_spectrum_rejects_symbol_of_wrong_length(t2):
    with pytest.raises(um.DimensionMismatch,
                       match=r"expected a symbol of length 7, got shape \(5,\)"):
        um.spectrum(t2, um.Symbol(np.ones(5)))


def test_spectrum_names_first_leaf_with_nonzero_symbol(t2, t2_ids):
    T = np.zeros(t2.n_vertices)
    T[[t2_ids["R"], t2_ids["A"], t2_ids["B"]]] = 1.0
    T[t2_ids["b2"]] = 0.5
    T[t2_ids["a2"]] = 0.25  # a2 comes first in vertex order
    with pytest.raises(ValueError) as e:
        um.spectrum(t2, um.Symbol(T))
    assert not isinstance(e.value, um.DimensionMismatch)
    assert str(e.value) == "symbol value at leaf 'a2' must be 0, got 0.25"
    with pytest.raises(ValueError, match="at leaf"):
        um.spectrum(t2, um.Symbol(np.ones(t2.n_vertices)))


def test_spectrum_constant_symbol():
    for t in random_trees(range(4)):
        c = 0.7
        sp = um.spectrum(t, um.constant_symbol(t, c))
        for I in t.interior:
            assert sp[I] == pytest.approx(c * t.total_measure, rel=1e-12)


def test_spectrum_matches_path_sum():
    for seed, t in enumerate(random_trees(range(10))):
        s = random_symbol(t, seed)
        sp = um.spectrum(t, s)
        for I in t.interior:
            ref = um.eigenvalue_path_sum(t, s, I)
            assert sp[I] == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_spectrum_recurrence_consistency():
    t = generate_random(9, 4, 3)
    s = random_symbol(t, 9)
    sp = um.spectrum(t, s)
    for I in t.interior:
        if I == t.root:
            continue
        p = t.parent[I]
        assert sp[I] - sp[p] == pytest.approx(
            t.measure[I] * (s.values[I] - s.values[p]), rel=1e-12, abs=1e-15)


@settings(deadline=None, max_examples=40)
@pytest.mark.parametrize("family", [
    wide_stars(),
    split_trees(measure=st.floats(-300, 300).map(lambda e: 10.0 ** e),
                symbol=st.floats(-50, 50).map(lambda e: 10.0 ** e)),
    hung_caterpillars(),
    chains(symbol_exponent=50.0),
], ids=["star", "split-1e300", "hung-caterpillar", "chain"])
@given(data=st.data())
def test_spectrum_is_preorder_recurrence(family, data):
    t = data.draw(family)
    s = um.symbol_from_tree(t)
    ref = preorder_spectrum(t, s)
    if not all(map(math.isfinite, ref)):
        with pytest.raises(um.OutOfRange):
            um.spectrum(t, s)
        return
    assert um.spectrum(t, s).tolist() == ref


def test_spectrum_is_preorder_recurrence_chain_bush_chain():
    # a 40-level caterpillar, a 2^10-leaf binary tree under its last vertex and another
    # 40-level caterpillar under that tree's last leaf: narrow levels, wide ones, narrow again
    children = [[]]

    def split(v):
        children[v] = [len(children), len(children) + 1]
        children.extend([[], []])
        return children[v]

    def chain(v, n):
        for _ in range(n):
            v = split(v)[1]
        return v

    def bush(v, depth):
        level = [v]
        for _ in range(depth):
            level = [c for u in level for c in split(u)]
        return level[-1]

    chain(bush(chain(0, 40), 10), 40)
    n_leaves = sum(not kids for kids in children)
    t = um.BallTree([f"v{v}" for v in range(len(children))], [len(k) for k in children],
                    [c for k in children for c in k],
                    np.random.default_rng(5).uniform(0.1, 1.0, n_leaves))
    s = random_symbol(t, 5, 0.5, 2.0)
    assert um.spectrum(t, s).tolist() == preorder_spectrum(t, s)


def test_spectrum_geometric_symbol_vs_dense():
    t = um.generate_homogeneous(2, 3, 1.0)
    s = um.Symbol(np.where(t.child_count > 0, 4.0 ** t.depth, 0.0))
    sp = um.spectrum(t, s)
    got = _sym_eigvals(t, s)
    want = _expected_multiset(t, sp)
    assert np.abs(got - want).max() < 1e-10


def test_spectrum_vs_dense_diagonalization_random():
    for seed, t in enumerate(random_trees(range(8))):
        s = random_symbol(t, 100 + seed, 0.0, 2.0)
        sp = um.spectrum(t, s)
        got = _sym_eigvals(t, s)
        want = _expected_multiset(t, sp)
        assert np.abs(got - want).max() < 1e-8


def test_spectrum_positivity():
    for seed, t in enumerate(random_trees(range(6))):
        s = random_symbol(t, 50 + seed, 0.0, 3.0)
        sp = um.spectrum(t, s)
        assert all(l >= -1e-15 for l in sp[t.interior])
        s_pos = random_symbol(t, 50 + seed, 0.5, 3.0)
        sp_pos = um.spectrum(t, s_pos)
        assert all(l > 0 for l in sp_pos[t.interior])


def test_self_adjointness():
    rng = np.random.default_rng(21)
    for seed, t in enumerate(random_trees(range(5))):
        s = random_symbol(t, seed)
        nu = t.leaf_measures
        f = rng.standard_normal(t.n_leaves)
        g = rng.standard_normal(t.n_leaves)
        lhs = float(np.sum(um.apply_dense(t, s, f) * g * nu))
        rhs = float(np.sum(f * um.apply_dense(t, s, g) * nu))
        assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, abs(lhs)))


def test_verify_eigen_t2(t2, t2_symbol, t2_basis):
    assert um.verify_eigen(t2, t2_symbol, t2_basis) <= 1e-12


def test_verify_eigen_random():
    t = generate_random(7, 4, 4)
    s = random_symbol(t, 7)
    basis = um.build_basis(t)
    assert um.verify_eigen(t, s, basis) <= 1e-9


def test_verify_eigen_homogeneous():
    t = um.generate_homogeneous(3, 2, 1.0)
    s = um.constant_symbol(t, 1.3)
    basis = um.build_basis(t)
    assert um.verify_eigen(t, s, basis) <= 1e-12


def test_zero_symbol_spectrum_is_zero(t2):
    sp = um.spectrum(t2, um.constant_symbol(t2, 0.0))
    assert all(l == 0.0 for l in sp[t2.interior])


# ---------------------------------------------------------------- convergence

def test_convergence_conv1_converges():
    rep = um.convergence_report(2, 2.0, 0.25)
    assert rep.conv1.converges
    assert rep.conv1.ratio == pytest.approx(0.5)
    closed = 0.25 * (2.0 - 1.0) / (1.0 - 0.5)
    assert rep.conv1.value == pytest.approx(closed, abs=1e-10)


def test_convergence_conv1_diverges():
    rep = um.convergence_report(2, 2.0, 1.0)
    assert not rep.conv1.converges
    assert rep.conv1.ratio == pytest.approx(2.0)
    assert rep.conv1.value is None


def test_convergence_boundary():
    assert not um.convergence_report(2, 2.0, 0.5).conv1.converges      # q mu = 1
    assert um.convergence_report(2, 2.0, 0.5 - 1e-9).conv1.converges


def test_convergence_q_zero():
    rep = um.convergence_report(2, 2.0, 0.0)
    assert rep.conv1.converges
    assert rep.conv1.value == 0.0
    assert not rep.conv2.converges
    assert rep.conv2.ratio == math.inf


def test_convergence_conv2_verdict():
    # q^2 mu^3 > 1 with q mu < 1: both series converge
    rep = um.convergence_report(2, 4.0, 0.2)   # q mu = 0.8, q^2 mu^3 = 2.56
    assert rep.conv1.converges and rep.conv2.converges
    # q^2 mu^3 < 1: conv2 diverges
    rep = um.convergence_report(2, 2.0, 0.25)  # q^2 mu^3 = 0.5
    assert rep.conv1.converges and not rep.conv2.converges


def test_convergence_conv2_value_matches_closed_form():
    mu, q = 4.0, 0.2
    rep = um.convergence_report(2, mu, q, levels_probe=60)
    r1 = q * mu
    c = 1.0 + (1.0 - 1.0 / mu) * r1 / (1.0 - r1)
    r2 = 1.0 / (q * q * mu ** 3)
    first = (c * r1) ** -2 * (mu - 1.0) / mu
    closed = first / (1.0 - r2)
    assert rep.conv2.value == pytest.approx(closed, rel=1e-10)


def test_convergence_out_of_range():
    with pytest.raises(um.OutOfRange):
        um.convergence_report(1, 2.0, 0.5)
    with pytest.raises(um.OutOfRange):
        um.convergence_report(2, 0.9, 0.5)
    with pytest.raises(um.OutOfRange):
        um.convergence_report(2, 2.0, -0.1)
