import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import umfield as um
from umfield import cli

from conftest import (broom, caterpillar, children_of, dense_row, from_children, random_trees,
                      split_trees, star)


SQRT2 = math.sqrt(2.0)


def _wavelet_at(basis, vertex):
    return int(basis.first_row[vertex])


def test_t2_wavelet_values(t2, t2_basis, t2_ids):
    b = t2_basis
    wA = _wavelet_at(b, t2_ids["A"])
    assert (b.pos_val[wA], b.neg_val[wA]) == pytest.approx((SQRT2, -SQRT2), rel=1e-15)
    wR = _wavelet_at(b, t2_ids["R"])
    assert (b.pos_val[wR], b.neg_val[wR]) == pytest.approx((1.0, -1.0), rel=1e-15)


def test_three_equal_children():
    doc = {"nodes": [{"id": "R", "children": ["a", "b", "c"]},
                     {"id": "a", "measure": 1 / 3}, {"id": "b", "measure": 1 / 3},
                     {"id": "c", "measure": 1 / 3}]}
    t = um.parse_tree(doc)
    basis = um.build_basis(t)
    assert len(basis) == 2
    W = basis.wavelet_leaf_matrix()
    G = (W * t.leaf_measures) @ W.T
    assert np.abs(G - np.eye(2)).max() < 1e-14


def test_evaluate_examples(t2, t2_basis, t2_ids):
    i = t2_ids
    wA = _wavelet_at(t2_basis, i["A"])
    wR = _wavelet_at(t2_basis, i["R"])
    assert um.evaluate(t2_basis, wA, i["a1"]) == pytest.approx(SQRT2, rel=1e-15)
    assert um.evaluate(t2_basis, wA, i["b1"]) == 0.0
    assert um.evaluate(t2_basis, wR, i["b2"]) == pytest.approx(-1.0, rel=1e-15)


def test_evaluate_foreign_leaf(t2, t2_basis, t2_ids):
    with pytest.raises(um.ForeignLeaf):
        um.evaluate(t2_basis, 0, t2_ids["A"])


@pytest.mark.parametrize("k", [-1, 3])
def test_evaluate_rejects_row_out_of_range(t2, t2_basis, t2_ids, k):
    # T2 has three wavelet rows: -1 does not read the last one, and 3 is no bare IndexError
    with pytest.raises(ValueError, match=f"^row {k} is out of range: the basis has 3 wavelet rows$"):
        um.evaluate(t2_basis, k, t2_ids["a1"])


def test_projector_sum_check_rejects_leaf(t2, t2_basis, t2_ids):
    a1 = t2_ids["a1"]
    with pytest.raises(ValueError, match="^vertex 'a1' is a leaf: it carries no wavelets$"):
        um.projector_sum_check(t2, a1, a1, a1, basis=t2_basis)


def _assert_first_rows_up_is_the_table(t):
    basis = um.build_basis(t)
    first_row = basis.first_row.tolist()
    parent = t.parent.tolist()
    for I in range(t.n_vertices):
        rows = list(basis.first_rows_up(I))
        path = [I]
        while parent[path[-1]] != -1:
            path.append(parent[path[-1]])
        assert [J for J, _ in rows] == path
        assert [k for J, k in rows if not t.is_leaf(J)] == [first_row[J] for J in path
                                                             if not t.is_leaf(J)]


@settings(deadline=None, max_examples=50)
@given(t=split_trees())
def test_first_rows_up_is_the_first_row_table_random(t):
    _assert_first_rows_up_is_the_table(t)


def test_first_rows_up_is_the_first_row_table_extremes():
    _assert_first_rows_up_is_the_table(um.generate_homogeneous(2, 7, 1.0))
    _assert_first_rows_up_is_the_table(caterpillar(300, np.random.default_rng(46), symbol=False))
    _assert_first_rows_up_is_the_table(caterpillar(40, np.random.default_rng(47), branch=True))
    _assert_first_rows_up_is_the_table(star(300, np.random.default_rng(48), symbol=False))


def test_verify_kernel_builds_the_first_row_table_at_most_once(monkeypatch, capsys):
    # the brute-force kernel reads its rows along each root path, in O(depth) per pair: the
    # per-vertex table, O(n) to build, is built for the basis's index alone
    built = []
    table = um.WaveletBasis.first_row.fget

    def counted(basis):
        built.append(1)
        return table(basis)

    monkeypatch.setattr(um.WaveletBasis, "first_row", property(counted))
    assert cli.main(["verify", "kernel", "--gen", "2:6:1"]) == 0
    assert '"pass": true' in capsys.readouterr().out
    assert len(built) <= 1


def test_gram_identity_t2(t2_basis):
    G = um.gram_matrix(t2_basis)
    assert G.shape == (4, 4)
    assert np.abs(G - np.eye(4)).max() < 1e-10


def test_gram_identity_random():
    for t in random_trees(range(5)):
        basis = um.build_basis(t)
        G = um.gram_matrix(basis)
        assert np.abs(G - np.eye(len(basis) + 1)).max() < 1e-10


def test_wavelet_counts():
    for t in random_trees(range(8)):
        basis = um.build_basis(t)
        for I in t.interior:
            assert np.count_nonzero(basis.vertex == I) == int(t.child_count[I]) - 1
        assert len(basis) == t.n_leaves - 1


def test_zero_mean_all_wavelets():
    for t in random_trees(range(5)):
        basis = um.build_basis(t)
        nu = t.leaf_measures
        W = basis.wavelet_leaf_matrix()
        means = W @ nu
        scale = np.abs(W) @ nu
        assert np.all(np.abs(means) <= 1e-12 * scale)


def _assert_leaf_matrix_matches_evaluate(basis):
    W = basis.wavelet_leaf_matrix()
    assert W.shape == (len(basis), basis.tree.n_leaves)
    for k in range(len(basis)):
        assert np.array_equal(W[k], dense_row(basis, k))


def test_leaf_matrix_matches_evaluate(t2, t2_basis):
    _assert_leaf_matrix_matches_evaluate(t2_basis)


@settings(deadline=None, max_examples=40)
@given(t=split_trees())
def test_leaf_matrix_matches_evaluate_random(t):
    _assert_leaf_matrix_matches_evaluate(um.build_basis(t))


def test_leaf_matrix_matches_evaluate_deep_caterpillar():
    _assert_leaf_matrix_matches_evaluate(
        um.build_basis(caterpillar(1500, np.random.default_rng(23), symbol=False)))


def test_leaf_matrix_matches_evaluate_wide_star():
    _assert_leaf_matrix_matches_evaluate(
        um.build_basis(star(300, np.random.default_rng(24), symbol=False)))


def test_projector_sum_examples(t2, t2_ids, t2_basis):
    i = t2_ids
    v = um.projector_sum_check(t2, i["A"], i["a1"], i["a2"], basis=t2_basis)
    assert v == pytest.approx(-2.0, abs=1e-12)
    v = um.projector_sum_check(t2, i["R"], i["a1"], i["b1"], basis=t2_basis)
    assert v == pytest.approx(-1.0, abs=1e-12)
    v = um.projector_sum_check(t2, i["A"], i["a1"], i["b1"], basis=t2_basis)
    assert v == 0.0


def test_projector_sum_exhaustive_random():
    for t in random_trees(range(3), max_depth=3):
        basis = um.build_basis(t)
        for I in t.interior:
            for x in t.leaf_order:
                for y in t.leaf_order:
                    um.projector_sum_check(t, I, x, y, basis=basis)


def test_ordering_independence_of_projector():
    # individual coefficients depend on child order; the per-vertex projector must not
    rng = random.Random(42)
    for t in random_trees(range(4), max_depth=3):
        doc = t.to_dict()
        for node in doc["nodes"]:
            if "children" in node:
                rng.shuffle(node["children"])
        t_shuf = um.parse_tree(um.parse_tree(doc).to_json())
        basis = um.build_basis(t)
        basis_shuf = um.build_basis(t_shuf)
        # match vertices and leaves by name
        for I in t.interior:
            I2 = t_shuf.name_to_id[t.names[I]]
            for x in t.leaf_order:
                for y in t.leaf_order:
                    x2 = t_shuf.name_to_id[t.names[x]]
                    y2 = t_shuf.name_to_id[t.names[y]]
                    a = um.projector_sum_check(t, I, x, y, basis=basis)
                    b = um.projector_sum_check(t_shuf, I2, x2, y2, basis=basis_shuf)
                    assert a == pytest.approx(b, abs=1e-10)


def test_completeness_reconstruction():
    rng = np.random.default_rng(11)
    for t in random_trees(range(5)):
        basis = um.build_basis(t)
        E = basis.full_leaf_matrix()
        nu = t.leaf_measures
        f = rng.standard_normal(t.n_leaves)
        coeffs = E @ (f * nu)
        recon = coeffs @ E
        assert np.abs(recon - f).max() < 1e-10


def test_projector_check_rejects_corruption(t2, t2_ids):
    basis = um.build_basis(t2)
    basis.pos_val[basis.first_row[t2_ids["A"]]] *= 1.01
    with pytest.raises(ArithmeticError):
        um.projector_sum_check(t2, t2_ids["A"], t2_ids["a1"], t2_ids["a2"], basis=basis)


# ------------------------------------------------------------------ synthesis

def _assert_synthesis_matches_dense(basis, coeffs):
    dense = coeffs @ basis.wavelet_leaf_matrix()
    got = basis.synthesize(coeffs)
    assert got.shape == dense.shape
    assert np.abs(got - dense).max() <= 1e-13 * np.abs(dense).max()


@settings(deadline=None, max_examples=40)
@given(t=split_trees(), seed=st.integers(0, 2 ** 32 - 1))
def test_synthesize_matches_dense_random(t, seed):
    basis = um.build_basis(t)
    rng = np.random.default_rng(seed)
    _assert_synthesis_matches_dense(basis, rng.standard_normal(len(basis)))
    _assert_synthesis_matches_dense(basis, rng.standard_normal((3, len(basis))))


def test_synthesize_deep_caterpillar():
    rng = np.random.default_rng(21)
    basis = um.build_basis(caterpillar(1500, rng, symbol=False))
    _assert_synthesis_matches_dense(basis, rng.standard_normal(len(basis)))
    _assert_synthesis_matches_dense(basis, rng.standard_normal((2, len(basis))))


def test_synthesize_wide_star():
    rng = np.random.default_rng(22)
    basis = um.build_basis(star(300, rng, symbol=False))
    _assert_synthesis_matches_dense(basis, rng.standard_normal(len(basis)))
    _assert_synthesis_matches_dense(basis, rng.standard_normal((2, len(basis))))


def _synthesize_per_vertex(basis, coeffs):
    """synthesize one vertex at a time from its child lists and the row tables: the reference.

    Child m of a vertex I with p children has the own value neg_val c of I's
    wavelet m (none for m = 0) plus the positive values pos_val c of I's
    wavelets m + 1, ..., p - 1, summed from p - 1 down; its value adds the
    value of I, taken first in preorder.
    """
    t = basis.tree
    c = np.moveaxis(np.asarray(coeffs, dtype=float), -1, 0)
    value = np.zeros((t.n_vertices,) + c.shape[1:])
    children = children_of(t)
    for I in t.preorder.tolist():
        kids = children[I]
        row = basis.first_row.item(I) - 1  # the row of wavelet j is row + j
        suffix = np.zeros(c.shape[1:])
        for m in range(len(kids) - 1, 0, -1):
            value[kids[m]] = (suffix + basis.neg_val[row + m] * c[row + m]) + value[I]
            suffix = suffix + basis.pos_val[row + m] * c[row + m]
        if kids:
            value[kids[0]] = suffix + value[I]
    return np.moveaxis(value[t.leaf_order], 0, -1)


def _assert_synthesis_bit_equal(t, rng, smallest=None):
    """synthesize against the reference on a draw and a batch of two; with ``smallest``, each
    coefficient is scaled by 10^e, e uniform down to ``smallest``."""
    basis = um.build_basis(t)
    for shape in [(len(basis),), (2, len(basis))]:
        d = rng.standard_normal(shape)
        if smallest is not None:
            d *= 10.0 ** rng.uniform(smallest, 0.0, shape)
        got = basis.synthesize(d)
        assert got.tolist() == _synthesize_per_vertex(basis, d).tolist()
        assert not np.signbit(got[got == 0.0]).any()  # a zero is +0 in either form


@settings(deadline=None, max_examples=100)
@given(t=split_trees(), seed=st.integers(0, 2 ** 32 - 1))
def test_synthesize_bit_equal_to_per_vertex_reference_random(t, seed):
    _assert_synthesis_bit_equal(t, np.random.default_rng(seed))


# the leaf measures of one tree lie within 1e±10 of a scale between 1e-290 and 1e290, so that
# every basis builds; the table values then reach 1e-145, and with coefficients down to 1e-320
# their products underflow to +0 or -0
_extreme_measure = st.shared(st.floats(-290.0, 290.0), key="scale").flatmap(
    lambda e: st.floats(e - 10.0, e + 10.0)).map(lambda e: 10.0 ** e)


@settings(deadline=None, max_examples=100)
@given(t=split_trees(measure=_extreme_measure), seed=st.integers(0, 2 ** 32 - 1))
def test_synthesize_bit_equal_to_per_vertex_reference_extreme_measures(t, seed):
    _assert_synthesis_bit_equal(t, np.random.default_rng(seed), smallest=-320.0)


def test_synthesize_bit_equal_to_per_vertex_reference_extremes():
    rng = np.random.default_rng(23)
    _assert_synthesis_bit_equal(caterpillar(3000, rng, symbol=False), rng)
    _assert_synthesis_bit_equal(star(300, rng, symbol=False), rng)
    wide = star(8200, rng, symbol=False)  # past _SCREEN_MAX_J: the build takes the exact checks
    assert wide.n_leaves - 1 > um.wavelets._SCREEN_MAX_J  # its widest wavelet index
    _assert_synthesis_bit_equal(wide, rng)
    _assert_synthesis_bit_equal(um.generate_homogeneous(3, 5, 1.0), rng)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_synthesis_bit_equal(broom(rng), rng)


def _assert_batch_is_its_rows(t, rng):
    basis = um.build_basis(t)
    for shape in [(3, len(basis)), (2, 3, len(basis))]:
        d = rng.standard_normal(shape)
        got = basis.synthesize(d)
        assert got.shape == shape[:-1] + (t.n_leaves,)
        for i in np.ndindex(shape[:-1]):
            assert got[i].tolist() == basis.synthesize(d[i]).tolist()


@settings(deadline=None, max_examples=50)
@given(t=split_trees(), seed=st.integers(0, 2 ** 32 - 1))
def test_synthesize_batch_is_its_rows_random(t, seed):
    _assert_batch_is_its_rows(t, np.random.default_rng(seed))


def test_synthesize_batch_is_its_rows_extremes():
    rng = np.random.default_rng(24)
    _assert_batch_is_its_rows(caterpillar(3000, rng, symbol=False), rng)
    _assert_batch_is_its_rows(star(300, rng, symbol=False), rng)
    _assert_batch_is_its_rows(um.generate_homogeneous(3, 5, 1.0), rng)
    _assert_batch_is_its_rows(broom(rng), rng)
    _assert_batch_is_its_rows(from_children(["x"], [[]], {0: 2.0}), rng)


def test_synthesize_rejects_wrong_length(t2_basis):
    with pytest.raises(ValueError, match="coefficients"):
        t2_basis.synthesize(np.zeros(len(t2_basis) + 1))


# ------------------------------------------------------------------ tables

def _helmert_reference(t):
    """Per-wavelet weighted Helmert construction, one wavelet at a time, in canonical order."""
    rows = []
    children = children_of(t)
    for I in t.interior.tolist():
        kids = children[I]
        nu = [t.measure.item(c) for c in kids]
        s = nu[0]
        for j in range(1, len(kids)):
            alpha = 1.0 / math.sqrt(1.0 / s + 1.0 / nu[j])
            rows.append((I, j, alpha / s, -alpha / nu[j]))
            s += nu[j]
    return rows


def _assert_tables_match_reference(t):
    basis = um.build_basis(t)
    ref = _helmert_reference(t)
    n_w = len(ref)
    assert len(basis) == n_w
    assert basis.vertex.tolist() == [r[0] for r in ref]
    assert basis.index.tolist() == [r[1] for r in ref]
    children = children_of(t)
    assert basis.child.tolist() == [children[I][j] for I, j, _, _ in ref]
    assert basis.pos_val.tolist() == [r[2] for r in ref]   # bit for bit
    assert basis.neg_val.tolist() == [r[3] for r in ref]
    first_row = [0] * t.n_vertices
    for k, (I, j, _, _) in enumerate(ref):
        if j == 1:
            first_row[I] = k
    assert basis.first_row.tolist() == first_row


@settings(deadline=None, max_examples=100)
@given(t=split_trees(measure=st.floats(-100, 100).map(lambda e: 10.0 ** e)))
def test_tables_match_helmert_reference_random(t):
    _assert_tables_match_reference(t)


def test_tables_match_helmert_reference_deep_caterpillar():
    _assert_tables_match_reference(caterpillar(3000, np.random.default_rng(43), symbol=False))


def test_tables_match_helmert_reference_wide_star():
    _assert_tables_match_reference(star(300, np.random.default_rng(44), symbol=False))
    # past _SCREEN_MAX_J (8104), where the widest wavelets take the exact checks
    _assert_tables_match_reference(star(8200, np.random.default_rng(45), symbol=False))


def _exact_check_outcome(t):
    """(type, message) of the first wavelet, in canonical order, that fails the construction
    checks taken as exact sums over its child balls; None if all pass."""
    children = children_of(t)
    for I, j, a, b in _helmert_reference(t):
        nu = [t.measure.item(c) for c in children[I]]
        coeffs = [a] * j + [b] + [0.0] * (len(nu) - 1 - j)
        try:
            mean = math.fsum(c * m for c, m in zip(coeffs, nu))
            norm = math.fsum(c * c * m for c, m in zip(coeffs, nu))
            if abs(mean) > 1e-12 * math.fsum(abs(c) * m for c, m in zip(coeffs, nu)):
                return ArithmeticError, f"wavelet ({t.names[I]}, {j}) not zero-mean: {mean}"
            if abs(norm - 1.0) > 1e-12:
                return ArithmeticError, f"wavelet ({t.names[I]}, {j}) not unit-norm: {norm}"
        except (ArithmeticError, ValueError) as e:
            return type(e), str(e)
    return None


@settings(deadline=None, max_examples=300)
@given(t=split_trees(measure=st.floats(-300, 300).map(lambda e: 10.0 ** e)))
def test_construction_checks_decide_as_exact_sums(t):
    # the vectorised screen may only pass wavelets that the exact sums pass
    want = _exact_check_outcome(t)
    if want is None:
        um.build_basis(t)
    else:
        with pytest.raises((ArithmeticError, ValueError)) as e:
            um.build_basis(t)
        assert (type(e.value), str(e.value)) == want
