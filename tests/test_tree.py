import json
import math

import pytest

import umfield as um


def test_parse_t2_measures(t2, t2_ids):
    assert t2.n_leaves == 4
    assert t2.measure[t2_ids["A"]] == pytest.approx(0.5, abs=0)
    assert t2.measure[t2_ids["B"]] == pytest.approx(0.5, abs=0)
    assert t2.measure[t2_ids["R"]] == pytest.approx(1.0, abs=0)


def test_parse_branching_one():
    doc = {"nodes": [{"id": "R", "children": ["A"]}, {"id": "A", "measure": 1.0}]}
    with pytest.raises(um.BranchingOne):
        um.parse_tree(doc)


def test_parse_zero_measure():
    doc = {"nodes": [{"id": "R", "children": ["a", "b"]},
                     {"id": "a", "measure": 0.0}, {"id": "b", "measure": 1.0}]}
    with pytest.raises(um.NonPositiveMeasure):
        um.parse_tree(doc)


@pytest.mark.parametrize("a, b, culprit", [(1e-320, 0.5, "'a'"), (1e308, 1e308, "'R'")])
def test_parse_measure_out_of_float_range(a, b, culprit):
    doc = {"nodes": [{"id": "R", "children": ["a", "b"]},
                     {"id": "a", "measure": a}, {"id": "b", "measure": b}]}
    with pytest.raises(um.OutOfRange, match=culprit):
        um.parse_tree(doc)


def test_parse_duplicate_id():
    doc = {"nodes": [{"id": "R", "children": ["a", "b"]},
                     {"id": "a", "measure": 1.0}, {"id": "a", "measure": 1.0},
                     {"id": "b", "measure": 1.0}]}
    with pytest.raises(um.DuplicateId):
        um.parse_tree(doc)


def test_parse_measure_mismatch():
    doc = {"nodes": [{"id": "R", "children": ["a", "b"], "measure": 3.0},
                     {"id": "a", "measure": 1.0}, {"id": "b", "measure": 1.0}]}
    with pytest.raises(um.MeasureMismatch):
        um.parse_tree(doc)


def test_parse_cycle():
    doc = {"nodes": [{"id": "R", "children": ["a", "b"]},
                     {"id": "a", "children": ["R", "b"]},
                     {"id": "b", "measure": 1.0}]}
    with pytest.raises((um.Cycle, um.MalformedSpec)):
        um.parse_tree(doc)


def test_parse_malformed_json():
    with pytest.raises(um.MalformedSpec):
        um.parse_tree("{not json")


def test_declared_interior_measure_validated():
    doc = {"nodes": [{"id": "R", "children": ["a", "b"], "measure": 2.0},
                     {"id": "a", "measure": 1.0}, {"id": "b", "measure": 1.0}]}
    t = um.parse_tree(doc)
    assert t.total_measure == 2.0


def test_sup_examples(t2, t2_ids):
    i = t2_ids
    assert t2.sup(i["a1"], i["a2"]) == i["A"]
    assert t2.sup(i["a1"], i["b1"]) == i["R"]
    assert t2.sup(i["a1"], i["a1"]) == i["a1"]


def test_sup_foreign_leaf(t2, t2_ids):
    with pytest.raises(um.ForeignLeaf):
        t2.sup(t2_ids["A"], t2_ids["a1"])  # interior vertex is not a leaf


def test_child_toward(t2, t2_ids):
    i = t2_ids
    assert t2.child_toward(i["R"], i["a1"]) == i["A"]
    assert t2.child_toward(i["R"], i["A"]) == i["A"]
    with pytest.raises(um.NotDescendant):
        t2.child_toward(i["A"], i["b1"])
    with pytest.raises(um.NotDescendant):
        t2.child_toward(i["A"], i["A"])


def test_distance_examples(t2, t2_ids):
    i = t2_ids
    assert t2.distance(i["a1"], i["a2"]) == pytest.approx(0.5, abs=0)
    assert t2.distance(i["a1"], i["b2"]) == pytest.approx(1.0, abs=0)
    assert t2.distance(i["b1"], i["b1"]) == 0.0


def test_generate_homogeneous():
    t = um.generate_homogeneous(2, 2, 1.0)
    assert t.n_leaves == 4
    assert all(t.measure[l] == 0.25 for l in t.leaves)

    t = um.generate_homogeneous(3, 1, 9.0)
    assert t.n_leaves == 3
    assert all(t.measure[l] == 3.0 for l in t.leaves)

    t = um.generate_homogeneous(2, 10, 1.0)
    assert t.n_leaves == 1024
    assert all(t.measure[l] == 2.0 ** -10 for l in t.leaves)

    with pytest.raises(um.OutOfRange):
        um.generate_homogeneous(1, 2, 1.0)


def test_generate_random_deterministic():
    a = um.generate_random(1, 3, 4)
    b = um.generate_random(1, 3, 4)
    assert a.names == b.names
    assert a.children == b.children
    assert a.measure == b.measure


def test_generate_random_depth_one():
    t = um.generate_random(2, 1, 2)
    assert t.n_leaves == 2
    assert t.children[t.root] == tuple(sorted(t.leaves))


def test_generate_random_out_of_range():
    with pytest.raises(um.OutOfRange):
        um.generate_random(1, 3, 1)


def test_roundtrip_serialization():
    for seed in range(5):
        t = um.generate_random(seed, 4, 3)
        t2 = um.parse_tree(t.to_json())
        assert t2.names == t.names
        assert t2.children == t.children
        assert t2.measure == pytest.approx(t.measure, rel=1e-15)


def test_roundtrip_preserves_symbol(t2):
    back = um.parse_tree(t2.to_json())
    assert back.symbol_hint == t2.symbol_hint


def test_measure_additivity_random():
    for seed in range(10):
        t = um.generate_random(seed, 4, 4)
        for I in t.interior:
            kids_sum = math.fsum(t.measure[c] for c in t.children[I])
            assert t.measure[I] == pytest.approx(kids_sum, rel=1e-15)


def test_strong_triangle_inequality():
    t = um.generate_random(3, 3, 3)
    leaves = t.leaf_order
    for x in leaves:
        for y in leaves:
            for z in leaves:
                assert t.distance(x, y) <= max(t.distance(x, z), t.distance(y, z)) + 1e-15


def test_sup_symmetry_and_ancestry():
    t = um.generate_random(5, 3, 3)
    for x in t.leaf_order:
        for y in t.leaf_order:
            s = t.sup(x, y)
            assert s == t.sup(y, x)
            assert t.is_ancestor_or_equal(s, x)
            assert t.is_ancestor_or_equal(s, y)


def test_child_toward_properties():
    t = um.generate_random(6, 4, 3)
    for x in t.leaf_order:
        v = x
        while v != t.root:
            J = t.parent[v]
            c = t.child_toward(J, x)
            assert t.parent[c] == J
            assert t.is_ancestor_or_equal(c, x)
            v = J


def test_sup_index_matrix(t2):
    S = t2.sup_index_matrix()
    for i, x in enumerate(t2.leaf_order):
        for j, y in enumerate(t2.leaf_order):
            assert S[i, j] == t2.sup(x, y)


def test_sup_row_matches_sup():
    for seed in range(6):
        t = um.generate_random(seed, 5, 4)
        for i, x in enumerate(t.leaf_order):
            assert t.sup_row(i) == [t.sup(x, y) for y in t.leaf_order[i:]]
