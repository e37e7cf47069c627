import contextlib
import gc
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import umfield as um

from conftest import (broom, caterpillar, chains, children_of, euler_ranks_reference,
                      from_children, generate_random, homogeneous_reference, hung_caterpillars,
                      slot_levels_reference, split_trees, star, wide_stars)


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


@pytest.mark.parametrize("text, error", [
    ('{"nodes": [{"id": "r", "measure": 1.0}]}', None),
    ("{not json", um.MalformedSpec),
    ('{"nodes": [{"id": "r", "children": ["r", "x"]}]}', um.MalformedSpec),
], ids=["valid", "invalid-json", "invalid-tree"])
@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_load_tree_pauses_and_restores_collector(tmp_path, monkeypatch, text, error, enabled):
    path = tmp_path / "doc.json"
    path.write_text(text)
    during = []
    parse = um.tree.parse_tree
    monkeypatch.setattr(um.tree, "parse_tree",
                        lambda doc: during.append(gc.isenabled()) or parse(doc))
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        with pytest.raises(error) if error else contextlib.nullcontext():
            um.load_tree(path)
        assert during == [False] and gc.isenabled() == enabled
    finally:
        gc.enable() if was else gc.disable()


def _doc(nodes, key):
    return {"nodes": [{"id": key(v), "children": [key(c) for c in x]} if isinstance(x, list)
                      else {"id": key(v), "measure": x} for v, x in nodes]}


def test_parse_integer_ids_build_the_same_arrays():
    nodes = [(0, [1, 4]), (1, [2, 3]), (2, 0.25), (3, 0.5), (4, [5, 6, 7]), (5, 1.0), (6, 2.0),
             (7, 0.125)]
    a, b = um.parse_tree(_doc(nodes, int)), um.parse_tree(_doc(nodes, str))
    assert a.names == b.names == [str(v) for v, _ in nodes]
    for field in ("child_count", "child_ids", "parent", "measure", "leaf_order"):
        assert getattr(a, field).tolist() == getattr(b, field).tolist(), field


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


def test_child_toward_from_an_ancestor_raises():
    # the root is no descendant of vertex 4, the root's second child; a walk up from the root
    # would read the parent of index -1, the last vertex, whose parent is 4
    t = um.generate_homogeneous(2, 2, 1.0)
    with pytest.raises(um.NotDescendant):
        t.child_toward(4, 0)
    with pytest.raises(um.NotDescendant):
        t.child_toward(4, 1)


def _child_toward_reference(t, J, I):
    """The child of J on the path down to I by a walk up the parents from I; None if there is
    none."""
    v = I
    while v != -1:
        p = t.parent.item(v)
        if p == J:
            return v
        v = p
    return None


@settings(deadline=None, max_examples=50)
@given(t=split_trees())
def test_child_toward_matches_parent_walk(t):
    for J, I in itertools.product(range(t.n_vertices), repeat=2):
        ref = _child_toward_reference(t, J, I)
        if ref is None:
            with pytest.raises(um.NotDescendant):
                t.child_toward(J, I)
        else:
            assert t.child_toward(J, I) == ref


def test_distance_examples(t2, t2_ids):
    # the canonical ultrametric of two distinct leaves is the measure of their sup
    i = t2_ids
    assert t2.measure[t2.sup(i["a1"], i["a2"])] == 0.5
    assert t2.measure[t2.sup(i["a1"], i["b2"])] == 1.0
    assert t2.sup(i["b1"], i["b1"]) == i["b1"]


def test_generate_homogeneous():
    t = um.generate_homogeneous(2, 2, 1.0)
    assert t.n_leaves == 4
    assert all(t.measure[l] == 0.25 for l in t.leaf_order)

    t = um.generate_homogeneous(3, 1, 9.0)
    assert t.n_leaves == 3
    assert all(t.measure[l] == 3.0 for l in t.leaf_order)

    t = um.generate_homogeneous(2, 10, 1.0)
    assert t.n_leaves == 1024
    assert all(t.measure[l] == 2.0 ** -10 for l in t.leaf_order)

    with pytest.raises(um.OutOfRange):
        um.generate_homogeneous(1, 2, 1.0)


def test_generate_random_deterministic():
    a = generate_random(1, 3, 4)
    b = generate_random(1, 3, 4)
    assert a.names == b.names
    assert children_of(a) == children_of(b)
    assert a.measure.tolist() == b.measure.tolist()


def test_generate_random_depth_one():
    t = generate_random(2, 1, 2)
    assert t.n_leaves == 2
    assert children_of(t)[t.root] == tuple(sorted(t.leaf_order.tolist()))


def test_roundtrip_serialization():
    for seed in range(5):
        t = generate_random(seed, 4, 3)
        t2 = um.parse_tree(t.to_json())
        assert t2.names == t.names
        assert children_of(t2) == children_of(t)
        assert t2.measure.tolist() == pytest.approx(t.measure.tolist(), rel=1e-15)


def test_roundtrip_preserves_symbol(t2):
    back = um.parse_tree(t2.to_json())
    assert back.symbol_hint.tolist() == t2.symbol_hint.tolist()


@settings(deadline=None, max_examples=100)
@given(split_trees(symbol=st.none() | st.floats(0.0, 1e308)))
def test_roundtrip_keeps_symbol_hint_bits(t):
    # a None draw is an interior vertex without "T": NaN in the array, no "T" in the document
    back = um.parse_tree(t.to_json()).symbol_hint
    if np.isnan(t.symbol_hint[t.interior]).all():
        assert back is None
    else:
        assert back.tobytes() == t.symbol_hint.tobytes()


def test_measure_additivity_random():
    for seed in range(10):
        t = generate_random(seed, 4, 4)
        for I in t.interior:
            kids_sum = math.fsum(t.measure[c] for c in children_of(t)[I])
            assert t.measure[I] == pytest.approx(kids_sum, rel=1e-15)


def test_strong_triangle_inequality():
    t = generate_random(3, 3, 3)
    leaves = t.leaf_order

    def d(x, y):  # the ball measure of sup(x, y); a point is its own smallest ball
        return t.measure[t.sup(x, y)]

    for x in leaves:
        for y in leaves:
            for z in leaves:
                assert d(x, y) <= max(d(x, z), d(y, z)) + 1e-15


def test_sup_symmetry_and_ancestry():
    t = generate_random(5, 3, 3)
    for x in t.leaf_order:
        for y in t.leaf_order:
            s = t.sup(x, y)
            assert s == t.sup(y, x)
            assert t.is_ancestor_or_equal(s, x)
            assert t.is_ancestor_or_equal(s, y)


def test_child_toward_properties():
    t = generate_random(6, 4, 3)
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


# ------------------------------------------------------------ flat fields

def _reference_fields(children, leaf_measures):
    """Every per-vertex field by a plain iterative DFS over the child lists, one vertex at a time."""
    n = len(children)
    parent = [-1] * n
    for v, kids in enumerate(children):
        for c in kids:
            parent[c] = v
    root = parent.index(-1)
    preorder, depth, stack = [], [0] * n, [root]
    while stack:
        v = stack.pop()
        preorder.append(v)
        for c in reversed(children[v]):
            depth[c] = depth[v] + 1
            stack.append(c)
    leaf_order = [v for v in preorder if not children[v]]
    measure, lo, hi = [0.0] * n, [0] * n, [0] * n
    for i, x in enumerate(leaf_order):
        measure[x], lo[x], hi[x] = leaf_measures[x], i, i + 1
    for v in reversed(preorder):
        kids = children[v]
        if kids:
            measure[v] = math.fsum(measure[c] for c in kids)
            lo[v] = min(lo[c] for c in kids)
            hi[v] = max(hi[c] for c in kids)
    return {"parent": parent, "preorder": preorder, "depth": depth,
            "leaf_order": leaf_order, "measure": measure, "lo": lo, "hi": hi,
            "interior": [v for v in preorder if children[v]]}


def _shuffled(t, rng):
    """The tree t with its vertex ids permuted at random, so that ids are not in preorder;
    returns the new tree with the child lists and leaf measures it was built from."""
    perm = rng.permutation(t.n_vertices).tolist()  # old id -> new id
    names, children = [None] * t.n_vertices, [None] * t.n_vertices
    for v, kids in enumerate(children_of(t)):
        names[perm[v]] = t.names[v]
        children[perm[v]] = [perm[c] for c in kids]
    measures = {perm[x]: t.measure.item(x) for x in t.leaf_order.tolist()}
    return from_children(names, children, measures), children, measures


def _assert_flat_fields(t, children, leaf_measures):
    ref = _reference_fields(children, leaf_measures)
    for name, want in ref.items():
        assert getattr(t, name).tolist() == want, name
    assert t.root == ref["preorder"][0]
    assert children_of(t) == [tuple(kids) for kids in children]
    assert t.leaf_measures.tolist() == t.measure[t.leaf_order].tolist()
    assert t.child_count.tolist() == [len(k) for k in children]
    assert t.total_measure == t.measure.item(t.root)
    assert t.name_to_id == {nm: v for v, nm in enumerate(t.names)}


def _assert_flat_fields_shuffled(t, seed):
    _assert_flat_fields(t, [list(k) for k in children_of(t)],
                        {x: t.measure.item(x) for x in t.leaf_order.tolist()})
    _assert_flat_fields(*_shuffled(t, np.random.default_rng(seed)))


@settings(deadline=None, max_examples=100)
@given(t=split_trees(measure=st.floats(-100, 100).map(lambda e: 10.0 ** e)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_flat_fields_match_reference_random(t, seed):
    _assert_flat_fields_shuffled(t, seed)


def test_flat_fields_match_reference_deep_caterpillar():
    _assert_flat_fields_shuffled(caterpillar(3000, np.random.default_rng(41)), 1)


def test_flat_fields_match_reference_wide_star():
    _assert_flat_fields_shuffled(star(300, np.random.default_rng(42)), 2)


def test_flat_fields_match_reference_40001_vertex_caterpillar():
    t = caterpillar(20000, np.random.default_rng(43), symbol=False)
    assert t.n_vertices == 40001
    _assert_flat_fields_shuffled(t, 3)


def test_each_per_vertex_field_is_one_array():
    t = generate_random(7, 4, 3)
    # the queries, and the passes whose schedules the tree caches, add no per-vertex field
    x, y = t.leaf_order[0].item(), t.leaf_order[-1].item()
    t.child_toward(t.sup(x, y), x)
    t.sup_index_matrix()
    t.to_dict()
    assert t.name_to_id and t.child_runs and t.sibling_slots
    basis = um.build_basis(t)
    basis.wavelet_leaf_matrix()
    um.sample_field(t, um.spectrum(t, um.constant_symbol(t, 1.0)), basis, 0)
    # the tree caches its schedules alone, and the basis its row tables alone
    for obj in (t, basis):
        assert not {"sibling_measures", "pos_row", "neg_row", "suffix_rows",
                    "_wavelet_matrix", "first_row", "index"} & set(vars(obj))
    for name in ("parent", "depth", "lo", "hi", "measure", "preorder", "interior", "leaf_order",
                 "child_count", "child_first", "child_ids"):
        assert type(getattr(t, name)) is np.ndarray, name
        assert not hasattr(t, f"{name}_array"), name
    per_vertex = [k for k, v in vars(t).items()
                  if isinstance(v, (list, tuple)) and len(v) == t.n_vertices]
    assert per_vertex == ["names"]  # the name index name_to_id is a dict
    assert not hasattr(t, "children") and not hasattr(um.tree, "_list_view")


def test_single_leaf_tree():
    t = from_children(["x"], [[]], {0: 2.0})
    fields = (t.preorder, t.depth, t.lo, t.hi, t.interior, t.leaf_order)
    assert t.root == 0 and [a.tolist() for a in fields] == [[0], [0], [0], [1], [], [0]]
    assert t.total_measure == 2.0
    assert t.child_runs == []


def _assert_tour_matches_two_event_reference(t):
    owner = np.repeat(np.arange(t.n_vertices), t.child_count)
    want = euler_ranks_reference(t.child_count, t.child_first, t.child_ids, owner, t.root)
    got = (t.preorder, t.depth, t.lo, t.hi)
    for name, w, g in zip(("preorder", "depth", "lo", "hi"), want, got):
        assert g.tolist() == w.tolist(), name


@settings(deadline=None, max_examples=100)
@given(t=split_trees(), seed=st.integers(0, 2 ** 32 - 1))
def test_tour_matches_two_event_reference_random(t, seed):
    _assert_tour_matches_two_event_reference(t)
    _assert_tour_matches_two_event_reference(_shuffled(t, np.random.default_rng(seed))[0])


@pytest.mark.parametrize("make", [
    lambda: caterpillar(3000, np.random.default_rng(47), symbol=False),
    lambda: star(300, np.random.default_rng(48), symbol=False),
    lambda: um.generate_homogeneous(4, 5, 1.0),
    lambda: from_children(["x"], [[]], {0: 2.0}),
    lambda: from_children(["R", "a", "b"], [[1, 2], [], []], {1: 1.0, 2: 3.0}),
], ids=["caterpillar", "star", "homogeneous", "one-vertex", "two-leaf"])
def test_tour_matches_two_event_reference_extremes(make):
    _assert_tour_matches_two_event_reference(make())


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_generate_homogeneous_matches_recursive_reference(p, depth):
    names, children, measures = homogeneous_reference(p, depth, 3.0)
    t = um.generate_homogeneous(p, depth, 3.0)
    assert t.names == names
    assert t.label == f"homogeneous(p={p},depth={depth})"
    _assert_flat_fields(t, children, measures)
    assert t.preorder.tolist() == list(range(t.n_vertices))


# sums of these lie on or next to rounding ties, where a double-double sum can be undecided
_TIES = [1.0, 2.0 ** -53, 2.0 ** -106, 3 * 2.0 ** -54, 2.0 ** -52, 1.0 + 2.0 ** -52]
_tie_measures = st.integers(0, 2 ** 32 - 1).map(
    lambda seed: lambda n: np.random.default_rng(seed).choice(_TIES, n).tolist())


def _assert_measures_are_fsum(t):
    """Each measure is fsum of the children's, taken one vertex at a time in reversed preorder."""
    ref = _reference_fields([list(k) for k in children_of(t)],
                            {x: t.measure.item(x) for x in t.leaf_order.tolist()})
    assert t.measure.tolist() == ref["measure"]


@settings(deadline=None, max_examples=40)
@pytest.mark.parametrize("family", [
    wide_stars(),
    split_trees(measure=st.floats(-300, 300).map(lambda e: 10.0 ** e)),
    hung_caterpillars(),
    hung_caterpillars(measures=_tie_measures),
    chains(),
    chains(measures=_tie_measures),
], ids=["star", "split-1e300", "hung-caterpillar", "hung-caterpillar-ties", "chain",
        "chain-ties"])
@given(data=st.data())
def test_measures_are_fsum_of_children(family, data):
    _assert_measures_are_fsum(data.draw(family))


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2 ** 32 - 1), ties=st.booleans())
def test_narrow_group_mixing_two_and_three_children_is_fsum(seed, ties):
    # a chain whose spine vertices have two or three children takes no cumulative sum: the
    # measure pass walks child_runs, in which a two-child vertex takes one addition and a
    # three-child one fsum
    rng = np.random.default_rng(seed)
    children = [[]]
    v = 0
    for k in [2, 3] + rng.integers(2, 4, int(rng.integers(0, 120))).tolist():
        children[v] = list(range(len(children), len(children) + k))
        children.extend([] for _ in range(k))
        v = children[v][int(rng.integers(k))]
    leaves = [u for u, kids in enumerate(children) if not kids]
    m = rng.choice(_TIES, len(leaves)) if ties else 10.0 ** rng.uniform(-300, 300, len(leaves))
    t = from_children([f"v{u}" for u in range(len(children))], children,
                      dict(zip(leaves, m.tolist())))
    _assert_measures_are_fsum(t)


def _path_sums_reference(t, x):
    """x[v] = x[parent] + x[v] one vertex at a time, in preorder."""
    x = x.copy()
    parent = t.parent.tolist()
    for v in t.preorder.tolist()[1:]:
        x[v] = x[parent[v]] + x[v]
    return x


@settings(deadline=None, max_examples=30)
@pytest.mark.parametrize("family", [split_trees(), chains(), hung_caterpillars(), wide_stars()],
                         ids=["split", "chain", "hung-caterpillar", "star"])
@pytest.mark.parametrize("batch", [(), (3,)], ids=["1-D", "batched"])
@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_path_sums_is_the_preorder_loop(family, batch, data, seed):
    # values of many magnitudes, so that the order of the additions shows in the rounding
    t = data.draw(family)
    rng = np.random.default_rng(seed)
    shape = (t.n_vertices + 1,) + batch
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)
    ref = _path_sums_reference(t, x)
    t.path_sums(x)
    assert x[:-1].tolist() == ref[:-1].tolist()


def _subtree_sums_reference(t, x):
    """x[p] = x[c_0] + (x[c_1] + (... + x[c_last])) one vertex at a time, in reversed
    preorder, each child list added from the last child back."""
    x = x.copy()
    children = children_of(t)
    for p in reversed(t.interior.tolist()):
        run = x[children[p][-1]]
        for c in reversed(children[p][:-1]):
            run = x[c] + run
        x[p] = run
    return x


def _sibling_sums_reference(t, x):
    """Per child list, the running sums of x over the earlier siblings, left to right, and over
    the later ones, right to left, one child at a time."""
    earlier, later = np.zeros_like(x), np.zeros_like(x)
    for kids in children_of(t):
        run = np.zeros(x.shape[1:])
        for c in kids:
            earlier[c] = run
            run = run + x[c]
        run = np.zeros(x.shape[1:])
        for c in reversed(kids):
            later[c] = run
            run = run + x[c]
    return earlier, later


# two-child chains take the cumulative sums, three-child spines and the other trees the walks
_PASS_FAMILIES = pytest.mark.parametrize(
    "family", [split_trees(), chains(), chains(arity=3), hung_caterpillars(), wide_stars()],
    ids=["split", "chain", "spine-3", "hung-caterpillar", "star"])


@settings(deadline=None, max_examples=30)
@_PASS_FAMILIES
@pytest.mark.parametrize("batch", [(), (3,)], ids=["1-D", "batched"])
@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_subtree_sums_is_the_child_list_loop(family, batch, data, seed):
    # values of many magnitudes and both signs, so that the order of the additions shows in the
    # rounding: children added left to right fail
    t = data.draw(family)
    rng = np.random.default_rng(seed)
    shape = (t.n_vertices + 1,) + batch
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)
    x[-1] = 0.0  # the pad row
    ref = _subtree_sums_reference(t, x)
    t.subtree_sums(x)
    assert x.view(np.uint64).tolist() == ref.view(np.uint64).tolist()  # the pad row stays 0


@settings(deadline=None, max_examples=30)
@_PASS_FAMILIES
@pytest.mark.parametrize("batch", [(), (3,)], ids=["1-D", "batched"])
@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_sibling_sums_is_the_child_list_loop(family, batch, data, seed):
    # values of many magnitudes and both signs, with the scratch row that synthesis passes
    t = data.draw(family)
    rng = np.random.default_rng(seed)
    shape = (t.n_vertices + 1,) + batch
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)
    for got, ref in zip((t.earlier_sums(x), t.later_sums(x)), _sibling_sums_reference(t, x)):
        assert got.shape == shape
        assert got.view(np.uint64).tolist() == ref.view(np.uint64).tolist()  # signed zeros too


def test_is_chain():
    rng = np.random.default_rng(34)
    assert caterpillar(40, rng).is_chain
    assert not caterpillar(40, rng, branch=True).is_chain
    assert star(40, rng).is_chain  # one interior vertex is a path of one
    assert not um.generate_homogeneous(2, 3, 1.0).is_chain
    assert not from_children(["x"], [[]], {0: 2.0}).is_chain  # no interior vertex
    # a 2^10-leaf binary tree with a 40-level chain under its last leaf: a chain hangs in it,
    # but its interior vertices are not one path
    children = [[]]

    def split(u):
        children[u] = [len(children), len(children) + 1]
        children.extend([[], []])
        return children[u]

    level = [0]
    for _ in range(10):
        level = [c for u in level for c in split(u)]
    v = level[-1]
    for _ in range(40):
        v = split(v)[1]
    t = from_children([f"v{u}" for u in range(len(children))], children,
                      dict.fromkeys(range(len(children)), 1.0))
    assert not t.is_chain
    _assert_measures_are_fsum(t)


def _two_child_chain(depth, measure):
    """A caterpillar of two-child spine vertices s0 ... s{depth - 1}; every leaf has the measure."""
    names = [f"s{d}" for d in range(depth + 1)] + [f"x{d}" for d in range(depth)]
    children = [[depth + 1 + d, d + 1] for d in range(depth)] + [[]] * (depth + 1)
    return names, children, {v: measure for v in range(depth, 2 * depth + 1)}


def test_narrow_two_child_chain_overflow_names_vertex():
    # s13 is the deepest spine vertex over 18 leaves of 1e307: its sum, 1.8e308, overflows
    names, children, measures = _two_child_chain(30, 1e307)
    with pytest.raises(um.OutOfRange) as e:
        from_children(names, children, measures)
    assert str(e.value) == "measure of vertex 's13' overflows"


def _count_fsum(monkeypatch):
    calls = []
    fsum = math.fsum

    def counted(xs):
        calls.append(None)
        return fsum(xs)

    monkeypatch.setattr(math, "fsum", counted)
    return calls


@pytest.mark.parametrize("measures", [
    lambda rng, n: rng.uniform(0.1, 1.0, n),
    lambda rng, n: 10.0 ** rng.uniform(-300, 300, n),
    lambda rng, n: rng.choice(_TIES, n),
], ids=["1", "1e300", "ties"])
def test_binary_wide_levels_never_fall_back(measures, monkeypatch):
    # every level has two child rows and takes one addition, the exact sum rounded once
    base = um.generate_homogeneous(2, 12, 1.0)
    m = measures(np.random.default_rng(12), base.n_leaves)
    calls = _count_fsum(monkeypatch)
    t = um.BallTree(base.names, base.child_count, base.child_ids, m)
    monkeypatch.undo()
    assert len(calls) == 0
    _assert_measures_are_fsum(t)


def test_undecided_wide_level_takes_fsum(monkeypatch):
    # each of the 81 vertices at depth 4 of a ternary tree has the leaves 1, 2^-53 and 2^-106,
    # whose sum lies just past the tie 1 + 2^-53: the double-double sum leaves it undecided
    base = um.generate_homogeneous(3, 5, 1.0)
    calls = _count_fsum(monkeypatch)
    t = um.BallTree(base.names, base.child_count, base.child_ids,
                    [1.0, 2.0 ** -53, 2.0 ** -106] * 81)
    monkeypatch.undo()
    assert len(calls) == 40 + 81  # the 40 vertices above take fsum, one call each
    depth_4 = t.interior[t.depth[t.interior] == 4]
    assert {t.measure[v] for v in depth_4.tolist()} == {1.0 + 2.0 ** -52}
    _assert_measures_are_fsum(t)


def _two_overflows(deep_first, deep_wide):
    """A root over a vertex B whose two leaves overflow and a subtree L with one vertex D, eight
    levels down, whose two leaves overflow; D sits in a binary bush (a wide level) or at the
    end of a caterpillar (a narrow one).  deep_first puts L before B."""
    names, children, measures = ["R"], [[]], {}

    def add(parent, name, m=None):
        children[parent].append(len(names))
        names.append(name)
        children.append([])
        if m is not None:
            measures[len(names) - 1] = m
        return len(names) - 1

    def deep():
        level = [add(0, "L")]
        for d in range(6):
            if deep_wide:
                level = [add(u, f"u{len(names)}") for u in level for _ in range(2)]
            else:
                add(level[0], f"x{d}", 1.0)
                level = [add(level[0], f"L{d}")]
        for i, u in enumerate(level):
            d = add(u, f"D{i}")
            add(u, f"y{i}", 1.0)
            add(d, f"d{i}", 1e308 if i == 0 else 1.0)
            add(d, f"e{i}", 1e308 if i == 0 else 1.0)

    def shallow():
        b = add(0, "B")
        add(b, "b1", 1e308)
        add(b, "b2", 1e308)

    for part in (deep, shallow) if deep_first else (shallow, deep):
        part()
    return names, children, measures


@pytest.mark.parametrize("deep_wide", [True, False], ids=["wide", "narrow"])
@pytest.mark.parametrize("deep_first, culprit", [(True, "B"), (False, "D0")])
def test_measure_overflow_names_first_in_reversed_preorder(deep_first, culprit, deep_wide):
    names, children, measures = _two_overflows(deep_first, deep_wide)
    with pytest.raises(um.OutOfRange) as e:
        from_children(names, children, measures)
    assert str(e.value) == f"measure of vertex {culprit!r} overflows"


def _assert_child_runs(t):
    """child_runs against the slot-level reference: the same (vertex, parent) pairs depth by
    depth, each interior vertex once, each column its parent's children in order and then the
    pad, and at most 2 (n_vertices - 1) cells."""
    n = t.n_vertices
    want = {}
    for group, parents in slot_levels_reference(t):
        want.setdefault(t.depth[int(group[0])], set()).update(zip(group.tolist(), parents.tolist()))
    got, depths, seen, cells = {}, [], [], 0
    children = children_of(t)
    for parents, runs in t.child_runs:
        assert parents.dtype == runs.dtype == np.intp
        m, P = runs.shape
        assert parents.shape == (P,)
        (d,) = {t.depth[v] for v in parents.tolist()}
        depths.append(d)
        seen += parents.tolist()
        cells += runs.size
        for v, col in zip(parents.tolist(), runs.T.tolist()):
            kids = list(children[v])
            assert col == kids + [n] * (m - len(kids))
            got.setdefault(d + 1, set()).update((c, v) for c in kids)
    assert depths == sorted(depths)
    assert sorted(seen) == sorted(t.interior.tolist())
    assert got == want
    assert cells <= 2 * (n - 1)


@settings(deadline=None, max_examples=100)
@given(t=split_trees(), seed=st.integers(0, 2 ** 32 - 1))
def test_child_runs_match_reference_random(t, seed):
    _assert_child_runs(t)
    _assert_child_runs(_shuffled(t, np.random.default_rng(seed))[0])


def test_child_runs_match_reference_extremes():
    _assert_child_runs(caterpillar(3000, np.random.default_rng(44), symbol=False))
    _assert_child_runs(star(300, np.random.default_rng(45), symbol=False))
    _assert_child_runs(um.generate_homogeneous(3, 5, 1.0))
    t = broom(np.random.default_rng(46))
    _assert_child_runs(t)
    # the mixed level is cut: the 1000-child vertex with one binary one, then the other 999
    assert [runs.shape for _, runs in t.child_runs] == [(1001, 1), (1000, 2), (2, 999)]


@pytest.mark.parametrize("names, children, measures, declared, error, message", [
    (["R", "S", "a", "b"], [[2], [3], [], []], {2: 1.0, 3: 1.0}, None,
     um.MalformedSpec, "expected exactly one root, found 2"),
    (["R", "a", "b", "X", "Y", "c", "d"], [[1, 2], [], [], [4, 5], [3, 6], [], []],
     {1: 1.0, 2: 1.0, 5: 1.0, 6: 1.0}, None,
     um.Cycle, "tree is not connected (unreachable vertices)"),
    (["R", "a", "b"], [[1, 5], [], []], {1: 1.0, 2: 1.0}, None,
     um.MalformedSpec, "child index 5 out of range"),
    (["R", "a", "b"], [[1, 2, 1], [], []], {1: 1.0, 2: 1.0}, None,
     um.Cycle, "vertex 'a' referenced as child more than once"),
    (["R", "A", "a", "b"], [[1, 3], [2], [], []], {2: 1.0, 3: 1.0}, None,
     um.BranchingOne, "interior vertex 'A' has a single child"),
    (["R", "a", "b"], [[1, 2], [], []], {1: 1.0, 2: 1.0}, {0: 3.0},
     um.MeasureMismatch, "vertex 'R': declared measure 3.0 != children sum 2.0"),
    (["R", "a", "b"], [[1, 2], [], []], {1: 1.0, 2: 1.0}, {0: math.nan},
     um.MeasureMismatch, "vertex 'R': declared measure nan != children sum 2.0"),
])
def test_tree_errors_keep_type_and_message(names, children, measures, declared, error, message):
    with pytest.raises(um.TreeError) as e:
        from_children(names, children, measures, declared_measures=declared)
    assert type(e.value) is error
    assert str(e.value) == message


def _leaf(name, m=1.0):
    return {"id": name, "measure": m}


def _node(name, kids, **fields):
    return {"id": name, "children": kids, **fields}


@pytest.mark.parametrize("nodes, error, message", [
    ([_node("R", ["a", "b"]), _leaf("a"), _leaf("a"), _leaf("b")],
     um.DuplicateId, "duplicate vertex id 'a'"),
    ([_node("R", ["a", "zz"]), _leaf("a")], um.MalformedSpec, "unknown child id 'zz'"),
    ([_node("R", ["A", "b"]), _node("A", ["a"]), _leaf("a"), _leaf("b")],
     um.BranchingOne, "interior vertex 'A' has a single child"),
    ([_node("R", ["a", "b"]), _node("a", ["R", "b"]), _leaf("b")],
     um.Cycle, "vertex 'b' referenced as child more than once"),
    ([_node("R", ["R", "a"]), _leaf("a")], um.Cycle, "vertex 'R' referenced as child more than once"),
    ([_node("R", ["a", "b"]), _leaf("a"), _leaf("b"), _node("X", ["Y", "c"]),
      _node("Y", ["X", "Z"]), _node("Z", ["d", "e"]), _leaf("c"), _leaf("d"), _leaf("e")],
     um.Cycle, "tree is not connected (unreachable vertices)"),
    ([_node("R", ["a", "S"]), _node("S", ["R", "b"]), _leaf("a"), _leaf("b")],
     um.MalformedSpec, "expected exactly one root, found 0"),
    # several faults: the first node in document order is blamed, as by the old per-node loop
    ([_node("R", ["a", "b"]), {"id": "a"}, _node("b", ["c", "zz"]), _leaf("c")],
     um.MalformedSpec, "leaf 'a' has no measure"),
    ([_node("R", ["a", "b"]), _node("a", ["c", "zz"]), {"id": "b"}, _leaf("c")],
     um.MalformedSpec, "unknown child id 'zz'"),
    ([_node("R", ["A", "b"]), _node("A", ["a"]), _leaf("a", -1.0), _leaf("b")],
     um.BranchingOne, "interior vertex 'A' has a single child"),
    ([_node("R", ["a", "b"], measure="q"), _node("a", ["c", "d"], T=[1]), _leaf("b", 0.0)],
     um.MalformedSpec, "vertex 'R': measure 'q' is not a number"),
    ([_node("R", ["a", "b"]), _leaf("a"), ["b"]], um.MalformedSpec, 'every node needs an "id"'),
    ([_node("R", ["a", "b"], measure="nan"), _leaf("a"), _leaf("b")],
     um.MeasureMismatch, "vertex 'R': declared measure nan != children sum 2.0"),
    # integer literals past the float range are named, not repeated
    ([_node("R", ["a", "b"]), _leaf("a"), _leaf("b", 10 ** 400)],
     um.MalformedSpec, "vertex 'b': measure is out of the float range"),
    ([_node("R", ["a", "b"], measure=-10 ** 400), _leaf("a"), _leaf("b")],
     um.MalformedSpec, "vertex 'R': measure is out of the float range"),
    ([_node("R", ["a", "b"], T=10 ** 400), _leaf("a"), _leaf("b")],
     um.MalformedSpec, "vertex 'R': T is out of the float range"),
    ([_node("R", ["A", "b"]), _node("A", ["a", "c"], T=-1), _leaf("a"), _leaf("b"), _leaf("c")],
     um.MalformedSpec, "symbol value at vertex 'A' must be nonnegative, got -1.0"),
    ([_node("R", ["A", "b"], T="inf"), _node("A", ["a", "c"], T="nan"), _leaf("a"), _leaf("b"),
      _leaf("c")], um.MalformedSpec, "symbol value at vertex 'R' must be nonnegative, got inf"),
])
def test_parse_errors_keep_type_and_message(nodes, error, message):
    with pytest.raises(um.TreeError) as e:
        um.parse_tree(json.dumps({"nodes": nodes}))
    assert type(e.value) is error
    assert str(e.value) == message


def test_parse_reads_numbers_given_as_strings_and_integer_ids():
    doc = {"nodes": [{"id": 0, "children": [1, 2], "T": "1"}, {"id": 1, "measure": 1},
                     {"id": 2, "measure": "2.5e-1"}]}
    t = um.parse_tree(json.dumps(doc))
    assert t.names == ["0", "1", "2"] and children_of(t) == [(1, 2), (), ()]
    assert t.measure.tolist() == [1.25, 1.0, 0.25] and t.symbol_hint.tolist() == [1.0, 0.0, 0.0]


def test_symbol_hint_array():
    doc = {"nodes": [_node("R", ["A", "b"], T="2"), _node("A", ["a", "c"]), _leaf("a"),
                     _leaf("b", 2.0), {**_leaf("c"), "T": 5.0}]}
    t = um.parse_tree(doc)
    assert t.symbol_hint.tobytes() == np.array([2.0, math.nan, 0.0, 0.0, 0.0]).tobytes()
    assert not t.symbol_hint.flags.writeable
    del doc["nodes"][0]["T"]
    assert um.parse_tree(doc).symbol_hint is None  # a leaf's "T" is not read
