import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

import umfield as um

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
T2_PATH = FIXTURES / "T2.json"


@pytest.fixture(scope="session")
def t2():
    return um.load_tree(T2_PATH)


@pytest.fixture(scope="session")
def t2_ids(t2):
    return {name: t2.name_to_id[name] for name in ("R", "A", "B", "a1", "a2", "b1", "b2")}


@pytest.fixture(scope="session")
def t2_basis(t2):
    return um.build_basis(t2)


@pytest.fixture(scope="session")
def t2_symbol(t2):
    return um.symbol_from_tree(t2)


@pytest.fixture(scope="session")
def t2_spectrum(t2, t2_symbol):
    return um.spectrum(t2, t2_symbol)


def leaf_vec(t, **named_values):
    """Leaf-order vector with the given values at the named leaves."""
    v = np.zeros(t.n_leaves)
    pos = {t.names[l]: i for i, l in enumerate(t.leaf_order)}
    for name, val in named_values.items():
        v[pos[name]] = val
    return v


def dense_row(basis, k):
    """Dense leaf vector of wavelet row k (via evaluate, the slow path)."""
    t = basis.tree
    return np.array([um.evaluate(basis, k, x) for x in t.leaf_order])


def from_children(names, children, leaf_measures, **kw):
    """BallTree from per-vertex child lists and a {leaf id: measure} map."""
    return um.BallTree(names, [len(k) for k in children], [c for k in children for c in k],
                       [leaf_measures[v] for v, k in enumerate(children) if not k], **kw)


def homogeneous_reference(p, depth, total_measure):
    """The recursive generator that ``generate_homogeneous`` replaced: a vertex gets its id
    when it is reached in preorder, and child i of the vertex named nm is named nm.i.

    Returns the names, the child lists and the {leaf id: measure} map.
    """
    names, children, measures = [], [], {}
    atom = total_measure / p ** depth

    def add(name, level):
        v = len(names)
        names.append(name)
        children.append([])
        if level < depth:
            children[v] = [add(f"{name}.{i}", level + 1) for i in range(p)]
        else:
            measures[v] = atom
        return v

    add("R", 0)
    return names, children, measures


def random_trees(seeds, max_depth=4, max_branching=3):
    for seed in seeds:
        yield um.generate_random(seed, max_depth, max_branching)


@st.composite
def split_trees(draw, measure=st.floats(0.01, 10.0), symbol=None):
    """Random ball-tree grown by splitting a random leaf into 2-6 children.

    Leaf measures are drawn from ``measure``; when ``symbol`` is given, every
    interior vertex carries a "T" value drawn from it.
    """
    children = [[]]
    for _ in range(draw(st.integers(1, 10))):
        leaves = [v for v, kids in enumerate(children) if not kids]
        v = draw(st.sampled_from(leaves))
        k = draw(st.integers(2, 6))
        children[v] = list(range(len(children), len(children) + k))
        children.extend([] for _ in range(k))
    measures = {v: draw(measure) for v, kids in enumerate(children) if not kids}
    hint = None if symbol is None else {v: draw(symbol) for v, kids in enumerate(children) if kids}
    return from_children([f"v{v}" for v in range(len(children))], children, measures,
                         symbol_hint=hint)


def caterpillar(depth, rng, symbol=True):
    """Caterpillar of the given depth, parsed from a document; the spine child alternates sides.

    Deeper than the recursion limit for depth >= 1000.  Leaf measures are
    uniform in [0.1, 1.0]; with ``symbol``, each spine vertex carries a "T"
    uniform in [0.5, 2.0], drawn before its leaf's measure.
    """
    nodes = []
    for d in range(depth):
        kids = [f"s{d + 1}", f"x{d}"] if d % 2 else [f"x{d}", f"s{d + 1}"]
        node = {"id": f"s{d}", "children": kids}
        if symbol:
            node["T"] = float(rng.uniform(0.5, 2.0))
        nodes.append(node)
        nodes.append({"id": f"x{d}", "measure": float(rng.uniform(0.1, 1.0))})
    nodes.append({"id": f"s{depth}", "measure": 0.5})
    t = um.parse_tree(json.dumps({"nodes": nodes}))
    assert max(t.depth) == depth
    return t


def star(n_children, rng, symbol=True):
    """Root over n_children leaves with measures uniform in [0.1, 1.0]; with ``symbol``, T = 1.5."""
    measures = {v: float(rng.uniform(0.1, 1.0)) for v in range(1, n_children + 1)}
    return from_children([f"v{v}" for v in range(n_children + 1)],
                         [list(range(1, n_children + 1))] + [[]] * n_children, measures,
                         symbol_hint={0: 1.5} if symbol else None)
