import json
import random
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


def children_of(t):
    """The child ids of each vertex of t as a tuple, read from its CSR arrays."""
    kids = t.child_ids.tolist()
    return [tuple(kids[a:a + k]) for a, k in zip(t.child_first.tolist(), t.child_count.tolist())]


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


def generate_random(seed, max_depth, max_branching):
    """Random ball-tree, deterministic given the seed.

    Every interior vertex gets 2..max_branching children; a non-root vertex
    above max_depth becomes interior with probability 0.6.  Leaf measures
    are uniform in [0.1, 1.0].  Vertex ids are the preorder, and each vertex
    draws its numbers when it gets its id.
    """
    rng = random.Random(seed)
    names, children, leaf_measures = [], [], []
    stack = [(None, 0)]  # (parent, level) of the vertices still to be reached, next on top
    while stack:
        parent, level = stack.pop()
        v = len(names)
        names.append(f"v{v}")
        children.append([])
        if parent is not None:
            children[parent].append(v)
        if level < max_depth and (level == 0 or rng.random() < 0.6):
            stack += [(v, level + 1)] * rng.randint(2, max_branching)
        else:
            leaf_measures.append(rng.uniform(0.1, 1.0))
    return um.BallTree(names, list(map(len, children)), [c for k in children for c in k],
                       leaf_measures, label=f"random(seed={seed})")


def random_trees(seeds, max_depth=4, max_branching=3):
    for seed in seeds:
        yield generate_random(seed, max_depth, max_branching)


def random_symbol(t, seed, low=0.0, high=2.0):
    """Symbol uniform in [low, high) on the interior vertices, drawn in preorder."""
    T = np.zeros(t.n_vertices)
    T[t.interior] = np.random.default_rng(seed).uniform(low, high, len(t.interior))
    return um.Symbol(T)


@st.composite
def split_trees(draw, measure=st.floats(0.01, 10.0), symbol=None):
    """Random ball-tree grown by splitting a random leaf into 2-6 children.

    Leaf measures are drawn from ``measure``; when ``symbol`` is given, every
    interior vertex carries a "T" value drawn from it, in ``symbol_hint``.
    """
    children = [[]]
    for _ in range(draw(st.integers(1, 10))):
        leaves = [v for v, kids in enumerate(children) if not kids]
        v = draw(st.sampled_from(leaves))
        k = draw(st.integers(2, 6))
        children[v] = list(range(len(children), len(children) + k))
        children.extend([] for _ in range(k))
    measures = {v: draw(measure) for v, kids in enumerate(children) if not kids}
    hint = None
    if symbol is not None:  # a None draw is an interior vertex without "T", NaN in the array
        hint = np.array([draw(symbol) if kids else 0.0 for kids in children], dtype=float)
    return from_children([f"v{v}" for v in range(len(children))], children, measures,
                         symbol_hint=hint)


def caterpillar(depth, rng, symbol=True, branch=False):
    """Caterpillar of the given depth, parsed from a document; the spine child alternates sides.

    Deeper than the recursion limit for depth >= 1000.  Leaf measures are
    uniform in [0.1, 1.0]; with ``symbol``, each spine vertex carries a "T"
    uniform in [0.5, 2.0], drawn before its leaf's measure.  With ``branch``,
    the root's side child x0 is an interior vertex over two leaves of
    measure 0.25 and T 1.0, so the interior vertices are not one path.
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
    if branch:
        nodes[1] = {"id": "x0", "children": ["y0", "y1"], **({"T": 1.0} if symbol else {})}
        nodes += [{"id": "y0", "measure": 0.25}, {"id": "y1", "measure": 0.25}]
    t = um.parse_tree(json.dumps({"nodes": nodes}))
    assert t.depth.max() == depth
    return t


def star(n_children, rng, symbol=True):
    """Root over n_children leaves with measures uniform in [0.1, 1.0]; with ``symbol``, T = 1.5."""
    measures = {v: float(rng.uniform(0.1, 1.0)) for v in range(1, n_children + 1)}
    return from_children([f"v{v}" for v in range(n_children + 1)],
                         [list(range(1, n_children + 1))] + [[]] * n_children, measures,
                         symbol_hint=np.r_[1.5, np.zeros(n_children)] if symbol else None)


def broom(rng):
    """A root over one vertex with 1000 leaf children and 1000 vertices with two each: one
    level that mixes a very wide vertex with many narrow ones.  Leaf measures are uniform in
    [0.1, 1.0]; T = 1.5 on every interior vertex."""
    children = [list(range(1, 1002)), list(range(1002, 2002))]
    children += [[v, v + 1] for v in range(2002, 4002, 2)]
    children += [[]] * (4002 - len(children))
    measures = {v: float(rng.uniform(0.1, 1.0)) for v, kids in enumerate(children) if not kids}
    hint = np.array([1.5 if kids else 0.0 for kids in children])
    return from_children([f"v{v}" for v in range(len(children))], children, measures,
                         symbol_hint=hint)


def euler_ranks_reference(count, first, kids, owner, root):
    """Preorder, depth, lo and hi ranked on the Euler tour with two events per vertex, as
    ``BallTree`` ranked it before a leaf's enter and exit became one event.

    Event v enters vertex v and event n + v leaves it; pointer jumping over the 2n events gives
    each its place, and the fields are counts of the events before a place.  Raises
    ``um.Cycle`` when the root does not reach every event."""
    n = len(count)
    end = 2 * n  # a sentinel after exit(root), linked to itself
    nxt = np.empty(end + 1, dtype=np.intp)
    nxt[:n] = np.arange(n, end)
    inner = np.flatnonzero(count)
    nxt[inner] = kids[first[inner]]
    after = n + owner
    sib = np.flatnonzero(np.arange(1, len(kids) + 1) < (first + count)[owner])
    after[sib] = kids[sib + 1]
    nxt[n + kids] = after
    nxt[n + root] = end
    nxt[end] = end
    left = np.ones(end + 1, dtype=np.intp)
    left[end] = 0
    for _ in range((end - 1).bit_length()):
        left += left[nxt]
        nxt = nxt[nxt]
    if np.any(nxt[:end] != end):
        raise um.Cycle("tree is not connected (unreachable vertices)")
    place = end - left[:end]
    enter, leave = place[:n], place[n:]
    vertex_at = np.full(2 * n, n, dtype=np.intp)
    vertex_at[enter] = np.arange(n)
    order = vertex_at[vertex_at < n]
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    leaves_before = np.zeros(2 * n + 1, dtype=np.intp)
    leaves_before[enter[count == 0] + 1] = 1
    np.cumsum(leaves_before, out=leaves_before)
    return order, 2 * rank - enter, leaves_before[enter], leaves_before[leave]


def slot_levels_reference(t):
    """The non-root vertices in groups of one depth and one child slot, with their parents.

    The schedule that the subtree-sum passes walked before ``BallTree.child_runs``, as first
    built: np.array over the lists, an argsort of depth * n + slot.  Groups come by depth, then
    slot, each in id order; no two vertices of a group share a parent."""
    n = t.n_vertices
    slot = [0] * n
    for kids in children_of(t):
        for i, c in enumerate(kids):
            slot[c] = i
    key = t.depth * n + np.array(slot)
    below = np.argsort(key, kind="stable")[1:]
    key = key[below]
    parent = t.parent
    return [(group, parent[group])
            for group in np.split(below, np.flatnonzero(key[1:] != key[:-1]) + 1)]


def preorder_spectrum(t, s):
    """The eigenvalues by the per-vertex preorder recurrence that the level passes replaced:
    A(root) = 0, A(v) = A(parent) + T(parent) sigma(v) with sigma the summed sibling measures,
    and lambda = A + T nu.  Returns a list over all vertices."""
    T = s.values.tolist()
    measure = t.measure.tolist()
    sigma = [0.0] * t.n_vertices
    for kids in children_of(t):  # running sums along the child list, as the library takes them
        earlier = 0.0
        for c in kids:
            sigma[c] = earlier
            earlier += measure[c]
        later = 0.0
        for c in reversed(kids):
            sigma[c] += later
            later += measure[c]
    A = [0.0] * t.n_vertices
    parent = t.parent.tolist()
    for v in t.interior[1:].tolist():  # preorder: parent precedes child
        p = parent[v]
        A[v] = A[p] + T[p] * sigma[v]
    return [a + x * m for a, x, m in zip(A, T, measure)]


def log_uniform_measures(exponent):
    """A strategy for a seeded draw of n leaf measures 10^e, e uniform in [-x, x] for an x drawn
    from ``exponent``; returns the function n -> measures."""
    def draw_n(seed, x):
        return lambda n: (10.0 ** np.random.default_rng(seed).uniform(-x, x, n)).tolist()

    return st.tuples(st.integers(0, 2 ** 32 - 1), exponent).map(lambda sx: draw_n(*sx))


@st.composite
def wide_stars(draw, measures=log_uniform_measures(st.floats(0, 300))):
    """A root over 1000-3000 leaves, T = 1.5."""
    n = draw(st.integers(1000, 3000))
    m = draw(measures)(n)
    return from_children([f"v{v}" for v in range(n + 1)], [list(range(1, n + 1))] + [[]] * n,
                         dict(zip(range(1, n + 1), m)), symbol_hint=np.r_[1.5, np.zeros(n)])


@st.composite
def chains(draw, measures=log_uniform_measures(st.floats(0, 300)), symbol_exponent=3.0,
           depths=st.integers(2, 300), arity=2):
    """A caterpillar of 2-300 (``depths``) spine vertices of ``arity`` children each, its leaves
    and the next spine vertex at a random place, the last one over ``arity`` leaves: its
    interior vertices are one path.  T is log-uniform over 10^-x...10^x for x =
    ``symbol_exponent``."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    depth = draw(depths)
    children = []
    for d in range(depth):
        kids = list(range(arity * d + 1, arity * d + arity))
        kids.insert(int(rng.integers(arity)), arity * (d + 1))
        children.append(kids)
        children.extend([] for _ in range(arity - 1))
    children.append([])
    leaf_ids = [u for u, kids in enumerate(children) if not kids]
    x = symbol_exponent
    hint = np.array([10.0 ** rng.uniform(-x, x) if kids else 0.0 for kids in children])
    return from_children([f"v{u}" for u in range(len(children))], children,
                         dict(zip(leaf_ids, draw(measures)(len(leaf_ids)))), symbol_hint=hint)


@st.composite
def hung_caterpillars(draw, measures=log_uniform_measures(st.floats(0, 300)),
                      top=st.integers(5, 7), levels=st.integers(1, 80), bottom=st.integers(0, 6)):
    """A bush (each interior vertex with 2 to ``arity`` children, ``arity`` drawn from 2-4) of
    depth 5-7 (``top``), a caterpillar of 1-80 levels (``levels``) hung under one of its leaves,
    and a second bush of depth 0-6 (``bottom``) under the caterpillar's last vertex.  The
    bushes' lower levels are mostly wide enough for whole-array steps and the caterpillar's are
    narrow.  T is log-uniform over 1e-3...1e3."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    arity = draw(st.integers(2, 4))
    children = [[]]

    def grow(v, depth):
        level = [v]
        for _ in range(depth):
            below = []
            for u in level:
                k = int(rng.integers(2, arity + 1))
                children[u] = list(range(len(children), len(children) + k))
                children.extend([] for _ in range(k))
                below += children[u]
            level = below
        return level

    leaves = grow(0, draw(top))
    v = leaves[draw(st.integers(0, len(leaves) - 1))]
    for _ in range(draw(levels)):
        children[v] = [len(children), len(children) + 1]
        children.extend([[], []])
        v = children[v][int(rng.integers(2))]
    grow(v, draw(bottom))
    leaf_ids = [u for u, kids in enumerate(children) if not kids]
    hint = np.array([10.0 ** rng.uniform(-3, 3) if kids else 0.0 for kids in children])
    return from_children([f"v{u}" for u in range(len(children))], children,
                         dict(zip(leaf_ids, draw(measures)(len(leaf_ids)))), symbol_hint=hint)
