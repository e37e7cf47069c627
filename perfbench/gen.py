"""Seeded, iterative generators for the benchmark's tree documents.

The library's own generators recurse (a deep chain hits ``RecursionError``)
and ``--gen`` forces a constant symbol, so the benchmark builds its inputs
here.  Every generator returns a ``Shape``: plain parent/children/measure/T
arrays that the oracles use directly, plus the JSON document the program
reads.  The same seed always gives the same document.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

T_RANGE = (0.5, 2.0)            # symbol T on interior vertices, every shape
BINARY_MEASURES = (0.5, 2.0)    # leaf measures of the perfect binary tree
OTHER_MEASURES = (0.1, 1.0)     # leaf measures of the caterpillar and the random tree
BRANCHING = (2, 5)              # children per split of the random tree


@dataclass(frozen=True)
class Shape:
    """A generated tree in the benchmark's own flat form.

    Vertex ``v`` is the ``v``-th node of the document and is named ``v<v>``.
    ``measure`` holds leaf measures and exact children sums; ``T`` is
    ``None`` on leaves.
    """
    name: str
    children: tuple
    parent: tuple
    measure: tuple
    T: tuple

    @property
    def n_vertices(self) -> int:
        return len(self.children)

    def preorder(self) -> list[int]:
        """Depth-first preorder in canonical child order (the library's order)."""
        order, stack = [], [0]
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(reversed(self.children[v]))
        return order

    def depths(self) -> list[int]:
        depth = [0] * self.n_vertices
        for v in self.preorder():
            for c in self.children[v]:
                depth[c] = depth[v] + 1
        return depth

    def stats(self) -> dict:
        leaves = sum(1 for k in self.children if not k)
        return {"vertices": self.n_vertices, "leaves": leaves,
                "max_depth": max(self.depths())}

    def to_json(self) -> str:
        nodes = []
        for v, kids in enumerate(self.children):
            if kids:
                nodes.append({"id": f"v{v}", "children": [f"v{c}" for c in kids],
                              "T": self.T[v]})
            else:
                nodes.append({"id": f"v{v}", "measure": self.measure[v]})
        return json.dumps({"name": self.name, "nodes": nodes})


def _finish(name, children, leaf_measure, rng) -> Shape:
    n = len(children)
    parent = [-1] * n
    for v, kids in enumerate(children):
        for c in kids:
            parent[c] = v
    measure = [0.0] * n
    T = [None] * n
    order, stack = [], [0]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(children[v])
    for v in reversed(order):
        if children[v]:
            measure[v] = math.fsum(measure[c] for c in children[v])
        else:
            measure[v] = leaf_measure[v]
    for v in range(n):
        if children[v]:
            T[v] = rng.uniform(*T_RANGE)
    return Shape(name, tuple(tuple(k) for k in children), tuple(parent),
                 tuple(measure), tuple(T))


def binary(seed: int, depth: int) -> Shape:
    """Perfect binary tree with 2**depth leaves, random leaf measures and T."""
    rng = random.Random(seed)
    n = 2 ** (depth + 1) - 1
    children = [[2 * v + 1, 2 * v + 2] if 2 * v + 2 < n else [] for v in range(n)]
    leaf_measure = {v: rng.uniform(*BINARY_MEASURES) for v in range(n) if not children[v]}
    return _finish(f"binary(depth={depth},seed={seed})", children, leaf_measure, rng)


def caterpillar(seed: int, depth: int) -> Shape:
    """Chain of ``depth`` interior vertices, each with one leaf and the next link.

    The last interior vertex has two leaves, so the deepest leaf sits at
    ``depth`` and the tree has ``2 * depth + 1`` vertices.
    """
    rng = random.Random(seed)
    # link d is vertex 2d; its children are its leaf 2d+1 and the next link
    # 2d+2, which for the last link is the final leaf
    n = 2 * depth + 1
    children = [[v + 1, v + 2] if v % 2 == 0 and v < n - 1 else [] for v in range(n)]
    leaf_measure = {v: rng.uniform(*OTHER_MEASURES) for v in range(len(children))
                    if not children[v]}
    return _finish(f"caterpillar(depth={depth},seed={seed})", children, leaf_measure, rng)


def random_tree(seed: int, min_leaves: int) -> Shape:
    """Random tree grown by splitting a uniformly chosen leaf into 2..5 children.

    Growth stops at the first split that reaches ``min_leaves`` leaves, so the
    tree has between ``min_leaves`` and ``min_leaves + BRANCHING[1] - 2``
    leaves.
    """
    rng = random.Random(seed)
    children = [[]]
    leaves = [0]
    while len(leaves) < min_leaves:
        i = rng.randrange(len(leaves))
        v = leaves[i]
        leaves[i] = leaves[-1]
        leaves.pop()
        k = rng.randint(*BRANCHING)
        kids = list(range(len(children), len(children) + k))
        children.extend([] for _ in kids)
        children[v] = kids
        leaves.extend(kids)
    leaf_measure = {v: rng.uniform(*OTHER_MEASURES) for v in range(len(children))
                    if not children[v]}
    return _finish(f"random(min_leaves={min_leaves},seed={seed})", children, leaf_measure, rng)
