"""Span tracing of umfield's layers, installed from outside the package.

``Tracer.install`` wraps the public functions and methods named in
``TRACED`` so each call records a span (op, id, parent, name, start, end,
result size).  A function is replaced under every name that refers to it in
any loaded ``umfield`` module, so names re-bound with ``from ... import``
are traced too; methods are replaced on their class.  Spans stay in memory
until the workload process writes them out at the end.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute or Class.method, span name)
TRACED = (
    ("umfield.cli", "main", "cli"),
    ("umfield.tree", "load_tree", "tree.parse"),
    ("umfield.tree", "parse_tree", "tree.parse"),
    ("umfield.tree", "BallTree.sup", "tree.sup"),
    ("umfield.tree", "BallTree.child_toward", "tree.sup"),
    ("umfield.tree", "BallTree.sup_index_matrix", "tree.sup_matrix"),
    ("umfield.wavelets", "build_basis", "wavelets.build"),
    ("umfield.wavelets", "WaveletBasis.wavelet_leaf_matrix", "wavelets.matrix"),
    ("umfield.pdo", "symbol_from_tree", "pdo.symbol"),
    ("umfield.pdo", "spectrum", "pdo.spectrum"),
    ("umfield.field", "covariance_kernel", "field.kernel"),
    ("umfield.field", "sample_field", "field.sample"),
    ("umfield.field", "bilinear_form", "field.bilinear"),
    ("umfield.field", "markov_check", "field.markov"),
    ("umfield.field", "random_markov_instance", "field.markov_instance"),
)


class Tracer:
    """Records nested spans; ``op`` tags every span with the current command."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [self.op, sid, parent, name, self.clock(), None, None]
            self.spans.append(span)
            self._stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = self.clock()
                self._stack.pop()
            nbytes = getattr(result, "nbytes", None)
            if nbytes is not None:
                span[6] = [id(result), int(nbytes)]
            return result
        return traced

    def install(self) -> None:
        """Wrap every entry of TRACED in the umfield modules already imported."""
        modules = [m for k, m in sys.modules.items()
                   if k == "umfield" or k.startswith("umfield.")]
        for modname, attr, name in TRACED:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth)))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is original:
                        setattr(m, key, wrapped)


# ------------------------------------------------------------ span arithmetic

def union_length(intervals) -> float:
    """Total length covered by a set of [start, end] intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(span, children) -> float:
    """A span's duration minus the part of it that its child spans cover."""
    lo, hi = span[4], span[5]
    inside = [(max(c[4], lo), min(c[5], hi)) for c in children
              if c[5] > lo and c[4] < hi]
    return (hi - lo) - union_length(inside)


def layer_totals(spans, name: str) -> dict:
    """Busy time, outermost call count, self time and distinct result bytes of one layer.

    A call nested inside another call of the same layer (``load_tree``
    calling ``parse_tree``) counts once and its time once.
    """
    by_id = {s[1]: s for s in spans}
    children: dict = {}
    for s in spans:
        if s[2] is not None:
            children.setdefault(s[2], []).append(s)

    def nested_in_same(s):
        p = s[2]
        while p is not None:
            if by_id[p][3] == name:
                return True
            p = by_id[p][2]
        return False

    mine = [s for s in spans if s[3] == name]
    outer = [s for s in mine if not nested_in_same(s)]
    busy = sum(s[5] - s[4] for s in outer)
    own = sum(self_time(s, children.get(s[1], ())) for s in mine)
    results = {(s[0], s[6][0]): s[6][1] for s in mine if s[6] is not None}
    return {"busy_s": busy, "calls": len(outer), "self_s": own,
            "bytes": sum(results.values())}
