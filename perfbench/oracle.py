"""Independent references for the benchmark's per-op output checks.

Everything here runs in the benchmark's parent process, never in the
workload process, so no reference adds to the measured peak memory.  The
references use only the generated ``Shape`` (the document the program read)
and their own O(n) recurrences; the library is used only for the
``kernel_bruteforce`` spot checks.

Each ``check_*`` returns ``None`` when the output is right and a one-line
reason when it is not.
"""

from __future__ import annotations

import json
import math
import random

import numpy as np

_RTOL = 1e-9
BRUTE_PAIRS = 3        # leaf pairs checked against kernel_bruteforce, plus one diagonal
BRUTE_MAX_DEPTH = 64   # deepest leaf those pairs draw from


def spectrum_ref(shape) -> list:
    """Eigenvalue per interior vertex: lambda_c = lambda_p + nu(c) (T(c) - T(p))."""
    lam = [None] * shape.n_vertices
    for v in shape.preorder():
        if not shape.children[v]:
            continue
        p = shape.parent[v]
        lam[v] = (shape.T[v] * shape.measure[v] if p < 0
                  else lam[p] + shape.measure[v] * (shape.T[v] - shape.T[p]))
    return lam


def kernel_ref(shape, lam) -> tuple[list, list]:
    """Kernel profile K per vertex and the magnitude of its terms.

    Top-down: A(c) = A(p) + lambda_p^-2 (1/nu(c) - 1/nu(p)) with A(root) = 0,
    then K(S) = A(S) - lambda_S^-2 / nu(S) on interior S and K(x) = A(x) on
    leaves.  A is a sum of positive terms, so A plus the subtracted term
    bounds the rounding error of either summation order.
    """
    n = shape.n_vertices
    A = [0.0] * n
    K = [0.0] * n
    scale = [0.0] * n
    nu = shape.measure
    for v in shape.preorder():
        p = shape.parent[v]
        if p >= 0:
            A[v] = A[p] + lam[p] ** -2 * (1.0 / nu[v] - 1.0 / nu[p])
        if shape.children[v]:
            tail = lam[v] ** -2 / nu[v]
            K[v] = A[v] - tail
            scale[v] = A[v] + tail
        else:
            K[v] = scale[v] = A[v]
    return K, scale


def _sup(shape, depth, x, y) -> int:
    while x != y:
        if depth[x] >= depth[y]:
            x = shape.parent[x]
        else:
            y = shape.parent[y]
    return x


def bruteforce_pairs(shape, doc_path, seed) -> list:
    """K(x, y) from the library's wavelet-sum oracle for a few leaf pairs.

    Pairs are drawn among leaves at depth <= BRUTE_MAX_DEPTH, because the oracle
    walks from each leaf towards every wavelet's vertex, and one diagonal
    pair (the point variance) is included.  Returns (sup vertex, value).
    """
    import umfield as um

    t = um.load_tree(doc_path)
    sp = um.spectrum(t, um.symbol_from_tree(t))
    basis = um.build_basis(t)
    depth = shape.depths()
    shallow = [v for v in range(shape.n_vertices)
               if not shape.children[v] and depth[v] <= BRUTE_MAX_DEPTH]
    rng = random.Random(seed)
    pairs = [tuple(rng.sample(shallow, 2)) for _ in range(BRUTE_PAIRS)]
    pairs.append((pairs[0][0], pairs[0][0]))
    out = []
    for x, y in pairs:
        value = um.kernel_bruteforce(t, sp, basis, t.name_to_id[f"v{x}"], t.name_to_id[f"v{y}"])
        out.append((_sup(shape, depth, x, y), value))
    return out


def _csv_rows(text, header):
    lines = text.split("\n")
    if lines[0] != header:
        raise ValueError(f"header {lines[0][:60]!r} != {header!r}")
    if lines[-1] != "":
        raise ValueError("output does not end with a newline")
    return [ln.split(",") for ln in lines[1:-1]]


def check_kernel(shape, text, K, scale, brute) -> str | None:
    """The `kernel --pairs profile` CSV against the recurrence and the spot checks."""
    try:
        rows = _csv_rows(text, "vertex_id,nu,K")
        order = shape.preorder()
        if len(rows) != len(order):
            return f"{len(rows)} rows for {len(order)} vertices"
        got = {}
        for (name, nu, k), v in zip(rows, order):
            if name != f"v{v}":
                return f"row for {name} where v{v} was expected"
            if abs(float(nu) - shape.measure[v]) > 1e-12 * shape.measure[v]:
                return f"nu at {name}: {nu} != {shape.measure[v]!r}"
            got[v] = float(k)
    except ValueError as e:
        return f"unparsable kernel output: {e}"
    for v, k in got.items():
        if not abs(k - K[v]) <= _RTOL * scale[v]:
            return f"K at v{v}: {k!r} != recurrence {K[v]!r}"
    for s, value in brute:
        if not abs(got[s] - value) <= _RTOL * scale[s]:
            return f"K at v{s}: {got[s]!r} != kernel_bruteforce {value!r}"
    return None


class SynthesisRef:
    """Field samples rebuilt from the seed by a per-vertex wavelet synthesis.

    For every interior vertex the weighted Helmert wavelets give each child a
    value per coefficient; the field at a leaf is the sum of those child
    values along its root path, accumulated top-down one depth level at a
    time.  Coefficients are drawn exactly as the CLI draws them: one stream
    per sample from SeedSequence([seed, i]), in canonical order (interior
    vertices in preorder, wavelet index ascending).
    """

    def __init__(self, shape, lam):
        order = shape.preorder()
        rows, cols, vals = [], [], []
        k = 0
        for v in order:
            kids = shape.children[v]
            if not kids:
                continue
            nu = [shape.measure[c] for c in kids]
            s = nu[0]
            for j in range(1, len(kids)):
                alpha = 1.0 / math.sqrt(1.0 / s + 1.0 / nu[j])
                for m in range(j):
                    rows.append(kids[m])
                    cols.append(k)
                    vals.append(alpha / s / lam[v])
                rows.append(kids[j])
                cols.append(k)
                vals.append(-alpha / nu[j] / lam[v])
                s += nu[j]
                k += 1
        self.n_wavelets = k
        self.n_vertices = shape.n_vertices
        self.rows = np.array(rows, dtype=np.int64)
        self.cols = np.array(cols, dtype=np.int64)
        self.vals = np.array(vals)
        depth = shape.depths()
        self.levels = []
        for d in range(1, max(depth) + 1):
            at = np.array([v for v in order if depth[v] == d], dtype=np.int64)
            self.levels.append((at, np.array([shape.parent[v] for v in at], dtype=np.int64)))
        self.leaves = np.array([v for v in order if not shape.children[v]], dtype=np.int64)
        self.leaf_names = [f"v{v}" for v in self.leaves]
        self.leaf_measure = np.array([shape.measure[v] for v in self.leaves])

    def values(self, seed, i) -> np.ndarray:
        d = np.random.default_rng(np.random.SeedSequence([seed, i])).standard_normal(
            self.n_wavelets)
        acc = np.bincount(self.rows, weights=self.vals * d[self.cols],
                          minlength=self.n_vertices)
        for at, par in self.levels:
            acc[at] += acc[par]
        return acc[self.leaves]


def check_sample(ref: SynthesisRef, text, seed, count) -> str | None:
    """The `sample` CSV: layout, zero weighted mean and the synthesized values."""
    n = len(ref.leaf_names)
    try:
        rows = _csv_rows(text, "sample_index,leaf_id,value")
        if len(rows) != count * n:
            return f"{len(rows)} rows for {count} samples of {n} leaves"
        for i in range(count):
            block = rows[i * n:(i + 1) * n]
            if any(r[0] != str(i) for r in block):
                return f"sample index column wrong in sample {i}"
            if [r[1] for r in block] != ref.leaf_names:
                return f"leaf ids out of order in sample {i}"
            got = np.array([float(r[2]) for r in block])
            want = ref.values(seed, i)
            weighted = ref.leaf_measure * got
            if not abs(math.fsum(weighted)) <= _RTOL * math.fsum(np.abs(weighted)):
                return f"sample {i}: weighted mean {math.fsum(weighted)!r} is not zero"
            err = float(np.abs(got - want).max())
            if not err <= _RTOL * float(np.abs(want).max()):
                return f"sample {i}: max deviation {err!r} from the synthesis"
    except (ValueError, IndexError) as e:
        return f"unparsable sample output: {e}"
    return None


def check_markov(text, trials, seed) -> str | None:
    """The `verify markov` report: passed, with every requested trial run.

    Every instance's true value is 0, so a pass alone cannot tell a computed
    n^2 sum from one that was skipped.  An exact sum of the rounded terms
    leaves a residue (1e-28 to 1e-23 of the scale); a report whose largest
    scaled value over all trials is exactly 0.0 is taken as a skipped sum.
    """
    try:
        report = json.loads(text)
    except ValueError as e:
        return f"unparsable markov report: {e}"
    if not isinstance(report, dict):
        return "markov report is not an object"
    if report.get("check") != "markov" or report.get("seed") != seed:
        return f"report for {report.get('check')!r} seed {report.get('seed')!r}"
    if report.get("pass") is not True:
        return f"markov check did not pass: {report.get('max_scaled_value')!r}"
    if report.get("trials") != trials:
        return f"{report.get('trials')!r} trials run, {trials} requested"
    if report.get("max_scaled_value") == 0.0:
        return "every bilinear sum is exactly 0.0: the n^2 sum was not computed"
    return None
