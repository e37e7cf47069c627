"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every criterion also asserts, so a plain `pytest` run enforces them.
"""

import math

import numpy as np
import pytest

import umfield as um

from conftest import T2_PATH, generate_random, leaf_vec, random_symbol


def _report(num, name, ok, detail=""):
    line = f"[acceptance] criterion {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def t2():
    return um.load_tree(T2_PATH)


def _random_suite(seeds, max_depth=4, max_branching=4, low=0.0, high=2.0):
    for seed in seeds:
        t = generate_random(seed, max_depth, max_branching)
        assert t.n_leaves <= 256
        yield t, random_symbol(t, seed, low, high)


def test_criterion_1_eigenrelation(t2):
    worst = um.verify_eigen(t2, um.symbol_from_tree(t2), um.build_basis(t2))
    const_resid = float(np.abs(um.apply_dense(t2, um.symbol_from_tree(t2),
                                              np.ones(t2.n_leaves))).max())
    for t, s in _random_suite(range(1, 51)):
        basis = um.build_basis(t)
        worst = max(worst, um.verify_eigen(t, s, basis))
        scale = s.values.max() * t.total_measure
        c = float(np.abs(um.apply_dense(t, s, np.ones(t.n_leaves))).max())
        const_resid = max(const_resid, c / max(1.0, scale))
    _report(1, "eigenrelation", worst <= 1e-9 and const_resid <= 1e-12,
            f"max residual {worst:.3g}, constant residual {const_resid:.3g}")


def test_criterion_2_spectrum_closed_form(t2):
    s2 = um.symbol_from_tree(t2)
    sp2 = um.spectrum(t2, s2)
    ids = t2.name_to_id
    anchors = (abs(sp2[ids["R"]] - 1.0) <= 1e-12
               and abs(sp2[ids["A"]] - 1.5) <= 1e-12
               and abs(sp2[ids["B"]] - 1.5) <= 1e-12)
    worst = 0.0
    for t, s in _random_suite(range(1, 31), max_depth=3, max_branching=4):
        assert t.n_leaves <= 128
        sp = um.spectrum(t, s)
        M = um.dense_operator_matrix(t, s)
        r = np.sqrt(t.leaf_measures)
        B = (r[:, None] * M) / r[None, :]
        got = np.sort(np.linalg.eigvalsh((B + B.T) / 2))
        want = [0.0]
        for I in t.interior:
            want.extend([sp[I]] * (int(t.child_count[I]) - 1))
        worst = max(worst, float(np.abs(got - np.sort(np.array(want))).max()))
    _report(2, "spectrum closed form", anchors and worst <= 1e-8,
            f"T2 anchors {'ok' if anchors else 'BAD'}, max multiset dev {worst:.3g}")


def test_criterion_3_covariance_formula(t2):
    worst = 0.0
    anchors_ok = True
    suites = [(t2, um.symbol_from_tree(t2))]
    suites += list(_random_suite(range(1, 51), low=0.2, high=2.0))
    for t, s in suites:
        sp = um.spectrum(t, s)
        basis = um.build_basis(t)
        kern = um.covariance_kernel(t, sp)
        scale = max(1.0, kern.max_abs())
        for x in t.leaf_order:
            for y in t.leaf_order:
                bf = um.kernel_bruteforce(t, sp, basis, x, y)
                worst = max(worst, abs(kern.values[t.sup(x, y)] - bf) / scale)
    sp2 = um.spectrum(t2, um.symbol_from_tree(t2))
    ids = t2.name_to_id
    anchors_ok = (abs(um.kernel_value(t2, sp2, ids["A"]) - 1 / 9) <= 1e-12
                  and abs(um.kernel_value(t2, sp2, ids["R"]) + 1.0) <= 1e-12
                  and abs(um.kernel_value(t2, sp2, ids["a1"]) - 17 / 9) <= 1e-12)
    _report(3, "covariance formula", worst <= 1e-10 and anchors_ok,
            f"max oracle dev {worst:.3g}, T2 anchors {'ok' if anchors_ok else 'BAD'}")


def test_criterion_4_monte_carlo_law(t2):
    s = um.symbol_from_tree(t2)
    sp = um.spectrum(t2, s)
    basis = um.build_basis(t2)
    res = um.empirical_covariance(t2, sp, basis, 200000, 0)
    sigmas = float((np.abs(res.matrix - res.analytic) / res.standard_error).max())
    _report(4, "Monte Carlo law check", sigmas <= 5.0,
            f"worst entry at {sigmas:.2f} standard errors, pair {res.worst_pair}")


def test_criterion_5_stochastic_equation(t2):
    s2 = um.symbol_from_tree(t2)
    worst = um.check_equation(t2, s2, um.spectrum(t2, s2), um.build_basis(t2), 0)[0]
    for t, s in _random_suite(range(1, 21), low=0.2, high=2.0):
        sp = um.spectrum(t, s)
        worst = max(worst, um.check_equation(t, s, sp, um.build_basis(t), 3)[0])
    _report(5, "stochastic equation residual", worst <= 1e-9,
            f"max residual {worst:.3g}")


def test_criterion_6_markovianity(t2):
    rng = np.random.default_rng(2024)
    worst = 0.0
    trials = 0
    tree_pool = [(generate_random(seed, 4, 3), seed) for seed in range(1, 21)]
    while trials < 1000:
        t, seed = tree_pool[trials % len(tree_pool)]
        s = random_symbol(t, seed, 0.2, 2.0)
        kern = um.covariance_kernel(t, um.spectrum(t, s))
        done, scaled = um.markov_check(t, kern, rng, 1)
        assert done == 1
        worst = max(worst, scaled)
        trials += 1

    # empirical cross-covariance of the two ball functionals on T2
    n = 100000
    sp = um.spectrum(t2, um.symbol_from_tree(t2))
    basis = um.build_basis(t2)
    kern = um.covariance_kernel(t2, sp)
    f = leaf_vec(t2, a1=1.0, a2=-1.0)
    g = leaf_vec(t2, b1=1.0, b2=0.5)
    nu = t2.leaf_measures
    lam = sp[basis.vertex]
    D = np.random.default_rng(0).standard_normal((n, len(lam)))
    psi = (D / lam) @ basis.wavelet_leaf_matrix()
    u, v = psi @ (f * nu), psi @ (g * nu)
    emp = float(np.mean(u * v))
    se = math.sqrt(um.bilinear_form(t2, kern, f, f)
                   * um.bilinear_form(t2, kern, g, g) / n)
    ok = worst <= 1e-12 and abs(emp) <= 5 * se
    _report(6, "ultrametric Markovianity", ok,
            f"analytic worst {worst:.3g} over {trials} trials, "
            f"empirical {abs(emp) / se:.2f} standard errors")


def test_criterion_7_basis_integrity(t2):
    gram_worst = 0.0
    counts_ok = True
    trees = [t2, um.generate_homogeneous(2, 3, 1.0)]
    trees += [generate_random(seed, 3, 4) for seed in range(1, 11)]
    for t in trees:
        assert t.n_leaves <= 64
        basis = um.build_basis(t)
        G = um.gram_matrix(basis)
        gram_worst = max(gram_worst, float(np.abs(G - np.eye(G.shape[0])).max()))
        counts_ok = counts_ok and len(basis) == t.n_leaves - 1
        # projector identity, exhaustively over (I, x, y)
        for I in t.interior:
            for x in t.leaf_order:
                for y in t.leaf_order:
                    um.projector_sum_check(t, I, x, y, basis=basis)
    _report(7, "basis integrity", gram_worst <= 1e-10 and counts_ok,
            f"max Gram dev {gram_worst:.3g}, counts {'ok' if counts_ok else 'BAD'}")


def test_criterion_8_convergence_diagnostics():
    mu = 2.0
    below = um.convergence_report(2, mu, 0.5 - 1e-9, levels_probe=40)
    at = um.convergence_report(2, mu, 0.5, levels_probe=40)
    above = um.convergence_report(2, mu, 0.5 + 1e-9, levels_probe=40)
    flip_ok = below.conv1.converges and not at.conv1.converges and not above.conv1.converges

    tail_ok = True
    for q in (0.05, 0.1, 0.25, 0.4):
        rep = um.convergence_report(2, mu, q, levels_probe=40)
        closed = q * (mu - 1.0) / (1.0 - q * mu)
        tail_ok = tail_ok and rep.conv1.converges \
            and abs(rep.conv1.value - closed) <= 1e-10 * max(1.0, closed)
    _report(8, "convergence diagnostics", flip_ok and tail_ok,
            f"flip at q*mu=1 {'ok' if flip_ok else 'BAD'}, tails {'ok' if tail_ok else 'BAD'}")


def test_criterion_9_sup_dependence(t2):
    ok = True
    suites = [(t2, um.symbol_from_tree(t2))]
    suites += list(_random_suite(range(1, 21), low=0.2, high=2.0))
    for t, s in suites:
        sp = um.spectrum(t, s)
        by_sup = {}
        for x in t.leaf_order:
            for y in t.leaf_order:
                if x == y:
                    continue
                S = t.sup(x, y)
                v = um.kernel_value(t, sp, S)
                if S in by_sup:
                    ok = ok and v == by_sup[S]  # bitwise equality required
                by_sup[S] = v
    _report(9, "sup dependence of the kernel", ok)
