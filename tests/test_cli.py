import json
import math
import os
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import umfield as um
from umfield import cli, field
from umfield.cli import main
from umfield.tree import load_tree

from conftest import (FIXTURES, T2_PATH, chains, children_of, hung_caterpillars,
                      log_uniform_measures, split_trees)

T2 = str(T2_PATH)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate(capsys):
    code, out, _ = run(capsys, "validate", T2)
    assert code == 0
    assert "leaves: 4" in out
    assert "total_measure: 1" in out


def test_validate_missing_file(capsys):
    code, _, err = run(capsys, "spectrum", "missing.json")
    assert code == 2
    assert "missing.json" in err


def test_bad_usage(capsys):
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "verify", "nonsense", T2)[0] == 2


def test_spectrum_csv(capsys):
    code, out, _ = run(capsys, "spectrum", T2)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "vertex_id,depth,nu,T,lambda"
    rows = {l.split(",")[0]: l.split(",") for l in lines[1:]}
    assert float(rows["R"][4]) == 1.0
    assert float(rows["A"][4]) == 1.5


def test_wavelets_csv(capsys):
    code, out, _ = run(capsys, "wavelets", T2)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "vertex_id,j,child_id,coefficient"
    assert len(lines) == 1 + 6  # three wavelets, two children each


def _wavelets_csv_per_row(t):
    """The reference ``wavelets`` CSV, formatted line by line from the child lists."""
    basis = um.build_basis(t)
    names, children = t.names, children_of(t)
    lines = ["vertex_id,j,child_id,coefficient\n"]
    # row (I, j) is pos_val on the first j children of I, neg_val on child j, 0 after
    for I, j, a, b in zip(basis.vertex.tolist(), basis.index.tolist(),
                          basis.pos_val.tolist(), basis.neg_val.tolist()):
        cells = [f"{names[I]},{j},{names[c]}," for c in children[I]]
        lines += [f"{cell}{a:.17g}\n" for cell in cells[:j]]
        lines += [f"{cells[j]}{b:.17g}\n"] + [f"{cell}0\n" for cell in cells[j + 1:]]
    return "".join(lines)


_FAMILY_IDS = ["split", "chain", "hung-caterpillar"]


@settings(deadline=None, max_examples=30)
@pytest.mark.parametrize("family", [split_trees(), chains(), hung_caterpillars()],
                         ids=_FAMILY_IDS)
@given(data=st.data())
def test_wavelets_csv_matches_per_row_formatter(family, data, tmp_path_factory):
    t = data.draw(family)
    names = list(t.names)  # one vertex gets a name with "%" in it, which the template must keep
    names[data.draw(st.integers(0, t.n_vertices - 1))] = data.draw(
        st.sampled_from(["%", "a%s", "%d%%", "%(x)s", "100%"]))
    t = um.BallTree(names, t.child_count, t.child_ids, t.measure[t.child_count == 0])
    doc = tmp_path_factory.mktemp("wavelets") / "doc.json"
    doc.write_text(t.to_json())
    out = doc.with_suffix(".csv")
    code = main(["wavelets", str(doc), "--out", str(out)])
    try:
        want = _wavelets_csv_per_row(load_tree(doc))
    except ArithmeticError:  # a wavelet of extreme measures fails its construction check
        assert code == 2
    else:
        assert code == 0 and out.read_text() == want


def test_kernel_profile(capsys):
    code, out, _ = run(capsys, "kernel", T2, "--pairs", "profile")
    assert code == 0
    rows = {l.split(",")[0]: l.split(",") for l in out.strip().splitlines()[1:]}
    assert float(rows["R"][2]) == -1.0
    assert float(rows["A"][2]) == pytest.approx(1 / 9, abs=1e-12)
    assert float(rows["a1"][2]) == pytest.approx(17 / 9, abs=1e-12)


def test_kernel_all_pairs(capsys):
    code, out, _ = run(capsys, "kernel", T2)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,y,sup_vertex,K"
    assert len(lines) == 1 + 10  # unordered pairs incl. diagonal of 4 leaves


def test_sample_deterministic(capsys):
    code, out1, _ = run(capsys, "sample", T2, "--seed", "5", "--count", "3")
    assert code == 0
    code, out2, _ = run(capsys, "sample", T2, "--seed", "5", "--count", "3")
    assert out1 == out2
    assert len(out1.strip().splitlines()) == 1 + 3 * 4


def test_verify_eigen(capsys):
    code, out, _ = run(capsys, "verify", "eigen", T2, "--tol", "1e-9")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["residual"] <= 1e-12


def test_verify_all_checks_pass(capsys):
    for what in ("eigen", "kernel", "ortho", "equation"):
        code, out, _ = run(capsys, "verify", what, T2)
        assert code == 0, what
        assert json.loads(out)["pass"] is True


def _kernel_residual_all_pairs(t):
    """The reference ``verify kernel`` residual, over every leaf pair x <= y."""
    sp = um.spectrum(t, um.symbol_from_tree(t))
    K = um.covariance_kernel(t, sp).values.tolist()
    basis = um.build_basis(t)
    leaves = t.leaf_order.tolist()
    resid = 0.0
    for i, x in enumerate(leaves):
        for y in leaves[i:]:
            S = t.sup(x, y)
            resid = max(resid, abs(K[S] - um.kernel_bruteforce(t, sp, basis, x, y)))
    return resid


# small trees with a symbol, of measures whose kernel stays finite
_KERNEL_FAMILIES = [
    split_trees(symbol=st.floats(0.5, 2.0)),
    chains(measures=log_uniform_measures(st.floats(0, 30)), depths=st.integers(2, 40)),
    hung_caterpillars(measures=log_uniform_measures(st.floats(0, 30)), top=st.integers(1, 3),
                      levels=st.integers(1, 20), bottom=st.integers(0, 2)),
]


@settings(deadline=None, max_examples=25)
@pytest.mark.parametrize("family", _KERNEL_FAMILIES, ids=_FAMILY_IDS)
@given(data=st.data())
def test_kernel_all_pairs_csv_matches_sup_row_by_row(family, data, tmp_path_factory):
    t = data.draw(family)
    names = list(t.names)  # one vertex gets a name with "%" in it, which the template must keep
    names[data.draw(st.integers(0, t.n_vertices - 1))] = data.draw(
        st.sampled_from(["%", "a%s", "%d%%", "%(x)s", "100%"]))
    t = um.BallTree(names, t.child_count, t.child_ids, t.measure[t.child_count == 0],
                    symbol_hint=t.symbol_hint)
    doc = tmp_path_factory.mktemp("kernel") / "doc.json"
    doc.write_text(t.to_json())
    out = doc.with_suffix(".csv")
    assert main(["kernel", str(doc), "--out", str(out)]) == 0
    t = load_tree(doc)
    K = um.covariance_kernel(t, um.spectrum(t, um.symbol_from_tree(t))).values.tolist()
    leaves = t.leaf_order.tolist()
    want = ["x,y,sup_vertex,K\n"]
    for i, x in enumerate(leaves):  # the pairs x <= y in leaf order, row by row
        for y in leaves[i:]:
            S = t.sup(x, y)
            want.append(f"{names[x]},{names[y]},{names[S]},{'%.17g' % K[S]}\n")
    assert out.read_text() == "".join(want)


class _FailingFile:
    """A file that writes the first of its parts, then raises ``error``."""

    def __init__(self, fh, error):
        self.fh, self.error, self.written = fh, error, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.fh.__exit__(*exc)

    def fileno(self):
        return self.fh.fileno()

    def writelines(self, parts):
        self.fh.write(next(iter(parts)))
        self.fh.flush()
        self.written = Path(self.fh.name).stat().st_size
        raise self.error


@pytest.mark.parametrize("error, message", [
    (MemoryError(), "error: out of memory\n"),
    (OSError(28, "No space left on device"), ": No space left on device\n"),
], ids=["memory", "disk"])
def test_failed_write_leaves_no_partial_file(capsys, tmp_path, monkeypatch, error, message):
    opened = []

    def failing_open(*args, **kwargs):
        opened.append(_FailingFile(open(*args, **kwargs), error))
        return opened[-1]

    monkeypatch.setattr(cli, "open", failing_open, raising=False)
    out = tmp_path / "kernel.csv"
    code, _, err = run(capsys, "kernel", T2, "--out", str(out))
    assert code == 2 and err.startswith("error: ") and err.endswith(message)
    assert opened[0].written > 0 and not out.exists()
    # a special file is written to, never removed
    removed = []
    monkeypatch.setattr(cli.os, "remove", removed.append)
    code, _, err = run(capsys, "kernel", T2, "--out", os.devnull)
    assert code == 2 and err.endswith(message) and removed == []


@pytest.mark.parametrize("what", ["eigen", "equation"])
@pytest.mark.parametrize("measure", ["1e-200", "1e-100", "1e-20", "1e-14", "1", "1e20", "1e100",
                                     "1e200", "1e250"])
def test_verify_eigen_and_equation_pass_at_any_total_measure(capsys, what, measure):
    # the residuals are judged relative to the scale of the operator and of the noise
    code, out, _ = run(capsys, "verify", what, "--gen", f"2:3:{measure}")
    assert code == 0, out


@settings(deadline=None, max_examples=25)
@pytest.mark.parametrize("family", _KERNEL_FAMILIES, ids=_FAMILY_IDS)
@given(data=st.data())
def test_verify_kernel_one_pair_per_child_pair_is_all_pairs(family, data, tmp_path_factory):
    # kernel_bruteforce(x, y) depends on x <= y only through their sup and its child that holds
    # y, so one pair per later child of each sup gives the all-pairs residual, bit for bit
    doc = tmp_path_factory.mktemp("kernel") / "doc.json"
    doc.write_text(data.draw(family).to_json())
    out = doc.with_suffix(".json.out")
    checked = []
    bruteforce = field.kernel_bruteforce

    def recorded(t, sp, basis, x, y):
        checked.append((x, y))
        return bruteforce(t, sp, basis, x, y)

    with mock.patch.object(field, "kernel_bruteforce", recorded):
        assert main(["verify", "kernel", str(doc), "--out", str(out)]) in (0, 1)
    t = load_tree(doc)
    assert json.loads(out.read_text())["residual"] == _kernel_residual_all_pairs(t)

    def pair_class(x, y):  # a leaf with itself, or (sup, child toward y)
        S = t.sup(x, y)
        return (x,) if x == y else (S, t.child_toward(S, y))

    leaves = t.leaf_order.tolist()
    every_class = {pair_class(x, y) for i, x in enumerate(leaves) for y in leaves[i:]}
    assert sorted(map(pair_class, *zip(*checked))) == sorted(every_class)  # each class once
    place = {x: i for i, x in enumerate(leaves)}
    assert all(place[x] <= place[y] for x, y in checked)


def test_verify_markov(capsys):
    code, out, _ = run(capsys, "verify", "markov", T2, "--trials", "100", "--seed", "1")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["trials"] == 100


def test_mc_cov(capsys):
    code, out, _ = run(capsys, "mc-cov", T2, "--n", "20000", "--seed", "2")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert set(report) >= {"max_abs_dev", "worst_pair", "pass"}


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_mc_cov_rejects_bad_tol_sigma(capsys, tol):
    code, out, err = run(capsys, "mc-cov", T2, "--n", "100", "--tol-sigma", tol)
    assert code == 2 and out == ""
    assert err == f"error: --tol-sigma must be a finite non-negative number, got {float(tol)}\n"


def test_convergence_json(capsys):
    code, out, _ = run(capsys, "convergence", "--mu", "2", "--q", "0.25")
    assert code == 0
    report = json.loads(out)
    assert report["conv1"]["converges"] is True
    assert report["conv1"]["ratio"] == 0.5
    assert report["conv2"]["converges"] is False


@pytest.mark.parametrize("mu, q", [("inf", "0.25"), ("2", "inf"), ("inf", "inf"), ("nan", "0.25"),
                                   ("2", "nan"), ("-inf", "0.25"), ("2", "-inf")])
def test_convergence_rejects_non_finite_ratios(capsys, mu, q):
    code, out, err = run(capsys, "convergence", f"--mu={mu}", f"--q={q}")
    assert code == 2 and out == ""
    with pytest.raises(um.OutOfRange) as e:
        um.convergence_report(2, float(mu), float(q))
    assert err == f"error: {e.value}\n"


@pytest.mark.parametrize("mu, q, levels", [("2", "0.1", "2000"), ("1.01", "0.5", "2000"),
                                           ("1e200", "1e-300", "40"), ("2", "1e10", "40")])
def test_convergence_term_out_of_float_range_is_typed(capsys, mu, q, levels):
    # mu ** (l - 1) (or q ** l) passes the float range, or r1 ** l underflows to 0 and its
    # inverse square divides by zero: an input error naming levels_probe and the ratios
    code, out, err = run(capsys, "convergence", "--mu", mu, "--q", q, "--levels", levels)
    assert code == 2 and out == ""
    with pytest.raises(um.OutOfRange) as e:
        um.convergence_report(2, float(mu), float(q), int(levels))
    assert str(e.value) == (f"a series term over levels_probe = {levels} levels leaves the float "
                            f"range at measure_ratio {float(mu)} and symbol_ratio {float(q)}")
    assert err == f"error: {e.value}\n"


def test_gen_tree(capsys):
    code, out, _ = run(capsys, "validate", "--gen", "2:3:1.0")
    assert code == 0
    assert "leaves: 8" in out
    code, out, _ = run(capsys, "verify", "eigen", "--gen", "3:2:2.0")
    assert code == 0


def test_gen_malformed(capsys):
    assert run(capsys, "validate", "--gen", "nope")[0] == 2


def test_out_file(tmp_path, capsys):
    target = tmp_path / "spec.csv"
    code, out, _ = run(capsys, "spectrum", T2, "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("vertex_id,")


def test_output_determinism(capsys):
    a = run(capsys, "kernel", T2)
    b = run(capsys, "kernel", T2)
    assert a == b


def test_validate_out_file(tmp_path, capsys):
    target = tmp_path / "report.txt"
    assert run(capsys, "validate", "--gen", "2:3:1", "--out", str(target)) == (0, "", "")
    assert target.read_text() == "leaves: 8\ntotal_measure: 1\ninterior: 7\ndepth: 3\n"
    quiet = tmp_path / "quiet.txt"
    assert run(capsys, "validate", "--gen", "2:3:1", "--out", str(quiet), "--quiet") == (0, "", "")
    assert not quiet.exists()


def test_consecutive_calls_share_no_state(tmp_path, capsys):
    # the parser is built once per process; options of one call must not reach the next
    golden = Path(__file__).resolve().parent / "golden"
    profile, pairs = tmp_path / "profile.csv", tmp_path / "pairs.csv"
    assert main(["kernel", T2, "--pairs", "profile", "--out", str(profile)]) == 0
    assert main(["kernel", T2, "--out", str(pairs)]) == 0
    assert run(capsys, "kernel", T2)[1].encode() == pairs.read_bytes()
    assert profile.read_bytes() == (golden / "kernel-profile-T2.stdout").read_bytes()
    assert pairs.read_bytes() == (golden / "kernel-all-T2.stdout").read_bytes()


def _sample_rows(tmp_path, capsys, names):
    doc = {"nodes": [{"id": "r%", "children": names, "T": 1.0}]
           + [{"id": name, "measure": 0.5 + i} for i, name in enumerate(names)]}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "sample", str(path), "--count", "2")
    assert code == 0 and err == ""
    return [line.split(",") for line in out.splitlines()[1:]]


def test_sample_writes_percent_names_verbatim(tmp_path, capsys):
    names = ["a%", "b%%", "c%s", "d%d"]
    rows = _sample_rows(tmp_path, capsys, names)
    plain = _sample_rows(tmp_path, capsys, ["a", "b", "c", "d"])
    assert [(i, name) for i, name, _ in rows] == [(str(i), x) for i in range(2) for x in names]
    assert [value for _, _, value in rows] == [value for _, _, value in plain]


@pytest.mark.parametrize("argv, n_vertices", [((T2, "--trials", "100", "--seed", "1"), 7),
                                              (("--gen", "3:4:1", "--trials", "7"), 121)])
def test_verify_markov_chunks(capsys, monkeypatch, argv, n_vertices):
    # chunks of one trial and of three (the last one short) draw and report as one chunk does
    code, whole, _ = run(capsys, "verify", "markov", *argv)
    assert code == 0 and json.loads(whole)["max_scaled_value"] != 0.0
    for cells in (1, 3 * n_vertices):
        monkeypatch.setattr(field, "_MARKOV_CELLS", cells)
        assert run(capsys, "verify", "markov", *argv) == (0, whole, "")


def test_verify_markov_checks_each_instance(capsys, monkeypatch):
    # the second instance of a three-trial chunk has g outside its ball J
    t = load_tree(T2)
    draw = field.random_markov_instance
    drawn = []

    def instance(t, rng):
        I, J, f, g = draw(t, rng)
        drawn.append((I, J, f, f if len(drawn) == 1 else g))
        return drawn[-1]

    monkeypatch.setattr(field, "random_markov_instance", instance)
    monkeypatch.setattr(field, "_MARKOV_CELLS", 3 * t.n_vertices)
    code, out, err = run(capsys, "verify", "markov", T2, "--trials", "5")
    assert code == 2 and out == "" and len(drawn) == 2
    with pytest.raises(field.PreconditionViolated) as e:
        field.check_markov_instance(t, *drawn[1])
    assert err == f"error: {e.value}\n"
    assert "is not supported in ball" in err


def test_verify_markov_overflowing_scale(capsys):
    code, out, err = run(capsys, "verify", "markov", "--gen", "2:2:1e160")
    assert code == 2 and out == ""
    assert err == ("error: total measure 1e+160 is too large: "
                   "the Markov check's scale, its square, overflows\n")
    assert run(capsys, "spectrum", "--gen", "2:2:1e160")[0] == 0


def test_verify_markov_needs_trials(capsys):
    code, out, err = run(capsys, "verify", "markov", T2, "--trials", "0")
    assert code == 2 and out == ""
    assert "--trials" in err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_verify_rejects_bad_tol(capsys, tol):
    code, out, err = run(capsys, "verify", "eigen", T2, "--tol", tol)
    assert code == 2 and out == ""
    assert err == f"error: --tol must be a finite non-negative number, got {float(tol)}\n"


@pytest.mark.parametrize("command", ["sample", "mc-cov", "verify markov", "verify equation"])
def test_seed_must_be_non_negative(capsys, command):
    # the document does not exist: the seed is refused before the tree is loaded
    code, out, err = run(capsys, *command.split(), "missing.json", "--seed", "-1")
    assert code == 2 and out == ""
    assert err == "error: --seed must be a non-negative integer, got -1\n"


def test_table_cells(monkeypatch):
    names = ["a%d", "%", "b%%s", "c"]
    depth = np.array([1, -2, 30, 4])
    x = np.array([0.5, -1e-300, 1234.5625, math.nan])
    want = "h%\n" + "".join(f"0%,{names[v]},{depth[v]},{x[v]:.17g},{x[v]:.17g},z\n"
                             for v in (2, 0, 3, 1))
    for rows in (2 ** 16, 3, 1):  # one block, and blocks that split the rows
        monkeypatch.setattr(cli, "_BLOCK_ROWS", rows)
        parts = cli._table("h%\n", np.array([2, 0, 3, 1]), "0%", names, depth, x, x, "z")
        assert "".join(parts) == want and len(parts) == -(-4 // rows)
    assert "".join(cli._table("h\n", None, x)) == "h\n" + "".join(f"{v:.17g}\n" for v in x)
    assert cli._table("h\n", np.array([], dtype=int), names, x) == ["h\n"]


@pytest.mark.parametrize("count", ["0", "-2"])
def test_sample_needs_count(capsys, count):
    code, out, err = run(capsys, "sample", T2, "--count", count)
    assert code == 2 and out == ""
    assert err == f"error: --count must be at least 1, got {count}\n"


@pytest.mark.parametrize("argv", [("spectrum", T2, "--quiet"), ("kernel", T2, "--seed", "1"),
                                  ("convergence", "--mu", "2", "--q", "0.25", "--quiet"),
                                  ("verify", "eigen", T2, "--seed", "1"),
                                  ("verify", "ortho", T2, "--trials", "5"),
                                  ("verify", "kernel", T2, "--seed", "3", "--trials", "9"),
                                  ("verify", "equation", T2, "--trials", "5")])
def test_options_a_command_does_not_read_are_refused(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "unrecognized arguments" in err


def _rejected(capsys, doc, commands, culprit):
    for command in commands:
        argv = [str(FIXTURES / doc) if a == "DOC" else a for a in command.split()]
        code, out, err = run(capsys, *argv)
        assert code == 2, command
        assert out == "" and "inf" not in err and culprit in err, (command, err)


def test_tiny_leaf_measure_rejected(capsys):
    _rejected(capsys, "tiny_measure.json",
              ["verify ortho DOC", "verify eigen DOC", "sample DOC",
               "kernel DOC --pairs profile", "validate DOC"], "'a1'")


def test_overflowing_measure_sum_rejected(capsys):
    _rejected(capsys, "huge_measure.json", ["validate DOC", "spectrum DOC"], "'R'")


def test_tiny_symbol_rejected(capsys):
    _rejected(capsys, "tiny_symbol.json",
              ["kernel DOC --pairs profile", "verify markov DOC", "verify kernel DOC",
               "mc-cov DOC --n 10"], "vertex 'R'")


def test_out_unwritable(capsys):
    code, out, err = run(capsys, "spectrum", T2, "--out", "/nonexistent/x.csv")
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write /nonexistent/x.csv: ")
    assert "Traceback" not in err


def test_huge_symbol_rejected(capsys):
    _rejected(capsys, "huge_symbol.json",
              ["spectrum DOC", "sample DOC", "kernel DOC --pairs profile"], "vertex 'R'")


def test_tiny_eigenvalue_kernel_rejected(capsys):
    _rejected(capsys, "tiny_eigen.json",
              ["kernel DOC --pairs profile", "kernel DOC", "verify markov DOC"], "vertex 'R'")


@pytest.mark.parametrize("command, message", [
    ("kernel tiny_symbol.json --pairs profile",
     "eigenvalue 1e-200 at vertex 'R' is too small: its inverse square overflows"),
    ("kernel tiny_eigen.json --pairs profile",
     "eigenvalue 2e-100 at vertex 'R' is too small: the kernel value at vertex 'R' overflows"),
    ("spectrum huge_symbol.json",
     "eigenvalue at vertex 'R' overflows: T = 1e+300, measure = 20000000000.0"),
])
def test_numeric_error_message(capsys, command, message):
    # the figures in the message print as Python floats, not as numpy scalars
    name, doc, *rest = command.split()
    assert run(capsys, name, str(FIXTURES / doc), *rest) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command, what", [("sample", "the sample"),
                                           ("verify equation", "the field")])
def test_overflowing_draw_is_one_error_line(capsys, tmp_path, command, what):
    # d / lambda is about 1e300 and the wavelet values about 1e150: the field overflows
    out_file = tmp_path / "out.txt"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning would raise here
        result = run(capsys, *command.split(), "--gen", "2:3:1e-300", "--out", str(out_file))
    message = f"error: eigenvalue 1e-300 at vertex 'R' is too small: {what} overflows\n"
    assert result == (2, "", message)
    assert not out_file.exists()
    assert run(capsys, "sample", str(FIXTURES / "tiny_eigen.json"))[0] == 0  # 4.4e248 is finite


def test_wavelet_construction_check(capsys):
    # alpha/s = 1e-150 / 1e300 underflows to 0, so wavelet (R, 1) has mean -1e-150 and scale 1e-150
    code, out, err = run(capsys, "sample", str(FIXTURES / "lopsided_wavelet.json"))
    assert code == 2 and out == ""
    assert err == "error: wavelet (R, 1) not zero-mean: -1e-150\n"


def test_sibling_mass_below_parent_ulp_kept(capsys):
    # nu(R) rounds to 1, so nu(R) - nu(A) = 0; the sibling sum keeps lambda_A = T(R) nu(e)
    doc = str(FIXTURES / "tiny_sibling.json")
    code, out, _ = run(capsys, "spectrum", doc)
    assert code == 0
    rows = {l.split(",")[0]: l.split(",") for l in out.strip().splitlines()[1:]}
    assert float(rows["A"][4]) == 1e-20
    code, out, err = run(capsys, "sample", doc)
    assert code == 0 and err == ""
    assert len(out.strip().splitlines()) == 1 + 3


@pytest.mark.parametrize("doc, message", [
    ("null_measure.json", "vertex 'a': measure None is not a number"),
    ("list_symbol.json", "vertex 'A': T [1] is not a number"),
    ("string_children.json", "vertex 'R': children 'ab' is not a list"),
    ("text_measure.json", "vertex 'b': measure 'x' is not a number"),
    ("overflow_measure.json", "vertex 'b': measure is out of the float range"),
    ("overflow_declared.json", "vertex 'R': measure is out of the float range"),
    ("overflow_symbol.json", "vertex 'R': T is out of the float range"),
    ("nan_declared.json", "vertex 'R': declared measure nan != children sum 1.0"),
    ("nan_symbol.json", "symbol value at vertex 'c' must be nonnegative, got nan"),
])
def test_unparsable_field_rejected(capsys, doc, message):
    path = str(FIXTURES / doc)
    for command in ("validate", "sample"):
        assert run(capsys, command, path) == (
            2, "", f"error: invalid tree document {path}: {message}\n")


def test_missing_symbol_named(capsys):
    # a tree without "T" on c is a valid tree, but defines no operator
    path = str(FIXTURES / "missing_symbol.json")
    assert run(capsys, "validate", path, "--quiet") == (0, "", "")
    assert run(capsys, "spectrum", path) == (
        2, "", f"error: invalid tree document {path}: symbol missing on interior vertices ['c']\n")


def test_over_long_integer_literal_rejected(tmp_path, capsys):
    # past Python's limit on integer digits, json.loads raises a ValueError, not a JSONDecodeError
    path = tmp_path / "long.json"
    path.write_text('{"nodes": [{"id": "R", "children": ["a", "b"], "T": 1},'
                    ' {"id": "a", "measure": 1}, {"id": "b", "measure": 1' + "0" * 5000 + '}]}')
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith(f"error: invalid tree document {path}: invalid JSON: Exceeds the limit")


def test_numeric_strings_parse(capsys):
    # numeric_strings.json is T2.json with some numbers written as strings
    doc = str(FIXTURES / "numeric_strings.json")
    assert run(capsys, "spectrum", doc) == run(capsys, "spectrum", T2)


@pytest.mark.parametrize("command", ["verify equation", "verify eigen", "verify ortho",
                                     "mc-cov --n 2", "kernel"])
def test_dense_check_refuses_large_tree(capsys, command):
    code, out, err = run(capsys, *command.split(), "--gen", "2:13:1")
    assert code == 2 and out == "" and err.count("\n") == 1  # one error line, no traceback
    assert err.startswith("error: the dense ")
    assert err.endswith(" is limited to 4096 leaves; this tree has 8192\n")


def test_out_of_memory_is_one_error_line(capsys, monkeypatch):
    # numpy raises a MemoryError subclass when it cannot allocate a tree's arrays
    def generate_homogeneous(p, depth, total_measure):
        raise MemoryError("Unable to allocate 16.0 TiB for an array with shape (2199023255551,)")

    monkeypatch.setattr("umfield.tree.generate_homogeneous", generate_homogeneous)
    assert run(capsys, "validate", "--gen", "2:40:1") == (
        2, "", "error: out of memory: Unable to allocate 16.0 TiB for an array with shape "
               "(2199023255551,)\n")

    def bare(p, depth, total_measure):
        raise MemoryError

    monkeypatch.setattr("umfield.tree.generate_homogeneous", bare)
    assert run(capsys, "validate", "--gen", "2:40:1") == (2, "", "error: out of memory\n")
