"""Tests of the benchmark itself, at tiny tree sizes.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import dataclasses
import json
import os
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(REPO / "src"))

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import MARKOV_TRIALS, SAMPLE_COUNT, WORKLOADS  # noqa: E402

from umfield import cli  # noqa: E402

TINY = {"sample-binary": 4, "kernel-chain": 30, "markov-random": 40}
END_TO_END = {"op_p50_s", "op_tail_s", "ops_per_s", "setup_s", "peak_rss_mb", "ok_ratio"}


def tiny(name):
    return dataclasses.replace(WORKLOADS[name], size=TINY[name])


@pytest.fixture
def root(tmp_path):
    """A checkout-like directory: the benchmark only needs src/ there."""
    os.symlink(REPO / "src", tmp_path / "src")
    return tmp_path


# ----------------------------------------------------------------- generators

def test_generators_are_seeded_and_shaped():
    assert gen.binary(3, 4).to_json() == gen.binary(3, 4).to_json()
    assert gen.binary(3, 4).to_json() != gen.binary(4, 4).to_json()
    assert gen.binary(3, 4).stats() == {"vertices": 31, "leaves": 16, "max_depth": 4}
    assert gen.caterpillar(1, 3000).stats() == {"vertices": 6001, "leaves": 3001,
                                                "max_depth": 3000}
    leaves = gen.random_tree(5, 1000).stats()["leaves"]
    assert 1000 <= leaves <= 1003


@pytest.mark.parametrize("make,size", [(gen.binary, 5), (gen.caterpillar, 40),
                                       (gen.random_tree, 50)])
def test_generated_documents_parse(make, size):
    import umfield as um
    shape = make(7, size)
    t = um.parse_tree(shape.to_json())
    assert t.n_vertices == shape.n_vertices
    assert [t.names[v] for v in t.preorder] == [f"v{v}" for v in shape.preorder()]
    assert t.total_measure == shape.measure[0]


# ------------------------------------------------------------- whole workloads

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_end_to_end(name, root):
    result, info = run.run(tiny(name), seed=2, seconds=0.3, trace=False, root=str(root),
                           setup_runs=2)
    assert result["failed"] == 0 and result["correct"] is True, info["failures"]
    assert result["attempted"] >= 3
    assert set(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["metrics"]["ok_ratio"]["value"] == 1.0
    assert info["tree"]["vertices"] > 0 and info["env"]["blas_threads"] in (1, None)
    assert not (root / ".perfbench" / f"{name}-2-{os.getpid()}").exists()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_traced(name, root):
    result, info = run.run(tiny(name), seed=3, seconds=0.4, trace=True, root=str(root))
    assert result["failed"] == 0, info["failures"]
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(m) == set(run.LAYER_METRICS) | {"cli.out_bytes", "trace.overhead_ratio"}
    assert m["tree.parse.calls"] == 1       # load_tree -> parse_tree counts once
    assert m["cli.out_bytes"] > 0 and m["cli.self_s"] > 0
    if name == "sample-binary":
        n = 2 ** TINY[name]
        assert m["field.sample.calls"] == SAMPLE_COUNT
        assert m["wavelets.matrix.bytes"] == (n - 1) * n * 8
    if name == "kernel-chain":
        assert m["wavelets.matrix.busy_s"] == 0 and m["field.kernel.busy_s"] > 0
    if name == "markov-random":
        assert m["field.markov.calls"] == MARKOV_TRIALS and m["tree.sup.calls"] > 0


def test_missing_sources_fail_without_result(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "kernel-chain", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""


# ------------------------------------------------------- corrupted outputs fail

def _cli_output(tmp_path, name, seed):
    w = tiny(name)
    shape = w.make(seed, w.size)
    doc = tmp_path / "tree.json"
    doc.write_text(shape.to_json())
    out = tmp_path / "out.txt"
    argv = [a.replace("{doc}", str(doc)).replace("{seed}", str(seed)).replace("{out}", str(out))
            for a in w.argv]
    assert cli.main(argv) == 0
    return w.checker(shape, str(doc), seed), out


def _corrupt_last_number(text):
    head, _, last = text.rstrip("\n").rpartition(",")
    return f"{head},{float(last) * (1 + 1e-6) + 1e-9!r}\n"


@pytest.mark.parametrize("name,corrupt", [
    ("sample-binary", _corrupt_last_number),
    ("kernel-chain", _corrupt_last_number),
    ("markov-random", lambda text: text.replace(f'"trials": {MARKOV_TRIALS}', '"trials": 1')),
    ("markov-random", lambda text: text.replace('"pass": true', '"pass": false')),
    ("markov-random", lambda text: re.sub(r'"max_scaled_value": [^,]*', '"max_scaled_value": 0.0',
                                          text)),
])
def test_corrupted_output_counts_as_failure(tmp_path, name, corrupt):
    check, out = _cli_output(tmp_path, name, seed=11)
    good = out.read_text()
    bad = tmp_path / "bad.txt"
    bad.write_text(corrupt(good))
    assert bad.read_text() != good
    ops = [{"error": None, "code": 0, "out": str(path), "seed": 11} for path in (out, bad)]
    reasons = run.check_ops(ops, check)
    assert reasons[0] is None
    assert reasons[1] is not None


def test_failed_commands_and_differing_bytes_count(tmp_path):
    check, out = _cli_output(tmp_path, "kernel-chain", seed=1)
    other = tmp_path / "other.txt"
    other.write_text(out.read_text().replace("\n", "\r\n", 1))
    ops = [{"error": None, "code": 0, "out": str(out), "seed": 1},
           {"error": None, "code": 0, "out": str(other), "seed": 1},
           {"error": None, "code": 2, "out": str(out), "seed": 1},
           {"error": "ZeroDivisionError: x", "code": None, "out": str(out), "seed": 1}]
    reasons = run.check_ops(ops, check)
    assert reasons[2] == "exit code 2" and reasons[3].startswith("ZeroDivisionError")
    same = [reasons[0], None]
    run.check_same_bytes(ops[:2], same)
    assert same[0] is None and same[1] is not None


def test_sample_reference_matches_library_synthesis():
    import numpy as np
    import umfield as um
    shape = gen.random_tree(4, 60)
    t = um.parse_tree(shape.to_json())
    sp = um.spectrum(t, um.symbol_from_tree(t))
    basis = um.build_basis(t)
    ref = oracle.SynthesisRef(shape, oracle.spectrum_ref(shape))
    lib = um.sample_field(t, sp, basis, np.random.SeedSequence([9, 2])).values
    assert np.allclose(ref.values(9, 2), lib, rtol=0, atol=1e-12 * np.abs(lib).max())


def test_kernel_reference_matches_library():
    import umfield as um
    shape = gen.random_tree(8, 40)
    t = um.parse_tree(shape.to_json())
    kern = um.covariance_kernel(t, um.spectrum(t, um.symbol_from_tree(t)))
    K, scale = oracle.kernel_ref(shape, oracle.spectrum_ref(shape))
    for v in range(shape.n_vertices):
        assert abs(kern.values[t.name_to_id[f"v{v}"]] - K[v]) <= 1e-12 * scale[v]


# ------------------------------------------------------------------- helpers

def test_tail_percentile():
    xs = [float(i) for i in range(1, 31)]          # 1..30
    assert run.tail(xs) == (100.0 * 20 / 30, 20.0)  # ten samples (21..30) above it
    assert run.tail(list(reversed(xs))) == run.tail(xs)
    assert run.tail([5.0] * 10 + [7.0]) == (100.0 / 11, 5.0)
    assert run.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)


def _span(op, sid, parent, name, start, end, nbytes=None):
    return [op, sid, parent, name, start, end, nbytes]


def test_union_and_self_time():
    assert spans.union_length([(0, 1), (2, 3)]) == 2
    assert spans.union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert spans.union_length([(0, 4), (1, 2)]) == 4
    assert spans.union_length([]) == 0
    parent = _span(0, 0, None, "cli", 0.0, 10.0)
    kids = [_span(0, 1, 0, "a", 1.0, 3.0), _span(0, 2, 0, "b", 2.0, 4.0),
            _span(0, 3, 0, "c", 9.0, 12.0)]               # overlaps and overrun
    assert spans.self_time(parent, kids) == pytest.approx(10.0 - 3.0 - 1.0)


def test_layer_totals_counts_nested_same_layer_once():
    recorded = [
        _span(0, 0, None, "cli", 0.0, 10.0),
        _span(0, 1, 0, "tree.parse", 1.0, 4.0),            # load_tree
        _span(0, 2, 1, "tree.parse", 1.5, 3.5),            # parse_tree inside it
        _span(0, 3, 0, "wavelets.matrix", 5.0, 6.0, [111, 800]),
        _span(0, 4, 0, "wavelets.matrix", 6.0, 6.5, [111, 800]),   # cached: same array
        _span(1, 5, None, "cli", 20.0, 21.0),
        _span(1, 6, 5, "wavelets.matrix", 20.0, 20.5, [111, 800]),  # next op: new array
    ]
    parse = spans.layer_totals(recorded, "tree.parse")
    assert parse["calls"] == 1
    assert parse["busy_s"] == pytest.approx(3.0)
    assert parse["self_s"] == pytest.approx(3.0)
    mat = spans.layer_totals(recorded, "wavelets.matrix")
    assert mat["calls"] == 3 and mat["bytes"] == 1600
    top = spans.layer_totals(recorded, "cli")
    assert top["self_s"] == pytest.approx((10.0 - 3.0 - 1.5) + (1.0 - 0.5))


def test_tracer_records_parent_links():
    tracer = spans.Tracer(clock=iter(range(100)).__next__)
    inner = tracer.wrap("inner", lambda: b"abc")
    outer = tracer.wrap("outer", lambda: inner())
    assert outer() == b"abc"
    assert [s[:6] for s in tracer.spans] == [[0, 0, None, "outer", 0, 3],
                                             [0, 1, 0, "inner", 1, 2]]
    assert json.loads(json.dumps(tracer.spans))


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    units = {k: u for k, (_, _, u) in run.LAYER_METRICS.items()}
    units.update({"cli.out_bytes": "B", "trace.overhead_ratio": "ratio"})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == units
