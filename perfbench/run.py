"""umfield benchmark: closed-loop CLI workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run generates the workload's tree document from the seed, then starts
fresh workload processes (worker.py) that import umfield from ``src/`` and
call ``umfield.cli.main`` once per op, one client at a time.  Every op's
output is checked afterwards against the benchmark's own references
(oracle.py), in this process, so the references do not count towards the
workload process's memory.

Times are reported at a reference host speed.  The worker times a fixed
calibration loop between ops; each op's wall time is multiplied by
CAL_REFERENCE_S over the calibration time around it.  On a shared 2-core
host the speed drifted by up to 2x within minutes, and the ten-seed spread
of the raw median op time was 13-28%; rescaled it was 3.1-8.1%.  The raw
wall-clock figures are printed in the info line.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
process that times ``S / 2`` seconds untraced and ``S / 2`` with the layers
wrapped by spans.py, and reports the per-layer metrics plus the tracing
overhead.  The last stdout line is the JSON result; the line before it
records the tree, the environment and the details behind the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_RUNS = 5           # cold starts per --trace 0 run; setup_s is their median
TAIL_BEYOND = 10         # op_tail_s: highest percentile with this many samples above it
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKER_GRACE_S = 120
CAL_REFERENCE_S = 0.010  # worker.calibrate() time that defines the reference host speed

# per-layer metric -> (span name, field of spans.layer_totals, unit)
LAYER_METRICS = {
    "tree.parse.busy_s": ("tree.parse", "busy_s", "s"),
    "tree.parse.calls": ("tree.parse", "calls", "count"),
    "tree.sup.calls": ("tree.sup", "calls", "count"),
    "tree.sup.busy_s": ("tree.sup", "busy_s", "s"),
    "tree.sup_matrix.busy_s": ("tree.sup_matrix", "busy_s", "s"),
    "wavelets.build.busy_s": ("wavelets.build", "busy_s", "s"),
    "wavelets.matrix.busy_s": ("wavelets.matrix", "busy_s", "s"),
    "wavelets.matrix.bytes": ("wavelets.matrix", "bytes", "B"),
    "pdo.symbol.busy_s": ("pdo.symbol", "busy_s", "s"),
    "pdo.spectrum.busy_s": ("pdo.spectrum", "busy_s", "s"),
    "field.kernel.busy_s": ("field.kernel", "busy_s", "s"),
    "field.sample.self_s": ("field.sample", "self_s", "s"),
    "field.sample.calls": ("field.sample", "calls", "count"),
    "field.bilinear.busy_s": ("field.bilinear", "busy_s", "s"),
    "field.markov.calls": ("field.markov", "calls", "count"),
    "field.markov_instance.busy_s": ("field.markov_instance", "busy_s", "s"),
    "cli.self_s": ("cli", "self_s", "s"),
}


def tail(values) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with TAIL_BEYOND samples above it.

    That is the (n - 10)-th smallest of n samples.  With ten or fewer
    samples no percentile qualifies and the maximum is returned as the 100th.
    """
    xs = sorted(values)
    k = len(xs) - TAIL_BEYOND
    if k < 1:
        return 100.0, xs[-1]
    return 100.0 * k / len(xs), xs[k - 1]


def spawn(spec: dict, workdir: str, tag: str) -> dict:
    """Run one workload process to completion and return its result record."""
    outdir = os.path.join(workdir, tag)
    os.makedirs(outdir)
    spec = dict(spec, outdir=outdir, result=os.path.join(outdir, "result.json"),
                spans=os.path.join(outdir, "spans.json"))
    spec_path = os.path.join(outdir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    env = dict(os.environ, **WORKER_ENV)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), spec_path],
                          env=env, capture_output=True, text=True,
                          timeout=spec["seconds"] + WORKER_GRACE_S)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process {tag} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    with open(spec["result"], encoding="utf-8") as fh:
        return json.load(fh)


def check_ops(ops, check) -> list:
    """Failure reason per op (None when the op succeeded), outputs read from disk."""
    reasons = []
    for op in ops:
        if op["error"] is not None:
            reasons.append(op["error"])
        elif op["code"] != 0:
            reasons.append(f"exit code {op['code']}")
        else:
            try:
                with open(op["out"], encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as e:
                reasons.append(f"no output: {e}")
            else:
                reasons.append(check(text, op["seed"]))
    return reasons


def check_same_bytes(ops, reasons) -> None:
    """Ops with the same seed, run in different processes, must write the same bytes."""
    first = None
    for i, op in enumerate(ops):
        if reasons[i] is not None:
            continue
        with open(op["out"], "rb") as fh:
            data = fh.read()
        if first is None:
            first = data
        elif data != first:
            reasons[i] = "output differs from the same seed's output in another process"


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def run(workload, seed: int, seconds: float, trace: bool, root: str,
        setup_runs: int = SETUP_RUNS) -> tuple[dict, dict]:
    """One benchmark run; returns (result, info) as printed by main."""
    base = os.path.join(root, ".perfbench")
    workdir = os.path.join(base, f"{workload.name}-{seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        shape = workload.make(seed, workload.size)
        doc = os.path.join(workdir, "tree.json")
        with open(doc, "w", encoding="utf-8") as fh:
            fh.write(shape.to_json())
        src = os.path.join(root, "src")
        if src not in sys.path:
            sys.path.insert(0, src)     # the kernel spot checks call the library's oracle
        spec = {"src": src, "doc": doc, "argv": list(workload.argv),
                "base_seed": seed * 1000, "seconds": seconds,
                "mode": "trace" if trace else "timed"}

        colds = []
        if not trace:
            for i in range(1, setup_runs):
                colds.append(spawn(dict(spec, mode="setup"), workdir, f"setup-{i}"))
        main_run = spawn(spec, workdir, "main")
        colds.append(main_run)

        check = workload.checker(shape, doc, seed)
        cold_ops = [r["ops"][0] for r in colds]
        ops = main_run["ops"][1:]
        cold_reasons = check_ops(cold_ops, check)
        check_same_bytes(cold_ops, cold_reasons)
        reasons = cold_reasons + check_ops(ops, check)
        failed = sum(r is not None for r in reasons)
        attempted = len(reasons)

        info = {"workload": workload.name, "seed": seed, "seconds": seconds,
                "trace": int(trace), "tree": shape.stats(), "env": main_run["env"],
                "attempted": attempted, "failed": failed,
                "fail_ratio": failed / attempted,
                "failures": [r for r in reasons if r is not None][:5]}
        if trace:
            with open(os.path.join(workdir, "main", "spans.json"), encoding="utf-8") as fh:
                recorded = json.load(fh)
            metrics = layer_metrics(ops, recorded, info)
            shutil.copy(os.path.join(workdir, "main", "spans.json"),
                        os.path.join(base, f"spans-{workload.name}-{seed}.json"))
        else:
            metrics = end_to_end_metrics(ops, reasons, colds, main_run, info)
        result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                  "metrics": metrics}
        return result, info
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def at_reference_speed(seconds: float, op: dict) -> float:
    """Wall seconds rescaled to the reference host speed.

    The calibration loop ran just before and just after the op; dividing by
    its mean time there and multiplying by CAL_REFERENCE_S removes the
    host's drift in speed, which on a shared machine is larger than the
    bounds the benchmark enforces.
    """
    return seconds * CAL_REFERENCE_S / ((op["cal_before_s"] + op["cal_after_s"]) / 2)


def end_to_end_metrics(ops, reasons, colds, main_run, info) -> dict:
    times = [at_reference_speed(op["seconds"], op) for op in ops]
    ok = sum(r is None for r in reasons[len(colds):])
    pct, tail_s = tail(times)
    setups = [at_reference_speed(r["setup_s"], r["ops"][0]) for r in colds]
    wall = [op["seconds"] for op in ops]
    info.update(timed_ops=len(ops), op_tail_percentile=pct, setup_samples_s=setups,
                wall_op_p50_s=statistics.median(wall), wall_op_tail_s=tail(wall)[1],
                wall_ops_per_s=ok / main_run["phase_s"]["timed"],
                wall_setup_s=statistics.median(r["setup_s"] for r in colds),
                calibration_p50_s=statistics.median(op["cal_before_s"] for op in ops))
    return {
        "op_p50_s": metric(statistics.median(times), "s"),
        "op_tail_s": metric(tail_s, "s"),
        "ops_per_s": metric(ok / sum(times), "1/s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(main_run["peak_rss_mb"], "MB"),
        "ok_ratio": metric(1.0 - info["fail_ratio"], "ratio"),
    }


def layer_metrics(ops, recorded, info) -> dict:
    traced = [op for op in ops if op["phase"] == "traced"]
    untraced = [op for op in ops if op["phase"] == "untraced"]
    n = len(traced)
    metrics = {}
    totals = {}
    for name, (layer, field, unit) in LAYER_METRICS.items():
        if layer not in totals:
            totals[layer] = spans.layer_totals(recorded, layer)
        metrics[name] = metric(totals[layer][field] / n, unit)
    out_bytes = [os.path.getsize(op["out"]) for op in traced if os.path.exists(op["out"])]
    metrics["cli.out_bytes"] = metric(sum(out_bytes) / n, "B")
    traced_p50 = statistics.median(at_reference_speed(op["seconds"], op) for op in traced)
    untraced_p50 = statistics.median(at_reference_speed(op["seconds"], op) for op in untraced)
    metrics["trace.overhead_ratio"] = metric(traced_p50 / untraced_p50, "ratio")
    info.update(traced_ops=n, untraced_ops=len(untraced), traced_op_p50_s=traced_p50,
                untraced_op_p50_s=untraced_p50, spans=len(recorded),
                traced_wall_op_mean_s=sum(op["seconds"] for op in traced) / n)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not (math.isfinite(args.seconds) and args.seconds > 0):
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "umfield", "cli.py")):
        print(f"error: no umfield sources under {os.path.join(root, 'src')}; "
              "run from the root of a umfield checkout", file=sys.stderr)
        return 2
    result, info = run(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                       bool(args.trace), root)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
