"""The workload process: imports umfield and runs CLI commands in a closed loop.

Started by run.py as ``python3 worker.py SPEC.json``; one client, so each
command starts when the previous one has returned.  The spec names the
mode, the argv template, the base seed, the output directory and the
result file.  Modes:

- ``setup``: import umfield and run one cold command; report that time.
- ``timed``: as ``setup``, then run commands for ``seconds`` of wall time,
  and on until MIN_OPS commands are timed.
- ``trace``: as ``setup``, then ``seconds / 2`` untraced and ``seconds / 2``
  with every layer traced (spans written to the spec's ``spans`` file).

Output checks happen in the parent after this process has exited, so the
peak RSS reported here is the program's alone.
"""

import json
import math
import os
import resource
import sys
import time


CAL_ITERS = 60_000
MIN_OPS = 50    # timed ops per run at least, so the 10 slowest are a tail (>= p80)


def calibrate():
    """Seconds this process takes for a fixed piece of interpreter work right now.

    The host's speed drifts by up to 2x within minutes; an op's time divided
    by the calibration times around it tracks the program, not the host.
    """
    t0 = time.perf_counter()
    x = 0.0
    seen = {}
    for i in range(CAL_ITERS):
        x += math.sqrt(i)
        seen[i & 1023] = x
    return time.perf_counter() - t0


def run_op(cli, spec, k, phase):
    seed = spec["base_seed"] + k
    out = os.path.join(spec["outdir"], f"op-{k}.out")
    argv = [a.replace("{doc}", spec["doc"]).replace("{seed}", str(seed)).replace("{out}", out)
            for a in spec["argv"]]
    error = None
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    except Exception as e:      # a crashing command is a failed op, not a failed run
        code, error = None, f"{type(e).__name__}: {e}"
    seconds = time.perf_counter() - t0
    return {"k": k, "phase": phase, "seed": seed, "seconds": seconds, "code": code,
            "error": error, "out": out}


def loop(cli, spec, ops, phase, seconds, tracer=None, min_ops=0):
    start = time.perf_counter()
    until = len(ops) + min_ops
    while time.perf_counter() - start < seconds or len(ops) < until:
        k = len(ops)
        if tracer is not None:
            tracer.op = k
        op = run_op(cli, spec, k, phase)
        op["cal_before_s"] = ops[-1]["cal_after_s"]
        op["cal_after_s"] = calibrate()
        ops.append(op)
    return time.perf_counter() - start


def environment():
    import ctypes
    import re

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted(set(re.findall(r"\S*openblas\S*\.so\S*", fh.read())))
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                threads = fn()
                break
    return {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": threads,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def main(spec_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])

    cal = calibrate()
    t0 = time.perf_counter()
    from umfield import cli
    ops = [run_op(cli, spec, 0, "cold")]
    result = {"setup_s": time.perf_counter() - t0, "phase_s": {}}
    ops[0]["cal_before_s"] = cal
    ops[0]["cal_after_s"] = calibrate()

    if spec["mode"] == "timed":
        result["phase_s"]["timed"] = loop(cli, spec, ops, "timed", spec["seconds"],
                                         min_ops=MIN_OPS)
    elif spec["mode"] == "trace":
        import spans
        result["phase_s"]["untraced"] = loop(cli, spec, ops, "untraced", spec["seconds"] / 2)
        tracer = spans.Tracer()
        tracer.install()
        result["phase_s"]["traced"] = loop(cli, spec, ops, "traced", spec["seconds"] / 2,
                                           tracer)
        with open(spec["spans"], "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["ops"] = ops
    result["env"] = environment()
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
