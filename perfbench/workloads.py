"""The three workloads: input shape, the command one op runs, its output check.

One op is one in-process ``umfield.cli.main(argv)`` call.  ``argv`` is a
template whose ``{doc}``, ``{seed}`` and ``{out}`` are filled per op; op k of
a run uses seed ``base_seed + k``.

Tree sizes, the sample count and the trial count keep one op near
0.3-0.5 s on a shared 2-vCPU host, so that a 30 s run times 50 or more ops
and ``op_tail_s`` (the 11th slowest) is a real tail.  The binary tree keeps
2^13 leaves, so the dense wavelet matrix (537 MB) is still the largest layer
of an op and most of its peak memory; the caterpillar is still deeper than
Python's default recursion limit of 1000.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import gen
import oracle

SAMPLE_COUNT = 2
MARKOV_TRIALS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    size: int
    make: Callable       # (seed, size) -> gen.Shape
    argv: tuple
    checker: Callable    # (shape, doc_path, seed) -> check(output text, op seed) -> reason or None


def _sample_checker(shape, doc_path, seed):
    ref = oracle.SynthesisRef(shape, oracle.spectrum_ref(shape))
    return lambda text, op_seed: oracle.check_sample(ref, text, op_seed, SAMPLE_COUNT)


def _kernel_checker(shape, doc_path, seed):
    K, scale = oracle.kernel_ref(shape, oracle.spectrum_ref(shape))
    brute = oracle.bruteforce_pairs(shape, doc_path, seed)
    return lambda text, op_seed: oracle.check_kernel(shape, text, K, scale, brute)


def _markov_checker(shape, doc_path, seed):
    return lambda text, op_seed: oracle.check_markov(text, MARKOV_TRIALS, op_seed)


WORKLOADS = {w.name: w for w in (
    Workload(
        "sample-binary",
        13, gen.binary,
        ("sample", "{doc}", "--count", str(SAMPLE_COUNT), "--seed", "{seed}", "--out", "{out}"),
        _sample_checker),
    Workload(
        "kernel-chain",
        1250, gen.caterpillar,
        ("kernel", "{doc}", "--pairs", "profile", "--out", "{out}"),
        _kernel_checker),
    Workload(
        "markov-random",
        1000, gen.random_tree,
        ("verify", "markov", "{doc}", "--trials", str(MARKOV_TRIALS), "--seed", "{seed}",
         "--out", "{out}"),
        _markov_checker),
)}
