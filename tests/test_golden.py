"""Byte-exact CLI outputs pinned as golden files.

Each case runs ``main(argv)`` from the repository root, so the paths in
``argv`` and in error messages are relative.  Its stdout and stderr are
compared byte for byte with ``golden/<name>.stdout`` and
``golden/<name>.stderr``, its exit code with ``golden/exit_codes.json``.
COLUMNS is fixed because argparse wraps its usage lines to the terminal
width.
"""

import json
from pathlib import Path

import pytest

from umfield.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"

T2 = ("fixtures/T2.json",)
GEN = ("--gen", "3:3:1")
ZERO = ("fixtures/zero_symbol.json",)

CASES = []
for tag, tree in (("T2", T2), ("gen", GEN)):
    CASES += [
        (f"validate-{tag}", ("validate", *tree)),
        (f"spectrum-{tag}", ("spectrum", *tree)),
        (f"wavelets-{tag}", ("wavelets", *tree)),
        (f"kernel-all-{tag}", ("kernel", *tree)),
        (f"kernel-profile-{tag}", ("kernel", *tree, "--pairs", "profile")),
        (f"sample-{tag}", ("sample", *tree, "--seed", "5", "--count", "3")),
        (f"mc-cov-{tag}", ("mc-cov", *tree, "--n", "20000", "--seed", "2")),
    ]
    CASES += [(f"verify-{what}-{tag}", ("verify", what, *tree))
              for what in ("ortho", "eigen", "kernel")]
    CASES += [(f"verify-{what}-{tag}", ("verify", what, *tree, "--seed", "3"))
              for what in ("equation", "markov")]
CASES += [
    ("convergence-converging", ("convergence", "--mu", "2", "--q", "0.45")),
    ("convergence-diverging", ("convergence", "--p", "3", "--mu", "2", "--q", "0.9")),
    ("error-convergence-range", ("convergence", "--mu", "0.5", "--q", "0.25")),
    ("error-zero-sample", ("sample", *ZERO)),
    ("error-zero-kernel", ("kernel", *ZERO)),
    ("error-zero-verify-markov", ("verify", "markov", *ZERO)),
    ("error-zero-mc-cov", ("mc-cov", *ZERO, "--n", "100")),
    ("error-overflow-sample", ("sample", "--gen", "2:3:1e-300")),
    ("error-overflow-verify-equation", ("verify", "equation", "--gen", "2:3:1e-300")),
    ("error-mc-cov-n1", ("mc-cov", *T2, "--n", "1")),
    ("error-missing-file", ("spectrum", "fixtures/missing.json")),
    ("error-no-tree", ("validate",)),
    ("error-no-symbol", ("spectrum", "fixtures/no_symbol.json")),
    ("error-gen-malformed", ("validate", "--gen", "2:x:1")),
    ("error-unknown-command", ("frobnicate",)),
    ("error-verify-nonsense", ("verify", "nonsense", *T2)),
]


@pytest.mark.parametrize("name, argv", CASES, ids=[name for name, _ in CASES])
def test_golden(name, argv, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("COLUMNS", "80")
    code = main(list(argv))
    out = capsys.readouterr()
    codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    assert code == codes[name]
    assert out.out.encode() == (GOLDEN / f"{name}.stdout").read_bytes()
    assert out.err.encode() == (GOLDEN / f"{name}.stderr").read_bytes()
