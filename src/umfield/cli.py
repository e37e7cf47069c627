"""Command-line interface: tree validation, spectra, kernels, sampling, checks.

Every command but ``convergence`` takes a tree file or ``--gen`` and
``--out``; only the commands that draw (``sample``, ``mc-cov``, ``verify
markov``, ``verify equation``) take ``--seed``, and only ``validate`` takes
``--quiet``.  The commands compute through the library: ``verify markov``
reports ``field.markov_check``.

Exit codes: 0 on success / verification pass, 1 on verification failure,
2 on usage or input errors, a tree too large for a dense table or for
memory included.  Reports are JSON, tabular dumps are CSV; all numbers are
written with 17 significant digits so output is diff-stable.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import stat
import sys

import numpy as np

from . import tree as treemod
from . import wavelets as wavmod
from . import pdo as pdomod
from . import field as fieldmod
from . import float17

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# rows per block of a CSV table, each block one %-format: no join holds the whole table twice
_BLOCK_ROWS = 2 ** 16


class _CliError(Exception):
    """Usage or input error the CLI reports itself (exit code 2)."""


def _load_tree(args) -> treemod.BallTree:
    if args.gen:
        try:
            p, depth, total = args.gen.split(":")
            return treemod.generate_homogeneous(int(p), int(depth), float(total))
        except ValueError as e:
            raise _CliError(f"--gen expects p:depth:measure, got {args.gen!r} ({e})")
    if not args.tree:
        raise _CliError("a tree file (or --gen) is required")
    try:
        return treemod.load_tree(args.tree)
    except OSError as e:
        raise _CliError(f"cannot read {args.tree}: {e.strerror or e}")
    except treemod.TreeError as e:
        raise _CliError(f"invalid tree document {args.tree}: {e}")


def _load(args):
    """The pipeline up to the spectrum: (tree, symbol, spectrum)."""
    t = _load_tree(args)
    if t.symbol_hint is not None:
        try:
            s = pdomod.symbol_from_tree(t)
        except ValueError as e:
            raise _CliError(f"invalid tree document {args.tree}: {e}")
    elif args.gen:
        s = pdomod.constant_symbol(t, 1.0)
    else:
        raise _CliError("tree document carries no symbol values (\"T\" fields)")
    return t, s, pdomod.spectrum(t, s)


def _emit(args, *parts: str) -> None:
    """Write the parts in turn to --out or stdout: a caller with large parts need not join them.

    A regular --out file whose writing fails part-way is removed; a special file such as
    /dev/null is left alone."""
    if not args.out:
        sys.stdout.writelines(parts)
        return
    regular = False
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
            fh.writelines(parts)
    except BaseException as e:
        if regular:
            with contextlib.suppress(OSError):
                os.remove(args.out)
        if isinstance(e, OSError):
            raise _CliError(f"cannot write {args.out}: {e.strerror or e}")
        raise


def _is_float(column) -> bool:
    return isinstance(column, np.ndarray) and column.dtype.kind == "f"


def _table(header, order, *columns):
    """The CSV text: the header, then one row of cells ``column[v]`` for each v in ``order`` (the
    columns are in row order if it is None), as one string per block of ``_BLOCK_ROWS`` rows, the
    first with the header in it.

    A column is a str (the same cell on every row), a list of str, an int array or a float array,
    written as ``%s``, ``%d`` and ``%.17g`` would.  The text and int cells of a block go into its
    row template, with "%" doubled; the float cells go in as ``float17`` fragments, and the
    template takes their integer arguments in one ``%``.
    """
    # the constant text (separators, str columns) after each varying column; the last runs on
    # to the next row's first varying cell
    varying, glue, text = [], [], ""
    for j, column in enumerate(columns):
        if isinstance(column, str):
            text += column.replace("%", "%%")
        else:
            glue.append(text)
            varying.append(column)
            text = ""
        text += "," if j < len(columns) - 1 else "\n"
    start = glue.pop(0)
    glue.append(text + start)
    n = len(varying[0]) if order is None else len(order)
    parts = [_block(varying, glue, start, slice(a, a + _BLOCK_ROWS), order)
             for a in range(0, n, _BLOCK_ROWS)]
    parts[:1] = [header + "".join(parts[:1])]  # a table of one block is written in one piece
    return parts


def _block(varying, glue, start, block, order) -> str:
    """The rows ``block`` of ``_table`` as text.  The template interleaves one list of cells per
    varying column and per constant text that stands alone; a constant text next to a float
    column is written around its fragments instead."""
    rows = None if order is None else order[block]
    pieces, args, used = [], [], []
    before = ""
    for i, column in enumerate(varying):
        if rows is None:
            values = column[block]
        elif isinstance(column, np.ndarray):
            values = column[rows]
        else:
            values = list(map(column.__getitem__, rows.tolist()))
        if _is_float(column):
            fragments, a_i, u_i = float17.cells(values, before, glue[i])
            pieces.append(fragments.tolist())
            args.append(a_i)
            used.append(u_i)
            before = ""
            continue
        if isinstance(values, np.ndarray):
            pieces.append(list(map(str, values.tolist())))
        elif "%" in "".join(values):
            pieces.append([cell.replace("%", "%%") for cell in values])
        else:
            pieces.append(values)
        if i + 1 < len(varying) and _is_float(varying[i + 1]):
            before = glue[i]
        else:
            pieces.append([glue[i]] * len(values))
    cells = [None] * (len(pieces) * len(pieces[0]))
    for k, piece in enumerate(pieces):
        cells[k::len(pieces)] = piece
    cells[-1] = cells[-1][:len(cells[-1]) - len(start)]  # no next row after the last
    if len(args) > 1:  # the arguments row by row
        args, used = [np.stack(args, axis=1)], [np.stack(used, axis=1)]
    return (start + "".join(cells)) % (tuple(args[0][used[0]].tolist()) if args else ())


def _emit_json(args, obj) -> None:
    _emit(args, json.dumps(obj, indent=2) + "\n")


# ------------------------------------------------------------------ commands

def cmd_validate(args) -> int:
    t = _load_tree(args)
    if not args.quiet:
        _emit(args, f"leaves: {t.n_leaves}\ntotal_measure: {t.total_measure:.17g}\n"
                    f"interior: {len(t.interior)}\ndepth: {int(t.depth.max())}\n")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    t, s, lam = _load(args)
    _emit(args, *_table("vertex_id,depth,nu,T,lambda\n", t.interior, t.names, t.depth, t.measure,
                        s.values, lam))
    return EXIT_OK


def cmd_wavelets(args) -> int:
    t = _load_tree(args)
    basis = wavmod.build_basis(t)
    # one line per wavelet k and child m of its vertex I: pos_val for m < j, neg_val at j, 0 after
    p = t.child_count[basis.vertex]
    k = np.repeat(np.arange(len(basis)), p)
    m = np.arange(len(k)) - np.repeat(np.cumsum(p) - p, p)
    I, j = basis.vertex[k], basis.index[k]
    value = np.where(m < j, basis.pos_val[k], np.where(m == j, basis.neg_val[k], 0.0))
    names = t.names
    _emit(args, *_table("vertex_id,j,child_id,coefficient\n", None, [names[v] for v in I.tolist()],
                        j, [names[c] for c in t.child_ids[t.child_first[I] + m].tolist()], value))
    return EXIT_OK


def cmd_kernel(args) -> int:
    t, _, lam = _load(args)
    if args.pairs == "all":  # n_leaves (n_leaves + 1) / 2 rows
        treemod.check_dense(t.n_leaves, "all-pairs kernel table")
    kernel = fieldmod.covariance_kernel(t, lam)
    if args.pairs == "profile":
        parts = _table("vertex_id,nu,K\n", t.preorder, t.names, t.measure, kernel.values)
    else:
        upper = np.triu_indices(t.n_leaves)  # the leaf-order pairs (i, j), i <= j, row by row
        sup = t.sup_index_matrix()[upper]
        names = np.array(t.names, dtype=object)
        x, y = (names[t.leaf_order[k]].tolist() for k in upper)
        parts = _table("x,y,sup_vertex,K\n", None, x, y, names[sup].tolist(), kernel.values[sup])
    _emit(args, *parts)
    return EXIT_OK


def cmd_sample(args) -> int:
    if args.count < 1:
        raise _CliError(f"--count must be at least 1, got {args.count}")
    t, _, lam = _load(args)
    basis = wavmod.build_basis(t)
    names = list(map(t.names.__getitem__, t.leaf_order.tolist()))
    parts = []
    for i in range(args.count):
        values = fieldmod.sample_field(t, lam, basis, np.random.SeedSequence([args.seed, i])).values
        parts += _table("" if i else "sample_index,leaf_id,value\n", None, str(i), names, values)
    _emit(args, *parts)
    return EXIT_OK


def cmd_mc_cov(args) -> int:
    if not 0.0 <= args.tol_sigma < math.inf:  # a NaN fails too
        raise _CliError(f"--tol-sigma must be a finite non-negative number, got {args.tol_sigma}")
    t, _, lam = _load(args)
    result = fieldmod.empirical_covariance(t, lam, wavmod.build_basis(t), args.n, args.seed)
    dev = np.abs(result.matrix - result.analytic)
    ok = bool(np.all(dev <= args.tol_sigma * result.standard_error))
    _emit_json(args, {
        "n": args.n,
        "seed": args.seed,
        "tol_sigma": args.tol_sigma,
        "max_abs_dev": float(result.max_abs_dev),
        "worst_pair": list(result.worst_pair),
        "pass": ok,
    })
    return EXIT_OK if ok else EXIT_FAIL


def cmd_convergence(args) -> int:
    report = pdomod.convergence_report(args.p, args.mu, args.q, args.levels)

    def verdict(v):
        out = {"converges": v.converges, "ratio": v.ratio if v.ratio != float("inf") else "inf"}
        if v.value is not None:
            out["value"] = v.value
        return out

    _emit_json(args, {
        "p": report.branching,
        "measure_ratio": report.measure_ratio,
        "symbol_ratio": report.symbol_ratio,
        "levels_probe": report.levels_probe,
        "conv1": verdict(report.conv1),
        "conv2": verdict(report.conv2),
    })
    return EXIT_OK


# ------------------------------------------------------------- verifications
# Each check returns (report fields, figure compared with the tolerance, default tolerance).

def _verify_eigen(args):
    t, s, _ = _load(args)
    resid = pdomod.verify_eigen(t, s, wavmod.build_basis(t))
    return {"residual": resid}, resid, 1e-9


def _verify_kernel(args):
    t, _, lam = _load(args)
    kernel = fieldmod.covariance_kernel(t, lam)
    K = kernel.values.tolist()
    basis = wavmod.build_basis(t)
    # for leaves x <= y under children a < b of S = sup(x, y), kernel_bruteforce(x, y) has
    # non-zero terms only from the rows j >= b of S and from the ancestors' rows, so it depends
    # on S and b alone: one pair per later child b of each interior S, (first leaf of child 0,
    # first leaf of child b)
    first_leaf = t.leaf_order[t.lo].tolist()
    kids, first, count = t.child_ids.tolist(), t.child_first.tolist(), t.child_count.tolist()
    resid = 0.0
    for S in t.preorder.tolist():
        reps = [first_leaf[c] for c in kids[first[S]:first[S] + count[S]]]
        for x, y in [(reps[0], y) for y in reps[1:]] if reps else [(S, S)]:  # a leaf with itself
            resid = max(resid, abs(K[S] - fieldmod.kernel_bruteforce(t, lam, basis, x, y)))
    return {"residual": resid}, resid / max(1.0, kernel.max_abs()), 1e-10


def _verify_ortho(args):
    G = wavmod.gram_matrix(wavmod.build_basis(_load_tree(args)))
    resid = float(np.abs(G - np.eye(G.shape[0])).max())
    return {"residual": resid}, resid, 1e-10


def _verify_markov(args):
    if args.trials < 1:
        raise _CliError(f"--trials must be at least 1, got {args.trials}")
    t, _, lam = _load(args)
    done, worst = fieldmod.markov_check(t, fieldmod.covariance_kernel(t, lam),
                                        np.random.default_rng(args.seed), args.trials)
    return {"trials": done, "seed": args.seed, "max_scaled_value": worst}, worst, 1e-12


def _verify_equation(args):
    t, s, lam = _load(args)
    resid, phi = fieldmod.check_equation(t, s, lam, wavmod.build_basis(t), args.seed)
    return {"seed": args.seed, "residual": resid}, resid / max(1.0, phi), 1e-9


VERIFICATIONS = {
    "eigen": _verify_eigen,
    "kernel": _verify_kernel,
    "ortho": _verify_ortho,
    "markov": _verify_markov,
    "equation": _verify_equation,
}


def cmd_verify(args) -> int:
    if args.tol is not None and not 0.0 <= args.tol < math.inf:  # a NaN fails too
        raise _CliError(f"--tol must be a finite non-negative number, got {args.tol}")
    fields, figure, tol = VERIFICATIONS[args.what](args)
    tol = tol if args.tol is None else args.tol
    ok = figure <= tol
    _emit_json(args, {"check": args.what, **fields, "tol": tol, "pass": ok})
    return EXIT_OK if ok else EXIT_FAIL


# -------------------------------------------------------------------- parser

@functools.cache  # built once per process: main is also called in-process, once per command
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="umfield",
                                     description="Gaussian random fields on ultrametric ball-trees")
    sub = parser.add_subparsers(dest="command", required=True)

    def tree_command(p, func, seeded=False):
        """Give command parser p the tree file or --gen, --seed if it draws, and --out."""
        p.add_argument("tree", nargs="?", help="tree-spec JSON file")
        p.add_argument("--gen", metavar="p:depth:measure",
                       help="use a homogeneous generated tree instead of a file")
        if seeded:
            p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
        p.add_argument("--out", help="write output to this file instead of stdout")
        p.set_defaults(func=func)
        return p

    p = tree_command(sub.add_parser("validate"), cmd_validate)
    p.add_argument("--quiet", action="store_true", help="print nothing, only the exit code")
    tree_command(sub.add_parser("spectrum"), cmd_spectrum)
    tree_command(sub.add_parser("wavelets"), cmd_wavelets)

    p = tree_command(sub.add_parser("kernel"), cmd_kernel)
    p.add_argument("--pairs", choices=["all", "profile"], default="all")

    p = tree_command(sub.add_parser("sample"), cmd_sample, seeded=True)
    p.add_argument("--count", type=int, default=1)

    p = tree_command(sub.add_parser("mc-cov"), cmd_mc_cov, seeded=True)
    p.add_argument("--n", type=int, default=200000)
    p.add_argument("--tol-sigma", type=float, default=5.0)

    checks = sub.add_parser("verify").add_subparsers(dest="what", required=True)
    for what in VERIFICATIONS:  # each check takes the options it reads
        p = tree_command(checks.add_parser(what), cmd_verify, seeded=what in ("markov", "equation"))
        p.add_argument("--tol", type=float, default=None)
        if what == "markov":
            p.add_argument("--trials", type=int, default=200)

    p = sub.add_parser("convergence")
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--mu", type=float, required=True, help="measure ratio per upward level")
    p.add_argument("--q", type=float, required=True, help="symbol ratio per upward level")
    p.add_argument("--levels", type=int, default=40)
    p.add_argument("--out")
    p.set_defaults(func=cmd_convergence)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_OK if e.code in (0, None) else EXIT_USAGE
    try:
        if getattr(args, "seed", 0) < 0:  # numpy would refuse it only after the tree is loaded
            raise _CliError(f"--seed must be a non-negative integer, got {args.seed}")
        return args.func(args)
    except (_CliError, ValueError, ArithmeticError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as e:  # a tree too large for this machine
        print(f"error: out of memory: {e}" if str(e) else "error: out of memory", file=sys.stderr)
        return EXIT_USAGE


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
