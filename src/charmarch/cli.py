"""Command-line driver: analyze, check, solve, verify-estimate."""
from __future__ import annotations

import argparse
import dataclasses
import errno
import functools
import io
import os
import re
import sys

import numpy as np

from . import builtin, charsolve, energymon, sysmodel, wellposed
from .charsolve import DataSpec, GridSpec, ProfileTerm, TransverseAxis
from .matkit import Tolerances
from .sysmodel import _fmt
from .wellposed import Verdict

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_WELL_POSED = 2


def _print_matrix(out, label: str, M: np.ndarray):
    out.write(f"{label}:\n")
    M = np.atleast_2d(M)
    for row in M:
        out.write("  " + " ".join(_fmt(x) for x in row) + "\n")


def _analyze(args) -> wellposed.Analysis:
    tols = _tolerances(args.tol, args.tol_keys)
    if args.example:
        text = builtin.example_text(args.example)
    else:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    return wellposed.analyze(*sysmodel.load_system(text), tols)


_TOL_KEYS = tuple(f.name for f in dataclasses.fields(Tolerances))
# ctol scales the slack of the energy check, which only verify-estimate runs
_REDUCTION_TOL_KEYS = tuple(k for k in _TOL_KEYS if k != "ctol")


def _numbers(items, what: str) -> dict:
    """key=number items as a dict; an item without '=', a repeated key and
    a value that is not a number are refused by name."""
    out = {}
    for item in items:
        if "=" not in item:
            raise ValueError(f"bad {what} '{item}'")
        key, val = (part.strip() for part in item.split("=", 1))
        if key in out:
            raise ValueError(f"repeated {what} '{key}'")
        try:
            out[key] = float(val)
        except ValueError:
            raise ValueError(
                f"{what} '{key}' is not a number: '{val}'") from None
    return out


def _tolerances(spec: str, keys=_TOL_KEYS) -> Tolerances:
    overrides = _numbers(spec.split(",") if spec else (),
                         "tolerance override")
    for key in overrides:
        if key not in keys:
            raise ValueError(f"unknown tolerance key '{key}' "
                             f"(this command takes {', '.join(keys)})")
    return Tolerances(**overrides)


_PRESET_SPLIT = re.compile(r",(?=(?:zero|sine:|gauss:))")
_TRANS_KEYS = ("ky", "kz")
_TRANS_PHASE_KEYS = ("phasey", "phasez")


def parse_presets(spec: str, count: int, n_transverse: int):
    """Parse a comma-separated list of data presets, one per variable.

    Grammar per item: zero | sine:amp=..,k=..,phase=..[,ky=..][,kz=..]
    | gauss:amp=..,center=..,width=..[,ky=..][,kz=..]; optional phasey/phasez
    shift the transverse cosine factors.  A parameter that the kind does not
    use is rejected.
    """
    items = _PRESET_SPLIT.split(spec.strip()) if spec.strip() else []
    if len(items) != count:
        raise ValueError(f"expected {count} presets, got {len(items)}")
    profiles = []
    for item in items:
        item = item.strip()
        if item == "zero":
            profiles.append(())
            continue
        if ":" not in item:
            raise ValueError(f"bad preset '{item}'")
        kind, params = item.split(":", 1)
        if kind not in charsolve._TAKES:
            raise ValueError(f"unknown preset kind '{kind}'")
        kv = _numbers(params.split(","), "preset parameter")
        trans = []
        for j in range(n_transverse):
            kt = kv.pop(_TRANS_KEYS[j], 0.0)
            pt = kv.pop(_TRANS_PHASE_KEYS[j], 0.0)
            trans.append((kt, pt))
        shape = {k: kv.pop(k) for k in charsolve._TAKES[kind] if k in kv}
        if kv:
            raise ValueError(f"preset {kind} does not take parameters: "
                             f"{', '.join(kv)}")
        profiles.append(
            (ProfileTerm(kind=kind, trans=tuple(trans), **shape),))
    return tuple(profiles)


def _grid_from_args(args, canon):
    cells = []
    for item in args.cells.split(",") if args.cells else ():
        try:
            cells.append(int(item))
        except ValueError:
            raise ValueError(
                f"--cells item '{item}' is not an integer") from None
    d = len(canon.transverse_names)
    if len(cells) > d:
        raise ValueError(f"--cells lists {len(cells)} values but the system "
                         f"has {d} transverse coordinates")
    cells += [16] * (d - len(cells))
    return GridSpec(X_total=args.Xtotal, nx=args.nx,
                    transverse=tuple(TransverseAxis(cells=c) for c in cells))


def _data_from_args(args, canon):
    nt = len(canon.transverse_names)
    q0 = parse_presets(args.q0 or ",".join(["zero"] * canon.nq),
                       canon.nq, nt)
    w0 = parse_presets(args.w0 or ",".join(["zero"] * canon.m),
                       canon.m, nt)
    return DataSpec(q0=q0, w0=w0)


def cmd_analyze(args, out):
    a = _analyze(args)
    B, cs, canon, cf = a.B, a.structure, a.canon, a.compact
    for name in B.names:
        _print_matrix(out, f"B^{name}", B.B[name])
    out.write(f"multiplicity m = {cs.m}\n")
    for k, z in enumerate(cs.right_null, start=1):
        out.write(f"z_{k} = " + " ".join(_fmt(x) for x in z) + "\n")
    for k, zt in enumerate(cs.left_null, start=1):
        out.write(f"ztilde_{k} = " + " ".join(_fmt(x) for x in zt) + "\n")
    _print_matrix(out, "S", cs.S)
    _print_matrix(out, "transversality M", canon.M)
    out.write("variable order: " + " ".join(canon.variable_names) + "\n")
    _print_matrix(out, "Nu", canon.Nu)
    _print_matrix(out, "Nx", canon.Nx)
    for name in canon.transverse_names:
        _print_matrix(out, f"N^{name}", canon.Ni[name])
        _print_matrix(out, f"L^{name}", canon.Li[name])
    _print_matrix(out, "N0", canon.N0)
    _print_matrix(out, "L0", canon.L0)
    for name in ["u", "x"] + list(canon.transverse_names):
        _print_matrix(out, f"C^{name}", cf.C[name])
    _print_matrix(out, "R", cf.R)
    return EXIT_OK


def cmd_check(args, out):
    rep = _analyze(args).report
    out.write(f"verdict: {rep.verdict.value}\n")
    for name, ok in rep.symmetric_Ca.items():
        out.write(f"symmetric C^{name}: {'yes' if ok else 'no'}\n")
    out.write(f"Nu: {rep.class_Nu.tag.value}\n")
    out.write(f"Nx: {rep.class_Nx.tag.value}\n")
    out.write(f"Nu+Nx: {rep.class_NuPlusNx.tag.value}\n")
    out.write(f"R: {rep.class_R.tag.value}\n")
    out.write(f"r = {_fmt(rep.r)}\n")
    out.write(f"c = {_fmt(rep.c)}\n")
    out.write(f"growth exponent r/c = {_fmt(rep.growth_exponent)}\n")
    out.write(f"T_max = {_fmt(rep.T_max)}\n")
    out.write(f"time function u+x ok: {'yes' if rep.time_function_ok else 'no'}\n")
    return EXIT_OK if rep.verdict is not Verdict.NOT_WELL_POSED \
        else EXIT_NOT_WELL_POSED


def cmd_solve(args, out):
    a = _analyze(args)
    trace = charsolve.march(a.canon, _grid_from_args(args, a.canon),
                            _data_from_args(args, a.canon),
                            report=a.report, force=args.force)
    out.write("u,x_extent,max_abs_v\n")
    for s, diag in zip(trace.slices, trace.diagnostics):
        out.write(f"{_fmt(s.u_level)},{s.x_extent},{_fmt(diag)}\n")
    return EXIT_OK


def cmd_verify_estimate(args, out):
    a = _analyze(args)
    if a.report.verdict is not Verdict.WELL_POSED:
        sys.stderr.write("cannot verify estimate: verdict is "
                         f"{a.report.verdict.value}\n")
        return EXIT_NOT_WELL_POSED
    grid = _grid_from_args(args, a.canon)
    trace = charsolve.march(a.canon, grid, _data_from_args(args, a.canon),
                            report=a.report)
    out.write(energymon.EnergyReport.CSV_HEADER + "\n")
    for T in energymon.estimate_ladder(grid):
        try:
            report = energymon.verify_estimate(trace, a.compact, a.report, T)
        except energymon.EstimateHorizonError:
            sys.stderr.write(f"skipping T={T:.6g}: estimate not guaranteed "
                             f"for T >= c/r = {a.report.T_max:.6g}\n")
            continue
        out.write(report.csv_row() + "\n")
    return EXIT_OK


@functools.cache   # one parser per process: parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="charmarch",
        description="Characteristic canonical form, well-posedness and "
                    "energy-estimate verification for constant-coefficient "
                    "first-order hyperbolic systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tol_keys=_REDUCTION_TOL_KEYS, grid=False):
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--example", choices=builtin.EXAMPLES,
                            help="built-in system name")
        source.add_argument("--input", help="path to a system-definition file")
        p.add_argument("--tol", default="",
                       help="tolerance overrides key=val,... "
                            f"({', '.join(tol_keys)})")
        p.set_defaults(tol_keys=tol_keys)
        p.add_argument("--out", help="write the report to this path once "
                                     "the command has run; a command that "
                                     "fails leaves the file as it was")
        if grid:
            p.add_argument("--nx", type=int, default=64)
            p.add_argument("--cells", default="",
                           help="transverse cells, comma separated, at most "
                                "one per transverse coordinate; missing "
                                "ones are 16")
            p.add_argument("--Xtotal", type=float, default=2.0)
            p.add_argument("--q0", default="",
                           help="normal-data presets, one per variable")
            p.add_argument("--w0", default="",
                           help="null-data presets, one per variable")

    p = sub.add_parser("analyze", help="print the canonicalization pipeline")
    # analyze prints no verdict, so only rank changes what it prints
    common(p, tol_keys=("rank",))
    p = sub.add_parser("check", help="well-posedness report")
    common(p)
    p = sub.add_parser("solve", help="march and write trace diagnostics")
    common(p, grid=True)
    p.add_argument("--force", action="store_true",
                   help="march even when not well posed")
    p = sub.add_parser("verify-estimate",
                       help="march and verify the a priori estimate")
    common(p, tol_keys=_TOL_KEYS, grid=True)
    return parser


_COMMANDS = {
    "analyze": cmd_analyze,
    "check": cmd_check,
    "solve": cmd_solve,
    "verify-estimate": cmd_verify_estimate,
}


def _check_writable(path: str):
    """Raise OSError when path cannot be written; create and change
    nothing."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT),
                                parent)
    if not os.access(path if os.path.exists(path) else parent, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:   # argparse has written --help or the error
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    try:
        if not args.out:
            code = _COMMANDS[args.command](args, sys.stdout)
            sys.stdout.flush()   # a closed stdout raises here, not at exit
            return code
        _check_writable(args.out)
        # a command that raises or writes no report leaves the file as it was
        buf = io.StringIO()
        code = _COMMANDS[args.command](args, buf)
        if buf.getvalue():
            with open(args.out, "w", encoding="utf-8") as out:
                out.write(buf.getvalue())
        return code
    except BrokenPipeError:
        # stdout's reader has gone: report nothing, and point stdout at
        # devnull so that the interpreter's final flush cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_ERROR
    except (ValueError, KeyError, OSError, RuntimeError,
            OverflowError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
