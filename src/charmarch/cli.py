"""Command-line driver: analyze, check, solve, verify-estimate."""
from __future__ import annotations

import argparse
import dataclasses
import math
import re
import sys

import numpy as np

from . import builtin, charsolve, energymon, sysmodel, wellposed
from .charsolve import DataSpec, GridSpec, ProfileTerm, TransverseAxis
from .matkit import Tolerances
from .wellposed import Verdict

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_WELL_POSED = 2


def _fmt(x: float) -> str:
    return "%.17g" % x


def _print_matrix(out, label: str, M: np.ndarray):
    out.write(f"{label}:\n")
    M = np.atleast_2d(M)
    for row in M:
        out.write("  " + " ".join(_fmt(x) for x in row) + "\n")


def _analyze(args, tols: Tolerances) -> wellposed.Analysis:
    if args.example:
        text = builtin.example_text(args.example)
    else:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    return wellposed.analyze(*sysmodel.load_system(text), tols)


def _tolerances(spec: str) -> Tolerances:
    keys = {f.name for f in dataclasses.fields(Tolerances)}
    overrides = {}
    for item in spec.split(",") if spec else ():
        if "=" not in item:
            raise ValueError(f"bad tolerance override '{item}'")
        key, val = item.split("=", 1)
        if key not in keys:
            raise ValueError(f"unknown tolerance key '{key}'")
        overrides[key] = float(val)
    return Tolerances(**overrides)


_PRESET_SPLIT = re.compile(r",(?=(?:zero|sine:|gauss:))")
_TRANS_KEYS = ("ky", "kz")
_TRANS_PHASE_KEYS = ("phasey", "phasez")


def parse_presets(spec: str, count: int, n_transverse: int):
    """Parse a comma-separated list of data presets, one per variable.

    Grammar per item: zero | sine:amp=..,k=..,phase=..[,ky=..][,kz=..]
    | gauss:amp=..,center=..,width=..[,ky=..][,kz=..]; optional phasey/phasez
    shift the transverse cosine factors.
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
        if kind not in ("sine", "gauss"):
            raise ValueError(f"unknown preset kind '{kind}'")
        kv = {}
        for pair in params.split(","):
            if "=" not in pair:
                raise ValueError(f"bad preset parameter '{pair}'")
            key, val = pair.split("=", 1)
            kv[key.strip()] = float(val)
        trans = []
        for j in range(n_transverse):
            kt = kv.pop(_TRANS_KEYS[j], 0.0)
            pt = kv.pop(_TRANS_PHASE_KEYS[j], 0.0)
            if kt != round(kt):
                raise ValueError("transverse wavenumbers must be integers")
            trans.append((kt, pt))
        term = ProfileTerm(
            kind=kind,
            amp=kv.pop("amp", 1.0),
            k=kv.pop("k", 1.0),
            phase=kv.pop("phase", 0.0),
            center=kv.pop("center", 0.0),
            width=kv.pop("width", 1.0),
            trans=tuple(trans))
        if kv:
            raise ValueError(f"unknown preset parameters: {', '.join(kv)}")
        profiles.append((term,))
    return tuple(profiles)


def _grid_from_args(args, canon):
    cells = [int(c) for c in args.cells.split(",")] if args.cells else []
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
    a = _analyze(args, _tolerances(args.tol))
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
    rep = _analyze(args, _tolerances(args.tol)).report
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
    out.write("T_max = " + ("inf" if math.isinf(rep.T_max)
                            else _fmt(rep.T_max)) + "\n")
    out.write(f"time function u+x ok: {'yes' if rep.time_function_ok else 'no'}\n")
    return EXIT_OK if rep.verdict is not Verdict.NOT_WELL_POSED \
        else EXIT_NOT_WELL_POSED


def _march(args, a: wellposed.Analysis, grid: GridSpec):
    return charsolve.march(a.canon, grid, _data_from_args(args, a.canon),
                           report=a.report, force=args.force)


def cmd_solve(args, out):
    a = _analyze(args, _tolerances(args.tol))
    trace = _march(args, a, _grid_from_args(args, a.canon))
    out.write("u,x_extent,max_abs_v\n")
    for s, diag in zip(trace.slices, trace.diagnostics):
        out.write("%.17g,%d,%.17g\n" % (s.u_level, s.x_extent, diag))
    return EXIT_OK


def cmd_verify_estimate(args, out):
    tols = _tolerances(args.tol)
    a = _analyze(args, tols)
    grid = _grid_from_args(args, a.canon)
    trace = _march(args, a, grid)
    if a.report.verdict is not Verdict.WELL_POSED:
        sys.stderr.write("cannot verify estimate: verdict is "
                         f"{a.report.verdict.value}\n")
        return EXIT_NOT_WELL_POSED
    out.write(energymon.EnergyReport.CSV_HEADER + "\n")
    for T in energymon.estimate_ladder(grid):
        try:
            report = energymon.verify_estimate(trace, a.compact, a.report,
                                               T, c_tol=tols.ctol)
        except energymon.EstimateHorizonError:
            sys.stderr.write(f"skipping T={T:.6g}: estimate not guaranteed "
                             f"for T >= c/r = {a.report.T_max:.6g}\n")
            continue
        out.write(report.csv_row() + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="charmarch",
        description="Characteristic canonical form, well-posedness and "
                    "energy-estimate verification for constant-coefficient "
                    "first-order hyperbolic systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, grid=False):
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--example", choices=builtin.EXAMPLES,
                            help="built-in system name")
        source.add_argument("--input", help="path to a system-definition file")
        p.add_argument("--tol", default="",
                       help="tolerance overrides key=val,... "
                            "(rank, sym, eig, ctol)")
        p.add_argument("--out", help="write the report to this path")
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
            p.add_argument("--force", action="store_true",
                           help="march even when not well posed")

    p = sub.add_parser("analyze", help="print the canonicalization pipeline")
    common(p)
    p = sub.add_parser("check", help="well-posedness report")
    common(p)
    p = sub.add_parser("solve", help="march and write trace diagnostics")
    common(p, grid=True)
    p = sub.add_parser("verify-estimate",
                       help="march and verify the a priori estimate")
    common(p, grid=True)
    return parser


_COMMANDS = {
    "analyze": cmd_analyze,
    "check": cmd_check,
    "solve": cmd_solve,
    "verify-estimate": cmd_verify_estimate,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:   # argparse has written --help or the error
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as out:
                return _COMMANDS[args.command](args, out)
        return _COMMANDS[args.command](args, sys.stdout)
    except (ValueError, KeyError, OSError, RuntimeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
