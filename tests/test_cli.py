import dataclasses
import errno
import io
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import charmarch as cm
import charmarch.cli as cli
from charmarch import builtin, charsolve
from charmarch.charsolve import ProfileTerm

import conftest


# one unknown with A^t = A^x = 1 and u = t - x: B^u = 0, so every variable
# is null and there are no evolution rows (nq = 0)
TOTALLY_CHARACTERISTIC = ("ncoords 2\nnunknowns 1\ncoordnames t x\n"
                          "matrix A t\n1\nmatrix A x\n1\n"
                          "chart\n1 -1\n0 1\n0 0\n")


# a 2x2 system in three coordinates, WELL_POSED; the parser tests put a
# non-finite number or a bad count into it
NONFINITE_BASE = ("ncoords 3\nnunknowns 2\ncoordnames t x y\n"
                  "matrix A t\n1 0\n0 1\nmatrix A x\n0 1\n1 0\n"
                  "matrix A y\n0 0\n0 0\nmatrix D\n0 0\n0 0\n"
                  "chart\n1 -1 0\n0 1 0\n0 0 1\n0 0 0\n")


def run_cli(argv):
    out = io.StringIO()
    args = cli.build_parser().parse_args(argv)
    code = cli._COMMANDS[args.command](args, out)
    return code, out.getvalue()


class TestAnalyze:
    def test_wave_report_contents(self):
        code, text = run_cli(["analyze", "--example", "wave3d"])
        assert code == cli.EXIT_OK
        assert "multiplicity m = 1" in text
        assert "variable order: q1 q2 q3 w1" in text
        nu = [[float(v) for v in row.split()]
              for row in text.split("Nu:\n")[1].splitlines()[:3]]
        expected = [[2.0, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert all(abs(a - b) < 1e-12
                   for ra, rb in zip(nu, expected) for a, b in zip(ra, rb))
        m_row = text.split("transversality M:\n")[1].splitlines()[0]
        assert abs(float(m_row) - 1.0) < 1e-12

    def test_input_file_equivalent_to_example(self, tmp_path):
        path = tmp_path / "sys.txt"
        path.write_text(builtin.example_text("wave3d"), encoding="utf-8")
        _, via_example = run_cli(["analyze", "--example", "wave3d"])
        _, via_file = run_cli(["analyze", "--input", str(path)])
        assert via_file == via_example

    def test_every_transverse_row_keeps_its_label(self, tmp_path):
        # rows 2 and 3 would both be x2: each prints its own C^ block
        path = tmp_path / "labels.txt"
        path.write_text(cm.serialize_system(*conftest.label_clash_system()),
                        encoding="utf-8")
        code, text = run_cli(["analyze", "--input", str(path)])
        assert code == cli.EXIT_OK
        blocks = {name: text.split(f"C^{name}:\n")[1].splitlines()[:4]
                  for name in ("x2", "x3")}
        assert text.count("C^x2:\n") == text.count("C^x3:\n") == 1
        assert blocks["x2"] != blocks["x3"]


class TestCheck:
    def test_wave_well_posed_exit_zero(self):
        code, text = run_cli(["check", "--example", "wave3d"])
        assert code == cli.EXIT_OK
        assert "verdict: WELL_POSED" in text
        assert "r = 0" in text
        assert "T_max = inf" in text

    def test_not_well_posed_exit_two(self, tmp_path):
        path = tmp_path / "reversed.txt"
        path.write_text(conftest.reversed_x_chart_text(), encoding="utf-8")
        code, text = run_cli(["check", "--input", str(path)])
        assert code == cli.EXIT_NOT_WELL_POSED
        assert "verdict: NOT_WELL_POSED" in text

    def test_no_q_unknowns_has_a_time_function(self, tmp_path):
        # A^t = 0, A^x = I, identity chart: nq = 0, so C^u + C^x = I_m and
        # u + x is a time function; Nu is empty, so the verdict stays
        path = tmp_path / "nq0.txt"
        path.write_text("ncoords 2\nnunknowns 2\ncoordnames t x\n"
                        "matrix A t\n0 0\n0 0\nmatrix A x\n1 0\n0 1\n"
                        "chart\n1 0\n0 1\n0 0\n", encoding="utf-8")
        code, text = run_cli(["check", "--input", str(path)])
        assert code == cli.EXIT_NOT_WELL_POSED
        assert "c = 1\n" in text
        assert "time function u+x ok: yes\n" in text

    def test_parse_error_exit_one(self, tmp_path, capsys):
        path = tmp_path / "broken.txt"
        path.write_text("ncoords 2\nbogus 3\n", encoding="utf-8")
        assert cli.main(["check", "--input", str(path)]) == cli.EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, err", [
        # each got past the parser: "SVD did not converge", two
        # RuntimeWarnings and an unlocated message, the unlocated message,
        # and a WELL_POSED verdict with exit 0
        ("matrix A y\n0 0", "matrix A y\nnan 0",
         "line 11: matrix A y: non-finite number"),
        ("matrix D\n0 0", "matrix D\ninf 0",
         "line 14: matrix D: non-finite number"),
        ("matrix A x\n0 1", "matrix A x\n1e400 1",
         "line 8: matrix A x: non-finite number"),
        ("0 0 1\n0 0 0", "0 0 1\n0 nan inf",
         "line 20: chart offsets: non-finite number"),
        ("ncoords 3", "ncoords \u00b2", "line 1: ncoords expects one integer"),
    ])
    def test_refused_by_the_parser(self, old, new, err, tmp_path, capsys):
        path = tmp_path / "system.txt"
        path.write_text(NONFINITE_BASE.replace(old, new), encoding="utf-8")
        assert cli.main(["check", "--input", str(path)]) == cli.EXIT_ERROR
        assert capsys.readouterr() == ("", f"error: {err}\n")

    @pytest.mark.parametrize("entry, chart_row, err", [
        # each printed a RuntimeWarning first: the rank scale overflowed,
        # so B^u had rank 0 and the verdict read NOT_WELL_POSED with
        # Nu: ZERO; B^u overflowed, and the message did not say where
        ("1e300", "1 -1 0", "surface x=const not transverse: hypersurface "
         "equations unsolvable for d_x w"),
        ("1e308", "1 -2 0", "side matrix B^u overflows at its A^x term "
         "(chart entry -2): an entry exceeds the float range"),
    ])
    def test_huge_entries_end_in_a_typed_error(self, entry, chart_row, err,
                                               tmp_path, capsys):
        path = tmp_path / "system.txt"
        path.write_text(NONFINITE_BASE.replace(
            "matrix A x\n0 1", f"matrix A x\n{entry} 1").replace(
            "chart\n1 -1 0", f"chart\n{chart_row}"), encoding="utf-8")
        assert cli.main(["check", "--input", str(path)]) == cli.EXIT_ERROR
        assert capsys.readouterr() == ("", f"error: {err}\n")

    def test_nonfinite_base_is_well_posed(self, tmp_path, capsys):
        path = tmp_path / "system.txt"
        path.write_text(NONFINITE_BASE, encoding="utf-8")
        assert cli.main(["check", "--input", str(path)]) == cli.EXIT_OK
        assert capsys.readouterr().out.startswith("verdict: WELL_POSED\n")

    def test_not_characteristic_exit_one(self, tmp_path, capsys):
        path = tmp_path / "u_equals_t.txt"
        path.write_text(builtin.example_text("wave3d").replace(
            "chart\n1 -1", "chart\n1 0"), encoding="utf-8")
        assert cli.main(["check", "--input", str(path)]) == cli.EXIT_ERROR
        assert capsys.readouterr().err == \
            "error: surface u=const is not characteristic\n"

    def test_totally_characteristic_gets_a_verdict(self, tmp_path, capsys):
        path = tmp_path / "null.txt"
        path.write_text(TOTALLY_CHARACTERISTIC, encoding="utf-8")
        code = cli.main(["check", "--input", str(path)])
        out, err = capsys.readouterr()
        assert (code, err) == (cli.EXIT_NOT_WELL_POSED, "")
        assert out.startswith("verdict: NOT_WELL_POSED\n")
        assert "Nu: ZERO\n" in out

    def test_missing_source_exit_one(self, capsys):
        assert cli.main(["check"]) == cli.EXIT_ERROR

    def test_near_singular_bu_gets_a_verdict(self, tmp_path, capsys):
        # B^u = [[1, 0], [1, 1.5e-10]] has one right and one left null
        # vector at one rank decision; with two decisions there was no left
        # one, and check failed with numpy's "1-dimensional array given"
        path = tmp_path / "near_singular.txt"
        path.write_text("ncoords 2\nnunknowns 2\ncoordnames t x\n"
                        "matrix A t\n1 0\n1 1.5e-10\nmatrix A x\n1 0\n0 -1\n"
                        "chart\n1 0\n0 1\n0 0\n", encoding="utf-8")
        code = cli.main(["check", "--input", str(path)])
        out, err = capsys.readouterr()
        assert (code, err) == (cli.EXIT_NOT_WELL_POSED, "")
        assert out.startswith("verdict: NOT_WELL_POSED\n")

    @pytest.mark.parametrize("m, s", [(3, 1e-4), (3, 1e4),
                                      (2, 1e-6), (2, 1e6)])
    def test_scaled_system_gets_a_verdict(self, m, s, tmp_path, capsys):
        # det M scales like s^m and det(row transform) like s^-m, so an
        # absolute bound on either refuses these systems
        system, chart = conftest.drawn_system(np.random.default_rng(0), m)
        path = tmp_path / "scaled.txt"
        path.write_text(cm.serialize_system(conftest.scaled(system, s), chart),
                        encoding="utf-8")
        code = cli.main(["check", "--input", str(path)])
        out, err = capsys.readouterr()
        assert code in (cli.EXIT_OK, cli.EXIT_NOT_WELL_POSED) and err == ""
        assert out.startswith("verdict: ")

    def test_tiny_default_evolution_row_gets_a_verdict(self, tmp_path,
                                                       capsys):
        # B^u = [[0, 1], [0, 1e-14]]: the default evolution row is tiny
        # next to row 0, and keeping it made the row transform singular
        path = tmp_path / "tiny_row.txt"
        path.write_text("ncoords 2\nnunknowns 2\ncoordnames t x\n"
                        "matrix A t\n0 1\n0 1e-14\nmatrix A x\n0 0\n1 0\n"
                        "chart\n1 0\n0 1\n0 0\n", encoding="utf-8")
        code = cli.main(["check", "--input", str(path)])
        out, err = capsys.readouterr()
        assert (code, err) == (cli.EXIT_OK, "")
        assert out.startswith("verdict: WELL_POSED\n")

    def test_repeated_coordinate_name_refused(self, tmp_path, capsys):
        path = tmp_path / "t_twice.txt"
        path.write_text(TOTALLY_CHARACTERISTIC.replace("coordnames t x",
                                                       "coordnames t t"),
                        encoding="utf-8")
        assert cli.main(["check", "--input", str(path)]) == cli.EXIT_ERROR
        assert capsys.readouterr() == (
            "", "error: line 3: repeated coordinate name 't'\n")

    def test_orth_override_rejected(self, capsys):
        # no call site takes an orthogonality tolerance, so the key is
        # refused rather than silently ignored
        argv = ["check", "--example", "wave3d", "--tol", "orth=1e-3"]
        assert cli.main(argv) == cli.EXIT_ERROR
        assert "unknown tolerance key 'orth'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "check", "solve"])
    def test_ctol_only_taken_by_verify_estimate(self, command, capsys):
        # ctol scales the slack of the energy check, which these commands
        # never run; each --tol help names only the keys its command takes
        argv = [command, "--example", "wave3d", "--tol", "ctol=5"]
        assert cli.main(argv) == cli.EXIT_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert "unknown tolerance key 'ctol'" in err
        assert cli.main([command, "--help"]) == cli.EXIT_OK
        keys = "(rank)" if command == "analyze" else "(rank, sym, eig)"
        assert keys in capsys.readouterr().out
        assert cli.main(["verify-estimate", "--help"]) == cli.EXIT_OK
        assert "(rank, sym, eig, ctol)" in capsys.readouterr().out

    @pytest.mark.parametrize("key", ["sym", "eig"])
    def test_analyze_takes_only_rank(self, key, capsys):
        # analyze prints no verdict, so sym and eig would change nothing
        argv = ["analyze", "--example", "wave3d", "--tol", f"{key}=1e-3"]
        assert cli.main(argv) == cli.EXIT_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert f"unknown tolerance key '{key}'" in err


class TestUsageErrors:
    """A bad command line exits 1 (2 means NOT_WELL_POSED), writes nothing
    to stdout and names its cause on stderr."""

    @pytest.mark.parametrize("argv, cause", [
        (["check", "--example", "wave3d", "--bogus"], "--bogus"),
        (["check", "--example", "nosuch"], "nosuch"),
        (["solve", "--example", "wave3d", "--cfl", "0.5"], "--cfl"),
        (["solve", "--example", "wave3d", "--cells", "8,4,9"],
         "--cells lists 3 values but the system has 2 transverse"),
        (["check", "--example", "wave3d", "--tol", "eig=nan"],
         "tolerance eig must be finite"),
        (["check", "--example", "wave3d", "--tol", "eig=-1"],
         "tolerance eig must be finite and > 0"),
        (["solve", "--example", "wave3d", "--Xtotal", "nan"],
         "X_total must be positive and finite"),
        (["solve", "--example", "wave3d", "--w0", "gauss:k=3,phase=2"],
         "preset gauss does not take parameters: k, phase"),
        (["check", "--example", "wave3d", "--tol", "eig=1e-3,eig=1e-10"],
         "repeated tolerance override 'eig'"),
        (["check", "--example", "wave3d", "--tol", "eig=abc"],
         "tolerance override 'eig' is not a number: 'abc'"),
        (["solve", "--example", "wave3d", "--q0",
          "sine:amp=1,amp=2,zero,zero"], "repeated preset parameter 'amp'"),
        (["solve", "--example", "wave3d", "--w0", "sine:ky=inf"],
         "profile trans[0] must be a finite (wavenumber, phase) pair"),
        (["solve", "--example", "wave3d", "--w0", "sine:k=x"],
         "preset parameter 'k' is not a number: 'x'"),
        (["solve", "--example", "wave3d", "--cells", "0,4"],
         "cells must be an integer >= 1, got 0"),
        (["solve", "--example", "wave3d", "--cells", "4.5,4"],
         "--cells item '4.5' is not an integer"),
        (["solve", "--example", "wave3d", "--cells", "abc"],
         "--cells item 'abc' is not an integer"),
        (["solve", "--example", "wave3d", "--cells", "4,,4"],
         "--cells item '' is not an integer"),
        (["solve", "--example", "wave3d", "--w0", "gauss:width=0"],
         "profile width must be finite and > 0, got 0.0"),
        (["solve", "--example", "wave3d", "--w0", "gauss:width=-1"],
         "profile width must be finite and > 0, got -1.0"),
        (["solve", "--example", "wave3d", "--w0", "sine:amp=nan"],
         "profile amp must be finite, got nan"),
        (["verify-estimate", "--example", "wave3d", "--w0", "sine:k=inf"],
         "profile k must be finite, got inf"),
        (["solve", "--example", "wave3d", "--w0", "sine:phasey=nan"],
         "profile trans[0] must be a finite (wavenumber, phase) pair"),
        (["solve", "--example", "wave3d", "--w0", "sine:ky=0.5"],
         "profile trans[0] wavenumber must be an integer, got 0.5"),
        (["verify-estimate", "--example", "wave3d", "--nx", "4", "--cells",
          "4,4", "--Xtotal", "5e-324"],
         "error: X_total / nx must be a float > 0, got X_total = 5e-324, "
         "nx = 4\n"),
        # an nx past the float range has no float dx at all
        (["solve", "--example", "wave3d", "--nx", "1" + "0" * 400],
         "error: X_total / nx must be a float > 0, got X_total = 2.0, "
         "nx = 1000"),
    ])
    def test_exit_one(self, argv, cause, capsys):
        assert cli.main(argv) == cli.EXIT_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert cause in err

    @pytest.mark.parametrize("command",
                             ["analyze", "check", "solve", "verify-estimate"])
    def test_example_and_input_exclusive(self, command, tmp_path, capsys):
        # the file alone is NOT_WELL_POSED; --example must not win over it
        path = tmp_path / "reversed.txt"
        path.write_text(conftest.reversed_x_chart_text(), encoding="utf-8")
        argv = [command, "--example", "wave3d", "--input", str(path)]
        assert cli.main(argv) == cli.EXIT_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert "not allowed with argument" in err

    def test_help_exits_zero(self, capsys):
        assert cli.main(["solve", "--help"]) == cli.EXIT_OK
        assert "--cells" in capsys.readouterr().out

    def test_short_cells_padded_with_16(self, wave_canon):
        args = cli.build_parser().parse_args(
            ["solve", "--example", "wave3d", "--cells", "8"])
        grid = cli._grid_from_args(args, wave_canon)
        assert [t.cells for t in grid.transverse] == [8, 16]


class TestSharedParser:
    """One parser serves every main call of a process, and a parse leaves
    nothing in it for the next one."""

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_calls_match_a_fresh_parser(self, tmp_path, capsys):
        path = tmp_path / "reversed.txt"
        path.write_text(conftest.reversed_x_chart_text(), encoding="utf-8")
        calls = [
            ["verify-estimate", "--example", "wave3d", "--nx", "8",
             "--cells", "4,4", "--tol", "ctol=0.5"],
            ["check", "--example", "wave3d", "--tol", "ctol=0.5"],
            ["check", "--example", "wave3d", "--bogus"],
            ["check", "--example", "wave3d"],
            ["analyze", "--input", str(path)],
        ]

        def run(argv):
            code = cli.main(argv)
            return (code,) + tuple(capsys.readouterr())

        cli.build_parser.cache_clear()
        shared = [run(argv) for argv in calls]
        assert cli.build_parser.cache_info().misses == 1
        for argv, got in zip(calls, shared):
            cli.build_parser.cache_clear()
            assert run(argv) == got
        # verify-estimate's ctol key does not carry over to check
        code, out, err = shared[1]
        assert code == cli.EXIT_ERROR and out == ""
        assert "unknown tolerance key 'ctol'" in err
        assert [got[0] for got in shared] == [
            cli.EXIT_OK, cli.EXIT_ERROR, cli.EXIT_ERROR, cli.EXIT_OK,
            cli.EXIT_OK]


class TestSolve:
    def test_plane_wave_trace_csv(self):
        code, text = run_cli([
            "solve", "--example", "wave3d", "--nx", "16", "--cells", "4,4",
            "--w0", "sine:amp=1.4142135623730951,k=1"])
        assert code == cli.EXIT_OK
        lines = text.strip().splitlines()
        assert lines[0] == "u,x_extent,max_abs_v"
        assert len(lines) == 1 + 17
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and int(first[1]) == 17
        # max |v| on the diagonal follows sqrt(2)|sin(u)| exactly
        last = lines[-1].split(",")
        u_last = float(last[0])
        assert int(last[1]) == 1
        assert abs(float(last[2])
                   - math.sqrt(2.0) * abs(math.sin(u_last))) < 1e-12

    def test_out_file(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = cli.main(["solve", "--example", "wave3d", "--nx", "8",
                         "--cells", "4,4", "--out", str(out)])
        assert code == cli.EXIT_OK
        assert out.read_text().startswith("u,x_extent,max_abs_v")

    @pytest.mark.parametrize("w0, amp", [(None, 0.0), ("sine:amp=1,k=1", 1.0)],
                             ids=["zero", "sine"])
    def test_forced_march_without_q_block(self, w0, amp, tmp_path, capsys):
        # nq = 0: the march carries w alone, and w = w0(u) on every row
        path = tmp_path / "null.txt"
        path.write_text(TOTALLY_CHARACTERISTIC, encoding="utf-8")
        argv = ["solve", "--input", str(path), "--force", "--nx", "4"]
        code = cli.main(argv + (["--w0", w0] if w0 else []))
        out, err = capsys.readouterr()
        assert (code, err) == (cli.EXIT_OK, "")
        lines = out.strip().splitlines()
        assert lines[0] == "u,x_extent,max_abs_v" and len(lines) == 1 + 5
        for k, line in enumerate(lines[1:]):
            u, extent, vmax = (float(v) for v in line.split(","))
            assert (u, extent) == (0.5 * k, 5 - k)
            assert abs(vmax - amp * abs(math.sin(u))) < 1e-15

    def test_grid_past_the_address_space_is_an_error(self, monkeypatch,
                                                     capsys):
        # the trace of nx = 1e8 on the default 16 x 16 cells needs more
        # than sys.maxsize bytes: refused by name, before the march
        # evaluates the data, makes the stepper's buffer (1.68 TiB) or
        # maps the store
        def allocates(*args, **kwargs):
            raise AssertionError("allocated for a grid that is refused")

        for name in ("evaluate_profile", "_Stepper", "_trace_store"):
            monkeypatch.setattr(charsolve, name, allocates)
        code = cli.main(["solve", "--example", "wave3d", "--nx", "100000000"])
        nbytes = 8 * 4 * 256 * (10 ** 8 + 1) * (10 ** 8 + 2) // 2
        assert (code, *capsys.readouterr()) == (
            cli.EXIT_ERROR, "", f"error: the trace of nx = 100000000, cells "
            f"(16, 16) needs {nbytes} bytes, more than sys.maxsize\n")

    def test_unmappable_trace_is_mapped_first(self, monkeypatch, capsys):
        # the trace of nx = 1e6 fits sys.maxsize, but no system maps its
        # 4.1e15 bytes: the store is mapped before the nodal data (7.6 GiB)
        # and the stepper's buffer, so its refusal names the grid and the
        # trace, not a smaller allocation
        def allocates(*args, **kwargs):
            raise AssertionError("allocated before the trace store")

        def refuse(*args, **kwargs):
            raise OSError(errno.ENOMEM, os.strerror(errno.ENOMEM))

        for name in ("evaluate_profile", "_Stepper"):
            monkeypatch.setattr(charsolve, name, allocates)
        monkeypatch.setattr(charsolve, "_POOL", [])
        monkeypatch.setattr(charsolve.mmap, "mmap", refuse)
        code = cli.main(["solve", "--example", "wave3d", "--nx", "1000000"])
        nbytes = 8 * 4 * 256 * (10 ** 6 + 1) * (10 ** 6 + 2) // 2
        assert (code, *capsys.readouterr()) == (
            cli.EXIT_ERROR, "", f"error: the trace of nx = 1000000, cells "
            f"(16, 16) needs {nbytes} bytes: {os.strerror(errno.ENOMEM)}\n")

    @pytest.mark.parametrize("argv, code", [
        (["solve", "--example", "wave3d", "--cells", "8,4,9"],
         cli.EXIT_ERROR),
        (["solve", "--input", "REVERSED", "--nx", "8"], cli.EXIT_ERROR),
        # the reversed chart puts +0.5 in the spectrum of Nu^-1 Nx
        (["solve", "--input", "REVERSED", "--nx", "8", "--force"],
         cli.EXIT_ERROR),
        (["verify-estimate", "--input", "REVERSED", "--nx", "8",
          "--cells", "4,4"], cli.EXIT_NOT_WELL_POSED),
    ], ids=["usage-error", "not-well-posed", "cfl-refused",
            "estimate-refused"])
    def test_failed_command_leaves_out_file(self, argv, code, tmp_path):
        path = tmp_path / "reversed.txt"
        path.write_text(conftest.reversed_x_chart_text(), encoding="utf-8")
        out = tmp_path / "out.csv"
        out.write_text("old", encoding="utf-8")
        argv = [str(path) if a == "REVERSED" else a for a in argv]
        assert cli.main(argv + ["--out", str(out)]) == code
        assert out.read_text(encoding="utf-8") == "old"

    def test_refused_verdict_names_the_flag(self, tmp_path, capsys):
        # the refusal names the command's --force, not the library's
        # force=True
        path = tmp_path / "asymmetric.txt"
        path.write_text(conftest.asymmetric_y_text(), encoding="utf-8")
        code = cli.main(["solve", "--input", str(path), "--nx", "8",
                         "--cells", "4,4"])
        assert (code, *capsys.readouterr()) == (
            cli.EXIT_ERROR, "", "error: verdict is NOT_WELL_POSED; pass "
            "--force to march anyway\n")

    @pytest.mark.parametrize("target", ["missing/x.csv", "."],
                             ids=["missing-dir", "directory"])
    def test_unwritable_out_refused_before_march(self, target, tmp_path,
                                                 capsys, monkeypatch):
        def no_march(*args, **kwargs):
            raise AssertionError("march called")

        monkeypatch.setattr(charsolve, "march", no_march)
        out = tmp_path / target
        assert cli.main(["solve", "--example", "wave3d", "--nx", "8",
                         "--cells", "4,4", "--out", str(out)]) \
            == cli.EXIT_ERROR
        assert "march called" not in capsys.readouterr().err
        assert not (tmp_path / "missing").exists()
        assert [p.name for p in tmp_path.iterdir()] == []

    def test_out_path_without_write_access(self, tmp_path, capsys,
                                           monkeypatch):
        # os.access stands in for a read-only directory, which root could
        # write to anyway
        monkeypatch.setattr(os, "access", lambda path, mode: False)
        out = tmp_path / "report.txt"
        assert cli.main(["check", "--example", "wave3d", "--out", str(out)]) \
            == cli.EXIT_ERROR
        assert "Permission denied" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_out_file_written_on_exit_two(self, tmp_path):
        # check reports a NOT_WELL_POSED verdict rather than failing
        path = tmp_path / "reversed.txt"
        path.write_text(conftest.reversed_x_chart_text(), encoding="utf-8")
        out = tmp_path / "report.txt"
        assert cli.main(["check", "--input", str(path), "--out", str(out)]) \
            == cli.EXIT_NOT_WELL_POSED
        assert out.read_text().startswith("verdict: NOT_WELL_POSED\n")

    def test_refuses_not_well_posed_without_force(self, tmp_path, capsys):
        path = tmp_path / "asymmetric.txt"
        path.write_text(conftest.asymmetric_y_text(), encoding="utf-8")
        argv = ["solve", "--input", str(path), "--nx", "8", "--cells", "4,4"]
        assert cli.main(argv) == cli.EXIT_ERROR
        assert "force" in capsys.readouterr().err
        assert cli.main(argv + ["--force", "--out",
                                str(tmp_path / "t.csv")]) == cli.EXIT_OK


class TestVerifyEstimate:
    def test_plane_wave_ladder_all_hold(self):
        code, text = run_cli([
            "verify-estimate", "--example", "wave3d", "--nx", "36",
            "--cells", "4,4",
            "--w0", "sine:amp=1.4142135623730951,k=1"])
        assert code == cli.EXIT_OK
        lines = text.strip().splitlines()
        assert lines[0].startswith("T,norm_q0_sq")
        assert len(lines) > 4
        assert all(line.endswith(",true") for line in lines[1:])

    def test_transverse_mode_data(self):
        code, text = run_cli([
            "verify-estimate", "--example", "wave3d", "--nx", "36",
            "--cells", "8,8",
            "--q0", "sine:amp=0.5,k=2,ky=1,"
                    "gauss:amp=0.3,center=1.0,width=0.4,kz=2,zero"])
        assert code == cli.EXIT_OK
        assert all(line.endswith(",true")
                   for line in text.strip().splitlines()[1:])


    def test_horizon_skips_the_surfaces_beyond_c_over_r(self, tmp_path,
                                                        capsys):
        # wave3d with D = -I: R = -2I, c = 1, so T_max = c/r = 0.5 and
        # the ladder's surfaces from T = 2/3 on are reported and skipped
        sys_, chart = cm.load_system(builtin.example_text("wave3d"))
        path = tmp_path / "damped.txt"
        path.write_text(cm.serialize_system(
            dataclasses.replace(sys_, D=-np.eye(4)), chart), encoding="utf-8")
        code = cli.main(["verify-estimate", "--input", str(path),
                         "--nx", "36", "--cells", "8,4",
                         "--w0", "sine:amp=1.2,k=1"])
        out, err = capsys.readouterr()
        assert code == cli.EXIT_OK
        rows = out.strip().splitlines()
        assert rows[0] == cm.EnergyReport.CSV_HEADER
        assert [float(row.split(",")[0]) for row in rows[1:]] == \
            pytest.approx([2 / 9, 4 / 9], rel=1e-15)
        assert all(row.endswith(",true") for row in rows[1:])
        assert err.splitlines() == [
            f"skipping T={T}: estimate not guaranteed for T >= c/r = 0.5"
            for T in ("0.666667", "0.888889", "1.11111", "1.33333",
                      "1.55556", "1.77778")]

    def test_not_well_posed_refused_before_march(self, tmp_path, capsys,
                                                 monkeypatch):
        def no_march(*args, **kwargs):
            raise AssertionError("march called")

        monkeypatch.setattr(charsolve, "march", no_march)
        path = tmp_path / "reversed.txt"
        path.write_text(conftest.reversed_x_chart_text(), encoding="utf-8")
        argv = ["verify-estimate", "--input", str(path), "--nx", "8",
                "--cells", "4,4"]
        assert cli.main(argv) == cli.EXIT_NOT_WELL_POSED
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "cannot verify estimate: verdict is NOT_WELL_POSED\n"
        # the estimate needs a WELL_POSED verdict, so there is no --force
        assert cli.main(argv + ["--force"]) == cli.EXIT_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert "unrecognized arguments: --force" in err


class TestParsePresets:
    def test_zero_list(self):
        assert cli.parse_presets("zero,zero,zero", 3, 2) == ((), (), ())

    def test_sine_with_transverse(self):
        (term,), = cli.parse_presets(
            "sine:amp=2,k=3,phase=0.5,ky=1,phasez=0.25", 1, 2)
        assert term == ProfileTerm(kind="sine", amp=2.0, k=3.0, phase=0.5,
                                   trans=((1.0, 0.0), (0.0, 0.25)))

    def test_gauss(self):
        (term,), = cli.parse_presets("gauss:center=1,width=0.5", 1, 0)
        assert term.kind == "gauss" and term.center == 1.0

    @pytest.mark.parametrize("bad", [
        "zero,zero",                      # wrong count
        "sine:amp=1,ky=0.5,zero,zero",    # non-integer transverse wavenumber
        "sine:amp=1,bogus=2,zero,zero",   # unknown parameter
        "triangle:amp=1,zero,zero",       # unknown kind
        "sine:amp=1,width=3,center=2,zero,zero",   # gauss parameters
        "gauss:amp=1,k=3,phase=2,zero,zero",       # sine parameters
        "sine:amp=1,ky=inf,zero,zero",    # infinite transverse wavenumber
        "sine:amp=1,kz=nan,zero,zero",    # nan transverse wavenumber
        "sine:amp=1,amp=2,zero,zero",     # repeated key
        "sine:amp=abc,zero,zero",         # value not a number
        "gauss:width=0,zero,zero",        # zero width
        "gauss:width=-1,zero,zero",       # negative width
        "sine:amp=nan,zero,zero",         # nan amplitude
        "sine:k=inf,zero,zero",           # infinite wavenumber
        "sine:phasez=nan,zero,zero",      # nan transverse phase
        "sine,zero,zero",                 # kind without ':'
    ])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            cli.parse_presets(bad, 3, 2)

    def test_tolerance_overrides(self):
        tols = cli._tolerances("rank=1e-8,ctol=5")
        assert tols.rank == 1e-8 and tols.ctol == 5.0
        assert tols.sym == 1e-10 and tols.eig == 1e-10
        with pytest.raises(ValueError):
            cli._tolerances("bogus=1")
        with pytest.raises(ValueError, match="repeated .* 'eig'"):
            cli._tolerances("eig=1e-3,eig=1e-10")
        with pytest.raises(ValueError, match="^bad tolerance override 'eig'$"):
            cli._tolerances("rank=1e-8,eig")


class TestClosedStdout:
    """A reader that has gone away is no error of the command: exit 1 with
    nothing on stderr."""

    def test_in_process(self, tmp_path, monkeypatch, capsys):
        class ClosedPipe(io.TextIOWrapper):
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

        stdout = ClosedPipe(open(tmp_path / "stdout", "wb"))
        monkeypatch.setattr(sys, "stdout", stdout)
        try:
            assert cli.main(["check", "--example", "wave3d"]) \
                == cli.EXIT_ERROR
        finally:
            stdout.close()
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize("command", ["analyze", "check"])
    def test_subprocess(self, command, unbuffered):
        read_end, write_end = os.pipe()
        os.close(read_end)      # closed before the child writes
        env = dict(os.environ, PYTHONPATH=str(
            pathlib.Path(cli.__file__).resolve().parents[1]))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:          # each write reaches the pipe at once
            env["PYTHONUNBUFFERED"] = "1"
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "charmarch.cli", command,
                 "--example", "wave3d"],
                stdout=write_end, stderr=subprocess.PIPE, timeout=60,
                env=env)
        finally:
            os.close(write_end)
        assert proc.returncode == cli.EXIT_ERROR
        assert proc.stderr == b""


def _check_digest():
    """scripts/check_digest.py, imported as a module; the perfbench
    directory it puts on sys.path is taken off again."""
    import importlib.util
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" \
        / "check_digest.py"
    spec = importlib.util.spec_from_file_location("check_digest", path)
    module = importlib.util.module_from_spec(spec)
    saved = list(sys.path)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


class TestCheckDigest:
    def test_same_reports_same_digest(self):
        script = _check_digest()
        first, runs = script.digest([1], 2)
        # check and analyze on two corpus systems and the example, then
        # the README's solve and verify-estimate and the CI's Maxwell solve
        assert runs == 2 * (2 + len(builtin.EXAMPLES)) + 3
        assert [argv[0] for _, argv in script.marches()] == [
            "solve", "verify-estimate", "solve"]
        assert len(first) == 64 and int(first, 16) >= 0
        assert script.digest([1], 2) == (first, runs)
        assert script.digest([7], 2)[0] != first

    def test_a_moved_report_moves_the_digest(self, monkeypatch):
        script = _check_digest()
        before, _ = script.digest([], 0)

        def check(args, out):
            code = cli.cmd_check(args, out)
            out.write(" ")
            return code

        monkeypatch.setitem(cli._COMMANDS, "check", check)
        moved = script.digest([], 0)[0]
        assert moved != before

        def solve(args, out):
            code = cli.cmd_solve(args, out)
            out.write(" ")
            return code

        # a moved march moves it too
        monkeypatch.setitem(cli._COMMANDS, "solve", solve)
        assert script.digest([], 0)[0] not in (before, moved)
