import io
import math

import pytest

import charmarch.cli as cli
from charmarch import builtin, charsolve
from charmarch.charsolve import ProfileTerm

import conftest


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

    def test_parse_error_exit_one(self, tmp_path, capsys):
        path = tmp_path / "broken.txt"
        path.write_text("ncoords 2\nbogus 3\n", encoding="utf-8")
        assert cli.main(["check", "--input", str(path)]) == cli.EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_not_characteristic_exit_one(self, tmp_path, capsys):
        path = tmp_path / "u_equals_t.txt"
        path.write_text(builtin.example_text("wave3d").replace(
            "chart\n1 -1", "chart\n1 0"), encoding="utf-8")
        assert cli.main(["check", "--input", str(path)]) == cli.EXIT_ERROR
        assert capsys.readouterr().err == \
            "error: surface u=const is not characteristic\n"

    def test_missing_source_exit_one(self, capsys):
        assert cli.main(["check"]) == cli.EXIT_ERROR

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
        assert "(rank, sym, eig)" in capsys.readouterr().out
        assert cli.main(["verify-estimate", "--help"]) == cli.EXIT_OK
        assert "(rank, sym, eig, ctol)" in capsys.readouterr().out


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

    @pytest.mark.parametrize("argv, code", [
        (["solve", "--example", "wave3d", "--cells", "8,4,9"],
         cli.EXIT_ERROR),
        (["solve", "--input", "REVERSED", "--nx", "8"], cli.EXIT_ERROR),
        (["verify-estimate", "--input", "REVERSED", "--nx", "8",
          "--cells", "4,4"], cli.EXIT_NOT_WELL_POSED),
    ], ids=["usage-error", "not-well-posed", "estimate-refused"])
    def test_failed_command_leaves_out_file(self, argv, code, tmp_path):
        path = tmp_path / "reversed.txt"
        path.write_text(conftest.reversed_x_chart_text(), encoding="utf-8")
        out = tmp_path / "out.csv"
        out.write_text("old", encoding="utf-8")
        argv = [str(path) if a == "REVERSED" else a for a in argv]
        assert cli.main(argv + ["--out", str(out)]) == code
        assert out.read_text(encoding="utf-8") == "old"

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

    def test_out_file_written_on_exit_two(self, tmp_path):
        # check reports a NOT_WELL_POSED verdict rather than failing
        path = tmp_path / "reversed.txt"
        path.write_text(conftest.reversed_x_chart_text(), encoding="utf-8")
        out = tmp_path / "report.txt"
        assert cli.main(["check", "--input", str(path), "--out", str(out)]) \
            == cli.EXIT_NOT_WELL_POSED
        assert out.read_text().startswith("verdict: NOT_WELL_POSED\n")

    def test_refuses_not_well_posed_without_force(self, tmp_path, capsys):
        path = tmp_path / "reversed.txt"
        path.write_text(conftest.reversed_x_chart_text(), encoding="utf-8")
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
