import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import charmarch as cm
from charmarch import builtin, matkit
from charmarch.sysmodel import (Chart, NotCharacteristicError, ParseError,
                                SingularChartError)

import conftest

WAVE_BU = np.array([[1.0, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
WAVE_BX = np.array([[0.0, -1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
# the three header lines of a one-unknown system in (t, x)
HEAD = "ncoords 2\nnunknowns 1\ncoordnames t x\n"


def random_system(seed):
    """A (t, x) system of three unknowns whose every block, D too, is
    random and so written out by serialize_system."""
    rng = np.random.default_rng(seed)
    sys_ = cm.FirstOrderSystem(
        n_coords=2, n_unknowns=3, coord_names=("t", "x"),
        A={"t": rng.normal(size=(3, 3)), "x": rng.normal(size=(3, 3))},
        D=rng.normal(size=(3, 3)))
    chart = Chart(J=np.eye(2) + 0.1 * rng.normal(size=(2, 2)),
                  offsets=rng.normal(size=2))
    return sys_, chart


class TestLoadSystem:
    def test_wave3d(self, wave_system):
        sys_, chart = wave_system
        assert sys_.n_coords == 4 and sys_.n_unknowns == 4
        assert sys_.coord_names == ("t", "x", "y", "z")
        np.testing.assert_array_equal(sys_.A["t"], np.eye(4))
        np.testing.assert_array_equal(chart.J[0], [1, -1, 0, 0])
        np.testing.assert_array_equal(sys_.D, np.zeros((4, 4)))

    def test_transverse_names(self, wave_system):
        sys_, chart = wave_system
        assert chart.new_names(sys_.coord_names) == ("u", "x", "y", "z")

    def test_dimension_error_reports_line(self):
        text = ("ncoords 2\nnunknowns 4\ncoordnames t x\n"
                "matrix A t\n1 0 0 0\n0 1 0\n")
        with pytest.raises(ParseError) as exc:
            cm.load_system(text)
        assert exc.value.line == 6

    def test_singular_chart(self):
        text = ("ncoords 2\nnunknowns 1\ncoordnames t x\n"
                "matrix A t\n1\nchart\n1 0\n1 0\n0 0\n")
        with pytest.raises(SingularChartError):
            cm.load_system(text)

    @pytest.mark.parametrize("token", ["²", "٣", "3.0", "-2", "+2"])
    @pytest.mark.parametrize("key", ["ncoords", "nunknowns"])
    def test_count_must_be_ascii_digits(self, key, token):
        # str.isdigit accepts '²', which int() refuses; the other count
        # comes first, and the comment keeps the bad one on line 3
        other = "nunknowns 1" if key == "ncoords" else "ncoords 2"
        text = f"{other}\n# the count under test\n{key} {token}\n"
        with pytest.raises(ParseError, match=f"{key} expects one integer") \
                as exc:
            cm.load_system(text)
        assert exc.value.line == 3

    @pytest.mark.parametrize("what, where", [
        ("matrix A x", "A"), ("matrix D", "D"), ("chart Jacobian", "J"),
        ("chart offsets", "offsets")])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_arrays_refused_by_name(self, what, where, value):
        A = {"t": np.eye(2), "x": np.zeros((2, 2))}
        D = np.zeros((2, 2))
        J, offsets = np.eye(2), np.zeros(2)
        target = {"A": A["x"], "D": D, "J": J, "offsets": offsets}[where]
        target.flat[-1] = value
        with pytest.raises(ValueError,
                           match=f"^{what} has non-finite entries$"):
            cm.FirstOrderSystem(n_coords=2, n_unknowns=2,
                                coord_names=("t", "x"), A=A, D=D)
            Chart(J=J, offsets=offsets)

    def test_lists_are_kept_as_the_float_arrays_validated(self):
        # integer lists in; float arrays kept, and the reduction runs on them
        sys_ = cm.FirstOrderSystem(
            n_coords=2, n_unknowns=2, coord_names=("t", "x"),
            A={"t": [[1, 0], [0, 1]], "x": [[0, 1], [1, 0]]},
            D=[[0, 0], [0, 0]])
        chart = Chart(J=[[1, -1], [0, 1]], offsets=[0, 0])
        for M in (*sys_.A.values(), sys_.D, chart.J, chart.offsets):
            assert isinstance(M, np.ndarray) and M.dtype == float
        B = cm.side_matrices(sys_, chart)
        np.testing.assert_array_equal(B.B["u"], [[1, -1], [-1, 1]])
        a = cm.analyze(sys_, chart)
        assert a.report.verdict is cm.Verdict.WELL_POSED

    def test_unknown_a_key_refused_by_name(self):
        with pytest.raises(ValueError,
                           match="^matrix A for unknown coordinate 'q'$"):
            cm.FirstOrderSystem(n_coords=2, n_unknowns=1,
                                coord_names=("t", "x"),
                                A={"t": [[1.0]], "q": [[1.0]]}, D=[[0.0]])

    def test_repeated_coordinate_refused_by_name(self):
        with pytest.raises(ValueError,
                           match="^repeated coordinate name 't'$"):
            cm.FirstOrderSystem(n_coords=2, n_unknowns=1,
                                coord_names=("t", "t"),
                                A={"t": [[1.0]]}, D=[[0.0]])
        text = ("ncoords 2\nnunknowns 1\n# one name twice\ncoordnames t t\n"
                "matrix A t\n1\nchart\n1 -1\n0 1\n0 0\n")
        with pytest.raises(ParseError,
                           match="^line 4: repeated coordinate name 't'$"):
            cm.load_system(text)

    def test_coordinate_without_matrix_gets_zeros(self):
        sys_ = cm.FirstOrderSystem(n_coords=3, n_unknowns=2,
                                   coord_names=("t", "x", "y"),
                                   A={"x": np.eye(2), "t": np.eye(2)},
                                   D=np.zeros((2, 2)))
        assert tuple(sys_.A) == ("t", "x", "y")
        np.testing.assert_array_equal(sys_.A["y"], np.zeros((2, 2)))
        chart = Chart(J=[[1.0, -1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                      offsets=np.zeros(3))
        np.testing.assert_array_equal(cm.side_matrices(sys_, chart).B["y"],
                                      np.zeros((2, 2)))

    @pytest.mark.parametrize("J", [2.0, [1.0, 0.0], [[[1.0]]]])
    def test_chart_jacobian_must_be_a_matrix(self, J):
        with pytest.raises(ValueError, match="chart Jacobian must be square"):
            Chart(J=J, offsets=[0.0])

    def test_unknown_key_rejected(self):
        with pytest.raises(ParseError):
            cm.load_system("ncoords 2\nbogus 3\n")

    def test_unknown_matrix_coord_rejected(self):
        text = ("ncoords 2\nnunknowns 1\ncoordnames t x\nmatrix A q\n1\n")
        with pytest.raises(ParseError):
            cm.load_system(text)

    def test_missing_chart_rejected(self):
        with pytest.raises(ParseError, match="chart"):
            cm.load_system("ncoords 2\nnunknowns 1\ncoordnames t x\n"
                           "matrix A t\n1\n")

    @pytest.mark.parametrize("kwargs, cause", [
        ({"n_coords": 1}, "n_coords must be between 2 and 4"),
        ({"n_coords": 5}, "n_coords must be between 2 and 4"),
        ({"n_unknowns": 0}, "n_unknowns must be between 1 and 16"),
        ({"n_unknowns": 17}, "n_unknowns must be between 1 and 16"),
        ({"coord_names": ("t", "x", "y")},
         "coord_names length must equal n_coords"),
        ({"A": {"t": np.eye(2), "x": np.eye(3)}},
         "matrix A x has wrong shape"),
        ({"D": np.zeros((2, 3))}, "matrix D has wrong shape"),
    ])
    def test_system_fields_refused_by_name(self, kwargs, cause):
        fields = {"n_coords": 2, "n_unknowns": 2, "coord_names": ("t", "x"),
                  "A": {"t": np.eye(2)}, "D": np.zeros((2, 2)), **kwargs}
        with pytest.raises(ValueError, match=f"^{cause}$"):
            cm.FirstOrderSystem(**fields)

    def test_chart_offsets_length_refused(self):
        with pytest.raises(ValueError,
                           match="^offsets length must match n_coords$"):
            Chart(J=np.eye(2), offsets=np.zeros(3))

    @pytest.mark.parametrize("stream", [
        lambda text: io.StringIO(text),
        lambda text: io.BytesIO(text.encode("utf-8"))])
    def test_text_and_bytes_streams_read(self, stream, wave_system):
        text = builtin.example_text("wave3d")
        sys_, chart = cm.load_system(stream(text))
        for name in wave_system[0].coord_names:
            np.testing.assert_array_equal(sys_.A[name],
                                          wave_system[0].A[name])
        np.testing.assert_array_equal(chart.J, wave_system[1].J)

    @pytest.mark.parametrize("text, line, cause", [
        ("coordnames t x\n", 1, "coordnames before ncoords"),
        ("ncoords 2\ncoordnames t\n", 2, "expected 2 coordinate names"),
        ("ncoords 2\ncoordnames t x\nmatrix A t\n1\n", 3,
         "matrix before nunknowns"),
        (HEAD + "matrix A x\n1\n# again\nmatrix A x\n1\n", 7,
         "duplicate matrix A x"),
        (HEAD + "matrix D\n1\nmatrix D\n1\n", 6, "duplicate matrix D"),
        (HEAD + "ncoords 2\n", 4, "duplicate ncoords"),
        (HEAD + "nunknowns 1\n", 4, "duplicate nunknowns"),
        (HEAD + "coordnames t x\n", 4, "duplicate coordnames"),
        # a second chart must not replace the first one's J
        (HEAD + "chart\n1 -1\n0 1\n0 0\nchart\n1 -2\n0 1\n0 0\n", 8,
         "duplicate chart"),
        (HEAD + "matrix B t\n1\n", 4,
         "expected 'matrix A <coord>' or 'matrix D'"),
        (HEAD + "matrix A\n1\n", 4,
         "expected 'matrix A <coord>' or 'matrix D'"),
        ("nunknowns 1\nchart\n1 0\n0 1\n0 0\n", 2, "chart before ncoords"),
        ("ncoords 2\nchart 1\n", 2, "chart takes no arguments"),
        ("nunknowns 1\n\n", 2, "missing ncoords"),
        ("ncoords 2\ncoordnames t x\n", 2, "missing nunknowns"),
        ("ncoords 2\nnunknowns 1\n# no names\n", 3, "missing coordnames"),
        ("ncoords 2\nnunknowns 2\ncoordnames t x\nmatrix A t\n1 0\n", 5,
         "unexpected end of file inside matrix A t"),
        (HEAD + "chart\n1 -1\n0 1\n", 6,
         "unexpected end of file inside chart offsets"),
    ])
    def test_parse_error_names_cause_and_line(self, text, line, cause):
        with pytest.raises(ParseError, match=f"^line {line}: {cause}$") \
                as exc:
            cm.load_system(text)
        assert exc.value.line == line

    @given(st.integers(0, 10**6), st.data())
    @settings(max_examples=50, deadline=None)
    def test_any_repeated_block_refused_at_its_header(self, seed, data):
        lines = cm.serialize_system(*random_system(seed)).splitlines(True)
        starts = [i for i, line in enumerate(lines) if line[0].isalpha()]
        blocks = [lines[a:b]
                  for a, b in zip(starts, starts[1:] + [len(lines)])]
        k = data.draw(st.integers(0, len(blocks) - 1), label="block")
        at = data.draw(st.integers(k + 1, len(blocks)), label="copy at")
        # a count or the names is one line, named by its key; a matrix or
        # the chart is named by its whole header line
        header = blocks[k][0].strip()
        name = header if len(blocks[k]) > 1 else header.split()[0]
        copy = blocks[:at] + [blocks[k]] + blocks[at:]
        line = sum(map(len, blocks[:at])) + 1
        with pytest.raises(ParseError, match=f"^line {line}: duplicate "
                           f"{name}$"):
            cm.load_system("".join(sum(copy, [])))

    def test_round_trip_bit_equal(self, wave_system):
        sys_, chart = wave_system
        text = cm.serialize_system(sys_, chart)
        sys2, chart2 = cm.load_system(text)
        assert sys2.coord_names == sys_.coord_names
        for name in sys_.coord_names:
            np.testing.assert_array_equal(sys2.A[name], sys_.A[name])
        np.testing.assert_array_equal(sys2.D, sys_.D)
        np.testing.assert_array_equal(chart2.J, chart.J)
        np.testing.assert_array_equal(chart2.offsets, chart.offsets)

    def test_blank_line_inside_a_matrix_block(self, wave_system):
        text = builtin.example_text("wave3d")
        head, rows = text.split("matrix A t\n", 1)
        first, rest = rows.split("\n", 1)
        sys2, chart2 = cm.load_system(
            head + "matrix A t\n" + first + "\n\n   \n" + rest)
        sys_, chart = wave_system
        for name in sys_.coord_names:
            np.testing.assert_array_equal(sys2.A[name], sys_.A[name])
        np.testing.assert_array_equal(chart2.J, chart.J)

    def test_zero_matrix_block_omitted(self):
        sys_ = cm.FirstOrderSystem(
            n_coords=3, n_unknowns=2, coord_names=("t", "x", "y"),
            A={"t": np.eye(2), "x": [[0.0, 1.0], [1.0, 0.0]]},
            D=np.zeros((2, 2)))
        chart = Chart(J=np.eye(3), offsets=np.zeros(3))
        text = cm.serialize_system(sys_, chart)
        assert "matrix A y" not in text and "matrix D" not in text
        sys2, _ = cm.load_system(text)
        assert cm.serialize_system(sys2, chart) == text
        np.testing.assert_array_equal(sys2.A["y"], np.zeros((2, 2)))

    def test_unknown_example_names_the_examples(self):
        with pytest.raises(KeyError, match="unknown example 'nope'.*wave3d"):
            builtin.example_text("nope")

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_random_entries(self, seed):
        sys_, chart = random_system(seed)
        sys2, chart2 = cm.load_system(cm.serialize_system(sys_, chart))
        for name in sys_.coord_names:
            np.testing.assert_array_equal(sys2.A[name], sys_.A[name])
        np.testing.assert_array_equal(sys2.D, sys_.D)
        np.testing.assert_array_equal(chart2.J, chart.J)


class TestSideMatrices:
    def test_wave_bu_bx(self, wave_analysis):
        np.testing.assert_allclose(wave_analysis.B.B["u"], WAVE_BU, atol=1e-15)
        np.testing.assert_allclose(wave_analysis.B.B["x"], WAVE_BX, atol=1e-15)

    def test_identity_chart_returns_a(self, wave_system):
        sys_, _ = wave_system
        chart = Chart(J=np.eye(4), offsets=np.zeros(4))
        B = cm.side_matrices(sys_, chart)
        for a, name in enumerate(B.names):
            np.testing.assert_array_equal(B.B[name], sys_.A[sys_.coord_names[a]])

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_linear_in_chart(self, wave_system, seed):
        sys_, _ = wave_system
        rng = np.random.default_rng(seed)
        J1 = np.eye(4) + 0.2 * rng.normal(size=(4, 4))
        J2 = np.eye(4) + 0.2 * rng.normal(size=(4, 4))
        alpha, beta = rng.normal(size=2)
        J3 = alpha * J1 + beta * J2
        if abs(np.linalg.det(J1)) < 1e-6 or abs(np.linalg.det(J2)) < 1e-6 \
                or abs(np.linalg.det(J3)) < 1e-6:
            return
        offs = np.zeros(4)
        B1 = cm.side_matrices(sys_, Chart(J=J1, offsets=offs))
        B2 = cm.side_matrices(sys_, Chart(J=J2, offsets=offs))
        B3 = cm.side_matrices(sys_, Chart(J=J3, offsets=offs))
        for idx in range(4):
            a, b, c = (B1.B[B1.names[idx]], B2.B[B2.names[idx]],
                       B3.B[B3.names[idx]])
            np.testing.assert_allclose(c, alpha * a + beta * b, atol=1e-10)


    def test_labels_never_repeat(self):
        # row 3's generated label x2 is the name row 2 kept, so row 3
        # takes x3, and each row has its own side matrix
        sys_, chart = conftest.label_clash_system()
        B = cm.side_matrices(sys_, chart)
        assert B.names == ("u", "x", "x2", "x3")
        np.testing.assert_array_equal(B.B["x2"], sys_.A["x2"])
        np.testing.assert_array_equal(B.B["x3"], sys_.A["x2"] + sys_.A["y"])

    def test_overflow_names_the_side_matrix(self):
        # every entry is finite, but B^u = A^t - 2 A^x is not
        text = ("ncoords 3\nnunknowns 2\ncoordnames t x y\n"
                "matrix A t\n1 0\n0 1\nmatrix A x\n1e308 1\n1 0\n"
                "matrix A y\n0 0\n0 0\nchart\n1 -2 0\n0 1 0\n0 0 1\n"
                "0 0 0\n")
        sys_, chart = cm.load_system(text)
        with pytest.raises(OverflowError, match=r"^side matrix B\^u "
                           r"overflows at its A\^x term \(chart entry -2\)"):
            cm.side_matrices(sys_, chart)


class TestVerifyCharacteristic:
    def test_wave_multiplicity(self, wave_analysis):
        assert cm.verify_characteristic(wave_analysis.B) == 1

    def test_u_equals_t_not_characteristic(self, wave_system):
        sys_, _ = wave_system
        chart = Chart(J=np.eye(4), offsets=np.zeros(4))
        B = cm.side_matrices(sys_, chart)
        with pytest.raises(NotCharacteristicError):
            cm.verify_characteristic(B)
        with pytest.raises(NotCharacteristicError,
                           match="surface u=const is not characteristic"):
            cm.null_structure(B, sys_.D)

    def test_u_equals_t_minus_y(self, wave_system):
        # B^u = I - A^y has rank 3 (checked by the elimination oracle in
        # test_matkit), so m = 1
        sys_, _ = wave_system
        J = np.array([[1.0, 0, -1, 0], [0, 1, 0, 0],
                      [0, 0, 1, 0], [0, 0, 0, 1]])
        B = cm.side_matrices(sys_, Chart(J=J, offsets=np.zeros(4)))
        assert cm.verify_characteristic(B) == 1

    def test_rank_identity(self, wave_analysis):
        m = cm.verify_characteristic(wave_analysis.B)
        rank, _, _ = matkit.rank_and_nullspaces(wave_analysis.B.B["u"])
        assert m + rank == 4

    def test_reads_the_rank_alone(self, wave_analysis, monkeypatch):
        # dgeqp3 alone: no null basis is solved (dtrtrs) or formed (dorgqr)
        def no_basis(*args, **kwargs):
            raise AssertionError("null basis built")

        for name in ("dtrtrs", "dgeqrf", "dorgqr"):
            monkeypatch.setattr(matkit.lapack, name, no_basis)
        assert cm.verify_characteristic(wave_analysis.B) == 1
