"""Data model and text ingestion for constant-coefficient first-order systems.

A system A^a dv/dy^a + D v = 0 together with an affine chart
(u, x, x^1, ..., x^{n-2}) = J y + offsets.  The chart rows are the gradients
of the new coordinates; the side matrices are B^a = sum_b A^b J[a, b].
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import matkit


class ParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class SingularChartError(ValueError):
    """Chart Jacobian is singular."""


class NotCharacteristicError(ValueError):
    """det B^u != 0: the surface u = const is not characteristic."""


@dataclass(frozen=True, eq=False)
class FirstOrderSystem:
    """The matrices are kept as the float arrays that were validated.  The
    coordinate names must differ, every key of A must name a coordinate,
    and a coordinate with no A matrix gets a zero one, as in the file
    format."""
    n_coords: int
    n_unknowns: int
    coord_names: tuple
    A: dict            # coord name -> (n_unknowns, n_unknowns) array
    D: np.ndarray

    def __post_init__(self):
        if not (2 <= self.n_coords <= 4):
            raise ValueError("n_coords must be between 2 and 4")
        if not (1 <= self.n_unknowns <= 16):
            raise ValueError("n_unknowns must be between 1 and 16")
        if len(self.coord_names) != self.n_coords:
            raise ValueError("coord_names length must equal n_coords")
        repeated = _repeated(self.coord_names)
        if repeated:
            raise ValueError("repeated coordinate name " + repeated)
        unknown = [f"'{name}'" for name in self.A
                   if name not in self.coord_names]
        if unknown:
            raise ValueError("matrix A for unknown coordinate "
                             + ", ".join(unknown))
        A = {name: np.asarray(self.A[name], dtype=float) if name in self.A
             else np.zeros((self.n_unknowns, self.n_unknowns))
             for name in self.coord_names}
        D = np.asarray(self.D, dtype=float)
        for name, M in A.items():
            if M.shape != (self.n_unknowns, self.n_unknowns):
                raise ValueError(f"matrix A {name} has wrong shape")
            matkit._require_finite(M, f"matrix A {name}")
        if D.shape != (self.n_unknowns, self.n_unknowns):
            raise ValueError("matrix D has wrong shape")
        matkit._require_finite(D, "matrix D")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "D", D)


@dataclass(frozen=True, eq=False)
class Chart:
    """Affine coordinate change: new coords = J y + offsets.

    Row 0 of J is the gradient of u, row 1 of x, rows 2.. of the transverse
    coordinates.  J must be invertible: its rank is read, at the default
    rank tolerance, from the column-pivoted QR that
    matkit.rank_and_nullspaces uses, and no null space is built.  J and
    offsets are kept as the float arrays that were validated.
    """
    J: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        J = np.asarray(self.J, dtype=float)
        offsets = np.asarray(self.offsets, dtype=float)
        if J.ndim != 2 or J.shape[0] != J.shape[1]:
            raise ValueError("chart Jacobian must be square")
        n = J.shape[0]
        if offsets.shape != (n,):
            raise ValueError("offsets length must match n_coords")
        matkit._require_finite(J, "chart Jacobian")
        matkit._require_finite(offsets, "chart offsets")
        object.__setattr__(self, "J", J)
        object.__setattr__(self, "offsets", offsets)
        # built before any tolerance is known: the default rank tolerance
        if matkit._pivoted_qr(J, matkit.Tolerances.rank)[2] < n:
            raise SingularChartError("singular chart: Jacobian is not invertible")

    def new_names(self, coord_names) -> tuple:
        """Labels (u, x, transverse...).  A transverse row equal to a unit
        vector reuses the original coordinate's name."""
        names = ["u", "x"]
        for k in range(2, self.J.shape[0]):
            row = self.J[k]
            label = f"x{k - 1}"
            nz = np.nonzero(row)[0]
            if len(nz) == 1 and row[nz[0]] == 1.0:
                cand = coord_names[nz[0]]
                if cand not in names:
                    label = cand
            names.append(label)
        return tuple(names)


@dataclass(frozen=True, eq=False)
class SideMatrices:
    """B^a = A^b J[a, b] keyed by the new coordinate names (u, x, ...)."""
    names: tuple
    B: dict = field(repr=False)

    @property
    def transverse_names(self) -> tuple:
        return self.names[2:]


def _read_matrix(lines, start, nrows, ncols, what):
    """Read nrows rows of ncols floats starting at lines[start]; returns
    (M, next).

    Each line's token count is checked as it is read; the tokens of the
    block are then converted by one np.array(..., dtype=float), which
    accepts what float() accepts and gives the same bits.  An invalid
    number is located by converting row by row, and a non-finite one
    (nan, inf, or a literal beyond the float range) is refused with the
    block's name and its line."""
    tokens, linenos = [], []
    idx = start
    pending = None
    while len(linenos) < nrows:
        if idx >= len(lines):
            pending = ParseError(f"unexpected end of file inside {what}",
                                 len(lines))
            break
        lineno, text = lines[idx]
        idx += 1
        parts = text.split()
        if not parts:
            continue
        if len(parts) != ncols:
            pending = ParseError(
                f"{what}: expected {ncols} values per row, got {len(parts)}",
                lineno)
            break
        tokens += parts
        linenos.append(lineno)
    try:
        M = np.array(tokens, dtype=float).reshape(len(linenos), ncols)
    except ValueError:
        for k, lineno in enumerate(linenos):
            try:
                [float(p) for p in tokens[k * ncols:(k + 1) * ncols]]
            except ValueError:
                raise ParseError(f"{what}: invalid number", lineno) from None
        raise
    finite = np.isfinite(M).all(axis=1)
    if not finite.all():
        raise ParseError(f"{what}: non-finite number",
                         linenos[int(finite.argmin())])
    if pending is not None:
        raise pending
    return M, idx


def _repeated(names) -> str:
    """The names that occur more than once, each quoted once."""
    return ", ".join(f"'{name}'" for name in dict.fromkeys(
        name for k, name in enumerate(names) if name in names[:k]))


def _is_count(token: str) -> bool:
    """ASCII digits only: str.isdigit alone also accepts superscripts such
    as '²', which int() refuses."""
    return token.isascii() and token.isdigit()


def load_system(text) -> tuple:
    """Parse a system-definition stream into (FirstOrderSystem, Chart).

    Format (line oriented, '#' starts a comment):
        ncoords <int>
        nunknowns <int>
        coordnames <name> ...
        matrix A <coordname>   followed by nunknowns rows
        matrix D               optional, defaults to zero
        chart                  ncoords Jacobian rows then one offsets row
    """
    if not isinstance(text, str):
        text = text.read()
        if isinstance(text, bytes):
            text = text.decode("utf-8")
    raw = text.splitlines()
    lines = []
    for i, line in enumerate(raw, start=1):
        body = line.split("#", 1)[0].rstrip()
        lines.append((i, body))

    n_coords = None
    n_unknowns = None
    coord_names = None
    A = {}
    D = None
    J = None
    offsets = None

    idx = 0
    while idx < len(lines):
        lineno, body = lines[idx]
        idx += 1
        parts = body.split()
        if not parts:
            continue
        key = parts[0]
        if key == "ncoords":
            if len(parts) != 2 or not _is_count(parts[1]):
                raise ParseError("ncoords expects one integer", lineno)
            n_coords = int(parts[1])
        elif key == "nunknowns":
            if len(parts) != 2 or not _is_count(parts[1]):
                raise ParseError("nunknowns expects one integer", lineno)
            n_unknowns = int(parts[1])
        elif key == "coordnames":
            if n_coords is None:
                raise ParseError("coordnames before ncoords", lineno)
            if len(parts) != 1 + n_coords:
                raise ParseError(f"expected {n_coords} coordinate names", lineno)
            coord_names = tuple(parts[1:])
            repeated = _repeated(coord_names)
            if repeated:
                raise ParseError("repeated coordinate name " + repeated,
                                 lineno)
        elif key == "matrix":
            if n_unknowns is None:
                raise ParseError("matrix before nunknowns", lineno)
            if len(parts) == 3 and parts[1] == "A":
                if coord_names is None or parts[2] not in coord_names:
                    raise ParseError(f"unknown coordinate '{parts[2]}'", lineno)
                if parts[2] in A:
                    raise ParseError(f"duplicate matrix A {parts[2]}", lineno)
                A[parts[2]], idx = _read_matrix(lines, idx, n_unknowns,
                                                n_unknowns,
                                                f"matrix A {parts[2]}")
            elif len(parts) == 2 and parts[1] == "D":
                if D is not None:
                    raise ParseError("duplicate matrix D", lineno)
                D, idx = _read_matrix(lines, idx, n_unknowns, n_unknowns,
                                      "matrix D")
            else:
                raise ParseError("expected 'matrix A <coord>' or 'matrix D'", lineno)
        elif key == "chart":
            if n_coords is None:
                raise ParseError("chart before ncoords", lineno)
            if len(parts) != 1:
                raise ParseError("chart takes no arguments", lineno)
            J, idx = _read_matrix(lines, idx, n_coords, n_coords,
                                  "chart Jacobian")
            offs, idx = _read_matrix(lines, idx, 1, n_coords, "chart offsets")
            offsets = offs[0]
        else:
            raise ParseError(f"unknown key '{key}'", lineno)

    last = lines[-1][0] if lines else 1
    if n_coords is None:
        raise ParseError("missing ncoords", last)
    if n_unknowns is None:
        raise ParseError("missing nunknowns", last)
    if coord_names is None:
        raise ParseError("missing coordnames", last)
    if J is None:
        raise ParseError("missing chart", last)
    if D is None:
        D = np.zeros((n_unknowns, n_unknowns))

    sys = FirstOrderSystem(n_coords=n_coords, n_unknowns=n_unknowns,
                           coord_names=coord_names, A=A, D=D)
    chart = Chart(J=J, offsets=offsets)
    return sys, chart


def _fmt(x: float) -> str:
    return "%.17g" % x


def serialize_system(sys: FirstOrderSystem, chart: Chart) -> str:
    """Emit the definition-file text; round-trips bit-exactly through
    load_system."""
    out = []
    out.append(f"ncoords {sys.n_coords}")
    out.append(f"nunknowns {sys.n_unknowns}")
    out.append("coordnames " + " ".join(sys.coord_names))
    for name in sys.coord_names:
        M = sys.A[name]
        if not np.any(M):
            continue
        out.append(f"matrix A {name}")
        for row in M:
            out.append(" ".join(_fmt(x) for x in row))
    if np.any(sys.D):
        out.append("matrix D")
        for row in sys.D:
            out.append(" ".join(_fmt(x) for x in row))
    out.append("chart")
    for row in chart.J:
        out.append(" ".join(_fmt(x) for x in row))
    out.append(" ".join(_fmt(x) for x in chart.offsets))
    return "\n".join(out) + "\n"


def side_matrices(sys: FirstOrderSystem, chart: Chart) -> SideMatrices:
    """Assemble B^a = sum_b A^b J[a, b] for the chart coordinates.

    Raises OverflowError, naming B^a and the term, when an entry leaves
    the float range."""
    names = chart.new_names(sys.coord_names)
    B = {}
    with np.errstate(over="raise"):
        for a, name in enumerate(names):
            M = np.zeros((sys.n_unknowns, sys.n_unknowns))
            for b, orig in enumerate(sys.coord_names):
                jab = chart.J[a, b]
                if jab != 0.0:
                    try:
                        M = M + sys.A[orig] * jab
                    except FloatingPointError:
                        raise OverflowError(
                            f"side matrix B^{name} overflows at its "
                            f"A^{orig} term (chart entry {jab:g}): an entry "
                            f"exceeds the float range") from None
            B[name] = M
    return SideMatrices(names=names, B=B)


def verify_characteristic(B: SideMatrices,
                          tols: matkit.Tolerances = matkit.Tolerances()) -> int:
    """Multiplicity m = dim null(B^u), read from the rank alone as Chart
    reads it; raises if u = const is not characteristic (m = 0)."""
    Bu = matkit.as_square(B.B["u"])
    m = len(Bu) - matkit._pivoted_qr(Bu, tols.rank)[2]
    if m == 0:
        raise NotCharacteristicError("surface u=const is not characteristic")
    return m
