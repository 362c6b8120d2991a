import dataclasses
import math

import numpy as np
import pytest

import charmarch as cm
from charmarch import builtin

R2 = 1.0 / math.sqrt(2.0)


@pytest.fixture(scope="session")
def wave_system():
    return cm.load_system(builtin.example_text("wave3d"))


@pytest.fixture(scope="session")
def wave_analysis(wave_system):
    return cm.analyze(*wave_system)


@pytest.fixture(scope="session")
def wave_canon(wave_analysis):
    return wave_analysis.canon


@pytest.fixture(scope="session")
def wave_compact(wave_analysis):
    return wave_analysis.compact


@pytest.fixture(scope="session")
def wave_report(wave_analysis):
    return wave_analysis.report


@pytest.fixture(scope="session")
def damped_wave_pipeline(wave_system):
    """Wave system with D = -I, so the compact R is -2I (exponential branch)."""
    sys_, chart = wave_system
    a = cm.analyze(dataclasses.replace(sys_, D=-np.eye(4)), chart)
    return a.canon, a.compact, a.report


def sin_minus_y_terms(amp):
    """Profile terms summing to amp*sin(s - y) on a 2-torus grid."""
    return (
        cm.ProfileTerm(kind="sine", amp=amp, k=1.0,
                       trans=((1.0, 0.0), (0.0, 0.0))),
        cm.ProfileTerm(kind="sine", amp=amp, k=1.0, phase=math.pi / 2,
                       trans=((1.0, math.pi / 2), (0.0, 0.0))),
    )


@pytest.fixture(scope="session")
def manufactured_data():
    """Data of the exact wave solution built from f = cos(u + x - y):
    (q1, q2, q3, w) = (-sin(t-y)/sqrt2, sin(t-y), 0, -sin(t-y)/sqrt2)."""
    return cm.DataSpec(
        q0=(sin_minus_y_terms(-R2), sin_minus_y_terms(1.0), ()),
        w0=(sin_minus_y_terms(-R2),))


def manufactured_exact(slice_, grid, cy):
    """Exact hat-variable values of the manufactured solution on a slice."""
    x = np.arange(slice_.x_extent) * grid.dx
    y = np.arange(cy) * (2.0 * math.pi / cy)
    ph = np.sin((slice_.u_level + x)[:, None] - y[None, :])[None, :, :, None]
    return np.concatenate([-R2 * ph, ph, 0.0 * ph, -R2 * ph], axis=0)


@pytest.fixture(scope="session")
def plane_wave_data():
    """q0 = 0, w0 = sqrt(2) sin(u): an exact plane-wave solution."""
    return cm.DataSpec(
        q0=((), (), ()),
        w0=((cm.ProfileTerm(kind="sine", amp=math.sqrt(2.0), k=1.0),),))


def reversed_x_chart_text():
    """wave3d definition with the x-coordinate row negated."""
    text = builtin.example_text("wave3d")
    return text.replace("chart\n1 -1 0 0\n0 1 0 0",
                        "chart\n1 -1 0 0\n0 -1 0 0")


def asymmetric_y_text():
    """wave3d definition with entry (3, 1) of A y set to -2: C^y is not
    symmetric, so the verdict is NOT_WELL_POSED, while the eigenvalues of
    Nu^-1 Nx stay -0.5, 0, 0, which the upwind step takes."""
    text = builtin.example_text("wave3d")
    return text.replace("matrix A y\n0 0 -1 0\n0 0 0 0\n-1 0 0 0\n",
                        "matrix A y\n0 0 -1 0\n0 0 0 0\n-2 0 0 0\n")


def psi_equals_y_chart_text():
    """wave3d definition with x = y as the transverse-surface coordinate."""
    text = builtin.example_text("wave3d")
    return text.replace(
        "chart\n1 -1 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1",
        "chart\n1 -1 0 0\n0 0 1 0\n0 1 0 0\n0 0 0 1")


def label_clash_system():
    """A^t = I, and A^x, A^x2, A^y couple unknown 1 to unknowns 2, 3, 4
    symmetrically, in the chart rows u = t - x, x, x2 and x2 + y: row 2 is
    the unit vector of x2 and keeps its name, and row 3's generated label
    x2 is taken, so row 3 is x3."""
    A = {"t": np.eye(4)}
    for k, name in enumerate(("x", "x2", "y"), start=1):
        A[name] = np.zeros((4, 4))
        A[name][0, k] = A[name][k, 0] = 1.0
    system = cm.FirstOrderSystem(n_coords=4, n_unknowns=4,
                                 coord_names=("t", "x", "x2", "y"), A=A,
                                 D=np.zeros((4, 4)))
    J = [[1.0, -1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 1, 1]]
    return system, cm.Chart(J=J, offsets=np.zeros(4))


def drawn_system(rng, m):
    """A system drawn as the check-batch corpus draws one: A^t = I, a
    symmetric A^x whose largest eigenvalue s is repeated m times, random
    transverse matrices (half of them symmetrised) and a random D, in the
    chart u = t - x/s, so that B^u has nullity m and the x-surfaces are
    transversal."""
    n = int(rng.integers(m + 1, 9))
    n_coords = int(rng.integers(2, 5))
    names = ("t", "x", "y", "z")[:n_coords]
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = float(rng.uniform(0.5, 2.0))
    rest = rng.uniform(-2.0 * s, 0.8 * s, n - m)
    Ax = (Q * np.concatenate([np.full(m, s), rest])) @ Q.T
    A = {"t": np.eye(n), "x": 0.5 * (Ax + Ax.T)}
    for name in names[2:]:
        M = rng.standard_normal((n, n))
        A[name] = 0.5 * (M + M.T) if rng.random() < 0.5 else M
    J = np.eye(n_coords)
    J[0, 1] = -1.0 / s
    system = cm.FirstOrderSystem(n_coords=n_coords, n_unknowns=n,
                                 coord_names=names, A=A,
                                 D=rng.standard_normal((n, n)))
    return system, cm.Chart(J=J, offsets=np.zeros(n_coords))


def scaled(system, s):
    """The system with every A^a and D multiplied by s."""
    return dataclasses.replace(
        system, A={name: s * M for name, M in system.A.items()},
        D=s * system.D)
