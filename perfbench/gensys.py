"""Seeded generator of characteristic systems for the check-batch workload.

Each system is A^t = I, a symmetric A^x whose largest eigenvalue s is
repeated m times, random transverse matrices and a random D.  The chart is
u = t - x/s, so B^u = I - A^x/s is singular with multiplicity m and its null
vectors z satisfy z.B^x.z = s |z|^2 != 0 (transversal x-surfaces).  Half of
the transverse matrices are symmetrised, so the batch holds both verdicts.

The same seed gives byte-identical definition files.  Every emitted system
is re-read from its text and must pass the characteristic and
transversality checks with the intended multiplicity; a draw that does not
is discarded and drawn again.
"""
from __future__ import annotations

import numpy as np

import charmarch as cm
from charmarch import canonical, sysmodel

COORD_NAMES = ("t", "x", "y", "z")


def _draw(rng: np.random.Generator):
    n = int(rng.integers(2, 17))
    n_coords = int(rng.integers(2, 5))
    m = int(rng.integers(1, min(3, n - 1) + 1))
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = float(rng.uniform(0.5, 2.0))
    rest = rng.uniform(-2.0 * s, 0.8 * s, n - m)
    Ax = (Q * np.concatenate([np.full(m, s), rest])) @ Q.T
    A = {"t": np.eye(n), "x": 0.5 * (Ax + Ax.T)}
    for name in COORD_NAMES[2:n_coords]:
        M = rng.standard_normal((n, n))
        A[name] = 0.5 * (M + M.T) if rng.random() < 0.5 else M
    D = rng.standard_normal((n, n))
    J = np.eye(n_coords)
    J[0, 1] = -1.0 / s
    system = sysmodel.FirstOrderSystem(
        n_coords=n_coords, n_unknowns=n, coord_names=COORD_NAMES[:n_coords],
        A=A, D=D)
    chart = sysmodel.Chart(J=J, offsets=np.zeros(n_coords))
    return m, sysmodel.serialize_system(system, chart)


def _valid(text: str, m: int) -> bool:
    system, chart = cm.load_system(text)
    B = cm.side_matrices(system, chart)
    try:
        if cm.verify_characteristic(B) != m:
            return False
        cs = cm.null_structure(B, system.D)
        cm.transversality_check(cs, B)
    except (sysmodel.NotCharacteristicError,
            canonical.TransversalityError):
        return False
    return True


def generate(seed: int, count: int):
    """`count` valid definition texts drawn from `seed`."""
    rng = np.random.default_rng(seed)
    texts = []
    while len(texts) < count:
        m, text = _draw(rng)
        if _valid(text, m):
            texts.append(text)
    return texts
