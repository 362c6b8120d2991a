"""The three benchmark workloads: inputs from the seed, one job, its checks.

Building a workload object is the set-up (counted in setup_s).  `job` is
the timed unit of work: it takes its times from `clock` and calls
`on_check(latency)` once per check it completes.  `verify` checks one
job's output outside the timed region, and `final_check` is one more
untimed pass; both return (attempted, failed, figures).
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import math
import os

import numpy as np

import charmarch as cm
import gensys
from charmarch import builtin, cli

R2 = 1.0 / math.sqrt(2.0)

# Largest max-norm error of the march-wide solution against the closed form.
# The seed code gives 0.007442-0.007449 over phases in [0, 2 pi); a
# performance change moves it only by round-off.
MARCH_WIDE_MAX_ERR = 0.0075
# Relative tolerance of the reduction identities checked on check-batch.
IDENTITY_RTOL = 1e-12
CHECK_BATCH_SIZE = 1500


def _phase(seed: int) -> float:
    return float(np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi))


def _reduce(system, chart):
    B = cm.side_matrices(system, chart)
    cs = cm.null_structure(B, system.D)
    canon = cm.split_and_reduce(cs, B, system.D)
    cf = cm.compact_form(canon)
    return canon, cf, cm.check_criteria(cf)


def _sin_minus_y(amp, phase):
    """Profile terms summing to amp*sin(s - y + phase) on a 2-torus grid."""
    return (
        cm.ProfileTerm(kind="sine", amp=amp, k=1.0, phase=phase,
                       trans=((1.0, 0.0), (0.0, 0.0))),
        cm.ProfileTerm(kind="sine", amp=amp, k=1.0, phase=phase + math.pi / 2,
                       trans=((1.0, math.pi / 2), (0.0, 0.0))),
    )


class _March:
    """March plus a ladder of verify_estimate calls on diagonal surfaces."""

    def job(self, on_check, clock):
        # The whole ladder is one request: a surface's check latency runs
        # from the start of the job to its verdict, as the rows of
        # `charmarch verify-estimate` reach the user.
        start = clock()
        trace = cm.march(self.canon, self.grid, self.data, report=self.report)
        reports = []
        for T in self.ladder:
            reports.append(cm.verify_estimate(trace, self.cf, self.report, T))
            on_check(clock() - start)
        return trace, reports

    def verify(self, out):
        _, reports = out
        failed = sum(not r.holds for r in reports)
        figures = {"balance_residual_max":
                   max(r.balance_residual for r in reports)}
        if not math.isfinite(figures["balance_residual_max"]):
            failed += 1
        return len(reports), failed, figures

    def final_check(self):
        return 0, 0, {}

    def digest(self):
        return hashlib.sha256(repr((self.data, self.grid, self.ladder))
                              .encode()).hexdigest()


class MarchWide(_March):
    """Undamped wave3d, manufactured solution f = cos(u + x - y + phi)."""

    def __init__(self, seed, workdir):
        system, chart = cm.load_system(builtin.example_text("wave3d"))
        self.canon, self.cf, self.report = _reduce(system, chart)
        self.phi = _phase(seed)
        self.data = cm.DataSpec(
            q0=(_sin_minus_y(-R2, self.phi), _sin_minus_y(1.0, self.phi), ()),
            w0=(_sin_minus_y(-R2, self.phi),))
        self.grid = cm.GridSpec(X_total=2.0, nx=256,
                                transverse=(cm.TransverseAxis(cells=64),
                                            cm.TransverseAxis(cells=4)))
        dx = self.grid.dx
        ladder = []
        for k in range(1, 9):
            T = round(k * self.grid.X_total / 9.0 / dx) * dx
            if T > 0 and T not in ladder:
                ladder.append(T)
        self.ladder = ladder

    def max_err(self, trace):
        """Max-norm error of the hat variables against the closed form."""
        grid = self.grid
        cy = grid.transverse[0].cells
        y = np.arange(cy) * (2.0 * math.pi / cy)
        coef = np.array([-R2, 1.0, 0.0, -R2])[:, None, None, None]
        err = 0.0
        for s in trace.slices:
            x = np.arange(s.x_extent) * grid.dx
            ph = np.sin((s.u_level + x)[:, None] - y[None, :] + self.phi)
            err = max(err, float(np.abs(s.values - coef * ph[None, :, :, None])
                                 .max()))
        return err

    def verify(self, out):
        attempted, failed, figures = super().verify(out)
        figures["max_err"] = self.max_err(out[0])
        ok = figures["max_err"] <= MARCH_WIDE_MAX_ERR
        return attempted + 1, failed + (not ok), figures


class EstimateDense(_March):
    """Damped wave3d (D = -I): verify_estimate on every grid surface
    X/9 <= T < T_max."""

    def __init__(self, seed, workdir):
        system, chart = cm.load_system(builtin.example_text("wave3d"))
        system = dataclasses.replace(system, D=-np.eye(4))
        self.canon, self.cf, self.report = _reduce(system, chart)
        self.phi = _phase(seed)
        self.data = cm.DataSpec(
            q0=((cm.ProfileTerm(kind="sine", amp=0.8, k=2.0, phase=self.phi,
                                trans=((1.0, 0.0), (0.0, 0.0))),), (), ()),
            w0=((cm.ProfileTerm(kind="sine", amp=1.2, k=1.0,
                                phase=self.phi),),))
        self.grid = cm.GridSpec(X_total=0.5, nx=128,
                                transverse=(cm.TransverseAxis(cells=8),
                                            cm.TransverseAxis(cells=4)))
        _, _, T_max, _ = cm.growth_parameters(self.cf)
        dx = self.grid.dx
        k0 = math.ceil(self.grid.X_total / 9.0 / dx)
        self.ladder = [k * dx for k in range(k0, self.grid.nx + 1)
                       if k * dx < T_max]


class CheckBatch:
    """`charmarch check --input FILE` over a seeded batch of systems."""

    def __init__(self, seed, workdir):
        texts = gensys.generate(seed, CHECK_BATCH_SIZE)
        sysdir = os.path.join(workdir, "systems")
        os.makedirs(sysdir, exist_ok=True)
        self.paths = []
        for i, text in enumerate(texts):
            path = os.path.join(sysdir, f"sys{i:05d}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            self.paths.append(path)

    def job(self, on_check, clock):
        results = []
        for path in self.paths:
            out, err = io.StringIO(), io.StringIO()
            t = clock()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.main(["check", "--input", path])
            on_check(clock() - t)
            results.append((code, out.getvalue()))
        return results

    def verify(self, results):
        verdicts = {v.value: 0 for v in cm.Verdict}
        failed = 0
        for code, text in results:
            first = text.split("\n", 1)[0]
            verdict = first[len("verdict: "):] \
                if first.startswith("verdict: ") else None
            if code not in (cli.EXIT_OK, cli.EXIT_NOT_WELL_POSED) \
                    or verdict not in verdicts \
                    or (code == cli.EXIT_NOT_WELL_POSED) \
                    != (verdict == "NOT_WELL_POSED"):
                failed += 1
            else:
                verdicts[verdict] += 1
        return len(results), failed, {f"verdict.{k}": v
                                      for k, v in verdicts.items()}

    def final_check(self):
        """row_transform B^a to_hat^-1 = C^a and row_transform D to_hat^-1
        = Dc for every system, to IDENTITY_RTOL relative."""
        failed = 0
        worst = 0.0
        for path in self.paths:
            with open(path, encoding="utf-8") as fh:
                system, chart = cm.load_system(fh.read())
            B = cm.side_matrices(system, chart)
            cs = cm.null_structure(B, system.D)
            canon = cm.split_and_reduce(cs, B, system.D)
            cf = cm.compact_form(canon)
            inv = np.linalg.inv(canon.to_hat)
            pairs = [(B.B[name], cf.C[name]) for name in cf.C]
            pairs.append((system.D, cf.Dc))
            err = 0.0
            for M, C in pairs:
                got = canon.row_transform @ M @ inv
                scale = max(np.abs(C).max(), np.abs(M).max(),
                            np.finfo(float).tiny)
                err = max(err, float(np.abs(got - C).max()) / scale)
            worst = max(worst, err)
            failed += not err <= IDENTITY_RTOL
        return len(self.paths), failed, {"identity_err_max": worst}

    def digest(self):
        h = hashlib.sha256()
        for path in self.paths:
            with open(path, "rb") as fh:
                h.update(fh.read())
        return h.hexdigest()


WORKLOADS = {
    "march-wide": MarchWide,
    "estimate-dense": EstimateDense,
    "check-batch": CheckBatch,
}
