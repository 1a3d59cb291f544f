"""The three benchmark workloads: seeded inputs, the timed item, its check.

A workload has ``setup()`` (fixtures shared by its items, built before timing),
``inputs(fixture, i)`` (the seeded inputs of item i, built outside the item's
timer), ``item(fixture, inputs)`` (the timed user work) and ``check(fixture,
inputs, output)`` (the correctness gate, untimed).  Its first ``warmup`` items
run and are checked but not timed.  Tolerances are
``config.DEFAULT_TOLERANCES`` and the acceptance thresholds of the test suite.

Calls go through module attributes (``hodge.build_hodge``), so the spans that
``spans.Tracer`` installs see them.
"""

from __future__ import annotations

import json
import os

import numpy as np

from toruslab import cli, config, curvature, family, forms, geometry, hodge, oracle

TOL = config.DEFAULT_TOLERANCES
T_ELLIPTIC = 0.3 + 1.1j


def _rng(seed, *salt):
    return np.random.default_rng([seed % 2**63, *salt])


def _near(center, rng, radius):
    dx, dy = rng.uniform(-radius, radius, size=2)
    return complex(center) + complex(dx, dy)


def band_limited(space, rng, nmodes=6, kmax=2):
    """A unit grid section made of a few low Fourier modes."""
    calc = space.calculus
    coeffs = np.zeros((space.ncomp,) + space.field_shape, dtype=complex)
    for ci in range(space.ncomp):
        for _ in range(nmodes):
            kx, ky = rng.integers(-kmax, kmax + 1, size=2)
            c = rng.standard_normal() + 1j * rng.standard_normal()
            coeffs[ci] += c * np.exp(2j * np.pi * (kx * calc.x + ky * calc.y))
    u = space.section(coeffs)
    return u * (1.0 / u.norm())


class _Workload:
    min_items = 1
    # untimed items run first, so lazy imports and first-call set-up inside
    # numpy, scipy and toruslab do not land on the first timed item
    warmup = 1

    def __init__(self, seed, smoke, tracer, workdir):
        self.seed, self.smoke, self.tracer, self.workdir = seed, smoke, tracer, workdir

    def setup(self):
        return None

    def _path(self, i, what):
        return os.path.join(self.workdir, f"item{i}.{what}.json")

    def _run_cli(self, *args):
        """One ``toruslab`` command in-process; returns its exit code."""
        with self.tracer.span("cli.main", "cli"):
            return cli.main.main(list(args), standalone_mode=False)

    def _write_config(self, i, what, cfg):
        path = self._path(i, what + ".config")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        return path

    def _read_report(self, i, what):
        with open(self._path(i, what)) as fh:
            return json.load(fh)


class GridCurvature(_Workload):
    """`toruslab curvature` on the elliptic family at N = 64 plus the FD oracle.

    Every item builds fresh family objects, as a CLI call does; the
    ``forms`` caches keep what each item built, so peak RSS grows per item.
    """

    name = "grid-curvature"
    min_items = 2
    warmup = 0      # a 20 s item dwarfs its first-call costs

    def __init__(self, *args):
        super().__init__(*args)
        # below N = 64 the d = 3 extension fails its admissibility gate
        self.N, self.order, self.degrees = (40, 10, 2) if self.smoke else (64, 10, 3)

    def inputs(self, fx, i):
        return {"t": _near(T_ELLIPTIC, _rng(self.seed, i), 0.02),
                "d": 1 + (self.seed + i) % self.degrees}

    def item(self, fx, inp):
        t, d = inp["t"], inp["d"]
        fam = geometry.elliptic_family(t, d=d)
        disc = forms.Grid(N=self.N, order=self.order)
        sp = forms.make_space(fam.torus_at(), fam.bundle_at(), (1, 0), disc)
        pkg0 = hodge.build_hodge(sp, expected_kernel=d)
        basis = [f * (1.0 / f.norm()) for f in pkg0.harmonic_basis]
        lift = family.trivialization_lift(fam, sp)
        rep = curvature.curvature_H(fam, lift, basis, pkg0,
                                    admissibility_tol=TOL["admissibility"])
        fd = oracle.fd_chern_curvature_H(fam, d, disc, step=1e-3, harmonic_basis=basis)
        return rep, fd

    def check(self, fx, inp, out):
        rep, fd = out
        scale = max(float(np.linalg.norm(rep.theta_H)), 1e-300)
        routes = rep.residual_routes / scale
        fd_rel = float(np.linalg.norm(rep.theta_H - fd) / max(np.linalg.norm(fd), 1e-300))
        sff_min = float(np.linalg.eigvalsh(rep.term_sff).min())
        ok = (rep.rank == inp["d"] and routes <= TOL["routes_rel"]
              and fd_rel <= TOL["fd_rel"] and rep.nakano_min_eig >= -TOL["nakano"]
              and sff_min >= -TOL["sff_psd"])
        return ok, (f"d={inp['d']} rank={rep.rank} routes_rel={routes:.2e} "
                    f"fd_rel={fd_rel:.2e} nakano_min={rep.nakano_min_eig:.2e} "
                    f"sff_min={sff_min:.2e}")


class GridSolves(_Workload):
    """Green applies on one shared (1,1) grid Hodge package, elliptic d = 1, N = 48."""

    name = "grid-solves"

    def __init__(self, *args):
        super().__init__(*args)
        self.N, self.order = (32, 8) if self.smoke else (48, 10)

    def setup(self):
        fam = geometry.elliptic_family(_near(T_ELLIPTIC, _rng(self.seed), 0.02), d=1)
        sp10 = forms.make_space(fam.torus_at(), fam.bundle_at(), (1, 0),
                                forms.Grid(N=self.N, order=self.order))
        pkg = hodge.build_hodge(sp10.sibling((1, 1)), expected_kernel=0)
        return {"pkg": pkg, "sp10": sp10}

    def inputs(self, fx, i):
        rng = _rng(self.seed, i)
        sp10 = fx["sp10"]
        return {"u": band_limited(fx["pkg"].space, rng),
                "alpha": forms.assemble_dbar(sp10).apply(band_limited(sp10, rng)),
                "f": band_limited(sp10, rng)}

    def item(self, fx, inp):
        pkg = fx["pkg"]
        gu = pkg.green(inp["u"])
        hu = pkg.harmonic_project(inp["u"])
        u0 = hodge.minimal_solution(pkg, inp["alpha"])
        pf = hodge.bergman_project(pkg, inp["f"])
        return gu, hu, u0, pf

    def check(self, fx, inp, out):
        pkg = fx["pkg"]
        gu, hu, u0, pf = out
        u, alpha, f = inp["u"], inp["alpha"], inp["f"]
        decomposition = (u - hu - pkg.laplacian.apply(gu)).norm() / u.norm()
        rhs = forms.pair_l2(pkg.green(alpha), alpha).real
        minimal = abs(u0.norm() ** 2 - rhs) / max(abs(rhs), 1e-300)
        # dbar of the Bergman projection is the Hodge residual of dbar f
        dbar = forms.assemble_dbar(f.space)
        holo = dbar.apply(pf).norm() / max(dbar.apply(f).norm(), 1e-300)
        ok = (decomposition <= TOL["hodge_decomposition"]
              and minimal <= TOL["minimal_solution"]
              and holo <= TOL["hodge_decomposition"])
        return ok, (f"decomposition={decomposition:.2e} minimal_solution={minimal:.2e} "
                    f"bergman_dbar={holo:.2e}")


def sweep_instances(block_seed, instances):
    """How many instances of a `bls` block make rank_k_min_oracle sweep CP^1.

    The battery calls the oracle with k = 1 on every instance, which sweeps
    exactly when m1 = 2 and r >= 2 (see ``bls.rank_k_min_oracle``).
    """
    count = 0
    for j in range(instances):
        form, _, _ = cli.random_demailly_instance(block_seed * 100003 + j)
        count += int(form.split[0] == 2 and form.r >= 2)
    return count


class BlsBattery(_Workload):
    """`toruslab bls` on a block of 10 seeded instances.

    A block is drawn until it holds exactly 2 instances that take the oracle's
    CP^1 sweep: the rate the 100-instance battery shows (about 1 in 5).  The
    sweep count sets most of the item time (each sweep brings about 1.5 s of
    oracle and 1 s of ALS), so fixing it keeps items comparable across seeds.
    """

    name = "bls-battery"

    def __init__(self, *args):
        super().__init__(*args)
        self.instances, self.sweeps = (3, 0) if self.smoke else (10, 2)

    def inputs(self, fx, i):
        rng = _rng(self.seed, i)
        while True:
            block = int(rng.integers(2**20))
            if sweep_instances(block, self.instances) == self.sweeps:
                break
        cfg = {"seed": block, "bls": {"instances": self.instances}}
        return {"config": self._write_config(i, "bls", cfg), "i": i}

    def item(self, fx, inp):
        return self._run_cli("bls", "--config", inp["config"],
                             "--out", self._path(inp["i"], "bls"))

    def check(self, fx, inp, code):
        report = self._read_report(inp["i"], "bls")
        battery = report["battery"]
        ok = (code == 0 and report["status"] == "pass" and not report["failures"]
              and len(battery["instances_checked"]) >= self.instances)
        return ok, (f"exit={code} failures={report['failures']} "
                    f"oracle_rows={len(battery['instances_checked'])}")


WORKLOADS = {w.name: w for w in (GridCurvature, GridSolves, BlsBattery)}
