"""The four workloads.

Each workload builds its inputs from the seed in setup(), runs one
operation per op() call and returns its timings, and checks every result
outside the timed region.  Package functions are always called through
their module attribute (fp.solve, cli.run_network, ...), so the traced run
sees the benchmark's own calls as well as the package's internal ones.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from fhn_meanfield import bifurcation as bif
from fhn_meanfield import cli, core, diagnostics, fokker_planck as fp
from fhn_meanfield import limit_ode, particle

import checks


@dataclass
class OpResult:
    work: float          # work units done by the timed call
    work_time: float     # seconds of the call the work rate is taken over
    latency: float       # seconds of the operation's user-visible query
    attempted: int
    failed: int = 0
    problems: list = field(default_factory=list)


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, 0])


def _read_csv(path: Path) -> dict[str, np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    body = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: body[:, k] for k, name in enumerate(header)}


class _Ensemble:
    """Shared shape of the two network workloads: one cli.run_network call
    per operation on an initial ensemble drawn in set-up."""

    name = ""
    label = ""
    LATE = 0.75  # variance ratios are averaged over t >= LATE * t_end

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir

    def _namespace(self, seed: int) -> argparse.Namespace:
        raise NotImplementedError

    def _center(self, rng: np.random.Generator) -> tuple[float, float]:
        raise NotImplementedError

    def setup(self, seed: int):
        cfg = cli.resolve_config(self._namespace(seed), "network")
        p = cfg.params
        rng = _rng(seed)
        mean_v, mean_x = self._center(rng)
        gaussian = replace(cfg.init, mean_v=mean_v, mean_x=mean_x)
        ens = core.sample_initial(gaussian, cfg.sim.n, p, rng)
        # the program receives the drawn ensemble itself as its input
        init = core.InitCondition(mean_v=mean_v, mean_x=mean_x,
                                  concentration=gaussian.concentration,
                                  kind=core.CUSTOM_SAMPLER,
                                  sampler=lambda n, _gen: (ens.v, ens.x))
        cfg = replace(cfg, init=init)
        dt = cfg.sim.dt if cfg.sim.dt is not None else particle.default_dt(p)
        cli.run_network(replace(cfg, sim=replace(cfg.sim, t_end=20 * dt)))
        return {"cfg": cfg, "ens": ens, "seed": seed,
                "steps": int(round(cfg.sim.t_end / dt))}

    def op(self, inputs, k: int) -> OpResult:
        cfg = inputs["cfg"]
        cfg = replace(cfg, sim=replace(cfg.sim, seed=inputs["seed"] * 1000 + k))
        t0 = perf_counter()
        cli.run_network(cfg)
        elapsed = perf_counter() - t0
        res = OpResult(work=float(cfg.sim.n * inputs["steps"]), work_time=elapsed,
                       latency=elapsed, attempted=1)
        res.problems = self.check(inputs, cfg)
        return res

    def check(self, inputs, cfg) -> list[str]:
        p = cfg.params
        ts = _read_csv(self.out_dir / f"{self.label}_timeseries.csv")
        problems = checks.check_close("initial mean_v", ts["mean_v"][0],
                                      float(np.mean(inputs["ens"].v)), 1e-12)
        late = ts["t"] >= self.LATE * cfg.sim.t_end
        problems += checks.check_band(
            "late var ratio v", float(np.mean(ts["var_v"][late])) / p.epsilon, 0.75, 1.25)
        problems += checks.check_band(
            "late var ratio x", float(np.mean(ts["var_x"][late])) / (p.epsilon / p.a),
            0.75, 1.25)
        return problems + self._check_more(inputs, cfg, ts)

    def _check_more(self, inputs, cfg, ts) -> list[str]:
        return []

    def final_checks(self, inputs) -> list[str]:
        return []


class EnsembleWide(_Ensemble):
    """fig1 parameters at eps^-1 = 225: tens of thousands of neurons
    concentrated at the rest state, profile diagnostics on.  Per-neuron
    array arithmetic dominates each step."""

    name = "ensemble-wide"
    label = "wide"
    CALIBRATION = "large-arrays"
    N = 20000
    T_END = 0.25

    def _namespace(self, seed):
        return argparse.Namespace(
            preset="fig1:epsinv225", config=None, n=self.N, t_end=self.T_END,
            seed=seed, out=str(self.out_dir), label=self.label, seeds=1)

    def _center(self, rng):
        # a small offset from the rest state (0, 0) of the fig1 system
        return float(rng.uniform(-0.02, 0.02)), float(rng.uniform(-0.005, 0.005))

    def _check_more(self, inputs, cfg, ts):
        p = cfg.params
        v_eq, x_eq = checks.stable_equilibrium_near(
            float(ts["mean_v"][0]), p.a, p.b, p.lam, p.i_ext)
        problems = checks.check_close("final mean_v", ts["mean_v"][-1], v_eq, 0.05)
        problems += checks.check_close("final mean_x", ts["mean_x"][-1], x_eq, 0.05)
        # profiles are eps-scaled, so at eps=1/225 a cluster twice as wide
        # still lies within 0.15; the observed sup error is below 0.007
        for coord, center, curv in (("v", v_eq, 1.0), ("x", x_eq, p.a)):
            prof = _read_csv(self.out_dir / f"{self.label}_profile_{coord}.csv")
            problems += checks.check_profile(prof["center"], prof["empirical"],
                                             center, curv, p.epsilon, 0.02, coord)
        return problems


class EnsembleNarrow(_Ensemble):
    """A few hundred neurons synchronised on the periodic orbit of the limit
    system over 1.3 periods, 6500 steps.  The fixed cost of each step
    dominates."""

    name = "ensemble-narrow"
    label = "narrow"
    CALIBRATION = "small-arrays"
    # limit period 5.06; v spans [-0.74, 3.86] and x [8.0, 18.4] on the orbit
    PARAMS = dict(a=0.3, b=3.0, lam=4.0, i_ext=10.0, epsilon=0.01)
    N = 300
    T_END = 6.5
    # var_x starts at its predicted eps/a, so the short horizon needs no
    # relaxation of the slow adaptation variance
    CONCENTRATION = 0.3
    # x decorrelates on a time scale of 1/a, so the late window spans half
    # the run: at n=300 the late var_x ratio then reads 0.99 +- 0.05
    LATE = 0.5

    def _namespace(self, seed):
        return argparse.Namespace(
            preset=None, config=None, n=self.N, t_end=self.T_END, seed=seed,
            init_concentration=self.CONCENTRATION, out=str(self.out_dir),
            label=self.label, seeds=1, **self.PARAMS)

    def _center(self, rng):
        # below the orbit, so the mean voltage crosses its midline upwards
        # within the first time unit and again one period later (near 5.7)
        return 0.0, float(rng.uniform(7.0, 8.0))

    def setup(self, seed):
        inputs = super().setup(seed)
        inputs["periods"] = []
        return inputs

    def _check_more(self, inputs, cfg, ts):
        period = checks.series_period(ts["t"], ts["mean_v"])
        inputs["periods"].append(period)
        return [] if np.isfinite(period) else ["mean voltage shows no full period"]

    def final_checks(self, inputs):
        P = self.PARAMS
        (v_eq,) = checks.equilibrium_roots(P["a"], P["b"], P["lam"], P["i_ext"])
        ref = checks.dop853_period(P["a"], P["b"], P["lam"], P["i_ext"],
                                   (v_eq + 0.5, P["b"] / P["a"] * v_eq), v_eq)
        problems = []
        for period in inputs["periods"]:
            problems += checks.check_period(period, ref, 0.15)
        return problems


class DensityOracle:
    """The self-consistent density equation at eps = 0.1 (fig1 parameters) on
    the 256 x 112 grid, to a fixed horizon with the solver's own step, then
    the Hopf-Cole transform and the viscosity residual."""

    name = "density-oracle"
    CALIBRATION = "grid"
    PARAMS = dict(a=0.3, b=0.1, lam=4.0, i_ext=0.0, epsilon=0.1)
    GRID = dict(v_min=-1.5, v_max=7.0, x_min=-2.5, x_max=4.5, nv=256, nx=112)
    T_END = 0.05
    RECORD_STRIDE = 10
    CONCENTRATION = 0.3

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir

    def setup(self, seed: int):
        p = core.ModelParams(**self.PARAMS)
        grid = fp.Grid(**self.GRID)
        rng = _rng(seed)
        center = (float(rng.uniform(1.5, 2.5)), float(rng.uniform(0.5, 1.5)))
        init = core.InitCondition(mean_v=center[0], mean_x=center[1],
                                  concentration=self.CONCENTRATION)
        field0 = fp.gaussian_field(grid, init, p)
        warm = fp.solve(field0, p, self.T_END / 100.0, snapshot_stride=10 ** 9)
        fp.hopf_cole(warm.snapshots[-1], p)
        return {"p": p, "field0": field0, "center": center, "seed": seed,
                "first": None}

    def op(self, inputs, k: int) -> OpResult:
        p = inputs["p"]
        t0 = perf_counter()
        sol = fp.solve(inputs["field0"], p, self.T_END,
                       record_stride=self.RECORD_STRIDE, snapshot_stride=10 ** 9)
        t1 = perf_counter()
        field = fp.hopf_cole(sol.snapshots[-1], p)
        stats = diagnostics.viscosity_residual(field, float(sol.jg[-1]))
        t2 = perf_counter()
        g = inputs["field0"].grid
        steps = int(round(self.T_END / sol.dt))
        res = OpResult(work=float(g.nx * g.nv * steps), work_time=t1 - t0,
                       latency=t2 - t0, attempted=1)
        res.problems = self.check(inputs, sol, stats)
        return res

    def check(self, inputs, sol, stats) -> list[str]:
        problems = checks.check_mass(sol.mass, 1e-12)
        low = float(sol.snapshots[-1].rho.min())
        if low < -1e-12:
            problems.append(f"density fell to {low:.3e}")
        if not (np.isfinite(stats.median_abs) and stats.n_cells > 0):
            problems.append("viscosity residual is not finite")
        if inputs["first"] is None:
            inputs["first"] = sol
        elif not (np.array_equal(sol.jg, inputs["first"].jg)
                  and np.array_equal(sol.t, inputs["first"].t)):
            problems.append("repeated solve of the same input gave another J[g] series")
        return problems

    def final_checks(self, inputs) -> list[str]:
        sol = inputs["first"]
        ref = checks.particle_mean_reference(
            self.PARAMS, inputs["center"], self.PARAMS["epsilon"] / self.CONCENTRATION,
            self.T_END, sol.t, n=40000, dt=2.5e-4, seed=inputs["seed"])
        return checks.check_close("sup |J[g] - particle mean|",
                                  float(np.max(np.abs(sol.jg - ref))), 0.0, 0.02)


class RegimeScan:
    """One closed-loop caller issuing each query after the previous one
    returns: classify queries on a jittered (lambda, i_ext) grid and
    limit-cycle queries at five fixed oscillatory points.  A round is five
    operations; operation k classifies every fifth grid point from k mod 5
    and then makes cycle query k mod 5.  Runs end on whole rounds."""

    name = "regime-scan"
    CALIBRATION = "python"
    ROUND = 5
    GRID = 96
    # oscillatory points with limit periods from 7 to 112; the query cost
    # depends on the point, so the set is fixed and the seed only orders
    # it.  The middle-cost point (0.1, 1, 4, 10) costs about 1.5x its
    # neighbours, so the median query is the same point in every run.
    CYCLE_POINTS = ((0.2, 2.0, 4.0, 8.0), (0.1, 1.0, 4.0, 6.0),
                    (0.1, 1.0, 4.0, 10.0), (0.01, 0.1, 4.0, 6.0),
                    (0.02, 0.2, 5.0, 9.0))

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir

    def setup(self, seed: int):
        rng = _rng(seed)
        n = self.GRID
        lam = 2.0 + 4.0 * (np.arange(n)[:, None] + rng.uniform(size=(n, n))) / n
        i_ext = -2.0 + 8.0 * (np.arange(n)[None, :] + rng.uniform(size=(n, n))) / n
        grid = [core.ModelParams(a=0.3, b=0.1, lam=float(l), i_ext=float(i))
                for l, i in zip(lam.ravel(), i_ext.ravel())]
        queries = []
        for k in rng.permutation(len(self.CYCLE_POINTS)):
            a, b, lam_k, i_k = self.CYCLE_POINTS[k]
            (v_eq,) = checks.equilibrium_roots(a, b, lam_k, i_k)
            queries.append((core.ModelParams(a=a, b=b, lam=lam_k, i_ext=i_k),
                            limit_ode.LimitState(0.0, v_eq + 0.5, b / a * v_eq)))
        for q in grid[:16]:
            bif.classify(q)
        return {"slices": [grid[j::self.ROUND] for j in range(self.ROUND)],
                "queries": queries, "labels": {}, "periods": []}

    def op(self, inputs, k: int) -> OpResult:
        j = k % self.ROUND
        points = inputs["slices"][j]
        t0 = perf_counter()
        labels = [bif.classify(q).regime for q in points]
        t1 = perf_counter()
        p, s0 = inputs["queries"][j]
        failed, cycle = 0, None
        try:
            cycle = bif.detect_limit_cycle(p, s0)
        except bif.CycleDetectionError:
            failed = 1
        t2 = perf_counter()
        res = OpResult(work=float(len(points)), work_time=t1 - t0, latency=t2 - t1,
                       attempted=len(points) + 1, failed=failed)
        res.problems = self.check(inputs, j, labels, p, cycle, failed)
        return res

    def check(self, inputs, j, labels, p, cycle, failed) -> list[str]:
        problems = []
        if j not in inputs["labels"]:
            for q, label in zip(inputs["slices"][j], labels):
                problems += checks.check_regime(label, q.a, q.b, q.lam, q.i_ext)
            inputs["labels"][j] = labels
        elif labels != inputs["labels"][j]:
            problems.append("repeated classify queries gave other regimes")
        if cycle is not None:
            inputs["periods"].append((p, cycle.period))
        elif not failed:
            problems.append(f"no cycle found at a={p.a:g} b={p.b:g} i_ext={p.i_ext:g}")
        return problems

    def final_checks(self, inputs) -> list[str]:
        problems = []
        refs = {}
        for p, period in inputs["periods"]:
            key = (p.a, p.b, p.lam, p.i_ext)
            if key not in refs:
                problems += checks.check_regime("Oscillatory", *key)
                (v_eq,) = checks.equilibrium_roots(*key)
                refs[key] = checks.dop853_period(*key, (v_eq + 0.5, p.b / p.a * v_eq), v_eq)
            problems += checks.check_period(period, refs[key], 0.01)
        return problems


WORKLOADS = {w.name: w for w in (EnsembleWide, EnsembleNarrow, DensityOracle, RegimeScan)}
