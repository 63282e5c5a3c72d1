"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (run with -s to
see them live).  Tolerances are pinned here and never loosened at runtime.
"""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

from fhn_meanfield.bifurcation import (MONOSTABLE_STABLE, OSCILLATORY,
                                       classify, detect_limit_cycle)
from fhn_meanfield.core import InitCondition, ModelParams
from fhn_meanfield.diagnostics import log_density_profile, viscosity_residual
from fhn_meanfield.fokker_planck import Grid, gaussian_field, hopf_cole, solve
from fhn_meanfield.limit_ode import LimitState, equilibria, rk4_integrate
from fhn_meanfield.particle import SimConfig, default_dt, quantiles, simulate

FIG1 = dict(a=0.3, b=0.1, lam=4.0, i_ext=0.0, sigma=1.0, adaptation_noise=True)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[acceptance {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _reference(rec, p, dt, stride):
    s0 = LimitState(0.0, float(rec.mean_v[0]), float(rec.mean_x[0]))
    return rk4_integrate(s0, p, dt, float(rec.t[-1]), record_stride=stride)


def _upward_crossings(t, y, level):
    out = []
    for i in range(len(y) - 1):
        if y[i] < level <= y[i + 1]:
            frac = (level - y[i]) / (y[i + 1] - y[i])
            out.append(t[i] + frac * (t[i + 1] - t[i]))
    return np.asarray(out)


# Scaled-down versions of every preset for criterion 8's moment checks.
# The late half of each run is the window of the m4 trend test.  Recorded
# m4 follows the slow recovery variable: the spread of x and the finite-n
# mean of x decorrelate over 1/(2a) to 1/a.  The window must hold many
# such times, or the slope's error, read off the window's own residuals,
# rests on a few degrees of freedom and comes out too small (about half
# its size over 12 time units at a = 0.3).  So the windows hold 30/a for
# fig1 to fig3; fig4's starts past the limit cycle's build-up and spans two
# periods; fig5 takes only the hard bound.
_SCALED = {
    "fig1": (ModelParams(epsilon=1 / 225, **FIG1),
             InitCondition(mean_v=-1.0, mean_x=0.0, concentration=0.3), 200.0),
    "fig2": (ModelParams(epsilon=0.01, **FIG1),
             InitCondition(mean_v=1.35, mean_x=1.0, concentration=0.3), 200.0),
    "fig3": (ModelParams(a=0.03, b=0.1, lam=4.0, i_ext=4.0, sigma=1.0,
                         epsilon=0.01, adaptation_noise=True),
             InitCondition(mean_v=3.0, mean_x=10.0, concentration=0.03), 2000.0),
    "fig4": (ModelParams(a=0.01, b=0.1, lam=4.0, i_ext=5.7, sigma=1.0,
                         epsilon=0.01, adaptation_noise=True),
             InitCondition(mean_v=0.49, mean_x=4.9, kind="point"), 480.0),
    # stationary-spread cluster (concentration = a): the slow filling of
    # the adaptation variance (timescale 1/2a) is not the trend under test
    "fig5": (ModelParams(a=0.005, b=0.05, lam=4.0, i_ext=5.534, sigma=0.5,
                         epsilon=1 / 220, adaptation_noise=True),
             InitCondition(mean_v=0.55, mean_x=5.5, concentration=0.005), 24.0),
}


def _scaled_run(p, init, t_end):
    """n = 160 at the default step, with records 0.1 apart in time."""
    cfg = SimConfig(n=160, t_end=t_end, seed=808,
                    record_stride=round(0.1 / default_dt(p)))
    return simulate(cfg, p, init)


def _late_slope(t, series, start):
    """Least-squares slope of series over t >= start and its standard
    error, inflated by the AR(1) factor of the residuals' lag-one
    correlation, since recorded statistics are serially correlated."""
    late_t, late = t[t >= start], series[t >= start]
    slope, intercept = np.polyfit(late_t, late, 1)
    resid = late - (slope * late_t + intercept)
    dof = max(late.size - 2, 1)
    se = np.sqrt(resid @ resid / dof / np.sum((late_t - late_t.mean()) ** 2))
    if resid.std() > 0:
        r1 = float(np.corrcoef(resid[:-1], resid[1:])[0, 1])
        r1 = min(max(r1, 0.0), 0.999)
        se *= np.sqrt((1.0 + r1) / (1.0 - r1))
    return slope, se


def test_criterion_1_concentration_scaling():
    t0 = time.perf_counter()
    init = InitCondition(mean_v=-1.0, mean_x=0.0, concentration=0.3)
    ratios = {}
    sup_profile = None
    for eps_inv in (25, 100, 225):
        eps = 1.0 / eps_inv
        p = ModelParams(epsilon=eps, **FIG1)
        dt = eps / 10.0
        stride = max(1, round(0.05 / dt))
        cfg = SimConfig(n=5000, t_end=20.0, dt=dt, seed=1225 + eps_inv,
                        record_stride=stride)
        run_start = time.perf_counter()
        rec = simulate(cfg, p, init)
        per_eps_runtime = time.perf_counter() - run_start
        assert per_eps_runtime <= 120.0
        late = rec.t >= 15.0
        ratios[eps_inv] = (float(np.mean(rec.var_v[late])) / eps,
                           float(np.mean(rec.var_x[late])) / (eps / p.a))
        if eps_inv == 225:
            ref = _reference(rec, p, dt, stride)
            sup_profile = log_density_profile(rec.final_state.v, eps,
                                              ref.alpha[-1]).sup_error
    ok = all(0.75 <= r <= 1.25 for pair in ratios.values() for r in pair)
    ok = ok and sup_profile is not None and sup_profile <= 0.15
    _report(1, ok,
            f"var ratios {ratios}, profile sup error {sup_profile:.4f} "
            f"(bands [0.75,1.25], <=0.15); total {time.perf_counter()-t0:.1f}s")


def test_criterion_2_mean_tracks_limit_flow():
    t0 = time.perf_counter()
    eps = 0.01
    p = ModelParams(epsilon=eps, **FIG1)
    rep = classify(p)
    stable = [e.v for e in rep.equilibria if e.label == "stable"]
    # clusters on either side of the separatrix (which crosses x=1 near
    # v=1.27); placed clear of the stagnation zone where finite-n noise on
    # the ensemble mean is exponentially amplified before the transit
    # the default step, records 0.1 apart
    stride = round(0.1 / default_dt(p))
    finals, sups = [], []
    for v0, seed in ((0.9, 21), (1.6, 22)):
        cfg = SimConfig(n=5000, t_end=20.0, seed=seed, record_stride=stride)
        rec = simulate(cfg, p, InitCondition(mean_v=v0, mean_x=1.0,
                                             concentration=0.3))
        ref = _reference(rec, p, rec.dt, stride)
        sups.append(float(np.max(np.abs(rec.mean_v - ref.alpha))))
        finals.append(float(rec.mean_v[-1]))
    targets = [min(stable, key=lambda v: abs(v - f)) for f in finals]
    distinct = abs(targets[0] - targets[1]) > 0.5
    close = all(abs(f - v) <= 0.05 for f, v in zip(finals, targets))
    runtime = time.perf_counter() - t0
    ok = max(sups) <= 0.1 and distinct and close and runtime <= 60.0
    _report(2, ok,
            f"sup|mean_v-alpha| {[f'{s:.4f}' for s in sups]} (<=0.1), "
            f"finals {[f'{f:.4f}' for f in finals]} -> equilibria "
            f"{[f'{v:.4f}' for v in targets]} (<=0.05, distinct); {runtime:.1f}s")


def test_criterion_3_classifier_against_bruteforce():
    t0 = time.perf_counter()
    lams = np.linspace(2.0, 6.0, 50)
    i0s = np.linspace(-2.0, 6.0, 50)
    checked = mismatches = label_mismatches = 0
    for lam in lams:
        for i0 in i0s:
            p = ModelParams(a=0.3, b=0.1, lam=float(lam), i_ext=float(i0))
            rep = classify(p)
            if abs(rep.delta) <= 1e-9:
                continue
            checked += 1
            # independent real-root count of the equilibrium cubic
            roots = np.roots([1.0, -(1 + lam), lam + p.b / p.a, -i0])
            n_real = int(np.sum(np.abs(roots.imag) < 1e-9))
            if (rep.delta > 0) != (n_real == 3) or len(rep.equilibria) != n_real:
                mismatches += 1
            for e in rep.equilibria:
                jac = np.array([[-(3 * e.v ** 2 - 2 * (1 + lam) * e.v + lam), -1.0],
                                [p.b, -p.a]])
                top = float(np.max(np.linalg.eigvals(jac).real))
                label = "stable" if top < 0 else "unstable"
                if e.label != label:
                    label_mismatches += 1
    runtime = time.perf_counter() - t0
    ok = mismatches == 0 and label_mismatches == 0 and runtime <= 10.0
    _report(3, ok,
            f"{checked} non-degenerate cells, {mismatches} count mismatches, "
            f"{label_mismatches} label mismatches; {runtime:.1f}s")


def test_criterion_4_oscillation_reproduction():
    t0 = time.perf_counter()
    fam = dict(a=0.01, b=0.1, lam=4.0, sigma=1.0, adaptation_noise=True)
    swept = None
    for i0 in np.arange(5.0, 10.01, 0.5):
        rep = classify(ModelParams(i_ext=float(i0), epsilon=0.01, **fam))
        if rep.regime == OSCILLATORY:
            swept = float(i0)
            break
    assert swept is not None, "sweep found no oscillatory input"

    p = ModelParams(i_ext=swept, epsilon=0.01, **fam)
    (vstar, xstar), = equilibria(p)
    cycle = detect_limit_cycle(p, LimitState(0.0, vstar + 0.5, xstar))
    assert cycle is not None and cycle.period > 0

    transient = 100.0
    horizon = transient + 6.5 * cycle.period
    # the default step, records 0.02 apart
    cfg = SimConfig(n=500, t_end=horizon, seed=4242,
                    record_stride=round(0.02 / default_dt(p)))
    rec = simulate(cfg, p, InitCondition(mean_v=vstar, mean_x=xstar, kind="point"))
    sel = rec.t >= transient
    mv, tt = rec.mean_v[sel], rec.t[sel]
    mid = 0.5 * (mv.max() + mv.min())
    crossings = _upward_crossings(tt, mv, mid)
    periods = np.diff(crossings)
    runtime = time.perf_counter() - t0
    enough = periods.size >= 5
    emp = float(periods.mean()) if enough else float("nan")
    rel = abs(emp - cycle.period) / cycle.period if enough else float("inf")
    ok = enough and rel <= 0.15 and runtime <= 120.0
    _report(4, ok,
            f"swept i_ext={swept}, limit period {cycle.period:.2f}, network "
            f"period {emp:.2f} over {periods.size} cycles (rel err {rel:.3f}, "
            f"<=0.15); {runtime:.1f}s")


def test_criterion_5_pde_particle_cross_validation():
    t0 = time.perf_counter()
    eps = 0.1
    p = ModelParams(epsilon=eps, **FIG1)
    init = InitCondition(mean_v=2.0, mean_x=1.0, concentration=0.3)

    dt, stride = 1e-3, 50
    means = []
    for k in range(10):
        cfg = SimConfig(n=5000, t_end=5.0, dt=dt, seed=500 + k,
                        record_stride=stride)
        rec = simulate(cfg, p, init)
        means.append(rec.mean_v)
    times = rec.t
    mean_v = np.mean(means, axis=0)

    grid = Grid(v_min=-1.5, v_max=7.0, x_min=-2.5, x_max=4.5, nv=256, nx=112)
    field0 = gaussian_field(grid, init, p)
    sol = solve(field0, p, t_end=5.0, record_stride=20,
                snapshot_stride=10 ** 9)
    jg = np.interp(times, sol.t, sol.jg)

    sup = float(np.max(np.abs(jg - mean_v)))
    mass_drift = float(np.abs(sol.mass - sol.mass[0]).max())
    min_density = float(sol.snapshots[-1].rho.min())
    runtime = time.perf_counter() - t0
    ok = (sup <= 0.05 and mass_drift <= 1e-9 and min_density >= -1e-12
          and runtime <= 300.0)
    _report(5, ok,
            f"sup|jg - mean_v| {sup:.4f} (<=0.05), mass drift "
            f"{mass_drift:.2e} (<=1e-9), min density {min_density:.2e} "
            f"(>=-1e-12); {runtime:.1f}s")


def test_criterion_6_ode_reduction_oracle():
    t0 = time.perf_counter()
    p = ModelParams(a=0.3, b=0.1, lam=4.0, sigma=0.0, adaptation_noise=False,
                    epsilon=0.02)
    init = InitCondition(mean_v=2.0, mean_x=0.5, kind="point")
    errs = []
    for dt in (2e-3, 1e-3):
        cfg = SimConfig(n=1, t_end=10.0, dt=dt, seed=0, record_stride=100)
        rec = simulate(cfg, p, init)
        ref = rk4_integrate(LimitState(0.0, 2.0, 0.5), p, dt / 10.0, 10.0,
                            record_stride=1000)
        errs.append(float(np.max(np.abs(rec.mean_v - ref.alpha))))
    ratio = errs[0] / errs[1]
    runtime = time.perf_counter() - t0
    ok = 1.7 <= ratio <= 2.3 and runtime <= 5.0
    _report(6, ok,
            f"max errors {errs[0]:.2e} -> {errs[1]:.2e}, halving ratio "
            f"{ratio:.2f} (in [1.7, 2.3]); {runtime:.1f}s")


def test_criterion_7_viscosity_residual_decay():
    t0 = time.perf_counter()
    medians = []
    for eps in (0.2, 0.1, 0.05):
        p = ModelParams(epsilon=eps, **FIG1)
        # window and hence cell size scale with sqrt(eps); cell count fixed
        wv = 8.0 * np.sqrt(eps)
        wx = 8.0 * np.sqrt(eps / p.a)
        grid = Grid(v_min=-wv, v_max=wv, x_min=-wx, x_max=wx, nv=96, nx=96)
        init = InitCondition(mean_v=0.0, mean_x=0.0, concentration=0.3)
        sol = solve(gaussian_field(grid, init, p), p, t_end=1.0,
                    record_stride=10 ** 9, snapshot_stride=10 ** 9)
        field = hopf_cole(sol.snapshots[-1], p)
        stats = viscosity_residual(field, float(sol.jg[-1]))
        medians.append(stats.median_abs)
    runtime = time.perf_counter() - t0
    ok = medians[0] > medians[1] > medians[2] and runtime <= 300.0
    _report(7, ok,
            "median |R| " + " > ".join(f"{m:.4f}" for m in medians)
            + f" across eps 0.2, 0.1, 0.05; {runtime:.1f}s")


def test_criterion_8_invariant_suites(tmp_path):
    t0 = time.perf_counter()
    problems = []

    # coupling identity against the O(n^2) oracle
    rng = np.random.default_rng(88)
    for _ in range(20):
        n = int(rng.integers(2, 101))
        v = rng.uniform(-30, 30, n)
        vbar = np.mean(v)
        pairwise = np.array([sum(v[j] - v[i] for j in range(n)) / n
                             for i in range(n)])
        if np.max(np.abs(pairwise - (vbar - v))) > 1e-12 * max(1.0, np.abs(v).max()):
            problems.append("coupling identity")
            break

    # quantile pinned examples
    if quantiles(np.array([1.0, 2, 3, 4, 5]), [0.5])[0] != 3.0:
        problems.append("median example")
    if quantiles(np.array([1.0, 2, 3, 4]), [0.25])[0] != pytest.approx(1.75):
        problems.append("interpolated quantile example")
    vals = np.array([3.0, 1.0, 2.0])
    if quantiles(vals, [0.0])[0] != 1.0 or quantiles(vals, [1.0])[0] != 3.0:
        problems.append("quantile boundary example")

    # moment boundedness on scaled-down versions of every preset
    for name, (p, init, t_end) in _SCALED.items():
        rec = _scaled_run(p, init, t_end)
        for series in (rec.m4_v, rec.m4_x):
            if np.max(series) > 1e5:
                problems.append(f"{name} m4 bound {np.max(series):.1e}")
            if name == "fig5":
                # at the mixed-mode edge the quasi-cycle amplitude is a
                # long-memory random walk; no finite window supports a trend
                # test, only the hard bound above applies
                continue
            slope, se = _late_slope(rec.t, series, 0.5 * t_end)
            if slope > 2.0 * se:
                problems.append(f"{name} m4 slope {slope:.2e} (se {se:.2e})")

    # bitwise determinism across thread counts, via the CLI
    outputs = []
    for threads in ("1", "4"):
        env = dict(os.environ)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        out = tmp_path / f"threads{threads}"
        code = subprocess.run(
            [sys.executable, "-m", "fhn_meanfield.cli", "simulate-network",
             "--out", str(out), "--label", "det", "--n", "256",
             "--t-end", "0.5", "--dt", "1e-3", "--epsilon", "0.05",
             "--seed", "99"],
            env=env, capture_output=True).returncode
        if code != 0:
            problems.append(f"cli exit {code} at {threads} threads")
            break
        outputs.append((out / "det_timeseries.csv").read_bytes())
    if len(outputs) == 2 and outputs[0] != outputs[1]:
        problems.append("thread-count determinism")

    runtime = time.perf_counter() - t0
    ok = not problems and runtime <= 60.0
    _report(8, ok, f"invariant suites clean ({runtime:.1f}s)"
            if ok else f"failures: {problems} ({runtime:.1f}s)")


def test_criterion_8_trend_test_flags_a_growing_m4():
    # negative control: recorded m4 plus a rise of half its level across the
    # late window must fail criterion 8's trend test
    for name in ("fig1", "fig2"):
        p, init, t_end = _SCALED[name]
        rec = _scaled_run(p, init, t_end)
        late = rec.t >= 0.5 * t_end
        for series in (rec.m4_v, rec.m4_x):
            rate = 0.5 * float(np.mean(series[late])) / (0.5 * t_end)
            slope, se = _late_slope(rec.t, series + rate * rec.t, 0.5 * t_end)
            assert slope > 2.0 * se, (name, slope, se)


@pytest.mark.parametrize("preset", ["fig4", "fig5"])
def test_criterion_9_transition_presets_run(tmp_path, preset):
    from fhn_meanfield.cli import main

    t0 = time.perf_counter()
    code = main(["scenario", preset, "--out", str(tmp_path)])
    outdir = tmp_path / preset
    traces = sorted(outdir.glob("*_timeseries.csv"))
    finite = True
    for path in traces:
        body = np.loadtxt(path, delimiter=",", skiprows=1)
        finite = finite and bool(np.isfinite(body).all()) and body.shape[0] > 10
    scenario = outdir / f"{preset}_scenario.json"
    ok = code == 0 and len(traces) >= 2 and finite and scenario.exists()
    _report(9, ok,
            f"{preset}: exit {code}, {len(traces)} trace files, finite={finite}; "
            f"{time.perf_counter()-t0:.1f}s")
