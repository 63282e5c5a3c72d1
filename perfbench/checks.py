"""Correctness checks, each made apart from the package: roots come from
numpy.roots, periods from scipy's DOP853 integrator, the density reference
from a particle ensemble integrated here, and the rest from properties the
method must have.  Every check returns a list of problems; an empty list
means the result passed.
"""

from __future__ import annotations

import numpy as np

# the package's classifier calls |Delta| or |T| below 1e-9 degenerate;
# numpy.roots resolves a near-double root only to about sqrt(machine eps),
# so the benchmark skips a wider band around both degeneracies
DEGENERACY_BAND = 1e-6


def equilibrium_roots(a: float, b: float, lam: float, i_ext: float) -> np.ndarray:
    """Real roots of v^3 - (1+lam) v^2 + (lam + b/a) v - i_ext, ascending."""
    roots = np.roots([1.0, -(1.0 + lam), lam + b / a, -i_ext])
    return np.sort(roots[np.abs(roots.imag) < 1e-7].real)


def jacobian_trace(v: float, a: float, lam: float) -> float:
    return -3.0 * v * v + 2.0 * (1.0 + lam) * v - lam - a


def is_stable(v: float, a: float, b: float, lam: float) -> bool:
    jac = np.array([[-(3.0 * v * v - 2.0 * (1.0 + lam) * v + lam), -1.0], [b, -a]])
    return bool(np.max(np.linalg.eigvals(jac).real) < 0.0)


def stable_equilibrium_near(v0: float, a: float, b: float, lam: float,
                            i_ext: float) -> tuple[float, float]:
    stable = [v for v in equilibrium_roots(a, b, lam, i_ext) if is_stable(v, a, b, lam)]
    v = min(stable, key=lambda s: abs(s - v0))
    return float(v), float(b / a * v)


def expected_regime(a: float, b: float, lam: float, i_ext: float) -> str | None:
    """Regime from the root count and the trace sign, or None inside the
    degeneracy band."""
    roots = np.roots([1.0, -(1.0 + lam), lam + b / a, -i_ext])
    real = roots[np.abs(roots.imag) < 1e-7].real
    gaps = np.abs(roots[:, None] - roots[None, :])[np.triu_indices(3, 1)]
    if gaps.min() < DEGENERACY_BAND ** 0.5:
        return None
    if real.size == 3:
        return "Bistable"
    trace = jacobian_trace(float(real[0]), a, lam)
    if abs(trace) < DEGENERACY_BAND:
        return None
    return "Oscillatory" if trace > 0 else "MonostableStable"


def check_regime(label: str, a: float, b: float, lam: float, i_ext: float) -> list[str]:
    want = expected_regime(a, b, lam, i_ext)
    if want is None or label == want:
        return []
    return [f"regime {label} at a={a:g} b={b:g} lam={lam:g} i_ext={i_ext:g}, expected {want}"]


def dop853_period(a: float, b: float, lam: float, i_ext: float,
                  start: tuple[float, float], section: float) -> float:
    """Limit-cycle period of the limit system from DOP853 at tight
    tolerances: mean gap between the upward crossings of v = section that
    follow the first one."""
    from scipy.integrate import solve_ivp

    def rhs(t, y):
        v, x = y
        return [-v * (v - lam) * (v - 1.0) + i_ext - x, -a * x + b * v]

    def crossing(t, y):
        return y[0] - section
    crossing.direction = 1.0

    # the transient only has to reach the orbit; the timed laps are tight
    sol = solve_ivp(rhs, (0.0, 100.0), list(start), method="DOP853",
                    rtol=1e-8, atol=1e-8)
    y0 = sol.y[:, -1]
    horizon = 40.0
    while True:
        sol = solve_ivp(rhs, (0.0, horizon), y0, method="DOP853", rtol=1e-10,
                        atol=1e-10, events=crossing)
        hits = sol.t_events[0]
        if hits.size >= 4:
            return float(np.mean(np.diff(hits[1:])))
        horizon *= 2.0


def upward_crossings(t: np.ndarray, y: np.ndarray, level: float) -> np.ndarray:
    below = (y[:-1] < level) & (y[1:] >= level)
    i = np.flatnonzero(below)
    frac = (level - y[i]) / (y[i + 1] - y[i])
    return t[i] + frac * (t[i + 1] - t[i])


def series_period(t: np.ndarray, y: np.ndarray) -> float:
    """Mean gap between upward crossings of the series midline; nan when
    fewer than two crossings."""
    mid = 0.5 * (float(y.max()) + float(y.min()))
    cross = upward_crossings(t, y, mid)
    return float(np.mean(np.diff(cross))) if cross.size >= 2 else float("nan")


def check_period(measured: float, reference: float, rel_tol: float) -> list[str]:
    if np.isfinite(measured) and abs(measured - reference) <= rel_tol * reference:
        return []
    return [f"period {measured:.6g} vs reference {reference:.6g} (tolerance {rel_tol:.0%})"]


def check_band(name: str, value: float, lo: float, hi: float) -> list[str]:
    if lo <= value <= hi:
        return []
    return [f"{name} {value:.6g} outside [{lo:g}, {hi:g}]"]


def check_close(name: str, value: float, target: float, tol: float) -> list[str]:
    if abs(value - target) <= tol:
        return []
    return [f"{name} {value:.6g} not within {tol:g} of {target:.6g}"]


def check_mass(mass: np.ndarray, tol: float) -> list[str]:
    drift = float(np.max(np.abs(mass - mass[0])))
    if drift <= tol:
        return []
    return [f"mass drift {drift:.3e} above {tol:.1e}"]


def check_profile(centers: np.ndarray, values: np.ndarray, center: float,
                  curvature: float, epsilon: float, tol: float,
                  name: str) -> list[str]:
    """Empirical shifted log-density profile against -c (y - center)^2 / 2
    over bins that are resolved (finite) and within four decades."""
    theo = -0.5 * curvature * (centers - center) ** 2
    use = np.isfinite(values) & (theo >= -4.0 * epsilon * np.log(10.0))
    if not use.any():
        return [f"{name} profile has no resolved bins"]
    err = float(np.max(np.abs(values[use] - theo[use])))
    if err <= tol:
        return []
    return [f"{name} profile sup error {err:.4f} above {tol}"]


def particle_mean_reference(p: dict, center: tuple[float, float], var: float,
                            t_end: float, times: np.ndarray, n: int, dt: float,
                            seed: int) -> np.ndarray:
    """Mean voltage of an n-particle Euler-Maruyama ensemble with the
    density equation's coefficients (unit voltage diffusion, epsilon
    adaptation diffusion), sampled at the given times by linear
    interpolation."""
    rng = np.random.default_rng(seed)
    a, b, lam, i_ext, eps = p["a"], p["b"], p["lam"], p["i_ext"], p["epsilon"]
    v = center[0] + np.sqrt(var) * rng.standard_normal(n)
    x = center[1] + np.sqrt(var) * rng.standard_normal(n)
    steps = int(round(t_end / dt))
    grid_t = np.arange(steps + 1) * (t_end / steps)
    h = t_end / steps
    means = np.empty(steps + 1)
    means[0] = v.mean()
    for k in range(steps):
        vbar = v.mean()
        dv = -v * (v - lam) * (v - 1.0) + i_ext - x + (vbar - v) / eps
        dx = -a * x + b * v
        v = v + dv * h + np.sqrt(2.0 * h) * rng.standard_normal(n)
        x = x + dx * h + np.sqrt(2.0 * eps * h) * rng.standard_normal(n)
        means[k + 1] = v.mean()
    return np.interp(times, grid_t, means)
