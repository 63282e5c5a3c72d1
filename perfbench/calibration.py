"""Fixed calibration jobs that track the speed the host gives this process.

On a shared host the speed of one core changes by up to 2x within minutes,
and not evenly: interpreter dispatch and small-array calls slow more than
arithmetic on large arrays.  Each workload therefore has a job of its own
kind, written here and never changed: a pure-Python ODE step (regime-scan),
an Euler-Maruyama loop over 300 values with a fresh Philox generator per
step (ensemble-narrow), the same step over 20 000 values (ensemble-wide),
and upwind fluxes on a 112 x 256 grid (density-oracle).  A job runs before
each set-up, before the first operation and after each one; the benchmark
scales each timing by NOMINAL_S over the job time measured next to it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

NOMINAL_S = 0.04


def _rhs(a: float, b: float) -> tuple[float, float]:
    return -a * (a - 4.0) * (a - 1.0) + 6.0 - b, -0.1 * b + a


def _python_ode() -> None:
    a, b, h = 0.5, 5.0, 0.01
    for _ in range(25_000):
        k1 = _rhs(a, b)
        k2 = _rhs(a + 0.5 * h * k1[0], b + 0.5 * h * k1[1])
        k3 = _rhs(a + 0.5 * h * k2[0], b + 0.5 * h * k2[1])
        k4 = _rhs(a + h * k3[0], b + h * k3[1])
        a += h / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        b += h / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])


def _ensemble(n: int, steps: int) -> None:
    v = np.linspace(-1.0, 1.0, n)
    x = np.zeros(n)
    for k in range(steps):
        gen = np.random.Generator(np.random.Philox(key=k))
        vbar = float(np.mean(v))
        drift = -v * (v - 4.0) * (v - 1.0) - x + (vbar - v) / 0.01
        v = v + drift * 1e-4 + 0.01 * gen.standard_normal(n)
        x = x + (-0.3 * x + 3.0 * v) * 1e-4 + 0.01 * gen.standard_normal(n)
        if k % 10 == 0:
            np.quantile(v, (0.1, 0.9))


def _grid() -> None:
    rho = np.exp(-np.linspace(-3.0, 3.0, 256)[None, :] ** 2
                 - np.linspace(-3.0, 3.0, 112)[:, None] ** 2)
    for _ in range(120):
        u = rho[:, 1:] - rho[:, :-1]
        flux = np.where(u <= 0.0, u * rho[:, :-1], u * rho[:, 1:])
        rho = rho.copy()
        rho[:, 1:] += 1e-3 * flux
        rho[:, :-1] -= 1e-3 * flux
        float(rho.min())


JOBS = {
    "python": _python_ode,
    "small-arrays": lambda: _ensemble(300, 350),
    "large-arrays": lambda: _ensemble(20_000, 28),
    "grid": _grid,
}


def job(kind: str) -> float:
    """Seconds one calibration job of the given kind took."""
    t0 = perf_counter()
    JOBS[kind]()
    return perf_counter() - t0
