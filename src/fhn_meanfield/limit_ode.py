"""The strong-coupling limit system and its equilibria.

    dalpha/dt = -alpha(alpha - lam)(alpha - 1) + i_ext - beta
    dbeta/dt  = -a*beta + b*alpha

The adaptation sign follows the network relaxation dx = (-a x + b v) dt;
with a positive-feedback sign the recovery variable would diverge and the
system would have no attractors, so that variant is rejected here.
Equilibria are the real roots of

    v^3 - (1 + lam) v^2 + (lam + b/a) v - i_ext = 0,   x* = (b/a) v*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BlowUpError, ModelParams, nonlinearity, time_steps


@dataclass(frozen=True)
class LimitState:
    """A state of the limit system, stored as Python floats: a numpy scalar
    or an int given here is converted."""

    t: float
    alpha: float
    beta: float

    def __post_init__(self):
        for name in ("t", "alpha", "beta"):
            object.__setattr__(self, name, float(getattr(self, name)))


@dataclass
class LimitTrajectory:
    t: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    dt: float  # the step taken

    def __len__(self) -> int:
        return self.t.size


def rk4_step(alpha: float, beta: float, p: ModelParams, dt: float) -> tuple[float, float]:
    # The four stages of the vector field (core.uncoupled_drift, -a x + b v)
    # in one body: the parameters are read once, and on the untruncated path
    # the cubic is core.cubic written out on floats, in its operation order.
    # Each stage is spelled i_ext - n0 - x and b v - a x, which saves two
    # negations; negation is exact and addition commutes, so a step gives
    # the same bits as one made of four calls of uncoupled_drift.
    lam, i_ext, a, b = p.lam, p.i_ext, p.a, p.b
    cubic = p.truncation is None
    h = 0.5 * dt
    n0 = alpha * (alpha - lam) * (alpha - 1.0) if cubic else nonlinearity(alpha, p)
    k1v = i_ext - n0 - beta
    k1x = b * alpha - a * beta
    v = alpha + h * k1v
    x = beta + h * k1x
    n0 = v * (v - lam) * (v - 1.0) if cubic else nonlinearity(v, p)
    k2v = i_ext - n0 - x
    k2x = b * v - a * x
    v = alpha + h * k2v
    x = beta + h * k2x
    n0 = v * (v - lam) * (v - 1.0) if cubic else nonlinearity(v, p)
    k3v = i_ext - n0 - x
    k3x = b * v - a * x
    v = alpha + dt * k3v
    x = beta + dt * k3x
    n0 = v * (v - lam) * (v - 1.0) if cubic else nonlinearity(v, p)
    k4v = i_ext - n0 - x
    k4x = b * v - a * x
    w = dt / 6.0
    return (alpha + w * (k1v + 2.0 * k2v + 2.0 * k3v + k4v),
            beta + w * (k1x + 2.0 * k2x + 2.0 * k3x + k4x))


def rk4_integrate(s0: LimitState, p: ModelParams, dt: float, t_end: float,
                  record_stride: int = 1) -> LimitTrajectory:
    """Classical fixed-step RK4 from s0.t to s0.t + t_end, with the step
    core.time_steps takes from t_end and dt."""
    if record_stride < 1:
        raise ValueError(f"record_stride must be >= 1, got {record_stride}")
    n_steps, dt = time_steps(t_end, dt)
    alpha, beta = s0.alpha, s0.beta
    times = [s0.t]
    alphas = [alpha]
    betas = [beta]
    for k in range(1, n_steps + 1):
        alpha, beta = rk4_step(alpha, beta, p, dt)
        finite = math.isfinite(alpha) and math.isfinite(beta)
        if not finite or k % record_stride == 0 or k == n_steps:
            t = s0.t + (t_end if k == n_steps else k * dt)
            if not finite:
                raise BlowUpError(f"limit trajectory non-finite at t={t:.6g}", t=t)
            times.append(t)
            alphas.append(alpha)
            betas.append(beta)
    return LimitTrajectory(np.asarray(times), np.asarray(alphas), np.asarray(betas), dt)


def equilibrium_cubic_coeffs(p: ModelParams) -> tuple[float, float, float]:
    """(c2, c1, c0) of the monic equilibrium cubic v^3 + c2 v^2 + c1 v + c0."""
    return (-(1.0 + p.lam), p.lam + p.b / p.a, -p.i_ext)


_THIRDS = tuple(2.0 * math.pi * k / 3.0 for k in range(3))  # trigonometric root phases


def real_cubic_roots(c2: float, c1: float, c0: float) -> list[float]:
    """Distinct real roots of the monic cubic, ascending.

    Analytic bootstrap (trigonometric for three real roots, Cardano for
    one), then up to 50 Newton steps of polish; avoids fragility right at a
    vanishing discriminant.  A double root appears once in the output.
    An iterate equal to the one two steps back starts a two-cycle between
    adjacent doubles, which no stopping test ends; the polish stops there
    and returns the iterate on which the 50 steps would have ended.
    """
    # depressed form y^3 + py + q with v = y - c2/3
    shift = -c2 / 3.0
    pp = c1 - c2 * c2 / 3.0
    qq = c0 + c2 * (2.0 * c2 * c2 - 9.0 * c1) / 27.0
    disc = -4.0 * pp ** 3 - 27.0 * qq ** 2

    scale = max(1.0, abs(c2), abs(c1), abs(c0))
    if abs(pp) < 1e-14 * scale and abs(qq) < 1e-14 * scale:
        # (near) triple root: y^3 + qq = 0, since Newton stalls where f' = 0
        ys = [math.copysign(abs(qq) ** (1.0 / 3.0), -qq) if qq else 0.0]
    elif disc > 0.0:
        m = 2.0 * math.sqrt(-pp / 3.0)
        arg = 3.0 * qq / (pp * m)
        theta = math.acos(min(1.0, max(-1.0, arg))) / 3.0
        ys = [m * math.cos(theta - third) for third in _THIRDS]
    elif disc < 0.0:
        # one real root; pick the numerically stable Cardano branch
        s = math.sqrt(qq * qq / 4.0 + pp ** 3 / 27.0)
        u = -qq / 2.0 + s if qq <= 0 else -qq / 2.0 - s
        u = math.copysign(abs(u) ** (1.0 / 3.0), u)
        ys = [u + (-pp / (3.0 * u) if u != 0.0 else 0.0)]
    else:
        # vanishing discriminant: a double root and a simple one
        ys = [3.0 * qq / pp, -3.0 * qq / (2.0 * pp)]

    roots = []
    for y in ys:
        r, r1 = y + shift, math.nan  # r1: the iterate before r; r2: the one before that
        for k in range(50):
            f = ((r + c2) * r + c1) * r + c0
            if abs(f) < 1e-15 * scale:
                break
            fp = (3.0 * r + 2.0 * c2) * r + c1
            if fp == 0.0:
                break
            step = f / fp
            r, r1, r2 = r - step, r, r1
            if abs(step) < 1e-16 * max(1.0, abs(r)):
                break
            if r == r2:  # the loop only alternates between r1 and r from here
                if k % 2 == 0:  # an odd number of the 50 steps is left: it ends on r1
                    r = r1
                break
        roots.append(r)

    if len(roots) == 1:
        return roots
    roots.sort()
    distinct: list[float] = []
    for r in roots:
        if not distinct or abs(r - distinct[-1]) > 1e-9 * max(1.0, abs(r)):
            distinct.append(r)
    return distinct


def equilibria(p: ModelParams) -> list[tuple[float, float]]:
    """All equilibria (v*, x*) of the limit system, ascending in v*.

    Each v* satisfies the equilibrium cubic to |residual| < 1e-12 (Newton
    refined); x* = (b/a) v*.  Returns 1, 2, or 3 entries (2 exactly at a
    saddle-node, where a double root appears once).
    """
    c2, c1, c0 = equilibrium_cubic_coeffs(p)
    return [(v, (p.b / p.a) * v) for v in real_cubic_roots(c2, c1, c0)]
