"""Closed-form regime classification of the limit system, plus numerical
limit-cycle detection through a Poincare return map.

The regime follows the equilibria found, the real roots of the equilibrium
cubic: three give Bistable, two (a double root) a saddle-node, and a single
one is stable for T < 0 and surrounded by an attracting cycle for T > 0.
At an equilibrium the limit system's Jacobian, its trace and determinant are

    [[-N0'(v*), -1], [b, -a]],   T = -N0'(v*) - a,   D = a N0'(v*) + b,

with N0' = core.cubic_prime, evaluated once per equilibrium; the -a is the
relaxing adaptation's.  A Hopf point sits at T = 0.  The cubic's discriminant

    Delta = -27 I^2 + 18 (1+lam) q I - 4 q^3 - 4 (1+lam)^3 I + (1+lam)^2 q^2
    with q = lam + b/a and I = i_ext

is reported, and |Delta| <= DEGENERACY_TOL only marks the saddle-node band.
Bistable counts equilibria and does not promise that two of them are
stable: at (a, b, lam, I) = (0.03, 0.09, 4, 2.5) all three are unstable
inside a cycle of period 136.5.  Each equilibrium's label carries its own
stability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .core import BlowUpError, ModelParams, cubic_prime, uncoupled_drift
from .limit_ode import LimitState, equilibria, equilibrium_cubic_coeffs, rk4_step

BISTABLE = "Bistable"
MONOSTABLE_STABLE = "MonostableStable"
OSCILLATORY = "Oscillatory"
DEGENERATE_SADDLE_NODE = "DegenerateSaddleNode"
DEGENERATE_HOPF = "DegenerateHopf"

DEGENERACY_TOL = 1e-9  # about 1000x double-precision noise at these magnitudes

# Poincare-section cycle detection
CYCLE_DT = 0.025  # RK4 step
CYCLE_MIN_RETURNS = 5  # laps whose return times are averaged into the period
CYCLE_SPREAD_TOL = 0.01  # largest relative spread of their return times and v-ranges
CYCLE_CONVERGENCE_TOL = 1e-8  # displacement over one time unit of a settled state


class CycleDetectionError(RuntimeError):
    """Integration budget exhausted without convergence or periodicity."""


# The reports are immutable named tuples, cheaper to build than frozen
# dataclasses; classify builds up to four per query.
class EquilibriumInfo(NamedTuple):
    v: float
    x: float
    trace: float
    det: float
    eigenvalues: tuple[complex, complex]
    label: str  # stable | unstable | marginal


@dataclass(frozen=True)
class LimitCycle:
    period: float
    v_min: float
    v_max: float


class BifurcationReport(NamedTuple):
    delta: float
    equilibria: tuple[EquilibriumInfo, ...]
    regime: str


def discriminant(p: ModelParams) -> float:
    """The discriminant above, of the equilibrium cubic v^3 + c2 v^2 + q v
    + c0 with 1 + lam = -c2 and I = -c0.  Raises ValueError when it is not
    finite, as when q ** 3 overflows."""
    c2, q, c0 = equilibrium_cubic_coeffs(p)
    lam1, i0 = -c2, -c0
    try:
        delta = (-27.0 * i0 ** 2 + 18.0 * lam1 * q * i0 - 4.0 * q ** 3
                 - 4.0 * lam1 ** 3 * i0 + lam1 ** 2 * q ** 2)
    except OverflowError:
        delta = math.inf
    if not math.isfinite(delta):
        raise ValueError(f"the discriminant is not finite at q = lambda + b/a = {q:g}, "
                         f"lambda = {p.lam:g}, i_ext = {p.i_ext:g}")
    return delta


def trace_at(vstar: float, p: ModelParams) -> float:
    """Jacobian trace -N0'(v*) - a at the equilibrium (v*, (b/a) v*), with
    the bits of classify's trace."""
    return -cubic_prime(vstar, p) - p.a


def _equilibrium_info(v: float, x: float, p: ModelParams) -> EquilibriumInfo:
    """The Jacobian's trace, determinant and eigenvalue pair at (v, x), and
    the stability label of the pair's larger real part, which the trace and
    the discriminant give directly."""
    slope = cubic_prime(v, p)
    trace = -slope - p.a
    det = p.a * slope + p.b
    disc = trace * trace - 4.0 * det
    if disc >= 0.0:
        s = math.sqrt(disc)
        top = (trace + s) / 2.0
        eigs = ((trace - s) / 2.0 + 0j, top + 0j)
    else:
        s = math.sqrt(-disc)
        top = trace / 2.0
        eigs = (complex(top, -s / 2.0), complex(top, s / 2.0))
    label = ("stable" if top < -DEGENERACY_TOL
             else "unstable" if top > DEGENERACY_TOL else "marginal")
    return EquilibriumInfo(v, x, trace, det, eigs, label)


def classify(p: ModelParams) -> BifurcationReport:
    """Regime classification with per-equilibrium eigenvalue labels.

    The regime follows the equilibria found: DegenerateSaddleNode when two
    are found or |Delta| <= DEGENERACY_TOL, else Bistable for three and the
    trace rule for one, DegenerateHopf when |T| <= DEGENERACY_TOL.
    """
    delta = discriminant(p)
    infos = tuple([_equilibrium_info(v, x, p) for v, x in equilibria(p)])

    if abs(delta) <= DEGENERACY_TOL or len(infos) == 2:
        if len(infos) == 3:
            # within the band the numerically split double root is one
            # equilibrium; present the merged pair next to the simple root
            gaps = [infos[1].v - infos[0].v, infos[2].v - infos[1].v]
            k = 0 if gaps[0] <= gaps[1] else 1
            mid = 0.5 * (infos[k].v + infos[k + 1].v)
            merged = _equilibrium_info(mid, (p.b / p.a) * mid, p)
            infos = (merged, infos[2]) if k == 0 else (infos[0], merged)
        return BifurcationReport(delta, infos, DEGENERATE_SADDLE_NODE)
    if len(infos) == 3:
        return BifurcationReport(delta, infos, BISTABLE)
    tr = infos[0].trace
    if abs(tr) <= DEGENERACY_TOL:
        regime = DEGENERATE_HOPF
    elif tr < 0.0:
        regime = MONOSTABLE_STABLE
    else:
        regime = OSCILLATORY
    return BifurcationReport(delta, infos, regime)


def detect_limit_cycle(p: ModelParams, s0: LimitState, *,
                       max_time: float = 2000.0) -> LimitCycle | None:
    """Poincare-section cycle detection on the limit system.

    Integrates from s0 by RK4 at CYCLE_DT and watches upward crossings of
    the section v = v* (the unique equilibrium), each placed within its
    step by a cubic Hermite interpolant.  With several equilibria
    the section is the running midline instead, the middle of the v-range
    since s0; it moves only when that middle has drifted by more than
    CYCLE_SPREAD_TOL of the range, and the laps counted so far are then
    dropped.  Each lap between two crossings has a return time and a
    v-range v_max - v_min.  Once the last CYCLE_MIN_RETURNS laps agree in
    both, each to a relative spread below CYCLE_SPREAD_TOL, returns their
    mean return time and the v_min and v_max of the last lap.  Agreeing
    ranges rule out a weakly damped focus, whose return times agree while
    its laps shrink.  Returns None if the state stops moving (displacement
    below CYCLE_CONVERGENCE_TOL over one time unit, probed every 26 units).
    Raises CycleDetectionError if neither happens within max_time time
    units of s0; no step goes past max_time.  Raises BlowUpError if the
    state is non-finite when a probe finds it still or the budget runs out.
    A max_time that is not finite and > 0 raises ValueError.
    """
    if not 0.0 < max_time < math.inf:
        raise ValueError(f"max_time must be finite and > 0, got {max_time}")
    dt = CYCLE_DT
    eqs = equilibria(p)
    midline = len(eqs) > 1
    n_steps = int(max_time / dt + 1e-9)  # whole steps within max_time
    probe_steps = int(round(1.0 / dt))
    chunk_steps = int(round(26.0 / dt))  # a stationarity probe opens every chunk

    alpha, beta = s0.alpha, s0.beta
    section = alpha if midline else eqs[0][0]
    lo = hi = alpha  # v-range of the lap in progress
    v_lo = v_hi = alpha  # v-range since s0, up to the last crossing
    returns: list[float] = []  # return time of each lap
    ranges: list[float] = []  # v-range of each lap
    last_cross = None
    for start in range(0, n_steps, chunk_steps):
        if midline:
            v_lo, v_hi = min(v_lo, lo), max(v_hi, hi)
            mid = 0.5 * (v_lo + v_hi)
            if abs(mid - section) > CYCLE_SPREAD_TOL * (v_hi - v_lo):
                section, last_cross = mid, None
                returns.clear()
                ranges.clear()
        ref_a, ref_b = alpha, beta
        probe_end = start + probe_steps
        moved = 0.0
        for k in range(start, min(start + chunk_steps, n_steps)):
            prev, prev_b = alpha, beta
            alpha, beta = rk4_step(alpha, beta, p, dt)
            if k < probe_end:
                moved = max(moved, math.hypot(alpha - ref_a, beta - ref_b))
                if k == probe_end - 1 and moved < CYCLE_CONVERGENCE_TOL:
                    # a nan state never moves: max(moved, nan) is moved
                    _require_finite(alpha, beta, s0.t + (k + 1) * dt)
                    return None
            if alpha < lo:
                lo = alpha
            elif alpha > hi:
                hi = alpha
            if prev < section <= alpha:
                cross = (k + _crossing(p, dt, section, prev, prev_b, alpha, beta)) * dt
                if last_cross is not None:
                    returns.append(cross - last_cross)
                    ranges.append(hi - lo)
                    recent = returns[-CYCLE_MIN_RETURNS:]
                    if (len(recent) == CYCLE_MIN_RETURNS and _agree(recent)
                            and _agree(ranges[-CYCLE_MIN_RETURNS:])):
                        return LimitCycle(period=sum(recent) / CYCLE_MIN_RETURNS,
                                          v_min=lo, v_max=hi)
                last_cross = cross
                v_lo, v_hi = min(v_lo, lo), max(v_hi, hi)
                lo = hi = alpha

    _require_finite(alpha, beta, s0.t + n_steps * dt)
    raise CycleDetectionError(
        f"no convergence and no settled cycle within {max_time} time units "
        f"(laps seen: {len(returns)})")


def _require_finite(alpha: float, beta: float, t: float) -> None:
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise BlowUpError(f"limit trajectory non-finite by t={t:.6g}", t=t)


def _crossing(p: ModelParams, dt: float, section: float,
              v0: float, x0: float, v1: float, x1: float) -> float:
    """Where, as a fraction of the step from (v0, x0) to (v1, x1), the cubic
    Hermite interpolant of v meets the section, for v0 < section <= v1.

    The interpolant takes the step's end values and v-slopes, so its error
    is fourth order in dt like RK4's own; a linear one would be second
    order and would bound the step instead.  Newton from the linear guess.
    """
    m0 = dt * uncoupled_drift(v0, x0, p)
    m1 = dt * uncoupled_drift(v1, x1, p)
    d = v1 - v0
    # v(s) - section = c0 + s (m0 + s (c2 + s c3)) on s in [0, 1]
    c0, c2, c3 = v0 - section, 3.0 * d - 2.0 * m0 - m1, m0 + m1 - 2.0 * d
    s = -c0 / d
    for _ in range(3):
        slope = m0 + s * (2.0 * c2 + 3.0 * s * c3)
        if slope <= 0.0:
            break
        s = min(1.0, max(0.0, s - (c0 + s * (m0 + s * (c2 + s * c3))) / slope))
    return s


def _agree(values: list[float]) -> bool:
    """Whether positive values spread by less than CYCLE_SPREAD_TOL of their mean."""
    return max(values) - min(values) < CYCLE_SPREAD_TOL * sum(values) / len(values)


def report_to_dict(report: BifurcationReport) -> dict:
    """JSON-friendly view of a classification report."""
    return {
        "delta": report.delta,
        "regime": report.regime,
        "equilibria": [
            {"v": e.v, "x": e.x, "trace": e.trace, "det": e.det,
             "eigenvalues": [[z.real, z.imag] for z in e.eigenvalues],
             "label": e.label}
            for e in report.equilibria],
    }
