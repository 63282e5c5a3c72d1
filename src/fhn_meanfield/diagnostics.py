"""Concentration diagnostics: shifted log-density profiles of empirical
samples against the predicted quadratics

    psi_v(v) = -(v - alpha)^2 / 2,    psi_x(x) = -a (x - beta)^2 / 2,

variance ratios against the predicted variances (epsilon in v, epsilon/a in
x), and the residual of the limiting balance

    R = (v - alpha) d_v psi + |d_v psi|^2

on scaled log-density fields.  Density estimates are histograms, matching
the shifted-log construction the profiles are defined by; kernel smoothing
would blur the tails the diagnostic cares about.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .core import EnsembleState, ModelParams
from .fokker_planck import HopfColeField
from .limit_ode import LimitState, LimitTrajectory
from .particle import TrajectoryRecord

MIN_SAMPLES = 1000
MIN_BINS = 16
MASK_MIN_COUNT = 5  # log of smaller counts is noise dominated
RESOLVABLE_DECADES = 4.0  # profile window: theoretical values >= -4 eps ln(10)


@dataclass
class Profile:
    centers: np.ndarray
    values: np.ndarray
    mask: np.ndarray  # True where the bin is too thin to trust
    counts: np.ndarray


@dataclass(frozen=True)
class ProfileComparison:
    t: float
    sup_error_v: float
    sup_error_x: float
    var_ratio_v: float
    var_ratio_x: float
    mean_error: float


@dataclass(frozen=True)
class ResidualStats:
    median_abs: float
    p90_abs: float
    n_cells: int


def log_density_profile(samples: np.ndarray, epsilon: float, bins: int = 64,
                        curvature: float = 1.0) -> Profile:
    """Shifted scaled log histogram: eps*log(mu_hat) + (eps/2)*log(2 pi eps / c).

    c is the curvature of the target quadratic (1 for voltage, a for
    adaptation); with that shift an exact Gaussian of variance eps/c maps
    onto -c (y - mean)^2 / 2.  Bins span the sample range padded by 10%;
    bins with fewer than MASK_MIN_COUNT samples are masked.
    """
    samples = np.asarray(samples)
    if samples.size < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {samples.size}")
    if bins < MIN_BINS:
        raise ValueError(f"need at least {MIN_BINS} bins, got {bins}")
    lo, hi = float(samples.min()), float(samples.max())
    pad = 0.05 * (hi - lo)
    if pad == 0.0:
        pad = 0.05 * max(1.0, abs(lo))
    counts, edges = np.histogram(samples, bins=bins, range=(lo - pad, hi + pad))
    width = edges[1] - edges[0]
    centers = 0.5 * (edges[:-1] + edges[1:])
    mask = counts < MASK_MIN_COUNT
    density = counts / (samples.size * width)
    shift = 0.5 * epsilon * np.log(2.0 * np.pi * epsilon / curvature)
    values = np.full(bins, np.nan)
    ok = ~mask
    values[ok] = epsilon * np.log(density[ok]) + shift
    return Profile(centers=centers, values=values, mask=mask, counts=counts)


def theoretical_profile(state: LimitState, p: ModelParams) -> tuple[Callable, Callable]:
    """The limit quadratics centered on (alpha, beta)."""
    alpha, beta, a = state.alpha, state.beta, p.a

    def psi_v(v):
        return -0.5 * (np.asarray(v) - alpha) ** 2

    def psi_x(x):
        return -0.5 * a * (np.asarray(x) - beta) ** 2

    return psi_v, psi_x


def _nearest_index(t: float, times: np.ndarray, tol: float) -> int:
    i = int(np.argmin(np.abs(times - t)))
    if abs(times[i] - t) > tol:
        raise ValueError(
            f"no reference time within {tol:.3g} of t={t:.6g} (closest {times[i]:.6g})")
    return i


def _sup_profile_error(samples, epsilon, center, curvature) -> float:
    """Sup distance of the samples' profile from -curvature (y - center)^2 / 2
    over the resolvable, unmasked bins."""
    prof = log_density_profile(samples, epsilon, curvature=curvature)
    theo = -0.5 * curvature * (prof.centers - center) ** 2
    resolvable = theo >= -RESOLVABLE_DECADES * epsilon * np.log(10.0)
    use = resolvable & ~prof.mask
    if not use.any():
        return float("nan")
    return float(np.max(np.abs(prof.values[use] - theo[use])))


def compare(data: TrajectoryRecord | Iterable[EnsembleState],
            limit: LimitTrajectory, p: ModelParams) -> list[ProfileComparison]:
    """Per-time comparison against the limit trajectory.

    Accepts either a TrajectoryRecord (moment statistics only; profile
    sup errors come out nan) or an iterable of ensemble snapshots (full
    profile comparison).  Time stamps are matched to the nearest limit
    sample; a gap beyond the limit series spacing is an alignment error.
    """
    spacing = float(np.median(np.diff(limit.t))) if len(limit) > 1 else np.inf
    out = []
    if isinstance(data, TrajectoryRecord):
        for k in range(len(data)):
            t = float(data.t[k])
            i = _nearest_index(t, limit.t, spacing)
            alpha, beta = float(limit.alpha[i]), float(limit.beta[i])
            out.append(ProfileComparison(
                t=t,
                sup_error_v=float("nan"), sup_error_x=float("nan"),
                var_ratio_v=float(data.var_v[k]) / p.epsilon,
                var_ratio_x=float(data.var_x[k]) / (p.epsilon / p.a),
                mean_error=float(np.hypot(data.mean_v[k] - alpha,
                                          data.mean_x[k] - beta))))
        return out

    for state in data:
        t = float(state.t)
        i = _nearest_index(t, limit.t, spacing)
        alpha, beta = float(limit.alpha[i]), float(limit.beta[i])
        out.append(ProfileComparison(
            t=t,
            sup_error_v=_sup_profile_error(state.v, p.epsilon, alpha, 1.0),
            sup_error_x=_sup_profile_error(state.x, p.epsilon, beta, p.a),
            var_ratio_v=float(np.var(state.v)) / p.epsilon,
            var_ratio_x=float(np.var(state.x)) / (p.epsilon / p.a),
            mean_error=float(np.hypot(np.mean(state.v) - alpha,
                                      np.mean(state.x) - beta))))
    return out


def viscosity_residual(field: HopfColeField, jg: float) -> ResidualStats:
    """Central-difference residual R = (v - jg) d_v psi + |d_v psi|^2 on
    cells whose full stencil is unmasked."""
    g = field.grid
    psi = field.psi
    dpsi = (psi[:, 2:] - psi[:, :-2]) / (2.0 * g.dv)
    ok = ~(field.mask[:, 2:] | field.mask[:, 1:-1] | field.mask[:, :-2])
    if not ok.any():
        raise ValueError("field fully masked, no support for the residual")
    v = g.v_centers()[1:-1][None, :]
    r = (v - jg) * dpsi + dpsi ** 2
    vals = np.abs(r[ok])
    return ResidualStats(median_abs=float(np.median(vals)),
                         p90_abs=float(np.percentile(vals, 90.0)),
                         n_cells=int(vals.size))
