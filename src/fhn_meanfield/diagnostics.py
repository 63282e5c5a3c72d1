"""Concentration diagnostics: shifted log-density profiles of empirical
samples and their sup distance from the predicted quadratics

    psi_v(v) = -(v - alpha)^2 / 2,    psi_x(x) = -a (x - beta)^2 / 2,

a trajectory record's variance ratios against the predicted variances
(epsilon in v, epsilon/a in x) and its mean error against the limit
trajectory, and the residual of the limiting balance

    R = (v - alpha) d_v psi + |d_v psi|^2

on scaled log-density fields.  Density estimates are histograms, matching
the shifted-log construction the profiles are defined by; kernel smoothing
would blur the tails the diagnostic cares about.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import ModelParams
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
    """A trajectory record against the limit, one entry per record."""

    t: np.ndarray
    var_ratio_v: np.ndarray  # var_v / eps
    var_ratio_x: np.ndarray  # var_x / (eps / a)
    mean_error: np.ndarray  # distance of the mean (v, x) from (alpha, beta)


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


def profile_sup_error(prof: Profile, theoretical: Callable, epsilon: float) -> float:
    """Sup distance of a profile from the theoretical quadratic (one of
    theoretical_profile's pair) over the bins that are unmasked and
    resolvable, where the quadratic is at least -RESOLVABLE_DECADES eps
    ln(10); nan if there are none."""
    theo = theoretical(prof.centers)
    use = (theo >= -RESOLVABLE_DECADES * epsilon * np.log(10.0)) & ~prof.mask
    if not use.any():
        return float("nan")
    return float(np.max(np.abs(prof.values[use] - theo[use])))


def compare(rec: TrajectoryRecord, limit: LimitTrajectory,
            p: ModelParams) -> ProfileComparison:
    """Each record's variance ratios and mean error against the limit.

    A record time is matched to the nearest sample of the limit, whose
    times ascend; of two equally near samples the earlier one.  A gap
    beyond the limit series' median spacing is an alignment error.
    """
    lt = limit.t
    spacing = float(np.median(np.diff(lt))) if len(limit) > 1 else np.inf
    hi = np.minimum(np.searchsorted(lt, rec.t), lt.size - 1)
    lo = np.maximum(hi - 1, 0)
    gap_lo, gap_hi = np.abs(lt[lo] - rec.t), np.abs(lt[hi] - rec.t)
    i = np.where(gap_lo <= gap_hi, lo, hi)
    far = np.flatnonzero(np.minimum(gap_lo, gap_hi) > spacing)
    if far.size:
        k = far[0]
        raise ValueError(f"no reference time within {spacing:.3g} of t={rec.t[k]:.6g} "
                         f"(closest {lt[i[k]]:.6g})")
    return ProfileComparison(
        t=rec.t, var_ratio_v=rec.var_v / p.epsilon,
        var_ratio_x=rec.var_x / (p.epsilon / p.a),
        mean_error=np.hypot(rec.mean_v - limit.alpha[i], rec.mean_x - limit.beta[i]))


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
