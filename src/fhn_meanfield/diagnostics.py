"""Concentration diagnostics: shifted log-density profiles of empirical
samples, each with its predicted quadratic and the sup distance between
them,

    psi_v(v) = -(v - alpha)^2 / 2,    psi_x(x) = -a (x - beta)^2 / 2,

a trajectory record's variance ratios against the predicted variances
(epsilon in v, epsilon/a in x) and its mean error against a limit
trajectory recorded at the record's own times, and the residual of the
limiting balance

    R = (v - alpha) d_v psi + |d_v psi|^2

on scaled log-density fields.  Density estimates are histograms, matching
the shifted-log construction the profiles are defined by; kernel smoothing
would blur the tails the diagnostic cares about.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ModelParams
from .fokker_planck import HopfColeField
from .limit_ode import LimitTrajectory
from .particle import TrajectoryRecord

MIN_SAMPLES = 1000
MIN_BINS = 16
MASK_MIN_COUNT = 5  # log of smaller counts is noise dominated
RESOLVABLE_DECADES = 4.0  # profile window: target values >= -4 eps ln(10)


@dataclass
class Profile:
    centers: np.ndarray
    values: np.ndarray
    mask: np.ndarray  # True where the bin is too thin to trust
    counts: np.ndarray
    target: np.ndarray  # the predicted quadratic at the bin centres
    sup_error: float  # max |values - target| over resolvable bins, nan if none


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


def log_density_profile(samples: np.ndarray, epsilon: float, center: float,
                        bins: int = 64, curvature: float = 1.0) -> Profile:
    """Shifted scaled log histogram eps*log(mu_hat) + (eps/2)*log(2 pi eps / c)
    against its target -c (y - center)^2 / 2.

    c is the curvature of the target quadratic (1 for voltage centred on
    alpha, a for adaptation centred on beta); with that shift an exact
    Gaussian of variance eps/c about center maps onto the target.  Bins span
    the sample range padded by 10%; bins with fewer than MASK_MIN_COUNT
    samples are masked.  The sup error is taken over the unmasked bins where
    the target is at least -RESOLVABLE_DECADES eps ln(10).
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
    target = -0.5 * curvature * (centers - center) ** 2
    use = (target >= -RESOLVABLE_DECADES * epsilon * np.log(10.0)) & ok
    sup_error = float(np.max(np.abs(values[use] - target[use]))) if use.any() else np.nan
    return Profile(centers=centers, values=values, mask=mask, counts=counts,
                   target=target, sup_error=sup_error)


def compare(rec: TrajectoryRecord, limit: LimitTrajectory,
            p: ModelParams) -> ProfileComparison:
    """Each record's variance ratios and mean error against the limit,
    which must be recorded at exactly the record's times."""
    if not np.array_equal(limit.t, rec.t):
        raise ValueError(f"the limit is not recorded at the record's {len(rec)} times "
                         f"(t = {rec.t[0]:.6g} .. {rec.t[-1]:.6g})")
    return ProfileComparison(
        t=rec.t, var_ratio_v=rec.var_v / p.epsilon,
        var_ratio_x=rec.var_x / (p.epsilon / p.a),
        mean_error=np.hypot(rec.mean_v - limit.alpha, rec.mean_x - limit.beta))


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
