"""Integration of the coupled n-neuron ensemble.

The coupling (vbar - v)/epsilon is linear and leaves the mean voltage vbar
unchanged.  So each step moves vbar by an Euler-Maruyama step of the
non-stiff drift -N0(v) + i_ext - x, and each deviation from vbar by the
exact Ornstein-Uhlenbeck step of rate 1/epsilon; the step is not tied to
epsilon.  x takes an Euler-Maruyama step.  vbar is reduced from the
pre-step state, so the result does not depend on update order.

A run's noise is one SFC64 stream per block of NoiseStream(seed): block 0
draws the initial ensemble and block 1 every step's draws in order.
simulate draws them for a block of whole steps at a time, at most
NOISE_BLOCK_NORMALS normals in one call, and at least one step's; a block's
draws do not depend on how the stream is split, so trajectories are
bitwise reproducible for a fixed configuration and seed.  The ensemble
lives in one preallocated (2, n) array, voltages in row 0 and adaptation
values in row 1, which every step updates in place; em_step runs the same
update on a copy of a single state, with a block of one step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# The benchmark's traced run (perfbench/layers.py) wraps voltage_drift and
# sample_initial on this module.
from .core import (BlowUpError, EnsembleState, InitCondition, ModelParams,  # noqa: F401
                   nonlinearity, require_finite, sample_initial, time_steps,
                   voltage_drift)

DEFAULT_QUANTILES = (0.10, 0.25, 0.75, 0.90)

# The network's default step.  At 1e-2 the variance bands, profiles,
# network period, mean tracking and moment bounds checked on the presets
# and the benchmark workloads all hold.
DEFAULT_DT = 1e-2

# simulate draws the normals of as many whole steps as fit in 2**16 doubles
# (512 KiB) with one standard_normal call, which spreads the call's fixed
# cost over many steps when n is small; a step of more draws takes its own.
NOISE_BLOCK_NORMALS = 2 ** 16


class NoiseStream:
    """The noise streams of one run, keyed by its seed.

    block(i) returns a fresh SFC64 generator keyed by (seed, i); block i
    always yields the same draws for a given seed, independent of how many
    other blocks were consumed.  Block 0 draws the initial ensemble and
    block 1 the noise of every step, in order: step, then row (voltage, then
    adaptation when adaptation noise is on), then neuron.  SFC64 makes each
    double from whole 64-bit words and standard normals keep no state
    outside the generator, so drawing block 1 in runs of whole steps, of any
    length, gives the same draws as drawing it step by step or at once.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & ((1 << 128) - 1)

    def block(self, index: int) -> np.random.Generator:
        return np.random.Generator(np.random.SFC64(
            np.random.SeedSequence(self.seed, spawn_key=(int(index),))))


def default_dt(p: ModelParams) -> float:
    """DEFAULT_DT for any parameters: the stiff coupling is integrated
    exactly, so the step is set by the first-order error of the explicit
    non-stiff drift, not by epsilon."""
    return DEFAULT_DT


@dataclass(frozen=True)
class SimConfig:
    n: int
    t_end: float
    dt: float | None = None  # upper bound of the step; None is default_dt(params)
    seed: int = 0
    record_stride: int = 1
    quantile_fractions: tuple[float, ...] = DEFAULT_QUANTILES

    def __post_init__(self):
        require_finite(self)
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        # a bad t_end or dt, or too many steps, raise before any work or output
        time_steps(self.t_end, DEFAULT_DT if self.dt is None else self.dt)
        if self.record_stride < 1:
            raise ValueError(f"record_stride must be >= 1, got {self.record_stride}")
        qs = self.quantile_fractions
        if not (isinstance(qs, (tuple, list)) and all(
                isinstance(q, (float, int, np.floating, np.integer))
                and not isinstance(q, bool) for q in qs)):
            raise TypeError(f"quantile_fractions must be a list of real numbers, got {qs!r}")
        if not qs or not all(0.0 <= q <= 1.0 for q in qs):
            raise ValueError(f"quantile fractions must be a non-empty list in [0, 1], got {qs}")


@dataclass(frozen=True)
class Moments:
    mean_v: float
    mean_x: float
    var_v: float
    var_x: float
    m4_v: float
    m4_x: float


@dataclass
class TrajectoryRecord:
    """Recorded ensemble statistics; one row per recorded time.

    Moments use divisor n (they estimate measure moments, not unbiased
    sample statistics) and m4 is the raw fourth moment.  quantiles_v and
    quantiles_x have shape (n_records, len(quantile_fractions)).
    """

    t: np.ndarray
    mean_v: np.ndarray
    mean_x: np.ndarray
    var_v: np.ndarray
    var_x: np.ndarray
    m4_v: np.ndarray
    m4_x: np.ndarray
    quantiles_v: np.ndarray
    quantiles_x: np.ndarray
    quantile_fractions: tuple[float, ...]
    dt: float  # the step taken
    final_state: EnsembleState | None = None

    def __len__(self) -> int:
        return self.t.size


def _moments(s: np.ndarray, sums: np.ndarray,
             work: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row mean, variance and raw fourth moment of s, given its row sums.

    The mean and variance are the operations of np.mean and np.var, so the
    same bits, without their Python-level wrappers.  The fourth moment
    squares the square, which is within a few ulp of np.mean(s ** 4) and
    several times cheaper than a power.  work is overwritten.
    """
    n = s.shape[1]
    mean = sums / n
    np.subtract(s, mean[:, None], out=work)
    np.multiply(work, work, out=work)
    var = np.add.reduce(work, axis=1) / n
    np.multiply(s, s, out=work)
    np.multiply(work, work, out=work)
    return mean, var, np.add.reduce(work, axis=1) / n


def empirical_moments(state: EnsembleState) -> Moments:
    s = np.stack((state.v, state.x))
    mean, var, m4 = _moments(s, np.add.reduce(s, axis=1), np.empty_like(s))
    return Moments(
        mean_v=float(mean[0]), mean_x=float(mean[1]),
        var_v=float(var[0]), var_x=float(var[1]),
        m4_v=float(m4[0]), m4_x=float(m4[1]))


def _quantile_plan(n: int, qs: Sequence[float]) -> tuple:
    """Order-statistic pairs and weights of the linear-interpolation
    quantiles of a sorted sample of size n.

    The arithmetic is numpy's default ('linear') quantile method step for
    step, so the results equal np.quantile bit for bit.
    """
    qs = np.asarray(qs, dtype=float)
    if not np.all((qs >= 0.0) & (qs <= 1.0)):
        raise ValueError(f"quantile fractions must lie in [0, 1], got {qs}")
    position = (n - 1) * qs
    lower = np.floor(position)
    upper = lower + 1
    at_max = position >= n - 1
    lower[at_max] = -1
    upper[at_max] = -1
    gamma = position - lower
    return (lower.astype(np.intp), upper.astype(np.intp), gamma, 1 - gamma,
            gamma >= 0.5)


def _interpolate(ordered: np.ndarray, plan: tuple) -> np.ndarray:
    """Quantiles of each row of an ascending-sorted array."""
    lower, upper, gamma, rest, from_upper = plan
    a, b = ordered[..., lower], ordered[..., upper]
    diff = b - a
    out = a + diff * gamma
    np.subtract(b, diff * rest, out=out, where=from_upper)
    return out


def quantiles(values: np.ndarray, qs: Sequence[float]) -> np.ndarray:
    """Linear-interpolation quantiles at positions q*(n-1) on the sorted
    sample (q=0 gives the minimum, q=1 the maximum)."""
    values = np.asarray(values)
    if values.size < 1:
        raise ValueError("quantiles require a non-empty array")
    ordered = np.sort(values, axis=None)
    out = _interpolate(ordered, _quantile_plan(ordered.size, qs))
    if np.isnan(ordered[-1]):
        out[...] = np.nan
    return out


class _Stepper:
    """Step constants, row views and scratch buffers for in-place steps of
    the state s, shape (2, n).  step() is the only arithmetic path of a
    step, shared by em_step and simulate.

    The noise arrives in blocks of whole steps, shape (m, rows, n): the
    voltage row, then the adaptation row when adaptation noise is on.
    scale() takes each step's voltage-draw sum and scales the whole block
    once; step() then takes one step's scaled draws with that sum.  With 300
    neurons a step costs mostly numpy's fixed cost per call, which on a
    shared 2-core host is lower with a 0-d array operand than with an
    np.float64 (0.46 against 0.61 us) and for two row multiplies than for
    one (2, n) x (2, 1) broadcast (0.92 against 1.22 us).  So each constant a
    ufunc takes, and each step's shift, is a 0-d float64 array made here,
    the drift and relaxation rows take their gains phi and h row by row, and
    every row view is made here.  incr and last hold the scaled increments
    of the current and the previous step; each step swaps them, so the
    previous drifts stay for finite_sums at no cost.
    """

    def __init__(self, p: ModelParams, dt: float, s: np.ndarray):
        self.p, self.dt, self.s = p, dt, s
        self.v, self.x = s
        self.n = n = s.shape[1]
        self.rows = rows = 2 if p.adaptation_noise else 1
        self.noisy = s[:rows]
        self.cubic = p.truncation is None
        eps, sigma = float(p.epsilon), float(p.sigma)  # an np.float32 would compute in float32
        ratio = dt / eps
        self.damped = -math.expm1(-ratio)  # 1 - e
        phi = eps * self.damped
        ou_noise = sigma * math.sqrt(-eps * math.expm1(-2.0 * ratio))  # A
        self.noise_scale = np.array([[ou_noise], [math.sqrt(2.0 * eps * dt)]])[:rows]
        self.mean_drift = dt - phi  # h - phi
        self.mean_noise = sigma * math.sqrt(2.0 * dt) - ou_noise  # B - A
        (self.lam, self.one, self.i_ext, self.neg_a, self.b, self.decay, self.phi,
         self.h, self.shift) = (np.array(float(c)) for c in (
             p.lam, 1.0, p.i_ext, -p.a, p.b, math.exp(-ratio), phi, dt, 0.0))  # decay is e
        incr, last = np.zeros((2, n)), np.zeros((2, n))
        self.incr, self.last = (incr, *incr), (last, *last)  # (both rows, drift, relax)
        self.work = np.empty(n)

    def scale(self, block: np.ndarray) -> list[float]:
        """Scale a block of standard normal draws, shape (m, rows, n), in
        place by the noise amplitudes A and sqrt(2 eps h), and return each
        step's sum of voltage draws, taken before the scaling."""
        sums = np.add.reduce(block[:, 0], axis=1).tolist()
        np.multiply(block, self.noise_scale, block)
        return sums

    def step(self, vbar: float, noise: np.ndarray, noise_sum: float) -> None:
        """Advance s = (v, x) by one step in place, with vbar the mean of
        the pre-step voltages, noise the step's draws as scale() left them
        and noise_sum their voltage row's sum before scaling.

        With h the step, e = exp(-h/eps), phi = eps (1 - e), f the non-stiff
        drift -N0(v) + i_ext - x, xi the voltage draws, A and B the noise
        amplitudes sigma sqrt(eps (1 - e^2)) and sigma sqrt(2h), and bars
        for ensemble means:

            v <- e v + phi f + A xi + (1 - e) vbar + (h - phi) fbar + (B - A) xibar
            x <- x + (-a x + b v) h [+ sqrt(2 eps h) eta]

        so vbar moves by h fbar + B xibar and each deviation from it takes
        the exact Ornstein-Uhlenbeck step.  The drift's operations are those
        of core.uncoupled_drift.
        """
        self.incr, self.last = self.last, self.incr
        incr, drift, relax = self.incr
        v, x, work, shift = self.v, self.x, self.work, self.shift
        if self.cubic:
            np.subtract(v, self.lam, drift)
            np.multiply(v, drift, drift)
            np.subtract(v, self.one, work)
            np.multiply(drift, work, drift)
        else:
            drift[...] = nonlinearity(v, self.p)
        np.subtract(self.i_ext, drift, drift)
        np.subtract(drift, x, drift)
        n = self.n
        shift[()] = (self.damped * vbar + self.mean_drift * np.add.reduce(drift).item() / n
                     + self.mean_noise * noise_sum / n)
        np.multiply(x, self.neg_a, relax)
        np.multiply(v, self.b, work)
        np.add(relax, work, relax)
        np.multiply(drift, self.phi, drift)
        np.multiply(relax, self.h, relax)
        np.multiply(v, self.decay, v)
        np.add(self.s, incr, self.s)
        np.add(self.noisy, noise, self.noisy)
        np.add(v, shift, v)

    def finite_sums(self, t: float) -> np.ndarray:
        """Row sums of s after a step that ended at time t.

        Any non-finite entry raises BlowUpError naming t and the first
        neuron whose drift, else whose state, is not finite: the mean
        carries a non-finite drift to every neuron within the step.  When
        every drift is non-finite, the mean carried one neuron's large drift
        to all of them a step earlier, and the neuron named is the one with
        the largest previous drift.  Finite sums imply finite entries, so
        the entry-wise test only runs when a sum is not finite.
        """
        s = self.s
        sums = np.add.reduce(s, axis=1)
        if math.isfinite(sums.item(0)) and math.isfinite(sums.item(1)):
            return sums
        finite = np.isfinite(s).all(axis=0)
        if not finite.all():
            drift_finite = np.isfinite(self.incr[1])
            if drift_finite.any():
                bad = int(np.argmin(finite if drift_finite.all() else drift_finite))
            else:
                bad = int(np.argmax(np.abs(self.last[1])))
            raise BlowUpError(
                f"non-finite state at t={t:.6g}, neuron {bad} "
                f"(dt={self.dt:.3g}; reduce dt)", t=t, index=bad)
        return sums


def em_step(state: EnsembleState, p: ModelParams, cfg: SimConfig,
            rng: np.random.Generator) -> EnsembleState:
    """One step of the ensemble, with vbar reduced from state: the update
    simulate makes in place (see _Stepper.step), here on a copy of state,
    with the step's draws as a block of one step.  A non-finite result
    raises BlowUpError naming the time and the neuron, which signals dt too
    large for the explicit non-stiff drift.
    """
    dt = cfg.dt if cfg.dt is not None else default_dt(p)
    s = np.stack((state.v, state.x))
    stepper = _Stepper(p, dt, s)
    noise = rng.standard_normal((1, stepper.rows, state.n))
    (noise_sum,) = stepper.scale(noise)
    with np.errstate(over="ignore", invalid="ignore"):
        stepper.step(np.add.reduce(s, axis=1).item(0) / state.n, noise[0], noise_sum)
        t_new = state.t + dt
        stepper.finite_sums(t_new)
    return EnsembleState(t=t_new, v=s[0], x=s[1])


def simulate(cfg: SimConfig, p: ModelParams, init: InitCondition) -> TrajectoryRecord:
    """Integrate to t_end, recording statistics every record_stride steps
    (the initial and final states are always recorded).  The step is
    core.time_steps of t_end and cfg.dt (or default_dt).  The final ensemble
    is attached for warm restarts and sample-level diagnostics.

    The normals come from block 1 of the seed's NoiseStream, on the calling
    thread, one standard_normal call per block of whole steps into one
    reused (K, rows, n) buffer, with K = NOISE_BLOCK_NORMALS // (rows n),
    at least 1 and at most the step count.  Each block is summed and scaled
    once (_Stepper.scale), then stepped through.
    """
    n_steps, dt = time_steps(cfg.t_end, cfg.dt if cfg.dt is not None else default_dt(p))
    stream = NoiseStream(cfg.seed)
    state = sample_initial(init, cfg.n, p, stream.block(0))

    s = np.stack((state.v, state.x))
    n = s.shape[1]
    stepper = _Stepper(p, dt, s)
    ordered = np.empty_like(s)
    plan = _quantile_plan(n, cfg.quantile_fractions)

    times, stats, quants = [], [], []

    def record(t: float, sums: np.ndarray) -> None:
        times.append(t)
        stats.append(np.concatenate(_moments(s, sums, ordered)))
        np.copyto(ordered, s)
        ordered.sort(axis=1)
        quants.append(_interpolate(ordered, plan))

    rng = stream.block(1)
    per_block = max(1, min(n_steps, NOISE_BLOCK_NORMALS // (stepper.rows * n)))
    block = np.empty((per_block, stepper.rows, n))
    sums = np.add.reduce(s, axis=1)
    t = 0.0
    record(t, sums)
    k = 0
    step, finite_sums, stride, t_end = (stepper.step, stepper.finite_sums,
                                        cfg.record_stride, cfg.t_end)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            while k < n_steps:
                draws = block[:min(per_block, n_steps - k)]
                rng.standard_normal(out=draws)
                for noise, noise_sum in zip(draws, stepper.scale(draws)):
                    step(sums.item(0) / n, noise, noise_sum)
                    k += 1
                    t = t_end if k == n_steps else k * dt
                    sums = finite_sums(t)
                    if k % stride == 0 or k == n_steps:
                        record(t, sums)
    except BlowUpError as err:
        raise BlowUpError(
            f"{err} [n={cfg.n}, seed={cfg.seed}, t_end={cfg.t_end}]",
            t=err.t, index=err.index) from None

    stats = np.stack(stats, axis=1)
    quants = np.ascontiguousarray(np.stack(quants, axis=1))  # quantile rows are strided
    return TrajectoryRecord(
        t=np.array(times, dtype=float), mean_v=stats[0], mean_x=stats[1], var_v=stats[2],
        var_x=stats[3], m4_v=stats[4], m4_x=stats[5],
        quantiles_v=quants[0], quantiles_x=quants[1],
        quantile_fractions=tuple(cfg.quantile_fractions), dt=dt,
        final_state=EnsembleState(t=t, v=s[0], x=s[1]))
