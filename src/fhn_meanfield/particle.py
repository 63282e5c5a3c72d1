"""Euler-Maruyama integration of the coupled n-neuron ensemble.

Each step is two-phase: the ensemble mean voltage is reduced from the
pre-step state, then every neuron is updated with that frozen mean, so the
per-neuron update is data parallel and the result does not depend on update
order.  Noise comes from counter-based streams keyed by (seed, step), which
makes trajectories bitwise reproducible for a fixed configuration regardless
of thread count or scheduling.

simulate builds one Philox generator per run and re-keys it before every
step to the counter of that step's block, so its draws are identical to
those of NoiseStream.block(k + 1) without building a generator per step.
The ensemble lives in one preallocated (2, n) array, voltages in row 0 and
adaptation values in row 1, which every step updates in place; em_step runs
the same update on a copy of a single state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# The benchmark's traced run (perfbench/layers.py) wraps voltage_drift and
# sample_initial on this module; _Stepper.step follows voltage_drift
# operation for operation.
from .core import (BlowUpError, EnsembleState, InitCondition, ModelParams,  # noqa: F401
                   nonlinearity, require_finite, sample_initial, time_steps,
                   voltage_drift)

DEFAULT_QUANTILES = (0.10, 0.25, 0.75, 0.90)

_U64 = (1 << 64) - 1


class NoiseStream:
    """Counter-based (Philox) noise streams.

    block(i) returns a fresh generator keyed by (seed, i); block i always
    yields the same draws for a given seed, independent of how many other
    blocks were consumed.  Block 0 is reserved for initial sampling and
    block k+1 drives step k.  rekeyed(i) gives the same draws as block(i)
    from one generator the stream keeps, at a fraction of the cost.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & ((1 << 128) - 1)
        self._rng: np.random.Generator | None = None
        self._state: dict | None = None

    def block(self, index: int) -> np.random.Generator:
        return np.random.Generator(
            np.random.Philox(key=self.seed, counter=int(index) << 128))

    def rekeyed(self, index: int) -> np.random.Generator:
        """The stream's own generator, set to the start of block(index).

        The counter becomes the one block(index) starts from and the output
        buffer is emptied, so the draws are identical.  Every call re-keys
        the same generator, which invalidates what an earlier call returned.
        """
        if self._rng is None:
            bit_generator = np.random.Philox(key=self.seed)
            self._rng = np.random.Generator(bit_generator)
            self._state = bit_generator.state
        index = int(index)
        self._state["state"]["counter"][2:] = (index & _U64, index >> 64)
        self._rng.bit_generator.state = self._state
        return self._rng


def default_dt(p: ModelParams) -> float:
    """Default step min(epsilon/10, 1e-3): the coupling term is stiff with
    rate 1/epsilon, so the explicit scheme needs dt well below epsilon."""
    return min(p.epsilon / 10.0, 1e-3)


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
        if self.t_end < 0:
            raise ValueError(f"t_end must be >= 0, got {self.t_end}")
        if self.dt is not None and not self.dt > 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if self.record_stride < 1:
            raise ValueError(f"record_stride must be >= 1, got {self.record_stride}")
        if not self.quantile_fractions or not all(
                0.0 <= q <= 1.0 for q in self.quantile_fractions):
            raise ValueError("quantile fractions must be a non-empty list in [0, 1], "
                             f"got {self.quantile_fractions}")


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


def coupling_mean(v: np.ndarray) -> float:
    """Ensemble mean voltage vbar; (1/n) sum_j (v_j - v_i) = vbar - v_i."""
    v = np.asarray(v)
    if v.size < 1:
        raise ValueError("coupling_mean requires a non-empty array")
    return float(np.mean(v))


def _moments(s: np.ndarray, sums: np.ndarray,
             work: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row mean, variance and raw fourth moment of s, given its row sums.

    Same operations as np.mean, np.var and np.mean(s ** 4) per row, so the
    same bits, without their Python-level wrappers.  work is overwritten.
    """
    n = s.shape[1]
    mean = sums / n
    np.subtract(s, mean[:, None], out=work)
    np.multiply(work, work, out=work)
    var = np.add.reduce(work, axis=1) / n
    np.power(s, 4, out=work)
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
    """Step constants and scratch buffers for in-place Euler-Maruyama steps
    of n neurons.  step() is the only arithmetic path of an EM step, shared
    by em_step and simulate.

    noise receives the step's standard normal draws before each step: the
    voltage row, then the adaptation row when adaptation noise is on.
    """

    def __init__(self, p: ModelParams, dt: float, n: int):
        self.p, self.dt = p, dt
        rows = 2 if p.adaptation_noise else 1
        self.noise = np.empty((rows, n))
        self.noise_scale = np.array([[p.sigma * math.sqrt(2.0 * dt)],
                                     [math.sqrt(2.0 * p.epsilon * dt)]])[:rows]
        self.incr = np.empty((2, n))
        self.work = np.empty(n)

    def step(self, s: np.ndarray, vbar: float) -> None:
        """Advance s = (v, x) by one step in place, with vbar the mean of
        the pre-step voltages.

        The operations and their order are those of core.voltage_drift and
        of x + (-a x + b v) dt, so each step matches them bit for bit.
        """
        p, work, noise = self.p, self.work, self.noise
        v, x = s
        drift, relax = self.incr
        if p.truncation is None:
            np.subtract(v, p.lam, out=drift)
            np.multiply(v, drift, out=drift)
            np.subtract(v, 1.0, out=work)
            np.multiply(drift, work, out=drift)
        else:
            drift[...] = nonlinearity(v, p)
        np.subtract(p.i_ext, drift, out=drift)
        drift -= x
        np.subtract(vbar, v, out=work)
        work /= p.epsilon
        drift += work
        np.multiply(x, -p.a, out=relax)
        np.multiply(v, p.b, out=work)
        relax += work
        self.incr *= self.dt
        s += self.incr
        noise *= self.noise_scale
        s[:noise.shape[0]] += noise


def _finite_sums(s: np.ndarray, t: float, dt: float, p: ModelParams) -> np.ndarray:
    """Row sums of s after a step that ended at time t.

    Any non-finite entry raises BlowUpError naming t and the first offending
    neuron, which signals dt too large for the stiff coupling
    (vbar - v)/epsilon.  Finite sums imply finite entries, so the
    entry-wise test only runs when a sum is not finite.
    """
    sums = np.add.reduce(s, axis=1)
    if math.isfinite(sums[0]) and math.isfinite(sums[1]):
        return sums
    finite = np.isfinite(s).all(axis=0)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise BlowUpError(
            f"non-finite state at t={t:.6g}, neuron {bad} "
            f"(dt={dt:.3g}, epsilon={p.epsilon:.3g}; reduce dt)",
            t=t, index=bad)
    return sums


def em_step(state: EnsembleState, p: ModelParams, cfg: SimConfig,
            rng: np.random.Generator) -> EnsembleState:
    """One Euler-Maruyama step.

    v_i += drift(v_i, x_i, vbar)*dt + sigma*sqrt(2 dt)*xi_i
    x_i += (-a x_i + b v_i)*dt [+ sqrt(2 epsilon dt)*eta_i]

    vbar is reduced once from the pre-step state.  Any non-finite result
    raises BlowUpError naming the time and first offending neuron, which
    signals dt too large for the stiff coupling (vbar - v)/epsilon.  The
    update is the one simulate makes in place, here on a copy of state.
    """
    dt = cfg.dt if cfg.dt is not None else default_dt(p)
    s = np.stack((state.v, state.x))
    stepper = _Stepper(p, dt, state.n)
    for draws in stepper.noise:
        draws[...] = rng.standard_normal(state.n)
    with np.errstate(over="ignore", invalid="ignore"):
        stepper.step(s, coupling_mean(state.v))
        t_new = state.t + dt
        _finite_sums(s, t_new, dt, p)
    return EnsembleState(t=t_new, v=s[0], x=s[1])


def simulate(cfg: SimConfig, p: ModelParams, init: InitCondition) -> TrajectoryRecord:
    """Integrate to t_end, recording statistics every record_stride steps
    (the initial and final states are always recorded).  The step is
    core.time_steps of t_end and cfg.dt (or default_dt).  The final ensemble
    is attached for warm restarts and sample-level diagnostics."""
    n_steps, dt = time_steps(cfg.t_end, cfg.dt if cfg.dt is not None else default_dt(p))
    stride = cfg.record_stride
    stream = NoiseStream(cfg.seed)
    state = sample_initial(init, cfg.n, p, stream.rekeyed(0))

    s = np.stack((state.v, state.x))
    n = s.shape[1]
    stepper = _Stepper(p, dt, n)
    ordered = np.empty_like(s)
    plan = _quantile_plan(n, cfg.quantile_fractions)

    n_records = 1 + n_steps // stride + (n_steps % stride != 0)
    times = np.zeros(n_records)
    stats = np.empty((6, n_records))
    quants = np.empty((2, n_records, len(cfg.quantile_fractions)))

    def record(row: int, sums: np.ndarray) -> None:
        stats[:, row] = np.concatenate(_moments(s, sums, ordered))
        np.copyto(ordered, s)
        ordered.sort(axis=1)
        quants[:, row] = _interpolate(ordered, plan)

    sums = np.add.reduce(s, axis=1)
    record(0, sums)
    row = 1
    t = 0.0
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(1, n_steps + 1):
                stream.rekeyed(k).standard_normal(out=stepper.noise)
                stepper.step(s, sums[0] / n)
                t = cfg.t_end if k == n_steps else k * dt
                sums = _finite_sums(s, t, dt, p)
                if k % stride == 0 or k == n_steps:
                    times[row] = t
                    record(row, sums)
                    row += 1
    except BlowUpError as err:
        raise BlowUpError(
            f"{err} [n={cfg.n}, seed={cfg.seed}, t_end={cfg.t_end}]",
            t=err.t, index=err.index) from None

    return TrajectoryRecord(
        t=times, mean_v=stats[0], mean_x=stats[1], var_v=stats[2],
        var_x=stats[3], m4_v=stats[4], m4_x=stats[5],
        quantiles_v=quants[0], quantiles_x=quants[1],
        quantile_fractions=tuple(cfg.quantile_fractions), dt=dt,
        final_state=EnsembleState(t=t, v=s[0], x=s[1]))
