"""Shared parameter types, the cubic drift and its truncation, and
initial-condition samplers.

Sign convention used throughout the toolkit: the deterministic voltage drift is

    -v(v - lam)(v - 1) + i_ext - x + (vbar - v)/epsilon

i.e. the input current enters with a plus sign in the drift.  The recovery
variable relaxes as dx = (-a*x + b*v) dt.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import Callable, get_type_hints

import numpy as np

GAUSSIAN_CLUSTER = "gaussian"
POINT_CLUSTER = "point"
CUSTOM_SAMPLER = "custom"

INIT_KINDS = (GAUSSIAN_CLUSTER, POINT_CLUSTER, CUSTOM_SAMPLER)


class BlowUpError(RuntimeError):
    """A network or limit-system trajectory became non-finite: the time step
    is too large for a drift integrated explicitly (the network's non-stiff
    drift, the limit system's vector field)."""

    def __init__(self, message: str, t: float = float("nan"), index: int = -1):
        super().__init__(message)
        self.t = t
        self.index = index


def require_finite(obj) -> None:
    """The field rule of the parameter dataclasses: a field annotated float
    holds a finite real number (a Python or numpy float or integer, not a
    bool), one annotated int an integer that is not a bool, one annotated
    bool a Python or numpy bool, and None only where its default is None.
    Raises TypeError or ValueError naming the field; values are kept."""
    for name, real, accepted, refused, expected, optional in _typed_fields(type(obj)):
        value = getattr(obj, name)
        if real and isinstance(value, (float, np.floating)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        elif not (isinstance(value, accepted) and not isinstance(value, refused)
                  or value is None and optional):
            raise TypeError(f"{name} must be {expected}, got {value!r}")


@functools.cache
def _typed_fields(cls) -> tuple[tuple[str, bool, tuple, tuple, str, bool], ...]:
    """(name, annotated float, the other types accepted, the types refused
    among them, what is expected, default None) of each field of cls
    annotated float or int (or None) or bool."""
    real = (True, (int, np.integer), bool, "a real number")
    integer = (False, (int, np.integer), bool, "an integer")
    rules = {float: real, float | None: real, int: integer, int | None: integer,
             bool: (False, (bool, np.bool_), (), "a bool")}
    hints = get_type_hints(cls)
    return tuple((f.name, *rules[hints[f.name]], f.default is None)
                 for f in fields(cls) if hints[f.name] in rules)


# Most steps a run may take: a billion steps of the smallest ensemble
# take hours, so a larger count is a mistake in (t_end, dt).
MAX_STEPS = 10 ** 9


def time_steps(t_end: float, dt: float) -> tuple[int, float]:
    """The number of steps and the step, a float, of a run over [0, t_end]
    whose step is at most dt.

    dt is kept bit for bit when it divides t_end to a relative 1e-9;
    otherwise the step is t_end/ceil(t_end/dt).  A run with t_end > 0 takes
    at least one step.  Step k ends at k*step, except the last, which ends
    at t_end exactly.  More than MAX_STEPS steps raise ValueError.
    """
    if not 0.0 <= t_end < math.inf:
        raise ValueError(f"t_end must be finite and >= 0, got {t_end}")
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    if t_end / dt > MAX_STEPS:
        raise ValueError(f"t_end={t_end:g} at dt={dt:g} takes more than "
                         f"{MAX_STEPS:.0e} steps")
    n = round(t_end / dt)
    if abs(n * dt - t_end) <= 1e-9 * t_end:
        return n, float(dt)
    n = max(1, math.ceil(t_end / dt))
    return n, float(t_end) / n


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of the coupled system.

    epsilon is the inverse coupling strength (small epsilon = strong
    electrical coupling).  sigma scales the voltage noise, sigma*sqrt(2) dW,
    so sigma=1 matches the unit-diffusion normalization of the density
    equation.  adaptation_noise switches the sqrt(2*epsilon) diffusion on
    the recovery variable.  truncation, when set, activates the
    tangent-line drift outside [-M, M].  The others are real numbers, kept
    as given (require_finite).
    """

    a: float = 0.3
    b: float = 0.1
    lam: float = 4.0
    i_ext: float = 0.0
    sigma: float = 1.0
    epsilon: float = 0.01
    adaptation_noise: bool = True
    truncation: float | None = None

    def __post_init__(self):
        require_finite(self)
        if not self.a > 0:
            raise ValueError(f"a must be > 0, got {self.a}")
        if self.b < 0:
            raise ValueError(f"b must be >= 0, got {self.b}")
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        if self.truncation is not None and not self.truncation > 0:
            raise ValueError(f"truncation level must be > 0, got {self.truncation}")


def cubic(v, p: ModelParams):
    """The cubic part of the drift, v(v - lam)(v - 1).  Roots at 0, 1, lam."""
    return v * (v - p.lam) * (v - 1.0)


def cubic_prime(v, p: ModelParams):
    """Derivative of the cubic: 3v^2 - 2(1 + lam)v + lam."""
    return 3.0 * v * v - 2.0 * (1.0 + p.lam) * v + p.lam


def nonlinearity(v, p: ModelParams):
    """N0(v): cubic(v), or with p.truncation = M its tangent-line
    continuation cubic(c) + cubic'(c)(v - c), c the clip of v to [-M, M],
    continuous with its first derivative.  A float or int v (numpy's float64
    included) gives a float with the bits of the array path, except that
    the array path turns a cubic(v) of -0.0 near v = 0 (v = -0.0, or a
    negative subnormal v at lam < 1) into +0.0; nan maps to nan."""
    M = p.truncation
    if M is None:
        return cubic(v, p)
    if isinstance(v, (float, int)):
        v = float(v)
        if -M <= v <= M:
            return cubic(v, p)
        c = M if v > M else -M
    else:
        v = np.asarray(v, dtype=float)
        c = np.clip(v, -M, M)
    return cubic(c, p) + cubic_prime(c, p) * (v - c)


def uncoupled_drift(v, x, p: ModelParams):
    """-N0(v) + i_ext - x: the voltage drift without coupling, shared by
    the network, the density equation and the limit system."""
    return -nonlinearity(v, p) + p.i_ext - x


def voltage_drift(v, x, vbar, p: ModelParams):
    """Deterministic voltage drift: -N0(v) + i_ext - x + (vbar - v)/epsilon,
    with N0 the (possibly truncated) cubic."""
    return uncoupled_drift(v, x, p) + (vbar - v) / p.epsilon


@dataclass
class EnsembleState:
    """Time-stamped voltage and adaptation arrays for n neurons."""

    t: float
    v: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        self.v = np.asarray(self.v, dtype=float)
        self.x = np.asarray(self.x, dtype=float)
        if self.v.shape != self.x.shape or self.v.ndim != 1 or self.v.size < 1:
            raise ValueError("v and x must be 1-d arrays of equal length >= 1")

    @property
    def n(self) -> int:
        return self.v.size


@dataclass(frozen=True)
class InitCondition:
    """Initial cluster for ensembles and density fields.

    The gaussian kind is the canonical concentrated initial law: a product
    Gaussian with variance epsilon/concentration per coordinate, centered at
    (mean_v, mean_x).  The point kind puts every neuron exactly at the
    center; custom delegates to ``sampler(n, rng) -> (v, x)``.
    """

    mean_v: float = 0.0
    mean_x: float = 0.0
    concentration: float = 0.3
    kind: str = GAUSSIAN_CLUSTER
    sampler: Callable | None = None

    def __post_init__(self):
        require_finite(self)
        if not self.concentration > 0:
            raise ValueError(f"concentration must be > 0, got {self.concentration}")
        if self.kind not in INIT_KINDS:
            raise ValueError(f"unknown init kind {self.kind!r}, expected one of {INIT_KINDS}")
        if self.kind == CUSTOM_SAMPLER and self.sampler is None:
            raise ValueError("custom init kind requires a sampler callable")
        if not (self.sampler is None or callable(self.sampler)):
            raise TypeError(f"sampler must be callable, got {self.sampler!r}")


def init_variance(cond: InitCondition, p: ModelParams) -> float:
    """Per-coordinate variance epsilon/concentration of the gaussian kind."""
    return p.epsilon / cond.concentration


def check_concentration(cond: InitCondition, p: ModelParams) -> None:
    """Reject a gaussian cluster with concentration above min(a, 1), wider
    than the hypothesis allows."""
    if cond.kind == GAUSSIAN_CLUSTER and cond.concentration > min(p.a, 1.0) + 1e-12:
        raise ValueError(
            f"concentration {cond.concentration} exceeds min(a, 1) = {min(p.a, 1.0)}")


def sample_initial(cond: InitCondition, n: int, p: ModelParams,
                   rng: np.random.Generator) -> EnsembleState:
    """Draw n i.i.d. initial states at t=0.

    For the gaussian kind the per-coordinate standard deviation is
    sqrt(epsilon/concentration), with the concentration checked by
    check_concentration; voltages are drawn before adaptation values so the
    draw order is fixed for a given stream.
    """
    if n < 1:
        raise ValueError(f"ensemble size must be >= 1, got {n}")
    check_concentration(cond, p)
    if cond.kind == GAUSSIAN_CLUSTER:
        std = np.sqrt(init_variance(cond, p))
        v = cond.mean_v + std * rng.standard_normal(n)
        x = cond.mean_x + std * rng.standard_normal(n)
    elif cond.kind == POINT_CLUSTER:
        v = np.full(n, cond.mean_v, dtype=float)
        x = np.full(n, cond.mean_x, dtype=float)
    else:
        v, x = cond.sampler(n, rng)
        v = np.asarray(v, dtype=float)
        x = np.asarray(x, dtype=float)
    return EnsembleState(t=0.0, v=v, x=x)
