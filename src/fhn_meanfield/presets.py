"""Scenario presets fig1..fig5.

Every preset pins all of its fields; horizons, time steps, and initial
clusters are choices made here and echoed in run summaries.  fig2 and fig3
carry the fig1 parameter set except where stated.  Presets whose natural
starting point is an equilibrium (fig4, fig5) are seeded at the limit
system's only equilibrium, and fail to load if it has several.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import GAUSSIAN_CLUSTER, POINT_CLUSTER, InitCondition, ModelParams
from .limit_ode import equilibria
from .particle import SimConfig, default_dt


@dataclass(frozen=True)
class PresetRun:
    label: str
    params: ModelParams
    sim: SimConfig
    init: InitCondition
    profile_diagnostics: bool = False


@dataclass(frozen=True)
class Preset:
    name: str
    notes: tuple[str, ...]
    runs: tuple[PresetRun, ...]


def _stride_for(dt: float, spacing: float = 0.05) -> int:
    """Steps between records that are spacing apart in time."""
    return max(1, int(round(spacing / dt)))


def _fig1() -> Preset:
    runs = []
    for eps_inv in (25, 100, 225):
        eps = 1.0 / eps_inv
        dt = eps / 10.0
        p = ModelParams(a=0.3, b=0.1, lam=4.0, i_ext=0.0, sigma=1.0,
                        epsilon=eps, adaptation_noise=True)
        runs.append(PresetRun(
            label=f"epsinv{eps_inv}",
            params=p,
            sim=SimConfig(n=5000, t_end=20.0, dt=dt, seed=1225 + eps_inv,
                          record_stride=_stride_for(dt)),
            init=InitCondition(mean_v=-1.0, mean_x=0.0, concentration=0.3,
                               kind=GAUSSIAN_CLUSTER),
            profile_diagnostics=True))
    return Preset(
        name="fig1",
        notes=(
            "concentration of the ensemble law as coupling grows: "
            "eps^-1 in {25, 100, 225} at n=5000",
            "dt=eps/10 and t_end=20 are choices of this preset",
            "initial cluster at (v, x) = (-1, 0); the flow settles at the "
            "rest equilibrium near the origin",
        ),
        runs=tuple(runs))


def _fig2(a: float = 0.3, i_ext: float = 0.0, name: str = "fig2",
          where: str = "on either side of the separatrix between the two "
                       "stable equilibria") -> Preset:
    runs = []
    for eps_inv in (10, 50, 100):
        for v0 in (1.2, 1.35):
            eps = 1.0 / eps_inv
            p = ModelParams(a=a, b=0.1, lam=4.0, i_ext=i_ext, sigma=1.0,
                            epsilon=eps, adaptation_noise=True)
            runs.append(PresetRun(
                label=f"epsinv{eps_inv}_v{v0:g}",
                params=p,
                sim=SimConfig(n=500, t_end=20.0, seed=2500 + eps_inv,
                              record_stride=_stride_for(default_dt(p))),
                init=InitCondition(mean_v=v0, mean_x=1.0,
                                   concentration=min(a, 0.3),
                                   kind=GAUSSIAN_CLUSTER)))
    return Preset(
        name=name,
        notes=(
            "two clusters started at (1.2, 1) and (1.35, 1), " + where,
            "lambda=4, b=0.1 and sigma=1 as in fig1; i_ext=%g" % i_ext,
            "t_end=20, the default dt and records 0.05 apart are choices of "
            "this preset",
        ),
        runs=tuple(runs))


def _fig3() -> Preset:
    return _fig2(a=0.03, i_ext=4.0, name="fig3", where=(
        "as in fig2; at a=0.03 the limit system's one equilibrium is a "
        "stable node at (v, x) = (3, 10), eigenvalues -0.883 and -0.147, "
        "and both relax toward it"))


def _fig4() -> Preset:
    runs = []
    for i0 in (5.0, 5.4, 5.7):
        p = ModelParams(a=0.01, b=0.1, lam=4.0, i_ext=i0, sigma=1.0,
                        epsilon=0.01, adaptation_noise=True)
        (v0, x0), = equilibria(p)  # the only one
        runs.append(PresetRun(
            label=f"i{i0:g}",
            params=p,
            sim=SimConfig(n=500, t_end=200.0, seed=int(4000 + 10 * i0),
                          record_stride=_stride_for(default_dt(p), 0.1)),
            init=InitCondition(mean_v=v0, mean_x=x0, kind=POINT_CLUSTER)))
    return Preset(
        name="fig4",
        notes=(
            "input sweep across the Hopf threshold (near i_ext 5.54) at "
            "lambda=4, a=0.01, b=0.1, eps=0.01, n=500",
            "each run starts as a point cluster at the unique equilibrium; "
            "relaxation spikes below threshold are noise induced",
            "t_end=200, the default dt and records 0.1 apart are choices of "
            "this preset",
        ),
        runs=tuple(runs))


def _fig5() -> Preset:
    runs = []
    for i0 in (5.534, 5.5349):
        p = ModelParams(a=0.005, b=0.05, lam=4.0, i_ext=i0, sigma=0.5,
                        epsilon=1.0 / 220.0, adaptation_noise=True)
        (v0, x0), = equilibria(p)  # the only one
        runs.append(PresetRun(
            label=f"i{i0:g}",
            params=p,
            sim=SimConfig(n=5000, t_end=60.0, seed=5534,
                          record_stride=_stride_for(default_dt(p))),
            init=InitCondition(mean_v=v0, mean_x=x0, kind=POINT_CLUSTER)))
    return Preset(
        name="fig5",
        notes=(
            "transition from small oscillations to relaxation spikes: "
            "n=5000, eps^-1=220, sigma=0.5, lambda=4, a=0.005, b=0.05, "
            "i_ext in {5.534, 5.5349}",
            "each run starts as a point cluster at the unique equilibrium",
            "t_end=60, the default dt and records 0.05 apart are choices of "
            "this preset; alternations of small and large oscillations vary "
            "between realizations",
        ),
        runs=tuple(runs))


_BUILDERS = {"fig1": _fig1, "fig2": _fig2, "fig3": _fig3, "fig4": _fig4, "fig5": _fig5}


def available() -> tuple[str, ...]:
    return tuple(_BUILDERS)


def load(name: str) -> Preset:
    if name not in _BUILDERS:
        raise KeyError(f"unknown preset {name!r}; available: {', '.join(available())}")
    return _BUILDERS[name]()
