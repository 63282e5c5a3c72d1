"""Experiment runner.

Subcommands: simulate-network, simulate-pde, simulate-ode, classify,
detect-cycle, compare, scenario.  Runs are configured by preset, by an INI
config file, and by flags, in that order of precedence (later wins).  Every
run echoes its fully resolved configuration and the toolkit version into its
JSON summary.  Exit codes: 0 success, 2 configuration error, 3 numerical
blow-up or scheme failure, 4 inconclusive cycle detection.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from . import presets as presets_mod
from .bifurcation import CycleDetectionError, classify, detect_limit_cycle, report_to_dict
from .core import BlowUpError, InitCondition, ModelParams
from .diagnostics import (compare as diag_compare, log_density_profile,
                          theoretical_profile, write_comparison_csv,
                          write_profile_csv)
from .fokker_planck import (CflError, Grid, SchemeError, gaussian_field,
                            save_snapshot, solve, write_series_csv)
from .limit_ode import LimitState, rk4_integrate
from .particle import SimConfig, TrajectoryRecord, default_dt, simulate
from .presets import PresetRun

ENV_OUT_DIR = "FHN_MEANFIELD_OUT"

PDE_EPSILON_WARN = 0.02  # below this the stiff coupling dominates the CFL budget


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# configuration schema and resolution

def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    table = {"true": True, "on": True, "yes": True, "1": True,
             "false": False, "off": False, "no": False, "0": False}
    if lowered not in table:
        raise ConfigError(f"expected a boolean, got {text!r}")
    return table[lowered]


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.replace(",", " ").split())
    except ValueError as err:
        raise ConfigError(f"expected a list of numbers, got {text!r}") from err


_SCHEMA = {
    "model": {"kind": str},
    "params": {"a": float, "b": float, "lambda": float, "i_ext": float,
               "sigma": float, "epsilon": float, "adaptation_noise": _parse_bool,
               "truncation": float},
    "sim": {"n": int, "dt": float, "t_end": float, "seed": int,
            "record_stride": int, "quantiles": _parse_floats},
    "grid": {"v_min": float, "v_max": float, "x_min": float, "x_max": float,
             "nv": int, "nx": int, "snapshot_stride": int},
    "init": {"kind": str, "mean_v": float, "mean_x": float,
             "concentration": float, "offset": float},
    "output": {"directory": str, "label": str},
}

_DEFAULTS = {
    "model": {"kind": "network"},
    "params": {"a": 0.3, "b": 0.1, "lambda": 4.0, "i_ext": 0.0, "sigma": 1.0,
               "epsilon": 0.01, "adaptation_noise": True, "truncation": None},
    "sim": {"n": 1000, "dt": None, "t_end": 10.0, "seed": 0,
            "record_stride": 10, "quantiles": (0.10, 0.25, 0.75, 0.90)},
    "grid": {"v_min": None, "v_max": None, "x_min": None, "x_max": None,
             "nv": 128, "nx": 64, "snapshot_stride": None},
    "init": {"kind": "gaussian", "mean_v": 0.0, "mean_x": 0.0,
             "concentration": 0.3, "offset": 0.1},
    "output": {"directory": None, "label": "run"},
}


def load_config_file(path: str) -> dict:
    """Parse the INI config; any unknown section or key is an error."""
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from err
    except configparser.Error as err:
        raise ConfigError(f"malformed config file {path}: {err}") from err

    settings: dict = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
        coerce = None
        for key, raw in parser.items(section):
            coerce = _SCHEMA[section][key]
            try:
                settings.setdefault(section, {})[key] = coerce(raw)
            except ConfigError:
                raise
            except Exception as err:
                raise ConfigError(
                    f"bad value for {section}.{key}: {raw!r} ({err})") from err
    return settings


def _preset_settings(run: PresetRun) -> dict:
    p, sim, init = run.params, run.sim, run.init
    return {
        "params": {"a": p.a, "b": p.b, "lambda": p.lam, "i_ext": p.i_ext,
                   "sigma": p.sigma, "epsilon": p.epsilon,
                   "adaptation_noise": p.adaptation_noise,
                   "truncation": p.truncation},
        "sim": {"n": sim.n, "dt": sim.dt, "t_end": sim.t_end, "seed": sim.seed,
                "record_stride": sim.record_stride,
                "quantiles": sim.quantile_fractions},
        "init": {"kind": init.kind, "mean_v": init.mean_v, "mean_x": init.mean_x,
                 "concentration": init.concentration, "offset": init.offset},
        "output": {"label": run.label},
    }


def _merge(base: dict, extra: dict) -> dict:
    out = {sec: dict(vals) for sec, vals in base.items()}
    for sec, vals in extra.items():
        out.setdefault(sec, {}).update(vals)
    return out


@dataclass
class ExperimentConfig:
    model: str
    params: ModelParams
    sim: SimConfig
    grid: Grid | None
    init: InitCondition
    out_dir: Path
    label: str
    preset: str | None
    notes: tuple[str, ...]
    profile_diagnostics: bool = False
    seeds: int = 1
    snapshot_stride: int | None = None  # density solver: steps between field snapshots

    def to_dict(self) -> dict:
        p, s, i = self.params, self.sim, self.init
        d = {
            "model": self.model,
            "params": {"a": p.a, "b": p.b, "lambda": p.lam, "i_ext": p.i_ext,
                       "sigma": p.sigma, "epsilon": p.epsilon,
                       "adaptation_noise": p.adaptation_noise,
                       "truncation": p.truncation},
            "sim": {"n": s.n, "dt": s.dt if s.dt is not None else default_dt(p),
                    "t_end": s.t_end, "seed": s.seed,
                    "record_stride": s.record_stride,
                    "quantiles": list(s.quantile_fractions)},
            "init": {"kind": i.kind, "mean_v": i.mean_v, "mean_x": i.mean_x,
                     "concentration": i.concentration, "offset": i.offset},
            "output": {"directory": str(self.out_dir), "label": self.label},
            "preset": self.preset,
        }
        if self.grid is not None:
            g = self.grid
            d["grid"] = {"v_min": g.v_min, "v_max": g.v_max, "x_min": g.x_min,
                         "x_max": g.x_max, "nv": g.nv, "nx": g.nx,
                         "snapshot_stride": self.snapshot_stride}
        return d


# flag destination -> (section, key)
_FLAG_MAP = {
    "a": ("params", "a"), "b": ("params", "b"), "lam": ("params", "lambda"),
    "i_ext": ("params", "i_ext"), "sigma": ("params", "sigma"),
    "epsilon": ("params", "epsilon"),
    "adaptation_noise": ("params", "adaptation_noise"),
    "truncation": ("params", "truncation"),
    "n": ("sim", "n"), "dt": ("sim", "dt"), "t_end": ("sim", "t_end"),
    "seed": ("sim", "seed"), "record_stride": ("sim", "record_stride"),
    "quantiles": ("sim", "quantiles"),
    "v_min": ("grid", "v_min"), "v_max": ("grid", "v_max"),
    "x_min": ("grid", "x_min"), "x_max": ("grid", "x_max"),
    "nv": ("grid", "nv"), "nx": ("grid", "nx"),
    "snapshot_stride": ("grid", "snapshot_stride"),
    "init_kind": ("init", "kind"), "init_mean_v": ("init", "mean_v"),
    "init_mean_x": ("init", "mean_x"),
    "init_concentration": ("init", "concentration"),
    "init_offset": ("init", "offset"),
    "out": ("output", "directory"), "label": ("output", "label"),
}


def _flag_overrides(args: argparse.Namespace) -> dict:
    settings: dict = {}
    for dest, (section, key) in _FLAG_MAP.items():
        value = getattr(args, dest, None)
        if value is None:
            continue
        if dest == "adaptation_noise":
            value = _parse_bool(value)
        if dest == "quantiles":
            value = _parse_floats(value)
        settings.setdefault(section, {})[key] = value
    return settings


def _select_preset(spec: str) -> tuple[str, PresetRun, tuple[str, ...]]:
    name, _, label = spec.partition(":")
    try:
        preset = presets_mod.load(name)
    except KeyError as err:
        raise ConfigError(str(err)) from err
    if not label:
        if len(preset.runs) > 1:
            labels = ", ".join(r.label for r in preset.runs)
            raise ConfigError(
                f"preset {name} has several runs; pick one with "
                f"--preset {name}:<label> (labels: {labels}) or use the "
                f"scenario command")
        return name, preset.runs[0], preset.notes
    for run in preset.runs:
        if run.label == label:
            return name, run, preset.notes
    raise ConfigError(f"preset {name} has no run labeled {label!r}")


def resolve_config(args: argparse.Namespace, model: str) -> ExperimentConfig:
    settings = {sec: dict(vals) for sec, vals in _DEFAULTS.items()}
    preset_name = None
    notes: tuple[str, ...] = ()
    profile_diag = False
    if getattr(args, "preset", None):
        preset_name, run, notes = _select_preset(args.preset)
        settings = _merge(settings, _preset_settings(run))
        profile_diag = run.profile_diagnostics
    if getattr(args, "config", None):
        settings = _merge(settings, load_config_file(args.config))
    settings = _merge(settings, _flag_overrides(args))

    try:
        pr = settings["params"]
        params = ModelParams(a=pr["a"], b=pr["b"], lam=pr["lambda"],
                             i_ext=pr["i_ext"], sigma=pr["sigma"],
                             epsilon=pr["epsilon"],
                             adaptation_noise=pr["adaptation_noise"],
                             truncation=pr["truncation"])
        sm = settings["sim"]
        sim = SimConfig(n=sm["n"], t_end=sm["t_end"], dt=sm["dt"],
                        seed=sm["seed"], record_stride=sm["record_stride"],
                        quantile_fractions=tuple(sm["quantiles"]))
        ic = settings["init"]
        init = InitCondition(mean_v=ic["mean_v"], mean_x=ic["mean_x"],
                             concentration=ic["concentration"],
                             offset=ic["offset"], kind=ic["kind"])
        grid = None
        snapshot_stride = None
        if model in ("pde", "compare"):
            gr = settings["grid"]
            snapshot_stride = gr["snapshot_stride"]
            if snapshot_stride is not None and snapshot_stride < 1:
                raise ValueError(f"snapshot_stride must be >= 1, got {snapshot_stride}")
            span = 3.0 * params.lam
            grid = Grid(
                v_min=gr["v_min"] if gr["v_min"] is not None else -span,
                v_max=gr["v_max"] if gr["v_max"] is not None else span,
                x_min=gr["x_min"] if gr["x_min"] is not None else -span,
                x_max=gr["x_max"] if gr["x_max"] is not None else span,
                nv=gr["nv"], nx=gr["nx"])
    except (ValueError, KeyError) as err:
        raise ConfigError(str(err)) from err

    out_dir = settings["output"]["directory"]
    if out_dir is None:
        out_dir = os.environ.get(ENV_OUT_DIR, "out")
    return ExperimentConfig(
        model=model, params=params, sim=sim, grid=grid, init=init,
        out_dir=Path(out_dir), label=settings["output"]["label"],
        preset=preset_name, notes=notes, profile_diagnostics=profile_diag,
        seeds=getattr(args, "seeds", 1) or 1, snapshot_stride=snapshot_stride)


# ---------------------------------------------------------------------------
# output helpers

def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_timeseries_csv(path, rec: TrajectoryRecord) -> None:
    qcols = [f"q{round(q * 100):d}" for q in rec.quantile_fractions]
    header = ("t,mean_v,mean_x,var_v,var_x,m4_v,m4_x,"
              + ",".join(f"{c}_v" for c in qcols) + ","
              + ",".join(f"{c}_x" for c in qcols))
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for k in range(len(rec)):
            row = [rec.t[k], rec.mean_v[k], rec.mean_x[k], rec.var_v[k],
                   rec.var_x[k], rec.m4_v[k], rec.m4_x[k],
                   *rec.quantiles_v[k], *rec.quantiles_x[k]]
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _write_summary(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _base_summary(cfg: ExperimentConfig, runtime: float) -> dict:
    return {
        "version": __version__,
        "model": cfg.model,
        "config": cfg.to_dict(),
        "seed": cfg.sim.seed,
        "runtime_sec": runtime,
        "notes": list(cfg.notes),
    }


def reference_trajectory(rec: TrajectoryRecord, cfg: ExperimentConfig):
    """Limit system integrated from the empirical initial means with the
    particle step and stride, so the recorded times line up exactly."""
    dt = cfg.sim.dt if cfg.sim.dt is not None else default_dt(cfg.params)
    s0 = LimitState(t=0.0, alpha=float(rec.mean_v[0]), beta=float(rec.mean_x[0]))
    return rk4_integrate(s0, cfg.params, dt, cfg.sim.t_end,
                         record_stride=cfg.sim.record_stride)


# ---------------------------------------------------------------------------
# pipelines

def run_network(cfg: ExperimentConfig) -> dict:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    rec = simulate(cfg.sim, cfg.params, cfg.init)
    ref = reference_trajectory(rec, cfg)
    comps = diag_compare(rec, ref, cfg.params)

    write_timeseries_csv(cfg.out_dir / f"{cfg.label}_timeseries.csv", rec)
    write_comparison_csv(cfg.out_dir / f"{cfg.label}_vs_limit.csv", comps)

    report = classify(cfg.params)
    mean_err = np.abs(rec.mean_v - ref.alpha)
    late = rec.t >= 0.75 * cfg.sim.t_end
    results = {
        "final_mean_v": float(rec.mean_v[-1]),
        "final_mean_x": float(rec.mean_x[-1]),
        "sup_mean_v_error_vs_limit": float(mean_err.max()),
        "final_mean_v_error_vs_limit": float(mean_err[-1]),
        "late_var_ratio_v": float(np.mean(rec.var_v[late]) / cfg.params.epsilon),
        "late_var_ratio_x": float(np.mean(rec.var_x[late])
                                  / (cfg.params.epsilon / cfg.params.a)),
        "nearest_equilibrium_distance": float(min(
            abs(rec.mean_v[-1] - e.v) for e in report.equilibria)),
    }

    if (cfg.profile_diagnostics and rec.final_state is not None
            and rec.final_state.n >= 1000):
        final = rec.final_state
        s_end = LimitState(t=float(ref.t[-1]), alpha=float(ref.alpha[-1]),
                           beta=float(ref.beta[-1]))
        psi_v, psi_x = theoretical_profile(s_end, cfg.params)
        prof_v = log_density_profile(final.v, cfg.params.epsilon)
        prof_x = log_density_profile(final.x, cfg.params.epsilon,
                                     curvature=cfg.params.a)
        write_profile_csv(cfg.out_dir / f"{cfg.label}_profile_v.csv", prof_v, psi_v)
        write_profile_csv(cfg.out_dir / f"{cfg.label}_profile_x.csv", prof_x, psi_x)
        final_comp = diag_compare([final], ref, cfg.params)[0]
        results["final_profile_sup_error_v"] = final_comp.sup_error_v
        results["final_profile_sup_error_x"] = final_comp.sup_error_x

    summary = _base_summary(cfg, time.perf_counter() - t0)
    summary["classification"] = report_to_dict(report)
    summary["results"] = results
    _write_summary(cfg.out_dir / f"{cfg.label}_summary.json", summary)
    return summary


def run_pde(cfg: ExperimentConfig) -> dict:
    if cfg.init.kind != "gaussian":
        raise ConfigError("the density solver needs a gaussian initial cluster")
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    field0 = gaussian_field(cfg.grid, cfg.init, cfg.params)
    sol = solve(field0, cfg.params, cfg.sim.t_end, dt=cfg.sim.dt,
                record_stride=cfg.sim.record_stride,
                snapshot_stride=cfg.snapshot_stride)
    write_series_csv(cfg.out_dir / f"{cfg.label}_pde.csv", sol)
    for k, snap in enumerate(sol.snapshots):
        save_snapshot(cfg.out_dir / f"{cfg.label}_field_{k:04d}.bin",
                      snap, cfg.params)

    report = classify(cfg.params)
    # without [sim] dt the solver takes its own CFL-bounded step; echo the step taken
    cfg = replace(cfg, sim=replace(cfg.sim, dt=sol.dt))
    summary = _base_summary(cfg, time.perf_counter() - t0)
    summary["classification"] = report_to_dict(report)
    summary["results"] = {
        "dt": sol.dt,
        "final_jg": float(sol.jg[-1]),
        "mass_drift": float(np.abs(sol.mass - sol.mass[0]).max()),
        "nearest_equilibrium_distance": float(min(
            abs(sol.jg[-1] - e.v) for e in report.equilibria)),
    }
    _write_summary(cfg.out_dir / f"{cfg.label}_summary.json", summary)
    return summary


def run_ode(cfg: ExperimentConfig) -> dict:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    dt = cfg.sim.dt if cfg.sim.dt is not None else 0.01
    cfg = replace(cfg, sim=replace(cfg.sim, dt=dt))
    s0 = LimitState(t=0.0, alpha=cfg.init.mean_v, beta=cfg.init.mean_x)
    traj = rk4_integrate(s0, cfg.params, dt, cfg.sim.t_end,
                         record_stride=cfg.sim.record_stride)
    with open(cfg.out_dir / f"{cfg.label}_ode.csv", "w", newline="") as fh:
        fh.write("t,alpha,beta\n")
        for t, al, be in zip(traj.t, traj.alpha, traj.beta):
            fh.write(f"{_fmt(t)},{_fmt(al)},{_fmt(be)}\n")

    report = classify(cfg.params)
    summary = _base_summary(cfg, time.perf_counter() - t0)
    summary["classification"] = report_to_dict(report)
    summary["results"] = {
        "final_alpha": float(traj.alpha[-1]),
        "final_beta": float(traj.beta[-1]),
    }
    _write_summary(cfg.out_dir / f"{cfg.label}_summary.json", summary)
    return summary


def run_compare(cfg: ExperimentConfig) -> dict:
    """Drive the network, the density solver, and the limit system on shared
    parameters and report sup-norm discrepancies of their mean voltages."""
    if cfg.params.epsilon < PDE_EPSILON_WARN:
        print(f"warning: epsilon={cfg.params.epsilon:g} below "
              f"{PDE_EPSILON_WARN}; the grid solver step budget explodes",
              file=sys.stderr)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()

    recs = []
    for k in range(cfg.seeds):
        sim_k = SimConfig(n=cfg.sim.n, t_end=cfg.sim.t_end, dt=cfg.sim.dt,
                          seed=cfg.sim.seed + k,
                          record_stride=cfg.sim.record_stride,
                          quantile_fractions=cfg.sim.quantile_fractions)
        recs.append(simulate(sim_k, cfg.params, cfg.init))
    mean_v = np.mean([r.mean_v for r in recs], axis=0)
    mean_x0 = float(np.mean([r.mean_x[0] for r in recs]))
    times = recs[0].t

    ref = reference_trajectory(recs[0], cfg)
    alpha = np.interp(times, ref.t, ref.alpha)

    field0 = gaussian_field(cfg.grid, cfg.init, cfg.params)
    sol = solve(field0, cfg.params, cfg.sim.t_end, record_stride=1)
    jg = np.interp(times, sol.t, sol.jg)

    with open(cfg.out_dir / f"{cfg.label}_compare.csv", "w", newline="") as fh:
        fh.write("t,mean_v_network,jg_pde,alpha_limit\n")
        for row in zip(times, mean_v, jg, alpha):
            fh.write(",".join(_fmt(x) for x in row) + "\n")

    summary = _base_summary(cfg, time.perf_counter() - t0)
    summary["results"] = {
        "seeds_averaged": cfg.seeds,
        "initial_mean_x": mean_x0,
        "sup_network_vs_pde": float(np.abs(mean_v - jg).max()),
        "sup_network_vs_limit": float(np.abs(mean_v - alpha).max()),
        "sup_pde_vs_limit": float(np.abs(jg - alpha).max()),
        "pde_mass_drift": float(np.abs(sol.mass - sol.mass[0]).max()),
    }
    summary["classification"] = report_to_dict(classify(cfg.params))
    _write_summary(cfg.out_dir / f"{cfg.label}_summary.json", summary)
    return summary


# ---------------------------------------------------------------------------
# subcommand entry points

def _cmd_simulate_network(args) -> int:
    run_network(resolve_config(args, "network"))
    return 0


def _cmd_simulate_pde(args) -> int:
    run_pde(resolve_config(args, "pde"))
    return 0


def _cmd_simulate_ode(args) -> int:
    run_ode(resolve_config(args, "ode"))
    return 0


def _cmd_compare(args) -> int:
    run_compare(resolve_config(args, "compare"))
    return 0


def _cmd_classify(args) -> int:
    cfg = resolve_config(args, "ode")
    report = classify(cfg.params)
    payload = {"version": __version__, "config": cfg.to_dict()["params"]}
    payload.update(report_to_dict(report))
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if args.json_out:
        Path(args.json_out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.json_out).write_text(text + "\n")
    return 0


def _cmd_detect_cycle(args) -> int:
    cfg = resolve_config(args, "ode")
    report = classify(cfg.params)
    if args.init_mean_v is not None or args.init_mean_x is not None:
        s0 = LimitState(t=0.0, alpha=cfg.init.mean_v, beta=cfg.init.mean_x)
    else:
        e = report.equilibria[0]
        s0 = LimitState(t=0.0, alpha=e.v + 0.5, beta=e.x)
    cycle = detect_limit_cycle(cfg.params, s0, max_time=args.max_time)
    payload = {"version": __version__, "config": cfg.to_dict()["params"]}
    payload.update(report_to_dict(report))
    payload["cycle"] = None if cycle is None else {
        "period": cycle.period, "v_min": cycle.v_min, "v_max": cycle.v_max}
    payload["start"] = {"alpha": s0.alpha, "beta": s0.beta}
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_scenario(args) -> int:
    preset = presets_mod.load(args.name)
    out_root = args.out or os.environ.get(ENV_OUT_DIR, "out")
    out_dir = Path(out_root) / preset.name
    statuses = []
    for run in preset.runs:
        ns = argparse.Namespace(preset=f"{preset.name}:{run.label}",
                                config=None, out=str(out_dir), seeds=1)
        cfg = resolve_config(ns, "network")
        summary = run_network(cfg)
        statuses.append({"label": run.label,
                         "regime": summary["classification"]["regime"],
                         "results": summary["results"]})
    _write_summary(out_dir / f"{preset.name}_scenario.json", {
        "version": __version__,
        "preset": preset.name,
        "notes": list(preset.notes),
        "runs": statuses,
    })
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_common_flags(sp, *, grid: bool = False, init: bool = True):
    sp.add_argument("--config", help="INI config file")
    sp.add_argument("--preset", help="preset name, or name:label for one run")
    sp.add_argument("--out", help=f"output directory (default ${ENV_OUT_DIR} or ./out)")
    sp.add_argument("--label", help="output file prefix")
    g = sp.add_argument_group("parameters")
    g.add_argument("--a", type=float)
    g.add_argument("--b", type=float)
    g.add_argument("--lambda", "--lam", dest="lam", type=float)
    g.add_argument("--i-ext", dest="i_ext", type=float)
    g.add_argument("--sigma", type=float)
    g.add_argument("--epsilon", type=float)
    g.add_argument("--adaptation-noise", dest="adaptation_noise",
                   choices=["on", "off"])
    g.add_argument("--truncation", type=float)
    s = sp.add_argument_group("simulation")
    s.add_argument("--n", type=int)
    s.add_argument("--dt", type=float)
    s.add_argument("--t-end", dest="t_end", type=float)
    s.add_argument("--seed", type=int)
    s.add_argument("--record-stride", dest="record_stride", type=int)
    s.add_argument("--quantiles", help="comma-separated fractions in [0,1]")
    if grid:
        gg = sp.add_argument_group("grid")
        gg.add_argument("--v-min", dest="v_min", type=float)
        gg.add_argument("--v-max", dest="v_max", type=float)
        gg.add_argument("--x-min", dest="x_min", type=float)
        gg.add_argument("--x-max", dest="x_max", type=float)
        gg.add_argument("--nv", type=int)
        gg.add_argument("--nx", type=int)
        gg.add_argument("--snapshot-stride", dest="snapshot_stride", type=int)
    if init:
        gi = sp.add_argument_group("initial cluster")
        gi.add_argument("--init-kind", dest="init_kind",
                        choices=["gaussian", "point"])
        gi.add_argument("--init-mean-v", dest="init_mean_v", type=float)
        gi.add_argument("--init-mean-x", dest="init_mean_x", type=float)
        gi.add_argument("--init-concentration", dest="init_concentration",
                        type=float)
        gi.add_argument("--init-offset", dest="init_offset", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fhn-meanfield",
        description="Strongly coupled FitzHugh-Nagumo toolkit: particle "
                    "ensembles, density solver, limit system, bifurcations.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate-network", help="integrate the n-neuron ensemble")
    _add_common_flags(sp)
    sp.set_defaults(func=_cmd_simulate_network)

    sp = sub.add_parser("simulate-pde", help="integrate the density equation")
    _add_common_flags(sp, grid=True)
    sp.set_defaults(func=_cmd_simulate_pde)

    sp = sub.add_parser("simulate-ode", help="integrate the limit system")
    _add_common_flags(sp)
    sp.set_defaults(func=_cmd_simulate_ode)

    sp = sub.add_parser("classify", help="closed-form regime classification")
    _add_common_flags(sp, init=False)
    sp.add_argument("--json-out", help="also write the JSON report here")
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("detect-cycle", help="Poincare-section cycle detection")
    _add_common_flags(sp)
    sp.add_argument("--max-time", dest="max_time", type=float, default=2000.0)
    sp.set_defaults(func=_cmd_detect_cycle)

    sp = sub.add_parser("compare", help="network vs density solver vs limit system")
    _add_common_flags(sp, grid=True)
    sp.add_argument("--seeds", type=int, default=1,
                    help="average the network over this many seeds")
    sp.set_defaults(func=_cmd_compare)

    sp = sub.add_parser("scenario", help="run a full figure preset")
    sp.add_argument("name", choices=presets_mod.available())
    sp.add_argument("--out", help="output root directory")
    sp.set_defaults(func=_cmd_scenario)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except (BlowUpError, CflError, SchemeError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    except CycleDetectionError as err:
        print(f"cycle detection inconclusive: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
