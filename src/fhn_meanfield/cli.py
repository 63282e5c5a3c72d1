"""Experiment runner.

Subcommands: simulate-network, simulate-pde, simulate-ode, classify,
detect-cycle, compare, scenario.  Runs are configured by preset, by an INI
config file, and by flags, in that order of precedence (later wins).  Every
run echoes its fully resolved configuration and the toolkit version into its
JSON summary.  Exit codes: 0 success, 2 configuration error, 3 numerical
blow-up or scheme failure, 4 inconclusive cycle detection.

The library modules only compute; this module writes every file: the
tables through _write_csv, the density field snapshots as .npz and the
JSON summaries.  A run makes its output directory at its first write, once
it has results, so a run that fails leaves none.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from . import presets as presets_mod
from .bifurcation import (CYCLE_DT, CycleDetectionError, classify, detect_limit_cycle,
                          discriminant, report_to_dict)
from .core import (GAUSSIAN_CLUSTER, BlowUpError, InitCondition, ModelParams,
                   check_concentration, time_steps)
from .diagnostics import (MIN_SAMPLES, Profile, ProfileComparison, compare as diag_compare,
                          log_density_profile)
from .fokker_planck import (CflError, Grid, SchemeError, check_density_params,
                            gaussian_field, solve, stable_dt)
from .limit_ode import LimitState, rk4_integrate
from .particle import SimConfig, TrajectoryRecord, simulate
from .presets import PresetRun

ENV_OUT_DIR = "FHN_MEANFIELD_OUT"

PDE_EPSILON_WARN = 0.02  # below this the stiff coupling dominates the CFL budget
ODE_DT = 0.01  # default RK4 step of simulate-ode


class ConfigError(ValueError):
    """Bad configuration input.  A ValueError, so a flag parser that raises
    it makes argparse report a usage error."""


# ---------------------------------------------------------------------------
# configuration keys and resolution

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


# The model of each subcommand: network, pde, ode, classify, cycle
# (detect-cycle) and compare.  The particle network runs in network and
# compare, the density solver in pde and compare.
_ALL = ("network", "pde", "ode", "classify", "cycle", "compare")
_RUNS = ("network", "pde", "ode", "compare")
_ENSEMBLE = ("network", "compare")
_DENSITY = ("pde", "compare")

# Every configuration key, as (INI section, INI key, field, parser, models
# that read it).  The field is an attribute of the section's dataclass
# (ModelParams, SimConfig, Grid, InitCondition), or of ExperimentConfig for
# the keys it holds itself: [output] and [grid] snapshot_stride.  INI values
# and flag values go through the same parser.  A subcommand has a flag for,
# and its summary echoes, exactly the keys its model reads.
_KEYS = (
    ("params", "a", "a", float, _ALL),
    ("params", "b", "b", float, _ALL),
    ("params", "lambda", "lam", float, _ALL),
    ("params", "i_ext", "i_ext", float, _ALL),
    ("params", "sigma", "sigma", float, ("network",)),
    ("params", "epsilon", "epsilon", float, ("network", *_DENSITY)),
    ("params", "adaptation_noise", "adaptation_noise", _parse_bool, ("network",)),
    ("params", "truncation", "truncation", float, (*_RUNS, "cycle")),
    ("sim", "n", "n", int, _ENSEMBLE),
    ("sim", "dt", "dt", float, _RUNS),
    ("sim", "t_end", "t_end", float, _RUNS),
    ("sim", "seed", "seed", int, _ENSEMBLE),
    ("sim", "record_stride", "record_stride", int, _RUNS),
    ("sim", "quantiles", "quantile_fractions", _parse_floats, ("network",)),
    ("grid", "v_min", "v_min", float, _DENSITY),
    ("grid", "v_max", "v_max", float, _DENSITY),
    ("grid", "x_min", "x_min", float, _DENSITY),
    ("grid", "x_max", "x_max", float, _DENSITY),
    ("grid", "nv", "nv", int, _DENSITY),
    ("grid", "nx", "nx", int, _DENSITY),
    ("grid", "snapshot_stride", "snapshot_stride", int, ("pde",)),
    ("init", "kind", "kind", str, ("network",)),
    ("init", "mean_v", "mean_v", float, (*_RUNS, "cycle")),
    ("init", "mean_x", "mean_x", float, (*_RUNS, "cycle")),
    ("init", "concentration", "concentration", float, ("network", *_DENSITY)),
    ("output", "directory", "out_dir", Path, _RUNS),
    ("output", "label", "label", str, _RUNS),
)

# section -> title of its flag group
_SECTIONS = {"params": "parameters", "sim": "simulation", "grid": "grid",
             "init": "initial cluster", "output": "output"}

_METAVARS = {_parse_bool: "on|off", _parse_floats: "Q,Q,..."}


def _flag(section: str, key: str) -> tuple[str, tuple[str, ...]]:
    """argparse dest and option strings of a key's flag: the key with dashes,
    prefixed init- in [init].  Two flags keep their own spelling."""
    if key == "lambda":  # a Python keyword, so the dest is the field name
        return "lam", ("--lambda", "--lam")
    if key == "directory":
        return "out", ("--out",)
    dest = f"init_{key}" if section == "init" else key
    return dest, ("--" + dest.replace("_", "-"),)


def load_config_file(path: str) -> dict:
    """Parse the INI config into {section: {field: value}}; any unknown
    section or key is an error."""
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from err
    except configparser.Error as err:
        raise ConfigError(f"malformed config file {path}: {err}") from err

    rows = {(section, key): (field, parse) for section, key, field, parse, _ in _KEYS}
    settings: dict = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if (section, key) not in rows:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            field, parse = rows[section, key]
            try:
                settings.setdefault(section, {})[field] = parse(raw)
            except ValueError as err:
                raise ConfigError(
                    f"bad value for {section}.{key}: {raw!r} ({err})") from err
    return settings


def _non_directory(path: Path) -> Path | None:
    """The nearest of path and its ancestors that exists, if it is not a
    directory; no directory can be made at path then."""
    for p in (path, *path.parents):
        if p.exists():
            return None if p.is_dir() else p
    return None


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

    def __post_init__(self):
        if self.seeds < 1:
            raise ValueError(f"seeds must be >= 1, got {self.seeds}")
        if self.snapshot_stride is not None and self.snapshot_stride < 1:
            raise ValueError(f"snapshot_stride must be >= 1, got {self.snapshot_stride}")
        if self.label in (".", "..") or any(
                sep and sep in self.label for sep in (os.sep, os.altsep)):
            raise ValueError(f"label must be a file name, not a path, got {self.label!r}")
        blocker = _non_directory(self.out_dir) if self.model in _RUNS else None
        if blocker is not None:
            raise ValueError(f"output directory {str(self.out_dir)!r} cannot be made: "
                             f"{str(blocker)!r} is not a directory")

    def to_dict(self) -> dict:
        """The resolved keys that the model reads, by INI section and key."""
        d: dict = {"model": self.model, "preset": self.preset}
        for section, key, field, _, models in _KEYS:
            if self.model not in models:
                continue
            part = getattr(self, section, None)
            value = getattr(part if hasattr(part, field) else self, field)
            if isinstance(value, tuple):
                value = list(value)
            elif isinstance(value, Path):
                value = str(value)
            d.setdefault(section, {})[key] = value
        return d


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
    """The run's configuration: the preset's run (or the dataclass defaults),
    then the INI config file, then flags.  The preset and the file may set
    any key; flags are taken only for keys the model reads, and one that
    args lacks or holds as None is not set.

    The density solver (pde, compare) needs sigma = 1, adaptation noise on,
    a gaussian cluster with mass on its grid and, at its own step, at most
    core.MAX_STEPS steps; a sampled cluster (network, compare) needs a
    concentration within sample_initial's bound; and every model needs a
    finite discriminant.  Whichever of preset, file or flag sets them, a
    ConfigError says otherwise before any work or output.

    detect-cycle (cycle) with no preset and no mean_v or mean_x set starts
    half a unit in v above the first equilibrium classify reports."""
    preset_name, notes = None, ()
    run = PresetRun(label="run", params=ModelParams(), init=InitCondition(),
                    sim=SimConfig(n=1000, t_end=10.0, record_stride=10))
    if getattr(args, "preset", None):
        preset_name, run, notes = _select_preset(args.preset)
    # a preset's step is a network step; the density solver takes its own
    sim = replace(run.sim, dt=None) if model == "pde" else run.sim
    given = {section: {} for section in _SECTIONS}
    if getattr(args, "config", None):
        for section, values in load_config_file(args.config).items():
            given[section].update(values)
    for section, key, field, _, models in _KEYS:
        value = getattr(args, _flag(section, key)[0], None)
        if value is not None and model in models:
            given[section][field] = value
    seeds = getattr(args, "seeds", None)

    try:
        params = replace(run.params, **given["params"])
        init = replace(run.init, **given["init"])
        if model == "cycle" and preset_name is None and not (
                {"mean_v", "mean_x"} & given["init"].keys()):
            e = classify(params).equilibria[0]
            init = replace(init, mean_v=e.v + 0.5, mean_x=e.x)
        grid = snapshot_stride = None
        if model in _DENSITY:
            snapshot_stride = given["grid"].pop("snapshot_stride", None)
            span = 3.0 * params.lam
            grid = Grid(**{"v_min": -span, "v_max": span, "x_min": -span,
                           "x_max": span, "nv": 128, "nx": 64, **given["grid"]})
        out_dir = given["output"].get("out_dir", os.environ.get(ENV_OUT_DIR, "out"))
        cfg = ExperimentConfig(
            model=model, params=params, sim=replace(sim, **given["sim"]),
            grid=grid, init=init, out_dir=Path(out_dir),
            label=given["output"].get("label", run.label), preset=preset_name,
            notes=notes, profile_diagnostics=run.profile_diagnostics,
            seeds=1 if seeds is None else seeds, snapshot_stride=snapshot_stride)
        if model in _DENSITY:
            check_density_params(params)
            if init.kind != GAUSSIAN_CLUSTER:
                raise ValueError("the density solver needs a gaussian initial cluster")
            gaussian_field(grid, init, params)  # raises if the cluster misses the grid
            if model == "compare" or cfg.sim.dt is None:
                time_steps(cfg.sim.t_end, stable_dt(grid, params))  # the solver's own step
        if model in _ENSEMBLE:
            check_concentration(init, params)
        discriminant(params)  # raises if it is not finite
    except ValueError as err:
        raise ConfigError(str(err)) from err
    return cfg


# ---------------------------------------------------------------------------
# output helpers

def _write_csv(path, columns) -> None:
    """Write a table to path, making its directory: a header of the column
    names, then one row per entry, each value formatted %.17g.  columns are
    (name, values) pairs of one length; a name may repeat, as two quantile
    fractions can round to one column name.  A ragged table raises before
    the file is opened."""
    values = [np.asarray(col, dtype=float).tolist() for _, col in columns]
    row = ",".join(["%.17g"] * len(columns)) + "\n"  # one % format per row
    rows = [row % r for r in zip(*values, strict=True)]
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(",".join([name for name, _ in columns]) + "\n" + "".join(rows))


def write_timeseries_csv(path, rec: TrajectoryRecord) -> None:
    qcols = [f"q{round(q * 100):d}" for q in rec.quantile_fractions]
    moments = ("t", "mean_v", "mean_x", "var_v", "var_x", "m4_v", "m4_x")
    _write_csv(path, [*((name, getattr(rec, name)) for name in moments),
                      *((f"{c}_v", rec.quantiles_v[:, j]) for j, c in enumerate(qcols)),
                      *((f"{c}_x", rec.quantiles_x[:, j]) for j, c in enumerate(qcols))])


def write_comparison_csv(path, comp: ProfileComparison) -> None:
    """One column per ProfileComparison field, in field order."""
    _write_csv(path, [(f.name, getattr(comp, f.name)) for f in fields(ProfileComparison)])


def write_profile_csv(path, prof: Profile) -> None:
    """Bin centre, empirical profile and the profile's target quadratic there."""
    _write_csv(path, [("center", prof.centers), ("empirical", prof.values),
                      ("theoretical", prof.target)])


def _write_summary(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _finish(cfg: ExperimentConfig, t0: float, results: dict, dt: float,
            final_mean_v: float | None = None) -> dict:
    """Write <label>_summary.json: the resolved configuration with the step
    dt the run took as [sim] dt, the seed if the run reads one, the runtime
    since t0, the closed-form classification and the run's results, with the
    distance of final_mean_v from the nearest equilibrium if it is given."""
    report = classify(cfg.params)
    if final_mean_v is not None:
        results["nearest_equilibrium_distance"] = float(min(
            abs(final_mean_v - e.v) for e in report.equilibria))
    config = cfg.to_dict()
    config["sim"]["dt"] = dt
    summary = {
        "version": __version__,
        "model": cfg.model,
        "config": config,
        "runtime_sec": time.perf_counter() - t0,
        "notes": list(cfg.notes),
        "classification": report_to_dict(report),
        "results": results,
    }
    if "seed" in config["sim"]:
        summary["seed"] = cfg.sim.seed
    _write_summary(cfg.out_dir / f"{cfg.label}_summary.json", summary)
    return summary


def reference_trajectory(cfg: ExperimentConfig, alpha: float, beta: float, dt: float):
    """The limit system from (alpha, beta) at t = 0 to the run's horizon in
    steps of at most dt (core.time_steps) and the run's record stride; at an
    ensemble's step it records the ensemble's times exactly."""
    s0 = LimitState(t=0.0, alpha=alpha, beta=beta)
    return rk4_integrate(s0, cfg.params, dt, cfg.sim.t_end,
                         record_stride=cfg.sim.record_stride)


# ---------------------------------------------------------------------------
# pipelines

def run_network(cfg: ExperimentConfig) -> dict:
    t0 = time.perf_counter()
    rec = simulate(cfg.sim, cfg.params, cfg.init)
    ref = reference_trajectory(cfg, rec.mean_v[0], rec.mean_x[0], rec.dt)
    comp = diag_compare(rec, ref, cfg.params)

    write_timeseries_csv(cfg.out_dir / f"{cfg.label}_timeseries.csv", rec)
    write_comparison_csv(cfg.out_dir / f"{cfg.label}_vs_limit.csv", comp)

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
    }

    final = rec.final_state
    if cfg.profile_diagnostics and final.n >= MIN_SAMPLES:
        eps = cfg.params.epsilon
        prof_v = log_density_profile(final.v, eps, ref.alpha[-1])
        prof_x = log_density_profile(final.x, eps, ref.beta[-1], curvature=cfg.params.a)
        write_profile_csv(cfg.out_dir / f"{cfg.label}_profile_v.csv", prof_v)
        write_profile_csv(cfg.out_dir / f"{cfg.label}_profile_x.csv", prof_x)
        results["final_profile_sup_error_v"] = prof_v.sup_error
        results["final_profile_sup_error_x"] = prof_x.sup_error

    return _finish(cfg, t0, results, rec.dt, final_mean_v=rec.mean_v[-1])


def run_pde(cfg: ExperimentConfig) -> dict:
    t0 = time.perf_counter()
    field0 = gaussian_field(cfg.grid, cfg.init, cfg.params)
    sol = solve(field0, cfg.params, cfg.sim.t_end, dt=cfg.sim.dt,
                record_stride=cfg.sim.record_stride,
                snapshot_stride=cfg.snapshot_stride)
    _write_csv(cfg.out_dir / f"{cfg.label}_pde.csv",
               [("t", sol.t), ("jg", sol.jg), ("mass", sol.mass)])
    for k, snap in enumerate(sol.snapshots):
        np.savez(cfg.out_dir / f"{cfg.label}_field_{k:04d}.npz", rho=snap.rho,
                 t=snap.t, epsilon=cfg.params.epsilon, **asdict(snap.grid))

    return _finish(cfg, t0, {
        "dt": sol.dt,
        "final_jg": float(sol.jg[-1]),
        "mass_drift": float(np.abs(sol.mass - sol.mass[0]).max()),
    }, sol.dt, final_mean_v=sol.jg[-1])


def run_ode(cfg: ExperimentConfig) -> dict:
    t0 = time.perf_counter()
    traj = reference_trajectory(cfg, cfg.init.mean_v, cfg.init.mean_x,
                                ODE_DT if cfg.sim.dt is None else cfg.sim.dt)
    _write_csv(cfg.out_dir / f"{cfg.label}_ode.csv",
               [("t", traj.t), ("alpha", traj.alpha), ("beta", traj.beta)])

    return _finish(cfg, t0, {
        "final_alpha": float(traj.alpha[-1]),
        "final_beta": float(traj.beta[-1]),
    }, traj.dt)


def run_compare(cfg: ExperimentConfig) -> dict:
    """Drive the network, the density solver, and the limit system on shared
    parameters and report sup-norm discrepancies of their mean voltages."""
    if cfg.params.epsilon < PDE_EPSILON_WARN:
        print(f"warning: epsilon={cfg.params.epsilon:g} below "
              f"{PDE_EPSILON_WARN}; the grid solver step budget explodes",
              file=sys.stderr)
    t0 = time.perf_counter()

    recs = [simulate(replace(cfg.sim, seed=cfg.sim.seed + k), cfg.params, cfg.init)
            for k in range(cfg.seeds)]
    mean_v = np.mean([r.mean_v for r in recs], axis=0)
    mean_x0 = float(np.mean([r.mean_x[0] for r in recs]))
    times = recs[0].t

    # the limit starts where the seed-averaged network does
    alpha = reference_trajectory(cfg, mean_v[0], mean_x0, recs[0].dt).alpha

    field0 = gaussian_field(cfg.grid, cfg.init, cfg.params)
    sol = solve(field0, cfg.params, cfg.sim.t_end, record_stride=1)
    jg = np.interp(times, sol.t, sol.jg)

    _write_csv(cfg.out_dir / f"{cfg.label}_compare.csv",
               [("t", times), ("mean_v_network", mean_v), ("jg_pde", jg),
                ("alpha_limit", alpha)])

    return _finish(cfg, t0, {
        "seeds_averaged": cfg.seeds,
        "initial_mean_x": mean_x0,
        "sup_network_vs_pde": float(np.abs(mean_v - jg).max()),
        "sup_network_vs_limit": float(np.abs(mean_v - alpha).max()),
        "sup_pde_vs_limit": float(np.abs(jg - alpha).max()),
        "pde_mass_drift": float(np.abs(sol.mass - sol.mass[0]).max()),
    }, recs[0].dt)


# ---------------------------------------------------------------------------
# subcommand entry points

def _cmd_run(args) -> int:
    runners = {"network": run_network, "pde": run_pde, "ode": run_ode,
               "compare": run_compare}
    runners[args.model](resolve_config(args, args.model))
    return 0


def _cmd_classify(args) -> int:
    cfg = resolve_config(args, args.model)
    json_out = Path(args.json_out) if args.json_out else None
    if json_out is not None and (json_out.is_dir() or _non_directory(json_out.parent)):
        raise ConfigError(f"--json-out {str(json_out)!r} is a directory or lies under a file")
    report = classify(cfg.params)
    payload = {"version": __version__, "config": cfg.to_dict()}
    payload.update(report_to_dict(report))
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if json_out is not None:
        json_out.parent.mkdir(parents=True, exist_ok=True)
        json_out.write_text(text + "\n")
    return 0


def _cmd_detect_cycle(args) -> int:
    if not 0.0 < args.max_time < float("inf"):
        raise ConfigError(f"--max-time must be finite and > 0, got {args.max_time}")
    try:
        time_steps(args.max_time, CYCLE_DT)  # the search's step count
    except ValueError as err:
        raise ConfigError(f"--max-time: {err}") from err
    cfg = resolve_config(args, args.model)
    report = classify(cfg.params)
    s0 = LimitState(t=0.0, alpha=cfg.init.mean_v, beta=cfg.init.mean_x)
    cycle = detect_limit_cycle(cfg.params, s0, max_time=args.max_time)
    payload = {"version": __version__, "config": cfg.to_dict()}
    payload.update(report_to_dict(report))
    payload["cycle"] = None if cycle is None else {
        "period": cycle.period, "v_min": cycle.v_min, "v_max": cycle.v_max}
    payload["start"] = {"alpha": s0.alpha, "beta": s0.beta}
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_scenario(args) -> int:
    names = presets_mod.available() if "all" in args.names else dict.fromkeys(args.names)
    out_root = Path(args.out or os.environ.get(ENV_OUT_DIR, "out"))
    for name in names:
        preset = presets_mod.load(name)
        out_dir = out_root / preset.name
        statuses = []
        for run in preset.runs:
            ns = argparse.Namespace(preset=f"{preset.name}:{run.label}",
                                    out=str(out_dir))
            summary = run_network(resolve_config(ns, "network"))
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

def _add_command(sub, name: str, model: str, func, text: str):
    """Subcommand name with --config, --preset and one flag per key the
    model reads."""
    sp = sub.add_parser(name, help=text)
    sp.set_defaults(func=func, model=model)
    sp.add_argument("--config", help="INI config file")
    sp.add_argument("--preset", help="preset name, or name:label for one run")
    groups: dict = {}
    for section, key, _, parse, models in _KEYS:
        if model not in models:
            continue
        if section not in groups:
            groups[section] = sp.add_argument_group(_SECTIONS[section])
        dest, names = _flag(section, key)
        groups[section].add_argument(*names, dest=dest, type=parse,
                                     metavar=_METAVARS.get(parse),
                                     help=f"[{section}] {key}")
    if "output" in groups:
        groups["output"].description = (
            f"files <label>_* go to --out (default ${ENV_OUT_DIR} or ./out)")
    return sp


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fhn-meanfield",
        description="Strongly coupled FitzHugh-Nagumo toolkit: particle "
                    "ensembles, density solver, limit system, bifurcations.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    _add_command(sub, "simulate-network", "network", _cmd_run,
                 "integrate the n-neuron ensemble")
    _add_command(sub, "simulate-pde", "pde", _cmd_run, "integrate the density equation")
    _add_command(sub, "simulate-ode", "ode", _cmd_run, "integrate the limit system")
    sp = _add_command(sub, "classify", "classify", _cmd_classify,
                      "closed-form regime classification")
    sp.add_argument("--json-out", help="also write the JSON report here")
    sp = _add_command(sub, "detect-cycle", "cycle", _cmd_detect_cycle,
                      "Poincare-section cycle detection")
    sp.add_argument("--max-time", dest="max_time", type=float, default=2000.0,
                    help="time units integrated from the start point before giving "
                         "up with exit code 4; finite and > 0 (default 2000)")
    sp = _add_command(sub, "compare", "compare", _cmd_run,
                      "network vs density solver vs limit system")
    sp.add_argument("--seeds", type=int, default=1,
                    help="average the network over this many seeds")

    sp = sub.add_parser("scenario", help="run full figure presets")
    sp.add_argument("names", nargs="+", metavar="name",
                    choices=(*presets_mod.available(), "all"),
                    help="preset names, or all")
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
