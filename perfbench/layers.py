"""Which package functions the traced run wraps, and the per-layer metrics
computed from their spans.

A function is wrapped at every module attribute a caller looks it up
through: cli imports simulate, classify and rk4_integrate by name, particle
and fokker_planck import voltage_drift, and bifurcation imports rk4_step.
Every metric below covers one set-up plus one operation: the set-up's own
spans plus the mean over the traced operations.  Times are self times.
"""

from __future__ import annotations

import os

import numpy as np

from fhn_meanfield import bifurcation, cli, core, diagnostics, fokker_planck, limit_ode, particle

from tracing import Tracer, phase_totals


def _count_bytes(tracer: Tracer, args, result) -> None:
    tracer.count("bytes_written", os.path.getsize(args[0]))


# (owner, attribute, layer)
WRAPPED = (
    (cli, "resolve_config", "cli.resolve_config"),
    (cli, "run_network", "cli.run_network"),
    (cli, "simulate", "particle.simulate"),
    (cli, "rk4_integrate", "limit_ode.rk4_integrate"),
    (cli, "diag_compare", "diagnostics.compare"),
    (cli, "log_density_profile", "diagnostics.log_density_profile"),
    (cli, "classify", "bifurcation.classify"),
    (particle, "em_step", "particle.em_step"),
    (particle.NoiseStream, "block", "particle.noise_block"),
    (particle, "voltage_drift", "core.voltage_drift"),
    (particle, "sample_initial", "core.sample_initial"),
    (particle, "empirical_moments", "particle.empirical_moments"),
    (particle, "quantiles", "particle.quantiles"),
    (core, "sample_initial", "core.sample_initial"),
    (fokker_planck, "solve", "fokker_planck.solve"),
    (fokker_planck, "fp_step", "fokker_planck.fp_step"),
    (fokker_planck, "cfl_limit", "fokker_planck.cfl_limit"),
    (fokker_planck, "first_moment", "fokker_planck.first_moment"),
    (fokker_planck, "voltage_drift", "core.voltage_drift"),
    (fokker_planck, "hopf_cole", "fokker_planck.hopf_cole"),
    (limit_ode, "rk4_step", "limit_ode.rk4_step"),
    (bifurcation, "rk4_step", "limit_ode.rk4_step"),
    (bifurcation, "classify", "bifurcation.classify"),
    (bifurcation, "detect_limit_cycle", "bifurcation.detect_limit_cycle"),
    (diagnostics, "log_density_profile", "diagnostics.log_density_profile"),
    (diagnostics, "viscosity_residual", "diagnostics.viscosity_residual"),
)
WRITERS = ("write_timeseries_csv", "write_comparison_csv", "write_profile_csv",
           "_write_summary")


def install(tracer: Tracer) -> None:
    for owner, attr, layer in WRAPPED:
        tracer.wrap(owner, attr, layer)
    for attr in WRITERS:
        tracer.wrap(cli, attr, "cli.write", after=_count_bytes)


# name -> (unit, better, kind, layers).  Kinds: "self" seconds and "calls"
# per set-up plus operation, "per_call" self time scaled to the unit, and
# derived counts computed in metrics(); run.py adds the overhead
METRICS = {
    "particle.em_step_us": ("us/call", "lower", "per_call", ("particle.em_step",)),
    "particle.em_step_calls": ("count", "lower", "calls", ("particle.em_step",)),
    "particle.noise_block_us": ("us/call", "lower", "per_call", ("particle.noise_block",)),
    "particle.record_s": ("s", "lower", "self",
                          ("particle.empirical_moments", "particle.quantiles")),
    "particle.records": ("count", "lower", "calls", ("particle.empirical_moments",)),
    "particle.simulate_s": ("s", "lower", "self", ("particle.simulate",)),
    "core.voltage_drift_s": ("s", "lower", "self", ("core.voltage_drift",)),
    "core.voltage_drift_calls": ("count", "lower", "calls", ("core.voltage_drift",)),
    "core.sample_initial_s": ("s", "lower", "self", ("core.sample_initial",)),
    "fokker_planck.fp_step_ms": ("ms/call", "lower", "per_call", ("fokker_planck.fp_step",)),
    "fokker_planck.fp_step_calls": ("count", "lower", "calls", ("fokker_planck.fp_step",)),
    "fokker_planck.cfl_limit_s": ("s", "lower", "self", ("fokker_planck.cfl_limit",)),
    "fokker_planck.first_moment_s": ("s", "lower", "self", ("fokker_planck.first_moment",)),
    "fokker_planck.steps_to_horizon": ("count", "lower", "steps", ()),
    "limit_ode.rk4_integrate_s": ("s", "lower", "self", ("limit_ode.rk4_integrate",)),
    "limit_ode.rk4_step_us": ("us/call", "lower", "per_call", ("limit_ode.rk4_step",)),
    "limit_ode.rk4_step_calls": ("count", "lower", "calls", ("limit_ode.rk4_step",)),
    "bifurcation.classify_us": ("us/call", "lower", "per_call", ("bifurcation.classify",)),
    "bifurcation.classify_calls": ("count", "lower", "calls", ("bifurcation.classify",)),
    "bifurcation.detect_limit_cycle_s": ("s", "lower", "self",
                                         ("bifurcation.detect_limit_cycle",)),
    "bifurcation.detect_limit_cycle_calls": ("count", "lower", "calls",
                                             ("bifurcation.detect_limit_cycle",)),
    "bifurcation.rk4_steps_per_cycle": ("ratio", "lower", "steps_per_cycle", ()),
    "diagnostics.compare_s": ("s", "lower", "self", ("diagnostics.compare",)),
    "diagnostics.log_density_profile_s": ("s", "lower", "self",
                                          ("diagnostics.log_density_profile",)),
    "diagnostics.viscosity_residual_s": ("s", "lower", "self",
                                         ("diagnostics.viscosity_residual",)),
    "cli.resolve_config_s": ("s", "lower", "self", ("cli.resolve_config",)),
    "cli.write_s": ("s", "lower", "self", ("cli.write",)),
    "cli.bytes_written": ("bytes", "lower", "bytes", ()),
    "trace.overhead_s": ("s", "lower", "overhead", ()),
}
PER_CALL_SCALE = {"us/call": 1e6, "ms/call": 1e3}


def _rk4_steps_per_cycle(tracer: Tracer) -> float:
    """RK4 steps taken inside limit-cycle queries per cycle query, over the
    traced operations (every query at the benchmark's points finds a cycle,
    so queries and detected cycles are the same base)."""
    ids = tracer.ids
    if "bifurcation.detect_limit_cycle" not in ids or "limit_ode.rk4_step" not in ids:
        return 0.0
    a = tracer.arrays()
    detect = a["name"] == ids["bifurcation.detect_limit_cycle"]
    has_parent = a["parent"] >= 0
    under = np.zeros(a["name"].size, dtype=bool)
    under[has_parent] = detect[a["parent"][has_parent]]
    steps = np.count_nonzero(under & (a["name"] == ids["limit_ode.rk4_step"]))
    return steps / max(1, int(np.count_nonzero(detect)))


def metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric but trace.overhead_s, which the caller adds;
    layers that did not run read 0."""
    tot = phase_totals(tracer, ("setup", "op"))
    setup, op = tot["setup"], tot["op"]
    n_ops = max(1, op["roots"])

    def per_unit(key: str, layers) -> float:
        return sum(setup[key].get(l, 0.0) + op[key].get(l, 0.0) / n_ops for l in layers)

    out = {}
    for name, (unit, _better, kind, layers) in METRICS.items():
        if kind == "self":
            value = per_unit("self", layers)
        elif kind == "calls":
            value = per_unit("calls", layers)
        elif kind == "per_call":
            calls = sum(setup["calls"].get(l, 0) + op["calls"].get(l, 0) for l in layers)
            secs = sum(setup["self"].get(l, 0.0) + op["self"].get(l, 0.0) for l in layers)
            value = secs / calls * PER_CALL_SCALE[unit] if calls else 0.0
        elif kind == "steps":
            solves = op["calls"].get("fokker_planck.solve", 0)
            value = op["calls"].get("fokker_planck.fp_step", 0) / solves if solves else 0.0
        elif kind == "steps_per_cycle":
            value = _rk4_steps_per_cycle(tracer)
        elif kind == "bytes":
            value = (tracer.counters.get("setup:bytes_written", 0.0)
                     + tracer.counters.get("op:bytes_written", 0.0) / n_ops)
        else:
            continue
        out[name] = (float(value), unit)
    return out
