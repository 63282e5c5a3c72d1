"""The files the CLI writes: every table against the writer loops it
replaced, byte for byte, the .npz field snapshots, and the rule that only
cli writes files."""

import ast
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fhn_meanfield import cli, diagnostics
from fhn_meanfield.core import EnsembleState, InitCondition, ModelParams
from fhn_meanfield.diagnostics import compare, log_density_profile
from fhn_meanfield.fokker_planck import Grid, gaussian_field, solve
from fhn_meanfield.limit_ode import LimitState, LimitTrajectory, rk4_integrate
from fhn_meanfield.particle import SimConfig, simulate

PACKAGE = Path(cli.__file__).resolve().parent

PDE_SMALL = ["--epsilon", "0.1", "--t-end", "0.002", "--nv", "64", "--nx", "32",
             "--v-min", "-2", "--v-max", "4", "--x-min", "-2", "--x-max", "3",
             "--init-mean-v", "1.0", "--init-mean-x", "0.5"]
COMPARE_SMALL = ["--epsilon", "0.2", "--t-end", "0.05", "--n", "64", "--dt", "1e-3",
                 "--record-stride", "5", "--v-min", "-2", "--v-max", "4",
                 "--x-min", "-2", "--x-max", "3", "--nv", "24", "--nx", "16",
                 "--init-mean-v", "1.0", "--init-mean-x", "0.5", "--seeds", "2"]


# ---------------------------------------------------------------------------
# the writer loops that the one table writer replaced, kept as references

def _fmt(x: float) -> str:
    return f"{x:.17g}"


def ref_timeseries_csv(path, rec) -> None:
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


def ref_comparison_csv(path, comp) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("t,var_ratio_v,var_ratio_x,mean_error\n")
        for k in range(comp.t.size):
            fh.write(f"{comp.t[k]:.17g},{comp.var_ratio_v[k]:.17g},"
                     f"{comp.var_ratio_x[k]:.17g},{comp.mean_error[k]:.17g}\n")


def ref_profile_csv(path, prof, theo) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("center,empirical,theoretical\n")
        for c, e, th in zip(prof.centers, prof.values, theo):
            fh.write(f"{c:.17g},{e:.17g},{th:.17g}\n")


def ref_target(prof, center, curvature):
    """The predicted quadratic as the closures -0.5 (y - alpha)^2 and
    -0.5 a (y - beta)^2 that the profile's target replaced computed it."""
    if curvature == 1.0:
        return -0.5 * (prof.centers - center) ** 2
    return -0.5 * curvature * (prof.centers - center) ** 2


def ref_sup_error(prof, theo, epsilon) -> float:
    use = (theo >= -4.0 * epsilon * np.log(10.0)) & ~prof.mask
    return float(np.max(np.abs(prof.values[use] - theo[use]))) if use.any() else np.nan


def ref_series_csv(path, sol) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("t,jg,mass\n")
        for t, jg, m in zip(sol.t, sol.jg, sol.mass):
            fh.write(f"{t:.17g},{jg:.17g},{m:.17g}\n")


def ref_ode_csv(path, traj) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("t,alpha,beta\n")
        for t, al, be in zip(traj.t, traj.alpha, traj.beta):
            fh.write(f"{_fmt(t)},{_fmt(al)},{_fmt(be)}\n")


def ref_compare_csv(path, times, mean_v, jg, alpha) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("t,mean_v_network,jg_pde,alpha_limit\n")
        for row in zip(times, mean_v, jg, alpha):
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _same_bytes(tmp_path, written: Path, reference, *data) -> None:
    expected = tmp_path / f"reference_{written.name}"
    reference(expected, *data)
    assert written.read_bytes() == expected.read_bytes()


def _config(argv, model):
    return cli.resolve_config(cli.build_parser().parse_args(argv), model)


# ---------------------------------------------------------------------------
# every table, byte for byte

P = ModelParams(a=0.3, epsilon=0.05)


@pytest.mark.parametrize("quantiles", [(0.1, 0.25, 0.75, 0.9), (0.5, 0.5), (0.501, 0.504),
                                       (0.0, 0.125, 1.0)])
def test_timeseries_csv_matches_the_reference_writer(tmp_path, quantiles):
    rec = simulate(SimConfig(n=64, t_end=0.2, dt=0.01, seed=5, record_stride=3,
                             quantile_fractions=quantiles),
                   P, InitCondition(mean_v=1.0, mean_x=0.5, concentration=0.3))
    path = tmp_path / "sub" / "x_timeseries.csv"
    cli.write_timeseries_csv(path, rec)
    _same_bytes(tmp_path, path, ref_timeseries_csv, rec)


def test_comparison_csv_matches_the_reference_writer_with_and_without_nan(tmp_path):
    rec = simulate(SimConfig(n=64, t_end=0.2, dt=0.01, seed=5, record_stride=3), P,
                   InitCondition(mean_v=1.0, mean_x=0.5, concentration=0.3))
    limit = rk4_integrate(LimitState(0.0, float(rec.mean_v[0]), float(rec.mean_x[0])),
                          P, rec.dt, 0.2, record_stride=3)
    finite = compare(rec, limit, P)
    assert all(np.isfinite(getattr(finite, f)).all() for f in ("var_ratio_v", "mean_error"))
    gaps = rec.var_v.copy()
    gaps[1::2] = np.nan
    with_nan = compare(replace(rec, var_v=gaps), limit, P)
    assert np.isnan(with_nan.var_ratio_v[1])
    for name, comp in (("nan", with_nan), ("finite", finite)):
        path = tmp_path / f"{name}_vs_limit.csv"
        cli.write_comparison_csv(path, comp)
        _same_bytes(tmp_path, path, ref_comparison_csv, comp)


def test_profile_csv_matches_the_reference_writer_with_masked_bins(tmp_path):
    rng = np.random.default_rng(8)
    samples = rng.standard_normal(2000) * 0.1
    for name, center, curvature in (("v", 0.1, 1.0), ("x", 0.2, 0.3)):
        prof = log_density_profile(samples, 0.01, center, bins=64, curvature=curvature)
        assert prof.mask.any()  # thin tail bins write nan
        path = tmp_path / f"x_profile_{name}.csv"
        cli.write_profile_csv(path, prof)
        _same_bytes(tmp_path, path, ref_profile_csv, prof,
                    ref_target(prof, center, curvature))


def test_network_run_tables_match_the_reference_writers(tmp_path):
    # fig1 at n = 1000 writes the profile tables as well
    out = tmp_path / "o"
    argv = ["simulate-network", "--preset", "fig1:epsinv25", "--n", "1000",
            "--t-end", "0.4", "--out", str(out)]
    assert cli.main(argv) == 0
    cfg = _config(argv, "network")
    rec = simulate(cfg.sim, cfg.params, cfg.init)
    ref = rk4_integrate(LimitState(0.0, float(rec.mean_v[0]), float(rec.mean_x[0])),
                        cfg.params, rec.dt, cfg.sim.t_end, record_stride=cfg.sim.record_stride)
    _same_bytes(tmp_path, out / "epsinv25_timeseries.csv", ref_timeseries_csv, rec)
    _same_bytes(tmp_path, out / "epsinv25_vs_limit.csv", ref_comparison_csv,
                compare(rec, ref, cfg.params))
    eps, a, final = cfg.params.epsilon, cfg.params.a, rec.final_state
    alpha, beta = float(ref.alpha[-1]), float(ref.beta[-1])
    prof_v = log_density_profile(final.v, eps, alpha)
    prof_x = log_density_profile(final.x, eps, beta, curvature=a)
    psi_v, psi_x = ref_target(prof_v, alpha, 1.0), ref_target(prof_x, beta, a)
    _same_bytes(tmp_path, out / "epsinv25_profile_v.csv", ref_profile_csv, prof_v, psi_v)
    _same_bytes(tmp_path, out / "epsinv25_profile_x.csv", ref_profile_csv, prof_x, psi_x)
    results = json.loads((out / "epsinv25_summary.json").read_text())["results"]
    assert results["final_profile_sup_error_v"] == ref_sup_error(prof_v, psi_v, eps)
    assert results["final_profile_sup_error_x"] == ref_sup_error(prof_x, psi_x, eps)


def test_a_profile_run_builds_each_histogram_once(tmp_path, monkeypatch):
    calls = []
    histogram = np.histogram

    def counted(*args, **kwargs):
        calls.append(1)
        return histogram(*args, **kwargs)

    monkeypatch.setattr(diagnostics.np, "histogram", counted)
    argv = ["simulate-network", "--preset", "fig1:epsinv25", "--n", "1000",
            "--t-end", "0.1", "--out", str(tmp_path / "o")]
    assert cli.main(argv) == 0
    assert (tmp_path / "o" / "epsinv25_profile_x.csv").exists()
    assert len(calls) == 2  # one per profile, each also scored


def test_series_csv(tmp_path):
    out = tmp_path / "o"
    argv = ["simulate-pde", "--out", str(out), "--label", "p", "--record-stride", "2",
            *PDE_SMALL]
    assert cli.main(argv) == 0
    cfg = _config(argv, "pde")
    sol = solve(gaussian_field(cfg.grid, cfg.init, cfg.params), cfg.params, cfg.sim.t_end,
                record_stride=2)
    lines = (out / "p_pde.csv").read_text().splitlines()
    assert lines[0] == "t,jg,mass"
    assert len(lines) == len(sol.t) + 1
    _same_bytes(tmp_path, out / "p_pde.csv", ref_series_csv, sol)


def test_ode_run_table_matches_the_reference_writer(tmp_path):
    out = tmp_path / "o"
    argv = ["simulate-ode", "--out", str(out), "--label", "o", "--t-end", "3",
            "--record-stride", "7", "--init-mean-v", "1.35", "--init-mean-x", "1.0"]
    assert cli.main(argv) == 0
    cfg = _config(argv, "ode")
    traj = rk4_integrate(LimitState(0.0, 1.35, 1.0), cfg.params, cli.ODE_DT, 3.0,
                         record_stride=7)
    _same_bytes(tmp_path, out / "o_ode.csv", ref_ode_csv, traj)


def test_compare_run_table_matches_the_reference_writer(tmp_path):
    out = tmp_path / "o"
    argv = ["compare", "--out", str(out), "--label", "c", *COMPARE_SMALL]
    assert cli.main(argv) == 0
    cfg = _config(argv, "compare")
    recs = [simulate(replace(cfg.sim, seed=cfg.sim.seed + k), cfg.params, cfg.init)
            for k in range(2)]
    sol = solve(gaussian_field(cfg.grid, cfg.init, cfg.params), cfg.params, cfg.sim.t_end)
    times = recs[0].t
    mean_v = np.mean([r.mean_v for r in recs], axis=0)
    s0 = LimitState(0.0, float(mean_v[0]), float(np.mean([r.mean_x[0] for r in recs])))
    alpha = rk4_integrate(s0, cfg.params, recs[0].dt, cfg.sim.t_end,
                          record_stride=cfg.sim.record_stride).alpha
    _same_bytes(tmp_path, out / "c_compare.csv", ref_compare_csv, times, mean_v,
                np.interp(times, sol.t, sol.jg), alpha)


def test_csv_writers(tmp_path):
    p = ModelParams(a=0.3, epsilon=0.01)
    rng = np.random.default_rng(8)
    state = EnsembleState(0.0, rng.standard_normal(2000) * 0.1,
                          rng.standard_normal(2000) * 0.2)
    rec = simulate(SimConfig(n=16, t_end=0.05, dt=0.01, seed=3), p, InitCondition())
    comp = compare(rec, LimitTrajectory(rec.t, np.zeros(len(rec)), np.zeros(len(rec)), rec.dt), p)
    cpath = tmp_path / "comps.csv"
    cli.write_comparison_csv(cpath, comp)
    lines = cpath.read_text().splitlines()
    assert lines[0] == "t,var_ratio_v,var_ratio_x,mean_error"
    assert len(lines) == len(rec) + 1

    prof = log_density_profile(state.v, p.epsilon, 0.0, bins=32)
    ppath = tmp_path / "prof.csv"
    cli.write_profile_csv(ppath, prof)
    lines = ppath.read_text().splitlines()
    assert lines[0] == "center,empirical,theoretical"
    assert len(lines) == 33


def test_table_columns_must_have_one_length(tmp_path):
    with pytest.raises(ValueError):
        cli._write_csv(tmp_path / "out" / "t.csv", [("a", [1.0, 2.0]), ("b", [1.0])])
    assert not (tmp_path / "out").exists()  # a ragged table leaves no file


def test_table_values_keep_the_bytes_of_the_per_value_format(tmp_path):
    values = [np.inf, -np.inf, -0.0, 5e-324, 1.7976931348623157e308, np.nan, 0.1]
    path = tmp_path / "t.csv"
    cli._write_csv(path, [("a", values), ("b", values[::-1])])
    want = "a,b\n" + "".join(f"{_fmt(a)},{_fmt(b)}\n" for a, b in zip(values, values[::-1]))
    assert path.read_bytes() == want.encode()
    cli._write_csv(path, [("a", []), ("b", np.empty(0))])
    assert path.read_bytes() == b"a,b\n"


# ---------------------------------------------------------------------------
# field snapshots

def test_snapshot_roundtrip(tmp_path):
    out = tmp_path / "o"
    argv = ["simulate-pde", "--out", str(out), "--label", "p", "--snapshot-stride", "2",
            *PDE_SMALL]
    assert cli.main(argv) == 0
    cfg = _config(argv, "pde")
    f0 = gaussian_field(cfg.grid, cfg.init, cfg.params)
    sol = solve(f0, cfg.params, cfg.sim.t_end, snapshot_stride=2)
    files = sorted(out.glob("p_field_*.npz"))
    assert [f.name for f in files] == [f"p_field_{k:04d}.npz" for k in range(len(sol.snapshots))]
    for path, snap in zip(files, sol.snapshots):
        with np.load(path) as z:
            assert sorted(z.files) == ["epsilon", "nv", "nx", "rho", "t",
                                       "v_max", "v_min", "x_max", "x_min"]
            grid = Grid(**{k: z[k].item() for k in ("v_min", "v_max", "x_min", "x_max",
                                                    "nv", "nx")})
            assert grid == cfg.grid
            assert z["t"].item() == snap.t
            assert z["epsilon"].item() == 0.1
            assert np.array_equal(z["rho"], snap.rho)
    with np.load(files[0]) as z:
        assert np.array_equal(z["rho"], f0.rho)
    # a rerun writes the same bytes
    again = tmp_path / "again"
    assert cli.main([*argv, "--out", str(again)]) == 0
    assert all(f.read_bytes() == (again / f.name).read_bytes() for f in files)


# ---------------------------------------------------------------------------
# layout: only cli writes files

WRITE_CALLS = {"save", "savez", "savez_compressed", "mkdir", "write_text", "write_bytes",
               "tofile"}


def _file_writes(tree: ast.AST) -> list[str]:
    """Calls in tree that write files or make directories: the names in
    WRITE_CALLS, and open with a mode that is not a read-only literal."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in WRITE_CALLS:
            found.append(f"{name} at line {node.lineno}")
        elif name == "open":
            # open(file, mode) and path.open(mode)
            position = 1 if isinstance(func, ast.Name) else 0
            mode = next((kw.value for kw in node.keywords if kw.arg == "mode"),
                        node.args[position] if len(node.args) > position else None)
            if mode is not None and not (isinstance(mode, ast.Constant)
                                         and isinstance(mode.value, str)
                                         and not set(mode.value) & set("wax+")):
                found.append(f"open at line {node.lineno}")
    return found


def test_only_cli_writes_files():
    modules = sorted(PACKAGE.glob("*.py"))
    assert {m.name for m in modules} >= {"cli.py", "fokker_planck.py", "diagnostics.py"}
    writes = {m.name: _file_writes(ast.parse(m.read_text())) for m in modules}
    assert writes.pop("cli.py")  # the check sees cli's own writes
    assert writes == {name: [] for name in writes}


@pytest.mark.parametrize("source, caught", [
    ("open(p, 'w')", True), ("open(p, mode='ab')", True), ("p.open('r+')", True),
    ("open(p, m)", True), ("np.savez(p, a=a)", True), ("p.parent.mkdir()", True),
    ("p.write_text(s)", True), ("open(p)", False), ("open(p, 'rb')", False),
    ("p.open()", False), ("np.load(p)", False),
])
def test_layout_check_sees_each_kind_of_write(source, caught):
    assert bool(_file_writes(ast.parse(source))) == caught
