import json
from pathlib import Path

import numpy as np
import pytest

from fhn_meanfield import cli, presets
from fhn_meanfield.bifurcation import MONOSTABLE_STABLE, classify
from fhn_meanfield.cli import main
from fhn_meanfield.core import time_steps
from fhn_meanfield.fokker_planck import stable_dt
from fhn_meanfield.limit_ode import LimitState, equilibria, rk4_integrate
from fhn_meanfield.particle import default_dt, simulate

FAST_NET = ["--n", "64", "--t-end", "0.2", "--dt", "1e-3", "--epsilon", "0.05",
            "--seed", "3", "--record-stride", "20"]


def run(argv):
    return main(argv)


def test_classify_json(capsys):
    code = run(["classify", "--lambda", "4", "--a", "0.3", "--b", "0.1",
                "--i-ext", "0"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["regime"] == "Bistable"
    assert payload["delta"] == pytest.approx(143.96, abs=0.01)
    assert len(payload["equilibria"]) == 3
    assert "cycle" not in payload  # only detect-cycle integrates a cycle


def test_classify_json_out_file(tmp_path, capsys):
    out = tmp_path / "cls.json"
    assert run(["classify", "--i-ext", "4", "--a", "0.03",
                "--json-out", str(out)]) == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert payload["regime"] == "MonostableStable"


def test_simulate_network_outputs(tmp_path):
    out = tmp_path / "o"
    code = run(["simulate-network", "--out", str(out), "--label", "demo",
                *FAST_NET])
    assert code == 0
    csv = (out / "demo_timeseries.csv").read_text().splitlines()
    assert csv[0] == ("t,mean_v,mean_x,var_v,var_x,m4_v,m4_x,"
                      "q10_v,q25_v,q75_v,q90_v,q10_x,q25_x,q75_x,q90_x")
    summary = json.loads((out / "demo_summary.json").read_text())
    assert summary["version"]
    assert summary["config"]["params"]["epsilon"] == 0.05
    assert summary["config"]["sim"]["seed"] == 3
    assert set(summary["classification"]) == {"delta", "regime", "equilibria"}
    assert (out / "demo_vs_limit.csv").exists()


def test_simulate_network_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["simulate-network", "--out", str(out), "--label", "x",
                    *FAST_NET]) == 0
    assert (a / "x_timeseries.csv").read_bytes() == (b / "x_timeseries.csv").read_bytes()


def test_config_file_roundtrip_and_flag_override(tmp_path):
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("""
[params]
epsilon = 0.05
lambda = 4.0

[sim]
n = 32
t_end = 0.1
seed = 11

[init]
mean_v = 0.5
""".strip())
    out = tmp_path / "o"
    code = run(["simulate-network", "--config", str(cfgfile), "--out", str(out),
                "--label", "cfg", "--n", "16"])
    assert code == 0
    summary = json.loads((out / "cfg_summary.json").read_text())
    assert summary["config"]["sim"]["n"] == 16  # flag wins over file
    assert summary["config"]["init"]["mean_v"] == 0.5


def test_unknown_config_key_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[params]\nspeling = 1.0\n")
    assert run(["simulate-network", "--config", str(bad)]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_unknown_section_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[wheels]\nn = 4\n")
    assert run(["simulate-network", "--config", str(bad)]) == 2


def test_bad_value_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[sim]\nn = lots\n")
    assert run(["simulate-network", "--config", str(bad)]) == 2


def test_blowup_exits_3(tmp_path, capsys):
    code = run(["simulate-network", "--out", str(tmp_path), "--n", "8",
                "--epsilon", "1e-5", "--dt", "10.0", "--t-end", "20",
                "--init-mean-v", "3.0"])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_simulate_ode_outputs(tmp_path):
    out = tmp_path / "o"
    code = run(["simulate-ode", "--out", str(out), "--label", "ode",
                "--a", "0.3", "--b", "0.1", "--lambda", "4",
                "--t-end", "5", "--dt", "0.01", "--record-stride", "10",
                "--init-mean-v", "1.35", "--init-mean-x", "1.0"])
    assert code == 0
    lines = (out / "ode_ode.csv").read_text().splitlines()
    assert lines[0] == "t,alpha,beta"
    last = [float(tok) for tok in lines[-1].split(",")]
    assert last[0] == pytest.approx(5.0)


def test_simulate_pde_outputs(tmp_path):
    out = tmp_path / "o"
    code = run(["simulate-pde", "--out", str(out), "--label", "pde",
                "--epsilon", "0.2", "--t-end", "0.05",
                "--v-min", "-2", "--v-max", "4", "--x-min", "-2", "--x-max", "3",
                "--nv", "32", "--nx", "16", "--record-stride", "50",
                "--init-mean-v", "1.0", "--init-mean-x", "0.5"])
    assert code == 0
    summary = json.loads((out / "pde_summary.json").read_text())
    assert summary["results"]["mass_drift"] < 1e-10
    lines = (out / "pde_pde.csv").read_text().splitlines()
    assert lines[0] == "t,jg,mass"


PDE_SMALL = ["--epsilon", "0.1", "--t-end", "0.002", "--nv", "64", "--nx", "32",
             "--v-min", "-2", "--v-max", "4", "--x-min", "-2", "--x-max", "3",
             "--init-mean-v", "1.0", "--init-mean-x", "0.5"]


def test_simulate_pde_snapshot_stride_writes_fields(tmp_path):
    out = tmp_path / "o"
    assert run(["simulate-pde", "--out", str(out), "--label", "p",
                "--snapshot-stride", "1", *PDE_SMALL]) == 0
    summary = json.loads((out / "p_summary.json").read_text())
    n_steps = round(0.002 / summary["results"]["dt"])
    files = sorted(out.glob("p_field_*.npz"))
    assert len(files) == n_steps + 1
    assert summary["config"]["grid"]["snapshot_stride"] == 1
    with np.load(files[-1]) as field:
        assert field["epsilon"] == 0.1
        assert field["rho"].shape == (32, 64)
        assert field["t"] == pytest.approx(0.002)


def test_snapshot_stride_from_config_file_and_validation(tmp_path, capsys):
    cfgfile = tmp_path / "pde.ini"
    cfgfile.write_text("[grid]\nsnapshot_stride = 1000\n")
    out = tmp_path / "o"
    assert run(["simulate-pde", "--config", str(cfgfile), "--out", str(out),
                "--label", "p", *PDE_SMALL]) == 0
    # only the initial and the final fields within the horizon
    assert len(list(out.glob("p_field_*.npz"))) == 2
    assert run(["simulate-pde", "--snapshot-stride", "0", "--out", str(out),
                *PDE_SMALL]) == 2
    assert "snapshot_stride" in capsys.readouterr().err


def test_simulate_pde_summary_reports_solver_step(tmp_path):
    out = tmp_path / "o"
    assert run(["simulate-pde", "--out", str(out), "--label", "p",
                *PDE_SMALL]) == 0
    summary = json.loads((out / "p_summary.json").read_text())
    assert summary["results"]["dt"] < 1e-3  # below the particle default
    assert summary["config"]["sim"]["dt"] == summary["results"]["dt"]
    assert not list(out.glob("p_field_*"))


def test_simulate_pde_honours_user_step(tmp_path):
    out = tmp_path / "o"
    assert run(["simulate-pde", "--out", str(out), "--label", "p",
                "--dt", "1e-4", *PDE_SMALL]) == 0
    summary = json.loads((out / "p_summary.json").read_text())
    assert summary["results"]["dt"] == summary["config"]["sim"]["dt"] == 1e-4
    rows = (out / "p_pde.csv").read_text().splitlines()
    assert len(rows) == 1 + 3  # header, t=0 and every 10th of 20 steps


def test_simulate_pde_too_large_step_is_a_numerical_failure(tmp_path, capsys):
    code = run(["simulate-pde", "--out", str(tmp_path / "o"), "--label", "p",
                "--dt", "0.002", *PDE_SMALL])
    assert code == 3
    assert "stability bound" in capsys.readouterr().err


def test_simulate_ode_summary_reports_integrator_step(tmp_path):
    out = tmp_path / "o"
    assert run(["simulate-ode", "--out", str(out), "--label", "o",
                "--t-end", "0.05", "--record-stride", "1"]) == 0
    summary = json.loads((out / "o_summary.json").read_text())
    rows = (out / "o_ode.csv").read_text().splitlines()
    assert float(rows[2].split(",")[0]) == summary["config"]["sim"]["dt"] == 0.01


def test_compare_smoke(tmp_path):
    out = tmp_path / "o"
    code = run(["compare", "--out", str(out), "--label", "cmp",
                "--epsilon", "0.2", "--t-end", "0.5",
                "--n", "400", "--dt", "1e-3", "--record-stride", "50",
                "--v-min", "-2", "--v-max", "4", "--x-min", "-2", "--x-max", "3",
                "--nv", "48", "--nx", "24",
                "--init-mean-v", "1.0", "--init-mean-x", "0.5", "--seeds", "2"])
    assert code == 0
    summary = json.loads((out / "cmp_summary.json").read_text())
    res = summary["results"]
    assert res["seeds_averaged"] == 2
    assert res["sup_network_vs_pde"] < 0.5
    assert (out / "cmp_compare.csv").exists()


def test_detect_cycle_oscillatory(capsys):
    code = run(["detect-cycle", "--a", "0.01", "--b", "0.1", "--lambda", "4",
                "--i-ext", "6.0", "--max-time", "1500"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["regime"] == "Oscillatory"
    assert payload["cycle"]["period"] > 0


def test_detect_cycle_stable_returns_null(capsys):
    code = run(["detect-cycle", "--a", "0.3", "--b", "0.1", "--lambda", "4",
                "--i-ext", "0.0", "--init-mean-v", "3.5", "--init-mean-x", "1.0"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cycle"] is None


@pytest.mark.parametrize("i_ext", ["5.4", "5.5"])
def test_detect_cycle_reports_no_cycle_at_a_weakly_damped_focus(capsys, i_ext):
    code = run(["detect-cycle", "--a", "0.01", "--b", "0.1", "--lambda", "4",
                "--i-ext", i_ext])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["regime"] == "MonostableStable"
    assert payload["cycle"] is None


def test_detect_cycle_exits_3_on_a_non_finite_trajectory(capsys):
    # an oscillatory point started where RK4 at the cycle step blows up
    code = run(["detect-cycle", "--a", "0.1", "--b", "1", "--i-ext", "6",
                "--init-mean-v", "20"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "numerical failure: limit trajectory non-finite" in captured.err


def test_detect_cycle_starts_from_any_init_source(tmp_path, capsys):
    bistable = ["detect-cycle", "--a", "0.3", "--b", "0.1", "--i-ext", "0.0"]
    ini = tmp_path / "init.ini"
    ini.write_text("[init]\nmean_v = 3.5\nmean_x = 1.0\n")
    fig4 = presets.load("fig4").runs[0]
    sources = [
        # without an init source: the first equilibrium shifted by 0.5 in v
        (bistable, (0.4999999999999989, -3.700743415417189e-16)),
        (["detect-cycle", "--a", "0.3", "--b", "3", "--i-ext", "10"],
         (1.4999999999999998, 9.999999999999998)),
        ([*bistable, "--config", str(ini)], (3.5, 1.0)),
        ([*bistable, "--init-mean-v", "3.5", "--init-mean-x", "1.0"], (3.5, 1.0)),
        ([*bistable, "--preset", f"fig4:{fig4.label}"],
         (fig4.init.mean_v, fig4.init.mean_x)),
    ]
    for argv, start in sources:
        assert run(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        init = payload["config"]["init"]
        assert (payload["start"]["alpha"], payload["start"]["beta"]) == start
        assert (init["mean_v"], init["mean_x"]) == start
        if argv is bistable:
            e = payload["equilibria"][0]
            assert start == (e["v"] + 0.5, e["x"])


def test_detect_cycle_reads_its_config_file_once(tmp_path, monkeypatch, capsys):
    ini = tmp_path / "init.ini"
    ini.write_text("[params]\na = 0.3\n")
    loads = []
    load = cli.load_config_file

    def counted(path):
        loads.append(path)
        return load(path)

    monkeypatch.setattr(cli, "load_config_file", counted)
    assert run(["detect-cycle", "--config", str(ini), "--i-ext", "0.0"]) == 0
    capsys.readouterr()
    assert loads == [str(ini)]


# (a, b, lambda, i_ext) within a relative 1e-13 to 1e-7 of a saddle-node
# current, where Delta's rounding error exceeds DEGENERACY_TOL
NEAR_SADDLE_NODE = (0.012248716169534374, 11.90727040338958, 332.33613833763485,
                    1283.7933467569262)


def test_classify_and_simulate_ode_run_near_a_saddle_node(tmp_path, capsys):
    a, b, lam, i_ext = (repr(x) for x in NEAR_SADDLE_NODE)
    params = ["--a", a, "--b", b, "--lambda", lam, "--i-ext", i_ext]
    assert run(["classify", *params]) == 0
    assert len(json.loads(capsys.readouterr().out)["equilibria"]) == 1
    out = tmp_path / "o"
    assert run(["simulate-ode", *params, "--t-end", "0.0001", "--out", str(out),
                "--label", "sn"]) == 0
    summary = json.loads((out / "sn_summary.json").read_text())
    assert summary["classification"]["regime"] == "MonostableStable"


def test_compare_starts_the_limit_at_the_seed_averaged_means(tmp_path):
    out = tmp_path / "o"
    assert run(["compare", "--out", str(out), "--label", "c", "--epsilon", "0.2",
                "--t-end", "0.01", "--n", "64", "--dt", "1e-3", "--nv", "24",
                "--nx", "16", "--v-min", "-2", "--v-max", "4", "--x-min", "-2",
                "--x-max", "3", "--seeds", "2"]) == 0
    header, first = (out / "c_compare.csv").read_text().splitlines()[:2]
    row = dict(zip(header.split(","), map(float, first.split(","))))
    assert row["t"] == 0.0
    assert row["mean_v_network"] == row["alpha_limit"]


@pytest.mark.parametrize("argv, series", [
    (["simulate-network", "--n", "100", "--dt", "0.005", "--t-end", "0.002"], "timeseries"),
    (["simulate-network", "--n", "100", "--epsilon", "0.05", "--t-end", "0.0004"],
     "timeseries"),
    (["simulate-ode", "--t-end", "0.004"], "ode"),
    (["compare", "--epsilon", "0.2", "--t-end", "0.0004", "--n", "16", "--nv", "16",
      "--nx", "16"], "compare"),
])
def test_runs_shorter_than_one_step_take_one_step(tmp_path, argv, series):
    out = tmp_path / "o"
    assert run([*argv, "--out", str(out), "--label", "one"]) == 0
    t_end = float(argv[argv.index("--t-end") + 1])
    summary = json.loads((out / "one_summary.json").read_text())
    assert summary["config"]["sim"]["dt"] == t_end
    rows = (out / f"one_{series}.csv").read_text().splitlines()[1:]
    assert [float(row.split(",")[0]) for row in rows] == [0.0, t_end]


@pytest.mark.parametrize("t_end, dt, step", [
    (0.25, 1 / 2250, 0.25 / 563),  # ensemble-wide's horizon and step
    (0.002, 0.005, 0.002),
    (0.07, 7e-4, 7e-4),  # 100 * 7e-4 != 0.07
])
def test_network_and_limit_system_record_the_same_times(t_end, dt, step):
    stride = 7
    args = cli.build_parser().parse_args([
        "simulate-network", "--preset", "fig1:epsinv225", "--n", "50",
        "--t-end", repr(t_end), "--dt", repr(dt), "--record-stride", str(stride)])
    cfg = cli.resolve_config(args, "network")
    rec = simulate(cfg.sim, cfg.params, cfg.init)
    ref = cli.reference_trajectory(cfg, rec.mean_v[0], rec.mean_x[0], rec.dt)
    ode = rk4_integrate(LimitState(0.0, -1.0, 0.0), cfg.params, dt, t_end,
                        record_stride=stride)
    n_steps = round(t_end / step)
    assert rec.dt == step
    assert len(rec) == 1 + -(-n_steps // stride)
    assert np.array_equal(rec.t, ref.t) and np.array_equal(rec.t, ode.t)
    assert rec.t[-1] == t_end == rec.final_state.t


def test_every_preset_run_keeps_its_step_count_and_step():
    for name in presets.available():
        for r in presets.load(name).runs:
            dt = r.sim.dt if r.sim.dt is not None else default_dt(r.params)
            assert time_steps(r.sim.t_end, dt) == (round(r.sim.t_end / dt), dt), r.label


def test_fig3_notes_state_its_classification():
    fig3 = presets.load("fig3")
    notes = " ".join(fig3.notes)
    for r in fig3.runs:
        rep = classify(r.params)
        (e,) = rep.equilibria
        low, high = sorted(z.real for z in e.eigenvalues)
        assert rep.regime == MONOSTABLE_STABLE and (e.v, e.x) == pytest.approx((3.0, 10.0))
        assert (f"stable node at (v, x) = (3, 10), eigenvalues {low:.3f} and {high:.3f}"
                in notes)
    assert "separatrix" not in notes and "focus" not in notes


def test_fig4_and_fig5_start_at_their_only_equilibrium(monkeypatch):
    for name in ("fig4", "fig5"):
        for r in presets.load(name).runs:
            assert [(r.init.mean_v, r.init.mean_x)] == equilibria(r.params), r.label
    monkeypatch.setattr(presets, "equilibria", lambda p: [(0.0, 0.0), (1.0, 0.1), (2.0, 0.2)])
    for name in ("fig4", "fig5"):
        with pytest.raises(ValueError):  # several equilibria: no start is picked
            presets.load(name)


def test_a_run_checks_its_output_directory_once(tmp_path, monkeypatch):
    checked = []
    real = cli._non_directory
    monkeypatch.setattr(cli, "_non_directory", lambda path: checked.append(path) or real(path))
    assert run(["simulate-ode", "--t-end", "0.1", "--dt", "0.05", "--out", str(tmp_path),
                "--label", "o"]) == 0
    summary = json.loads((tmp_path / "o_summary.json").read_text())
    assert summary["config"]["sim"]["dt"] == 0.05
    assert checked == [tmp_path]


@pytest.mark.parametrize("argv", [
    ["simulate-network", "--t-end", "nan"],
    ["simulate-network", "--t-end", "inf"],
    ["simulate-ode", "--t-end", "nan"],
    ["simulate-pde", "--t-end", "nan"],
    ["simulate-network", "--dt", "nan"],
    ["simulate-network", "--lambda", "nan"],
    ["simulate-network", "--sigma", "nan"],
    ["simulate-network", "--a", "inf"],
    ["simulate-network", "--init-mean-v", "nan"],
    ["simulate-network", "--truncation", "inf"],
    ["simulate-pde", "--v-max", "inf"],
    ["compare", "--epsilon=-inf"],
    ["classify", "--lambda", "nan"],
])
def test_non_finite_input_exits_2_before_any_output(tmp_path, capsys, argv):
    out = tmp_path / "o"
    out_flag = [] if argv[0] == "classify" else ["--out", str(out)]
    assert run([*argv, *out_flag]) == 2
    captured = capsys.readouterr()
    assert "must be finite" in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("argv", [
    ["simulate-network", "--n", "16", "--t-end", "0.01", "--dt", "1e-300"],
    ["simulate-network", "--n", "16", "--t-end", "1e300"],
    ["simulate-ode", "--t-end", "1", "--dt", "1e-300"],
    ["simulate-pde", "--t-end", "1", "--dt", "1e-300"],
    ["compare", "--t-end", "1", "--dt", "1e-300"],
])
def test_huge_step_counts_exit_2_before_any_output(tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert run([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "steps" in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("argv", [
    ["simulate-pde", "--epsilon", "1e-4", "--t-end", "1000"],
    ["compare", "--epsilon", "1e-4", "--t-end", "1000", "--n", "16"],
])
def test_density_step_counts_over_the_bound_exit_2_before_any_work(tmp_path, monkeypatch,
                                                                   capsys, argv):
    # the solver's own step, stable_dt = 7e-7 here, would take 1.4e9 steps
    def no_work(*args, **kwargs):
        raise AssertionError("the run started")

    for name in ("simulate", "solve"):
        monkeypatch.setattr(cli, name, no_work)
    out = tmp_path / "o"
    assert run([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "steps" in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("command", ["classify", "detect-cycle", "simulate-ode",
                                     "simulate-pde"])
def test_an_overflowing_discriminant_exits_2_before_any_output(tmp_path, capsys, command):
    # q = lambda + b/a = 1e119, so q ** 3 overflows
    out = tmp_path / "o"
    out_flag = [] if command in ("classify", "detect-cycle") else ["--out", str(out),
                                                                   "--t-end", "0.001"]
    assert run([command, "--a", "1e-120", *out_flag]) == 2
    captured = capsys.readouterr()
    assert "discriminant is not finite" in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("max_time", ["nan", "-5", "0", "inf"])
def test_detect_cycle_rejects_a_bad_max_time(capsys, max_time):
    assert run(["detect-cycle", "--max-time", max_time]) == 2
    captured = capsys.readouterr()
    assert "--max-time" in captured.err and captured.out == ""


def test_env_var_default_outdir(tmp_path, monkeypatch):
    monkeypatch.setenv("FHN_MEANFIELD_OUT", str(tmp_path / "envout"))
    monkeypatch.chdir(tmp_path)
    assert run(["simulate-network", "--label", "env", *FAST_NET]) == 0
    assert (tmp_path / "envout" / "env_summary.json").exists()


def test_preset_requires_label_when_ambiguous(capsys):
    assert run(["simulate-network", "--preset", "fig1"]) == 2
    assert "several runs" in capsys.readouterr().err


def test_preset_single_run_override(tmp_path):
    out = tmp_path / "o"
    # preset fields resolved, then overridden to a tiny footprint
    code = run(["simulate-network", "--preset", "fig1:epsinv25",
                "--out", str(out), "--n", "32", "--t-end", "0.1"])
    assert code == 0
    summary = json.loads((out / "epsinv25_summary.json").read_text())
    assert summary["config"]["params"]["epsilon"] == pytest.approx(1 / 25)
    assert summary["config"]["sim"]["n"] == 32


def test_scenario_rejects_unknown_preset():
    with pytest.raises(SystemExit) as info:
        run(["scenario", "fig9"])
    assert info.value.code == 2


def _ini_from_config(config: dict) -> str:
    """The INI sections of a summary's config block, unset (null) keys left out."""
    lines = []
    for section, values in config.items():
        if not isinstance(values, dict):
            continue
        lines.append(f"[{section}]")
        for key, value in values.items():
            if isinstance(value, list):
                value = ", ".join(repr(v) for v in value)
            if value is not None:
                lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("command, argv", [
    ("simulate-network", [*FAST_NET, "--adaptation-noise", "false",
                          "--quantiles", "0.05,0.5,0.95", "--truncation", "6",
                          "--init-kind", "point", "--init-mean-x", "0.25"]),
    ("simulate-pde", [*PDE_SMALL, "--snapshot-stride", "7", "--b", "0.2"]),
])
def test_summary_config_round_trips_through_an_ini_file(tmp_path, command, argv):
    out = tmp_path / "o"
    assert run([command, "--out", str(out), "--label", "first", *argv]) == 0
    config = json.loads((out / "first_summary.json").read_text())["config"]
    ini = tmp_path / "again.ini"
    ini.write_text(_ini_from_config(config))
    (out / "first_summary.json").unlink()
    assert run([command, "--config", str(ini)]) == 0
    again = json.loads((out / "first_summary.json").read_text())["config"]
    assert again == config


# parser -> (text, the value the summary echoes)
SAMPLE_VALUES = {float: ("0.5", 0.5), int: ("9", 9), cli._parse_bool: ("off", False),
                 cli._parse_floats: ("0.2,0.8", [0.2, 0.8]), str: ("point", "point"),
                 Path: ("elsewhere", "elsewhere")}
# a network run rejects a cluster wider than min(a, 1) = 0.3 at the default a
SAMPLE_CONCENTRATION = ("0.2", 0.2)


@pytest.mark.parametrize("row", cli._KEYS, ids=lambda row: f"{row[0]}.{row[1]}")
def test_every_key_is_accepted_as_flag_and_as_ini_key(tmp_path, row):
    section, key, _, parse, _ = row
    text, expected = SAMPLE_CONCENTRATION if key == "concentration" else SAMPLE_VALUES[parse]
    command, model = (("simulate-pde", "pde") if section == "grid"
                      else ("simulate-network", "network"))
    ini = tmp_path / "one.ini"
    ini.write_text(f"[{section}]\n{key} = {text}\n")
    _, flags = cli._flag(section, key)
    parser = cli.build_parser()
    for argv in ([command, flags[0], text], [command, "--config", str(ini)]):
        cfg = cli.resolve_config(parser.parse_args(argv), model)
        assert cfg.to_dict()[section][key] == expected, argv


def test_removed_keys_exit_2(tmp_path, capsys):
    for text in ("[model]\nkind = network\n", "[init]\noffset = 0.1\n"):
        bad = tmp_path / "removed.ini"
        bad.write_text(text)
        assert run(["simulate-network", "--config", str(bad)]) == 2
        assert "unknown" in capsys.readouterr().err
    with pytest.raises(SystemExit) as info:
        run(["simulate-network", "--init-offset", "0.1"])
    assert info.value.code == 2


def test_adaptation_noise_flag_takes_the_ini_words(tmp_path):
    out = tmp_path / "o"
    assert run(["simulate-network", "--out", str(out), "--label", "q",
                "--adaptation-noise", "no", *FAST_NET]) == 0
    summary = json.loads((out / "q_summary.json").read_text())
    assert summary["config"]["params"]["adaptation_noise"] is False


COMPARE_SMALL = ["compare", "--epsilon", "0.2", "--t-end", "0.01", "--n", "16",
                 "--nv", "16", "--nx", "16"]


@pytest.mark.parametrize("epsilon, warned", [("0.015", True), ("0.02", False)])
def test_compare_warns_below_the_density_solver_epsilon(tmp_path, capsys, epsilon, warned):
    argv = ["compare", "--epsilon", epsilon, "--t-end", "0.0004", "--n", "16",
            "--nv", "16", "--nx", "16", "--out", str(tmp_path / "o")]
    assert run(argv) == 0
    err = capsys.readouterr().err
    assert (f"warning: epsilon={epsilon} below {cli.PDE_EPSILON_WARN}" in err) == warned


@pytest.mark.parametrize("seeds", ["0", "-1"])
def test_compare_rejects_seeds_below_one(tmp_path, capsys, seeds):
    out = tmp_path / "o"
    assert run([*COMPARE_SMALL, "--out", str(out), "--seeds", seeds]) == 2
    assert "seeds must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["simulate-network", "--n", "16", "--t-end", "0.1"],
    ["simulate-pde", *PDE_SMALL],
    ["simulate-ode", "--t-end", "0.1"],
    COMPARE_SMALL,
], ids=["simulate-network", "simulate-pde", "simulate-ode", "compare"])
@pytest.mark.parametrize("label", ["a/b", ".", "..", "/abs"])
def test_a_label_that_is_a_path_exits_2_before_any_output(tmp_path, capsys, argv, label):
    out = tmp_path / "o"
    assert run([*argv, "--label", label, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "label must be a file name" in captured.err
    assert captured.out == "" and not out.exists()
    ini = tmp_path / "label.ini"
    ini.write_text(f"[output]\nlabel = {label}\n")
    assert run([*argv, "--config", str(ini), "--out", str(out)]) == 2
    assert "label must be a file name" in capsys.readouterr().err
    assert not out.exists()


def test_bad_quantiles_are_configuration_errors(tmp_path, capsys):
    out = tmp_path / "o"
    for value in ("0.5,2", ""):
        assert run(["simulate-network", "--out", str(out), *FAST_NET,
                    "--quantiles", value]) == 2
        assert "quantile fractions" in capsys.readouterr().err
    ini = tmp_path / "q.ini"
    ini.write_text("[sim]\nquantiles = 0.5, 2\n")
    assert run(["simulate-network", "--out", str(out), "--config", str(ini)]) == 2
    assert "quantile fractions" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [COMPARE_SMALL, ["simulate-pde", *PDE_SMALL]])
def test_density_solver_needs_a_gaussian_cluster(tmp_path, capsys, argv):
    ini = tmp_path / "point.ini"
    ini.write_text("[init]\nkind = point\n")
    out = tmp_path / "o"
    assert run([*argv, "--out", str(out), "--config", str(ini)]) == 2
    captured = capsys.readouterr()
    assert "gaussian initial cluster" in captured.err
    assert captured.out == "" and not out.exists()


def test_simulate_pde_step_above_the_horizon_is_one_checked_step(tmp_path, capsys):
    out = tmp_path / "o"
    # one step of t_end = 0.002, above this grid's stability bound
    assert run(["simulate-pde", "--out", str(out), "--dt", "0.005", *PDE_SMALL]) == 3
    assert "stability bound" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_pde_failure_names_the_time_and_the_cell(tmp_path, capsys):
    out = tmp_path / "o"
    # one step of 0.001 on the default grid, whose bound is 4.61e-05
    assert run(["simulate-pde", "--out", str(out), "--t-end", "0.001", "--dt", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.err == ("numerical failure: dt=0.001 violates the stability bound "
                            "4.61e-05 in the step to t=0.001 (limiting cell ix=0, iv=0)\n")
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("argv", [
    ["simulate-network", "--n", "16", "--dt", "0.5", "--t-end", "20",
     "--init-kind", "point", "--init-mean-v", "1e10"],
    ["simulate-ode", "--dt", "0.5", "--t-end", "20", "--init-mean-v", "1e10"],
    # a cluster on the density grid (v in [-12, 12]), so the network blows up
    ["compare", "--epsilon", "0.2", "--n", "16", "--dt", "0.5", "--t-end", "20",
     "--init-mean-v", "10", "--nv", "16", "--nx", "16"],
], ids=["simulate-network", "simulate-ode", "compare"])
def test_a_numerical_failure_leaves_no_output_directory(tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert run([*argv, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert "numerical failure" in captured.err
    assert captured.out == "" and not out.exists()


def test_simulate_pde_preset_takes_the_solvers_own_step(tmp_path):
    out = tmp_path / "o"
    argv = ["simulate-pde", "--preset", "fig1:epsinv25", "--t-end", "0.01"]
    assert run([*argv, "--out", str(out)]) == 0
    summary = json.loads((out / "epsinv25_summary.json").read_text())
    cfg = cli.resolve_config(cli.build_parser().parse_args(argv), "pde")
    assert cfg.sim.dt is None
    step = time_steps(0.01, stable_dt(cfg.grid, cfg.params))[1]
    assert summary["results"]["dt"] == summary["config"]["sim"]["dt"] == step
    assert step == pytest.approx(5.49e-5, rel=1e-3)
    # the network levels keep the preset's step eps/10
    for command, model in (("simulate-network", "network"), ("compare", "compare")):
        args = cli.build_parser().parse_args([command, "--preset", "fig1:epsinv25"])
        assert cli.resolve_config(args, model).sim.dt == pytest.approx(0.004)


@pytest.mark.parametrize("source", ["flag", "file"])
def test_simulate_pde_preset_step_yields_to_a_given_dt(tmp_path, source):
    ini = tmp_path / "dt.ini"
    ini.write_text("[sim]\ndt = 5e-5\n")
    given = ["--dt", "5e-5"] if source == "flag" else ["--config", str(ini)]
    out = tmp_path / "o"
    assert run(["simulate-pde", "--preset", "fig1:epsinv25", "--t-end", "0.01",
                "--out", str(out), *given]) == 0
    summary = json.loads((out / "epsinv25_summary.json").read_text())
    assert summary["results"]["dt"] == summary["config"]["sim"]["dt"] == 5e-5


RUNS_SMALL = {
    "simulate-network": ["simulate-network", "--n", "16", "--t-end", "0.1"],
    "simulate-pde": ["simulate-pde", *PDE_SMALL],
    "simulate-ode": ["simulate-ode", "--t-end", "0.1"],
    "compare": COMPARE_SMALL,
}


@pytest.mark.parametrize("command", RUNS_SMALL)
@pytest.mark.parametrize("where", ["file", "under a file", "ini under a file"])
def test_an_unusable_output_path_exits_2_before_any_work(tmp_path, monkeypatch, capsys,
                                                        command, where):
    def no_work(*args, **kwargs):
        raise AssertionError("the run started")

    for name in ("simulate", "solve", "rk4_integrate"):
        monkeypatch.setattr(cli, name, no_work)
    blocker = tmp_path / "taken"
    blocker.write_text("keep")
    out = blocker if where == "file" else blocker / "sub"
    given = ["--out", str(out)]
    if where.startswith("ini"):
        ini = tmp_path / "out.ini"
        ini.write_text(f"[output]\ndirectory = {out}\n")
        given = ["--config", str(ini)]
    assert run([*RUNS_SMALL[command], *given]) == 2
    captured = capsys.readouterr()
    assert f"{str(blocker)!r} is not a directory" in captured.err
    assert captured.out == "" and blocker.read_text() == "keep"


@pytest.mark.parametrize("where", ["directory", "under a file"])
def test_classify_rejects_an_unusable_json_out_before_printing(tmp_path, capsys, where):
    (tmp_path / "taken").write_text("keep")
    target = tmp_path if where == "directory" else tmp_path / "taken" / "cls.json"
    assert run(["classify", "--json-out", str(target)]) == 2
    captured = capsys.readouterr()
    assert "--json-out" in captured.err and captured.out == ""
    assert (tmp_path / "taken").read_text() == "keep"


def test_classify_ignores_a_file_named_like_the_default_output(tmp_path, monkeypatch,
                                                               capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("FHN_MEANFIELD_OUT", raising=False)
    (tmp_path / "out").write_text("not a directory")
    assert run(["classify"]) == 0
    assert run(["detect-cycle", "--a", "0.3", "--b", "0.1", "--i-ext", "0.0"]) == 0


def test_scenario_runs_several_presets_or_all(tmp_path, monkeypatch):
    labels = []

    def fake_run_network(cfg):
        labels.append((cfg.preset, cfg.label, cfg.out_dir))
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        return {"classification": {"regime": "stub"}, "results": {}}

    monkeypatch.setattr(cli, "run_network", fake_run_network)
    assert run(["scenario", "fig1", "fig4", "--out", str(tmp_path / "a")]) == 0
    assert sorted({p for p, _, _ in labels}) == ["fig1", "fig4"]
    assert all(d == tmp_path / "a" / p for p, _, d in labels)
    report = json.loads((tmp_path / "a" / "fig4" / "fig4_scenario.json").read_text())
    assert [r["label"] for r in report["runs"]] == ["i5", "i5.4", "i5.7"]
    labels.clear()
    assert run(["scenario", "all", "--out", str(tmp_path / "b")]) == 0
    assert sorted({p for p, _, _ in labels}) == list(presets.available())
    assert all((tmp_path / "b" / p / f"{p}_scenario.json").exists()
               for p in presets.available())


@pytest.mark.parametrize("argv", [
    ["simulate-network", "--n", "16", "--t-end", "0.1", "--init-concentration", "0.9"],
    ["simulate-network", "--n", "16", "--t-end", "0.1", "--a", "0.1",
     "--init-concentration", "0.2"],
    [*COMPARE_SMALL, "--init-concentration", "0.9"],
])
def test_too_wide_initial_cluster_exits_2_before_any_output(tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert run([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "exceeds min(a, 1)" in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("argv", [["simulate-pde", *PDE_SMALL], COMPARE_SMALL],
                         ids=["simulate-pde", "compare"])
@pytest.mark.parametrize("source", ["sigma = 0.5", "sigma = 0", "adaptation_noise = off",
                                    "fig5:i5.534"])
def test_density_runs_reject_noise_the_solver_does_not_model(tmp_path, capsys, argv,
                                                             source):
    if source.startswith("fig5"):
        given = ["--preset", source]  # sigma 0.5
    else:
        ini = tmp_path / "noise.ini"
        ini.write_text(f"[params]\n{source}\n")
        given = ["--config", str(ini)]
    out = tmp_path / "o"
    assert run([*argv, *given, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "sigma = 1 and adaptation noise on" in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("argv", [
    ["simulate-pde", "--init-mean-v", "100", "--t-end", "0.001"],
    [*COMPARE_SMALL, "--init-mean-x", "100"],
], ids=["simulate-pde", "compare"])
def test_a_cluster_off_the_grid_exits_2_before_any_work(tmp_path, monkeypatch, capsys,
                                                        argv):
    def no_work(*args, **kwargs):
        raise AssertionError("the run started")

    for name in ("simulate", "solve"):
        monkeypatch.setattr(cli, name, no_work)
    out = tmp_path / "o"
    assert run([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "initial density has no mass on this grid" in captured.err
    assert captured.out == "" and not out.exists()


def test_a_config_file_serves_every_command(tmp_path, capsys):
    # one file describes one experiment; a command ignores the keys it does
    # not read and echoes only those it reads
    ini = tmp_path / "all.ini"
    ini.write_text("[params]\nsigma = 0.5\nepsilon = 0.05\ntruncation = 9\n"
                   "[sim]\nn = 16\nt_end = 0.05\nseed = 4\nquantiles = 0.5\n"
                   "[init]\nkind = point\nmean_v = 1.0\nconcentration = 0.2\n")
    out = tmp_path / "o"
    assert run(["simulate-ode", "--config", str(ini), "--out", str(out), "--label", "x"]) == 0
    summary = json.loads((out / "x_summary.json").read_text())
    assert "seed" not in summary
    assert summary["config"]["params"] == {"a": 0.3, "b": 0.1, "lambda": 4.0, "i_ext": 0.0,
                                           "truncation": 9.0}
    assert summary["config"]["sim"] == {"dt": 0.01, "t_end": 0.05, "record_stride": 10}
    assert summary["config"]["init"] == {"mean_v": 1.0, "mean_x": 0.0}
    assert run(["classify", "--config", str(ini)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"] == {"model": "classify", "preset": None, "params": {
        "a": 0.3, "b": 0.1, "lambda": 4.0, "i_ext": 0.0}}
    assert run(["simulate-network", "--config", str(ini), "--out", str(out),
                "--label", "n"]) == 0
    summary = json.loads((out / "n_summary.json").read_text())
    assert summary["seed"] == summary["config"]["sim"]["seed"] == 4
    assert summary["config"]["params"]["sigma"] == 0.5


REMOVED_FLAGS = {
    "simulate-pde": ["--sigma", "--adaptation-noise", "--n", "--seed", "--quantiles",
                     "--init-kind"],
    "simulate-ode": ["--sigma", "--epsilon", "--adaptation-noise", "--n", "--seed",
                     "--quantiles", "--init-kind", "--init-concentration"],
    "classify": ["--n", "--dt", "--t-end", "--seed", "--record-stride", "--quantiles",
                 "--out", "--label", "--sigma", "--epsilon", "--adaptation-noise",
                 "--truncation"],
    "detect-cycle": ["--n", "--dt", "--t-end", "--seed", "--record-stride", "--quantiles",
                     "--out", "--label", "--sigma", "--epsilon", "--adaptation-noise",
                     "--init-kind", "--init-concentration"],
    "compare": ["--snapshot-stride", "--quantiles", "--init-kind", "--sigma",
                "--adaptation-noise"],
}


@pytest.mark.parametrize("command, flag", [(c, f) for c, flags in REMOVED_FLAGS.items()
                                           for f in flags])
def test_flags_of_keys_a_command_does_not_read_exit_2(tmp_path, monkeypatch, capsys,
                                                     command, flag):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("FHN_MEANFIELD_OUT", raising=False)
    value = {"--adaptation-noise": "off", "--init-kind": "point",
             "--quantiles": "0.5"}.get(flag, "1")
    with pytest.raises(SystemExit) as info:
        run([command, flag, value])
    assert info.value.code == 2
    captured = capsys.readouterr()
    # --n is also a prefix of simulate-pde's --nv and --nx
    assert ("unrecognized arguments" in captured.err
            or "ambiguous option: --n " in captured.err)
    assert captured.out == ""
    assert not list(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# no flag is ignored: each one, set away from its value in a small base run,
# changes the run's files or printed JSON beyond the config echo

GUARD_BASE = {
    "simulate-network": ["--n", "16", "--t-end", "0.05", "--dt", "0.01",
                         "--record-stride", "1", "--init-mean-v", "1.0"],
    "simulate-pde": ["--epsilon", "0.2", "--t-end", "0.02", "--nv", "16", "--nx", "16",
                     "--v-min", "-2", "--v-max", "4", "--x-min", "-2", "--x-max", "3",
                     "--record-stride", "1", "--init-mean-v", "1.0",
                     "--init-mean-x", "0.5"],
    "simulate-ode": ["--t-end", "0.5", "--record-stride", "1", "--init-mean-v", "1.0"],
    "classify": [],
    "detect-cycle": ["--a", "0.2", "--b", "2", "--i-ext", "8"],  # a cycle of period 7
    "compare": ["--epsilon", "0.2", "--t-end", "0.01", "--n", "16", "--dt", "1e-3",
                "--nv", "16", "--nx", "16", "--v-min", "-2", "--v-max", "4",
                "--x-min", "-2", "--x-max", "3", "--record-stride", "1",
                "--init-mean-v", "1.0", "--init-mean-x", "0.5"],
}

# flag -> its value in the varied run; every value differs from the base run's
GUARD_VALUES = {
    "--preset": "fig3:epsinv10_v1.2", "--a": "0.5", "--b": "0.2", "--lambda": "3.5",
    "--i-ext": "0.5", "--sigma": "0.5", "--epsilon": "0.05", "--adaptation-noise": "off",
    "--truncation": "0.5", "--n": "20", "--dt": "5e-4", "--t-end": "0.03", "--seed": "5",
    "--record-stride": "2", "--quantiles": "0.5", "--v-min": "-3", "--v-max": "5",
    "--x-min": "-3", "--x-max": "4", "--nv": "24", "--nx": "24", "--snapshot-stride": "1",
    "--init-kind": "point", "--init-mean-v": "1.5", "--init-mean-x": "0.25",
    "--init-concentration": "0.2", "--out": "elsewhere", "--label": "other",
    "--json-out": "report.json", "--max-time": "5", "--seeds": "2",
}


def _registered_flags():
    sub = next(a for a in cli.build_parser()._actions if a.choices)
    return [(command, action.option_strings[0])
            for command, parser in sub.choices.items() if command != "scenario"
            for action in parser._actions
            if action.option_strings and action.dest != "help"]


def _without_echo(payload: dict) -> dict:
    return {k: v for k, v in payload.items() if k not in ("config", "runtime_sec")}


def _outcome(root: Path, argv, monkeypatch, capsys):
    """Exit code, printed JSON and files (JSON without the config echo and
    the runtime) of one run in a fresh directory root."""
    root.mkdir()
    monkeypatch.chdir(root)
    code = run(argv)
    printed = capsys.readouterr().out
    files = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            if path.suffix == ".json":
                data = _without_echo(json.loads(data))
            files[str(path.relative_to(root))] = data
    return code, _without_echo(json.loads(printed)) if printed else None, files


@pytest.mark.parametrize("command, flag", _registered_flags(),
                         ids=lambda v: v)
def test_no_flag_is_ignored(tmp_path, monkeypatch, capsys, command, flag):
    monkeypatch.setenv("FHN_MEANFIELD_OUT", "out")
    base = [command, *GUARD_BASE[command]]
    if flag == "--config":
        value = str(tmp_path / "b.ini")
        Path(value).write_text("[params]\nlambda = 3.5\n")
    else:
        value = GUARD_VALUES[flag]
    default = _outcome(tmp_path / "base", base, monkeypatch, capsys)
    varied = _outcome(tmp_path / "varied", [*base, flag, value], monkeypatch, capsys)
    assert default[0] == 0
    assert varied[0] == (4 if flag == "--max-time" else 0)  # 4: budget exhausted
    assert varied != default
