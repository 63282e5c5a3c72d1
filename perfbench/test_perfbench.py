"""Tests of the benchmark itself: each correctness check rejects a wrong
result, span self times are computed as documented, and every metric the
command prints is declared in BENCHMARK.json.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_period_check_rejects_a_shifted_period():
    ref = 5.0586
    assert checks.check_period(ref * 1.001, ref, 0.01) == []
    assert checks.check_period(ref * 1.02, ref, 0.01)
    assert checks.check_period(ref * 0.8, ref, 0.15)
    assert checks.check_period(float("nan"), ref, 0.15)


def test_series_period_of_a_sampled_sine():
    t = np.linspace(0.0, 11.2, 1121)
    period = checks.series_period(t, np.sin(2 * np.pi * t / 5.0586))
    assert abs(period - 5.0586) < 1e-3


def test_dop853_period_matches_a_known_orbit():
    # a = 0.3, b = 3, lambda = 4, i_ext = 10: the ensemble-narrow point
    (v_eq,) = checks.equilibrium_roots(0.3, 3.0, 4.0, 10.0)
    period = checks.dop853_period(0.3, 3.0, 4.0, 10.0, (v_eq + 0.5, 10.0 * v_eq), v_eq)
    assert abs(period - 5.0586) < 1e-3


def test_mass_check_rejects_a_drifting_series():
    steady = np.full(50, 1.0) + 1e-16 * np.sin(np.arange(50))
    assert checks.check_mass(steady, 1e-12) == []
    assert checks.check_mass(1.0 + 1e-10 * np.arange(50), 1e-12)


def test_regime_check_rejects_a_wrong_label():
    fig1 = (0.3, 0.1, 4.0, 0.0)          # three equilibria
    oscillatory = (0.3, 3.0, 4.0, 10.0)  # one unstable equilibrium
    monostable = (0.3, 0.1, 4.0, -10.0)  # one stable equilibrium
    assert checks.check_regime("Bistable", *fig1) == []
    assert checks.check_regime("MonostableStable", *fig1)
    assert checks.check_regime("Oscillatory", *oscillatory) == []
    assert checks.check_regime("MonostableStable", *oscillatory)
    assert checks.check_regime("MonostableStable", *monostable) == []
    assert checks.check_regime("Oscillatory", *monostable)


def test_regime_check_skips_the_degeneracy_band():
    # i_ext where the equilibrium cubic of fig1 has a double root
    lam, q = 4.0, 4.0 + 0.1 / 0.3
    v = ((1 + lam) - np.sqrt((1 + lam) ** 2 - 3 * q)) / 3.0
    i_sn = v ** 3 - (1 + lam) * v ** 2 + q * v
    assert checks.expected_regime(0.3, 0.1, lam, i_sn) is None


def test_profile_check_rejects_a_wrong_width():
    eps = 1.0 / 225.0
    centers = np.linspace(-0.4, 0.4, 64)
    exact = -0.5 * centers ** 2
    assert checks.check_profile(centers, exact, 0.0, 1.0, eps, 0.15, "v") == []
    assert checks.check_profile(centers, 4.0 * exact, 0.0, 1.0, eps, 0.01, "v")


def test_self_time_subtracts_direct_children():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 8]
    name = np.array([0, 1, 1, 2])
    parent = np.array([-1, 0, 0, 2])
    start = np.array([0.0, 1.0, 5.0, 6.0])
    end = np.array([10.0, 4.0, 9.0, 8.0])
    own = tracing.self_times(name, parent, start, end)
    assert np.allclose(own, [3.0, 3.0, 2.0, 2.0])


def test_tracer_wraps_and_restores():
    class Owner:
        @staticmethod
        def work(x):
            return x + 1

    tracer = tracing.Tracer()
    original = Owner.__dict__["work"]
    tracer.wrap(Owner, "work", "layer.work")
    with tracer.span("op"):
        assert Owner.work(1) == 2
    tracer.unwrap_all()
    assert Owner.__dict__["work"] is original
    tot = tracing.phase_totals(tracer, ("op",))["op"]
    assert tot["calls"]["layer.work"] == 1 and tot["roots"] == 1


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", ["ensemble-wide", "ensemble-narrow",
                                      "density-oracle", "regime-scan"])
@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_are_declared(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert workload in {w["name"] for w in spec["workloads"]}
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "regime-scan", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
