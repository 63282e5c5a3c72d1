import math
import re
import sys

import numpy as np
import pytest

from fhn_meanfield import fokker_planck
from fhn_meanfield.core import InitCondition, ModelParams, time_steps
from fhn_meanfield.fokker_planck import (CFL_SAFETY, NEGATIVITY_TOL, CflError,
                                         DensityField, Grid, SchemeError, cfl_limit,
                                         first_moment, fp_step, gaussian_field,
                                         hopf_cole, mass, solve, stable_dt)
from fhn_meanfield.limit_ode import equilibria

P01 = ModelParams(a=0.3, b=0.1, lam=4.0, i_ext=0.0, epsilon=0.1)


def small_grid(nv=48, nx=32):
    return Grid(v_min=-2.0, v_max=6.0, x_min=-2.0, x_max=4.0, nv=nv, nx=nx)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(v_min=1.0, v_max=-1.0, x_min=0.0, x_max=1.0, nv=16, nx=16)
    with pytest.raises(ValueError):
        Grid(v_min=-1.0, v_max=1.0, x_min=0.0, x_max=1.0, nv=4, nx=16)


def test_gaussian_field_has_unit_mass():
    f = gaussian_field(small_grid(), InitCondition(mean_v=1.0, mean_x=0.5), P01)
    assert mass(f) == pytest.approx(1.0, abs=1e-12)
    assert f.rho.min() >= 0.0


def test_first_moment_of_discretized_gaussian():
    # fine grid, N(mu=1.5, var=0.05): quadrature against the closed form
    grid = Grid(v_min=-1.0, v_max=4.0, x_min=-1.0, x_max=1.0, nv=400, nx=16)
    v = grid.v_centers()[None, :]
    x = grid.x_centers()[:, None]
    rho = (np.exp(-(v - 1.5) ** 2 / 0.1) * np.exp(-x ** 2 / 0.1))
    rho /= rho.sum() * grid.dv * grid.dx
    f = DensityField(grid, rho, 0.0)
    assert first_moment(f) == pytest.approx(1.5, abs=1e-3)


def test_first_moment_odd_symmetry():
    grid = Grid(v_min=-3.0, v_max=3.0, x_min=-1.0, x_max=1.0, nv=64, nx=16)
    v = grid.v_centers()[None, :]
    rho = np.exp(-v ** 2) * np.ones((16, 1))
    rho /= rho.sum() * grid.dv * grid.dx
    assert abs(first_moment(DensityField(grid, rho, 0.0))) < 1e-12


def test_first_moment_single_cell():
    grid = small_grid()
    rho = np.zeros((grid.nx, grid.nv))
    iv, ix = 20, 7
    rho[ix, iv] = 1.0 / (grid.dv * grid.dx)
    got = first_moment(DensityField(grid, rho, 0.0))
    assert abs(got - grid.v_centers()[iv]) <= grid.dv / 2


def test_mass_conserved_per_step():
    f = gaussian_field(small_grid(), InitCondition(mean_v=2.0, mean_x=1.0), P01)
    dt = stable_dt(f.grid, P01)
    m0 = mass(f)
    for _ in range(25):
        f = fp_step(f, P01, dt)
        assert abs(mass(f) - m0) < 1e-13
    assert f.rho.min() >= -1e-12


def test_cfl_violation_names_cell_and_required_dt():
    f = gaussian_field(small_grid(), InitCondition(mean_v=2.0, mean_x=1.0), P01)
    with pytest.raises(CflError) as info:
        fp_step(f, P01, dt=1.0)
    err = info.value
    assert err.required_dt < 1.0
    assert 0 <= err.cell[0] < f.grid.nx and 0 <= err.cell[1] < f.grid.nv
    assert "stability" in str(err)
    # the message names the step that failed and the cell
    assert "in the step to t=1 " in str(err) and err.t == 1.0
    assert f"ix={err.cell[0]}, iv={err.cell[1]})" in str(err)


@pytest.mark.parametrize("dt", [-1.0, np.nan, np.inf, 0.0])
def test_fp_step_names_a_bad_step(dt):
    f = gaussian_field(small_grid(), InitCondition(mean_v=2.0, mean_x=1.0), P01)
    with pytest.raises(ValueError, match=r"^dt must be finite and > 0, got"):
        fp_step(f, P01, dt)


def test_negative_density_guard():
    # solve refuses such a density before its first step, so the step's own
    # guard is reached through the kernel
    from fhn_meanfield.fokker_planck import _UpwindKernel
    grid = small_grid()
    rho = np.zeros((grid.nx, grid.nv))
    rho[5, 5] = -1.0
    rho[2, 40] = -0.5  # earlier in the row-major order, but not the lowest
    dt = stable_dt(grid, P01)
    kernel = _UpwindKernel(grid, P01, dt)
    with pytest.raises(SchemeError) as info:
        kernel.step(rho, np.empty_like(rho), first_moment(DensityField(grid, rho)), 0.25 + dt)
    # the lowest cell of the failed density, named with its time
    assert info.value.cell == (5, 5) and info.value.t == 0.25 + dt
    assert str(info.value).endswith(f"at t={0.25 + dt:.6g} (cell ix=5, iv=5)")


def test_nan_moment_trips_the_negativity_guard():
    from fhn_meanfield.fokker_planck import _UpwindKernel
    f = gaussian_field(small_grid(), InitCondition(mean_v=1.0, mean_x=0.5), P01)
    dt = time_steps(0.01, stable_dt(f.grid, P01))[1]
    kernel = _UpwindKernel(f.grid, P01, dt)
    with pytest.raises(SchemeError, match="nan") as info:
        kernel.step(f.rho, np.empty_like(f.rho), np.nan, dt)
    assert info.value.cell == (0, 0)  # a NaN moment spreads NaN everywhere
    assert info.value.t == dt


@pytest.mark.filterwarnings("ignore:overflow encountered")  # the 1e308 cell's J[g]
@pytest.mark.parametrize("value, cell, what", [
    (np.inf, (0, 0), "inf at cell ix=0, iv=0"),
    (-np.inf, (3, 7), "-inf at cell ix=3, iv=7"),
    (np.nan, (5, 5), "nan at cell ix=5, iv=5"),
    (-1.0, (31, 47), "-1.000e+00 at cell ix=31, iv=47"),
    (1e308, (0, 0), "J[g] of the initial density is -inf: its largest cell, ix=0, iv=0"),
])
def test_solve_rejects_a_bad_initial_density_before_its_first_step(monkeypatch, value,
                                                                   cell, what):
    f = gaussian_field(small_grid(), InitCondition(mean_v=1.0, mean_x=0.5), P01)
    f.rho[cell] = value
    rho0 = f.rho.copy()
    steps = []
    monkeypatch.setattr(fokker_planck._UpwindKernel, "step",
                        lambda *args: steps.append(args))
    for call in (lambda: solve(f, P01, 0.01), lambda: solve(f, P01, 0.0),
                 lambda: fp_step(f, P01, 1e-4)):
        with pytest.raises(ValueError, match=r"^(the initial density is )?" + re.escape(what)) as info:
            call()
        assert not isinstance(info.value, (CflError, SchemeError))
    assert steps == [] and np.array_equal(f.rho, rho0, equal_nan=True)


def test_solve_takes_an_initial_density_at_the_negativity_tolerance():
    f = gaussian_field(small_grid(), InitCondition(mean_v=1.0, mean_x=0.5), P01)
    f.rho[4, 4] = NEGATIVITY_TOL
    _solve_matching_the_reference(f, P01, 0.01, snapshot_stride=5)


@pytest.mark.parametrize("changes", [dict(sigma=0.5), dict(sigma=0.0),
                                     dict(adaptation_noise=False)])
def test_density_solver_rejects_noise_it_does_not_model(changes):
    # the density equation has unit v-diffusion and eps x-diffusion
    p = ModelParams(a=0.3, b=0.1, lam=4.0, i_ext=0.0, epsilon=0.1, **changes)
    f = gaussian_field(small_grid(), InitCondition(mean_v=1.0, mean_x=0.5), p)
    for call in (lambda: solve(f, p, 0.01), lambda: solve(f, p, 0.0),
                 lambda: fp_step(f, p, 1e-4)):
        with pytest.raises(ValueError, match="sigma = 1 and adaptation noise on"):
            call()


def test_solve_zero_horizon():
    f = gaussian_field(small_grid(), InitCondition(mean_v=1.0, mean_x=0.0), P01)
    sol = solve(f, P01, 0.0)
    assert len(sol.t) == 1 and sol.mass[0] == pytest.approx(1.0, abs=1e-12)


def test_mass_drift_over_many_steps():
    grid = Grid(v_min=-2.0, v_max=6.0, x_min=-2.0, x_max=4.0, nv=24, nx=16)
    f = gaussian_field(grid, InitCondition(mean_v=1.0, mean_x=0.5), P01)
    dt = stable_dt(grid, P01)
    sol = solve(f, P01, t_end=10_000 * dt, dt=dt, record_stride=1000)
    drift = np.abs(sol.mass - sol.mass[0]).max()
    assert drift < 1e-9


def test_late_time_density_concentrates_at_equilibrium():
    p = P01
    grid = Grid(v_min=-2.0, v_max=6.5, x_min=-2.0, x_max=4.0, nv=96, nx=48)
    f = gaussian_field(grid, InitCondition(mean_v=3.2, mean_x=1.2,
                                           concentration=0.3), p)
    sol = solve(f, p, t_end=4.0, record_stride=10**9, snapshot_stride=10**9)
    final = sol.snapshots[-1]
    ix, iv = np.unravel_index(np.argmax(final.rho), final.rho.shape)
    vstar, xstar = equilibria(p)[-1]
    assert abs(final.grid.v_centers()[iv] - vstar) <= 2 * grid.dv
    assert abs(final.grid.x_centers()[ix] - xstar) <= 2 * grid.dx


def test_hopf_cole_inverts_exponential_fields():
    grid = small_grid()
    p = P01
    v = grid.v_centers()[None, :]
    x = grid.x_centers()[:, None]
    q = -0.5 * (v - 1.0) ** 2 - 0.15 * (x - 0.5) ** 2
    f = DensityField(grid, np.exp(q / p.epsilon), 0.0)
    hc = hopf_cole(f, p)
    assert not hc.mask.any()
    assert np.max(np.abs(hc.psi - q)) < 1e-8


def test_hopf_cole_peak_near_zero_for_normalized_gaussian():
    p = P01
    f = gaussian_field(small_grid(128, 64), InitCondition(mean_v=1.0, mean_x=0.5,
                                                          concentration=0.3), p)
    hc = hopf_cole(f, p)
    tol = p.epsilon * abs(np.log(2 * np.pi * p.epsilon))
    assert abs(hc.psi.max()) < 2 * tol


def test_hopf_cole_mask_grows_as_epsilon_shrinks():
    # wide domain so the corner tails actually underflow the floor
    grid = Grid(v_min=-12.0, v_max=12.0, x_min=-12.0, x_max=12.0, nv=64, nx=64)
    fractions = []
    for eps in (0.05, 0.01):
        p = ModelParams(a=0.3, b=0.1, lam=4.0, epsilon=eps)
        f = gaussian_field(grid, InitCondition(mean_v=1.0, mean_x=0.5,
                                               concentration=0.3), p)
        hc = hopf_cole(f, p)
        fractions.append(hc.mask.mean())
    assert 0.0 < fractions[0] < fractions[1]


def test_cfl_limit_matches_formula():
    f = gaussian_field(small_grid(), InitCondition(mean_v=1.0, mean_x=0.5), P01)
    jg = first_moment(f)
    dt_max, _ = cfl_limit(f, P01, jg)
    g = f.grid
    # independent evaluation of the bound on the worst cell
    from fhn_meanfield.core import voltage_drift
    vc = g.v_centers()[None, :]
    xc = g.x_centers()[:, None]
    uv = np.abs(-voltage_drift(vc, xc, jg, P01))
    ux = np.abs(P01.a * xc - P01.b * vc)
    denom = uv / g.dv + ux / g.dx + 2 * (1 / g.dv ** 2 + P01.epsilon / g.dx ** 2)
    assert dt_max == pytest.approx(0.9 / denom.max(), rel=1e-12)


# ---------------------------------------------------------------------------
# solve against a plain loop of the original single-step formula

def _reference_step(f, p, dt):
    """The explicit update written out plainly, as fp_step was before solve
    got its preallocated kernel; solve must reproduce it bit for bit."""
    from fhn_meanfield.core import voltage_drift
    if not dt > 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    g = f.grid
    rho = f.rho
    jg = first_moment(f)

    dt_max, cell = cfl_limit(f, p, jg)
    if dt > dt_max:
        raise CflError(
            f"dt={dt:.3g} violates the stability bound {dt_max:.3g} "
            f"(limiting cell ix={cell[0]}, iv={cell[1]})",
            required_dt=dt_max, cell=cell, t=f.t + dt)

    # v-direction interface fluxes H = U g_up + d_v g, zero at the walls
    hv = np.zeros((g.nx, g.nv + 1))
    hv[:, 1:-1] = (rho[:, 1:] - rho[:, :-1]) / g.dv
    uvf = -voltage_drift(g.v_faces_interior()[None, :], g.x_centers()[:, None], jg, p)
    hv[:, 1:-1] += np.where(uvf <= 0.0, uvf * rho[:, :-1], uvf * rho[:, 1:])

    # x-direction interface fluxes H = U g_up + eps d_x g
    hx = np.zeros((g.nx + 1, g.nv))
    hx[1:-1, :] = p.epsilon * (rho[1:, :] - rho[:-1, :]) / g.dx
    uxf = p.a * g.x_faces_interior()[:, None] - p.b * g.v_centers()[None, :]
    hx[1:-1, :] += np.where(uxf <= 0.0, uxf * rho[:-1, :], uxf * rho[1:, :])

    rho_new = rho + dt * ((hv[:, 1:] - hv[:, :-1]) / g.dv
                          + (hx[1:, :] - hx[:-1, :]) / g.dx)

    worst = float(rho_new.min())
    if worst < NEGATIVITY_TOL:
        raise SchemeError(f"density fell to {worst:.3e} at t={f.t + dt:.6g}",
                          cell=divmod(int(np.argmin(rho_new)), g.nv), t=f.t + dt)
    return DensityField(grid=g, rho=rho_new, t=f.t + dt)


def _reference_solve(f0, p, t_end, *, dt=None, record_stride=1, snapshot_stride=None):
    # dt (stable_dt when not given) bounds the step: it is kept when it
    # divides t_end to a relative 1e-9, and shrinks to t_end/ceil(t_end/dt)
    # otherwise
    if dt is None:
        dt = stable_dt(f0.grid, p)
    n_steps = round(t_end / dt)
    if t_end > 0 and not (n_steps >= 1 and abs(n_steps * dt - t_end) <= 1e-9 * t_end):
        n_steps = math.ceil(t_end / dt)
        dt = t_end / n_steps
    f = f0
    times, jgs, masses = [f.t], [first_moment(f)], [mass(f)]
    snaps = [] if snapshot_stride is None else [DensityField(f.grid, f.rho.copy(), f.t)]
    for k in range(n_steps):
        f = _reference_step(f, p, dt)
        last = k + 1 == n_steps
        # step k ends at (k + 1) dt, the last one at t_end exactly
        f.t = f0.t + (t_end if last else (k + 1) * dt)
        if (k + 1) % record_stride == 0 or last:
            times.append(f.t)
            jgs.append(first_moment(f))
            masses.append(mass(f))
        if snapshot_stride is not None and ((k + 1) % snapshot_stride == 0 or last):
            snaps.append(DensityField(f.grid, f.rho.copy(), f.t))
    return np.asarray(times), np.asarray(jgs), np.asarray(masses), dt, snaps


P_TRUNC = ModelParams(a=0.3, b=0.1, lam=4.0, i_ext=0.5, epsilon=0.1, truncation=3.0)

SOLVE_CASES = {
    "default_dt": (P01, 0.3, dict(record_stride=7, snapshot_stride=11)),
    "user_dt": (P01, 0.2, dict(dt=0.2 / np.ceil(0.2 / (0.7 * stable_dt(small_grid(), P01))),
                               record_stride=3, snapshot_stride=5)),
    "truncation": (P_TRUNC, 0.3, dict(record_stride=13, snapshot_stride=17)),
    "every_step": (P01, 0.02, dict(snapshot_stride=1)),
    "shrunk_dt": (P01, 0.2, dict(dt=3e-4, record_stride=6, snapshot_stride=25)),
    "zero_horizon": (P01, 0.0, dict(snapshot_stride=1)),
}


def _solve_matching_the_reference(f0, p, t_end, **kw):
    """solve from f0, asserted equal to the reference loop bit for bit."""
    rho0 = f0.rho.copy()
    sol = solve(f0, p, t_end, **kw)
    t, jg, m, dt, snaps = _reference_solve(f0, p, t_end, **kw)
    assert np.array_equal(f0.rho, rho0)  # solve never writes its input
    assert sol.dt == dt
    assert np.array_equal(sol.t, t)
    assert np.array_equal(sol.jg, jg)
    assert np.array_equal(sol.mass, m)
    assert len(sol.snapshots) == len(snaps)
    for got, want in zip(sol.snapshots, snaps):
        assert got.t == want.t
        assert np.array_equal(got.rho, want.rho)
    return sol


@pytest.mark.parametrize("case", sorted(SOLVE_CASES))
def test_solve_bit_identical_to_reference_loop(case):
    p, t_end, kw = SOLVE_CASES[case]
    f0 = gaussian_field(small_grid(), InitCondition(mean_v=1.0, mean_x=0.5), p)
    sol = _solve_matching_the_reference(f0, p, t_end, **kw)
    assert len(sol.snapshots) >= 1


@pytest.mark.parametrize("record_stride", [1, 7, 10 ** 9])
def test_solve_reads_the_first_moment_of_each_density_once(monkeypatch, record_stride):
    # f0 and each step's density, whether recorded or not
    f0 = gaussian_field(small_grid(), InitCondition(mean_v=1.0, mean_x=0.5), P01)
    calls = []
    monkeypatch.setattr(fokker_planck, "first_moment",
                        lambda f: calls.append(f) or first_moment(f))
    sol = solve(f0, P01, 0.1, record_stride=record_stride)
    n_steps = time_steps(0.1, stable_dt(f0.grid, P01))[0]
    assert n_steps > 7 and len(sol.t) == 1 + -(-n_steps // record_stride)
    assert len(calls) == n_steps + 1


def test_fp_step_bit_identical_to_reference_step():
    f = gaussian_field(small_grid(), InitCondition(mean_v=1.0, mean_x=0.5), P_TRUNC)
    f.t = 0.25
    dt = stable_dt(f.grid, P_TRUNC)
    got, want = fp_step(f, P_TRUNC, dt), _reference_step(f, P_TRUNC, dt)
    assert got.t == want.t
    assert np.array_equal(got.rho, want.rho)


# ---------------------------------------------------------------------------
# the kernel's flat v-fluxes, with one wall slot at each row end

# the density-oracle benchmark grid; P01 is fig1 at eps = 0.1
ORACLE_GRID = Grid(v_min=-1.5, v_max=7.0, x_min=-2.5, x_max=4.5, nv=256, nx=112)


def _mass_drift(sol):
    return np.abs(sol.mass - sol.mass[0]).max()


def test_mass_at_the_row_ends_stays_in_its_row():
    # mass only in the first and last v-columns: a wall slot between two
    # rows that kept its difference would move mass from one row to the next
    grid = small_grid()
    rng = np.random.default_rng(5)
    rho = np.zeros((grid.nx, grid.nv))
    rho[:, 0] = rng.uniform(0.5, 1.5, grid.nx)
    rho[:, -1] = rng.uniform(0.5, 1.5, grid.nx)
    rho /= rho.sum() * grid.dv * grid.dx
    f0 = DensityField(grid, rho)
    sol = _solve_matching_the_reference(f0, P01, 0.01, snapshot_stride=5)
    assert _mass_drift(sol) <= 1e-12
    got, want = fp_step(f0, P01, sol.dt), _reference_step(f0, P01, sol.dt)
    assert np.array_equal(got.rho, want.rho)


@pytest.mark.parametrize("nv, nx", [(8, 13), (11, 8)])
def test_small_grids_with_nx_not_nv_match_the_reference(nv, nx):
    grid = small_grid(nv=nv, nx=nx)
    f0 = gaussian_field(grid, InitCondition(mean_v=1.0, mean_x=0.5), P01)
    sol = _solve_matching_the_reference(f0, P01, 0.2, record_stride=3, snapshot_stride=4)
    assert _mass_drift(sol) <= 1e-12


def test_density_oracle_grid_matches_the_reference():
    f0 = gaussian_field(ORACLE_GRID, InitCondition(mean_v=2.0, mean_x=1.0,
                                                   concentration=0.3), P01)
    dt = stable_dt(ORACLE_GRID, P01)
    sol = _solve_matching_the_reference(f0, P01, 20 * dt, dt=dt, record_stride=4,
                                        snapshot_stride=10)
    assert len(sol.t) == 6 and sol.t[-1] == 20 * dt
    assert _mass_drift(sol) <= 1e-12


@pytest.mark.parametrize("layout", ["fortran", "strided"])
def test_an_initial_density_that_is_not_c_ordered(layout):
    grid = small_grid()
    rho = gaussian_field(grid, InitCondition(mean_v=1.0, mean_x=0.5), P01).rho
    base = None
    if layout == "fortran":
        rho = np.asfortranarray(rho)
    else:
        base = np.full((grid.nx, 2 * grid.nv), -7.0)
        base[:, 1::2] = rho
        rho = base[:, 1::2]
    f0 = DensityField(grid, rho, 0.5)
    assert f0.rho is rho and not rho.flags.c_contiguous
    sol = _solve_matching_the_reference(f0, P01, 0.02, record_stride=2, snapshot_stride=3)
    assert _mass_drift(sol) <= 1e-12
    got, want = fp_step(f0, P01, sol.dt), _reference_step(f0, P01, sol.dt)
    assert np.array_equal(got.rho, want.rho)
    if base is not None:
        assert (base[:, ::2] == -7.0).all()  # the cells between stay unwritten


def test_kernel_steps_allocate_less_than_half_a_grid_array():
    import tracemalloc

    from fhn_meanfield.fokker_planck import _UpwindKernel
    f0 = gaussian_field(ORACLE_GRID, InitCondition(mean_v=2.0, mean_x=1.0,
                                                   concentration=0.3), P01)
    dt = stable_dt(ORACLE_GRID, P01)
    kernel = _UpwindKernel(ORACLE_GRID, P01, dt)
    bufs = [f0.rho.copy(), np.empty_like(f0.rho)]
    jg = first_moment(f0)
    kernel.step(bufs[0], bufs[1], jg, dt)  # warm-up
    tracemalloc.start()
    try:
        for k in range(10):
            kernel.step(bufs[k % 2], bufs[(k + 1) % 2], jg, (k + 2) * dt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < f0.rho.nbytes / 2


@pytest.mark.parametrize("grid", [ORACLE_GRID, small_grid(nv=11, nx=9)],
                         ids=["oracle", "small"])
def test_every_array_a_step_streams_over_starts_on_a_cache_line(grid):
    from fhn_meanfield.fokker_planck import _UpwindKernel
    held = []
    for size in (0, 1, 40, 4096 + 24, 3 * grid.nx * grid.nv + 8):
        held.append(bytearray(size))  # heap states that numpy's arrays inherit
        k = _UpwindKernel(grid, P01, stable_dt(grid, P01))
        # _fv[1:], where the v-passes write, rather than _fv itself
        streamed = [k._fv[1:], k._hx, k._scratch, k._drift_v, k._speed_x, k._up_v,
                    k._up_x, *k.buffers]
        assert [a.ctypes.data % 64 for a in streamed] == [0] * len(streamed)
        assert all(a.flags.c_contiguous and a.flags.writeable for a in streamed)


def _at_line_offset(rho, offset):
    """A copy of rho whose first byte lies offset bytes past a 64-byte line."""
    raw = np.empty(rho.nbytes + 64, dtype=np.uint8)
    start = (offset - raw.ctypes.data) % 64
    out = raw[start:start + rho.nbytes].view(float).reshape(rho.shape)
    out[...] = rho
    return out


def test_solve_gives_the_same_bits_wherever_the_initial_density_lies():
    f0 = gaussian_field(ORACLE_GRID, InitCondition(mean_v=2.0, mean_x=1.0,
                                                   concentration=0.3), P01)
    horizon = 20 * stable_dt(ORACLE_GRID, P01)

    def run(rho):
        kept = rho.copy()
        sol = solve(DensityField(ORACLE_GRID, rho, 0.5), P01, horizon, record_stride=3,
                    snapshot_stride=7)
        assert np.array_equal(rho, kept)  # solve never writes its input
        return sol

    want = run(f0.rho)
    placed = [_at_line_offset(f0.rho, offset) for offset in range(0, 64, 8)]
    assert sorted(rho.ctypes.data % 64 for rho in placed) == list(range(0, 64, 8))
    sols = [run(rho) for rho in placed]
    for size in (1, 4097, (1 << 20) + 3):
        junk = bytearray(size)  # an odd-sized allocation just before the call
        sols.append(run(f0.rho))
        del junk
    for sol in sols:
        assert np.array_equal(sol.t, want.t)
        assert np.array_equal(sol.jg, want.jg)
        assert np.array_equal(sol.mass, want.mass)
        assert len(sol.snapshots) == len(want.snapshots) == 4
        for got, ref in zip(sol.snapshots, want.snapshots):
            assert got.t == ref.t and np.array_equal(got.rho, ref.rho)


def test_first_moment_reuses_one_read_only_centres_array():
    grid = small_grid()
    vc = grid.v_centers()
    assert grid.v_centers() is vc and not vc.flags.writeable
    fresh = grid.v_min + (np.arange(grid.nv) + 0.5) * grid.dv
    assert np.array_equal(vc, fresh)
    f = gaussian_field(grid, InitCondition(mean_v=1.0, mean_x=0.5), P01)
    assert first_moment(f) == float((f.rho @ fresh).sum() * grid.dv * grid.dx)


@pytest.mark.parametrize("kw, what", [
    (dict(dt=-1e-4), "dt"), (dict(dt=0.0), "dt"),
    (dict(record_stride=0), "record_stride"), (dict(snapshot_stride=0), "snapshot_stride")])
def test_solve_rejects_bad_steps_and_strides(kw, what):
    f = gaussian_field(small_grid(), InitCondition(mean_v=1.0, mean_x=0.5), P01)
    with pytest.raises(ValueError, match=what):
        solve(f, P01, 0.01, **kw)


def test_solve_shrinks_a_step_that_does_not_divide_the_horizon():
    f = gaussian_field(small_grid(), InitCondition(mean_v=1.0, mean_x=0.5), P01)
    for t_end, dt, n_steps in ((0.01, 3e-4, 34), (0.002, 3e-4, 7), (5e-4, 1e-3, 1)):
        sol = solve(f, P01, t_end, dt=dt)
        assert sol.dt == t_end / n_steps < dt
        assert len(sol.t) == n_steps + 1 and sol.t[-1] == t_end
    sol = solve(f, P01, 0.07, dt=7e-4)  # a step that divides is kept
    assert sol.dt == 7e-4 and len(sol.t) == 101
    assert sol.t[-1] == 0.07 != 100 * 7e-4


def test_solve_too_large_dt_raises_the_cfl_limit_error():
    f = gaussian_field(small_grid(), InitCondition(mean_v=1.0, mean_x=0.5), P01)
    dt_max, cell = cfl_limit(f, P01, first_moment(f))
    with pytest.raises(CflError) as info:
        solve(f, P01, 0.2, dt=0.05)
    assert info.value.required_dt == dt_max
    assert info.value.cell == cell


def test_moment_jump_outside_domain_fails_at_the_reference_step(monkeypatch):
    # dt is stable for the initial moment 1.0, whose bound is 1.2266e-3, but
    # not once the moment, relaxing towards rest, falls below 0.929: solve,
    # which checks each step's moment against the kernel's closed form, must
    # fail where the reference loop, which calls cfl_limit each step, fails
    f = gaussian_field(small_grid(), InitCondition(mean_v=1.0, mean_x=0.5), P01)
    dt = 0.5 / 410
    assert cfl_limit(f, P01, first_moment(f))[0] > dt
    errors = []
    for owner, name, run in ((fokker_planck, "_bound", solve),
                             (sys.modules[__name__], "cfl_limit", _reference_solve)):
        asked = []
        check = getattr(owner, name)

        def recording(*args, asked=asked, check=check):
            asked.append(args[-1])
            return check(*args)

        monkeypatch.setattr(owner, name, recording)
        with pytest.raises(CflError) as info:
            run(f, P01, 0.5, dt=dt)
        errors.append((len(asked), asked[-1], info.value.required_dt, info.value.cell,
                       info.value))
    (steps_fast, *fast, err_fast), (steps_ref, *ref, err_ref) = errors
    # the same step fails, at the same moment, bound and cell
    assert steps_fast == steps_ref > 50 and fast == ref
    assert ref[0] < 0.93 and err_fast.t == steps_ref * dt
    # the reference's message, naming also the step that failed
    step_to = f" in the step to t={steps_ref * dt:.6g} (limiting"
    assert str(err_fast) == str(err_ref).replace(" (limiting", step_to)


def test_default_step_solve_evaluates_the_grid_bound_once(monkeypatch):
    # the full-grid CFL terms are computed by stable_dt and by the kernel,
    # and every step checks its moment in closed form: no step calls
    # cfl_limit or walks the grid for its bound
    calls = []
    for name in ("cfl_limit", "_cfl_terms"):
        def counting(*args, name=name, exact=getattr(fokker_planck, name)):
            calls.append(name)
            return exact(*args)

        monkeypatch.setattr(fokker_planck, name, counting)
    f = gaussian_field(small_grid(), InitCondition(mean_v=1.0, mean_x=0.5), P01)
    sol = solve(f, P01, 0.1, record_stride=10)
    assert small_grid().v_min < sol.jg.min() and sol.jg.max() < small_grid().v_max
    assert len(sol.t) > 10 and calls == ["_cfl_terms", "_cfl_terms"]


# ---------------------------------------------------------------------------
# the CFL bounds against an independent per-cell evaluation, and the
# worst-case bound as it stood before it became the closed form

def _old_denominators(g, p, jg):
    from fhn_meanfield.core import voltage_drift
    vc = g.v_centers()[None, :]
    xc = g.x_centers()[:, None]
    denom = 2.0 * (1.0 / g.dv ** 2 + p.epsilon / g.dx ** 2)
    denom = np.full((g.nx, g.nv), denom)
    uv = np.abs(-voltage_drift(vc, xc, jg, p))
    ux = np.abs(p.a * xc - p.b * vc)
    return denom + uv / g.dv + ux / g.dx


def _old_cfl_limit(f, p, jg):
    denom = _old_denominators(f.grid, p, jg)
    worst = int(np.argmax(denom))
    return CFL_SAFETY / float(denom.max()), divmod(worst, f.grid.nv)


def _old_stable_dt(grid, p):
    from fhn_meanfield.core import voltage_drift
    vc = grid.v_centers()[None, :]
    xc = grid.x_centers()[:, None]
    base = np.abs(-voltage_drift(vc, xc, vc, p))
    reach = np.maximum(vc - grid.v_min, grid.v_max - vc) / p.epsilon
    uv = base + reach
    ux = np.abs(p.a * xc - p.b * vc)
    denom = uv / grid.dv + ux / grid.dx + 2.0 * (1.0 / grid.dv ** 2 + p.epsilon / grid.dx ** 2)
    return CFL_SAFETY / float(denom.max())


def _exact_worst_case(grid, p, scan=9):
    """The smallest per-cell bound over both ends of [v_min, v_max] and a
    scan of the moments between."""
    f = DensityField(grid, np.zeros((grid.nx, grid.nv)))
    return min(_old_cfl_limit(f, p, jg)[0]
               for jg in np.linspace(grid.v_min, grid.v_max, scan))


def test_cfl_bounds_match_their_per_cell_formulas():
    from fhn_meanfield.fokker_planck import _UpwindKernel
    rng = np.random.default_rng(20181018)
    raised = passed = larger = 0
    for case in range(300):
        p = ModelParams(a=rng.uniform(0.01, 1.0), b=rng.uniform(0.0, 1.0),
                        lam=rng.uniform(0.5, 6.0), i_ext=rng.uniform(-2.0, 6.0),
                        epsilon=10.0 ** rng.uniform(-2.0, 0.0),
                        truncation=None if case % 2 else rng.uniform(1.0, 8.0))
        v_min, x_min = rng.uniform(-4.0, -0.5, size=2)
        grid = Grid(v_min=v_min, v_max=v_min + rng.uniform(1.0, 10.0),
                    x_min=x_min, x_max=x_min + rng.uniform(1.0, 8.0),
                    nv=int(rng.integers(8, 65)), nx=int(rng.integers(8, 49)))
        f = DensityField(grid, np.zeros((grid.nx, grid.nv)))
        # stable_dt: the smaller bound at the two ends, the exact worst case
        bound = stable_dt(grid, p)
        ends = min(cfl_limit(f, p, grid.v_min)[0], cfl_limit(f, p, grid.v_max)[0])
        assert bound == ends
        assert bound == pytest.approx(_exact_worst_case(grid, p), rel=1e-12)
        old = _old_stable_dt(grid, p)
        assert bound >= old * (1.0 - 1e-12)
        larger += bound > old * (1.0 + 1e-12)
        # cfl_limit and the kernel's check, at moments in and beyond the grid
        dt = bound * 10.0 ** rng.uniform(-0.5, 0.5)
        kernel = _UpwindKernel(grid, p, dt)
        out = np.empty((grid.nx, grid.nv))
        for jg in rng.uniform(grid.v_min - 2.0, grid.v_max + 2.0, size=3):
            dt_max, cell = cfl_limit(f, p, jg)
            assert dt_max == pytest.approx(_old_cfl_limit(f, p, jg)[0], rel=1e-12)
            denom = _old_denominators(grid, p, jg)
            assert denom[cell] == pytest.approx(denom.max(), rel=1e-12)
            try:
                kernel.step(f.rho, out, jg, 1.0)
            except CflError as err:
                assert dt > dt_max and (err.required_dt, err.cell) == (dt_max, cell)
                raised += 1
            else:
                assert dt <= dt_max
                passed += 1
    assert raised > 50 and passed > 50 and larger > 0


def test_stable_dt_is_the_worst_case_over_moments():
    # on a grid that starts above 0, the triangle-inequality bound of the
    # old stable_dt read 1.2159e-3
    grid = Grid(0.5, 3.0, -1.0, 2.0, 32, 16)
    assert stable_dt(grid, P01) == pytest.approx(_exact_worst_case(grid, P01, scan=101),
                                                 rel=1e-12)
    assert stable_dt(grid, P01) == pytest.approx(1.3831e-3, rel=1e-4)


def test_no_shipped_configuration_changes_its_density_step():
    from fhn_meanfield import presets
    horizons = [(ORACLE_GRID, P01, t_end) for t_end in (0.05, 5e-4)]  # the benchmark's
    for name in presets.available():
        for run in presets.load(name).runs:
            span = 3.0 * run.params.lam  # the command line's default grid
            grid = Grid(-span, span, -span, span, 128, 64)
            if run.params.sigma == 1.0:
                horizons.append((grid, run.params, run.sim.t_end))
    assert len(horizons) > 10
    for grid, p, t_end in horizons:
        assert time_steps(t_end, stable_dt(grid, p)) == time_steps(t_end, _old_stable_dt(grid, p))
