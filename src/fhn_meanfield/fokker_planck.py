"""Conservative finite-volume solver for the self-consistent density
equation on a truncated (x, v) rectangle.

    d_t g = d_x((a x - b v) g + eps d_x g)
          + d_v((N0(v) - i_ext + x + (v - J[g])/eps) g + d_v g)

with J[g] the first moment of g in v, frozen from the pre-step field.  This
is the network's density equation for unit voltage noise (sigma = 1) with
adaptation noise on; the solver rejects other parameters.  The scheme is
explicit first-order upwind for both advection terms plus centered second
differences for the diffusion (coefficient 1 in v, eps in x), with
zero-flux boundaries.  Interface fluxes telescope, so the discrete mass is
conserved to roundoff, and under the CFL bound every update coefficient is
nonnegative, which keeps the density nonnegative.

solve builds one kernel per call for its (grid, params, dt).  Everything
that does not depend on time is computed there once: the v-face drift
without its coupling term (so the cubic is never evaluated in a step), the
x-face speeds with their upwind mask, and the flux and scratch buffers.  A
step then runs in-place ufuncs in the operation order of the plain formula,
alternating between two density buffers owned by the call, so the results
equal those of a fresh-array loop bit for bit.  The v-fluxes are one flat
array with one face per cell and a zero-flux wall slot at each row end, so
every v-direction pass is one contiguous pass over the grid.  Each
density's J[g] is read once, right after its step, for its record and as
the next step's frozen moment.  fp_step is a solve of one step.

The CFL bound is CFL_SAFETY over the largest cell denominator
R_c + |y_c + r|, with R_c = K + |a x_c - b v_c|/dx, K = 2/dv^2 + 2 eps/dx^2,
y_c = (-N0(v_c) + i_ext - x_c - v_c/eps)/dv and r = J[g]/(eps dv).  Since
|z| = max(z, -z), that largest denominator is max(A + r, B - r), with
A = max_c(R_c + y_c) and B = max_c(R_c - y_c).  A and B are computed once
per kernel, so each step checks the exact bound in O(1); cfl_limit and
stable_dt take the same closed form.  It is convex in J[g], so stable_dt,
its minimum at the ends v_min and v_max, is the exact worst case over
every moment on the grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# The benchmark's traced run (perfbench/layers.py) wraps voltage_drift on
# this module.
from .core import (InitCondition, ModelParams, init_variance, require_finite,  # noqa: F401
                   time_steps, uncoupled_drift, voltage_drift)

CFL_SAFETY = 0.9
DENSITY_FLOOR = 1e-300
NEGATIVITY_TOL = -1e-12


class CflError(RuntimeError):
    """dt exceeds the stability bound required_dt, set by cell (ix, iv), in
    the step that ends at t."""

    def __init__(self, message: str, required_dt: float, cell: tuple[int, int], t: float):
        super().__init__(message)
        self.required_dt = required_dt
        self.cell = cell
        self.t = t


class SchemeError(RuntimeError):
    """The update produced a density below the negativity tolerance, or
    NaN; cell is the (ix, iv) of the lowest (or first NaN) value and t the
    end of the failed step."""

    def __init__(self, message: str, cell: tuple[int, int], t: float):
        super().__init__(message)
        self.cell = cell
        self.t = t


@dataclass(frozen=True)
class Grid:
    v_min: float
    v_max: float
    x_min: float
    x_max: float
    nv: int
    nx: int

    def __post_init__(self):
        require_finite(self)
        spans = (self.v_max - self.v_min, self.x_max - self.x_min)
        if not all(0.0 < span < np.inf for span in spans):
            raise ValueError("grid bounds must be ordered, with finite spans")
        if self.nv < 8 or self.nx < 8:
            raise ValueError(f"nv and nx must be >= 8, got {self.nv}, {self.nx}")

    @property
    def dv(self) -> float:
        return (self.v_max - self.v_min) / self.nv

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.nx

    def v_centers(self) -> np.ndarray:
        """The cell centres in v: one read-only array per grid."""
        return self._v_centers

    @cached_property
    def _v_centers(self) -> np.ndarray:
        vc = self.v_min + (np.arange(self.nv) + 0.5) * self.dv
        vc.flags.writeable = False
        return vc

    def x_centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.nx) + 0.5) * self.dx

    def v_faces_interior(self) -> np.ndarray:
        return self.v_min + np.arange(1, self.nv) * self.dv

    def x_faces_interior(self) -> np.ndarray:
        return self.x_min + np.arange(1, self.nx) * self.dx


@dataclass
class DensityField:
    """Density values rho[ix, iv] at cell centers, at time t."""

    grid: Grid
    rho: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=float)
        if self.rho.shape != (self.grid.nx, self.grid.nv):
            raise ValueError(
                f"rho shape {self.rho.shape} does not match grid ({self.grid.nx}, {self.grid.nv})")


@dataclass
class HopfColeField:
    """Scaled log density psi = eps*log(rho) with a floor mask; masked cells
    sit at the floor and must be excluded from derivative diagnostics."""

    psi: np.ndarray
    mask: np.ndarray  # True where rho was at or below the floor
    grid: Grid


@dataclass
class FpSolution:
    t: np.ndarray
    jg: np.ndarray
    mass: np.ndarray
    dt: float
    snapshots: list[DensityField]


def mass(f: DensityField) -> float:
    return float(f.rho.sum() * f.grid.dv * f.grid.dx)


def first_moment(f: DensityField) -> float:
    """Midpoint-rule first moment of v: sum v_center * rho * dv * dx."""
    return float((f.rho @ f.grid.v_centers()).sum() * f.grid.dv * f.grid.dx)


def gaussian_field(grid: Grid, cond: InitCondition, p: ModelParams) -> DensityField:
    """Discretized concentrated product Gaussian (variance eps/concentration
    per coordinate), renormalized to exact unit discrete mass."""
    var = init_variance(cond, p)
    v = grid.v_centers()[None, :]
    x = grid.x_centers()[:, None]
    rho = np.exp(-((v - cond.mean_v) ** 2 + (x - cond.mean_x) ** 2) / (2.0 * var))
    total = rho.sum() * grid.dv * grid.dx
    if total <= 0:
        raise ValueError(f"initial density has no mass on this grid: the cluster at "
                         f"({cond.mean_v:g}, {cond.mean_x:g}) lies too far outside it")
    return DensityField(grid=grid, rho=rho / total, t=0.0)


def _cfl_terms(grid: Grid, p: ModelParams) -> tuple:
    """The closed form of the CFL bound (module docstring): ((A, cell of A),
    (B, cell of B), eps*dv)."""
    vc = grid.v_centers()[None, :]
    xc = grid.x_centers()[:, None]
    rest = (2.0 * (1.0 / grid.dv ** 2 + p.epsilon / grid.dx ** 2)
            + np.abs(p.a * xc - p.b * vc) / grid.dx)
    y = (uncoupled_drift(vc, xc, p) - vc / p.epsilon) / grid.dv
    sides = []
    for side in (rest + y, rest - y):
        worst = int(np.argmax(side))
        sides.append((float(side.flat[worst]), divmod(worst, grid.nv)))
    return sides[0], sides[1], p.epsilon * grid.dv


def _bound(terms: tuple, jg: float) -> tuple[float, tuple[int, int]]:
    """Largest stable dt (with safety factor) at moment jg, and the limiting
    cell; NaN for a NaN moment."""
    (a, cell_a), (b, cell_b), scale = terms
    r = jg / scale
    denom, cell = (a + r, cell_a) if a + r >= b - r else (b - r, cell_b)
    return CFL_SAFETY / denom, cell


def cfl_limit(f: DensityField, p: ModelParams, jg: float) -> tuple[float, tuple[int, int]]:
    """Largest stable dt (with safety factor) and the limiting cell."""
    return _bound(_cfl_terms(f.grid, p), jg)


def stable_dt(grid: Grid, p: ModelParams) -> float:
    """The largest dt that is stable for every first moment in
    [v_min, v_max], where the moment of a density on the grid lies."""
    terms = _cfl_terms(grid, p)
    return min(_bound(terms, grid.v_min)[0], _bound(terms, grid.v_max)[0])


def check_density_params(p: ModelParams) -> None:
    """Reject parameters the density equation does not model: its
    v-diffusion is 1 (sigma = 1) and its x-diffusion eps (adaptation noise
    on)."""
    if p.sigma != 1.0 or not p.adaptation_noise:
        raise ValueError(
            "the density solver needs sigma = 1 and adaptation noise on, got "
            f"sigma = {p.sigma:g}, adaptation_noise = {p.adaptation_noise}")


class _UpwindKernel:
    """The explicit update for one (grid, params, dt): every time-independent
    array is computed once, every per-step array is preallocated.

    step() keeps the IEEE operation order of the fresh-array formula, so it
    gives the same bits.  With W the voltage drift, the v-speed is U = -W;
    U <= 0 exactly where W >= 0, and h + U*rho equals h - W*rho because
    negation is exact.

    The v-fluxes are one flat array of nx*nv + 1 slots: slot 1 + k is the
    right face of cell k of the row-major density, so slot 0 and every
    nv-th slot are walls, slot (ix + 1)*nv closing row ix.  The v-faces and
    their drift are padded to nv columns (the last face is the wall v_max),
    so each v-pass runs over the flat slots 1 .. nx*nv - 1 in one go.  It
    writes garbage into the walls between rows, which are zeroed before
    the divergence, slot 1 + k minus slot k.
    """

    def __init__(self, grid: Grid, p: ModelParams, dt: float):
        check_density_params(p)
        g = self.grid = grid
        self.p, self.dt = p, dt
        nx, nv = g.nx, g.nv
        # fluxes with their zero walls, and one grid-sized scratch array
        self._fv = np.zeros(nx * nv + 1)
        self._hx = np.zeros((nx + 1, nv))
        self._scratch = np.empty(nx * nv)
        self._terms = _cfl_terms(g, p)
        vf = self._v_faces = np.append(g.v_faces_interior(), g.v_max)
        xc = g.x_centers()[:, None]
        # the v-face drift without its coupling term, (jg - v_f)/eps, flat
        self._drift_v = uncoupled_drift(vf[None, :], xc, p).reshape(-1)
        self._up_v = np.empty(nx * nv - 1, dtype=bool)
        self._speed_x = p.a * g.x_faces_interior()[:, None] - p.b * g.v_centers()[None, :]
        self._up_x = self._speed_x <= 0.0

    def step(self, src: np.ndarray, dst: np.ndarray, jg: float, t_new: float) -> None:
        """Write the density one step after src into dst, a C-ordered
        array; t_new, the time of dst, names the step in errors."""
        g, p, dt = self.grid, self.p, self.dt
        nx, nv = g.nx, g.nv
        dt_max, cell = _bound(self._terms, jg)
        if dt > dt_max:  # False for a NaN moment, which the guard below reports
            raise CflError(
                f"dt={dt:.3g} violates the stability bound {dt_max:.3g} "
                f"in the step to t={t_new:.6g} "
                f"(limiting cell ix={cell[0]}, iv={cell[1]})",
                required_dt=dt_max, cell=cell, t=t_new)
        # dst and the scratch array double as upwind buffers until the sum
        spare = dst.reshape(-1)
        scratch = self._scratch
        flat = src.ravel()  # a copy only when src is not C-ordered

        # v-direction interface fluxes H = U g_up + d_v g, on flat slots
        # 1 .. nx*nv - 1: the wall slots between rows get garbage here
        fv = self._fv[1:-1]
        np.subtract(flat[1:], flat[:-1], out=fv)
        fv /= g.dv
        # W = drift + (jg - v_f)/eps, added the other way round (addition
        # commutes exactly) so that no row broadcast needs a numpy buffer
        np.copyto(scratch.reshape(nx, nv), (jg - self._v_faces) / p.epsilon)
        scratch += self._drift_v
        w = scratch[:-1]
        np.greater_equal(w, 0.0, out=self._up_v)
        up = spare[:-1]
        np.copyto(up, flat[1:])
        np.copyto(up, flat[:-1], where=self._up_v)
        w *= up
        fv -= w

        # x-direction interface fluxes H = U g_up + eps d_x g
        hx = self._hx[1:-1, :]
        np.subtract(src[1:, :], src[:-1, :], out=hx)
        hx *= p.epsilon
        hx /= g.dx
        up = spare[:(nx - 1) * nv].reshape(nx - 1, nv)
        np.copyto(up, src[1:, :])
        np.copyto(up, src[:-1, :], where=self._up_x)
        up *= self._speed_x
        hx += up

        fv = self._fv
        fv[nv::nv] = 0.0  # the walls between rows, and the last
        np.subtract(fv[1:], fv[:-1], out=spare)
        dst /= g.dv
        div_x = scratch.reshape(nx, nv)
        np.subtract(self._hx[1:, :], self._hx[:-1, :], out=div_x)
        div_x /= g.dx
        dst += div_x
        dst *= dt
        dst += src

        worst = float(dst.min())
        if not worst >= NEGATIVITY_TOL:  # also catches NaN
            ix, iv = divmod(int(np.argmin(dst)), nv)
            raise SchemeError(f"density fell to {worst:.3e} at t={t_new:.6g} "
                              f"(cell ix={ix}, iv={iv})", cell=(ix, iv), t=t_new)


def solve(f0: DensityField, p: ModelParams, t_end: float, *,
          dt: float | None = None, record_stride: int = 1,
          snapshot_stride: int | None = None) -> FpSolution:
    """Repeated explicit steps from f0.t to f0.t + t_end with recorded
    (t, J[g], mass) diagnostics.

    The step is core.time_steps of t_end and dt, which is an upper bound;
    dt=None bounds it by stable_dt, so every step is stable for any first
    moment on the grid.  The steps alternate between two buffers owned by
    this call; f0 is not written.
    """
    if record_stride < 1:
        raise ValueError(f"record_stride must be >= 1, got {record_stride}")
    if snapshot_stride is not None and snapshot_stride < 1:
        raise ValueError(f"snapshot_stride must be >= 1, got {snapshot_stride}")
    g = f0.grid
    n_steps, dt = time_steps(t_end, stable_dt(g, p) if dt is None else dt)
    kernel = _UpwindKernel(g, p, dt)

    times = [f0.t]
    jgs = [first_moment(f0)]
    masses = [mass(f0)]
    snaps: list[DensityField] = []
    if snapshot_stride is not None:
        snaps.append(DensityField(g, f0.rho.copy(), f0.t))

    buffers = [DensityField(g, np.empty((g.nx, g.nv))) for _ in range(2)]
    src = f0
    jg = jgs[0]  # J[g] of src, read once per density
    for k in range(1, n_steps + 1):
        dst = buffers[k % 2]
        last = k == n_steps
        t = f0.t + (t_end if last else k * dt)
        kernel.step(src.rho, dst.rho, jg, t)
        jg = first_moment(dst)
        if k % record_stride == 0 or last:
            times.append(t)
            jgs.append(jg)
            masses.append(mass(dst))
        if snapshot_stride is not None and (k % snapshot_stride == 0 or last):
            snaps.append(DensityField(g, dst.rho.copy(), t))
        src = dst
    return FpSolution(t=np.asarray(times), jg=np.asarray(jgs),
                      mass=np.asarray(masses), dt=dt, snapshots=snaps)


def fp_step(f: DensityField, p: ModelParams, dt: float) -> DensityField:
    """One explicit conservative update with the first moment frozen from
    the pre-step field: the one step of solve over a horizon of dt."""
    if not 0.0 < dt < np.inf:
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    return solve(f, p, dt, dt=dt, snapshot_stride=1).snapshots[-1]


def hopf_cole(f: DensityField, p: ModelParams) -> HopfColeField:
    """psi = eps*log(max(rho, DENSITY_FLOOR)); cells at the floor are masked."""
    mask = ~(f.rho > DENSITY_FLOOR)
    psi = p.epsilon * np.log(np.maximum(f.rho, DENSITY_FLOOR))
    return HopfColeField(psi=psi, mask=mask, grid=f.grid)
