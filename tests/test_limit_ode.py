import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fhn_meanfield.core import ModelParams, cubic, nonlinearity, time_steps
from fhn_meanfield.limit_ode import (LimitState, equilibria,
                                     equilibrium_cubic_coeffs, limit_rhs,
                                     real_cubic_roots, rk4_integrate)

params_strategy = st.builds(
    ModelParams,
    a=st.floats(0.05, 2.0),
    b=st.floats(0.0, 1.0),
    lam=st.floats(1.5, 8.0),
    i_ext=st.floats(-5.0, 8.0),
)


def brute_force_root_count(p: ModelParams, grid_points: int = 20001) -> int:
    """Independent root counter: sign changes of the equilibrium cubic on a
    fine grid over [-10 lam, 10 lam], plus endpoint-root handling."""
    c2, c1, c0 = equilibrium_cubic_coeffs(p)
    span = 10.0 * max(abs(p.lam), 1.0)
    v = np.linspace(-span, span, grid_points)
    f = ((v + c2) * v + c1) * v + c0
    signs = np.sign(f)
    zero_hits = int(np.count_nonzero(signs == 0))
    flips = int(np.count_nonzero(signs[:-1] * signs[1:] < 0))
    return flips + zero_hits


def residual(v: float, p: ModelParams) -> float:
    """Value of the equilibrium condition at v (zero at an equilibrium)."""
    return float(cubic(v, p)) - p.i_ext + (p.b / p.a) * v


def test_rhs_vanishes_at_equilibria():
    p = ModelParams(a=0.3, b=0.1, lam=4.0, i_ext=0.0)
    for v, x in equilibria(p):
        d = limit_rhs(LimitState(0.0, v, x), p)
        assert abs(d[0]) < 1e-10 and abs(d[1]) < 1e-10


def test_factored_roots_without_recovery_feedback():
    p = ModelParams(a=0.3, b=0.0, lam=4.0, i_ext=0.0)
    vs = [v for v, _ in equilibria(p)]
    assert vs == pytest.approx([0.0, 1.0, 4.0], abs=1e-12)


def test_equilibria_bistable_quadratic_formula():
    # roots of v (v^2 - 5v + 13/3): quadratic formula for the outer pair
    p = ModelParams(a=0.3, b=0.1, lam=4.0, i_ext=0.0)
    vs = [v for v, _ in equilibria(p)]
    disc = math.sqrt(25.0 - 4.0 * 13.0 / 3.0)
    assert vs == pytest.approx([0.0, (5 - disc) / 2, (5 + disc) / 2], abs=1e-10)


def test_equilibria_exact_factorization_single_root():
    # (v - 3)(v^2 - 2v + 4/3): the quadratic pair is complex
    p = ModelParams(a=0.03, b=0.1, lam=4.0, i_ext=4.0)
    eqs = equilibria(p)
    assert len(eqs) == 1
    assert eqs[0][0] == pytest.approx(3.0, abs=1e-12)
    assert eqs[0][1] == pytest.approx(10.0, abs=1e-10)


def test_rhs_hand_value_at_single_equilibrium():
    p = ModelParams(a=0.03, b=0.1, lam=4.0, i_ext=4.0)
    d = limit_rhs(LimitState(0.0, 3.0, 10.0), p)
    assert d == pytest.approx((0.0, 0.0), abs=1e-12)


@given(params_strategy)
@settings(max_examples=120, deadline=None)
def test_equilibria_residuals_and_count(p):
    eqs = equilibria(p)
    assert 1 <= len(eqs) <= 3
    for v, x in eqs:
        assert abs(residual(v, p)) < 1e-12 * max(1.0, abs(p.i_ext), p.lam ** 3)
        assert x == pytest.approx(p.b / p.a * v)
    assert len(eqs) == brute_force_root_count(p)


@given(st.floats(-4, 4), st.floats(-6, 6), st.floats(-8, 8))
@example(1e-15, 0.0, 1e-15)  # near-triple root, away from 0 by 1e-5
@settings(max_examples=150)
def test_cubic_solver_against_numpy_roots(c2, c1, c0):
    ours = real_cubic_roots(c2, c1, c0)
    ref = sorted(r.real for r in np.roots([1.0, c2, c1, c0])
                 if abs(r.imag) < 1e-9)
    # collapse near-equal reference roots the way the solver reports them
    dedup = []
    for r in ref:
        if not dedup or abs(r - dedup[-1]) > 1e-6 * max(1.0, abs(r)):
            dedup.append(r)
    if len(ours) != len(dedup):
        # borderline discriminant, both answers are defensible
        coeffs_scale = max(1.0, abs(c2), abs(c1), abs(c0))
        pp = c1 - c2 * c2 / 3.0
        qq = c0 + c2 * (2.0 * c2 * c2 - 9.0 * c1) / 27.0
        assert abs(-4.0 * pp ** 3 - 27.0 * qq ** 2) < 1e-6 * coeffs_scale ** 2
    else:
        # near-multiple roots carry cube-root conditioning, hence the band
        assert ours == pytest.approx(dedup, abs=2e-5)


def test_rk4_stationary_at_equilibrium():
    p = ModelParams(a=0.3, b=0.1, lam=4.0, i_ext=0.0)
    v, x = equilibria(p)[-1]
    traj = rk4_integrate(LimitState(0.0, v, x), p, 0.01, 10.0)
    assert np.max(np.abs(traj.alpha - v)) < 1e-10
    assert np.max(np.abs(traj.beta - x)) < 1e-10


def test_rk4_fourth_order_by_step_halving():
    p = ModelParams(a=0.3, b=0.1, lam=4.0, i_ext=0.0)
    s0 = LimitState(0.0, 2.0, 0.5)
    ref = rk4_integrate(s0, p, 1e-4, 1.0)
    errs = []
    for dt in (0.02, 0.01):
        traj = rk4_integrate(s0, p, dt, 1.0)
        errs.append(abs(traj.alpha[-1] - ref.alpha[-1]))
    ratio = errs[0] / errs[1]
    assert 12.0 < ratio < 20.0  # observed order >= 3.8


def _reference_rhs(alpha, beta, p):
    if p.truncation is None:
        n0 = alpha * (alpha - p.lam) * (alpha - 1.0)
    else:
        n0 = float(nonlinearity(alpha, p))
    return (-n0 + p.i_ext - beta, -p.a * beta + p.b * alpha)


def _reference_integrate(s0, p, dt, t_end, record_stride):
    """RK4 as four calls of a plain vector field per step, the way
    rk4_step was written before its stages were inlined; rk4_integrate
    must reproduce it bit for bit."""
    n_steps, dt = time_steps(t_end, dt)
    alpha, beta = s0.alpha, s0.beta
    ts, alphas, betas = [s0.t], [alpha], [beta]
    for k in range(1, n_steps + 1):
        k1 = _reference_rhs(alpha, beta, p)
        k2 = _reference_rhs(alpha + 0.5 * dt * k1[0], beta + 0.5 * dt * k1[1], p)
        k3 = _reference_rhs(alpha + 0.5 * dt * k2[0], beta + 0.5 * dt * k2[1], p)
        k4 = _reference_rhs(alpha + dt * k3[0], beta + dt * k3[1], p)
        alpha, beta = (alpha + dt / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]),
                       beta + dt / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]))
        if k % record_stride == 0 or k == n_steps:
            ts.append(s0.t + (t_end if k == n_steps else k * dt))
            alphas.append(alpha)
            betas.append(beta)
    return np.asarray(ts), np.asarray(alphas), np.asarray(betas)


@pytest.mark.parametrize("truncation", [None, 3.0])
@pytest.mark.parametrize("s0, record_stride", [
    (LimitState(0.0, 2.0, 0.5), 1),
    (LimitState(1.5, -1.3, 2.0), 7),
])
def test_rk4_integrate_bit_identical_to_reference_loop(truncation, s0, record_stride):
    # an oscillatory point, 3000 steps over several laps of its cycle;
    # truncation 3 cuts the cubic on every lap
    p = ModelParams(a=0.1, b=1.0, lam=4.0, i_ext=6.0, truncation=truncation)
    traj = rk4_integrate(s0, p, 0.01, 30.0, record_stride=record_stride)
    t, alpha, beta = _reference_integrate(s0, p, 0.01, 30.0, record_stride)
    assert np.array_equal(traj.t, t)
    assert np.array_equal(traj.alpha, alpha)
    assert np.array_equal(traj.beta, beta)
    if truncation is not None:
        assert np.abs(alpha).max() > truncation


def test_limit_state_stores_python_floats():
    s = LimitState(np.int64(1), np.float64(1.5), np.float32(0.25))
    assert (s.t, s.alpha, s.beta) == (1.0, 1.5, 0.25)
    assert all(type(value) is float for value in (s.t, s.alpha, s.beta))


@pytest.mark.parametrize("truncation", [None, 3.0])
def test_rk4_integrate_from_numpy_scalars_has_the_bits_of_floats(truncation):
    p = ModelParams(a=0.1, b=1.0, lam=4.0, i_ext=6.0, truncation=truncation)
    ref = rk4_integrate(LimitState(0.0, 2.1, 0.3), p, 0.01, 30.0, record_stride=3)
    p64 = ModelParams(a=0.1, b=1.0, lam=np.float64(4.0), i_ext=6.0, truncation=truncation)
    for s0, q, dt in ((LimitState(np.float64(0.0), np.float64(2.1), np.float64(0.3)), p, 0.01),
                      (LimitState(0.0, 2.1, 0.3), p64, 0.01),
                      (LimitState(0.0, 2.1, 0.3), p, np.float64(0.01))):
        traj = rk4_integrate(s0, q, dt, 30.0, record_stride=3)
        assert np.array_equal(traj.t, ref.t)
        assert np.array_equal(traj.alpha, ref.alpha)
        assert np.array_equal(traj.beta, ref.beta)


@pytest.mark.parametrize("dt, t_end", [(0.01, 30.0), (0.03, 1.0), (np.float64(0.013), 3.7),
                                       (0.01, 0.0)])
def test_rk4_integrate_reports_the_step_time_steps_takes(dt, t_end):
    traj = rk4_integrate(LimitState(0.0, 2.1, 0.3), ModelParams(), dt, t_end, record_stride=3)
    assert traj.dt == time_steps(t_end, dt)[1] and type(traj.dt) is float


def test_rk4_validation():
    p = ModelParams()
    with pytest.raises(ValueError):
        rk4_integrate(LimitState(0, 0, 0), p, -0.1, 1.0)
    with pytest.raises(ValueError, match="record_stride must be >= 1"):
        rk4_integrate(LimitState(0, 0, 0), p, 0.1, 1.0, record_stride=0)


def test_monic_coefficients():
    p = ModelParams(a=0.5, b=0.25, lam=3.0, i_ext=1.5)
    assert equilibrium_cubic_coeffs(p) == pytest.approx((-4.0, 3.5, -1.5))


def test_a_zero_rejected_at_construction():
    with pytest.raises(ValueError):
        ModelParams(a=0.0)
