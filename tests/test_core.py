import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fhn_meanfield.core import (InitCondition, ModelParams, cubic, cubic_prime,
                                cubic_truncated, init_variance, sample_initial,
                                time_steps, voltage_drift)
from fhn_meanfield.fokker_planck import Grid

P4 = ModelParams(lam=4.0)


def init_log_density(v, x, cond: InitCondition, p: ModelParams):
    """epsilon*log of the closed-form gaussian initial density."""
    A = cond.concentration
    quad = -0.5 * A * ((np.asarray(v) - cond.mean_v) ** 2 + (np.asarray(x) - cond.mean_x) ** 2)
    return quad + p.epsilon * np.log(A / (2.0 * np.pi * p.epsilon))


@pytest.mark.parametrize("lam", [0.5, 1.0, 4.0, 7.3])
@pytest.mark.parametrize("root", [0.0, 1.0, None])
def test_cubic_roots(lam, root):
    p = ModelParams(lam=lam)
    v = lam if root is None else root
    assert cubic(v, p) == 0.0


def test_cubic_hand_value():
    # 2*(2-4)*(2-1)
    assert cubic(2.0, P4) == -4.0


@given(st.floats(-10.0, 10.0))
def test_truncated_identity_inside(v):
    assert cubic_truncated(v, 10.0, P4) == cubic(v, P4)


def test_truncated_hand_value():
    # value 540 and slope 204 at v=10, extended one unit
    assert cubic_truncated(11.0, 10.0, P4) == pytest.approx(744.0, abs=1e-12)


@pytest.mark.parametrize("edge", [-10.0, 10.0])
def test_truncated_c1_at_edges(edge):
    h = 1e-4
    f = lambda v: cubic_truncated(v, 10.0, P4)
    # value continuity: one-sided increments shrink with the step
    assert abs(f(edge + h) - f(edge)) < 1e3 * h
    # derivative continuity: second-order one-sided differences agree to
    # their own truncation error
    d_below = (3 * f(edge) - 4 * f(edge - h) + f(edge - 2 * h)) / (2 * h)
    d_above = (-3 * f(edge) + 4 * f(edge + h) - f(edge + 2 * h)) / (2 * h)
    assert d_below == pytest.approx(cubic_prime(edge, P4), abs=1e-6)
    assert abs(d_above - d_below) < 1e-6


def test_truncated_rejects_bad_level():
    with pytest.raises(ValueError):
        cubic_truncated(0.0, -1.0, P4)
    with pytest.raises(ValueError):
        ModelParams(lam=4.0, truncation=0.0)


@pytest.mark.parametrize("M", [3.5, 10.0])
def test_truncated_scalar_path_has_the_bits_of_the_array_path(M):
    values = [M, -M, np.nextafter(M, 0.0), np.nextafter(-M, 0.0),
              np.nextafter(M, np.inf), np.nextafter(-M, -np.inf),
              0.0, 1e3, -1e3, np.nan]
    array = cubic_truncated(np.array(values), M, P4)
    for v, want in zip(values, array):
        for scalar in (float(v), np.float64(v)):
            got = cubic_truncated(scalar, M, P4)
            assert type(got) is float
            assert got.hex() == float(want).hex(), v


def test_voltage_drift_zero():
    p = ModelParams(i_ext=0.0)
    assert voltage_drift(0.0, 0.0, 0.0, p) == 0.0


def test_voltage_drift_no_coupling_when_at_mean():
    p = ModelParams(epsilon=0.004)
    v = 1.7
    with_coupling = voltage_drift(v, 0.3, v, p)
    p_weak = ModelParams(epsilon=1e6)
    assert with_coupling == pytest.approx(voltage_drift(v, 0.3, v, p_weak))


def test_voltage_drift_hand_value():
    p = ModelParams(lam=4.0, i_ext=0.0)
    assert voltage_drift(2.0, 0.0, 2.0, p) == pytest.approx(4.0)


@given(v=st.floats(-5, 5), x=st.floats(-5, 5), vbar=st.floats(-5, 5),
       h=st.floats(0.01, 2.0))
@settings(max_examples=50)
def test_voltage_drift_affine(v, x, vbar, h):
    p = ModelParams(epsilon=0.05)
    base = voltage_drift(v, x, vbar, p)
    assert voltage_drift(v, x + h, vbar, p) - base == pytest.approx(-h, rel=1e-9, abs=1e-9)
    assert voltage_drift(v, x, vbar + h, p) - base == pytest.approx(h / p.epsilon, rel=1e-9)


def test_voltage_drift_uses_truncation():
    p = ModelParams(truncation=2.0)
    expected = -cubic_truncated(5.0, 2.0, p) + p.i_ext - 0.0
    assert voltage_drift(5.0, 0.0, 5.0, p) == pytest.approx(expected)


@pytest.mark.parametrize("bad", [
    dict(a=0.0), dict(a=-1.0), dict(b=-0.1), dict(epsilon=0.0),
    dict(sigma=-1.0), dict(truncation=-2.0)])
def test_params_validation(bad):
    with pytest.raises(ValueError):
        ModelParams(**bad)


@pytest.mark.parametrize("bad", [np.float32("nan"), np.float32("inf"), np.float16("-inf")])
@pytest.mark.parametrize("make", [
    lambda bad: ModelParams(lam=bad),
    lambda bad: InitCondition(mean_v=bad),
    lambda bad: Grid(v_min=bad, v_max=1.0, x_min=0.0, x_max=1.0, nv=16, nx=16),
], ids=["ModelParams", "InitCondition", "Grid"])
def test_non_finite_numpy_scalars_are_rejected(make, bad):
    with pytest.raises(ValueError, match="must be finite"):
        make(bad)


def test_sample_initial_rejects_empty():
    p = ModelParams()
    with pytest.raises(ValueError):
        sample_initial(InitCondition(), 0, p, np.random.default_rng(0))


def test_sample_initial_rejects_oversized_concentration():
    p = ModelParams(a=0.1)
    cond = InitCondition(concentration=0.3)
    with pytest.raises(ValueError):
        sample_initial(cond, 10, p, np.random.default_rng(0))


def test_point_cluster_is_exact():
    p = ModelParams()
    st8 = sample_initial(InitCondition(mean_v=1.5, mean_x=-0.5, kind="point"),
                         8, p, np.random.default_rng(0))
    assert np.all(st8.v == 1.5) and np.all(st8.x == -0.5)


def test_gaussian_cluster_mean_within_standard_error():
    p = ModelParams(a=0.3, epsilon=0.01)
    cond = InitCondition(mean_v=0.7, mean_x=-0.2, concentration=0.25)
    n = 100_000
    state = sample_initial(cond, n, p, np.random.default_rng(42))
    bound = 4.0 * np.sqrt(init_variance(cond, p)) / np.sqrt(n)
    assert abs(state.v.mean() - 0.7) < bound
    assert abs(state.x.mean() + 0.2) < bound
    var = init_variance(cond, p)
    assert state.v.var() == pytest.approx(var, rel=0.05)


def test_centered_gaussian_satisfies_concentration_envelope():
    # scaled log density <= -(A/2)(v^2 + x^2) + B for the centered cluster
    p = ModelParams(a=0.5, epsilon=0.05)
    cond = InitCondition(mean_v=0.0, mean_x=0.0, concentration=0.4)
    B = 0.1
    v, x = np.meshgrid(np.linspace(-5, 5, 41), np.linspace(-5, 5, 41))
    lhs = init_log_density(v, x, cond, p)
    rhs = -0.5 * cond.concentration * (v ** 2 + x ** 2) + B
    assert np.all(lhs <= rhs + 1e-12)


def test_custom_sampler_round_trip():
    p = ModelParams()

    def sampler(n, rng):
        return np.arange(n, dtype=float), -np.arange(n, dtype=float)

    cond = InitCondition(kind="custom", sampler=sampler)
    state = sample_initial(cond, 5, p, np.random.default_rng(0))
    assert np.array_equal(state.v, np.arange(5.0))


def test_init_condition_validation():
    with pytest.raises(ValueError):
        InitCondition(concentration=0.0)
    with pytest.raises(ValueError):
        InitCondition(kind="weird")
    with pytest.raises(ValueError):
        InitCondition(kind="custom")


@given(st.floats(1e-6, 1e3), st.floats(1e-6, 1e3), st.integers(1, 10 ** 6))
@settings(max_examples=300)
def test_time_steps_bound_the_step_and_end_at_the_horizon(t_end, dt, m):
    n, step = time_steps(t_end, dt)
    assert n >= 1 and step <= dt
    assert abs(n * step - t_end) <= 1e-9 * t_end
    if step != dt:  # shrunk: n equal steps that add up to t_end up to roundoff
        assert n == np.ceil(t_end / dt)
        assert abs(n * step - t_end) <= 4 * np.finfo(float).eps * t_end
    assert time_steps(t_end, step) == (n, step)
    assert time_steps(t_end, t_end / m) == (m, t_end / m)  # a dividing step is kept


def test_time_steps_edge_cases():
    assert time_steps(0.0, 0.01) == (0, 0.01)
    assert time_steps(0.002, 0.005) == (1, 0.002)
    assert time_steps(0.25, 1 / 2250) == (563, 0.25 / 563)
    assert time_steps(1.0, 1e-3) == (1000, 1e-3)
    for t_end, dt in ((-1.0, 0.1), (np.nan, 0.1), (np.inf, 0.1),
                      (1.0, 0.0), (1.0, -0.1), (1.0, np.nan), (1.0, np.inf)):
        with pytest.raises(ValueError):
            time_steps(t_end, dt)
