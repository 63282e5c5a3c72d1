import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fhn_meanfield import fokker_planck
from fhn_meanfield.core import (InitCondition, ModelParams, cubic, cubic_prime,
                                init_variance, nonlinearity, sample_initial,
                                time_steps, uncoupled_drift, voltage_drift)
from fhn_meanfield.fokker_planck import Grid
from fhn_meanfield.limit_ode import rk4_step
from fhn_meanfield.particle import SimConfig

P4 = ModelParams(lam=4.0)
P4_M10 = ModelParams(lam=4.0, truncation=10.0)


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
    assert nonlinearity(v, P4_M10) == cubic(v, P4)


def test_truncated_hand_value():
    # value 540 and slope 204 at v=10, extended one unit; -1540 and 404 at -10
    assert nonlinearity(11.0, P4_M10) == pytest.approx(744.0, abs=1e-12)
    assert nonlinearity(-11.0, P4_M10) == pytest.approx(-1944.0, abs=1e-12)


@pytest.mark.parametrize("edge", [-10.0, 10.0])
def test_truncated_c1_at_edges(edge):
    h = 1e-4
    f = lambda v: nonlinearity(v, P4_M10)
    # value continuity: one-sided increments shrink with the step
    assert abs(f(edge + h) - f(edge)) < 1e3 * h
    # derivative continuity: second-order one-sided differences agree to
    # their own truncation error
    d_below = (3 * f(edge) - 4 * f(edge - h) + f(edge - 2 * h)) / (2 * h)
    d_above = (-3 * f(edge) + 4 * f(edge + h) - f(edge + 2 * h)) / (2 * h)
    assert d_below == pytest.approx(cubic_prime(edge, P4), abs=1e-6)
    assert abs(d_above - d_below) < 1e-6


def test_truncated_rejects_bad_level():
    for level in (0.0, -1.0):
        with pytest.raises(ValueError, match="truncation level must be > 0"):
            ModelParams(lam=4.0, truncation=level)


@pytest.mark.parametrize("M", [3.5, 10.0])
def test_truncated_scalar_path_has_the_bits_of_the_array_path(M):
    p = ModelParams(lam=4.0, truncation=M)
    values = [M, -M, np.nextafter(M, 0.0), np.nextafter(-M, 0.0),
              np.nextafter(M, np.inf), np.nextafter(-M, -np.inf),
              0.0, -0.0, 1e3, -1e3, np.nan]
    array = nonlinearity(np.array(values), p)
    for v, want in zip(values, array):
        for scalar in (float(v), np.float64(v)):
            got = nonlinearity(scalar, p)
            assert type(got) is float
            if v == 0.0 and np.signbit(v):
                # the array path adds cubic'(-0.0) * (v - v) = lam * 0.0 to
                # cubic(-0.0) = -0.0, and -0.0 + 0.0 is +0.0
                assert got.hex() == "-0x0.0p+0" and float(want).hex() == "0x0.0p+0"
            else:
                assert got.hex() == float(want).hex(), v
    # at lam < 1 the cubic of the least negative subnormal underflows to -0.0
    small_lam = ModelParams(lam=0.3, truncation=M)
    assert nonlinearity(-5e-324, small_lam).hex() == "-0x0.0p+0"
    assert nonlinearity(np.array([-5e-324]), small_lam)[0].hex() == "0x0.0p+0"


@pytest.mark.parametrize("truncation", [None, 2.5])
def test_every_level_takes_the_uncoupled_drift_bit_for_bit(truncation):
    p = ModelParams(a=0.3, b=0.1, lam=4.0, i_ext=0.7, epsilon=0.05, truncation=truncation)
    rng = np.random.default_rng(5)
    v, x = rng.uniform(-6.0, 6.0, 400), rng.uniform(-3.0, 3.0, 400)
    f = uncoupled_drift(v, x, p)
    assert np.array_equal(f, -nonlinearity(v, p) + p.i_ext - x)
    assert np.array_equal(voltage_drift(v, x, 0.4, p), f + (0.4 - v) / p.epsilon)
    # a four-stage RK4 of the limit system's vector field, written with it
    dt = 0.01
    for s in zip(v.tolist(), x.tolist()):
        k1 = (uncoupled_drift(s[0], s[1], p), -p.a * s[1] + p.b * s[0])
        s2 = (s[0] + 0.5 * dt * k1[0], s[1] + 0.5 * dt * k1[1])
        k2 = (uncoupled_drift(s2[0], s2[1], p), -p.a * s2[1] + p.b * s2[0])
        s3 = (s[0] + 0.5 * dt * k2[0], s[1] + 0.5 * dt * k2[1])
        k3 = (uncoupled_drift(s3[0], s3[1], p), -p.a * s3[1] + p.b * s3[0])
        s4 = (s[0] + dt * k3[0], s[1] + dt * k3[1])
        k4 = (uncoupled_drift(s4[0], s4[1], p), -p.a * s4[1] + p.b * s4[0])
        assert rk4_step(s[0], s[1], p, dt) == tuple(
            s[i] + dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]) for i in (0, 1))

    g = Grid(-6.0, 6.0, -3.0, 3.0, 24, 16)
    vc, xc = g.v_centers()[None, :], g.x_centers()[:, None]
    rest = (2.0 * (1.0 / g.dv ** 2 + p.epsilon / g.dx ** 2)
            + np.abs(p.a * xc - p.b * vc) / g.dx)
    y = (uncoupled_drift(vc, xc, p) - vc / p.epsilon) / g.dv
    (big_a, _), (big_b, _), _ = fokker_planck._cfl_terms(g, p)
    assert (big_a, big_b) == ((rest + y).max(), (rest - y).max())
    kernel = fokker_planck._UpwindKernel(g, p, 1e-4)
    vf = np.append(g.v_faces_interior(), g.v_max)
    assert np.array_equal(kernel._drift_v, uncoupled_drift(vf[None, :], xc, p).reshape(-1))


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
    expected = -nonlinearity(5.0, p) + p.i_ext - 0.0
    assert voltage_drift(5.0, 0.0, 5.0, p) == pytest.approx(expected)


@pytest.mark.parametrize("bad", [
    dict(a=0.0), dict(a=-1.0), dict(b=-0.1), dict(epsilon=0.0),
    dict(sigma=-1.0), dict(truncation=-2.0)])
def test_params_validation(bad):
    with pytest.raises(ValueError):
        ModelParams(**bad)


@pytest.mark.parametrize("field, bad", [
    (field, bad) for field in ("a", "b", "lam", "i_ext", "sigma", "epsilon", "truncation")
    for bad in ("1", 1j, [1.0], None) if not (field == "truncation" and bad is None)])
def test_params_reject_what_is_not_a_real_number(field, bad):
    with pytest.raises(TypeError, match=f"^{field} must be a real number"):
        ModelParams(**{field: bad})


@pytest.mark.parametrize("make, field, kind", [
    (lambda: InitCondition(mean_v="1"), "mean_v", "a real number"),
    (lambda: InitCondition(mean_x=None), "mean_x", "a real number"),
    (lambda: InitCondition(concentration="0.3"), "concentration", "a real number"),
    (lambda: SimConfig(n=10.5, t_end=0.1), "n", "an integer"),
    (lambda: SimConfig(n=10, t_end="1"), "t_end", "a real number"),
    (lambda: SimConfig(n=10, t_end=1.0, dt="0.1"), "dt", "a real number"),
    (lambda: SimConfig(n=10, t_end=1.0, seed=1.5), "seed", "an integer"),
    (lambda: SimConfig(n=10, t_end=1.0, record_stride=None), "record_stride", "an integer"),
    (lambda: Grid(-1, 1, -1, 1, 16.5, 16), "nv", "an integer"),
    (lambda: Grid(-1, 1, -1, 1, 16, np.float64(16)), "nx", "an integer"),
    (lambda: Grid(-1, 1, "-1", 1, 16, 16), "x_min", "a real number"),
    (lambda: ModelParams(adaptation_noise="off"), "adaptation_noise", "a bool"),
    (lambda: ModelParams(adaptation_noise=1), "adaptation_noise", "a bool"),
    (lambda: SimConfig(n=10, t_end=1.0, quantile_fractions=0.5), "quantile_fractions",
     "a list of real numbers"),
    (lambda: SimConfig(n=10, t_end=1.0, quantile_fractions=(0.5, "a")), "quantile_fractions",
     "a list of real numbers"),
    (lambda: InitCondition(kind="custom", sampler=3), "sampler", "callable"),
    (lambda: ModelParams(a=True), "a", "a real number"),
    (lambda: SimConfig(n=True, t_end=1.0), "n", "an integer"),
    (lambda: SimConfig(n=10, t_end=1.0, record_stride=True), "record_stride", "an integer"),
    (lambda: InitCondition(mean_v=False), "mean_v", "a real number"),
    (lambda: SimConfig(n=10, t_end=1.0, quantile_fractions=(True, 0.5)), "quantile_fractions",
     "a list of real numbers"),
], ids=["init-mean_v", "init-mean_x", "init-concentration", "sim-n", "sim-t_end",
        "sim-dt", "sim-seed", "sim-record_stride", "grid-nv", "grid-nx", "grid-x_min",
        "params-adaptation_noise-str", "params-adaptation_noise-int", "sim-quantiles-float",
        "sim-quantiles-str", "init-sampler", "params-a-True", "sim-n-True",
        "sim-record_stride-True", "init-mean_v-False", "sim-quantiles-bool"])
def test_parameter_classes_reject_a_field_of_the_wrong_type(make, field, kind):
    with pytest.raises(TypeError, match=f"^{field} must be {kind}, got"):
        make()


def test_parameter_classes_keep_numpy_and_integer_numbers_as_given():
    cfg = SimConfig(n=np.int64(10), t_end=np.float32(1.0), seed=np.uint64(3), record_stride=2)
    grid = Grid(np.float64(-1.0), 1, -1, 1.0, np.int32(16), 16)
    init = InitCondition(mean_v=np.float16(1.0), mean_x=2)
    p = ModelParams(adaptation_noise=np.bool_(False))
    assert (type(cfg.n), type(cfg.t_end), type(cfg.seed)) == (np.int64, np.float32, np.uint64)
    assert (type(grid.v_min), type(grid.v_max), type(grid.nv)) == (np.float64, int, np.int32)
    assert (type(init.mean_v), type(init.mean_x)) == (np.float16, int)
    assert type(p.adaptation_noise) is np.bool_


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


@pytest.mark.parametrize("kind", [np.float64, np.float32, int])
def test_time_steps_return_a_float_step(kind):
    for t_end, dt in ((2, 1), (3, 2), (6, 4)):  # a kept step, then two shrunk ones
        n, step = time_steps(kind(t_end), kind(dt))
        assert type(step) is float
        assert (n, step) == time_steps(float(t_end), float(dt))
    n, step = time_steps(kind(1), 0.15)
    assert type(step) is float and (n, step) == (7, 1.0 / 7)


def test_time_steps_edge_cases():
    assert time_steps(0.0, 0.01) == (0, 0.01)
    assert time_steps(0.002, 0.005) == (1, 0.002)
    assert time_steps(0.25, 1 / 2250) == (563, 0.25 / 563)
    assert time_steps(1.0, 1e-3) == (1000, 1e-3)
    for t_end, dt in ((-1.0, 0.1), (np.nan, 0.1), (np.inf, 0.1),
                      (1.0, 0.0), (1.0, -0.1), (1.0, np.nan), (1.0, np.inf)):
        with pytest.raises(ValueError):
            time_steps(t_end, dt)
