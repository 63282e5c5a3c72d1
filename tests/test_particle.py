import dataclasses
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fhn_meanfield import particle
from fhn_meanfield.core import (BlowUpError, EnsembleState, InitCondition,
                                ModelParams, nonlinearity, sample_initial)
from fhn_meanfield.limit_ode import LimitState, equilibria, rk4_integrate
from fhn_meanfield.particle import (NoiseStream, SimConfig, TrajectoryRecord,
                                    default_dt, em_step, empirical_moments,
                                    quantiles, simulate)


@given(hnp.arrays(np.float64, st.integers(2, 100),
                  elements=st.floats(-50, 50, allow_nan=False)))
@settings(max_examples=50)
def test_coupling_identity_against_pairwise_sum(v):
    # (1/n) sum_j (v_j - v_i) == vbar - v_i, against the O(n^2) double loop
    n = v.size
    vbar = np.mean(v)
    pairwise = np.array([sum(v[j] - v[i] for j in range(n)) / n for i in range(n)])
    scale = max(1.0, np.abs(v).max())
    assert np.max(np.abs(pairwise - (vbar - v))) < 1e-12 * scale


def test_quantile_edges_and_median():
    vals = np.array([5.0, 1.0, 3.0, 2.0, 4.0])
    assert quantiles(vals, [0.0])[0] == 1.0
    assert quantiles(vals, [1.0])[0] == 5.0
    assert quantiles(vals, [0.5])[0] == 3.0


def test_quantile_interpolation_rule():
    # position 0.25*(4-1) = 0.75 between the first two order statistics
    assert quantiles(np.array([1.0, 2.0, 3.0, 4.0]), [0.25])[0] == pytest.approx(1.75)


def test_quantile_validation():
    with pytest.raises(ValueError):
        quantiles(np.array([1.0]), [1.5])
    with pytest.raises(ValueError):
        quantiles(np.array([]), [0.5])


@given(hnp.arrays(np.float64, st.integers(1, 60),
                  elements=st.floats(-10, 10, allow_nan=False)))
@settings(max_examples=50)
def test_quantiles_nondecreasing(values):
    qs = [0.1, 0.25, 0.75, 0.9]
    out = quantiles(values, qs)
    assert np.all(np.diff(out) >= 0)


def test_moments_degenerate():
    st8 = EnsembleState(0.0, np.full(8, 2.0), np.full(8, -1.0))
    m = empirical_moments(st8)
    assert (m.mean_v, m.var_v, m.m4_v) == (2.0, 0.0, 16.0)
    assert m.m4_x == 1.0


def test_moments_two_point():
    m = empirical_moments(EnsembleState(0.0, np.array([-1.0, 1.0]),
                                        np.array([0.0, 0.0])))
    assert (m.mean_v, m.var_v, m.m4_v) == (0.0, 1.0, 1.0)


def test_moments_match_gaussian_cluster():
    p = ModelParams(a=1.0, epsilon=0.01)
    cond = InitCondition(concentration=1.0)
    from fhn_meanfield.core import sample_initial
    state = sample_initial(cond, 100_000, p, np.random.default_rng(3))
    assert empirical_moments(state).var_v == pytest.approx(0.01, rel=0.05)


def test_noise_stream_blocks_are_stable_and_distinct():
    stream = NoiseStream(99)
    a = stream.block(4).standard_normal(6)
    b = stream.block(4).standard_normal(6)
    c = stream.block(5).standard_normal(6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_simulate_is_bitwise_deterministic():
    p = ModelParams(epsilon=0.05)
    cfg = SimConfig(n=64, t_end=0.5, seed=7, record_stride=5)
    init = InitCondition(mean_v=0.5, mean_x=0.2)
    r1 = simulate(cfg, p, init)
    r2 = simulate(cfg, p, init)
    assert np.array_equal(r1.mean_v, r2.mean_v)
    assert np.array_equal(r1.quantiles_x, r2.quantiles_x)
    assert np.array_equal(r1.final_state.v, r2.final_state.v)


def test_em_step_reduces_to_explicit_euler_for_single_neuron():
    p = ModelParams(sigma=0.0, adaptation_noise=False, epsilon=0.01,
                    lam=4.0, i_ext=0.5)
    cfg = SimConfig(n=1, t_end=1.0, dt=1e-3)
    state = EnsembleState(0.0, np.array([1.3]), np.array([0.2]))
    stepped = em_step(state, p, cfg, NoiseStream(0).block(1))
    # coupling vanishes exactly when vbar == v
    v, x = 1.3, 0.2
    dv = -(v * (v - 4.0) * (v - 1.0)) + 0.5 - x
    dx = -p.a * x + p.b * v
    assert stepped.v[0] == pytest.approx(v + 1e-3 * dv, rel=1e-15)
    assert stepped.x[0] == pytest.approx(x + 1e-3 * dx, rel=1e-15)


def test_em_step_blowup_reports_time_and_index():
    # the cubic drift of neuron 1 overflows; the mean carries the overflow
    # to every neuron within the step, and the error names where it began
    p = ModelParams(epsilon=1e-4, sigma=0.0, adaptation_noise=False)
    cfg = SimConfig(n=4, t_end=1.0, dt=0.05)
    state = EnsembleState(0.0, np.array([0.0, 1e150, 0.0, 0.0]),
                          np.zeros(4))
    with pytest.raises(BlowUpError) as info:
        em_step(state, p, cfg, NoiseStream(0).block(1))
    assert info.value.index == 1
    assert info.value.t == pytest.approx(0.05)


def test_noiseless_ensemble_stays_near_stable_equilibrium():
    p = ModelParams(a=0.3, b=0.1, lam=4.0, sigma=0.0, adaptation_noise=False,
                    epsilon=0.01)
    vstar, xstar = equilibria(p)[-1]
    cfg = SimConfig(n=16, t_end=0.0, dt=1e-3)
    state = EnsembleState(0.0, np.full(16, vstar), np.full(16, xstar))
    for k in range(100):
        state = em_step(state, p, cfg, NoiseStream(1).block(k + 1))
    assert np.max(np.abs(state.v - vstar)) < 1e-10


class _PermutedDraws:
    """Generator stand-in that replays another stream's draws permuted."""

    def __init__(self, rng, perm):
        self.rng = rng
        self.perm = perm

    def standard_normal(self, shape):
        return self.rng.standard_normal(shape)[..., self.perm]


def test_permutation_equivariance():
    p = ModelParams(epsilon=0.05)
    cfg = SimConfig(n=32, t_end=1.0, dt=1e-3)
    rng0 = np.random.default_rng(11)
    v0, x0 = rng0.standard_normal(32), rng0.standard_normal(32)
    perm = np.random.default_rng(12).permutation(32)

    a = EnsembleState(0.0, v0.copy(), x0.copy())
    b = EnsembleState(0.0, v0[perm], x0[perm])
    for k in range(40):
        a = em_step(a, p, cfg, NoiseStream(5).block(k + 1))
        b = em_step(b, p, cfg, _PermutedDraws(NoiseStream(5).block(k + 1), perm))
    # equivariant up to the roundoff of re-ordering the vbar reduction
    assert np.allclose(a.v[perm], b.v, rtol=0, atol=1e-10)
    assert np.allclose(a.x[perm], b.x, rtol=0, atol=1e-10)
    ma, mb = empirical_moments(a), empirical_moments(b)
    assert ma.mean_v == pytest.approx(mb.mean_v, rel=1e-12, abs=1e-12)
    assert ma.var_x == pytest.approx(mb.var_x, rel=1e-12, abs=1e-12)


def test_simulate_zero_horizon_records_initial_stats():
    p = ModelParams()
    rec = simulate(SimConfig(n=50, t_end=0.0, seed=1), p, InitCondition())
    assert len(rec) == 1 and rec.t[0] == 0.0


def test_simulate_record_times_strictly_increase():
    p = ModelParams(epsilon=0.1)
    rec = simulate(SimConfig(n=10, t_end=0.05, dt=1e-3, seed=2, record_stride=7),
                   p, InitCondition())
    assert np.all(np.diff(rec.t) > 0)
    assert rec.t[-1] == pytest.approx(0.05)


def test_default_dt_does_not_depend_on_epsilon():
    assert default_dt(ModelParams(epsilon=0.004)) == 1e-2
    assert default_dt(ModelParams(epsilon=0.5)) == 1e-2
    assert default_dt(ModelParams(epsilon=1e-300)) == 1e-2


def test_clamped_ensemble_tracks_limit_system():
    # sigma=0, identical initial conditions: vbar(t) equals the limit flow
    # up to O(dt), and the error halves when dt halves
    p = ModelParams(a=0.3, b=0.1, lam=4.0, sigma=0.0, adaptation_noise=False,
                    epsilon=0.02)
    init = InitCondition(mean_v=2.0, mean_x=0.5, kind="point")
    errs = []
    for dt in (2e-3, 1e-3):
        cfg = SimConfig(n=4, t_end=10.0, dt=dt, seed=0, record_stride=50)
        rec = simulate(cfg, p, init)
        ref = rk4_integrate(LimitState(0.0, 2.0, 0.5), p, dt / 10.0, 10.0,
                            record_stride=500)
        assert np.allclose(ref.t, rec.t)
        errs.append(np.max(np.abs(rec.mean_v - ref.alpha)))
    assert errs[0] < 0.2
    assert errs[0] / errs[1] == pytest.approx(2.0, abs=0.3)


def test_mean_adaptation_dynamics_identity():
    # without adaptation noise the mean recovery update is exactly linear
    p = ModelParams(epsilon=0.05, adaptation_noise=False)
    cfg = SimConfig(n=40, t_end=0.2, dt=1e-3, seed=9, record_stride=1)
    rec = simulate(cfg, p, InitCondition(mean_v=1.0, mean_x=0.3))
    lhs = np.diff(rec.mean_x) / 1e-3
    rhs = -p.a * rec.mean_x[:-1] + p.b * rec.mean_v[:-1]
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_mean_adaptation_dynamics_with_noise():
    p = ModelParams(epsilon=0.05, adaptation_noise=True)
    cfg = SimConfig(n=4000, t_end=0.5, dt=1e-3, seed=9, record_stride=1)
    rec = simulate(cfg, p, InitCondition(mean_v=1.0, mean_x=0.3))
    lhs = np.diff(rec.mean_x) / 1e-3
    rhs = -p.a * rec.mean_x[:-1] + p.b * rec.mean_v[:-1]
    # per-step Monte Carlo error of the mean increment
    mc = 4.0 * np.sqrt(2.0 * p.epsilon / 1e-3 / 4000)
    assert np.max(np.abs(lhs - rhs)) < mc


def _reference_step(v, x, p, dt, rng):
    """The step written out plainly, as the reference the in-place update
    must match bit for bit: the mean voltage takes the Euler-Maruyama step
    of the non-stiff drift f, the deviations from it the exact
    Ornstein-Uhlenbeck step.  Returns the new state and f."""
    vbar = float(np.mean(v))
    xi = rng.standard_normal(v.size)
    f = -nonlinearity(v, p) + p.i_ext - x
    ratio = dt / p.epsilon
    e, damped = np.exp(-ratio), -np.expm1(-ratio)
    phi = p.epsilon * damped
    ou = p.sigma * np.sqrt(-p.epsilon * np.expm1(-2.0 * ratio))
    em = p.sigma * np.sqrt(2.0 * dt)
    shift = damped * vbar + (dt - phi) * np.mean(f) + (em - ou) * np.mean(xi)
    v_new = e * v + phi * f + ou * xi + shift
    x_new = x + (-p.a * x + p.b * v) * dt
    if p.adaptation_noise:
        x_new = x_new + np.sqrt(2.0 * p.epsilon * dt) * rng.standard_normal(v.size)
    return v_new, x_new, f


def _reference_row(v, x, qs):
    return ([np.mean(v), np.mean(x), np.var(v), np.var(x),
             np.mean((v * v) ** 2), np.mean((x * x) ** 2)],
            np.quantile(v, qs), np.quantile(x, qs))


PLAIN_LOOP_INIT = InitCondition(mean_v=1.2, mean_x=0.4, concentration=0.3)


def _check_against_plain_loop(params, n, t_end, stride, seed):
    """simulate against the plain loop and against em_step, each driven by
    its own block(1) generator of the seed, draw for draw in step order.
    Returns simulate's record."""
    p = ModelParams(**params)
    dt = 1e-3
    cfg = SimConfig(n=n, t_end=t_end, dt=dt, seed=seed, record_stride=stride)
    init = PLAIN_LOOP_INIT
    rec = simulate(cfg, p, init)

    stream = NoiseStream(cfg.seed)
    state = sample_initial(init, n, p, stream.block(0))
    stepped = state
    v, x, t = state.v, state.x, 0.0
    loop_rng, em_rng = stream.block(1), stream.block(1)
    times, rows = [0.0], [_reference_row(v, x, cfg.quantile_fractions)]
    n_steps = round(t_end / dt)  # dt divides every t_end here, so it is kept
    for k in range(n_steps):
        v, x, _ = _reference_step(v, x, p, dt, loop_rng)
        stepped = em_step(stepped, p, cfg, em_rng)
        assert np.array_equal(stepped.v, v) and np.array_equal(stepped.x, x)
        # step k ends at (k + 1) dt, the last one at t_end exactly
        t = t_end if k + 1 == n_steps else (k + 1) * dt
        if (k + 1) % stride == 0 or k + 1 == n_steps:
            times.append(t)
            rows.append(_reference_row(v, x, cfg.quantile_fractions))

    moments = np.array([r[0] for r in rows]).T
    assert np.array_equal(rec.t, np.array(times))
    for got, want in zip((rec.mean_v, rec.mean_x, rec.var_v, rec.var_x,
                          rec.m4_v, rec.m4_x), moments):
        assert np.array_equal(got, want)
    assert np.array_equal(rec.quantiles_v, np.vstack([r[1] for r in rows]))
    assert np.array_equal(rec.quantiles_x, np.vstack([r[2] for r in rows]))
    assert np.array_equal(rec.final_state.v, v)
    assert np.array_equal(rec.final_state.x, x)
    assert rec.final_state.t == t == t_end
    assert stepped.t == pytest.approx(t_end)  # em_step adds dt to its state's clock
    return rec


def _assert_same_record(got, want):
    for field in dataclasses.fields(TrajectoryRecord):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if field.name == "final_state":
            assert a.t == b.t and np.array_equal(a.v, b.v) and np.array_equal(a.x, b.x)
        else:
            assert np.array_equal(a, b), field.name


@pytest.mark.parametrize("params, n, t_end, stride", [
    (dict(epsilon=0.05), 64, 0.05, 7),
    (dict(epsilon=0.05, adaptation_noise=False), 33, 0.03, 4),
    (dict(epsilon=0.05, truncation=1.5), 40, 0.032, 5),
    (dict(epsilon=0.02), 1, 0.02, 3),
    # the ensemble-narrow network: 50 steps of 600 draws
    (dict(a=0.3, b=3.0, i_ext=10.0, epsilon=0.01), 300, 0.05, 10),
    # 50 steps of 4000 draws, with a record stride that does not divide them
    (dict(epsilon=0.05), 2000, 0.05, 9),
    # a step of 66 000 draws, more than 2**16 in one standard_normal call
    (dict(epsilon=0.05), 33_000, 0.005, 2),
    # the ensemble-narrow network over 250 steps: draws of 109, 109 and 32 steps
    (dict(a=0.3, b=3.0, i_ext=10.0, epsilon=0.01), 300, 0.25, 10),
    # adaptation noise off, one row of draws: 21, 21 and 8 steps
    (dict(epsilon=0.05, adaptation_noise=False), 3000, 0.05, 6),
    # the truncated nonlinearity: 16, 16, 16 and 2 steps
    (dict(epsilon=0.05, truncation=1.5), 2000, 0.05, 7),
])
def test_simulate_matches_plain_loop_bitwise(monkeypatch, params, n, t_end, stride):
    rec = _check_against_plain_loop(params, n, t_end, stride, seed=21)
    # the same record whatever number of steps one call draws: one, and
    # seven, which divides none of the step counts above
    p = ModelParams(**params)
    cfg = SimConfig(n=n, t_end=t_end, dt=1e-3, seed=21, record_stride=stride)
    rows = 2 if p.adaptation_noise else 1
    assert round(t_end / 1e-3) % 7
    for steps in (1, 7):
        monkeypatch.setattr(particle, "NOISE_BLOCK_NORMALS", steps * rows * n)
        _assert_same_record(simulate(cfg, p, PLAIN_LOOP_INIT), rec)


@pytest.mark.parametrize("seed", [-1, 2 ** 70 + 5])
def test_simulate_matches_plain_loop_bitwise_for_any_cli_seed(seed):
    # the CLI takes any integer seed; the stream keys on its low 128 bits
    _check_against_plain_loop(dict(epsilon=0.05), 64, 0.05, 7, seed)


@pytest.mark.parametrize("truncation", [None, 2.0])
def test_simulate_gives_one_record_for_any_real_type_of_parameter(truncation):
    # values exact in binary, so every type holds the same number; the
    # initial draw and the step take them as floats, so the record keeps its bits
    fields = dict(a=0.5, b=3.0, lam=4.0, i_ext=10.0, sigma=0.75, epsilon=0.0625,
                  truncation=truncation)
    cfg = SimConfig(n=50, t_end=0.05, dt=1e-3, seed=4, record_stride=7)
    want = simulate(cfg, ModelParams(**fields), PLAIN_LOOP_INIT)
    exact_ints = {k: int(v) for k, v in fields.items() if v is not None and v == int(v)}
    for given in ({k: np.float64(v) for k, v in fields.items() if v is not None},
                  {k: np.float32(v) for k, v in fields.items() if v is not None},
                  exact_ints):
        p = ModelParams(**{**fields, **given})
        _assert_same_record(simulate(cfg, p, PLAIN_LOOP_INIT), want)


def test_untruncated_steps_allocate_less_than_a_row():
    import tracemalloc

    # the step runs in place: 20 steps of 20 000 neurons, each with its
    # finiteness check, make no array of a row's size (156 KiB); the
    # truncated drift allocates in core.nonlinearity, so it is not checked
    n, dt = 20_000, 1e-3
    rng = np.random.default_rng(3)
    s = np.stack((1.2 + 0.1 * rng.standard_normal(n), 0.4 + 0.1 * rng.standard_normal(n)))
    stepper = particle._Stepper(ModelParams(epsilon=0.05), dt, s)
    noise = rng.standard_normal((21, stepper.rows, n))
    noise_sums = stepper.scale(noise)

    def step(k):
        stepper.step(np.add.reduce(s[0]).item() / n, noise[k], noise_sums[k])
        stepper.finite_sums((k + 1) * dt)

    step(0)  # warm-up
    tracemalloc.start()
    try:
        for k in range(1, 21):
            step(k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 1024


def test_noise_block_draws_do_not_depend_on_chunk_size():
    for seed in (2 ** 70 + 5, -1):
        stream = NoiseStream(seed)
        for k in (0, 1, 2, 2 ** 64 + 3):
            whole = stream.block(k).standard_normal(1000)
            rng = stream.block(k)
            chunked = np.empty((1000,))
            for lo, hi in ((0, 1), (1, 8), (8, 308), (308, 1000)):
                rng.standard_normal(out=chunked[lo:hi])
            assert np.array_equal(chunked, whole)
            rows = stream.block(k).standard_normal((10, 2, 50))
            assert np.array_equal(rows.ravel(), whole)


def test_recorded_quantiles_equal_numpy_quantile():
    qs = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)
    p = ModelParams(epsilon=0.05)
    for n in (1, 2, 5, 300):
        cfg = SimConfig(n=n, t_end=0.01, dt=1e-3, seed=4, quantile_fractions=qs)
        rec = simulate(cfg, p, InitCondition())
        final = rec.final_state
        assert np.array_equal(rec.quantiles_v[-1], np.quantile(final.v, qs))
        assert np.array_equal(rec.quantiles_x[-1], np.quantile(final.x, qs))
        assert np.array_equal(quantiles(final.v, qs), np.quantile(final.v, qs))


def test_quantiles_propagate_nan_and_reject_nan_fractions():
    assert np.isnan(quantiles(np.array([1.0, np.nan, 3.0]), [0.1])).all()
    with pytest.raises(ValueError):
        quantiles(np.array([1.0, 2.0]), [np.nan])


def test_simulate_blowup_reports_plain_loop_time_and_index(monkeypatch):
    # dt too large for the explicit cubic drift: the outlying neuron 37
    # overshoots further every step until its drift overflows
    p = ModelParams(epsilon=0.3, sigma=0.0, adaptation_noise=False)
    dt, n = 0.2, 200
    rng = np.random.default_rng(3)
    v0, x0 = 0.1 * rng.standard_normal(n), np.zeros(n)
    v0[37] = 6.0
    init = InitCondition(kind="custom", sampler=lambda n, rng: (v0, x0))
    v, x, k = v0, x0, 0
    quiet = np.random.default_rng(0)  # sigma = 0: the draws do not matter
    with np.errstate(over="ignore", invalid="ignore"):
        while np.isfinite(v).all() and np.isfinite(x).all():
            v, x, f = _reference_step(v, x, p, dt, quiet)
            k += 1
    t = k * dt  # the time step k ends at
    # the first neuron whose drift, else whose state, is not finite
    finite = np.isfinite(f) if not np.isfinite(f).all() else np.isfinite(v) & np.isfinite(x)
    bad = int(np.argmin(finite))
    assert t > 5 * dt and bad == 37
    # one call draws every step's noise, or three steps' at a time, which
    # puts the blow-up in a later call's steps
    for budget in (particle.NOISE_BLOCK_NORMALS, 3 * n):
        monkeypatch.setattr(particle, "NOISE_BLOCK_NORMALS", budget)
        with pytest.raises(BlowUpError) as info:
            simulate(SimConfig(n=n, t_end=100.0, dt=dt, seed=1), p, init)
        assert info.value.t == t and info.value.index == bad
        assert f"neuron {bad}" in str(info.value)
        assert f"[n={n}, seed=1, t_end=100.0]" in str(info.value)


def test_blowup_building_over_several_steps_names_the_outlier():
    # the mean carries the outlier's growing drift to every neuron, so all
    # drifts overflow in the same step; the culprit had the largest drift
    # one step before
    n = 64
    v0 = 0.1 * np.random.default_rng(3).standard_normal(n)
    named = []
    for v_out in (5.0, 8.0):
        v0[37] = v_out
        init = InitCondition(kind="custom", sampler=lambda n, rng: (v0, np.zeros(n)))
        for eps in (1.0, 0.1, 0.01):
            p = ModelParams(epsilon=eps, sigma=0.0, adaptation_noise=False)
            for dt in (0.1, 0.2, 0.3, 0.5):
                try:
                    simulate(SimConfig(n=n, t_end=10.0, dt=dt, seed=1), p, init)
                except BlowUpError as err:
                    named.append(err.index)
    assert named == [37] * 10


def test_simulate_draws_the_noise_of_many_steps_per_call(monkeypatch):
    calls = {}
    block = NoiseStream.block

    class Counting:
        def __init__(self, rng, index):
            self.rng, self.index = rng, index

        def standard_normal(self, *args, **kwargs):
            calls[self.index] = calls.get(self.index, 0) + 1
            return self.rng.standard_normal(*args, **kwargs)

    monkeypatch.setattr(NoiseStream, "block",
                        lambda self, index: Counting(block(self, index), index))
    # the ensemble-narrow network: 650 steps of 600 draws
    p = ModelParams(a=0.3, b=3.0, i_ext=10.0, epsilon=0.01)
    init = InitCondition(mean_v=0.0, mean_x=7.5, concentration=0.3)
    simulate(SimConfig(n=300, t_end=6.5, dt=0.01, seed=5), p, init)
    per_call = particle.NOISE_BLOCK_NORMALS // (2 * 300)
    assert calls[1] <= math.ceil(650 / per_call) + 1 <= 7
    # a step of 66 000 draws is more than one call's budget, so it takes its own
    calls.clear()
    simulate(SimConfig(n=33_000, t_end=0.005, dt=1e-3, seed=5), ModelParams(epsilon=0.05),
             InitCondition())
    assert calls[1] == 5


def test_simulate_starts_no_thread(monkeypatch):
    # the benchmark's tracer times spans on the calling thread only
    def refuse(self):
        raise AssertionError(f"simulate started thread {self.name}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    for p in (ModelParams(epsilon=0.05), ModelParams(adaptation_noise=False)):
        rec = simulate(SimConfig(n=2000, t_end=0.1, dt=0.01, seed=3), p, InitCondition())
        assert rec.t[-1] == 0.1


def test_simulate_is_bitwise_deterministic_under_thread_contention():
    # three runs at once on a short switch interval:
    # every run equals a run made alone, whatever the scheduling
    cfg = SimConfig(n=2000, t_end=1.0, dt=0.01, seed=11, record_stride=10)
    p, init = ModelParams(epsilon=0.05), InitCondition()
    alone = simulate(cfg, p, init)
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runs = [threading.Thread(target=lambda: results.append(simulate(cfg, p, init)))
                for _ in range(3)]
        for run in runs:
            run.start()
        for run in runs:
            run.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(run.is_alive() for run in runs) and len(results) == 3
    for rec in results:
        assert np.array_equal(rec.final_state.v, alone.final_state.v)
        assert np.array_equal(rec.var_x, alone.var_x)


def test_fourth_moment_matches_numpy_power():
    rng = np.random.default_rng(17)
    for n in (1, 7, 300, 20_000):
        v = rng.normal(1.5, 2.0, n) * 10.0 ** rng.integers(-3, 4)
        x = rng.standard_normal(n)
        m = empirical_moments(EnsembleState(0.0, v, x))
        assert m.m4_v == pytest.approx(np.mean(v ** 4), rel=1e-15, abs=0)
        assert m.m4_x == pytest.approx(np.mean(x ** 4), rel=1e-15, abs=0)


def _log_log_slope(hs, errs):
    return float(np.polyfit(np.log(hs), np.log(np.abs(errs)), 1)[0])


def test_weak_first_order_convergence_of_mean_and_variance():
    # a spread cluster leaving the middle branch, where the cubic drift
    # moves both the mean and the spread
    init = InitCondition(mean_v=2.0, mean_x=1.0, concentration=0.3)

    def final_stats(p, n, dt, seed):
        rec = simulate(SimConfig(n=n, t_end=1.0, dt=dt, seed=seed,
                                 record_stride=10 ** 9), p, init)
        return np.array([rec.mean_v[-1], rec.var_v[-1], rec.mean_x[-1], rec.var_x[-1]])

    # without noise the ensemble is a deterministic function of its initial
    # draw (block 0 of the seed), so every statistic converges at order one
    hs = (0.02, 0.01, 0.005)
    quiet = ModelParams(epsilon=0.05, sigma=0.0, adaptation_noise=False)
    ref = final_stats(quiet, 2000, 1e-4, 3)
    errs = np.array([final_stats(quiet, 2000, h, 3) - ref for h in hs])
    for j, name in enumerate(("mean_v", "var_v", "mean_x", "var_x")):
        assert 0.8 <= _log_log_slope(hs, errs[:, j]) <= 1.2, name

    # with noise, var_v at n = 20 000 carries a Monte Carlo error near 5e-4
    # against a discretisation error of 4e-3 at h = 0.02; the mean's
    # finite-n random walk, sqrt(2 t / n) = 0.01, hides its error instead;
    # h runs from 0.4 to 1.6 epsilon
    hs = (0.08, 0.04, 0.02)
    noisy = ModelParams(epsilon=0.05)
    ref = final_stats(noisy, 20_000, 1e-3, 100)
    errs = np.array([final_stats(noisy, 20_000, h, 0) - ref for h in hs])
    assert 0.8 <= _log_log_slope(hs, errs[:, 1]) <= 1.4
    assert abs(errs[-1, 1]) < 0.15 * noisy.epsilon


def test_stationary_voltage_variance_has_no_step_bias():
    # at rest (0, 0) the deviations are an Ornstein-Uhlenbeck process of
    # rate 1/eps + lambda, so var_v/eps = 1/(1 + eps lambda) = 0.982; at
    # h = eps/10 Euler-Maruyama reads it 1/(1 - h (1/eps + lambda)/2) too high
    p = ModelParams(a=0.3, b=0.1, lam=4.0, i_ext=0.0, epsilon=1 / 225)
    dt, n, t_end = p.epsilon / 10, 1000, 6.0
    init = InitCondition(concentration=0.3)
    rec = simulate(SimConfig(n=n, t_end=t_end, dt=dt, seed=5, record_stride=10),
                   p, init)
    late = rec.t >= 1.0
    ratio = float(np.mean(rec.var_v[late])) / p.epsilon
    exact = 1.0 / (1.0 + p.epsilon * p.lam)

    # Euler-Maruyama, written out, on the same initial ensemble
    stream = NoiseStream(5)
    state = sample_initial(init, n, p, stream.block(0))
    v, x = state.v, state.x
    steps = round(t_end / dt)
    em_vars = []
    for k in range(steps):
        rng = stream.block(k + 1)
        drift = -nonlinearity(v, p) + p.i_ext - x + (np.mean(v) - v) / p.epsilon
        v, x = (v + drift * dt + p.sigma * np.sqrt(2 * dt) * rng.standard_normal(n),
                x + (-p.a * x + p.b * v) * dt
                + np.sqrt(2 * p.epsilon * dt) * rng.standard_normal(n))
        if (k + 1) * dt >= 1.0 and (k + 1) % 10 == 0:
            em_vars.append(np.var(v))
    em_ratio = float(np.mean(em_vars)) / p.epsilon
    em_bias = exact / (1.0 - dt * (1.0 / p.epsilon + p.lam) / 2.0)

    assert ratio == pytest.approx(exact, abs=0.01)
    assert em_ratio == pytest.approx(em_bias, abs=0.01)
    assert abs(ratio - 1.0) < abs(em_ratio - 1.0)


@pytest.mark.parametrize("bad, match", [
    (dict(n=0), "n must be >= 1"),
    (dict(record_stride=0), "record_stride must be >= 1"),
    (dict(t_end=-1.0), "t_end must be finite and >= 0"),
    (dict(dt=0.0), "dt must be finite and > 0"),
    (dict(dt=-1e-3), "dt must be finite and > 0"),
])
def test_sim_config_rejects_bad_settings(bad, match):
    # t_end and dt are checked by core.time_steps, the step rule of every level
    with pytest.raises(ValueError, match=match):
        SimConfig(**{"n": 10, "t_end": 1.0, **bad})
