import numpy as np
import pytest

from fhn_meanfield.core import EnsembleState, ModelParams
from fhn_meanfield.diagnostics import (Profile, compare, log_density_profile,
                                       viscosity_residual)
from fhn_meanfield.fokker_planck import (DensityField, Grid, gaussian_field,
                                         hopf_cole)
from fhn_meanfield.core import InitCondition
from fhn_meanfield.limit_ode import LimitTrajectory
from fhn_meanfield.particle import (SimConfig, TrajectoryRecord, empirical_moments,
                                    simulate)

P = ModelParams(a=0.3, b=0.1, lam=4.0, epsilon=0.01)


def _flat_limit(t, alpha, beta):
    t = np.asarray(t, dtype=float)
    return LimitTrajectory(t, np.full(t.size, alpha), np.full(t.size, beta))


def test_profile_recovers_gaussian_quadratic():
    eps = 0.01
    rng = np.random.default_rng(0)
    errs = []
    for n in (20_000, 200_000):
        samples = 1.5 + np.sqrt(eps) * rng.standard_normal(n)
        prof = log_density_profile(samples, eps, 1.5, bins=int(round(n ** (1 / 3))))
        theo = -0.5 * (prof.centers - 1.5) ** 2
        use = ~prof.mask & (theo >= -4 * eps * np.log(10.0))
        errs.append(np.max(np.abs(prof.values[use] - theo[use])))
        assert prof.sup_error == errs[-1]
    assert errs[1] < errs[0]
    assert errs[1] < 0.01


def test_profile_translation_equivariance():
    rng = np.random.default_rng(1)
    samples = rng.standard_normal(5000)
    a = log_density_profile(samples, 0.1, 0.0, bins=32)
    b = log_density_profile(samples + 2.5, 0.1, 2.5, bins=32)
    assert np.allclose(b.centers - a.centers, 2.5, atol=1e-12)
    assert np.array_equal(a.counts, b.counts)
    assert np.allclose(a.values[~a.mask], b.values[~b.mask], atol=1e-12)
    assert np.allclose(a.target, b.target, atol=1e-12)
    assert b.sup_error == pytest.approx(a.sup_error, abs=1e-12)


def test_profile_linear_in_epsilon_before_shift():
    rng = np.random.default_rng(2)
    samples = rng.standard_normal(5000)
    eps = 0.05
    a = log_density_profile(samples, eps, 0.0, bins=32)
    b = log_density_profile(samples, 2 * eps, 0.0, bins=32)
    shift_a = 0.5 * eps * np.log(2 * np.pi * eps)
    shift_b = 0.5 * 2 * eps * np.log(2 * np.pi * 2 * eps)
    ok = ~a.mask
    assert np.allclose((b.values - shift_b)[ok], 2 * (a.values - shift_a)[ok],
                       atol=1e-12)


def test_profile_histogram_mass_and_peak_location():
    rng = np.random.default_rng(3)
    samples = 0.7 + 0.2 * rng.standard_normal(50_000)
    prof = log_density_profile(samples, 0.02, 0.7, bins=64)
    assert prof.counts.sum() == samples.size  # padded range covers everything
    width = prof.centers[1] - prof.centers[0]
    density_mass = prof.counts.sum() / samples.size  # counts/(n w) * w summed
    assert density_mass == pytest.approx(1.0, abs=1e-12)
    peak = prof.centers[np.nanargmax(np.where(prof.mask, -np.inf, prof.values))]
    assert abs(peak - samples.mean()) <= width


def test_profile_input_validation():
    with pytest.raises(ValueError):
        log_density_profile(np.zeros(10), 0.1, 0.0)
    with pytest.raises(ValueError):
        log_density_profile(np.zeros(2000), 0.1, 0.0, bins=4)


def test_profile_target_is_the_quadratic_about_its_centre():
    samples = np.random.default_rng(11).standard_normal(5000) * 0.3
    for center, c in ((1.2, 1.0), (-0.3, 0.25)):
        prof = log_density_profile(samples + center, 0.01, center, curvature=c)
        assert np.array_equal(prof.target, -0.5 * c * (prof.centers - center) ** 2)
        assert np.all(prof.target <= 0.0)
        width = prof.centers[1] - prof.centers[0]
        curv = np.diff(prof.target, 2) / width ** 2
        assert np.allclose(curv, -c, rtol=1e-6)


def _record(t, mean_v, mean_x, var_v, var_x):
    """A trajectory record of the given moments, one row per time."""
    t = np.asarray(t, dtype=float)
    zeros = np.zeros((t.size, 1))
    return TrajectoryRecord(t=t, mean_v=np.asarray(mean_v, dtype=float),
                            mean_x=np.asarray(mean_x, dtype=float),
                            var_v=np.asarray(var_v, dtype=float),
                            var_x=np.asarray(var_x, dtype=float),
                            m4_v=np.zeros(t.size), m4_x=np.zeros(t.size),
                            quantiles_v=zeros, quantiles_x=zeros,
                            quantile_fractions=(0.5,), dt=0.01)


def _sample_record(state):
    m = empirical_moments(state)
    return _record([state.t], [m.mean_v], [m.mean_x], [m.var_v], [m.var_x])


def _sup_errors(state, p, alpha, beta):
    return (log_density_profile(state.v, p.epsilon, alpha).sup_error,
            log_density_profile(state.x, p.epsilon, beta, curvature=p.a).sup_error)


def test_compare_on_exact_product_gaussian_samples():
    p = ModelParams(a=0.3, epsilon=0.01)
    rng = np.random.default_rng(4)
    n = 100_000
    alpha, beta = 0.8, 0.4
    state = EnsembleState(0.5,
                          alpha + np.sqrt(p.epsilon) * rng.standard_normal(n),
                          beta + np.sqrt(p.epsilon / p.a) * rng.standard_normal(n))
    c = compare(_sample_record(state), _flat_limit([0.5], alpha, beta), p)
    band = 3.0 / np.sqrt(n)
    assert c.var_ratio_v[0] == pytest.approx(1.0, abs=3 * band)
    assert c.var_ratio_x[0] == pytest.approx(1.0, abs=3 * band)
    assert c.mean_error[0] < 4 * np.sqrt(p.epsilon / p.a / n) + 4 * np.sqrt(p.epsilon / n)
    sup_v, sup_x = _sup_errors(state, p, alpha, beta)
    assert sup_v < 0.15 and sup_x < 0.15


def test_compare_centres_adaptation_profile_on_beta_at_unit_curvature():
    # a = 1 gives both profiles the same curvature; the x profile must still
    # be centred on beta, so its error matches a nearby curvature's
    rng = np.random.default_rng(12)
    n = 200_000
    alpha, beta, eps = 1.2, 0.5, 0.01
    z_v, z_x = rng.standard_normal(n), rng.standard_normal(n)
    errs = {}
    for a in (1.0, 0.999):
        p = ModelParams(a=a, epsilon=eps)
        state = EnsembleState(0.5, alpha + np.sqrt(eps) * z_v,
                              beta + np.sqrt(eps / a) * z_x)
        errs[a] = _sup_errors(state, p, alpha, beta)[1]
    assert errs[1.0] < 0.01
    assert errs[1.0] == pytest.approx(errs[0.999], rel=0.5)


def test_profile_sup_error_is_nan_without_a_resolvable_bin():
    prof = log_density_profile(np.random.default_rng(9).standard_normal(2000), 0.01, 50.0)
    assert np.isnan(prof.sup_error)


def test_compare_zero_mean_error_for_copied_means():
    p = ModelParams(a=0.3, epsilon=0.05)
    rec = simulate(SimConfig(n=200, t_end=0.2, dt=1e-3, seed=5, record_stride=20),
                   p, InitCondition(mean_v=1.0, mean_x=0.2))
    limit = LimitTrajectory(rec.t, rec.mean_v.copy(), rec.mean_x.copy())
    comp = compare(rec, limit, p)
    assert np.array_equal(comp.t, rec.t)
    assert np.all(comp.mean_error == 0.0)
    assert np.array_equal(comp.var_ratio_v, rec.var_v / p.epsilon)


def test_compare_alignment_error():
    # a limit on any other times is refused: one a fraction of a record
    # spacing off, one that stops early, and one with extra samples between
    p = ModelParams()
    rec = simulate(SimConfig(n=50, t_end=1.0, dt=1e-3, seed=6, record_stride=100),
                   p, InitCondition())
    for t in (rec.t + 1e-3, np.linspace(0.0, 0.2, 3), np.linspace(0.0, 1.0, 21)):
        with pytest.raises(ValueError, match="not recorded at the record's 11 times"):
            compare(rec, _flat_limit(t, 0.0, 0.0), p)


def test_compare_permutation_invariant():
    p = ModelParams(a=0.3, epsilon=0.01)
    rng = np.random.default_rng(7)
    v = rng.standard_normal(5000) * 0.1
    x = rng.standard_normal(5000) * 0.2
    perm = rng.permutation(5000)
    states = [EnsembleState(0.0, v, x), EnsembleState(0.0, v[perm], x[perm])]
    c1, c2 = (compare(_sample_record(s), _flat_limit([0.0], 0.0, 0.0), p) for s in states)
    assert c1.var_ratio_v[0] == pytest.approx(c2.var_ratio_v[0], rel=1e-12)
    e1, e2 = (_sup_errors(s, p, 0.0, 0.0) for s in states)
    assert e1 == e2


def test_viscosity_residual_zero_for_exact_quadratic():
    grid = Grid(v_min=-1.0, v_max=3.0, x_min=-1.0, x_max=1.0, nv=128, nx=16)
    p = ModelParams(epsilon=0.05)
    alpha = 1.0
    v = grid.v_centers()[None, :]
    psi = -0.5 * (v - alpha) ** 2 * np.ones((16, 1))
    field = hopf_cole(DensityField(grid, np.exp(psi / p.epsilon), 0.0), p)
    stats = viscosity_residual(field, alpha)
    assert stats.median_abs < 1e-6
    assert stats.p90_abs < 1e-5


def test_viscosity_residual_zero_when_independent_of_v():
    grid = Grid(v_min=-1.0, v_max=3.0, x_min=-1.0, x_max=1.0, nv=64, nx=16)
    p = ModelParams(epsilon=0.05)
    x = grid.x_centers()[:, None]
    psi = -0.3 * x ** 2 * np.ones((1, 64))
    field = hopf_cole(DensityField(grid, np.exp(psi / p.epsilon), 0.0), p)
    stats = viscosity_residual(field, 0.7)
    assert stats.median_abs == 0.0 and stats.p90_abs == 0.0


def test_viscosity_residual_requires_support():
    grid = Grid(v_min=-1.0, v_max=1.0, x_min=-1.0, x_max=1.0, nv=16, nx=16)
    p = ModelParams(epsilon=0.05)
    field = hopf_cole(DensityField(grid, np.zeros((16, 16)), 0.0), p)
    with pytest.raises(ValueError):
        viscosity_residual(field, 0.0)
