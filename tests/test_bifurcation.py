import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fhn_meanfield import bifurcation
from fhn_meanfield.bifurcation import (BISTABLE, CYCLE_DT, DEGENERACY_TOL,
                                       DEGENERATE_HOPF, DEGENERATE_SADDLE_NODE,
                                       MONOSTABLE_STABLE, OSCILLATORY,
                                       CycleDetectionError, classify,
                                       detect_limit_cycle, discriminant)
from fhn_meanfield.core import (BlowUpError, ModelParams, cubic, cubic_prime, time_steps,
                                uncoupled_drift)
from fhn_meanfield.limit_ode import LimitState, equilibria, rk4_integrate, rk4_step

params_strategy = st.builds(
    ModelParams,
    a=st.floats(0.05, 2.0),
    b=st.floats(0.0, 1.0),
    lam=st.floats(1.5, 8.0),
    i_ext=st.floats(-5.0, 8.0),
)


def _textbook_discriminant(p):
    # 18 p q r - 4 p^3 r + p^2 q^2 - 4 q^3 - 27 r^2 of v^3 + pv^2 + qv + r
    pp = -(1.0 + p.lam)
    qq = p.lam + p.b / p.a
    rr = -p.i_ext
    return (18.0 * pp * qq * rr - 4.0 * pp ** 3 * rr + pp ** 2 * qq ** 2
            - 4.0 * qq ** 3 - 27.0 * rr ** 2)


def _resultant_discriminant(p):
    # Sylvester resultant of the monic equilibrium cubic and its derivative;
    # for a monic cubic, disc = -Res(f, f')
    c2, c1, c0 = -(1.0 + p.lam), p.lam + p.b / p.a, -p.i_ext
    f = [1.0, c2, c1, c0]
    fp = [3.0, 2.0 * c2, c1]
    syl = np.zeros((5, 5))
    syl[0, 0:4] = f
    syl[1, 1:5] = f
    syl[2, 0:3] = fp
    syl[3, 1:4] = fp
    syl[4, 2:5] = fp
    return -np.linalg.det(syl)


def test_discriminant_bistable_hand_value():
    p = ModelParams(a=0.3, b=0.1, lam=4.0, i_ext=0.0)
    assert discriminant(p) == pytest.approx(3887.0 / 27.0, rel=1e-12)


def test_discriminant_monostable_hand_value():
    p = ModelParams(a=0.03, b=0.1, lam=4.0, i_ext=4.0)
    assert discriminant(p) == pytest.approx(-25.037, abs=0.01)


@given(params_strategy)
@settings(max_examples=100)
def test_discriminant_equals_textbook_form(p):
    assert discriminant(p) == pytest.approx(_textbook_discriminant(p),
                                            rel=1e-10, abs=1e-10)


@given(params_strategy)
@settings(max_examples=80, deadline=None)
def test_discriminant_matches_resultant(p):
    ours = discriminant(p)
    ref = _resultant_discriminant(p)
    assert ours == pytest.approx(ref, rel=1e-10, abs=1e-7 * max(1.0, abs(ref)))


def test_trace_hand_value():
    e = classify(ModelParams(a=0.3, lam=4.0)).equilibria[0]
    assert e.v == pytest.approx(0.0, abs=1e-12)
    assert e.trace == pytest.approx(-4.3)


def test_trace_hopf_boundary_as_a_vanishes():
    # at a zero of 3v^2 - 2(1+lam)v + lam the trace reduces to -a
    lam = 4.0
    v = (2.0 * (1 + lam) - np.sqrt(4 * (1 + lam) ** 2 - 12 * lam)) / 6.0
    for a in (1e-2, 1e-4, 1e-6):
        p = ModelParams(a=a, lam=lam)
        assert -cubic_prime(v, p) - p.a == pytest.approx(-a, abs=1e-9)


def _fd_jacobian(v, x, p, h=1e-6):
    j = np.zeros((2, 2))
    for col, (dv, dx) in enumerate([(h, 0.0), (0.0, h)]):
        up = (uncoupled_drift(v + dv, x + dx, p), -p.a * (x + dx) + p.b * (v + dv))
        dn = (uncoupled_drift(v - dv, x - dx, p), -p.a * (x - dx) + p.b * (v - dv))
        j[0, col] = (up[0] - dn[0]) / (2 * h)
        j[1, col] = (up[1] - dn[1]) / (2 * h)
    return j


@given(params_strategy)
@settings(max_examples=40, deadline=None)
def test_trace_matches_finite_difference_eigensum(p):
    for e in classify(p).equilibria:
        eigs = np.linalg.eigvals(_fd_jacobian(e.v, e.x, p))
        assert e.trace == pytest.approx(float(eigs.sum().real),
                                        abs=1e-6 * max(1.0, abs(e.v) ** 2))


def test_classify_bistable():
    rep = classify(ModelParams(a=0.3, b=0.1, lam=4.0, i_ext=0.0))
    assert rep.regime == BISTABLE
    assert len(rep.equilibria) == 3
    assert [e.label for e in rep.equilibria] == ["stable", "unstable", "stable"]


def test_classify_uncoupled_recovery():
    rep = classify(ModelParams(a=0.3, b=0.0, lam=4.0, i_ext=0.0))
    vs = [e.v for e in rep.equilibria]
    assert vs == pytest.approx([0.0, 1.0, 4.0], abs=1e-10)
    assert [e.label for e in rep.equilibria] == ["stable", "unstable", "stable"]


def test_classify_monostable_and_oscillatory():
    fam = dict(a=0.01, b=0.1, lam=4.0)
    assert classify(ModelParams(i_ext=5.0, **fam)).regime == MONOSTABLE_STABLE
    assert classify(ModelParams(i_ext=6.0, **fam)).regime == OSCILLATORY


def test_regime_flips_where_trace_crosses_zero():
    # bisection on T(v*(i_ext)) along the oscillatory family
    fam = dict(a=0.01, b=0.1, lam=4.0)

    def trace_of(i0):
        e, = classify(ModelParams(i_ext=i0, **fam)).equilibria
        return e.trace

    lo, hi = 5.0, 6.0
    assert trace_of(lo) < 0 < trace_of(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if trace_of(mid) < 0:
            lo = mid
        else:
            hi = mid
    i_star = 0.5 * (lo + hi)
    assert classify(ModelParams(i_ext=i_star - 1e-3, **fam)).regime == MONOSTABLE_STABLE
    assert classify(ModelParams(i_ext=i_star + 1e-3, **fam)).regime == OSCILLATORY


def test_classify_degenerate_hopf_at_a_vanishing_trace():
    # q = lam + b/a = 14 > (1 + lam)^2 / 3, so the equilibrium is unique for
    # every i_ext; T(v) = -3 v^2 + 10 v - 4.1 vanishes at v_h, and i_ext is
    # set so that v_h is the equilibrium
    a, b, lam = 0.1, 1.0, 4.0
    v_h = (10.0 - np.sqrt(100.0 - 12.0 * 4.1)) / 6.0
    i_h = float(cubic(v_h, ModelParams(lam=lam)) + b / a * v_h)
    at = lambda i_ext: classify(ModelParams(a=a, b=b, lam=lam, i_ext=i_ext))
    rep = at(i_h)
    assert rep.regime == DEGENERATE_HOPF
    (e,) = rep.equilibria
    assert e.v == pytest.approx(v_h, abs=1e-12)
    assert abs(e.trace) <= DEGENERACY_TOL and e.label == "marginal"
    # T grows with i_ext here: dT/di_ext = T'(v_h) / (N0'(v_h) + b/a) > 0
    assert at(i_h - 1e-6).regime == MONOSTABLE_STABLE
    assert at(i_h + 1e-6).regime == OSCILLATORY


def test_degenerate_saddle_node_annotation():
    # solve the quadratic (in i_ext) discriminant for an exact double root
    lam, a, b = 4.0, 0.3, 0.1
    q = lam + b / a
    lam1 = 1.0 + lam
    coeffs = [-27.0, 18.0 * lam1 * q - 4.0 * lam1 ** 3,
              -4.0 * q ** 3 + lam1 ** 2 * q ** 2]
    i_star = max(np.roots(coeffs))
    p = ModelParams(a=a, b=b, lam=lam, i_ext=float(i_star))
    rep = classify(p)
    assert abs(rep.delta) < 1e-6
    assert rep.regime == DEGENERATE_SADDLE_NODE or abs(rep.delta) > 1e-9
    if rep.regime == DEGENERATE_SADDLE_NODE:
        assert len(rep.equilibria) in (1, 2)
        assert any(e.label == "marginal" or abs(e.det) < 1e-3
                   for e in rep.equilibria)


def test_sign_of_delta_predicts_root_count_small_grid():
    a, b = 0.3, 0.1
    rng = np.random.default_rng(0)
    for _ in range(200):
        p = ModelParams(a=a, b=b, lam=rng.uniform(2, 6), i_ext=rng.uniform(-2, 6))
        delta = discriminant(p)
        if abs(delta) <= 1e-9:
            continue
        count = len(equilibria(p))
        assert (delta > 0 and count == 3) or (delta < 0 and count == 1)


# (a, b, lambda, i_ext) within a relative 1e-13 to 1e-7 of a saddle-node
# current, where the sign of Delta and the equilibria found disagree
NEAR_SADDLE_NODES = [
    (0.012248716169534374, 11.90727040338958, 332.33613833763485, 1283.7933467569262),
    (0.3428224661065284, 1468.347669818454, 754.2297467830375, 8437.171145583094),
    (0.08954004097730058, 26.93630782581547, 163.3112794550999, 330.64592516691476),
    (0.07856996806204102, 24.39998303473674, 170.91004250706985, 339.89933537662284),
    (0.0025910054562692953, 2.0406146270344268, 927.897187903237, 792.8168692468206),
]


@pytest.mark.parametrize("a, b, lam, i_ext", NEAR_SADDLE_NODES)
def test_classify_labels_the_equilibria_it_finds(a, b, lam, i_ext):
    p = ModelParams(a=a, b=b, lam=lam, i_ext=i_ext)
    rep = classify(p)
    count = len(equilibria(p))
    assert abs(rep.delta) > bifurcation.DEGENERACY_TOL
    if count == 2:
        assert rep.regime == DEGENERATE_SADDLE_NODE and len(rep.equilibria) == 2
    elif count == 3:
        assert rep.regime == BISTABLE and len(rep.equilibria) == 3
    else:
        (e,) = rep.equilibria
        assert rep.regime == (MONOSTABLE_STABLE if e.trace < 0 else OSCILLATORY)


@given(params_strategy)
@settings(max_examples=200, deadline=None)
def test_labels_follow_the_larger_real_part_of_the_eigenvalues(p):
    tol = bifurcation.DEGENERACY_TOL
    for e in classify(p).equilibria:
        top = max(z.real for z in e.eigenvalues)
        assert e.label == ("stable" if top < -tol else "unstable" if top > tol else "marginal")
        assert sum(e.eigenvalues).real == pytest.approx(e.trace, abs=1e-9 * (1 + abs(e.trace)))


@given(params_strategy)
@settings(max_examples=300, deadline=None)
def test_trace_and_determinant_read_one_slope_of_the_cubic(p):
    for e in classify(p).equilibria:
        assert e.trace == -cubic_prime(e.v, p) - p.a
        assert e.det == p.a * cubic_prime(e.v, p) + p.b


def _written_out_trace_and_label(v, p):
    # the label from the trace as it was once written out, -3 v^2 + 2 (1 + lam) v
    # - lam - a, whose last bit can differ from -N0'(v) - a's
    tr = -3.0 * v ** 2 + 2.0 * (1.0 + p.lam) * v - p.lam - p.a
    disc = tr * tr - 4.0 * (p.a * cubic_prime(v, p) + p.b)
    top = (tr + math.sqrt(disc)) / 2.0 if disc >= 0.0 else tr / 2.0
    tol = bifurcation.DEGENERACY_TOL
    return tr, "stable" if top < -tol else "unstable" if top > tol else "marginal"


def test_labels_and_regimes_match_the_written_out_trace_on_the_regime_scan_rectangle():
    tol = bifurcation.DEGENERACY_TOL
    for lam in np.linspace(2.0, 6.0, 96):
        for i_ext in np.linspace(-2.0, 6.0, 96):
            p = ModelParams(a=0.3, b=0.1, lam=float(lam), i_ext=float(i_ext))
            rep = classify(p)
            written = [_written_out_trace_and_label(e.v, p) for e in rep.equilibria]
            assert [e.label for e in rep.equilibria] == [label for _, label in written], p
            if rep.regime in (MONOSTABLE_STABLE, OSCILLATORY, DEGENERATE_HOPF):
                tr = written[0][0]
                assert rep.regime == (DEGENERATE_HOPF if abs(tr) <= tol
                                      else MONOSTABLE_STABLE if tr < 0.0 else OSCILLATORY), p


def _classify_by_composition(p):
    # classify as discriminant, equilibria and one _equilibrium_info per
    # equilibrium, each reading the cubic's coefficients anew
    delta = discriminant(p)
    infos = tuple([bifurcation._equilibrium_info(v, x, p) for v, x in equilibria(p)])
    merged = False
    if abs(delta) <= DEGENERACY_TOL or len(infos) == 2:
        if len(infos) == 3:
            gaps = [infos[1].v - infos[0].v, infos[2].v - infos[1].v]
            k = 0 if gaps[0] <= gaps[1] else 1
            mid = 0.5 * (infos[k].v + infos[k + 1].v)
            pair = bifurcation._equilibrium_info(mid, (p.b / p.a) * mid, p)
            infos = (pair, infos[2]) if k == 0 else (infos[0], pair)
            merged = True
        return (delta, infos, DEGENERATE_SADDLE_NODE), merged
    if len(infos) == 3:
        return (delta, infos, BISTABLE), merged
    tr = infos[0].trace
    regime = (DEGENERATE_HOPF if abs(tr) <= DEGENERACY_TOL
              else MONOSTABLE_STABLE if tr < 0.0 else OSCILLATORY)
    return (delta, infos, regime), merged


def _bits(report):
    # the report with every float as float.hex, so -0.0 differs from 0.0
    delta, infos, regime = report
    return (delta.hex(), regime, [
        (e.v.hex(), e.x.hex(), e.trace.hex(), e.det.hex(),
         [(z.real.hex(), z.imag.hex()) for z in e.eigenvalues], e.label)
        for e in infos])


def _saddle_node_band(a, b, lam):
    # points within 1e-9 of each saddle-node current, where a double root
    # v solves 3 v^2 - 2 (1 + lam) v + q = 0
    q = lam + b / a
    root = math.sqrt((1.0 + lam) ** 2 - 3.0 * q)
    for v in ((1.0 + lam - root) / 3.0, (1.0 + lam + root) / 3.0):
        i_sn = v ** 3 - (1.0 + lam) * v ** 2 + q * v
        for d in (-1e-9, -3e-10, -1e-12, 0.0, 1e-12, 3e-10, 1e-9):
            yield ModelParams(a=a, b=b, lam=lam, i_ext=i_sn + d)


def test_classify_has_the_bits_of_its_composition_on_the_regime_scan_rectangle():
    points = [ModelParams(a=0.3, b=0.1, lam=float(lam), i_ext=float(i_ext))
              for lam in np.linspace(2.0, 6.0, 61) for i_ext in np.linspace(-2.0, 6.0, 61)]
    points += [p for lam in np.linspace(2.0, 6.0, 21)
               for p in _saddle_node_band(0.3, 0.1, float(lam))]
    points += [p for a, b, lam in ((0.5, 0.05, 3.0), (0.1, 0.01, 8.0), (1.0, 0.3, 5.0))
               for p in _saddle_node_band(a, b, lam)]
    points.append(ModelParams(a=0.03, b=0.09, lam=4.0, i_ext=2.5))
    merges = 0
    for p in points:
        ref, merged = _classify_by_composition(p)
        assert _bits(classify(p)) == _bits(ref), p
        merges += merged
    assert merges >= 20  # the DegenerateSaddleNode merge of a split double root


@given(params_strategy)
@settings(max_examples=300, deadline=None)
def test_classify_has_the_bits_of_its_composition(p):
    assert _bits(classify(p)) == _bits(_classify_by_composition(p)[0])


def test_reports_are_immutable():
    rep = classify(ModelParams())
    with pytest.raises(AttributeError):
        rep.regime = OSCILLATORY
    with pytest.raises(AttributeError):
        rep.equilibria[0].label = "stable"


def _sign_rule_regime(p):
    # the regime by the sign of Delta, with None where the equilibria found
    # disagree with it
    delta = discriminant(p)
    eqs = equilibria(p)
    if abs(delta) <= bifurcation.DEGENERACY_TOL:
        return DEGENERATE_SADDLE_NODE
    if len(eqs) != (3 if delta > 0 else 1):
        return None
    if delta > 0:
        return BISTABLE
    tr = -cubic_prime(eqs[0][0], p) - p.a
    if abs(tr) <= bifurcation.DEGENERACY_TOL:
        return bifurcation.DEGENERATE_HOPF
    return MONOSTABLE_STABLE if tr < 0 else OSCILLATORY


def test_classify_agrees_with_the_sign_rule_on_the_regime_scan_rectangle():
    checked = 0
    for lam in np.linspace(2.0, 6.0, 51):
        for i_ext in np.linspace(-2.0, 6.0, 101):
            p = ModelParams(a=0.3, b=0.1, lam=float(lam), i_ext=float(i_ext))
            expected = _sign_rule_regime(p)
            if expected is not None:
                assert classify(p).regime == expected, p
                checked += 1
    assert checked == 51 * 101


def test_detect_cycle_converges_to_none_in_stable_regimes():
    # monostable with comfortably negative trace
    p = ModelParams(a=0.01, b=0.1, lam=4.0, i_ext=5.0)
    rep = classify(p)
    assert rep.equilibria[0].trace < -0.1
    e = rep.equilibria[0]
    out = detect_limit_cycle(p, LimitState(0.0, e.v + 0.3, e.x))
    assert out is None
    # bistable, started near a stable equilibrium
    p2 = ModelParams(a=0.3, b=0.1, lam=4.0, i_ext=0.0)
    e2 = classify(p2).equilibria[-1]
    out2 = detect_limit_cycle(p2, LimitState(0.0, e2.v + 0.2, e2.x))
    assert out2 is None


def test_detect_cycle_from_numpy_scalars_returns_the_floats_of_float_inputs():
    # a start from numpy.roots, as a library caller makes it
    a, b, lam, i_ext = 0.2, 2.0, 4.0, 8.0
    roots = np.roots([1.0, -(1.0 + lam), lam + b / a, -i_ext])
    v = roots[np.abs(roots.imag) < 1e-7].real[0]
    assert type(v) is np.float64
    p = ModelParams(a=a, b=b, lam=lam, i_ext=i_ext)
    s0 = LimitState(0.0, float(v + 0.5), float(b / a * v))
    ref = detect_limit_cycle(p, s0)
    cycle = detect_limit_cycle(p, LimitState(0.0, v + 0.5, b / a * v))
    assert cycle == ref
    assert all(type(f) is float for f in (cycle.period, cycle.v_min, cycle.v_max))
    # a numpy parameter keeps the bits
    assert detect_limit_cycle(ModelParams(a=a, b=b, lam=np.float64(lam), i_ext=i_ext), s0) == ref


def _reference_lap(p, s0, t_end, section):
    """Return time and v-range of the last whole lap between upward
    crossings of v = section by RK4 at dt = 0.0025, with linear crossings."""
    tr = rk4_integrate(s0, p, 0.0025, t_end)
    up = np.flatnonzero((tr.alpha[:-1] < section) & (tr.alpha[1:] >= section))
    frac = (section - tr.alpha[up]) / (tr.alpha[up + 1] - tr.alpha[up])
    cross = tr.t[up] + frac * (tr.t[up + 1] - tr.t[up])
    lap = tr.alpha[up[-2] + 1:up[-1] + 1]
    return cross[-1] - cross[-2], lap.min(), lap.max()


@pytest.mark.parametrize("a, b, lam, i_ext, t_end", [
    (0.2, 2.0, 4.0, 8.0, 150.0),     # period about 7
    (0.1, 1.0, 4.0, 10.0, 250.0),    # about 11.5
    (0.1, 1.0, 4.0, 6.0, 250.0),     # about 15
    (0.01, 0.1, 4.0, 6.0, 1000.0),   # about 112
])
def test_detect_cycle_matches_a_finer_rk4_lap(a, b, lam, i_ext, t_end):
    p = ModelParams(a=a, b=b, lam=lam, i_ext=i_ext)
    assert classify(p).regime == OSCILLATORY
    (v, x), = equilibria(p)
    s0 = LimitState(0.0, v + 0.5, x)
    period, v_min, v_max = _reference_lap(p, s0, t_end, v)
    c1 = detect_limit_cycle(p, s0)
    c2 = detect_limit_cycle(p, LimitState(0.0, 0.0, 0.0))
    assert c1.period == pytest.approx(period, rel=1e-6)
    assert c2.period == pytest.approx(c1.period, rel=1e-6)
    assert c1.v_min < v < c1.v_max
    assert c1.v_min == pytest.approx(v_min, abs=1e-3)
    assert c1.v_max == pytest.approx(v_max, abs=1e-3)


@pytest.mark.parametrize("i_ext", [5.4, 5.5])
def test_detect_cycle_finds_no_cycle_at_a_weakly_damped_focus(i_ext):
    # return times of a slowly shrinking spiral agree long before it settles
    p = ModelParams(a=0.01, b=0.1, lam=4.0, i_ext=i_ext)
    rep = classify(p)
    assert rep.regime == MONOSTABLE_STABLE and -0.11 < rep.equilibria[0].trace < 0
    e = rep.equilibria[0]
    assert detect_limit_cycle(p, LimitState(0.0, e.v + 0.5, e.x)) is None


@pytest.mark.parametrize("a, b, i_ext, trace_band", [
    (0.1, 1.0, 22.48317, (-1.1e-3, -0.9e-3)),
    (0.1, 1.0, 22.48220, (-3.3e-4, -2.7e-4)),
    (0.2, 2.0, 22.34415, (-1.1e-3, -0.9e-3)),
    (0.2, 2.0, 22.34317, (-3.3e-4, -2.7e-4)),
])
def test_detect_cycle_returns_no_cycle_at_a_weak_focus_by_a_hopf_point(a, b, i_ext, trace_band):
    # by the upper Hopf point each lap shrinks by a factor near 1: return
    # times and ranges change by under 1% a lap, while the section point
    # moves by a steady share of the range
    p = ModelParams(a=a, b=b, lam=4.0, i_ext=i_ext)
    rep = classify(p)
    e = rep.equilibria[0]
    assert rep.regime == MONOSTABLE_STABLE and trace_band[0] < e.trace < trace_band[1]
    for dv in (0.5, 0.05, 0.01):
        try:
            out = detect_limit_cycle(p, LimitState(0.0, e.v + dv, e.x), max_time=300.0)
        except CycleDetectionError:
            out = None
        assert out is None, dv


def test_detect_cycle_near_a_hopf_point_gives_one_period_from_every_start():
    # the cycle attracts at about the trace, 1e-2 per time unit, so laps
    # agree to 1% long before the orbit has settled
    p = ModelParams(a=0.2, b=2.0, lam=4.0, i_ext=22.32884)
    rep = classify(p)
    e = rep.equilibria[0]
    assert rep.regime == OSCILLATORY and 0.9e-2 < e.trace < 1.1e-2
    far = detect_limit_cycle(p, LimitState(0.0, e.v + 0.5, e.x))
    near = detect_limit_cycle(p, LimitState(0.0, e.v + 0.01, e.x))
    assert near.period == pytest.approx(far.period, rel=1e-6)
    period, v_min, v_max = _reference_lap(p, LimitState(0.0, e.v + 0.5, e.x), 1000.0, e.v)
    assert far.period == pytest.approx(period, rel=1e-5)
    assert far.v_min == pytest.approx(v_min, abs=1e-3)
    assert far.v_max == pytest.approx(v_max, abs=1e-3)


@pytest.mark.parametrize("a, b, lam, i_ext", [
    (0.2, 2.0, 4.0, 8.0), (0.1, 1.0, 4.0, 6.0), (0.1, 1.0, 4.0, 10.0),
    (0.01, 0.1, 4.0, 6.0), (0.02, 0.2, 5.0, 9.0),
])
def test_detect_cycle_stops_by_the_third_upward_crossing(monkeypatch, a, b, lam, i_ext):
    # these cycles attract fast: two whole laps settle the section map
    p = ModelParams(a=a, b=b, lam=lam, i_ext=i_ext)
    (v, x), = equilibria(p)
    alpha, beta, crossings, to_third = v + 0.5, x, 0, 0
    while crossings < 3:
        prev = alpha
        alpha, beta = rk4_step(alpha, beta, p, CYCLE_DT)
        to_third += 1
        crossings += prev < v <= alpha
    steps = []

    def counted(*args):
        steps.append(None)
        return rk4_step(*args)

    monkeypatch.setattr(bifurcation, "rk4_step", counted)
    assert detect_limit_cycle(p, LimitState(0.0, v + 0.5, x)) is not None
    assert len(steps) <= to_third


def test_detect_cycle_around_three_equilibria_from_each_of_them():
    # the section is the running midline; any level the cycle crosses
    # gives the same return time
    p = ModelParams(a=0.03, b=0.09, lam=4.0, i_ext=2.5)
    eqs = equilibria(p)
    assert len(eqs) == 3
    period, v_min, v_max = _reference_lap(
        p, LimitState(0.0, eqs[0][0] + 0.5, eqs[0][1]), 900.0, eqs[1][0])
    for v, x in eqs:
        cycle = detect_limit_cycle(p, LimitState(0.0, v + 0.5, x))
        assert cycle.period == pytest.approx(period, rel=1e-6)
        assert cycle.v_min == pytest.approx(v_min, abs=1e-3)
        assert cycle.v_max == pytest.approx(v_max, abs=1e-3)


def test_detect_cycle_never_steps_past_max_time(monkeypatch):
    # the period-112 cycle cannot settle in 30 time units
    p = ModelParams(a=0.01, b=0.1, lam=4.0, i_ext=6.0)
    (v, x), = equilibria(p)
    steps = []

    def counted(*args):
        steps.append(None)
        return rk4_step(*args)

    monkeypatch.setattr(bifurcation, "rk4_step", counted)
    with pytest.raises(CycleDetectionError):
        detect_limit_cycle(p, LimitState(0.0, v + 0.5, x), max_time=30.0)
    assert 0 < len(steps) <= round(30.0 / CYCLE_DT)


@pytest.mark.parametrize("max_time", [30.0, 10.0, 100.01, 0.1])
def test_detect_cycle_takes_the_steps_time_steps_takes(monkeypatch, max_time):
    # the period-112 cycle cannot settle within these budgets; one that
    # CYCLE_DT does not divide (100.01) ends at max_time with a shorter step
    p = ModelParams(a=0.01, b=0.1, lam=4.0, i_ext=6.0)
    (v, x), = equilibria(p)
    steps = []

    def counted(alpha, beta, q, dt):
        steps.append(dt)
        return rk4_step(alpha, beta, q, dt)

    monkeypatch.setattr(bifurcation, "rk4_step", counted)
    with pytest.raises(CycleDetectionError):
        detect_limit_cycle(p, LimitState(0.0, v + 0.5, x), max_time=max_time)
    n_steps, dt = time_steps(max_time, CYCLE_DT)
    assert steps == [dt] * n_steps


@pytest.mark.parametrize("max_time", [float("nan"), float("inf"), 0.0, -5.0])
def test_detect_cycle_rejects_a_bad_max_time_before_any_step(monkeypatch, max_time):
    p = ModelParams(a=0.01, b=0.1, lam=4.0, i_ext=6.0)
    monkeypatch.setattr(bifurcation, "rk4_step", None)  # a step would raise TypeError
    with pytest.raises(ValueError, match="max_time must be finite and > 0"):
        detect_limit_cycle(p, LimitState(0.0, 0.5, 0.0), max_time=max_time)


@pytest.mark.parametrize("max_time", [2000.0, 10.0])
def test_detect_cycle_raises_on_a_non_finite_trajectory(max_time):
    # RK4 at CYCLE_DT blows up from v = 20 within a few steps; the nan state
    # never moves, so it must not pass for a settled one, nor a too-short
    # budget for an inconclusive search
    p = ModelParams(a=0.1, b=1.0, lam=4.0, i_ext=6.0)
    with pytest.raises(BlowUpError) as err:
        detect_limit_cycle(p, LimitState(0.0, 20.0, 0.0), max_time=max_time)
    assert 0.0 < err.value.t <= max_time


def test_hermite_crossing_is_fourth_order():
    # one RK4 step of h straddles the section mid-step; the crossing time
    # and the x there are placed to O(h^4), where a linear interpolant is
    # off by O(h^2)
    p = ModelParams(a=0.1, b=1.0, lam=4.0, i_ext=10.0)
    (v, x), = equilibria(p)
    fine = 1e-4
    tr = rk4_integrate(LimitState(0.0, v + 0.5, x), p, fine, 60.0)
    k = np.flatnonzero((tr.alpha[:-1] < v) & (tr.alpha[1:] >= v))[-1]
    w = (v - tr.alpha[k]) / (tr.alpha[k + 1] - tr.alpha[k])
    t_cross = tr.t[k] + fine * w
    x_cross = tr.beta[k] + w * (tr.beta[k + 1] - tr.beta[k])
    t_errs, x_errs = [], []
    for h in (0.05, 0.025):
        j = int(round((t_cross - h / 2) / fine))
        a0, b0 = tr.alpha[j], tr.beta[j]
        a1, b1 = rk4_step(a0, b0, p, h)
        frac, x_at = bifurcation._crossing(p, h, v, a0, b0, a1, b1)
        t_errs.append(abs(tr.t[j] + frac * h - t_cross))
        x_errs.append(abs(x_at - x_cross))
    for errs in (t_errs, x_errs):
        assert errs[1] < 1e-6
        assert errs[0] / errs[1] > 10.0


def test_discriminant_requires_positive_a():
    with pytest.raises(ValueError):
        ModelParams(a=-0.3)


@pytest.mark.parametrize("a", [1e-120, 0.1 / 5.5e102], ids=["q cubed", "4 q cubed"])
def test_a_discriminant_that_is_not_finite_is_a_value_error(a):
    # q = lambda + b/a: at 1e119 the power q ** 3 overflows; at 5.5e102 the
    # power is finite and -4 q^3 rounds to -inf
    with pytest.raises(ValueError, match="discriminant is not finite"):
        discriminant(ModelParams(a=a))
    with pytest.raises(ValueError, match="discriminant is not finite"):
        classify(ModelParams(a=a))
