"""Tests for fpulab.integrators.

Energy-drift and agreement thresholds were measured on this implementation
and frozen with generous margins; the linear-flow comparisons use exact
dense-matrix propagators as oracles.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from fpulab.artifacts import read_series, write_series
from fpulab.integrators import (
    BOUNDARY_CHECK_TIME,
    BOUNDARY_WIDTH,
    EvolveConfig,
    SampledBackground,
    _check_edges,
    evolve_linearized,
    evolve_nonlinear,
)
from fpulab.lattice import (
    LatticeField,
    PotentialModel,
    _shift_backward_diff,
    _shift_forward_diff,
    hamiltonian,
    zeros_field,
)
from fpulab.waves import toda_soliton


@pytest.fixture(scope="module")
def toda():
    return PotentialModel.toda()


@pytest.fixture(scope="module")
def soliton():
    return toda_soliton(0.3)


def energies(traj, model):
    return np.array([hamiltonian(f, model) for f in traj.fields])


def mirrored_pulse(sol, offset, length, position):
    # spatial reflection of a solitary wave: r~(n) = r(-n), p~(n) = -p(1-n)
    # maps solutions to solutions, so this travels left at speed c
    fld = sol.lattice_field(offset=offset, length=length, position=-position)
    rm = fld.r[::-1].copy()
    pm = -np.roll(fld.p[::-1], 1)
    pm[0] = 0.0
    return LatticeField(offset, rm, pm)


def test_config_validation():
    with pytest.raises(ValueError):
        EvolveConfig(dt=0.3, t_end=1.0)
    with pytest.raises(ValueError):
        EvolveConfig(dt=0.0, t_end=1.0)
    with pytest.raises(ValueError):
        EvolveConfig(dt=0.1, t_end=1.0, stride=0)
    for t_end in (-1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="t_end must be nonnegative"):
            EvolveConfig(dt=0.1, t_end=t_end)
    # a fractional stride would record every ceil(stride)-th step
    for stride in (1.5, np.inf, np.nan):
        with pytest.raises(ValueError, match="stride must be an integer"):
            EvolveConfig(dt=0.1, t_end=1.0, stride=stride)
    # NaN would switch the boundary alarm off, a negative value would fire
    # it on the zero field; inf is the off switch
    for tol in (np.nan, -1e-8, -np.inf):
        with pytest.raises(ValueError, match="boundary_tol"):
            EvolveConfig(dt=0.1, t_end=1.0, boundary_tol=tol)
    EvolveConfig(dt=0.1, t_end=1.0, boundary_tol=np.inf)
    EvolveConfig(dt=0.1, t_end=1.0, boundary_tol=0.0)
    # 1.0 / 0.15 rounds to 7 steps, which would end the run at t = 1.05
    with pytest.raises(ValueError, match=r"t_end=1\.0 .* dt=0\.15.*=1\.05"):
        EvolveConfig(dt=0.15, t_end=1.0)
    # off the grid by rounding only: 203 steps of 0.05
    assert EvolveConfig(dt=0.05, t_end=10.15).n_steps == 203


def test_zero_state_stays_zero(toda):
    u0 = zeros_field(-20, 40)
    cfg = EvolveConfig(dt=0.1, t_end=5.0)
    traj = evolve_nonlinear(u0, toda, cfg)
    assert np.all(traj.final.r == 0.0)
    assert np.all(traj.final.p == 0.0)


def test_soliton_drift_and_speed(toda, soliton):
    u0 = soliton.lattice_field(offset=-90, length=270, position=0.0)
    cfg = EvolveConfig(dt=0.05, t_end=50.0, stride=10)
    traj = evolve_nonlinear(u0, toda, cfg)
    H = energies(traj, toda)
    rel_drift = np.max(np.abs(H - H[0])) / abs(H[0])
    assert rel_drift <= 1e-8  # measured 2.8e-9
    pred = soliton.c * traj.times
    com = np.array([np.sum(f.sites * f.r) / np.sum(f.r) for f in traj.fields])
    assert np.max(np.abs(com - pred)) <= 1e-10


def test_energy_error_halves_like_dt_squared(toda, soliton):
    # a traveling wave alone cancels the leading term of the modified
    # Hamiltonian (see test below), so perturb it to get the generic rate
    u0 = soliton.lattice_field(offset=-60, length=200, position=0.0)
    n = np.arange(len(u0)) + u0.offset
    u0.r += 0.05 * np.exp(-0.25 * (n - 12.0) ** 2)
    drifts = {}
    for dt in (0.1, 0.05, 0.025):
        cfg = EvolveConfig(
            dt=dt,
            t_end=20.0,
            stride=max(1, int(round(1.0 / dt))),
            boundary_tol=1e-5,
        )
        H = energies(evolve_nonlinear(u0, toda, cfg), toda)
        drifts[dt] = np.max(np.abs(H - H[0]))
    assert 3.5 <= drifts[0.1] / drifts[0.05] <= 4.5  # measured 3.997
    assert 3.5 <= drifts[0.05] / drifts[0.025] <= 4.5  # measured 3.999


def test_energy_error_is_quartic_on_exact_traveling_wave(toda, soliton):
    # the dt^2 term of the modified Hamiltonian is a lattice sum of a
    # translated profile, hence constant along the orbit: halving dt
    # shrinks the energy error ~16x instead of the generic ~4x
    u0 = soliton.lattice_field(offset=-90, length=270, position=0.0)
    drifts = {}
    for dt, stride in ((0.1, 5), (0.05, 10)):
        cfg = EvolveConfig(dt=dt, t_end=50.0, stride=stride)
        H = energies(evolve_nonlinear(u0, toda, cfg), toda)
        drifts[dt] = np.max(np.abs(H - H[0]))
    assert 10.0 <= drifts[0.1] / drifts[0.05] <= 25.0  # measured 16.0


def two_evaluation_verlet(u0, model, cfg):
    """Kick-drift-kick evaluating the force at the start and at the end of
    every step, recorded like evolve_nonlinear: the reference for the
    carried end-of-step force, for the buffered step (this one allocates
    a fresh array in every operation) and for the recording rule."""
    def force(r):
        d = model.dv(r)
        return np.concatenate(([d[0]], d[1:] - d[:-1]))

    r, p, dt = u0.r.copy(), u0.p.copy(), cfg.dt
    times, fields = [0.0], [(r.copy(), p.copy())]
    for k in range(cfg.n_steps):
        p = p + 0.5 * dt * force(r)
        r = r + dt * np.concatenate((p[1:] - p[:-1], [-p[-1]]))
        p = p + 0.5 * dt * force(r)
        if (k + 1) % cfg.stride == 0 or k + 1 == cfg.n_steps:
            times.append((k + 1) * dt)
            fields.append((r.copy(), p.copy()))
    return times, fields


# 203 steps recorded every 10: the last frame is the final step's own
CARRY_CFG = dict(dt=0.05, t_end=10.15, stride=10)
# 200 steps recorded every 7: 28 strides, t = 0 and t_end
STRIDE7_CFG = dict(dt=0.05, t_end=10.0, stride=7)


def test_verlet_evaluates_the_force_once_per_step():
    shapes = []

    def dv(r):
        shapes.append(np.shape(r))
        return r + 0.5 * r**2

    model = PotentialModel.custom(lambda r: 0.5 * r**2 + r**3 / 6.0, dv)
    u0 = zeros_field(-50, 100)
    u0.r[:] = 0.1 * np.exp(-0.1 * u0.sites**2)
    cfg = EvolveConfig(**CARRY_CFG)
    assert cfg.n_steps == 203
    shapes.clear()  # the normalization check evaluates V' too
    evolve_nonlinear(u0, model, cfg)
    assert shapes == [(1, 100)] * (cfg.n_steps + 1)
    # stacked fields share each call: one per step for all three rows
    b, c = zeros_field(-50, 100), zeros_field(-50, 100)
    b.p[:] = 0.05 * np.exp(-0.1 * b.sites**2)
    shapes.clear()
    trajs = evolve_nonlinear([u0, b, c], model, cfg)
    assert len(trajs) == 3
    assert shapes == [(3, 100)] * (cfg.n_steps + 1)
    assert np.all(trajs[2].final.r == 0.0)


# a stride past the last step records t = 0 and t_end only; t_end = 0
# records the initial frame alone
PAST_END_CFG = dict(dt=0.05, t_end=10.15, stride=1000)
AT_START_CFG = dict(dt=0.05, t_end=0.0, stride=10)


# (id suffix, config, frames recorded) of the Verlet bit-parity tests
VERLET_CASES = [
    pytest.param(case, config, frames, id=case + label)
    for case in ("toda_soliton", "alpha_fpu_bump")
    for label, config, frames in (("", CARRY_CFG, 22),
                                  ("-stride7", STRIDE7_CFG, 30),
                                  ("-past_end", PAST_END_CFG, 2),
                                  ("-at_start", AT_START_CFG, 1))
]


@pytest.mark.parametrize("case,config,frames", VERLET_CASES)
def test_carried_force_matches_two_evaluation_verlet(case, config, frames,
                                                    soliton):
    if case == "toda_soliton":
        model = PotentialModel.toda()
        u0 = soliton.lattice_field(offset=-90, length=200, position=0.0)
    else:
        model = PotentialModel.alpha_fpu()
        u0 = zeros_field(-100, 200)
        u0.r[:] = 0.1 * np.exp(-u0.sites**2 / 18.0)
        u0.p[:] = 0.05 * np.exp(-(u0.sites - 5.0) ** 2 / 8.0)
    cfg = EvolveConfig(**config)
    traj = evolve_nonlinear(u0, model, cfg)
    times, fields = two_evaluation_verlet(u0, model, cfg)
    assert traj.times.tolist() == times
    assert times[-1] == cfg.n_steps * cfg.dt
    assert len(traj.fields) == len(fields) == frames
    for got, (r, p) in zip(traj.fields, fields):
        assert np.array_equal(got.r, r) and np.array_equal(got.p, p)
    assert np.array_equal(traj.final.r, fields[-1][0])
    assert np.array_equal(traj.final.p, fields[-1][1])


def stacked_pair(case, soliton):
    """Two different initial fields on one window for `case`."""
    if case == "toda_soliton":
        model = PotentialModel.toda()
        a = soliton.lattice_field(offset=-90, length=200, position=0.0)
        b = toda_soliton(0.45).lattice_field(offset=-90, length=200,
                                             position=-20.0)
    else:
        model = PotentialModel.alpha_fpu()
        a, b = zeros_field(-100, 200), zeros_field(-100, 200)
        a.r[:] = 0.1 * np.exp(-a.sites**2 / 18.0)
        a.p[:] = 0.05 * np.exp(-(a.sites - 5.0) ** 2 / 8.0)
        b.r[:] = -0.07 * np.exp(-(b.sites + 9.0) ** 2 / 10.0)
    return model, a, b


@pytest.mark.parametrize("case,config,frames", VERLET_CASES)
def test_stacked_run_matches_one_field_runs(case, config, frames, soliton):
    model, a, b = stacked_pair(case, soliton)
    cfg = EvolveConfig(**config)
    both = evolve_nonlinear((a, b), model, cfg)
    assert isinstance(both, tuple) and len(both) == 2
    for got, u0 in zip(both, (a, b)):
        alone = evolve_nonlinear(u0, model, cfg)
        assert np.array_equal(got.times, alone.times)
        assert len(got.fields) == len(alone.fields) == frames
        for f, g in zip(got.fields, alone.fields):
            assert f.offset == g.offset
            assert np.array_equal(f.r, g.r) and np.array_equal(f.p, g.p)
    # the stacked state is stepped in copies: the inputs are untouched
    for f, g in zip((a, b), stacked_pair(case, soliton)[1:]):
        assert np.array_equal(f.r, g.r) and np.array_equal(f.p, g.p)


def test_stacked_fields_must_share_the_window(toda):
    a = zeros_field(-20, 40)
    for b in (zeros_field(-19, 40), zeros_field(-20, 41)):
        with pytest.raises(ValueError, match="share the window"):
            evolve_nonlinear((a, b), toda, EvolveConfig(dt=0.1, t_end=1.0))


def test_time_reversal(toda, soliton):
    u0 = soliton.lattice_field(offset=-60, length=160, position=0.0)
    cfg = EvolveConfig(dt=0.05, t_end=10.0, stride=100)
    fwd = evolve_nonlinear(u0, toda, cfg)
    mid = fwd.final
    back = evolve_nonlinear(
        LatticeField(mid.offset, mid.r.copy(), -mid.p), toda, cfg
    )
    assert np.max(np.abs(back.final.r - u0.r)) <= 1e-10
    assert np.max(np.abs(back.final.p + u0.p)) <= 1e-10


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), amp=st.floats(0.01, 0.2))
def test_time_reversal_random_data(seed, amp):
    model = PotentialModel.toda()
    rng = np.random.default_rng(seed)
    u0 = zeros_field(-24, 48)
    u0.r[8:-8] = amp * rng.normal(size=32)
    u0.p[8:-8] = amp * rng.normal(size=32)
    cfg = EvolveConfig(
        dt=0.1, t_end=2.0, stride=100, boundary_tol=1.0
    )
    fwd = evolve_nonlinear(u0, model, cfg)
    mid = fwd.final
    back = evolve_nonlinear(
        LatticeField(mid.offset, mid.r.copy(), -mid.p), model, cfg
    )
    assert np.max(np.abs(back.final.r - u0.r)) <= 1e-11
    assert np.max(np.abs(back.final.p + u0.p)) <= 1e-11


def test_head_on_collision_conserves_energy(toda):
    main = toda_soliton(0.4)
    small = toda_soliton(0.15)
    L, off = 380, -250
    u1 = main.lattice_field(offset=off, length=L, position=-60.0)
    u2 = mirrored_pulse(small, off, L, 40.0)
    u0 = LatticeField(off, u1.r + u2.r, u1.p + u2.p)
    cfg = EvolveConfig(dt=0.025, t_end=100.0, stride=40)
    H = energies(evolve_nonlinear(u0, toda, cfg), toda)
    assert np.max(np.abs(H - H[0])) <= 1e-8  # measured 2.5e-9


def test_free_linear_flow_conserves_norm(toda):
    rng = np.random.default_rng(7)
    L, off = 160, -80
    w0 = zeros_field(off, L)
    mask = np.abs(np.arange(L) + off) <= 10
    w0.r[mask] = rng.normal(size=mask.sum())
    w0.p[mask] = rng.normal(size=mask.sum())
    nrm0 = w0.norm()
    cfg = EvolveConfig(
        dt=0.02,
        t_end=50.0,
        stride=250,
        boundary_tol=np.inf,
    )
    traj = evolve_linearized(w0, None, toda, cfg)
    nrm = np.array([f.norm() for f in traj.fields])
    rel = np.abs(nrm - nrm0) / nrm0
    assert rel.max() <= 1e-6  # measured 1.6e-8


def _free_generator(length):
    A = np.zeros((2 * length, 2 * length))
    for j in range(2 * length):
        e = np.zeros(2 * length)
        e[j] = 1.0
        A[:, j] = np.concatenate(
            [_shift_forward_diff(e[length:]), _shift_backward_diff(e[:length])]
        )
    return A


def test_duhamel_matches_quadrature(toda):
    L, off = 160, -80
    mask = np.abs(np.arange(L) + off) <= 10
    rng = np.random.default_rng(11)
    g_r = np.zeros(L)
    g_p = np.zeros(L)
    g_r[mask] = rng.normal(size=mask.sum())
    g_p[mask] = rng.normal(size=mask.sum())

    def f1(t):
        if 0.0 <= t <= 1.0:
            amp = np.sin(np.pi * t) ** 2
            return LatticeField(off, amp * g_r, amp * g_p)
        return LatticeField(off, np.zeros(L), np.zeros(L))

    T = 5.0
    cfg = EvolveConfig(
        dt=0.01,
        t_end=T,
        stride=10**9,
        boundary_tol=np.inf,
    )
    traj = evolve_linearized(zeros_field(off, L), None, toda, cfg, forcing_f1=f1)
    got = np.concatenate([traj.final.r, traj.final.p])

    # Duhamel sum with exact propagators, Gauss-Legendre over the support
    A = _free_generator(L)
    gvec = np.concatenate([g_r, g_p])
    xs, wq = np.polynomial.legendre.leggauss(32)
    ref = np.zeros(2 * L)
    for xj, wj in zip(0.5 * (xs + 1.0), 0.5 * wq):
        ref += wj * np.sin(np.pi * xj) ** 2 * (expm((T - xj) * A) @ gvec)
    assert np.linalg.norm(got - ref) <= 1e-6  # measured 1.6e-8


def test_linearized_response_is_linear(toda):
    L, off = 80, -40
    rng = np.random.default_rng(5)
    w0 = zeros_field(off, L)
    w0.r[20:-20] = rng.normal(size=L - 40)
    w0.p[20:-20] = rng.normal(size=L - 40)
    alpha = 3.7
    w0s = LatticeField(off, alpha * w0.r, alpha * w0.p)
    cfg = EvolveConfig(
        dt=0.05,
        t_end=5.0,
        stride=10**9,
        boundary_tol=np.inf,
    )
    a = evolve_linearized(w0, None, toda, cfg)
    b = evolve_linearized(w0s, None, toda, cfg)
    assert np.allclose(b.final.r, alpha * a.final.r, rtol=1e-12, atol=1e-12)
    assert np.allclose(b.final.p, alpha * a.final.p, rtol=1e-12, atol=1e-12)


def test_linearized_matches_nonlinear_difference(toda, soliton):
    L, off = 120, -40
    U0 = soliton.lattice_field(offset=off, length=L, position=0.0)
    rng = np.random.default_rng(3)
    w0 = zeros_field(off, L)
    mask = np.abs(np.arange(L) + off - 5) <= 6
    w0.r[mask] = rng.normal(size=mask.sum())
    w0.p[mask] = rng.normal(size=mask.sum())

    eta, T = 1e-6, 5.0
    # Verlet is second order: at dt = 1e-3 its error in the difference
    # quotient (~1e-6 relative) stays at the O(eta) level, where at the
    # linear flow's dt = 0.01 it would be 1.1e-4
    cfg = EvolveConfig(
        dt=0.001,
        t_end=T,
        stride=10**9,
        boundary_tol=1e-4,
    )
    up = LatticeField(off, U0.r + eta * w0.r, U0.p + eta * w0.p)
    tp = evolve_nonlinear(up, toda, cfg)
    t0 = evolve_nonlinear(U0, toda, cfg)
    fd_r = (tp.final.r - t0.final.r) / eta
    fd_p = (tp.final.p - t0.final.p) / eta

    def background(t):
        return soliton.lattice_field(offset=off, length=L, position=soliton.c * t)

    cfg_lin = EvolveConfig(
        dt=0.01,
        t_end=T,
        stride=10**9,
        boundary_tol=np.inf,
    )
    lin = evolve_linearized(w0, background, toda, cfg_lin)
    diff = np.sqrt(
        np.sum((lin.final.r - fd_r) ** 2 + (lin.final.p - fd_p) ** 2)
    )
    assert diff / lin.final.norm() <= 5e-6  # measured 1.1e-6, O(eta)

    # sampled trajectory as background works the same way
    cfg_b = EvolveConfig(dt=0.001, t_end=T, stride=10, boundary_tol=1e-4)
    base = evolve_nonlinear(U0, toda, cfg_b)
    sb = SampledBackground(base.times, base.fields)
    lin2 = evolve_linearized(w0, sb, toda, cfg_lin)
    diff2 = np.sqrt(
        np.sum((lin2.final.r - fd_r) ** 2 + (lin2.final.p - fd_p) ** 2)
    )
    assert diff2 / lin2.final.norm() <= 5e-6  # measured 1.1e-6


def test_background_is_evaluated_once_per_stage_time(toda, soliton):
    L, off = 120, -40
    times, forced = [], []

    def background(t):
        times.append(t)
        return soliton.lattice_field(offset=off, length=L, position=soliton.c * t)

    def forcing(t):
        forced.append(t)
        return zeros_field(off, L)

    w0 = zeros_field(off, L)
    w0.r[35:45] = 1.0
    # t0, then t + dt/2 (k2 and k3) and t + dt (k4 and the next k1) per
    # step, for the background and the forcing alike
    dt, n = 2.0**-6, 40
    cfg = EvolveConfig(dt=dt, t_end=n * dt, stride=10**9,
                       boundary_tol=np.inf)
    evolve_linearized(w0, background, toda, cfg, forcing_f1=forcing)
    assert times == forced == [j * dt / 2.0 for j in range(2 * n + 1)]
    # with dt = 0.01 the k4 time of a step must still be the next step's
    # k1 time, so the 2n + 1 calls come at 2n + 1 distinct times
    dt, n = 0.01, 300
    times.clear()
    forced.clear()
    cfg = EvolveConfig(dt=dt, t_end=n * dt, stride=10**9,
                       boundary_tol=np.inf)
    evolve_linearized(w0, background, toda, cfg, forcing_f1=forcing)
    assert len(times) == len(set(times)) == 2 * n + 1
    assert forced == times
    # without a background the forcing alone is asked at each stage time
    forced.clear()
    evolve_linearized(w0, None, toda, cfg, forcing_f1=forcing)
    assert forced == times


def test_sampled_background_interpolation():
    times = np.array([0.0, 1.0, 2.0])
    fields = [zeros_field(0, 4) for _ in range(3)]
    for k, f in enumerate(fields):
        f.r[:] = float(k)
    sb = SampledBackground(times, fields)
    assert sb(1.0).r[0] == 1.0
    assert sb(0.5).r[0] == pytest.approx(0.5)
    with pytest.raises(ValueError):
        sb(2.5)
    for t in (-0.1, np.nan):
        with pytest.raises(ValueError, match="outside"):
            sb(t)
    with pytest.raises(ValueError, match="at least two fields"):
        SampledBackground(times[:2], fields)
    with pytest.raises(ValueError, match="at least two fields"):
        SampledBackground(times[:1], fields[:1])
    with pytest.raises(ValueError, match="times must increase"):
        SampledBackground(np.array([0.0, 1.0, 1.0]), fields)


def test_boundary_alarm(toda, soliton):
    u0 = soliton.lattice_field(offset=-15, length=30, position=0.0)
    cfg = EvolveConfig(dt=0.1, t_end=20.0)
    with pytest.raises(RuntimeError, match="enlarge the window"):
        evolve_nonlinear(u0, toda, cfg)


@pytest.mark.parametrize("dt", [0.05, 0.1, 0.25])
def test_boundary_alarm_fires_between_records(toda, dt):
    # a kappa = 0.5 soliton leaves [-40, 40) and its reflection is back
    # inside by t_end; with no frame recorded in between, the edge checks
    # of the live state every BOUNDARY_CHECK_TIME must still fire, and
    # name the time of the check that fired
    u0 = toda_soliton(0.5).lattice_field(offset=-40, length=80, position=0.0)
    cfg = EvolveConfig(dt=dt, t_end=90.0, stride=10**9, boundary_tol=1e-3)
    assert BOUNDARY_CHECK_TIME == 2.5
    with pytest.raises(RuntimeError, match=r"at t=22\.5; enlarge the window"):
        evolve_nonlinear(u0, toda, cfg)


def test_stacked_alarm_names_the_field_that_fired(toda):
    # only the second field reaches the edge: the alarm fires at the time
    # it fires when that field runs alone, and names it
    u0 = toda_soliton(0.5).lattice_field(offset=-40, length=80, position=0.0)
    quiet = zeros_field(-40, 80)
    cfg = EvolveConfig(dt=0.1, t_end=90.0, stride=10**9, boundary_tol=1e-3)
    with pytest.raises(RuntimeError) as alone:
        evolve_nonlinear(u0, toda, cfg)
    with pytest.raises(RuntimeError) as stacked:
        evolve_nonlinear((quiet, u0), toda, cfg)
    assert str(stacked.value) == "field 2 of 2: " + str(alone.value)
    assert "at t=22.5; enlarge the window" in str(stacked.value)
    # the same on a record: the first frame of a field at the edge
    edge = toda_soliton(0.3).lattice_field(offset=-8, length=16, position=0.0)
    fields = (zeros_field(-8, 16), zeros_field(-8, 16), edge)
    with pytest.raises(RuntimeError, match=r"^field 3 of 3: boundary mass "):
        evolve_nonlinear(fields, toda, EvolveConfig(dt=0.1, t_end=0.0))


def test_boundary_alarm_reads_boundary_mass(toda, soliton):
    u0 = soliton.lattice_field(offset=-8, length=16, position=0.0)
    mass = max(u0.boundary_mass(BOUNDARY_WIDTH))
    cfg = EvolveConfig(dt=0.1, t_end=0.0, boundary_tol=mass)
    evolve_nonlinear(u0, toda, cfg)  # at the tolerance: no alarm
    cfg.boundary_tol = mass * (1.0 - 1e-12)
    with pytest.raises(RuntimeError, match="boundary mass %.3e" % mass):
        evolve_nonlinear(u0, toda, cfg)
    # the edge checks between records read no finiteness check first: a
    # NaN mass on either edge must fire them, beside a quiet one
    nan_edge = zeros_field(-8, 16)
    nan_edge.p[-1] = np.nan
    with pytest.raises(RuntimeError, match=r"^boundary mass nan exceeds 1e-08 at t=2"):
        _check_edges(2.0, nan_edge, EvolveConfig(dt=0.1, t_end=1.0), "")


def test_nonfinite_abort():
    model = PotentialModel.alpha_fpu()
    u0 = zeros_field(-20, 40)
    u0.r[18:22] = -1e4
    cfg = EvolveConfig(dt=0.25, t_end=50.0, boundary_tol=np.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RuntimeError, match="^state became non-finite") as alone:
            evolve_nonlinear(u0, model, cfg)
        with pytest.raises(RuntimeError) as stacked:
            evolve_nonlinear((zeros_field(-20, 40), u0), model, cfg)
    assert str(stacked.value) == "field 2 of 2: " + str(alone.value)


def test_trajectory_csv(tmp_path, toda, soliton):
    u0 = soliton.lattice_field(offset=-30, length=80, position=0.0)
    cfg = EvolveConfig(dt=0.1, t_end=1.0, stride=5, boundary_tol=1e-3)
    traj = evolve_nonlinear(u0, toda, cfg)
    H = energies(traj, toda)
    path = tmp_path / "energy.csv"
    write_series(path, {"t": traj.times, "H": H})
    assert path.read_text().splitlines()[0] == "t,H"
    back = read_series(path)
    assert np.array_equal(back["t"], traj.times)
    assert np.array_equal(back["H"], H)

