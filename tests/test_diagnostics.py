from dataclasses import replace

import numpy as np
import pytest

from fpulab.diagnostics import (
    _train_profile,
    band_split,
    decay_fit,
    dispersion_check,
    lambda_branches,
    stability_metrics,
    symbol_and_tail_check,
    virial_series,
    weighted_norm,
)
from fpulab.integrators import EvolveConfig, evolve_nonlinear
from fpulab.lattice import LatticeField, PotentialModel, WeightKind, WeightSpec
from fpulab.modulation import ProfileTable, perturbation_split, train_field
from fpulab.waves import kappa_of_speed, solve_profile, speed_of_eps, speed_of_kappa, toda_soliton


def test_sigmoid_weighted_norm_far_left_of_the_center():
    rng = np.random.default_rng(5)
    u = LatticeField(-100, rng.standard_normal(201), rng.standard_normal(201))
    weight = WeightSpec(0.5, center=0.0, kind=WeightKind.SIGMOID)  # a s >= -50
    direct = np.sqrt(np.sum((1.0 + np.tanh(0.5 * u.sites)) * (u.r**2 + u.p**2)))
    with np.errstate(all="raise"):
        got = weighted_norm(u, weight)
    assert abs(got - direct) < 1e-13 * direct


@pytest.mark.parametrize("kind", list(WeightKind))
def test_weighted_norm_of_zero_field_is_zero(kind):
    u = LatticeField(-10, np.zeros(21), np.zeros(21))
    with np.errstate(all="raise"):
        assert weighted_norm(u, WeightSpec(0.5, center=0.0, kind=kind)) == 0.0


def test_band_split_reconstructs_the_weighted_field():
    rng = np.random.default_rng(3)
    u = LatticeField(-60, rng.standard_normal(150), rng.standard_normal(150))
    eps, k1 = 0.1, 1.0
    split = band_split(u, eps, k1=k1, t=2.5)
    back = split.reconstruct()
    ramp = np.exp(k1 * eps * u.sites)
    assert back.offset == u.offset
    for got, want in ((back.r, ramp * u.r), (back.p, ramp * u.p)):
        # measured 4.1e-16
        assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))


def test_decay_fit_recovers_a_pure_exponential():
    t = np.linspace(0.0, 20.0, 81)
    fit = decay_fit(t, 3.0 * np.exp(-0.37 * t))
    assert abs(fit.rate + 0.37) < 1e-12
    assert abs(fit.intercept - np.log(3.0)) < 1e-12
    assert fit.r_squared == 1.0
    assert fit.t_start == t[40] and fit.samples == 41


def test_fourier_tail_slope_is_the_sech_pole_rate():
    # series minus integral transform of the scaled 1-soliton profile is
    # the first alias of its transform, which decays like e^{-pi^2/(2 k eps)}
    # with an eps-independent prefactor, so the log-linear slope in 1/eps
    # is -pi^2/2 at k = 1
    rep = symbol_and_tail_check((0.2, 0.1), 0.5, family=(1.0,),
                                tail_eps_values=(0.6, 0.5, 0.4, 0.3))
    assert abs(rep.tail_slope + np.pi**2 / 2.0) < 1e-8  # measured 6.0e-10


@pytest.mark.parametrize("a, gap", [(0.5, 0.29), (1.0, 0.41)])
def test_symbol_sup_tends_to_the_kdv_limit(a, gap):
    # 4 sin^2(z/2) = z^2 - z^4/12 + O(z^6) and c^2 - 1 = eps^2/3 + O(eps^4),
    # so eps^2 m(eps (eta + i a)) -> 12 / (4 + (eta + i a)^2), largest at
    # eta = 0: 12 / (4 - a^2).  The sup approaches it from below by
    # gap * eps^2; measured (limit - sup) / eps^2 = 0.279 to 0.283 at
    # a = 0.5 and 0.394 to 0.400 at a = 1 for eps from 0.4 to 0.05
    eps_values = (0.4, 0.2, 0.1, 0.05)
    rep = symbol_and_tail_check(eps_values, a, tail_eps_values=(0.6, 0.5))
    limit = 12.0 / (4.0 - a**2)
    scaled = [(limit - rep.symbol_sup[eps]) / eps**2 for eps in eps_values]
    assert all(0.0 < s < gap for s in scaled)
    # an O(eps^2) gap: its scaled size moves by 1.6% at most, measured
    assert max(scaled) < 1.03 * min(scaled)


def test_cubic_error_falls_at_fifth_order():
    # lambda_+ minus its cubic polynomial is O(eps^5 <eta>^5) on |eta| <= 2K:
    # halving eps divides cubic_error by 31.6, 32.0 and 32.0 (measured,
    # 0.4 -> 0.2 -> 0.1 -> 0.05), and cubic_scale, the error over
    # eps^5 <eta>^5, stays at 4.58e-4 to 4.65e-4
    reps = [dispersion_check(eps, 0.5) for eps in (0.4, 0.2, 0.1, 0.05)]
    for coarse, fine in zip(reps, reps[1:]):
        assert abs(np.log2(coarse.cubic_error / fine.cubic_error) - 5.0) < 0.05
    for rep in reps:
        assert 4.5e-4 < rep.cubic_scale < 4.7e-4
        assert rep.holds


@pytest.mark.parametrize("eps", [0.2, 0.1, 0.05])
def test_train_profile_peaks_at_the_lattice_wave_amplitude(eps):
    # a lattice wave at speed_of_eps(eps) peaks at eps^2 (1 + O(eps^2)), and
    # so must the scaled KdV 1-soliton eps^2 phi_1(eps x); measured ratios
    # 0.9914, 0.9978, 0.9995 (Toda) and 1.0014, 1.0003, 1.0001 (alpha-FPU)
    c = speed_of_eps(eps)
    g, _ = _train_profile((1.0,), eps)
    kdv_peak = np.max(g(np.linspace(-3.0, 3.0, 6001) / eps))
    for prof in (toda_soliton(kappa_of_speed(c)),
                 solve_profile(PotentialModel.alpha_fpu(), c)):
        assert abs(prof.r_at(np.array([0.0]))[0] / kdv_peak - 1.0) < eps**2


@pytest.mark.parametrize("eps, a, k1", [(0.1, 0.5, 1.0), (0.05, 1.2, 1.0),
                                        (0.2, 0.3, 0.8)])
def test_minus_margin_is_the_closed_form(eps, a, k1):
    # Im lambda_-(eps (eta + i a)) - eps a
    #   = (c1eps - 1) eps a + 2 cos(eps eta / 2) sinh(eps a / 2),
    # c1eps - 1 = (k1 eps)^2 / 6; the cosine falls to 0 at eta = +-pi/eps
    rep = dispersion_check(eps, a, k1=k1)
    want = eps**3 * a * k1**2 / 6.0
    assert abs(rep.margins["minus"] - want) < 1e-10 * want
    for eta in (-np.pi / eps, np.pi / eps):
        _, lam_m = lambda_branches(eps * (eta + 1j * a), rep.c1eps)
        assert abs(lam_m.imag - eps * a - want) < 1e-10 * want


@pytest.mark.parametrize("eps, a", [(0.2, 0.5), (0.1, 1.0), (0.3, 0.2),
                                    (0.05, 1.5)])
def test_plus_margins_are_the_closed_form(eps, a):
    # Im lambda_+(eps (eta + i a))
    #   = c1eps eps a - 2 cos(eps eta / 2) sinh(eps a / 2)
    # in real arithmetic, minimized over each band of the function's own grid
    rep = dispersion_check(eps, a)
    K, delta, eta = rep.K, rep.delta, rep.eta
    im_plus = (rep.c1eps * eps * a
               - 2.0 * np.cos(eps * eta / 2.0) * np.sinh(eps * a / 2.0))
    quad = (np.abs(eta) >= K) & (np.abs(eta) <= 2.0 * delta / eps)
    high = np.abs(eta) >= 2.0 * delta / eps
    want = {
        "quadratic": np.min(im_plus[quad] - eps**3 * a * eta[quad] ** 2 / 16.0),
        "high_plus": np.min(im_plus[high] - eps * a * (1.0 - np.cos(delta))),
    }
    for key, value in want.items():
        # measured 3.5e-13 relative at most
        assert abs(rep.margins[key] - value) < 1e-10 * abs(value)
    # cos(eps eta / 2) <= cos(delta) on the high band, so its margin is at
    # least the continuous infimum at |eta| = 2 delta / eps
    infimum = (rep.c1eps * eps * a
               - 2.0 * np.cos(delta) * np.sinh(eps * a / 2.0)
               - eps * a * (1.0 - np.cos(delta)))
    assert rep.margins["high_plus"] >= infimum


@pytest.mark.parametrize("eps", [1.2, 1.0, 0.99999, -0.1])
def test_dispersion_check_rejects_an_empty_quadratic_band(eps):
    # K <= |eta| <= 2 delta / eps holds no point of the grid once
    # eps >= 2 delta / K = 1, or within a grid step below it
    with pytest.raises(ValueError, match="2 delta / K = 1"):
        dispersion_check(eps, 0.5)


def test_virial_ledger_is_monotone_under_its_hypotheses():
    # a small free Toda bump; the sigmoid center outruns the sound speed by
    # eps^2 / 12, above the eps^2 / 24 floor, and a eps + |v0| stays
    # below eps^2 / 2, so the weighted energy may only decrease
    toda = PotentialModel.toda()
    sites = -200 + np.arange(400)
    bump = np.exp(-sites**2 / 72.0)
    u0 = LatticeField(-200, 0.002 * bump, -0.001 * bump)
    cfg = EvolveConfig(dt=0.05, t_end=40.0, stride=20, boundary_tol=1e-6)
    traj = evolve_nonlinear(u0, toda, cfg)
    eps, a = 0.2, 0.05
    rep = virial_series(traj, a, lambda t: -20.0 + (1.0 + eps**2 / 12.0) * t,
                        toda, eps=eps)
    assert rep.flags == []
    assert rep.max_step_increase() < 0.0  # measured -5.8e-9
    assert np.isfinite(rep.fitted_constant()) and rep.fitted_constant() > 0.0
    # control: a subsonic center breaks the hypothesis, the flag says so
    # and the ledger grows
    slow = virial_series(traj, a, lambda t: -20.0 + 0.9 * t, toda, eps=eps)
    assert len(slow.flags) == 1 and "center speed" in slow.flags[0]
    assert slow.max_step_increase() > 0.0  # measured +3.3e-8


def test_stability_metrics_ignore_the_site_labels():
    # a kicked Toda pair; relabelling every site n -> n + d moves each
    # field offset and each tracked crest by d and changes no distance
    toda = PotentialModel.toda()
    c = np.array([speed_of_kappa(0.3), speed_of_kappa(0.45)])
    x = np.array([-15.0, 15.0])
    offset, length = -80, 201
    sites = offset + np.arange(length)
    train = train_field(ProfileTable(toda), c, x, offset, length)
    bump = np.exp(-((sites + 8.0) ** 2) / 12.0)
    v0 = LatticeField(offset, 1e-3 * bump, -7e-4 * bump)
    u0 = LatticeField(offset, train.r + v0.r, train.p + v0.p)
    cfg = EvolveConfig(dt=0.05, t_end=10.0, stride=20)
    split = perturbation_split(u0, v0, toda, cfg, (c, x))
    eps = split.track.states[0].eps
    want = stability_metrics(split.track, split, eps)

    def moved(f, d):
        return LatticeField(f.offset + d, f.r, f.p)

    for d in (-1000, 37):
        states = [replace(s, x=s.x + d, residual=moved(s.residual, d))
                  for s in split.track.states]
        relabelled = replace(
            split, track=replace(split.track, states=states),
            free=[moved(f, d) for f in split.free])
        got = stability_metrics(relabelled.track, relabelled, eps)
        for key in ("M1", "M2", "M3", "M4", "M5"):
            assert want[key] > 0.0
            assert abs(got[key] - want[key]) <= 1e-12 * want[key]
        # the bound part is read from the track, so a split measured
        # against another track is refused
        with pytest.raises(ValueError, match="track"):
            stability_metrics(split.track, relabelled, eps)
