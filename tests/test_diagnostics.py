import numpy as np
import pytest

from fpulab.diagnostics import (
    band_split,
    decay_fit,
    dispersion_check,
    lambda_branches,
    symbol_and_tail_check,
    weighted_norm,
)
from fpulab.lattice import LatticeField, WeightKind, WeightSpec


def test_sigmoid_weighted_norm_far_left_of_the_center():
    rng = np.random.default_rng(5)
    u = LatticeField(-100, rng.standard_normal(201), rng.standard_normal(201))
    weight = WeightSpec(0.5, center=0.0, kind=WeightKind.SIGMOID)  # a s >= -50
    direct = np.sqrt(np.sum((1.0 + np.tanh(0.5 * u.sites)) * (u.r**2 + u.p**2)))
    with np.errstate(all="raise"):
        got = weighted_norm(u, weight)
    assert abs(got - direct) < 1e-13 * direct


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
    assert abs(rep.tail_slope + np.pi**2 / 2.0) < 1e-8  # measured 4.4e-10


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
