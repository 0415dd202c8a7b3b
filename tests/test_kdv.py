"""Tests for fpulab.kdv.

Frozen values come from closed forms where available (1-soliton crest,
tau determinants, train phases) and from measured, margin-checked runs
of this implementation otherwise.  The dense Cauchy determinant serves
as the oracle for the log-domain expansion at moderate phases.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from fpulab.kdv import (
    GridField,
    SolitonFamily,
    TauLadder,
    grid_field_from_csv,
    grid_field_to_csv,
    kdv_residual,
    log_psi,
    n_soliton_profile,
    phase_ladder,
    profile_gradient,
    secular_basis,
    simpson_pairing,
    soliton_resolution,
    uniform_grid,
    _spectral_dx,
)


def tau_logdet(family, t, x, m):
    """log Delta_m at the single point x."""
    return float(TauLadder(family, m).log_delta(t, np.array([float(x)]))[0])


def psi_ratio(family, t, x, m):
    """The normalized tau quotient psi itself."""
    return np.exp(log_psi(phase_ladder(family), m, t,
                          np.atleast_1d(np.asarray(x, dtype=float))))


def basis_pairing(basis, kind_a, i, kind_b, j):
    """<xi_a[i], eta_b[j]> of a secular basis; kinds 1 (gamma) and 2 (k)."""
    xi = (basis.xi1, basis.xi2)[kind_a - 1][i]
    eta = (basis.eta1, basis.eta2)[kind_b - 1][j]
    return simpson_pairing(xi.values, eta.values, xi.dx)


def test_family_validation():
    with pytest.raises(ValueError):
        SolitonFamily([1.0, 0.5], [0.0, 0.0])
    with pytest.raises(ValueError):
        SolitonFamily([-0.3], [0.0])
    with pytest.raises(ValueError):
        SolitonFamily([0.5, 0.5], [0.0, 0.0])
    with pytest.raises(ValueError):
        SolitonFamily(np.linspace(0.1, 1.0, 9), np.zeros(9))
    with pytest.raises(ValueError):
        SolitonFamily([1.0], [0.0, 0.0])


def test_tau_one_soliton_value():
    fam = SolitonFamily([1.0], [0.0])
    val = tau_logdet(fam, 0.0, 0.0, 1)
    assert val == pytest.approx(np.log(1.5), abs=1e-14)
    dense = np.log(np.linalg.det(
        np.eye(1) + TauLadder(fam, 1).dense_matrix(0.0, np.array([0.0]))))
    assert val == pytest.approx(dense, abs=1e-13)


def test_tau_level_zero_is_plain_phase_sum():
    fam = SolitonFamily([0.5, 1.3], [0.2, -0.4])
    th = fam.theta(0.7, np.array([1.9]))
    assert tau_logdet(fam, 0.7, 1.9, 0) == -float(th.sum())


def test_tau_two_soliton_matches_dense():
    fam = SolitonFamily([1.0, 2.0], [0.0, 0.0])
    val = tau_logdet(fam, 0.0, 0.0, 2)
    dense = np.log(np.linalg.det(
        np.eye(2) + TauLadder(fam, 2).dense_matrix(0.0, np.array([0.0]))))
    assert val == pytest.approx(0.5675209674425359, abs=1e-13)
    assert abs(val - dense) <= 1e-12


def test_tau_level_bounds():
    fam = SolitonFamily([1.0], [0.0])
    with pytest.raises(ValueError):
        TauLadder(fam, 2)
    with pytest.raises(ValueError):
        TauLadder(fam, -1)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 4),
    t=st.floats(-0.3, 0.3),
    x=st.floats(-4.0, 4.0),
)
def test_expansion_matches_dense_determinant(seed, n, t, x):
    rng = np.random.default_rng(seed)
    k = np.cumsum(0.25 + rng.uniform(0.0, 0.4, size=n))
    gamma = rng.uniform(-2.0, 2.0, size=n)
    fam = SolitonFamily(k, gamma)
    ladder = TauLadder(fam, n)
    val = ladder.log_delta(t, np.array([x]))[0]
    assert np.isfinite(val)
    sign, logdet = np.linalg.slogdet(
        np.eye(n) + ladder.dense_matrix(t, np.array([x])))
    assert sign > 0
    assert abs(val - logdet) <= 1e-12 * max(1.0, abs(val))


def test_profile_crest_value():
    fam = SolitonFamily([0.5], [0.0])
    x = uniform_grid(-30.0, 30.0, 0.05)
    phi, _ = n_soliton_profile(fam, 0.0, x)
    i0 = int(np.argmin(np.abs(x)))
    # crest sits at x=0 for k=1/2 because log(2k)=0
    assert phi.values[i0] == pytest.approx(0.25, abs=1e-12)
    assert phi.values.max() == pytest.approx(0.25, abs=1e-12)
    h = 1e-4
    fd = (tau_logdet(fam, 0, h, 1) - 2 * tau_logdet(fam, 0, 0, 1)
          + tau_logdet(fam, 0, -h, 1)) / h**2
    assert fd == pytest.approx(phi.values[i0], abs=1e-6)


def test_ladder_potential_level_zero_constant():
    fam = SolitonFamily([1.0, 2.0], [0.0, 0.0])
    _, pots = n_soliton_profile(fam, 0.3, uniform_grid(-20, 20, 0.04), levels=(0,))
    assert np.max(np.abs(pots[0].values + fam.k.sum())) <= 1e-12


@pytest.mark.parametrize("t", [0.0, 1.0, 5.0])
def test_profile_mass(t):
    fam = SolitonFamily([0.5, 1.0], [0.0, 0.0])
    x = uniform_grid(-60.0, 60.0, 0.05)
    phi, pots = n_soliton_profile(fam, t, x, levels=(2,))
    mass = simpson(phi.values, dx=0.05)
    assert mass == pytest.approx(2.0 * fam.k.sum(), abs=1e-8)
    ladder_mass = pots[2].values[-1] - pots[2].values[0]
    assert ladder_mass == pytest.approx(2.0 * fam.k.sum(), abs=1e-10)


def test_grid_too_coarse():
    fam = SolitonFamily([0.5, 2.0], [0.0, 0.0])
    with pytest.raises(ValueError, match="too coarse"):
        n_soliton_profile(fam, 0.0, uniform_grid(-10, 10, 0.2))


def test_profile_gradient_matches_the_closed_form_soliton():
    # one soliton: phi = k^2 sech^2(k (x - 4 k^2 t - gamma) + log(2k)/2),
    # differentiated here by a 4th-order difference of the closed form
    k, g, t = 0.8, 0.3, 0.2
    x = uniform_grid(-20.0, 20.0, 0.05)

    def phi(k, g):
        return k**2 / np.cosh(k * (x - 4.0 * k**2 * t - g)
                              + np.log(2.0 * k) / 2.0) ** 2

    def fd4(f, h=1e-3):
        return (8.0 * (f(h) - f(-h)) - (f(2 * h) - f(-2 * h))) / (12.0 * h)

    d_gamma, d_k = profile_gradient(SolitonFamily([k], [g]), t, x, 0)
    for got, want in ((d_gamma, fd4(lambda s: phi(k, g + s))),
                      (d_k, fd4(lambda s: phi(k + s, g)))):
        # measured 1.6e-10 and 3.4e-10
        assert np.max(np.abs(got - want)) < 1e-8 * np.max(np.abs(want))


def test_phase_covariance():
    # shifting every gamma by delta translates the profile exactly
    delta = 0.37
    fam = SolitonFamily([0.7, 1.4], [0.1, -0.3])
    shifted = SolitonFamily(fam.k, fam.gamma + delta)
    x = uniform_grid(-15.0, 15.0, 0.05)
    a = TauLadder(shifted, 2).second_derivative(0.6, x)
    b = TauLadder(fam, 2).second_derivative(0.6, x - delta)
    assert np.max(np.abs(a - b)) <= 1e-12


class TestSecularBasis:
    def test_diagonal_pairings(self):
        fam = SolitonFamily([0.5, 1.0], [0.0, 0.0])
        basis = secular_basis(fam, 0.0, uniform_grid(-60, 60, 0.01))
        for i in range(2):
            assert abs(basis_pairing(basis, 1, i, 1, i)) <= 1e-9
            d = basis_pairing(basis, 1, i, 2, i)
            assert d == pytest.approx(2.0 * fam.k[i] ** 2, abs=1e-4)
            assert basis_pairing(basis, 2, i, 1, i) == pytest.approx(
                -d, abs=1e-8)

    def test_cross_pairings_vanish(self):
        fam = SolitonFamily([0.5, 1.0], [0.0, 0.0])
        basis = secular_basis(fam, 5.0, uniform_grid(-60, 60, 0.01))
        # i < j, all kinds except the (k-gradient, k-antiderivative) pair
        assert abs(basis_pairing(basis, 1, 0, 1, 1)) <= 1e-6
        assert abs(basis_pairing(basis, 1, 0, 2, 1)) <= 1e-6
        assert abs(basis_pairing(basis, 2, 0, 1, 1)) <= 1e-6

    def test_pairings_time_independent(self):
        fam = SolitonFamily([0.5, 1.0], [0.0, 0.0])
        grams = []
        for t in (0.0, 1.0, 5.0):
            basis = secular_basis(fam, t, uniform_grid(-60, 60, 0.002))
            grams.append(np.array(
                [[basis_pairing(basis, ka + 1, i, kb + 1, j)
                  for j in range(2) for kb in range(2)]
                 for i in range(2) for ka in range(2)]))
        for g in grams[1:]:
            assert np.max(np.abs(g - grams[0])) <= 1e-6  # measured 6.7e-7

    def test_left_edge_must_be_flat(self):
        fam = SolitonFamily([0.5, 1.0], [0.0, 0.0])
        with pytest.raises(ValueError, match="flat tail"):
            secular_basis(fam, 0.0, uniform_grid(-10, 60, 0.05))


class TestKdvResidual:
    def test_one_soliton(self):
        fam = SolitonFamily([1.0], [0.0])
        x = uniform_grid(-40.0, 40.0, 0.05)
        dt = 1e-3
        fields = [n_soliton_profile(fam, j * dt, x)[0] for j in range(5)]
        assert kdv_residual(fields, dt) <= 1e-6  # measured 1.9e-9

    def test_constant_solves_exactly(self):
        fields = [GridField(-10.0, 0.1, np.full(256, 0.7)) for _ in range(5)]
        assert kdv_residual(fields, 1e-3) <= 1e-12

    def test_three_soliton(self):
        fam = SolitonFamily([0.5, 1.0, 1.5], [0.0, 0.0, 0.0])
        x = uniform_grid(-60.0, 60.0, 0.05)
        dt = 1e-3
        fields = [n_soliton_profile(fam, j * dt, x)[0] for j in range(5)]
        assert kdv_residual(fields, dt) <= 1e-5  # measured 4.8e-7

    def test_needs_five_samples(self):
        fields = [GridField(0.0, 0.1, np.zeros(16)) for _ in range(4)]
        with pytest.raises(ValueError, match="5 time samples"):
            kdv_residual(fields, 1e-3)

    def test_rejects_mismatched_grids(self):
        fields = [GridField(0.0, 0.1, np.zeros(16)) for _ in range(4)]
        fields.append(GridField(1.0, 0.1, np.zeros(16)))
        with pytest.raises(ValueError, match="different grids"):
            kdv_residual(fields, 1e-3)


class TestResolution:
    def test_single_soliton_trivial(self):
        res = soliton_resolution(SolitonFamily([0.5], [0.3]))
        assert res.gamma_tilde[0] == pytest.approx(0.3, abs=1e-14)
        x = uniform_grid(-10.0, 20.0, 0.5)
        assert res.remainder_sup(2.0, x) <= 1e-250

    def test_two_soliton_phases(self):
        res = soliton_resolution(SolitonFamily([1.0, 2.0], [0.0, 0.0]))
        assert res.gamma_tilde[1] == pytest.approx(-np.log(4.0) / 4.0, abs=1e-14)
        expected = -(np.log(2.0) + 2.0 * np.log(3.0)) / 2.0
        assert res.gamma_tilde[0] == pytest.approx(expected, abs=1e-14)

    def test_phases_match_measured_crests(self):
        # independent check of the train phases: locate the actual crests
        fam = SolitonFamily([1.0, 2.0], [0.0, 0.0])
        res = soliton_resolution(fam)
        t = 6.0
        x = uniform_grid(4 * t - 12.0, 16 * t + 12.0, 0.02)
        phi, _ = n_soliton_profile(fam, t, x)
        for i, speed in ((0, 4.0), (1, 16.0)):
            region = np.abs(x - speed * t) < 6.0
            j = int(np.argmax(phi.values[region]))
            y0, y1, y2 = phi.values[region][j - 1 : j + 2]
            crest = x[region][j] + 0.01 * (y0 - y2) / (y0 - 2 * y1 + y2)
            assert crest - speed * t == pytest.approx(
                res.gamma_tilde[i], abs=1e-4
            )

    def test_remainder_decays_exponentially(self):
        res = soliton_resolution(SolitonFamily([1.0, 2.0], [0.0, 0.0]))
        sups = {}
        for t in (5.0, 10.0, 15.0):
            x = uniform_grid(4 * t - 12.0, 16 * t + 12.0, 0.5)
            sups[t] = res.remainder_sup(t, x)
        assert sups[5.0] > sups[10.0] > sups[15.0] > 0.0
        r1 = np.log(sups[5.0] / sups[10.0]) / 5.0
        r2 = np.log(sups[10.0] / sups[15.0]) / 5.0
        assert r1 == pytest.approx(24.0, abs=0.5)  # measured 24.000
        assert r2 == pytest.approx(24.0, abs=0.5)

    def test_train_shape(self):
        fam = SolitonFamily([1.0, 2.0], [0.0, 0.0])
        res = soliton_resolution(fam)
        x = uniform_grid(0.0, 100.0, 0.05)
        train = res.train(5.0, x)
        assert train.values.max() == pytest.approx(4.0, abs=1e-3)


class TestPsiRatio:
    def test_one_soliton_value(self):
        fam = SolitonFamily([1.0], [0.0])
        assert psi_ratio(fam, 0.0, 0.0, 1)[0] == pytest.approx(2.0 / 3.0,
                                                               abs=1e-14)

    @pytest.mark.parametrize("m", [1, 2])
    def test_log_derivative_identity(self, m):
        fam = SolitonFamily([1.0, 2.0], [0.0, 0.0])
        x = uniform_grid(-25.0, 25.0, 0.02)
        psi = psi_ratio(fam, 0.4, x, m)
        _, pots = n_soliton_profile(fam, 0.4, x, levels=(m - 1, m))
        rhs = pots[m - 1].values - pots[m].values
        lhs = _spectral_dx(psi, 0.02) / psi
        core = psi > 1e-3 * psi.max()
        assert np.max(np.abs(lhs[core] - rhs[core])) <= 1e-8  # measured 1.5e-9

    @pytest.mark.parametrize("m,c1,c2", [(1, 0.5, 1.0), (2, 0.5, 6.0)])
    def test_sech_sandwich(self, m, c1, c2):
        fam = SolitonFamily([1.0, 2.0], [0.0, 0.0])
        x = uniform_grid(-25.0, 25.0, 0.02)
        km = fam.k[m - 1]
        center = phase_ladder(fam).anchor(m)
        th = km * (x - 4.0 * km**2 * 0.4 - center)
        ratio = psi_ratio(fam, 0.4, x, m) * np.cosh(th)
        assert ratio.min() == pytest.approx(c1, rel=1e-3)
        assert ratio.max() == pytest.approx(c2, rel=1e-3)

    def test_level_bounds(self):
        fam = SolitonFamily([1.0], [0.0])
        with pytest.raises(ValueError):
            psi_ratio(fam, 0.0, 0.0, 2)


def test_ladder_phase_value():
    fam = SolitonFamily([1.0, 2.0], [0.0, 0.0])
    levels = phase_ladder(fam).levels
    assert levels[1][0] == pytest.approx(0.5 * np.log(1.0 / 3.0), abs=1e-14)
    assert levels[2][1] == 0.0
    assert len(levels[1]) == 1  # level 1 carries no phase for soliton 2


def test_grid_field_csv_roundtrip(tmp_path):
    fld = GridField(-2.0, 0.25, np.linspace(0.0, 1.0, 9) ** 2)
    path = tmp_path / "f.csv"
    grid_field_to_csv(fld, path)
    back = grid_field_from_csv(path)
    assert back.x0 == fld.x0
    assert back.dx == pytest.approx(fld.dx)
    np.testing.assert_array_equal(back.values, fld.values)


def test_grid_field_csv_complex(tmp_path):
    vals = np.linspace(0, 1, 7) + 1j * np.linspace(1, 0, 7)
    fld = GridField(0.0, 0.5, vals)
    path = tmp_path / "c.csv"
    grid_field_to_csv(fld, path)
    back = grid_field_from_csv(path)
    np.testing.assert_array_equal(back.values, vals)


def test_grid_field_validation():
    with pytest.raises(ValueError):
        GridField(0.0, -0.1, np.zeros(4))
    with pytest.raises(ValueError):
        GridField(0.0, 0.1, np.array([1.0, np.nan]))
