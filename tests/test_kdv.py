"""Tests for fpulab.kdv.

Frozen values come from closed forms where available (1-soliton crest,
tau determinants, train phases) and from measured, margin-checked runs
of this implementation otherwise.  The dense Cauchy determinant serves
as the oracle for the log-domain expansion at moderate phases, and
mpmath differentiation of the subset sum for the parameter gradients.
"""

import tracemalloc
from itertools import permutations

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from fpulab import kdv
from fpulab.backlund import _level_modes, backlund_residual
from fpulab.kdv import (
    GridField,
    SolitonFamily,
    TauLadder,
    kdv_residual,
    log_psi,
    log_sum_exp,
    n_soliton_profile,
    phase_ladder,
    secular_basis,
    simpson_pairing,
    soliton_resolution,
    uniform_grid,
    _spectral_dx,
    _subset_tables,
)
from oracles import remainder_sup, resolution_phases_mp, subset_sum_mp


def tau_logdet(family, t, x, m):
    """log Delta_m at the single point x."""
    return float(TauLadder(family, m).log_delta(t, np.array([float(x)]))[0])


def psi_ratio(family, t, x, m):
    """The normalized tau quotient psi itself."""
    return np.exp(log_psi(phase_ladder(family), m, t,
                          np.atleast_1d(np.asarray(x, dtype=float))))


def basis_pairing(basis, dx, kind_a, i, kind_b, j):
    """<xi_a[i], eta_b[j]> of a secular basis; kinds 1 (gamma) and 2 (k)."""
    xi, eta = basis
    n = len(xi) // 2
    return simpson_pairing(xi[(kind_a - 1) * n + i], eta[(kind_b - 1) * n + j],
                           dx)


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
    # NaN passes both ordering checks: every comparison with it is false
    for k, gamma in (([np.nan, 1.0], [0.0, 0.0]), ([0.5, np.inf], [0.0, 0.0]),
                     ([0.5, 1.0], [np.nan, 0.0]), ([0.5], [-np.inf])):
        with pytest.raises(ValueError, match="finite"):
            SolitonFamily(k, gamma)


def test_tau_one_soliton_value():
    fam = SolitonFamily([1.0], [0.0])
    val = tau_logdet(fam, 0.0, 0.0, 1)
    assert val == pytest.approx(np.log(1.5), abs=1e-14)
    dense = np.log(np.linalg.det(
        np.eye(1) + TauLadder(fam, 1).dense_matrix(0.0, np.array([0.0]))))
    assert val == pytest.approx(dense, abs=1e-13)


def test_ladder_level_zero_is_an_ordinary_level():
    # Delta_0 = 1: its one-row table gives log Delta_0, its slopes and the
    # profile exactly 0, and the potential is the tail constant alone
    k = np.array([0.5, 1.3, 2.0])
    ladder = phase_ladder(SolitonFamily(k, [0.2, -0.4, 1.1]))
    x = uniform_grid(-30.0, 30.0, 0.05)
    level = ladder.tau(0)
    assert level.m == 0
    for name in ("log_delta", "v", "second_derivative"):
        assert np.all(getattr(level, name)(0.7, x) == 0.0)
    assert np.all(ladder.potential(0, 0.7, x) == -k.sum())


def test_ladder_levels_are_the_standalone_level_families():
    # level m is the tau of the first m solitons at the descended phases,
    # bit for bit, whatever the family carries beyond them
    k = np.array([0.4, 0.7, 1.1, 1.6])
    fam = SolitonFamily(k, [-3.0, 1.2, 0.4, 2.5])
    ladder = phase_ladder(fam)
    x = uniform_grid(-25.0, 25.0, 0.05)
    t = 0.3
    for m in range(1, fam.n + 1):
        got = ladder.tau(m)
        want = TauLadder(SolitonFamily(k[:m], ladder.levels[m]), m)
        for name in ("log_delta", "v", "second_derivative",
                     "parameter_gradients"):
            a, b = getattr(got, name)(t, x), getattr(want, name)(t, x)
            assert np.array_equal(a, b), (m, name)
        a = got.frame_profile(x, 1.5, t)
        b = want.frame_profile(x, 1.5, t)
        for tau in (t, t + 0.2, t + 9.0):
            assert np.array_equal(a(tau), b(tau)), (m, tau)
        tail = float(k[m:].sum())
        assert np.array_equal(ladder.potential(m, t, x),
                              want.v(t, x) - tail)


def test_tau_two_soliton_matches_dense():
    fam = SolitonFamily([1.0, 2.0], [0.0, 0.0])
    val = tau_logdet(fam, 0.0, 0.0, 2)
    dense = np.log(np.linalg.det(
        np.eye(2) + TauLadder(fam, 2).dense_matrix(0.0, np.array([0.0]))))
    assert val == pytest.approx(0.5675209674425359, abs=1e-13)
    assert abs(val - dense) <= 1e-12


def test_dense_matrix_rejects_several_points():
    # the Cauchy matrix is one point's; a second point would be dropped
    ladder = TauLadder(SolitonFamily([1.0, 2.0], [0.0, 0.0]), 2)
    with pytest.raises(ValueError, match="one point"):
        ladder.dense_matrix(0.0, np.array([0.0, 1.0]))


@pytest.mark.parametrize("m", range(9))
def test_subset_tables_match_a_loop_over_subsets_and_pairs(m):
    k = np.array([0.3, 0.45, 0.5, 0.9, 1.2, 1.25, 2.0, 3.1])
    B, log_a, slope = _subset_tables(k, m)
    assert B.shape == (2**m, m)
    for s in range(2**m):
        idx = [i for i in range(m) if (s >> i) & 1]
        assert list(np.nonzero(B[s])[0]) == idx
        want = -sum(np.log(2.0 * k[i]) for i in idx)
        for a in range(len(idx)):
            for b in range(a + 1, len(idx)):
                i, j = idx[a], idx[b]
                want += 2.0 * np.log(abs((k[i] - k[j]) / (k[i] + k[j])))
        assert abs(log_a[s] - want) <= 1e-13
        assert abs(slope[s] + 2.0 * sum(k[i] for i in idx)) <= 1e-13


def test_log_sum_exp_matches_the_direct_sum_and_takes_all_minus_inf():
    rng = np.random.default_rng(2)
    terms = rng.uniform(-30.0, 30.0, (16, 5))
    direct = np.log(np.sum(np.exp(terms), axis=0))
    assert np.max(np.abs(log_sum_exp(terms) - direct)) < 1e-13
    shifted = log_sum_exp(terms + 900.0)  # exp of the terms overflows
    assert np.max(np.abs(shifted - 900.0 - direct)) < 1e-12
    cols = np.column_stack([
        np.full(3, -np.inf), [-np.inf, 0.0, -np.inf], [np.inf, 0.0, -np.inf],
    ])
    with np.errstate(all="raise"):
        assert list(log_sum_exp(cols)) == [-np.inf, 0.0, np.inf]
        assert log_sum_exp(np.array([0.0, np.inf])) == np.inf
        assert log_sum_exp(np.full(4, -np.inf)) == -np.inf


def test_tau_level_bounds():
    fam = SolitonFamily([1.0], [0.0])
    with pytest.raises(ValueError):
        TauLadder(fam, 2)
    with pytest.raises(ValueError):
        TauLadder(fam, -1)
    for m in (-1, 2):
        with pytest.raises(ValueError, match="0..N"):
            phase_ladder(fam).tau(m)
    # the maps between levels take m in 1..N
    x = np.linspace(-10.0, 10.0, 201)
    for m in (0, 2):
        with pytest.raises(ValueError, match=r"level must lie in 1\.\.N"):
            backlund_residual(phase_ladder(fam), m, 0.0, x)
        with pytest.raises(ValueError, match=r"level must lie in 1\.\.N"):
            log_psi(phase_ladder(fam), m, 0.0, x)


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


@pytest.mark.parametrize("entry", [
    lambda fam, x: n_soliton_profile(fam, 0.0, x),
    lambda fam, x: secular_basis(fam, 0.0, x),
    lambda fam, x: backlund_residual(phase_ladder(fam), 2, 0.0, x),
], ids=["n_soliton_profile", "secular_basis", "backlund_residual"])
def test_one_point_grid_is_rejected(entry):
    fam = SolitonFamily([0.5, 2.0], [0.0, 0.0])
    with pytest.raises(ValueError, match="two points, got 1"):
        entry(fam, np.array([0.0]))


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

    d_gamma, d_k = TauLadder(SolitonFamily([k], [g]), 1).parameter_gradients(t, x)
    for got, want in ((d_gamma, fd4(lambda s: phi(k, g + s))),
                      (d_k, fd4(lambda s: phi(k + s, g)))):
        # measured 1.6e-10 and 3.4e-10
        assert np.max(np.abs(got - want)) < 1e-8 * np.max(np.abs(want))


def mp_gradient(k, gamma, t, xs, which, i):
    """d phi_N / d gamma_i (which "gamma") or d phi_N / d k_i (which "k")
    at each point of xs: mpmath differentiation of the subset sum at 40
    digits."""
    def phi(xv):
        def at(q):
            params = {"k": [mp.mpf(v) for v in k],
                      "gamma": [mp.mpf(v) for v in gamma]}
            params[which][i] = q
            fam = type("Family", (), dict(params, n=len(k)))
            return subset_sum_mp(fam, mp.mpf(t), mp.mpf(xv))[1]
        return at

    with mp.workdps(40):
        start = mp.mpf({"k": k, "gamma": gamma}[which][i])
        return np.array([float(mp.diff(phi(xv), start)) for xv in xs])


@pytest.mark.parametrize("n", [1, 2, 4])
def test_parameter_gradients_match_extended_precision_derivatives(n):
    # oracle: mpmath differentiation of the subset sum phi_N at 40 digits
    rng = np.random.default_rng(n)
    k = np.cumsum(0.3 + rng.uniform(0.0, 0.4, n))
    gamma = rng.uniform(-2.0, 2.0, n)
    t = 0.37
    x = np.array([-9.0, -3.3, -0.4, 0.0, 1.7, 5.2, 11.0])
    got = TauLadder(SolitonFamily(k, gamma), n).parameter_gradients(t, x)
    assert got.shape == (2 * n, x.size)
    for row in range(2 * n):
        which, i = ("gamma", row) if row < n else ("k", row - n)
        want = mp_gradient(k, gamma, t, x, which, i)
        # measured 8.8e-15 at n = 4
        assert np.max(np.abs(got[row] - want)) <= 1e-12 * np.max(np.abs(want))


def test_level_modes_at_slab_edges_match_extended_precision():
    # a level's two rows at m = 8 on the ladder_walk grid, at the points on
    # both sides of the two slab boundaries where the mean slope mu lies
    # farthest from sbar, the mean slope at the slab's centre that anchors
    # the sweep's moments
    fam = walk_family(8)
    x = uniform_grid(-45.0, 35.0, 0.02)
    t = 0.3
    ladder = TauLadder(fam, 8)
    got = ladder.parameter_gradients(t, x, solitons=[7])
    mu = ladder.v(t, x)
    slabs = ladder._slabs(x)
    sbar = TauLadder(fam, 8).v(t, np.array(
        [0.5 * (x[sl.start] + x[sl.stop - 1]) for sl in slabs]))
    offset = {sl.start: max(abs(mu[sl.start - 1] - sbar[j]),
                            abs(mu[sl.start] - sbar[j + 1]))
              for j, sl in enumerate(slabs[1:])}
    edges = sorted(offset, key=offset.get)[-2:]
    # measured 1.70 and 1.16
    assert min(offset[a] for a in edges) > 1.0
    points = [a + side for a in edges for side in (-1, 0)]
    for row, which in enumerate(("gamma", "k")):
        want = mp_gradient(fam.k, fam.gamma, t, x[points], which, 7)
        # measured 1.5e-15 (d/d gamma) and 4.2e-15 (d/d k)
        assert (np.max(np.abs(got[row, points] - want))
                <= 1e-12 * np.max(np.abs(want)))


def test_evaluation_memo_is_invisible():
    # a ladder answers every call as a fresh ladder does, whatever the
    # order of calls and keys, and no returned array aliases its memo
    fam = SolitonFamily([0.5, 0.9, 1.4], [0.3, -0.2, 0.1])
    x = uniform_grid(-12.0, 12.0, 0.05)
    keys = ((0.2, x), (0.7, x + 0.5))
    names = ("log_delta", "v", "second_derivative", "parameter_gradients")

    def fresh(name, key):
        t, xs = keys[key]
        return getattr(TauLadder(fam, 3), name)(t, xs)

    ladder = TauLadder(fam, 3)
    for order in permutations(names):
        # the repeated key 0 asks parameter_gradients twice at one key
        for key in (0, 0, 1, 0):
            for name in order:
                t, xs = keys[key]
                got = getattr(ladder, name)(t, xs.copy())  # equal, new array
                want = fresh(name, key)
                assert np.array_equal(got, want)
                got += 1.0
                assert np.array_equal(getattr(ladder, name)(t, xs), want)
    # an x mutated in place after a call is a new key
    xs = x.copy()
    ladder.v(0.7, xs)
    xs += 0.5
    for name in names:
        assert np.array_equal(getattr(ladder, name)(0.7, xs), fresh(name, 1))


def walk_family(n):
    """k evenly spaced in [0.5, 1], phases back-solved so that the level
    anchors sit 4 apart around x = -5 (the ladder_walk benchmark family)."""
    k = np.linspace(0.5, 1.0, n)
    anchors = np.round(-5.0 + 4.0 * (np.arange(n) - (n - 1) / 2.0))
    gamma = [anchors[i] - sum(np.log((k[j] - k[i]) / (k[j] + k[i])) / (2.0 * k[i])
                              for j in range(i + 1, n))
             for i in range(n)]
    return SolitonFamily(k, gamma)


@pytest.mark.parametrize("t", [0.0, 0.3])
def test_level_modes_are_rows_of_the_parameter_gradients(t, monkeypatch):
    # every level of the N = 8 ladder_walk ladder on its 4001-point grid
    ladder = phase_ladder(walk_family(8))
    x = uniform_grid(-45.0, 35.0, 0.02)
    names = ("second_derivative", "v", "log_delta")
    tables = []
    phases = TauLadder._phases

    def counting(self, t, x):
        tables.append(self.m)
        return phases(self, t, x)

    monkeypatch.setattr(TauLadder, "_phases", counting)
    for m in range(1, 9):
        level = ladder.tau(m)
        shift, speed = _level_modes(ladder, m, t, x)
        tables.clear()
        # the modes' sweep left the memo at (t, x) as an evaluation would
        got = [getattr(level, name)(t, x) for name in names]
        assert tables == []
        fresh = TauLadder(level.family, m)
        for name, values in zip(names, got):
            assert np.array_equal(values, getattr(fresh, name)(t, x)), name
        grads = level.parameter_gradients(t, x)
        assert np.array_equal(shift, grads[m - 1])
        # measured at most 2.6e-15: d log_a / d k_m is one product
        # column, which BLAS may sum in another order than the m of them
        worst = np.max(np.abs(speed - grads[2 * m - 1]))
        assert worst <= 1e-14 * np.max(np.abs(grads[2 * m - 1]))


def test_parameter_gradients_of_chosen_solitons():
    fam = SolitonFamily([0.5, 0.9, 1.4], [0.3, -0.2, 0.1])
    x = uniform_grid(-12.0, 12.0, 0.05)
    full = TauLadder(fam, 3).parameter_gradients(0.2, x)
    got = TauLadder(fam, 3).parameter_gradients(0.2, x, solitons=[2, 0])
    # rows d/d gamma_3, d/d gamma_1, d/d k_3, d/d k_1
    want = full[[2, 0, 5, 3]]
    assert got.shape == want.shape
    assert np.all(np.abs(got - want)
                  <= 1e-14 * np.max(np.abs(want), axis=1, keepdims=True))


@pytest.mark.parametrize("n", [0, 1, 2, 8])
@pytest.mark.parametrize("speed", [0.0, 1.0, 2.0])
def test_frame_profile_matches_the_profile_on_the_moving_grid(n, speed):
    fam = (SolitonFamily([0.5, 1.0], [np.log(3.0), 0.0]) if n <= 2
           else walk_family(8))
    # one window where the phases reach hundreds, for one case of each size
    x = (uniform_grid(-300.0, 300.0, 0.25) if speed == 1.0
         else uniform_grid(-60.0, 40.0, 0.1))
    t0 = 3.0
    ladder = TauLadder(fam, n)
    anchors = []
    phases = ladder._phases

    def counting(t, xs):
        # one call per anchor, whatever number of slabs it holds
        anchors.append(t)
        return phases(t, xs)

    ladder._phases = counting
    phi = ladder.frame_profile(x, speed, t0)
    worst = sup = 0.0
    for tau in np.linspace(0.0, 20.0, 81):
        before = len(anchors)
        got = phi(tau)
        want = TauLadder(fam, n).second_derivative(tau, x + speed * (tau - t0))
        if len(anchors) > before:
            # at an anchor time the frame sums the sweep's own weights
            assert anchors[-1] == tau
            assert np.array_equal(got, want), tau
        assert np.all(np.isfinite(got))
        worst = max(worst, np.max(np.abs(got - want)))
        sup = max(sup, np.max(np.abs(want)))
    # measured 1.1e-14 (N = 2) and 5.4e-14 (N = 8, at speed 1); level 0
    # is 0 everywhere
    assert worst <= 1e-13 * sup
    if n >= 2:
        # the exponents drift far enough over [0, 20] for at least 3
        # re-anchors
        assert len(anchors) >= 4


SLAB_METHODS = ("log_delta", "v", "second_derivative", "parameter_gradients")


def test_slab_sweep_matches_one_whole_table(monkeypatch):
    # a 2^8-subset table on 1001 points is swept in slabs of 256 points,
    # the last one partial; the reference sweeps it as one slab, with no
    # cap on its width or on its reach
    fam = walk_family(8)
    x = uniform_grid(-30.0, 20.0, 0.05)
    t = 0.3
    ladder = TauLadder(fam, 8)
    slabs = ladder._slabs(x)
    assert [sl.start for sl in slabs] == [0, 256, 512, 768]
    got = {name: getattr(ladder, name)(t, x) for name in SLAB_METHODS}
    monkeypatch.setattr(kdv, "_SLAB", 2**8 * x.size)
    monkeypatch.setattr(kdv, "_SLAB_REACH", np.inf)
    whole = TauLadder(fam, 8)
    assert len(whole._slabs(x)) == 1
    for name in SLAB_METHODS:
        want = getattr(whole, name)(t, x)
        scale = np.max(np.abs(want), axis=-1, keepdims=True)
        # measured 4.6e-14 (phi) and 4.3e-14 (gradients): the slabs' terms
        # are anchored at their own centres, the reference's at the middle
        # of the window
        assert np.all(np.abs(got[name] - want) <= 1e-13 * scale), name


def test_slab_sweep_matches_evaluation_point_by_point():
    fam = walk_family(8)
    x = uniform_grid(-30.0, 20.0, 0.05)
    t = 0.3
    ladder = TauLadder(fam, 8)
    single = TauLadder(fam, 8)
    # measured 3.1e-16, 2.0e-15, 9.6e-15 and 8.6e-14 of each row's largest
    # value; a point alone is its own slab, anchored at itself, and the
    # last two are differences of moments of slopes up to |s| = 12, centred
    # at each slab's mean slope (phi = E_w (s - sbar)^2 - (E_w s - sbar)^2)
    bounds = dict(zip(SLAB_METHODS, (1e-13, 1e-13, 1e-12, 1e-12)))
    for name in SLAB_METHODS:
        got = getattr(ladder, name)(t, x)
        want = np.column_stack([getattr(single, name)(t, x[i : i + 1])
                                for i in range(x.size)])
        want = want.reshape(got.shape)
        scale = np.max(np.abs(want), axis=-1, keepdims=True)
        assert np.all(np.abs(got - want) <= bounds[name] * scale), name


def test_slab_edges_match_extended_precision(monkeypatch):
    # the points on both sides of each slab boundary, against the subset
    # sums in mpmath; every level is swept in slabs of 256 points
    x = uniform_grid(-30.0, 20.0, 0.05)
    t = 0.3
    for n in (2, 4, 8):
        monkeypatch.setattr(kdv, "_SLAB", 2**n * 256)
        fam = walk_family(n)
        ladder = TauLadder(fam, n)
        phi = ladder.second_derivative(t, x)
        log_delta = ladder.log_delta(t, x)
        edges = [sl.start + side for sl in ladder._slabs(x)[1:]
                 for side in (-1, 0)]
        assert len(edges) == 6
        with mp.workdps(30):
            for i in edges:
                want_log, want_phi = map(float, subset_sum_mp(
                    fam, mp.mpf(t), mp.mpf(x[i])))
                # measured 5.8e-16; where Delta is near 1, log Delta
                # = top + log m0 carries the rounding of m0, so the bound
                # is relative to max(|log Delta|, 1) (at N = 8 every edge
                # has |log Delta| > 2)
                assert (abs(log_delta[i] - want_log)
                        <= 1e-14 * max(abs(want_log), 1.0)), (n, i)
                # measured 3.2e-13 (N = 4): phi takes the slope moments
                # centred at each slab's mean slope, which keep an absolute
                # accuracy of about 1e-15 where phi falls below 1e-3 (N = 2
                # and 4 have edges in the tails; at N = 8 phi > 0.05)
                assert (abs(phi[i] - want_phi)
                        <= 1e-12 * max(abs(want_phi), 1e-3)), (n, i)


@pytest.mark.parametrize("n, t, x", [
    (2, 0.0, np.array([5.0, -3.0, 0.0, 400.0, -400.0])),
    (8, 0.3, np.random.default_rng(8).permutation(
        uniform_grid(-300.0, 300.0, 0.25))),
])
def test_unsorted_far_abscissas_match_extended_precision(n, t, x):
    # x in no order, with exponents spread over thousands: every value is
    # the sorted evaluation's, permuted, and the subset sums' in 420-digit
    # arithmetic (40 digits cancel in phi = m2/m0 - (m1/m0)^2 where phi
    # falls to 1e-177); run under the RuntimeWarning-as-error filter
    fam = walk_family(n)
    ladder = TauLadder(fam, n)
    order = np.argsort(x)
    got = {name: getattr(ladder, name)(t, x) for name in SLAB_METHODS}
    ranked = TauLadder(fam, n)
    for name in SLAB_METHODS:
        want = getattr(ranked, name)(t, x[order])
        assert np.all(np.isfinite(got[name])), name
        scale = np.max(np.abs(want), axis=-1, keepdims=True)
        # measured bit-identical: a permuted x is swept in the same slabs
        assert np.all(np.abs(got[name][..., order] - want)
                      <= 1e-13 * scale), name
    # every point of the short x; both ends and every 97th point of the
    # window
    picks = (np.arange(x.size) if x.size <= 20 else np.unique(
        np.concatenate([order[[0, -1]], np.arange(0, x.size, 97)])))
    assert picks.size >= min(20, x.size)
    with mp.workdps(420):
        for i in picks:
            want_log, want_phi = map(float, subset_sum_mp(fam, mp.mpf(t),
                                                          mp.mpf(x[i])))
            # measured 4.7e-16 and 3.0e-13 (N = 8); log Delta rounds to
            # 0 where Delta is 1 to working precision (x far right)
            assert (abs(got["log_delta"][i] - want_log)
                    <= 1e-14 * max(abs(want_log), 1.0))
            assert (abs(got["second_derivative"][i] - want_phi)
                    <= 1e-12 * abs(want_phi))


def test_level_zero_and_one_point_sweeps():
    # level 0 has one subset and no slopes, on any x; a one-point x is
    # one slab, against the subset sum in mpmath
    x = np.array([3.0, -250.0, 0.5, 250.0])
    zero = TauLadder(walk_family(8), 0)
    for name in ("log_delta", "v", "second_derivative"):
        assert np.all(getattr(zero, name)(0.3, x) == 0.0)
    assert zero.parameter_gradients(0.3, x).shape == (0, x.size)
    fam = walk_family(8)
    with mp.workdps(30):
        for xv in (-7.3, 0.0, 12.5):
            ladder = TauLadder(fam, 8)
            point = np.array([xv])
            want_log, want_phi = map(float, subset_sum_mp(fam, mp.mpf(0.3),
                                                          mp.mpf(xv)))
            # measured 2.3e-16 and 1.5e-15
            assert (abs(ladder.log_delta(0.3, point)[0] - want_log)
                    <= 1e-14 * max(abs(want_log), 1.0))
            assert (abs(ladder.second_derivative(0.3, point)[0] - want_phi)
                    <= 1e-12 * abs(want_phi))


def _frame_stages(ladder, x):
    phi = ladder.frame_profile(x, 1.0, 0.0)
    for tau in (0.0, 0.001, 0.002, 0.5):
        phi(tau)


@pytest.mark.parametrize("name", ["second_derivative", "parameter_gradients",
                                  "frame_profile"])
def test_evaluation_holds_no_whole_subset_table(name):
    # len(x)-long results plus slab-sized work arrays: an N = 8
    # evaluation on 4001 points holds at most 3 2^3 and 2^5 + 2^3 rows of a
    # slab, the gradients of all 8 solitons a product of 8 6 2^3 rows, and
    # a frame the 2^5 + 2^3 rows of factors of every slab over its stage
    # times (measured 0.073, 0.282 and 0.206 of a whole table)
    bound = {"second_derivative": 0.1, "parameter_gradients": 0.32,
             "frame_profile": 0.25}[name]
    call = {"second_derivative": lambda lad, x: lad.second_derivative(0.0, x),
            "parameter_gradients":
                lambda lad, x: lad.parameter_gradients(0.0, x),
            "frame_profile": _frame_stages}[name]
    fam = walk_family(8)
    x = uniform_grid(-45.0, 35.0, 0.02)
    assert x.size == 4001
    ladder = TauLadder(fam, 8)
    table = 2**8 * x.size * np.dtype(float).itemsize
    tracemalloc.start()
    try:
        call(ladder, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * table


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
            assert abs(basis_pairing(basis, 0.01, 1, i, 1, i)) <= 1e-9
            d = basis_pairing(basis, 0.01, 1, i, 2, i)
            assert d == pytest.approx(2.0 * fam.k[i] ** 2, abs=1e-4)
            assert basis_pairing(basis, 0.01, 2, i, 1, i) == pytest.approx(
                -d, abs=1e-8)

    def test_cross_pairings_vanish(self):
        fam = SolitonFamily([0.5, 1.0], [0.0, 0.0])
        basis = secular_basis(fam, 5.0, uniform_grid(-60, 60, 0.01))
        # i < j, all kinds except the (k-gradient, k-antiderivative) pair
        assert abs(basis_pairing(basis, 0.01, 1, 0, 1, 1)) <= 1e-6
        assert abs(basis_pairing(basis, 0.01, 1, 0, 2, 1)) <= 1e-6
        assert abs(basis_pairing(basis, 0.01, 2, 0, 1, 1)) <= 1e-6

    def test_pairings_time_independent(self):
        fam = SolitonFamily([0.5, 1.0], [0.0, 0.0])
        grams = []
        for t in (0.0, 1.0, 5.0):
            basis = secular_basis(fam, t, uniform_grid(-60, 60, 0.002))
            grams.append(np.array(
                [[basis_pairing(basis, 0.002, ka + 1, i, kb + 1, j)
                  for j in range(2) for kb in range(2)]
                 for i in range(2) for ka in range(2)]))
        for g in grams[1:]:
            assert np.max(np.abs(g - grams[0])) <= 1e-6  # measured 6.7e-7

    def test_left_edge_must_be_flat(self):
        fam = SolitonFamily([0.5, 1.0], [0.0, 0.0])
        with pytest.raises(ValueError, match="flat tail"):
            secular_basis(fam, 0.0, uniform_grid(-10, 60, 0.05))

    def test_builds_one_ladder(self, monkeypatch):
        builds = []
        init = TauLadder.__init__

        def counting(self, family, m):
            builds.append(m)
            init(self, family, m)

        monkeypatch.setattr(TauLadder, "__init__", counting)
        fam = SolitonFamily([0.5, 1.0, 1.5], [0.0, 0.0, 0.0])
        xi, eta = secular_basis(fam, 0.0, uniform_grid(-60, 60, 0.05))
        assert builds == [3]
        assert xi.shape == eta.shape == (6, 2401)


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
        fam = SolitonFamily([0.5], [0.3])
        res = soliton_resolution(fam)
        assert res.gamma_tilde[0] == pytest.approx(0.3, abs=1e-14)
        x = uniform_grid(-10.0, 20.0, 0.5)
        assert remainder_sup(fam, 2.0, x) <= 1e-250

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
        fam = SolitonFamily([1.0, 2.0], [0.0, 0.0])
        # remainder_sup's 300-digit phases are the package's phases
        with mp.workdps(300):
            extended = np.array([float(g) for g in resolution_phases_mp(fam)])
        got = soliton_resolution(fam).gamma_tilde
        assert np.max(np.abs(got - extended)) <= 1e-14  # measured 2.2e-16
        sups = {}
        for t in (5.0, 10.0, 15.0):
            x = uniform_grid(4 * t - 12.0, 16 * t + 12.0, 0.5)
            sups[t] = remainder_sup(fam, t, x)
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

    def test_train_far_from_a_hump(self):
        # at t = 100 the k = 1 hump sits near x = 400, so its phase passes
        # 355 in the window, where cosh squared overflows; the train
        # matches a 30-digit sum of the humps to rounding
        fam = SolitonFamily([0.5, 1.0], [0.0, 0.0])
        res = soliton_resolution(fam)
        x = uniform_grid(-50.0, 50.0, 0.05)
        got = res.train(100.0, x).values
        with mp.workdps(30):
            for j in range(0, x.size, 250):
                want = float(mp.fsum(
                    mp.mpf(k) ** 2 * mp.sech(
                        mp.mpf(k) * (mp.mpf(x[j]) - 400 * mp.mpf(k) ** 2
                                     - mp.mpf(g))) ** 2
                    for k, g in zip(fam.k, res.gamma_tilde)))
                assert abs(got[j] - want) <= 1e-12 * want


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


def test_grid_field_validation():
    with pytest.raises(ValueError):
        GridField(0.0, -0.1, np.zeros(4))
    with pytest.raises(ValueError):
        GridField(0.0, 0.1, np.array([1.0, np.nan]))
    # a NaN dx passes the dx <= 0 check: every comparison with it is false
    for x0, dx in ((0.0, np.nan), (np.inf, 0.1), (-np.inf, 0.1), (0.0, np.inf)):
        with pytest.raises(ValueError, match="finite"):
            GridField(x0, dx, np.zeros(4))
