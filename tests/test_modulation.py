"""Tests for fpulab.modulation.

Parameter recovery has two independent oracles: exact table trains,
whose parameters are known by construction, and a scipy least-squares
refit of the same window.  The interaction matrix is checked against a
fourth-order finite-difference Jacobian of the orthogonality residual.
Remaining frozen numbers are measured values of this implementation
with margin; decay ratios additionally have to clear the analytic rate
bound for the wave tails.
"""

import dataclasses
import functools
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline
from scipy.optimize import least_squares

from fpulab import modulation, waves
from fpulab.artifacts import read_series, write_json, write_series
from fpulab.integrators import EvolveConfig, Trajectory, evolve_nonlinear
from fpulab.lattice import LatticeField, PotentialModel
from fpulab.modulation import (
    ModulationState,
    ModulationTrack,
    ProfileTable,
    decompose,
    mode_projection,
    perturbation_split,
    track,
    track_summary,
    train_field,
    _default_eps,
)
from fpulab.waves import (
    STEPS_PER_SITE,
    kappa_of_speed,
    profile_derivative,
    solve_profile,
    speed_of_eps,
    speed_of_kappa,
    toda_soliton,
    traveling_wave_residual,
)
from oracles import (
    j_inverse_pairing,
    scaled_misfit,
    secular_gram,
    speed_derivative,
)

MODEL = PotentialModel.toda()
TABLE = ProfileTable(MODEL)
C_PAIR = np.array([speed_of_kappa(0.3), speed_of_kappa(0.45)])
X_PAIR = np.array([-15.0, 15.0])
OFFSET, LENGTH = -90, 211


def pair_train(c=None, x=None, offset=OFFSET, length=LENGTH):
    c = C_PAIR if c is None else c
    x = X_PAIR if x is None else x
    return train_field(TABLE, c, x, offset, length)


def pair_modes(c=None, x=None):
    c = C_PAIR if c is None else c
    x = X_PAIR if x is None else x
    return [TABLE.modes(ci, xi) for ci, xi in zip(c, x)]


def common_window(modes):
    """Smallest site window holding every wave's profile window."""
    lo = int(np.floor(min(m.position - m.span for m in modes)))
    hi = int(np.ceil(max(m.position + m.span for m in modes)))
    return lo, hi - lo + 1


def gram_of(modes, eps, offset=None, length=None):
    """secular_gram of the modes sampled on the window (by default the
    common window of their profiles)."""
    if offset is None:
        offset, length = common_window(modes)
    return secular_gram([m.sampled(offset, length) for m in modes], eps)


def fd4(fun, h):
    return (8.0 * (fun(h) - fun(-h)) - (fun(2 * h) - fun(-2 * h))) / (12.0 * h)


@functools.lru_cache(maxsize=None)
def perturbed_setup():
    """Two-wave train plus a localized kick, window sized for t_end=60."""
    offset, length = -100, 271
    sites = offset + np.arange(length)
    train = train_field(TABLE, C_PAIR, X_PAIR, offset, length)
    bump = np.exp(-((sites + 8.0) ** 2) / 12.0)
    raw = np.sqrt(np.sum((0.7 * bump) ** 2 + (0.5 * bump) ** 2))
    v0 = LatticeField(offset, 0.7 * bump * 2e-3 / raw, -0.5 * bump * 2e-3 / raw)
    u0 = LatticeField(offset, train.r + v0.r, train.p + v0.p)
    cfg = EvolveConfig(dt=0.05, t_end=60.0, stride=20)
    return u0, v0, cfg


@functools.lru_cache(maxsize=None)
def perturbed_track():
    u0, _, cfg = perturbed_setup()
    traj = evolve_nonlinear(u0, MODEL, cfg)
    return track(traj, MODEL, (C_PAIR.copy(), X_PAIR.copy()), table=TABLE)


@functools.lru_cache(maxsize=None)
def single_wave_track(t_end=30.0):
    c0 = speed_of_kappa(0.35)
    u0 = TABLE.wave(c0, -70, 191, position=0.0)
    cfg = EvolveConfig(dt=0.05, t_end=t_end, stride=20)
    traj = evolve_nonlinear(u0, MODEL, cfg)
    return c0, track(traj, MODEL, (np.array([c0]), np.array([0.0])), table=TABLE)


class TestProfileTable:
    def test_rejects_subsonic_speed(self):
        with pytest.raises(ValueError):
            TABLE.wave(1.0)
        with pytest.raises(ValueError):
            TABLE.modes(0.9)
        with pytest.raises(ValueError):
            ProfileTable(PotentialModel.alpha_fpu()).wave(1.0)

    def test_toda_bypasses_interpolation(self):
        exact = toda_soliton(kappa_of_speed(1.05)).lattice_field()
        wave = TABLE.wave(1.05)
        assert wave.offset == exact.offset
        assert np.array_equal(wave.r, exact.r)
        assert np.array_equal(wave.p, exact.p)
        assert not TABLE._brackets  # no node was solved

    @pytest.mark.parametrize("kappa", [0.1, 0.3, 0.45, 1.0])
    def test_toda_modes_sample_the_closed_forms_in_one_pass(self, kappa,
                                                            monkeypatch):
        c = speed_of_kappa(kappa)
        k = kappa_of_speed(c)
        # the crest, the next site, half-integers, a fine span, and the
        # far tails where sech^2 is subnormal (|k y| = 360) or 0 (400)
        y = np.concatenate((
            [0.0, 1.0, -2.5, -0.5, 0.5, 1.5, 3.5],
            np.linspace(-30.0, 30.0, 241) / k + 0.3,
            np.array([-1e4, -400.0, -360.0, 360.0, 400.0, 1e4]) / k,
        ))
        assert 0.0 < waves._sech2(360.0) < np.finfo(float).tiny
        assert waves._sech2(400.0) == 0.0

        exact = toda_soliton(k).exact
        # the six forms as separate closed forms, each evaluating its own
        # sech^2 and tanh, with the float operations in the same order
        sh, ch = np.sinh(k), np.cosh(k)
        s2 = np.sinh(k) ** 2
        dkappa_dc = k**2 / (k * ch - sh)
        sech2 = waves._sech2

        def dcr(y):
            dr_dkappa = (np.sinh(2.0 * k) - 2.0 * s2 * y * np.tanh(k * y)) * sech2(k * y)
            return dkappa_dc * dr_dkappa / (1.0 + s2 * sech2(k * y))

        want = (
            np.log1p(s2 * sech2(k * y)),
            -np.sinh(k) * (np.tanh(k * y) - np.tanh(k * (y - 1.0))),
            -2.0 * k * s2 * sech2(k * y) * np.tanh(k * y) / (1.0 + s2 * sech2(k * y)),
            -k * np.sinh(k) * (sech2(k * y) - sech2(k * (y - 1.0))),
            dcr(y),
            -dkappa_dc * (ch * (np.tanh(k * y) - np.tanh(k * (y - 1.0)))
                          + sh * (y * sech2(k * y) - (y - 1.0) * sech2(k * (y - 1.0)))),
        )
        calls = []

        def counting(z):
            calls.append(1)
            return sech2(z)

        monkeypatch.setattr(waves, "_sech2", counting)
        (r, p), (dr, dp), (dcr_got, dcp) = TABLE.modes(c).sample(y)
        assert len(calls) == 2
        got = (r, p, dr, dp, dcr_got, dcp)
        # a fresh evaluator per form
        singles = [getattr(exact(y), name)()
                   for name in ("r", "p", "dr", "dp", "dcr", "dcp")]
        for g, w, s in zip(got, want, singles):
            assert g.tobytes() == w.tobytes() == s.tobytes()
        # the wave reads r's sech^2 alone (p takes tanh only); the six
        # forms' sampler would evaluate two
        calls.clear()
        TABLE.wave(c, -40, 81)
        assert len(calls) == 1

    def test_interpolation_matches_direct_solve(self):
        # speed chosen strictly between geometric nodes
        model = PotentialModel.alpha_fpu()
        table = ProfileTable(model)
        c = 1.0 + 0.017 * 1.13
        xs = np.linspace(-12.0, 12.0, 97)
        (r, _), _, _ = table.modes(c).sample(xs)
        assert len(table._brackets) == 1  # interpolated, not solved at c
        direct = solve_profile(model, c)
        err = np.max(np.abs(r - direct.r_at(xs)))
        assert err / np.max(np.abs(direct.r_at(xs))) < 1e-6
        sites = np.arange(-12, 13)
        wave = table.wave(c, -12, 25)
        err = np.max(np.abs(wave.r - direct.r_at(sites)))
        assert err / np.max(np.abs(direct.r_at(sites))) < 1e-6

    def test_speed_derivative_matches_fresh_solves(self):
        model = PotentialModel.alpha_fpu()
        table = ProfileTable(model)
        c = 1.0 + 0.017 * 1.13
        xs = np.linspace(-12.0, 12.0, 97)
        _, _, (ddc_r, _) = table.modes(c).sample(xs)
        direct = speed_derivative(solve_profile(model, c), model)
        err = np.max(np.abs(ddc_r - direct.r_at(xs)))
        assert err / np.max(np.abs(direct.r_at(xs))) < 1e-4

    @pytest.mark.parametrize("c", [1.005, 1.02, 1.05, 1.2])
    def test_toda_speed_direction_is_the_closed_form(self, c):
        # the oracle is (dkappa/dc) d/dkappa of toda_soliton's r and p,
        # differentiated by hand with cosh^-2 for sech^2, with dc/dkappa =
        # (kappa cosh kappa - sinh kappa)/kappa^2; the table's c-direction
        # is that closed form, so it is also checked against a central
        # difference of the table's waves
        kappa = kappa_of_speed(c)
        y = np.linspace(-8.0, 8.0, 161) / kappa + 0.3
        sh, ch = np.sinh(kappa), np.cosh(kappa)
        q0, q1 = (np.cosh(kappa * z) ** -2 for z in (y, y - 1.0))
        dr = (np.sinh(2.0 * kappa) * q0 - 2.0 * sh**2 * y * q0
              * np.tanh(kappa * y)) / (1.0 + sh**2 * q0)
        dp = (-ch * (np.tanh(kappa * y) - np.tanh(kappa * (y - 1.0)))
              - sh * (y * q0 - (y - 1.0) * q1))
        dkappa_dc = kappa**2 / (kappa * ch - sh)
        _, _, ddc = TABLE.modes(c).sample(y)
        for got, want in zip(ddc, (dr, dp)):
            want = dkappa_dc * want
            # measured 6.6e-16 relative at most
            assert np.max(np.abs(got - want)) < 1e-14 * np.max(np.abs(want))
        h = 1e-5 * (c - 1.0)
        plus, minus = (TABLE.wave(ci, -40, 81, position=0.4)
                       for ci in (c + h, c - h))
        ddc = TABLE.modes(c, 0.4).sampled(-40, 81)[2]
        for got, hi, lo in ((ddc.r, plus.r, minus.r), (ddc.p, plus.p, minus.p)):
            fd = (hi - lo) / (2.0 * h)
            # measured 1.8e-9 relative at c = 1.005
            assert np.max(np.abs(got - fd)) < 1e-8 * np.max(np.abs(got))

    def test_adjacent_bracket_samples_like_a_fresh_table(self):
        # brackets j and j + 1 share three nodes; the second, built after
        # the first, samples bit for bit as it does in a table of its own
        model = PotentialModel.alpha_fpu()
        table = ProfileTable(model)
        c1, c2 = (1.0 + 10.0 ** ((k + 0.5) / 64) for k in (-100, -99))
        xs = np.linspace(-12.0, 12.0, 97) + 0.3
        assert table.modes(c1).span == table.modes(c2).span
        assert len(table._brackets) == 2
        fresh = ProfileTable(model).modes(c2).sample(xs)
        for got, want in zip(table.modes(c2).sample(xs), fresh):
            assert np.array_equal(got, want)

    def test_node_speed_samples_the_node(self):
        model = PotentialModel.alpha_fpu()
        c = 1.0 + 10.0 ** (-100 / 64)
        xs = np.linspace(-12.0, 12.0, 97) + 0.3
        wave, ddx, _ = ProfileTable(model).modes(c).sample(xs)
        prof = solve_profile(model, c)
        dprof = profile_derivative(prof, model)
        for got, want in ((wave[0], prof.r_at(xs)), (wave[1], prof.p_at(xs)),
                          (ddx[0], dprof.r_at(xs)), (ddx[1], dprof.p_at(xs))):
            assert np.max(np.abs(got - want)) < 1e-12

    def test_speed_direction_is_the_derivative_of_the_wave(self):
        table = ProfileTable(PotentialModel.alpha_fpu())
        c = 1.0 + 0.017 * 1.13
        h = 1e-5 * (c - 1.0)
        ddc = table.modes(c, 0.4).sampled(-30, 61)[2]
        plus = table.wave(c + h, -30, 61, position=0.4)
        minus = table.wave(c - h, -30, 61, position=0.4)
        for got, hi, lo in ((ddc.r, plus.r, minus.r), (ddc.p, plus.p, minus.p)):
            fd = (hi - lo) / (2.0 * h)
            assert np.max(np.abs(got - fd)) < 1e-8 * np.max(np.abs(got))

    @pytest.mark.parametrize("s", [1e-4, 0.0173, 0.3])
    def test_lagrange_weights_reproduce_cubics(self, s):
        # geometric nodes around s, as _bracket picks them
        j = int(np.floor(np.log10(s) * 64))
        nodes = [10.0 ** (k / 64) for k in range(j - 1, j + 3)]
        w, dw = ProfileTable._lagrange_weights(s, nodes)
        for p in range(4):
            # tolerances relative to the round-off scale of each sum
            terms = [wk * sk**p for wk, sk in zip(w, nodes)]
            assert abs(sum(terms) - s**p) <= 1e-12 * sum(map(abs, terms))
            terms = [dk * sk**p for dk, sk in zip(dw, nodes)]
            want = p * s ** (p - 1) if p else 0.0
            assert abs(sum(terms) - want) <= 1e-12 * sum(map(abs, terms))

    @pytest.mark.parametrize("c", [1.02, 1.0213, 1.05])
    def test_stacked_bracket_matches_per_node_splines(self, c):
        # the oracle is per-node sampling: each node's own cubic spline
        # through (r, p, dx r, dx p), zero off its grid, summed with the
        # Lagrange weights w (wave, x-direction) and dw (c-direction)
        model = PotentialModel.alpha_fpu()
        table = ProfileTable(model)
        modes = table.modes(c)
        span = modes.span
        s = c - 1.0
        j = int(np.floor(np.log10(s) * 64))
        speeds = [1.0 + 10.0 ** (k / 64) for k in range(j - 1, j + 3)]
        w, dw = ProfileTable._lagrange_weights(s, [ck - 1.0 for ck in speeds])
        lo, hi = -span, span - 1.0 / STEPS_PER_SITE  # the grid's ends
        inside = np.random.default_rng(3).uniform(lo, hi, 200)
        pts = np.concatenate([inside, [lo, hi, -span, span, span + 1e-9,
                                       lo - 1e-9, -span - 7.5, span + 80.0]])
        want = np.zeros((6, pts.size))
        for ck, wk, dwk in zip(speeds, w, dw):
            prof = solve_profile(model, ck, span=span)
            ddx = profile_derivative(prof, model)
            at = CubicSpline(prof.x, np.column_stack([prof.r, prof.p,
                                                      ddx.r, ddx.p]))
            on = (pts >= prof.x[0]) & (pts <= prof.x[-1])
            vals = np.zeros((4, pts.size))
            vals[:, on] = at(pts[on]).T
            want[:4] += wk * vals
            want[4:] += dwk * vals[:2]
        got = np.concatenate(modes.sample(pts))
        scale = np.max(np.abs(want), axis=1)
        assert np.all(np.max(np.abs(got - want), axis=1) <= 1e-13 * scale)
        off = (pts < lo) | (pts > hi)
        assert off.sum() == 5  # +span and the four points past the ends
        assert np.all(got[:, off] == 0.0)
        # the identity check on the bracket's cached dx^2 columns is the
        # check on spectral derivatives of the combined columns
        (cols, _), w_table, _ = table._bracket(c, span)
        assert w_table == w
        combined = np.dot(w, cols).reshape(6, -1)
        cached = waves._identity_residual(c, *combined, model)
        assert abs(cached - traveling_wave_residual(c, *combined[:4], model)) <= 1e-12

    @pytest.mark.parametrize("c", [1.02, 1.0213, 1.05])
    def test_identity_residual_matches_the_rolled_formula(self, c):
        # the one-site differences on the periodic grid, formed with
        # np.roll as the identity's definition reads; on a table bracket,
        # and on small random columns, where the maximum often falls on
        # the wrapped sites
        model = PotentialModel.alpha_fpu()
        table = ProfileTable(model)
        (cols, _), w, _ = table._bracket(c, table.modes(c).span)
        random = 1e-8 * np.random.default_rng(2).standard_normal((20, 6, 64))
        for columns in (np.dot(w, cols).reshape(6, -1), *random):
            r, p, dr, dp, d2r, d2p = columns
            flux = model.d2v(r) * dr
            res_r = c * d2r + (np.roll(dp, -STEPS_PER_SITE) - dp)
            res_p = c * d2p + (flux - np.roll(flux, STEPS_PER_SITE))
            want = max(np.max(np.abs(res_r)), np.max(np.abs(res_p)))
            assert waves._identity_residual(c, *columns, model) == want

    def test_identity_alarm_fires_on_a_coarse_table(self, monkeypatch):
        monkeypatch.setattr(modulation, "_TABLE_NODES_PER_DECADE", 4)
        table = ProfileTable(PotentialModel.alpha_fpu())
        with pytest.raises(RuntimeError, match="traveling-wave identity") as alarm:
            table.modes(1.05)
        assert "(model alpha_fpu, c=1.05)" in str(alarm.value)
        assert f"exceeds {waves.IDENTITY_TOL:.0e}" in str(alarm.value)

    def test_sampled_window_and_kappa(self):
        m = TABLE.modes(C_PAIR[0], 2.0)
        wave, ddx, ddc = m.sampled(-40, 81)
        for f in (wave, ddx, ddc):
            assert f.offset == -40 and len(f) == 81
        crest = -40 + int(np.argmax(wave.r))
        assert abs(crest - 2.0) <= 1
        assert m.kappa == pytest.approx(kappa_of_speed(C_PAIR[0]))


def localized_field():
    sites = OFFSET + np.arange(LENGTH)
    return LatticeField(
        OFFSET,
        1e-3 * np.exp(-((sites - 2.0) ** 2) / 40.0) * np.cos(0.3 * sites),
        1e-3 * np.exp(-((sites + 6.0) ** 2) / 30.0),
    )


class TestSecularGram:
    @pytest.mark.parametrize("name", ["toda", "alpha_fpu"])
    def test_entries_are_split_form_pairings(self, name):
        """C D^T and C v against oracles.j_inverse_pairing, the split
        form of <u, J^{-1} v> that never calls apply_j_inverse, with the
        scalings of the secular_gram docstring: every entry to 1e-12 of
        the largest (the x,x self-pairings cancel to ~1e-19 of it, so not
        entrywise relative)."""
        table = (TABLE if name == "toda"
                 else ProfileTable(PotentialModel.alpha_fpu()))
        c = C_PAIR if name == "toda" else np.array([1.0067, 1.0267])
        eps = _default_eps(c)
        sampled = [table.modes(ci, xi).sampled(OFFSET, LENGTH)
                   for ci, xi in zip(c, X_PAIR)]
        v = localized_field()
        pair = j_inverse_pairing
        gram = np.empty((4, 4))
        misfit = np.empty(4)
        for i, (_, dx_i, dc_i) in enumerate(sampled):
            misfit[2 * i] = pair(v, dx_i) / eps**4
            misfit[2 * i + 1] = pair(v, dc_i) / eps
            for j, (_, dx_j, dc_j) in enumerate(sampled):
                gram[2 * i, 2 * j] = pair(dc_j, dx_i) / eps
                gram[2 * i, 2 * j + 1] = pair(dx_j, dx_i) / eps**4
                gram[2 * i + 1, 2 * j] = eps**2 * pair(dc_j, dc_i)
                gram[2 * i + 1, 2 * j + 1] = pair(dx_j, dc_i) / eps
        for got, want in ((secular_gram(sampled, eps), gram),
                          (scaled_misfit(v, sampled, eps), misfit)):
            assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))

    def test_matches_finite_difference_jacobian(self):
        """Columns are the residual response to the update-rule steps."""
        u = pair_train()
        eps = _default_eps(C_PAIR)

        def misfit_at(c, x):
            modes = pair_modes(c, x)
            sampled = [m.sampled(OFFSET, LENGTH) for m in modes]
            tr = pair_train(c, x)
            v = LatticeField(OFFSET, u.r - tr.r, u.p - tr.p)
            return scaled_misfit(v, sampled, eps)

        gram = gram_of(pair_modes(), eps, OFFSET, LENGTH)
        num = np.zeros_like(gram)
        for j in range(2):
            def along_c(h, j=j):
                c = C_PAIR.copy()
                c[j] += h
                return misfit_at(c, X_PAIR)

            def along_x(h, j=j):
                x = X_PAIR.copy()
                x[j] += h
                return misfit_at(C_PAIR, x)

            num[:, 2 * j] = -eps**3 * fd4(along_c, 1e-5)
            num[:, 2 * j + 1] = fd4(along_x, 1e-4)
        rel = np.max(np.abs(num - gram)) / np.max(np.abs(gram))
        assert rel < 1e-7  # measured 1.2e-9

    def test_same_wave_block_structure(self):
        eps = _default_eps(C_PAIR)
        gram = gram_of(pair_modes(), eps, OFFSET, LENGTH)
        scale = np.max(np.abs(gram))
        for i in range(2):
            block = gram[2 * i:2 * i + 2, 2 * i:2 * i + 2]
            # the x-condition never reacts to its own x-direction
            assert abs(block[0, 1]) < 1e-12 * scale
            # cross pairings are antisymmetric and set the dominant entry
            assert block[0, 0] == pytest.approx(-block[1, 1], rel=1e-10)
            assert block[1, 1] > 0.0
            # the c-response of the c-condition is negative (mass grows)
            assert block[1, 0] < 0.0

    def test_near_sonic_entries_approach_universal_constants(self):
        eps = 0.05
        c = speed_of_eps(eps)
        modes = [TABLE.modes(c, 0.0)]
        gram = gram_of(modes, eps)
        assert gram[1, 1] == pytest.approx(12.0, rel=0.05)
        assert gram[1, 0] == pytest.approx(-36.0, rel=0.05)

    def test_cross_blocks_split_by_direction(self):
        """Left-of blocks decay with the gap, right-of blocks do not."""
        eps = _default_eps(C_PAIR)
        lower, upper = {}, {}
        for gap in (25.0, 50.0):
            modes = [TABLE.modes(C_PAIR[0], -gap / 2),
                     TABLE.modes(C_PAIR[1], gap / 2)]
            g = gram_of(modes, eps)
            lower[gap] = np.abs(g[2:4, 0:2]).max()
            upper[gap] = abs(g[1, 2])
        ratio = lower[50.0] / lower[25.0]
        # at least the slowest-tail rate; measured slope is twice that
        assert ratio < np.exp(-0.3 * 25.0)
        assert 0.5 < -np.log(ratio) / 25.0 < 0.7  # measured 0.565
        assert upper[50.0] / upper[25.0] == pytest.approx(1.0, abs=0.05)
        assert 40.0 < upper[25.0] < 60.0  # measured 50.3

    def test_conditioning_stays_moderate(self):
        for eps in (0.1, 0.2):
            c = speed_of_eps(np.array([1.0, 2.0]) * eps)
            sep = 10.0 / eps
            modes = [TABLE.modes(ci, xi)
                     for ci, xi in zip(c, [-sep / 2, sep / 2])]
            gram = gram_of(modes, eps)
            assert np.linalg.cond(gram) < 100.0  # measured 17.0, 17.5

    def test_degenerate_directions_rejected(self):
        m = TABLE.modes(C_PAIR[0], 0.0)
        with pytest.raises(ValueError, match="singular") as alarm:
            gram_of([m, m], 0.3)
        found = re.search(r"condition number (\S+) exceeds 1e\+12$", str(alarm.value))
        assert float(found.group(1)) > 1e12


class TestDecompose:
    def test_recovers_exact_train_parameters(self):
        u = pair_train()
        guess = (C_PAIR * (1.0 + 1e-3), X_PAIR + np.array([0.3, -0.2]))
        state = decompose(u, MODEL, guess, table=TABLE)
        assert np.max(np.abs(state.c - C_PAIR)) < 1e-10
        assert np.max(np.abs(state.x - X_PAIR)) < 1e-10
        assert state.iterations <= 8
        assert np.max(np.abs(state.orthogonality)) < 1e-10

    def test_recovers_alpha_fpu_train(self):
        model = PotentialModel.alpha_fpu()
        table = ProfileTable(model)
        c = np.array([1.0067, 1.0267])
        x = np.array([-18.0, 18.0])
        u = train_field(table, c, x, -85, 191)
        state = decompose(u, model, (c * (1.0 + 5e-4), x - 0.15), table=table)
        assert np.max(np.abs(state.c - c)) < 1e-10
        assert np.max(np.abs(state.x - x)) < 1e-10

    def test_translated_train_shifts_positions_only(self):
        shift = 7.31
        u = pair_train(x=X_PAIR + shift)
        guess = (C_PAIR * (1.0 + 1e-3), X_PAIR + shift - 0.25)
        state = decompose(u, MODEL, guess, table=TABLE)
        assert np.max(np.abs(state.c - C_PAIR)) < 1e-10
        assert np.max(np.abs(state.x - (X_PAIR + shift))) < 1e-9

    def test_matches_least_squares_refit(self):
        sites = OFFSET + np.arange(LENGTH)
        train = pair_train()
        bump = np.exp(-((sites + 5.0) ** 2) / 18.0)
        scale = 1e-3 * train.norm() / np.sqrt(np.sum((0.6 * bump) ** 2
                                                     + (0.4 * bump) ** 2))
        u = LatticeField(OFFSET, train.r + scale * 0.6 * bump,
                         train.p - scale * 0.4 * bump)
        state = decompose(u, MODEL, (C_PAIR.copy(), X_PAIR.copy()),
                          table=TABLE)

        def resid(q):
            tf = train_field(TABLE, q[:2], q[2:], OFFSET, LENGTH)
            return np.concatenate([u.r - tf.r, u.p - tf.p])

        fit = least_squares(resid, np.concatenate([C_PAIR, X_PAIR]),
                            xtol=1e-15, ftol=1e-15, gtol=1e-15)
        # both parameter readings sit inside the perturbation scale and
        # agree with each other; the two fits weight the residual
        # differently so exact agreement is not expected.
        for c_fit, x_fit in ((state.c, state.x), (fit.x[:2], fit.x[2:])):
            assert np.max(np.abs(x_fit - X_PAIR)) < 0.05
            assert np.max(np.abs(c_fit - C_PAIR) / (C_PAIR - 1.0)) < 1e-3
        assert np.max(np.abs(state.x - fit.x[2:])) < 0.05  # measured 1.3e-2
        assert np.max(np.abs(state.c - fit.x[:2])) < 1e-5  # measured 4.1e-6

    def test_newton_iteration_applies_j_inverse_once_per_direction(
            self, monkeypatch):
        calls = []
        apply_j_inverse = modulation.apply_j_inverse

        def counting(v):
            calls.append(v)
            return apply_j_inverse(v)

        monkeypatch.setattr(modulation, "apply_j_inverse", counting)
        guess = (C_PAIR * (1.0 + 1e-3), X_PAIR + np.array([0.3, -0.2]))
        state = decompose(pair_train(), MODEL, guess, table=TABLE)
        assert state.iterations >= 2
        # one condition matrix per iteration, the converged one included:
        # J^{-1} of the x- and c-direction of each of the two waves
        assert len(calls) == 4 * (state.iterations + 1)
        assert not hasattr(modulation, "j_inverse_pairing")

    def test_warm_table_takes_no_spectral_derivative_and_builds_no_spline(
            self, monkeypatch):
        model = PotentialModel.alpha_fpu()
        c = np.array([1.02, 1.05])
        x = np.array([-30.0, 30.0])
        frame = train_field(ProfileTable(model), c, x, -100, 201)
        guess = (c * (1.0 + 5e-4), x + np.array([0.3, -0.2]))
        calls = {"_spectral_dx": 0, "CubicSpline": 0}
        for name in calls:
            original = getattr(waves, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(waves, name, counting)
        table = ProfileTable(model)
        cold = decompose(frame, model, guess, table=table)
        assert cold.iterations >= 2
        assert calls["_spectral_dx"] > 0 and calls["CubicSpline"] > 0
        calls.update(dict.fromkeys(calls, 0))
        warm = decompose(frame, model, guess, table=table)
        assert calls == {"_spectral_dx": 0, "CubicSpline": 0}
        assert warm.iterations == cold.iterations
        assert np.array_equal(warm.c, cold.c) and np.array_equal(warm.x, cold.x)

    def test_rejects_colliding_guess(self):
        u = pair_train()
        with pytest.raises(RuntimeError, match="collision"):
            decompose(u, MODEL, (C_PAIR.copy(), np.array([-1.0, 0.4])),
                      table=TABLE)

    def test_reports_residual_stall(self):
        u = pair_train()
        guess = (C_PAIR * (1.0 + 1e-4), X_PAIR - 0.1)
        with pytest.raises(RuntimeError, match="exceeds 1e-30 after 3 iterations"):
            decompose(u, MODEL, guess, table=TABLE, tol=1e-30, max_iter=3)

    def test_divergence_from_noise_reported(self):
        rng = np.random.default_rng(11)
        noise = LatticeField(OFFSET, 0.3 * rng.standard_normal(LENGTH),
                             0.3 * rng.standard_normal(LENGTH))
        with pytest.raises(RuntimeError, match="supersonic"):
            decompose(noise, MODEL, (C_PAIR.copy(), X_PAIR.copy()),
                      table=TABLE, max_iter=8)

    def test_warns_when_waves_overlap(self):
        x = np.array([-9.0, 9.0])
        u = pair_train(x=x)
        with pytest.warns(UserWarning, match="overlap floor"):
            state = decompose(u, MODEL, (C_PAIR.copy(), x.copy()),
                              table=TABLE)
        assert state.scaled_separation() == pytest.approx(0.3 * 18.0)

    def test_guess_validation(self):
        u = pair_train()
        with pytest.raises(ValueError, match="exceed 1"):
            decompose(u, MODEL, (np.array([0.99, 1.02]), X_PAIR.copy()),
                      table=TABLE)
        with pytest.raises(ValueError, match="increase"):
            decompose(u, MODEL, (C_PAIR.copy(), X_PAIR[::-1].copy()),
                      table=TABLE)
        with pytest.raises(ValueError, match="equal-length"):
            decompose(u, MODEL, (C_PAIR, np.array([0.0])), table=TABLE)
        with pytest.raises(ValueError, match="max_iter"):
            decompose(u, MODEL, (C_PAIR.copy(), X_PAIR.copy()), table=TABLE,
                      max_iter=-1)

    @settings(max_examples=20, deadline=None)
    @given(kappa=st.floats(0.25, 0.5), shift=st.floats(-3.0, 3.0))
    def test_single_wave_recovery_is_gauge_covariant(self, kappa, shift):
        c = speed_of_kappa(kappa)
        u = train_field(TABLE, [c], [shift], -70, 141)
        guess = (np.array([c * (1.0 + 5e-4)]), np.array([shift - 0.2]))
        state = decompose(u, MODEL, guess, table=TABLE)
        assert abs(state.c[0] - c) < 1e-8
        assert abs(state.x[0] - shift) < 1e-8


@functools.lru_cache(maxsize=None)
def fpu_table():
    return ProfileTable(PotentialModel.alpha_fpu())


def kick(offset, length, centre, amplitude=1e-3):
    sites = offset + np.arange(length)
    bump = np.exp(-((sites - centre) ** 2) / 12.0)
    return LatticeField(offset, 0.7 * amplitude * bump, -0.5 * amplitude * bump)


def nonzero_sites(modes, offset, length):
    """Window sites where some wave or direction samples nonzero."""
    mask = np.zeros(length, dtype=bool)
    for m in modes:
        for f in m.sampled(offset, length):
            mask |= (f.r != 0.0) | (f.p != 0.0)
    return mask


def box_modes(c, position):
    """A WaveModes whose samples are of order one up to both ends of its
    support [-3, 3]."""
    def sample(rel):
        a = np.where(np.abs(rel) <= 3.0, 1.0 + 0.2 * rel, 0.0)
        return (a, 0.5 * a), (-a * rel, a), (a * a, -a)

    return modulation.WaveModes(c=c, position=position, span=3,
                                sample=sample, support=(-3.0, 3.0))


# alpha-FPU windows around trains: (speeds, crests, offset, length, kick
# centre or None).  Spans are 32 sites at these speeds.
HULL_CASES = {
    "two_waves": ((1.02, 1.05), (-30.0, 30.0), -200, 500, None),
    "three_waves": ((1.02, 1.035, 1.05), (-60.0, 0.0, 60.0), -200, 500, None),
    # the fast wave's support runs 12 sites past the right edge
    "right_edge": ((1.02, 1.05), (-30.0, 30.0), -200, 251, None),
    # a kick 40 sites ahead of the train, right of the hull
    "kick_ahead": ((1.02, 1.05), (-30.0, 30.0), -200, 500, 102.0),
}


class TestHull:
    """decompose and mode_projection build the conditions on the hull of
    the waves' supports; the oracles are the full-window condition
    matrix of scaled_misfit and the Gram matrix of secular_gram on
    full-window samples."""

    @pytest.mark.parametrize("name", ["alpha_fpu", "toda", "box"])
    @pytest.mark.parametrize("frac", [0.0, 0.0625, 0.5, 0.9375])
    def test_hull_misfit_is_the_full_window_misfit(self, name, frac):
        # crests at k + frac put a support end on a site for frac 0 (the
        # table's left end -32, both box ends) and 0.0625 (the table's
        # right end 31.9375); a random field is nonzero left and right of
        # the hull.  Table profiles are e^{-22} small at their ends, box
        # samples are not, so the box pins the site added right of the
        # supports.
        speeds = np.array([1.02, 1.05])
        offset, length = -200, 500
        if name == "box":
            modes = [box_modes(ci, xi + frac) for ci, xi in zip(speeds, (-30, 30))]
        else:
            table = fpu_table() if name == "alpha_fpu" else TABLE
            modes = [table.modes(ci, xi + frac)
                     for ci, xi in zip(speeds, (-30, 30))]
        rng = np.random.default_rng(5)
        f = LatticeField(offset, rng.standard_normal(length),
                         rng.standard_normal(length))
        eps = _default_eps(speeds)
        hull = modulation._Hull(modes, offset, length, eps)
        got = hull.misfit(hull.cut(f), modulation._suffix_sums(f))
        full = [m.sampled(offset, length) for m in modes]
        want = scaled_misfit(f, full, eps)
        cond = modulation._conditions(full, eps)[0]
        scale = np.abs(cond) @ np.abs(modulation._flat(f))
        assert np.all(np.abs(got - want) <= 1e-13 * scale)
        # the Gram matrix decompose and mode_projection solve with;
        # measured 2.7e-16 of the largest entry
        gram = secular_gram(full, eps)
        err = np.abs(modulation._pairing_gram(hull.cond, hull.dirs) - gram)
        assert np.max(err) <= 1e-13 * np.max(np.abs(gram))
        if name == "toda":
            assert (hull.start, hull.stop) == (0, length)
        else:
            assert hull.stop - hull.start < length / 2

    @pytest.mark.parametrize("case", sorted(HULL_CASES))
    def test_decompose_meets_the_full_window_conditions(self, case):
        model, table = PotentialModel.alpha_fpu(), fpu_table()
        speeds, crests, offset, length, centre = HULL_CASES[case]
        c, x = np.array(speeds), np.array(crests)
        u = train_field(table, c, x, offset, length)
        if centre is not None:
            k = kick(offset, length, centre)
            u = LatticeField(offset, u.r + k.r, u.p + k.p)
        guess = (c * (1.0 + 5e-4), x + 0.2)
        tol = 1e-10
        state = decompose(u, model, guess, table=table, tol=tol)
        modes = [table.modes(ci, xi) for ci, xi in zip(state.c, state.x)]
        full = [m.sampled(offset, length) for m in modes]
        assert np.max(np.abs(scaled_misfit(state.residual, full, state.eps))) <= tol
        # off the waves' supports the residual is the state itself
        off = ~nonzero_sites(modes, offset, length)
        assert np.array_equal(state.residual.r[off], u.r[off])
        assert np.array_equal(state.residual.p[off], u.p[off])
        hull = modulation._Hull(modes, offset, length, state.eps)
        if case == "right_edge":
            assert hull.stop == length
        else:
            assert hull.stop - hull.start < length / 2
        if centre is not None:
            # the kick reaches the conditions only through the tail sums
            beyond = u.r[hull.stop:].sum() + u.p[hull.stop:].sum()
            assert abs(beyond) > 1e-4
            assert np.max(np.abs(state.c - c)) > 1e-9

    def test_mode_projection_clears_the_full_window_pairings(self):
        table = fpu_table()
        offset, length = -200, 500
        modes = [table.modes(1.02, -30.0), table.modes(1.05, 30.0)]
        sites = offset + np.arange(length)
        w = kick(offset, length, 102.0)
        w.r += 1e-3 * np.exp(-((sites - 2.0) ** 2) / 40.0) * np.cos(0.3 * sites)
        proj, alpha, beta = mode_projection(w, modes)
        full = [m.sampled(offset, length) for m in modes]
        eps = _default_eps(np.array([1.02, 1.05]))
        assert np.max(np.abs(scaled_misfit(w, full, eps))) > 1e-3
        assert np.max(np.abs(scaled_misfit(proj, full, eps))) < 1e-12
        off = ~nonzero_sites(modes, offset, length)
        assert np.array_equal(proj.r[off], w.r[off])
        assert np.array_equal(proj.p[off], w.p[off])

    def test_newton_work_does_not_grow_with_the_window(self):
        model, table = PotentialModel.alpha_fpu(), fpu_table()
        c, x = np.array([1.02, 1.05]), np.array([-30.0, 30.0])
        guess = (c * (1.0 + 5e-4), x + 0.2)

        class CountingTable:
            """table.modes with a sampler that counts its points."""

            def __init__(self):
                self.points = 0

            def modes(self, ci, xi):
                m = table.modes(ci, xi)

                def sample(rel, _sample=m.sample):
                    self.points += rel.size
                    return _sample(rel)

                return dataclasses.replace(m, sample=sample)

        per_iteration = []
        for offset, length in ((-200, 500), (-450, 1000)):
            counting = CountingTable()
            u = train_field(table, c, x, offset, length)
            state = decompose(u, model, guess, table=counting)
            per_iteration.append(counting.points / (state.iterations + 1))
            assert state.iterations >= 2
        assert per_iteration[0] == per_iteration[1]
        assert per_iteration[0] < 500


class TestModulationState:
    def test_validates_parameters(self):
        zero = LatticeField(0, np.zeros(4), np.zeros(4))
        with pytest.raises(ValueError):
            ModulationState(np.array([0.9]), np.array([0.0]), zero,
                            np.zeros(2), 0, 0.3)
        with pytest.raises(ValueError):
            ModulationState(np.array([1.02, 1.03]), np.array([5.0, 5.0]),
                            zero, np.zeros(4), 0, 0.3)

    def test_separation_measures(self):
        zero = LatticeField(0, np.zeros(4), np.zeros(4))
        lone = ModulationState(np.array([1.05]), np.array([0.0]), zero,
                               np.zeros(2), 0, 0.3)
        assert lone.min_separation() == np.inf
        pair = ModulationState(C_PAIR, X_PAIR, zero, np.zeros(4), 0, 0.3)
        assert pair.min_separation() == 30.0
        assert pair.scaled_separation() == pytest.approx(0.3 * 30.0)
        assert pair.n == 2

    def test_default_eps(self):
        assert _default_eps(np.array([1.06, 1.24])) == pytest.approx(0.6)


class TestModeProjection:
    def test_remainder_clears_orthogonality(self):
        w = localized_field()
        modes = pair_modes()
        proj, alpha, beta = mode_projection(w, modes)
        sampled = [m.sampled(OFFSET, LENGTH) for m in modes]
        eps = _default_eps(C_PAIR)
        assert np.max(np.abs(scaled_misfit(proj, sampled, eps))) < 1e-12
        assert np.all(np.isfinite(alpha)) and np.all(np.isfinite(beta))

    def test_recovers_pure_direction_coefficients(self):
        modes = pair_modes()
        ddx = modes[0].sampled(OFFSET, LENGTH)[1]
        w = LatticeField(OFFSET, 0.7 * ddx.r, 0.7 * ddx.p)
        proj, alpha, beta = mode_projection(w, modes)
        assert beta[0] == pytest.approx(0.7, abs=1e-12)
        assert abs(beta[1]) < 1e-12
        assert np.max(np.abs(alpha)) < 1e-12
        assert proj.norm() < 1e-12

    def test_pairing_orientation_convention(self):
        """Orthogonality is one-sided: the remainder pairs to zero as the
        left argument, while the flipped order keeps the far-field term
        of the speed direction."""
        w = localized_field()
        modes = pair_modes()
        proj, _, _ = mode_projection(w, modes)
        ddc = modes[0].sampled(OFFSET, LENGTH)[2]
        left = j_inverse_pairing(proj, ddc)
        flipped = j_inverse_pairing(ddc, proj)
        assert abs(left) < 1e-12
        assert abs(flipped) > 1e-4  # measured 8.9e-2


class TestTrack:
    def test_single_wave_parameters_steady(self):
        c0, trk = single_wave_track()
        speeds = trk.speeds[:, 0]
        assert np.ptp(speeds) < 1e-6  # measured 1.6e-9
        assert np.max(np.abs(speeds - c0)) < 1e-6
        assert np.max(np.abs(trk.xdot[:, 0] - c0)) < 1e-4  # measured 1.8e-5
        assert np.max(trk.series["v_l2"]) < 3e-4  # scheme-induced, dt^2
        gap = np.abs(trk.series["h_total"] - trk.series["h_waves"])
        assert np.max(gap) < 1e-7  # measured 6.9e-9

    @pytest.mark.parametrize("samples", [7, 23])
    def test_c_plus_is_the_mean_over_the_final_window(self, samples):
        _, trk = single_wave_track(t_end=samples - 1.0)  # one sample per 1.0
        assert trk.times.size == samples
        np.testing.assert_array_equal(
            trk.c_plus, trk.speeds[trk.final_window():].mean(axis=0))

    def test_perturbed_pair_stays_orbitally_stable(self):
        _, v0, _ = perturbed_setup()
        trk = perturbed_track()
        eps = _default_eps(C_PAIR)
        gap = X_PAIR[1] - X_PAIR[0]
        allowance = v0.norm() + eps**1.5 * np.exp(-0.3 * gap)
        sup_v = np.max(trk.series["v_l2"])
        assert sup_v < 4.0 * allowance  # fitted constant 1.59
        start = trk.final_window()
        for i in range(2):
            assert np.ptp(trk.xdot[start:, i]) < 1e-3 * eps**2
        assert np.all(np.diff(trk.speeds, axis=1) > 0.0)
        # the kick sits on the slow wave; the fast one keeps its speed
        assert np.max(np.abs(trk.speeds[:, 1] - C_PAIR[1])) < 1e-6

    def test_summary_and_csv_roundtrip(self, tmp_path):
        _, trk = single_wave_track()
        summary = track_summary(trk)
        assert summary["samples"] == trk.times.size
        assert summary["waves"] == 1
        assert summary["c_plus"][0] == pytest.approx(trk.c_plus[0])
        assert summary["xdot_final_variation"][0] < 1e-4
        path = tmp_path / "track.csv"
        write_series(path, {"t": trk.times, "c": trk.speeds,
                            "x": trk.positions, "v_l2": trk.series["v_l2"],
                            "v_w": trk.series["v_w"]})
        assert path.read_text().splitlines()[0] == "t,c1,x1,v_l2,v_w"
        back = read_series(path)
        assert np.array_equal(back["t"], trk.times)
        assert np.array_equal(back["c1"], trk.speeds[:, 0])
        assert np.array_equal(back["x1"], trk.positions[:, 0])
        for name in ("v_l2", "v_w"):
            assert np.array_equal(back[name], trk.series[name])
        path = tmp_path / "track.json"
        write_json(path, summary)
        assert json.loads(path.read_text()) == summary

    def test_one_frame_track_takes_the_speed_as_crest_velocity(self):
        # one frame has no difference quotient: xdot is the fitted speed
        c0 = speed_of_kappa(0.35)
        u0 = TABLE.wave(c0, -70, 191, position=0.0)
        trk = track(Trajectory(np.array([0.0]), [u0]), MODEL,
                    (np.array([c0]), np.array([0.0])), table=TABLE)
        assert trk.xdot.shape == (1, 1)
        assert np.array_equal(trk.xdot[0], trk.speeds[0])
        assert np.array_equal(trk.c_plus, trk.speeds[0])

    def test_failure_names_the_sample_time(self):
        rng = np.random.default_rng(3)
        u0 = pair_train()
        cfg = EvolveConfig(dt=0.05, t_end=3.0, stride=20)
        traj = evolve_nonlinear(u0, MODEL, cfg)
        fields = list(traj.fields)
        mid = len(fields) // 2
        fields[mid] = LatticeField(u0.offset,
                                   5.0 * rng.standard_normal(len(u0)),
                                   np.zeros(len(u0)))
        bad = Trajectory(traj.times, fields)
        with pytest.raises(RuntimeError, match="decomposition failed at t="):
            track(bad, MODEL, (C_PAIR.copy(), X_PAIR.copy()), table=TABLE)

    def test_track_container_validation(self):
        zero = LatticeField(0, np.zeros(4), np.zeros(4))
        state = ModulationState(np.array([1.05]), np.array([0.0]), zero,
                                np.zeros(2), 0, 0.3)
        with pytest.raises(ValueError, match="increase strictly"):
            ModulationTrack(np.array([0.0, 0.0]), [state, state],
                            np.array([1.05]), np.zeros((2, 1)))
        with pytest.raises(ValueError, match="one state per sample time"):
            ModulationTrack(np.array([0.0, 1.0]), [state],
                            np.array([1.05]), np.zeros((2, 1)))
        trk = ModulationTrack(np.arange(10.0), [state] * 10,
                              np.array([1.05]), np.zeros((10, 1)))
        assert trk.final_window() == 8
        short = ModulationTrack(np.arange(3.0), [state] * 3,
                                np.array([1.05]), np.zeros((3, 1)))
        assert short.final_window() <= 1


class TestPerturbationSplit:
    def test_split_tracks_bound_component(self):
        u0, v0, cfg = perturbed_setup()
        split = perturbation_split(u0, v0, MODEL, cfg,
                                   (C_PAIR.copy(), X_PAIR.copy()),
                                   table=TABLE)
        # the state starts as exact train + kick, so nothing is bound yet
        assert split.bound_l2[0] < 1e-12
        assert split.bound_leading[0] < 1e-12
        # the wave-generated part stays below the freely moving kick
        assert np.max(split.bound_l2) < np.max(split.free_l2)
        assert np.max(split.free_l2) == pytest.approx(2e-3, rel=0.1)
        # weighted norms ahead of the leading wave stay bounded
        assert np.max(split.bound_leading) < 0.1  # measured 4.5e-2
        assert np.all(np.isfinite(split.total_leading))

    def test_runs_are_stepped_as_one_stacked_state(self):
        # V' sees both runs at once, n_steps + 1 times in all
        shapes = []

        def dv(r):
            shapes.append(np.shape(r))
            return np.expm1(r)

        model = dataclasses.replace(MODEL, dv=dv)
        u0, v0, _ = perturbed_setup()
        cfg = EvolveConfig(dt=0.05, t_end=10.0, stride=20)
        split = perturbation_split(u0, v0, model, cfg,
                                   (C_PAIR.copy(), X_PAIR.copy()), table=TABLE)
        assert shapes == [(2, len(u0))] * (cfg.n_steps + 1)
        # row 2 is the perturbation alone, as a one-field run steps it
        alone = evolve_nonlinear(v0, MODEL, cfg)
        assert len(split.free) == len(alone.fields) == 11
        for got, want in zip(split.free, alone.fields):
            assert np.array_equal(got.r, want.r) and np.array_equal(got.p, want.p)
        short = LatticeField(v0.offset, v0.r[:-1], v0.p[:-1])
        with pytest.raises(ValueError, match="share the window"):
            perturbation_split(u0, short, MODEL, cfg,
                               (C_PAIR.copy(), X_PAIR.copy()), table=TABLE)
