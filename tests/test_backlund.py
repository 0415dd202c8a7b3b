"""Tests for fpulab.backlund.

The one-soliton forward map has an independent oracle: the explicit
kernel construction written out inline in test_forward_matches_explicit
(built before the module and kept as-is).  Evolution tests compare
against closed-form parameter-derivative solutions.  Remaining frozen
numbers are measured values of this implementation with margin; decay
slopes additionally have to clear the analytic rate bounds.
"""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_trapezoid, simpson

from fpulab.kdv import (
    GridField,
    LadderPhases,
    SolitonFamily,
    TauLadder,
    exp_weighted_norm,
    phase_ladder,
    simpson_pairing,
    uniform_grid,
    _spectral_dx,
)
from fpulab.backlund import (
    Trajectory,
    backlund_residual,
    ladder_conjugate,
    ladder_level_evolve,
    linearized_forward,
    linearized_inverse,
    linearized_kdv_evolve,
    secular_projection,
    _level_modes,
    _secular_coeffs,
)

TRAIN = SolitonFamily([0.5, 1.0], [np.log(3.0), 0.0])


def field(x, vals):
    return GridField(x[0], float(x[1] - x[0]), vals)


def rel_diff(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def param_modes(family, t, x, step=1e-5):
    """Central-difference slope-profile derivatives in all 2N parameters."""
    out = []
    for i in range(family.n):
        for which in ("gamma", "k"):
            pair = []
            for s in (step, -step):
                k = list(family.k)
                g = list(family.gamma)
                if which == "gamma":
                    g[i] += s
                else:
                    k[i] += s
                pert = SolitonFamily(k, g)
                pair.append(TauLadder(pert, family.n).second_derivative(t, x))
            out.append((pair[0] - pair[1]) / (2.0 * step))
    return out


def project_against(vals, modes, dx):
    gram = np.array([[np.sum(a * b) * dx for b in modes] for a in modes])
    rhs = np.array([np.sum(vals * m) * dx for m in modes])
    coef = np.linalg.solve(gram, rhs)
    return vals - sum(c * m for c, m in zip(coef, modes))


class TestLadderPhases:
    def test_descent_cancels_for_log3_train(self):
        lad = phase_ladder(TRAIN)
        # gamma_1^1 = log 3 + log((1-1/2)/(1+1/2)) / (2 * 1/2) = 0
        assert lad.anchor(1) == pytest.approx(0.0, abs=1e-15)
        assert lad.anchor(2) == 0.0
        assert lad.crest(1, 2.0) == pytest.approx(2.0)
        assert lad.crest(2, 2.0) == pytest.approx(8.0)

    def test_level_shape_validation(self):
        with pytest.raises(ValueError):
            LadderPhases(TRAIN, (np.array([]), np.array([0.0])))
        with pytest.raises(ValueError):
            LadderPhases(TRAIN, (np.array([]), np.array([0.0, 1.0]),
                                 np.array([0.0, 0.0])))


class TestResidual:
    def test_one_soliton(self):
        lad = phase_ladder(SolitonFamily([1.0], [0.0]))
        x = np.linspace(-40.0, 40.0, 1601)
        assert backlund_residual(lad, 1, 0.0, x) < 1e-13

    @pytest.mark.parametrize("t", [0.0, 3.0])
    @pytest.mark.parametrize("m", [1, 2])
    def test_two_soliton(self, m, t):
        lad = phase_ladder(SolitonFamily([1.0, 2.0], [0.0, 0.0]))
        x = np.linspace(-40.0, 40.0, 1601)
        assert backlund_residual(lad, m, t, x) < 1e-12

    @settings(max_examples=12, deadline=None)
    @given(st.data())
    def test_random_families(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n = int(rng.integers(1, 5))
        k = np.cumsum(0.3 + rng.uniform(0.0, 0.6, n))
        fam = SolitonFamily(k, rng.uniform(-2.0, 2.0, n))
        lad = phase_ladder(fam)
        x = np.arange(-50.0, 50.0, 0.09 / k[-1])
        for m in range(1, n + 1):
            for t in (0.0, 1.0, 10.0):
                assert backlund_residual(lad, m, t, x) < 1e-8

    def test_wrong_phases_break_the_pair(self):
        fam = SolitonFamily([1.0, 2.0], [0.0, 0.0])
        bad = LadderPhases(fam, tuple(fam.gamma[:m].copy() for m in range(3)))
        x = np.linspace(-40.0, 40.0, 1601)
        assert backlund_residual(bad, 2, 0.0, x) > 0.5
        # the top soliton alone never sees the descended phases
        assert backlund_residual(bad, 1, 0.0, x) < 1e-13

    def test_coarse_grid_rejected(self):
        lad = phase_ladder(SolitonFamily([1.0, 2.0], [0.0, 0.0]))
        with pytest.raises(ValueError):
            backlund_residual(lad, 2, 0.0, np.linspace(-40.0, 40.0, 100))


class TestForward:
    def test_zero_maps_to_zero(self):
        lad = phase_ladder(SolitonFamily([1.0], [0.4]))
        x = uniform_grid(-17.6, 18.4, 0.01)
        out = linearized_forward(field(x, np.zeros_like(x)), lad, 1, 0.0)
        assert np.all(out.values == 0.0)

    def test_forward_matches_explicit(self):
        # independent construction for one soliton: integrate the kernel
        # 2 phi(x) dphi(y) / phi(y)^2 from the crest, then pick the
        # homogeneous coefficient from the speed-mode pairing
        fam = SolitonFamily([1.0], [0.4])
        lad = phase_ladder(fam)
        dx = 0.01
        x = 0.4 + dx * np.arange(round(-18 / dx), round(18 / dx))
        w0 = np.exp(-0.5 * x**2) * np.cos(x)
        phi = TauLadder(fam, 1).second_derivative(0.0, x)
        g = 2.0 * _spectral_dx(phi, dx) / phi**2 * w0
        trap = cumulative_trapezoid(g, dx=dx, initial=0.0)
        j0 = round((0.4 - x[0]) / dx)
        trap -= trap[j0]
        gp = _spectral_dx(g, dx)
        trap -= dx**2 / 12.0 * (gp - gp[j0])
        raw = -w0 - phi * trap
        _, speed = _level_modes(lad, 1, 0.0, x)
        mode = phi / phi.max()
        alpha = -simpson(raw * speed, dx=dx) / simpson(mode * speed, dx=dx)
        explicit = raw + alpha * mode

        out = linearized_forward(field(x, w0), lad, 1, 0.0)
        assert rel_diff(explicit, out.values) < 1e-8

    @pytest.mark.parametrize("m", [1, 2])
    def test_output_orthogonality(self, m):
        lad = phase_ladder(SolitonFamily([1.0, 2.0], [0.0, 0.0]))
        t = 0.3
        dx = 0.01
        xc = lad.crest(m, t)
        x = xc + dx * np.arange(round(-22 / dx), round(22 / dx))
        out = linearized_forward(
            field(x, np.exp(-0.5 * (x - xc - 1.0)**2)), lad, m, t)
        norm = np.sqrt(simpson(out.values**2, dx=dx))
        for mode in _level_modes(lad, m, t, x):
            pairing = abs(simpson(out.values * mode, dx=dx))
            pairing /= norm * np.sqrt(simpson(mode**2, dx=dx))
            assert pairing < 1e-8

    def test_crest_must_be_an_interior_grid_point(self):
        lad = phase_ladder(SolitonFamily([1.0], [0.4]))
        x = uniform_grid(-18.005, 17.995, 0.01)  # 0.4 falls between points
        with pytest.raises(ValueError, match="split point"):
            linearized_forward(field(x, np.exp(-x**2)), lad, 1, 0.0)


class TestInverse:
    @pytest.mark.parametrize("k", [(1.0, 2.0), (0.5, 1.0)])
    @pytest.mark.parametrize("m", [1, 2])
    def test_round_trip_both_orders(self, m, k):
        lad = phase_ladder(SolitonFamily(list(k), [0.0, 0.0]))
        t = 0.3
        dx = 0.02
        xc = lad.crest(m, t)
        x = xc + dx * np.arange(round(-22 / dx), round(22 / dx))
        w_prev = field(x, np.exp(-0.5 * (x - xc - 1.0)**2))
        w_m = linearized_forward(w_prev, lad, m, t)
        back = linearized_inverse(w_m, lad, m, t)
        assert rel_diff(back.values, w_prev.values) < 1e-6
        again = linearized_forward(back, lad, m, t)
        assert rel_diff(again.values, w_m.values) < 1e-6

    def test_zero_maps_to_zero(self):
        lad = phase_ladder(SolitonFamily([1.0], [0.4]))
        x = uniform_grid(-17.6, 18.4, 0.01)
        out = linearized_inverse(field(x, np.zeros_like(x)), lad, 1, 0.0)
        assert np.all(out.values == 0.0)

    @pytest.mark.parametrize("m", [1, 2])
    def test_shift_mode_input_rejected(self, m):
        lad = phase_ladder(SolitonFamily([1.0, 2.0], [0.0, 0.0]))
        dx = 0.02
        xc = lad.crest(m, 0.0)
        x = xc + dx * np.arange(round(-22 / dx), round(22 / dx))
        bad = field(x, _level_modes(lad, m, 0.0, x)[0])
        with pytest.raises(ValueError, match="tail representations"):
            linearized_inverse(bad, lad, m, 0.0)


class TestSecularProjection:
    def test_fixes_its_range(self):
        from fpulab.kdv import secular_basis
        x = uniform_grid(-45.0, 32.0, 0.02)
        basis = secular_basis(TRAIN, 0.5, x)
        v = basis.xi1[0]
        _, qv = secular_projection(v, TRAIN, 0.5, 0.4)
        assert np.max(np.abs(qv.values)) < 1e-8 * np.max(np.abs(v.values))

    def test_idempotent(self):
        x = uniform_grid(-45.0, 32.0, 0.02)
        g = field(x, np.exp(-0.5 * (x - 1.5)**2) + 0.3 * np.exp(-0.2 * (x - 4)**2))
        _, q1 = secular_projection(g, TRAIN, 0.5, 0.4)
        _, q2 = secular_projection(q1, TRAIN, 0.5, 0.4)
        assert np.max(np.abs(q2.values - q1.values)) < 1e-10 * np.max(np.abs(q1.values))

    def test_gram_block_structure(self):
        # fast-soliton columns against slow-soliton conditions vanish in
        # the continuum; the eta quadrature is O(dx^2), so check fine
        from fpulab.kdv import secular_basis
        x = uniform_grid(-45.0, 32.0, 0.0025)
        basis = secular_basis(TRAIN, 0.5, x)
        worst = 0.0
        for eta in (basis.eta1[0], basis.eta2[0]):
            for xi in (basis.xi1[1], basis.xi2[1]):
                if eta is basis.eta2[0] and xi is basis.xi2[1]:
                    continue
                worst = max(worst,
                            abs(simpson_pairing(xi.values, eta.values, xi.dx)))
        assert worst < 1e-6

    def test_gram_diagonal_pairings(self):
        from fpulab.kdv import secular_basis
        x = uniform_grid(-45.0, 32.0, 0.01)
        basis = secular_basis(TRAIN, 0.5, x)
        for i, k in enumerate(TRAIN.k):
            d = simpson_pairing(basis.xi1[i].values, basis.eta2[i].values,
                                basis.xi1[i].dx)
            assert d == pytest.approx(2 * k**2, rel=1e-3)

    def test_weight_range_validated(self):
        x = uniform_grid(-45.0, 32.0, 0.05)
        g = field(x, np.exp(-x**2))
        for a in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                secular_projection(g, TRAIN, 0.5, a)

    def test_singular_gram_rejected(self):
        class Degenerate:
            def __init__(self, f):
                self.eta1 = [f, f]
                self.eta2 = [f, f]
                self.xi1 = [f, f]
                self.xi2 = [f, f]

        x = uniform_grid(-5.0, 5.0, 0.1)
        f = field(x, np.exp(-x**2))
        with pytest.raises(ValueError, match="condition"):
            _secular_coeffs(f.values, Degenerate(f), 0.1, 2)


class TestEvolution:
    def test_secular_mode_follows_parameter_derivative(self):
        step = 1e-5
        dx = 0.04
        x = uniform_grid(-45.0, 35.0, dx)

        def gamma_mode(t):
            vals = []
            for s in (step, -step):
                fam = SolitonFamily([0.5, 1.0], [np.log(3.0) + s, 0.0])
                vals.append(TauLadder(fam, 2).second_derivative(t, x))
            return (vals[0] - vals[1]) / (2.0 * step)

        traj = linearized_kdv_evolve(field(x, gamma_mode(0.0)), TRAIN,
                                     0.0, 2.0, 0.4, 8e-4,
                                     reproject_every=0, record_every=10**9)
        assert rel_diff(traj.final.values, gamma_mode(2.0)) < 1e-7

    def test_mass_is_conserved(self):
        dx = 0.05
        x = uniform_grid(-45.0, 35.0, dx)
        g = field(x, np.exp(-x**2 / 8.0))
        traj = linearized_kdv_evolve(g, TRAIN, 0.0, 0.5, 0.4, 1e-3,
                                     reproject_every=0, record_every=10**9)
        assert abs(np.sum(traj.final.values) - np.sum(g.values)) * dx < 1e-10

    def test_linearity(self):
        dx = 0.05
        x = uniform_grid(-45.0, 35.0, dx)
        g = field(x, np.exp(-x**2 / 8.0))
        h = field(x, np.exp(-0.5 * (x - 2.0)**2) * np.sin(x))
        comb = field(x, 0.7 * g.values - 1.3 * h.values)
        run = dict(reproject_every=0, record_every=10**9)
        fg = linearized_kdv_evolve(g, TRAIN, 0.0, 0.2, 0.4, 1e-3, **run).final
        fh = linearized_kdv_evolve(h, TRAIN, 0.0, 0.2, 0.4, 1e-3, **run).final
        fc = linearized_kdv_evolve(comb, TRAIN, 0.0, 0.2, 0.4, 1e-3, **run).final
        assert np.max(np.abs(fc.values - 0.7 * fg.values + 1.3 * fh.values)) < 1e-12

    def test_flows_build_their_ladder_once(self, monkeypatch):
        builds = []
        init = TauLadder.__init__

        def counting(self, family, m):
            builds.append(m)
            init(self, family, m)

        monkeypatch.setattr(TauLadder, "__init__", counting)
        x = uniform_grid(-45.0, 35.0, 0.05)
        g = field(x, np.exp(-x**2 / 8.0))
        linearized_kdv_evolve(g, TRAIN, 0.0, 0.05, 0.4, 1e-3,
                              reproject_every=0, record_every=10**9)
        # one profile ladder for all 50 steps, plus the 4N of the secular
        # basis at each of the two records (t0 and t1)
        assert len(builds) == 1 + 2 * 4 * TRAIN.n
        builds.clear()
        ladder_level_evolve(g, phase_ladder(TRAIN), 2, 0.0, 0.05, 1e-3)
        assert builds == [2]

    def test_aliasing_alarm_fires_on_marginal_steps(self):
        x = uniform_grid(-45.0, 35.0, 0.01)
        g = field(x, np.exp(-x**2 / 8.0))
        with pytest.raises(RuntimeError, match="alias"):
            linearized_kdv_evolve(g, TRAIN, 0.0, 0.3, 0.4, 2e-3,
                                  reproject_every=0, record_every=10)

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_level_flow_divergence_raises(self):
        lad = phase_ladder(TRAIN)
        x = uniform_grid(-30.0, 30.0, 0.05)
        w = field(x, np.exp(-x**2 / 4.0))
        with pytest.raises(RuntimeError, match="diverged"):
            ladder_level_evolve(w, lad, 2, 0.0, 40.0, 0.2)

    def test_argument_validation(self):
        x = uniform_grid(-10.0, 10.0, 0.1)
        g = field(x, np.exp(-x**2))
        with pytest.raises(ValueError):
            linearized_kdv_evolve(g, TRAIN, 0.0, 0.5, 1.5, 1e-3)
        with pytest.raises(ValueError):
            linearized_kdv_evolve(g, None, 1.0, 1.0, 0.4, 1e-3)
        with pytest.raises(ValueError):
            linearized_kdv_evolve(g, None, 0.0, 1.0, 0.4, -1e-3)
        with pytest.raises(ValueError):
            linearized_kdv_evolve(g, None, 0.0, 1.0, 0.4, 1e-3,
                                  sponge=(5.0, -5.0, 1.0))

    def test_trajectory_csv_round_trip(self, tmp_path):
        x = uniform_grid(-20.0, 20.0, 0.1)
        traj = linearized_kdv_evolve(field(x, np.exp(-x**2)), None,
                                     0.0, 1.0, 0.5, 0.05, record_every=5)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "weighted_norm", "q_residual"]
        got = np.array([[float(c) for c in row[:2]] for row in rows[1:]])
        assert np.array_equal(got[:, 0], traj.t)
        assert np.array_equal(got[:, 1], traj.weighted_norm)
        assert np.all(np.diff(traj.t) > 0)


class TestWeightedDecay:
    def test_free_flow_moving_weight_decay(self):
        # weight exponent 0.5 riding at twice its square: the conjugated
        # symbol peaks at -a^3, so the log-slope must clear -0.125; the
        # static-frame control grows at nearly +a^3 instead
        a = 0.5
        x = uniform_grid(-330.0, 150.0, 0.25)
        v0 = field(x, np.exp(-x**2 / 32.0))
        tr = linearized_kdv_evolve(v0, None, 0.0, 24.0, a, 0.05,
                                   frame_speed=2.0 * a**2,
                                   measure_span=(-60.0, 60.0))
        sel = (tr.t >= 4.0) & (tr.t <= 20.0)
        slope = np.polyfit(tr.t[sel], np.log(tr.weighted_norm[sel]), 1)[0]
        assert slope <= -0.125
        assert slope > -0.17

        tr0 = linearized_kdv_evolve(v0, None, 0.0, 12.0, a, 0.05,
                                    frame_speed=0.0, measure_span=(-60.0, 60.0))
        sel = (tr0.t >= 2.0) & (tr0.t <= 10.0)
        control = np.polyfit(tr0.t[sel], np.log(tr0.weighted_norm[sel]), 1)[0]
        assert control > 0.08

    def test_projected_flow_decay_rate(self):
        # linearized flow around the 2-soliton with the secular part
        # projected out; weight frame rides the slow soliton.  The
        # outflow sponge hugs the right seam, where wrapped content
        # re-enters (group velocities are all leftward in this frame).
        a = 0.4
        dx = 0.05
        x = uniform_grid(-140.0, 40.0 - dx, dx)
        g = field(x, np.exp(-x**2 / 8.0))
        _, q0 = secular_projection(g, TRAIN, 0.0, a)
        traj = linearized_kdv_evolve(q0, TRAIN, 0.0, 5.0, a, 2e-3,
                                     frame_speed=1.0, reproject_every=100,
                                     record_every=125,
                                     measure_span=(-50.0, 25.0),
                                     sponge=(28.0, 40.0, 100.0))
        sel = traj.t >= 1.0
        rate = -np.polyfit(traj.t[sel], np.log(traj.weighted_norm[sel]), 1)[0]
        assert rate >= 0.9 * a * (1.0 - a**2)
        late = traj.t >= 4.0
        tail_rate = -np.polyfit(traj.t[late],
                                np.log(traj.weighted_norm[late]), 1)[0]
        # the envelope settles onto the spectral-bound rate a(c - a^2)
        assert 0.25 < tail_rate < 0.45


class TestIntertwining:
    @pytest.mark.parametrize("m,bound", [(1, 5e-7), (2, 5e-6)])
    def test_forward_map_commutes_with_level_flows(self, m, bound):
        lad = phase_ladder(TRAIN)
        dt = 2e-3
        x = uniform_grid(-60.0, 40.0, 0.05)
        w = field(x, np.exp(-(x - 1.0)**2 / 8.0) * np.cos(0.7 * x))
        evolved = ladder_level_evolve(w, lad, m - 1, 0.0, 1.0, dt)
        path_a = linearized_forward(evolved, lad, m, 1.0)
        mapped = linearized_forward(w, lad, m, 0.0)
        path_b = ladder_level_evolve(mapped, lad, m, 0.0, 1.0, dt)
        defect = np.sqrt(np.sum((path_a.values - path_b.values)**2)
                         / np.sum(path_b.values**2))
        assert defect < bound
        assert defect < 1e-5 + dt**2


class TestLadderConjugation:
    T = 0.4
    DX = 0.02

    def sample(self, seed):
        rng = np.random.default_rng(seed)
        x = uniform_grid(-45.0, 35.0, self.DX)
        raw = (np.exp(-(x - rng.uniform(-5, 5))**2 / (2 * rng.uniform(1.5, 3.0)**2))
               * np.cos(rng.uniform(0, 1) * x + rng.uniform(0, 6.28)))
        modes = param_modes(TRAIN, self.T, x)
        return field(x, project_against(raw, modes, self.DX))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_descend_ascend_round_trip(self, seed):
        y2 = self.sample(seed)
        down = ladder_conjugate(y2, TRAIN, self.T, 0.4, direction="down")
        up = ladder_conjugate(down.field, TRAIN, self.T, 0.4, direction="up")
        err = np.sqrt(np.sum((up.field.values - y2.values)**2)
                      / np.sum(y2.values**2))
        assert err < 5e-7
        assert down.equivalence_constant() < 10.0
        assert down.equivalence_constant() < 50.0
        assert set(down.norms) == {0, 1, 2}

    def test_one_soliton_round_trip(self):
        fam = SolitonFamily([1.0], [0.4])
        x = uniform_grid(-30.0, 30.0, self.DX)
        raw = np.exp(-(x - 1.2)**2 / 4.0) * np.cos(0.5 * x)
        y1 = field(x, project_against(raw, param_modes(fam, 0.0, x), self.DX))
        down = ladder_conjugate(y1, fam, 0.0, 0.5, direction="down")
        up = ladder_conjugate(down.field, fam, 0.0, 0.5, direction="up")
        assert rel_diff(up.field.values, y1.values) < 1e-6

    def test_zero_field(self):
        x = uniform_grid(-45.0, 35.0, self.DX)
        out = ladder_conjugate(field(x, np.zeros_like(x)), TRAIN, self.T, 0.4)
        assert np.all(out.field.values == 0.0)

    def test_unprojected_input_rejected(self):
        x = uniform_grid(-45.0, 35.0, self.DX)
        g = field(x, np.exp(-x**2 / 4.0))
        with pytest.raises(ValueError, match="orthogonality"):
            ladder_conjugate(g, TRAIN, self.T, 0.4, direction="down")

    def test_argument_validation(self):
        y2 = self.sample(0)
        with pytest.raises(ValueError):
            ladder_conjugate(y2, TRAIN, self.T, 0.4, direction="sideways")
        with pytest.raises(ValueError):
            ladder_conjugate(y2, TRAIN, self.T, 1.2)


def test_weighted_field_norm_closed_form():
    x = uniform_grid(-12.0, 12.0, 0.01)
    # integral of e^{0.6 x} e^{-2 x^2} is sqrt(pi/2) e^{0.045}
    expect = np.sqrt(np.sqrt(np.pi / 2.0) * np.exp(0.045))
    got = exp_weighted_norm(np.exp(-x**2), x, 0.01, 0.3)
    assert got == pytest.approx(expect, rel=1e-12)
    # b < 0 weights the mirror image the same way
    assert exp_weighted_norm(np.exp(-x**2), -x, 0.01, -0.3) == got


@settings(max_examples=8, deadline=None)
@given(center=st.floats(-2.0, 2.0), width=st.floats(1.0, 2.5))
def test_round_trip_property(center, width):
    lad = phase_ladder(SolitonFamily([1.0, 2.0], [0.0, 0.0]))
    dx = 0.02
    xc = lad.crest(1, 0.3)
    x = xc + dx * np.arange(round(-22 / dx), round(22 / dx))
    w = field(x, np.exp(-0.5 * ((x - xc - center) / width)**2))
    w1 = linearized_forward(w, lad, 1, 0.3)
    back = linearized_inverse(w1, lad, 1, 0.3)
    assert rel_diff(back.values, w.values) < 1e-6
