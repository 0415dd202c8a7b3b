"""Tests for fpulab.backlund.

The one-soliton forward map has an independent oracle: the explicit
kernel construction written out inline in test_forward_matches_explicit
(built before the module and kept as-is).  Evolution tests compare
against closed-form parameter-derivative solutions.  Remaining frozen
numbers are measured values of this implementation with margin; decay
slopes additionally have to clear the analytic rate bounds.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_trapezoid, simpson

from fpulab import backlund, kdv
from fpulab.artifacts import read_series, write_series
from fpulab.kdv import (
    FRAME_REACH,
    GridField,
    LadderPhases,
    SolitonFamily,
    TauLadder,
    exp_weighted_norm,
    phase_ladder,
    secular_basis,
    simpson_pairing,
    uniform_grid,
    _spectral_dx,
)
from fpulab.backlund import (
    backlund_residual,
    ladder_conjugate,
    ladder_level_evolve,
    linearized_forward,
    linearized_inverse,
    linearized_kdv_evolve,
    secular_projection,
    _level_modes,
    _secular_coeffs,
    _trapezoid_sweep,
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

    def test_maps_build_each_level_once(self, monkeypatch):
        builds = []
        init = TauLadder.__init__

        def counting(self, family, m):
            builds.append(m)
            init(self, family, m)

        lad = phase_ladder(SolitonFamily([1.0, 2.0], [0.0, 0.0]))
        t, dx = 0.3, 0.01
        xc = lad.crest(2, t)
        x = xc + dx * np.arange(round(-22 / dx), round(22 / dx))
        monkeypatch.setattr(TauLadder, "__init__", counting)
        up = linearized_forward(field(x, np.exp(-0.5 * (x - xc - 1.0)**2)),
                                lad, 2, t)
        # levels 1 and 2 once each; the shift and speed modes come from
        # the level-2 ladder already built
        assert builds == [1, 2]
        builds.clear()
        # the ladder keeps its levels: the inverse map builds none again
        linearized_inverse(up, lad, 2, t)
        assert builds == []

    def test_level_modes_build_no_ladder(self, monkeypatch):
        builds = []
        init = TauLadder.__init__

        def counting(self, family, m):
            builds.append(m)
            init(self, family, m)

        lad = phase_ladder(SolitonFamily([0.5, 1.0, 1.5], [0.3, 0.0, -0.2]))
        for m in (1, 2, 3):
            lad.tau(m)
        monkeypatch.setattr(TauLadder, "__init__", counting)
        x = uniform_grid(-30.0, 30.0, 0.05)
        for m in (1, 2, 3):
            shift, speed = _level_modes(lad, m, 0.4, x)
            assert shift.shape == speed.shape == x.shape
        assert builds == []

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


def loop_sweep(out, u, lp, dx, indices, power, sign):
    """The trapezoid recurrence one grid point at a time (the reference)."""
    h = sign * 0.5 * dx
    for a, b in zip(indices[:-1], indices[1:]):
        f = np.exp(power * (lp[b] - lp[a]))
        out[b] = f * out[a] + h * (f * u[a] + u[b])


class TestTrapezoidSweep:
    @pytest.mark.parametrize("length", [1, 2, 4001])
    @pytest.mark.parametrize("ascending", [True, False])
    @pytest.mark.parametrize("slope", [-0.3, 0.3])
    def test_matches_the_pointwise_recurrence(self, length, ascending, slope):
        # along the sweep the kernel contracts for one sign of the slope
        # and grows (to e^{+-24} over 4001 points) for the other
        rng = np.random.default_rng(length)
        n = length + 10
        dx = 0.01
        x = dx * np.arange(n)
        lp = slope * x + 0.5 * np.sin(x)
        u = rng.standard_normal(n)
        start = 5 if ascending else 5 + length - 1
        indices = range(start, start + length) if ascending \
            else range(start, start - length, -1)
        sign = 1.0 if ascending else -1.0
        init = rng.standard_normal(n)
        want = init.copy()
        loop_sweep(want, u, lp, dx, indices, 2.0, sign)
        got = init.copy()
        _trapezoid_sweep(got, u, lp, dx, indices, 2.0, sign)
        # the same recurrence on |u| bounds the size of every partial sum
        scale = np.abs(init)
        loop_sweep(scale, np.abs(u), lp, dx, indices, 2.0, 1.0)
        assert np.all(np.abs(got - want) <= 1e-13 * scale)
        assert got[indices[0]] == init[indices[0]]
        outside = np.ones(n, bool)
        outside[list(indices)] = False
        assert np.array_equal(got[outside], init[outside])


class TestInverse:
    def test_wide_window_round_trip(self):
        # tails of 380 decay lengths: a sweep past the crest would grow
        # the kernel by e^{2 * 380} and overflow
        lad = phase_ladder(SolitonFamily([1.0], [0.0]))
        dx = 0.05
        xc = lad.crest(1, 0.0)
        x = xc + dx * np.arange(round(-380 / dx), round(380 / dx) + 1)
        w_prev = field(x, np.exp(-0.5 * (x - xc - 1.0)**2))
        w_m = linearized_forward(w_prev, lad, 1, 0.0)
        back = linearized_inverse(w_m, lad, 1, 0.0)
        assert rel_diff(back.values, w_prev.values) < 1e-5  # measured 2.2e-6

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
        x = uniform_grid(-45.0, 32.0, 0.02)
        xi, _ = secular_basis(TRAIN, 0.5, x)
        v = field(x, xi[0])
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
        # the continuum; the eta quadrature is O(dx^2), so check fine.
        # Rows: gamma_1, gamma_2, k_1, k_2
        x = uniform_grid(-45.0, 32.0, 0.0025)
        xi, eta = secular_basis(TRAIN, 0.5, x)
        worst = 0.0
        for a in (0, 2):
            for b in (1, 3):
                if (a, b) == (2, 3):
                    continue
                worst = max(worst, abs(simpson_pairing(xi[b], eta[a], 0.0025)))
        assert worst < 1e-6

    def test_gram_diagonal_pairings(self):
        x = uniform_grid(-45.0, 32.0, 0.01)
        xi, eta = secular_basis(TRAIN, 0.5, x)
        for i, k in enumerate(TRAIN.k):
            d = simpson_pairing(xi[i], eta[TRAIN.n + i], 0.01)
            assert d == pytest.approx(2 * k**2, rel=1e-3)

    def test_weight_range_validated(self):
        x = uniform_grid(-45.0, 32.0, 0.05)
        g = field(x, np.exp(-x**2))
        for a in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                secular_projection(g, TRAIN, 0.5, a)

    def test_singular_gram_rejected(self):
        x = uniform_grid(-5.0, 5.0, 0.1)
        f = np.exp(-x**2)
        degenerate = np.array([f] * 4)
        with pytest.raises(ValueError, match="condition") as alarm:
            _secular_coeffs(f, degenerate, degenerate, 0.1)
        found = re.search(r"condition number (\S+) exceeds 1e\+12", str(alarm.value))
        assert float(found.group(1)) > 1e12


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
        # one profile ladder for all 50 steps, plus one for the secular
        # basis at each of the two records (t0 and t1)
        assert builds == [TRAIN.n] * 3
        builds.clear()
        ladder_level_evolve(g, phase_ladder(TRAIN), 2, 0.0, 0.05, 1e-3)
        assert builds == [2]

    def test_secular_basis_once_per_distinct_time(self, monkeypatch):
        x = uniform_grid(-45.0, 35.0, 0.05)
        _, q0 = secular_projection(field(x, np.exp(-x**2 / 8.0)), TRAIN,
                                   0.0, 0.4)
        times = []
        basis = backlund.secular_basis

        def counting(family, t, x):
            times.append(t)
            return basis(family, t, x)

        monkeypatch.setattr(backlund, "secular_basis", counting)
        dt, n = 2e-3, 40
        traj = linearized_kdv_evolve(q0, TRAIN, 0.0, n * dt, 0.4, dt,
                                     frame_speed=1.0, reproject_every=5,
                                     record_every=10)
        # records at steps 0, 10, ..., 40, reprojections at 5, 10, ..., 40
        steps = sorted(set(range(0, n + 1, 10)) | set(range(5, n + 1, 5)))
        assert times == [s * dt for s in steps]
        # q0 is projected, so t0 reads roundoff; every later record
        # coincides with a reprojection and reports the drift that
        # projection removed, not the roundoff it leaves
        assert traj.t.tolist() == [s * dt for s in range(0, n + 1, 10)]
        assert traj.q_residual[0] < 1e-12
        assert np.all(traj.q_residual[1:] > 1e-12)

    def test_flows_evaluate_the_potential_once_per_stage_time(self, monkeypatch):
        times = []
        frame = TauLadder.frame_profile

        def counting(self, x, speed, t0):
            phi = frame(self, x, speed, t0)

            def counted(tau):
                times.append(tau)
                return phi(tau)

            return counted

        monkeypatch.setattr(TauLadder, "frame_profile", counting)
        x = uniform_grid(-45.0, 35.0, 0.05)
        g = field(x, np.exp(-x**2 / 8.0))
        lad = phase_ladder(TRAIN)
        # t0, then t + dt/2 (k2 and k3) and t + dt (k4 and the next k1)
        # per step
        dt, n = 2.0**-10, 50
        want = [k * dt / 2.0 for k in range(2 * n + 1)]
        linearized_kdv_evolve(g, TRAIN, 0.0, n * dt, 0.4, dt,
                              reproject_every=25, record_every=10**9)
        assert times == want
        times.clear()
        ladder_level_evolve(g, lad, 2, 0.0, n * dt, dt)
        assert times == want
        # with dt = 2e-3, (t0 + s dt) + dt and t0 + (s + 1) dt round apart
        # on 22 of these 500 steps; the k4 time of a step must still be the
        # next step's k1 time
        dt, n = 2e-3, 500
        for evolve in (
                lambda: linearized_kdv_evolve(g, TRAIN, 0.0, n * dt, 0.4, dt,
                                              reproject_every=0,
                                              record_every=10**9),
                lambda: ladder_level_evolve(g, lad, 2, 0.0, n * dt, dt)):
            times.clear()
            evolve()
            assert len(times) == len(set(times)) == 2 * n + 1

    def test_flow_builds_one_subset_table_per_anchor(self, monkeypatch):
        tables, bases = [], []
        phases = TauLadder._phases
        basis = backlund.secular_basis

        def counting_phases(self, t, x):
            # one call per subset table build, however many slabs it fills
            tables.append(t)
            return phases(self, t, x)

        def counting_basis(family, t, x):
            bases.append(t)
            return basis(family, t, x)

        monkeypatch.setattr(TauLadder, "_phases", counting_phases)
        monkeypatch.setattr(backlund, "secular_basis", counting_basis)
        # slabs of 256 points: each basis table spans 7 of them
        monkeypatch.setattr(kdv, "_SLAB", 2**2 * 256)
        x = uniform_grid(-45.0, 35.0, 0.05)
        g = field(x, np.exp(-x**2 / 8.0))
        dt, n = 2e-3, 500
        # in the frame at speed 1 the subset exponents of TRAIN drift at
        # rates up to 6, so the whole run stays within one anchor's reach
        assert 6.0 * n * dt < FRAME_REACH
        linearized_kdv_evolve(g, TRAIN, 0.0, n * dt, 0.4, dt,
                              frame_speed=1.0, reproject_every=100,
                              record_every=250)
        # bases for the records at steps 0 and 250 and the reprojections
        # at 100, ..., 500 (the record at 500 reuses the last of them)
        assert len(bases) == 7
        assert len(tables) == 1 + len(bases)

    def test_level_flow_rejects_an_unresolved_grid(self):
        x = uniform_grid(-30.0, 30.0, 0.25)
        g = field(x, np.exp(-x**2 / 8.0))
        with pytest.raises(ValueError, match="grid too coarse"):
            ladder_level_evolve(g, phase_ladder(TRAIN), 2, 0.0, 0.1, 1e-3)

    def test_aliasing_alarm_fires_on_marginal_steps(self):
        x = uniform_grid(-45.0, 35.0, 0.01)
        g = field(x, np.exp(-x**2 / 8.0))
        with pytest.raises(RuntimeError, match="alias") as alarm:
            linearized_kdv_evolve(g, TRAIN, 0.0, 0.3, 0.4, 2e-3,
                                  reproject_every=0, record_every=10)
        # records fall every 10 dt = 0.02; the one at t = 0.1 is the first
        # above the 1e-6 threshold (6.9e-5 measured)
        assert "aliasing alarm at t=0.1:" in str(alarm.value)

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_nan_alarm_names_the_time(self):
        # dt = 0.2 is far past the step the potential term allows; with no
        # record between t0 and t1 = 40 the field first shows NaN at t1
        x = uniform_grid(-45.0, 35.0, 0.05)
        g = field(x, np.exp(-x**2 / 8.0))
        with pytest.raises(RuntimeError, match="diverged") as alarm:
            linearized_kdv_evolve(g, TRAIN, 0.0, 40.0, 0.4, 0.2,
                                  reproject_every=0, record_every=1000)
        assert str(alarm.value).endswith("at t=40")

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
        write_series(path, {"t": traj.t, "weighted_norm": traj.weighted_norm,
                            "q_residual": traj.q_residual})
        text = path.read_text()
        assert text.startswith("t,weighted_norm,q_residual\n")
        assert "\r" not in text
        back = read_series(path)
        assert np.array_equal(back["t"], traj.t)
        assert np.array_equal(back["weighted_norm"], traj.weighted_norm)
        assert np.array_equal(back["q_residual"], traj.q_residual,
                              equal_nan=True)
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

    def test_walk_builds_each_level_once(self, monkeypatch):
        y2 = self.sample(0)
        builds = []
        init = TauLadder.__init__

        def counting(self, family, m):
            builds.append(m)
            init(self, family, m)

        monkeypatch.setattr(TauLadder, "__init__", counting)
        ladder_conjugate(y2, TRAIN, self.T, 0.4, direction="down")
        # level 2 for its modes, then level 1 for the inverse map; the
        # level-1 modes reuse it
        assert builds == [2, 1]

    def test_walk_builds_one_subset_table_per_level(self, monkeypatch):
        # a 4-soliton family whose level anchors sit on the grid, and a
        # bump projected against its exact parameter modes
        k = np.linspace(0.5, 1.0, 4)
        anchors = np.array([-11.0, -7.0, -3.0, 1.0])
        gamma = np.array([
            anchors[i] - sum(np.log((k[j] - k[i]) / (k[j] + k[i])) / (2.0 * k[i])
                             for j in range(i + 1, 4))
            for i in range(4)])
        fam = SolitonFamily(k, gamma)
        x = uniform_grid(-45.0, 35.0, self.DX)
        modes = TauLadder(fam, 4).parameter_gradients(0.0, x)
        raw = np.exp(-(x + 4.0)**2 / 8.0) * np.cos(0.6 * x)
        y4 = field(x, project_against(raw, list(modes), self.DX))
        tables = []
        phases = TauLadder._phases

        def counting(self, t, x):
            # one call per subset table build, however many slabs it fills
            tables.append(self.m)
            return phases(self, t, x)

        monkeypatch.setattr(TauLadder, "_phases", counting)
        # slabs of 2^12 entries: a level-m table on 4001 points spans
        # ceil(4001 / 2^(12 - m)) of them, 16 at m = 4
        monkeypatch.setattr(kdv, "_SLAB", 2**12)
        down = ladder_conjugate(y4, fam, 0.0, 0.4, direction="down")
        ladder_conjugate(down.field, fam, 0.0, 0.4, direction="up")
        # each walk evaluates every level at one (t, x): one table apiece
        assert tables == [4, 3, 2, 1, 1, 2, 3, 4]

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
