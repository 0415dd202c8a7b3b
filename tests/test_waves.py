import json
import re

import numpy as np
import pytest

from fpulab import waves
from fpulab.artifacts import read_series, write_json, write_series
from fpulab.diagnostics import weighted_norm
from fpulab.lattice import (
    LatticeField,
    PotentialModel,
    WeightSpec,
    apply_j_inverse,
    hamiltonian,
)
from fpulab.waves import (
    STEPS_PER_SITE,
    WaveProfile,
    _scalar_residual,
    energy_curve,
    eps_of_speed,
    kappa_of_speed,
    profile_derivative,
    rho_profile,
    rho_symbol,
    solve_profile,
    speed_of_eps,
    speed_of_kappa,
    toda_soliton,
)
from oracles import j_inverse_pairing, speed_derivative

TODA = PotentialModel.toda()
ALPHA = PotentialModel.alpha_fpu()


def test_speed_kappa_inversion():
    assert speed_of_kappa(1.0) == pytest.approx(1.1752011936438014, rel=1e-15)
    for k in (0.05, 0.3, 1.0, 2.5):
        assert kappa_of_speed(speed_of_kappa(k)) == pytest.approx(k, rel=1e-12)
    with pytest.raises(ValueError):
        kappa_of_speed(0.99)


def test_kappa_of_speed_solves_a_speed_once(monkeypatch):
    # count the Newton iterations through the sinh of each
    sinh_args = []
    sinh = np.sinh
    monkeypatch.setattr(waves.np, "sinh",
                        lambda k: sinh_args.append(k) or sinh(k))
    c = 1.0 + 1.0 / 7919.0  # a speed no other test asks for
    kappa = kappa_of_speed(c)
    iterations = len(sinh_args)
    assert iterations > 1
    for again in (c, np.float64(c), np.array(c)):
        assert kappa_of_speed(again) == kappa
    assert len(sinh_args) == iterations
    # bit for bit the solve a fresh memo gives
    waves._kappa_newton.cache_clear()
    assert kappa_of_speed(c) == kappa
    assert len(sinh_args) == 2 * iterations


def test_kdv_scale_pair():
    # the pair is one map and its inverse, and near the sonic limit the
    # Toda kappa of the speed is eps
    for eps in (0.05, 0.2, 1.0):
        assert eps_of_speed(speed_of_eps(eps)) == pytest.approx(eps, rel=1e-12)
    for eps in (0.1, 0.05, 0.025):
        kappa = kappa_of_speed(speed_of_eps(eps))
        assert abs(kappa / eps - 1.0) < eps**2 / 20.0  # kappa = eps (1 - eps^2/40 + ...)


def test_toda_closed_form_is_a_traveling_wave():
    prof = toda_soliton(0.3)
    c = prof.c
    pts = np.linspace(-20, 20, 2001) + 0.123
    here, ahead, behind = (prof.exact(y) for y in (pts, pts + 1, pts - 1))
    res_r = -c * here.dr() - (ahead.p() - here.p())
    res_p = -c * here.dp() - (TODA.dv(here.r()) - TODA.dv(behind.r()))
    assert np.max(np.abs(res_r)) < 1e-14
    assert np.max(np.abs(res_p)) < 1e-14


@pytest.mark.parametrize("kappa", [0.2, 0.3, 0.5])
@pytest.mark.parametrize("offset", [0.0, 0.25, 0.8])
def test_toda_conserved_sums(kappa, offset):
    prof = toda_soliton(kappa)
    fld = prof.lattice_field(position=offset)
    # the sampled energy is offset-independent and matches the closed form
    assert hamiltonian(fld, TODA) == pytest.approx(
        np.sinh(2 * kappa) - 2 * kappa, abs=1e-12
    )
    assert np.sum(fld.r) == pytest.approx(2 * kappa, abs=1e-10)
    assert np.sum(fld.p) == pytest.approx(-2 * kappa * prof.c, abs=1e-10)


def test_toda_closed_forms_stay_finite_and_match_the_cosh_forms():
    kappa = 0.45
    prof = toda_soliton(kappa)
    s2 = np.sinh(kappa) ** 2
    y = prof.x
    ch = np.cosh(2.0 * kappa * y)
    cosh_forms = (
        np.log1p(2.0 * s2 / (ch + 1.0)),
        -np.sinh(kappa) * (np.tanh(kappa * y) - np.tanh(kappa * (y - 1.0))),
        -4.0 * kappa * s2 * np.sinh(2.0 * kappa * y)
        / ((ch + 1.0) * (ch + np.cosh(2.0 * kappa))),
        -kappa * np.sinh(kappa)
        * (np.cosh(kappa * y) ** -2 - np.cosh(kappa * (y - 1.0)) ** -2),
    )
    far = np.array([-1e4, 1e4])
    for name, want in zip(("r", "p", "dr", "dp"), cosh_forms):
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            assert np.all(np.isfinite(getattr(prof.exact(far), name)()))
        got = getattr(prof.exact(y), name)()
        assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))


def test_custom_potential_without_second_derivative():
    custom = PotentialModel.custom(
        lambda r: 0.5 * r**2 + r**3 / 6.0, lambda r: r + 0.5 * r**2
    )
    c = 1 + 0.04 / 6
    prof = solve_profile(custom, c)
    got = profile_derivative(prof, custom)
    want = profile_derivative(solve_profile(ALPHA, c), ALPHA)
    assert np.max(np.abs(got.r - want.r)) < 1e-6
    assert np.max(np.abs(got.p - want.p)) < 1e-6
    r = prof.lattice_field().r
    assert np.max(np.abs(custom.d2v(r) - ALPHA.d2v(r))) < 1e-8


def test_toda_unit_kappa_energy():
    prof = toda_soliton(1.0)
    assert prof.c == pytest.approx(1.175201, abs=1e-6)
    assert hamiltonian(prof.lattice_field(), TODA) == pytest.approx(
        1.6268604078470186, abs=1e-6
    )


def test_toda_profile_shape():
    prof = toda_soliton(0.4)
    assert np.all(prof.r >= 0)
    assert np.argmax(prof.r) == prof.x.size // 2  # crest at x = 0
    assert np.max(np.abs(prof.r - prof.r[::-1].take(range(-1, prof.x.size - 1)))) < 1e-14
    with pytest.raises(ValueError):
        toda_soliton(-0.1)


def test_solve_profile_matches_toda():
    c = speed_of_kappa(0.3)
    sol = solve_profile(TODA, c)
    exact = toda_soliton(0.3, span=sol.span)
    assert np.max(np.abs(sol.r - exact.r_at(sol.x))) < 1e-8
    assert np.max(np.abs(sol.p - exact.p_at(sol.x))) < 1e-8
    assert sol.residual < 1e-12
    assert sol.iterations <= 500


@pytest.mark.parametrize("eps", [0.2, 0.1])
def test_solve_profile_kdv_amplitude(eps):
    sol = solve_profile(ALPHA, speed_of_eps(eps))
    peak = sol.r_at(np.array([0.0]))[0] / eps**2
    assert 0.9 < peak < 1.1
    # the deviation from the sech^2 amplitude shrinks like eps^2
    half = solve_profile(ALPHA, speed_of_eps(eps / 2))
    peak_half = half.r_at(np.array([0.0]))[0] / (eps / 2) ** 2
    assert abs(peak_half - 1) < 0.5 * abs(peak - 1)


def test_solve_profile_default_seed_on_a_wide_span():
    # eps x passes 355 on the wide grid, where the seed's cosh squared
    # overflows; the profile matches the one on the default span
    model = PotentialModel.alpha_fpu()
    wide = solve_profile(model, 1.3, span=300)
    narrow = solve_profile(model, 1.3)
    assert wide.span > narrow.span
    sites = np.arange(-20.0, 21.0)
    assert np.max(np.abs(wide.r_at(sites) - narrow.r_at(sites))) < 1e-12


def test_a_sub_site_span_builds_the_one_site_grid():
    # a span of at most half a site rounds up to the 32-point grid on
    # [-1, 1) that span=0.6 builds, as every other span rounds up; so
    # does toda_soliton's default span once kappa > 22
    for build in (lambda span: solve_profile(ALPHA, 1.05, span=span),
                  lambda span: toda_soliton(0.3, span=span)):
        want = build(0.6)
        assert want.x.size == 2 * STEPS_PER_SITE and want.span == 1
        got = build(0.4)
        assert np.array_equal(got.x, want.x)
        assert np.array_equal(got.r, want.r) and np.array_equal(got.p, want.p)
    assert np.array_equal(toda_soliton(23.0).x, want.x)


def test_solve_profile_residual_history():
    sol = solve_profile(ALPHA, 1 + 0.04 / 6)
    hist = sol.residual_history
    assert hist[-1] < 1e-12
    assert all(hist[i + 1] <= hist[i] for i in range(5, len(hist) - 1))
    # evenness after centering
    flipped = np.roll(sol.r[::-1], 1)
    assert np.max(np.abs(sol.r - flipped)) < 1e-10


def test_solve_profile_errors():
    with pytest.raises(ValueError):
        solve_profile(ALPHA, 0.9)
    with pytest.raises(RuntimeError, match="Petviashvili"):
        solve_profile(ALPHA, 1.01, max_iter=3)
    lying = PotentialModel(
        "bad",
        ALPHA.v,
        ALPHA.dv,
        lambda r: -np.ones_like(np.asarray(r, dtype=float)),
    )
    with pytest.raises(ValueError, match="convexity"):
        solve_profile(lying, 1.01)


def test_solve_profile_stall_names_its_iteration():
    # at c = 2 the residual levels off near 1e-11, above the default tol
    with pytest.raises(RuntimeError, match="stall") as err:
        solve_profile(ALPHA, 2.0, max_iter=500)
    stalled_at = int(re.search(r"iteration (\d+)", str(err.value)).group(1))
    assert 30 <= stalled_at < 500


def test_solve_profile_counts_every_iteration(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(1)
        return _scalar_residual(*args)

    monkeypatch.setattr(waves, "_scalar_residual", counted)
    sol = solve_profile(ALPHA, 1.02)
    assert sol.iterations == len(calls) == 37


def test_profile_sampling_and_tails():
    sol = solve_profile(ALPHA, 1 + 0.04 / 6)
    fld = sol.lattice_field(offset=-5, length=11, position=0.5)
    assert fld.offset == -5
    assert len(fld) == 11
    assert fld.r[5] == pytest.approx(sol.r_at(np.array([-0.5]))[0])
    # outside the solved window the profile is extended by zero
    assert sol.r_at(np.array([sol.span + 10.0]))[0] == 0.0


def test_derivative_x_identity():
    for prof, model in ((toda_soliton(0.3), TODA), (solve_profile(ALPHA, 1 + 0.04 / 6), ALPHA)):
        ddx = profile_derivative(prof, model)
        assert ddx.residual < 1e-6
    # corrupting the speed breaks the traveling-wave identity
    prof = toda_soliton(0.3)
    broken = WaveProfile(
        model_name="toda",
        c=prof.c + 0.1,
        x=prof.x,
        r=prof.r,
        p=prof.p,
    )
    with pytest.raises(RuntimeError, match="identity") as alarm:
        profile_derivative(broken, TODA)
    assert f"(model toda, c={broken.c:g})" in str(alarm.value)


@pytest.mark.parametrize(
    "make,model",
    [(lambda: toda_soliton(0.3), TODA), (lambda: solve_profile(ALPHA, 1 + 0.04 / 6), ALPHA)],
)
def test_secular_pairings(make, model):
    prof = make()
    ddx = profile_derivative(prof, model).lattice_field()
    ddc = speed_derivative(prof, model).lattice_field()
    self_pair = j_inverse_pairing(ddx, ddx)
    assert abs(self_pair) < 1e-8 * ddx.norm() ** 2
    cross = prof.c * j_inverse_pairing(ddx, ddc)
    assert cross > 0
    # cross pairing equals dH/dc computed from re-solved energies
    h_c = 1e-4 * (prof.c - 1)
    if prof.model_name == "toda":
        energies = [
            np.sinh(2 * kappa_of_speed(c)) - 2 * kappa_of_speed(c)
            for c in (prof.c + h_c, prof.c - h_c)
        ]
    else:
        energies = [
            solve_profile(model, c, seed=prof.r, span=prof.span).energy(model)
            for c in (prof.c + h_c, prof.c - h_c)
        ]
    dhdc = (energies[0] - energies[1]) / (2 * h_c)
    assert cross == pytest.approx(dhdc, rel=1e-6)


@pytest.mark.parametrize("c", [1.005, 1.02, 1.05, 1.2])
def test_toda_speed_derivative_matches_resolved_solitons(c):
    # the oracle is the central difference of toda_solitons re-solved at
    # c +- h_c on the same window, h_c = 1e-4 (c - 1); measured 9.6e-10
    # relative at most (its truncation and rounding error)
    prof = toda_soliton(kappa_of_speed(c))
    ddc = speed_derivative(prof, TODA)
    assert ddc.method == "ddc" and np.array_equal(ddc.x, prof.x)
    h_c = 1e-4 * (c - 1.0)
    plus, minus = (toda_soliton(kappa_of_speed(ci), span=prof.span)
                   for ci in (c + h_c, c - h_c))
    for got, hi, lo in ((ddc.r, plus.r, minus.r), (ddc.p, plus.p, minus.p)):
        fd = (hi - lo) / (2.0 * h_c)
        assert np.max(np.abs(got - fd)) < 1e-8 * np.max(np.abs(got))


def test_rho_profile_quadratic_potential_vanishes():
    quad = PotentialModel(
        "quad",
        lambda r: 0.5 * r**2,
        lambda r: np.asarray(r, dtype=float),
        lambda r: np.ones_like(np.asarray(r, dtype=float)),
    )
    prof = toda_soliton(0.3)
    rho = rho_profile(prof, quad)
    assert np.max(np.abs(rho.r)) == 0.0
    assert np.max(np.abs(rho.p)) == 0.0


def test_rho_profile_scaling():
    ratios = []
    for eps in (0.2, 0.1, 0.05):
        prof = solve_profile(ALPHA, speed_of_eps(eps))
        rho = rho_profile(prof, ALPHA)
        ratios.append(rho.lattice_field().norm() / eps**1.5)
    ratios = np.array(ratios)
    assert np.all(ratios < 2.0)
    assert np.max(ratios) / np.min(ratios) < 1.10


def test_rho_symbol_bound():
    # sup of eps^2 |m| along the shifted line approaches 4 from below
    sups = []
    for eps in (0.05, 0.1, 0.2):
        c = speed_of_eps(eps)
        xi = np.linspace(-16 * np.pi, 16 * np.pi, 20001)
        sups.append(eps**2 * np.max(np.abs(rho_symbol(c, xi + 1j * eps))))
    assert all(3.9 < s <= 4.05 for s in sups)
    assert rho_symbol(1.2, np.array([0.0]))[0] == pytest.approx(1 / (1.2**2 - 1))


def test_adjoint_direction_comparison():
    # J^{-1} dx u_c is close to the KdV profile times (-1, 1), in a norm
    # weighted against growth to the right; the deviation scales as eps^2.5
    ratios = []
    for eps in (0.2, 0.1, 0.05):
        prof = solve_profile(ALPHA, speed_of_eps(eps))
        idx = np.arange(0, prof.x.size, STEPS_PER_SITE)  # the integer sites
        ddx = profile_derivative(prof, ALPHA)
        ji = apply_j_inverse(LatticeField(-prof.span, ddx.r[idx], ddx.p[idx]))
        phi = eps**2 / np.cosh(eps * ji.sites) ** 2
        dev = LatticeField(ji.offset, ji.r + phi, ji.p - phi)
        ratios.append(weighted_norm(dev, WeightSpec(-eps / 2.0)) / eps**2.5)
    ratios = np.array(ratios)
    assert np.all(ratios < 0.8)
    assert np.max(ratios) / np.min(ratios) < 1.35


def test_energy_curve_toda():
    ks = np.linspace(0.15, 0.45, 7)
    curve = energy_curve(TODA, np.sinh(ks) / ks)
    assert np.max(np.abs(curve.energy - (np.sinh(2 * ks) - 2 * ks))) < 1e-6
    assert np.all(curve.theta1 > 0)
    with pytest.raises(ValueError):
        energy_curve(TODA, [1.01, 1.02])


def test_energy_curve_kdv_limit():
    vals = []
    for eps in (0.2, 0.1, 0.05):
        c = speed_of_eps(eps)
        d = 1e-3 * (c - 1)
        curve = energy_curve(ALPHA, [c - d, c, c + d])
        vals.append(curve.theta1[1] / (c * eps))
    assert abs(vals[-1] - 12) / 12 < 0.05
    dist = np.abs(np.array(vals) - 12)
    assert dist[2] < dist[1] < dist[0]


def test_profile_export(tmp_path):
    prof = toda_soliton(0.25)
    csv = tmp_path / "prof.csv"
    meta = tmp_path / "prof.json"
    write_series(csv, {"x": prof.x, "r": prof.r, "p": prof.p})
    write_json(meta, prof.as_dict())
    assert csv.read_text().startswith("x,r,p\n")
    back = read_series(csv)
    for name in ("x", "r", "p"):
        assert np.array_equal(back[name], getattr(prof, name))
    head = json.loads(meta.read_text())
    assert head["model"] == "toda"
    assert head["c"] == pytest.approx(prof.c)
    assert head["eps"] == pytest.approx(np.sqrt(6 * (prof.c - 1)))
    assert head["steps_per_site"] == STEPS_PER_SITE
    assert np.all(np.diff(prof.x) == 1.0 / STEPS_PER_SITE)


def test_energy_curve_export(tmp_path):
    ks = np.linspace(0.15, 0.45, 5)
    curve = energy_curve(TODA, np.sinh(ks) / ks)
    path = tmp_path / "curve.csv"
    write_series(path, {"c": curve.c, "energy": curve.energy,
                        "theta1": curve.theta1})
    assert path.read_text().startswith("c,energy,theta1\n")
    back = read_series(path)
    for name in ("c", "energy", "theta1"):
        assert np.array_equal(back[name], getattr(curve, name))
