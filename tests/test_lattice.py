import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpulab.diagnostics import weighted_norm
from fpulab.lattice import (
    LatticeField,
    PotentialModel,
    WeightKind,
    WeightSpec,
    apply_j,
    apply_j_inverse,
    hamiltonian,
    hamiltonian_density,
)
from oracles import j_inverse_pairing

MODELS = {"alpha_fpu": PotentialModel.alpha_fpu, "toda": PotentialModel.toda}


def random_field(rng, length=64, offset=-7, pad=3):
    """Random field vanishing on `pad` sites at each edge."""
    r = rng.standard_normal(length)
    p = rng.standard_normal(length)
    r[:pad] = r[-pad:] = 0.0
    p[:pad] = p[-pad:] = 0.0
    return LatticeField(offset, r, p)


# frozen by hand from the closed forms
POTENTIAL_VALUES = {
    ("alpha_fpu", 0.1, 0): 0.005166666666666667,
    ("alpha_fpu", 0.1, 1): 0.10500000000000001,
    ("alpha_fpu", 0.1, 2): 1.1,
    ("toda", 0.5, 0): 0.1487212707001282,
    ("toda", -1.0, 1): -0.6321205588285577,
    ("toda", 0.0, 2): 1.0,
}


@pytest.mark.parametrize("name,r,order", sorted(POTENTIAL_VALUES, key=str))
def test_potential_eval_frozen(name, r, order):
    model = MODELS[name]()
    expected = POTENTIAL_VALUES[(name, r, order)]
    value = (model.v, model.dv, model.d2v)[order](r)
    assert value == pytest.approx(expected, rel=1e-14)


def test_potential_eval_vectorized():
    model = PotentialModel.alpha_fpu()
    r = np.array([-0.2, 0.0, 0.3])
    assert np.allclose(model.dv(r), r + 0.5 * r**2)


@pytest.mark.parametrize("name", ["alpha_fpu", "toda"])
def test_builtin_normalization(name):
    checks = MODELS[name]().check_normalization()
    assert max(checks.values()) < 1e-8


def test_custom_potential_checked():
    # correct local data, extra quartic tail: passes
    PotentialModel.custom(
        lambda r: 0.5 * r**2 + r**3 / 6.0 + r**4 / 24.0,
        lambda r: r + 0.5 * r**2 + r**3 / 6.0,
    )
    # harmonic potential has no cubic term: rejected
    with pytest.raises(ValueError, match="normalization"):
        PotentialModel.custom(lambda r: 0.5 * r**2, lambda r: r)


def test_custom_d2v_fallback():
    model = PotentialModel.custom(lambda r: np.expm1(r) - r, lambda r: np.expm1(r))
    assert model.d2v(0.3) == pytest.approx(np.exp(0.3), abs=1e-9)


def test_hamiltonian_single_site():
    u = LatticeField(0, np.array([0.1]), np.array([0.1]))
    model = PotentialModel.alpha_fpu()
    assert hamiltonian(u, model) == pytest.approx(0.010166666666666666, rel=1e-15)
    dens = hamiltonian_density(u, model)
    assert dens.shape == (1,)
    assert dens.sum() == pytest.approx(hamiltonian(u, model))


@pytest.mark.parametrize("name", ["toda", "alpha_fpu", "custom"])
def test_d2v_is_the_derivative_of_dv(name):
    # against a fourth-order central difference of V' at step 1e-3;
    # measured 8.5e-13 (Toda), 5.1e-13 (alpha-FPU) and 5.7e-10 (custom,
    # whose V'' is itself a central difference at step 1e-6)
    model = {**MODELS, "custom": lambda: PotentialModel.custom(
        lambda r: 0.5 * r**2 + r**3 / 6.0 + r**4 / 24.0,
        lambda r: r + 0.5 * r**2 + r**3 / 6.0)}[name]()
    r = np.random.default_rng(11).uniform(-1.5, 1.5, 64)
    h = 1e-3
    fd = (8.0 * (model.dv(r + h) - model.dv(r - h))
          - (model.dv(r + 2 * h) - model.dv(r - 2 * h))) / (12.0 * h)
    assert np.max(np.abs(model.d2v(r) - fd)) < 1e-8


def test_field_window_and_boundary_mass():
    u = LatticeField(-3, np.arange(4.0), np.ones(4))
    assert len(u) == 4
    assert np.array_equal(u.sites, [-3, -2, -1, 0])
    lo, hi = u.boundary_mass(width=2)
    assert lo == pytest.approx(np.sqrt(0 + 1 + 1 + 1))
    assert hi == pytest.approx(np.sqrt(4 + 9 + 1 + 1))
    # r[-0:] is the whole array: width 0 would read the full norm at the
    # high edge, a negative width the interior
    for width in (0, -1, -3):
        with pytest.raises(ValueError, match="width"):
            u.boundary_mass(width)
    with pytest.raises(ValueError):
        LatticeField(0, np.zeros(3), np.zeros(4))


def test_weight_values():
    # the one weight law is weighted_norm's: a unit field on the single
    # site n has norm e^{a s}, e^{-a |s|} and sqrt(1 + tanh(a s)), s = n - 2
    closed = {
        WeightKind.RIGHT_GROWING: lambda s: np.exp(0.5 * s),
        WeightKind.TWO_SIDED: lambda s: np.exp(-0.5 * abs(s)),
        WeightKind.SIGMOID: lambda s: np.sqrt(1.0 + np.tanh(0.5 * s)),
    }
    for kind, want in closed.items():
        for n in (0, 2, 4):
            for r, p in ((1.0, 0.0), (0.0, 1.0)):
                u = LatticeField(n, np.array([r]), np.array([p]))
                got = weighted_norm(u, WeightSpec(0.5, 2.0, kind))
                assert got == pytest.approx(want(n - 2.0), rel=1e-14)


def test_weight_spec_must_be_finite():
    # NaN fails every comparison, so nothing downstream would catch it
    for a, center in ((np.nan, 0.0), (np.inf, 0.0), (0.3, np.nan), (0.3, -np.inf)):
        with pytest.raises(ValueError, match="finite"):
            WeightSpec(a, center)


def test_j_forward_matches_shifts():
    rng = np.random.default_rng(3)
    v = random_field(rng)
    jv = apply_j(v)
    # away from the window edges these are plain shifted differences
    assert np.allclose(jv.r[:-1], v.p[1:] - v.p[:-1])
    assert np.allclose(jv.p[1:], v.r[1:] - v.r[:-1])


def test_j_skew_symmetry():
    rng = np.random.default_rng(4)
    u, v = random_field(rng), random_field(rng)
    ju, jv = apply_j(u), apply_j(v)
    uv = np.sum(u.r * jv.r + u.p * jv.p)
    vu = np.sum(ju.r * v.r + ju.p * v.p)
    assert abs(uv + vu) < 1e-12 * u.norm() * v.norm()


def test_j_inverse_roundtrip():
    # J^{-1} inverts J on mean-zero fields; both compositions are exact
    rng = np.random.default_rng(5)
    v = random_field(rng)
    # remove the mean on the interior so the edge pads stay zero
    v.r[3:-3] -= v.r[3:-3].mean()
    v.p[3:-3] -= v.p[3:-3].mean()
    back = apply_j(apply_j_inverse(v))
    assert np.allclose(back.r, v.r, atol=1e-12)
    assert np.allclose(back.p, v.p, atol=1e-12)
    forth = apply_j_inverse(apply_j(v))
    assert np.allclose(forth.r, v.r, atol=1e-12)
    assert np.allclose(forth.p, v.p, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_j_inverse_self_pairing_identity(seed):
    # <u, J^{-1} u> collapses to the product of the component masses
    rng = np.random.default_rng(seed)
    u = random_field(rng, length=rng.integers(8, 96))
    got = j_inverse_pairing(u, u)
    want = u.r.sum() * u.p.sum()
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_j_inverse_pairing_matches_direct():
    rng = np.random.default_rng(6)
    u, v = random_field(rng), random_field(rng)
    split = j_inverse_pairing(u, v)
    jv = apply_j_inverse(v)
    direct = np.sum(u.r * jv.r + u.p * jv.p)
    assert split == pytest.approx(direct, rel=1e-12)


def test_weighted_norm():
    # the one weighted norm is ||e^{a n} u||: e^{a n} is 1 at n=0 and 2 at
    # n=1, so the squares are weighted by 1 and 4
    u = LatticeField(0, np.array([1.0, 0.0]), np.array([0.0, 2.0]))
    w = WeightSpec(np.log(2.0))
    assert weighted_norm(u, w) == pytest.approx(np.sqrt(1.0 + 16.0))
