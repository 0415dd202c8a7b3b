import numpy as np

from fpulab.diagnostics import weighted_norm
from fpulab.lattice import LatticeField, WeightKind, WeightSpec


def test_sigmoid_weighted_norm_far_left_of_the_center():
    rng = np.random.default_rng(5)
    u = LatticeField(-100, rng.standard_normal(201), rng.standard_normal(201))
    weight = WeightSpec(0.5, center=0.0, kind=WeightKind.SIGMOID)  # a s >= -50
    direct = np.sqrt(np.sum((1.0 + np.tanh(0.5 * u.sites)) * (u.r**2 + u.p**2)))
    with np.errstate(all="raise"):
        got = weighted_norm(u, weight)
    assert abs(got - direct) < 1e-13 * direct
