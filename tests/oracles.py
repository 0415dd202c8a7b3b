"""Reference computations the tests hold the package to.

Nothing in fpulab calls these.  Each is either an independent form of a
package computation or the same quantity in extended precision:

- subset_sum_mp: log Delta_N and phi_N of a KdV N-soliton from the
  subset sum in mpmath, at the caller's working precision;
- resolution_phases_mp and remainder_sup: the large-time train phases
  and the sup of phi_N minus the train, in 300-digit arithmetic;
- j_inverse_pairing: <u, J^{-1} v> in a split form that never calls
  lattice.apply_j_inverse;
- secular_gram and scaled_misfit: C D^T and C v of modulation's
  condition and direction matrices on the full window, where the
  package builds them on the hull of the waves' supports;
- speed_derivative: the c-direction of a wave profile from profiles
  re-solved at c +- h_c, the check on ProfileTable.modes.

pytest puts this folder on sys.path (it has no __init__.py), so a test
module imports these as `from oracles import ...`.
"""

import mpmath as mp
import numpy as np

from fpulab import modulation
from fpulab.waves import WaveProfile, solve_profile


def subset_sum_mp(family, t, x):
    """(log Delta_N, phi_N) at one point x from the subset sum

        Delta_N = sum_S prod_{i in S} 1/(2 k_i)
                  prod_{i<j in S} ((k_i - k_j)/(k_i + k_j))^2 e^{-2 theta_S},

    theta_S = sum_{i in S} k_i (x - 4 k_i^2 t - gamma_i), in mpmath at the
    working precision.  phi_N = d^2/dx^2 log Delta_N is the variance of
    the subset slopes -2 sum_{i in S} k_i under the weights of the sum.
    family needs fields k, gamma and n; k and gamma may hold mpf values.
    """
    n = family.n
    k = [mp.mpf(v) for v in family.k]
    theta = [k[i] * (x - 4 * k[i] ** 2 * t - mp.mpf(family.gamma[i]))
             for i in range(n)]
    total = m1 = m2 = mp.mpf(0)
    for s in range(2**n):
        idx = [i for i in range(n) if (s >> i) & 1]
        coef = mp.fprod(1 / (2 * k[i]) for i in idx)
        for a, i in enumerate(idx):
            for j in idx[a + 1 :]:
                coef *= ((k[i] - k[j]) / (k[i] + k[j])) ** 2
        slope = -2 * mp.fsum(k[i] for i in idx)
        term = coef * mp.exp(-2 * mp.fsum(theta[i] for i in idx))
        total += term
        m1 += slope * term
        m2 += slope**2 * term
    mean = m1 / total
    return mp.log(total), m2 / total - mean**2


def resolution_phases_mp(family):
    """The train phases of kdv.resolution_phases at the working
    precision: gamma~_i = gamma_i - [log(2 k_i) + 2 sum_{j>i}
    log((k_j + k_i)/(k_j - k_i))] / (2 k_i)."""
    k = [mp.mpf(v) for v in family.k]
    phases = []
    for i in range(family.n):
        corr = mp.log(2 * k[i])
        for j in range(i + 1, family.n):
            corr += 2 * mp.log((k[j] + k[i]) / (k[j] - k[i]))
        phases.append(mp.mpf(family.gamma[i]) - corr / (2 * k[i]))
    return phases


def remainder_sup(family, t, x):
    """sup |phi_N - train| on the grid x, in 300-digit precision.

    At large t the two terms agree far below float64 epsilon, so the
    difference is formed in mpmath and only then converted back; the
    train phases are recomputed at working precision because their
    float64 rounding alone would floor the remainder near 1e-16.
    """
    with mp.workdps(300):
        k = [mp.mpf(v) for v in family.k]
        phases = resolution_phases_mp(family)
        worst = mp.mpf(0)
        for xv in np.asarray(x, dtype=float):
            xm = mp.mpf(xv)
            train = mp.fsum(
                k[i] ** 2 / mp.cosh(k[i] * (xm - 4 * k[i] ** 2 * t - phases[i])) ** 2
                for i in range(family.n)
            )
            _, phi = subset_sum_mp(family, mp.mpf(t), xm)
            worst = max(worst, abs(phi - train))
        return float(worst)


def j_inverse_pairing(u, v):
    """The pairing <u, J^{-1} v>, evaluated through the rearranged split
    form

        <u, J^{-1} v> = <u_1, sum_{k<=0} S^k v_2> + <v_1, sum_{k>=1} S^k u_2>,

    which agrees term by term with pairing u against apply_j_inverse(v)
    but moves the second prefix sum onto u.
    """
    if u.offset != v.offset or len(u) != len(v):
        raise ValueError("fields must share the window")
    left = np.cumsum(v.p)  # sum_{m <= n} v_p(m)
    right = np.cumsum(u.p[::-1])[::-1] - u.p  # sum_{m > n} u_p(m)
    return float(np.sum(u.r * left + v.r * right))


def secular_gram(sampled, eps):
    """Scaled pairing matrix C D^T of the wave directions of a train.

    sampled holds one (wave, x-direction, c-direction) triple of fields
    per wave, all on one site window (WaveModes.sampled).  Rows alternate
    between the two orthogonality conditions of each wave (x-type, then
    c-type); columns alternate between the parameter directions of each
    wave (c-direction, then x-direction).  Entries are
    <direction_j, J^{-1} condition_i> with the scalings 1/eps (x,c and
    c,x corners), 1/eps^4 (x,x) and eps^2 (c,c).

    Raises ValueError when the matrix is singular to working precision.
    """
    return modulation._pairing_gram(*modulation._conditions(sampled, eps))


def scaled_misfit(v, sampled, eps):
    """Orthogonality residuals C v of v, scaled like the Gram rows."""
    return modulation._conditions(sampled, eps)[0] @ modulation._flat(v)


def speed_derivative(profile, model):
    """c-derivative of the wave profile, as a new profile object.

    A closed-form (Toda) profile takes the c-derivatives of its exact
    evaluator on its grid, the c-direction ProfileTable.modes uses.  Any other profile takes the
    central difference of profiles re-solved at c +- h_c on the same
    window; the family is smooth in c near the sonic limit, so the step
    h_c = 1e-4 (c-1) keeps truncation and cancellation balanced.
    """
    if profile.exact is not None:
        at = profile.exact(profile.x)
        return WaveProfile(profile.model_name, profile.c, profile.x,
                           at.dcr(), at.dcp(), method="ddc")
    h_c = 1e-4 * (profile.c - 1.0)
    plus, minus = (solve_profile(model, ci, span=profile.span, seed=profile.r)
                   for ci in (profile.c + h_c, profile.c - h_c))
    return WaveProfile(profile.model_name, profile.c, profile.x,
                       (plus.r - minus.r) / (2.0 * h_c),
                       (plus.p - minus.p) / (2.0 * h_c), method="ddc")
