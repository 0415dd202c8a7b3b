"""KdV N-soliton machinery: tau functions, profiles, parameter gradients
and the resolution into 1-soliton trains.

Tau functions are evaluated through the principal-minor (Cauchy) expansion
in the log domain, which stays finite for arbitrarily large phases where
the dense determinant overflows.  Every subset exponent is affine in x,
so over one x-slab the terms of that expansion factorise into a constant
per subset, taken at the slab's centre and shifted by the largest, times
products of per-soliton exponentials of the offset from the centre (see
TauLadder): log Delta is that shift plus the log of the moment m0, and
no slab forms a table of 2^m exponentials per point.  Spatial
derivatives of log tau and the derivatives of the profile in every
gamma_i and k_i come out of the same expansion as softmax-weighted
moments, so neither carries differencing error; the gradients are
taken for a chosen set of solitons, all of them for the secular basis,
the top one alone for a ladder level's two modes.  A TauLadder keeps log
Delta, v and its slope at its last evaluation point.  The linearized
flows ask for the profile once per distinct stage time of their RK4
step (integrators._rk4_stepper) on a moving frame, where that memo would
miss each time; they evaluate through a frame instead
(TauLadder.frame_profile), which keeps one sweep's slab factors and
moment weights per anchor time and sums the moments of every later time
from them with the weights rescaled.

Conventions: theta_i = k_i (x - 4 k_i^2 t - gamma_i), and the level-m tau
Delta_m = det(I + C_m) is that of the first m solitons alone, with no
factor from the others.  The 1-soliton crest sits at
gamma - log(2k)/(2k), not at gamma.  Level m of a family's ladder is
LadderPhases.tau(m) for every m in 0..N: its m solitons carry the
descended phases gamma_i^m (see phase_ladder), which is what makes
consecutive levels a transform pair (the plain minors of the level-n
matrix do not have that property), and the ladder potential
LadderPhases.potential adds the tail constant -sum_{i>m} k_i.

The ladder conventions live here and nowhere else: the phase recursion
(phase_ladder), the level range 1..N of the maps between levels
(_check_level), the normalized tau quotient (log_psi), the parameter
gradients of a profile (TauLadder.parameter_gradients), the spectral
derivative, the Simpson pairing of grid samples (simpson_pairing), the
exponentially weighted grid norm (exp_weighted_norm), the condition
check of a Gram matrix of modes (_checked_gram), which the secular
projection and the modulation frame share, and the one threshold alarm
(_check_limit), through which every value-against-limit alarm of the
package raises "<what> <value> exceeds <limit>", NaN included.

Fourier transforms here and in the other modules go through scipy.fft,
not numpy.fft: scipy's pocketfft keeps the plan of each transform length
it has seen, where numpy's rebuilds it on every call, and both give the
same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import fft
from scipy.integrate import cumulative_trapezoid, simpson

MAX_SOLITONS = 8
# Largest drift max|r_S| |tau - tau_a| of the subset exponents a frame
# (TauLadder.frame_profile) takes from its anchor time tau_a before it
# sweeps again: its moment weights then stay within e^{+-FRAME_REACH} of
# their anchor values, so none overflows and none that matters underflows.
FRAME_REACH = 20.0
# Points in one x-slab of a level-m TauLadder: _SLAB >> m, so that a slab
# spans 2^16 subset terms and its work arrays, the factors of 2^(m-h) +
# 2^h rows and the products of 3 2^h (6 2^h per soliton for the
# gradients), h the high half's size (TauLadder._halves), stay small.
_SLAB = 2**16
# Largest drift |T_S(x) - T_S(x_c)| = |s_S| |x - x_c| of a subset exponent
# over a TauLadder x-slab from its value at the slab's centre x_c, which
# caps a slab's extent at _SLAB_REACH / sum k: every factor of its terms
# then lies within e^{+-_SLAB_REACH}, far from overflow, and the largest
# term at each point far above underflow, whatever the spread of x.
_SLAB_REACH = 300.0
# Largest distance |mu - b| of the mean slope mu at a point from the centre
# b at which parameter_gradients sums the slope moments of its columns
# before it re-centres them at mu: the re-centring multiplies their
# rounding by about (mu - b)^2 / phi, phi the slope variance at the point
# (TauLadder._covariances).
_CENTRE_REACH = 2.0


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
        if not (np.all(np.isfinite(k)) and np.all(np.isfinite(g))):
            raise ValueError("k and gamma must be finite")
        if np.any(k <= 0) or np.any(np.diff(k) <= 0):
            raise ValueError("k must be strictly increasing and positive")

    @property
    def n(self):
        return len(self.k)


@dataclass(frozen=True)
class GridField:
    """Samples of a function on the uniform grid x0 + dx * [0..len)."""

    x0: float
    dx: float
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values))
        if not (math.isfinite(self.x0) and math.isfinite(self.dx)):
            raise ValueError("x0 and dx must be finite")
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


# Condition number above which a Gram matrix of modes (the secular
# projection's, the modulation frame's) is singular to working precision.
GRAM_COND_LIMIT = 1e12


def _check_limit(error, what, value, limit, where=""):
    """The one threshold alarm: raise error("<what> <value> exceeds
    <limit><where>") unless value <= limit, so a NaN value fires too.  The
    limit is written in its shortest exact scientific form (1e-06, 2.5e-09)."""
    if not value <= limit:
        raise error(f"{what} {value:.3e} exceeds "
                    f"{np.format_float_scientific(limit, trim='-')}{where}")


def _checked_gram(gram, what, where=""):
    """Return gram, or raise ValueError "<what>: condition number ...
    exceeds 1e+12<where>" when its condition number (inf when an entry is
    not finite) exceeds GRAM_COND_LIMIT."""
    condition = np.linalg.cond(gram) if np.all(np.isfinite(gram)) else np.inf
    _check_limit(ValueError, f"{what}: condition number", condition,
                 GRAM_COND_LIMIT, where)
    return gram


def _slab_sums(weights, low, high):
    """sum_S weights[r, S] low[S_low] high[S_high] for each row r of the
    (R, 2^m) weights, S = S_low + 2^(m-h) S_high (TauLadder._halves): one
    product with low and one multiply-and-sum over the 2^h rows of high
    (none when high has no rows).  Returns (R, w)."""
    # np.dot, not @: matmul takes 2.5 times as long over one row of low
    # (m = 0)
    part = np.dot(weights.reshape(-1, low.shape[0]), low)
    if not high.shape[0]:
        return part
    return np.einsum("qhw,hw->qw",
                     part.reshape(len(weights), -1, low.shape[1]), high)


def _moments(weights, low, high):
    """[m0, m1/m0, m2/m0 - (m1/m0)^2] of one slab from its moment weights
    W_q (TauLadder._weights): the mass, the mean slope less the centre
    and phi, the slope variance."""
    mom = _slab_sums(weights, low, high)
    # row by row: dividing mom[1:] by a broadcast row takes longer
    mom[1] /= mom[0]
    mom[2] /= mom[0]
    mom[2] -= mom[1] ** 2
    return mom


def _slab_width(m):
    """Points in one x-slab of a level-m TauLadder (see _SLAB)."""
    return max(1, _SLAB >> m)


def _log_total(top, total):
    with np.errstate(divide="ignore"):
        return top + np.log(total)


def log_sum_exp(terms):
    """log sum exp(terms) over axis 0 in the max-shifted form
    top + log sum exp(terms - top), top the largest term (taken as 0 where
    it is not finite); a slice whose terms are all -inf gives -inf, one
    with a +inf term gives inf."""
    terms = np.array(terms, dtype=float)
    top = terms.max(axis=0, keepdims=True)
    top[~np.isfinite(top)] = 0.0
    terms -= top
    np.exp(terms, out=terms)
    return _log_total(top[0], terms.sum(axis=0))


def _sech2(z):
    """sech(z)^2 as 4 e / (1 + e)^2 with e = exp(-2|z|): finite for every z,
    where squaring cosh(z) overflows once |z| passes about 355."""
    e = np.exp(-2.0 * np.abs(z))
    return 4.0 * e / (1.0 + e) ** 2


def _pair_terms(k):
    """Pair factors A_ij = 2 log|(k_i - k_j)/(k_i + k_j)| of the KdV
    N-soliton, A_ii = 0: e^{A_ij} is the interaction coefficient of a
    minor holding solitons i and j."""
    ratio = np.abs((k[:, None] - k[None, :]) / (k[:, None] + k[None, :]))
    np.fill_diagonal(ratio, 1.0)
    return 2.0 * np.log(ratio)


def _subset_tables(k, m):
    """Membership matrix, log coefficients and slopes of the 2^m minors.

    Returns (B, log_a, slope): B is the (2^m, m) 0/1 subset matrix,
    log_a[S] = log of prod 1/(2k_i) * prod ((k_i-k_j)/(k_i+k_j))^2 over S,
    slope[S] = -2 sum_{i in S} k_i (the x-slope of that minor's exponent).
    """
    k = k[:m]
    subsets = np.arange(2**m)
    B = ((subsets[:, None] >> np.arange(m)[None, :]) & 1).astype(float)
    # pair terms A_ij for i < j, summed over the pairs of each subset as
    # the quadratic form B_S^T pair B_S
    pair = np.triu(_pair_terms(k), 1)
    log_a = -(B @ np.log(2.0 * k)) + np.sum((B @ pair) * B, axis=1)
    slope = -2.0 * (B @ k)
    return B, log_a, slope


class TauLadder:
    """Level-m tau function of a soliton family with its log-domain tables.

    Provides log Delta_m, its x-derivative d/dx log Delta_m, the second
    x-derivative, and the dense Cauchy matrix C_m for cross-checking at
    moderate phases.  Delta_m is the tau of the first m solitons at their
    own phases family.gamma[:m]; the others are never read, and level 0
    is Delta_0 = 1.  A ladder level at descended phases is
    LadderPhases.tau(m).

    Every evaluation goes through a one-entry memo keyed on (t, x), both
    compared by value, that holds v, phi and the shift and sum of log
    Delta_m, all len(x) long.  A miss sweeps the subset sum over x sorted,
    in x-slabs of at most _SLAB >> m points and of extent at most
    _SLAB_REACH / sum k (_slabs).  Each subset exponent T_S(x) is affine in x
    with slope s_S = -2 sum_{i in S} k_i, so with the slab's centre x_c as
    anchor its terms are c_S e^{s_S (x - x_c)}, and the x-factor is a
    product over a low and a high half of the solitons (_factors,
    _halves).  A slab of w points costs 2^m + (2^(m-h) + 2^h) w
    exponentials, h the high half's size, and one small product for the
    slope moments (_sweep); no array of 2^m rows per point is formed.  A
    permuted x is swept in the same slabs, so its values are the sorted
    evaluation's, permuted, bit for bit.  parameter_gradients makes its
    own sweep and leaves the memo at its (t, x), so asking for the
    gradients first sweeps once; it sums its columns' slope moments from
    the same factors, as products of 6 2^h rows per soliton asked for,
    centred at the slab's mean slope and re-centred at each point's
    (_covariances), so it forms no array of 2^m rows per point either.
    Callers get fresh arrays, never the memo's own.  The flows, whose
    every stage time is a new key, go through frame_profile instead,
    which keeps one sweep's slab factors and moment weights per anchor
    time.
    """

    def __init__(self, family: SolitonFamily, m: int):
        if not 0 <= m <= family.n:
            raise ValueError("level must lie in 0..n")
        self.family = family
        self.m = m
        self._B, self._log_a, self._slope = _subset_tables(family.k, m)
        # the subset exponents log_a - 2 B theta as one product (_phases)
        self._affine = np.hstack([-2.0 * self._B, self._log_a[:, None]])
        # the slopes of the subsets of the low solitons, then of those of
        # the high ones (_halves): the high half of (m - 1) // 2 solitons,
        # none up to m = 2, measured the fastest split at m = 1..8
        self._low = 2 ** (m - max(m - 1, 0) // 2)
        high = self._slope[:: self._low] if m > 2 else []
        self._half_slopes = np.concatenate([self._slope[: self._low], high])
        # the largest extent of a slab (_slabs); finite at m = 0 too, so
        # that an infinite x stays out of the finite points' slab
        self._extent = (_SLAB_REACH / family.k[:m].sum() if m
                        else np.finfo(float).max)
        self._key = None  # (t, x) of the memo
        self._memo = None  # rows top, m0, v, phi at the key

    def _phases(self, t, x):
        """[theta; 1]: the active phases theta_1..m at (t, x), one row per
        soliton, over a row of ones.  Every sweep of the subset sum and
        every anchor of a frame (frame_profile) makes one call, at the
        centres of all its slabs (_factors), so these calls count sweeps
        (dense_matrix, which makes none, makes the one other call)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        k = self.family.k[: self.m, None]
        gamma = self.family.gamma[: self.m, None]
        phases = np.ones((self.m + 1, x.size))
        phases[:-1] = k * (x[None, :] - 4.0 * k**2 * t - gamma)
        return phases

    def _slabs(self, xs):
        """Slices of the sorted abscissas xs into x-slabs of at most
        _slab_width(m) points whose subset exponents stay within
        _SLAB_REACH of their values at the slab's centre."""
        width = _slab_width(self.m)
        slabs, a = [], 0
        while a < xs.size:
            far = np.searchsorted(xs, xs[a] + self._extent, "right")
            b = min(a + width, far)
            slabs.append(slice(a, b))
            a = b
        return slabs

    def _factors(self, t, x):
        """The factorised subset terms at (t, x), x a 1-d float array, over
        the x-slabs of x sorted (_slabs): e^{T_S(x) - top} = c_S e^{s_S (x
        - x_c)} with c_S = e^{T_S(x_c) - top}, top = max_S T_S(x_c) and x_c
        the slab's centre; the exponents at every centre come from one
        _phases call.  Returns (slabs, tops, coefs, lags): per slab the
        positions in x of its points (a slice when x is sorted), top, its
        2^m c_S (a row of coefs) and the offsets x - x_c (see _halves)."""
        order = (None if np.all(x[:-1] <= x[1:])
                 else np.argsort(x, kind="stable"))
        xs = x if order is None else x[order]
        slabs = self._slabs(xs)
        centres = [0.5 * (xs[sl.start] + xs[sl.stop - 1]) for sl in slabs]
        exponents = (self._affine @ self._phases(t, centres)).T
        tops = exponents.max(axis=1)
        coefs = np.exp(exponents - tops[:, None])
        lags = [xs[sl] - centre for sl, centre in zip(slabs, centres)]
        if order is not None:
            slabs = [order[sl] for sl in slabs]
        return slabs, tops, coefs, lags

    def _halves(self, lag):
        """(low, high), the x-factors e^{s_S lag} of a slab's terms over the
        subsets S of the low solitons and over those of the high ones, lag =
        x - x_c, so that the term of S = S_low + 2^(m-h) S_high is c_S
        low[S_low] high[S_high] (h the high half's size; high has no rows
        when h = 0, where the terms are c_S low[S]).  Every factor and term
        lies within e^{+-_SLAB_REACH} (_slabs), and the largest term at each
        point is at least e^{-_SLAB_REACH}."""
        both = np.exp(np.multiply.outer(self._half_slopes, lag))
        return both[: self._low], both[self._low :]

    def _weights(self, coefs):
        """(sbar, W): per slab, for each row c of coefs, the mean slope
        sbar = sum_S c_S s_S / sum_S c_S and the moment weights W_q[S] =
        (s_S - sbar)^q c_S, q = 0, 1, 2, of shape (3, 2^m)."""
        sbar = coefs @ self._slope / coefs.sum(axis=1)
        d = self._slope - sbar[:, None]
        dc = d * coefs
        return sbar, np.stack([coefs, dc, d * dc], axis=1)

    def _sweep(self, t, x):
        """Walk the subset sum at (t, x), x a 1-d float array, slab by slab
        (_factors, _halves): the moments m0, m1, m2 of the slopes s,
        centred at their mean sbar under the c_S, are m_q = sum_{S_high}
        high * (W_q @ low) with W_q[S_high, S_low] = (s_S - sbar)^q c_S,
        one (3 2^h, 2^(m-h)) x (2^(m-h), w) product and one
        multiply-and-sum over the 2^h rows (none when h = 0), and give
        v = sbar + m1/m0, phi = m2/m0 - (m1/m0)^2 and log Delta_m = top +
        log m0 (_weights, _moments).  No array of a slab has more than
        3 2^h or 2^(m-h) + 2^h rows.  Yields (idx, (low, high), W, sbar,
        (m0, v, phi)) per slab, idx the positions in x of its points; the
        memo is at (t, x) after the last."""
        slabs, tops, coefs, lags = self._factors(t, x)
        sbar, weights = self._weights(coefs)
        memo = np.empty((4, x.size))
        for idx, top, w, lag, mean in zip(slabs, tops, weights, lags, sbar):
            low, high = self._halves(lag)
            mom = _moments(w, low, high)
            mom[1] += mean
            memo[0, idx] = top
            memo[1:, idx] = mom
            yield idx, (low, high), w, mean, mom
        self._key = (t, x.copy())
        self._memo = memo

    def _eval(self, t, x):
        """The memo at (t, x), rows top, m0, v, phi; refilled on a miss."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        key = self._key
        if key is None or t != key[0] or not np.array_equal(x, key[1]):
            for _ in self._sweep(t, x):
                pass
        return self._memo

    def log_delta(self, t, x):
        return _log_total(*self._eval(t, x)[:2])

    def v(self, t, x):
        """d/dx log Delta_m (the softmax mean of the slopes)."""
        return self._eval(t, x)[2].copy()

    def second_derivative(self, t, x):
        """d^2/dx^2 log Delta_m (the softmax variance of the slopes)."""
        return self._eval(t, x)[3].copy()

    def parameter_gradients(self, t, x, solitons=None):
        """Derivatives of second_derivative in the parameters of a chosen
        set of the active solitons.

        solitons: indices i in 0..m-1 (default: all m, in order).  Returns
        a (2s, len(x)) array for the s chosen solitons: rows d/d gamma_i,
        then d/d k_i, each in the order of solitons, with gamma_i the
        phases family.gamma[:m] this ladder uses; the default gives rows
        d/d gamma_1 .. d/d gamma_m, d/d k_1 .. d/d k_m.  phi is the softmax
        variance E_w[(s - mu)^2] of the subset slopes s under the weights
        w of the exponents T, so for every parameter q
        d_q phi = E_w[(s - mu)^2 (d_q T - E_w d_q T)] + 2 E_w[(s - mu) d_q s]
        with d_gamma_i T = 2 k_i B_i, d_k_i T = d_k_i log_a
        - 2 B_i (x - 12 k_i^2 t - gamma_i) and d_k_i s = -2 B_i.  The sums
        over the subsets factor as the sweep's moments do (_sweep): for
        the columns f = B_i and B_i d_k_i log_a, F_q = sum_S f_S u_S (s_S -
        sbar)^q, q = 0, 1, 2, u the terms and sbar the slab's mean slope,
        take the sweep's weights times f, one product with the low factors
        and one multiply-and-sum with the high ones, and are re-centred at
        mu = sbar + delta: C_1 = F_1 - delta F_0 and C_2 = F_2 - 2 delta F_1
        + delta^2 F_0 (_covariances).  m0, mu, phi and the memo come from
        the sweep, as in an evaluation; points whose mu lies more than
        _CENTRE_REACH from sbar take their sums about a nearer centre.
        Only the chosen solitons' columns
        enter the products, in one block of one shape per soliton: the two
        rows of one soliton (a ladder level's modes) take 1/m of the
        products of all 2m, and match those rows of the full call (the
        d/d gamma row bit for bit).
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        m = self.m
        sel = np.arange(m) if solitons is None else np.asarray(solitons, int)
        k = self.family.k[:m]
        B = self._B
        # d log_a / d k_i: -1/k_i plus 4 k_j / (k_i^2 - k_j^2) per partner j
        gap = k[sel, None] ** 2 - k[None, :] ** 2
        gap[np.arange(sel.size), sel] = np.inf
        own = B[:, sel]
        dlog = own * (B @ (4.0 * k[None, :] / gap).T - 1.0 / k[sel])
        # the columns B_i and B_i d_k_i log_a of each chosen soliton
        cols = np.stack([own, dlog]).transpose(2, 0, 1)
        k = k[sel, None]
        arm = 2.0 * (x - 12.0 * k**2 * t - self.family.gamma[sel, None])
        n = sel.size
        grads = np.empty((2 * n, x.size))
        for idx, halves, weights, mean, mom in self._sweep(t, x):
            cov, tilt = self._covariances(cols, weights, *halves, mean, mom)
            grads[:n, idx] = 2.0 * k * cov[:, 0]
            grads[n:, idx] = cov[:, 1] - arm[:, idx] * cov[:, 0] - 4.0 * tilt
        return grads

    def _covariances(self, cols, weights, low, high, mean, mom):
        """The covariances E_u[(f - E_u f) ((s - mu)^2 - phi)] and
        E_u[f (s - mu)] of columns f with the subset slopes s at the points
        of one slab, mu and phi the mean and variance of s, for cols (n, 2,
        2^m), the columns B_i and B_i d_k_i log_a of n solitons: the first
        for both columns, the second for B_i.  weights, mean and mom are
        the slab's moment weights W_q, mean slope sbar and moments (m0, mu,
        phi) from _sweep.  Returns ((n, 2, w), (n, w)).

        Re-centring the sums F_q at mu multiplies their rounding by about
        delta^2 / phi, delta = mu - sbar, so the points fall into runs by
        the multiple 2 j _CENTRE_REACH nearest to delta, and a run at j != 0
        sums at the centre sbar + 2 j _CENTRE_REACH, where its own moments
        (one more product of 3 2^h rows, _slab_sums) give its m0, delta
        and phi; the run at j = 0 takes the sweep's weights and moments.
        Each run costs one (6 2^h, 2^(m-h)) product with the low factors
        per soliton and one multiply-and-sum with the high ones, and every
        soliton's product has one shape, so its sums do not depend on the
        other solitons', bit for bit."""
        n = len(cols)
        per = self._slope.size // self._low
        # the memo holds its own copy of the moments, so the runs may
        # overwrite them
        m0, delta, phi = mom[0], mom[1] - mean, mom[2]
        # delta is nondecreasing in x (its slope is phi >= 0), so the runs
        # are cut where it crosses the odd multiples of _CENTRE_REACH
        first, last = np.round(delta[[0, -1]] * (0.5 / _CENTRE_REACH))
        runs, cuts = [0.0], [0, m0.size]
        if first < last:
            runs = np.arange(first, last + 1.0)
            cuts[1:1] = np.searchsorted(delta, (2.0 * runs[1:] - 1.0)
                                        * _CENTRE_REACH)
        cov, tilt = np.empty((n, 2, m0.size)), np.empty((n, m0.size))
        for run, a, b in zip(runs, cuts[:-1], cuts[1:]):
            if a == b:  # a run no point falls in
                continue
            w = weights
            if run:
                lift = self._slope - (mean + 2.0 * _CENTRE_REACH * run)
                w = weights[0] * np.stack([np.ones_like(lift), lift,
                                           lift * lift])
                m0[a:b], m1, m2 = _slab_sums(w, low[:, a:b], high[:, a:b])
                delta[a:b] = m1 / m0[a:b]
                phi[a:b] = m2 / m0[a:b] - delta[a:b] ** 2
            rows = (w[None, :, None] * cols[:, None]).reshape(
                n, 6 * per, self._low)
            part = np.matmul(rows, low[:, a:b]).reshape(n, 3, 2, per, b - a)
            if high.shape[0]:
                part = np.einsum("nqchw,hw->nqcw", part, high[:, a:b])
            else:
                part = part[..., 0, :]
            f0, f1, f2 = part.transpose(1, 0, 2, 3)
            # C_2 - phi F_0 = F_2 - 2 delta F_1 + (delta^2 - phi) F_0
            d = delta[a:b]
            np.divide(f2 - 2.0 * d * f1 + (d * d - phi[a:b]) * f0, m0[a:b],
                      out=cov[..., a:b])
            np.divide(f1[:, 0] - d * f0[:, 0], m0[a:b], out=tilt[:, a:b])
        return cov, tilt

    def frame_profile(self, x, speed, t0):
        """The profile on a moving frame, tau -> second_derivative(tau,
        x + speed (tau - t0)), for a flow that asks at many times.

        Along the frame each slab's offsets x - x_c stay fixed, so its
        factors (_halves) do too, and every subset exponent is affine in
        tau, T_S(tau) = T_S(tau_a) + r_S (tau - tau_a) with r = B (-2 k
        (speed - 4 k^2)).  At an anchor time tau_a the frame keeps the
        sweep's slabs, factors and moment weights W_q (_factors, _weights);
        each time tau sums the slabs' moments from the weights scaled by
        e^{r (tau - tau_a)}, as the sweep does (_moments), which at tau_a
        gives second_derivative's values bit for bit.  The slabs are
        taken again at the asked time once the exponents have drifted by
        more than FRAME_REACH.  The (t, x) memo is not touched.
        """
        x = np.array(x, dtype=float, ndmin=1)
        k = self.family.k[: self.m]
        rate = self._B @ (-2.0 * k * (speed - 4.0 * k**2))
        fastest = np.abs(rate).max()
        anchor = idx = weights = halves = None

        def phi(tau):
            nonlocal anchor, idx, weights, halves
            if anchor is None or fastest * abs(tau - anchor) > FRAME_REACH:
                idx, _, coefs, lags = self._factors(
                    tau, x + speed * (tau - t0))
                weights = self._weights(coefs)[1]
                halves = [self._halves(lag) for lag in lags]
                anchor = tau
            out = np.empty(x.size)
            for sl, w, (low, high) in zip(
                    idx, weights * np.exp(rate * (tau - anchor)), halves):
                out[sl] = _moments(w, low, high)[2]
            return out

        return phi

    def dense_matrix(self, t, x):
        """Cauchy matrix C_m with entries e^{-theta_i-theta_j}/(k_i+k_j).

        det(I + C_m) equals Delta_m; overflows for phases beyond ~350,
        which is what the expansion avoids.  x holds one point; raises
        ValueError otherwise.
        """
        if np.size(x) != 1:
            raise ValueError("dense_matrix takes one point x, got %d"
                             % np.size(x))
        theta = self._phases(t, x)[:-1, 0]
        k = self.family.k[: self.m]
        e = np.exp(-theta)
        return np.outer(e, e) / (k[:, None] + k[None, :])


def _check_grid(k, x):
    """The abscissas x as a float array; rejects fewer than two points, or
    a spacing above 0.1 / k_max, k_max the largest of the wave numbers k
    (none are checked when k is empty)."""
    x = np.asarray(x, dtype=float)
    if x.size < 2:
        raise ValueError(f"a grid needs at least two points, got {x.size}")
    dx = x[1] - x[0]
    fastest = np.max(k, initial=0.0)
    if dx * fastest > 0.1 * (1.0 + 1e-9):
        raise ValueError(
            f"grid too coarse: dx={dx:.4g} does not resolve k={fastest:.4g}"
        )
    return x


def n_soliton_profile(family: SolitonFamily, t, x, levels=()):
    """Profile phi_N = d^2/dx^2 log Delta_N and ladder potentials v^m.

    x: uniform abscissas (see uniform_grid); levels: iterable of m in
    0..N for which the ladder potential phase_ladder(family).potential(m)
    is wanted.  Returns (GridField, dict m -> GridField).
    """
    x = _check_grid(family.k, x)
    dx = x[1] - x[0]
    phi = TauLadder(family, family.n).second_derivative(t, x)
    ladder = phase_ladder(family)
    pots = {m: GridField(x[0], dx, ladder.potential(m, t, x)) for m in levels}
    return GridField(x[0], dx, phi), pots


def secular_basis(family: SolitonFamily, t, x):
    """The 2N secular fields of phi_N at time t on the grid x.

    Returns (xi, eta), two (2N, len(x)) arrays: xi holds the parameter
    gradients d phi_N / d gamma_1..N, then d phi_N / d k_1..N
    (TauLadder.parameter_gradients), eta their cumulative-trapezoid
    antiderivatives anchored to 0 at the left grid edge, which must sit
    in the flat tail of every gradient.
    """
    x = _check_grid(family.k, x)
    xi = TauLadder(family, family.n).parameter_gradients(t, x)
    _check_limit(ValueError, "left edge not in the flat tail of the parameter "
                 "gradients: edge value", np.max(np.abs(xi[:, 0])), 1e-12)
    eta = cumulative_trapezoid(xi, dx=x[1] - x[0], axis=1, initial=0.0)
    return xi, eta


def _spectral_dx(values, h, order=1):
    """d^order/dx^order of periodic samples with spacing h (FFT)."""
    xi = 2.0 * np.pi * fft.rfftfreq(values.size, d=h)
    return fft.irfft((1j * xi) ** order * fft.rfft(values), n=values.size)


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

    levels[m] holds the m phases of level m (tau(m), potential(m)); level
    N keeps the family's own phases and each step down shifts the
    surviving phases by the pairwise interaction term (see phase_ladder).
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
            if not np.all(np.isfinite(g)):
                raise ValueError(f"level {m} phases must be finite")
        object.__setattr__(self, "_taus", {})

    def tau(self, m):
        """The level-m tau function, m in 0..N: the TauLadder of the first
        m solitons at the level-m phases levels[m] (the family's own
        phases fill the inactive slots, which it never reads).  Built on
        the first call and kept: it depends on the phases alone, so every
        map and flow on this ladder shares one per level, and with it the
        memo of that level's last evaluation (see TauLadder): consecutive
        maps at one (t, x) sweep each level once."""
        if not 0 <= m <= self.family.n:
            raise ValueError("level must lie in 0..N")
        if m not in self._taus:
            gamma = np.concatenate([self.levels[m], self.family.gamma[m:]])
            self._taus[m] = TauLadder(SolitonFamily(self.family.k, gamma), m)
        return self._taus[m]

    def potential(self, m, t, x):
        """The ladder potential v^m = d/dx log Delta_m - sum_{i>m} k_i of
        level m: the tail constant makes differences across levels exact,
        and level 0 is the constant -sum_i k_i."""
        return self.tau(m).v(t, x) - float(self.family.k[m:].sum())

    def anchor(self, m):
        """Phase of the soliton that level m adds on top of level m-1."""
        return float(self.levels[m][m - 1])

    def crest(self, m, t):
        """Center of the level-m sech quotient at time t."""
        km = float(self.family.k[m - 1])
        return self.anchor(m) + 4.0 * km**2 * t


def phase_ladder(family: SolitonFamily) -> LadderPhases:
    """Descend the phase recursion from the full family to level 0.

    Removing the largest remaining soliton (index m) shifts every
    surviving phase by log((k_m - k_i)/(k_m + k_i)) / (2 k_i) = A_mi / (4 k_i).
    """
    k = family.k
    pair = _pair_terms(k)
    levels = [None] * (family.n + 1)
    levels[family.n] = family.gamma.copy()
    for m in range(family.n, 0, -1):
        levels[m - 1] = levels[m][: m - 1] + pair[m - 1, : m - 1] / (4.0 * k[: m - 1])
    return LadderPhases(family, tuple(levels))


def _check_level(ladder: LadderPhases, m):
    """Raise ValueError unless m names a level 1..N, one that adds a
    soliton on top of the level below it."""
    if not 1 <= m <= ladder.family.n:
        raise ValueError("level must lie in 1..N")


def log_psi(ladder: LadderPhases, m, t, x):
    """log of the normalized tau quotient e^{-theta_m} Delta_{m-1}/Delta_m.

    theta_m = k_m (x - 4 k_m^2 t - anchor(m)) is the level-m phase.  psi
    decays like sech of it in both tails; the log domain keeps it finite
    where psi itself underflows.
    """
    _check_level(ladder, m)
    km = float(ladder.family.k[m - 1])
    theta = km * (x - 4.0 * km**2 * t - ladder.anchor(m))
    low = ladder.tau(m - 1).log_delta(t, x)
    return -theta + low - ladder.tau(m).log_delta(t, x)


def resolution_phases(family: SolitonFamily):
    """Asymptotic 1-soliton phases gamma~_i of the large-time train.

    gamma~_i = gamma_i - [log(2 k_i) - sum_{j>i} A_ij] / (2 k_i) with the
    pair factors A_ij of _pair_terms; each faster soliton retards the
    slower one it passes, and the interaction factor enters squared
    because the minor coefficients carry ((k_i-k_j)/(k_i+k_j))^2.
    Verified against the measured crest locations of the tau profile
    (offsets agree to 7 digits at t=5, 10).
    """
    k = family.k
    corr = np.log(2.0 * k) - np.sum(np.triu(_pair_terms(k), 1), axis=1)
    return family.gamma - corr / (2.0 * k)


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
            out += k[i] ** 2 * _sech2(arg)
        return GridField(x[0], x[1] - x[0], out)


def soliton_resolution(family: SolitonFamily):
    """Resolution data: the phases gamma~ and the train they place."""
    return Resolution(family, resolution_phases(family))
