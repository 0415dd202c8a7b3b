"""Weighted norms, virial ledgers, and spectral audits for lattice runs.

The spectral pieces live on the shifted contour: multiplying a field by
e^{a n} before the transform evaluates its Fourier series at xi + ia,
so every decay statement becomes a plain supremum or margin on a real
xi-grid.  Reports are small dataclasses; VirialReport's as_dict() is
the mapping artifacts.write_json takes.  This module writes no files
(series go through artifacts.write_series, plots through
artifacts.svg_series_plot).
"""

from dataclasses import dataclass, field

import numpy as np
from scipy import fft

from .kdv import SolitonFamily, TauLadder, _sech2, log_sum_exp
from .lattice import LatticeField, WeightKind, WeightSpec, hamiltonian_density
from .waves import kappa_of_speed, rho_symbol, speed_of_eps


# ---------------------------------------------------------------------------
# weighted norms, log domain


def _log_weight(spec, n):
    """Log of the factor multiplying the squared field.

    Exponential kinds weight the field itself (the norm is
    ||e^{a(n-x0)} u|| etc.), so their square factor is doubled;
    the sigmoid kind weights the square once, returning
    || psi^(1/2) u ||.
    """
    s = np.asarray(n, dtype=float) - spec.center
    if spec.kind is WeightKind.RIGHT_GROWING:
        return 2.0 * spec.a * s
    if spec.kind is WeightKind.TWO_SIDED:
        return -2.0 * spec.a * np.abs(s)
    # log(1 + tanh(a s)) in a form that stays finite far left of the center
    return np.log(2.0) - np.logaddexp(0.0, -2.0 * spec.a * s)


def weighted_norm(u, weight):
    """Weighted l2 norm of a lattice field, the paper's ||e^{a(n-x)} u||
    for the exponential kinds: sqrt(sum e^{2a(n-x)} (r^2 + p^2)) for
    RIGHT_GROWING and sqrt(sum e^{-2a|n-x|} (r^2 + p^2)) for TWO_SIDED, so
    the squares carry twice the exponent a (see _log_weight).  Computed in
    the log domain so extreme a * window products survive; the final
    exponentiation may still return inf for genuinely huge norms."""
    logw = _log_weight(weight, u.sites)
    with np.errstate(divide="ignore"):
        terms = np.concatenate([
            2.0 * np.log(np.abs(u.r)) + logw,
            2.0 * np.log(np.abs(u.p)) + logw,
        ])
    return float(np.exp(0.5 * log_sum_exp(terms)))


# ---------------------------------------------------------------------------
# decay fitting


@dataclass
class DecayFit:
    rate: float
    intercept: float
    r_squared: float
    t_start: float
    samples: int

    def value_at(self, t):
        return np.exp(self.intercept + self.rate * np.asarray(t))


def _log_linear_fit(t, values):
    """Least-squares line through (t, log values): (slope, intercept, R^2)."""
    y = np.log(values)
    coeff = np.polyfit(t, y, 1)
    pred = np.polyval(coeff, t)
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(coeff[0]), float(coeff[1]), r2


def decay_fit(times, values):
    """Least-squares fit of log(value) against t over the trailing half
    of the samples (from index len // 2 on).

    Multiplying the series by a constant only shifts the intercept.
    Raises ValueError for non-positive values or fewer than 10 samples
    in the window.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.shape != values.shape or times.ndim != 1:
        raise ValueError("times and values must be equal-length vectors")
    start = times.size // 2
    t = times[start:]
    v = values[start:]
    if t.size < 10:
        raise ValueError("need at least 10 samples in the fit window")
    if not np.all(v > 0.0):
        raise ValueError("decay_fit needs strictly positive values")
    rate, intercept, r2 = _log_linear_fit(t, v)
    return DecayFit(rate, intercept, r2, float(t[0]), int(t.size))


# ---------------------------------------------------------------------------
# virial ledger


@dataclass
class VirialReport:
    """Time series of the sigmoid-weighted energy ledger.

    psi_energy is the monotone object (sigmoid-weighted energy density
    sum); psi_vsq and sech_vsq are the sigmoid- and sech^2-weighted plain
    squared norms of the state, which enter the integrated bound.  flags
    lists hypothesis violations; the series are computed either way.
    """

    times: np.ndarray
    psi_energy: np.ndarray
    psi_vsq: np.ndarray
    sech_vsq: np.ndarray
    a: float
    flags: list = field(default_factory=list)
    eps: float = None

    def max_step_increase(self):
        return float(np.max(np.diff(self.psi_energy), initial=-np.inf))

    def fitted_constant(self):
        """Largest C with psi_vsq(T) + C a eps^2 integral(sech_vsq)
        <= psi_vsq(0); requires eps."""
        if self.eps is None:
            raise ValueError("fitted_constant needs eps")
        drop = self.psi_vsq[0] - self.psi_vsq[-1]
        used = np.trapezoid(self.sech_vsq, self.times)
        if used <= 0.0:
            return np.inf
        return float(drop / (self.a * self.eps**2 * used))

    def as_dict(self):
        out = {
            "a": self.a,
            "samples": int(self.times.size),
            "max_step_increase": self.max_step_increase(),
            "initial_psi_energy": float(self.psi_energy[0]),
            "final_psi_energy": float(self.psi_energy[-1]),
            "flags": list(self.flags),
        }
        if self.eps is not None:
            out["eps"] = self.eps
            out["fitted_constant"] = self.fitted_constant()
        return out


def virial_series(trajectory, a, xtilde, model, eps=None):
    """Sigmoid-weighted energy ledger of a small-solution run.

    trajectory: snapshots of the freely evolving small field; a: weight
    slope; xtilde: callable t -> center position.  The decay hypothesis
    needs the center to outrun the sound speed by eps^2 / 24 and
    the combination a*eps + |v(0)| to stay below eps^2 / 2; violations
    are flagged, never fatal.
    """
    times = np.asarray(trajectory.times, dtype=float)
    centers = np.array([float(xtilde(t)) for t in times])
    flags = []
    if eps is not None:
        speed = np.gradient(centers, times) if times.size > 1 else None
        floor = 1.0 + eps**2 / 24.0
        if speed is not None and np.min(speed) < floor:
            flags.append(
                "center speed %.6g below the hypothesis floor %.6g"
                % (float(np.min(speed)), floor)
            )
        v0 = trajectory.fields[0].norm()
        if a * eps + v0 > 0.5 * eps**2:
            flags.append(
                "a*eps + |v0| = %.3g exceeds the smallness budget %.3g"
                % (a * eps + v0, 0.5 * eps**2)
            )
    psi_e = np.empty(times.size)
    psi_v = np.empty(times.size)
    sech_v = np.empty(times.size)
    for i, snap in enumerate(trajectory.fields):
        s = snap.sites - centers[i]
        psi = 1.0 + np.tanh(a * s)
        sech2 = _sech2(a * s)
        h1 = hamiltonian_density(snap, model)
        vsq = snap.r**2 + snap.p**2
        psi_e[i] = np.sum(psi * h1)
        psi_v[i] = np.sum(psi * vsq)
        sech_v[i] = np.sum(sech2 * vsq)
    return VirialReport(times, psi_e, psi_v, sech_v, float(a), flags, eps)


# ---------------------------------------------------------------------------
# smooth cutoffs and the band decomposition

# The band convention of band_split and dispersion_check: the low band is
# |xi| <= BAND_K eps and the high band |xi| >= BAND_DELTA.
BAND_K = 2.0
BAND_DELTA = 1.0


def _bump_side(u):
    out = np.zeros_like(u)
    pos = u > 0.0
    out[pos] = np.exp(-1.0 / u[pos])
    return out


def smooth_cutoff(s):
    """C-infinity cutoff: 1 on [-1, 1], 0 outside (-2, 2), built from
    the standard exp(-1/u) bump transition."""
    s = np.abs(np.asarray(s, dtype=float))
    up = _bump_side(2.0 - s)
    down = _bump_side(s - 1.0)
    with np.errstate(invalid="ignore"):
        out = up / (up + down)
    out[s <= 1.0] = 1.0
    out[s >= 2.0] = 0.0
    return out


def _diag_transform(xi, values_f):
    """Apply P(xi)^* to the stacked transform (Fr, Fp) -> (f+, f-)."""
    half = np.exp(0.5j * xi)
    fr, fp = values_f
    fplus = (fr - half * fp) / np.sqrt(2.0)
    fminus = (np.conj(half) * fr + fp) / np.sqrt(2.0)
    return fplus, fminus


def _undiag_transform(xi, fplus, fminus):
    half = np.exp(0.5j * xi)
    fr = (fplus + half * fminus) / np.sqrt(2.0)
    fp = (-np.conj(half) * fplus + fminus) / np.sqrt(2.0)
    return fr, fp


@dataclass
class BandSplit:
    """Frequency decomposition of a contour-shifted lattice field.

    Parts are complex functions of xi in [-pi, pi): f1p (low band,
    |xi| <= 2 K eps), f2p (middle), f3p (high) on the branch moving
    with the waves, fm the counter-moving branch.  The parts of the
    co-moving branch add back to it exactly.
    """

    xi: np.ndarray
    f1p: np.ndarray
    f2p: np.ndarray
    f3p: np.ndarray
    fm: np.ndarray
    c1eps: float
    t: float
    offset: int
    length: int

    @property
    def fplus(self):
        return self.f1p + self.f2p + self.f3p

    def reconstruct(self):
        """Invert back to the weighted field e^{k1 eps n} w."""
        xi = fft.ifftshift(self.xi)
        fplus = fft.ifftshift(self.fplus)
        fminus = fft.ifftshift(self.fm)
        phase = np.exp(-1j * self.c1eps * self.t * xi)
        fr, fp = _undiag_transform(xi, phase * fplus, phase * fminus)
        ramp = np.exp(1j * xi * self.offset)
        r = fft.ifft(fr * ramp) * np.sqrt(2.0 * np.pi)
        p = fft.ifft(fp * ramp) * np.sqrt(2.0 * np.pi)
        return LatticeField(self.offset, r.real[: self.length],
                            p.real[: self.length])


def band_split(w, eps, k1=1.0, t=0.0):
    """Split a lattice field into moving-frame frequency bands.

    The contour shift to xi + i k1 eps is realized by weighting with
    e^{k1 eps n} in physical space before transforming; the branch
    phases carry e^{i c1eps t xi}, c1eps = speed_of_eps(k1 eps), so band
    contents are stationary in the frame of the slowest wave.  The
    cutoffs are BAND_K eps and BAND_DELTA.
    """
    if not 0.0 < eps < np.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    c1eps = speed_of_eps(k1 * eps)
    K, delta = BAND_K, BAND_DELTA
    length = len(w)
    if length * K * eps < 4.0 * np.pi:
        raise ValueError(
            "window of %d sites cannot resolve the low band; need at "
            "least %d" % (length, int(np.ceil(4.0 * np.pi / (K * eps))))
        )
    n_fft = 1 << max(int(np.ceil(np.log2(2 * length))), 8)
    ramp = np.exp(k1 * eps * w.sites)
    wr = np.zeros(n_fft)
    wp = np.zeros(n_fft)
    wr[:length] = w.r * ramp
    wp[:length] = w.p * ramp
    xi = 2.0 * np.pi * fft.fftfreq(n_fft)
    shift = np.exp(-1j * xi * w.offset)
    fr = fft.fft(wr) * shift / np.sqrt(2.0 * np.pi)
    fp = fft.fft(wp) * shift / np.sqrt(2.0 * np.pi)
    fplus, fminus = _diag_transform(xi, (fr, fp))
    phase = np.exp(1j * c1eps * t * xi)
    fplus = phase * fplus
    fminus = phase * fminus
    xi_s = fft.fftshift(xi)
    fplus = fft.fftshift(fplus)
    fminus = fft.fftshift(fminus)
    low = smooth_cutoff(xi_s / (K * eps))
    wide = smooth_cutoff(xi_s / delta)
    return BandSplit(
        xi=xi_s,
        f1p=low * fplus,
        f2p=(wide - low) * fplus,
        f3p=(1.0 - wide) * fplus,
        fm=fminus,
        c1eps=c1eps,
        t=t,
        offset=w.offset,
        length=length,
    )


# ---------------------------------------------------------------------------
# dispersion margins on the shifted contour


def lambda_branches(xi, c1eps):
    """The branch symbols (lambda_+, lambda_-) = (c1eps xi - 2 sin(xi/2),
    c1eps xi + 2 sin(xi/2)); accepts complex xi.

    lambda_+ is the KdV-like branch, (c1eps - 1) xi + xi^3/24 + O(xi^5)
    near xi = 0 (dispersion_check calls it lam_p); lambda_- is the
    transport branch, (c1eps + 1) xi near 0.
    """
    xi = np.asarray(xi)
    s = 2.0 * np.sin(xi / 2.0)
    return c1eps * xi - s, c1eps * xi + s


@dataclass
class DispersionReport:
    K: float
    delta: float
    c1eps: float
    eta: np.ndarray
    margins: dict
    cubic_error: float
    cubic_scale: float

    @property
    def holds(self):
        return all(v > 0.0 for v in self.margins.values())


def dispersion_check(eps, a, k1=1.0):
    """Evaluate the shifted-contour branch bounds on a 10001-point
    eta-grid, with K = BAND_K and delta = BAND_DELTA.

    Checks, each on its own eta-range over [-pi/eps, pi/eps]:
      quadratic:  Im lambda_+ >= eps^3 a eta^2 / 16   (K <= |eta| <= 2 delta/eps)
      high_plus:  Im lambda_+ >= eps a (1 - cos delta)  (|eta| >= 2 delta/eps)
      minus:      Im lambda_- >= eps a                  (everywhere)
    plus the cubic-polynomial approximation error of lambda_+ on
    |eta| <= 2K, reported absolutely and relative to eps^5 <eta>^5.

    The high band starts where the quadratic band ends: the constant
    1 - cos(delta) needs eps |eta| >= 2 delta (half-angle under the
    cosine), and the two ranges together still cover everything past K.
    The quadratic range is empty unless eps < 2 delta / K; an eps that
    leaves it no grid point raises ValueError.
    """
    K, delta = BAND_K, BAND_DELTA
    if not 0.0 < a < 2.0 * k1:
        raise ValueError("a must lie in (0, 2 k1)")
    c1eps = speed_of_eps(k1 * eps)
    eta = np.linspace(-np.pi / eps, np.pi / eps, 10001)
    z = eps * (eta + 1j * a)
    lam_p, lam_m = lambda_branches(z, c1eps)
    margins = {}
    quad = (np.abs(eta) >= K) & (np.abs(eta) <= 2.0 * delta / eps)
    if not np.any(quad):
        raise ValueError("eps = %.9g leaves no grid point in the quadratic "
                         "band K <= |eta| <= 2 delta / eps; it needs "
                         "0 < eps < 2 delta / K = %g, less one grid step"
                         % (eps, 2.0 * delta / K))
    margins["quadratic"] = float(np.min(
        lam_p.imag[quad] - eps**3 * a * eta[quad] ** 2 / 16.0
    ))
    high = np.abs(eta) >= 2.0 * delta / eps
    margins["high_plus"] = float(np.min(
        lam_p.imag[high] - eps * a * (1.0 - np.cos(delta))
    ))
    margins["minus"] = float(np.min(lam_m.imag - eps * a))
    core = np.abs(eta) <= 2.0 * K
    zeta = eta[core] + 1j * a
    cubic = eps**3 / 24.0 * (zeta**3 + 4.0 * k1**2 * zeta)
    err = np.abs(lam_p[core] - cubic)
    bracket = (1.0 + eta[core] ** 2) ** 2.5
    return DispersionReport(
        K=K, delta=delta, c1eps=c1eps, eta=eta,
        margins=margins,
        cubic_error=float(np.max(err)),
        cubic_scale=float(np.max(err / (eps**5 * bracket))),
    )


# ---------------------------------------------------------------------------
# resolvent symbol bound and Fourier tail comparison


def _train_profile(family, eps):
    """KdV train slope profile at t=0, scaled onto the lattice:
    g(x) = eps^2 phi_N(eps x), the amplitude of a lattice wave at
    speed_of_eps(eps) (see waves)."""
    fam = SolitonFamily(list(family), [0.0] * len(family))
    ladder = TauLadder(fam, fam.n)
    span = 24.0 / (min(family) * eps)

    def g(x):
        return eps**2 * ladder.second_derivative(0.0, eps * np.asarray(x))

    return g, span


def transform_tail(family, eps, xi):
    """Series-transform and integral-transform of the scaled train
    profile on the given xi values, computed independently (integer
    samples against a fine trapezoid)."""
    g, span = _train_profile(family, eps)
    xi = np.asarray(xi, dtype=float)
    n = np.arange(-np.ceil(span), np.ceil(span) + 1.0)
    gn = g(n)
    disc = np.exp(-1j * np.outer(xi, n)) @ gn / np.sqrt(2.0 * np.pi)
    h = 0.25
    x = np.arange(-np.ceil(span), np.ceil(span) + h / 2.0, h)
    gx = g(x)
    cont = np.exp(-1j * np.outer(xi, x)) @ gx * h / np.sqrt(2.0 * np.pi)
    return disc, cont


@dataclass
class SymbolTailReport:
    symbol_sup: dict
    tail_diff: dict
    tail_slope: float
    tail_r_squared: float


def symbol_and_tail_check(eps_values, a, family=(1.0,),
                          tail_eps_values=None):
    """Two shifted-contour audits across a list of eps.

    (i) eps^2 * sup |m(xi + i a eps)| for the wave-speed resolvent
    symbol m(z) = z^2 / (c^2 z^2 - 4 sin^2(z/2)) (waves.rho_symbol) with
    the sonic normalization c = speed_of_eps(eps), on 4001 points of
    [-pi, pi] per eps.  (ii) the sup over [-pi, pi] of |series transform
    - integral transform| of the scaled train profile eps^2 phi_N(eps x)
    (_train_profile), with a log-linear fit of its decay against 1/eps.
    The tail differences are linear in that amplitude, so the slope does
    not depend on it.

    The tail difference drops below double precision near eps ~ 0.15
    for unit wave numbers, so the fit uses tail_eps_values when given
    (pick them large enough that e^{-pi^2/(2 k eps)} clears 1e-15).
    """
    eps_values = tuple(float(e) for e in eps_values)
    if len(eps_values) < 2:
        raise ValueError("need at least two eps values to compare")
    tail_eps = (eps_values if tail_eps_values is None
                else tuple(float(e) for e in tail_eps_values))
    if len(tail_eps) < 2:
        raise ValueError("need at least two tail eps values to fit")
    xi = np.linspace(-np.pi, np.pi, 4001)
    sym = {}
    tail = {}
    for eps in eps_values:
        m = rho_symbol(speed_of_eps(eps), xi + 1j * a * eps)
        sym[eps] = eps**2 * float(np.max(np.abs(m)))
    xi_tail = np.linspace(-np.pi, np.pi, 257)
    for eps in tail_eps:
        disc, cont = transform_tail(family, eps, xi_tail)
        tail[eps] = float(np.max(np.abs(disc - cont)))
    slope, _, r2 = _log_linear_fit(np.array([1.0 / e for e in tail_eps]),
                                   [tail[e] for e in tail_eps])
    return SymbolTailReport(symbol_sup=sym, tail_diff=tail,
                            tail_slope=slope, tail_r_squared=r2)


# ---------------------------------------------------------------------------
# scaled stability metrics


def _w_norm(f, state):
    total = 0.0
    for ci, xi in zip(state.c, state.x):
        spec = WeightSpec(kappa_of_speed(ci), xi, WeightKind.TWO_SIDED)
        total += weighted_norm(f, spec) ** 2
    return np.sqrt(total)


def _time_l2(times, series):
    return float(np.sqrt(np.trapezoid(np.asarray(series) ** 2, times)))


def stability_metrics(track, split, eps):
    """The five scaled suprema of the stability argument, with the
    tracked split standing in for the per-wave cascade pieces; all
    entries are proxies in that sense and marked as such.

    split is the split of `track`; its bound part v2 is the residuals of
    `track.states`, whose M2 and M4 norms are read from
    `track.series["v_l2"]` and `track.series["v_w"]`.
    """
    times = track.times
    states = track.states
    n = track.n_waves
    kap1 = kappa_of_speed(float(np.min(track.speeds[0])))
    dev = np.abs(track.speeds - track.speeds[0][None, :])
    xdot_gap = np.abs(track.xdot - track.speeds)
    m1 = float(np.max(np.sum(dev + xdot_gap, axis=1))) / eps**2
    out = {"M1": m1, "proxy": True}
    if split.track is not track:
        raise ValueError("split must carry the track it is measured with")
    v1_w = [_w_norm(f, s) for f, s in zip(split.free, states)]
    psi1 = [
        weighted_norm(s.residual, WeightSpec(kap1, s.x[0], WeightKind.SIGMOID))
        for s in states
    ]
    out["M2"] = float(np.max(track.series["v_l2"]) ** 2) / eps**3
    out["M3"] = float(np.max(split.free_l2)) / eps**1.5 + _time_l2(times, v1_w)
    out["M4"] = (float(np.max(psi1)) / eps**1.5
                 + _time_l2(times, track.series["v_w"]))
    m5 = 0.0
    for k in range(1, n + 1):
        xk = [
            weighted_norm(
                s.residual, WeightSpec(kap1, s.x[n - k], WeightKind.RIGHT_GROWING)
            )
            for s in states
        ]
        m5 += float(np.max(xk)) / eps**1.5 + _time_l2(times, xk)
    out["M5"] = m5
    return out
