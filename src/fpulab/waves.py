"""Solitary-wave profiles for FPU chains.

A traveling wave u(n, t) = (r_c, p_c)(n - c t) satisfies the scalar
profile equation

    c^2 r'' = (S - 2 + S^{-1}) V'(r),        (S f)(x) = f(x + 1),

with the momentum recovered through p = -c (S - 1)^{-1} r'.  For the Toda
potential the profile is known in closed form; for general normalized
potentials it is computed by a Petviashvili iteration in Fourier space.
Profiles are stored on a fine uniform grid of STEPS_PER_SITE points per
lattice site, so integer shifts are exact grid shifts.

The lattice-to-KdV scale is the one pair eps_of_speed / speed_of_eps,
c = 1 + eps^2 / 6.  Under the normalization V''(0) = V'''(0) = 1 a wave
of that speed peaks at eps^2 (1 + O(eps^2)) with sech width 1/eps: the
sonic limit of Friesecke and Pego (1999).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from typing import Callable

import numpy as np
from scipy import fft
from scipy.interpolate import CubicSpline

from .kdv import _sech2, _spectral_dx
from .lattice import LatticeField, hamiltonian

_SECH2_SEED_TAIL = 22.0  # resolve profiles down to e^{-22} at the window edge

STEPS_PER_SITE = 16  # profile grid points per lattice site
# Largest traveling-wave identity residual (traveling_wave_residual) an
# x-direction may carry.
IDENTITY_TOL = 1e-6
_H = 1.0 / STEPS_PER_SITE  # profile grid spacing


def speed_of_eps(eps):
    """Wave speed c = 1 + eps^2 / 6 of the KdV scale eps."""
    return 1.0 + eps**2 / 6.0


def eps_of_speed(c):
    """KdV scale eps = sqrt(6 (c - 1)) of the wave speed c, the inverse of
    speed_of_eps."""
    return np.sqrt(6.0 * (c - 1.0))


def speed_of_kappa(kappa):
    """Wave speed of the Toda soliton with parameter kappa."""
    return float(np.sinh(kappa) / kappa)


def kappa_of_speed(c):
    """Invert c = sinh(kappa)/kappa by safeguarded Newton.

    The initial guess kappa0 = eps_of_speed(c) is the KdV-regime expansion.
    The solutions of the last _KAPPA_MEMO distinct speeds are kept, so a
    speed asked for again (a tracked wave's window span, its modes and its
    weights) is solved once.  The guess is taken on every call, kept or
    not, so the public calls one call makes do not depend on what earlier
    calls left in the memo.
    """
    if c <= 1.0:
        raise ValueError("wave speed must exceed the sound speed 1")
    return _kappa_newton(float(c), eps_of_speed(c))


# distinct speeds whose kappa is kept: a tracked train asks for a few
# hundred per run
_KAPPA_MEMO = 1024


@lru_cache(maxsize=_KAPPA_MEMO)
def _kappa_newton(c, k):
    """Newton from the guess k; see kappa_of_speed."""
    lo, hi = 0.0, max(2.0 * k, 2.0 * np.arcsinh(2.0 * c) + 2.0)
    for _ in range(100):
        f = np.sinh(k) - c * k
        if f > 0:
            hi = k
        else:
            lo = k
        df = np.cosh(k) - c
        step = f / df if df > 0 else np.inf
        k_new = k - step
        if not lo < k_new < hi:
            k_new = 0.5 * (lo + hi)
        if abs(k_new - k) < 1e-15 * max(1.0, k):
            return float(k_new)
        k = k_new
    return float(k)


def _grid_size(kappa, span):
    """Point count and half-width in sites of the profile grid on
    [-span, span); the default span resolves the profile down to
    e^{-_SECH2_SEED_TAIL} at the edge.  The point count is the power of
    two at or above 2 span STEPS_PER_SITE, and at least 2 STEPS_PER_SITE,
    so the grid holds a whole number of sites, one at the least."""
    if span is None:
        span = _SECH2_SEED_TAIL / (2.0 * kappa)
    n = max(2 * STEPS_PER_SITE, int(np.ceil(2 * span * STEPS_PER_SITE)))
    n = 1 << int(np.ceil(np.log2(n)))
    return n, n // (2 * STEPS_PER_SITE)


def _profile_grid(kappa, span):
    """Uniform grid covering [-span, span) with STEPS_PER_SITE points per
    site, and its half-width span in sites."""
    n, span = _grid_size(kappa, span)
    x = (np.arange(n) - n // 2) * _H
    return x, span


def _even_part(values):
    """Symmetrize about x=0 on a grid with x_j = (j - n/2) _H."""
    return 0.5 * (values + np.roll(values[::-1], 1))


def _momentum_from_r(r, c):
    """p = -c (S-1)^{-1} r' as a Fourier multiplier.

    The symbol -c i xi / (e^{i xi} - 1) tends to -c at xi = 0.  At nonzero
    multiples of 2 pi the true spectrum of r vanishes identically (the
    shift-difference relation forces it), so those bins carry only aliasing
    noise and are zeroed.
    """
    n = r.size
    xi = 2.0 * np.pi * fft.rfftfreq(n, d=_H)
    denom = np.exp(1j * xi) - 1.0
    sing = np.abs(denom) < 1e-12
    denom[sing] = 1.0
    mult = -c * (1j * xi) / denom
    mult[sing] = 0.0
    mult[0] = -c
    return fft.irfft(mult * fft.rfft(r), n=n)


def _scalar_residual(r_hat, v_hat, xi, sin2, c):
    """sup |c^2 r'' - (S-2+S^{-1}) V'(r)| on the grid from the spectra of
    r and V'(r) at the frequencies xi, with sin2 = 4 sin^2(xi/2)."""
    res = fft.irfft(-(c**2) * xi**2 * r_hat + sin2 * v_hat)
    return float(np.max(np.abs(res)))


@dataclass
class WaveProfile:
    """Solitary-wave data on a fine grid, crest centered at 0.

    `x` spans [-span, span) with STEPS_PER_SITE points per lattice site,
    so the integer sites are exact grid points.  `kappa` solves
    c = sinh(k)/k and 2*kappa is the exponential decay rate of r.
    Interpolation off the grid is cubic.  When the closed forms are
    known, `exact` is their evaluator: exact(y) samples r, p and their x-
    and c-derivatives at the crest-relative points y (_TodaPoints), and
    r_at and p_at read it instead.  `iterations` is the length of the
    solver's residual history.
    """

    model_name: str
    c: float
    x: np.ndarray
    r: np.ndarray
    p: np.ndarray
    residual: float = np.nan
    method: str = "exact"
    residual_history: list = field(default_factory=list)
    exact: Callable = None

    def __post_init__(self):
        self._spline = None

    @property
    def eps(self):
        return float(eps_of_speed(self.c))

    @property
    def kappa(self):
        return kappa_of_speed(self.c)

    @property
    def iterations(self):
        return len(self.residual_history)

    @property
    def span(self):
        return int(round(-self.x[0]))

    def _eval(self, col, pts):
        pts = np.asarray(pts, dtype=float)
        if self.exact is not None:
            at = self.exact(pts)
            return at.r() if col == 0 else at.p()
        if self._spline is None:
            self._spline = CubicSpline(self.x, np.column_stack([self.r, self.p]))
        return _spline_at(self._spline, pts)[..., col]

    def r_at(self, pts):
        return self._eval(0, pts)

    def p_at(self, pts):
        return self._eval(1, pts)

    def lattice_field(self, offset=None, length=None, position=0.0):
        """Sample (r_c, p_c)(n - position) on a window of integer sites."""
        if offset is None:
            offset = -self.span
        if length is None:
            length = 2 * self.span
        sites = offset + np.arange(length)
        rel = sites - position
        return LatticeField(int(offset), self.r_at(rel), self.p_at(rel))

    def energy(self, model):
        """Lattice Hamiltonian of the sampled profile."""
        return hamiltonian(self.lattice_field(), model)

    def as_dict(self):
        return {
            "c": self.c,
            "eps": self.eps,
            "model": self.model_name,
            "kappa": self.kappa,
            "steps_per_site": STEPS_PER_SITE,
            "span": self.span,
            "residual": self.residual,
            "iterations": self.iterations,
            "method": self.method,
        }


def _spline_at(spline, pts):
    """Values of a (multi-column) spline at pts, zero off its grid."""
    inside = (pts >= spline.x[0]) & (pts <= spline.x[-1])
    out = np.zeros(pts.shape + spline.c.shape[2:])
    out[inside] = spline(pts[inside])
    return out


class _TodaPoints:
    """The Toda closed forms with parameter kappa at the crest-relative
    points y, one method per form: the wave r, p of toda_soliton, its
    x-derivatives dr, dp and its c-derivatives dcr, dcp at fixed y,
    (dkappa/dc) d/dkappa with dc/dkappa = (kappa cosh kappa - sinh kappa)
    / kappa^2.  toda_soliton(kappa).exact(y) is this evaluator.  sech^2
    and tanh at kappa y and at kappa (y - 1) are each evaluated once, on
    first use, so one object samples all six forms from two sech^2 and
    two tanh evaluations, and a single form evaluates only what it reads.
    sech^2 is taken from e^{-2 |z|} (_sech2), so no intermediate overflows.
    """

    def __init__(self, kappa, y):
        self.kappa, self.y = kappa, y
        self.sh = np.sinh(kappa)
        self.s2 = self.sh**2

    @cached_property
    def sech2(self):
        return _sech2(self.kappa * self.y)

    @cached_property
    def sech2_back(self):
        return _sech2(self.kappa * (self.y - 1.0))

    @cached_property
    def tanh(self):
        return np.tanh(self.kappa * self.y)

    @cached_property
    def tanh_back(self):
        return np.tanh(self.kappa * (self.y - 1.0))

    @cached_property
    def dkappa_dc(self):
        kappa = self.kappa
        return kappa**2 / (kappa * np.cosh(kappa) - self.sh)

    def r(self):
        return np.log1p(self.s2 * self.sech2)

    def p(self):
        return -self.sh * (self.tanh - self.tanh_back)

    def dr(self):
        return (-2.0 * self.kappa * self.s2 * self.sech2 * self.tanh
                / (1.0 + self.s2 * self.sech2))

    def dp(self):
        return -self.kappa * self.sh * (self.sech2 - self.sech2_back)

    def dcr(self):
        y, sech2 = self.y, self.sech2
        dr_dkappa = (np.sinh(2.0 * self.kappa) - 2.0 * self.s2 * y * self.tanh) * sech2
        return self.dkappa_dc * dr_dkappa / (1.0 + self.s2 * sech2)

    def dcp(self):
        y = self.y
        return -self.dkappa_dc * (
            np.cosh(self.kappa) * (self.tanh - self.tanh_back)
            + self.sh * (y * self.sech2 - (y - 1.0) * self.sech2_back)
        )


def toda_soliton(kappa, span=None):
    """Closed-form Toda lattice soliton with parameter kappa > 0, a single
    positive hump with tail rate 2 kappa, traveling at c = sinh(kappa)/kappa:
    r(y) = log(1 + sinh(kappa)^2 sech(kappa y)^2) and
    p(y) = -sinh(kappa) (tanh kappa y - tanh kappa(y-1)) at the
    crest-relative position y.  Its `exact` is the _TodaPoints evaluator
    of these forms, their x-derivatives and their c-derivatives.
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    kappa = float(kappa)
    c = speed_of_kappa(kappa)
    x, _ = _profile_grid(kappa, span)
    exact = partial(_TodaPoints, kappa)
    at = exact(x)
    return WaveProfile(
        model_name="toda",
        c=c,
        x=x,
        r=at.r(),
        p=at.p(),
        residual=0.0,
        method="exact",
        exact=exact,
    )


def _petviashvili(model, c, seed, tol, max_iter):
    """Petviashvili iteration for the scalar profile equation, in the split
    form: the linear part of V' sits on the left-hand side, so each step is
    r <- M^2 K[V'(r) - r] with K = 4 sin^2(xi/2) / (c^2 xi^2 - 4 sin^2(xi/2)),
    which contracts near the sonic limit.  The stabilizing factor M is the
    standard quadratic-nonlinearity choice.

    The iterate is carried as its rfft spectrum r_hat beside v_hat, that of
    V'(r): one forward transform and one V' per iteration.  On this grid,
    x_j = (j - n/2) h, the real part of a spectrum is the even part about 0,
    so r_hat keeps the real part of M^2 K[v_hat - r_hat] for xi <= 65 kappa
    and zero elsewhere: every iterate is even, crest at 0, and the c^2 xi^2
    of the residual sees no high-band roundoff.

    Returns the iterate and its residual history, one entry per iteration.
    Raises RuntimeError when the residual stalls (it has not halved over the
    last 25 iterations, checked from iteration 30 on) or when max_iter
    iterations end above tol.
    """
    dv = model.dv
    where = f"(model {model.name}, c={c:g})"
    n = seed.size
    xi = 2.0 * np.pi * fft.rfftfreq(n, d=_H)
    sin2 = 4.0 * np.sin(xi / 2.0) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        mult = sin2 / (c**2 * xi**2 - sin2)
    mult[0] = 1.0 / (c**2 - 1.0)

    # bins beyond the analytic decay of the profile carry only roundoff
    keep = xi <= 65.0 * kappa_of_speed(c)
    # Parseval weights of an rfft spectrum: sum_j a_j b_j = sum over bins of
    # twice, at DC and Nyquist once, Re(conj(a_hat) b_hat) / n
    parseval = np.full(xi.size, 2.0 / n)
    parseval[0] = 1.0 / n
    if n % 2 == 0:
        parseval[-1] = 1.0 / n
    history = []
    r, r_hat, v_hat = seed, fft.rfft(seed), fft.rfft(dv(seed))
    for it in range(1, max_iter + 1):
        kw_hat = mult * (v_hat - r_hat)
        denom_m = float(np.vdot(parseval * r_hat, kw_hat).real)
        if denom_m == 0.0:
            raise RuntimeError(
                f"Petviashvili iterate vanished at iteration {it} {where}"
            )
        m_fac = float(np.sum(r * r)) / denom_m
        r_hat = np.where(keep, m_fac**2 * kw_hat.real, 0.0)
        r = fft.irfft(r_hat, n=n)
        v_hat = fft.rfft(dv(r))
        res = _scalar_residual(r_hat, v_hat, xi, sin2, c)
        history.append(res)
        if res < tol:
            return r, history
        if it >= 30 and res > 0.5 * history[it - 26]:
            raise RuntimeError(
                f"Petviashvili iteration stalled at iteration {it}: residual "
                f"{res:.3e}, {history[it - 26]:.3e} 25 iterations earlier "
                f"{where}"
            )
    raise RuntimeError(
        f"Petviashvili iteration did not reach residual {tol:g} in "
        f"{max_iter} iterations {where}"
    )


def solve_profile(model, c, span=None, tol=1e-12, max_iter=500, seed=None):
    """Solve the traveling-wave profile equation by the split-form
    Petviashvili iteration (_petviashvili).

    Parameters
    ----------
    model : PotentialModel
        must satisfy the normalization checks (V''(0)=1, cubic 1/6)
    c : float
        wave speed, 1 < c.  At the default tol 1e-12 alpha-FPU converges up
        to c = 2 and Toda up to about c = 1.675; from about c = 1.7 on the
        Toda iteration diverges and raises RuntimeError("... stalled ...").
    seed : array, optional
        initial iterate on the solver grid; defaults to the KdV profile
        eps^2 sech^2(eps x), eps = eps_of_speed(c)

    Raises
    ------
    RuntimeError
        if the iteration stalls or does not reach the residual tolerance
        in max_iter iterations; the message says which
    ValueError
        if the converged profile leaves the convexity region V'' > 0
    """
    if c <= 1.0:
        raise ValueError("wave speed must exceed 1")
    x, _ = _profile_grid(kappa_of_speed(c), span)
    eps = eps_of_speed(c)
    if seed is None:
        seed = eps**2 * _sech2(eps * x)

    r, history = _petviashvili(model, c, seed, tol, max_iter)
    # the iterate's spectrum is real; irfft still leaves ~1e-16 asymmetry
    r = _even_part(r)

    probe = np.linspace(float(np.min(r)), float(np.max(r)), 65)
    if np.min(model.d2v(probe)) <= 0.0:
        raise ValueError("profile leaves the convexity region of the potential")

    p = _momentum_from_r(r, c)
    return WaveProfile(
        model_name=model.name,
        c=float(c),
        x=x,
        r=r,
        p=p,
        residual=history[-1],
        method="split",
        residual_history=history,
    )


def traveling_wave_residual(c, r, p, dr, dp, model):
    """sup |c dx^2 u + J H''(u) dx u| for profile-grid columns u = (r, p)
    and dx u = (dr, dp), where integer shifts are exact grid shifts and
    dx^2 u is spectral.  Raises RuntimeError above IDENTITY_TOL: dx u is
    then not the x-direction of a traveling wave of speed c.
    """
    return _identity_residual(c, r, p, dr, dp, _spectral_dx(r, _H, order=2),
                              _spectral_dx(p, _H, order=2), model)


def _identity_residual(c, r, p, dr, dp, d2r, d2p, model):
    """traveling_wave_residual with the spectral dx^2 u = (d2r, d2p) given."""
    s = STEPS_PER_SITE
    # one-site differences on the periodic grid, a(x + 1) - a(x) and
    # b(x) - b(x - 1), formed by slicing with np.roll's wrap-around
    ahead = np.empty_like(dp)
    np.subtract(dp[s:], dp[:-s], out=ahead[:-s])
    np.subtract(dp[:s], dp[-s:], out=ahead[-s:])
    flux = model.d2v(r) * dr
    behind = np.empty_like(flux)
    np.subtract(flux[s:], flux[:-s], out=behind[s:])
    np.subtract(flux[:s], flux[-s:], out=behind[:s])
    res_r = c * d2r + ahead
    res_p = c * d2p + behind
    res = max(np.max(np.abs(res_r)), np.max(np.abs(res_p)))
    if res > IDENTITY_TOL:
        raise RuntimeError(
            f"x-derivative violates the traveling-wave identity: residual "
            f"{res:.3e} exceeds {IDENTITY_TOL:.0e} (model {model.name}, c={c:g})"
        )
    return res


def profile_derivative(profile, model):
    """x-derivative of the wave profile, as a new profile object: the
    closed form when known, else spectral, verified against the
    traveling-wave identity (traveling_wave_residual).
    """
    if profile.exact is not None:
        at = profile.exact(profile.x)
        dr, dp = at.dr(), at.dp()
    else:
        dr, dp = _spectral_dx(profile.r, _H), _spectral_dx(profile.p, _H)
    res = traveling_wave_residual(profile.c, profile.r, profile.p, dr, dp, model)
    return WaveProfile(profile.model_name, profile.c, profile.x, dr, dp,
                       residual=res, method="ddx")


def profile_spline(profile, model):
    """Grid columns (r, p, dx r, dx p, dx^2 r, dx^2 p) of a profile, shape
    (grid, 6), and the cubic spline through the first four.

    The x-direction is profile_derivative's, so it has passed the
    traveling-wave identity check; dx^2 r and dx^2 p are spectral, the
    derivatives that check takes.  ProfileTable stacks the columns and
    the spline coefficients of the four nodes of a bracket, so that one
    weighted sum gives the identity check's input at an interpolated
    speed and one piecewise-polynomial evaluation samples all four.
    """
    ddx = profile_derivative(profile, model)
    cols = np.column_stack([profile.r, profile.p, ddx.r, ddx.p,
                            _spectral_dx(profile.r, _H, order=2),
                            _spectral_dx(profile.p, _H, order=2)])
    return cols, CubicSpline(profile.x, cols[:, :4])


def rho_symbol(c, z):
    """Scalar symbol z^2 / (c^2 z^2 - 4 sin^2(z/2)); z may be complex."""
    z = np.asarray(z, dtype=complex)
    denom = c**2 * z**2 - 4.0 * np.sin(z / 2.0) ** 2
    out = np.empty_like(z)
    small = np.abs(z) < 1e-8
    out[~small] = z[~small] ** 2 / denom[~small]
    out[small] = 1.0 / (c**2 - 1.0)
    return out


def rho_profile(profile, model):
    """Auxiliary profile: x-derivative of the inverse of (c dx + J),
    applied to H'(u_c) - u_c.

    Only the first component of H'(u_c) - u_c is nonzero, namely
    V'(r_c) - r_c, so the result reads off one column of the 2x2
    multiplier matrix.  The symbol denominator c^2 xi^2 - 4 sin^2(xi/2)
    is positive away from the removable zero at xi = 0.
    """
    if profile.c <= 1.0:
        raise ValueError("requires a supersonic profile")
    c = profile.c
    n = profile.x.size
    f = model.dv(profile.r) - profile.r
    fhat = fft.rfft(f)
    xi = 2.0 * np.pi * fft.rfftfreq(n, d=_H)
    denom = c**2 * xi**2 - 4.0 * np.sin(xi / 2.0) ** 2
    denom[0] = 1.0
    m11 = c * xi**2 / denom
    m21 = -1j * xi * (np.exp(-1j * xi) - 1.0) / denom
    m11[0] = c / (c**2 - 1.0)
    m21[0] = -1.0 / (c**2 - 1.0)
    comp1 = fft.irfft(m11 * fhat, n=n)
    comp2 = fft.irfft(m21 * fhat, n=n)
    return WaveProfile(profile.model_name, c, profile.x, comp1, comp2,
                       method="rho")


@dataclass
class EnergyCurve:
    """Solitary-wave energy along a family of speeds."""

    model_name: str
    c: np.ndarray
    energy: np.ndarray
    theta1: np.ndarray  # dH/dc by central differences on the c grid


def energy_curve(model, speeds):
    """Lattice energy H(u_c) and theta1 = dH/dc along a speed grid."""
    speeds = np.asarray(speeds, dtype=float)
    if speeds.size < 3:
        raise ValueError("need at least three speeds for the derivative")
    energies = np.empty_like(speeds)
    for i, c in enumerate(speeds):
        prof = solve_profile(model, c)
        energies[i] = prof.energy(model)
    theta1 = np.gradient(energies, speeds)
    return EnergyCurve(model.name, speeds, energies, theta1)
