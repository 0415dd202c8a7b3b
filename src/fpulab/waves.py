"""Solitary-wave profiles for FPU chains.

A traveling wave u(n, t) = (r_c, p_c)(n - c t) satisfies the scalar
profile equation

    c^2 r'' = (S - 2 + S^{-1}) V'(r),        (S f)(x) = f(x + 1),

with the momentum recovered through p = -c (S - 1)^{-1} r'.  For the Toda
potential the profile is known in closed form; for general normalized
potentials it is computed by a Petviashvili iteration in Fourier space.
Profiles are stored on a fine uniform grid whose spacing divides the unit
lattice spacing, so integer shifts are exact grid shifts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from functools import partial

import numpy as np
from scipy.interpolate import CubicSpline

from .kdv import _spectral_dx
from .lattice import LatticeField, PotentialModel, hamiltonian

_SECH2_SEED_TAIL = 22.0  # resolve profiles down to e^{-22} at the window edge


class DerivativeKind(Enum):
    DDX = "ddx"
    DDC = "ddc"


def speed_of_kappa(kappa):
    """Wave speed of the Toda soliton with parameter kappa."""
    return float(np.sinh(kappa) / kappa)


def kappa_of_speed(c):
    """Invert c = sinh(kappa)/kappa by safeguarded Newton.

    The initial guess kappa0 = sqrt(6(c-1)) is the KdV-regime expansion.
    """
    if c <= 1.0:
        raise ValueError("wave speed must exceed the sound speed 1")
    k = np.sqrt(6.0 * (c - 1.0))
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


def _next_pow2(n):
    return 1 << int(np.ceil(np.log2(max(2, n))))


def _profile_grid(kappa, steps_per_site, span):
    """Uniform grid covering [-span, span) with 1/h grid points per site."""
    steps = int(steps_per_site)
    if steps < 8:
        raise ValueError("oversampling must be at least 8 points per site")
    if span is None:
        span = _SECH2_SEED_TAIL / (2.0 * kappa)
    n = _next_pow2(int(np.ceil(2 * span * steps)))
    span = n // (2 * steps)
    if 2 * span * steps != n:
        # keep integer sites on the grid: bump to the next multiple
        n = 2 * span * steps
    h = 1.0 / steps
    x = (np.arange(n) - n // 2) * h
    return x, h, steps, span


def _even_part(values):
    """Symmetrize about x=0 on a grid with x_j = (j - n/2) h."""
    return 0.5 * (values + np.roll(values[::-1], 1))


def _momentum_from_r(r, h, c):
    """p = -c (S-1)^{-1} r' as a Fourier multiplier.

    The symbol -c i xi / (e^{i xi} - 1) tends to -c at xi = 0.  At nonzero
    multiples of 2 pi the true spectrum of r vanishes identically (the
    shift-difference relation forces it), so those bins carry only aliasing
    noise and are zeroed.
    """
    n = r.size
    xi = 2.0 * np.pi * np.fft.rfftfreq(n, d=h)
    denom = np.exp(1j * xi) - 1.0
    sing = np.abs(denom) < 1e-12
    denom[sing] = 1.0
    mult = -c * (1j * xi) / denom
    mult[sing] = 0.0
    mult[0] = -c
    return np.fft.irfft(mult * np.fft.rfft(r), n=n)


def _scalar_residual(r, dv_r, h, c):
    """sup |c^2 r'' - (S-2+S^{-1}) V'(r)| on the grid."""
    n = r.size
    xi = 2.0 * np.pi * np.fft.rfftfreq(n, d=h)
    sin2 = 4.0 * np.sin(xi / 2.0) ** 2
    res = np.fft.irfft(
        -(c**2) * xi**2 * np.fft.rfft(r) + sin2 * np.fft.rfft(dv_r), n=n
    )
    return float(np.max(np.abs(res)))


@dataclass
class WaveProfile:
    """Solitary-wave data on a fine grid, crest centered at 0.

    `x` spans [-span, span) with `steps` points per lattice site, so the
    integer sites are exact grid points.  `kappa` solves c = sinh(k)/k and
    2*kappa is the exponential decay rate of r.  Interpolation off the grid
    is cubic; the closed forms `exact` (r, p, dx r, dx p), when known, are
    used instead.
    """

    model_name: str
    c: float
    x: np.ndarray
    r: np.ndarray
    p: np.ndarray
    steps: int
    residual: float = np.nan
    iterations: int = 0
    method: str = "exact"
    residual_history: list = field(default_factory=list)
    exact: tuple = None

    def __post_init__(self):
        self._spline = None

    @property
    def eps(self):
        return float(np.sqrt(6.0 * (self.c - 1.0)))

    @property
    def kappa(self):
        return kappa_of_speed(self.c)

    @property
    def h(self):
        return 1.0 / self.steps

    @property
    def span(self):
        return int(round(-self.x[0]))

    def _eval(self, col, pts):
        pts = np.asarray(pts, dtype=float)
        if self.exact is not None:
            return self.exact[col](pts)
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


def _spline_at(spline, pts):
    """Values of a (multi-column) spline at pts, zero off its grid."""
    inside = (pts >= spline.x[0]) & (pts <= spline.x[-1])
    out = np.zeros(pts.shape + spline.c.shape[2:])
    out[inside] = spline(pts[inside])
    return out


def _dx_columns(profile):
    """(dx r, dx p) on the profile grid: closed form if known, else spectral."""
    if profile.exact is not None:
        return profile.exact[2](profile.x), profile.exact[3](profile.x)
    return _spectral_dx(profile.r, profile.h), _spectral_dx(profile.p, profile.h)


def _sech2(z):
    """sech(z)^2 as 4 e / (1 + e)^2 with e = exp(-2|z|): finite for every z."""
    e = np.exp(-2.0 * np.abs(z))
    return 4.0 * e / (1.0 + e) ** 2


def toda_forms(kappa):
    """Closed forms (r, p, dx r, dx p) of the Toda soliton with parameter
    kappa, as functions of the crest-relative position y:
    r(y) = log(1 + sinh(kappa)^2 sech(kappa y)^2) and
    p(y) = -sinh(kappa) (tanh kappa y - tanh kappa(y-1)).  sech^2 is taken
    from e^{-2 |kappa y|}, so no intermediate overflows.
    """
    s2 = np.sinh(kappa) ** 2

    def r_exact(y):
        return np.log1p(s2 * _sech2(kappa * y))

    def p_exact(y):
        return -np.sinh(kappa) * (np.tanh(kappa * y) - np.tanh(kappa * (y - 1.0)))

    def dr_exact(y):
        sech2 = _sech2(kappa * y)
        return -2.0 * kappa * s2 * sech2 * np.tanh(kappa * y) / (1.0 + s2 * sech2)

    def dp_exact(y):
        return -kappa * np.sinh(kappa) * (
            _sech2(kappa * y) - _sech2(kappa * (y - 1.0))
        )

    return r_exact, p_exact, dr_exact, dp_exact


def toda_soliton(kappa, steps_per_site=16, span=None):
    """Closed-form Toda lattice soliton with parameter kappa > 0 (see
    toda_forms): a single positive hump with tail rate 2 kappa, traveling
    at c = sinh(kappa)/kappa.
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    kappa = float(kappa)
    c = speed_of_kappa(kappa)
    x, h, steps, span = _profile_grid(kappa, steps_per_site, span)
    forms = toda_forms(kappa)
    return WaveProfile(
        model_name="toda",
        c=c,
        x=x,
        r=forms[0](x),
        p=forms[1](x),
        steps=steps,
        residual=0.0,
        method="exact",
        exact=forms,
    )


def _petviashvili(dv, c, x, h, seed, tol, max_iter, form):
    """Fixed-point iteration for the scalar profile equation.

    form="direct" iterates r <- M^2 * K[V'(r)] with K the ratio of the
    difference symbol to c^2 xi^2; form="split" moves the linear part of V'
    to the left-hand side, which contracts much faster near the sonic limit.
    The stabilizing factor M is the standard quadratic-nonlinearity choice.
    """
    n = x.size
    xi = 2.0 * np.pi * np.fft.rfftfreq(n, d=h)
    sin2 = 4.0 * np.sin(xi / 2.0) ** 2
    if form == "direct":
        with np.errstate(divide="ignore", invalid="ignore"):
            mult = sin2 / (c**2 * xi**2)
        mult[0] = 1.0 / c**2
        nonlinearity = dv
    else:
        denom = c**2 * xi**2 - sin2
        with np.errstate(divide="ignore", invalid="ignore"):
            mult = sin2 / denom
        mult[0] = 1.0 / (c**2 - 1.0)

        def nonlinearity(r):
            return dv(r) - r

    # bins beyond the analytic decay of the profile carry only roundoff;
    # zeroing them keeps the c^2 xi^2 amplification out of the residual
    kappa = kappa_of_speed(c)
    keep = xi <= max(8.0 * kappa, 65.0 * kappa)
    history = []
    r = seed.copy()
    for it in range(1, max_iter + 1):
        w = nonlinearity(r)
        kw = np.fft.irfft(mult * np.fft.rfft(w), n=n)
        denom_m = float(np.sum(r * kw))
        if denom_m == 0.0:
            break
        m_fac = float(np.sum(r * r)) / denom_m
        r = m_fac**2 * kw
        r = _even_part(r)
        r = np.fft.irfft(np.where(keep, np.fft.rfft(r), 0.0), n=n)
        res = _scalar_residual(r, dv(r), h, c)
        history.append(res)
        if res < tol:
            return r, history, True
        if it >= 30 and res > 0.5 * history[it - 26]:
            break  # stalled
    return r, history, False


def _recenter(r, x, h):
    """Quadratic fit through the three largest samples; shift crest to 0."""
    j = int(np.argmax(r))
    n = r.size
    y0, y1, y2 = r[(j - 1) % n], r[j], r[(j + 1) % n]
    curv = y0 - 2.0 * y1 + y2
    delta = 0.5 * (y0 - y2) / curv if curv != 0 else 0.0
    shift = x[j] + delta * h
    if shift == 0.0:
        return r
    xi = 2.0 * np.pi * np.fft.rfftfreq(n, d=h)
    return np.fft.irfft(np.exp(1j * xi * shift) * np.fft.rfft(r), n=n)


def solve_profile(
    model,
    c,
    steps_per_site=16,
    span=None,
    tol=1e-12,
    max_iter=500,
    seed=None,
):
    """Solve the traveling-wave profile equation by Petviashvili iteration.

    Parameters
    ----------
    model : PotentialModel
        must satisfy the normalization checks (V''(0)=1, cubic 1/6)
    c : float
        wave speed, 1 < c, small-amplitude regime
    seed : array, optional
        initial iterate on the solver grid; defaults to the KdV profile
        eps^2 sech^2(eps x), eps = sqrt(6(c-1))

    Raises
    ------
    RuntimeError
        if neither iteration form reaches the residual tolerance
    ValueError
        if the converged profile leaves the convexity region V'' > 0
    """
    if c <= 1.0:
        raise ValueError("wave speed must exceed 1")
    kappa = kappa_of_speed(c)
    x, h, steps, span = _profile_grid(kappa, steps_per_site, span)
    eps = np.sqrt(6.0 * (c - 1.0))
    if seed is None:
        seed = eps**2 / np.cosh(eps * x) ** 2
    dv = model._dv

    r, history, ok = _petviashvili(dv, c, x, h, seed, tol, max_iter, "direct")
    method = "direct"
    if not ok:
        r, history, ok = _petviashvili(dv, c, x, h, seed, tol, max_iter, "split")
        method = "split"
    if not ok:
        raise RuntimeError(
            f"Petviashvili iteration did not reach residual {tol:g} in "
            f"{max_iter} iterations (model {model.name}, c={c:g})"
        )
    r = _recenter(r, x, h)
    r = _even_part(r)

    probe = np.linspace(float(np.min(r)), float(np.max(r)), 65)
    if np.min(model(probe, order=2)) <= 0.0:
        raise ValueError("profile leaves the convexity region of the potential")

    p = _momentum_from_r(r, h, c)
    return WaveProfile(
        model_name=model.name,
        c=float(c),
        x=x,
        r=r,
        p=p,
        steps=steps,
        residual=history[-1],
        iterations=len(history),
        method=method,
        residual_history=history,
    )


def traveling_wave_residual(c, r, p, dr, dp, steps, model):
    """sup |c dx^2 u + J H''(u) dx u| for grid columns u = (r, p) and
    dx u = (dr, dp) with `steps` points per site, where integer shifts are
    exact grid shifts and dx^2 u is spectral.  Raises RuntimeError above
    1e-6: dx u is then not the x-direction of a traveling wave of speed c.
    """
    h = 1.0 / steps
    d2r = _spectral_dx(r, h, order=2)
    d2p = _spectral_dx(p, h, order=2)
    v2 = model(r, order=2)
    shift = lambda a, k: np.roll(a, -k * steps)
    res_r = c * d2r + (shift(dp, 1) - dp)
    res_p = c * d2p + (v2 * dr - shift(v2 * dr, -1))
    res = max(np.max(np.abs(res_r)), np.max(np.abs(res_p)))
    if res > 1e-6:
        raise RuntimeError(
            f"x-derivative violates the traveling-wave identity: {res:.3e}"
        )
    return res


def profile_derivative(profile, which, model, h_c=None):
    """x- or c-derivative of the wave profile, as a new profile object.

    DDX differentiates spectrally (or uses the closed form) and verifies
    the traveling-wave identity with traveling_wave_residual.
    DDC re-solves at c +- h_c and takes a central difference; the family is
    smooth in c near the sonic limit so the default step 1e-4 (c-1) keeps
    truncation and cancellation balanced.
    """
    which = DerivativeKind(which)
    if which is DerivativeKind.DDX:
        dr, dp = _dx_columns(profile)
        res = traveling_wave_residual(
            profile.c, profile.r, profile.p, dr, dp, profile.steps, model
        )
        out_r, out_p, label, resid = dr, dp, "ddx", res
    else:
        if h_c is None:
            h_c = 1e-4 * (profile.c - 1.0)
        lo, hi = profile.c - h_c, profile.c + h_c
        kwargs = dict(steps_per_site=profile.steps, span=profile.span)
        if profile.exact is not None:
            plus = toda_soliton(kappa_of_speed(hi), **kwargs)
            minus = toda_soliton(kappa_of_speed(lo), **kwargs)
        else:
            plus = solve_profile(model, hi, seed=profile.r, **kwargs)
            minus = solve_profile(model, lo, seed=profile.r, **kwargs)
        out_r = (plus.r - minus.r) / (2.0 * h_c)
        out_p = (plus.p - minus.p) / (2.0 * h_c)
        label, resid = "ddc", np.nan

    return WaveProfile(
        model_name=profile.model_name,
        c=profile.c,
        x=profile.x,
        r=out_r,
        p=out_p,
        steps=profile.steps,
        residual=resid,
        method=label,
    )


def profile_spline(profile, model):
    """Grid columns (r, p, dx r, dx p) of a profile, shape (grid, 4), and a
    function sampling one cubic spline through them, zero off the grid.

    The x-direction is profile_derivative's, so it has passed the
    traveling-wave identity check.
    """
    ddx = profile_derivative(profile, DerivativeKind.DDX, model)
    cols = np.column_stack([profile.r, profile.p, ddx.r, ddx.p])
    return cols, partial(_spline_at, CubicSpline(profile.x, cols))


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
    h = profile.h
    f = model._dv(profile.r) - profile.r
    fhat = np.fft.rfft(f)
    xi = 2.0 * np.pi * np.fft.rfftfreq(n, d=h)
    denom = c**2 * xi**2 - 4.0 * np.sin(xi / 2.0) ** 2
    denom[0] = 1.0
    m11 = c * xi**2 / denom
    m21 = -1j * xi * (np.exp(-1j * xi) - 1.0) / denom
    m11[0] = c / (c**2 - 1.0)
    m21[0] = -1.0 / (c**2 - 1.0)
    comp1 = np.fft.irfft(m11 * fhat, n=n)
    comp2 = np.fft.irfft(m21 * fhat, n=n)
    return WaveProfile(
        model_name=profile.model_name,
        c=c,
        x=profile.x,
        r=comp1,
        p=comp2,
        steps=profile.steps,
        method="rho",
    )


def j_inverse_dx_profile(profile):
    """J^{-1} applied to the x-derivative of the wave, on the profile grid.

    Uses the prefix-sum representation over integer shifts (exact grid
    shifts), which decays in both directions because dx r_c and dx p_c have
    zero mean.  Returns the two components as a profile-shaped object.
    """
    dr, dp = _dx_columns(profile)
    steps = profile.steps
    blocks_p = dp.reshape(-1, steps)
    blocks_r = dr.reshape(-1, steps)
    comp1 = np.cumsum(blocks_p, axis=0).reshape(-1)
    inclusive_r = np.cumsum(blocks_r, axis=0)
    comp2 = (inclusive_r - blocks_r).reshape(-1)
    return WaveProfile(
        model_name=profile.model_name,
        c=profile.c,
        x=profile.x,
        r=comp1,
        p=comp2,
        steps=profile.steps,
        method="j_inverse_dx",
    )


@dataclass
class EnergyCurve:
    """Solitary-wave energy along a family of speeds."""

    model_name: str
    c: np.ndarray
    energy: np.ndarray
    theta1: np.ndarray  # dH/dc by central differences on the c grid

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("c,energy,theta1\n")
            for c, e, t in zip(self.c, self.energy, self.theta1):
                fh.write(f"{c:.17g},{e:.17g},{t:.17g}\n")


def energy_curve(model, speeds, steps_per_site=16):
    """Lattice energy H(u_c) and theta1 = dH/dc along a speed grid."""
    speeds = np.asarray(speeds, dtype=float)
    if speeds.size < 3:
        raise ValueError("need at least three speeds for the derivative")
    energies = np.empty_like(speeds)
    for i, c in enumerate(speeds):
        prof = solve_profile(model, c, steps_per_site=steps_per_site)
        energies[i] = prof.energy(model)
    theta1 = np.gradient(energies, speeds)
    return EnergyCurve(model.name, speeds, energies, theta1)


# ---------------------------------------------------------------------------
# export


def profile_to_csv(profile, path):
    with open(path, "w") as fh:
        fh.write("x,r,p\n")
        for x, r, p in zip(profile.x, profile.r, profile.p):
            fh.write(f"{x:.17g},{r:.17g},{p:.17g}\n")


def profile_to_json(profile, path):
    meta = {
        "c": profile.c,
        "eps": profile.eps,
        "model": profile.model_name,
        "kappa": profile.kappa,
        "steps_per_site": profile.steps,
        "span": profile.span,
        "residual": None if np.isnan(profile.residual) else profile.residual,
        "iterations": profile.iterations,
        "method": profile.method,
    }
    with open(path, "w") as fh:
        json.dump(meta, fh, indent=1)
        fh.write("\n")
