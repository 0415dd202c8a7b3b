"""Ladder transforms linking multi-soliton potentials of neighboring sizes.

The m- and (m-1)-soliton tau potentials form a transform pair: a
first-order relation couples their log-derivatives, the normalized tau
quotient psi (log_psi in the soliton module) solves the associated
linear problem, and linearizing the pair yields integral maps that carry
perturbations of one level to perturbations of the next.  This module
implements those maps in both directions, the secular projections that
remove parameter drift from the linearized flow, the pseudospectral
linearized evolution itself, and the conjugation that walks a
perturbation of the full N-soliton down the ladder to the free
dispersive flow.

Every kernel is a quotient of tau functions with huge dynamic range, so
all of them are assembled in the log domain and applied through one-step
recurrences; nothing overflows even when the window spans hundreds of
decay lengths.  The integral maps use trapezoid quadrature on the working
grid plus the leading endpoint correction, which restores fourth-order
accuracy without leaving the grid.  The ladder's conventions (level
phases, tau quotient, parameter modes, pairing and weighted norm) come
from the soliton module.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .kdv import (
    GridField,
    LadderPhases,
    SolitonFamily,
    TauLadder,
    exp_weighted_norm,
    log_psi,
    phase_ladder,
    profile_gradient,
    secular_basis,
    simpson_pairing,
)

MISMATCH_TOL = 1e-5
ORTHOGONALITY_TOL = 1e-6
GRAM_COND_LIMIT = 1e12
SECULAR_RESIDUAL_TOL = 1e-8


# -- level fields ----------------------------------------------------------

def _level_potential(ladder, m, t, x):
    """v^m with its tail constant, so differences across levels are exact."""
    tail = -float(ladder.family.k[m:].sum())
    if m == 0:
        return np.full_like(x, tail)
    return ladder.tau(m).v(t, x) + tail


def _level_slope(ladder, m, t, x):
    """d/dx v^m (the level-m KdV profile)."""
    if m == 0:
        return np.zeros_like(x)
    return ladder.tau(m).second_derivative(t, x)


def _level_modes(ladder, m, t, x):
    """Shift and speed modes of level m: d/d(anchor) and d/dk_m of
    d/dx v^m, the other level-m parameters held fixed."""
    return profile_gradient(ladder.level_family(m), t, x, m - 1)


def _crest_index(x, xc):
    dx = x[1] - x[0]
    j = int(round((xc - x[0]) / dx))
    if not 0 < j < len(x) - 1 or abs(x[j] - xc) > 1e-9:
        raise ValueError(
            f"integral split point {xc:.6g} is not an interior grid point; "
            "shift the window so the level anchor lands on the grid"
        )
    return j


# -- the transform pair and its linearization ------------------------------

def backlund_residual(ladder: LadderPhases, m, t, x) -> float:
    """Max defect of the first-order relation tying levels m and m-1.

    The pair satisfies d/dx (v^m + v^{m-1}) = k_m^2 - (v^m - v^{m-1})^2
    when the level phases come from phase_ladder; with unshifted phases
    the defect is order one, which makes this the cheapest integrity
    check on a ladder.  Derivatives come from the minor expansion (exact
    in x), so the residual reflects the phases alone, not differencing.
    """
    if not 1 <= m <= ladder.family.n:
        raise ValueError("level must lie in 1..N")
    x = np.asarray(x, dtype=float)
    if x[1] - x[0] > 0.1 / ladder.family.k[-1] * (1.0 + 1e-9):
        raise ValueError("grid too coarse for the steepest soliton")
    km = float(ladder.family.k[m - 1])
    dsum = _level_slope(ladder, m, t, x) + _level_slope(ladder, m - 1, t, x)
    diff = (_level_potential(ladder, m, t, x)
            - _level_potential(ladder, m - 1, t, x))
    return float(np.max(np.abs(dsum - km**2 + diff**2)))


def linearized_forward(w_prev: GridField, ladder: LadderPhases, m, t) -> GridField:
    """Carry a level-(m-1) perturbation up to level m.

    Solves the linearized pair relation for w^m given w^{m-1}: a
    first-order ODE in x whose integrating factor is psi^{-2}, integrated
    outward from the level-m crest by a one-step recurrence with the
    trapezoid rule plus endpoint correction.  The homogeneous solution
    psi^2 is fixed by the speed-mode orthogonality <w^m, dx dk_m v^m> = 0;
    the shift-mode orthogonality then holds automatically and both are
    verified before returning.
    """
    x = w_prev.x
    dx = w_prev.dx
    w0 = np.asarray(w_prev.values, dtype=float)
    lp = log_psi(ladder, m, t, x)
    dv = (_level_potential(ladder, m, t, x)
          - _level_potential(ladder, m - 1, t, x))
    u = 4.0 * dv * w0
    j0 = _crest_index(x, ladder.crest(m, t))

    integral = np.zeros_like(x)
    for j in range(j0, len(x) - 1):
        r = np.exp(2.0 * (lp[j + 1] - lp[j]))
        integral[j + 1] = r * integral[j] + 0.5 * dx * (r * u[j] + u[j + 1])
    for j in range(j0, 0, -1):
        s = np.exp(2.0 * (lp[j - 1] - lp[j]))
        integral[j - 1] = s * integral[j] - 0.5 * dx * (s * u[j] + u[j - 1])
    # endpoint correction: psi^2 (u/psi^2)' = u' + 2 u dv stays bounded,
    # and the constant-endpoint part is a psi^2 multiple that the
    # homogeneous solve absorbs anyway
    edge = np.gradient(u, dx, edge_order=2) + 2.0 * u * dv
    integral -= dx**2 / 12.0 * (edge - np.exp(2.0 * (lp - lp[j0])) * edge[j0])

    raw = -w0 + integral
    mode = np.exp(2.0 * (lp - lp.max()))
    shift, speed = _level_modes(ladder, m, t, x)
    alpha = (-simpson_pairing(raw, speed, dx)
             / simpson_pairing(mode, speed, dx))
    out = raw + alpha * mode

    scale = np.sqrt(simpson_pairing(out, out, dx)) or 1.0
    for label, fld in (("shift", shift), ("speed", speed)):
        rel = abs(simpson_pairing(out, fld, dx))
        rel /= scale * np.sqrt(simpson_pairing(fld, fld, dx))
        if rel > ORTHOGONALITY_TOL:
            raise RuntimeError(
                f"{label}-mode orthogonality residual {rel:.3e} after the "
                "homogeneous solve; refine the grid or enlarge the window"
            )
    return GridField(w_prev.x0, dx, out)


def linearized_inverse(w_field: GridField, ladder: LadderPhases, m, t) -> GridField:
    """Carry a level-m perturbation down to level m-1.

    The descending direction has no free constant: the solution decaying
    on the right is a tail integral from +infinity, the one decaying on
    the left a tail integral from -infinity, and they coincide exactly
    when the input satisfies the level-m shift orthogonality.  Each side
    of the crest uses its own representation (that keeps the kernel
    contracting), and their disagreement at the crest is the membership
    test: beyond MISMATCH_TOL relative the input is rejected.
    """
    x = w_field.x
    dx = w_field.dx
    wm = np.asarray(w_field.values, dtype=float)
    lp = log_psi(ladder, m, t, x)
    dv = (_level_potential(ladder, m, t, x)
          - _level_potential(ladder, m - 1, t, x))
    u = 4.0 * dv * wm
    n = len(x)

    right = np.zeros(n)
    for j in range(n - 2, -1, -1):
        r = np.exp(2.0 * (lp[j + 1] - lp[j]))
        right[j] = r * right[j + 1] + 0.5 * dx * (u[j] + r * u[j + 1])
    left = np.zeros(n)
    for j in range(1, n):
        s = np.exp(2.0 * (lp[j - 1] - lp[j]))
        left[j] = s * left[j - 1] - 0.5 * dx * (u[j] + s * u[j - 1])
    correction = dx**2 / 12.0 * (np.gradient(u, dx, edge_order=2) - 2.0 * u * dv)
    right += correction
    left += correction

    j0 = _crest_index(x, ladder.crest(m, t))
    peak = np.max(np.abs(wm))
    if peak > 0.0:
        mismatch = abs(right[j0] - left[j0]) / peak
        if mismatch > MISMATCH_TOL:
            raise ValueError(
                f"tail representations disagree by {mismatch:.3e} at the "
                "crest; the input violates the level-m shift orthogonality"
            )
    out = -wm.copy()
    out[j0:] += right[j0:]
    out[:j0] += left[:j0]
    return GridField(w_field.x0, dx, out)


# -- secular projections ----------------------------------------------------

def _secular_coeffs(values, basis, dx, n):
    gram = np.empty((2 * n, 2 * n))
    rhs = np.empty(2 * n)
    etas = [fld.values for fld in basis.eta1] + [fld.values for fld in basis.eta2]
    xis = [fld.values for fld in basis.xi1] + [fld.values for fld in basis.xi2]
    for a, eta in enumerate(etas):
        rhs[a] = simpson_pairing(values, eta, dx)
        for b, xi in enumerate(xis):
            gram[a, b] = simpson_pairing(xi, eta, dx)
    if np.linalg.cond(gram) > GRAM_COND_LIMIT:
        raise ValueError("secular Gram matrix is ill-conditioned; "
                         "the parameter modes are numerically degenerate")
    coeffs = np.linalg.solve(gram, rhs)
    ranged = sum(c * xi for c, xi in zip(coeffs, xis))
    return coeffs, ranged, etas


def secular_projection(v: GridField, family: SolitonFamily, t, a):
    """Split v into its parameter-mode part P v and the remainder Q v.

    P v is the combination of the 2N profile gradients whose
    antiderivative pairings match those of v, obtained from the 2N x 2N
    Gram system; Q v = v - P v then satisfies every secular condition.
    The weight exponent a fixes the decay class and must leave room under
    the slowest soliton.
    """
    if not 0.0 < a < 2.0 * family.k[0]:
        raise ValueError("weight exponent must lie in (0, 2 k_1)")
    x = v.x
    basis = secular_basis(family, t, x)
    _, ranged, etas = _secular_coeffs(np.asarray(v.values, float), basis,
                                      v.dx, family.n)
    pv = GridField(v.x0, v.dx, ranged)
    qv = GridField(v.x0, v.dx, v.values - ranged)
    scale = np.sqrt(simpson_pairing(v.values, v.values, v.dx)) or 1.0
    for eta in etas:
        rel = abs(simpson_pairing(qv.values, eta, v.dx))
        rel /= scale * np.sqrt(simpson_pairing(eta, eta, v.dx))
        if rel > SECULAR_RESIDUAL_TOL:
            raise RuntimeError(
                f"secular condition residual {rel:.3e} after projection"
            )
    return pv, qv


def _secular_residual(values, basis, dx, n, scale):
    worst = 0.0
    for eta in [f.values for f in basis.eta1] + [f.values for f in basis.eta2]:
        rel = abs(simpson_pairing(values, eta, dx))
        rel /= scale * np.sqrt(simpson_pairing(eta, eta, dx))
        worst = max(worst, rel)
    return worst


# -- linearized evolution ----------------------------------------------------

@dataclass(frozen=True)
class Trajectory:
    """Recorded evolution samples: times, weighted norms, secular residuals.

    q_residual is NaN when no family was supplied.  final is the field at
    t1 on the (possibly comoving) grid.
    """

    t: np.ndarray
    weighted_norm: np.ndarray
    q_residual: np.ndarray
    final: GridField
    exponent: float
    frame_speed: float

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "weighted_norm", "q_residual"])
            for row in zip(self.t, self.weighted_norm, self.q_residual):
                writer.writerow([f"{row[0]:.17g}", f"{row[1]:.17g}",
                                 f"{row[2]:.17g}"])


def _dealias_mask(xi):
    return (np.abs(xi) <= (2.0 / 3.0) * np.abs(xi).max()).astype(float)


def _alias_fraction(vhat, xi):
    """Energy fraction at and beyond 90% of the dealiasing cutoff.

    Watching the top resolved sliver as well as the masked band catches
    marginal stage instability, which grows right at the band edge where
    a mask-only monitor is blind.
    """
    total = float(np.sum(np.abs(vhat) ** 2))
    if total == 0.0:
        return 0.0
    band = np.abs(xi) >= 0.9 * (2.0 / 3.0) * np.abs(xi).max()
    return float(np.sum(np.abs(vhat[band]) ** 2)) / total


class _SpectralFlow:
    """Integrating-factor RK4 stepper for d/dt v = -d^3x v + c dx v + N(t, v).

    The cubic-dispersion factor is applied exactly per mode; only the
    potential term goes through the RK4 stages, with 2/3-rule dealiasing
    on every product.  Instances are single-use per call site.
    """

    def __init__(self, n, dx, frame_speed):
        self.xi = 2.0 * np.pi * np.fft.rfftfreq(n, d=dx)
        self.sym = 1j * (self.xi**3 + frame_speed * self.xi)
        self.mask = _dealias_mask(self.xi)
        self.n = n

    def step(self, vhat, t, dt, term):
        half = np.exp(self.sym * (dt / 2.0))
        full = half * half
        k1 = term(t, vhat)
        k2 = term(t + dt / 2.0, half * (vhat + dt / 2.0 * k1))
        k3 = term(t + dt / 2.0, half * vhat + dt / 2.0 * k2)
        k4 = term(t + dt, full * vhat + dt * half * k3)
        return (full * vhat
                + dt / 6.0 * (full * k1 + 2.0 * half * (k2 + k3) + k4))

    def drift(self, vhat, dt):
        return np.exp(self.sym * dt) * vhat


def _plan_steps(t0, t1, dt):
    span = float(t1) - float(t0)
    if span <= 0.0:
        raise ValueError("need t1 > t0")
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    nsteps = max(1, int(round(span / dt)))
    return nsteps, span / nsteps


def _sponge_profile(x, spec):
    """Raised-cosine damping rate supported on [lo, hi]."""
    lo, hi, strength = spec
    if not lo < hi:
        raise ValueError("sponge interval must have lo < hi")
    s = np.zeros_like(x)
    inside = (x >= lo) & (x <= hi)
    s[inside] = strength * np.sin(np.pi * (x[inside] - lo) / (hi - lo)) ** 2
    return s


def linearized_kdv_evolve(v0: GridField, family, t0, t1, a, dt,
                          frame_speed=0.0, reproject_every=100,
                          record_every=None, measure_span=None,
                          sponge=None) -> Trajectory:
    """Evolve the linearized flow around the N-soliton (or around zero).

    The equation is d/dt v + d/dx(d^2/dx^2 v + 12 phi v) = 0 with phi the
    family profile; family=None drops the potential and the flow is then
    exact per Fourier mode for any dt.  The grid rides a frame moving at
    frame_speed: the potential is evaluated at the shifted positions and
    the weighted norm uses the frame coordinate, matching a weight that
    travels with the frame.  With a family present, the secular part is
    projected out every reproject_every steps (the continuous flow
    preserves the conditions; discretization drifts).

    measure_span restricts the weighted-norm integral to [lo, hi] in
    frame coordinates, which keeps the measurement away from window edges
    where the weight amplifies wrap-around debris.  sponge=(lo, hi,
    strength) absorbs outgoing radiation in that strip, emulating the
    whole-line problem on a periodic window; leave it off when measuring
    conserved quantities.
    """
    if family is not None and not 0.0 < a < 2.0 * family.k[0]:
        raise ValueError("weight exponent must lie in (0, 2 k_1)")
    x = v0.x
    dx = v0.dx
    nsteps, dt = _plan_steps(t0, t1, dt)
    if record_every is None:
        record_every = max(1, nsteps // 400)
    flow = _SpectralFlow(len(x), dx, frame_speed)
    damp = None if sponge is None else np.exp(-dt * _sponge_profile(x, sponge))

    if measure_span is None:
        sel = slice(None)
    else:
        lo, hi = measure_span
        sel = slice(*np.searchsorted(x, [lo, hi + dx / 2.0]))
    profile = None if family is None else TauLadder(family, family.n)

    def term(tau, vhat):
        phi = profile.second_derivative(tau, x + frame_speed * (tau - t0))
        vals = np.fft.irfft(vhat * flow.mask, n=flow.n)
        prod = np.fft.rfft(phi * vals)
        return -12j * flow.xi * prod * flow.mask

    vhat = np.fft.rfft(np.asarray(v0.values, dtype=float))
    times, norms, resid = [], [], []

    def basis_at(tau):
        return secular_basis(family, tau, x + frame_speed * (tau - t0))

    def record(tau, vhat):
        vals = np.fft.irfft(vhat, n=flow.n)
        if not np.all(np.isfinite(vals)):
            raise RuntimeError("evolution diverged (NaN)")
        frac = _alias_fraction(vhat, flow.xi)
        if frac > 1e-6:
            raise RuntimeError(
                f"aliasing alarm: {frac:.2e} of the energy sits above the "
                "dealiasing cutoff; refine dx or shrink dt"
            )
        times.append(tau)
        norms.append(exp_weighted_norm(vals[sel], x[sel], dx, a))
        if family is None:
            resid.append(np.nan)
        else:
            scale = np.sqrt(simpson_pairing(vals, vals, dx)) or 1.0
            resid.append(_secular_residual(vals, basis_at(tau), dx,
                                           family.n, scale))
        return vals

    record(t0, vhat)
    for step in range(1, nsteps + 1):
        tau = t0 + (step - 1) * dt
        if family is None:
            vhat = flow.drift(vhat, dt)
        else:
            vhat = flow.step(vhat, tau, dt, term)
        if damp is not None:
            vhat = np.fft.rfft(damp * np.fft.irfft(vhat, n=flow.n))
        if family is not None and reproject_every \
                and step % reproject_every == 0:
            vals = np.fft.irfft(vhat, n=flow.n)
            _, ranged, _ = _secular_coeffs(vals, basis_at(tau + dt), dx,
                                           family.n)
            vhat = np.fft.rfft(vals - ranged)
        if step % record_every == 0 or step == nsteps:
            vals = record(t0 + step * dt, vhat)
    final = GridField(v0.x0, dx, vals)
    return Trajectory(np.array(times), np.array(norms), np.array(resid),
                      final, a, frame_speed)


def ladder_level_evolve(w0: GridField, ladder: LadderPhases, m, t0, t1, dt,
                        frame_speed=0.0) -> GridField:
    """Evolve the level-m transport flow d/dt w + d^3x w + 12 (dx v^m) dx w = 0.

    This is the flow that commutes with the linearized ladder maps; it is
    not in flux form, so it conserves no mass and carries a first-order
    potential term instead.  Returns the field at t1.
    """
    x = w0.x
    dx = w0.dx
    nsteps, dt = _plan_steps(t0, t1, dt)
    flow = _SpectralFlow(len(x), dx, frame_speed)
    level = ladder.tau(m) if m else None

    def term(tau, vhat):
        y = x + frame_speed * (tau - t0)
        slope = (np.zeros_like(y) if level is None
                 else level.second_derivative(tau, y))
        dxw = np.fft.irfft(1j * flow.xi * vhat * flow.mask, n=flow.n)
        return -12.0 * np.fft.rfft(slope * dxw) * flow.mask

    vhat = np.fft.rfft(np.asarray(w0.values, dtype=float))
    for step in range(nsteps):
        vhat = flow.step(vhat, t0 + step * dt, dt, term)
        if step % 50 == 0 and not np.all(np.isfinite(vhat)):
            raise RuntimeError("evolution diverged (NaN)")
    vals = np.fft.irfft(vhat, n=flow.n)
    if not np.all(np.isfinite(vals)):
        raise RuntimeError("evolution diverged (NaN)")
    return GridField(w0.x0, dx, vals)


# -- full ladder conjugation -------------------------------------------------

@dataclass(frozen=True)
class ConjugationResult:
    """Endpoint field of a ladder walk plus the per-level weighted norms.

    norms maps level -> L2 norm with weight exp(-exponent * x), the class
    in which the walk is a bounded isomorphism; the equivalence constant
    between top and bottom is max(n_top/n_bottom, n_bottom/n_top).
    """

    field: GridField
    norms: dict
    exponent: float

    def equivalence_constant(self):
        levels = sorted(self.norms)
        lo, hi = self.norms[levels[0]], self.norms[levels[-1]]
        if lo == 0.0 or hi == 0.0:
            return 1.0
        return max(lo / hi, hi / lo)


def ladder_conjugate(field: GridField, family: SolitonFamily, t, a,
                     direction="down", orthogonality_tol=1e-4) -> ConjugationResult:
    """Walk a perturbation down the ladder to the free flow, or back up.

    direction="down" starts from a level-N perturbation that satisfies
    every symplectic orthogonality condition and applies the descending
    map at levels N..1, landing on the free-dispersion side;
    direction="up" ascends with the forward map.  Orthogonality is
    checked against the level shift and speed modes before each descent
    (the conditions propagate down the ladder analytically, so a
    violation flags numerical drift).  Per-level norms are recorded in
    the exp(-a x) class.
    """
    if not 0.0 < a < 2.0 * family.k[0]:
        raise ValueError("weight exponent must lie in (0, 2 k_1)")
    if direction not in ("down", "up"):
        raise ValueError("direction must be 'down' or 'up'")
    ladder = phase_ladder(family)
    x = field.x
    dx = field.dx
    norms = {}
    cur = field
    if direction == "down":
        norms[family.n] = exp_weighted_norm(cur.values, x, dx, -a)
        for m in range(family.n, 0, -1):
            scale = np.sqrt(simpson_pairing(cur.values, cur.values, dx))
            if scale > 0.0:
                modes = _level_modes(ladder, m, t, x)
                for label, mode in zip(("shift", "speed"), modes):
                    rel = abs(simpson_pairing(cur.values, mode, dx))
                    rel /= scale * np.sqrt(simpson_pairing(mode, mode, dx))
                    if rel > orthogonality_tol:
                        raise ValueError(
                            f"level-{m} {label}-mode orthogonality violated "
                            f"({rel:.3e}); the field left the admissible class"
                        )
            cur = linearized_inverse(cur, ladder, m, t)
            norms[m - 1] = exp_weighted_norm(cur.values, x, dx, -a)
    else:
        norms[0] = exp_weighted_norm(cur.values, x, dx, -a)
        for m in range(1, family.n + 1):
            cur = linearized_forward(cur, ladder, m, t)
            norms[m] = exp_weighted_norm(cur.values, x, dx, -a)
    return ConjugationResult(cur, norms, a)
