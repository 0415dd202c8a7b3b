"""Ladder transforms linking multi-soliton potentials of neighboring sizes.

The m- and (m-1)-soliton tau potentials form a transform pair: a
first-order relation couples their log-derivatives, the normalized tau
quotient psi (log_psi in the soliton module) solves the associated
linear problem, and linearizing the pair yields integral maps that carry
perturbations of one level to perturbations of the next.  This module
implements those maps in both directions, the secular projections that
remove parameter drift from the linearized flow, the pseudospectral
linearized evolution itself (the dispersion exact per Fourier mode, the
dealiased potential term through the integrating-factor RK4 step of the
integrators module), and the conjugation that walks a perturbation of
the full N-soliton down the ladder to the free dispersive flow.

Every kernel is a quotient of tau functions with huge dynamic range, so
all of them are assembled in the log domain and applied through one-step
recurrences that run toward the decaying side only; nothing overflows
even when the window spans hundreds of decay lengths.  The integral maps
use trapezoid quadrature on the working grid plus the leading endpoint
correction, which restores fourth-order accuracy without leaving the
grid; each trapezoid sweep is one banded (bidiagonal) triangular solve.
The ladder's conventions (level phases and their range, tau quotient,
grid resolution, pairing, weighted norm and the parameter modes, exact
softmax moments of one ladder) and the condition check of the secular
Gram matrix come from the soliton module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import fft
from scipy.linalg.blas import dtbsv

from .kdv import (
    GridField,
    LadderPhases,
    SolitonFamily,
    TauLadder,
    _check_grid,
    _check_level,
    _checked_gram,
    exp_weighted_norm,
    log_psi,
    phase_ladder,
    secular_basis,
    simpson_pairing,
)
from .integrators import _rk4_stepper

MISMATCH_TOL = 1e-5
# Largest energy fraction near and above the dealiasing cutoff
# (_alias_fraction) a recorded field of the linearized flow may carry.
ALIAS_TOL = 1e-6
ORTHOGONALITY_TOL = 1e-6
LADDER_ORTHOGONALITY_TOL = 1e-4  # level-mode overlap a descent accepts
SECULAR_RESIDUAL_TOL = 1e-8


# -- level fields ----------------------------------------------------------
#
# Level m of a ladder is ladder.tau(m) for every m in 0..N: its potential
# with the tail constant is ladder.potential(m, ...), its slope d/dx v^m
# (the level-m KdV profile) is ladder.tau(m).second_derivative(...), and
# level 0 is the constant -sum k with slope 0.

def _level_modes(ladder, m, t, x):
    """Shift and speed modes of level m: d/d(anchor) and d/dk_m of
    d/dx v^m, the other level-m parameters held fixed: the two gradient
    rows of the level's top soliton alone, as the full 2m-row call would
    take them.  The sweep also fills the level's memo at (t, x): asked for
    first, the modes need no subset table of their own."""
    return ladder.tau(m).parameter_gradients(t, x, solitons=[m - 1])


def _overlaps(values, rows, dx, reference):
    """Relative pairings |<values, row>| / (||reference|| ||row||) with
    each row; a reference of norm zero counts as norm 1."""
    scale = np.sqrt(simpson_pairing(reference, reference, dx)) or 1.0
    return [abs(simpson_pairing(values, row, dx))
            / (scale * np.sqrt(simpson_pairing(row, row, dx))) for row in rows]


def _check_weight(a, family):
    """Raise ValueError unless the weight exponent a leaves room under the
    slowest soliton: 0 < a < 2 k_1."""
    if not 0.0 < a < 2.0 * family.k[0]:
        raise ValueError("weight exponent must lie in (0, 2 k_1)")


def _check_finite(values, t):
    """Raise RuntimeError when a flow's field at time t is not finite."""
    if not np.all(np.isfinite(values)):
        raise RuntimeError(f"evolution diverged (NaN) at t={t:.6g}")


def _trapezoid_sweep(out, u, lp, dx, indices, power, sign):
    """Trapezoid recurrence of the integral maps with kernel psi^power:
    out[b] = f out[a] + sign dx/2 (f u[a] + u[b]), f = exp(power (lp[b] -
    lp[a])), for each step a -> b of the grid indices, starting from
    out[indices[0]].

    The recurrence is forward substitution in the unit lower-bidiagonal
    system with subdiagonal -f, so it runs as one banded triangular solve
    (BLAS dtbsv): the same sequential arithmetic, without a Python step
    per grid point.
    """
    idx = np.asarray(indices)
    lpi = lp[idx]
    ui = u[idx]
    f = np.exp(power * (lpi[1:] - lpi[:-1]))
    y = np.empty(idx.size)
    y[0] = out[idx[0]]
    y[1:] = sign * 0.5 * dx * (f * ui[:-1] + ui[1:])
    band = np.zeros((2, idx.size))
    band[1, :-1] = -f
    out[idx] = dtbsv(1, band, y, lower=1, diag=1, overwrite_x=1)


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
    _check_level(ladder, m)
    x = _check_grid(ladder.family.k, x)
    km = float(ladder.family.k[m - 1])
    dsum = (ladder.tau(m).second_derivative(t, x)
            + ladder.tau(m - 1).second_derivative(t, x))
    diff = ladder.potential(m, t, x) - ladder.potential(m - 1, t, x)
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
    # the modes first: see _level_modes
    shift, speed = _level_modes(ladder, m, t, x)
    lp = log_psi(ladder, m, t, x)
    dv = ladder.potential(m, t, x) - ladder.potential(m - 1, t, x)
    u = 4.0 * dv * w0
    j0 = _crest_index(x, ladder.crest(m, t))

    integral = np.zeros_like(x)
    _trapezoid_sweep(integral, u, lp, dx, np.arange(j0, len(x)), 2.0, 1.0)
    _trapezoid_sweep(integral, u, lp, dx, np.arange(j0, -1, -1), 2.0, -1.0)
    # endpoint correction: psi^2 (u/psi^2)' = u' + 2 u dv stays bounded,
    # and the constant-endpoint part is a psi^2 multiple that the
    # homogeneous solve absorbs anyway
    edge = np.gradient(u, dx, edge_order=2) + 2.0 * u * dv
    integral -= dx**2 / 12.0 * (edge - np.exp(2.0 * (lp - lp[j0])) * edge[j0])

    raw = -w0 + integral
    mode = np.exp(2.0 * (lp - lp.max()))
    alpha = (-simpson_pairing(raw, speed, dx)
             / simpson_pairing(mode, speed, dx))
    out = raw + alpha * mode

    for label, rel in zip(("shift", "speed"),
                          _overlaps(out, (shift, speed), dx, out)):
        if rel > ORTHOGONALITY_TOL:
            raise RuntimeError(
                f"{label}-mode orthogonality residual {rel:.3e} exceeds "
                f"{ORTHOGONALITY_TOL:.0e} after the homogeneous solve; refine "
                "the grid or enlarge the window"
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
    dv = ladder.potential(m, t, x) - ladder.potential(m - 1, t, x)
    u = 4.0 * dv * wm
    n = len(x)
    j0 = _crest_index(x, ladder.crest(m, t))

    # each tail is swept only up to the crest: past it the kernel grows
    right = np.zeros(n)
    _trapezoid_sweep(right, u, lp, dx, np.arange(n - 1, j0 - 1, -1), -2.0, 1.0)
    left = np.zeros(n)
    _trapezoid_sweep(left, u, lp, dx, np.arange(j0 + 1), -2.0, -1.0)
    correction = dx**2 / 12.0 * (np.gradient(u, dx, edge_order=2) - 2.0 * u * dv)
    right += correction
    left += correction

    peak = np.max(np.abs(wm))
    if peak > 0.0:
        mismatch = abs(right[j0] - left[j0]) / peak
        if mismatch > MISMATCH_TOL:
            raise ValueError(
                f"tail representations disagree by {mismatch:.3e} at the "
                f"crest, above {MISMATCH_TOL:.0e}; the input violates the "
                f"level-{m} shift orthogonality"
            )
    out = -wm.copy()
    out[j0:] += right[j0:]
    out[:j0] += left[:j0]
    return GridField(w_field.x0, dx, out)


# -- secular projections ----------------------------------------------------

def _secular_coeffs(values, xi, eta, dx):
    """The combination of the rows of xi whose pairings with every row of
    eta match those of values."""
    gram = np.array([[simpson_pairing(g, e, dx) for g in xi] for e in eta])
    rhs = np.array([simpson_pairing(values, e, dx) for e in eta])
    gram = _checked_gram(gram, "secular Gram matrix is ill-conditioned ({}); "
                         "the parameter modes are numerically degenerate")
    return np.linalg.solve(gram, rhs) @ xi


def secular_projection(v: GridField, family: SolitonFamily, t, a):
    """Split v into its parameter-mode part P v and the remainder Q v.

    P v is the combination of the 2N profile gradients whose
    antiderivative pairings match those of v, obtained from the 2N x 2N
    Gram system; Q v = v - P v then satisfies every secular condition.
    The weight exponent a fixes the decay class and must leave room under
    the slowest soliton.
    """
    _check_weight(a, family)
    xi, eta = secular_basis(family, t, v.x)
    ranged = _secular_coeffs(np.asarray(v.values, float), xi, eta, v.dx)
    pv = GridField(v.x0, v.dx, ranged)
    qv = GridField(v.x0, v.dx, v.values - ranged)
    for rel in _overlaps(qv.values, eta, v.dx, v.values):
        if rel > SECULAR_RESIDUAL_TOL:
            raise RuntimeError(
                f"secular condition residual {rel:.3e} exceeds "
                f"{SECULAR_RESIDUAL_TOL:.0e} after projection"
            )
    return pv, qv


# -- linearized evolution ----------------------------------------------------

@dataclass(frozen=True)
class Trajectory:
    """Recorded evolution samples: times, weighted norms, secular residuals.

    q_residual is the largest relative secular overlap of the recorded
    field (NaN when no family was supplied); at a reprojection time it is
    that of the field before the projection.  final is the field at t1 on
    the (possibly comoving) grid.  alias_peak is the largest alias
    fraction of the recorded fields, how close the run came to the
    aliasing alarm at ALIAS_TOL.
    """

    t: np.ndarray
    weighted_norm: np.ndarray
    q_residual: np.ndarray
    final: GridField
    alias_peak: float


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


def _spectral_factors(n, dx, frame_speed, dt):
    """Wave numbers xi of n points, the 2/3-rule dealiasing mask, and the
    exact factors of d/dt v = -d^3x v + c dx v, symbol sym = i (xi^3 + c
    xi): e^{sym dt/2} and its square, the half and full factors of the RK4
    step (_rk4_stepper), and e^{sym dt}, the free flow's step."""
    xi = 2.0 * np.pi * fft.rfftfreq(n, d=dx)
    sym = 1j * (xi**3 + frame_speed * xi)
    mask = (np.abs(xi) <= (2.0 / 3.0) * np.abs(xi).max()).astype(float)
    half = np.exp(sym * (dt / 2.0))
    return xi, mask, half, half * half, np.exp(sym * dt)


def _plan_steps(t0, t1, dt):
    span = float(t1) - float(t0)
    if span <= 0.0:
        raise ValueError("need t1 > t0")
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    nsteps = max(1, int(round(span / dt)))
    return nsteps, span / nsteps


def _window(x):
    return f"the window [{x[0]:g}, {x[-1]:g}]"


def _sponge_profile(x, spec):
    """Raised-cosine damping rate supported on [lo, hi]; raises ValueError
    unless lo < hi and a grid point lies inside the strip."""
    lo, hi, strength = spec
    if not (lo < hi and np.any((x > lo) & (x < hi))):
        raise ValueError(f"sponge strip [{lo:g}, {hi:g}] must have lo < hi "
                         f"and overlap {_window(x)}")
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
    where the weight amplifies wrap-around debris; it must have lo < hi
    and hold at least 3 grid points.  sponge=(lo, hi, strength) absorbs
    outgoing radiation in that strip, which must overlap the window,
    emulating the whole-line problem on a periodic window; leave it off
    when measuring conserved quantities.  A recorded field with more than
    ALIAS_TOL of its energy near the dealiasing cutoff raises
    RuntimeError.
    """
    if family is not None:
        _check_weight(a, family)
    x = v0.x
    dx = v0.dx
    nsteps, dt = _plan_steps(t0, t1, dt)
    if record_every is None:
        record_every = max(1, nsteps // 400)
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    damp = None if sponge is None else np.exp(-dt * _sponge_profile(x, sponge))

    if measure_span is None:
        sel = slice(None)
    else:
        lo, hi = measure_span
        sel = slice(*np.searchsorted(x, [lo, hi + dx / 2.0]))
        if not (lo < hi and sel.stop - sel.start >= 3):
            raise ValueError(f"measure_span [{lo:g}, {hi:g}] must have lo < hi "
                             f"and hold at least 3 points of {_window(x)}")
    n = len(x)
    xi, mask, half, full, drift = _spectral_factors(n, dx, frame_speed, dt)
    coupling = -12j * xi * mask

    def term(phi, vhat):
        vals = fft.irfft(vhat * mask, n=n)
        return coupling * fft.rfft(phi * vals)

    if family is None:
        def advance(vhat, s):
            return drift * vhat
    else:
        advance = _rk4_stepper(
            t0, dt, TauLadder(family, family.n).frame_profile(x, frame_speed, t0),
            term, half, full)

    vhat = fft.rfft(np.asarray(v0.values, dtype=float))
    times, norms, resid, alias = [], [], [], []

    def basis_at(tau):
        return secular_basis(family, tau, x + frame_speed * (tau - t0))

    def record(tau, vhat, projected=None):
        vals = fft.irfft(vhat, n=n)
        _check_finite(vals, tau)
        frac = _alias_fraction(vhat, xi)
        if frac > ALIAS_TOL:
            raise RuntimeError(
                f"aliasing alarm at t={tau:.6g}: {frac:.2e} of the energy sits "
                f"above the dealiasing cutoff, more than {ALIAS_TOL:.0e}; "
                "refine dx or shrink dt"
            )
        times.append(tau)
        alias.append(frac)
        norms.append(exp_weighted_norm(vals[sel], x[sel], dx, a))
        if family is None:
            resid.append(np.nan)
        else:
            fld, eta = projected or (vals, basis_at(tau)[1])
            resid.append(max(_overlaps(fld, eta, dx, fld)))
        return vals

    record(t0, vhat)
    for step in range(1, nsteps + 1):
        vhat = advance(vhat, step - 1)
        if damp is not None:
            vhat = fft.rfft(damp * fft.irfft(vhat, n=n))
        projected = None  # (field before the projection, basis rows)
        if family is not None and reproject_every \
                and step % reproject_every == 0:
            vals = fft.irfft(vhat, n=n)
            basis = basis_at(t0 + step * dt)  # rows xi, eta
            projected = (vals, basis[1])
            vhat = fft.rfft(vals - _secular_coeffs(vals, *basis, dx))
        if step % record_every == 0 or step == nsteps:
            vals = record(t0 + step * dt, vhat, projected)
    final = GridField(v0.x0, dx, vals)
    return Trajectory(np.array(times), np.array(norms), np.array(resid),
                      final, max(alias))


def ladder_level_evolve(w0: GridField, ladder: LadderPhases, m, t0, t1,
                        dt) -> GridField:
    """Evolve the level-m transport flow d/dt w + d^3x w + 12 (dx v^m) dx w = 0.

    This is the flow that commutes with the linearized ladder maps; it is
    not in flux form, so it conserves no mass and carries a first-order
    potential term instead.  The grid must resolve k_m, as for
    n_soliton_profile.  Returns the field at t1.
    """
    x = w0.x
    dx = w0.dx
    nsteps, dt = _plan_steps(t0, t1, dt)
    _check_grid(ladder.family.k[:m], x)
    n = len(x)
    xi, mask, half, full, _ = _spectral_factors(n, dx, 0.0, dt)
    derivative = 1j * xi * mask
    coupling = -12.0 * mask

    def term(slope, vhat):
        dxw = fft.irfft(derivative * vhat, n=n)
        return coupling * fft.rfft(slope * dxw)

    advance = _rk4_stepper(t0, dt, ladder.tau(m).frame_profile(x, 0.0, t0),
                           term, half, full)
    vhat = fft.rfft(np.asarray(w0.values, dtype=float))
    for step in range(nsteps):
        vhat = advance(vhat, step)
        if step % 50 == 0:
            # step advanced the field to t0 + (step + 1) dt
            _check_finite(vhat, t0 + (step + 1) * dt)
    vals = fft.irfft(vhat, n=n)
    _check_finite(vals, t0 + nsteps * dt)
    return GridField(w0.x0, dx, vals)


# -- full ladder conjugation -------------------------------------------------

@dataclass(frozen=True)
class ConjugationResult:
    """Endpoint field of a ladder walk plus the per-level weighted norms.

    norms maps level -> L2 norm with weight exp(-a x), a the weight
    exponent ladder_conjugate was given, the class in which the walk is a
    bounded isomorphism; the equivalence constant between top and bottom
    is max(n_top/n_bottom, n_bottom/n_top): 1 when both norms are zero,
    inf when exactly one is, a walk that sent a nonzero field to zero or
    back.
    """

    field: GridField
    norms: dict

    def equivalence_constant(self):
        levels = sorted(self.norms)
        lo, hi = self.norms[levels[0]], self.norms[levels[-1]]
        if lo == 0.0 and hi == 0.0:
            return 1.0
        if lo == 0.0 or hi == 0.0:
            return np.inf
        return max(lo / hi, hi / lo)


def ladder_conjugate(field: GridField, family: SolitonFamily, t, a,
                     direction="down") -> ConjugationResult:
    """Walk a perturbation down the ladder to the free flow, or back up.

    direction="down" starts from a level-N perturbation that satisfies
    every symplectic orthogonality condition and applies the descending
    map at levels N..1, landing on the free-dispersion side;
    direction="up" ascends with the forward map.  Orthogonality is
    checked against the level shift and speed modes before each descent
    (the conditions propagate down the ladder analytically, so a
    violation beyond LADDER_ORTHOGONALITY_TOL flags numerical drift).
    Per-level norms are recorded in the exp(-a x) class.
    """
    _check_weight(a, family)
    if direction not in ("down", "up"):
        raise ValueError("direction must be 'down' or 'up'")
    ladder = phase_ladder(family)
    x = field.x
    dx = field.dx
    norms = {}
    cur = field
    if direction == "down":
        norms[family.n] = exp_weighted_norm(cur.values, x, dx, -a)
        # every level's modes before the maps evaluate it (_level_modes)
        modes = {m: _level_modes(ladder, m, t, x) for m in range(family.n, 0, -1)}
        for m in range(family.n, 0, -1):
            for label, rel in zip(("shift", "speed"),
                                  _overlaps(cur.values, modes[m], dx, cur.values)):
                if rel > LADDER_ORTHOGONALITY_TOL:
                    raise ValueError(
                        f"level-{m} {label}-mode orthogonality violated "
                        f"({rel:.3e} exceeds {LADDER_ORTHOGONALITY_TOL:.0e}); "
                        "the field left the admissible class"
                    )
            cur = linearized_inverse(cur, ladder, m, t)
            norms[m - 1] = exp_weighted_norm(cur.values, x, dx, -a)
    else:
        norms[0] = exp_weighted_norm(cur.values, x, dx, -a)
        for m in range(1, family.n + 1):
            cur = linearized_forward(cur, ladder, m, t)
            norms[m] = exp_weighted_norm(cur.values, x, dx, -a)
    return ConjugationResult(cur, norms)
