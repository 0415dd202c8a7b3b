"""Modulated-wave decomposition of lattice states near a train of
solitary waves.

A state u close to a sum of N ordered solitary waves is written as

    u = sum_i u_{c_i}(. - x_i) + v,

with the 2N parameters fixed by the symplectic orthogonality conditions

    <v, J^{-1} dx u_{c_i}(. - x_i)> = <v, J^{-1} dc u_{c_i}(. - x_i)> = 0.

On a window of L sites, fields flattened as (r, p), the conditions are
the rows of a (2N, 2L) condition matrix C: row 2i is J^{-1} of wave
i's x-direction over eps^4, row 2i + 1 J^{-1} of its c-direction over
eps.  The direction matrix D has rows eps^3 (c-direction) and
(x-direction) in the same order.  The scaled misfit of v is C v, the
scaled pairing matrix of the wave directions is C D^T, and a
parameter step delta changes v by D^T delta to first order; the
scalings keep every block of order one near the sonic limit.  Newton's
method uses C D^T as its Jacobian; the exact Jacobian differs from it
by terms of order |v|, which vanish on the manifold of exact trains.
Tracking a trajectory re-solves the conditions at every sample instead
of integrating the parameter ODE, so accumulated drift cannot detach
the parameters from the state they describe.

decompose and mode_projection build C and D on the hull of the waves'
supports only (WaveModes.support), widened by one site on the right
because the p-slot of J^{-1} lags the r-slot by one site.  Left of the
hull every row of C vanishes; right of it each row is constant, the sum
of its direction's p in the r-slot and of its r in the p-slot.  So C v
is the product on the hull plus these constants times the sums of v
right of the hull, read from one suffix-sum table of the state, and a
Newton iteration costs the same on any window around the train.  The
Toda closed forms vanish nowhere; their hull is the whole window.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.interpolate import PPoly

from .diagnostics import _w_norm, weighted_norm
from .integrators import Trajectory, evolve_nonlinear
from .kdv import _checked_gram
from .lattice import (
    LatticeField,
    WeightKind,
    WeightSpec,
    apply_j_inverse,
    hamiltonian,
)
from .waves import (
    _TodaPoints,
    _grid_size,
    _identity_residual,
    eps_of_speed,
    kappa_of_speed,
    profile_spline,
    solve_profile,
)

# Scaled separation kappa_1 * min(x_{i+1} - x_i) below which neighbouring
# tails overlap at the e^{-7} ~ 1e-3 level and the decomposition starts to
# mix the waves.
MIN_SCALED_SEPARATION = 7.0

# Sites.  Below this the Gram matrix is numerically rank-deficient and the
# parametrization by ordered single waves has broken down.
COLLISION_GAP = 2.0

_TABLE_NODES_PER_DECADE = 64


@dataclass
class WaveModes:
    """One wave of a train: speed, crest position, and a sampler of the
    wave and its two parameter directions.

    `sample(rel)` takes crest-relative points rel = sites - position and
    returns the wave, its x-direction and its c-direction there, each as
    an (r, p) pair of arrays.  `span` is the half-width in sites of the
    wave's profile window.  `support` is the crest-relative interval
    (lo, hi) off which every sample is exactly zero: the profile grid of
    an interpolated table wave, (-inf, inf) for the Toda closed forms,
    which vanish nowhere.
    """

    c: float
    position: float
    span: int
    sample: Callable
    support: tuple

    @property
    def kappa(self):
        return kappa_of_speed(self.c)

    def sampled(self, offset, length):
        """(wave, x-direction, c-direction) fields on a site window."""
        rel = offset + np.arange(length) - self.position
        return tuple(LatticeField(offset, r, p) for r, p in self.sample(rel))


def _span(kappa):
    # the window solve_profile and toda_soliton pick, so nodes are reusable
    return _grid_size(kappa, None)[1]


def _stacked_sampler(poly, w, dw):
    """WaveModes.sample of a stacked bracket: one evaluation of its 16
    spline columns (node k's r, p, dx r, dx p in columns 4k..4k+3) at the
    points inside the grid, mapped by the weights w to the wave and the
    x-direction and by dw to the c-direction; zero off the grid."""
    # weights[i, k, j]: output row i from column j of node k
    weights = np.zeros((6, 4, 4))
    j = np.arange(4)
    weights[j, :, j] = w
    weights[4 + j[:2], :, j[:2]] = dw
    weights = weights.reshape(6, 16)
    lo, hi = poly.x[0], poly.x[-1]

    def sample(rel):
        inside = (rel >= lo) & (rel <= hi)
        out = np.zeros((6, rel.size))
        out[:, inside] = weights @ poly(rel[inside]).T
        return out[0:2], out[2:4], out[4:6]

    return sample


class ProfileTable:
    """Solitary waves and their parameter directions, indexed by speed.

    Non-integrable models are solved on a geometric grid in c - 1 with 64
    nodes per decade.  A query at speed c combines the four nodes around
    it with the cubic Lagrange weights w in c: w gives the wave and the
    x-direction, and dw = dw/dc gives the c-direction, the exact
    derivative of the interpolant.  The nodes are solved on the query's
    own profile window, so their grids coincide, and the table keeps one
    stacked entry per bracket (four nodes on one window), built when the
    bracket is first asked for:

    * the nodes' grid columns from profile_spline (r, p, dx r, dx p and
      the spectral dx^2 r, dx^2 p), one row of 6 x grid values per node;
    * one piecewise polynomial holding the four nodes' cubic splines as
      16 columns on the shared breakpoints.

    A query then takes one weighted sum of the rows, the input of the
    traveling-wave identity check (the interpolant is linear in the node
    data, so this checks the interpolated profile), and each sample one
    polynomial evaluation at the points inside the grid.  The Toda model
    samples its closed forms instead (waves._TodaPoints): the modes all
    six from one evaluation each of sech^2 and tanh at kappa y and
    kappa (y - 1), the wave only r and p.
    """

    def __init__(self, model):
        self.model = model
        self._exact = model.name == "toda"
        self._brackets = {}  # (first node index, span) -> (columns, poly)

    def _bracket(self, c, span):
        """The stacked bracket of the four table nodes surrounding c on a
        common grid, and the Lagrange weights w and dw/dc that combine
        them."""
        s = c - 1.0
        j = int(np.floor(np.log10(s) * _TABLE_NODES_PER_DECADE))
        speeds = [1.0 + 10.0 ** (k / _TABLE_NODES_PER_DECADE)
                  for k in range(j - 1, j + 3)]
        key = (j, span)
        if key not in self._brackets:
            cols, coefs = [], []
            for ck in speeds:
                col, spline = profile_spline(
                    solve_profile(self.model, ck, span=span), self.model)
                cols.append(col.T.ravel())
                coefs.append(spline.c)
            self._brackets[key] = (np.stack(cols), PPoly(
                np.concatenate(coefs, axis=2), spline.x))
        w, dw = self._lagrange_weights(s, [ck - 1.0 for ck in speeds])
        return self._brackets[key], w, dw

    @staticmethod
    def _lagrange_weights(s, nodes_s):
        """Cubic Lagrange weights w_k(s) of four nodes and dw_k/ds, in
        scalar arithmetic: on four nodes numpy's per-call overhead would
        dominate."""
        w, dw = [], []
        for k, sk in enumerate(nodes_s):
            others = [sj for j, sj in enumerate(nodes_s) if j != k]
            a, b, c = (s - sj for sj in others)
            denom = (sk - others[0]) * (sk - others[1]) * (sk - others[2])
            w.append(a * b * c / denom)
            dw.append((b * c + a * c + a * b) / denom)
        return w, dw

    def wave(self, c, offset=None, length=None, position=0.0):
        """The wave at speed c, crest at position, on a site window (by
        default the profile window around the crest).  No identity
        check."""
        c = float(c)
        kappa = kappa_of_speed(c)
        span = _span(kappa)
        if offset is None:
            offset, length = -span, 2 * span
        rel = offset + np.arange(length) - position
        if self._exact:
            at = _TodaPoints(kappa, rel)
            return LatticeField(offset, at.r(), at.p())
        (_, poly), w, dw = self._bracket(c, span)
        (r, p), _, _ = _stacked_sampler(poly, w, dw)(rel)
        return LatticeField(offset, r, p)

    def modes(self, c, position=0.0):
        """The wave at speed c with its x- and c-directions, crest at
        position.  Interpolated speeds pass the traveling-wave identity
        check on the node grid columns combined by w."""
        c = float(c)
        kappa = kappa_of_speed(c)
        span = _span(kappa)
        if self._exact:
            def sample(rel):
                at = _TodaPoints(kappa, rel)
                return (at.r(), at.p()), (at.dr(), at.dp()), (at.dcr(), at.dcp())
            support = (-np.inf, np.inf)
        else:
            (cols, poly), w, dw = self._bracket(c, span)
            _identity_residual(c, *np.dot(w, cols).reshape(6, -1), self.model)
            sample = _stacked_sampler(poly, w, dw)
            support = (float(poly.x[0]), float(poly.x[-1]))
        return WaveModes(c=c, position=float(position), span=span,
                         sample=sample, support=support)


def _flat(f):
    return np.concatenate((f.r, f.p))


def _conditions(sampled, eps):
    """The condition matrix C and the direction matrix D of a train (see
    the module docstring), from one (wave, x-direction, c-direction)
    triple of fields per wave, all on one site window.  The rows of C
    are apply_j_inverse of the directions, so C v holds the pairings
    <v, J^{-1} direction>."""
    cond = np.empty((2 * len(sampled), 2 * len(sampled[0][0])))
    dirs = np.empty_like(cond)
    for i, (_, dx_i, dc_i) in enumerate(sampled):
        cond[2 * i] = _flat(apply_j_inverse(dx_i)) / eps**4
        cond[2 * i + 1] = _flat(apply_j_inverse(dc_i)) / eps
        dirs[2 * i] = eps**3 * _flat(dc_i)
        dirs[2 * i + 1] = _flat(dx_i)
    return cond, dirs


def _suffix_sums(f):
    """(2, L + 1) table whose column j holds the sums of f.r and f.p over
    the last j sites of the window."""
    out = np.zeros((2, len(f) + 1))
    np.cumsum(np.stack((f.r[::-1], f.p[::-1])), axis=1, out=out[:, 1:])
    return out


class _Hull:
    """C and D of a train on the hull of its waves' supports (see the
    module docstring): window sites start..stop-1, every site where a
    wave samples nonzero and the site after the last one, clipped to the
    window and never empty.  `sampled` holds each wave's (wave,
    x-direction, c-direction) fields on the hull."""

    def __init__(self, modes, offset, length, eps):
        lo = min(m.position + m.support[0] for m in modes)
        hi = max(m.position + m.support[1] for m in modes)
        # floor and ceil keep a site whose crest-relative point rounds
        # onto an end of the support
        self.start = int(np.clip(np.floor(lo) - offset, 0, length - 1))
        self.stop = int(np.clip(np.ceil(hi) - offset + 2, self.start + 1,
                                length))
        self.sampled = [m.sampled(offset + self.start, self.stop - self.start)
                        for m in modes]
        self.cond, self.dirs = _conditions(self.sampled, eps)

    def cut(self, f):
        """A window field's values on the hull, flattened as (r, p)."""
        return np.concatenate((f.r[self.start:self.stop],
                               f.p[self.start:self.stop]))

    def misfit(self, flat, suffix):
        """C f of a window field f from its hull values `flat` and its
        _suffix_sums table: the hull product plus the rows' right-hand
        constants (their last hull entries) times the sums of f.r and f.p
        right of the hull."""
        h = self.stop - self.start
        tail_r, tail_p = suffix[:, suffix.shape[1] - 1 - self.stop]
        return (self.cond @ flat + self.cond[:, h - 1] * tail_r
                + self.cond[:, 2 * h - 1] * tail_p)

    def paste(self, f, flat):
        """The window field equal to `flat` on the hull and to f off it."""
        h = self.stop - self.start
        r, p = f.r.copy(), f.p.copy()
        r[self.start:self.stop] = flat[:h]
        p[self.start:self.stop] = flat[h:]
        return LatticeField(f.offset, r, p)


def _pairing_gram(cond, dirs):
    """The scaled pairing matrix C D^T of the wave directions (see the
    module docstring), checked for singularity (kdv._checked_gram)."""
    return _checked_gram(cond @ dirs.T, "wave-direction pairing matrix is "
                         "singular to working precision: {}")


def _check_train(c, x):
    """Raise ValueError unless the speeds c and crest positions x describe
    a train: equal-length 1-d vectors of at least one wave, every speed
    supersonic (c > 1), positions increasing left to right."""
    if c.shape != x.shape or c.ndim != 1 or c.size == 0:
        raise ValueError("c and x must be equal-length 1-d vectors of at "
                         "least one wave")
    if np.any(c <= 1.0):
        raise ValueError("every wave speed must exceed 1")
    if np.any(np.diff(x) <= 0.0):
        raise ValueError("wave positions must increase left to right")


@dataclass
class ModulationState:
    """One decomposed frame: parameters, residual and solve diagnostics.

    `orthogonality` holds the 2N scaled pairing residuals (x-type and
    c-type alternating); after a successful solve each is below the
    solver tolerance.  `eps` is the scaling the solve used.
    """

    c: np.ndarray
    x: np.ndarray
    residual: LatticeField
    orthogonality: np.ndarray
    iterations: int
    eps: float

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        self.x = np.asarray(self.x, dtype=float)
        _check_train(self.c, self.x)

    @property
    def n(self):
        return self.c.size

    def min_separation(self):
        """Smallest crest gap in sites (inf for a single wave)."""
        if self.n < 2:
            return np.inf
        return float(np.min(np.diff(self.x)))

    def scaled_separation(self):
        """Crest gap times the slowest wave's decay rate."""
        return kappa_of_speed(float(self.c[0])) * self.min_separation()


def _default_eps(c):
    # sech-scale of the slowest wave, the scaling eps of every solve; any
    # positive value gives the same solution, this one keeps the scaled
    # quantities of order one
    return float(eps_of_speed(np.min(c)))


def decompose(u, model, guess, table=None, tol=1e-10, max_iter=30):
    """Fit modulated wave parameters to a lattice state.

    guess: (c, x) vectors ordered left to right.  The guess must lie in
    the attraction basin (crest offsets below one site, speed offsets
    well below c - 1); inside it the iteration converges quadratically.

    Raises RuntimeError when the residual is not brought below tol in
    max_iter steps or when two crests come within COLLISION_GAP sites;
    ValueError for malformed guesses or a negative max_iter.
    """
    c_guess, x_guess = guess
    c = np.array(c_guess, dtype=float)
    x = np.array(x_guess, dtype=float)
    _check_train(c, x)
    if max_iter < 0:
        raise ValueError("max_iter must be >= 0")
    if table is None:
        table = ProfileTable(model)
    eps = _default_eps(c)

    offset, length = u.offset, len(u)
    # right of the hull the rest v is u itself
    suffix = _suffix_sums(u)
    for it in range(max_iter + 1):
        # the guess, then each Newton step's positions
        if np.any(np.diff(x) < COLLISION_GAP):
            raise RuntimeError("wave collision: crest gap fell below "
                               "%g sites" % COLLISION_GAP)
        hull = _Hull([table.modes(ci, xi) for ci, xi in zip(c, x)],
                     offset, length, eps)
        rest = hull.cut(u) - sum(_flat(wave) for wave, _, _ in hull.sampled)
        misfit = hull.misfit(rest, suffix)
        worst = float(np.max(np.abs(misfit)))
        if worst <= tol:
            state = ModulationState(c, x, hull.paste(u, rest), misfit, it, eps)
            if state.scaled_separation() < MIN_SCALED_SEPARATION:
                warnings.warn(
                    "wave separation %.3g is below the overlap floor %.3g; "
                    "decomposed parameters mix neighbouring waves"
                    % (state.scaled_separation(), MIN_SCALED_SEPARATION),
                    stacklevel=2,
                )
            return state
        if it == max_iter:
            raise RuntimeError(
                "orthogonality residual %.3e not below %.3e after %d "
                "iterations" % (worst, tol, max_iter)
            )
        delta = np.linalg.solve(_pairing_gram(hull.cond, hull.dirs), -misfit)
        c = c - eps**3 * delta[0::2]
        x = x + delta[1::2]
        if np.any(c <= 1.0) or not np.all(np.isfinite(c)):
            raise RuntimeError("iteration left the supersonic speed range; "
                               "the guess is outside the attraction basin")


def train_field(table, c, x, offset, length):
    """Sum of table waves at speeds c and positions x on a site window."""
    total_r = np.zeros(length)
    total_p = np.zeros(length)
    for ci, xi in zip(c, x):
        wave = table.wave(ci, offset, length, position=xi)
        total_r += wave.r
        total_p += wave.p
    return LatticeField(offset, total_r, total_p)


def mode_projection(w, modes):
    """Remove the wave-direction components of a field.

    Returns (projected, alpha, beta) where projected = w minus the
    combination sum_j alpha_j (c-direction)_j + beta_j (x-direction)_j
    chosen so that every orthogonality pairing of the result vanishes:
    with delta = (C D^T)^{-1} C w, projected is w - D^T delta.
    """
    modes = list(modes)
    eps = _default_eps(np.array([m.c for m in modes]))
    hull = _Hull(modes, w.offset, len(w), eps)
    flat = hull.cut(w)
    delta = np.linalg.solve(_pairing_gram(hull.cond, hull.dirs),
                            hull.misfit(flat, _suffix_sums(w)))
    # the directions vanish off the hull, so w is unchanged there
    return (hull.paste(w, flat - hull.dirs.T @ delta),
            eps**3 * delta[0::2], delta[1::2])


def _final_window(samples):
    """Index of the first sample in the trailing-fifth fit window of a
    series of `samples` samples (at least the last two)."""
    return max(0, samples - max(2, samples // 5))


@dataclass
class ModulationTrack:
    """Decomposed frames of a trajectory plus fitted asymptotics.

    `c_plus` are the per-wave means of c over the trailing fifth of the
    samples; `xdot` is the centered difference of the crest positions.
    The series dict carries per-sample scalars (residual norms and the
    energy ledger) keyed by column name.  "v_w" is the wave-centred norm
    of M3 and M4 (diagnostics._w_norm) of the residual v: the root sum of
    squares over waves of ||e^{-kappa_i |n - x_i|} v||, kappa_i = kappa(c_i).
    """

    times: np.ndarray
    states: list
    c_plus: np.ndarray
    xdot: np.ndarray
    series: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if self.times.size != len(self.states):
            raise ValueError("one state per sample time required")
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("sample times must increase strictly")

    @property
    def n_waves(self):
        return self.states[0].n

    @property
    def speeds(self):
        return np.array([s.c for s in self.states])

    @property
    def positions(self):
        return np.array([s.x for s in self.states])

    def final_window(self):
        """Index of the first sample in the trailing-fifth fit window."""
        return _final_window(self.times.size)


def track(trajectory, model, guess, table=None):
    """Decompose every stored frame of a trajectory.

    Each frame is seeded from the previous solution with the crests
    advanced by c * dt, which keeps the seed inside the basin across
    widely strided samples.  Decomposition failures carry the sample
    time.
    """
    if table is None:
        table = ProfileTable(model)
    times = np.asarray(trajectory.times, dtype=float)
    states = []
    seed_c, seed_x = guess
    seed_c = np.array(seed_c, dtype=float)
    seed_x = np.array(seed_x, dtype=float)
    prev_t = times[0]
    for t, frame in zip(times, trajectory.fields):
        seed_x = seed_x + seed_c * (t - prev_t)
        prev_t = t
        try:
            state = decompose(frame, model, (seed_c, seed_x), table=table)
        except (RuntimeError, ValueError) as err:
            raise RuntimeError("decomposition failed at t=%.6g: %s"
                               % (t, err)) from err
        states.append(state)
        seed_c, seed_x = state.c.copy(), state.x.copy()

    speeds = np.array([s.c for s in states])
    positions = np.array([s.x for s in states])
    if times.size >= 2:
        xdot = np.gradient(positions, times, axis=0)
    else:
        xdot = np.tile(speeds[0], (1, 1))
    c_plus = speeds[_final_window(times.size):].mean(axis=0)

    v_l2 = np.empty(times.size)
    v_w = np.empty(times.size)
    h_total = np.empty(times.size)
    h_waves = np.empty(times.size)
    for i, (frame, state) in enumerate(zip(trajectory.fields, states)):
        v_l2[i] = state.residual.norm()
        v_w[i] = _w_norm(state.residual, state)
        h_total[i] = hamiltonian(frame, model)
        h_waves[i] = sum(hamiltonian(table.wave(ci), model) for ci in state.c)
    series = {"v_l2": v_l2, "v_w": v_w, "h_total": h_total,
              "h_waves": h_waves}
    return ModulationTrack(times, states, c_plus, xdot, series)


@dataclass
class PerturbationSplit:
    """Free/localized split of the residual along a perturbed-train run.

    `free` is the nonlinear evolution of the perturbation alone; the bound
    part, the rest less the modulated train, is the residuals of
    `track.states` (l2 norms `bound_l2`, read from `track.series`), zero
    at t=0 whenever the unperturbed state is an exact table train.
    `bound_leading` and `total_leading` are the norms
    ||e^{kappa_1 (n - x_1) / 2} v|| under the rightward-growing weight
    anchored at the slowest crest x_1 (squares weighted by
    e^{kappa_1 (n - x_1)}), where boundedness of the localized part is
    the meaningful comparison.  This one-sided kappa_1 / 2 norm is a
    different quantity from the two-sided kappa_i norm of "v_w" and M3/M4.
    """

    track: ModulationTrack
    free: list
    free_l2: np.ndarray
    bound_leading: np.ndarray
    total_leading: np.ndarray

    @property
    def bound_l2(self):
        return self.track.series["v_l2"]


def perturbation_split(u0, v0, model, cfg, guess, table=None):
    """Evolve a perturbed train and split its residual into a free part
    (the perturbation evolved alone under the full dynamics) and a
    localized remainder tracked through the modulated decomposition.

    u0 is the full initial state, v0 its perturbation part on the same
    window; guess seeds the decomposition of u0 - v0.  The two runs are
    stepped together as one stacked state, field 1 the perturbed train
    u0 and field 2 the perturbation v0 alone, so a boundary alarm names
    the run it fired in; fields on different windows raise ValueError.
    """
    if table is None:
        table = ProfileTable(model)
    full, free = evolve_nonlinear((u0, v0), model, cfg)
    localized = Trajectory(full.times, [
        LatticeField(a.offset, a.r - b.r, a.p - b.p)
        for a, b in zip(full.fields, free.fields)
    ])
    trk = track(localized, model, guess, table=table)

    kappa1 = kappa_of_speed(float(trk.states[0].c[0]))
    n_t = trk.times.size
    free_l2 = np.empty(n_t)
    bound_leading = np.empty(n_t)
    total_leading = np.empty(n_t)
    for i, (state, v1) in enumerate(zip(trk.states, free.fields)):
        v2 = state.residual
        free_l2[i] = v1.norm()
        weight = WeightSpec(kappa1 / 2.0, center=float(state.x[0]),
                            kind=WeightKind.RIGHT_GROWING)
        bound_leading[i] = weighted_norm(v2, weight)
        total = LatticeField(v2.offset, v2.r + v1.r, v2.p + v1.p)
        total_leading[i] = weighted_norm(total, weight)
    return PerturbationSplit(
        track=trk,
        free=free.fields,
        free_l2=free_l2,
        bound_leading=bound_leading,
        total_leading=total_leading,
    )


# ---------------------------------------------------------------------------
# summary


def track_summary(trk):
    """Fitted scalars of a track as a plain dict."""
    start = trk.final_window()
    gap = np.abs(trk.series["h_total"] - trk.series["h_waves"])
    return {
        "samples": int(trk.times.size),
        "waves": int(trk.n_waves),
        "c_plus": [float(v) for v in trk.c_plus],
        "xdot_final": [float(v) for v in trk.xdot[start:].mean(axis=0)],
        "xdot_final_variation": [
            float(np.ptp(trk.xdot[start:, i])) for i in range(trk.n_waves)
        ],
        "sup_v_l2": float(np.max(trk.series["v_l2"])),
        "sup_v_w": float(np.max(trk.series["v_w"])),
        "max_energy_gap": float(np.max(gap)),
        "eps": float(trk.states[0].eps),
    }
