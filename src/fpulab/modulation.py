"""Modulated-wave decomposition of lattice states near a train of
solitary waves.

A state u close to a sum of N ordered solitary waves is written as

    u = sum_i u_{c_i}(. - x_i) + v,

with the 2N parameters fixed by the symplectic orthogonality conditions

    <v, J^{-1} dx u_{c_i}(. - x_i)> = <v, J^{-1} dc u_{c_i}(. - x_i)> = 0.

Newton's method on these conditions uses the scaled pairing matrix of
the wave directions (secular_gram) as its Jacobian; the exact Jacobian
differs from it by terms of order |v|, which vanish on the manifold of
exact trains.  Tracking a trajectory re-solves the conditions at every
sample instead of integrating the parameter ODE, so accumulated drift
cannot detach the parameters from the state they describe.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .diagnostics import weighted_norm
from .integrators import Trajectory, evolve_nonlinear
from .lattice import (
    LatticeField,
    PairingKind,
    WeightKind,
    WeightSpec,
    hamiltonian,
    weighted_pairing,
)
from .waves import (
    _profile_grid,
    kappa_of_speed,
    profile_spline,
    solve_profile,
    toda_forms,
    traveling_wave_residual,
)

# Scaled separation kappa_1 * min(x_{i+1} - x_i) below which neighbouring
# tails overlap at the e^{-7} ~ 1e-3 level and the decomposition starts to
# mix the waves.
MIN_SCALED_SEPARATION = 7.0

# Sites.  Below this the Gram matrix is numerically rank-deficient and the
# parametrization by ordered single waves has broken down.
COLLISION_GAP = 2.0

_TABLE_NODES_PER_DECADE = 64
_STEPS_PER_SITE = 16


@dataclass
class WaveModes:
    """One wave of a train: speed, crest position, and a sampler of the
    wave and its two parameter directions.

    `sample(rel)` takes crest-relative points rel = sites - position and
    returns the wave, its x-direction and its c-direction there, each as
    an (r, p) pair of arrays.  `span` is the half-width in sites of the
    wave's profile window.
    """

    c: float
    position: float
    span: int
    sample: Callable

    @property
    def kappa(self):
        return kappa_of_speed(self.c)

    def sampled(self, offset, length):
        """(wave, x-direction, c-direction) fields on a site window."""
        rel = offset + np.arange(length) - self.position
        return tuple(LatticeField(offset, r, p) for r, p in self.sample(rel))


def _span(kappa):
    # the window solve_profile and toda_soliton pick, so nodes are reusable
    return _profile_grid(kappa, _STEPS_PER_SITE, None)[3]


class ProfileTable:
    """Solitary waves and their parameter directions, indexed by speed.

    Non-integrable models are solved on a geometric grid in c - 1 with 64
    nodes per decade.  Each node is solved once per profile window and
    keeps one cubic spline through its columns (r, p, dx r, dx p).  A
    query at speed c samples the four nodes around it (solved on the
    query's own window, so the arrays are commensurable) and combines the
    samples with the cubic Lagrange weights w in c: w gives the wave and
    the x-direction, and dw = dw/dc gives the c-direction, the exact
    derivative of the interpolant.  The interpolant is linear in the node
    data, so this is the interpolated profile sampled.  The Toda model
    samples its closed form instead.
    """

    def __init__(self, model):
        self.model = model
        self._exact = model.name == "toda"
        self._nodes = {}  # (node speed, span) -> (grid columns, sampler)

    def _node(self, speed, span):
        node = self._nodes.get((speed, span))
        if node is None:
            prof = solve_profile(self.model, speed,
                                 steps_per_site=_STEPS_PER_SITE, span=span)
            node = self._nodes[(speed, span)] = profile_spline(prof, self.model)
        return node

    def _bracket(self, c, span):
        """Four table nodes surrounding c on a common grid, and the
        Lagrange weights w and dw/dc that combine them."""
        s = c - 1.0
        j = int(np.floor(np.log10(s) * _TABLE_NODES_PER_DECADE))
        speeds = [1.0 + 10.0 ** (k / _TABLE_NODES_PER_DECADE)
                  for k in range(j - 1, j + 3)]
        nodes = [self._node(ck, span) for ck in speeds]
        w, dw = self._lagrange_weights(s, [ck - 1.0 for ck in speeds])
        return nodes, w, dw

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
        default the profile window around the crest).  Samples the wave
        column only; no directions and no identity check."""
        c = float(c)
        kappa = kappa_of_speed(c)
        span = _span(kappa)
        if offset is None:
            offset, length = -span, 2 * span
        rel = offset + np.arange(length) - position
        if self._exact:
            r, p, _, _ = toda_forms(kappa)
            return LatticeField(offset, r(rel), p(rel))
        nodes, w, _ = self._bracket(c, span)
        wave = sum(wk * at(rel)[:, :2] for wk, (_, at) in zip(w, nodes))
        return LatticeField(offset, wave[:, 0], wave[:, 1])

    def modes(self, c, position=0.0):
        """The wave at speed c with its x- and c-directions, crest at
        position.  Interpolated speeds pass the traveling-wave identity
        check on the node grid columns combined by w."""
        c = float(c)
        kappa = kappa_of_speed(c)
        span = _span(kappa)
        if self._exact:
            h_c = 1e-4 * (c - 1.0)
            r, p, dr, dp = toda_forms(kappa)
            hi, lo = (toda_forms(kappa_of_speed(ci))[:2]
                      for ci in (c + h_c, c - h_c))

            def sample(rel):
                ddc = [(f(rel) - g(rel)) / (2.0 * h_c) for f, g in zip(hi, lo)]
                return (r(rel), p(rel)), (dr(rel), dp(rel)), ddc
        else:
            nodes, w, dw = self._bracket(c, span)
            grid = sum(wk * cols for wk, (cols, _) in zip(w, nodes))
            traveling_wave_residual(c, *grid.T, _STEPS_PER_SITE, self.model)

            def sample(rel):
                vals = [at(rel) for _, at in nodes]
                wave = sum(wk * v for wk, v in zip(w, vals))
                ddc = sum(wk * v[:, :2] for wk, v in zip(dw, vals))
                return wave[:, :2].T, wave[:, 2:].T, ddc.T
        return WaveModes(c=c, position=float(position), span=span, sample=sample)


def _pair(a, b):
    return weighted_pairing(a, b, kind=PairingKind.J_INVERSE)


def secular_gram(sampled, eps):
    """Scaled pairing matrix of the wave directions of a train.

    sampled holds one (wave, x-direction, c-direction) triple of fields
    per wave, all on one site window (WaveModes.sampled).  Rows alternate
    between the two orthogonality conditions of each wave (x-type, then
    c-type); columns alternate between the parameter directions of each
    wave (c-direction, then x-direction).  Entries are
    <direction_j, J^{-1} condition_i> with the scalings 1/eps (x,c and
    c,x corners), 1/eps^4 (x,x) and eps^2 (c,c), which keep every block
    of order one as the waves approach the sonic limit.

    Raises ValueError when the matrix is singular to working precision.
    """
    if not sampled:
        raise ValueError("need at least one wave")
    if eps <= 0.0:
        raise ValueError("scaling parameter must be positive")
    n = len(sampled)
    gram = np.empty((2 * n, 2 * n))
    for i in range(n):
        _, dx_i, dc_i = sampled[i]
        for j in range(n):
            _, dx_j, dc_j = sampled[j]
            gram[2 * i, 2 * j] = _pair(dc_j, dx_i) / eps
            gram[2 * i, 2 * j + 1] = _pair(dx_j, dx_i) / eps**4
            gram[2 * i + 1, 2 * j] = eps**2 * _pair(dc_j, dc_i)
            gram[2 * i + 1, 2 * j + 1] = _pair(dx_j, dc_i) / eps
    if not np.all(np.isfinite(gram)) or np.linalg.cond(gram) > 1e12:
        raise ValueError("wave-direction pairing matrix is singular to "
                         "working precision")
    return gram


def _scaled_misfit(v, sampled, eps):
    """Orthogonality residuals of v, scaled like the Gram rows."""
    out = np.empty(2 * len(sampled))
    for i, (_, dx_i, dc_i) in enumerate(sampled):
        out[2 * i] = _pair(v, dx_i) / eps**4
        out[2 * i + 1] = _pair(v, dc_i) / eps
    return out


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
        if self.c.shape != self.x.shape or self.c.ndim != 1:
            raise ValueError("c and x must be 1-d vectors of equal length")
        if np.any(self.c <= 1.0):
            raise ValueError("every wave speed must exceed 1")
        if np.any(np.diff(self.x) <= 0.0):
            raise ValueError("wave positions must increase")

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
    # sech-scale of the slowest wave; any positive value gives the same
    # solution, this one keeps the scaled quantities of order one
    return float(np.sqrt(6.0 * (np.min(c) - 1.0)))


def decompose(u, model, guess, table=None, eps=None, tol=1e-10, max_iter=30):
    """Fit modulated wave parameters to a lattice state.

    guess: (c, x) vectors ordered left to right.  The guess must lie in
    the attraction basin (crest offsets below one site, speed offsets
    well below c - 1); inside it the iteration converges quadratically.

    Raises RuntimeError when the residual is not brought below tol in
    max_iter steps or when two crests come within COLLISION_GAP sites;
    ValueError for malformed guesses.
    """
    c_guess, x_guess = guess
    c = np.array(c_guess, dtype=float)
    x = np.array(x_guess, dtype=float)
    if c.shape != x.shape or c.ndim != 1 or c.size == 0:
        raise ValueError("guess must be two equal-length parameter vectors")
    if np.any(c <= 1.0):
        raise ValueError("every wave speed must exceed 1")
    if np.any(np.diff(x) <= 0.0):
        raise ValueError("wave positions must increase left to right")
    if np.any(np.diff(x) < COLLISION_GAP):
        raise RuntimeError("wave collision: crest gap fell below "
                           "%g sites" % COLLISION_GAP)
    if table is None:
        table = ProfileTable(model)
    if eps is None:
        eps = _default_eps(c)

    offset, length = u.offset, len(u)
    for it in range(max_iter + 1):
        modes = [table.modes(ci, xi) for ci, xi in zip(c, x)]
        sampled = [m.sampled(offset, length) for m in modes]
        total_r = np.zeros(length)
        total_p = np.zeros(length)
        for wave, _, _ in sampled:
            total_r += wave.r
            total_p += wave.p
        v = LatticeField(offset, u.r - total_r, u.p - total_p)
        misfit = _scaled_misfit(v, sampled, eps)
        worst = float(np.max(np.abs(misfit)))
        if worst <= tol:
            state = ModulationState(c, x, v, misfit, it, eps)
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
        gram = secular_gram(sampled, eps)
        delta = np.linalg.solve(gram, -misfit)
        c = c - eps**3 * delta[0::2]
        x = x + delta[1::2]
        if np.any(c <= 1.0) or not np.all(np.isfinite(c)):
            raise RuntimeError("iteration left the supersonic speed range; "
                               "the guess is outside the attraction basin")
        if np.any(np.diff(x) < COLLISION_GAP):
            raise RuntimeError("wave collision: crest gap fell below "
                               "%g sites" % COLLISION_GAP)
    raise AssertionError("unreachable")


def train_field(table, c, x, offset, length):
    """Sum of table waves at speeds c and positions x on a site window."""
    total_r = np.zeros(length)
    total_p = np.zeros(length)
    for ci, xi in zip(c, x):
        wave = table.wave(ci, offset, length, position=xi)
        total_r += wave.r
        total_p += wave.p
    return LatticeField(offset, total_r, total_p)


def mode_projection(w, modes, eps=None):
    """Remove the wave-direction components of a field.

    Returns (projected, alpha, beta) where projected = w minus the
    combination sum_j alpha_j (c-direction)_j + beta_j (x-direction)_j
    chosen so that every orthogonality pairing of the result vanishes.
    """
    modes = list(modes)
    if eps is None:
        eps = _default_eps(np.array([m.c for m in modes]))
    offset, length = w.offset, len(w)
    sampled = [m.sampled(offset, length) for m in modes]
    gram = secular_gram(sampled, eps)
    delta = np.linalg.solve(gram, _scaled_misfit(w, sampled, eps))
    alpha = eps**3 * delta[0::2]
    beta = delta[1::2]
    out_r = w.r.copy()
    out_p = w.p.copy()
    for (_, dx_j, dc_j), a, b in zip(sampled, alpha, beta):
        out_r -= a * dc_j.r + b * dx_j.r
        out_p -= a * dc_j.p + b * dx_j.p
    return LatticeField(offset, out_r, out_p), alpha, beta


@dataclass
class ModulationTrack:
    """Decomposed frames of a trajectory plus fitted asymptotics.

    `c_plus` are the per-wave means of c over the trailing fifth of the
    samples; `xdot` is the centered difference of the crest positions.
    The series dict carries per-sample scalars (residual norms and the
    energy ledger) keyed by column name.  "v_w" is the sum over waves of
    ||e^{-kappa_i |n - x_i| / 2} v||, the l2 norm of the residual v with
    its squares (r^2 + p^2) weighted by e^{-kappa_i |n - x_i|}.
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
        return max(0, self.times.size - max(2, self.times.size // 5))


def _tail_mean(values, start):
    return values[start:].mean(axis=0)


def track(trajectory, model, guess, table=None, eps=None, tol=1e-10,
          max_iter=30):
    """Decompose every stored frame of a trajectory.

    Each frame is seeded from the previous solution with the crests
    advanced by c * dt, which keeps the seed inside the basin across
    widely strided samples.  Decomposition failures carry the sample
    time.  Requires the trajectory to have kept its snapshots.
    """
    if not trajectory.fields:
        raise ValueError("trajectory carries no snapshots to decompose")
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
            state = decompose(frame, model, (seed_c, seed_x), table=table,
                              eps=eps, tol=tol, max_iter=max_iter)
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
    start = max(0, times.size - max(2, times.size // 5))
    c_plus = speeds[start:].mean(axis=0)

    kappas = [kappa_of_speed(float(c)) for c in states[0].c]
    v_l2 = np.empty(times.size)
    v_w = np.empty(times.size)
    h_total = np.empty(times.size)
    h_waves = np.empty(times.size)
    for i, (frame, state) in enumerate(zip(trajectory.fields, states)):
        v_l2[i] = state.residual.norm()
        v_w[i] = sum(
            weighted_norm(
                state.residual,
                WeightSpec(k / 2.0, center=xi, kind=WeightKind.TWO_SIDED),
            )
            for k, xi in zip(kappas, state.x)
        )
        h_total[i] = hamiltonian(frame, model)
        h_waves[i] = sum(hamiltonian(table.wave(ci), model) for ci in state.c)
    series = {"v_l2": v_l2, "v_w": v_w, "h_total": h_total,
              "h_waves": h_waves}
    return ModulationTrack(times, states, c_plus, xdot, series)


@dataclass
class PerturbationSplit:
    """Free/localized split of the residual along a perturbed-train run.

    `free` is the nonlinear evolution of the perturbation alone;
    `bound` is what remains after subtracting it and the modulated train,
    zero at t=0 whenever the unperturbed state is an exact table train.
    `bound_leading` and `total_leading` are the norms
    ||e^{kappa_1 (n - x_1) / 2} v|| under the rightward-growing weight
    anchored at the slowest crest x_1 (squares weighted by
    e^{kappa_1 (n - x_1)}), where boundedness of the localized part is
    the meaningful comparison.
    """

    times: np.ndarray
    track: ModulationTrack
    free: list
    bound: list
    free_l2: np.ndarray
    bound_l2: np.ndarray
    bound_leading: np.ndarray
    total_leading: np.ndarray


def perturbation_split(u0, v0, model, cfg, guess, table=None, eps=None,
                       tol=1e-10, max_iter=30):
    """Evolve a perturbed train and split its residual into a free part
    (the perturbation evolved alone under the full dynamics) and a
    localized remainder tracked through the modulated decomposition.

    u0 is the full initial state, v0 its perturbation part on the same
    window; guess seeds the decomposition of u0 - v0.
    """
    if u0.offset != v0.offset or len(u0) != len(v0):
        raise ValueError("state and perturbation must share the window")
    if not cfg.keep_snapshots:
        raise ValueError("the split needs per-sample snapshots; enable "
                         "keep_snapshots")
    if table is None:
        table = ProfileTable(model)
    full = evolve_nonlinear(u0, model, cfg)
    free = evolve_nonlinear(v0, model, cfg)
    localized_fields = [
        LatticeField(a.offset, a.r - b.r, a.p - b.p)
        for a, b in zip(full.fields, free.fields)
    ]
    localized = Trajectory(
        times=full.times,
        fields=localized_fields,
        observations={},
        final=localized_fields[-1],
    )
    trk = track(localized, model, guess, table=table, eps=eps, tol=tol,
                max_iter=max_iter)

    kappa1 = kappa_of_speed(float(trk.states[0].c[0]))
    n_t = trk.times.size
    free_l2 = np.empty(n_t)
    bound_l2 = np.empty(n_t)
    bound_leading = np.empty(n_t)
    total_leading = np.empty(n_t)
    bound = []
    for i, state in enumerate(trk.states):
        v2 = state.residual
        v1 = free.fields[i]
        bound.append(v2)
        free_l2[i] = v1.norm()
        bound_l2[i] = v2.norm()
        weight = WeightSpec(kappa1 / 2.0, center=float(state.x[0]),
                            kind=WeightKind.RIGHT_GROWING)
        bound_leading[i] = weighted_norm(v2, weight)
        total = LatticeField(v2.offset, v2.r + v1.r, v2.p + v1.p)
        total_leading[i] = weighted_norm(total, weight)
    return PerturbationSplit(
        times=trk.times,
        track=trk,
        free=free.fields,
        bound=bound,
        free_l2=free_l2,
        bound_l2=bound_l2,
        bound_leading=bound_leading,
        total_leading=total_leading,
    )


# ---------------------------------------------------------------------------
# export


def track_to_csv(trk, path):
    """One row per sample: t, speeds, positions, residual norms."""
    n = trk.n_waves
    cols = (["t"] + ["c%d" % (i + 1) for i in range(n)]
            + ["x%d" % (i + 1) for i in range(n)] + ["v_l2", "v_w"])
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for i, t in enumerate(trk.times):
            state = trk.states[i]
            row = [t, *state.c, *state.x,
                   trk.series["v_l2"][i], trk.series["v_w"][i]]
            fh.write(",".join("%.17g" % val for val in row) + "\n")


def track_summary(trk):
    """Fitted scalars of a track as a plain dict."""
    start = trk.final_window()
    gap = np.abs(trk.series["h_total"] - trk.series["h_waves"])
    return {
        "samples": int(trk.times.size),
        "waves": int(trk.n_waves),
        "c_plus": [float(v) for v in trk.c_plus],
        "xdot_final": [float(v) for v in _tail_mean(trk.xdot, start)],
        "xdot_final_variation": [
            float(np.ptp(trk.xdot[start:, i])) for i in range(trk.n_waves)
        ],
        "sup_v_l2": float(np.max(trk.series["v_l2"])),
        "sup_v_w": float(np.max(trk.series["v_w"])),
        "max_energy_gap": float(np.max(gap)),
        "eps": float(trk.states[0].eps),
    }


def track_to_json(trk, path):
    with open(path, "w") as fh:
        json.dump(track_summary(trk), fh, indent=1)
        fh.write("\n")
