"""Time evolution for the FPU chain and its linearizations.

The nonlinear flow du/dt = J H'(u) is integrated by Stormer-Verlet on the
second-order form (kick-drift-kick on p and r), which is symplectic and
time-reversible.  Verlet makes one force evaluation per step: the force
at the end of a step is the force of the next step's first half kick, so
it is carried over, not evaluated again.  Linear nonautonomous equations
dw/dt = J H''(U(t)) w + F1(t) use RK4 with the background
supplied either as a closed form or as a sampled trajectory.

Windows use zero extension.  A run records the frames at t = 0, every
`stride` steps and t_end (`Trajectory.final`), and a boundary alarm aborts
it when a frame has l2 mass above `boundary_tol` on the outer
BOUNDARY_WIDTH sites of an edge.  Between records the alarm also reads the
live state every BOUNDARY_WIDTH / 4 time units, so a run with a long
stride cannot cross the edge unnoticed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import LatticeField, _shift_backward_diff, _shift_forward_diff

BOUNDARY_WIDTH = 10
# Time between two boundary checks of the live state: a disturbance slower
# than 4 sites per time unit cannot cross the edge band between checks.
BOUNDARY_CHECK_TIME = BOUNDARY_WIDTH / 4.0


@dataclass
class EvolveConfig:
    dt: float
    t_end: float
    stride: int = 1
    boundary_tol: float = 1e-8

    def __post_init__(self):
        if not 0 < self.dt <= 0.25:
            raise ValueError("dt must lie in (0, 0.25]")
        if self.t_end < 0:
            raise ValueError("t_end must be nonnegative")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        if not self.boundary_tol >= 0:
            raise ValueError("boundary_tol must be >= 0 (inf: no alarm)")

    @property
    def n_steps(self):
        return int(round(self.t_end / self.dt))


@dataclass
class Trajectory:
    times: np.ndarray
    fields: list

    @property
    def final(self):
        return self.fields[-1]


class SampledBackground:
    """Background provider from a stored trajectory, linear in t between
    snapshots."""

    def __init__(self, times, fields):
        self.times = np.asarray(times, dtype=float)
        if self.times.size != len(fields) or self.times.size < 2:
            raise ValueError("need matching times and at least two fields")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must increase")
        self.fields = fields

    def __call__(self, t):
        ts = self.times
        if t < ts[0] - 1e-9 or t > ts[-1] + 1e-9:
            raise ValueError(f"background queried outside [{ts[0]}, {ts[-1]}]")
        j = int(np.clip(np.searchsorted(ts, t) - 1, 0, ts.size - 2))
        lam = (t - ts[j]) / (ts[j + 1] - ts[j])
        lam = min(max(lam, 0.0), 1.0)
        a, b = self.fields[j], self.fields[j + 1]
        return LatticeField(
            a.offset, (1 - lam) * a.r + lam * b.r, (1 - lam) * a.p + lam * b.p
        )


def _check_state(t, snap, cfg):
    if not (np.all(np.isfinite(snap.r)) and np.all(np.isfinite(snap.p))):
        raise RuntimeError(f"state became non-finite at t={t:.6g}")
    _check_edges(t, snap, cfg)


def _check_edges(t, snap, cfg):
    lo, hi = snap.boundary_mass(BOUNDARY_WIDTH)
    if max(lo, hi) > cfg.boundary_tol:
        raise RuntimeError(
            f"boundary mass {max(lo, hi):.3e} exceeds {cfg.boundary_tol:.3e} "
            f"at t={t:.6g}; enlarge the window"
        )


def _run(step, u0, cfg):
    """Shared stepping/recording loop.

    step(k, r, p) advances the arrays r, p in place from k dt to
    (k + 1) dt, k the step index.  Records and checks a copy of the state
    at t = 0, after every `stride`-th step and after the last step, and
    checks the edges of the live state every BOUNDARY_CHECK_TIME between
    records.  Finiteness is checked on records only: a non-finite value
    never leaves the state.
    """
    r = u0.r.copy()
    p = u0.p.copy()
    live = LatticeField(u0.offset, r, p)  # views of the stepped arrays
    check_every = int(np.ceil(BOUNDARY_CHECK_TIME / cfg.dt))
    times, fields = [], []

    def record(t):
        snap = LatticeField(u0.offset, r.copy(), p.copy())
        _check_state(t, snap, cfg)
        times.append(t)
        fields.append(snap)

    record(0.0)
    n_steps = cfg.n_steps
    for k in range(n_steps):
        step(k, r, p)
        if (k + 1) % cfg.stride == 0 or k + 1 == n_steps:
            record((k + 1) * cfg.dt)
        elif (k + 1) % check_every == 0:
            _check_edges((k + 1) * cfg.dt, live, cfg)
    return Trajectory(times=np.asarray(times), fields=fields)


def evolve_nonlinear(u0, model, cfg):
    """Integrate du/dt = J H'(u) from u0 by Stormer-Verlet.

    V' is evaluated n_steps + 1 times: once at u0, then once per step at
    the drifted r, whose force ends that step and starts the next.

    Returns the frames at t = 0, every `stride` steps and t_end, each
    checked by the boundary alarm.
    """
    dv = model.dv
    dt = cfg.dt
    force = _shift_backward_diff(dv(u0.r))

    def step(k, r, p):
        nonlocal force
        p += 0.5 * dt * force
        r += dt * _shift_forward_diff(p)
        force = _shift_backward_diff(dv(r))
        p += 0.5 * dt * force

    return _run(step, u0, cfg)


def evolve_linearized(w0, background, model, cfg, forcing_f1=None):
    """Integrate dw/dt = J H''(U(t)) w + F1(t) by RK4.

    background: callable t -> LatticeField (or None for the zero state);
    forcing_f1: callable t -> LatticeField or None (a forcing J F2 is
    F1 = apply_j(F2)).

    Step k has its stage times k dt, (k + 1/2) dt and (k + 1) dt, so a
    step's k4 time is the next step's k1 time bit for bit, and V''(U(t))
    is evaluated once per distinct stage time: 2 n_steps + 1 background
    calls in all (V''(0) once when background is None).  Records and
    checks frames like evolve_nonlinear.
    """
    dt = cfg.dt
    flat = model.d2v(np.zeros_like(w0.r)) if background is None else None

    def coefficient(t):
        return flat if background is None else model.d2v(background(t).r)

    def deriv(t, coeff, r, p):
        dr = _shift_forward_diff(p)
        dp = _shift_backward_diff(coeff * r)
        if forcing_f1 is not None:
            f1 = forcing_f1(t)
            dr = dr + f1.r
            dp = dp + f1.p
        return dr, dp

    start = coefficient(0.0)  # V'' at the start of the next step

    def step(k, r, p):
        nonlocal start
        t, mid, end = k * dt, (k + 0.5) * dt, (k + 1) * dt
        c_mid, c_end = coefficient(mid), coefficient(end)
        k1r, k1p = deriv(t, start, r, p)
        k2r, k2p = deriv(mid, c_mid, r + dt / 2 * k1r, p + dt / 2 * k1p)
        k3r, k3p = deriv(mid, c_mid, r + dt / 2 * k2r, p + dt / 2 * k2p)
        k4r, k4p = deriv(end, c_end, r + dt * k3r, p + dt * k3p)
        start = c_end
        r += dt / 6 * (k1r + 2 * k2r + 2 * k3r + k4r)
        p += dt / 6 * (k1p + 2 * k2p + 2 * k3p + k4p)

    return _run(step, w0, cfg)
