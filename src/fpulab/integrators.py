"""Time evolution for the FPU chain and its linearizations.

The nonlinear flow du/dt = J H'(u) is integrated by Stormer-Verlet on the
second-order form (kick-drift-kick on p and r), which is symplectic and
time-reversible.  Verlet makes one force evaluation per step: the force
at the end of a step is the force of the next step's first half kick, so
it is carried over, not evaluated again.  Linear nonautonomous equations
dw/dt = J H''(U(t)) w + F1(t) use RK4 with the background
supplied either as a closed form or as a sampled trajectory.

Windows use zero extension; a boundary alarm aborts a run when mass
reaches the window edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import (
    LatticeField,
    _shift_backward_diff,
    _shift_forward_diff,
    hamiltonian,
    potential_eval,
)


@dataclass
class EvolveConfig:
    dt: float
    t_end: float
    stride: int = 1
    boundary_tol: float = 1e-8
    boundary_width: int = 10
    keep_snapshots: bool = True

    def __post_init__(self):
        if not 0 < self.dt <= 0.25:
            raise ValueError("dt must lie in (0, 0.25]")
        if self.t_end < 0:
            raise ValueError("t_end must be nonnegative")
        if self.stride < 1:
            raise ValueError("observer stride must be >= 1")

    @property
    def n_steps(self):
        return int(round(self.t_end / self.dt))


@dataclass
class Trajectory:
    times: np.ndarray
    fields: list
    observations: dict
    final: LatticeField


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
    lo, hi = snap.boundary_mass(cfg.boundary_width)
    if max(lo, hi) > cfg.boundary_tol:
        raise RuntimeError(
            f"boundary mass {max(lo, hi):.3e} exceeds {cfg.boundary_tol:.3e} "
            f"at t={t:.6g}; enlarge the window"
        )


def _run(step, u0, cfg, observers):
    """Shared stepping/observation loop.

    step(k, r, p) advances the arrays r, p in place from k dt to
    (k + 1) dt, k the step index.
    """
    observers = observers or {}
    r = u0.r.copy()
    p = u0.p.copy()
    offset = u0.offset
    times, fields = [], []
    obs_records = {name: [] for name in observers}

    def observe(t):
        snap = LatticeField(offset, r.copy(), p.copy())
        _check_state(t, snap, cfg)
        times.append(t)
        if cfg.keep_snapshots:
            fields.append(snap)
        for name, fn in observers.items():
            obs_records[name].append(fn(t, snap))

    observe(0.0)
    n_steps = cfg.n_steps
    for k in range(n_steps):
        step(k, r, p)
        if (k + 1) % cfg.stride == 0 or k + 1 == n_steps:
            observe((k + 1) * cfg.dt)

    observations = {name: np.asarray(vals) for name, vals in obs_records.items()}
    return Trajectory(
        times=np.asarray(times),
        fields=fields,
        observations=observations,
        final=LatticeField(offset, r, p),
    )


def evolve_nonlinear(u0, model, cfg, observers=None):
    """Integrate du/dt = J H'(u) from u0 by Stormer-Verlet.

    V' is evaluated n_steps + 1 times: once at u0, then once per step at
    the drifted r, whose force ends that step and starts the next.

    observers: dict name -> fn(t, field) evaluated every `stride` steps
    (and at the initial and final times).  Observers must not mutate the
    field they are handed.
    """
    dv = model._dv
    dt = cfg.dt
    force = _shift_backward_diff(dv(u0.r))

    def step(k, r, p):
        nonlocal force
        p += 0.5 * dt * force
        r += dt * _shift_forward_diff(p)
        force = _shift_backward_diff(dv(r))
        p += 0.5 * dt * force

    return _run(step, u0, cfg, observers)


def evolve_linearized(w0, background, model, cfg, forcing_f1=None,
                      observers=None):
    """Integrate dw/dt = J H''(U(t)) w + F1(t) by RK4.

    background: callable t -> LatticeField (or None for the zero state);
    forcing_f1: callable t -> LatticeField or None (a forcing J F2 is
    F1 = apply_j(F2)).

    Step k has its stage times k dt, (k + 1/2) dt and (k + 1) dt, so a
    step's k4 time is the next step's k1 time bit for bit, and V''(U(t))
    is evaluated once per distinct stage time: 2 n_steps + 1 background
    calls in all (V''(0) once when background is None).
    """
    dt = cfg.dt
    flat = (potential_eval(model, np.zeros_like(w0.r), 2)
            if background is None else None)

    def coefficient(t):
        return (flat if background is None
                else potential_eval(model, background(t).r, 2))

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

    return _run(step, w0, cfg, observers)


def energy_observer(model):
    """Observer recording the lattice Hamiltonian."""
    return lambda t, fld: hamiltonian(fld, model)


def crest_observer():
    """Observer recording the crest position of r by a three-point
    quadratic fit around the largest sample.

    For single-hump profiles the fit is applied to log r, which is much
    closer to a parabola near the crest; it falls back to the plain fit
    when a neighbour is not positive.
    """

    def fn(t, fld):
        j = int(np.argmax(fld.r))
        if j in (0, len(fld) - 1):
            return float(fld.offset + j)
        y0, y1, y2 = fld.r[j - 1], fld.r[j], fld.r[j + 1]
        if y0 > 0 and y1 > 0 and y2 > 0:
            y0, y1, y2 = np.log(y0), np.log(y1), np.log(y2)
        curv = y0 - 2 * y1 + y2
        delta = 0.5 * (y0 - y2) / curv if curv != 0 else 0.0
        return float(fld.offset + j + delta)

    return fn


def mass_center_observer():
    """Observer recording the first moment of r over its total mass."""

    def fn(t, fld):
        total = np.sum(fld.r)
        return float(np.sum(fld.sites * fld.r) / total) if total != 0 else np.nan

    return fn
