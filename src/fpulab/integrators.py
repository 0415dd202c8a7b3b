"""Time evolution for the FPU chain and its linearizations.

The nonlinear flow du/dt = J H'(u) is integrated by Stormer-Verlet on the
second-order form (kick-drift-kick on p and r), which is symplectic and
time-reversible.  Several fields on one window run as the rows of one
(rows, L) state, so each step makes one V' call and one pass of each
ufunc for all of them; a single field is the one-row case.  Verlet makes
one force evaluation per step: the half kick (0.5 dt) (1 - S^{-1}) V'
that ends a step also starts the next, so it is kept in its own buffer
and added twice, not evaluated or scaled again.  The step writes into
that buffer and a drift buffer with out= ufuncs through slice views made
once before the loop, so it allocates nothing besides the array V'
returns, and each float operation keeps the order of the textbook
kick-drift-kick step: a row stepped with others is bit-identical to the
same field stepped alone.  Linear nonautonomous equations
dw/dt = J H''(U(t)) w + F1(t) use RK4 with the background supplied
either as a closed form or as a sampled trajectory.  Their step,
_rk4_stepper, is an integrating-factor RK4 step with unit factors; the
two pseudospectral KdV flows of the backlund module take the same step
with their dispersion factors.

Windows use zero extension.  A run records the frames at t = 0, every
`stride` steps and t_end (`Trajectory.final`), and a boundary alarm aborts
it when a frame has l2 mass above `boundary_tol` on the outer
BOUNDARY_WIDTH sites of an edge.  Between records the alarm also reads the
live state every BOUNDARY_WIDTH / 4 time units, so a run with a long
stride cannot cross the edge unnoticed.  Records, finiteness checks and
alarms are per row; with several rows an alarm names the field that
fired ("field 2 of 2: ...").
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
        end = self.n_steps * self.dt
        if abs(end - self.t_end) > 1e-9 * max(1.0, self.t_end):
            raise ValueError(
                f"t_end={self.t_end!r} is not a whole number of steps of "
                f"dt={self.dt!r}: the run would end at n_steps*dt={end!r}"
            )

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


def _check_state(t, snap, cfg, name):
    if not (np.all(np.isfinite(snap.r)) and np.all(np.isfinite(snap.p))):
        raise RuntimeError(f"{name}state became non-finite at t={t:.6g}")
    _check_edges(t, snap, cfg, name)


def _check_edges(t, snap, cfg, name):
    lo, hi = snap.boundary_mass(BOUNDARY_WIDTH)
    if max(lo, hi) > cfg.boundary_tol:
        raise RuntimeError(
            f"{name}boundary mass {max(lo, hi):.3e} exceeds "
            f"{cfg.boundary_tol:.3e} at t={t:.6g}; enlarge the window"
        )


def _stack(fields):
    """The common window offset of `fields` and copies of their r and p
    stacked into (rows, L) arrays, one row per field."""
    offset, length = fields[0].offset, len(fields[0])
    if any(f.offset != offset or len(f) != length for f in fields):
        raise ValueError("fields must share the window")
    return offset, np.stack([f.r for f in fields]), np.stack([f.p for f in fields])


def _run(step, offset, r, p, cfg):
    """Shared stepping/recording loop over a (rows, L) state, one row per
    field.

    step(k) advances the arrays r, p in place from k dt to (k + 1) dt, k
    the step index.  Records and checks a copy of each row at t = 0,
    after every `stride`-th step and after the last step, and checks the
    edges of each live row every BOUNDARY_CHECK_TIME between records.
    Finiteness is checked on records only: a non-finite value never
    leaves the state.  With more than one row an alarm names its field,
    "field i of rows: ...".  Returns one Trajectory per row.
    """
    rows = r.shape[0]
    names = [""] if rows == 1 else [f"field {i + 1} of {rows}: " for i in range(rows)]
    live = [LatticeField(offset, r[i], p[i]) for i in range(rows)]  # views
    check_every = int(np.ceil(BOUNDARY_CHECK_TIME / cfg.dt))
    times, fields = [], [[] for _ in range(rows)]

    def record(t):
        for row, name, out in zip(live, names, fields):
            snap = row.copy()
            _check_state(t, snap, cfg, name)
            out.append(snap)
        times.append(t)

    record(0.0)
    n_steps = cfg.n_steps
    for k in range(n_steps):
        step(k)
        if (k + 1) % cfg.stride == 0 or k + 1 == n_steps:
            record((k + 1) * cfg.dt)
        elif (k + 1) % check_every == 0:
            for row, name in zip(live, names):
                _check_edges((k + 1) * cfg.dt, row, cfg, name)
    return [Trajectory(times=np.asarray(times), fields=out) for out in fields]


def evolve_nonlinear(u0, model, cfg):
    """Integrate du/dt = J H'(u) from u0 by Stormer-Verlet.

    u0 is one LatticeField, or a tuple of fields on one window (another
    window raises ValueError), which are stepped together as the rows of
    one (rows, L) state: one V' call per step covers every row, so V'
    must act elementwise.  V' is evaluated n_steps + 1 times: once at
    u0, then once per step at the drifted r, whose force ends that step
    and starts the next.

    Returns the frames at t = 0, every `stride` steps and t_end, each
    checked by the boundary alarm: one Trajectory for a field, a tuple
    of them, in the order given, for a tuple of fields.
    """
    fields = (u0,) if isinstance(u0, LatticeField) else tuple(u0)
    offset, r, p = _stack(fields)
    length = r.shape[1]
    dv = model.dv
    dt = cfg.dt
    half = 0.5 * dt
    # The step works on the rows laid end to end: one difference over the
    # flat state forms (S - 1) or (1 - S^{-1}) of every row, and the
    # zero extension at each row's last (drift) or first (kick) site then
    # overwrites the entry that straddles two rows.  `kick` is the half
    # kick (0.5 dt) (1 - S^{-1}) V'(r), carried from one step's end to
    # the next step's start; `drift` is scratch.
    kick = np.multiply(_shift_backward_diff(dv(r)), half).reshape(-1)
    drift = np.empty_like(kick)
    flat_r, flat_p = r.reshape(-1), p.reshape(-1)
    p_hi, p_lo, p_last = flat_p[1:], flat_p[:-1], flat_p[length - 1::length]
    drift_lo, drift_last = drift[:-1], drift[length - 1::length]
    kick_hi, kick_first = kick[1:], kick[::length]

    def step(k):
        np.add(flat_p, kick, out=flat_p)
        np.subtract(p_hi, p_lo, out=drift_lo)
        np.negative(p_last, out=drift_last)
        np.multiply(drift, dt, out=drift)
        np.add(flat_r, drift, out=flat_r)
        force = dv(r).reshape(-1)
        np.subtract(force[1:], force[:-1], out=kick_hi)
        kick_first[...] = force[::length]
        np.multiply(kick, half, out=kick)
        np.add(flat_p, kick, out=flat_p)

    trajs = _run(step, offset, r, p, cfg)
    return trajs[0] if isinstance(u0, LatticeField) else tuple(trajs)


def _rk4_stepper(t0, dt, coefficient, term, half, full):
    """The integrating-factor RK4 step of dv/dt = L v + term(coefficient(t), v).

    half = e^{L dt/2} and full = e^{L dt} are the exact factors of the
    linear part, arrays or scalars (1.0 and 1.0 make the step classical
    RK4).  Returns step(v, s), which returns v advanced from t0 + s dt to
    t0 + (s + 1) dt.  Every stage time comes from that one sequence, so a
    step's k4 time is the next step's k1 time bit for bit, and coefficient
    is called once per distinct stage time: k2 and k3 share the midpoint's
    value, and the last value is kept for the next step's k1, so n
    consecutive steps make 2 n + 1 calls.
    """
    last = [None, None]  # t and coefficient(t) of the last call

    def at(t):
        if t != last[0]:
            last[:] = t, coefficient(t)
        return last[1]

    def step(v, s):
        k1 = term(at(t0 + s * dt), v)
        mid = at(t0 + (s + 0.5) * dt)
        k2 = term(mid, half * (v + dt / 2.0 * k1))
        k3 = term(mid, half * v + dt / 2.0 * k2)
        k4 = term(at(t0 + (s + 1) * dt), full * v + dt * half * k3)
        return full * v + dt / 6.0 * (full * k1 + 2.0 * half * (k2 + k3) + k4)

    return step


def evolve_linearized(w0, background, model, cfg, forcing_f1=None):
    """Integrate dw/dt = J H''(U(t)) w + F1(t) by RK4 (_rk4_stepper).

    background: callable t -> LatticeField (or None for the zero state);
    forcing_f1: callable t -> LatticeField or None (a forcing J F2 is
    F1 = apply_j(F2)).

    The state is one (2, 1, L) array, r over p, and the step's
    coefficient at t is the pair V''(U(t)), F1(t), so background and
    forcing_f1 are each called once per distinct stage time k dt,
    (k + 1/2) dt and (k + 1) dt: 2 n_steps + 1 calls in all (V''(0) once
    when background is None).  Records and checks frames like
    evolve_nonlinear.
    """
    state = np.stack((w0.r, w0.p))[:, None]
    flat = model.d2v(np.zeros_like(w0.r)) if background is None else None

    def coefficient(t):
        d2v = flat if background is None else model.d2v(background(t).r)
        return d2v, None if forcing_f1 is None else forcing_f1(t)

    def term(coeff, v):
        d2v, f1 = coeff
        out = np.empty_like(v)
        out[0] = _shift_forward_diff(v[1])
        out[1] = _shift_backward_diff(d2v * v[0])
        if f1 is not None:
            out[0] += f1.r
            out[1] += f1.p
        return out

    step = _rk4_stepper(0.0, cfg.dt, coefficient, term, 1.0, 1.0)

    def advance(k):
        state[...] = step(state, k)

    return _run(advance, w0.offset, state[0], state[1], cfg)[0]
