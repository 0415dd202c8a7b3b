"""The four paper-shaped workloads of the benchmark.

Each workload is three functions:

* ``setup(seed, size)`` builds the inputs from the seed (the only place
  the seed is used) and returns them;
* ``drive(inputs)`` makes the package calls one pass consists of and
  returns the outputs;
* ``check(outputs, size)`` compares the outputs with reference values and
  returns a list of misses (empty when the pass is correct).

``size`` is ``"full"`` for measured runs and ``"smoke"`` for the
benchmark's own tests; asymptotic checks only hold at full size.

The package is reached through module attributes (``modulation.track``,
not a name imported from it), so the traced run sees the wrappers it
installs at the binding sites.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from fpulab import backlund, diagnostics, integrators, kdv, lattice, modulation, waves


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[[int, str], Any]
    drive: Callable[[Any], dict]
    check: Callable[[dict, str], list]


def digest(outputs):
    """sha256 over the exact bits of every output, in key order.

    Information only: a legitimate reordering of float operations
    changes the bits without making the answer wrong.
    """
    h = hashlib.sha256()
    for key in sorted(outputs):
        h.update(key.encode())
        h.update(np.ascontiguousarray(np.asarray(outputs[key], dtype=float)).tobytes())
    return h.hexdigest()


def _finite(outputs, keys):
    return ["%s is not finite" % k for k in keys
            if not np.all(np.isfinite(np.asarray(outputs[k], dtype=float)))]


# -- fpu_track -----------------------------------------------------------------
# alpha-FPU two-wave train, the only non-integrable workload: Petviashvili
# node solves in set-up, ProfileTable spline churn and the decompose Newton
# loop in the pass.

FPU_SPEEDS = (1.02, 1.05)
FPU_CRESTS = (-300.0, -200.0)
FPU_WINDOW = (-1000, 2000)  # offset, sites
FPU_SIZES = {"full": (500.0, 100), "smoke": (20.0, 20)}  # t_end, stride
FPU_NEWTON_ITERS = 299  # total over the 101 frames at this commit
FPU_NEWTON_SLACK = 3  # a float reordering may move a frame across tol


def fpu_track_setup(seed, size):
    del seed  # the train is fixed; nothing in it is drawn
    model = lattice.PotentialModel.alpha_fpu()
    table = modulation.ProfileTable(model)
    u0 = modulation.train_field(table, np.array(FPU_SPEEDS), np.array(FPU_CRESTS),
                                *FPU_WINDOW)
    t_end, stride = FPU_SIZES[size]
    cfg = integrators.EvolveConfig(dt=0.05, t_end=t_end, stride=stride)
    return {"model": model, "table": table, "u0": u0, "cfg": cfg}


def fpu_track_drive(inp):
    traj = integrators.evolve_nonlinear(inp["u0"], inp["model"], inp["cfg"])
    guess = (np.array(FPU_SPEEDS), np.array(FPU_CRESTS))
    trk = modulation.track(traj, inp["model"], guess, table=inp["table"])
    summary = modulation.track_summary(trk)
    return {
        "c_plus": trk.c_plus,
        "newton_iters": sum(s.iterations for s in trk.states),
        "speeds": trk.speeds,
        "positions": trk.positions,
        "sup_v_l2": summary["sup_v_l2"],
        "max_energy_gap": summary["max_energy_gap"],
    }


def fpu_track_check(out, size):
    misses = _finite(out, ("speeds", "positions", "sup_v_l2", "max_energy_gap"))
    dev = np.max(np.abs(out["c_plus"] - np.array(FPU_SPEEDS)))
    if not dev <= 1e-6:
        misses.append("c_plus is %.3e from %s" % (dev, FPU_SPEEDS))
    if size == "full" and abs(out["newton_iters"] - FPU_NEWTON_ITERS) > FPU_NEWTON_SLACK:
        misses.append("%d Newton iterations, reference %d"
                      % (out["newton_iters"], FPU_NEWTON_ITERS))
    return misses


# -- toda_split ----------------------------------------------------------------
# Toda train plus a seeded kick: two long Verlet runs dominate, the closed
# form bypasses the profile table, and the M1-M5 diagnostics run at the end.

TODA_KAPPAS = (0.3, 0.45)
TODA_CRESTS = (-115.0, -85.0)
TODA_WINDOW = (-1500, 3000)
TODA_KICK_NORM = 2e-3
TODA_SIZES = {"full": (1000.0, 800), "smoke": (40.0, 160)}  # t_end, stride


def _toda_speeds():
    return np.array([waves.speed_of_kappa(k) for k in TODA_KAPPAS])


def toda_split_setup(seed, size):
    rng = np.random.default_rng(seed)
    model = lattice.PotentialModel.toda()
    table = modulation.ProfileTable(model)
    offset, length = TODA_WINDOW
    sites = offset + np.arange(length)
    train = modulation.train_field(table, _toda_speeds(), np.array(TODA_CRESTS),
                                   offset, length)
    # the kick of the modulation tests' perturbed pair, with a drawn centre
    # between the two crests
    centre = rng.uniform(TODA_CRESTS[0] + 5.0, TODA_CRESTS[1] - 5.0)
    bump = np.exp(-((sites - centre) ** 2) / 12.0)
    scale = TODA_KICK_NORM / np.sqrt(np.sum((0.7 * bump) ** 2 + (0.5 * bump) ** 2))
    v0 = lattice.LatticeField(offset, 0.7 * bump * scale, -0.5 * bump * scale)
    u0 = lattice.LatticeField(offset, train.r + v0.r, train.p + v0.p)
    t_end, stride = TODA_SIZES[size]
    cfg = integrators.EvolveConfig(dt=0.05, t_end=t_end, stride=stride)
    return {"model": model, "table": table, "u0": u0, "v0": v0, "cfg": cfg}


def toda_split_drive(inp):
    guess = (_toda_speeds(), np.array(TODA_CRESTS))
    split = modulation.perturbation_split(inp["u0"], inp["v0"], inp["model"],
                                          inp["cfg"], guess, table=inp["table"])
    eps = split.track.states[0].eps
    metrics = diagnostics.stability_metrics(split.track, split, eps)
    return {
        "c_plus": split.track.c_plus,
        "speeds": split.track.speeds,
        "bound_l2": split.bound_l2,
        "free_l2": split.free_l2,
        "M": np.array([metrics["M%d" % i] for i in range(1, 6)]),
    }


# speed shift allowed per wave; the kick moves the slow wave by at most
# 0.06 of its norm over seeds 0-7 at this commit
TODA_C_PLUS_TOL = 0.25 * TODA_KICK_NORM


def toda_split_check(out, size):
    misses = _finite(out, ("speeds", "bound_l2", "free_l2", "M"))
    dev = np.max(np.abs(out["c_plus"] - _toda_speeds()))
    if not dev <= TODA_C_PLUS_TOL:
        misses.append("c_plus is %.3e from the unkicked speeds" % dev)
    return misses


# -- kdv_decay -----------------------------------------------------------------
# The projected linearized KdV flow of test_projected_flow_decay_rate:
# TauLadder builds and evaluations plus FFTs, no lattice code.

KDV_TRAIN = kdv.SolitonFamily([0.5, 1.0], [np.log(3.0), 0.0])
KDV_A = 0.4
KDV_DX = 0.05
KDV_SIZES = {"full": (5.0, 125), "smoke": (0.2, 25)}  # t1, record_every


def kdv_decay_setup(seed, size):
    del seed  # the run of the test, unchanged
    x = kdv.uniform_grid(-140.0, 40.0 - KDV_DX, KDV_DX)
    g = kdv.GridField(x[0], KDV_DX, np.exp(-x ** 2 / 8.0))
    _, q0 = backlund.secular_projection(g, KDV_TRAIN, 0.0, KDV_A)
    return {"q0": q0, "size": size}


def kdv_decay_drive(inp):
    t1, record_every = KDV_SIZES[inp["size"]]
    traj = backlund.linearized_kdv_evolve(
        inp["q0"], KDV_TRAIN, 0.0, t1, KDV_A, 2e-3, frame_speed=1.0,
        reproject_every=100, record_every=record_every,
        measure_span=(-50.0, 25.0), sponge=(28.0, 40.0, 100.0))
    out = {"t": traj.t, "weighted_norm": traj.weighted_norm,
           "q_residual": traj.q_residual}
    if traj.t[-1] >= 4.0:
        log_norm = np.log(traj.weighted_norm)
        sel = traj.t >= 1.0
        out["rate"] = -np.polyfit(traj.t[sel], log_norm[sel], 1)[0]
        late = traj.t >= 4.0
        out["tail_rate"] = -np.polyfit(traj.t[late], log_norm[late], 1)[0]
    return out


def kdv_decay_check(out, size):
    misses = _finite(out, ("weighted_norm", "q_residual"))
    if size == "full":
        bound = 0.9 * KDV_A * (1.0 - KDV_A ** 2)
        if not out["rate"] >= bound:
            misses.append("decay rate %.6g below %.6g" % (out["rate"], bound))
        if not 0.25 < out["tail_rate"] < 0.45:
            misses.append("tail rate %.6g outside (0.25, 0.45)" % out["tail_rate"])
    return misses


# -- ladder_walk ---------------------------------------------------------------
# ladder_conjugate down and back up for N = 2, 4, 8: 2^N-subset evaluations
# for many distinct perturbed families and the Python recurrences of the
# linearized maps.

LADDER_SIZES = {"full": (2, 4, 8), "smoke": (2,)}
LADDER_DX = 0.02
LADDER_T = 0.0
LADDER_A = 0.4
LADDER_SPACING = 4.0  # sites between level anchors
LADDER_CENTRE = -5.0  # middle of the window [-45, 35]
# Bound on the equivalence constant, the ratio of the level-0 and level-N
# weighted norms of the walked bump.  At N = 2 it is the bound of the
# round-trip test in tests/test_backlund.py.  The ratio grows with the
# number of levels and depends on the drawn bump: at N = 8 it exceeds 10
# on about 2 seeds in 100 (15.2 at seed 503, at most 6.3 at N = 4), so
# N = 4 and 8 get that test's looser bound of 50.
LADDER_EQUIVALENCE_BOUND = {2: 10.0, 4: 50.0, 8: 50.0}


def ladder_family(n):
    """Family whose level anchors sit on integer grid points.

    The top phases are back-solved from the wanted anchors:
    gamma_i = anchor_{i+1} - sum_{l>i} log((k_l-k_i)/(k_l+k_i)) / (2 k_i).
    Every level crest then lands on the grid, as _crest_index requires.
    """
    k = np.linspace(0.5, 1.0, n)
    anchors = np.round(LADDER_CENTRE + LADDER_SPACING * (np.arange(n) - (n - 1) / 2.0))
    gamma = np.array([
        anchors[i] - sum(np.log((k[l] - k[i]) / (k[l] + k[i])) / (2.0 * k[i])
                         for l in range(i + 1, n))
        for i in range(n)
    ])
    family = kdv.SolitonFamily(k, gamma)
    ladder = backlund.phase_ladder(family)
    got = np.array([ladder.anchor(m) for m in range(1, n + 1)])
    if not np.allclose(got, anchors, rtol=0.0, atol=1e-9):
        raise RuntimeError("back-solved phases miss the level anchors")
    return family


def _parameter_modes(family, x, step=1e-5):
    """Central differences of phi_N in every gamma_i and k_i."""
    modes = []
    for i in range(family.n):
        for which in ("gamma", "k"):
            pair = []
            for s in (step, -step):
                k = family.k.copy()
                g = family.gamma.copy()
                (g if which == "gamma" else k)[i] += s
                fam = kdv.SolitonFamily(k, g)
                pair.append(kdv.TauLadder(fam, fam.n).second_derivative(LADDER_T, x))
            modes.append((pair[0] - pair[1]) / (2.0 * step))
    return modes


def ladder_walk_setup(seed, size):
    rng = np.random.default_rng(seed)
    x = kdv.uniform_grid(-45.0, 35.0, LADDER_DX)
    cases = []
    for n in LADDER_SIZES[size]:
        family = ladder_family(n)
        raw = (np.exp(-(x - rng.uniform(-5, 5)) ** 2 / (2 * rng.uniform(1.5, 3.0) ** 2))
               * np.cos(rng.uniform(0, 1) * x + rng.uniform(0, 6.28)))
        modes = _parameter_modes(family, x)
        gram = np.array([[np.sum(a * b) * LADDER_DX for b in modes] for a in modes])
        rhs = np.array([np.sum(raw * m) * LADDER_DX for m in modes])
        coef = np.linalg.solve(gram, rhs)
        bump = raw - sum(c * m for c, m in zip(coef, modes))
        cases.append((family, kdv.GridField(x[0], LADDER_DX, bump)))
    return cases


def ladder_walk_drive(cases):
    out = {}
    for family, field in cases:
        down = backlund.ladder_conjugate(field, family, LADDER_T, LADDER_A,
                                         direction="down")
        up = backlund.ladder_conjugate(down.field, family, LADDER_T, LADDER_A,
                                       direction="up")
        err = np.sqrt(np.sum((up.field.values - field.values) ** 2)
                      / np.sum(field.values ** 2))
        out["round_trip_%d" % family.n] = err
        out["equivalence_%d" % family.n] = down.equivalence_constant()
        out["bottom_%d" % family.n] = down.field.values
    return out


def ladder_walk_check(out, size):
    misses = _finite(out, list(out))
    for n in LADDER_SIZES[size]:
        if not out["round_trip_%d" % n] < 1e-6:
            misses.append("N=%d round trip error %.3e" % (n, out["round_trip_%d" % n]))
        if not out["equivalence_%d" % n] < LADDER_EQUIVALENCE_BOUND[n]:
            misses.append("N=%d equivalence constant %.3g"
                          % (n, out["equivalence_%d" % n]))
    return misses


WORKLOADS = {w.name: w for w in (
    Workload("fpu_track",
             "alpha-FPU train tracked over 101 frames: node solves in set-up, "
             "ProfileTable spline churn and decompose Newton steps in the pass",
             fpu_track_setup, fpu_track_drive, fpu_track_check),
    Workload("toda_split",
             "Toda train with a seeded kick: two long Verlet runs dominate, the "
             "closed form skips table node solves and interpolation; the only "
             "M1-M5 user",
             toda_split_setup, toda_split_drive, toda_split_check),
    Workload("kdv_decay",
             "projected linearized KdV decay: TauLadder rebuilt in every RK "
             "stage, FFT steps; no lattice or modulation code",
             kdv_decay_setup, kdv_decay_drive, kdv_decay_check),
    Workload("ladder_walk",
             "ladder_conjugate down and up for N=2,4,8 on seeded bumps: 2^8-"
             "subset evaluations for distinct families, no reuse across steps",
             ladder_walk_setup, ladder_walk_drive, ladder_walk_check),
)}
