"""Per-layer metrics derived from a traced run.

A traced run records one set-up scope and several pass scopes.  Every
metric describes the work of one set-up plus one pass:

* counts (calls, iterations, steps) add the set-up to the first pass;
  every traced pass must repeat the first pass's counts exactly;
* self and inclusive times add the set-up to the median over passes;
* percentiles pool the span durations of every traced scope.
"""

from __future__ import annotations

import statistics

import numpy as np


def median(values):
    return statistics.median(values) if values else 0.0


class Combined:
    """One set-up summary plus the summaries of the traced passes."""

    def __init__(self, setup, passes):
        self.setup = setup
        self.passes = passes

    def calls(self, name):
        return self.setup.calls(name) + self.passes[0].calls(name)

    def count(self, key):
        return self.setup.counts[key] + self.passes[0].counts[key]

    def self_s(self, name):
        return self.setup.self_s(name) + median([p.self_s(name) for p in self.passes])

    def incl_s(self, name):
        return self.setup.incl_s(name) + median([p.incl_s(name) for p in self.passes])

    def percentile_us(self, name, q):
        pooled = list(self.setup.durations(name))
        for p in self.passes:
            pooled.extend(p.durations(name))
        return float(np.percentile(pooled, q)) * 1e6 if pooled else 0.0

    def parents_named(self, child, parent):
        return (self.setup.parents_named(child, parent)
                + self.passes[0].parents_named(child, parent))

    def count_mismatches(self):
        """(pass position, name) for every span call count or counter in
        which a traced pass differs from the first pass."""
        def flat(summary):
            out = {"calls " + n: e["calls"] for n, e in summary.stats.items()}
            out.update(("count " + k, v) for k, v in summary.counts.items())
            return out

        first = flat(self.passes[0])
        out = []
        for i, summary in enumerate(self.passes[1:], 1):
            this = flat(summary)
            out.extend((i, name) for name in sorted(set(first) | set(this))
                       if first.get(name, 0) != this.get(name, 0))
        return out


def _ratio(num, den):
    return num / den if den else 0.0


def _calls(metric, span):
    return (metric, "count", "lower", lambda c: c.calls(span))


def _self(metric, span):
    return (metric, "s", "lower", lambda c: c.self_s(span))


def _count(metric):
    return (metric, "count", "lower", lambda c: c.count(metric))


def _pct(metric, span, q):
    return (metric, "us", "lower", lambda c: c.percentile_us(span, q))


EVOLVE = "integrators.evolve_nonlinear"
LATTICE_FIELD = "waves.WaveProfile.lattice_field"
MODES = "modulation.ProfileTable.modes"
TAU_BUILD = "kdv.TauLadder.build"
TAU_EVAL = "kdv.TauLadder.eval"


def _modes_hit_ratio(c):
    # a lookup that misses the mode cache differentiates a profile
    misses = c.parents_named("waves.profile_derivative", MODES)
    return 1.0 - _ratio(misses, c.calls(MODES)) if c.calls(MODES) else 0.0


# (metric, unit, better, fn(Combined) -> value); trace.overhead_frac is
# measured by the runner from whole passes.
PER_LAYER = [
    _self("integrators.evolve_nonlinear.self_s", EVOLVE),
    _count("integrators.steps"),
    ("integrators.step_us", "us", "lower",
     lambda c: _ratio(c.self_s(EVOLVE) * 1e6, c.count("integrators.steps"))),

    _calls("waves.solve_profile.calls", "waves.solve_profile"),
    _self("waves.solve_profile.self_s", "waves.solve_profile"),
    _count("waves.petviashvili_iters"),
    _calls("waves.lattice_field.calls", LATTICE_FIELD),
    _self("waves.lattice_field.self_s", LATTICE_FIELD),
    _calls("waves.profile_derivative.calls", "waves.profile_derivative"),
    _self("waves.profile_derivative.self_s", "waves.profile_derivative"),
    _calls("waves.spline_builds", "waves.CubicSpline"),

    _calls("modulation.decompose.calls", "modulation.decompose"),
    _pct("modulation.decompose.p50_us", "modulation.decompose", 50),
    _pct("modulation.decompose.p90_us", "modulation.decompose", 90),
    _count("modulation.newton_iters"),
    ("modulation.frame_ms", "ms", "lower",
     lambda c: _ratio(c.incl_s("modulation.track") * 1e3, c.count("modulation.frames"))),
    _calls("modulation.secular_gram.calls", "modulation.secular_gram"),
    _self("modulation.secular_gram.self_s", "modulation.secular_gram"),
    _calls("modulation.ProfileTable.modes.calls", MODES),
    _calls("modulation.ProfileTable.profile.calls", "modulation.ProfileTable.profile"),
    ("modulation.modes_hit_ratio", "ratio", "higher", _modes_hit_ratio),

    _calls("lattice.weighted_pairing.calls", "lattice.weighted_pairing"),
    _self("lattice.weighted_pairing.self_s", "lattice.weighted_pairing"),
    _calls("lattice.hamiltonian.calls", "lattice.hamiltonian"),
    _self("lattice.hamiltonian.self_s", "lattice.hamiltonian"),

    _calls("kdv.TauLadder.build.calls", TAU_BUILD),
    _self("kdv.TauLadder.build.self_s", TAU_BUILD),
    _calls("kdv.TauLadder.eval.calls", TAU_EVAL),
    _self("kdv.TauLadder.eval.self_s", TAU_EVAL),
    _pct("kdv.TauLadder.eval.p50_us", TAU_EVAL, 50),
    _pct("kdv.TauLadder.eval.p99_us", TAU_EVAL, 99),
    _count("kdv.subset_points"),
    ("kdv.builds_per_eval", "ratio", "lower",
     lambda c: _ratio(c.calls(TAU_BUILD), c.calls(TAU_EVAL))),
    _calls("kdv.secular_basis.calls", "kdv.secular_basis"),
    _self("kdv.secular_basis.self_s", "kdv.secular_basis"),

    _self("backlund.linearized_kdv_evolve.self_s", "backlund.linearized_kdv_evolve"),
    _count("backlund.spectral_steps"),
    _calls("backlund.linearized_inverse.calls", "backlund.linearized_inverse"),
    _self("backlund.linearized_inverse.self_s", "backlund.linearized_inverse"),
    _calls("backlund.linearized_forward.calls", "backlund.linearized_forward"),
    _self("backlund.linearized_forward.self_s", "backlund.linearized_forward"),
    _self("backlund.ladder_conjugate.self_s", "backlund.ladder_conjugate"),
    _self("backlund.secular_projection.self_s", "backlund.secular_projection"),

    _self("diagnostics.stability_metrics.self_s", "diagnostics.stability_metrics"),
    _calls("diagnostics.weighted_norm.calls", "diagnostics.weighted_norm"),
]

OVERHEAD = ("trace.overhead_frac", "ratio", "lower")


def layer_metrics(combined):
    """{metric: (value, unit)} for every entry of PER_LAYER."""
    return {name: (fn(combined), unit) for name, unit, _, fn in PER_LAYER}
