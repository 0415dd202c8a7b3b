"""Core lattice objects: fields on a site window, interaction potentials,
exponential weight specifications, the symplectic operator J and its
inverse.

The state variable is u = (r, p) where r(n) is the relative displacement
between neighbouring sites and p(n) the momentum.  The evolution is
du/dt = J H'(u) with

    J = [[0, S-1], [1-S^{-1}, 0]],      (S f)(n) = f(n+1),

and H(u) = sum_n p(n)^2/2 + V(r(n)).  Fields live on a finite window of
consecutive sites and are extended by zero outside it.

Each operator has one entry point: a PotentialModel's public fields v, dv
and d2v are V, V' and V''; apply_j applies J and apply_j_inverse its
prefix-sum inverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np


class WeightKind(Enum):
    """Exponential weight families used by the diagnostics.

    RIGHT_GROWING is exp(a (n - center)), TWO_SIDED is exp(-a |n - center|),
    SIGMOID is 1 + tanh(a (n - center)); diagnostics.weighted_norm owns
    how each one weights a field.
    """

    RIGHT_GROWING = "right_growing"
    TWO_SIDED = "two_sided"
    SIGMOID = "sigmoid"


@dataclass
class WeightSpec:
    a: float
    center: float = 0.0
    kind: WeightKind = WeightKind.RIGHT_GROWING

    def __post_init__(self):
        # scalar checks: the diagnostics build one per wave and frame
        if not (math.isfinite(self.a) and math.isfinite(self.center)):
            raise ValueError("weight exponent and center must be finite")


@dataclass
class LatticeField:
    """A pair of real sequences (r, p) supported on sites
    offset, offset+1, ..., offset+len-1."""

    offset: int
    r: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        self.r = np.asarray(self.r, dtype=float)
        self.p = np.asarray(self.p, dtype=float)
        if self.r.shape != self.p.shape or self.r.ndim != 1:
            raise ValueError("r and p must be 1-d arrays of equal length")

    def __len__(self):
        return self.r.size

    @property
    def sites(self):
        return self.offset + np.arange(self.r.size)

    def copy(self):
        return LatticeField(self.offset, self.r.copy(), self.p.copy())

    def norm(self):
        return float(np.sqrt(np.sum(self.r**2) + np.sum(self.p**2)))

    def boundary_mass(self, width=10):
        """l2 mass of (r, p) on the outer `width` >= 1 sites of each edge."""
        if width < 1:
            raise ValueError("boundary width must be >= 1")
        w = min(int(width), len(self))
        lo = np.sum(self.r[:w] ** 2) + np.sum(self.p[:w] ** 2)
        hi = np.sum(self.r[-w:] ** 2) + np.sum(self.p[-w:] ** 2)
        return float(np.sqrt(lo)), float(np.sqrt(hi))


def zeros_field(offset, length):
    return LatticeField(int(offset), np.zeros(length), np.zeros(length))


@dataclass(frozen=True)
class PotentialModel:
    """Interaction potential V with V(0)=V'(0)=0 and V''(0)=1.

    The public fields v, dv and d2v are V, V' and V'' as callables on
    floats and arrays; they are the only way the package evaluates a
    potential.  Built-ins: alpha-FPU V(r)=r^2/2+r^3/6 and the Toda
    potential V(r)=e^r-1-r.  custom(v, dv) takes callables for V and V'
    and builds V'' once, as a central difference of V'.
    """

    name: str
    v: Callable
    dv: Callable
    d2v: Callable

    @classmethod
    def alpha_fpu(cls):
        return cls(
            "alpha_fpu",
            lambda r: 0.5 * r**2 + r**3 / 6.0,
            lambda r: r + 0.5 * r**2,
            lambda r: 1.0 + r,
        )

    @classmethod
    def toda(cls):
        return cls(
            "toda",
            lambda r: np.expm1(r) - r,
            lambda r: np.expm1(r),
            lambda r: np.exp(r),
        )

    @classmethod
    def custom(cls, v, dv):
        h = 1e-6

        def d2v(r):
            return (dv(r + h) - dv(r - h)) / (2 * h)

        model = cls("custom", v, dv, d2v)
        model.check_normalization()
        return model

    def check_normalization(self):
        """Verify V(0)=0, V'(0)=0, V''(0)=1 and a cubic Taylor
        coefficient of 1/6 to 1e-8, by central differences at the
        origin."""
        h = 1e-2
        r = h * np.arange(-3, 4)
        v = self.v(r)
        # fourth-order stencils for the second and third derivatives at 0
        d2 = (-v[5] + 16 * v[4] - 30 * v[3] + 16 * v[2] - v[1]) / (12 * h**2)
        d3 = (-v[6] + 8 * v[5] - 13 * v[4] + 13 * v[2] - 8 * v[1] + v[0]) / (8 * h**3)
        checks = {
            "V(0)": abs(float(self.v(0.0))),
            "V'(0)": abs(float(self.dv(0.0))),
            "V''(0)-1": abs(d2 - 1.0),
            "cubic-1/6": abs(d3 / 6.0 - 1.0 / 6.0),
        }
        bad = {k: v for k, v in checks.items() if not v <= 1e-8}
        if bad:
            raise ValueError(f"potential fails normalization checks: {bad}")
        return checks


def hamiltonian_density(field, model):
    """Lattice energy density p^2/2 + V(r) per site."""
    return 0.5 * field.p**2 + model.v(field.r)


def hamiltonian(field, model):
    """Total lattice energy sum p^2/2 + V(r)."""
    return float(np.sum(hamiltonian_density(field, model)))


def _shift_forward_diff(x):
    """(S - 1) x with zero extension along the last axis:
    out(n) = x(n+1) - x(n)."""
    out = np.empty_like(x)
    np.subtract(x[..., 1:], x[..., :-1], out=out[..., :-1])
    out[..., -1] = -x[..., -1]
    return out


def _shift_backward_diff(x):
    """(1 - S^{-1}) x with zero extension along the last axis:
    out(n) = x(n) - x(n-1)."""
    out = np.empty_like(x)
    np.subtract(x[..., 1:], x[..., :-1], out=out[..., 1:])
    out[..., 0] = x[..., 0]
    return out


def apply_j(v):
    """J v = ((S-1) v_p, (1-S^{-1}) v_r) with zero extension."""
    return LatticeField(v.offset, _shift_forward_diff(v.p), _shift_backward_diff(v.r))


def apply_j_inverse(v):
    """J^{-1} v from prefix sums over the window:

        (J^{-1} v)_1(n) = sum_{m <= n} v_2(m),
        (J^{-1} v)_2(n) = sum_{m <= n-1} v_1(m).

    Applying J after J^{-1} telescopes these sums back to v exactly.
    """
    first = np.cumsum(v.p)
    second = np.concatenate(([0.0], np.cumsum(v.r)[:-1]))
    return LatticeField(v.offset, first, second)
