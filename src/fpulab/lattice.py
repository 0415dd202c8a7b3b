"""Core lattice objects: fields on a site window, interaction potentials,
exponential weights, the symplectic shift operator J and its inverse, and
pairings built from them.

The state variable is u = (r, p) where r(n) is the relative displacement
between neighbouring sites and p(n) the momentum.  The evolution is
du/dt = J H'(u) with

    J = [[0, S-1], [1-S^{-1}, 0]],      (S f)(n) = f(n+1),

and H(u) = sum_n p(n)^2/2 + V(r(n)).  Fields live on a finite window of
consecutive sites and are extended by zero outside it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

_BINARY_MAGIC = b"FPL1"


class JDirection(Enum):
    FORWARD = "forward"
    INVERSE = "inverse"


class PairingKind(Enum):
    PLAIN = "plain"
    J_INVERSE = "j_inverse"


class WeightKind(Enum):
    """Exponential weight families used by the diagnostics.

    RIGHT_GROWING is exp(a (n - center)), TWO_SIDED is exp(-a |n - center|),
    SIGMOID is 1 + tanh(a (n - center)).
    """

    RIGHT_GROWING = "right_growing"
    TWO_SIDED = "two_sided"
    SIGMOID = "sigmoid"


@dataclass
class WeightSpec:
    a: float
    center: float = 0.0
    kind: WeightKind = WeightKind.RIGHT_GROWING

    def values(self, n):
        """Evaluate the weight at (an array of) site positions."""
        n = np.asarray(n, dtype=float)
        s = n - self.center
        if self.kind is WeightKind.RIGHT_GROWING:
            return np.exp(self.a * s)
        if self.kind is WeightKind.TWO_SIDED:
            return np.exp(-self.a * np.abs(s))
        return 1.0 + np.tanh(self.a * s)

    def moved(self, center):
        return replace(self, center=center)


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
        """l2 mass of (r, p) on the outer `width` sites of each edge."""
        w = min(int(width), len(self))
        lo = np.sum(self.r[:w] ** 2) + np.sum(self.p[:w] ** 2)
        hi = np.sum(self.r[-w:] ** 2) + np.sum(self.p[-w:] ** 2)
        return float(np.sqrt(lo)), float(np.sqrt(hi))


def zeros_field(offset, length):
    return LatticeField(int(offset), np.zeros(length), np.zeros(length))


class PotentialModel:
    """Interaction potential V with V(0)=V'(0)=0 and V''(0)=1.

    Built-ins: alpha-FPU V(r)=r^2/2+r^3/6 and the Toda potential
    V(r)=e^r-1-r.  Custom potentials supply callables for V and V';
    V'' is optional and falls back to a central difference.
    """

    def __init__(self, name, v, dv, d2v=None):
        self.name = name
        self._v = v
        self._dv = dv
        self._d2v = d2v

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
    def custom(cls, v, dv, d2v=None, name="custom"):
        model = cls(name, v, dv, d2v)
        model.check_normalization()
        return model

    @classmethod
    def by_name(cls, name):
        table = {"alpha_fpu": cls.alpha_fpu, "toda": cls.toda}
        if name not in table:
            raise ValueError(f"unknown potential model '{name}'")
        return table[name]()

    def __call__(self, r, order=0):
        return potential_eval(self, r, order)

    def check_normalization(self, tol=1e-8):
        """Verify V(0)=0, V'(0)=0, V''(0)=1 and a cubic Taylor
        coefficient of 1/6, by central differences at the origin."""
        h = 1e-2
        r = h * np.arange(-3, 4)
        v = self._v(r)
        # fourth-order stencils for the second and third derivatives at 0
        d2 = (-v[5] + 16 * v[4] - 30 * v[3] + 16 * v[2] - v[1]) / (12 * h**2)
        d3 = (-v[6] + 8 * v[5] - 13 * v[4] + 13 * v[2] - 8 * v[1] + v[0]) / (8 * h**3)
        checks = {
            "V(0)": abs(float(self._v(0.0))),
            "V'(0)": abs(float(self._dv(0.0))),
            "V''(0)-1": abs(d2 - 1.0),
            "cubic-1/6": abs(d3 / 6.0 - 1.0 / 6.0),
        }
        bad = {k: v for k, v in checks.items() if v > tol}
        if bad:
            raise ValueError(f"potential fails normalization checks: {bad}")
        return checks


def potential_eval(model, r, order=0):
    """Evaluate V, V' or V'' of a potential model.

    Parameters
    ----------
    model : PotentialModel
    r : float or array
    order : int, 0 for V, 1 for V', 2 for V''
    """
    r = np.asarray(r, dtype=float)
    if order == 0:
        out = model._v(r)
    elif order == 1:
        out = model._dv(r)
    elif order == 2:
        if model._d2v is not None:
            out = model._d2v(r)
        else:
            h = 1e-6
            out = (model._dv(r + h) - model._dv(r - h)) / (2 * h)
    else:
        raise ValueError("order must be 0, 1 or 2")
    return out if np.ndim(r) else float(out)


def hamiltonian(field, model):
    """Total lattice energy sum p^2/2 + V(r)."""
    return float(np.sum(0.5 * field.p**2 + model._v(field.r)))


def hamiltonian_density(field, model):
    return 0.5 * field.p**2 + model._v(field.r)


def grad_hamiltonian(field, model):
    """H'(u) = (V'(r), p) as a LatticeField on the same window."""
    return LatticeField(field.offset, model._dv(field.r), field.p.copy())


def hessian_apply(field, model, w):
    """H''(u) w = (V''(r) w_r, w_p) for a direction field w."""
    if w.offset != field.offset or len(w) != len(field):
        raise ValueError("direction field must share the window")
    return LatticeField(field.offset, model(field.r, order=2) * w.r, w.p.copy())


def _shift_forward_diff(x):
    """(S - 1) x with zero extension: out(n) = x(n+1) - x(n)."""
    out = np.empty_like(x)
    out[:-1] = x[1:] - x[:-1]
    out[-1] = -x[-1]
    return out


def _shift_backward_diff(x):
    """(1 - S^{-1}) x with zero extension: out(n) = x(n) - x(n-1)."""
    out = np.empty_like(x)
    out[1:] = x[1:] - x[:-1]
    out[0] = x[0]
    return out


def apply_j(v, direction=JDirection.FORWARD):
    """Apply J or J^{-1} to a field with zero extension.

    J v = ((S-1) v_p, (1-S^{-1}) v_r), and the inverse is built from
    prefix sums over the window:

        (J^{-1} v)_1(n) = sum_{m <= n} v_2(m),
        (J^{-1} v)_2(n) = sum_{m <= n-1} v_1(m).

    Applying J after J^{-1} telescopes these sums back to v exactly.
    """
    if direction is JDirection.FORWARD:
        return LatticeField(
            v.offset, _shift_forward_diff(v.p), _shift_backward_diff(v.r)
        )
    first = np.cumsum(v.p)
    second = np.concatenate(([0.0], np.cumsum(v.r)[:-1]))
    return LatticeField(v.offset, first, second)


def weighted_pairing(u, v, kind=PairingKind.PLAIN, weight=None):
    """Pairing <u, v> or <u, J^{-1} v>, optionally against a weight.

    The J^{-1} pairing is evaluated through the rearranged split form

        <u, J^{-1} v>_w = <w u_1, sum_{k<=0} S^k v_2> + <v_1, sum_{k>=1} S^k (w u_2)>,

    which agrees term by term with pairing w*u against J^{-1} v but only
    ever forms one-sided prefix sums of decaying products, so it stays
    finite for weights that grow in one direction.
    """
    if u.offset != v.offset or len(u) != len(v):
        raise ValueError("fields must share the window")
    if weight is not None:
        wts = weight.values(u.sites)
    else:
        wts = np.ones(len(u))
    if kind is PairingKind.PLAIN:
        return float(np.sum(wts * (u.r * v.r + u.p * v.p)))
    left = np.cumsum(v.p)  # sum_{m <= n} v_p(m)
    wup = wts * u.p
    right = np.cumsum(wup[::-1])[::-1] - wup  # sum_{m > n} w(m) u_p(m)
    return float(np.sum(wts * u.r * left + v.r * right))


# ---------------------------------------------------------------------------
# serialization


def field_to_csv(field, path):
    with open(path, "w") as fh:
        fh.write("n,r,p\n")
        for n, r, p in zip(field.sites, field.r, field.p):
            fh.write(f"{n:d},{r:.17g},{p:.17g}\n")


def field_from_csv(path):
    data = np.genfromtxt(path, delimiter=",", skip_header=1)
    data = np.atleast_2d(data)
    offset = int(round(data[0, 0]))
    sites = data[:, 0].astype(int)
    if not np.array_equal(sites, offset + np.arange(len(sites))):
        raise ValueError("csv sites are not consecutive")
    return LatticeField(offset, data[:, 1], data[:, 2])


def field_to_binary(field, path):
    """Little-endian f64 dump with an (offset, length) int64 header."""
    with open(path, "wb") as fh:
        fh.write(_BINARY_MAGIC)
        fh.write(struct.pack("<qq", int(field.offset), len(field)))
        fh.write(field.r.astype("<f8").tobytes())
        fh.write(field.p.astype("<f8").tobytes())


def field_from_binary(path):
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _BINARY_MAGIC:
            raise ValueError("not a lattice field dump")
        offset, length = struct.unpack("<qq", fh.read(16))
        r = np.frombuffer(fh.read(8 * length), dtype="<f8")
        p = np.frombuffer(fh.read(8 * length), dtype="<f8")
    return LatticeField(offset, r.copy(), p.copy())
