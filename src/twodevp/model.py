"""Problem and candidate-solution data model.

A problem instance is a Hermitian pair (A, C) with C indefinite.  A
candidate solution is a triplet (mu, lam, x) of two real scalars and a
complex vector.  This module owns the nonlinear residual map

    F(mu, lam, x) = [ (A - mu*C - lam*I) x ;  -x^H C x / 2 ;  (1 - x^H x)/2 ]

whose roots are the solutions of the two-parameter problem, its norm,
its bordered (n+2) x (n+2) Jacobian, and JSON file I/O for pairs and
triplets.

A Triplet is a value, an immutable NamedTuple.  A HermitianPair and a
TripletStack are objects that compare by identity.
"""

import json
import math
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import TwoDevpError
from .kernels import check_hermitian


@dataclass(frozen=True, eq=False)
class HermitianPair:
    """A Hermitian pair (A, C) with C indefinite."""

    a: np.ndarray
    c: np.ndarray
    n: int = field(init=False)
    norm_a: float = field(init=False)
    norm_c: float = field(init=False)

    def __post_init__(self):
        a = check_hermitian(self.a)
        c = check_hermitian(self.c)
        if a.shape != c.shape:
            raise TwoDevpError("A is %dx%d but C is %dx%d" % (a.shape + c.shape))
        try:
            wa, wc = np.linalg.eigvalsh(a), np.linalg.eigvalsh(c)  # ascending
        except np.linalg.LinAlgError as exc:
            raise TwoDevpError(str(exc))
        # Python floats, which overflow with no warning
        norm_a, norm_c = float(max(-wa[0], wa[-1])), float(max(-wc[0], wc[-1]))
        if not math.isfinite(norm_a + norm_c):
            raise TwoDevpError("|A| + |C| = %r + %r is past the float range" % (norm_a, norm_c))
        thr = 1e-12 * max(norm_c, 1e-300)
        if not (wc[-1] > thr and wc[0] < -thr):
            raise TwoDevpError("C must have both positive and negative eigenvalues")
        a.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "n", a.shape[0])
        object.__setattr__(self, "norm_a", norm_a)
        object.__setattr__(self, "norm_c", norm_c)


class _TripletFields(NamedTuple):
    mu: float
    lam: float
    x: np.ndarray


class Triplet(_TripletFields):
    """Candidate solution (mu, lam): floats, and x: a read-only complex copy of the n-vector given."""

    __slots__ = ()

    def __new__(cls, mu, lam, x):
        x = np.asarray(x, dtype=complex).reshape(-1).copy()
        x.setflags(write=False)
        return super().__new__(cls, float(mu), float(lam), x)

    @classmethod
    def normalized(cls, mu, lam, x):
        """The triplet (mu, lam, x / |x|); ValueError for a non-finite or zero start."""
        x = np.asarray(x, dtype=complex).reshape(-1)
        if not (math.isfinite(mu) and math.isfinite(lam) and np.isfinite(x).all()):
            raise ValueError("mu, lambda and x must be finite")
        nrm = np.linalg.norm(x)
        if nrm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return cls(mu, lam, x / nrm)


class TripletStack:
    """k candidate solutions at once: mu and lam of shape (k,), x of shape (k, n).

    Row i is the triplet (mu[i], lam[i], x[i]), which `stack[i]` returns.
    """

    __slots__ = ("mu", "lam", "x")

    def __init__(self, mu, lam, x):
        self.mu, self.lam, self.x = mu, lam, x

    @classmethod
    def of(cls, triplets):
        return cls(np.array([t.mu for t in triplets]), np.array([t.lam for t in triplets]),
                   np.array([t.x for t in triplets]))

    def __len__(self):
        return self.x.shape[0]

    def __getitem__(self, i):
        return Triplet(self.mu[i], self.lam[i], self.x[i])


def _check_length(pair, x):
    if x.shape[-1] != pair.n:
        raise TwoDevpError("triplet has length %d, pair has n=%d" % (x.shape[-1], pair.n))


def residual(pair, t):
    """The (n+2)-vector F at a triplet."""
    _check_length(pair, t.x)
    return _residual(pair, t.mu, t.lam, t.x)


def _residual(pair, mu, lam, x, weight=1.0):
    """F at (mu, lam, x) with its last entry multiplied by weight; x's length is not checked."""
    n = pair.n
    cx = pair.c @ x
    f = np.empty(n + 2, dtype=complex)
    np.subtract(pair.a @ x - mu * cx, lam * x, out=f[:n])
    f[n] = -0.5 * np.vdot(x, cx).real
    f[n + 1] = 0.5 * (1.0 - np.vdot(x, x).real) * weight
    return f


def power_of_two_near(x):
    """The power of two nearest a positive float x, kept where it and its reciprocal are normal floats.

    Dividing by it, and multiplying back, is exact in the normal range.
    """
    return 2.0 ** min(max(round(math.log2(x)), -1021), 1021)


def residual_norm(pair, t):
    """|F| at a triplet, finite wherever F and its norm are, with no warning.

    The 2-norm sums squares, which overflow from entries of about 1e154 and
    underflow below about 1e-154.  A norm that is not finite, or below
    1e-150 for a nonzero F, is taken again of F divided by a power of two
    near its largest entry, which is exact.
    """
    _check_length(pair, t.x)
    with np.errstate(over="ignore", invalid="ignore"):
        return _residual_norm(pair, t.mu, t.lam, t.x)


def _residual_norm(pair, mu, lam, x, weight=1.0):
    """`residual_norm` of `_residual`, x's length checked and over and invalid ignored by the caller."""
    f = _residual(pair, mu, lam, x, weight)
    nrm = _norm(f)
    if not math.isfinite(nrm) or nrm < 1e-150 and np.any(f):
        big = float(np.max(np.abs(f)))  # inf only where the norm overflows too
        if math.isfinite(big):
            unit = power_of_two_near(big)
            nrm = _norm(f / unit) * unit
    return nrm


def _norm(f):
    """np.linalg.norm of a complex vector, bitwise: the root of the dots of its real and imaginary parts."""
    re, im = f.real, f.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def jacobian(pair, t, weight=1.0):
    """The bordered (n+2) x (n+2) Jacobian of F; Hermitian by construction.

    For a TripletStack t of k triplets it is the (k, n+2, n+2) stack of
    their Jacobians.  The leading block A - mu*C - lam*I is built in place.
    Its -x border row and column are multiplied by weight, a positive
    float: that is D J D with D = diag(I, 1, weight), bitwise the
    product of the unweighted J's border by weight.
    """
    _check_length(pair, t.x)
    n, x = pair.n, t.x
    cx = x @ pair.c.T  # row-wise C x, as C^T = conj(C)
    j = np.zeros(x.shape[:-1] + (n + 2, n + 2), dtype=complex)
    top = j[..., :n, :n]
    np.multiply(np.asarray(t.mu)[..., None, None], pair.c, out=top)
    np.subtract(pair.a, top, out=top)
    # the leading block's diagonal, as a strided view of the flat J
    j.reshape(x.shape[:-1] + (-1,))[..., : n * (n + 3) : n + 3] -= np.asarray(t.lam)[..., None]
    np.negative(cx, out=j[..., :n, n])
    np.conjugate(j[..., :n, n], out=j[..., n, :n])
    if weight == 1.0:
        j[..., :n, n + 1] = -x
        j[..., n + 1, :n] = -x.conj()
    else:
        np.multiply(-x, weight, out=j[..., :n, n + 1])
        np.multiply(-x.conj(), weight, out=j[..., n + 1, :n])
    return j


def jacobian_hat(pair, t):
    """First n rows of the Jacobian: [A - mu*C - lam*I, -Cx, -x]."""
    return jacobian(pair, t)[..., : pair.n, :]


def complex_to_json(arr):
    """A complex array as nested lists of [re, im] pairs."""
    arr = np.asarray(arr, dtype=complex)
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def complex_from_json(rows, what, ndim):
    """Inverse of complex_to_json for an ndim-dimensional array."""
    try:
        arr = np.asarray(rows, dtype=float)
    except (TypeError, ValueError):
        raise TwoDevpError("field %r is not an array of [re, im] pairs" % what)
    if arr.ndim != ndim + 1 or arr.shape[-1] != 2:
        raise TwoDevpError("field %r must be a %d-d array of [re, im] pairs" % (what, ndim))
    return arr[..., 0] + 1j * arr[..., 1]


def _write_json(doc, path):
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def _read_json(path, fields):
    """The JSON object in `path`; TwoDevpError unless it holds every field."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise TwoDevpError("invalid JSON in %s: %s" % (path, exc))
    if not isinstance(doc, dict):
        raise TwoDevpError("%s does not hold a JSON object" % path)
    for key in fields:
        if key not in doc:
            raise TwoDevpError("missing field %r in %s" % (key, path))
    return doc


def save_pair(pair, path):
    _write_json({"n": pair.n, "a": complex_to_json(pair.a), "c": complex_to_json(pair.c)}, path)


def load_pair(path):
    doc = _read_json(path, ("n", "a", "c"))
    a = complex_from_json(doc["a"], "a", 2)
    c = complex_from_json(doc["c"], "c", 2)
    n = doc["n"]
    if a.shape != (n, n) or c.shape != (n, n):
        raise TwoDevpError("matrix shapes %s, %s do not match n=%s" % (a.shape, c.shape, n))
    return HermitianPair(a, c)


def save_triplet(t, path):
    _write_json({"mu": t.mu, "lambda": t.lam, "x": complex_to_json(t.x)}, path)


def load_triplet(path):
    doc = _read_json(path, ("mu", "lambda", "x"))
    mu, lam = doc["mu"], doc["lambda"]
    # bool is no number, and an int past the largest float does not convert
    if not all(type(v) is float or type(v) is int and abs(v) <= sys.float_info.max for v in (mu, lam)):
        raise TwoDevpError("fields 'mu' and 'lambda' in %s must be real numbers in float range" % path)
    return Triplet(mu, lam, complex_from_json(doc["x"], "x", 1))
